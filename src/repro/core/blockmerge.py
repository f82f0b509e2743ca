"""Algorithm 1 — ``ValidateMergeBlock``: merge CRDT transactions in a block.

The committer-side heart of FabricCRDT.  Given a block and the per-
transaction precheck results (endorsement policy + duplicate TxID), this
module:

1. iterates over every transaction's write-set (first pass, lines 3–14):
   key-value pairs flagged as CRDTs are decoded and merged into a per-key
   CRDT object, instantiated on first sight (``InitEmptyCRDT``);
2. leaves MVCC validation of non-CRDT transactions to the peer (line 15);
3. iterates again (second pass, lines 16–22) replacing every CRDT write
   value with the merged, metadata-stripped result, so all transactions in
   the block commit the identical converged value.

Differences from the paper's pseudocode (README "Merge engine"):

* ``seed_from_state`` first merges the currently committed value of each key
  into the fresh CRDT.  The literal algorithm starts from an empty CRDT each
  block, which can overwrite newer committed state when *every* transaction
  in a block endorsed against stale state; seeding restores the cross-block
  no-update-loss guarantee.  State-CRDT envelopes (counters) are *always*
  seeded — an unseeded counter would forget its committed total.
* transactions whose CRDT payloads fail to decode, nest deeper than
  ``MAX_NESTING_DEPTH``, or mix incompatible kinds are invalidated with
  ``BAD_PAYLOAD`` instead of crashing the committer; a JSON payload is
  checked whole before it is merged, so a rejected one leaves no trace in
  the value the block commits.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.config import CRDTConfig
from ..common.errors import CRDTError, SerializationError
from ..common.serialization import from_bytes
from ..common.types import ValidationCode, WriteItem
from ..fabric.block import Block
from ..fabric.peer import MergePlan
from ..fabric.store import StateStore
from .jsonmerge import MergedKey, init_empty_crdt, is_crdt_envelope, merge_crdt


class _BlockDecodeCache:
    """Per-block memo of ``from_bytes`` results, keyed by the raw bytes.

    A hot key appears in many transactions of one block — conflicting
    workloads put *every* transaction on the same key — and, with
    content-deduplicated payloads, often with byte-identical values.  The
    committed world-state value read by ``_seed_from_state`` is likewise
    one fixed byte string per key per block.  Caching the decode means each
    distinct byte string is deserialized once per block instead of once per
    transaction.  Safe because every consumer of the decoded JSON treats it
    as read-only (merge generates operations; ``from_dict`` copies).
    """

    def __init__(self) -> None:
        self._memo: dict[bytes, Any] = {}
        self.hits = 0
        self.misses = 0

    def decode(self, raw: bytes) -> Any:
        try:
            value = self._memo[raw]
            self.hits += 1
            return value
        except KeyError:
            value = from_bytes(raw)  # may raise SerializationError
            self._memo[raw] = value
            self.misses += 1
            return value


def validate_merge_block(
    block: Block,
    precodes: list[Optional[ValidationCode]],
    state: StateStore,
    config: CRDTConfig,
) -> MergePlan:
    """Build the merge plan for ``block`` (the peer applies it).

    ``precodes[i]`` is ``None`` when transaction ``i`` passed endorsement
    validation (the paper's definition of *valid transactions* eligible for
    merging) and a :class:`ValidationCode` when it already failed.
    """

    actor = f"b{block.number}"
    crdts: dict[str, MergedKey] = {}
    crdt_tx_indices: set[int] = set()
    forced_codes: dict[int, ValidationCode] = {}
    merge_ops = 0
    merge_scan_steps = 0
    cache = _BlockDecodeCache()

    # -- first pass: merge every flagged key-value (lines 3-14) ---------------
    for tx_index, tx in enumerate(block.transactions):
        if precodes[tx_index] is not None:
            continue  # failed endorsement validation: not a valid transaction
        crdt_writes = [w for w in tx.rwset.writes if w.is_crdt]
        if not crdt_writes:
            continue  # handled as a non-CRDT transaction (line 14)
        try:
            decoded = [(w, cache.decode(w.value)) for w in crdt_writes]
        except (SerializationError, RecursionError):  # malformed, or nested past the parser
            forced_codes[tx_index] = ValidationCode.BAD_PAYLOAD
            continue
        try:
            for write, value in decoded:
                merged = crdts.get(write.key)
                if merged is None:  # lines 8-10: InitEmptyCRDT
                    merged = init_empty_crdt(write.key, value, actor)
                    _seed_from_state(merged, state, config, cache)
                    crdts[write.key] = merged
                before = _scan_steps(merged)
                operations = merge_crdt(merged, value, config)  # line 11
                merge_ops += len(operations) + merged.envelope_merge_ops
                merged.envelope_merge_ops = 0
                merge_scan_steps += _scan_steps(merged) - before
        except CRDTError:
            forced_codes[tx_index] = ValidationCode.BAD_PAYLOAD
            continue
        crdt_tx_indices.add(tx_index)

    # (line 15 — MVCC validation of non-CRDT transactions — runs in the peer.)

    # -- second pass: substitute merged values (lines 16-22) -------------------
    committed_bytes = {key: merged.to_committed_bytes() for key, merged in crdts.items()}
    replacement_writes: dict[int, tuple[WriteItem, ...]] = {}
    for tx_index in crdt_tx_indices:
        tx = block.transactions[tx_index]
        new_writes = tuple(
            WriteItem(
                key=write.key,
                value=committed_bytes[write.key],
                is_delete=False,
                is_crdt=True,
            )
            if write.is_crdt and write.key in committed_bytes
            else write
            for write in tx.rwset.writes
        )
        replacement_writes[tx_index] = new_writes

    return MergePlan(
        skip_mvcc=frozenset(crdt_tx_indices),
        replacement_writes=replacement_writes,
        forced_codes=forced_codes,
        work={
            "merge_ops": merge_ops,
            "merge_scan_steps": merge_scan_steps,
            "merge_docs": len(crdts),
            "decode_cache_hits": cache.hits,
            "decode_cache_misses": cache.misses,
        },
    )


def _seed_from_state(
    merged: MergedKey,
    state: StateStore,
    config: CRDTConfig,
    cache: Optional[_BlockDecodeCache] = None,
) -> None:
    """Merge the committed value of the key into the fresh CRDT.

    JSON CRDTs seed only when ``config.seed_from_state`` asks for it;
    state-CRDT envelopes always seed (their value is cumulative).  ``cache``
    is the per-block decode memo: within one block the committed bytes of a
    key are fixed, so the hot key's state is deserialized at most once per
    block rather than once per transaction touching it.
    """

    raw = state.get_value(merged.key)
    if raw is None:
        return
    try:
        committed_value = cache.decode(raw) if cache is not None else from_bytes(raw)
    except SerializationError:
        return  # non-JSON committed value: nothing to seed from
    if merged.kind == "state":
        if is_crdt_envelope(committed_value):
            merge_crdt(merged, committed_value, config)
            merged.values_merged -= 1  # seeding is not a client update
            merged.envelope_merge_ops = 0
        return
    if config.seed_from_state and isinstance(committed_value, dict):
        merge_crdt(merged, committed_value, config)
        merged.values_merged -= 1


def _scan_steps(merged: MergedKey) -> int:
    return merged.document.stats.list_scan_steps if merged.document is not None else 0
