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
  ``BAD_PAYLOAD`` instead of crashing the committer; all of a transaction's
  CRDT writes are checked before any is merged, so a rejected transaction
  leaves no trace in the values the block commits.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.config import CRDTConfig
from ..common.errors import CRDTError, MergeTypeError, SerializationError
from ..common.serialization import from_bytes
from ..common.types import ValidationCode, WriteItem
from ..crdt.base import StateCRDT
from ..crdt.json import MergeOptions, check_mergeable, merge_checked
from ..crdt.registry import crdt_from_dict_envelope, is_dict_envelope
from ..fabric.block import Block
from ..fabric.peer import MergePlan
from ..fabric.store import StateStore
from .jsonmerge import MergedKey, init_empty_crdt, merge_crdt, merge_options


class _BlockDecodeCache:
    """Per-block memo of ``from_bytes`` results, keyed by the raw bytes.

    A hot key appears in many transactions of one block — conflicting
    workloads put *every* transaction on the same key — and, with
    content-deduplicated payloads, often with byte-identical values.  The
    committed world-state value read by ``_seed_from_state`` is likewise
    one fixed byte string per key per block.  Caching the decode means each
    distinct byte string is deserialized once per block instead of once per
    transaction.  Safe because every consumer of the decoded JSON treats it
    as read-only (the merge writes into its own document; ``from_dict`` copies).
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

    crdts: dict[str, MergedKey] = {}
    crdt_tx_indices: set[int] = set()
    forced_codes: dict[int, ValidationCode] = {}
    merge_ops = 0
    merge_scan_steps = 0
    cache = _BlockDecodeCache()
    options = merge_options(config)

    # -- first pass: merge every flagged key-value (lines 3-14) ---------------
    for tx_index, tx in enumerate(block.transactions):
        if precodes[tx_index] is not None:
            continue  # failed endorsement validation: not a valid transaction
        crdt_writes = [w for w in tx.rwset.writes if w.is_crdt]
        if not crdt_writes:
            continue  # handled as a non-CRDT transaction (line 14)
        try:
            decoded = [(w, cache.decode(w.value)) for w in crdt_writes]
            ready = _check_writes(decoded, crdts, state, options, config, cache)
        except (SerializationError, RecursionError, CRDTError):  # unparsable, or refused
            forced_codes[tx_index] = ValidationCode.BAD_PAYLOAD
            continue
        for merged, value in ready:  # checked: nothing below can raise
            crdts[merged.key] = merged  # lines 8-10 take effect only now
            if merged.document is None:
                merged.state_crdt = value  # line 11, merged while checking
                merge_ops += 1
            else:
                before = _scan_steps(merged)
                merge_ops += merge_checked(merged.document, value, options)  # line 11
                merge_scan_steps += _scan_steps(merged) - before
            merged.values_merged += 1
        crdt_tx_indices.add(tx_index)

    # (line 15 — MVCC validation of non-CRDT transactions — runs in the peer.)

    # -- second pass: substitute merged values (lines 16-22) -------------------
    # Every CRDT write of a key in the block commits the same merged value,
    # so one WriteItem per key serves all of the block's transactions.
    merged_writes = {
        key: WriteItem(key=key, value=merged.to_committed_bytes(), is_delete=False, is_crdt=True)
        for key, merged in crdts.items()
    }
    replacement_writes: dict[int, tuple[WriteItem, ...]] = {
        tx_index: tuple(
            merged_writes.get(write.key, write) if write.is_crdt else write
            for write in block.transactions[tx_index].rwset.writes
        )
        for tx_index in crdt_tx_indices
    }

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


def _check_writes(
    decoded: list[tuple[WriteItem, Any]],
    crdts: dict[str, MergedKey],
    state: StateStore,
    options: MergeOptions,
    config: CRDTConfig,
    cache: _BlockDecodeCache,
) -> list[tuple[MergedKey, Any]]:
    """Check all CRDT writes of one transaction; ``crdts`` is left as it is.

    Returns, per write, the key's CRDT (fresh and seeded, lines 8-10, if new
    to the block) and what to give it: a JSON object ``merge_checked`` will
    take, or the key's state CRDT with the envelope merged in — that merge is
    pure and can refuse on content.  Raises :class:`CRDTError` for anything
    ``merge_crdt`` would refuse, in the block or earlier in this transaction.
    """

    created: dict[str, MergedKey] = {}
    staged: dict[str, StateCRDT] = {}  # this transaction's state merges so far
    ready: list[tuple[MergedKey, Any]] = []
    for write, value in decoded:
        merged = crdts.get(write.key) or created.get(write.key)
        if merged is None:
            merged = created[write.key] = init_empty_crdt(write.key, value)
            _seed_from_state(merged, state, config, cache)
        if is_dict_envelope(value) != (merged.document is None):
            raise MergeTypeError(f"key {write.key!r}: not a {merged.kind} CRDT value")
        if merged.document is None:
            current = staged.get(write.key, merged.state_crdt)
            value = staged[write.key] = current.merge(crdt_from_dict_envelope(value))
        else:
            check_mergeable(value, options)
        ready.append((merged, value))
    return ready


def _seed_from_state(
    merged: MergedKey, state: StateStore, config: CRDTConfig, cache: _BlockDecodeCache
) -> None:
    """Merge the committed value of the key into the fresh CRDT.

    JSON CRDTs seed only when ``config.seed_from_state`` asks for it (and
    read nothing otherwise); state-CRDT envelopes always seed (their value is
    cumulative).  ``cache`` is the per-block decode memo: within one block
    the committed bytes of a key are fixed, so the hot key's state is
    deserialized at most once per block rather than once per transaction.
    """

    if merged.kind == "json" and not config.seed_from_state:
        return
    raw = state.get_value(merged.key)
    if raw is None:
        return
    try:
        committed_value = cache.decode(raw)
    except SerializationError:
        return  # non-JSON committed value: nothing to seed from
    if merged.kind == "state":
        if is_dict_envelope(committed_value):
            merge_crdt(merged, committed_value, config)
            merged.values_merged -= 1  # seeding is not a client update
    elif isinstance(committed_value, dict):
        merge_crdt(merged, committed_value, config)
        merged.values_merged -= 1


def _scan_steps(merged: MergedKey) -> int:
    return merged.document.stats.list_scan_steps if merged.document is not None else 0
