"""The Fabric peer: endorsement, validation (VSCC + MVCC), and commit.

This module implements the *protocol logic* only — no timing.  The
discrete-event wrapper (:mod:`repro.fabric.network`) wraps these methods with
service times; unit tests and the synchronous :class:`~repro.fabric.localnet.
LocalNetwork` call them directly.

The commit pipeline follows Fabric's committer exactly:

1. **VSCC** (per transaction, parallelizable): verify the endorsements and
   evaluate the endorsement policy the chaincode was deployed under (read
   from the peer's registry, never from the transaction); an envelope for a
   chaincode this peer has not deployed is ``INVALID_ENDORSER_TRANSACTION``.
2. **Duplicate check**: a transaction ID already committed — or appearing
   earlier in the same block — invalidates the later occurrence.
3. **MVCC** (sequential): compare each read's version against the committed
   state *plus the writes of preceding valid transactions in this block*;
   any mismatch marks ``MVCC_READ_CONFLICT``.  The committed versions are
   read in bulk, once per block (``StateStore.get_versions``).  Recorded
   range queries are re-executed for phantom detection.
4. **Commit**: apply the writes of valid transactions at version
   ``(block_num, tx_num)``, append the block with its metadata, publish
   events.

FabricCRDT plugs in via :meth:`Peer._plan_crdt_merge`, which the subclass in
:mod:`repro.core.peer` overrides with Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Union

from ..common.hashing import sha256
from ..common.serialization import to_bytes
from ..common.types import (
    Counterstats,
    ReadWriteSet,
    ValidationCode,
    Version,
    WriteItem,
)
from .block import Block, BlockMetadata, CommittedBlock
from .chaincode import ChaincodeRegistry, ShimStub
from .events import EventHub
from .identity import Identity, MembershipRegistry
from .ledger import Ledger
from .policy import PolicyNode
from .store import StateStore, WriteBatch
from .transaction import (
    EndorsementFailure,
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
    endorsed_payload_bytes,
)


@dataclass
class MergePlan:
    """What a CRDT-capable committer decided to do with a block.

    * ``skip_mvcc`` — indices of transactions that bypass MVCC validation
      (the paper: "CRDT transactions only go through the endorsement
      validation check").
    * ``replacement_writes`` — per transaction index, the write-set to apply
      instead of the raw one (CRDT values replaced by merged values).
    * ``forced_codes`` — transactions the merger decided to invalidate
      (e.g. unparseable CRDT payloads), overriding normal validation.
    * ``work`` — merge work counters for the cost model.
    """

    skip_mvcc: frozenset[int] = frozenset()
    replacement_writes: dict[int, tuple[WriteItem, ...]] = field(default_factory=dict)
    forced_codes: dict[int, ValidationCode] = field(default_factory=dict)
    work: dict = field(default_factory=dict)


@dataclass
class CommitWork:
    """Work accounting for one block commit (consumed by the cost model)."""

    tx_count: int = 0
    vscc_checks: int = 0
    mvcc_reads: int = 0
    range_requeries: int = 0
    writes_applied: int = 0
    distinct_keys_written: int = 0
    bytes_written: int = 0
    merge_ops: int = 0
    merge_scan_steps: int = 0
    merge_docs: int = 0


@dataclass
class PreparedCommit:
    """A fully validated (and, for FabricCRDT, merged) block ready to apply.

    Produced by :meth:`Peer.prepare_block`; applied by
    :meth:`Peer.apply_prepared`.  ``batch`` carries the block's effective
    writes as one :class:`~repro.fabric.store.WriteBatch`, applied
    atomically by the state store (one SQL transaction on the persistent
    backend).  The split exists for the discrete-event
    wrapper: validation work is computed at the *start* of the commit service
    window, the state change becomes visible at its *end* — endorsements
    sampled during the window therefore see pre-block state, exactly like a
    real peer whose commit applies atomically after validation.
    """

    block: Block
    metadata: BlockMetadata
    #: ``None`` unless the merge plan replaced a write-set (see
    #: :class:`~repro.fabric.block.CommittedBlock`).
    effective_writes: Optional[tuple[tuple[int, WriteItem], ...]]
    work: CommitWork
    #: The block-scoped state mutation, applied atomically by the store.
    batch: WriteBatch


class Peer:
    """One peer node (pure logic)."""

    #: Whether the committer merges CRDT-flagged writes into the committed
    #: value; endorsement tells the chaincode stub (``crdt_deltas``).
    merges_crdt_writes = False

    def __init__(
        self,
        identity: Identity,
        membership: MembershipRegistry,
        chaincodes: ChaincodeRegistry,
        store: Optional[StateStore] = None,
    ) -> None:
        self.identity = identity
        self.membership = membership
        self.chaincodes = chaincodes
        self.ledger = Ledger(store=store)
        self.events = EventHub(self.name)
        self.stats = Counterstats()
        self.last_commit_work: Optional[CommitWork] = None
        #: Telemetry context (``None`` = off; see :meth:`enable_telemetry`).
        self.telemetry = None
        self._tel: Optional[dict] = None

    @property
    def name(self) -> str:
        return self.identity.qualified_name

    @property
    def org_name(self) -> str:
        return self.identity.org.name

    # ------------------------------------------------------------------
    # Telemetry (opt-in, out-of-band)
    # ------------------------------------------------------------------

    def enable_telemetry(self, telemetry) -> None:
        """Instrument this peer into ``telemetry``'s metrics registry.

        Registers endorse/validate/merge/apply wall-clock histograms plus
        MVCC-conflict, per-code validation, and decode-cache counters, and
        wraps the world-state store in an
        :class:`~repro.fabric.store.instrument.InstrumentedStore`.  All
        measurements are real-machine ``perf_counter`` costs recorded out
        of band — protocol behaviour and simulated timings are unchanged.
        """

        from .store.instrument import InstrumentedStore

        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._tel = {
            "endorse_seconds": metrics.histogram(
                "repro_peer_endorse_seconds",
                "Chaincode simulation + endorsement signing latency",
            ),
            "validate_seconds": metrics.histogram(
                "repro_peer_validate_seconds",
                "Block validation latency (VSCC + MVCC + CRDT merge)",
            ),
            "merge_seconds": metrics.histogram(
                "repro_peer_merge_seconds",
                "CRDT merge-planning latency within block validation",
            ),
            "apply_seconds": metrics.histogram(
                "repro_peer_apply_seconds",
                "Prepared-commit application latency (state + ledger + events)",
            ),
            "proposals": metrics.counter(
                "repro_peer_proposals_total", "Endorsement proposals, by outcome"
            ),
            "txs_validated": metrics.counter(
                "repro_peer_txs_validated_total",
                "Transactions validated at commit, by validation code",
            ),
            "mvcc_conflicts": metrics.counter(
                "repro_peer_mvcc_conflicts_total",
                "Transactions invalidated by MVCC or phantom read conflicts",
            ),
            "cache_hits": metrics.counter(
                "repro_peer_decode_cache_hits_total",
                "CRDT block-merge decode cache hits",
            ),
            "cache_misses": metrics.counter(
                "repro_peer_decode_cache_misses_total",
                "CRDT block-merge decode cache misses",
            ),
        }
        if not isinstance(self.ledger.state, InstrumentedStore):
            self.ledger.state = InstrumentedStore(
                self.ledger.state, telemetry, node=self.name
            )

    # ------------------------------------------------------------------
    # Endorsement (Step 2 of Figure 1)
    # ------------------------------------------------------------------

    def endorse(
        self, proposal: Proposal, timestamp: float = 0.0
    ) -> Union[ProposalResponse, EndorsementFailure]:
        """Simulate the proposal against local state and sign the result."""

        if self._tel is None:
            return self._endorse(proposal, timestamp)
        started = perf_counter()
        outcome = self._endorse(proposal, timestamp)
        self._tel["endorse_seconds"].observe(perf_counter() - started, peer=self.name)
        result = "endorsed" if isinstance(outcome, ProposalResponse) else "failed"
        self._tel["proposals"].inc(peer=self.name, outcome=result)
        return outcome

    def _endorse(
        self, proposal: Proposal, timestamp: float
    ) -> Union[ProposalResponse, EndorsementFailure]:
        self.stats.bump("proposals_received")
        try:
            chaincode = self.chaincodes.get(proposal.chaincode)
        except Exception as exc:
            self.stats.bump("endorsement_failures")
            return EndorsementFailure(proposal.tx_id, self.name, str(exc))
        stub = ShimStub(
            self.ledger.state,
            proposal.tx_id,
            timestamp,
            history=self.ledger.history_for_key,
            crdt_deltas=self.merges_crdt_writes,
        )
        try:
            result = chaincode.invoke(stub, proposal.function, proposal.args)
        except Exception as exc:
            self.stats.bump("endorsement_failures")
            return EndorsementFailure(
                proposal.tx_id, self.name, "chaincode error", chaincode_error=str(exc)
            )
        rwset = stub.build_rwset()
        result_bytes = to_bytes(result)
        event = stub.event
        response_hash = sha256(endorsed_payload_bytes(rwset, result_bytes, event))
        endorsement = self.membership.sign_as(self.name, response_hash)
        self.stats.bump("proposals_endorsed")
        return ProposalResponse(
            tx_id=proposal.tx_id,
            endorser=self.name,
            rwset=rwset,
            chaincode_result=result_bytes,
            endorsement=endorsement,
            event=event,
        )

    # ------------------------------------------------------------------
    # Validation + commit (Step 5 of Figure 1)
    # ------------------------------------------------------------------

    def prepare_block(self, block: Block) -> PreparedCommit:
        """Validate (and CRDT-merge, if applicable) a block without applying."""

        if self._tel is None:
            return self._prepare_block(block)
        started = perf_counter()
        prepared = self._prepare_block(block)
        tel = self._tel
        tel["validate_seconds"].observe(perf_counter() - started, peer=self.name)
        conflicts = 0
        for code in prepared.metadata.flags:
            tel["txs_validated"].inc(peer=self.name, code=code.name)
            if code in (
                ValidationCode.MVCC_READ_CONFLICT,
                ValidationCode.PHANTOM_READ_CONFLICT,
            ):
                conflicts += 1
        if conflicts:
            tel["mvcc_conflicts"].inc(conflicts, peer=self.name)
        return prepared

    def _prepare_block(self, block: Block) -> PreparedCommit:
        work = CommitWork(tx_count=len(block))
        metadata = BlockMetadata(block.number)

        precodes = self._precheck(block, work)
        if self._tel is None:
            plan = self._plan_crdt_merge(block, precodes, work) or MergePlan()
        else:
            merge_started = perf_counter()
            plan = self._plan_crdt_merge(block, precodes, work) or MergePlan()
            self._tel["merge_seconds"].observe(
                perf_counter() - merge_started, peer=self.name
            )
            self._tel["cache_hits"].inc(
                int(plan.work.get("decode_cache_hits", 0)), peer=self.name
            )
            self._tel["cache_misses"].inc(
                int(plan.work.get("decode_cache_misses", 0)), peer=self.name
            )

        # Fabric's LoadCommittedVersions: one bulk read of every committed
        # version the MVCC stage below can ask for.  State does not change
        # while a block is prepared, so these are the versions at its start.
        read_keys = {
            read.key
            for tx_index, tx in enumerate(block.transactions)
            if precodes[tx_index] is None
            and tx_index not in plan.forced_codes
            and tx_index not in plan.skip_mvcc
            for read in tx.rwset.reads
        }
        committed = self.ledger.state.get_versions(read_keys) if read_keys else {}

        # A commit whose writes are the raw write-sets of its valid
        # transactions keeps no second list of them: CommittedBlock derives
        # them from flags + rwsets.
        effective: Optional[list[tuple[int, WriteItem]]] = (
            [] if plan.replacement_writes else None
        )
        pending: dict[str, Optional[Version]] = {}
        batch = WriteBatch(block_number=block.number)
        for tx_index, tx in enumerate(block.transactions):
            code = precodes[tx_index]
            if code is None and tx_index in plan.forced_codes:
                code = plan.forced_codes[tx_index]
            if code is None:
                if tx_index in plan.skip_mvcc:
                    code = ValidationCode.VALID
                else:
                    code = self._mvcc_validate(tx.rwset, pending, committed, work)
            if code is ValidationCode.VALID:
                version = Version(block.number, tx_index)
                writes = plan.replacement_writes.get(tx_index, tx.rwset.writes)
                for write in writes:
                    pending[write.key] = None if write.is_delete else version
                    work.writes_applied += 1
                    work.bytes_written += len(write.value)
                    batch.put(write.key, write.value, version, write.is_delete)
                    if effective is not None:
                        effective.append((tx_index, write))
            metadata.mark(tx_index, code)
        work.distinct_keys_written = len(batch.distinct_keys())
        work.merge_ops = int(plan.work.get("merge_ops", 0))
        work.merge_scan_steps = int(plan.work.get("merge_scan_steps", 0))
        work.merge_docs = int(plan.work.get("merge_docs", 0))

        return PreparedCommit(
            block=block,
            metadata=metadata,
            effective_writes=None if effective is None else tuple(effective),
            work=work,
            batch=batch,
        )

    def apply_prepared(
        self, prepared: PreparedCommit, commit_time: float = 0.0, frame: Optional[bytes] = None
    ) -> CommittedBlock:
        """Apply a prepared commit: write state, append the block, publish.

        ``frame`` is the block's compressed ``raw_block`` payload, if the
        caller has one; the ledger keeps old blocks as that (see
        :meth:`Ledger.append_block`).
        """

        if self._tel is None:
            return self._apply_prepared(prepared, commit_time, frame)
        started = perf_counter()
        committed = self._apply_prepared(prepared, commit_time, frame)
        self._tel["apply_seconds"].observe(perf_counter() - started, peer=self.name)
        return committed

    def _apply_prepared(
        self, prepared: PreparedCommit, commit_time: float, frame: Optional[bytes]
    ) -> CommittedBlock:
        block = prepared.block
        self.ledger.state.apply_batch(prepared.batch)
        committed = CommittedBlock(
            block=block,
            metadata=prepared.metadata,
            commit_time=commit_time,
            effective_writes=prepared.effective_writes,
        )
        self.ledger.append_block(committed, frame)
        self.stats.bump("blocks_committed")
        self.stats.bump("txs_valid", prepared.metadata.valid_count)
        self.stats.bump("txs_invalid", prepared.metadata.invalid_count)
        self.last_commit_work = prepared.work
        self.events.publish(committed)
        return committed

    def validate_and_commit(
        self, block: Block, commit_time: float = 0.0, frame: Optional[bytes] = None
    ) -> CommittedBlock:
        """Run the full commit pipeline and append the block (synchronous)."""

        return self.apply_prepared(self.prepare_block(block), commit_time, frame)

    # -- pipeline stages --------------------------------------------------------

    def _precheck(self, block: Block, work: CommitWork) -> list[Optional[ValidationCode]]:
        """VSCC + duplicate-TxID checks.  ``None`` means "so far valid"."""

        precodes: list[Optional[ValidationCode]] = []
        seen_in_block: set[str] = set()
        for tx in block.transactions:
            work.vscc_checks += 1
            if self.ledger.has_transaction(tx.tx_id) or tx.tx_id in seen_in_block:
                precodes.append(ValidationCode.DUPLICATE_TXID)
                continue
            seen_in_block.add(tx.tx_id)
            policy = self.chaincodes.policy_for(tx.proposal.chaincode)
            if policy is None:
                precodes.append(ValidationCode.INVALID_ENDORSER_TRANSACTION)
            elif not self._vscc(tx, policy):
                precodes.append(ValidationCode.ENDORSEMENT_POLICY_FAILURE)
            else:
                precodes.append(None)
        return precodes

    def _vscc(self, tx: TransactionEnvelope, policy: PolicyNode) -> bool:
        """Verify endorsement signatures and evaluate the deployed ``policy``."""

        if not tx.endorsements:
            return False
        tx.payload_digest()  # one read-write-set encoding for this and verify_integrity
        response_hash = sha256(
            endorsed_payload_bytes(tx.rwset, tx.chaincode_result, tx.event)
        )
        endorsing_orgs: set[str] = set()
        for endorsement in tx.endorsements:
            if not self.membership.verify(endorsement, response_hash):
                continue
            endorsing_orgs.add(self.membership.org_of(endorsement.signer).name)
        return policy.satisfied_by(endorsing_orgs)

    def _mvcc_validate(
        self,
        rwset: ReadWriteSet,
        pending: dict[str, Optional[Version]],
        committed: dict[str, Optional[Version]],
        work: CommitWork,
    ) -> ValidationCode:
        """Sequential read-set validation: a read must see the version the
        block's earlier valid writes left (``pending``), else the committed
        version at block start (``committed``)."""

        for read in rwset.reads:
            work.mvcc_reads += 1
            if read.key in pending:
                current = pending[read.key]
            else:
                current = committed[read.key]
            if read.version != current:
                return ValidationCode.MVCC_READ_CONFLICT
        for range_query in rwset.range_queries:
            work.range_requeries += 1
            observed = self._overlay_range_hash(
                range_query.start_key, range_query.end_key, pending
            )
            if observed != range_query.results_hash:
                return ValidationCode.PHANTOM_READ_CONFLICT
        return ValidationCode.VALID

    def _overlay_range_hash(
        self, start_key: str, end_key: str, pending: dict[str, Optional[Version]]
    ) -> bytes:
        """Hash of the range-query result over state overlaid with in-block
        writes, matching the hash recorded by the shim at simulation time."""

        versions: dict[str, Optional[Version]] = {}
        for key, entry in self.ledger.state.range_scan(start_key, end_key):
            versions[key] = entry.version
        for key, version in pending.items():
            if key >= start_key and (not end_key or key < end_key):
                versions[key] = version  # None means deleted
        material = [
            f"{key}\x00{versions[key]}"
            for key in sorted(versions)
            if versions[key] is not None
        ]
        return sha256("\x01".join(material).encode("utf-8"))

    # -- CRDT extension point -----------------------------------------------------

    def _plan_crdt_merge(
        self,
        block: Block,
        precodes: list[Optional[ValidationCode]],
        work: CommitWork,
    ) -> Optional[MergePlan]:
        """Hook for FabricCRDT's Algorithm 1.  Vanilla peers do nothing."""

        return None

    # -- queries ------------------------------------------------------------------

    def world_state(self) -> StateStore:
        return self.ledger.state

    def __repr__(self) -> str:
        return f"<Peer {self.name} height={self.ledger.height}>"
