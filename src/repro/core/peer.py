"""The FabricCRDT peer: a Fabric peer whose committer runs Algorithm 1.

Everything else — endorsement, VSCC, MVCC for non-CRDT transactions, ledger
structure — is inherited unchanged from :class:`repro.fabric.peer.Peer`,
which is exactly the paper's compatibility requirement (§4.2): minimal
changes, reusing Fabric's main components, with non-CRDT transactions
behaving identically.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CRDTConfig
from ..common.types import ValidationCode
from ..fabric.block import Block
from ..fabric.chaincode import ChaincodeRegistry
from ..fabric.identity import Identity, MembershipRegistry
from ..fabric.peer import CommitWork, MergePlan, Peer
from ..fabric.store import StateStore
from .blockmerge import validate_merge_block


class CRDTPeer(Peer):
    """A peer with the CRDT merge-commit path enabled."""

    #: Algorithm 1 seeds every state-CRDT key from its committed value and
    #: merges each write into it, so a handle's delta commits what its
    #: whole state would.
    merges_crdt_writes = True

    def __init__(
        self,
        identity: Identity,
        membership: MembershipRegistry,
        chaincodes: ChaincodeRegistry,
        crdt_config: Optional[CRDTConfig] = None,
        store: Optional[StateStore] = None,
    ) -> None:
        super().__init__(identity, membership, chaincodes, store=store)
        self.crdt_config = crdt_config if crdt_config is not None else CRDTConfig()

    def _plan_crdt_merge(
        self,
        block: Block,
        precodes: list[Optional[ValidationCode]],
        work: CommitWork,
    ) -> Optional[MergePlan]:
        plan = validate_merge_block(block, precodes, self.ledger.state, self.crdt_config)
        if plan.skip_mvcc:
            self.stats.bump("crdt_blocks_merged")
            self.stats.bump("crdt_txs_merged", len(plan.skip_mvcc))
            self.stats.bump("crdt_keys_merged", int(plan.work.get("merge_docs", 0)))
            self.stats.bump("merge_ops_total", int(plan.work.get("merge_ops", 0)))
            self.stats.bump(
                "merge_scan_steps_total", int(plan.work.get("merge_scan_steps", 0))
            )
        return plan
