"""Hyperledger Fabric substrate: the Execute-Order-Validate engine."""

from .block import GENESIS_PREVIOUS_HASH, Block, BlockHeader, BlockMetadata, CommittedBlock
from .chaincode import ChaincodeRegistry, ShimStub
from .client import (
    AssembledTransaction,
    Client,
    EndorsementRoundFailure,
    select_endorsing_orgs,
)
from .costmodel import CostModel, zero_latency_model
from .events import EventHub, statuses_from_block
from .identity import Identity, MembershipRegistry, Organization, SignedPayload
from .ledger import Ledger
from .localnet import LocalNetwork
from .orderer import OrderingService
from .peer import CommitWork, MergePlan, Peer, PreparedCommit
from .policy import (
    EndorsementPolicy,
    OutOf,
    Principal,
    and_policy,
    majority_policy,
    or_policy,
)
from .store import (
    MemoryStore,
    SqliteStore,
    StateStore,
    VersionedValue,
    WriteBatch,
    compile_selector,
    create_store,
)
from .transaction import (
    EndorsementFailure,
    Proposal,
    ProposalResponse,
    TransactionEnvelope,
    rwset_hash,
    rwset_to_dict,
)

__all__ = [
    "Block",
    "BlockHeader",
    "BlockMetadata",
    "CommittedBlock",
    "GENESIS_PREVIOUS_HASH",
    "ChaincodeRegistry",
    "ShimStub",
    "Client",
    "AssembledTransaction",
    "EndorsementRoundFailure",
    "select_endorsing_orgs",
    "CostModel",
    "zero_latency_model",
    "EventHub",
    "statuses_from_block",
    "Identity",
    "MembershipRegistry",
    "Organization",
    "SignedPayload",
    "Ledger",
    "LocalNetwork",
    "OrderingService",
    "Peer",
    "CommitWork",
    "MergePlan",
    "PreparedCommit",
    "EndorsementPolicy",
    "Principal",
    "OutOf",
    "and_policy",
    "or_policy",
    "majority_policy",
    "VersionedValue",
    "compile_selector",
    "StateStore",
    "MemoryStore",
    "SqliteStore",
    "WriteBatch",
    "create_store",
    "Proposal",
    "ProposalResponse",
    "TransactionEnvelope",
    "EndorsementFailure",
    "rwset_hash",
    "rwset_to_dict",
]
