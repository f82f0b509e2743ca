"""FabricCRDT: the paper's contribution — CRDT-merged transaction commits."""

from .blockmerge import validate_merge_block
from .counters import VotingChaincode
from .jsonmerge import (
    MergedKey,
    init_empty_crdt,
    is_crdt_envelope,
    merge_crdt,
    merge_options,
    merge_value_bytes,
)
from .network import crdt_network, crdt_peer_factory, vanilla_network
from .peer import CRDTPeer

__all__ = [
    "CRDTPeer",
    "validate_merge_block",
    "merge_crdt",
    "merge_value_bytes",
    "merge_options",
    "init_empty_crdt",
    "is_crdt_envelope",
    "MergedKey",
    "crdt_network",
    "vanilla_network",
    "crdt_peer_factory",
    "VotingChaincode",
]
