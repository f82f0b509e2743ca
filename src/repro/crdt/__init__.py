"""CRDT library: state-based types, the JSON CRDT merge engine, and a registry."""

from .base import StateCRDT
from .gcounter import GCounter
from .gset import GSet
from .lwwregister import LWWRegister
from .mvregister import MVRegister
from .ormap import ORMap
from .orset import ORSet
from .pncounter import PNCounter
from .registry import (
    crdt_from_bytes,
    crdt_from_dict_envelope,
    crdt_to_bytes,
    crdt_to_dict_envelope,
    merge_envelopes,
    register_crdt,
    registered_types,
)
from .rga import HEAD, RGA, RGAEntry
from .text import TextDocument
from .twophase import TwoPhaseSet

__all__ = [
    "StateCRDT",
    "GCounter",
    "PNCounter",
    "GSet",
    "TwoPhaseSet",
    "ORSet",
    "LWWRegister",
    "MVRegister",
    "RGA",
    "RGAEntry",
    "HEAD",
    "TextDocument",
    "ORMap",
    "register_crdt",
    "registered_types",
    "crdt_to_bytes",
    "crdt_from_bytes",
    "crdt_to_dict_envelope",
    "crdt_from_dict_envelope",
    "merge_envelopes",
]
