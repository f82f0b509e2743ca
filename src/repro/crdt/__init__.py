"""CRDT library: the types a ``ctx.crdt`` handle writes (the operation-based
G-Counter and PN-Counter, and the state-based OR-Set, LWW-Register and
RGA-backed text document), their envelope codec, and the JSON CRDT merge
engine."""

from .base import StateCRDT
from .gcounter import GCounter
from .lwwregister import LWWRegister
from .orset import ORSet
from .pncounter import PNCounter
from .registry import CRDT_TYPES, crdt_from_dict_envelope, crdt_to_dict_envelope
from .rga import HEAD, RGA, RGAEntry
from .text import TextDocument

__all__ = [
    "StateCRDT",
    "GCounter",
    "PNCounter",
    "ORSet",
    "LWWRegister",
    "RGA",
    "RGAEntry",
    "HEAD",
    "TextDocument",
    "CRDT_TYPES",
    "crdt_to_dict_envelope",
    "crdt_from_dict_envelope",
]
