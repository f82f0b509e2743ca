"""Core value types shared across the Fabric substrate and FabricCRDT.

The types here mirror Hyperledger Fabric's protobuf-level concepts closely
enough that the validation logic can be written exactly as the Fabric peer
implements it:

* :class:`Version` — the ``(block_num, tx_num)`` height Fabric stamps on every
  committed key.  MVCC validation compares these heights for equality.
* :class:`ValidationCode` — the per-transaction validation flag recorded in
  block metadata.
* Read/write-set entry records used by proposals and validation.

Everything is immutable (frozen dataclasses / NamedTuples) so that read/write
sets can be hashed, signed, and compared structurally.  The records a ledger
retains per committed transaction are slotted: no per-instance ``__dict__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

#: JSON values produced/consumed by chaincode.  ``None`` encodes deletion in
#: some call sites but is not a legal stored value.
Json = Union[str, int, float, bool, None, Mapping[str, "Json"], Sequence["Json"]]


class ValidationCode(enum.Enum):
    """Transaction validation flags, a subset of Fabric's ``TxValidationCode``.

    The numeric values match Fabric's protobuf enum where an equivalent exists
    so that block metadata dumps look familiar to Fabric users.
    """

    VALID = 0
    BAD_PAYLOAD = 2
    INVALID_ENDORSER_TRANSACTION = 3
    ENDORSEMENT_POLICY_FAILURE = 10
    MVCC_READ_CONFLICT = 11
    PHANTOM_READ_CONFLICT = 12
    DUPLICATE_TXID = 20
    NOT_VALIDATED = 254

    @property
    def is_valid(self) -> bool:
        return self is ValidationCode.VALID


class TxType(enum.Enum):
    """Transaction flavours observed by the commit pipeline."""

    STANDARD = "standard"
    CRDT = "crdt"
    CONFIG = "config"


@dataclass(frozen=True, order=True, slots=True)
class Version:
    """Fabric's committed-key version: height of the committing transaction.

    A key committed by transaction ``t`` of block ``b`` gets version
    ``Version(b, t)``.  Versions are totally ordered lexicographically, which
    matches commit order.
    """

    block_num: int
    tx_num: int

    def __post_init__(self) -> None:
        if self.block_num < 0 or self.tx_num < 0:
            raise ValueError(f"negative version component: {self!r}")

    def __str__(self) -> str:  # compact "b:t" form used in logs and reports
        return f"{self.block_num}:{self.tx_num}"

    @classmethod
    def parse(cls, text: str) -> "Version":
        block_s, _, tx_s = text.partition(":")
        return cls(int(block_s), int(tx_s))


#: The version assigned to keys that have never been committed.
GENESIS_VERSION: Optional[Version] = None


@dataclass(frozen=True, slots=True)
class ReadItem:
    """One entry of a transaction read-set: key and observed version.

    ``version`` is ``None`` when the key did not exist at simulation time —
    Fabric encodes the same thing with a nil version pointer.
    """

    key: str
    version: Optional[Version]


@dataclass(frozen=True, slots=True)
class WriteItem:
    """One entry of a transaction write-set.

    ``is_delete`` marks tombstones; ``is_crdt`` is FabricCRDT's flag telling
    the committer this value must be CRDT-merged instead of MVCC-validated
    (the paper's "CRDT key-values" marking, §4.3).
    """

    key: str
    value: bytes
    is_delete: bool = False
    is_crdt: bool = False

    def __post_init__(self) -> None:
        if self.is_delete and self.value:
            raise ValueError("delete writes must carry an empty value")
        if self.is_delete and self.is_crdt:
            raise ValueError("CRDT writes cannot be deletes")


@dataclass(frozen=True, slots=True)
class RangeQueryInfo:
    """Recorded range query for phantom-read validation.

    Fabric re-executes committed range queries at validation time and fails
    the transaction with ``PHANTOM_READ_CONFLICT`` if the result set changed.
    We record the half-open key range and the hash of the observed results.
    """

    start_key: str
    end_key: str
    results_hash: bytes


@dataclass(frozen=True, slots=True)
class ReadWriteSet:
    """The simulated execution result of one chaincode invocation."""

    reads: tuple[ReadItem, ...] = ()
    writes: tuple[WriteItem, ...] = ()
    range_queries: tuple[RangeQueryInfo, ...] = ()
    #: memo of ``repro.fabric.transaction.rwset_hash``, taken once: immutable
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        reads: Iterable[ReadItem] = (),
        writes: Iterable[WriteItem] = (),
        range_queries: Iterable[RangeQueryInfo] = (),
    ) -> "ReadWriteSet":
        return cls(tuple(reads), tuple(writes), tuple(range_queries))

    @property
    def read_keys(self) -> tuple[str, ...]:
        return tuple(item.key for item in self.reads)

    @property
    def write_keys(self) -> tuple[str, ...]:
        return tuple(item.key for item in self.writes)

    @property
    def has_crdt_writes(self) -> bool:
        return any(write.is_crdt for write in self.writes)

    @property
    def is_read_only(self) -> bool:
        return not self.writes

    def merged_with(self, other: "ReadWriteSet") -> "ReadWriteSet":
        """Concatenate two read-write sets (used by multi-call invocations)."""

        return ReadWriteSet(
            self.reads + other.reads,
            self.writes + other.writes,
            self.range_queries + other.range_queries,
        )


@dataclass(frozen=True)
class TxStatus:
    """Final fate of a transaction as observed by the submitting client."""

    tx_id: str
    code: ValidationCode
    block_num: Optional[int] = None
    tx_num: Optional[int] = None
    submit_time: Optional[float] = None
    commit_time: Optional[float] = None

    @property
    def succeeded(self) -> bool:
        return self.code.is_valid

    @property
    def latency(self) -> Optional[float]:
        if self.submit_time is None or self.commit_time is None:
            return None
        return self.commit_time - self.submit_time


@dataclass(frozen=True, slots=True)
class KeyModification:
    """One historical modification of a key (for ``GetHistoryForKey``)."""

    tx_id: str
    value: bytes
    is_delete: bool
    version: Version


@dataclass
class Counterstats:
    """Mutable tally used by components that count classified outcomes."""

    counts: dict = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> dict:
        return dict(self.counts)
