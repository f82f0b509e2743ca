"""Blocks: header, transaction data, and validation metadata.

Like Fabric, a block is immutable once cut by the orderer; peers record the
per-transaction validation flags in block *metadata* rather than mutating the
data section, so the hash chain covers exactly what the orderer signed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..common.hashing import chain_hash, merkle_root_of_digests
from ..common.types import ValidationCode, WriteItem
from .transaction import TransactionEnvelope

#: Hash value chained before the genesis block.
GENESIS_PREVIOUS_HASH = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Block number plus the hash links."""

    number: int
    previous_hash: bytes
    data_hash: bytes

    def hash(self) -> bytes:
        return chain_hash(self.previous_hash, self.number.to_bytes(8, "big") + self.data_hash)


@dataclass(frozen=True)
class Block:
    """An ordered batch of transactions."""

    header: BlockHeader
    transactions: tuple[TransactionEnvelope, ...]
    cut_reason: str = "unspecified"  # "count" | "bytes" | "timeout" | "flush"
    cut_time: float = 0.0

    @property
    def number(self) -> int:
        return self.header.number

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[TransactionEnvelope]:
        return iter(self.transactions)

    def tx_ids(self) -> tuple[str, ...]:
        return tuple(tx.tx_id for tx in self.transactions)

    @staticmethod
    def data_hash_for(transactions: tuple[TransactionEnvelope, ...]) -> bytes:
        return merkle_root_of_digests(tx.payload_digest() for tx in transactions)

    @classmethod
    def build(
        cls,
        number: int,
        previous_hash: bytes,
        transactions: tuple[TransactionEnvelope, ...],
        cut_reason: str = "unspecified",
        cut_time: float = 0.0,
    ) -> "Block":
        header = BlockHeader(
            number=number,
            previous_hash=previous_hash,
            data_hash=cls.data_hash_for(transactions),
        )
        return cls(header, transactions, cut_reason, cut_time)

    def verify_integrity(self, expected_previous_hash: Optional[bytes] = None) -> bool:
        """Check the data hash (and, if given, the chain link)."""

        if self.header.data_hash != self.data_hash_for(self.transactions):
            return False
        if expected_previous_hash is not None:
            return self.header.previous_hash == expected_previous_hash
        return True


@dataclass
class BlockMetadata:
    """Per-transaction validation flags recorded at commit time."""

    block_num: int
    flags: list[ValidationCode] = field(default_factory=list)

    def mark(self, tx_index: int, code: ValidationCode) -> None:
        while len(self.flags) <= tx_index:
            self.flags.append(ValidationCode.NOT_VALIDATED)
        self.flags[tx_index] = code

    def code_for(self, tx_index: int) -> ValidationCode:
        if tx_index >= len(self.flags):
            return ValidationCode.NOT_VALIDATED
        return self.flags[tx_index]

    @property
    def valid_count(self) -> int:
        return sum(1 for code in self.flags if code.is_valid)

    @property
    def invalid_count(self) -> int:
        return sum(1 for code in self.flags if not code.is_valid)


@dataclass(frozen=True)
class CommittedBlock:
    """A block plus the metadata a peer attached when committing it.

    ``effective_writes`` is ``None`` unless a CRDT merge replaced a
    write-set; then it records exactly what was applied to the world state:
    ``(tx_index, write)`` pairs for every valid transaction, in commit order
    (sorted by ``tx_index``), the CRDT-flagged writes carrying the *merged*
    values (Algorithm 1, line 22 replaces write values before commit).  When
    it is ``None`` the applied writes are the raw write-sets of the valid
    transactions, and :meth:`writes_applied` derives them from the flags.
    Keeping the merged values here — rather than mutating the block —
    preserves the orderer's hash chain while still making the world state a
    replayable function of the ledger (see
    :meth:`repro.fabric.ledger.Ledger.rebuild_state`).
    """

    block: Block
    metadata: BlockMetadata
    commit_time: float = 0.0
    effective_writes: Optional[tuple[tuple[int, WriteItem], ...]] = None

    def statuses(self) -> list[tuple[str, ValidationCode]]:
        return [
            (tx.tx_id, self.metadata.code_for(index))
            for index, tx in enumerate(self.block.transactions)
        ]

    def writes_applied(self) -> tuple[tuple[int, WriteItem], ...]:
        """The writes this commit applied, falling back to raw write-sets."""

        if self.effective_writes is not None:
            return self.effective_writes
        collected: list[tuple[int, WriteItem]] = []
        for index, tx in enumerate(self.block.transactions):
            if self.metadata.code_for(index).is_valid:
                for write in tx.rwset.writes:
                    collected.append((index, write))
        return tuple(collected)
