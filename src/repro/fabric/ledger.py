"""The peer ledger: blockchain store + world state + key history.

A peer's ledger holds the append-only chain of committed blocks (with their
validation metadata), the world state database derived from them, and the
per-key modification history that backs ``GetHistoryForKey``.  The class
also provides :meth:`rebuild_state`, replaying the chain from genesis into a
fresh state database — the invariant test that the world state really is a
pure function of the blockchain (§2.1 of the paper: "executing all valid
transactions included in the blockchain ... results in the current state").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import pairwise
from operator import itemgetter
from typing import Optional

from ..common.errors import LedgerError
from ..common.types import KeyModification, ValidationCode, Version
from .block import GENESIS_PREVIOUS_HASH, CommittedBlock
from .store import MemoryStore, StateStore, WriteBatch


#: A position packs a transaction's place in the chain into one ``int``:
#: ``block << 32 | tx``.
_TX_MASK = (1 << 32) - 1

_tx_index_of = itemgetter(0)


class Ledger:
    """One peer's ledger.

    ``store`` selects the world-state backend (default: the in-memory
    store); the blockchain structure itself — blocks, tx index, key
    history — always lives in memory.

    The tx index and the key history hold *positions* into the chain, not
    copies of what it holds: one packed ``int`` (``block << 32 | tx``) per
    transaction id and per (key, writing transaction).
    :meth:`history_for_key` builds the :class:`KeyModification` entries on
    demand from the block's applied writes, as Fabric's history database
    keeps ``(block, tx)`` and reads values from the block store.
    """

    def __init__(self, store: Optional[StateStore] = None) -> None:
        self.state: StateStore = store if store is not None else MemoryStore()
        self._blocks: list[CommittedBlock] = []
        self._tx_index: dict[str, int] = {}  # tx_id -> position, first occurrence
        self._history: dict[str, list[int]] = {}  # key -> positions of its writers

    # -- chain accessors ---------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of committed blocks (the next expected block number)."""

        return len(self._blocks)

    @property
    def last_hash(self) -> bytes:
        if not self._blocks:
            return GENESIS_PREVIOUS_HASH
        return self._blocks[-1].block.header.hash()

    def block_at(self, number: int) -> CommittedBlock:
        if number < 0:
            # Without this check Python's negative indexing would silently
            # serve blocks from the end of the chain — block "numbers" are
            # absolute heights, never relative offsets.
            raise LedgerError(f"block number must be non-negative, got {number}")
        try:
            return self._blocks[number]
        except IndexError:
            raise LedgerError(f"no block number {number} (height={self.height})") from None

    def blocks(self) -> tuple[CommittedBlock, ...]:
        return tuple(self._blocks)

    def has_transaction(self, tx_id: str) -> bool:
        return tx_id in self._tx_index

    def transaction_status(self, tx_id: str) -> Optional[ValidationCode]:
        position = self._tx_index.get(tx_id)
        if position is None:
            return None
        return self._blocks[position >> 32].metadata.code_for(position & _TX_MASK)

    def history_for_key(self, key: str) -> tuple[KeyModification, ...]:
        """Every applied write of ``key``, oldest first, read from the chain.

        Costs one lookup per transaction that wrote ``key``: a vanilla block
        serves the transaction's own write-set, a merged one the slice of
        ``effective_writes`` found by bisection on the transaction index.
        """

        modifications: list[KeyModification] = []
        for position in self._history.get(key, ()):
            block_num, tx_index = position >> 32, position & _TX_MASK
            committed = self._blocks[block_num]
            tx = committed.block.transactions[tx_index]
            effective = committed.effective_writes
            if effective is None:
                writes = tx.rwset.writes
            else:
                lo = bisect_left(effective, tx_index, key=_tx_index_of)
                hi = bisect_right(effective, tx_index, lo, key=_tx_index_of)
                writes = (write for _, write in effective[lo:hi])
            version = Version(block_num, tx_index)
            modifications.extend(
                KeyModification(
                    tx_id=tx.tx_id,
                    value=write.value,
                    is_delete=write.is_delete,
                    version=version,
                )
                for write in writes
                if write.key == key
            )
        return tuple(modifications)

    # -- commit -------------------------------------------------------------------

    def append_block(self, committed: CommittedBlock) -> None:
        """Append a validated block.  The caller (the peer) has already
        applied the writes to ``self.state``; this records chain structure,
        the tx index, and key history."""

        block = committed.block
        if block.number != self.height:
            raise LedgerError(
                f"block {block.number} out of order (expected {self.height})"
            )
        if not block.verify_integrity(expected_previous_hash=self.last_hash):
            raise LedgerError(f"block {block.number} fails integrity check")
        effective = committed.effective_writes
        if effective is not None and any(
            later < earlier for (earlier, _), (later, _) in pairwise(effective)
        ):
            # history_for_key bisects them by transaction index
            raise LedgerError(
                f"block {block.number}: effective writes out of transaction order"
            )
        self._blocks.append(committed)
        # One int per transaction, shared by the tx index and the history.
        base = block.number << 32
        positions = [base | tx_index for tx_index in range(len(block.transactions))]
        for tx, position in zip(block.transactions, positions):
            self._tx_index.setdefault(tx.tx_id, position)
        history = self._history
        for tx_index, write in committed.writes_applied():
            position = positions[tx_index]
            key_positions = history.get(write.key)
            if key_positions is None:
                history[write.key] = [position]
            elif key_positions[-1] != position:  # a key written twice by one tx: once
                key_positions.append(position)

    # -- replay ---------------------------------------------------------------------

    def rebuild_state(self, into: Optional[StateStore] = None) -> StateStore:
        """Replay the chain into a fresh state store using recorded metadata.

        Each block becomes one :class:`WriteBatch`, applied atomically —
        the same commit path live blocks take.  Returns the rebuilt store
        (an in-memory one unless ``into`` supplies a different backend);
        callers compare it with ``self.state``.
        """

        rebuilt: StateStore = into if into is not None else MemoryStore()
        for committed in self._blocks:
            block = committed.block
            batch = WriteBatch(block_number=block.number)
            for tx_index, write in committed.writes_applied():
                batch.put(
                    write.key, write.value, Version(block.number, tx_index), write.is_delete
                )
            rebuilt.apply_batch(batch)
        return rebuilt

    def verify_chain(self) -> bool:
        """Validate every hash link from genesis to the tip."""

        previous = GENESIS_PREVIOUS_HASH
        for committed in self._blocks:
            if not committed.block.verify_integrity(expected_previous_hash=previous):
                return False
            previous = committed.block.header.hash()
        return True

    # -- statistics -------------------------------------------------------------------

    def count_statuses(self) -> dict[str, int]:
        """Validation-code histogram across all committed transactions."""

        counts: dict[str, int] = {}
        for committed in self._blocks:
            for code in committed.metadata.flags:
                counts[code.name] = counts.get(code.name, 0) + 1
        return counts
