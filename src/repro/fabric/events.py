"""Commit event delivery (Fabric's event hub / block listener).

Peers publish every committed block to their hub.  The hub is a building
block of the event service: the deliver sessions in
:mod:`repro.events.deliver` ride it for live delivery, and applications
subscribe through Gateway streams (``gateway.block_events()`` /
``contract.contract_events()``), which add replay, filtering, and
checkpointing on top.

Subscribers never run inside the commit path's timing — in the
discrete-event network, publishing happens at the instant the commit
completes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..common.types import TxStatus
from .block import CommittedBlock

BlockListener = Callable[[CommittedBlock, str], None]


class EventHub:
    """Per-peer publish/subscribe for committed blocks."""

    def __init__(self, peer_name: str) -> None:
        self.peer_name = peer_name
        self._listeners: list[BlockListener] = []
        self.published = 0

    def subscribe(self, listener: BlockListener) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe function.

        The event service's deliver sessions (:mod:`repro.events.deliver`)
        ride this for live delivery; applications read the same commits
        through the Gateway streams, which add replay, filtering, and
        checkpointing.
        """

        self._listeners.append(listener)
        spent = False

        def unsubscribe() -> None:
            # Idempotent per registration: a second call is a no-op even if
            # the same callable was subscribed again (it must not remove the
            # other registration), and unsubscribing during a publish only
            # affects later blocks — the in-flight publish iterates over a
            # snapshot of the listener list.
            nonlocal spent
            if spent:
                return
            spent = True
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, committed: CommittedBlock) -> None:
        self.published += 1
        for listener in list(self._listeners):
            listener(committed, self.peer_name)


def statuses_from_block(
    committed: CommittedBlock,
    submit_times: Optional[dict[str, float]] = None,
) -> list[TxStatus]:
    """Expand a committed block into per-transaction statuses.

    ``submit_times`` (tx_id -> client submit time) enriches the statuses with
    latency information when available.
    """

    statuses = []
    for tx_index, tx in enumerate(committed.block.transactions):
        statuses.append(
            TxStatus(
                tx_id=tx.tx_id,
                code=committed.metadata.code_for(tx_index),
                block_num=committed.block.number,
                tx_num=tx_index,
                submit_time=(submit_times or {}).get(tx.tx_id, tx.proposal.submit_time),
                commit_time=committed.commit_time,
            )
        )
    return statuses
