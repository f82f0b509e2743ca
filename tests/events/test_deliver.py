"""DeliverService / DeliverSession: replay, live handoff, exactly-once."""

import pytest

from repro.events.deliver import DeliverError, DeliverService

from .conftest import submit_marks


def numbers(seen):
    return [committed.block.number for committed in seen]


class TestReplay:
    def test_full_chain_replay(self, local_gateway, local_net):
        submit_marks(local_gateway, 8)
        seen = []
        DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=0)
        assert numbers(seen) == [0, 1]
        assert sum(len(block.block) for block in seen) == 8

    def test_replay_from_mid_chain(self, local_gateway, local_net):
        submit_marks(local_gateway, 12)
        seen = []
        DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=2)
        assert numbers(seen) == [2]

    def test_start_past_height_delivers_nothing_until_live(self, local_gateway, local_net):
        seen = []
        DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=0)
        assert seen == []
        submit_marks(local_gateway, 4)
        assert numbers(seen) == [0]

    def test_negative_start_rejected(self, local_net):
        with pytest.raises(DeliverError):
            DeliverService(local_net.anchor_peer).deliver(lambda b: None, start_block=-1)


class TestLiveHandoff:
    def test_replay_then_live_no_gap_no_duplicate(self, local_gateway, local_net):
        submit_marks(local_gateway, 8)
        seen = []
        DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=0)
        submit_marks(local_gateway, 8, prefix="live")
        assert numbers(seen) == [0, 1, 2, 3]

    def test_commits_triggered_by_consumer_delivered_once(self, local_gateway, local_net):
        """A consumer that itself submits transactions (synchronous
        transport) grows the chain mid-replay; every block still arrives
        exactly once, in order."""

        submit_marks(local_gateway, 8)
        contract = local_gateway.get_contract("marking")
        seen = []

        def reactive_consumer(committed):
            seen.append(committed)
            if committed.block.number == 0:
                contract.submit("mark", "reactive")

        DeliverService(local_net.anchor_peer).deliver(reactive_consumer, start_block=0)
        assert numbers(seen) == [0, 1, 2]

    def test_duplicate_publish_ignored(self, local_gateway, local_net):
        submit_marks(local_gateway, 4)
        seen = []
        DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=0)
        # Redeliver an already-seen block straight through the hub.
        local_net.anchor_peer.events.publish(local_net.anchor_peer.ledger.block_at(0))
        assert numbers(seen) == [0]


class TestClose:
    def test_closed_session_stops_delivering(self, local_gateway, local_net):
        submit_marks(local_gateway, 4)
        seen = []
        session = DeliverService(local_net.anchor_peer).deliver(seen.append, start_block=0)
        session.close()
        submit_marks(local_gateway, 4, prefix="after")
        assert numbers(seen) == [0]
        assert session.closed

    def test_close_is_idempotent(self, local_net):
        session = DeliverService(local_net.anchor_peer).deliver(lambda b: None)
        session.close()
        session.close()

    def test_closed_session_keeps_neither_peer_nor_consumer(self, local_gateway, local_net):
        # Whatever opened the session usually holds it, and the consumer is
        # its bound method: a closed session must not close that cycle over
        # the peer's ledger.
        stream = local_gateway.block_events()
        stream.on_event(lambda event: None)
        session = stream._session
        stream.close()
        assert session.peer is None and session._consumer is None
        assert stream.peer_name == local_net.anchor_peer.name

    def test_next_block_tracks_cursor(self, local_gateway, local_net):
        submit_marks(local_gateway, 8)
        session = DeliverService(local_net.anchor_peer).deliver(lambda b: None, start_block=0)
        assert session.next_block == 2
