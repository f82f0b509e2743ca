"""EventHub semantics: unsubscribe edge cases, and no deprecated surface."""

import warnings

from repro.fabric.block import Block, BlockMetadata, CommittedBlock

from .helpers import build_peer, endorsed_tx, write_rwset


def committed_block(peer, number=0, nonce=1):
    tx = endorsed_tx(peer, write_rwset(("key", {"n": nonce})), nonce)
    block = Block.build(number, b"\x00" * 32, (tx,))
    return CommittedBlock(block=block, metadata=BlockMetadata(number))


class TestUnsubscribeDuringPublish:
    def test_listener_removed_mid_publish_still_gets_current_block(self):
        """Publish iterates a snapshot: unsubscribing a later listener from
        an earlier one's callback only affects *subsequent* blocks."""

        peer = build_peer()
        hub = peer.events
        seen = []
        unsubscribe_second = None

        def first(committed, peer_name):
            seen.append(("first", committed.block.number))
            unsubscribe_second()

        def second(committed, peer_name):
            seen.append(("second", committed.block.number))

        hub.subscribe(first)
        unsubscribe_second = hub.subscribe(second)

        hub.publish(committed_block(peer, number=0))
        hub.publish(committed_block(peer, number=1, nonce=2))
        assert seen == [("first", 0), ("second", 0), ("first", 1)]

    def test_listener_unsubscribing_itself_mid_publish(self):
        peer = build_peer()
        hub = peer.events
        seen = []
        unsubscribe = None

        def once(committed, peer_name):
            seen.append(committed.block.number)
            unsubscribe()

        unsubscribe = hub.subscribe(once)
        hub.publish(committed_block(peer, number=0))
        hub.publish(committed_block(peer, number=1, nonce=2))
        assert seen == [0]


class TestDoubleUnsubscribe:
    def test_double_unsubscribe_is_a_noop(self):
        peer = build_peer()
        hub = peer.events
        unsubscribe = hub.subscribe(lambda committed, peer_name: None)
        unsubscribe()
        unsubscribe()  # second call: silent no-op

    def test_double_unsubscribe_spares_a_reregistration(self):
        """Each unsubscribe token is bound to one registration: calling it
        twice must not strip a *second* registration of the same callable."""

        peer = build_peer()
        hub = peer.events
        seen = []

        def listener(committed, peer_name):
            seen.append(committed.block.number)

        first_token = hub.subscribe(listener)
        hub.subscribe(listener)  # registered twice
        first_token()
        first_token()  # must not remove the second registration
        hub.publish(committed_block(peer, number=0))
        assert seen == [0]


class TestDeprecationShim:
    def test_event_service_consumers_trigger_no_warning(self):
        """Channel tracking and Gateway streams warn about nothing: the repo
        carries one API generation."""

        from repro.fabric.localnet import LocalNetwork
        from repro.gateway import Gateway
        from repro.workload.iot import IoTChaincode

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            network = LocalNetwork()
            network.deploy(IoTChaincode())
            stream = Gateway.connect(network).block_events(start_block=0)
            stream.close()
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
