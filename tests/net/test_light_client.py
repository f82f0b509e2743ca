"""The light client: statuses from one header-chained stream, mirrors on demand.

``SocketTransport.connect()`` opens one deliver connection — the anchor's
*status* stream — and nothing decodes, verifies or applies a block on the
client until someone reads a mirror.  These tests pin what that must not
cost: the statuses are the ones a full mirror records, a mirror opened
mid-run is complete and takes the anchor's statuses over without a seam,
and a status stream that skips, repeats or splices a block — or sends
garbage — dies as a typed protocol error instead of leaving a silent gap.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.common.serialization import from_bytes
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockMetadata, CommittedBlock
from repro.gateway.gateway import Gateway
from repro.net import Cluster, DeliverStreamError, SocketTransport
from repro.net.codec import HEADER_BYTES, encode_message
from repro.net.wire import enc_block_status
from repro.telemetry import Telemetry
from repro.workload.iot import encode_call, reading_payload

BLOCK_SIZE = 4


def config():
    base = fabriccrdt_config(max_message_count=BLOCK_SIZE)
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=3600.0),
    )


@pytest.fixture()
def cluster():
    with Cluster.spawn(config(), chaincodes=["repro.workload.iot:IoTChaincode"]) as cluster:
        yield cluster


def record_call(device: str, sequence: int) -> str:
    return encode_call(
        read_keys=[device],
        write_keys=[device],
        payload=reading_payload(device, temperature=20 + sequence % 10, sequence=sequence),
        crdt=True,
    )


def commit_blocks(transport, contract, device: str, blocks: int, first: int = 0) -> list:
    """``blocks`` full blocks of records on ``device``, committed on every peer."""

    submitted = [
        contract.submit_async("record", record_call(device, first + i))
        for i in range(blocks * BLOCK_SIZE)
    ]
    assert all(tx.commit_status().succeeded for tx in submitted)
    transport.wait_for_height(transport.ledger_info(0)["height"])
    return submitted


def inbound_bytes(telemetry: Telemetry) -> float:
    return telemetry.metrics.get("repro_net_bytes_total").value(direction="in", node="client")


# -- the status stream says what the blocks say ---------------------------------------


def test_statuses_equal_those_of_a_full_mirror_at_a_fraction_of_the_bytes(cluster):
    telemetry = Telemetry()
    with SocketTransport.connect(cluster.profile, telemetry=telemetry) as light:
        contract = Gateway.connect(light).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-light"]}))
        before = inbound_bytes(telemetry)
        submitted = commit_blocks(light, contract, "dev-light", blocks=5)
        received = inbound_bytes(telemetry) - before

        # One deliver connection, no block ever decoded: endorse reply +
        # broadcast ack + a share of one status frame per transaction.
        assert light.deliver_streams() == {"Org1.peer0": "status"}
        assert all(mirror.ledger.height == 0 for mirror in light.channel.peers)
        assert received / len(submitted) < 1000

        with SocketTransport.connect(cluster.profile) as full:
            full.open_mirror(0)  # before anything else: its statuses come from whole blocks
            assert full.deliver_streams() == {"Org1.peer0": "full"}
            assert full.channel.ledger_of(0).height == 1 + 5
            assert len(full.channel.statuses) == 1 + 5 * BLOCK_SIZE
            assert light.channel.statuses == full.channel.statuses  # every field of every TxStatus
            assert list(light.channel.statuses) == list(full.channel.statuses)  # in chain order


# -- a mirror opened mid-run -------------------------------------------------------------


def test_mirrors_opened_mid_run_are_complete_and_take_over_seamlessly(cluster):
    telemetry = Telemetry()
    with SocketTransport.connect(cluster.profile, telemetry=telemetry) as transport:
        channel = transport.channel
        contract = Gateway.connect(transport).get_contract("iot")
        contract.submit("populate", json.dumps({"keys": ["dev-mid"]}))
        commit_blocks(transport, contract, "dev-mid", blocks=3)
        statuses_before = dict(channel.statuses)

        for index, streams in ((0, {"Org1.peer0": "full"}),
                               (1, {"Org1.peer0": "full", "Org2.peer0": "full"})):
            ledger = channel.ledger_of(index)
            info = transport.ledger_info(index)
            assert ledger.height == info["height"] == 1 + 3
            assert ledger.state.fingerprint().hex() == info["fingerprint"]
            assert transport.deliver_streams() == streams  # never two per peer
        assert channel.statuses == statuses_before  # the replay re-recorded equal values

        # Later commits arrive through the full streams, statuses included.
        later = commit_blocks(transport, contract, "dev-mid", blocks=2, first=100)
        transport.pump()
        assert [channel.statuses[tx.tx_id].block_num for tx in later] == [4] * 4 + [5] * 4
        assert channel.ledger_of(0).height == channel.ledger_of(1).height == 1 + 3 + 2
        assert channel.world_states_converged()
        assert {r["ts"] for r in channel.state_of("dev-mid")["tempReadings"]} == {
            str(104 + i) for i in range(4)
        }

        # A second call opens nothing: same objects, not one frame sent.
        frames = telemetry.metrics.get("repro_net_frames_total")
        sent = frames.value(direction="out", node="client")
        assert transport.open_mirror(0) is channel.peers[0]
        assert channel.ledger_of(1) is channel.peers[1].ledger
        assert frames.value(direction="out", node="client") == sent
        assert len(transport.deliver_streams()) == 2


# -- a status stream that breaks the chain, or the schema ---------------------------------


class AnchorProxy:
    """Stands in for the anchor: request connections are piped to the real
    peer untouched, a deliver connection is sent ``frames`` and then nothing."""

    def __init__(self, upstream, frames: list[dict]) -> None:
        self._upstream = (upstream.host, upstream.port)
        self._frames = [encode_message(frame) for frame in frames]
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._sockets: list[socket.socket] = [self._server]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._server.accept()
            except OSError:
                return
            self._sockets.append(client)
            threading.Thread(target=self._serve, args=(client,), daemon=True).start()

    def _serve(self, client: socket.socket) -> None:
        try:
            header = self._exactly(client, HEADER_BYTES)
            payload = self._exactly(client, int.from_bytes(header[2:], "big"))
            if from_bytes(payload)["type"].startswith("deliver"):
                for frame in self._frames:
                    client.sendall(frame)
                return  # the socket stays open and silent until close()
            upstream = socket.create_connection(self._upstream)
            self._sockets.append(upstream)
            upstream.sendall(header + payload)
            threading.Thread(target=self._pipe, args=(upstream, client), daemon=True).start()
            self._pipe(client, upstream)
        except OSError:
            pass

    @staticmethod
    def _exactly(source: socket.socket, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = source.recv(count - len(data))
            if not chunk:
                raise OSError("closed")
            data += chunk
        return data

    @staticmethod
    def _pipe(source: socket.socket, sink: socket.socket) -> None:
        try:
            while chunk := source.recv(65536):
                sink.sendall(chunk)
        except OSError:
            pass
        finally:
            sink.close()

    def close(self) -> None:
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked in accept/recv
            except OSError:
                pass
            sock.close()


def status_frame(number: int, previous_hash: bytes) -> tuple[dict, bytes]:
    """An empty block's ``block_status`` frame, and the hash the next one must link to."""

    block = Block.build(number, previous_hash, ())
    committed = CommittedBlock(block=block, metadata=BlockMetadata(block_num=number))
    return {"type": "block_status", "status": enc_block_status(committed)}, block.header.hash()


def behind_proxy(profile, frames: list[dict]):
    """``profile`` with an :class:`AnchorProxy` in the anchor's place."""

    proxy = AnchorProxy(profile.anchor_peer, frames)
    anchor = dataclasses.replace(profile.anchor_peer, port=proxy.port)
    return proxy, dataclasses.replace(profile, peers=(anchor,) + profile.peers[1:])


def test_a_malformed_deliver_frame_fails_the_pending_commit_wait_at_once(cluster):
    # The decoder's TypeError used to kill the reader task silently: no stream
    # error, no counter, and commit_status() sat out the 60 s commit timeout.
    proxy, profile = behind_proxy(
        cluster.profile, [{"type": "block_status", "status": {"header": 5, "txs": 3}}]
    )
    telemetry = Telemetry()
    try:
        with SocketTransport.connect(profile, telemetry=telemetry) as transport:
            contract = Gateway.connect(transport).get_contract("iot")
            tx = contract.submit_async("populate", json.dumps({"keys": ["dev-broken"]}))
            started = time.monotonic()
            with pytest.raises(DeliverStreamError) as excinfo:
                tx.commit_status()
            assert time.monotonic() - started < 5.0  # the request deadline is 10 s
            assert excinfo.value.peer == "Org1.peer0" and excinfo.value.reason == "protocol"
            counter = telemetry.metrics.get("repro_net_deliver_stream_errors_total")
            assert counter.value(peer="Org1.peer0", reason="protocol") == 1
            assert transport.deliver_streams() == {}
    finally:
        proxy.close()


GENESIS, GENESIS_HASH = status_frame(0, GENESIS_PREVIOUS_HASH)

BROKEN_CHAINS = {
    "skipped": [GENESIS, status_frame(2, GENESIS_HASH)[0]],
    "duplicated": [GENESIS, GENESIS],
    "reordered": [status_frame(1, GENESIS_HASH)[0], GENESIS],
    "spliced": [GENESIS, status_frame(1, b"\x07" * 32)[0]],
    "not from genesis": [status_frame(0, b"\x07" * 32)[0]],
    "a whole block nobody asked for": [{"type": "block", "committed": None}],
}


@pytest.fixture(scope="module")
def shared_cluster():
    with Cluster.spawn(config(), chaincodes=["repro.workload.iot:IoTChaincode"]) as cluster:
        yield cluster


@pytest.mark.parametrize("frames", BROKEN_CHAINS.values(), ids=BROKEN_CHAINS.keys())
def test_a_status_stream_that_breaks_the_chain_is_a_protocol_error(shared_cluster, frames):
    proxy, profile = behind_proxy(shared_cluster.profile, frames)
    telemetry = Telemetry()
    started = time.monotonic()
    try:
        # At connect() when the anchor already holds blocks the stream must
        # bring, at the first commit wait otherwise: typed and prompt either way.
        with pytest.raises(DeliverStreamError) as excinfo:
            with SocketTransport.connect(profile, telemetry=telemetry) as transport:
                contract = Gateway.connect(transport).get_contract("iot")
                tx = contract.submit_async("populate", json.dumps({"keys": ["dev-chain"]}))
                tx.commit_status()
        assert time.monotonic() - started < 5.0
        assert excinfo.value.peer == "Org1.peer0" and excinfo.value.reason == "protocol"
        counter = telemetry.metrics.get("repro_net_deliver_stream_errors_total")
        assert counter.value(peer="Org1.peer0", reason="protocol") == 1
    finally:
        proxy.close()
