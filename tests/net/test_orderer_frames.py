"""The orderer encodes each block once and serves every deliver stream from it.

The ordering service cuts a block once and sends that same block to every
peer.  The orderer process keeps each cut block as the ``raw_block`` frame
it was encoded into when it was cut (zlib-compressed), and writes those
stored bytes on every live deliver stream and on every replay.  The server runs here in
this process, on an event loop of the test's own, so its encodings can be
counted and the codec's counters read.
"""

from __future__ import annotations

import asyncio
import zlib

from repro.common.config import OrdererConfig
from repro.common.serialization import from_bytes
from repro.common.types import ReadItem, ReadWriteSet, Version, WriteItem
from repro.fabric.identity import SignedPayload
from repro.fabric.orderer import OrderingService
from repro.fabric.transaction import Proposal, TransactionEnvelope
from repro.net import ordererserver
from repro.net.codec import (
    HEADER_BYTES,
    encode_message,
    install_codec_metrics,
    uninstall_codec_metrics,
)
from repro.net.ordererserver import OrdererState, _handle_connection
from repro.net.wire import dec_block, enc_block, enc_envelope, raw_block_payload
from repro.telemetry.metrics import MetricsRegistry

BLOCK_SIZE = 2
BLOCKS = 3


def envelope(sequence: int) -> TransactionEnvelope:
    signed = SignedPayload(b"\x01" * 32, "Org1.peer0", b"\x02" * 32)
    return TransactionEnvelope(
        proposal=Proposal(
            f"tx-{sequence}", "ch", "iot", "record", (str(sequence),), "Org1.client0"
        ),
        rwset=ReadWriteSet(
            reads=(ReadItem("hot", Version(0, 0)),),
            writes=(WriteItem("hot", b'{"n":%d}' % sequence, is_crdt=True),),
        ),
        endorsements=(signed,),
        client_signature=signed,
    )


async def read_raw_frame(reader: asyncio.StreamReader) -> bytes:
    """One whole frame, header included, read past the codec (uncounted)."""

    header = await reader.readexactly(HEADER_BYTES)
    return header + await reader.readexactly(int.from_bytes(header[2:], "big"))


async def open_deliver(port: int, start_block: int):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(encode_message({"type": "deliver", "start_block": start_block}))
    return reader, writer


async def run_orderer(received: dict[str, list[bytes]]) -> OrdererState:
    state = OrdererState(
        OrderingService(OrdererConfig(max_message_count=BLOCK_SIZE, batch_timeout_s=3600.0))
    )
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(state, r, w), "127.0.0.1", 0
    )
    port = server.sockets[0].getsockname()[1]
    writers = []
    try:
        live = [await open_deliver(port, 0) for _ in range(2)]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writers += [w for _, w in live] + [writer]
        for sequence in range(BLOCK_SIZE * BLOCKS):
            message = {"type": "broadcast", "envelope": enc_envelope(envelope(sequence))}
            writer.write(encode_message(message))
            received["acks"].append(await read_raw_frame(reader))
        for name, (stream, _) in zip(("live-0", "live-1"), live):
            received[name] = [await read_raw_frame(stream) for _ in range(BLOCKS)]
        late_reader, late_writer = await open_deliver(port, 0)
        writers.append(late_writer)
        received["replay"] = [await read_raw_frame(late_reader) for _ in range(BLOCKS)]
    finally:
        for writer in writers:
            writer.close()
        server.close()
        await server.wait_closed()
    return state


def test_every_deliver_stream_gets_the_one_stored_frame(monkeypatch):
    encoded = []

    def counting_raw_block_payload(block):
        encoded.append(block)
        return raw_block_payload(block)

    monkeypatch.setattr(ordererserver, "raw_block_payload", counting_raw_block_payload)
    registry = MetricsRegistry()
    handle = install_codec_metrics(registry, node="orderer")
    received: dict[str, list[bytes]] = {"acks": []}
    try:
        state = asyncio.run(asyncio.wait_for(run_orderer(received), timeout=30))
    finally:
        uninstall_codec_metrics(handle)

    # One encoding per cut block, however many streams and replays read it.
    assert [block.number for block in encoded] == list(range(BLOCKS))
    expected = [
        encode_message({"type": "raw_block", "block": enc_block(block)}) for block in encoded
    ]
    # Stored compressed; the newest also kept whole, for live fan-out.
    assert [zlib.decompress(frame) for frame in state.frames] == expected
    assert [state.frame(number) for number in range(BLOCKS)] == expected
    assert received["live-0"] == received["live-1"] == received["replay"] == expected
    for frame, block in zip(expected, encoded):
        assert dec_block(from_bytes(frame[HEADER_BYTES:])["block"]) == block

    # The stored frames are counted as they are written, like any other frame.
    sent = [frame for frames in received.values() for frame in frames]
    assert len(sent) == 3 * BLOCKS + BLOCK_SIZE * BLOCKS  # three streams, one ack per tx
    frames = registry.get("repro_net_frames_total")
    total_bytes = registry.get("repro_net_bytes_total")
    assert frames.value(direction="out", node="orderer") == len(sent)
    assert total_bytes.value(direction="out", node="orderer") == sum(map(len, sent))
