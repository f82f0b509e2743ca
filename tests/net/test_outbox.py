"""Frames leave through a per-writer outbox: one socket write per loop turn.

``send_frame`` queues; the queue goes out as one write when the loop turn
that filled it ends, or at once when ``OUTBOX_FLUSH_BYTES`` wait.
``write_frame``, ``drain`` and ``close_writer`` flush first.  What that must
not cost: frames keep their order however queued and immediate sends
interleave, a frame queued just before a close still arrives, and a long
burst never holds more than about ``OUTBOX_FLUSH_BYTES`` back.
"""

from __future__ import annotations

import asyncio

from repro.net import codec
from repro.net.codec import (
    HEADER_BYTES,
    OUTBOX_FLUSH_BYTES,
    close_writer,
    encode_frame,
    install_codec_metrics,
    queued_bytes,
    read_frame,
    send_frame,
    send_message,
    uninstall_codec_metrics,
    write_frame,
)
from repro.net.wire import error_message
from repro.telemetry.metrics import MetricsRegistry


async def with_connection(talk, listen) -> list[bytes]:
    """Run ``talk(writer)`` on a client connection; return what ``listen``
    read on the server side before the connection closed."""

    received: list[bytes] = []
    done = asyncio.Event()

    async def serve(reader, writer):
        try:
            await listen(reader, received)
        finally:
            writer.close()
            done.set()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await talk(writer)
        await asyncio.wait_for(done.wait(), 10)
    finally:
        server.close()
        await server.wait_closed()
    return received


async def read_all(reader, received: list[bytes]) -> None:
    try:
        while True:
            received.append(await read_frame(reader))
    except Exception:  # the peer closed: ConnectionClosed
        return


def run(coroutine):
    registry = MetricsRegistry()
    handle = install_codec_metrics(registry, node="test")
    try:
        received = asyncio.run(asyncio.wait_for(coroutine, 30))
    finally:
        uninstall_codec_metrics(handle)
    return received, registry.get("repro_net_writes_total").value(node="test")


def test_frame_order_survives_interleaved_sends():
    payloads = [b"%d" % index for index in range(12)]

    async def talk(writer):
        for index, payload in enumerate(payloads):
            if index % 4 == 3:
                await write_frame(writer, encode_frame(payload))  # flushes the queue first
            else:
                send_frame(writer, encode_frame(payload))
            if index == 5:
                await asyncio.sleep(0)  # a loop turn ends: the queue leaves
        close_writer(writer)

    received, writes = run(with_connection(talk, read_all))
    assert received == payloads
    # write_frame at 3, 7 and 11 and the loop turn at 5: four writes for twelve frames.
    assert writes == 4


def test_a_frame_queued_just_before_a_close_still_arrives():
    async def talk(writer):
        send_message(writer, error_message("bye"))
        assert queued_bytes(writer) > 0
        close_writer(writer)
        assert queued_bytes(writer) == 0

    received, writes = run(with_connection(talk, read_all))
    assert received == [codec.encode_message(error_message("bye"))[HEADER_BYTES:]]
    assert writes == 1


def test_a_long_burst_never_holds_more_than_the_flush_limit():
    payload = b"x" * 10_000
    frames = 100
    peak = [0]

    async def talk(writer):
        for _ in range(frames):
            send_frame(writer, encode_frame(payload))
            peak[0] = max(peak[0], queued_bytes(writer))
            await writer.drain()
        close_writer(writer)

    received, writes = run(with_connection(talk, read_all))
    assert received == [payload] * frames
    assert peak[0] < OUTBOX_FLUSH_BYTES
    frame_bytes = HEADER_BYTES + len(payload)
    per_write = -(-OUTBOX_FLUSH_BYTES // frame_bytes)  # frames that reach the limit
    assert writes == -(-frames // per_write)
