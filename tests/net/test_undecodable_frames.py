"""A frame whose payload does not decode gets an ``error`` frame, not silence.

Two payloads a well-formed header can carry break JSON decoding: bytes that
are not JSON, and 100 000 ``[`` (deeper than the parser's stack).  Both are
:class:`FrameCorrupt` at ``read_message``, so the orderer and a peer answer
with an ``error`` frame and drop only that connection, and a client whose
node answers one fails every queued request at once instead of leaving
them to their deadlines.  The servers run in this process, on the test's
own event loop.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.config import OrdererConfig, fabriccrdt_config
from repro.fabric.orderer import OrderingService
from repro.net.codec import encode_frame, encode_message, read_message
from repro.net.errors import PeerUnreachableError
from repro.net.ordererserver import OrdererState
from repro.net.ordererserver import _handle_connection as orderer_connection
from repro.net.peerserver import PeerState
from repro.net.peerserver import _handle_connection as peer_connection
from repro.net.transport import _NodeConnection

from .framefeed import frame_fed_peer

UNDECODABLE = {"not json": b"\x00not json", "too deep": b"[" * 100_000}


def orderer_handler():
    state = OrdererState(OrderingService(OrdererConfig(max_message_count=2)))
    return lambda r, w: orderer_connection(state, r, w)


def peer_handler():
    state = PeerState(frame_fed_peer(fabriccrdt_config(), "Org1.peer0"))
    return lambda r, w: peer_connection(state, r, w)


async def ask(port: int, payload: bytes) -> tuple[dict, bool]:
    """Send one frame; return the reply and whether the server then closed."""

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame(payload))
        reply = await read_message(reader)
        return reply, await reader.read() == b""
    finally:
        writer.close()


@pytest.mark.parametrize("payload", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
@pytest.mark.parametrize("make_handler", [orderer_handler, peer_handler], ids=["orderer", "peer"])
def test_a_server_answers_an_undecodable_frame_with_an_error(make_handler, payload):
    async def scenario():
        server = await asyncio.start_server(make_handler(), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reply, closed = await ask(port, payload)
            assert reply["type"] == "error" and "undecodable" in reply["error"]
            assert closed
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_message({"type": "ping"}))
            assert (await read_message(reader))["type"] == "pong"  # still serving
            writer.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(asyncio.wait_for(scenario(), 30))


@pytest.mark.parametrize("payload", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def test_a_client_fails_queued_requests_at_once_on_an_undecodable_reply(payload):
    async def answer_garbage(reader, writer):
        await reader.readexactly(1)  # a request began
        writer.write(encode_frame(payload))
        await writer.drain()
        await asyncio.sleep(30)  # hold the connection open: only the frame is bad

    async def scenario():
        server = await asyncio.start_server(answer_garbage, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conn = _NodeConnection("node", reader, writer, timeout_s=60.0)
            replies = [conn.send({"type": "ping"}) for _ in range(3)]
            results = await asyncio.wait_for(
                asyncio.gather(*replies, return_exceptions=True), 5
            )
            assert all(isinstance(result, PeerUnreachableError) for result in results)
            assert "undecodable" in str(results[0])
            await asyncio.gather(conn.close(), return_exceptions=True)
        finally:
            server.close()

    asyncio.run(asyncio.wait_for(scenario(), 30))
