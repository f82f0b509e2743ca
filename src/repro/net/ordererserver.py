"""The ordering-service process: an asyncio server around ``OrderingService``.

The ordering logic is reused unchanged — this module only moves messages.
One process serves one channel:

* ``broadcast`` appends an envelope to the total order (Fabric's
  ``Broadcast`` RPC); any blocks the submission cuts are fanned out to
  every open deliver stream.
* ``deliver`` turns the connection into a block stream (Fabric's
  ``Deliver`` RPC): cut blocks are replayed from ``start_block``, then the
  stream stays live.  Peers follow this stream from block 0 and commit
  each block themselves — the orderer never validates.  Each block is
  encoded once, when it is cut, into the ``raw_block`` frame every stream
  is sent; the orderer keeps those bytes, zlib-compressed, not the decoded
  block.  The newest frame is also kept whole, for live fan-out; a replay
  decompresses.
* ``flush`` force-cuts the pending batch (the in-process transports'
  ``flush`` made remote), and one timer per open batch enforces
  ``batch_timeout_s`` against the wall clock, exactly the third of
  Fabric's three cut triggers.

Block ``cut_time`` is wall-clock seconds since the process started, so
cut provenance stays inspectable without making block *content* depend on
absolute time (block hashes never cover cut_time).
"""

from __future__ import annotations

import asyncio
import signal
import time
import zlib
from typing import Optional

from ..fabric.block import Block
from ..fabric.ledger import FRAME_ZLIB_LEVEL
from ..fabric.orderer import OrderingService
from ..telemetry.lifecycle import record_phase
from .codec import (
    FrameError,
    close_writer,
    encode_frame,
    install_codec_metrics,
    queue_message,
    read_message,
    write_frame,
    write_message,
)
from .errors import ConnectionClosed
from .profile import config_from_dict
from .wire import (
    WireError,
    dec_envelope,
    error_message,
    message_type,
    metrics_result_message,
    raw_block_payload,
)


class OrdererState:
    """The server's mutable state: the ordering service plus fan-out."""

    def __init__(self, service: OrderingService) -> None:
        self.service = service
        self.started = time.monotonic()
        #: Every block ever cut, as the ``raw_block`` frame each deliver
        #: stream is sent, zlib-compressed (see :meth:`frame`).
        self.frames: list[bytes] = []
        #: The newest block's frame, uncompressed: what live fan-out writes.
        self._newest = b""
        #: Live deliver subscribers (queues of block numbers to send).
        self.subscribers: list[asyncio.Queue] = []
        #: Telemetry (set when the config enables it) + envelope arrival
        #: times of sampled transactions awaiting their block cut.
        self.telemetry = None
        self._arrivals: dict[str, float] = {}
        #: The open batch's ``batch_timeout_s`` timer (Fabric's third cut trigger).
        self._timer: Optional[asyncio.TimerHandle] = None

    def now(self) -> float:
        return time.monotonic() - self.started

    def frame(self, number: int) -> bytes:
        """Block ``number``'s ``raw_block`` frame (replay and live fan-out
        write the same bytes)."""

        if number == len(self.frames) - 1:
            return self._newest
        return zlib.decompress(self.frames[number])

    def arm_timeout(self) -> None:
        """Arm the wall-clock timer of a batch that just opened (any cut cancels it)."""

        if self._timer is None and self.service.has_pending:
            self._timer = asyncio.get_running_loop().call_later(
                self.service.timeout_deadline() - self.now(), self._on_timeout
            )

    def _on_timeout(self) -> None:
        self._timer = None
        block = self.service.cut_on_timeout(self.now(), self.service.batch_epoch)
        if block is not None:
            self.publish([block])

    def enable_telemetry(self) -> None:
        from ..telemetry import Telemetry

        self.telemetry = Telemetry(clock=self.now)
        self.service.enable_telemetry(self.telemetry)
        install_codec_metrics(self.telemetry.metrics, node="orderer")

    def note_arrival(self, tx_id: str) -> None:
        if self.telemetry is not None and self.telemetry.tracer.sampled(tx_id):
            self._arrivals[tx_id] = self.now()

    def publish(self, blocks: list[Block]) -> None:
        if blocks and self._timer is not None:
            self._timer.cancel()  # the batch that timer belonged to was cut
            self._timer = None
        for block in blocks:
            self._newest = encode_frame(raw_block_payload(block))
            self.frames.append(zlib.compress(self._newest, FRAME_ZLIB_LEVEL))
            if self.telemetry is not None:
                for tx in block.transactions:
                    arrived = self._arrivals.pop(tx.tx_id, None)
                    if arrived is not None:
                        record_phase(
                            self.telemetry, "order", tx.tx_id, arrived, self.now(),
                            block=block.number, cut_reason=block.cut_reason,
                        )
            for queue in list(self.subscribers):
                queue.put_nowait(block.number)


async def _handle_deliver(
    state: OrdererState, writer: asyncio.StreamWriter, start_block: int
) -> None:
    """Serve one deliver stream: replay, then live fan-out.

    The subscriber queue is registered *before* replay so no block cut
    mid-replay can be missed; the cursor guard drops queue entries the
    replay already covered.
    """

    queue: asyncio.Queue = asyncio.Queue()
    state.subscribers.append(queue)
    cursor = start_block
    try:
        while cursor < len(state.frames):
            await write_frame(writer, state.frame(cursor))
            cursor += 1
        while True:
            number = await queue.get()
            if number < cursor:
                continue  # replay already delivered it
            while cursor <= number:
                await write_frame(writer, state.frame(cursor))
                cursor += 1
    finally:
        state.subscribers.remove(queue)


async def _handle_connection(
    state: OrdererState, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                message = await read_message(reader)
                kind = message_type(message)
            except ConnectionClosed:
                return
            except (FrameError, WireError) as exc:
                # A bad frame poisons only this connection; report and drop.
                try:
                    await write_message(writer, error_message(str(exc)))
                except (ConnectionError, OSError):
                    pass
                return

            if kind == "ping":
                await queue_message(
                    writer,
                    {
                        "type": "pong",
                        "node": "orderer",
                        "next_block": state.service.next_block_number,
                    },
                )
            elif kind == "broadcast":
                try:
                    envelope = dec_envelope(message.get("envelope"))
                except WireError as exc:
                    await queue_message(writer, error_message(str(exc)))
                    continue
                state.note_arrival(envelope.tx_id)
                cut = state.service.submit(envelope, now=state.now())
                state.publish(cut)
                state.arm_timeout()
                await queue_message(
                    writer,
                    {
                        "type": "broadcast_ack",
                        "tx_id": envelope.tx_id,
                        "blocks_cut": len(cut),
                        "pending": state.service.pending_count,
                    },
                )
            elif kind == "flush":
                block = state.service.flush(now=state.now())
                if block is not None:
                    state.publish([block])
                await queue_message(
                    writer,
                    {
                        "type": "flush_ack",
                        "blocks_cut": 0 if block is None else 1,
                        "next_block": state.service.next_block_number,
                    },
                )
            elif kind == "metrics":
                await queue_message(
                    writer, metrics_result_message(state.telemetry, "orderer", message)
                )
            elif kind == "deliver":
                start = message.get("start_block", 0)
                if not isinstance(start, int) or start < 0:
                    await write_message(
                        writer, error_message(f"bad deliver start_block {start!r}")
                    )
                    return
                await _handle_deliver(state, writer, start)
                return
            else:
                await queue_message(
                    writer, error_message(f"orderer cannot handle {kind!r}")
                )
    except (ConnectionError, OSError, asyncio.CancelledError):
        return
    finally:
        close_writer(writer)


async def _serve(state: OrdererState, port_conn) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    server = await asyncio.start_server(
        lambda r, w: _handle_connection(state, r, w), "127.0.0.1", 0
    )
    port = server.sockets[0].getsockname()[1]
    port_conn.send(port)
    port_conn.close()

    async with server:
        await stop.wait()


def orderer_process_main(config_dict: dict, port_conn) -> None:
    """Entry point of the spawned orderer process.

    ``config_dict`` is the serialized :class:`~repro.common.config.
    NetworkConfig`; the actual bound port is reported back through
    ``port_conn`` (a ``multiprocessing`` pipe end).
    """

    config = config_from_dict(config_dict)
    state = OrdererState(OrderingService(config.orderer))
    if config.telemetry_enabled:
        state.enable_telemetry()
    asyncio.run(_serve(state, port_conn))
