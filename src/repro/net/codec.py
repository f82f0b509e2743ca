"""Length-prefixed framing over a byte stream.

Every message of the wire protocol travels as one *frame*::

    +----------+----------------------+------------------+
    | magic    | length (4 bytes, BE) | payload (JSON)   |
    | b"FC"    | of the payload only  | canonical UTF-8  |
    +----------+----------------------+------------------+

The 2-byte magic makes accidental cross-protocol connections (or a
desynchronized stream) fail fast with :class:`FrameCorrupt` instead of
interpreting garbage lengths; the explicit length cap bounds memory per
connection (:class:`FrameTooLarge`) so a malicious or broken sender cannot
make a server buffer gigabytes.  All three failure modes are typed so
server accept-loops can drop the one bad connection and keep serving.

Two consumption styles are provided:

* :class:`FrameDecoder` — an incremental push parser (``feed(bytes) ->
  list[payload]``) for tests and non-asyncio consumers;
* :func:`read_frame` / :func:`write_frame` — asyncio stream helpers used
  by the servers and the :class:`~repro.net.transport.SocketTransport`.

Frames leave through a per-writer *outbox*: :func:`send_frame` queues a
frame, and the writer's queued frames go out as one socket write at the end
of the loop turn that queued them, or at once when
:data:`OUTBOX_FLUSH_BYTES` wait.  A node answering a burst of pipelined
requests thus makes one ``send()``, not one per reply.
:func:`write_frame`, :func:`drain` and :func:`close_writer` flush first, so
frames leave in the order they were queued and none is lost to a close.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from ..common.errors import FabricError, SerializationError
from ..common.serialization import from_bytes, to_bytes
from .errors import ConnectionClosed

#: Frame preamble; a connection speaking anything else fails fast.
MAGIC = b"FC"

#: Header size: magic + 4-byte big-endian payload length.
HEADER_BYTES = len(MAGIC) + 4

#: Default cap on one frame's payload.  Generous for blocks of hundreds of
#: transactions, far below anything a runaway length field could claim.
DEFAULT_MAX_FRAME_BYTES = 32 * 1024 * 1024

#: A writer's queued frames are written at once when this many bytes wait.
OUTBOX_FLUSH_BYTES = 64 * 1024


# ---------------------------------------------------------------------------
# Optional codec metrics (telemetry, opt-in)
# ---------------------------------------------------------------------------

#: Installed ``(frames_counter, bytes_counter, writes_counter, labels)``
#: sinks.  Empty — the default — means counting is a single falsy check per
#: frame.
_metric_sinks: list[tuple[Any, Any, Any, dict]] = []


def install_codec_metrics(registry, node: str = "") -> tuple:
    """Count frames/bytes through this process's codec into ``registry``.

    ``registry`` is a :class:`~repro.telemetry.metrics.MetricsRegistry`
    (duck-typed to keep this module free of telemetry imports).  Returns
    an opaque handle for :func:`uninstall_codec_metrics`.  Counting is
    out-of-band: frame content and flush behaviour are untouched.
    """

    frames = registry.counter(
        "repro_net_frames_total", "Wire frames moved, by direction"
    )
    total_bytes = registry.counter(
        "repro_net_bytes_total", "Wire bytes moved (headers included), by direction"
    )
    writes = registry.counter(
        "repro_net_writes_total", "Socket writes made (each carries one or more frames)"
    )
    sink = (frames, total_bytes, writes, {"node": node} if node else {})
    _metric_sinks.append(sink)
    return sink


def uninstall_codec_metrics(handle: tuple) -> None:
    """Remove a sink installed by :func:`install_codec_metrics`."""

    try:
        _metric_sinks.remove(handle)
    except ValueError:
        pass


def _count_frame(direction: str, payload_bytes: int) -> None:
    for frames, total_bytes, _writes, labels in _metric_sinks:
        frames.inc(direction=direction, **labels)
        total_bytes.inc(HEADER_BYTES + payload_bytes, direction=direction, **labels)


def _count_write() -> None:
    for _frames, _total_bytes, writes, labels in _metric_sinks:
        writes.inc(**labels)


class FrameError(FabricError):
    """Base class for framing failures."""


class FrameCorrupt(FrameError):
    """The stream does not look like this protocol (bad magic)."""


class FrameTooLarge(FrameError):
    """A frame declared a payload above the configured cap."""


class FrameTruncated(FrameError):
    """The stream ended in the middle of a frame."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a frame header."""

    if len(payload) > 0xFFFFFFFF:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds the frame format")
    return MAGIC + len(payload).to_bytes(4, "big") + payload


def encode_message(message: Any) -> bytes:
    """One canonical-JSON message as a complete frame."""

    return encode_frame(to_bytes(message))


class FrameDecoder:
    """Incremental frame parser: push bytes in, get complete payloads out.

    Raises a typed :class:`FrameError` as soon as the stream is provably
    bad; after an error the decoder is poisoned (the stream cannot be
    resynchronized) and every further ``feed`` re-raises.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._error: FrameError | None = None

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""

        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Consume ``data``; return every payload completed by it, in order."""

        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        payloads: list[bytes] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return payloads
            if self._buffer[: len(MAGIC)] != MAGIC:
                self._error = FrameCorrupt(
                    f"bad frame magic {bytes(self._buffer[:len(MAGIC)])!r}"
                )
                raise self._error
            length = int.from_bytes(
                self._buffer[len(MAGIC) : HEADER_BYTES], "big"
            )
            if length > self.max_frame_bytes:
                self._error = FrameTooLarge(
                    f"frame declares {length} bytes (cap {self.max_frame_bytes})"
                )
                raise self._error
            if len(self._buffer) < HEADER_BYTES + length:
                return payloads
            payloads.append(bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length]))
            del self._buffer[: HEADER_BYTES + length]

    def eof(self) -> None:
        """Signal end of stream; raises :class:`FrameTruncated` mid-frame."""

        if self._error is not None:
            raise self._error
        if self._buffer:
            self._error = FrameTruncated(
                f"stream ended with {len(self._buffer)} bytes of a partial frame"
            )
            raise self._error


# ---------------------------------------------------------------------------
# asyncio stream helpers
# ---------------------------------------------------------------------------


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Read one complete frame payload from ``reader``.

    Raises :class:`~repro.net.errors.ConnectionClosed` on a clean EOF at a
    frame boundary, :class:`FrameTruncated` on EOF mid-frame, and
    :class:`FrameCorrupt` / :class:`FrameTooLarge` on a bad header.
    """

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("connection closed") from None
        raise FrameTruncated(
            f"stream ended inside a frame header ({len(exc.partial)} bytes)"
        ) from None
    if header[: len(MAGIC)] != MAGIC:
        raise FrameCorrupt(f"bad frame magic {header[:len(MAGIC)]!r}")
    length = int.from_bytes(header[len(MAGIC) :], "big")
    if length > max_frame_bytes:
        raise FrameTooLarge(f"frame declares {length} bytes (cap {max_frame_bytes})")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            f"stream ended inside a {length}-byte payload ({len(exc.partial)} read)"
        ) from None
    if _metric_sinks:
        _count_frame("in", length)
    return payload


async def read_message(
    reader: asyncio.StreamReader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Any:
    """Read one frame and decode its canonical-JSON payload.

    A payload that is not canonical JSON (malformed, or nested past the
    parser's stack) is :class:`FrameCorrupt`, like a bad header.
    """

    payload = await read_frame(reader, max_frame_bytes)
    try:
        return from_bytes(payload)
    except SerializationError as exc:
        raise FrameCorrupt(f"undecodable frame payload: {exc}") from None


class _Outbox:
    __slots__ = ("frames", "size")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.size = 0


#: Frames queued per writer; a writer has an entry only while frames wait.
_outboxes: dict[asyncio.StreamWriter, _Outbox] = {}


def send_frame(
    writer: asyncio.StreamWriter,
    frame: bytes,
    loop: Optional[asyncio.AbstractEventLoop] = None,
) -> None:
    """Queue one complete frame on ``writer``'s outbox without waiting on it.

    Every frame a node sends is counted here, whether it was encoded for
    this write or stored once and written to many streams (the orderer's
    blocks).  The outbox is flushed by ``loop`` (default: the running one)
    once the current loop turn ends, or now if it holds
    :data:`OUTBOX_FLUSH_BYTES`.
    """

    if _metric_sinks:
        _count_frame("out", len(frame) - HEADER_BYTES)
    outbox = _outboxes.get(writer)
    if outbox is None:
        outbox = _outboxes[writer] = _Outbox()
        (loop or asyncio.get_running_loop()).call_soon(flush, writer)
    outbox.frames.append(frame)
    outbox.size += len(frame)
    if outbox.size >= OUTBOX_FLUSH_BYTES:
        flush(writer)


def send_message(
    writer: asyncio.StreamWriter,
    message: Any,
    loop: Optional[asyncio.AbstractEventLoop] = None,
) -> None:
    """Frame one message onto ``writer``'s outbox (see :func:`send_frame`)."""

    send_frame(writer, encode_message(message), loop)


def queued_bytes(writer: asyncio.StreamWriter) -> int:
    """Bytes waiting on ``writer``'s outbox."""

    outbox = _outboxes.get(writer)
    return 0 if outbox is None else outbox.size


def flush(writer: asyncio.StreamWriter) -> None:
    """Write ``writer``'s queued frames now, as one write.

    Frames queued on a connection that is already closing are dropped:
    there is nobody left to read them.
    """

    outbox = _outboxes.pop(writer, None)
    if outbox is not None and not writer.transport.is_closing():
        writer.write(b"".join(outbox.frames))
        if _metric_sinks:
            _count_write()


async def drain(writer: asyncio.StreamWriter) -> None:
    """Flush the outbox, then wait while the transport buffer is full."""

    flush(writer)
    await writer.drain()


def close_writer(writer: asyncio.StreamWriter) -> None:
    """Flush the outbox, then close: a frame queued just before still leaves."""

    flush(writer)
    writer.close()


async def write_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Send one complete frame now, after whatever ``writer`` had queued,
    and wait while the transport buffer is full."""

    send_frame(writer, frame)
    await drain(writer)


async def write_message(writer: asyncio.StreamWriter, message: Any) -> None:
    """Frame and send one message now (see :func:`write_frame`)."""

    await write_frame(writer, encode_message(message))


async def queue_message(writer: asyncio.StreamWriter, message: Any) -> None:
    """Queue one message to leave with the loop turn's other frames; wait
    only while the transport buffer is full (the outbox itself never holds
    more than about :data:`OUTBOX_FLUSH_BYTES`).  How a server answers a
    request."""

    send_message(writer, message)
    await writer.drain()
