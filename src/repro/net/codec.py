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
  by the servers and the :class:`~repro.net.transport.SocketTransport`;
  :func:`send_frame` is the one write path under them, so a frame encoded
  once and written many times is counted like any other.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..common.errors import FabricError
from ..common.serialization import from_bytes, to_bytes
from .errors import ConnectionClosed

#: Frame preamble; a connection speaking anything else fails fast.
MAGIC = b"FC"

#: Header size: magic + 4-byte big-endian payload length.
HEADER_BYTES = len(MAGIC) + 4

#: Default cap on one frame's payload.  Generous for blocks of hundreds of
#: transactions, far below anything a runaway length field could claim.
DEFAULT_MAX_FRAME_BYTES = 32 * 1024 * 1024


# ---------------------------------------------------------------------------
# Optional codec metrics (telemetry, opt-in)
# ---------------------------------------------------------------------------

#: Installed ``(frames_counter, bytes_counter, labels)`` sinks.  Empty —
#: the default — means counting is a single falsy check per frame.
_metric_sinks: list[tuple[Any, Any, dict]] = []


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
    sink = (frames, total_bytes, {"node": node} if node else {})
    _metric_sinks.append(sink)
    return sink


def uninstall_codec_metrics(handle: tuple) -> None:
    """Remove a sink installed by :func:`install_codec_metrics`."""

    try:
        _metric_sinks.remove(handle)
    except ValueError:
        pass


def _count_frame(direction: str, payload_bytes: int) -> None:
    for frames, total_bytes, labels in _metric_sinks:
        frames.inc(direction=direction, **labels)
        total_bytes.inc(HEADER_BYTES + payload_bytes, direction=direction, **labels)


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
    """Read one frame and decode its canonical-JSON payload."""

    return from_bytes(await read_frame(reader, max_frame_bytes))


def send_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Put one complete frame into the transport buffer without waiting on it.

    The one write path: every frame a node sends goes through here and is
    counted here, whether it was encoded for this write or stored once
    and written to many streams (the orderer's blocks).
    """

    if _metric_sinks:
        _count_frame("out", len(frame) - HEADER_BYTES)
    writer.write(frame)


def send_message(writer: asyncio.StreamWriter, message: Any) -> None:
    """Frame one message into the transport buffer without waiting on it."""

    send_frame(writer, encode_message(message))


async def write_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Send one complete frame, draining the transport buffer."""

    send_frame(writer, frame)
    await writer.drain()


async def write_message(writer: asyncio.StreamWriter, message: Any) -> None:
    """Frame and send one message, draining the transport buffer."""

    await write_frame(writer, encode_message(message))
