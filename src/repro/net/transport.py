"""The socket transport: the full Gateway programming model over TCP.

:class:`SocketTransport` is the client side of the distributed runtime — a
complete :class:`~repro.gateway.transport.Transport`, so every Gateway
feature works against a :class:`~repro.net.cluster.Cluster` unchanged:
``submit`` / ``submit_async`` / ``submit_batch`` / ``evaluate``,
``gateway.block_events()`` and ``contract.contract_events()`` with
checkpoint/resume, and the channel's commit-status tracking.

The design mirrors how a real Fabric Gateway client is structured:

* **A light client.**  What a submitter needs from the commit side is the
  validation code of its transaction, so :meth:`SocketTransport.connect`
  opens **one** deliver connection, to the anchor, and asks for *block
  statuses* (``deliver_status`` — Fabric's filtered blocks): the block
  header, the commit time and ``[tx_id, code, submit_time]`` per
  transaction.  Every header must continue the chain (number = last + 1,
  ``previous_hash`` = hash of the last header), so a dropped, duplicated,
  reordered or spliced frame kills the stream as a typed protocol error —
  never a silent gap.  Block *bodies* are trusted to the anchor, as
  Fabric's Gateway trusts its peer's filtered blocks.
* **Mirror peers, on demand.**  Each remote peer has a :class:`MirrorPeer`
  — a real :class:`~repro.fabric.ledger.Ledger` plus
  :class:`~repro.fabric.events.EventHub` — that stays empty until someone
  asks for it: ``gateway.block_events()`` / ``contract.contract_events()``
  (through :meth:`SocketTransport.event_source`) or a mirrored-state read
  (``channel.ledger_of(i)`` and the accessors built on it).  Both reach
  :meth:`SocketTransport.open_mirror`, which replaces that peer's deliver
  connection by a full ``deliver`` stream from block 0 and returns once the
  mirror is at the peer's current height.  Absorbing a block re-verifies
  its integrity and hash chain (``Ledger.append_block``), so on an opened
  mirror every block is checked against what the orderer cut, from genesis;
  applying its effective writes rebuilds the peer's world state client-side.
  All existing event-service machinery (deliver sessions, block/contract
  streams, checkpoints) runs unmodified on an opened mirror — the streams
  cannot tell it from an in-process peer.
* **One private event loop**, driven synchronously.  Blocking public
  methods run ``loop.run_until_complete(...)``; the deliver readers, the
  per-connection reply readers and the per-transaction flows are tasks on
  the same loop, so they make progress during *any* blocking transport
  call (and during :meth:`pump`, for pure event consumers).
  No background threads, no locks.
* **Pipelined requests.**  ``submit_async`` only *queues* the endorse
  frames (they leave, one write per connection, when the loop next runs)
  and returns a handle whose ``flow`` task collects the replies,
  assembles the envelope and hands it to the orderer **in submission
  order**; ``commit_status()`` awaits that flow, then sleeps until the
  anchor's status stream (or opened mirror) reports the block.  ``flush``
  / ``evaluate`` / ``wait_for_height`` first let every in-flight flow
  reach the orderer.
* **Typed failure, never a hang, never at ``submit_async()``.**  Every
  request carries its own deadline; an endorsement that times out or hits
  a dead peer becomes an
  :class:`~repro.fabric.transaction.EndorsementFailure` inside the normal
  endorsement round (``EndorseError`` at ``commit_status()``), a failed
  broadcast raises :class:`~repro.gateway.errors.SubmitError` there too,
  a dead anchor deliver stream :class:`~repro.net.errors.DeliverStreamError`,
  a commit that never arrives :class:`~repro.net.errors.CommitTimeoutError`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Optional, Sequence

from ..common.types import TxStatus, Version
from ..fabric.block import GENESIS_PREVIOUS_HASH, BlockHeader
from ..fabric.events import EventHub
from ..fabric.identity import Identity
from ..fabric.ledger import Ledger
from ..fabric.store import WriteBatch
from ..fabric.transaction import EndorsementFailure, Proposal
from ..gateway.channel import Channel
from ..gateway.errors import SubmitError
from ..gateway.transport import EndorserReply, Submission, SubmittedTransaction, Transport
from .codec import (
    FrameError,
    close_writer,
    drain,
    install_codec_metrics,
    queued_bytes,
    read_message,
    send_message,
    uninstall_codec_metrics,
    write_message,
)
from .errors import (
    CommitTimeoutError,
    ConnectionClosed,
    DeliverStreamError,
    PeerUnreachableError,
    RequestTimeout,
    TransportError,
)
from .profile import ClusterProfile
from .wire import (
    WireError,
    dec_block_status,
    dec_committed_block,
    dec_endorsement_failure,
    dec_proposal_response,
    enc_envelope,
    enc_proposal,
    message_type,
)

#: Default per-request deadline (endorse, broadcast, ledger_info).
DEFAULT_REQUEST_TIMEOUT_S = 10.0

#: Default deadline for a submitted transaction's commit status.
DEFAULT_COMMIT_TIMEOUT_S = 60.0


class MirrorPeer:
    """A client-side replica of one remote peer's ledger and event hub.

    Quacks like :class:`~repro.fabric.peer.Peer` for everything the event
    service needs — ``ledger``, ``events``, ``name`` — so deliver sessions
    and Gateway streams attach to it unchanged.  It cannot endorse; the
    transport routes endorsements to the real peer over its socket.  It
    exists from construction (endorser selection needs names and orgs) but
    holds nothing until :meth:`SocketTransport.open_mirror` feeds it.
    """

    def __init__(self, name: str, org_name: str) -> None:
        self.name = name
        self.org_name = org_name
        self.ledger = Ledger()
        self.events = EventHub(name)

    def absorb(self, committed) -> None:
        """Apply one streamed block: state, chain (verified), then publish.

        Same order as :meth:`Peer.apply_prepared`; ``append_block``
        re-checks the block's data hash and chain link, so a corrupted or
        tampered stream fails loudly here instead of silently skewing the
        mirror.
        """

        block = committed.block
        batch = WriteBatch(block_number=block.number)
        for tx_index, write in committed.writes_applied():
            batch.put(
                write.key, write.value, Version(block.number, tx_index), write.is_delete
            )
        self.ledger.state.apply_batch(batch)
        self.ledger.append_block(committed)
        self.events.publish(committed)

    def __repr__(self) -> str:
        return f"<MirrorPeer {self.name} height={self.ledger.height}>"


class RemoteChannel(Channel):
    """A client-side :class:`Channel` view of a remote cluster.

    Shares the real Channel's *surface* — clients, policies, chaincode
    registry, status tracking, convergence checks — but its peers are
    :class:`MirrorPeer` replicas instead of live protocol engines.
    ``statuses`` fills from the anchor's status stream; a mirror is fed only
    once it is read: :meth:`ledger_of` (and so ``state_of`` /
    ``world_state`` / ``world_states_converged``) opens it first.
    Membership is rebuilt deterministically from the topology, so this
    channel's clients produce signatures (and, with the same submission
    order, transaction IDs) identical to an in-process channel's.
    """

    #: ``open_mirror(peer_index)`` of the transport that feeds this channel.
    open_mirror: Callable[[int], MirrorPeer]

    def __init__(self, profile: ClusterProfile) -> None:
        self.profile = profile
        super().__init__(profile.config)
        for ref in profile.chaincodes:
            self.deploy(ref.instantiate(), ref.policy)

    def _build_peer(self, identity: Identity) -> MirrorPeer:
        return MirrorPeer(identity.qualified_name, identity.org.name)

    def ledger_of(self, peer_index: int = 0) -> Ledger:
        """Peer ``peer_index``'s mirrored ledger, opened (from block 0, caught
        up to the peer's current height) by the first call."""

        return self.open_mirror(peer_index).ledger


class _NodeConnection:
    """One pipelined request connection: replies matched first-in first-out.

    A node answers a connection's requests in the order it reads them, so
    many can be in flight with no request id on the wire.  A request that
    outlives its deadline fails with :class:`RequestTimeout` but *stays
    queued*: its late reply is dropped, never handed to the next request.
    A broken connection fails every queued and later request with
    :class:`PeerUnreachableError`.
    """

    def __init__(self, name: str, reader, writer, timeout_s: float) -> None:
        self.name = name
        self.reader: asyncio.StreamReader = reader
        self.writer: asyncio.StreamWriter = writer
        self.timeout_s = timeout_s
        self._loop = asyncio.get_running_loop()
        #: ``(future, deadline, label)`` per unanswered request, oldest first.
        self._waiting: deque[tuple[asyncio.Future, float, str]] = deque()
        #: One timer, at the oldest live deadline (deadlines rise along the queue).
        self._expiry: Optional[asyncio.TimerHandle] = None
        self._broken: Optional[Exception] = None
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        self._reader_task = self._loop.create_task(self._read_replies())

    def send(self, message: dict) -> asyncio.Future:
        """Queue one request (it leaves at the next loop entry, or at once
        past the outbox's limit); the future is its reply."""

        label = message["type"]
        future = self._loop.create_future()
        if self._broken is not None:
            future.set_exception(self._unreachable(label))
            return future
        send_message(self.writer, message, self._loop)
        deadline = self._loop.time() + self.timeout_s
        self._waiting.append((future, deadline, label))
        if self._expiry is None:
            self._expiry = self._loop.call_at(deadline, self._expire)
        return future

    @property
    def congested(self) -> bool:
        """Whether the queued and buffered bytes are past asyncio's own
        high-water mark."""

        buffered = self.writer.transport.get_write_buffer_size()
        return buffered + queued_bytes(self.writer) > self._high_water

    async def drain(self) -> None:
        try:
            await drain(self.writer)
        except (ConnectionError, OSError):
            pass  # the reader task reports the break to every queued request

    async def _read_replies(self) -> None:
        try:
            while True:
                message = await read_message(self.reader)
                kind = message_type(message)
                if not self._waiting:
                    raise WireError(f"unsolicited {kind!r} message")
                future, _deadline, label = self._waiting.popleft()
                if future.done():
                    continue  # expired: this is its late reply
                if kind == "error":
                    rejected = f"{label} to {self.name} rejected: {message.get('error')}"
                    future.set_exception(TransportError(rejected))
                else:
                    future.set_result(message)
        except (ConnectionClosed, ConnectionError, OSError, FrameError, WireError) as exc:
            self._fail(exc)

    def _expire(self) -> None:
        self._expiry = None
        now = self._loop.time()
        for future, deadline, label in self._waiting:
            if future.done():
                continue
            if deadline > now:
                self._expiry = self._loop.call_at(deadline, self._expire)
                return
            late = f"{label} to {self.name} timed out after {self.timeout_s:g}s"
            future.set_exception(RequestTimeout(late))

    def _unreachable(self, label: str) -> PeerUnreachableError:
        return PeerUnreachableError(f"{label} to {self.name} failed: {self._broken}")

    def _fail(self, exc: Exception) -> None:
        self._broken = exc
        while self._waiting:
            future, _deadline, label = self._waiting.popleft()
            if not future.done():
                future.set_exception(self._unreachable(label))

    def close(self) -> asyncio.Task:
        """Fail what is queued and close; returns the reader task to reap."""

        self._reader_task.cancel()
        self._fail(ConnectionClosed("transport closed"))
        close_writer(self.writer)
        return self._reader_task


class SocketTransport(Transport):
    """A :class:`Transport` speaking the wire protocol to a live cluster.

    A light client: commit statuses ride one header-chained status stream
    from the anchor; a peer's full mirror is opened by the first call that
    reads it (:meth:`open_mirror`) and costs nothing until then.
    """

    def __init__(
        self,
        profile: ClusterProfile,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        commit_timeout_s: float = DEFAULT_COMMIT_TIMEOUT_S,
        telemetry=None,
    ) -> None:
        self.profile = profile
        self.channel = RemoteChannel(profile)
        self.channel.open_mirror = self.open_mirror
        self.request_timeout_s = request_timeout_s
        self.commit_timeout_s = commit_timeout_s
        #: Client-side :class:`~repro.telemetry.Telemetry` (optional):
        #: ``submit`` lifecycle spans on its own wall clock, plus frame
        #: codec counters labelled ``node="client"``.
        self.telemetry = telemetry
        self._codec_handle = (
            install_codec_metrics(telemetry.metrics, node="client")
            if telemetry is not None
            else None
        )
        self._loop = asyncio.new_event_loop()
        self._conns: dict[str, _NodeConnection] = {}
        #: The reader of each peer's one deliver connection, by peer name: the
        #: anchor's status stream, or the full stream of an opened mirror.
        self._streams: dict[str, asyncio.Task] = {}
        #: Peers whose mirror was opened: their stream carries whole blocks.
        self._mirrored: set[str] = set()
        #: Where the status stream's header chain stands: the next block
        #: number and the hash its ``previous_hash`` must equal.
        self._status_next = 0
        self._status_link = GENESIS_PREVIOUS_HASH
        #: Deliver streams that died, by peer name.
        self._stream_errors: dict[str, DeliverStreamError] = {}
        #: Set when a deliver stream brought a block or died, or the last
        #: in-flight flow finished: whatever a waiter may sleep on.
        self._progress = asyncio.Event()
        self._in_flight = 0  # flows not finished yet
        #: The newest flow's "broadcast written" future: the next flow's turn.
        self._last_written: Optional[asyncio.Future] = None
        #: Size of the orderer's open batch, per its latest acknowledgement.
        self._orderer_pending = 0
        self._closed = False

    # -- construction -------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        profile: ClusterProfile,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        commit_timeout_s: float = DEFAULT_COMMIT_TIMEOUT_S,
        telemetry=None,
    ) -> "SocketTransport":
        """Open request connections to every node and the anchor's status
        stream; return once that stream has caught up with the anchor."""

        transport = cls(profile, request_timeout_s, commit_timeout_s, telemetry=telemetry)
        try:
            transport._run(transport._open_all())
        except BaseException:
            transport.close()
            raise
        return transport

    async def _open_all(self) -> None:
        orderer = self.profile.orderer
        self._conns["orderer"] = await self._open(orderer.host, orderer.port, "orderer")
        for endpoint in self.profile.peers:
            self._conns[endpoint.name] = await self._open(
                endpoint.host, endpoint.port, endpoint.name
            )
        await self._follow(0, "deliver_status")

    async def _follow(self, peer_index: int, request: str) -> None:
        """Make ``request`` the peer's one deliver connection, from block 0, and
        sleep until it has brought everything the peer holds right now.

        The catch-up barrier: a stream still replaying would resolve "live
        from now" (and a commit wait) against an old height.
        """

        endpoint, mirror = self.profile.peers[peer_index], self.channel.peers[peer_index]
        replaced = self._streams.pop(endpoint.name, None)
        if replaced is not None:
            replaced.cancel()
            await asyncio.gather(replaced, return_exceptions=True)
            self._stream_errors.pop(endpoint.name, None)  # the old connection's, if it died
        self._streams[endpoint.name] = self._loop.create_task(
            self._deliver_reader(endpoint, mirror, request)
        )
        deadline = self._loop.time() + self.request_timeout_s
        info = await self._conns[endpoint.name].send({"type": "ledger_info"})
        height = info.get("height", 0)
        if not await self._stream_reaches(
            endpoint.name, lambda: self._stream_height(mirror) >= height, deadline
        ):
            raise RequestTimeout(
                f"{request} stream of {endpoint.name} never reached height {height}"
            )

    def _stream_height(self, mirror: MirrorPeer) -> int:
        """How many blocks the peer's deliver connection has brought so far."""

        return mirror.ledger.height if mirror.name in self._mirrored else self._status_next

    async def _open(self, host: str, port: int, label: str) -> _NodeConnection:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self.request_timeout_s
            )
        except asyncio.TimeoutError:
            raise RequestTimeout(f"connecting to {label} at {host}:{port} timed out")
        except (ConnectionError, OSError) as exc:
            raise PeerUnreachableError(f"cannot reach {label} at {host}:{port}: {exc}")
        return _NodeConnection(label, reader, writer, self.request_timeout_s)

    async def _deliver_reader(self, endpoint, mirror: MirrorPeer, request: str) -> None:
        """Read one peer's deliver connection until ``close()`` (or until
        :meth:`_follow` replaces it): whole blocks into an opened mirror,
        block statuses onto the channel.

        A stream that dies is recorded and counted: never mistaken for a quiet one.
        """

        reason = "unreachable"
        try:
            reader, writer = await asyncio.open_connection(endpoint.host, endpoint.port)
            reason = "closed"
            try:
                await write_message(writer, {"type": request, "start_block": 0})
                while True:
                    message = await read_message(reader)
                    kind = message_type(message)
                    if kind == "block" and mirror.name in self._mirrored:
                        mirror.absorb(dec_committed_block(message.get("committed")))
                    elif kind == "block_status" and mirror.name not in self._mirrored:
                        self._absorb_status(*dec_block_status(message.get("status")))
                    else:
                        raise WireError(f"unexpected {kind!r} message")
                    self._progress.set()
            finally:
                close_writer(writer)
        except (ConnectionClosed, ConnectionError, OSError) as exc:
            self._stream_died(endpoint.name, reason, exc)
        except Exception as exc:
            # Whatever else decoding or verifying can raise — a bad frame or
            # message, a broken chain, a block that fails its hash checks —
            # ends the stream typed and counted, never as a lost task.
            self._stream_died(endpoint.name, "protocol", exc)

    def _absorb_status(self, header: BlockHeader, statuses: list[TxStatus]) -> None:
        """Record one block's statuses, once its header continues the chain."""

        if header.number != self._status_next or header.previous_hash != self._status_link:
            raise WireError(
                f"block status {header.number} does not continue the chain "
                f"at block {self._status_next}"
            )
        self._status_next = header.number + 1
        self._status_link = header.hash()
        self.channel.record_statuses(statuses)

    def _stream_died(self, peer: str, reason: str, exc: Exception) -> None:
        self._stream_errors[peer] = DeliverStreamError(
            peer, reason, str(exc) or type(exc).__name__
        )
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "repro_net_deliver_stream_errors_total",
                "Deliver streams that died, by peer and reason",
            ).inc(peer=peer, reason=reason)
        self._progress.set()

    # -- plumbing -----------------------------------------------------------------

    def _run(self, awaitable):
        if self._closed:
            raise TransportError("transport is closed")
        return self._loop.run_until_complete(awaitable)

    async def _drain(self) -> None:
        """Let every in-flight flow finish (each is bounded by request deadlines)."""

        while self._in_flight:
            self._progress.clear()
            await self._progress.wait()

    async def _stream_reaches(
        self, peer: str, reached: Callable[[], bool], deadline: float
    ) -> bool:
        """Sleep until ``peer``'s deliver stream makes ``reached()`` true (False
        at ``deadline``); raise its :class:`DeliverStreamError` once it is dead."""

        timer = self._loop.call_at(deadline, self._progress.set)
        try:
            while not reached():
                if peer in self._stream_errors:
                    raise self._stream_errors[peer]
                if self._loop.time() >= deadline:
                    return False
                self._progress.clear()
                await self._progress.wait()
            return True
        finally:
            timer.cancel()

    def pump(self, seconds: float = 0.05) -> None:
        """Run the event loop briefly so deliver streams make progress.

        Only pure event-stream consumers need this: the loop runs inside
        every blocking transport call — there is no background thread.
        """

        self._run(asyncio.sleep(seconds))

    # -- endorsement --------------------------------------------------------------

    def _send_proposal(
        self, proposal: Proposal, peer_names: Sequence[str], timestamp: float
    ) -> list[tuple[str, asyncio.Future]]:
        message = {
            "type": "endorse",
            "proposal": enc_proposal(proposal),
            "timestamp": timestamp,
        }
        return [(name, self._conns[name].send(message)) for name in peer_names]

    async def _collect(self, proposal: Proposal, replies) -> list[EndorserReply]:
        collected: list[EndorserReply] = []
        for peer_name, reply in replies:
            try:
                message = await reply
            except TransportError as exc:
                # A dead or slow peer is an endorsement failure, not a crash:
                # the round continues and the policy decides if it still passes.
                collected.append(
                    EndorsementFailure(proposal.tx_id, peer_name, f"transport: {exc}")
                )
                continue
            if message.get("ok"):
                collected.append(dec_proposal_response(message.get("response")))
            else:
                collected.append(dec_endorsement_failure(message.get("failure")))
        return collected

    # -- the Transport ABC --------------------------------------------------------

    def _start(self, submission: Submission) -> None:
        """Queue the endorse frames and return; the handle's flow does the rest.

        Nothing is awaited, so every outcome surfaces at ``commit_status()``
        / ``result()``, exactly as on the DES transport.
        """

        if self._closed:
            raise TransportError("transport is closed")
        proposal = submission.proposal
        peer_names = [mirror.name for mirror in self.endorsers(submission.policy)]
        replies = self._send_proposal(proposal, peer_names, self.now)
        turn, written = self._last_written, self._loop.create_future()
        self._last_written = written
        self._in_flight += 1
        submission.tx.flow = self._loop.create_task(
            self._flow(submission, replies, turn, written)
        )
        for name in peer_names:
            if self._conns[name].congested:  # all the back-pressure a closed loop needs
                self._run(self._conns[name].drain())

    async def _flow(self, submission: Submission, replies, turn, written) -> None:
        """One transaction after its endorse frames left, recorded onto its handle.

        Rounds settle and broadcasts leave in submission order (``turn`` is
        the previous flow's "written"), so failure hooks fire and blocks are
        cut as if every submit had blocked.
        """

        tx = submission.tx
        try:
            collected = await self._collect(submission.proposal, replies)
            if turn is not None:
                await turn
            outcome = self.settle(submission, collected)
            if tx.ordered:
                ack = self._conns["orderer"].send(
                    {"type": "broadcast", "envelope": enc_envelope(outcome.envelope)}
                )
                written.set_result(None)
                try:
                    self._orderer_pending = (await ack).get("pending", 0)
                    self.submitted(submission, "ordered")
                except TransportError as exc:
                    tx.submit_error = SubmitError(
                        tx.tx_id, f"could not hand {tx.tx_id} to the orderer: {exc}"
                    )
        finally:
            if not written.done():
                written.set_result(None)
            self._in_flight -= 1
            if not self._in_flight:
                self._progress.set()

    def _ask_anchor(self, proposal: Proposal) -> list[EndorserReply]:
        """An evaluation's proposal goes to the remote anchor peer."""

        anchor = self.profile.anchor_peer.name

        async def asked():
            await self._drain()  # earlier submissions reach the orderer first
            return await self._collect(
                proposal, self._send_proposal(proposal, [anchor], self.now)
            )

        return self._run(asked())

    def wait_for(self, tx: SubmittedTransaction) -> None:
        self._run(self._resolve(tx))

    async def _resolve(self, tx: SubmittedTransaction) -> None:
        """Await ``tx``'s flow, then its block on the anchor's deliver stream."""

        await tx.flow
        if tx.done:
            return
        # As SyncTransport.wait_for: an unresolved transaction may sit in the
        # orderer's open batch — cut it, once no flow can still fill it.
        await self._drain()
        if self._orderer_pending:
            await self._flush()
        deadline = self._loop.time() + self.commit_timeout_s
        if not await self._stream_reaches(
            self.profile.anchor_peer.name, lambda: tx.done, deadline
        ):
            raise CommitTimeoutError(tx.tx_id, self.commit_timeout_s)

    def flush(self) -> dict:
        """Force-cut the orderer's pending batch, earlier submissions included."""

        return self._run(self._flush())

    async def _flush(self) -> dict:
        await self._drain()
        reply = await self._conns["orderer"].send({"type": "flush"})
        self._orderer_pending = 0
        return reply

    # -- mirrors, on demand -------------------------------------------------------

    def open_mirror(self, peer_index: int = 0) -> MirrorPeer:
        """Peer ``peer_index``'s mirror, fed: the first call replaces the peer's
        deliver connection (the status stream, on the anchor) by its full block
        stream from block 0 and returns once the mirror holds everything the
        peer has committed so far; later calls open nothing.

        Every block is re-verified from genesis on the way in.  On the
        anchor, statuses arrive through the mirror from then on, so
        ``channel.statuses`` and the anchor's mirrored ledger never disagree.
        """

        mirror = self.channel.peers[peer_index]
        if mirror.name not in self._mirrored:
            self._run(self._open_mirror(peer_index))
        return mirror

    async def _open_mirror(self, peer_index: int) -> None:
        self._mirrored.add(self.profile.peers[peer_index].name)
        await self._follow(peer_index, "deliver")

    def event_source(self, peer_index: int = 0) -> MirrorPeer:
        """An event stream replays from a ledger: the peer's mirror, opened."""

        super().event_source(peer_index)  # the bounds check
        return self.open_mirror(peer_index)

    def deliver_streams(self) -> dict[str, str]:
        """The live deliver connections: peer name -> ``"status"`` or ``"full"``."""

        return {
            name: "full" if name in self._mirrored else "status"
            for name, task in self._streams.items()
            if not task.done()
        }

    # -- cluster inspection -------------------------------------------------------

    def ledger_info(self, peer_index: int = 0) -> dict:
        """The *remote* peer's height and state fingerprint (hex).

        This asks the actual peer process — not the local mirror — so it is
        the ground truth for convergence/parity checks.
        """

        name = self.profile.peers[peer_index].name
        return self._run(self._conns[name].send({"type": "ledger_info"}))

    def node_metrics(self, node: str, include_spans: bool = False) -> dict:
        """One node's telemetry over the wire (``"orderer"`` or a peer name).

        Returns the ``metrics_result`` payload: ``enabled`` (whether the
        process runs with ``telemetry_enabled``), ``snapshot`` (its
        registry, empty when disabled), and — with ``include_spans`` —
        ``spans``, the node's recorded lifecycle spans.
        """

        request = {"type": "metrics"}
        if include_spans:
            request["include_spans"] = True
        return self._run(self._conns[node].send(request))

    def cluster_metrics(self, include_spans: bool = False) -> dict[str, dict]:
        """Every node's ``metrics_result``, keyed by node name.

        The client's own registry (codec counters, when this transport was
        given a Telemetry) rides along under ``"client"`` so one call
        yields the whole cluster's observability state; merge the
        snapshots with :func:`repro.telemetry.merge_snapshots` for a
        cluster-wide registry view.
        """

        results = {"orderer": self.node_metrics("orderer", include_spans)}
        for endpoint in self.profile.peers:
            results[endpoint.name] = self.node_metrics(endpoint.name, include_spans)
        if self.telemetry is not None:
            payload = {
                "type": "metrics_result",
                "node": "client",
                "enabled": True,
                "snapshot": self.telemetry.metrics.snapshot(),
            }
            if include_spans:
                payload["spans"] = [span.to_dict() for span in self.telemetry.spans]
            results["client"] = payload
        return results

    def wait_for_height(self, height: int, timeout_s: float = 30.0) -> None:
        """Block until every remote peer's ledger reaches ``height``."""

        self._run(self._await_height(height, timeout_s))

    async def _await_height(self, height: int, timeout_s: float) -> None:
        await self._drain()  # earlier submissions reach the orderer first
        deadline = self._loop.time() + timeout_s
        pending = list(range(len(self.profile.peers)))
        while pending:
            still: list[int] = []
            for index in pending:
                name = self.profile.peers[index].name
                info = await self._conns[name].send({"type": "ledger_info"})
                if info.get("height", 0) < height:
                    still.append(index)
            pending = still
            if pending:
                if self._loop.time() >= deadline:
                    names = [self.profile.peers[i].name for i in pending]
                    raise CommitTimeoutError(
                        "<height barrier>", timeout_s,
                        f"peers {names} below height {height}",
                    )
                await asyncio.sleep(0.01)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Tear down every connection and the private loop.  Idempotent."""

        if self._closed:
            return
        async def settle() -> None:
            # Submissions nobody awaited still reach the orderer first (each
            # flow is bounded by request deadlines).
            await self._drain()
            tasks = list(self._streams.values())
            for task in tasks:
                task.cancel()
            tasks.extend(conn.close() for conn in self._conns.values())
            await asyncio.gather(*tasks, return_exceptions=True)
            await asyncio.sleep(0)  # transports flush their close frames

        self._loop.run_until_complete(settle())
        if self._codec_handle is not None:
            uninstall_codec_metrics(self._codec_handle)
            self._codec_handle = None
        self.channel.close()
        self._loop.close()
        self._closed = True

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SocketTransport({len(self.profile.peers)} peers + orderer, {state})"
        )
