"""The peer process: an asyncio server around the existing ``Peer``.

All protocol logic is reused unchanged — endorsement, VSCC/MVCC
validation, the CRDT block merge (when the config enables it), and the
block-scoped ``WriteBatch`` commit path on either state backend.  This
module contributes only the deployment shell:

* an asyncio TCP server answering ``endorse`` / ``ledger_info`` / ``ping``
  requests and serving committed blocks as streams — whole (``deliver``)
  or as header + validation codes (``deliver_status``, Fabric's filtered
  blocks);
* a follower task that subscribes to the orderer's deliver stream from
  block 0 and runs ``validate_and_commit`` on each block — the peer's
  committer, fed over a socket instead of a method call.

Everything runs on one event loop, so commits and endorsements interleave
atomically exactly as they do on the in-process networks: an endorsement
observes either all of a block's writes or none.

Identities are rebuilt deterministically from the topology (see
:mod:`repro.net.profile`), so endorsement signatures produced here verify
on clients and other peers without any key exchange.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Callable

from ..common.errors import FabricError
from ..core.network import peer_factory_for
from ..fabric.block import CommittedBlock
from ..fabric.chaincode import ChaincodeRegistry
from ..fabric.identity import MembershipRegistry
from ..fabric.peer import Peer
from ..fabric.transaction import ProposalResponse
from ..gateway.channel import enroll_members, open_peer_store
from ..telemetry.lifecycle import record_commit_phases, record_phase
from .codec import FrameError, install_codec_metrics, read_message, write_message
from .errors import ConnectionClosed, PeerUnreachableError
from .profile import ClusterProfile
from .wire import (
    WireError,
    dec_block,
    dec_integer,
    dec_number,
    dec_proposal,
    enc_block_status,
    enc_committed_block,
    enc_endorsement_failure,
    enc_proposal_response,
    error_message,
    message_type,
    metrics_result_message,
)

#: How long the follower keeps retrying the orderer before giving up.
ORDERER_CONNECT_TIMEOUT_S = 30.0


def build_peer(profile: ClusterProfile, qualified_name: str) -> Peer:
    """Construct this process's peer exactly as the in-process channel would.

    The channel's own enrolment order and per-peer store selection (with its
    refusal of a database a previous run left behind), the peer type the
    config asks for.  That sameness is what makes per-peer state
    fingerprints comparable against a
    :class:`~repro.fabric.localnet.LocalNetwork` run.
    """

    config = profile.config
    membership = MembershipRegistry()
    enroll_members(membership, config.topology)
    chaincodes = ChaincodeRegistry()
    for ref in profile.chaincodes:
        chaincodes.deploy(ref.instantiate())
    identity = membership.identity(qualified_name)
    return peer_factory_for(config)(
        identity, membership, chaincodes, store=open_peer_store(config, identity)
    )


class PeerState:
    """The server's handle on its peer plus the process clock.

    ``telemetry`` (set when the profile's config enables it) holds this
    process's :class:`~repro.telemetry.Telemetry` bound to the same
    monotonic-since-start clock as commit timestamps; the ``metrics`` wire
    request exposes it to remote clients.
    """

    def __init__(self, peer: Peer) -> None:
        self.peer = peer
        self.started = time.monotonic()
        self.telemetry = None

    def now(self) -> float:
        return time.monotonic() - self.started

    def enable_telemetry(self) -> None:
        from ..telemetry import Telemetry

        self.telemetry = Telemetry(clock=self.now)
        self.peer.enable_telemetry(self.telemetry)
        install_codec_metrics(self.telemetry.metrics, node=self.peer.name)


async def _follow_orderer(state: PeerState, host: str, port: int) -> None:
    """Subscribe to the orderer's block stream and commit every block.

    Reconnects (resuming from the current ledger height) if the stream
    drops; gives up only if the orderer stays unreachable past the
    connection deadline, which terminates the process — a peer that cannot
    reach ordering is not serving anything useful.
    """

    deadline = time.monotonic() + ORDERER_CONNECT_TIMEOUT_S
    while True:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            if time.monotonic() >= deadline:
                raise PeerUnreachableError(
                    f"orderer at {host}:{port} unreachable for "
                    f"{ORDERER_CONNECT_TIMEOUT_S:g}s"
                )
            await asyncio.sleep(0.05)
            continue
        deadline = time.monotonic() + ORDERER_CONNECT_TIMEOUT_S
        try:
            await write_message(
                writer,
                {"type": "deliver", "start_block": state.peer.ledger.height},
            )
            while True:
                message = await read_message(reader)
                if message_type(message) != "raw_block":
                    raise WireError(
                        f"orderer deliver stream sent {message.get('type')!r}"
                    )
                block = dec_block(message.get("block"))
                # deliver = socket receipt -> committer pickup (immediate here —
                # one event loop), validate = prepare_block, apply = the
                # WriteBatch commit; the clock is read once per stage.
                received = state.now()
                prepared = state.peer.prepare_block(block)
                validated = state.now()
                state.peer.apply_prepared(prepared, commit_time=validated)
                if state.telemetry is not None:
                    record_commit_phases(
                        state.telemetry, state.peer.name, prepared,
                        received, received, validated, state.now(),
                    )
        except (ConnectionClosed, ConnectionError, OSError):
            writer.close()
            continue  # reconnect from the new height


def _full_block(committed: CommittedBlock) -> dict:
    return {"type": "block", "committed": enc_committed_block(committed)}


def _block_status(committed: CommittedBlock) -> dict:
    return {"type": "block_status", "status": enc_block_status(committed)}


#: What a block is rendered as, by the request that opened the stream.
DELIVER_FRAMES: dict[str, Callable[[CommittedBlock], dict]] = {
    "deliver": _full_block,
    "deliver_status": _block_status,
}


async def _handle_deliver(
    state: PeerState,
    writer: asyncio.StreamWriter,
    start_block: int,
    render: Callable[[CommittedBlock], dict],
) -> None:
    """Stream committed blocks as ``render`` frames: ledger replay, then live.

    The hub subscription is installed *before* replay (the deliver-service
    pattern from :mod:`repro.events.deliver`): blocks committed mid-replay
    land in the queue and the cursor guard drops the ones replay already
    sent, so the consumer sees every block exactly once, in order.
    """

    queue: asyncio.Queue = asyncio.Queue()
    unsubscribe = state.peer.events.subscribe(
        lambda committed, _name: queue.put_nowait(committed)
    )
    cursor = start_block
    try:
        while cursor < state.peer.ledger.height:
            await write_message(writer, render(state.peer.ledger.block_at(cursor)))
            cursor += 1
        while True:
            committed = await queue.get()
            if committed.block.number < cursor:
                continue
            await write_message(writer, render(committed))
            cursor = committed.block.number + 1
    finally:
        unsubscribe()


async def _handle_connection(
    state: PeerState, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    peer = state.peer
    try:
        while True:
            try:
                message = await read_message(reader)
                kind = message_type(message)
            except ConnectionClosed:
                return
            except (FrameError, WireError) as exc:
                try:
                    await write_message(writer, error_message(str(exc)))
                except (ConnectionError, OSError):
                    pass
                return

            if kind == "ping":
                await write_message(
                    writer,
                    {"type": "pong", "node": peer.name, "height": peer.ledger.height},
                )
            elif kind == "endorse":
                try:
                    proposal = dec_proposal(message.get("proposal"))
                    timestamp = dec_number(message.get("timestamp", 0.0), "endorse timestamp")
                except WireError as exc:
                    await write_message(writer, error_message(str(exc)))
                    continue
                arrived = state.now()
                outcome = peer.endorse(proposal, timestamp)
                record_phase(
                    state.telemetry, "endorse", proposal.tx_id,
                    arrived, state.now(), node=peer.name,
                    ok=isinstance(outcome, ProposalResponse),
                )
                if isinstance(outcome, ProposalResponse):
                    await write_message(
                        writer,
                        {
                            "type": "endorse_result",
                            "ok": True,
                            "response": enc_proposal_response(outcome),
                        },
                    )
                else:
                    await write_message(
                        writer,
                        {
                            "type": "endorse_result",
                            "ok": False,
                            "failure": enc_endorsement_failure(outcome),
                        },
                    )
            elif kind == "ledger_info":
                await write_message(
                    writer,
                    {
                        "type": "ledger_info_result",
                        "peer": peer.name,
                        "height": peer.ledger.height,
                        "fingerprint": peer.ledger.state.fingerprint().hex(),
                    },
                )
            elif kind == "metrics":
                await write_message(
                    writer, metrics_result_message(state.telemetry, peer.name, message)
                )
            elif kind in DELIVER_FRAMES:
                try:
                    start = dec_integer(message.get("start_block", 0), f"{kind} start_block")
                    if start < 0:
                        raise WireError(f"{kind} start_block: {start} is negative")
                except WireError as exc:
                    await write_message(writer, error_message(str(exc)))
                    continue
                await _handle_deliver(state, writer, start, DELIVER_FRAMES[kind])
                return
            else:
                await write_message(
                    writer, error_message(f"peer cannot handle {kind!r}")
                )
    except (ConnectionError, OSError, asyncio.CancelledError):
        return
    finally:
        writer.close()


async def _serve(
    state: PeerState, orderer_host: str, orderer_port: int, port_conn
) -> None:
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

    follower = asyncio.create_task(_follow_orderer(state, orderer_host, orderer_port))
    try:
        async with server:
            stop_wait = asyncio.create_task(stop.wait())
            done, _pending = await asyncio.wait(
                {stop_wait, follower}, return_when=asyncio.FIRST_COMPLETED
            )
            if follower in done:
                follower.result()  # surface the follower's failure
    finally:
        follower.cancel()
        state.peer.ledger.state.close()


def peer_process_main(
    profile_dict: dict, qualified_name: str, orderer_host: str, orderer_port: int, port_conn
) -> None:
    """Entry point of a spawned peer process."""

    profile = ClusterProfile.from_dict(profile_dict)
    try:
        state = PeerState(build_peer(profile, qualified_name))
    except FabricError as exc:
        port_conn.send(str(exc))  # in place of the port: why this peer cannot start
        port_conn.close()
        return
    if profile.config.telemetry_enabled:
        state.enable_telemetry()
    asyncio.run(_serve(state, orderer_host, orderer_port, port_conn))
