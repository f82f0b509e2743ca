"""The process supervisor: spawn, health-check, and terminate a cluster.

:class:`Cluster` turns one :class:`~repro.common.config.NetworkConfig`
into real OS processes: one orderer plus ``num_orgs × peers_per_org``
peers, each an asyncio server from :mod:`repro.net.ordererserver` /
:mod:`repro.net.peerserver`.  The ``multiprocessing`` *spawn* context is
used deliberately — children import the package fresh, exactly like
independently deployed nodes, instead of inheriting a forked copy of the
parent's interpreter state.

Port allocation is race-free: every child binds ``127.0.0.1:0`` itself
and reports the kernel-assigned port back through a pipe, so two clusters
can run side by side (CI shards, tests) without coordination.  Startup is
fail-fast — a child that does not report its port within the deadline, or
reports instead why it cannot start (a peer refusing a used state
database), takes the whole cluster down with a
:class:`ClusterStartupError` rather than leaving half a network running.

Shutdown is deterministic: SIGTERM first (the servers close their state
stores on it), a bounded join, then SIGKILL for stragglers.  The class is
a context manager; see ``examples/distributed_network.py``.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
from typing import Optional, Sequence

from ..common.config import NetworkConfig
from ..fabric.identity import MembershipRegistry
from ..gateway.channel import enroll_members
from .codec import HEADER_BYTES, MAGIC, encode_message
from .errors import ClusterStartupError, PeerUnreachableError
from .ordererserver import orderer_process_main
from .peerserver import peer_process_main
from .profile import (
    ChaincodeRef,
    ClusterProfile,
    Endpoint,
    PeerEndpoint,
    config_to_dict,
    resolve_chaincode_refs,
)
from .wire import WireError, message_type

#: Seconds a spawned node gets to bind its port and report it.
DEFAULT_STARTUP_TIMEOUT_S = 30.0

#: Seconds a node gets to exit after SIGTERM before SIGKILL.
TERMINATE_GRACE_S = 5.0

HOST = "127.0.0.1"


def _ping_blocking(host: str, port: int, timeout_s: float) -> dict:
    """Synchronous ping round-trip (supervisor-side health check).

    Uses a plain blocking socket instead of the client event loop: the
    supervisor has no loop of its own, and a health check must not depend
    on the machinery it is checking.
    """

    try:
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            sock.sendall(encode_message({"type": "ping"}))
            header = _recv_exact(sock, HEADER_BYTES)
            if header[: len(MAGIC)] != MAGIC:
                raise PeerUnreachableError(
                    f"{host}:{port} answered with a non-protocol byte stream"
                )
            (length,) = struct.unpack(">I", header[len(MAGIC) :])
            payload = _recv_exact(sock, length)
    except (ConnectionError, OSError, TimeoutError) as exc:
        raise PeerUnreachableError(f"cannot ping {host}:{port}: {exc}") from exc
    from ..common.serialization import from_bytes

    message = from_bytes(payload)
    if message_type(message) != "pong":
        raise WireError(f"ping answered with {message.get('type')!r}")
    return message


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise PeerUnreachableError("connection closed mid-message")
        data += chunk
    return data


class Cluster:
    """A running multi-process network: one orderer + the configured peers."""

    def __init__(
        self,
        profile: ClusterProfile,
        processes: "list[multiprocessing.process.BaseProcess]",
    ) -> None:
        self.profile = profile
        self._processes = processes
        self._terminated = False

    # -- construction -------------------------------------------------------------

    @classmethod
    def spawn(
        cls,
        config: Optional[NetworkConfig] = None,
        chaincodes: Sequence["ChaincodeRef | str"] = (),
        startup_timeout_s: float = DEFAULT_STARTUP_TIMEOUT_S,
    ) -> "Cluster":
        """Start every node as its own OS process and wait until all answer.

        ``chaincodes`` lists import specs (``"module:Class"``) or
        :class:`~repro.net.profile.ChaincodeRef` objects; each node
        instantiates its own copy.  Returns only after every node has
        reported its port *and* answered a ping.
        """

        resolved_config = config if config is not None else NetworkConfig()
        refs = resolve_chaincode_refs(chaincodes)
        config_dict = config_to_dict(resolved_config)
        ctx = multiprocessing.get_context("spawn")
        processes: list[multiprocessing.process.BaseProcess] = []

        def fail(detail: str) -> ClusterStartupError:
            _stop_processes(processes)
            return ClusterStartupError(detail)

        def reported_port(recv_end, label: str) -> int:
            """The port a spawned node bound — or why it did not come up."""

            if not recv_end.poll(startup_timeout_s):
                raise fail(f"{label} did not report a port within {startup_timeout_s:g}s")
            try:
                reported = recv_end.recv()
            except EOFError:
                raise fail(f"{label} exited before reporting a port") from None
            recv_end.close()
            if not isinstance(reported, int):
                raise fail(f"{label} failed to start: {reported}")
            return reported

        # Orderer first: peers connect to its deliver stream on startup.
        orderer_recv, orderer_send = ctx.Pipe(duplex=False)
        orderer_proc = ctx.Process(
            target=orderer_process_main,
            args=(config_dict, orderer_send),
            name="repro-orderer",
            daemon=True,
        )
        orderer_proc.start()
        orderer_send.close()
        processes.append(orderer_proc)
        orderer_port = reported_port(orderer_recv, "orderer")

        # The partial profile the peers boot from (no peer ports yet —
        # peers only need the config, the chaincodes, and the orderer).
        boot_profile = ClusterProfile(
            config=resolved_config,
            orderer=Endpoint(HOST, orderer_port),
            peers=(),
            chaincodes=refs,
        ).to_dict()

        peer_endpoints: list[PeerEndpoint] = []
        pending: list[tuple[str, str, object]] = []
        peer_identities, _ = enroll_members(MembershipRegistry(), resolved_config.topology)
        for identity in peer_identities:
            qualified, org_name = identity.qualified_name, identity.org.name
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=peer_process_main,
                args=(boot_profile, qualified, HOST, orderer_port, send_end),
                name=f"repro-peer-{qualified}",
                daemon=True,
            )
            proc.start()
            send_end.close()
            processes.append(proc)
            pending.append((qualified, org_name, recv_end))

        for qualified, org_name, recv_end in pending:
            port = reported_port(recv_end, f"peer {qualified}")
            peer_endpoints.append(PeerEndpoint(qualified, org_name, HOST, port))

        profile = ClusterProfile(
            config=resolved_config,
            orderer=Endpoint(HOST, orderer_port),
            peers=tuple(peer_endpoints),
            chaincodes=refs,
        )
        cluster = cls(profile, processes)
        try:
            cluster.health_check(timeout_s=startup_timeout_s)
        except (PeerUnreachableError, WireError) as exc:
            cluster.terminate()
            raise ClusterStartupError(f"cluster failed its startup health check: {exc}")
        return cluster

    # -- health -------------------------------------------------------------------

    def health_check(self, timeout_s: float = 5.0) -> dict[str, dict]:
        """Ping every node; returns per-node pong payloads, raises on failure."""

        results: dict[str, dict] = {}
        results["orderer"] = _ping_blocking(
            self.profile.orderer.host, self.profile.orderer.port, timeout_s
        )
        for peer in self.profile.peers:
            results[peer.name] = _ping_blocking(peer.host, peer.port, timeout_s)
        return results

    def alive(self) -> bool:
        """Whether every node process is still running."""

        return all(proc.is_alive() for proc in self._processes)

    # -- shutdown -----------------------------------------------------------------

    def terminate(self) -> None:
        """Stop every node: SIGTERM, bounded join, SIGKILL stragglers."""

        if self._terminated:
            return
        self._terminated = True
        _stop_processes(self._processes)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()

    def __repr__(self) -> str:
        state = "terminated" if self._terminated else ("up" if self.alive() else "degraded")
        return (
            f"Cluster({len(self.profile.peers)} peers + orderer on {HOST}, {state})"
        )


def _stop_processes(processes: "list[multiprocessing.process.BaseProcess]") -> None:
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(TERMINATE_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join(TERMINATE_GRACE_S)
