"""The channel runtime shared by every network front-end.

:class:`~repro.fabric.localnet.LocalNetwork` and
:class:`~repro.fabric.network.SimulatedNetwork` share one wiring:
membership enrolment, the peer set (built by a ``peer_factory``, by default
the peer type the config asks for), the client pool, the chaincode registry
(each chaincode with its endorsement policy, shared with the peers that
validate against it), and commit-event → status tracking.
:class:`Channel` is that wiring; the front-ends differ only in *transport*
(how proposals, envelopes, and blocks move — see
:mod:`repro.gateway.transport`).

A channel knows nothing about time: it holds the pure protocol state and
answers questions about it (statuses, world state, convergence).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional

from ..common.config import NetworkConfig, TopologyConfig
from ..common.errors import FabricError
from ..common.types import Json, TxStatus, ValidationCode
from ..fabric.block import CommittedBlock
from ..fabric.chaincode import ChaincodeRegistry, DeployableChaincode
from ..fabric.client import Client
from ..fabric.events import statuses_from_block
from ..fabric.identity import Identity, MembershipRegistry
from ..fabric.ledger import Ledger
from ..fabric.peer import Peer
from ..fabric.policy import PolicyNode, deployment_policy
from ..fabric.store import StateStore, create_store

#: ``factory(identity, membership, chaincodes, store=...)`` building one peer.
PeerFactory = Callable[..., Peer]

#: Clients enrolled per channel (the paper's Caliper setup uses four).
NUM_CLIENTS = 4


def enroll_members(
    membership: MembershipRegistry, topology: TopologyConfig
) -> tuple[list[Identity], list[Identity]]:
    """Enrol a channel's peers, then its clients, in the one canonical order.

    Peers per org, ``peer{i}`` within each; ``client{i}`` round-robin over
    the orgs.  Every process of a socket cluster runs this same routine, so
    peer indices mean the same thing everywhere — and because enrolment
    secrets are a pure function of the qualified name, each process gets
    signature-compatible identities without any key exchange.
    """

    peers = [
        membership.enroll(org_name, f"peer{index}")
        for org_name in topology.org_names
        for index in range(topology.peers_per_org)
    ]
    clients = [
        membership.enroll(topology.org_names[index % topology.num_orgs], f"client{index}")
        for index in range(NUM_CLIENTS)
    ]
    return peers, clients


def open_peer_store(config: NetworkConfig, identity: Identity) -> StateStore:
    """The configured, still empty state store of one peer.

    sqlite peers get one database each — file-backed under ``state_dir``,
    private in-memory otherwise.
    """

    path = None
    if config.state_dir is not None:
        os.makedirs(config.state_dir, exist_ok=True)
        path = os.path.join(config.state_dir, f"{identity.qualified_name}.sqlite")
    store = create_store(config.state_backend, path)
    if len(store):
        # A fresh channel starts at genesis; silently pairing a prior
        # run's world state with an empty ledger would corrupt every
        # read (and stay invisible to the divergence check, since all
        # peers would be equally stale).
        store.close()
        raise FabricError(
            f"state database {path!r} already holds {identity.qualified_name}'s "
            "state from a previous run; remove it or point state_dir at a "
            "fresh directory (reopen old state with SqliteStore(path) directly)"
        )
    return store


class Channel:
    """Shared protocol state: peers, clients, chaincodes, and tx statuses."""

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        peer_factory: Optional[PeerFactory] = None,
    ) -> None:
        self.config = config if config is not None else NetworkConfig()
        self.membership = MembershipRegistry()
        self.chaincodes = ChaincodeRegistry()
        if peer_factory is None:
            # Imported lazily: repro.core builds on the front-ends that
            # import this module.
            from ..core.network import peer_factory_for

            peer_factory = peer_factory_for(self.config)
        self.peer_factory: PeerFactory = peer_factory

        peer_identities, client_identities = enroll_members(
            self.membership, self.config.topology
        )
        self.peers: list[Peer] = [self._build_peer(identity) for identity in peer_identities]
        self.clients = [Client(identity, self.membership) for identity in client_identities]

        self._closed = False
        #: Transaction statuses observed on the anchor peer, by tx ID.
        self.statuses: dict[str, TxStatus] = {}
        # Commit tracking rides the event service's deliver session (from
        # genesis, inline delivery): statuses are recorded in the same
        # instant the anchor peer commits, on every transport.
        from ..events.deliver import DeliverService

        self._deliver_session = DeliverService(self.anchor_peer).deliver(
            self._on_commit, start_block=0
        )

    def _build_peer(self, identity: Identity) -> Peer:
        """One of the channel's peers (a remote channel builds mirrors instead)."""

        return self.peer_factory(
            identity, self.membership, self.chaincodes,
            store=open_peer_store(self.config, identity),
        )

    # -- topology accessors ------------------------------------------------------

    @property
    def name(self) -> str:
        """The channel name (Fabric's channel ID)."""

        return self.config.topology.channel

    @property
    def anchor_peer(self) -> Peer:
        return self.peers[0]

    @property
    def org_names(self) -> tuple[str, ...]:
        return self.config.topology.org_names

    def peers_of(self, org_name: str) -> list[Peer]:
        return [peer for peer in self.peers if peer.org_name == org_name]

    def client(self, client_index: int = 0) -> Client:
        return self.clients[client_index % len(self.clients)]

    # -- deployment ----------------------------------------------------------------

    def deploy(
        self, chaincode: DeployableChaincode, policy: Optional[PolicyNode] = None
    ) -> None:
        """Deploy a chaincode on the channel with an endorsement policy.

        Accepts anything with a ``name`` and Fabric's
        ``invoke(stub, function, args)`` entry — in practice a
        :class:`repro.contract.Contract` subclass.  ``None`` is the channel
        default (:func:`~repro.fabric.policy.deployment_policy`).
        """

        self.chaincodes.deploy(chaincode, deployment_policy(policy, self.org_names))

    def policy_for(self, chaincode_name: str) -> PolicyNode:
        """The deployed policy: the client reads it only to choose endorsers
        and a consistent response group, as Fabric's discovery service does."""

        policy = self.chaincodes.policy_for(chaincode_name)
        if policy is None:
            raise FabricError(f"chaincode {chaincode_name!r} not deployed")
        return policy

    # -- status tracking -------------------------------------------------------------

    def _on_commit(self, committed: CommittedBlock) -> None:
        self.record_statuses(statuses_from_block(committed))

    def record_statuses(self, statuses: Iterable[TxStatus]) -> None:
        """One committed block's statuses, as the anchor reported them."""

        for status in statuses:
            self.statuses[status.tx_id] = status

    def status_of(self, tx_id: str) -> Optional[ValidationCode]:
        status = self.statuses.get(tx_id)
        return status.code if status is not None else None

    def success_count(self) -> int:
        return sum(1 for status in self.statuses.values() if status.succeeded)

    def failure_count(self) -> int:
        return sum(1 for status in self.statuses.values() if not status.succeeded)

    # -- world-state inspection -------------------------------------------------------

    def state_of(self, key: str) -> Optional[Json]:
        """Committed JSON value of ``key`` on the anchor peer."""

        from ..common.serialization import from_bytes

        raw = self.world_state().get_value(key)
        return from_bytes(raw) if raw is not None else None

    def ledger_of(self, peer_index: int = 0) -> Ledger:
        """One peer's ledger: what every state accessor here reads through (a
        remote channel overrides it to open that peer's mirror first)."""

        return self.peers[peer_index].ledger

    def world_state(self) -> StateStore:
        return self.ledger_of(0).state

    def world_states_converged(self) -> bool:
        """True if every peer holds an identical world state.

        Compares the stores' incremental content fingerprints — a pure
        function of each store's full ``(key, version, value)`` content —
        so the check is O(peers), not O(peers × keys) dictionary
        materialization per call.
        """

        reference = self.world_state().fingerprint()
        return all(
            self.ledger_of(index).state.fingerprint() == reference
            for index in range(1, len(self.peers))
        )

    def assert_states_converged(self) -> None:
        if not self.world_states_converged():
            raise FabricError("peer world states diverged")

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release channel resources: the deliver session and peer stores.

        Idempotent.  Closing matters most for file-backed state stores
        (sqlite connections) and for the commit-tracking deliver session,
        which holds a live event-hub subscription on the anchor peer.
        """

        if self._closed:
            return
        self._closed = True
        self._deliver_session.close()
        for peer in self.peers:
            peer.ledger.state.close()
