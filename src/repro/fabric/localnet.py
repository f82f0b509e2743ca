"""A synchronous, in-process Fabric network — no simulation clock.

:class:`LocalNetwork` is a thin shell over the shared
:class:`~repro.gateway.channel.Channel` runtime and the inline
:class:`~repro.gateway.transport.SyncTransport`: the same wiring the
discrete-event network uses, minus the clock.  Every call drives the full
Execute-Order-Validate lifecycle; blocks are dispatched to *all* peers as
they are cut, and :meth:`flush` force-cuts the pending batch (standing in
for the batch timeout).

The peer type follows the config (vanilla Fabric or FabricCRDT) unless a
``peer_factory`` overrides it (see :func:`repro.core.network.crdt_network`).
Transactions go through the Gateway API::

    gateway = Gateway.connect(network)
    contract = gateway.get_contract("iot")
    contract.submit("record", call)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..common.config import NetworkConfig
from ..common.types import Json, TxStatus, ValidationCode
from .block import Block
from .chaincode import DeployableChaincode
from .client import Client
from .identity import MembershipRegistry
from .ledger import Ledger
from .peer import Peer
from .policy import PolicyNode
from .store import StateStore

if TYPE_CHECKING:  # pragma: no cover
    from ..gateway.channel import Channel
    from ..gateway.transport import SyncTransport

PeerFactory = Callable[..., Peer]


class LocalNetwork:
    """Synchronous Fabric network with the paper's default topology."""

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        peer_factory: Optional[PeerFactory] = None,
    ) -> None:
        # Imported lazily: the gateway package itself imports fabric
        # submodules, so a module-level import here would be circular.
        from ..gateway.channel import Channel
        from ..gateway.transport import SyncTransport

        self.channel: "Channel" = Channel(config, peer_factory)
        self.transport: "SyncTransport" = SyncTransport(self.channel)

    # -- channel delegation ------------------------------------------------------

    @property
    def config(self) -> NetworkConfig:
        return self.channel.config

    @property
    def membership(self) -> MembershipRegistry:
        return self.channel.membership

    @property
    def chaincodes(self):
        return self.channel.chaincodes

    @property
    def peers(self) -> list[Peer]:
        return self.channel.peers

    @property
    def clients(self) -> list[Client]:
        return self.channel.clients

    @property
    def statuses(self) -> dict[str, TxStatus]:
        """Transaction statuses observed on the anchor peer, by tx ID."""

        return self.channel.statuses

    @property
    def orderer(self):
        return self.transport.orderer

    @property
    def anchor_peer(self) -> Peer:
        return self.channel.anchor_peer

    @property
    def org_names(self) -> tuple[str, ...]:
        return self.channel.org_names

    def peers_of(self, org_name: str) -> list[Peer]:
        return self.channel.peers_of(org_name)

    def deploy(
        self, chaincode: DeployableChaincode, policy: Optional[PolicyNode] = None
    ) -> None:
        self.channel.deploy(chaincode, policy)

    # -- ordering --------------------------------------------------------------------

    def flush(self, now: float = 0.0) -> Optional[Block]:
        """Force-cut the pending batch and commit it everywhere."""

        return self.transport.flush(now)

    # -- inspection --------------------------------------------------------------------

    def status_of(self, tx_id: str) -> Optional[ValidationCode]:
        return self.channel.status_of(tx_id)

    def state_of(self, key: str) -> Optional[Json]:
        return self.channel.state_of(key)

    def ledger_of(self, peer_index: int = 0) -> Ledger:
        return self.channel.ledger_of(peer_index)

    def world_states_converged(self) -> bool:
        return self.channel.world_states_converged()

    def assert_states_converged(self) -> None:
        self.channel.assert_states_converged()

    def success_count(self) -> int:
        return self.channel.success_count()

    def failure_count(self) -> int:
        return self.channel.failure_count()

    def world_state(self) -> StateStore:
        return self.channel.world_state()

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release the network's resources (deliver session, peer stores)."""

        self.transport.close()

    def __enter__(self) -> "LocalNetwork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
