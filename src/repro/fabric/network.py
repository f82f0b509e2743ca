"""The timed Fabric network: a thin shell over the DES transport.

:class:`SimulatedNetwork` binds the shared
:class:`~repro.gateway.channel.Channel` runtime to the discrete-event
:class:`~repro.gateway.des.DESTransport`, whose peer/orderer pipelines live
in :mod:`repro.fabric.nodes`.  The protocol behaviour — endorsement pools,
the in-order commit pipeline whose service window produces the paper's MVCC
conflicts (§3), epoch-guarded batch timers — is documented on the node
classes themselves.

Clients are *not* defined here: they submit through the Gateway API
(``Gateway.connect(network).get_contract(...).submit_async``), as the
benchmark runner's client strategies (:mod:`repro.workload.clients`) do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..common.config import NetworkConfig
from ..sim.engine import Environment
from .chaincode import DeployableChaincode
from .client import Client
from .costmodel import CostModel
from .orderer import OrderingService
from .peer import Peer
from .policy import PolicyNode

if TYPE_CHECKING:  # pragma: no cover
    from ..gateway.channel import Channel
    from ..gateway.des import DESTransport
    from .nodes import OrdererNode, PeerNode

PeerFactory = Callable[..., Peer]


class SimulatedNetwork:
    """A full Fabric / FabricCRDT network on the simulation clock."""

    def __init__(
        self,
        env: Environment,
        config: Optional[NetworkConfig] = None,
        cost: Optional[CostModel] = None,
        peer_factory: Optional[PeerFactory] = None,
        ordering_cls: type[OrderingService] = OrderingService,
    ) -> None:
        # Imported lazily: the gateway package itself imports fabric
        # submodules, so a module-level import here would be circular.
        from ..gateway.channel import Channel
        from ..gateway.des import DESTransport

        self.channel: "Channel" = Channel(config, peer_factory)
        self.transport: "DESTransport" = DESTransport(
            env, self.channel, cost=cost, ordering_cls=ordering_cls
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def env(self) -> Environment:
        return self.transport.env

    @property
    def config(self) -> NetworkConfig:
        return self.channel.config

    @property
    def cost(self) -> CostModel:
        return self.transport.cost

    @property
    def membership(self):
        return self.channel.membership

    @property
    def chaincodes(self):
        return self.channel.chaincodes

    @property
    def clients(self) -> list[Client]:
        return self.channel.clients

    @property
    def peer_nodes(self) -> list[PeerNode]:
        return self.transport.peer_nodes

    @property
    def ordering(self) -> OrderingService:
        return self.transport.ordering

    @property
    def orderer_node(self) -> OrdererNode:
        return self.transport.orderer_node

    @property
    def anchor_node(self) -> PeerNode:
        return self.transport.anchor_node

    @property
    def anchor_peer(self) -> Peer:
        return self.channel.anchor_peer

    @property
    def org_names(self) -> tuple[str, ...]:
        return self.channel.org_names

    def peers(self) -> list[Peer]:
        return list(self.channel.peers)

    # -- deployment ------------------------------------------------------------------

    def deploy(
        self, chaincode: DeployableChaincode, policy: Optional[PolicyNode] = None
    ) -> None:
        self.channel.deploy(chaincode, policy)

    # -- telemetry (opt-in) ----------------------------------------------------------

    def enable_telemetry(self, telemetry) -> None:
        """Instrument this network into a :class:`~repro.telemetry.Telemetry`.

        Lifecycle spans are recorded on the simulation clock; node metrics
        (peer, orderer, state store) land in the context's registry.  The
        run's protocol behaviour and deterministic metrics are unchanged.
        """

        self.transport.enable_telemetry(telemetry)

    # -- bootstrap (before the clock starts) ---------------------------------------------

    def bootstrap(
        self, chaincode: str, function: str, args_list: Sequence[Sequence[str]]
    ) -> None:
        """Run setup transactions synchronously at time zero (§7.2)."""

        self.transport.bootstrap(chaincode, function, args_list)

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release the network's resources (deliver session, peer stores)."""

        self.transport.close()

    def __enter__(self) -> "SimulatedNetwork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
