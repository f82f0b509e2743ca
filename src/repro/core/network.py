"""Factories for FabricCRDT networks.

A FabricCRDT network is a Fabric network whose peers are
:class:`~repro.core.peer.CRDTPeer` — nothing else changes, which is the
paper's compatibility story made literal.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CRDTConfig, NetworkConfig, fabric_config, fabriccrdt_config
from ..fabric.chaincode import ChaincodeRegistry
from ..fabric.identity import Identity, MembershipRegistry
from ..fabric.localnet import LocalNetwork
from ..fabric.peer import Peer
from .peer import CRDTPeer


def crdt_peer_factory(crdt_config: Optional[CRDTConfig] = None):
    """A peer factory that builds :class:`CRDTPeer` with the given config.

    The factory forwards keyword arguments (notably ``store`` — the
    channel's chosen :class:`~repro.fabric.store.StateStore` backend) to
    the peer constructor.
    """

    def factory(
        identity: Identity,
        membership: MembershipRegistry,
        chaincodes: ChaincodeRegistry,
        **kwargs,
    ) -> CRDTPeer:
        return CRDTPeer(identity, membership, chaincodes, crdt_config, **kwargs)

    return factory


def peer_factory_for(config: NetworkConfig):
    """The peer type ``config`` asks for: CRDT-merging peers or vanilla ones."""

    return crdt_peer_factory(config.crdt) if config.crdt_enabled else Peer


def crdt_network(config: Optional[NetworkConfig] = None) -> LocalNetwork:
    """A synchronous FabricCRDT network (CRDT-merging peers)."""

    resolved = config if config is not None else fabriccrdt_config()
    return LocalNetwork(resolved, peer_factory=crdt_peer_factory(resolved.crdt))


def vanilla_network(config: Optional[NetworkConfig] = None) -> LocalNetwork:
    """A synchronous vanilla Fabric network (the baseline)."""

    resolved = config if config is not None else fabric_config()
    return LocalNetwork(resolved)
