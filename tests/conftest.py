"""Shared fixtures: small networks, specs, and deterministic configs."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.common.config import (
    CRDTConfig,
    NetworkConfig,
    OrdererConfig,
    TopologyConfig,
)
from repro.core.network import crdt_network, vanilla_network
from repro.workload.iot import IoTChaincode

#: A deeper budget for the properties that set no ``max_examples`` of their
#: own, such as the fold-vs-tree equivalence; tier-1 keeps hypothesis's
#: default.  ``python -m pytest tests/crdt_json/test_fold_equivalence.py
#: --hypothesis-profile=deep`` (a CI step) runs it.
settings.register_profile("deep", max_examples=2000)


def small_config(
    max_message_count: int = 10,
    crdt_enabled: bool = False,
    num_orgs: int = 3,
    peers_per_org: int = 2,
    crdt: CRDTConfig | None = None,
) -> NetworkConfig:
    return NetworkConfig(
        topology=TopologyConfig(num_orgs=num_orgs, peers_per_org=peers_per_org),
        orderer=OrdererConfig(max_message_count=max_message_count),
        crdt=crdt if crdt is not None else CRDTConfig(),
        crdt_enabled=crdt_enabled,
    )


@pytest.fixture
def fabric_net():
    """A small synchronous vanilla Fabric network with the IoT chaincode."""

    network = vanilla_network(small_config(max_message_count=10))
    network.deploy(IoTChaincode())
    return network


@pytest.fixture
def crdt_net():
    """A small synchronous FabricCRDT network with the IoT chaincode."""

    network = crdt_network(small_config(max_message_count=10, crdt_enabled=True))
    network.deploy(IoTChaincode())
    return network


@pytest.fixture
def light_crdt_net():
    """Single-org single-peer FabricCRDT network (fast paths)."""

    network = crdt_network(
        small_config(max_message_count=10, crdt_enabled=True, num_orgs=1, peers_per_org=1)
    )
    network.deploy(IoTChaincode())
    return network
