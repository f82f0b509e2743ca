"""A socket peer refuses a ``state_dir`` a previous cluster already used.

A spawned peer builds its state store through the channel's own routine
(:func:`repro.gateway.channel.open_peer_store`), so the refusal the
in-process networks have — a fresh ledger must not be paired with a world
state left behind by an earlier run — holds over sockets too: the second
cluster on the same directory fails at start-up, with a typed error that
names the database, instead of coming up healthy and serving reads from
state its empty ledger never committed.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.gateway.gateway import Gateway
from repro.net import Cluster, SocketTransport
from repro.net.errors import ClusterStartupError

CHAINCODES = ["repro.workload.iot:IoTChaincode"]


def sqlite_config(state_dir: str):
    base = fabriccrdt_config(
        max_message_count=4, state_backend="sqlite", state_dir=state_dir
    )
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=3600.0),
    )


def test_second_cluster_on_a_used_state_dir_fails_fast(tmp_path):
    config = sqlite_config(str(tmp_path))
    with Cluster.spawn(config, chaincodes=CHAINCODES) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            contract = Gateway.connect(transport).get_contract("iot")
            contract.submit("populate", json.dumps({"keys": ["dev-a"]}))
            transport.wait_for_height(1)
    databases = sorted(path.name for path in tmp_path.glob("*.sqlite"))
    assert databases == ["Org1.peer0.sqlite", "Org2.peer0.sqlite"]

    started = time.monotonic()
    with pytest.raises(ClusterStartupError, match="previous run") as excinfo:
        Cluster.spawn(config, chaincodes=CHAINCODES)
    assert time.monotonic() - started < 20.0  # not the 30 s start-up deadline
    assert "Org1.peer0.sqlite" in str(excinfo.value)
    assert "peer Org1.peer0 failed to start" in str(excinfo.value)

