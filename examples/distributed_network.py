#!/usr/bin/env python3
"""Distributed deployment: the Gateway over real processes and sockets.

Everything in the other examples runs one Python process.  This one runs
the *same protocol* as a real deployment: ``Cluster.spawn`` starts an
orderer and four peers as separate OS processes (asyncio socket servers
speaking a length-prefixed JSON wire protocol), and ``SocketTransport``
gives the unchanged Gateway API a client seat at that network —

1. concurrent CRDT submissions endorse on remote peers, order over a
   real orderer socket, and merge at commit exactly as in-process;
2. every peer process reports its own ledger height and 32-byte state
   fingerprint, so convergence is checked against ground truth;
3. the client is a *light* one: commit statuses ride one header-chained
   status stream from the anchor peer, and a verified *mirror* ledger of a
   peer is opened (replayed from block 0) only by what reads it —
   ``gateway.block_events()`` / checkpoint / resume, ``channel.state_of``,
   ``channel.ledger_of(i)``, ``world_states_converged()``;
4. shutdown is deterministic: context managers close sockets and
   SIGTERM the node processes.

Run:  python examples/distributed_network.py
"""

import dataclasses
import json

from repro import Gateway, fabriccrdt_config
from repro.common.config import TopologyConfig
from repro.net import Cluster, SocketTransport
from repro.workload.iot import encode_call, reading_payload


def cluster_config():
    base = fabriccrdt_config(max_message_count=4)
    return dataclasses.replace(
        base, topology=TopologyConfig(num_orgs=2, peers_per_org=2)
    )


def record(device: str, sequence: int, temperature: int) -> str:
    return encode_call(
        read_keys=[device],
        write_keys=[device],
        payload=reading_payload(device, temperature=temperature, sequence=sequence),
        crdt=True,
    )


def main() -> None:
    config = cluster_config()
    print("--- spawning the cluster (1 orderer + 4 peers, each its own process) ---")
    with Cluster.spawn(
        config, chaincodes=["repro.workload.iot:IoTChaincode"]
    ) as cluster:
        for name in cluster.health_check():
            print(f"  {name:<12} answered ping")

        with SocketTransport.connect(cluster.profile) as transport:
            gateway = Gateway.connect(transport)
            contract = gateway.get_contract("iot")
            stream = gateway.block_events(start_block=0)

            print("--- concurrent CRDT writes to one key, across processes ---")
            contract.submit("populate", json.dumps({"keys": ["sensor-1"]}))
            submitted = [
                contract.submit_async("record", record("sensor-1", i, 20 + i))
                for i in range(4)
            ]
            for tx in submitted:
                status = tx.commit_status()
                print(f"  {tx.tx_id[:12]}… -> {status.code.name}")

            state = transport.channel.state_of("sensor-1")
            readings = sorted(r["temperature"] for r in state["tempReadings"])
            print(f"  merged tempReadings: {readings} (no MVCC casualties)")

            print("--- ground truth from the peer processes themselves ---")
            transport.wait_for_height(transport.channel.ledger_of(0).height)
            for index in range(len(cluster.profile.peers)):
                info = transport.ledger_info(index)
                print(
                    f"  {info['peer']:<12} height {info['height']}  "
                    f"fingerprint {info['fingerprint'][:16]}…"
                )
            # block_events() opened the anchor's mirror; nothing read the others yet.
            assert transport.deliver_streams() == {"Org1.peer0": "full"}
            assert transport.channel.world_states_converged()  # opens the other three
            assert len(transport.deliver_streams()) == len(cluster.profile.peers)
            print("  client-side mirrors converged with all peer processes")

            print("--- block events, streamed over deliver sockets ---")
            transport.pump()
            for event in stream:
                kinds = [
                    tx.proposal.function for tx in event.committed.block.transactions
                ]
                print(f"  block {event.block_number}: {kinds}")
            stream.close()
    print("--- cluster terminated (SIGTERM, bounded join) ---")


if __name__ == "__main__":
    main()
