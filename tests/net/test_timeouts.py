"""Failure injection: dead or frozen processes surface as typed errors.

The robustness contract of the socket transport is "typed failure, never
a hang, never at ``submit_async()``": a peer process that died
mid-engagement turns into an ``EndorsementFailure`` inside the normal
endorsement round (so ``commit_status()`` raises :class:`EndorseError`), a
dead orderer turns a broadcast into :class:`SubmitError` — also at
``commit_status()`` / ``result()`` — and a *frozen* (SIGSTOPped) node trips
the per-request deadline as :class:`RequestTimeout` instead of blocking the
caller forever.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.common.config import TopologyConfig, fabriccrdt_config
from repro.gateway.errors import EndorseError, SubmitError
from repro.gateway.gateway import Gateway
from repro.net import Cluster, SocketTransport
from repro.net.errors import TransportError
from repro.workload.iot import encode_call, reading_payload


def small_config():
    base = fabriccrdt_config(max_message_count=4)
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=2, peers_per_org=1),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=3600.0),
    )


@pytest.fixture()
def cluster():
    with Cluster.spawn(
        small_config(), chaincodes=["repro.workload.iot:IoTChaincode"]
    ) as cluster:
        yield cluster


def record_call(device: str, sequence: int) -> str:
    return encode_call(
        read_keys=[device],
        write_keys=[device],
        payload=reading_payload(device, temperature=20, sequence=sequence),
        crdt=True,
    )


def kill_processes(cluster, prefix: str) -> None:
    victims = [p for p in cluster._processes if p.name.startswith(prefix)]
    assert victims, f"no process named {prefix}*"
    for proc in victims:
        proc.kill()
    for proc in victims:
        proc.join(10.0)


def test_dead_peers_fail_the_transaction_instead_of_hanging(cluster):
    with SocketTransport.connect(cluster.profile, request_timeout_s=2.0) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        kill_processes(cluster, "repro-peer-")

        # The outcome is deferred: submit_async only writes the proposal.
        tx = contract.submit_async("record", record_call("dev-dead", 0))
        started = time.monotonic()
        with pytest.raises(EndorseError):
            tx.commit_status()
        assert time.monotonic() - started < 2.0 + 1.0  # the request deadline, not a hang
        assert any("transport:" in f.reason for f in tx.endorse_failure.failures)
        assert tx.done
        with pytest.raises(EndorseError):
            tx.result()


def test_evaluate_against_dead_anchor_raises_endorse_error(cluster):
    with SocketTransport.connect(cluster.profile, request_timeout_s=2.0) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        kill_processes(cluster, "repro-peer-")

        with pytest.raises(EndorseError):
            contract.evaluate("read_device", json.dumps({"key": "dev-x"}))


def test_dead_orderer_turns_broadcast_into_submit_error(cluster):
    with SocketTransport.connect(cluster.profile, request_timeout_s=2.0) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        # Seed state while everything is up, so endorsement itself succeeds
        # after the orderer is gone.
        contract.submit("populate", json.dumps({"keys": ["dev-orderer"]}))
        kill_processes(cluster, "repro-orderer")

        tx = contract.submit_async("record", record_call("dev-orderer", 0))
        started = time.monotonic()
        with pytest.raises(SubmitError):
            tx.commit_status()
        assert time.monotonic() - started < 2.0 + 1.0
        assert tx.submit_error is not None and tx.done
        with pytest.raises(SubmitError):
            tx.result()
        with pytest.raises(TransportError):
            transport.flush()


def test_frozen_peer_trips_the_request_deadline(cluster):
    with SocketTransport.connect(cluster.profile, request_timeout_s=0.5) as transport:
        contract = Gateway.connect(transport).get_contract("iot")
        victims = [p for p in cluster._processes if p.name.startswith("repro-peer-")]
        for proc in victims:
            os.kill(proc.pid, signal.SIGSTOP)
        try:
            # A stopped process accepts bytes but never answers: only the
            # per-request deadline stands between the caller and a hang.
            with pytest.raises(EndorseError) as excinfo:
                contract.evaluate("read_device", json.dumps({"key": "dev-frozen"}))
            reasons = [f.reason for f in excinfo.value.failure.failures]
            assert any("timed out" in reason for reason in reasons)
        finally:
            for proc in victims:
                os.kill(proc.pid, signal.SIGCONT)
