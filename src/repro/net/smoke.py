"""Fingerprint-parity smoke: the distributed runtime vs the in-process one.

The distributed runtime's correctness argument is end-to-end: run the *same
seeded workload* once on an in-process :class:`~repro.fabric.localnet.
LocalNetwork` and once against a real multi-process :class:`~repro.net.
cluster.Cluster` over the socket transport, then compare per-peer state
fingerprints.  If every remote peer's fingerprint equals every local
peer's, the sockets, the wire codec, the process supervision, and the
cross-process identity scheme all preserved the protocol bit-for-bit —
including the CRDT merge, whose output depends on exactly which
transactions share a block.

Determinism requires the two runs to cut identical blocks:

* **Identical envelopes.**  Enrollment secrets are a pure function of
  identity names, transaction IDs a pure function of (channel, chaincode,
  call, creator, nonce) — so constructing the same clients and submitting
  the same calls in the same order yields byte-identical envelopes in both
  runs.
* **Identical block boundaries.**  The in-process run cuts a block
  inline on every ``max_message_count``-th ordered transaction.  The
  socket run reproduces that boundary by submitting in *waves* of
  ``max_message_count`` with a height barrier between waves (every peer
  must commit the cut block before the next wave endorses), and disables
  the wall-clock batch timeout in both runs so no timer can cut early.
  Byte-triggered cuts land identically by the first bullet.

``python -m repro.bench smoke --transport socket`` runs this and exits
non-zero on any divergence.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from ..common.config import NetworkConfig, TopologyConfig, fabric_config, fabriccrdt_config
from ..fabric.localnet import LocalNetwork
from ..workload.generator import generate_plan, keys_to_populate
from ..workload.iot import IOT_CHAINCODE_NAME, IoTChaincode
from ..workload.runner import POPULATE_CHUNK
from ..workload.spec import WorkloadSpec
from .cluster import Cluster
from .transport import SocketTransport

#: Import spec of the workload chaincode every node instantiates.
IOT_CHAINCODE_SPEC = "repro.workload.iot:IoTChaincode"

#: A batch timeout no smoke run can reach: only count/byte cuts fire.
NO_TIMEOUT_S = 3600.0


@dataclass(frozen=True)
class Call:
    """One submission: which client sends which invocation."""

    client: int
    function: str
    args: tuple


@dataclass
class RunResult:
    """What one run of the workload committed.

    ``telemetry`` (socket runs with telemetry enabled only) maps node name
    -> ``metrics_result`` payload fetched over the wire — each node's
    registry snapshot plus its lifecycle spans.
    """

    heights: dict  # peer name -> chain height
    fingerprints: dict  # peer name -> state fingerprint (hex)
    statuses: dict  # tx_id -> validation code name
    telemetry: Optional[dict] = None


@dataclass
class ParityReport:
    """The comparison between the local and the distributed run."""

    backend: str
    transactions: int
    local: RunResult
    remote: RunResult
    problems: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.problems

    def format(self) -> str:
        lines = [
            f"fingerprint parity [{self.backend} backend, "
            f"{self.transactions} txs, {len(self.remote.heights)} remote peers]"
        ]
        reference = next(iter(self.local.fingerprints.values()))
        lines.append(f"  local : height {max(self.local.heights.values())}, "
                     f"fingerprint {reference[:16]}…")
        for name in sorted(self.remote.fingerprints):
            mark = "==" if self.remote.fingerprints[name] == reference else "!="
            lines.append(
                f"  remote: {name:<12} height {self.remote.heights[name]}, "
                f"fingerprint {self.remote.fingerprints[name][:16]}… {mark} local"
            )
        if self.passed:
            lines.append(
                f"  PARITY: all {len(self.remote.heights)} process peers match the "
                f"in-process run ({len(self.local.statuses)} statuses identical)"
            )
        else:
            for problem in self.problems:
                lines.append(f"  DIVERGENCE: {problem}")
        return "\n".join(lines)


def parity_config(
    state_backend: str = "memory",
    crdt_enabled: bool = True,
    max_message_count: int = 20,
    num_orgs: int = 2,
    peers_per_org: int = 1,
) -> NetworkConfig:
    """The smoke network: small topology, batch timeout disabled."""

    base = (
        fabriccrdt_config(max_message_count=max_message_count, state_backend=state_backend)
        if crdt_enabled
        else fabric_config(max_message_count=max_message_count, state_backend=state_backend)
    )
    return dataclasses.replace(
        base,
        topology=TopologyConfig(num_orgs=num_orgs, peers_per_org=peers_per_org),
        orderer=dataclasses.replace(base.orderer, batch_timeout_s=NO_TIMEOUT_S),
    )


def build_calls(spec: WorkloadSpec) -> list[Call]:
    """The full submission sequence: populate chunks, then the plan."""

    plan = generate_plan(spec)
    keys = keys_to_populate(spec, plan)
    calls = [
        Call(0, "populate", (json.dumps({"keys": keys[i : i + POPULATE_CHUNK]}),))
        for i in range(0, len(keys), POPULATE_CHUNK)
    ]
    calls.extend(Call(tx.client, tx.function, (tx.call_argument(),)) for tx in plan)
    return calls


def run_local(config: NetworkConfig, calls: list[Call]) -> RunResult:
    """The reference run: the whole workload on an in-process network."""

    with LocalNetwork(config) as network:
        network.deploy(IoTChaincode())
        submitted = [
            network.transport.submit_async(
                IOT_CHAINCODE_NAME, call.function, call.args, client_index=call.client
            )
            for call in calls
        ]
        network.flush()
        statuses = {tx.tx_id: tx.commit_status().code.name for tx in submitted}
        return RunResult(
            heights={peer.name: peer.ledger.height for peer in network.peers},
            fingerprints={
                peer.name: peer.ledger.state.fingerprint().hex()
                for peer in network.peers
            },
            statuses=statuses,
        )


def run_socket(
    config: NetworkConfig, calls: list[Call], telemetry: bool = False
) -> RunResult:
    """The same workload against real processes, wave-synchronized.

    ``telemetry`` spawns the cluster with ``telemetry_enabled`` and gives
    the client transport its own Telemetry; every node's registry + spans
    are fetched over the wire (the ``metrics`` request) before teardown
    and returned on the result.  Fingerprint parity must hold either way —
    that equality is the proof the instrumentation is out-of-band.
    """

    max_count = config.orderer.max_message_count
    client_telemetry = None
    if telemetry:
        from ..telemetry import Telemetry

        config = dataclasses.replace(config, telemetry_enabled=True)
        client_telemetry = Telemetry()
    with Cluster.spawn(config, chaincodes=[IOT_CHAINCODE_SPEC]) as cluster:
        with SocketTransport.connect(
            cluster.profile, telemetry=client_telemetry
        ) as transport:
            submitted = []
            ordered = 0
            expected_height = 0
            for call in calls:
                tx = transport.submit_async(
                    IOT_CHAINCODE_NAME, call.function, call.args,
                    client_index=call.client,
                )
                submitted.append(tx)
                if tx.ordered:
                    ordered += 1
                    if ordered % max_count == 0:
                        # The wave's last broadcast cut a block; every peer
                        # must commit it before the next wave endorses, or
                        # endorsement read-versions would diverge from the
                        # sequential in-process run.
                        expected_height += 1
                        transport.wait_for_height(expected_height)
            if ordered % max_count:
                transport.flush()
                expected_height += 1
                transport.wait_for_height(expected_height)
            statuses = {tx.tx_id: tx.commit_status().code.name for tx in submitted}
            infos = [
                transport.ledger_info(index)
                for index in range(len(cluster.profile.peers))
            ]
            node_telemetry = (
                transport.cluster_metrics(include_spans=True) if telemetry else None
            )
            return RunResult(
                heights={info["peer"]: info["height"] for info in infos},
                fingerprints={info["peer"]: info["fingerprint"] for info in infos},
                statuses=statuses,
                telemetry=node_telemetry,
            )


def compare(backend: str, transactions: int, local: RunResult, remote: RunResult) -> ParityReport:
    report = ParityReport(backend, transactions, local, remote)
    reference = next(iter(local.fingerprints.values()))
    for name, fingerprint in local.fingerprints.items():
        if fingerprint != reference:
            report.problems.append(f"local peers diverged at {name}")
    local_height = max(local.heights.values())
    for name in remote.fingerprints:
        if remote.heights[name] != local_height:
            report.problems.append(
                f"{name} height {remote.heights[name]} != local {local_height}"
            )
        if remote.fingerprints[name] != reference:
            report.problems.append(
                f"{name} fingerprint {remote.fingerprints[name][:16]}… != "
                f"local {reference[:16]}…"
            )
    if remote.statuses != local.statuses:
        missing = set(local.statuses) ^ set(remote.statuses)
        changed = {
            tx_id
            for tx_id in set(local.statuses) & set(remote.statuses)
            if local.statuses[tx_id] != remote.statuses[tx_id]
        }
        report.problems.append(
            f"statuses differ: {len(missing)} missing/extra, {len(changed)} changed"
        )
    return report


def run_parity_smoke(
    state_backend: str = "memory",
    transactions: int = 60,
    seed: int = 7,
    crdt_enabled: bool = True,
    max_message_count: int = 20,
    spec: Optional[WorkloadSpec] = None,
    telemetry: bool = False,
) -> ParityReport:
    """Run the workload both ways and compare committed state.

    ``telemetry`` instruments the *socket* run only (cluster processes +
    client); the local reference run stays bare.  Parity must still hold —
    the report's remote result then carries per-node registries and spans.
    """

    config = parity_config(
        state_backend=state_backend,
        crdt_enabled=crdt_enabled,
        max_message_count=max_message_count,
    )
    resolved_spec = spec if spec is not None else WorkloadSpec(
        total_transactions=transactions,
        conflict_pct=100.0,
        use_crdt=crdt_enabled,
        seed=seed,
    )
    calls = build_calls(resolved_spec)
    local = run_local(config, calls)
    remote = run_socket(config, calls, telemetry=telemetry)
    return compare(state_backend, resolved_spec.total_transactions, local, remote)
