"""The four workloads: what they build, submit, check and instrument.

Every workload drives the program through the documented Gateway surface
only (``contract.submit_async`` -> ``commit_status()``, ``evaluate``, the
``Benchmark``/``Round`` runner), in one closed loop on one thread.  The
end-to-end paths import nothing below ``repro``'s public packages; the
*traced* run additionally reaches into instances to wrap their public
methods, resolving each by name so a vanished name costs one probe, not
the run (see :mod:`tracing`).

Inputs are a pure function of ``--seed``.  No workload contains an
operation that fails: conflicts the vanilla-Fabric workloads would reject
are kept out of the plan, and the oracle checks that the harness's own
MVCC replay of the plan agrees.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
from collections import deque
from dataclasses import replace
from time import perf_counter, process_time
from types import SimpleNamespace
from typing import Any, Optional

from repro import (
    ContractBase,
    Gateway,
    GatewayError,
    crdt_network,
    fabric_config,
    fabriccrdt_config,
    query,
    transaction,
    vanilla_network,
)
from repro.bench import calibrated_cost_model
from repro.common.config import OrdererConfig, TopologyConfig
from repro.net import Cluster, SocketTransport
from repro.workload import (
    Benchmark,
    FixedRate,
    IoTChaincode,
    OpenLoopClient,
    Round,
    encode_call,
    nested_payload,
    reading_payload,
    table1_spec,
)

import probes
from measure import (
    Window,
    UnitClock,
    node_cpu_seconds,
    node_pids,
    peak_rss_mb,
    percentile,
)
from tracing import Tracer, guarded

#: The orderer's batch timeout is parked far away so only count cuts fire
#: and block boundaries are the same on every run.
NO_TIMEOUT_S = 3600.0

#: A traced window switches its wrappers every this many units, so traced
#: and untraced stretches alternate on the same network (see Tracer.enabled).
TOGGLE_UNITS = 8

#: Measured waves whose blocks the traced run keeps for the replay probes and
#: over which it takes exact counts: one whole wrappers-on stretch at a fixed
#: place, so two runs replay identical shapes and their counts repeat.  A
#: window too short to reach it falls back to its last blocks.
CAPTURE_FIRST_WAVE = 8 * TOGGLE_UNITS
CAPTURE_WAVES = TOGGLE_UNITS

IOT = "iot"

#: One call of a wave: (gateway contract, function, argument, evaluate?).
Call = tuple[Any, str, tuple[str, ...], bool]


def _leaf_strings(value: Any) -> set[str]:
    """Every string at the leaves of a JSON value (order-free comparison)."""

    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_leaf_strings, value))
    return set()


class Workload:
    """Set-up, one measured window, the oracle, and the traced run's probes."""

    name = ""

    def __init__(self, seed: int, seconds: float, scale: float, traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.traced = traced
        self.pids: list[int] = []

    def scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> list[str]:
        """Violations of the correctness oracle (empty = correct)."""

        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        """Place the traced run's wrappers (after set-up, before the window)."""

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------------
# Wave workloads: one block's worth of submit_async, then commit_status on each
# ---------------------------------------------------------------------------------


class WaveWorkload(Workload):
    """A closed loop of waves over a network the subclass builds."""

    block_size = 25
    warmup_waves = 0
    #: Plans are generated for at most this rate; a program faster than this
    #: simply exhausts the plan and ends its window early.
    plan_rate_cap_tps = 1000.0
    #: Measured transactions after which peak RSS is read — a fixed ledger
    #: size, so a faster program is not charged for the extra blocks it
    #: retains within the same seconds.
    rss_checkpoint_txs = 1000

    def __init__(self, seed: int, seconds: float, scale: float, traced: bool) -> None:
        super().__init__(seed, seconds, scale, traced)
        self.rng = random.Random(seed)
        self.waves: list[list[Call]] = []
        self.waves_done = 0
        self.setup_blocks = 0
        self.captured: deque = deque(maxlen=CAPTURE_WAVES)
        self._capture_stream = None
        self._measured_from = 0
        self._books_begin: Optional[dict] = None
        self._books_end: Optional[dict] = None

    # -- subclass surface ---------------------------------------------------------

    def build(self) -> None:
        """Build the network, deploy, populate; set ``self.gateway``."""

        raise NotImplementedError

    def make_wave(self, index: int) -> list[Call]:
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------------------

    def setup(self) -> None:
        self.build()
        warmup = self.scaled(self.warmup_waves)
        planned = warmup + 1 + int(self.seconds * self.plan_rate_cap_tps / self.block_size)
        self.waves = [self.make_wave(index) for index in range(planned)]
        self._run_waves(Window(), warmup, math.inf, None)
        self._measured_from = self.waves_done
        gc.collect()

    # -- the loop ---------------------------------------------------------------------

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        window = Window()
        self._run_waves(window, len(self.waves), perf_counter() + seconds, tracer)
        if not window.rss_mb:
            window.rss_mb = peak_rss_mb(self.pids)
        return window

    def _run_waves(
        self, window: Window, limit: int, deadline: float, tracer: Optional[Tracer]
    ) -> None:
        checkpoint = self.scaled(self.rss_checkpoint_txs)
        attempted = 0
        clock = UnitClock(self.pids)
        for _ in range(limit):
            if self.waves_done >= len(self.waves) or perf_counter() >= deadline:
                break
            wave = self.waves[self.waves_done]
            spans = False
            if tracer is not None:
                measured_wave = self.waves_done - self._measured_from
                tracer.wave = measured_wave
                tracer.enabled = spans = (measured_wave // TOGGLE_UNITS) % 2 == 0
                window.traced.append(spans)
                if measured_wave == CAPTURE_FIRST_WAVE:
                    self._books_begin = tracer.books()
                elif measured_wave == CAPTURE_FIRST_WAVE + CAPTURE_WAVES:
                    self._books_end = tracer.books()
            if spans:
                root = tracer.begin("harness.wave")
            starts: list[float] = []
            txs = []
            for contract, function, args, evaluate in wave:
                if evaluate:
                    contract.evaluate(function, *args)
                    continue
                starts.append(perf_counter())
                txs.append(contract.submit_async(function, *args))
            if spans:
                wait = tracer.begin("gateway.commit_status_wait")
            valid = 0
            for started, tx in zip(starts, txs):
                try:
                    ok = tx.commit_status().succeeded
                except GatewayError:
                    ok = False  # endorsement failure or commit timeout
                window.latencies_s.append(perf_counter() - started)
                window.valid.append(ok)
                valid += ok
            if spans:
                tracer.end(wait)
                tracer.end(root)
            window.units.append(clock.lap(len(txs), valid))
            self.waves_done += 1
            attempted += len(txs)
            if not window.rss_mb and attempted >= checkpoint:
                window.rss_mb = peak_rss_mb(self.pids)

    # -- oracle ---------------------------------------------------------------------

    def expected_height(self) -> int:
        return self.setup_blocks + self.waves_done

    def check_all_valid(self, window: Window) -> list[str]:
        failed = len(window.valid) - sum(window.valid)
        return [f"{failed} transactions did not commit VALID"] if failed else []

    # -- traced run -------------------------------------------------------------------

    def capture_blocks(self) -> None:
        """Keep the committed blocks of the capture waves (public stream)."""

        # Wave j (counting warm-up) commits as block setup_blocks + j.  Until
        # the fixed range is over the deque holds the latest blocks, so a
        # window that ends early still has its last ones to replay.
        range_end = (
            self.setup_blocks + self._measured_from + CAPTURE_FIRST_WAVE + CAPTURE_WAVES
        )
        captured = self.captured

        def keep(event) -> None:
            if event.block_number < range_end:
                captured.append(event.committed)

        self._capture_stream = self.gateway.block_events()
        self._capture_stream.on_event(keep)

    def exact_range(self, tracer: Tracer, traced: Window) -> tuple[dict, dict, int]:
        """Books at the capture range's edges and its transaction count.

        Counts taken over this fixed range of waves repeat exactly between
        runs; a window that never reached its end uses every traced wave.
        """

        if self._books_end is not None:
            return self._books_begin, self._books_end, CAPTURE_WAVES * self.block_size
        return {"calls": {}, "counts": {}}, tracer.books(), traced.attempted

    def close(self) -> None:
        if self._capture_stream is not None:
            self._capture_stream.close()


def _delta(begin: dict, end: dict, kind: str, name: str) -> float:
    return end[kind].get(name, 0) - begin[kind].get(name, 0)


def _per(total: float, count: float, factor: float) -> Optional[float]:
    """``factor * total / count``; ``None`` when nothing was counted."""

    return factor * total / count if count else None


def _mean(tracer: Tracer, name: str, factor: float) -> Optional[float]:
    return _per(tracer.total_s(name), tracer.calls(name), factor)


# -- wrappers, by layer -----------------------------------------------------------------


def _gateway_wrappers(tracer: Tracer, contracts: list) -> None:
    for contract in contracts:
        tracer.wrap(contract, "submit_async", "gateway.submit_async")
        tracer.wrap(contract, "evaluate", "gateway.evaluate")


def _ledger_wrappers(tracer: Tracer, node: Any) -> None:
    """Ledger, state store and event hub of a peer (or a client-side mirror)."""

    ledger = getattr(node, "ledger", None)
    store = getattr(ledger, "state", None)
    events = getattr(node, "events", None)
    if ledger is None or store is None or events is None:
        tracer.missing["fabric.ledger"] = f"{type(node).__name__} lost ledger/state/events"
        return
    tracer.wrap(ledger, "append_block", "fabric.ledger.append_block")
    tracer.wrap(store, "apply_batch", "fabric.store.apply_batch")
    for method in ("get", "get_version", "get_value"):
        tracer.wrap_leaf(store, method, "fabric.store.get")
    tracer.wrap(events, "publish", "events.publish")


def _peer_wrappers(tracer: Tracer, peers: list) -> None:
    """Spans on every peer's endorse / validate / apply, ledger and store."""

    for peer in peers:
        tracer.wrap(peer, "endorse", "fabric.peer.endorse")
        tracer.wrap(peer, "prepare_block", "fabric.peer.prepare_block")
        tracer.wrap(peer, "apply_prepared", "fabric.peer.apply_prepared")
        _ledger_wrappers(tracer, peer)


def _chaincode_wrappers(tracer: Tracer, registry: Any, names: tuple[str, ...]) -> None:
    for name in names:
        chaincode = guarded(tracer, "contract.invoke", lambda: registry.get(name))
        if chaincode is not None:
            tracer.wrap(chaincode, "invoke", "contract.invoke")


def _orderer_wrappers(tracer: Tracer, orderer: Any) -> None:
    if orderer is None:
        tracer.missing["fabric.orderer.submit_us_per_tx"] = "the network's orderer is gone"
    else:
        tracer.wrap(orderer, "submit", "fabric.orderer.submit")


# -- reading the tracer, by layer -----------------------------------------------------------


def _runtime_layers(tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
    latencies = sorted(window.latencies_s)
    return {
        "gateway.commit_latency_p90_ms": 1e3 * percentile(latencies, 0.90),
        "gateway.commit_latency_p99_ms": 1e3 * percentile(latencies, 0.99),
        "runtime.gc_pause_share": tracer.gc_pause_s / window.only(True).wall_s,
        "runtime.gc_gen2_collections": float(tracer.gc_gen2),
    }


def _ledger_layers(tracer: Tracer) -> dict[str, Optional[float]]:
    return {
        "fabric.ledger.append_block_us_per_block": _mean(tracer, "fabric.ledger.append_block", 1e6),
        "events.publish_us_per_block": _mean(tracer, "events.publish", 1e6),
        "fabric.store.apply_batch_ms_per_block": _mean(tracer, "fabric.store.apply_batch", 1e3),
        "fabric.store.get_us_per_read": _mean(tracer, "fabric.store.get", 1e6),
    }


def _peer_layers(tracer: Tracer, traced: Window) -> dict[str, Optional[float]]:
    txs = traced.attempted
    commit_s = tracer.total_s("fabric.peer.prepare_block") + tracer.total_s(
        "fabric.peer.apply_prepared"
    )
    return {
        "contract.invoke_us_per_tx": _per(tracer.total_s("contract.invoke"), txs, 1e6),
        "fabric.peer.endorse_us_per_tx": _per(tracer.total_s("fabric.peer.endorse"), txs, 1e6),
        "fabric.peer.prepare_block_ms_per_block": _mean(tracer, "fabric.peer.prepare_block", 1e3),
        "fabric.peer.apply_prepared_ms_per_block": _mean(tracer, "fabric.peer.apply_prepared", 1e3),
        "fabric.peer.commit_share": commit_s / traced.wall_s,
        **_ledger_layers(tracer),
    }


def _wave_layers(
    workload: WaveWorkload, tracer: Tracer, window: Window
) -> dict[str, Optional[float]]:
    """What every wave workload reads off the tracer and its captured blocks."""

    traced = window.only(True)
    begin, end, exact_txs = workload.exact_range(tracer, traced)
    out = {
        "gateway.submit_async_us_per_tx": _per(
            tracer.total_s("gateway.submit_async"), traced.attempted, 1e6
        ),
        "gateway.commit_status_wait_ms_per_wave": _mean(tracer, "gateway.commit_status_wait", 1e3),
        "fabric.store.reads_per_tx": _per(
            _delta(begin, end, "calls", "fabric.store.get"), exact_txs, 1.0
        ),
        **_runtime_layers(tracer, window),
    }
    blocks = list(workload.captured)
    if blocks:
        txs = sum(len(committed.block) for committed in blocks)
        out["fabric.orderer.txs_per_block"] = txs / len(blocks)
        out["fabric.peer.mvcc_rejected_share"] = (
            sum(committed.metadata.invalid_count for committed in blocks) / txs
        )
        # What one peer's store takes in per transaction.
        out["fabric.store.bytes_written_per_tx"] = (
            sum(len(w.value) for committed in blocks for _, w in committed.writes_applied()) / txs
        )
        out.update(probes.serialization_layer(tracer, blocks))
    return out


class LocalWaveWorkload(WaveWorkload):
    """Wave workloads on the in-process ``LocalNetwork`` (peers run serially)."""

    def instrument(self, tracer: Tracer) -> None:
        network = self.network
        _gateway_wrappers(tracer, self.contracts)
        _chaincode_wrappers(tracer, network.chaincodes, self.chaincodes)
        _peer_wrappers(tracer, network.peers)
        _orderer_wrappers(tracer, getattr(network, "orderer", None))
        self.capture_blocks()

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
        traced = window.only(True)
        return {
            **_wave_layers(self, tracer, window),
            **_peer_layers(tracer, traced),
            "gateway.evaluate_us_per_call": _mean(tracer, "gateway.evaluate", 1e6),
            "fabric.orderer.submit_us_per_tx": _per(
                tracer.total_s("fabric.orderer.submit"), traced.attempted, 1e6
            ),
        }

    def check_converged(self) -> list[str]:
        problems = []
        network = self.network
        if not network.world_states_converged():
            problems.append("peer world states diverged")
        heights = {network.ledger_of(i).height for i in range(len(network.peers))}
        if heights != {self.expected_height()}:
            problems.append(f"ledger heights {sorted(heights)} != {self.expected_height()}")
        return problems

    def close(self) -> None:
        super().close()
        self.network.close()


VOTE_OPTIONS = ("apple", "birch")
#: 10 votes a block: every voter has voted after 25 waves, inside the 30
#: warm-up waves, so the measured window runs on full-grown counters and its
#: segments are comparable with each other.
VOTERS = 250


class Ballot(ContractBase):
    """Bench-local G-Counter voting contract (README's ``ctx.crdt`` idiom)."""

    name = "perfballot"

    @transaction
    def vote(self, ctx, option: str, voter: str):
        return ctx.crdt.counter(f"vote/{option}").incr(actor=voter)

    @query
    def tally(self, ctx):
        return {
            option: ctx.crdt.counter(f"vote/{option}").value() for option in VOTE_OPTIONS
        }


class LocalCrdtMixed(LocalWaveWorkload):
    """JSON-CRDT records and G-Counter votes merged by six in-process peers."""

    name = "local_crdt_mixed"
    block_size = 25
    warmup_waves = 30
    plan_rate_cap_tps = 900.0
    rss_checkpoint_txs = 1500
    chaincodes = (IOT, Ballot.name)
    document = "doc-hot"
    #: Positions of the 10 votes inside each 25-transaction block.
    vote_slots = frozenset(slot for slot in range(25) if slot % 5 in (1, 3))

    def build(self) -> None:
        self.network = crdt_network(fabriccrdt_config(self.block_size))
        self.network.deploy(IoTChaincode())
        self.network.deploy(Ballot())
        self.gateway = Gateway.connect(self.network)
        self.iot = self.gateway.get_contract(IOT)
        self.ballot = self.gateway.get_contract(Ballot.name)
        self.contracts = [self.iot, self.ballot]
        self.iot.submit("populate", json.dumps({"keys": [self.document]}))
        self.setup_blocks = 1
        self.votes_planned: list[list[str]] = []
        self.records_planned: list[set[str]] = []

    def make_wave(self, index: int) -> list[Call]:
        wave: list[Call] = []
        votes: list[str] = []
        leaves: set[str] = set()
        for slot in range(self.block_size):
            if slot in self.vote_slots:
                vote_number = index * len(self.vote_slots) + len(votes)
                option = self.rng.choice(VOTE_OPTIONS)
                votes.append(option)
                # Distinct voters inside a block: a G-Counter merges per
                # actor by maximum, so one actor twice in a block is one vote.
                wave.append(
                    (self.ballot, "vote", (option, f"voter-{vote_number % VOTERS}"), False)
                )
            else:
                sequence = index * self.block_size + slot
                temperature = self.rng.randint(10, 35)
                leaves.add(f"{temperature}#{sequence}")
                call = encode_call(
                    [self.document], [self.document],
                    nested_payload(3, 3, temperature, sequence), crdt=True,
                )
                wave.append((self.iot, "record", (call,), False))
        self.votes_planned.append(votes)
        self.records_planned.append(leaves)
        return wave

    def check(self, window: Window) -> list[str]:
        problems = self.check_all_valid(window) + self.check_converged()
        expected = {option: 0 for option in VOTE_OPTIONS}
        for votes in self.votes_planned[: self.waves_done]:
            for option in votes:
                expected[option] += 1
        tally = self.ballot.evaluate("tally")
        if tally != expected:
            problems.append(f"tally {tally} != votes submitted {expected}")
        merged = self.iot.evaluate("read_device", json.dumps({"key": self.document}))
        if _leaf_strings(merged) != self.records_planned[self.waves_done - 1]:
            problems.append("hot document is not the merge of the last block's records")
        return problems

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
        out = super().layer_metrics(tracer, window)
        blocks = list(self.captured)
        if blocks:
            out.update(
                probes.merge_layers(
                    tracer, blocks, self.network.world_state(), self.network.config.crdt
                )
            )
        return out


class LocalFabricMixedSqlite(LocalWaveWorkload):
    """Vanilla Fabric: MVCC validation, reads beside writes, the SQL store."""

    name = "local_fabric_mixed_sqlite"
    block_size = 100
    warmup_waves = 30
    plan_rate_cap_tps = 2800.0
    rss_checkpoint_txs = 8000
    chaincodes = (IOT,)
    populated_keys = 2000
    populate_chunk = 500
    reads_per_tx = 3
    evaluate_every = 4

    def build(self) -> None:
        self.network = vanilla_network(
            fabric_config(self.block_size, state_backend="sqlite")  # state_dir=None: in memory
        )
        self.network.deploy(IoTChaincode())
        self.gateway = Gateway.connect(self.network)
        self.iot = self.gateway.get_contract(IOT)
        self.contracts = [self.iot]
        self.keys = [f"dev-{i:05d}" for i in range(self.scaled(self.populated_keys) + 400)]
        self.setup_blocks = 0
        for start in range(0, len(self.keys), self.populate_chunk):
            chunk = self.keys[start : start + self.populate_chunk]
            self.iot.submit("populate", json.dumps({"keys": chunk}))
            self.setup_blocks += 1
        self.plan_keys: list[list[tuple[str, ...]]] = []

    def make_wave(self, index: int) -> list[Call]:
        wave: list[Call] = []
        written: set[str] = set()
        planned: list[tuple[str, ...]] = []
        for slot in range(self.block_size):
            # Conflict-free by construction: a key an earlier transaction of
            # this block writes is never read, so MVCC validates every read
            # and rejects nothing (no workload may contain failing operations).
            while True:
                keys = tuple(self.rng.sample(self.keys, self.reads_per_tx))
                if written.isdisjoint(keys):
                    break
            written.add(keys[0])
            planned.append(keys)
            sequence = index * self.block_size + slot
            call = encode_call(
                list(keys), [keys[0]],
                reading_payload(keys[0], self.rng.randint(10, 35), sequence), crdt=False,
            )
            wave.append((self.iot, "record", (call,), False))
            if slot % self.evaluate_every == self.evaluate_every - 1:
                key = self.rng.choice(self.keys)
                wave.append((self.iot, "read_device", (json.dumps({"key": key}),), True))
        self.plan_keys.append(planned)
        return wave

    def mvcc_replay(self) -> bytearray:
        """Which measured transactions MVCC must accept, from the plan alone.

        A wave is one block endorsed against the pre-block state, so a
        transaction is rejected exactly when it read a key that an earlier
        *valid* transaction of the same block wrote.
        """

        verdicts = bytearray()
        for planned in self.plan_keys[self._measured_from : self.waves_done]:
            written: set[str] = set()
            for keys in planned:
                valid = written.isdisjoint(keys)
                verdicts.append(valid)
                if valid:
                    written.add(keys[0])
        return verdicts

    def check(self, window: Window) -> list[str]:
        problems = self.check_all_valid(window) + self.check_converged()
        if self.mvcc_replay() != window.valid:
            problems.append("committed statuses differ from the MVCC replay of the plan")
        last_writer: dict[str, int] = {}
        for wave, planned in enumerate(self.plan_keys[: self.waves_done]):
            for slot, keys in enumerate(planned):
                last_writer[keys[0]] = wave * self.block_size + slot
        key, sequence = next(reversed(last_writer.items()))
        stored = self.iot.evaluate("read_device", json.dumps({"key": key}))
        if stored.get("deviceID") != key or str(sequence) not in _leaf_strings(stored):
            problems.append(f"state of {key} is not its last planned write")
        return problems


# ---------------------------------------------------------------------------------
# The socket cluster
# ---------------------------------------------------------------------------------


class SocketCrdtHot(WaveWorkload):
    """Paper Table 1 on real processes: one hot key, every write conflicting."""

    name = "socket_crdt_hot"
    block_size = 25
    warmup_waves = 40
    plan_rate_cap_tps = 1500.0
    rss_checkpoint_txs = 3000
    hot_key = "device-hot-0"

    def build(self) -> None:
        config = replace(
            fabriccrdt_config(self.block_size),
            topology=TopologyConfig(num_orgs=2, peers_per_org=1),
            orderer=OrdererConfig(
                max_message_count=self.block_size, batch_timeout_s=NO_TIMEOUT_S
            ),
            telemetry_enabled=self.traced,
        )
        telemetry = None
        if self.traced:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        started = perf_counter()
        self.cluster = Cluster.spawn(config, chaincodes=["repro.workload.iot:IoTChaincode"])
        self.transport = SocketTransport.connect(self.cluster.profile, telemetry=telemetry)
        self.spawn_s = perf_counter() - started
        self.telemetry = telemetry
        self.pids = node_pids()
        self.gateway = Gateway.connect(self.transport)
        self.iot = self.gateway.get_contract(IOT)
        self.iot.submit("populate", json.dumps({"keys": [self.hot_key]}))
        self.setup_blocks = 1
        self.last_wave_sequences: list[set[str]] = []

    def make_wave(self, index: int) -> list[Call]:
        wave: list[Call] = []
        sequences: set[str] = set()
        for slot in range(self.block_size):
            sequence = index * self.block_size + slot
            sequences.add(str(sequence))
            call = encode_call(
                [self.hot_key], [self.hot_key],
                reading_payload(self.hot_key, self.rng.randint(10, 35), sequence), crdt=True,
            )
            wave.append((self.iot, "record", (call,), False))
        self.last_wave_sequences.append(sequences)
        return wave

    def check(self, window: Window) -> list[str]:
        problems = self.check_all_valid(window)
        peers = len(self.cluster.profile.peers)
        self.transport.wait_for_height(self.expected_height())
        infos = [self.transport.ledger_info(i) for i in range(peers)]
        if {info["height"] for info in infos} != {self.expected_height()}:
            problems.append(
                f"peer heights {[info['height'] for info in infos]} != {self.expected_height()}"
            )
        if len({info["fingerprint"] for info in infos}) != 1:
            problems.append("peer state fingerprints differ")
        merged = self.iot.evaluate("read_device", json.dumps({"key": self.hot_key}))
        seen = {reading["ts"] for reading in merged.get("tempReadings", [])}
        if seen != self.last_wave_sequences[self.waves_done - 1]:
            problems.append("hot key is not the merge of the last block's readings")
        return problems

    # -- traced run -------------------------------------------------------------------

    def _client_counter(self, name: str) -> Any:
        """A codec counter of the client's own registry, or ``None``."""

        getter = getattr(getattr(self.telemetry, "metrics", None), "get", None)
        return getter(name) if callable(getter) else None

    def instrument(self, tracer: Tracer) -> None:
        _gateway_wrappers(tracer, [self.iot])
        frames = self._client_counter("repro_net_frames_total")
        if frames is None:
            tracer.missing["net.transport.requests_per_tx"] = "client frame counter is gone"
        else:
            # Frames sent *inside* submit_async only: whether the commit wait
            # sends a flush depends on timing, the submit path's round trips
            # do not.
            submit = self.iot.submit_async  # already the span wrapper

            def counted(*args, **kwargs):
                before = frames.value(direction="out", node="client")
                try:
                    return submit(*args, **kwargs)
                finally:
                    tracer.count(
                        "net.transport.requests",
                        frames.value(direction="out", node="client") - before,
                    )

            self.iot.submit_async = counted

        # Client.new_proposal returns, and Client.assemble starts, on either
        # side of the endorsement round trip: the client-observed endorse time.
        proposed = [0.0]

        def note_proposed(_args: tuple, _result: Any) -> None:
            proposed[0] = perf_counter()

        def note_assembling(_args: tuple, _result: Any) -> None:
            span = tracer.spans[-1]  # the assemble span that just closed
            tracer.count("net.transport.endorse_rtt_s", span[3] - proposed[0])
            tracer.count("net.transport.endorse_rounds")

        channel = self.transport.channel
        for client in getattr(channel, "clients", []):
            tracer.wrap(client, "new_proposal", "fabric.client.new_proposal", observe=note_proposed)
            tracer.wrap(client, "assemble", "fabric.client.assemble", observe=note_assembling)
        for mirror in getattr(channel, "peers", []):
            tracer.wrap(mirror, "absorb", "net.transport.mirror_absorb")
            _ledger_wrappers(tracer, mirror)
        self.capture_blocks()

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
        node_cpu = node_cpu_seconds()  # before the probes below spend any
        client_cpu = process_time()
        begin, end, exact_txs = self.exact_range(tracer, window.only(True))
        total_txs = self.waves_done * self.block_size
        out = {
            **_wave_layers(self, tracer, window),
            **_ledger_layers(tracer),
            "net.cluster.spawn_s": self.spawn_s,
            "net.transport.mirror_absorb_ms_per_block": _mean(
                tracer, "net.transport.mirror_absorb", 1e3
            ),
            "net.transport.requests_per_tx": _per(
                _delta(begin, end, "counts", "net.transport.requests"), exact_txs, 1.0
            ),
        }

        def idle_round_trip() -> float:
            samples = []
            for _ in range(200):
                started = perf_counter()
                self.transport.ledger_info(0)
                samples.append(perf_counter() - started)
            return 1e6 * statistics.median(samples)

        out["net.transport.request_rtt_us"] = guarded(
            tracer, "net.transport.request_rtt_us", idle_round_trip
        )

        frames = self._client_counter("repro_net_frames_total")
        moved = self._client_counter("repro_net_bytes_total")
        if frames is None or moved is None:
            tracer.missing["net.codec.bytes_per_tx"] = "client codec counters are gone"
        else:
            # Whole life of this client: set-up, warm-up and the window alike.
            out["net.codec.bytes_per_tx"] = moved.total() / total_txs
            out["net.codec.frames_per_tx"] = frames.total() / total_txs

        # The node processes' own histograms (the traced cluster keeps them).
        peer_means = guarded(tracer, "net.peerserver", self._peer_histogram_means) or {}
        for name, (histogram, factor) in {
            "net.peerserver.endorse_us_per_tx": ("repro_peer_endorse_seconds", 1e6),
            "net.peerserver.validate_ms_per_block": ("repro_peer_validate_seconds", 1e3),
            "net.peerserver.apply_ms_per_block": ("repro_peer_apply_seconds", 1e3),
        }.items():
            if histogram in peer_means:
                out[name] = factor * peer_means[histogram]
            else:
                tracer.missing.setdefault(name, f"node histogram {histogram} is empty or gone")

        rounds = tracer.counts.get("net.transport.endorse_rounds", 0)
        if rounds and "repro_peer_endorse_seconds" in peer_means:
            observed = tracer.counts["net.transport.endorse_rtt_s"] / rounds
            out["net.transport.endorse_overhead_us_per_tx"] = 1e6 * (
                observed - peer_means["repro_peer_endorse_seconds"]
            )
        else:
            tracer.missing.setdefault(
                "net.transport.endorse_overhead_us_per_tx",
                "Client.new_proposal/assemble or the peers' endorse histogram is gone",
            )

        # CPU split over the run so far, by the names Cluster gives its processes.
        orderer = sum(cpu for name, cpu in node_cpu.items() if "orderer" in name)
        peers = sum(cpu for name, cpu in node_cpu.items() if "peer" in name)
        if orderer and peers:
            out["net.ordererserver.cpu_ms_per_tx"] = 1e3 * orderer / total_txs
            out["net.peerserver.cpu_share"] = peers / (client_cpu + sum(node_cpu.values()))
        else:
            tracer.missing["net.peerserver.cpu_share"] = "node processes not found by name"

        blocks = list(self.captured)
        if blocks:
            out.update(probes.net_layers(tracer, blocks))
            out.update(
                probes.merge_layers(
                    tracer, blocks, self.transport.channel.world_state(),
                    self.cluster.profile.config.crdt,
                )
            )
        return out

    def _peer_histogram_means(self) -> dict[str, float]:
        """Mean of every histogram the peer processes keep, pooled over peers."""

        pooled: dict[str, list[float]] = {}
        for node, payload in self.transport.cluster_metrics().items():
            if node in ("orderer", "client"):
                continue
            for metric in payload.get("snapshot", {}).get("metrics", []):
                for sample in metric.get("samples", []):
                    if "sum" in sample:
                        entry = pooled.setdefault(metric["name"], [0.0, 0.0])
                        entry[0] += sample["sum"]
                        entry[1] += sample["count"]
        return {name: total / count for name, (total, count) in pooled.items() if count}

    def close(self) -> None:
        super().close()
        try:
            self.transport.close()
        finally:
            self.cluster.terminate()


# ---------------------------------------------------------------------------------
# The discrete-event simulator
# ---------------------------------------------------------------------------------


class WallClockOpenLoop(OpenLoopClient):
    """The runner's open-loop client, plus wall-clock stamps per transaction.

    Stamps the moment the simulator executes each ``submit_async`` and the
    moment that transaction's commit event reaches ``gateway.block_events()``
    — the wall-clock cost of simulating one transaction end to end, never
    mixed with the simulated clock.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.latencies_s: list[float] = []
        self.events_processed = 0
        self._submitted: dict[str, float] = {}
        self._stream = None
        self._env = None
        self._tracer = tracer

    def start(self, ctx) -> None:
        contract, submitted = ctx.contract, self._submitted

        def stamped_submit(function, *args, **kwargs):
            started = perf_counter()
            tx = contract.submit_async(function, *args, **kwargs)
            submitted[tx.tx_id] = started
            return tx

        if self._tracer is not None:
            # Each round builds a fresh network: wrap its peers as they appear.
            channel = ctx.gateway.channel
            _chaincode_wrappers(self._tracer, channel.chaincodes, (IOT,))
            _peer_wrappers(self._tracer, channel.peers)

        self._env = ctx.env
        self._stream = ctx.gateway.block_events()
        self._stream.on_event(self._on_block)
        super().start(replace(ctx, contract=SimpleNamespace(submit_async=stamped_submit)))

    def _on_block(self, event) -> None:
        now = perf_counter()
        for tx in event.committed.block.transactions:
            started = self._submitted.pop(tx.tx_id, None)
            if started is not None:
                self.latencies_s.append(now - started)

    def finish(self) -> None:
        self.events_processed = getattr(self._env, "events_processed", 0)
        if self._stream is not None:
            self._stream.close()
        if self._tracer is not None:
            self._tracer.unwrap_all()  # lets the finished round's network go


class DesTable1Pair(Workload):
    """What figure regeneration and tier-1 wait for: the simulator itself.

    One unit is a *pair* of rounds on the calibrated cost model and the
    light topology the figure benchmarks use: FabricCRDT (block 25) on
    paper Table 1 — every transaction on one hot key — then vanilla Fabric
    (block 400) on the same load with private keys (Table 5 at 0 %), so
    MVCC validates every read and rejects nothing.  Open loop, 300 tx/s of
    *simulated* time.
    """

    name = "des_table1_pair"
    round_transactions = 1500
    warmup_transactions = 1250
    rate_tps = 300.0
    #: Peak RSS is read when this many measured pairs have finished.
    rss_checkpoint_pairs = 2

    def __init__(self, seed: int, seconds: float, scale: float, traced: bool) -> None:
        super().__init__(seed, seconds, scale, traced)
        self.pairs_done = 0
        self.reports: list = []
        self.sim_events = 0
        self.sim_txs = 0

    def _rounds(
        self, transactions: int, index: int, tracer: Optional[Tracer]
    ) -> tuple[list[Round], WallClockOpenLoop]:
        spec = table1_spec(
            total_transactions=transactions, rate_tps=self.rate_tps,
            seed=self.seed * 1000 + index,
        )
        light = TopologyConfig(num_orgs=1, peers_per_org=1)
        crdt_client, fabric_client = WallClockOpenLoop(tracer), WallClockOpenLoop(tracer)
        self._fabric_client = fabric_client
        rounds = [
            Round(
                spec,
                replace(fabriccrdt_config(25, seed=self.seed), topology=light),
                client=crdt_client, label="FabricCRDT",
            ),
            Round(
                replace(spec, use_crdt=False, conflict_pct=0.0),
                replace(fabric_config(400, seed=self.seed), topology=light),
                client=fabric_client, label="Fabric",
            ),
        ]
        return rounds, crdt_client

    def _run_pair(
        self, transactions: int, tracer: Optional[Tracer] = None
    ) -> tuple[Any, WallClockOpenLoop]:
        rounds, crdt_client = self._rounds(transactions, self.pairs_done, tracer)
        report = Benchmark(rounds, cost=self.cost).run()
        self.pairs_done += 1
        self.sim_events += crdt_client.events_processed + self._fabric_client.events_processed
        self.sim_txs += 2 * transactions
        return report, crdt_client

    def setup(self) -> None:
        clear = getattr(calibrated_cost_model, "cache_clear", None)
        if callable(clear):
            clear()  # every set-up repetition pays the calibration, like a fresh process
        self.cost = calibrated_cost_model()
        self._run_pair(self.scaled(self.warmup_transactions))
        self.sim_events = self.sim_txs = 0
        gc.collect()

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        window = Window()
        transactions = self.scaled(self.round_transactions)
        clock = UnitClock(self.pids)
        deadline = perf_counter() + seconds
        measured = 0
        while not window.units or perf_counter() < deadline:
            # A traced run wraps the peers of every other pair only.
            pair_tracer = tracer if tracer is not None and measured % 2 == 0 else None
            if tracer is not None:
                tracer.wave = measured
                tracer.enabled = pair_tracer is not None
                window.traced.append(tracer.enabled)
            if pair_tracer is not None:
                root = pair_tracer.begin("workload.benchmark_run")
            report, crdt_client = self._run_pair(transactions, pair_tracer)
            if pair_tracer is not None:
                pair_tracer.end(root)
            valid = sum(result.successful for result in report.results)
            attempted = sum(result.total_submitted for result in report.results)
            window.units.append(clock.lap(attempted, valid))
            # Latency from the FabricCRDT round only: pooling 25-tx and
            # 400-tx blocks would put the median on a mode boundary.
            window.latencies_s.extend(crdt_client.latencies_s)
            window.valid.extend(b"\x01" * valid + b"\x00" * (attempted - valid))
            self.reports.append(report)
            measured += 1
            if measured == self.rss_checkpoint_pairs:
                window.rss_mb = peak_rss_mb(self.pids)
        if not window.rss_mb:
            window.rss_mb = peak_rss_mb(self.pids)
        return window

    def check(self, window: Window) -> list[str]:
        problems = []
        transactions = self.scaled(self.round_transactions)
        for index, report in enumerate(self.reports):
            for result in report.results:
                if result.total_submitted != transactions:
                    problems.append(
                        f"pair {index} {result.label}: {result.total_submitted} of "
                        f"{transactions} transactions resolved"
                    )
                if result.failed or result.successful != transactions:
                    problems.append(
                        f"pair {index} {result.label}: {result.failed} transactions not VALID"
                    )
        crdt = self.reports[0].results[0]
        if len(window.latencies_s) != transactions * len(self.reports):
            problems.append("a FabricCRDT commit event never reached gateway.block_events()")
        if crdt.merge_ops <= 0:
            problems.append("the FabricCRDT round merged nothing")
        return problems

    def layer_metrics(self, tracer: Tracer, window: Window) -> dict[str, Optional[float]]:
        first = self.reports[0]
        crdt = first.results[0]
        spec = table1_spec(
            total_transactions=self.scaled(self.round_transactions),
            rate_tps=self.rate_tps, seed=self.seed,
        )
        return {
            **_runtime_layers(tracer, window),
            **_peer_layers(tracer, window.only(True)),
            "sim.events_per_wall_s": self.sim_events / window.wall_s,
            "sim.events_per_tx": self.sim_events / self.sim_txs,
            # Simulated-time results of the first measured pair: pure
            # functions of the seed, they move only when behaviour changes.
            "sim.goodput_tps_simtime": crdt.throughput_tps,
            "sim.commit_latency_avg_ms_simtime": 1e3 * crdt.avg_latency_s,
            "workload.generate_plan_us_per_tx": probes.plan_generation(
                tracer, spec, FixedRate(self.rate_tps)
            ),
            "core.merge_ops_per_tx": crdt.merge_ops / crdt.total_submitted,
            "core.merge_scan_steps_per_tx": crdt.merge_scan_steps / crdt.total_submitted,
            "fabric.orderer.txs_per_block": crdt.avg_block_fill,
            "fabric.peer.mvcc_rejected_share": (
                sum(result.failed for result in first.results)
                / sum(result.total_submitted for result in first.results)
            ),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SocketCrdtHot, LocalCrdtMixed, LocalFabricMixedSqlite, DesTable1Pair)
}
