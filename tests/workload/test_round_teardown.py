"""A finished round frees its network by reference counting alone.

Rounds run back to back (``Benchmark``, the figure sweeps, the wall-clock
benchmark's simulator workload), so a round whose ledger survives as cyclic
garbage holds it until the next full collection — peak memory then grows
with how rarely those run.  With the collector off, every committed block
and every ledger of a round must be gone the moment ``run_round`` returns,
and a collection afterwards must find no ledger object to free.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.bench import calibrated_cost_model
from repro.common.config import TopologyConfig, fabric_config, fabriccrdt_config
from repro.fabric.block import Block, CommittedBlock
from repro.fabric.ledger import Ledger
from repro.fabric.peer import Peer
from repro.fabric.transaction import TransactionEnvelope
from repro.workload import (
    ClientStrategy,
    ClosedLoopClient,
    MaxRate,
    OpenLoopClient,
    Round,
    run_round,
    table1_spec,
)

LEDGER_TYPES = (CommittedBlock, Block, Ledger, Peer, TransactionEnvelope)


class Recording(ClientStrategy):
    """Another strategy, plus weak references to what the round committed.

    It also closes a cycle of its own through its stream (it holds the
    stream, the stream's listener holds it), as benchmark clients do.
    """

    def __init__(self, inner: ClientStrategy) -> None:
        self.inner = inner
        self.blocks: list[weakref.ref] = []
        self.ledgers: list[weakref.ref] = []

    def start(self, ctx) -> None:
        self.ledgers = [weakref.ref(peer.ledger) for peer in ctx.gateway.channel.peers]
        self.stream = ctx.gateway.block_events()
        self.stream.on_event(lambda event: self.blocks.append(weakref.ref(event.committed)))
        self.inner.start(ctx)

    def finish(self) -> None:
        self.inner.finish()
        self.stream.close()


def rounds() -> dict[str, Round]:
    spec = table1_spec(total_transactions=120, rate_tps=300.0, seed=5)
    light = TopologyConfig(num_orgs=1, peers_per_org=2)
    return {
        "crdt-open-loop": Round(
            spec, replace(fabriccrdt_config(25, seed=5), topology=light),
            client=Recording(OpenLoopClient()),
        ),
        "fabric-open-loop": Round(
            replace(spec, use_crdt=False, conflict_pct=0.0),
            replace(fabric_config(50, seed=5), topology=light),
            client=Recording(OpenLoopClient()),
        ),
        "crdt-closed-loop": Round(
            spec, replace(fabriccrdt_config(25, seed=5), topology=light),
            rate=MaxRate(in_flight=40), client=Recording(ClosedLoopClient()),
        ),
    }


@pytest.mark.parametrize("name", sorted(rounds()))
def test_a_finished_round_frees_its_ledger_without_the_collector(name):
    round_ = rounds()[name]
    cost = calibrated_cost_model()
    recording = round_.client
    gc.collect()
    gc.disable()
    try:
        result = run_round(round_, cost=cost)
        assert result.successful == 120
        assert recording.blocks and recording.ledgers
        assert [ref for ref in recording.blocks if ref() is not None] == []
        assert [ref for ref in recording.ledgers if ref() is not None] == []
        del round_, recording
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        freed = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, LEDGER_TYPES)]
        assert freed == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
