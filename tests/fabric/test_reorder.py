"""Tests for the Fabric++-style reordering orderer (the related-work baseline)."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import OrdererConfig
from repro.common.types import ReadItem, ReadWriteSet, ValidationCode, Version, WriteItem
from repro.common.serialization import to_bytes
from repro.fabric.block import Block
from repro.fabric.reorder import ReorderingOrderingService, reorder_batch

from .helpers import build_peer, endorsed_tx, seed_block, write_rwset


def reader_writer_txs(peer, versions):
    """A blind writer of K plus a reader of K (writing elsewhere).

    In arrival order [writer, reader] the reader fails; readers-first
    reordering saves it.
    """

    writer = endorsed_tx(peer, write_rwset(("K", {"v": 1})), 1)
    reader = endorsed_tx(
        peer, write_rwset(("out", {"seen": 1}), reads=(("K", versions["K"]),)), 2
    )
    return writer, reader


class TestReorderBatch:
    def test_readers_scheduled_before_writers(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        writer, reader = reader_writer_txs(peer, versions)
        scheduled, victims = reorder_batch([writer, reader])
        assert victims == []
        assert [tx.tx_id for tx in scheduled] == [reader.tx_id, writer.tx_id]

    def test_hot_key_cycle_keeps_one(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        txs = [
            endorsed_tx(
                peer, write_rwset(("K", {"v": i}), reads=(("K", versions["K"]),)), i
            )
            for i in range(4)
        ]
        scheduled, victims = reorder_batch(txs)
        assert len(scheduled) == 1
        assert len(victims) == 3

    def test_two_tx_swap_cycle(self):
        peer = build_peer()
        versions = seed_block(peer, {"A": {"v": 0}, "B": {"v": 0}})
        # t1 reads A writes B; t2 reads B writes A: a genuine cycle.
        t1 = endorsed_tx(peer, write_rwset(("B", {"v": 1}), reads=(("A", versions["A"]),)), 1)
        t2 = endorsed_tx(peer, write_rwset(("A", {"v": 1}), reads=(("B", versions["B"]),)), 2)
        scheduled, victims = reorder_batch([t1, t2])
        assert len(scheduled) == 1 and len(victims) == 1

    def test_independent_txs_untouched(self):
        peer = build_peer()
        txs = [endorsed_tx(peer, write_rwset((f"k{i}", {"v": i})), i) for i in range(5)]
        scheduled, victims = reorder_batch(txs)
        assert victims == []
        assert len(scheduled) == 5

    def test_crdt_writes_do_not_create_conflicts(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        crdt_writer = endorsed_tx(peer, write_rwset(("K", {"l": ["x"]}), crdt=True), 1)
        reader = endorsed_tx(
            peer, write_rwset(("out", {"s": 1}), reads=(("K", versions["K"]),)), 2
        )
        scheduled, victims = reorder_batch([crdt_writer, reader])
        assert victims == []


class TestReorderingOrderingService:
    def _commit_through(self, peer, txs, early_abort=False):
        service = ReorderingOrderingService(
            OrdererConfig(max_message_count=len(txs)), early_abort=early_abort
        )
        service.resume_from(peer.ledger.height, peer.ledger.last_hash)
        blocks = []
        for tx in txs:
            blocks.extend(service.submit(tx, 0.0))
        remainder = service.flush(0.0)
        if remainder is not None:
            blocks.append(remainder)
        return [peer.validate_and_commit(block) for block in blocks], service

    def test_reordering_saves_the_reader(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        writer, reader = reader_writer_txs(peer, versions)
        committed_blocks, _ = self._commit_through(peer, [writer, reader])
        statuses = dict(committed_blocks[0].statuses())
        assert statuses[reader.tx_id] is ValidationCode.VALID
        assert statuses[writer.tx_id] is ValidationCode.VALID

    def test_without_reordering_reader_fails(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        writer, reader = reader_writer_txs(peer, versions)
        block = Block.build(peer.ledger.height, peer.ledger.last_hash, (writer, reader))
        committed = peer.validate_and_commit(block)
        statuses = dict(committed.statuses())
        assert statuses[reader.tx_id] is ValidationCode.MVCC_READ_CONFLICT

    def test_hot_key_rmw_not_rescued(self):
        """The paper's point versus [34]: reordering cannot eliminate
        conflicts among same-key read-modify-writes."""

        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        txs = [
            endorsed_tx(
                peer, write_rwset(("K", {"v": i}), reads=(("K", versions["K"]),)), i
            )
            for i in range(5)
        ]
        committed_blocks, service = self._commit_through(peer, txs)
        valid = sum(block.metadata.valid_count for block in committed_blocks)
        assert valid == 1
        assert service.reorder_stats["victims"] == 4

    def test_early_abort_drops_victims_from_block(self):
        peer = build_peer()
        versions = seed_block(peer, {"K": {"v": 0}})
        txs = [
            endorsed_tx(
                peer, write_rwset(("K", {"v": i}), reads=(("K", versions["K"]),)), i
            )
            for i in range(5)
        ]
        committed_blocks, service = self._commit_through(peer, txs, early_abort=True)
        assert sum(len(block.block) for block in committed_blocks) == 1
        assert service.reorder_stats["early_aborted"] == 4


def _networkx_reorder(transactions):
    """The networkx implementation ``reorder_batch`` replaced, kept as the
    reference its schedule and victims are pinned to."""

    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(transactions)))
    reads = [frozenset(tx.rwset.read_keys) for tx in transactions]
    writes = [
        frozenset(w.key for w in tx.rwset.writes if not w.is_crdt) for tx in transactions
    ]
    for a in range(len(transactions)):
        for b in range(len(transactions)):
            if a != b and writes[b] & reads[a]:
                graph.add_edge(a, b)
    victims: set[int] = set()
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            victims.update(component - {min(component)})
    surviving = graph.subgraph(set(graph.nodes) - victims).copy()
    while True:
        cyclic = [c for c in nx.strongly_connected_components(surviving) if len(c) > 1]
        if not cyclic:
            break
        for component in cyclic:
            extra = component - {min(component)}
            victims.update(extra)
            surviving.remove_nodes_from(extra)
    order = list(nx.lexicographical_topological_sort(surviving))
    return [transactions[i] for i in order], [transactions[i] for i in sorted(victims)]


_KEYS = ("A", "B", "C", "D", "E")
_tx_shapes = st.lists(
    st.tuples(
        st.sets(st.sampled_from(_KEYS), max_size=3),  # reads
        st.sets(st.sampled_from(_KEYS), max_size=3),  # writes
        st.booleans(),  # writes flagged as CRDT
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(shapes=_tx_shapes)
def test_schedule_and_victims_match_the_networkx_reference(shapes):
    peer = build_peer()
    txs = [
        endorsed_tx(
            peer,
            write_rwset(
                *((key, {"v": nonce}) for key in sorted(written)),
                reads=tuple((key, Version(0, 0)) for key in sorted(read)),
                crdt=crdt,
            ),
            nonce,
        )
        for nonce, (read, written, crdt) in enumerate(shapes)
    ]
    scheduled, victims = reorder_batch(txs)
    expected_scheduled, expected_victims = _networkx_reorder(txs)
    assert [tx.tx_id for tx in scheduled] == [tx.tx_id for tx in expected_scheduled]
    assert [tx.tx_id for tx in victims] == [tx.tx_id for tx in expected_victims]


def test_the_reorderer_does_not_import_networkx():
    """networkx is not a declared dependency; the reorderer needs none."""

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import repro.fabric.reorder; sys.exit('networkx' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "networkx was imported"
