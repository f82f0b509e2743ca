"""Conflict-aware transaction reordering — the Fabric++ baseline ([34]).

The paper's related work contrasts FabricCRDT with transaction-reordering
approaches (Sharma et al., SIGMOD'19): the orderer analyses each batch's
read/write sets, reorders transactions so that readers of a key precede its
writers, and aborts transactions trapped in conflict cycles.  Reordering
*reduces* MVCC failures but — as §8 of the FabricCRDT paper argues — cannot
eliminate them: any two read-modify-writes of the same key conflict in every
order.  The reorder ablation benchmark quantifies exactly that gap.

Implementation: a precedence edge ``a → b`` is added whenever ``b`` writes a
key ``a`` reads (``a`` must validate first); strongly connected components of
size > 1 are conflict cycles (Tarjan), from which only the earliest-arrived
member is kept in the schedulable set; the survivors are scheduled in the
lexicographically least topological order (Kahn's algorithm on a heap).  Cycle victims are *appended after* the
reordered prefix rather than dropped, so every submitted transaction still
commits (as valid or invalid) and client accounting stays intact — this is
the "reorder only" variant; ``early_abort=True`` drops them from the block
entirely like Fabric++ proper.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .orderer import OrderingService
from .transaction import TransactionEnvelope


def reorder_batch(
    transactions: Sequence[TransactionEnvelope],
) -> tuple[list[TransactionEnvelope], list[TransactionEnvelope]]:
    """Reorder one batch; returns ``(scheduled, cycle_victims)``.

    ``scheduled`` is a conflict-minimal order of the transactions that can
    all validate; ``cycle_victims`` are the transactions sacrificed to break
    conflict cycles (they fail MVCC wherever they are placed).
    """

    count = len(transactions)
    reads = [frozenset(tx.rwset.read_keys) for tx in transactions]
    writes = [
        frozenset(write.key for write in tx.rwset.writes if not write.is_crdt)
        for tx in transactions
    ]
    # b writes a key a reads: a must be validated before b (edge a -> b).
    successors = [
        [b for b in range(count) if b != a and writes[b] & reads[a]] for a in range(count)
    ]

    victims: set[int] = set()
    for component in _strongly_connected_components(successors):
        if len(component) > 1:
            keeper = min(component)  # earliest arrival survives the cycle
            victims.update(component - {keeper})
    # One keeper per component leaves a subgraph of the condensation, which
    # is acyclic: no second round of cycle breaking is ever needed.
    order = _lexicographic_topological_order(successors, victims)
    scheduled = [transactions[index] for index in order]
    cycle_victims = [transactions[index] for index in sorted(victims)]
    return scheduled, cycle_victims


def _strongly_connected_components(successors: list[list[int]]) -> list[set[int]]:
    """Tarjan's algorithm over nodes ``0..n-1``, iterative (no recursion limit)."""

    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[set[int]] = []
    for root in range(len(successors)):
        if root in index:
            continue
        work = [(root, 0)]  # (node, position of the next successor to visit)
        while work:
            node, position = work.pop()
            if position == 0:
                index[node] = lowlink[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            children = successors[node]
            while position < len(children):
                child = children[position]
                position += 1
                if child not in index:
                    work.append((node, position))
                    work.append((child, 0))
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                if lowlink[node] == index[node]:
                    component: set[int] = set()
                    while node not in component:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _lexicographic_topological_order(
    successors: list[list[int]], removed: set[int]
) -> list[int]:
    """Kahn's algorithm over the nodes not in ``removed``, always emitting the
    smallest ready node: the unique lexicographically least topological order."""

    indegree = [0] * len(successors)
    for node, children in enumerate(successors):
        if node not in removed:
            for child in children:
                indegree[child] += 1
    ready = [node for node in range(len(successors)) if node not in removed and not indegree[node]]
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in successors[node]:
            indegree[child] -= 1
            if not indegree[child] and child not in removed:
                heapq.heappush(ready, child)
    return order


class ReorderingOrderingService(OrderingService):
    """An ordering service that reorders every batch before cutting.

    ``early_abort=True`` removes cycle victims from the block (Fabric++'s
    early abort); ``False`` appends them at the end, where MVCC invalidates
    them, keeping per-transaction accounting exact.
    """

    def __init__(self, config, early_abort: bool = False) -> None:
        super().__init__(config)
        self.early_abort = early_abort
        self.reorder_stats = {"batches": 0, "victims": 0, "early_aborted": 0}

    def _cut(self, reason: str, now: float):
        # Reorder the pending batch in place, then defer to the normal cut.
        scheduled, victims = reorder_batch(self._pending)
        self.reorder_stats["batches"] += 1
        self.reorder_stats["victims"] += len(victims)
        if self.early_abort:
            self.reorder_stats["early_aborted"] += len(victims)
            self._pending = scheduled if scheduled else list(self._pending[:1])
        else:
            self._pending = scheduled + victims
        return super()._cut(reason, now)
