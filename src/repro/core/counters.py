"""Counter CRDTs on FabricCRDT — the paper's future-work extension (§9).

The paper's prototype merges JSON CRDTs only and names counter/map/graph
CRDTs as future work; Fabric's own FAB-10711 proposal sketched built-in
parallel increments.  The machinery lives in :mod:`repro.contract.handles`
— typed state handles behind ``ctx.crdt`` — and this module holds the
voting contract that exercises them.
"""

from __future__ import annotations

from ..common.types import Json
from ..contract import Context, Contract, query, transaction
from ..crdt.registry import crdt_from_dict_envelope


class VotingChaincode(Contract):
    """A global voting application — one of the paper's motivating use cases.

    ``vote(ballot, option, voter)`` bumps a per-option G-Counter through a
    ``ctx.crdt.counter`` handle; concurrent votes for the same option merge
    instead of conflicting.  ``tally`` reads all options of a ballot with a
    range scan.
    """

    name = "voting"

    @transaction
    def vote(self, ctx: Context, ballot: str, option: str, voter: str) -> Json:
        total = ctx.crdt.counter(f"vote/{ballot}/{option}").incr(actor=voter)
        ctx.events.set("voted", {"ballot": ballot, "option": option})
        return {"ballot": ballot, "option": option, "observed_total": total}

    @query
    def tally(self, ctx: Context, ballot: str) -> Json:
        prefix = f"vote/{ballot}/"
        results = {}
        for key, value in ctx.state.range(prefix, prefix + "\x7f"):
            counter = crdt_from_dict_envelope(value)
            results[key[len(prefix):]] = counter.value()
        return results
