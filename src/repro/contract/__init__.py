"""``repro.contract`` — typed, decorator-based chaincode authoring.

The chaincode authoring surface: a :class:`Contract` base class with
``@transaction`` / ``@query`` decorated handlers (explicit registry, typed
argument coercion), a :class:`Context` per invocation (``ctx.state``,
``ctx.events``), and — the FabricCRDT headline — ``ctx.crdt``, a typed CRDT
handle factory whose mutation methods read the committed envelope, apply
the operation through the :mod:`repro.crdt` classes, and buffer the result
through ``put_crdt``.

Quick example::

    from repro.contract import Contract, transaction, query

    class Voting(Contract):
        name = "voting"

        @transaction
        def vote(self, ctx, ballot: str, option: str, voter: str):
            total = ctx.crdt.counter(f"vote/{ballot}/{option}").incr(actor=voter)
            return {"ballot": ballot, "option": option, "observed_total": total}
"""

from .context import Context, EventRegister, StateAccessor
from .contract import Contract, Parameter, TransactionSpec, query, transaction
from .handles import (
    CounterHandle,
    CrdtFactory,
    DocHandle,
    PNCounterHandle,
    RegisterHandle,
    SetHandle,
    StateCrdtHandle,
    TextHandle,
)

__all__ = [
    "Contract",
    "transaction",
    "query",
    "TransactionSpec",
    "Parameter",
    "Context",
    "StateAccessor",
    "EventRegister",
    "CrdtFactory",
    "StateCrdtHandle",
    "CounterHandle",
    "PNCounterHandle",
    "SetHandle",
    "RegisterHandle",
    "TextHandle",
    "DocHandle",
]
