"""Positive-negative counter (PN-Counter), operation-based like the G-Counter.

The state-based PN-Counter is two G-Counters, P minus N, because a per-actor
maximum cannot take a decrement.  Merged once per ordered transaction (see
:mod:`repro.crdt.gcounter`), a counter is one signed integer total and a
write one signed amount: ``merge`` adds, so a decrement is a negative amount.
"""

from __future__ import annotations

from .gcounter import Counter


class PNCounter(Counter):
    """Increment/decrement counter: every amount is an ``int`` of either sign."""

    type_name = "pn-counter"
    signed = True

    __slots__ = ()

    def decrement(self, amount: int = 1) -> "PNCounter":
        """Return a new counter holding this total minus ``amount``."""

        return self.increment(-self._amount(amount))
