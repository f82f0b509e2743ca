"""Tests for G-Counter and PN-Counter: one integer total, merged by addition."""

import pytest

from repro.common.errors import MergeTypeError
from repro.crdt import GCounter, ORSet, PNCounter

from . import envelope_roundtrip


class TestGCounter:
    def test_empty_value(self):
        assert GCounter().value() == 0

    def test_increment_is_functional(self):
        base = GCounter()
        bumped = base.increment(3)
        assert base.value() == 0
        assert bumped.value() == 3

    def test_merge_adds_totals(self):
        # Two transactions endorsed against one committed total of 2 write
        # +1 and +5; the committer adds both to the committed total.
        committed = GCounter(2)
        merged = committed.merge(GCounter(1)).merge(GCounter(5))
        assert merged.value() == 8
        assert committed.merge(GCounter(5)).merge(GCounter(1)) == merged

    def test_decrement_rejected(self):
        with pytest.raises(ValueError):
            GCounter().increment(-1)

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            GCounter(-5)

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "3", None])
    def test_counts_are_exactly_ints(self, count):
        # A float would be truncated and True counted as 1.
        with pytest.raises(ValueError):
            GCounter(count)
        with pytest.raises(ValueError):
            PNCounter.from_dict({"total": count})

    def test_merge_type_mismatch(self):
        with pytest.raises(MergeTypeError):
            GCounter().merge(ORSet())

    def test_serialization_roundtrip(self):
        counter = GCounter().increment(2).increment(7)
        assert counter.to_dict() == {"total": 9}
        assert envelope_roundtrip(counter) == counter

    def test_envelope_type_check(self):
        counter = GCounter().increment()
        with pytest.raises(MergeTypeError):
            PNCounter().merge(envelope_roundtrip(counter))


class TestPNCounter:
    def test_increment_and_decrement(self):
        counter = PNCounter().increment(10).decrement(4)
        assert counter.value() == 6

    def test_negative_amounts_flip(self):
        assert PNCounter().increment(-3).value() == -3
        assert PNCounter().decrement(-3).value() == 3

    def test_merge_concurrent(self):
        base = PNCounter(5)
        merged = base.merge(PNCounter(-2)).merge(PNCounter(1))
        assert merged.value() == 4  # 5 - 2 + 1
        assert merged == base.merge(PNCounter(1)).merge(PNCounter(-2))

    def test_roundtrip(self):
        counter = PNCounter().increment(3).decrement(4)
        assert counter.to_dict() == {"total": -1}
        assert envelope_roundtrip(counter) == counter

    def test_decrement_takes_exactly_an_int(self):
        with pytest.raises(ValueError):
            PNCounter().decrement(True)


class TestSixtyFourBits:
    """A total is a signed 64-bit integer: a sum of valid amounts can
    otherwise outgrow what the committer can serialize."""

    def test_bounds_are_accepted(self):
        assert GCounter(2**63 - 1).value() == 2**63 - 1
        assert PNCounter(-(2**63)).value() == -(2**63)

    @pytest.mark.parametrize("counter_cls, amount", [
        (GCounter, 2**63), (PNCounter, 2**63), (PNCounter, -(2**63) - 1),
    ])
    def test_amounts_outside_are_refused(self, counter_cls, amount):
        with pytest.raises(ValueError):
            counter_cls(amount)

    @pytest.mark.parametrize("total, amount", [
        (GCounter(2**62), GCounter(2**62)),
        (PNCounter(2**63 - 1), PNCounter(1)),
        (PNCounter(-(2**62)), PNCounter(-(2**62) - 1)),
    ])
    def test_a_sum_leaving_the_range_is_a_merge_error(self, total, amount):
        with pytest.raises(MergeTypeError, match="overflows"):
            total.merge(amount)
        with pytest.raises(MergeTypeError, match="overflows"):
            amount.merge(total)
