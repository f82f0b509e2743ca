"""Tests for endorsement policy expressions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import PolicyError
from repro.fabric.policy import (
    OutOf,
    Principal,
    and_policy,
    deployment_policy,
    majority_policy,
    or_policy,
)

ORGS = ["Org1", "Org2", "Org3"]


class TestCombinators:
    def test_or_any_single_org(self):
        policy = or_policy(*ORGS)
        assert policy.satisfied_by(["Org2"])
        assert not policy.satisfied_by(["OrgX"])

    def test_and_needs_all(self):
        policy = and_policy(*ORGS)
        assert policy.satisfied_by(ORGS)
        assert not policy.satisfied_by(["Org1", "Org2"])

    def test_majority(self):
        policy = majority_policy(ORGS)
        assert policy.satisfied_by(["Org1", "Org3"])
        assert not policy.satisfied_by(["Org2"])

    def test_nested_expression(self):
        # AND(Org1, OR(Org2, Org3))
        policy = OutOf(2, (Principal("Org1"), or_policy("Org2", "Org3")))
        assert policy.satisfied_by(["Org1", "Org3"])
        assert policy.satisfied_by(["Org1", "Org2"])
        assert not policy.satisfied_by(["Org2", "Org3"])

    def test_orgs_mentioned(self):
        policy = and_policy("Org1", "Org2")
        assert policy.orgs_mentioned() == frozenset({"Org1", "Org2"})

    def test_string_rendering(self):
        assert str(and_policy("Org1", "Org2")) == "AND('Org1.member', 'Org2.member')"
        assert str(or_policy("Org1", "Org2")) == "OR('Org1.member', 'Org2.member')"
        assert "OutOf(2" in str(majority_policy(ORGS))

    def test_deployment_default_is_or_over_the_channel_orgs(self):
        assert deployment_policy(None, ORGS) == or_policy(*ORGS)
        assert deployment_policy(and_policy("Org1"), ORGS) == and_policy("Org1")


class TestValidation:
    def test_empty_rules_rejected(self):
        with pytest.raises(PolicyError):
            OutOf(1, ())

    def test_threshold_out_of_range(self):
        with pytest.raises(PolicyError):
            OutOf(0, (Principal("Org1"),))
        with pytest.raises(PolicyError):
            OutOf(3, (Principal("Org1"), Principal("Org2")))


class TestTruthTable:
    @given(st.sets(st.sampled_from(ORGS)))
    def test_out_of_2_matches_counting(self, endorsers):
        policy = OutOf(2, tuple(Principal(o) for o in ORGS))
        expected = len(endorsers) >= 2
        assert policy.satisfied_by(endorsers) == expected

    @given(st.sets(st.sampled_from(ORGS + ["OrgX"])), st.integers(1, 3))
    def test_out_of_n_semantics(self, endorsers, threshold):
        policy = OutOf(threshold, tuple(Principal(o) for o in ORGS))
        expected = len(endorsers & set(ORGS)) >= threshold
        assert policy.satisfied_by(endorsers) == expected
