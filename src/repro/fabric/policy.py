"""Endorsement policies: the AND / OR / OutOf expression trees of Fabric.

A policy decides whether a set of endorsing organizations is sufficient.
Fabric expresses policies like ``AND('Org1.member', OR('Org2.member',
'Org3.member'))``; every combinator reduces to ``OutOf(n, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..common.errors import PolicyError


@dataclass(frozen=True)
class Principal:
    """A leaf: satisfied when the given org endorsed."""

    org_name: str

    def satisfied_by(self, endorsing_orgs: frozenset[str]) -> bool:
        return self.org_name in endorsing_orgs

    def orgs_mentioned(self) -> frozenset[str]:
        return frozenset({self.org_name})

    def __str__(self) -> str:
        return f"'{self.org_name}.member'"


@dataclass(frozen=True)
class OutOf:
    """Satisfied when at least ``threshold`` sub-policies are satisfied."""

    threshold: int
    rules: tuple["PolicyNode", ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise PolicyError("OutOf requires at least one sub-policy")
        if not 1 <= self.threshold <= len(self.rules):
            raise PolicyError(
                f"threshold {self.threshold} out of range for {len(self.rules)} rules"
            )

    def satisfied_by(self, endorsing_orgs: frozenset[str]) -> bool:
        satisfied = sum(1 for rule in self.rules if rule.satisfied_by(endorsing_orgs))
        return satisfied >= self.threshold

    def orgs_mentioned(self) -> frozenset[str]:
        mentioned: frozenset[str] = frozenset()
        for rule in self.rules:
            mentioned |= rule.orgs_mentioned()
        return mentioned

    def __str__(self) -> str:
        inner = ", ".join(str(rule) for rule in self.rules)
        if self.threshold == len(self.rules):
            return f"AND({inner})"
        if self.threshold == 1:
            return f"OR({inner})"
        return f"OutOf({self.threshold}, {inner})"


PolicyNode = Union[Principal, OutOf]


def and_policy(*org_names: str) -> OutOf:
    """``AND('Org1', 'Org2', ...)`` — every listed org must endorse."""

    rules = tuple(Principal(name) for name in org_names)
    return OutOf(len(rules), rules)


def or_policy(*org_names: str) -> OutOf:
    """``OR('Org1', 'Org2', ...)`` — any one listed org suffices."""

    rules = tuple(Principal(name) for name in org_names)
    return OutOf(1, rules)


def majority_policy(org_names: Iterable[str]) -> OutOf:
    """Strict majority of the listed orgs."""

    rules = tuple(Principal(name) for name in org_names)
    return OutOf(len(rules) // 2 + 1, rules)


def deployment_policy(policy: Optional[PolicyNode], org_names: Sequence[str]) -> PolicyNode:
    """The policy a chaincode is deployed under on a channel of ``org_names``.

    ``None`` means the channel default, ``OR`` over every org, which is what
    the paper's Caliper benchmarks effectively use.  Every runtime resolves
    the default here, so clients and peers cannot disagree on it.
    """

    return policy if policy is not None else or_policy(*org_names)
