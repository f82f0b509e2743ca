#!/usr/bin/env python3
"""Global voting with counter CRDTs — the paper's future-work extension (§9).

Each vote is one line of chaincode — ``ctx.crdt.counter(key).incr(actor=
voter)`` — and the handle does the rest: it reads the committed G-Counter
envelope (one integer total) and buffers the operation ``+1`` through
``put_crdt``.  The FabricCRDT committer recognizes envelopes and adds each
VALID transaction's amount to the committed total once, in block order — the
ordered ledger delivers every transaction exactly once — so any number of
concurrent votes in one block commit without conflicts and without losing or
double-counting a single ballot: the built-in-counters behaviour Fabric's
FAB-10711 proposal sketched but never shipped.  (``actor=`` changes nothing:
one voter's two votes in one block count twice.)

Run:  python examples/voting.py
"""

from repro import Gateway
from repro.common.config import NetworkConfig, OrdererConfig
from repro.core import VotingChaincode
from repro.core.network import crdt_network


def main() -> None:
    network = crdt_network(
        NetworkConfig(orderer=OrdererConfig(max_message_count=100), crdt_enabled=True)
    )
    network.deploy(VotingChaincode())
    contract = Gateway.connect(network).get_contract("voting")

    ballots = {"mergers": ["approve", "reject"], "logo": ["hexagon", "ouroboros"]}
    votes = [
        ("mergers", "approve", 7),
        ("mergers", "reject", 4),
        ("logo", "hexagon", 5),
        ("logo", "ouroboros", 6),
    ]

    submitted = []
    for ballot, option, count in votes:
        for voter_index in range(count):
            submitted.append(
                contract.submit_async(
                    "vote",
                    ballot,
                    option,
                    f"{option}-voter-{voter_index}",
                    client_index=len(submitted) % 4,
                )
            )
    # Every vote in flight lands in one block and merges; the first
    # commit_status() cuts it, the rest read the recorded statuses.
    statuses = [tx.commit_status() for tx in submitted]

    failures = sum(1 for status in statuses if not status.succeeded)
    print(f"submitted {len(submitted)} concurrent votes; failures: {failures}")
    assert failures == 0

    for ballot, options in ballots.items():
        tally = contract.evaluate("tally", ballot)
        print(f"ballot {ballot!r}: {tally}")
        for option in options:
            expected = next(c for b, o, c in votes if b == ballot and o == option)
            assert tally[option] == expected, "no vote was lost or double-counted"

    network.assert_states_converged()
    print("all peers agree on every tally ✔")


if __name__ == "__main__":
    main()
