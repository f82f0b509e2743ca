#!/usr/bin/env python3
"""Text CRDTs, off-chain and on-chain.

Part 1 is the standalone demo: two editors fork a shared document, type
concurrently (including edits at the same position), exchange states, and
converge — the RGA guarantees that each author's run stays contiguous and
nothing is lost.  This is the character-level machinery behind the paper's
collaborative-editing use case (§6) and its future-work list CRDTs (§9).

Part 2 puts the same machinery on the ledger through the contract API: a
wiki chaincode edits pages through ``ctx.crdt.text`` handles, so concurrent
transactions appending to one page in the same block all commit and merge —
no envelope dicts, no MVCC conflicts, no lost lines.

Run:  python examples/text_editing.py
"""

from repro import Gateway, crdt_network, fabriccrdt_config
from repro.common.serialization import from_bytes, to_bytes
from repro.contract import Context, Contract, query, transaction
from repro.crdt import TextDocument, crdt_from_dict_envelope, crdt_to_dict_envelope


def standalone_demo() -> None:
    origin = TextDocument("origin").insert(0, "CRDTs merge concurrent edits.")
    print(f"shared:   {origin.text()!r}")

    # Fork two replicas; both edit *the same* document state concurrently.
    alice = origin.fork("alice")
    bob = origin.fork("bob")

    alice = alice.insert(0, "Fact: ")                     # prepend
    alice = alice.delete(len(alice) - 1, 1).append("!")   # change punctuation
    bob = bob.insert(len("CRDTs"), " provably")           # edit mid-sentence

    print(f"alice:    {alice.text()!r}")
    print(f"bob:      {bob.text()!r}")

    merged_ab = alice.merge(bob)
    merged_ba = bob.merge(alice)
    assert merged_ab.text() == merged_ba.text(), "merge is commutative"
    print(f"merged:   {merged_ab.text()!r}")

    # Serialization: documents travel as CRDT envelopes (the same bytes the
    # wiki chaincode below commits to the ledger).
    restored = crdt_from_dict_envelope(from_bytes(to_bytes(crdt_to_dict_envelope(merged_ab))))
    assert restored.text() == merged_ab.text()
    print("state roundtrips through canonical bytes ✔")

    # A third editor joins late, applies both histories at once, keeps typing.
    carol = restored.fork("carol").append(" Ask me how.")
    final = carol.merge(merged_ab)
    print(f"final:    {final.text()!r}")


class WikiChaincode(Contract):
    """Ledger-backed collaborative text editing via ``ctx.crdt.text``."""

    name = "wiki"

    @transaction
    def append_line(self, ctx: Context, page: str, line: str) -> dict:
        handle = ctx.crdt.text(f"page/{page}")
        handle.append(line + "\n")
        return {"length": len(handle)}

    @query
    def read(self, ctx: Context, page: str) -> dict:
        return {"text": ctx.crdt.text(f"page/{page}").text()}


def onchain_demo() -> None:
    network = crdt_network(fabriccrdt_config(max_message_count=25))
    network.deploy(WikiChaincode())
    contract = Gateway.connect(network).get_contract("wiki")

    lines = [
        "= Release notes =",
        "- CRDT merges keep every concurrent edit",
        "- nobody ever resubmits a transaction",
    ]
    # All three writers endorse against the same (empty) committed page and
    # land in one block; the committer merges their RGA states.
    in_flight = [
        contract.submit_async("append_line", "release-notes", line, client_index=i)
        for i, line in enumerate(lines)
    ]
    statuses = [tx.commit_status() for tx in in_flight]
    assert all(status.succeeded for status in statuses)

    page = contract.evaluate("read", "release-notes")["text"]
    print("\non-chain page after 3 concurrent appends (1 block):")
    print(page, end="")
    for line in lines:
        assert line + "\n" in page, "no concurrent append was lost"
    network.assert_states_converged()
    print("all peers hold the identical merged page ✔")


def main() -> None:
    standalone_demo()
    onchain_demo()


if __name__ == "__main__":
    main()
