"""SmallBank — the financial workload the paper rules *out* for CRDTs (§6).

SmallBank (cited by the paper through Fabric++ [34]) models checking and
savings accounts with the six classic operations.  §6 argues that asset
transfers "are bad choices to be adapted as a CRDT-based blockchain
application"; this module makes the argument executable by supporting three
storage modes:

* ``plain``    — balances as ordinary JSON through ``put_state``: full MVCC
  protection, money conserved, overdrafts impossible — but concurrent
  payments conflict and fail (the Fabric behaviour).
* ``naive-crdt`` — the §6 anti-pattern: the same JSON balances through
  ``put_crdt``.  Every transaction commits, but concurrent payments resolve
  by last-writer-wins on the balance field: **money is created or
  destroyed** (conservation violated; double-spends succeed).
* ``pn-counter`` — balances as PN-Counter envelopes.  Increments and
  decrements commute, so every transaction commits *and* money is conserved
  — but nothing can enforce non-negativity: concurrent withdrawals can
  overdraw.  This is the precise trade-off CRDTs offer for money.

``tests/workload/test_smallbank.py`` checks conservation / failure / overdraft
properties per mode; ``examples/smallbank.py`` tells the story end to end.
"""

from __future__ import annotations

from ..common.errors import ChaincodeError
from ..common.types import Json
from ..contract import Context, Contract, query, transaction
from ..crdt.registry import is_dict_envelope

MODES = ("plain", "naive-crdt", "pn-counter")


def checking_key(account: str) -> str:
    return f"checking/{account}"


def savings_key(account: str) -> str:
    return f"savings/{account}"


class SmallBankChaincode(Contract):
    """The six SmallBank operations over two keys per account.

    Every mutating function takes ``mode`` as its last argument so one
    deployment can demonstrate all three storage disciplines.  The
    pn-counter path runs on ``ctx.crdt.pn_counter`` handles — no envelope
    dicts in sight.
    """

    name = "smallbank"

    # -- balance plumbing per mode -----------------------------------------

    def _read_balance(self, ctx: Context, key: str) -> int:
        value = ctx.state.get(key)
        if value is None:
            raise ChaincodeError(f"unknown account key {key}")
        if is_dict_envelope(value):
            return int(ctx.crdt.pn_counter(key).value())
        if isinstance(value, dict) and "balance" in value:
            return int(value["balance"])
        raise ChaincodeError(f"malformed balance at {key}")

    def _write_balance(
        self, ctx: Context, key: str, new_balance: int, mode: str
    ) -> None:
        if mode == "plain":
            ctx.state.put(key, {"balance": new_balance})
        elif mode == "naive-crdt":
            ctx.crdt.doc(key).merge_patch({"balance": str(new_balance)})
        else:
            raise ChaincodeError(f"absolute writes unsupported in mode {mode!r}")

    def _adjust_balance(self, ctx: Context, key: str, delta: int, mode: str) -> None:
        """Apply a relative change.  In pn-counter mode this is a commuting
        counter adjustment; in the other modes it is read-modify-write."""

        if mode == "pn-counter":
            ctx.crdt.pn_counter(key).adjust(delta)
            return
        current = self._read_balance(ctx, key)
        new_balance = current + delta
        if mode == "plain" and new_balance < 0:
            raise ChaincodeError(f"insufficient funds at {key}")
        self._write_balance(ctx, key, new_balance, mode)

    @staticmethod
    def _check_mode(mode: str) -> str:
        if mode not in MODES:
            raise ChaincodeError(f"unknown mode {mode!r}; pick one of {MODES}")
        return mode

    # -- the six operations --------------------------------------------------

    @transaction
    def create_account(
        self, ctx: Context, account: str, checking: int, savings: int, mode: str
    ) -> Json:
        self._check_mode(mode)
        if mode == "pn-counter":
            # Genesis writes are MVCC-protected plain writes: racing
            # creations of one account conflict instead of merging.
            ctx.crdt.pn_counter(checking_key(account)).initialize(checking)
            ctx.crdt.pn_counter(savings_key(account)).initialize(savings)
        else:
            ctx.state.put(checking_key(account), {"balance": checking})
            ctx.state.put(savings_key(account), {"balance": savings})
        return {"created": account}

    @transaction
    def transact_savings(
        self, ctx: Context, account: str, amount: int, mode: str
    ) -> Json:
        """Add ``amount`` (may be negative) to the savings balance."""

        self._check_mode(mode)
        self._adjust_balance(ctx, savings_key(account), amount, mode)
        return {"ok": True}

    @transaction
    def deposit_checking(
        self, ctx: Context, account: str, amount: int, mode: str
    ) -> Json:
        self._check_mode(mode)
        if amount < 0:
            raise ChaincodeError("deposits must be non-negative")
        self._adjust_balance(ctx, checking_key(account), amount, mode)
        return {"ok": True}

    @transaction
    def send_payment(
        self, ctx: Context, source: str, destination: str, amount: int, mode: str
    ) -> Json:
        """Move ``amount`` from one checking account to another."""

        self._check_mode(mode)
        if amount < 0:
            raise ChaincodeError("payments must be non-negative")
        self._adjust_balance(ctx, checking_key(source), -amount, mode)
        self._adjust_balance(ctx, checking_key(destination), amount, mode)
        return {"paid": amount}

    @transaction
    def write_check(self, ctx: Context, account: str, amount: int, mode: str) -> Json:
        self._check_mode(mode)
        self._adjust_balance(ctx, checking_key(account), -amount, mode)
        return {"ok": True}

    @transaction
    def amalgamate(self, ctx: Context, source: str, destination: str, mode: str) -> Json:
        """Move all of ``source``'s funds into ``destination``'s checking."""

        self._check_mode(mode)
        checking = self._read_balance(ctx, checking_key(source))
        savings = self._read_balance(ctx, savings_key(source))
        self._adjust_balance(ctx, checking_key(source), -checking, mode)
        self._adjust_balance(ctx, savings_key(source), -savings, mode)
        self._adjust_balance(ctx, checking_key(destination), checking + savings, mode)
        return {"moved": checking + savings}

    @query
    def balance(self, ctx: Context, account: str) -> Json:
        checking = self._read_balance(ctx, checking_key(account))
        savings = self._read_balance(ctx, savings_key(account))
        return {"checking": checking, "savings": savings, "total": checking + savings}


def total_money(contract, accounts) -> int:
    """Sum of all balances across ``accounts`` on the anchor peer.

    ``contract`` is a Gateway :class:`~repro.gateway.gateway.Contract` for
    the smallbank chaincode.
    """

    total = 0
    for account in accounts:
        total += contract.evaluate("balance", account)["total"]
    return total
