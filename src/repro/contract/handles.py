"""Typed CRDT state handles: ``ctx.crdt.counter(key).incr()`` and friends.

The paper's ``putCRDT`` is deliberately dumb — "this command only informs
the peer that this value is a CRDT" (§5.2) — which left every contract
hand-building ``{"crdt": ..., "state": ...}`` envelope dicts.  A handle
hides that plumbing behind the CRDT's own operation interface (Almeida's
"CRDTs as typed objects"): it

1. reads the committed envelope for its key (recording the read, exactly
   like any other chaincode read),
2. applies mutations through the :mod:`repro.crdt` classes, and
3. buffers the change (a delta, or the whole state — see
   :class:`StateCrdtHandle`) through ``put_crdt`` so the FabricCRDT
   committer merges it (Algorithm 1) instead of MVCC-validating it.

Handles are cached per key within one invocation, so repeated mutations
compose (two ``incr`` calls yield one write carrying both), and contract
code never touches envelope dicts or envelope-shape sniffing.

Handle kinds::

    ctx.crdt.counter(key)     # G-Counter   — incr / value
    ctx.crdt.pn_counter(key)  # PN-Counter  — incr / decr / adjust / value
    ctx.crdt.set(key)         # OR-Set      — add / discard / contains / elements
    ctx.crdt.register(key)    # LWW-Register— assign / value
    ctx.crdt.doc(key)         # JSON CRDT   — merge_patch / get
    ctx.crdt.text(key)        # Text (RGA)  — insert / delete / append / text
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.errors import ChaincodeError
from ..common.serialization import deep_copy_json
from ..common.types import Json
from ..crdt.base import StateCRDT
from ..crdt.gcounter import GCounter
from ..crdt.lwwregister import LWWRegister
from ..crdt.orset import ORSet
from ..crdt.pncounter import PNCounter
from ..crdt.registry import crdt_from_dict_envelope, crdt_to_dict_envelope, is_dict_envelope
from ..crdt.text import TextDocument
from ..fabric.chaincode import ShimStub


class StateCrdtHandle:
    """Base handle over one key holding a state-based CRDT envelope.

    The handle keeps the *view* — the committed state merged with this
    invocation's mutations, which ``value()`` and the mutators return.  A
    counter handle also keeps the sum of its operations and a set handle the
    join of its δ-mutators' deltas, and each ships that when the committer
    merges every CRDT write into the key's committed value
    (``stub.crdt_deltas``): the committed bytes are those the view would
    have produced, for a fraction of the envelope.  A vanilla peer stores a
    CRDT write as it is, so there the view ships — for a counter, the new
    total.
    """

    #: Factory kind name (used in error messages and the factory cache).
    kind: str = "crdt"
    #: The concrete CRDT class this handle manages.
    crdt_cls: type[StateCRDT] = StateCRDT

    def __init__(self, stub: ShimStub, key: str) -> None:
        self._stub = stub
        self.key = key
        self._view: Optional[StateCRDT] = None
        self._delta: Optional[StateCRDT] = None

    # -- plumbing -----------------------------------------------------------

    def _load(self) -> StateCRDT:
        """The view: committed envelope on first touch, else fresh."""

        if self._view is None:
            committed = self._stub.get_state(self.key)
            if committed is None:
                self._view = self.crdt_cls()
            elif is_dict_envelope(committed):
                decoded = crdt_from_dict_envelope(committed)
                if not isinstance(decoded, self.crdt_cls):
                    raise ChaincodeError(
                        f"key {self.key!r} holds a {decoded.type_name!r} CRDT, "
                        f"not a {self.crdt_cls.type_name!r}"
                    )
                self._view = decoded
            else:
                raise ChaincodeError(
                    f"key {self.key!r} does not hold a CRDT envelope "
                    f"(found plain JSON; use ctx.state for ordinary values)"
                )
        return self._view

    def _store(self, crdt: StateCRDT) -> None:
        """Adopt ``crdt`` as the view and buffer all of it as a CRDT write."""

        self._view = crdt
        self._stub.put_crdt(self.key, crdt_to_dict_envelope(crdt))

    def _apply(self, delta: StateCRDT) -> None:
        """Merge ``delta`` into the view and into this invocation's delta, and
        buffer the delta (or, on a vanilla channel, the view) as a CRDT write."""

        self._view = self._load().merge(delta)
        self._delta = delta if self._delta is None else self._delta.merge(delta)
        shipped = self._delta if self._stub.crdt_deltas else self._view
        self._stub.put_crdt(self.key, crdt_to_dict_envelope(shipped))

    # -- shared surface ------------------------------------------------------

    def exists(self) -> bool:
        """True if the committed state holds an envelope for this key."""

        return is_dict_envelope(self._stub.get_state(self.key))

    def value(self) -> Any:
        """The locally observed value (committed plus this tx's mutations)."""

        return self._load().value()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(key={self.key!r})"


class CounterHandle(StateCrdtHandle):
    """A grow-only counter (G-Counter)."""

    kind = "counter"
    crdt_cls = GCounter

    def incr(self, amount: int = 1, actor: Optional[str] = None) -> int:
        """Increment by ``amount`` (a non-negative ``int``).

        Returns the locally observed new total.  On a merging channel the
        write is the operation ``+amount`` alone, which the committer adds
        to the committed total once, for this transaction, in block order:
        every increment counts, concurrent ones included, and two
        transactions under one actor count twice.  ``actor`` is accepted and
        has no effect on the committed value; a counter keeps no per-actor
        entries.
        """

        if amount < 0:
            raise ChaincodeError(
                "grow-only counters cannot be decremented; use ctx.crdt.pn_counter"
            )
        self._apply(GCounter(amount))
        return self.value()


class PNCounterHandle(StateCrdtHandle):
    """An increment/decrement counter (PN-Counter)."""

    kind = "pn_counter"
    crdt_cls = PNCounter

    def incr(self, amount: int = 1) -> int:
        return self.adjust(amount)

    def decr(self, amount: int = 1) -> int:
        return self.adjust(-amount)

    def adjust(self, delta: int) -> int:
        """Add a signed ``int`` delta; returns the locally observed new value.

        Like :meth:`CounterHandle.incr`, the write is the operation
        ``±delta``, added to the committed total once, for this transaction.
        """

        self._apply(PNCounter(delta))
        return self.value()

    def initialize(self, value: int) -> int:
        """Genesis write: an MVCC-protected plain write of the initial state.

        Unlike :meth:`adjust`, the envelope goes through ``put_state``, so
        two transactions racing to create the same key conflict instead of
        merging — the right semantics for account creation.
        """

        counter = PNCounter(value)
        # The genesis state is this invocation's delta too: a later adjust
        # turns the write into a merged one, which must still carry it.
        self._view = self._delta = counter
        self._stub.put_state(self.key, crdt_to_dict_envelope(counter))
        return self.value()


class SetHandle(StateCrdtHandle):
    """An observed-remove set (OR-Set) of JSON values, add-wins."""

    kind = "set"
    crdt_cls = ORSet

    def __init__(self, stub: ShimStub, key: str) -> None:
        super().__init__(stub, key)
        self._tag_sequence = 0

    def add(self, element: Json, tag: Optional[str] = None) -> None:
        """Add ``element`` under a unique tag (default: derived from tx ID)."""

        orset = self._load()
        assert isinstance(orset, ORSet)
        if tag is None:
            self._tag_sequence += 1
            tag = f"{self._stub.tx_id}#{self._tag_sequence}"
        self._apply(orset.add_delta(element, tag))

    def discard(self, element: Json) -> None:
        """Remove every currently observed tag of ``element`` (add-wins)."""

        orset = self._load()
        assert isinstance(orset, ORSet)
        self._apply(orset.remove_delta(element))

    def contains(self, element: Json) -> bool:
        orset = self._load()
        assert isinstance(orset, ORSet)
        return element in orset

    def elements(self) -> list:
        return list(self._load().value())


class RegisterHandle(StateCrdtHandle):
    """A last-writer-wins register with deterministic tie-breaking.

    Ships its whole state on every channel: a register's state is one value
    and one stamp, which is already all a delta would hold.
    """

    kind = "register"
    crdt_cls = LWWRegister

    def assign(self, value: Json) -> None:
        """Write ``value`` with a stamp that dominates the committed one.

        The stamp's counter is the committed counter plus one and its actor
        is the transaction ID, so concurrent assignments in one block
        resolve deterministically (highest ``(counter, tx_id)`` wins).
        """

        from ..common.clock import LamportTimestamp

        register = self._load()
        assert isinstance(register, LWWRegister)
        previous = register.stamp
        counter = (previous.counter if previous is not None else 0) + 1
        self._store(register.assign(value, LamportTimestamp(counter, self._stub.tx_id)))


class TextHandle(StateCrdtHandle):
    """A collaborative plain-text document (RGA character sequence).

    Ships its whole state on every channel: an RGA delta's inserted
    characters hang off anchor elements that live in committed state, so a
    delta alone is not a mergeable document.
    """

    kind = "text"
    crdt_cls = TextDocument

    def _load(self) -> StateCRDT:
        if self._view is None:
            document = super()._load()
            assert isinstance(document, TextDocument)
            # Edit under this transaction's identity so concurrent edits by
            # different transactions never collide on element IDs.
            self._view = document.fork(self._stub.tx_id)
        return self._view

    def insert(self, index: int, text: str) -> None:
        document = self._load()
        assert isinstance(document, TextDocument)
        self._store(document.insert(index, text))

    def append(self, text: str) -> None:
        document = self._load()
        assert isinstance(document, TextDocument)
        self._store(document.append(text))

    def delete(self, index: int, length: int = 1) -> None:
        document = self._load()
        assert isinstance(document, TextDocument)
        self._store(document.delete(index, length))

    def text(self) -> str:
        document = self._load()
        assert isinstance(document, TextDocument)
        return document.text()

    def __len__(self) -> int:
        return len(self.text())


class DocHandle:
    """A JSON-CRDT document: partial updates merged field-wise at commit.

    Unlike the envelope handles, JSON CRDT values travel as *plain JSON*
    (the paper's §5 model): the handle buffers a patch through ``put_crdt``
    and the committer merges it into the key's JSON CRDT (Algorithm 2) —
    maps merge recursively, list items accumulate.  Repeated
    ``merge_patch`` calls within one invocation deep-merge locally first,
    so one transaction produces one combined patch.
    """

    kind = "doc"

    def __init__(self, stub: ShimStub, key: str) -> None:
        self._stub = stub
        self.key = key
        self._patch: Optional[dict] = None

    def get(self) -> Optional[dict]:
        """The committed JSON object at this key (``None`` if absent)."""

        committed = self._stub.get_state(self.key)
        if committed is None:
            return None
        if is_dict_envelope(committed):
            raise ChaincodeError(
                f"key {self.key!r} holds a state-CRDT envelope, not a JSON document"
            )
        if not isinstance(committed, dict):
            raise ChaincodeError(
                f"key {self.key!r} holds {type(committed).__name__}, not a JSON object"
            )
        return committed

    def merge_patch(self, patch: dict) -> None:
        """Buffer ``patch`` for commit-time JSON-CRDT merging."""

        if not isinstance(patch, dict):
            raise ChaincodeError(
                f"merge_patch takes a JSON object, got {type(patch).__name__}"
            )
        if is_dict_envelope(patch):
            raise ChaincodeError("merge_patch payloads cannot be CRDT envelopes")
        if self._patch is None:
            self._patch = deep_copy_json(patch)
        else:
            _merge_into(self._patch, patch)
        self._stub.put_crdt(self.key, self._patch)

    def __repr__(self) -> str:
        return f"DocHandle(key={self.key!r})"


def _merge_into(base: dict, patch: dict) -> None:
    """Deep-merge ``patch`` into ``base`` the way the committer would:
    nested maps merge recursively, lists concatenate, scalars overwrite."""

    for key, value in patch.items():
        current = base.get(key)
        if isinstance(value, dict) and isinstance(current, dict):
            _merge_into(current, value)
        elif isinstance(value, list) and isinstance(current, list):
            current.extend(deep_copy_json(item) for item in value)
        else:
            base[key] = deep_copy_json(value)


#: Handle classes by factory kind.
HANDLE_KINDS = {
    cls.kind: cls
    for cls in (CounterHandle, PNCounterHandle, SetHandle, RegisterHandle, TextHandle)
}


class CrdtFactory:
    """``ctx.crdt`` — typed handle factory for one invocation.

    Handles are cached per key: asking for the same key twice returns the
    same handle (so mutations compose), and asking for the same key under
    two different kinds is an error.
    """

    def __init__(self, stub: ShimStub) -> None:
        self._stub = stub
        self._handles: dict[str, object] = {}

    def counter(self, key: str) -> CounterHandle:
        """A grow-only counter at ``key``."""

        return self._handle(CounterHandle, key)

    def pn_counter(self, key: str) -> PNCounterHandle:
        """An increment/decrement counter at ``key``."""

        return self._handle(PNCounterHandle, key)

    def set(self, key: str) -> SetHandle:
        """An observed-remove set at ``key``."""

        return self._handle(SetHandle, key)

    def register(self, key: str) -> RegisterHandle:
        """A last-writer-wins register at ``key``."""

        return self._handle(RegisterHandle, key)

    def text(self, key: str) -> TextHandle:
        """A collaborative text document at ``key``."""

        return self._handle(TextHandle, key)

    def doc(self, key: str) -> DocHandle:
        """A JSON-CRDT document at ``key`` (plain-JSON merge patches)."""

        return self._handle(DocHandle, key)

    def _handle(self, handle_cls: type, key: str):
        existing = self._handles.get(key)
        if existing is not None:
            if not isinstance(existing, handle_cls):
                raise ChaincodeError(
                    f"key {key!r} already opened as {existing.kind!r} "
                    f"in this transaction; cannot reopen as {handle_cls.kind!r}"
                )
            return existing
        handle = handle_cls(self._stub, key)
        self._handles[key] = handle
        return handle
