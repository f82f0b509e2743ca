"""The chaincode deployment protocol and the shim stub.

Chaincode runs during *endorsement* (Step 1–2 of Figure 1): the peer executes
``invoke`` against a read-only snapshot of its world state while the stub
records a read-write set.  Nothing is written to the ledger here — writes are
buffered into the write-set to be validated and committed after ordering.

The stub exposes the familiar Fabric shim surface —
``get_state`` / ``put_state`` / ``del_state`` / ``get_state_by_range`` /
``get_query_result`` — plus FabricCRDT's one extension, ``put_crdt``, which
flags the written key-value as a CRDT so the committer merges instead of
MVCC-validating it (the paper's ``putCRDT``, §5.2: "this command only informs
the peer that this value is a CRDT and does not interact with the CRDT in
any way").

Fabric semantics preserved deliberately:

* **No read-your-writes**: ``get_state`` after ``put_state`` in the same
  invocation returns the *committed* value, exactly like Fabric's tx
  simulator.  Tested in ``tests/fabric/test_chaincode.py``.
* Reads record the committed version (or ``None`` for absent keys).
* The last write to a key within one invocation wins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence, runtime_checkable

from ..common.errors import ChaincodeError
from ..common.hashing import sha256
from ..common.serialization import from_bytes, to_bytes
from ..common.types import (
    Json,
    KeyModification,
    RangeQueryInfo,
    ReadItem,
    ReadWriteSet,
    WriteItem,
)
from .policy import PolicyNode
from .store import StateStore

if TYPE_CHECKING:  # pragma: no cover
    from .transaction import ChaincodeEvent

#: Separators used by Fabric for composite keys: a namespace sentinel that
#: cannot appear in ordinary keys, and a per-attribute delimiter.
COMPOSITE_PREFIX = "\x00"
COMPOSITE_SEPARATOR = "\x00"


def create_composite_key(object_type: str, attributes: Sequence[str]) -> str:
    """Fabric's ``CreateCompositeKey``: a null-delimited hierarchical key.

    Composite keys sort by (object_type, attr1, attr2, ...), which makes
    partial-prefix range scans possible.
    """

    if not object_type:
        raise ChaincodeError("composite keys need a non-empty object type")
    for part in (object_type, *attributes):
        if COMPOSITE_SEPARATOR in part:
            raise ChaincodeError(f"component contains the separator: {part!r}")
    return (
        COMPOSITE_PREFIX
        + object_type
        + COMPOSITE_SEPARATOR
        + COMPOSITE_SEPARATOR.join(attributes)
        + (COMPOSITE_SEPARATOR if attributes else "")
    )


def split_composite_key(key: str) -> tuple[str, list[str]]:
    """Inverse of :func:`create_composite_key`."""

    if not key.startswith(COMPOSITE_PREFIX):
        raise ChaincodeError(f"not a composite key: {key!r}")
    parts = key[len(COMPOSITE_PREFIX):].split(COMPOSITE_SEPARATOR)
    if parts and parts[-1] == "":
        parts = parts[:-1]
    if not parts:
        raise ChaincodeError(f"malformed composite key: {key!r}")
    return parts[0], parts[1:]


#: Supplies committed key history to the shim (wired by the peer).
HistoryProvider = Callable[[str], Sequence[KeyModification]]


class ShimStub:
    """Recording facade over a world-state snapshot for one invocation."""

    def __init__(
        self,
        state: StateStore,
        tx_id: str,
        timestamp: float = 0.0,
        history: Optional[HistoryProvider] = None,
        crdt_deltas: bool = False,
    ) -> None:
        self._state = state
        self.tx_id = tx_id
        self.timestamp = timestamp
        self._history = history
        #: Whether the committer merges each ``put_crdt`` write into the
        #: key's committed value (a FabricCRDT peer), so a state-CRDT handle
        #: may write just its delta.  ``False`` — a vanilla peer, which
        #: stores the write as it is — makes handles write whole states.
        self.crdt_deltas = crdt_deltas
        self._reads: list[ReadItem] = []
        self._read_keys: set[str] = set()
        self._writes: dict[str, WriteItem] = {}  # key -> last write wins
        self._write_order: list[str] = []
        self._range_queries: list[RangeQueryInfo] = []
        self._event: Optional["ChaincodeEvent"] = None

    # -- reads -------------------------------------------------------------------

    def get_state(self, key: str) -> Optional[Json]:
        """Read a key's committed JSON value (``None`` if absent)."""

        self._require_key(key)
        entry = self._state.get(key)
        if key not in self._read_keys:
            self._read_keys.add(key)
            self._reads.append(
                ReadItem(key, entry.version if entry is not None else None)
            )
        if entry is None:
            return None
        return from_bytes(entry.value)

    def get_state_raw(self, key: str) -> Optional[bytes]:
        """Like :meth:`get_state` but returns raw bytes."""

        self._require_key(key)
        entry = self._state.get(key)
        if key not in self._read_keys:
            self._read_keys.add(key)
            self._reads.append(
                ReadItem(key, entry.version if entry is not None else None)
            )
        return entry.value if entry is not None else None

    def get_state_by_range(self, start_key: str, end_key: str) -> list[tuple[str, Json]]:
        """Range scan ``[start_key, end_key)``; records a phantom-read guard."""

        results = []
        hash_material = []
        for key, entry in self._state.range_scan(start_key, end_key):
            results.append((key, from_bytes(entry.value)))
            hash_material.append(f"{key}\x00{entry.version}")
        self._range_queries.append(
            RangeQueryInfo(
                start_key=start_key,
                end_key=end_key,
                results_hash=sha256("\x01".join(hash_material).encode("utf-8")),
            )
        )
        return results

    def get_query_result(self, selector: dict, limit: Optional[int] = None) -> list[tuple[str, Json]]:
        """CouchDB rich query.  Like Fabric, results are *not* re-validated at
        commit time (rich queries give no phantom protection)."""

        return [
            (key, from_bytes(value))
            for key, value in self._state.rich_query(selector, limit)
        ]

    def get_state_by_partial_composite_key(
        self, object_type: str, attributes: Sequence[str] = ()
    ) -> list[tuple[str, Json]]:
        """Range scan over a composite-key prefix (phantom-protected)."""

        prefix = create_composite_key(object_type, attributes)
        if not attributes:
            prefix = COMPOSITE_PREFIX + object_type + COMPOSITE_SEPARATOR
        return self.get_state_by_range(prefix, prefix + "\U0010ffff")

    def get_history_for_key(self, key: str) -> list[dict]:
        """Committed modification history of a key (``GetHistoryForKey``).

        Like Fabric, history reads are *not* recorded in the read-set and
        give no validation guarantees; they reflect the endorsing peer's
        committed chain at simulation time.
        """

        self._require_key(key)
        if self._history is None:
            raise ChaincodeError("history queries are not available on this stub")
        return [
            {
                "tx_id": modification.tx_id,
                "value": from_bytes(modification.value) if not modification.is_delete else None,
                "is_delete": modification.is_delete,
                "version": str(modification.version),
            }
            for modification in self._history(key)
        ]

    # -- writes ------------------------------------------------------------------

    def put_state(self, key: str, value: Json) -> None:
        """Buffer a write of ``value`` (canonical JSON) to ``key``."""

        self._require_key(key)
        self._record_write(WriteItem(key, to_bytes(value)))

    def put_state_raw(self, key: str, value: bytes) -> None:
        self._require_key(key)
        self._record_write(WriteItem(key, bytes(value)))

    def put_crdt(self, key: str, value: Json) -> None:
        """FabricCRDT: write ``value`` flagged as a CRDT key-value.

        The value itself is plain JSON — all CRDT machinery runs on the peer
        at commit time (Algorithm 1/2).
        """

        self._require_key(key)
        self._record_write(WriteItem(key, to_bytes(value), is_crdt=True))

    def del_state(self, key: str) -> None:
        self._require_key(key)
        self._record_write(WriteItem(key, b"", is_delete=True))

    def _record_write(self, write: WriteItem) -> None:
        if write.key not in self._writes:
            self._write_order.append(write.key)
        self._writes[write.key] = write

    @staticmethod
    def _require_key(key: str) -> None:
        if not key or not isinstance(key, str):
            raise ChaincodeError(f"invalid state key: {key!r}")

    # -- events ------------------------------------------------------------------

    def set_event(self, name: str, payload: Json = None) -> None:
        """Set this invocation's chaincode event (Fabric's ``SetEvent``).

        Like Fabric, at most one event travels per transaction — a second
        call replaces the first.  The event is part of the endorsed payload
        (all endorsers must produce the same one) and is surfaced to the
        client with the commit notification.
        """

        from .transaction import ChaincodeEvent

        if not name or not isinstance(name, str):
            raise ChaincodeError(f"invalid event name: {name!r}")
        self._event = ChaincodeEvent(name, payload)

    @property
    def event(self) -> Optional["ChaincodeEvent"]:
        return self._event

    # -- result -------------------------------------------------------------------

    def build_rwset(self) -> ReadWriteSet:
        return ReadWriteSet(
            reads=tuple(self._reads),
            writes=tuple(self._writes[key] for key in self._write_order),
            range_queries=tuple(self._range_queries),
        )


@runtime_checkable
class DeployableChaincode(Protocol):
    """What a channel needs from deployed chaincode: a name and Fabric's one
    shim entry, ``invoke(stub, function, args)``.

    :class:`repro.contract.Contract` implements it with a decorator registry.
    """

    name: str

    def invoke(self, stub: ShimStub, function: str, args: tuple[str, ...]) -> Json:
        ...  # pragma: no cover - protocol definition


class ChaincodeRegistry:
    """Chaincodes deployed on a channel, by name, each with the endorsement
    policy it was deployed under: together, the chaincode's definition.

    Validation (VSCC) reads the policy from here, never from a transaction.
    """

    def __init__(self) -> None:
        self._chaincodes: dict[str, DeployableChaincode] = {}
        self._policy_of: dict[str, PolicyNode] = {}

    def deploy(self, chaincode: DeployableChaincode, policy: PolicyNode) -> None:
        if not getattr(chaincode, "name", None):
            raise ChaincodeError("chaincode must have a name")
        if not callable(getattr(chaincode, "invoke", None)):
            raise ChaincodeError(
                f"cannot deploy {type(chaincode).__name__}: no invoke(stub, function, args)"
            )
        self._chaincodes[chaincode.name] = chaincode
        self._policy_of[chaincode.name] = policy

    def policy_for(self, name: str) -> Optional[PolicyNode]:
        """The policy ``name`` was deployed under; ``None`` if it is not deployed."""

        return self._policy_of.get(name)

    def get(self, name: str) -> DeployableChaincode:
        try:
            return self._chaincodes[name]
        except KeyError:
            raise ChaincodeError(f"chaincode not deployed: {name}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._chaincodes))

    def __contains__(self, name: str) -> bool:
        return name in self._chaincodes
