"""The Contract base class and its ``@transaction`` / ``@query`` decorators.

Fabric's shim hands chaincode one entry, ``invoke(stub, function, args)``,
with every argument as the proposal's raw string.  :class:`Contract`
implements that entry with an explicit registry:

* handlers are *decorated* — ``@transaction`` marks a submit-style handler,
  ``@query`` a read-only one; anything undecorated, and any ``_private``
  name, is unreachable from a proposal;
* arguments are *coerced* from the proposal's strings to the handler's
  annotations (``int``, ``float``, ``bool``, ``dict``, ``list``, ``str``)
  with readable errors, so chaincode never starts with ``int(amount)``
  boilerplate;
* unknown functions fail with the list of available transaction names;
* handlers receive a :class:`~repro.contract.context.Context` instead of the
  raw stub — committed state behind ``ctx.state``, typed CRDT handles behind
  ``ctx.crdt``, chaincode events behind ``ctx.events``.

Example::

    class Voting(Contract):
        name = "voting"

        @transaction
        def vote(self, ctx, ballot: str, option: str, voter: str):
            total = ctx.crdt.counter(f"vote/{ballot}/{option}").incr(actor=voter)
            return {"ballot": ballot, "option": option, "observed_total": total}

        @query
        def tally(self, ctx, ballot: str):
            ...
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..common.errors import ChaincodeError
from ..common.types import Json
from ..fabric.chaincode import ShimStub
from .context import Context

_SPEC_ATTR = "__contract_spec__"

#: Annotation names resolvable without importing the handler's module scope.
_NAMED_TYPES: dict[str, Any] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "dict": dict,
    "list": list,
    "Json": Json,
    "Any": Any,
}

_TRUE_STRINGS = frozenset({"true", "1", "yes", "on"})
_FALSE_STRINGS = frozenset({"false", "0", "no", "off"})


@dataclass(frozen=True)
class Parameter:
    """One handler parameter after ``(self, ctx)``."""

    name: str
    annotation: Any
    required: bool

    def describe(self) -> str:
        type_name = getattr(self.annotation, "__name__", None)
        rendered = f"{self.name}: {type_name}" if type_name else self.name
        return rendered if self.required else f"[{rendered}]"


@dataclass(frozen=True)
class TransactionSpec:
    """Registry entry for one decorated handler."""

    name: str
    kind: str  # "submit" | "query"
    handler: Callable[..., Json]
    parameters: tuple[Parameter, ...]
    variadic: bool
    doc: str = ""

    def usage(self) -> str:
        parts = [parameter.describe() for parameter in self.parameters]
        if self.variadic:
            parts.append("*args")
        return f"{self.name}({', '.join(parts)})"

    def describe(self) -> dict:
        """JSON-friendly metadata (surfaced by the Gateway)."""

        return {
            "name": self.name,
            "kind": self.kind,
            "usage": self.usage(),
            "parameters": [
                {
                    "name": parameter.name,
                    "type": getattr(parameter.annotation, "__name__", "str"),
                    "required": parameter.required,
                }
                for parameter in self.parameters
            ],
            "doc": self.doc,
        }

    def coerce(self, contract_name: str, args: tuple[str, ...]) -> list:
        """Typed argument coercion from the proposal's string args."""

        required = sum(1 for parameter in self.parameters if parameter.required)
        maximum = None if self.variadic else len(self.parameters)
        if len(args) < required or (maximum is not None and len(args) > maximum):
            if maximum is None:
                expected = f"at least {required}"
            elif maximum == required:
                expected = str(required)
            else:
                expected = f"{required}..{maximum}"
            raise ChaincodeError(
                f"{contract_name}: {self.name} takes {expected} "
                f"argument(s), got {len(args)} — usage: {self.usage()}"
            )
        coerced = []
        for index, arg in enumerate(args):
            if index < len(self.parameters):
                parameter = self.parameters[index]
                coerced.append(
                    _coerce_one(contract_name, self.name, parameter, arg)
                )
            else:  # variadic tail stays string-typed
                coerced.append(arg)
        return coerced


def _coerce_one(contract_name: str, function: str, parameter: Parameter, arg: str) -> Any:
    annotation = parameter.annotation

    def fail(detail: str) -> ChaincodeError:
        return ChaincodeError(
            f"{contract_name}: {function} argument {parameter.name!r} {detail}"
        )

    if not isinstance(arg, str):
        # Direct (test) callers may pass rich values; trust matching types.
        return arg
    if annotation in (str, inspect.Parameter.empty, None, Any, Json):
        if annotation in (Any, Json):
            try:
                return json.loads(arg)
            except json.JSONDecodeError:
                return arg  # bare strings ride through unchanged
        return arg
    if annotation is int:
        try:
            return int(arg)
        except ValueError:
            raise fail(f"must be an integer, got {arg!r}") from None
    if annotation is float:
        try:
            return float(arg)
        except ValueError:
            raise fail(f"must be a number, got {arg!r}") from None
    if annotation is bool:
        lowered = arg.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise fail(f"must be a boolean (true/false), got {arg!r}")
    if annotation in (dict, list):
        try:
            value = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise fail(f"must be JSON ({exc})") from None
        if not isinstance(value, annotation):
            raise fail(
                f"must be a JSON {annotation.__name__}, got {type(value).__name__}"
            )
        return value
    return arg  # unrecognised annotation: hand the raw string through


def _build_spec(handler: Callable, kind: str, name: Optional[str]) -> TransactionSpec:
    function_name = name if name is not None else handler.__name__
    if not function_name.isidentifier() or function_name.startswith("_"):
        raise ChaincodeError(
            f"transaction name must be a public identifier, got {function_name!r}"
        )
    signature = inspect.signature(handler)
    raw_parameters = list(signature.parameters.values())
    if len(raw_parameters) < 2:
        raise ChaincodeError(
            f"{function_name}: handlers take (self, ctx, ...), got {signature}"
        )
    annotations = _resolved_annotations(handler)
    parameters: list[Parameter] = []
    variadic = False
    for raw in raw_parameters[2:]:
        if raw.kind is inspect.Parameter.VAR_POSITIONAL:
            variadic = True
            continue
        if raw.kind is inspect.Parameter.VAR_KEYWORD:
            continue
        parameters.append(
            Parameter(
                name=raw.name,
                annotation=annotations.get(raw.name, inspect.Parameter.empty),
                required=raw.default is inspect.Parameter.empty,
            )
        )
    return TransactionSpec(
        name=function_name,
        kind=kind,
        handler=handler,
        parameters=tuple(parameters),
        variadic=variadic,
        doc=inspect.getdoc(handler) or "",
    )


def _resolved_annotations(handler: Callable) -> dict[str, Any]:
    """Handler annotations with ``from __future__ import annotations`` undone."""

    resolved: dict[str, Any] = {}
    for param_name, annotation in getattr(handler, "__annotations__", {}).items():
        if isinstance(annotation, str):
            annotation = _NAMED_TYPES.get(annotation, annotation)
        resolved[param_name] = annotation
    return resolved


def transaction(func: Optional[Callable] = None, *, name: Optional[str] = None):
    """Mark a method as a submit-style transaction handler."""

    def mark(handler: Callable) -> Callable:
        setattr(handler, _SPEC_ATTR, _build_spec(handler, "submit", name))
        return handler

    return mark(func) if func is not None else mark


def query(func: Optional[Callable] = None, *, name: Optional[str] = None):
    """Mark a method as a read-only query handler.

    Queries may not buffer writes; a handler that calls ``put``/``delete``
    fails the invocation with a :class:`ChaincodeError`.
    """

    def mark(handler: Callable) -> Callable:
        setattr(handler, _SPEC_ATTR, _build_spec(handler, "query", name))
        return handler

    return mark(func) if func is not None else mark


class Contract:
    """Base class for decorator-style chaincode.

    Subclasses set :attr:`name` and decorate handlers with
    :func:`transaction` / :func:`query`.  Handlers receive ``(self, ctx,
    *coerced_args)`` where ``ctx`` is a fresh
    :class:`~repro.contract.context.Context` per invocation.

    The class satisfies the channel's deployment protocol,
    :class:`~repro.fabric.chaincode.DeployableChaincode` (``name`` +
    ``invoke``), so ``network.deploy(...)`` and the Gateway accept it.
    """

    #: Chaincode name used in proposals.
    name: str = "contract"

    _transactions: dict[str, TransactionSpec] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        registry: dict[str, TransactionSpec] = {}
        for klass in reversed(cls.__mro__):
            for attribute in vars(klass).values():
                spec = getattr(attribute, _SPEC_ATTR, None)
                if isinstance(spec, TransactionSpec):
                    registry[spec.name] = spec
        cls._transactions = registry

    @classmethod
    def transactions(cls) -> dict[str, TransactionSpec]:
        """The registered transaction specs, by function name."""

        return dict(cls._transactions)

    @classmethod
    def transaction_names(cls) -> tuple[str, ...]:
        return tuple(sorted(cls._transactions))

    def new_context(self, stub: ShimStub) -> Context:
        """Build the per-invocation context (override to extend)."""

        return Context(stub)

    def invoke(self, stub: ShimStub, function: str, args: tuple[str, ...]) -> Json:
        spec = self._transactions.get(function)
        if spec is None:
            raise ChaincodeError(
                f"{self.name}: unknown function {function!r}; "
                f"available: {', '.join(self.transaction_names()) or '(none)'}"
            )
        coerced = spec.coerce(self.name, tuple(args))
        ctx = self.new_context(stub)
        # Dispatch through the instance, not the spec's function object, so
        # normal Python overrides of a decorated handler take effect.
        handler = getattr(self, spec.handler.__name__, None)
        result = handler(ctx, *coerced) if handler is not None else (
            spec.handler(self, ctx, *coerced)
        )
        if spec.kind == "query" and stub.build_rwset().writes:
            raise ChaincodeError(
                f"{self.name}: query {function!r} attempted to write state"
            )
        return result

    def init(self, stub: ShimStub) -> None:
        """Optional: populate initial state (called on deployment)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
