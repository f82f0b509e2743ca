"""Tests for the Contract base class: registry, dispatch, coercion, context."""

import json

import pytest

from repro.common.errors import ChaincodeError
from repro.contract import Contract, query, transaction
from repro.fabric.chaincode import ChaincodeRegistry, ShimStub
from repro.fabric.store import MemoryStore
from repro.gateway import Gateway


class Typed(Contract):
    name = "typed"

    @transaction
    def mixed(self, ctx, a: str, n: int, x: float, flag: bool, obj: dict, items: list):
        return {"a": a, "n": n, "x": x, "flag": flag, "obj": obj, "items": items}

    @transaction
    def with_default(self, ctx, a: str, n: int = 7):
        return {"a": a, "n": n}

    @transaction(name="renamed")
    def internal_name(self, ctx):
        return {"ok": True}

    @query
    def lookup(self, ctx, key: str):
        return ctx.state.get(key)

    @query
    def bad_query(self, ctx, key: str):
        ctx.state.put(key, {"oops": True})
        return {}

    def not_registered(self, ctx):  # no decorator: unreachable from proposals
        raise AssertionError("must never dispatch")


@pytest.fixture
def stub():
    return ShimStub(MemoryStore(), "tx1")


class TestRegistry:
    def test_decorated_handlers_registered(self):
        names = Typed.transaction_names()
        assert names == ("bad_query", "lookup", "mixed", "renamed", "with_default")

    def test_specs_carry_kind_and_usage(self):
        specs = Typed.transactions()
        assert specs["lookup"].kind == "query"
        assert specs["mixed"].kind == "submit"
        assert specs["mixed"].usage() == (
            "mixed(a: str, n: int, x: float, flag: bool, obj: dict, items: list)"
        )

    def test_subclass_inherits_and_overrides(self):
        class Extended(Typed):
            @transaction
            def extra(self, ctx):
                return {}

            @transaction(name="lookup")
            def lookup_override(self, ctx, key: str):
                return {"overridden": True}

        assert "extra" in Extended.transaction_names()
        assert Extended.transactions()["lookup"].kind == "submit"
        # The base class registry is untouched.
        assert Typed.transactions()["lookup"].kind == "query"

    def test_undecorated_methods_not_dispatchable(self, stub):
        with pytest.raises(ChaincodeError, match="unknown function"):
            Typed().invoke(stub, "not_registered", ())

    def test_plain_python_override_of_decorated_handler_dispatches(self, stub):
        """Overriding a decorated handler without re-decorating must work."""

        class Base(Contract):
            name = "base"

            @transaction
            def greet(self, ctx):
                return {"who": "base"}

        class Sub(Base):
            def greet(self, ctx):  # ordinary override, no decorator
                return {"who": "sub"}

        assert Base().invoke(stub, "greet", ()) == {"who": "base"}
        assert Sub().invoke(stub, "greet", ()) == {"who": "sub"}

    def test_private_names_rejected_at_decoration(self):
        with pytest.raises(ChaincodeError, match="public identifier"):
            class Bad(Contract):  # noqa: F841
                @transaction(name="_sneaky")
                def handler(self, ctx):
                    return {}


class TestDispatch:
    def test_unknown_function_lists_available(self, stub):
        with pytest.raises(ChaincodeError) as excinfo:
            Typed().invoke(stub, "nope", ())
        message = str(excinfo.value)
        assert "unknown function 'nope'" in message
        assert "mixed" in message and "lookup" in message

    def test_renamed_handler_dispatches_under_public_name(self, stub):
        assert Typed().invoke(stub, "renamed", ()) == {"ok": True}
        with pytest.raises(ChaincodeError):
            Typed().invoke(stub, "internal_name", ())

    def test_query_cannot_write(self, stub):
        with pytest.raises(ChaincodeError, match="attempted to write"):
            Typed().invoke(stub, "bad_query", ("k",))

    def test_query_reads_state(self):
        from repro.common.serialization import to_bytes
        from repro.common.types import Version

        db = MemoryStore()
        db.apply_write("k", to_bytes({"v": 1}), Version(0, 0))
        assert Typed().invoke(ShimStub(db, "tx1"), "lookup", ("k",)) == {"v": 1}


class TestCoercion:
    def test_typed_arguments_coerced(self, stub):
        result = Typed().invoke(
            stub, "mixed", ("s", "3", "1.5", "true", '{"a": 1}', "[1, 2]")
        )
        assert result == {
            "a": "s", "n": 3, "x": 1.5, "flag": True, "obj": {"a": 1}, "items": [1, 2],
        }

    def test_defaults_fill_missing_arguments(self, stub):
        assert Typed().invoke(stub, "with_default", ("x",)) == {"a": "x", "n": 7}

    @pytest.mark.parametrize(
        "args",
        [
            ("s", "NaN-ish", "1.5", "true", "{}", "[]"),     # bad int
            ("s", "3", "xx", "true", "{}", "[]"),            # bad float
            ("s", "3", "1.5", "maybe", "{}", "[]"),          # bad bool
            ("s", "3", "1.5", "true", "{not json", "[]"),    # bad dict
            ("s", "3", "1.5", "true", "[]", "[]"),           # list where dict expected
            ("s", "3", "1.5", "true", "{}", "{}"),           # dict where list expected
        ],
    )
    def test_bad_arguments_fail_readably(self, stub, args):
        with pytest.raises(ChaincodeError, match="argument"):
            Typed().invoke(stub, "mixed", args)

    def test_wrong_arity_reports_usage(self, stub):
        with pytest.raises(ChaincodeError, match="usage: with_default"):
            Typed().invoke(stub, "with_default", ())
        with pytest.raises(ChaincodeError, match="usage"):
            Typed().invoke(stub, "with_default", ("a", "1", "extra"))


class TestDeployment:
    def test_registry_accepts_contract(self):
        registry = ChaincodeRegistry()
        contract = Typed()
        registry.deploy(contract)
        assert registry.get("typed") is contract

    def test_registry_rejects_nameless_objects(self):
        registry = ChaincodeRegistry()
        with pytest.raises(ChaincodeError):
            registry.deploy(object())

    def test_end_to_end_through_gateway(self, local_network):
        local_network.deploy(Typed())
        contract = Gateway.connect(local_network).get_contract("typed")
        result = contract.submit("mixed", "s", "3", "1.5", "false", "{}", "[]")
        assert result["n"] == 3 and result["flag"] is False

    def test_describe_surfaces_transaction_metadata(self, local_network):
        local_network.deploy(Typed())
        contract = Gateway.connect(local_network).get_contract("typed")
        described = contract.describe()
        assert described["style"] == "contract"
        assert described["transactions"]["lookup"]["kind"] == "query"
        parameters = described["transactions"]["mixed"]["parameters"]
        assert [p["type"] for p in parameters] == [
            "str", "int", "float", "bool", "dict", "list",
        ]

    def test_describe_legacy_chaincode(self, local_network):
        """Raw-shim chaincode (``name`` + ``invoke``) has no registry to list."""

        class Legacy:
            name = "legacy"

            def invoke(self, stub, function, args):
                stub.put_state(args[0], {})
                return {}

        local_network.deploy(Legacy())
        contract = Gateway.connect(local_network).get_contract("legacy")
        assert contract.describe() == {
            "chaincode": "legacy", "style": "chaincode", "transactions": {},
        }
        assert contract.submit("touch", "k") == {}


class TestEvents:
    def test_chaincode_event_surfaced_on_submitted_transaction(self, local_network):
        class Emitting(Contract):
            name = "emitting"

            @transaction
            def touch(self, ctx, key: str):
                ctx.state.put(key, {"seen": True})
                ctx.events.set("touched", {"key": key})
                return {}

        local_network.deploy(Emitting())
        contract = Gateway.connect(local_network).get_contract("emitting")
        tx = contract.submit_async("touch", "k1")
        assert tx.chaincode == "emitting" and tx.function == "touch"
        assert tx.commit_status().succeeded
        assert tx.chaincode_event is not None
        assert tx.chaincode_event.name == "touched"
        assert tx.chaincode_event.payload == {"key": "k1"}

    def test_event_rides_through_des_transport(self):
        from repro.sim.engine import Environment
        from repro.common.config import NetworkConfig, TopologyConfig
        from repro.fabric.network import SimulatedNetwork

        class Emitting(Contract):
            name = "emitting"

            @transaction
            def touch(self, ctx, key: str):
                ctx.state.put(key, {"seen": True})
                ctx.events.set("touched", key)
                return {}

        env = Environment()
        network = SimulatedNetwork(
            env, NetworkConfig(topology=TopologyConfig(num_orgs=1, peers_per_org=1))
        )
        network.deploy(Emitting())
        contract = Gateway.connect(network).get_contract("emitting")
        tx = contract.submit_async("touch", "k1")
        assert tx.commit_status().succeeded
        assert tx.chaincode_event.name == "touched"
        assert tx.chaincode_event.payload == "k1"


def test_invoke_matches_legacy_signature(stub):
    """Old-style direct invocation (stub, function, string-args) still works."""

    from repro.workload.iot import IoTChaincode

    result = IoTChaincode().invoke(
        stub, "populate", (json.dumps({"keys": ["a", "b"]}),)
    )
    assert result == {"populated": 2}
