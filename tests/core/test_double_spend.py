"""The paper's §6 limitation: asset transfers must NOT be modelled as CRDTs.

"FabricCRDT skips the MVCC validation, merges the transactions' values, and
successfully commits all of the attacker's transactions" — we reproduce the
double-spend on FabricCRDT and show vanilla Fabric rejects it.
"""

import json

from repro.common.types import Json, ValidationCode
from repro.contract import Context, Contract, transaction
from repro.gateway import Gateway

from ..conftest import small_config
from repro.core.network import crdt_network, vanilla_network


class AssetChaincode(Contract):
    """A deliberately naive asset-transfer chaincode.

    ``transfer`` reads the asset, checks ownership, and writes the new
    owner.  ``crdt`` switches the write to ``put_crdt`` — the anti-pattern
    §6 warns about.
    """

    name = "assets"

    @transaction
    def create(self, ctx: Context, asset_id: str, owner: str) -> Json:
        ctx.state.put(asset_id, {"owner": owner})
        return {"created": asset_id}

    @transaction
    def transfer(self, ctx: Context, asset_id: str, seller: str, buyer: str, crdt: str) -> Json:
        asset = ctx.state.get(asset_id)
        if asset is None or asset.get("owner") != seller:
            raise ValueError(f"{seller} does not own {asset_id}")
        new_state = {"owner": buyer}
        if crdt == "yes":
            ctx.stub.put_crdt(asset_id, new_state)
        else:
            ctx.state.put(asset_id, new_state)
        return {"transferred_to": buyer}


def _run_double_spend(network, crdt_flag):
    network.deploy(AssetChaincode())
    assets = Gateway.connect(network).get_contract("assets")
    assets.submit_async("create", "coin1", "mallory")
    network.flush()
    # Mallory transfers the same coin to two victims concurrently (both
    # endorsed against the same committed state, same block).
    tx_alice = assets.submit_async("transfer", "coin1", "mallory", "alice", crdt_flag)
    tx_bob = assets.submit_async("transfer", "coin1", "mallory", "bob", crdt_flag)
    network.flush()
    return network.status_of(tx_alice.tx_id), network.status_of(tx_bob.tx_id)


class TestVanillaFabricPreventsDoubleSpend:
    def test_only_one_transfer_commits(self):
        network = vanilla_network(small_config(max_message_count=10))
        alice_code, bob_code = _run_double_spend(network, crdt_flag="no")
        codes = sorted([alice_code, bob_code], key=lambda c: c.value)
        assert codes == [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]


class TestFabricCRDTIsVulnerable:
    def test_both_transfers_commit(self):
        network = crdt_network(small_config(max_message_count=10, crdt_enabled=True))
        alice_code, bob_code = _run_double_spend(network, crdt_flag="yes")
        # The attack the paper warns about: both succeed.
        assert alice_code is ValidationCode.VALID
        assert bob_code is ValidationCode.VALID
        # The final owner is whichever assignment the merge resolved last —
        # deterministic, but both victims saw a successful transfer.
        final_owner = network.state_of("coin1")["owner"]
        assert final_owner in ("alice", "bob")

    def test_non_crdt_transfers_stay_safe_on_fabriccrdt(self):
        """Compatibility: the same chaincode using put_state keeps Fabric's
        protection even on a FabricCRDT network."""

        network = crdt_network(small_config(max_message_count=10, crdt_enabled=True))
        alice_code, bob_code = _run_double_spend(network, crdt_flag="no")
        codes = sorted([alice_code, bob_code], key=lambda c: c.value)
        assert codes == [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
