"""FabricCRDT reproduction — CRDT-merged transactions for permissioned blockchains.

Reproduces *FabricCRDT: A Conflict-Free Replicated Datatypes Approach to
Permissioned Blockchains* (Middleware '19).  The package provides:

* :mod:`repro.fabric` — a from-scratch Hyperledger Fabric substrate
  (execute-order-validate, MVCC, endorsement policies, block cutting);
* :mod:`repro.crdt` — a CRDT library, including the JSON CRDT the paper
  builds on and the merge (Algorithm 2) that writes into it;
* :mod:`repro.contract` — the chaincode authoring surface: ``Contract``
  base class with ``@transaction`` / ``@query`` decorated handlers and
  typed CRDT state handles (``ctx.crdt.counter(key).incr()``);
* :mod:`repro.core` — FabricCRDT itself (Algorithms 1 and 2, the CRDT peer);
* :mod:`repro.gateway` — the Gateway API, one transport-agnostic
  submit/evaluate surface over the synchronous and discrete-event networks;
* :mod:`repro.events` — the event service: replayable block / contract
  event streams (``gateway.block_events()``,
  ``contract.contract_events()``) with filtering and checkpointing;
* :mod:`repro.sim` — the discrete-event kernel behind the timed experiments;
* :mod:`repro.workload` / :mod:`repro.bench` — the Caliper-equivalent driver
  and one experiment definition per figure of the paper's evaluation.

Quickstart::

    import json
    from repro import Gateway, crdt_network, fabriccrdt_config
    from repro.workload.iot import IoTChaincode

    network = crdt_network(fabriccrdt_config(max_message_count=25))
    network.deploy(IoTChaincode())

    contract = Gateway.connect(network).get_contract("iot")
    contract.submit("populate", json.dumps({"keys": ["device-1"]}))
    print(contract.evaluate("read_device", json.dumps({"key": "device-1"})))
"""

from .common.config import (
    CRDTConfig,
    NetworkConfig,
    OrdererConfig,
    TopologyConfig,
    fabric_config,
    fabriccrdt_config,
)
from .common.types import TxStatus, ValidationCode, Version
from .contract import Context, Contract as ContractBase, query, transaction
from .core.network import crdt_network, vanilla_network
from .events import BlockEvent, Checkpoint, ContractEvent, FileCheckpointer
from .core.peer import CRDTPeer
from .fabric.chaincode import ShimStub
from .fabric.localnet import LocalNetwork
from .fabric.peer import Peer
from .gateway import (
    Channel,
    CommitError,
    Contract,
    EndorseError,
    Gateway,
    GatewayError,
    MVCCConflictError,
    SubmittedTransaction,
)

__version__ = "1.1.0"

__all__ = [
    "CRDTConfig",
    "NetworkConfig",
    "OrdererConfig",
    "TopologyConfig",
    "fabric_config",
    "fabriccrdt_config",
    "ValidationCode",
    "Version",
    "TxStatus",
    "crdt_network",
    "vanilla_network",
    "CRDTPeer",
    "Peer",
    "LocalNetwork",
    "ShimStub",
    "ContractBase",
    "Context",
    "transaction",
    "query",
    "Gateway",
    "Contract",
    "Channel",
    "SubmittedTransaction",
    "BlockEvent",
    "ContractEvent",
    "Checkpoint",
    "FileCheckpointer",
    "GatewayError",
    "EndorseError",
    "CommitError",
    "MVCCConflictError",
    "__version__",
]
