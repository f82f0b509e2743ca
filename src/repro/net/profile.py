"""The cluster connection profile: everything a process needs to join.

Fabric deployments hand applications a *connection profile* — a document
naming the channel, the orderer endpoint, the peer endpoints per org, and
the deployed chaincodes.  :class:`ClusterProfile` is that document here.
It is fully serializable (``to_dict``/``from_dict``) because it crosses
process boundaries twice: the supervisor sends a partial profile to each
spawned node (``multiprocessing`` spawn pickles plain dicts cheaply and
safely), and hands the completed one to clients for
:meth:`~repro.net.transport.SocketTransport.connect`.

Chaincodes are named by *import spec* (``"repro.workload.iot:IoTChaincode"``)
rather than pickled: every process instantiates its own copy from the
spec, exactly like peers in a real network each run their own chaincode
container.  Identities never travel at all — the membership registry
derives per-identity secrets deterministically, so every process rebuilds
an identical registry from the topology alone
(:func:`~repro.gateway.channel.enroll_members`) and HMAC signatures verify
across process boundaries without key distribution.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..common.config import (
    CRDTConfig,
    NetworkConfig,
    OrdererConfig,
    TopologyConfig,
)
from ..fabric.policy import PolicyNode
from .wire import WireError, dec_policy_node, enc_policy_node


@dataclass(frozen=True)
class Endpoint:
    """One TCP endpoint."""

    host: str
    port: int

    def to_dict(self) -> dict:
        return {"host": self.host, "port": self.port}

    @classmethod
    def from_dict(cls, data: dict) -> "Endpoint":
        return cls(host=data["host"], port=data["port"])


@dataclass(frozen=True)
class PeerEndpoint:
    """One peer's qualified identity and where to reach it."""

    name: str  # qualified identity, e.g. "Org1.peer0"
    org: str
    host: str
    port: int

    def to_dict(self) -> dict:
        return {"name": self.name, "org": self.org, "host": self.host, "port": self.port}

    @classmethod
    def from_dict(cls, data: dict) -> "PeerEndpoint":
        return cls(
            name=data["name"], org=data["org"], host=data["host"], port=data["port"]
        )


@dataclass(frozen=True)
class ChaincodeRef:
    """A chaincode definition: an import spec plus its endorsement policy.

    Every peer process deploys the chaincode under ``policy`` and its VSCC
    evaluates that policy; the client keeps the same definition to choose
    endorsers.  ``None`` means the channel default
    (:func:`~repro.fabric.policy.deployment_policy`).
    """

    spec: str  # "package.module:ClassName"
    policy: Optional[PolicyNode] = None

    def instantiate(self):
        """A fresh chaincode instance from the import spec."""

        module_name, _, class_name = self.spec.partition(":")
        if not module_name or not class_name:
            raise WireError(
                f"chaincode spec {self.spec!r} must look like 'package.module:ClassName'"
            )
        try:
            module = importlib.import_module(module_name)
            factory = getattr(module, class_name)
        except (ImportError, AttributeError) as exc:
            raise WireError(f"cannot load chaincode {self.spec!r}: {exc}") from exc
        return factory()

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "policy": enc_policy_node(self.policy) if self.policy is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaincodeRef":
        policy = data.get("policy")
        return cls(
            spec=data["spec"],
            policy=dec_policy_node(policy) if policy is not None else None,
        )


# -- NetworkConfig serialization ---------------------------------------------


def config_to_dict(config: NetworkConfig) -> dict:
    return {
        "topology": {
            "num_orgs": config.topology.num_orgs,
            "peers_per_org": config.topology.peers_per_org,
            "channel": config.topology.channel,
        },
        "orderer": {
            "max_message_count": config.orderer.max_message_count,
            "preferred_max_bytes": config.orderer.preferred_max_bytes,
            "batch_timeout_s": config.orderer.batch_timeout_s,
        },
        "crdt": {
            "seed_from_state": config.crdt.seed_from_state,
            "dedup_identical": config.crdt.dedup_identical,
            "stringify_scalars": config.crdt.stringify_scalars,
        },
        "crdt_enabled": config.crdt_enabled,
        "seed": config.seed,
        "state_backend": config.state_backend,
        "state_dir": config.state_dir,
        "telemetry_enabled": config.telemetry_enabled,
    }


def config_from_dict(data: dict) -> NetworkConfig:
    try:
        return NetworkConfig(
            topology=TopologyConfig(**data["topology"]),
            orderer=OrdererConfig(**data["orderer"]),
            crdt=CRDTConfig(**data["crdt"]),
            crdt_enabled=data["crdt_enabled"],
            seed=data["seed"],
            state_backend=data["state_backend"],
            state_dir=data.get("state_dir"),
            telemetry_enabled=data.get("telemetry_enabled", False),
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed network config: {exc}") from exc


# -- the profile --------------------------------------------------------------


@dataclass(frozen=True)
class ClusterProfile:
    """Connection profile of one running cluster."""

    config: NetworkConfig
    orderer: Endpoint
    peers: tuple[PeerEndpoint, ...]
    chaincodes: tuple[ChaincodeRef, ...] = field(default_factory=tuple)

    @property
    def org_names(self) -> tuple[str, ...]:
        return self.config.topology.org_names

    def peers_of(self, org_name: str) -> tuple[PeerEndpoint, ...]:
        return tuple(peer for peer in self.peers if peer.org == org_name)

    @property
    def anchor_peer(self) -> PeerEndpoint:
        return self.peers[0]

    def to_dict(self) -> dict:
        return {
            "config": config_to_dict(self.config),
            "orderer": self.orderer.to_dict(),
            "peers": [peer.to_dict() for peer in self.peers],
            "chaincodes": [ref.to_dict() for ref in self.chaincodes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterProfile":
        try:
            return cls(
                config=config_from_dict(data["config"]),
                orderer=Endpoint.from_dict(data["orderer"]),
                peers=tuple(PeerEndpoint.from_dict(item) for item in data["peers"]),
                chaincodes=tuple(
                    ChaincodeRef.from_dict(item) for item in data.get("chaincodes", ())
                ),
            )
        except (KeyError, TypeError) as exc:
            raise WireError(f"malformed cluster profile: {exc}") from exc


def resolve_chaincode_refs(
    chaincodes: Sequence["ChaincodeRef | str"],
) -> tuple[ChaincodeRef, ...]:
    """Normalize a mixed list of refs and bare import-spec strings."""

    resolved: list[ChaincodeRef] = []
    for item in chaincodes:
        resolved.append(item if isinstance(item, ChaincodeRef) else ChaincodeRef(item))
    return tuple(resolved)
