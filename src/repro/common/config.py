"""Configuration dataclasses for networks, ordering, and experiments.

All configs are frozen dataclasses with a ``validate()`` called from
``__post_init__`` so that invalid configurations fail at construction time,
not deep inside a simulation run.  Defaults mirror the paper's experimental
setup (§7.2): three organizations, two peers each, one orderer, one channel,
block timeout 2 s, preferred block bytes 128 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError

#: World-state backends a network can run on (see ``repro.fabric.store``).
STATE_BACKENDS = ("memory", "sqlite")


@dataclass(frozen=True)
class OrdererConfig:
    """Block-cutting parameters, exactly Fabric's ``BatchSize``/``BatchTimeout``.

    A block is cut when the first of these triggers:

    * ``max_message_count`` transactions are pending,
    * pending transactions exceed ``preferred_max_bytes``,
    * ``batch_timeout_s`` elapsed since the first pending transaction.
    """

    max_message_count: int = 400
    preferred_max_bytes: int = 128 * 1024 * 1024
    batch_timeout_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_message_count < 1:
            raise ConfigError("max_message_count must be >= 1")
        if self.preferred_max_bytes < 1:
            raise ConfigError("preferred_max_bytes must be >= 1")
        if self.batch_timeout_s <= 0:
            raise ConfigError("batch_timeout_s must be positive")


@dataclass(frozen=True)
class TopologyConfig:
    """Network shape: organizations, peers per org, channel name."""

    num_orgs: int = 3
    peers_per_org: int = 2
    channel: str = "channel1"

    def __post_init__(self) -> None:
        if self.num_orgs < 1:
            raise ConfigError("need at least one organization")
        if self.peers_per_org < 1:
            raise ConfigError("need at least one peer per organization")
        if not self.channel:
            raise ConfigError("channel name must be non-empty")

    @property
    def org_names(self) -> tuple[str, ...]:
        return tuple(f"Org{i + 1}" for i in range(self.num_orgs))

    @property
    def total_peers(self) -> int:
        return self.num_orgs * self.peers_per_org


@dataclass(frozen=True)
class CRDTConfig:
    """FabricCRDT-specific knobs (see README "Merge engine" for the semantics).

    * ``seed_from_state`` — merge the committed world-state value into the
      fresh per-block CRDT before merging transaction values.  ``False``
      matches Algorithm 1 literally; ``True`` guarantees cross-block
      no-update-loss.  Benchmarked in the seed ablation.
    * ``dedup_identical`` — content-address list-item operations so identical
      items submitted by concurrent read-modify-write transactions merge
      idempotently (reproduces Listing 2).  ``False`` uses naive fresh op IDs.
    * ``stringify_scalars`` — auto-convert numbers/booleans in merged JSON to
      strings (the paper requires users to stringify; ``False`` raises).
    """

    seed_from_state: bool = False
    dedup_identical: bool = True
    stringify_scalars: bool = True


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to build a simulated Fabric / FabricCRDT network.

    ``state_backend`` picks the world-state store every peer runs on
    (``"memory"`` — the historical in-process dict; ``"sqlite"`` — the
    persistent indexed backend).  ``state_dir`` is where the sqlite backend
    keeps its per-peer database files; ``None`` uses private in-memory
    SQLite databases (the SQL code paths without the disk).

    ``telemetry_enabled`` asks spawned cluster nodes to keep an in-process
    :class:`~repro.telemetry.Telemetry` (lifecycle spans + metrics
    registry) exposed over the wire ``metrics`` request.  It is advisory
    and out-of-band: protocol behaviour and deterministic metrics are
    identical either way.  (The DES runtime ignores it — there telemetry
    is passed programmatically via ``SimulatedNetwork.enable_telemetry``.)
    """

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    orderer: OrdererConfig = field(default_factory=OrdererConfig)
    crdt: CRDTConfig = field(default_factory=CRDTConfig)
    crdt_enabled: bool = False
    seed: int = 0
    state_backend: str = "memory"
    state_dir: Optional[str] = None
    telemetry_enabled: bool = False

    def __post_init__(self) -> None:
        if self.state_backend not in STATE_BACKENDS:
            raise ConfigError(
                f"unknown state_backend {self.state_backend!r}; "
                f"expected one of {', '.join(STATE_BACKENDS)}"
            )
        if self.state_dir is not None and self.state_backend != "sqlite":
            raise ConfigError("state_dir only applies to the sqlite backend")

    def with_block_size(self, max_message_count: int) -> "NetworkConfig":
        """Copy of this config with a different block size (figure sweeps)."""

        orderer = OrdererConfig(
            max_message_count=max_message_count,
            preferred_max_bytes=self.orderer.preferred_max_bytes,
            batch_timeout_s=self.orderer.batch_timeout_s,
        )
        return replace(self, orderer=orderer)

    def with_state_backend(
        self, state_backend: str, state_dir: Optional[str] = None
    ) -> "NetworkConfig":
        """Copy of this config on a different world-state backend."""

        return replace(self, state_backend=state_backend, state_dir=state_dir)


def fabric_config(
    max_message_count: int = 400,
    seed: int = 0,
    state_backend: str = "memory",
    state_dir: Optional[str] = None,
) -> NetworkConfig:
    """The paper's vanilla-Fabric configuration (400 txs/block default)."""

    return NetworkConfig(
        orderer=OrdererConfig(max_message_count=max_message_count),
        crdt_enabled=False,
        seed=seed,
        state_backend=state_backend,
        state_dir=state_dir,
    )


def fabriccrdt_config(
    max_message_count: int = 25,
    seed: int = 0,
    crdt: CRDTConfig | None = None,
    state_backend: str = "memory",
    state_dir: Optional[str] = None,
) -> NetworkConfig:
    """The paper's FabricCRDT configuration (25 txs/block default)."""

    return NetworkConfig(
        orderer=OrdererConfig(max_message_count=max_message_count),
        crdt=crdt if crdt is not None else CRDTConfig(),
        crdt_enabled=True,
        seed=seed,
        state_backend=state_backend,
        state_dir=state_dir,
    )
