"""Exception hierarchy for the FabricCRDT reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching programming errors.  Sub-hierarchies
mirror the package layout: simulation, CRDT, fabric, and workload errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Configuration / usage errors
# ---------------------------------------------------------------------------


class ConfigError(ReproError):
    """A configuration object failed validation."""


class SerializationError(ReproError):
    """A value could not be canonically serialized or deserialized."""


# ---------------------------------------------------------------------------
# Simulation kernel errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class StopSimulation(SimulationError):
    """Raised internally to stop the event loop from within a process."""

    def __init__(self, reason: object = None) -> None:
        super().__init__(reason)
        self.reason = reason


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class ProcessKilled(SimulationError):
    """Delivered into a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


# ---------------------------------------------------------------------------
# CRDT errors
# ---------------------------------------------------------------------------


class CRDTError(ReproError):
    """Base class for CRDT layer errors."""


class MergeTypeError(CRDTError):
    """Attempted to merge two CRDT instances of incompatible types."""


class UnsupportedValueError(CRDTError):
    """A JSON value type is outside the supported subset (string/map/list)."""


# ---------------------------------------------------------------------------
# Fabric errors
# ---------------------------------------------------------------------------


class FabricError(ReproError):
    """Base class for Fabric substrate errors."""


class EndorsementError(FabricError):
    """A proposal failed to gather a satisfying set of endorsements."""


class PolicyError(FabricError):
    """An endorsement policy expression is malformed."""


class ChaincodeError(FabricError):
    """A chaincode invocation raised or misused the shim."""


class LedgerError(FabricError):
    """Ledger integrity violation (bad hash chain, bad block number...)."""


class StateError(FabricError):
    """World state database misuse (bad version, malformed batch...)."""


class OrderingError(FabricError):
    """The ordering service rejected or mishandled an envelope."""


# ---------------------------------------------------------------------------
# Workload / benchmarking errors
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A workload specification or driver failed."""


class CalibrationError(ReproError):
    """The benchmark cost model could not be calibrated."""
