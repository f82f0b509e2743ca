"""Typed errors raised by the Gateway API.

Every way a submission can fail surfaces as one exception hierarchy,
mirroring the Fabric Gateway SDK's ``EndorseError`` / ``SubmitError`` /
``CommitStatusError`` split:

* :class:`EndorseError` — the endorsement round failed; no transaction was
  ordered.  Also an :class:`~repro.common.errors.EndorsementError`, so one
  ``except EndorsementError`` catches every endorsement failure.
* :class:`CommitError` — the transaction was ordered and validated but did
  not commit successfully; :func:`commit_error_for` picks the subclass that
  matches the validation code (MVCC conflict, phantom read, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..common.errors import EndorsementError, FabricError
from ..common.types import TxStatus, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from ..fabric.client import EndorsementRoundFailure


class GatewayError(FabricError):
    """Base class for Gateway API errors."""


class TransactionError(GatewayError):
    """A Gateway error attributable to one transaction."""

    def __init__(self, tx_id: str, message: str) -> None:
        super().__init__(message)
        self.tx_id = tx_id


class EndorseError(TransactionError, EndorsementError):
    """The endorsement round failed; the transaction never reached ordering.

    Carries the client's :class:`EndorsementRoundFailure` (with per-peer
    reasons) as :attr:`failure`.
    """

    def __init__(self, failure: "EndorsementRoundFailure") -> None:
        super().__init__(failure.tx_id, failure.reason)
        self.failure = failure
        self.reason = failure.reason

    @property
    def details(self) -> tuple:
        """Per-peer endorsement failures, when the round recorded any."""

        return tuple(self.failure.failures)


class SubmitError(TransactionError):
    """The assembled transaction could not be handed to the orderer."""


class CommitError(TransactionError):
    """The transaction was ordered but did not commit successfully."""

    def __init__(self, tx_id: str, message: str, status: Optional[TxStatus] = None) -> None:
        super().__init__(tx_id, message)
        self.status = status

    @property
    def code(self) -> Optional[ValidationCode]:
        return self.status.code if self.status is not None else None


class MVCCConflictError(CommitError):
    """Validation failed with ``MVCC_READ_CONFLICT`` (the paper's §3 failure)."""


class PhantomReadError(CommitError):
    """Validation failed with ``PHANTOM_READ_CONFLICT``."""


class EndorsementPolicyError(CommitError):
    """Validation-time endorsement policy check (VSCC) rejected the transaction."""


class DuplicateTransactionError(CommitError):
    """The committer saw this transaction ID before."""


_COMMIT_ERROR_BY_CODE: dict[ValidationCode, type[CommitError]] = {
    ValidationCode.MVCC_READ_CONFLICT: MVCCConflictError,
    ValidationCode.PHANTOM_READ_CONFLICT: PhantomReadError,
    ValidationCode.ENDORSEMENT_POLICY_FAILURE: EndorsementPolicyError,
    ValidationCode.DUPLICATE_TXID: DuplicateTransactionError,
}


def commit_error_for(status: TxStatus) -> CommitError:
    """The :class:`CommitError` subclass matching a failed ``TxStatus``."""

    cls = _COMMIT_ERROR_BY_CODE.get(status.code, CommitError)
    return cls(
        status.tx_id,
        f"transaction {status.tx_id} failed validation: {status.code.name}",
        status,
    )
