"""Typed errors of the socket transport and wire protocol.

The hierarchy plugs into the Gateway's existing exception model
(:mod:`repro.gateway.errors`) so that code written against the in-process
transports keeps working over sockets:

* :class:`TransportError` is a :class:`~repro.gateway.errors.GatewayError` —
  the umbrella for everything that went wrong *moving bytes* rather than
  validating transactions.
* A dead endorsing peer becomes an
  :class:`~repro.fabric.transaction.EndorsementFailure` inside the normal
  endorsement round, so it surfaces as
  :class:`~repro.gateway.errors.EndorseError` at ``commit_status()`` — a
  failed transaction, never a hang.
* :class:`CommitTimeoutError` is *also* a
  :class:`~repro.gateway.errors.CommitError`, so ``except CommitError``
  handlers see a commit that never arrived the same way they see one that
  failed validation.
"""

from __future__ import annotations

from typing import Optional

from ..gateway.errors import CommitError, GatewayError, SubmitError


class TransportError(GatewayError):
    """A socket-transport operation failed at the messaging layer."""


class ConnectionClosed(TransportError):
    """The remote end closed the connection (cleanly, between frames)."""


class RequestTimeout(TransportError):
    """A request did not receive its response within the deadline."""


class PeerUnreachableError(TransportError):
    """A node could not be reached (connect refused / reset / DNS)."""


class DeliverStreamError(TransportError):
    """A peer's deliver stream died (``reason``: ``"unreachable"``, ``"closed"``
    or ``"protocol"``): its mirror will never advance again."""

    def __init__(self, peer: str, reason: str, detail: str) -> None:
        super().__init__(f"deliver stream from {peer} is dead ({reason}): {detail}")
        self.peer = peer
        self.reason = reason


class ClusterStartupError(TransportError):
    """A spawned node process failed to come up within the deadline."""


class CommitTimeoutError(CommitError, TransportError):
    """A submitted transaction's commit status never arrived in time.

    Both a :class:`~repro.gateway.errors.CommitError` (existing handlers
    catch it) and a :class:`TransportError` (callers can distinguish
    "network went quiet" from "validation rejected it").
    """

    def __init__(self, tx_id: str, timeout_s: float, detail: Optional[str] = None) -> None:
        message = (
            f"transaction {tx_id} did not resolve within {timeout_s:g}s"
            + (f" ({detail})" if detail else "")
        )
        CommitError.__init__(self, tx_id, message)
        self.timeout_s = timeout_s


__all__ = [
    "TransportError",
    "ConnectionClosed",
    "RequestTimeout",
    "PeerUnreachableError",
    "DeliverStreamError",
    "ClusterStartupError",
    "CommitTimeoutError",
    "SubmitError",
]
