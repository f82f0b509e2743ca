"""The Gateway API: one programming surface over every transport.

Modelled on the Hyperledger Fabric Gateway SDK: connect to a network, get a
:class:`Contract`, then ``submit`` / ``evaluate`` / ``submit_async``.  The
same client code runs unchanged against the synchronous in-process network
and the discrete-event simulated network — which is the paper's own point
made at the API layer: FabricCRDT changes *validation*, never the client
programming model.

Example::

    from repro import Gateway, crdt_network, fabriccrdt_config
    from repro.workload.iot import IoTChaincode

    network = crdt_network(fabriccrdt_config(max_message_count=25))
    network.deploy(IoTChaincode())

    gateway = Gateway.connect(network)
    contract = gateway.get_contract("iot")

    contract.submit("populate", json.dumps({"keys": ["device-1"]}))
    value = contract.evaluate("read_device", json.dumps({"key": "device-1"}))

Concurrency is expressed with ``submit_async``: transactions submitted
before any ``commit_status()`` call land in the same block, which is how
the examples provoke (and FabricCRDT merges) MVCC conflicts::

    txs = [contract.submit_async("record", call) for call in calls]
    statuses = [tx.commit_status() for tx in txs]   # cuts one shared block
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..common.types import Json
from ..events import (
    DEFAULT_BUFFER_LIMIT,
    BlockEventStream,
    Checkpoint,
    ContractEventStream,
    EventFilter,
)
from .channel import Channel
from .errors import GatewayError, commit_error_for
from .transport import EndorsementFailureHook, SubmittedTransaction, Transport


def _resolve_start(
    checkpoint: Optional[Checkpoint],
    start_block: Optional[int],
    live_height: int,
) -> Checkpoint:
    """Where a new stream begins: checkpoint > start_block > live tip."""

    if checkpoint is not None and start_block is not None:
        raise GatewayError("pass either checkpoint or start_block, not both")
    if checkpoint is not None:
        return checkpoint
    if start_block is not None:
        return Checkpoint(start_block)
    return Checkpoint(live_height)


class Gateway:
    """A connection to one channel through one transport."""

    def __init__(self, channel: Channel, transport: Transport) -> None:
        self.channel = channel
        self.transport = transport

    @classmethod
    def connect(cls, network: object) -> "Gateway":
        """Connect to any network front-end exposing a channel and transport.

        Works with :class:`~repro.fabric.localnet.LocalNetwork`,
        :class:`~repro.fabric.network.SimulatedNetwork`, and anything else
        carrying ``.channel`` / ``.transport`` attributes.
        """

        channel = getattr(network, "channel", None)
        transport = getattr(network, "transport", None)
        if isinstance(network, Transport):
            channel, transport = network.channel, network
        if not isinstance(channel, Channel) or not isinstance(transport, Transport):
            raise GatewayError(
                f"cannot connect to {type(network).__name__}: "
                "expected an object with .channel and .transport"
            )
        return cls(channel, transport)

    def get_contract(self, chaincode_name: str) -> "Contract":
        """A handle on one deployed chaincode."""

        return Contract(self.channel, self.transport, chaincode_name)

    def block_events(
        self,
        start_block: Optional[int] = None,
        checkpoint: Optional[Checkpoint] = None,
        peer_index: int = 0,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        overflow: str = "raise",
    ) -> BlockEventStream:
        """Stream committed blocks from one peer (Fabric's deliver service).

        ``start_block=N`` replays the chain from block ``N`` before going
        live; ``checkpoint=`` resumes a previous stream with no gaps and no
        duplicates; with neither, the stream starts at the live tip.
        Events arrive at commit instants on the DES transport and inline on
        the synchronous one; consume via callback (``stream.on_event``) or
        by iterating (non-blocking drain).
        """

        peer = self.transport.event_source(peer_index)
        start = _resolve_start(checkpoint, start_block, peer.ledger.height)
        return BlockEventStream(
            peer,
            start,
            schedule=self.transport.delivery_schedule(),
            buffer_limit=buffer_limit,
            overflow=overflow,
        )

    def close(self) -> None:
        """Disconnect: release the transport (and with it the channel).

        Idempotent.  On the socket transport this tears down every
        connection and deliver stream; on in-process transports it closes
        the deliver session and the peers' state stores.
        """

        self.transport.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Gateway(channel={self.channel.name!r}, "
            f"transport={type(self.transport).__name__})"
        )


class Contract:
    """Submit/evaluate surface for one chaincode on one channel."""

    def __init__(self, channel: Channel, transport: Transport, chaincode_name: str) -> None:
        self.channel = channel
        self.transport = transport
        self.chaincode_name = chaincode_name

    def evaluate(self, function: str, *args: str, client_index: int = 0) -> Json:
        """Run a read-only invocation and return its deserialized result.

        The invocation is endorsed by the anchor peer but never ordered —
        Fabric's ``evaluateTransaction``.  Raises
        :class:`~repro.gateway.errors.EndorseError` if execution fails.
        """

        return self.transport.evaluate(
            self.chaincode_name, function, args, client_index=client_index
        )

    def submit_async(
        self,
        function: str,
        *args: str,
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> SubmittedTransaction:
        """Endorse and order a transaction without waiting for commit.

        Returns a :class:`SubmittedTransaction`; call ``commit_status()`` to
        resolve its fate.  Transactions submitted back-to-back share blocks
        exactly as concurrent Fabric submissions do.
        """

        return self.transport.submit_async(
            self.chaincode_name,
            function,
            args,
            client_index=client_index,
            on_endorsement_failure=on_endorsement_failure,
        )

    def submit_batch(
        self,
        function: str,
        calls: Sequence[Sequence[str]],
        client_index: int = 0,
        on_endorsement_failure: Optional[EndorsementFailureHook] = None,
    ) -> list[SubmittedTransaction]:
        """Submit a burst of invocations of ``function`` in one coalesced flow.

        ``calls`` holds one argument tuple per transaction.  On the DES
        transport the whole batch shares one client flow — one proposal
        burst to the endorsing peers, one envelope burst to the orderer —
        instead of one flow process per transaction; on the synchronous
        transport it degenerates to per-transaction ``submit_async``.
        Returns one :class:`SubmittedTransaction` per call, in order.
        """

        return self.transport.submit_batch(
            self.chaincode_name,
            function,
            calls,
            client_index=client_index,
            on_endorsement_failure=on_endorsement_failure,
        )

    def submit(self, function: str, *args: str, client_index: int = 0) -> Json:
        """Submit a transaction and wait for it to commit successfully.

        Fabric's ``submitTransaction``: raises
        :class:`~repro.gateway.errors.EndorseError` if endorsement fails and
        a typed :class:`~repro.gateway.errors.CommitError` subclass (e.g.
        :class:`~repro.gateway.errors.MVCCConflictError`) if validation
        rejects the transaction; otherwise returns the chaincode result.
        """

        tx = self.submit_async(function, *args, client_index=client_index)
        status = tx.commit_status()
        if not status.succeeded:
            raise commit_error_for(status)
        return tx.result()

    def contract_events(
        self,
        event_name: Optional[str] = None,
        start_block: Optional[int] = None,
        checkpoint: Optional[Checkpoint] = None,
        valid_only: bool = True,
        peer_index: int = 0,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        overflow: str = "raise",
    ) -> ContractEventStream:
        """Stream this chaincode's committed events (``ctx.events.set``).

        Delivers only events emitted by this chaincode, optionally only
        those named ``event_name``, and — by default — only from
        transactions the committer validated (``valid_only=False`` also
        surfaces events of rejected transactions, e.g. for auditing MVCC
        losses on vanilla Fabric).  ``start_block`` replays history;
        ``checkpoint`` resumes exactly after the last delivered event, even
        mid-block.
        """

        peer = self.transport.event_source(peer_index)
        start = _resolve_start(checkpoint, start_block, peer.ledger.height)
        return ContractEventStream(
            peer,
            start,
            EventFilter(
                chaincode=self.chaincode_name,
                event_name=event_name,
                valid_only=valid_only,
            ),
            schedule=self.transport.delivery_schedule(),
            buffer_limit=buffer_limit,
            overflow=overflow,
        )

    def describe(self) -> dict:
        """Per-transaction metadata of the deployed chaincode.

        For new-style :class:`repro.contract.Contract` deployments this is
        the full decorator registry — function names, submit/query kind,
        typed parameter lists, usage strings, docstrings.  For legacy
        ``Chaincode`` deployments it lists the discovered ``fn_`` handlers.
        """

        chaincode = self.channel.chaincodes.get(self.chaincode_name)
        specs = getattr(chaincode, "transactions", None)
        if callable(specs):
            return {
                "chaincode": self.chaincode_name,
                "style": "contract",
                "transactions": {
                    name: spec.describe() for name, spec in sorted(specs().items())
                },
            }
        names = getattr(chaincode, "transaction_names", None)
        return {
            "chaincode": self.chaincode_name,
            "style": "chaincode",
            "transactions": {
                name: {"name": name, "kind": "submit"}
                for name in (names() if callable(names) else ())
            },
        }

    def __repr__(self) -> str:
        return f"Contract({self.chaincode_name!r} on {self.channel.name!r})"
