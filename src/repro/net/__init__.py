"""The distributed runtime: real processes, real sockets, one wire protocol.

Every other front-end in this reproduction — :class:`~repro.fabric.localnet.
LocalNetwork` and the discrete-event :class:`~repro.fabric.network.
SimulatedNetwork` — runs peers, orderer, and clients inside one Python
process.  ``repro.net`` runs the *same* protocol logic as an actual
deployment: each :class:`~repro.fabric.peer.Peer` (or CRDT peer) and the
:class:`~repro.fabric.orderer.OrderingService` lives in its own OS process
behind an asyncio TCP server, and clients reach them through a
length-prefixed JSON wire protocol.  Endorsement, ordering, CRDT block
merge, and the block-scoped ``WriteBatch`` commit path are reused
unchanged — only the message passing is new, which is the Fabric
architecture's own separation of endorse/order/validate made literal
(Androulaki et al., 2018).

Layers, bottom up:

* :mod:`repro.net.codec` — length-prefixed frames over a byte stream;
* :mod:`repro.net.wire` — the message vocabulary (request, reply and
  stream types) over :mod:`repro.fabric.codec`, which encodes what the
  messages carry: proposals, proposal responses, envelopes, blocks, block
  statuses;
* :mod:`repro.net.profile` — the serializable cluster connection profile;
* :mod:`repro.net.peerserver` / :mod:`repro.net.ordererserver` — asyncio
  servers wrapping the existing node logic;
* :mod:`repro.net.cluster` — the ``multiprocessing`` supervisor that
  spawns, health-checks, and terminates a cluster;
* :mod:`repro.net.transport` — :class:`SocketTransport`, the client side:
  a full :class:`~repro.gateway.transport.Transport` so the Gateway API,
  event streams, and the benchmark runner work against the cluster
  unchanged.  It is a *light client*: commit statuses ride one
  header-chained ``deliver_status`` stream from the anchor peer (the header
  chain is always verified, block bodies are trusted to the anchor), and a
  peer's :class:`MirrorPeer` — a verified ledger + world state replayed
  from block 0 — is opened only by what reads it
  (:meth:`SocketTransport.open_mirror`, reached from event streams and
  ``channel.ledger_of(i)``).

Quickstart::

    from repro.common.config import fabriccrdt_config
    from repro.net import Cluster, SocketTransport
    from repro import Gateway

    with Cluster.spawn(fabriccrdt_config(max_message_count=25),
                       chaincodes=["repro.workload.iot:IoTChaincode"]) as cluster:
        with SocketTransport.connect(cluster.profile) as transport:
            contract = Gateway.connect(transport).get_contract("iot")
            contract.submit("populate", json.dumps({"keys": ["device-1"]}))
"""

from .codec import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameCorrupt,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    FrameTruncated,
    encode_frame,
)
from .cluster import Cluster
from .errors import (
    CommitTimeoutError,
    ConnectionClosed,
    DeliverStreamError,
    PeerUnreachableError,
    RequestTimeout,
    TransportError,
)
from .profile import ChaincodeRef, ClusterProfile, Endpoint, PeerEndpoint
from .transport import MirrorPeer, RemoteChannel, SocketTransport
from .wire import WireError

__all__ = [
    "Cluster",
    "ClusterProfile",
    "ChaincodeRef",
    "Endpoint",
    "PeerEndpoint",
    "SocketTransport",
    "RemoteChannel",
    "MirrorPeer",
    "TransportError",
    "RequestTimeout",
    "PeerUnreachableError",
    "CommitTimeoutError",
    "DeliverStreamError",
    "ConnectionClosed",
    "WireError",
    "FrameError",
    "FrameCorrupt",
    "FrameTooLarge",
    "FrameTruncated",
    "FrameDecoder",
    "encode_frame",
    "DEFAULT_MAX_FRAME_BYTES",
]
