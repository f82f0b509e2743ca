"""A socket peer's committer, fed in-process: blocks in as ``raw_block`` frames.

``build_peer`` builds the peer exactly as a peer process does, and
:func:`feed` commits one frame the way the process's follower does: decode,
prepare, apply with the payload compressed.  No socket or process is
involved, so the frame-fed ledger can be compared with a decoded one and its
memory traced.
"""

from __future__ import annotations

from repro.common.config import NetworkConfig
from repro.fabric.codec import dec_raw_block
from repro.fabric.ledger import compress_frame
from repro.fabric.peer import Peer
from repro.net.peerserver import build_peer
from repro.net.profile import ChaincodeRef, ClusterProfile, Endpoint

IOT_SPEC = "repro.workload.iot:IoTChaincode"


def frame_fed_peer(config: NetworkConfig, qualified_name: str) -> Peer:
    profile = ClusterProfile(config, Endpoint("127.0.0.1", 0), (), (ChaincodeRef(IOT_SPEC),))
    return build_peer(profile, qualified_name)


def feed(peer: Peer, payload: bytes, commit_time: float = 0.0) -> None:
    peer.apply_prepared(
        peer.prepare_block(dec_raw_block(payload)), commit_time, frame=compress_frame(payload)
    )
