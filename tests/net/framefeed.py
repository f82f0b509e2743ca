"""A socket peer's committer, fed in-process: blocks in as ``raw_block`` frames.

``build_peer`` builds the peer exactly as a peer process does (its ledger
told how to decode a stored frame), and :func:`feed` commits one frame the
way the process's follower does: decode, prepare, apply with the payload.
No socket or process is involved, so the frame-fed ledger can be compared
with an in-process one and its memory traced.
"""

from __future__ import annotations

from repro.common.config import NetworkConfig
from repro.fabric.block import Block
from repro.fabric.peer import Peer
from repro.net.codec import HEADER_BYTES, encode_message
from repro.net.peerserver import build_peer
from repro.net.profile import ChaincodeRef, ClusterProfile, Endpoint
from repro.net.wire import dec_raw_block, enc_block

IOT_SPEC = "repro.workload.iot:IoTChaincode"


def raw_block_payload(block: Block) -> bytes:
    """The payload of the frame the orderer sends for ``block``."""

    return encode_message({"type": "raw_block", "block": enc_block(block)})[HEADER_BYTES:]


def frame_fed_peer(config: NetworkConfig, qualified_name: str) -> Peer:
    profile = ClusterProfile(config, Endpoint("127.0.0.1", 0), (), (ChaincodeRef(IOT_SPEC),))
    return build_peer(profile, qualified_name)


def feed(peer: Peer, payload: bytes, commit_time: float = 0.0) -> None:
    peer.apply_prepared(peer.prepare_block(dec_raw_block(payload)), commit_time, frame=payload)
