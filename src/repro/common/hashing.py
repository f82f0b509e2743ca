"""Hashing helpers: content addresses, hash chains, and deterministic HMAC.

The reproduction never uses real PKI.  Signatures are HMAC-SHA256 keyed by a
per-identity secret (see :mod:`repro.fabric.identity`), which preserves the
properties the protocol logic relies on — determinism, unforgeability within
the simulation, and binding to the signed payload — without pulling in
``cryptography``.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Raw SHA-256 digest."""

    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest (used for human-readable IDs)."""

    return hashlib.sha256(data).hexdigest()


def short_hash(data: bytes, length: int = 12) -> str:
    """Truncated hex digest for compact IDs (tx IDs, content addresses)."""

    return sha256_hex(data)[:length]


def chain_hash(previous: bytes, payload: bytes) -> bytes:
    """Hash-chain step used to link blocks: ``H(previous || H(payload))``."""

    return sha256(previous + sha256(payload))


def merkle_root(leaves: Iterable[bytes]) -> bytes:
    """Merkle tree root over the given leaf hashes.

    Fabric hashes the concatenation of transaction bytes for the block data
    hash; we compute a proper Merkle root instead, which additionally lets
    tests construct membership proofs.  An empty leaf set hashes to
    ``sha256(b"")`` so that empty blocks still have a deterministic data hash.
    """

    return merkle_root_of_digests(sha256(leaf) for leaf in leaves)


def merkle_root_of_digests(digests: Iterable[bytes]) -> bytes:
    """:func:`merkle_root` for a caller that already holds ``sha256(leaf)``."""

    level = list(digests)
    if not level:
        return sha256(b"")
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])  # duplicate the odd leaf, Bitcoin-style
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def hmac_sign(secret: bytes, payload: bytes) -> bytes:
    """Deterministic signature stand-in: HMAC-SHA256."""

    return hmac.new(secret, payload, hashlib.sha256).digest()


def hmac_verify(secret: bytes, payload: bytes, signature: bytes) -> bool:
    """Constant-time verification of :func:`hmac_sign` output."""

    return hmac.compare_digest(hmac_sign(secret, payload), signature)


def stable_int(data: bytes, modulus: int) -> int:
    """Map bytes to a stable integer in ``[0, modulus)`` (for sharding)."""

    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return int.from_bytes(sha256(data)[:8], "big") % modulus
