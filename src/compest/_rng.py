"""Seeding utilities.

Every stochastic operation in this package takes an explicit integer seed and
uses a PCG64 generator, so any run can be replayed bit-exactly. Child seeds
(per trial, per sampling phase, per generated block) are derived with a
cryptographic hash so the derivation is stable across platforms and releases.
"""

import hashlib

import numpy as np

_SEED_MASK = 2**63 - 1


def derive_seed(seed: int, *path) -> int:
    """Derive a child seed from ``seed`` and a path of labels.

    The same (seed, path) always maps to the same child, and distinct paths
    give effectively independent children.
    """
    msg = ":".join(str(p) for p in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big") & _SEED_MASK


def make_rng(seed: int) -> np.random.Generator:
    """Named generator for the whole package: PCG64."""
    return np.random.Generator(np.random.PCG64(int(seed)))
