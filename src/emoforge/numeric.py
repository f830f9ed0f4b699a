"""Numeric primitives shared by the package: the cosine of two vectors, and
randomness. Randomness goes through :func:`rng_stream` so that every module
draws from its own deterministic stream derived from a single 64-bit seed.
"""

import hashlib

import numpy as np

from .errors import DegenerateInputError, ShapeError


def cosine_similarity(a, b):
    """Cosine of the angle between two equal-length non-zero vectors."""
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError("length mismatch: %d vs %d" % (x.size, y.size))
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector is undefined")
    # Clip: rounding can push |cos| a few ulp past 1.
    return float(np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0))


def rng_stream(seed, name):
    """Deterministic per-module random generator.

    The stream seed is derived by hashing (seed, name) with SHA-256, so
    distinct module names give independent streams and the same (seed, name)
    pair reproduces the exact sequence on every run. The generator is
    numpy's PCG64.
    """
    digest = hashlib.sha256(("%d:%s" % (int(seed), name)).encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
