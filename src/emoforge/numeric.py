"""Randomness for the package: every module draws from its own deterministic
stream, derived by :func:`rng_stream` from a single 64-bit seed.
"""

import hashlib

import numpy as np


def rng_stream(seed, name):
    """Deterministic per-module random generator.

    The stream seed is derived by hashing (seed, name) with SHA-256, so
    distinct module names give independent streams and the same (seed, name)
    pair reproduces the exact sequence on every run. The generator is
    numpy's PCG64.
    """
    digest = hashlib.sha256(("%d:%s" % (int(seed), name)).encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
