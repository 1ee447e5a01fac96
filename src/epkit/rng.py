"""Deterministic random-stream derivation.

Every stochastic routine in this package takes a 64-bit integer seed.  Streams
are numpy ``Generator`` objects (PCG64) built from
``SeedSequence([seed, h(label_1), h(label_2), ...])`` where ``h`` is the first
8 bytes of the SHA-256 of the label.  Distinct labels therefore give
independent substreams, and a rerun with the same seed and labels reproduces
every draw bit-for-bit.  The samplers that several suites share live here.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the substream identified by (seed, labels)."""
    keys = [int(seed) & _MASK64] + [_label_key(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(keys))


def l1_ball_point(rng: np.random.Generator, d: int, R: float) -> np.ndarray:
    """A normal direction scaled to l1 norm R U, with U uniform on [0, 1)."""
    raw = rng.standard_normal(d)
    return raw / np.abs(raw).sum() * R * rng.uniform(0.0, 1.0)


def gaussian_design(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """An n x d standard normal design, each column rescaled to norm sqrt(n)."""
    X = rng.standard_normal((n, d))
    X *= np.sqrt(n) / np.linalg.norm(X, axis=0)
    return X
