"""Deterministic random-stream derivation.

Every stochastic routine in this package takes a 64-bit integer seed.  Streams
are numpy ``Generator`` objects (PCG64) built from
``SeedSequence([seed, h(label_1), h(label_2), ...])`` where ``h`` is the first
8 bytes of the SHA-256 of the label.  Distinct labels therefore give
independent substreams, and a rerun with the same seed and labels reproduces
every draw bit-for-bit.  The samplers that several suites share live here,
and ``normal_blocks``, which draws a stream's rows a block at a time.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
# rows: every block of normal_blocks starts at a multiple of this many rows
ROW_ALIGN = 1024


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


def normal_blocks(rng: np.random.Generator, n_rows: int, dim: int,
                  block_bytes: int):
    """Yield (rows, block) over range(n_rows) in order: a slice and the
    standard normal (len(rows), dim) rows drawn for it.

    A generator fills normals one after another without caching any, so the
    blocks hold the bits of one ``rng.standard_normal((n_rows, dim))`` and
    leave the stream where that draw does.  Every block starts at a multiple
    of ROW_ALIGN rows and all but the last, which holds the remainder, are
    the widest such blocks within block_bytes, or ROW_ALIGN rows where a
    single row group exceeds block_bytes.
    """
    width = max(block_bytes // (8 * dim * ROW_ALIGN), 1) * ROW_ALIGN
    for start in range(0, n_rows, width):
        stop = min(start + width, n_rows)
        yield slice(start, stop), rng.standard_normal((stop - start, dim))
