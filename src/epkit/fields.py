"""Deterministic batteries of test fields with exact gradients or Lipschitz
constants, for the Gaussian Monte Carlo suites.

Every differentiable field is a ridge h(<u, x>) built by ``ridge_field``,
the one place its gradient h'(<u, x>) u is written; the others declare none.

Each battery starts with a linear field: linear functions attain the
variance/derivative-energy and cumulant bounds with equality, so they are the
positive controls showing check tolerances are not vacuous.
"""

from __future__ import annotations

import numpy as np

from .gaussian import ScalarField
from .rng import derive_rng


def ridge_field(u, h, dh, lip_h, name):
    """h(<u, x>) with gradient dh(<u, x>) u; its Lipschitz constant is
    lip_h ||u||, or None when lip_h (a bound on |h'|) is None."""
    u = np.asarray(u, dtype=float)
    lip = None if lip_h is None else float(lip_h * np.linalg.norm(u))
    return ScalarField(dim=u.size, eval=lambda x: h(np.atleast_2d(x) @ u),
                       grad=lambda x: dh(np.atleast_2d(x) @ u)[:, None] * u,
                       lipschitz=lip, name=name)


def linear_field(u, name):
    return ridge_field(u, lambda t: t, np.ones_like, 1.0, name)


def sine_field(a, b, c, e, g, name):
    """1-D field a sin(bx) + c cos(ex) + g x, the ridge along u = [1]."""
    return ridge_field([1.0], lambda t: a * np.sin(b * t) + c * np.cos(e * t) + g * t,
                       lambda t: a * b * np.cos(b * t) - c * e * np.sin(e * t) + g,
                       None, name)


def tanh_ridge_field(u, c, name):
    """tanh(<u, x>) + c in dim = len(u)."""
    return ridge_field(u, lambda t: np.tanh(t) + c,
                       lambda t: 1.0 - np.tanh(t) ** 2, 1.0, name)


def sine_ridge_field(a, u, c, name):
    """a sin(<u, x>) + c with gradient a cos(<u, x>) u."""
    return ridge_field(u, lambda t: a * np.sin(t) + c, lambda t: a * np.cos(t),
                       abs(a), name)


def norm_field(center, name):
    """||x - center||, Lipschitz constant 1."""
    center = np.asarray(center, dtype=float)

    def ev(x):
        return np.linalg.norm(np.atleast_2d(x) - center, axis=1)

    return ScalarField(dim=center.size, eval=ev, lipschitz=1.0, name=name)


def max_field(offsets, name):
    """max_i (x_i + b_i), Lipschitz constant 1."""
    offsets = np.asarray(offsets, dtype=float)

    def ev(x):
        return (np.atleast_2d(x) + offsets).max(axis=1)

    return ScalarField(dim=offsets.size, eval=ev, lipschitz=1.0, name=name)


def logsumexp_field(dim, scale, name):
    """scale * log sum exp(x_i); the softmax gradient has norm <= 1."""

    def ev(x):
        x = np.atleast_2d(x)
        m = x.max(axis=1, keepdims=True)
        return scale * (np.log(np.exp(x - m).sum(axis=1)) + m[:, 0])

    return ScalarField(dim=dim, eval=ev, lipschitz=abs(scale), name=name)


def poincare_battery(count: int, seed: int):
    """1-D fields with exact derivatives; the first is the linear control."""
    rng = derive_rng(seed, "battery-poincare")
    fields = [linear_field([1.0], name="linear-control")]
    while len(fields) < count:
        i = len(fields)
        a, c = rng.uniform(0.3, 1.5, size=2)
        b, e = rng.uniform(0.5, 2.0, size=2)
        g = rng.uniform(-0.5, 0.5)
        fields.append(sine_field(a, b, c, e, g, name=f"sine-{i}"))
    return fields[:count]


def lsi_battery(count: int, seed: int):
    """Differentiable fields in dims 1..3; the first is linear."""
    rng = derive_rng(seed, "battery-lsi")
    fields = [linear_field([1.0], name="linear-control")]
    while len(fields) < count:
        i = len(fields)
        dim = int(rng.integers(1, 4))
        u = rng.uniform(-1.0, 1.0, size=dim)
        if rng.uniform() < 0.5:
            fields.append(sine_ridge_field(float(rng.uniform(0.3, 1.2)), u,
                                           float(rng.uniform(0.5, 2.0)),
                                           name=f"sine-ridge-{i}"))
        else:
            fields.append(tanh_ridge_field(u, float(rng.uniform(0.5, 2.0)),
                                           name=f"tanh-ridge-{i}"))
    return fields[:count]


def lipschitz_battery(count: int, seed: int):
    """Fields with certified Lipschitz constants; the first is linear."""
    rng = derive_rng(seed, "battery-lipschitz")
    fields = [linear_field([1.0, 0.0], name="linear-control")]
    makers = ("norm", "max", "lse", "linear", "tanh")
    while len(fields) < count:
        i = len(fields)
        dim = int(rng.integers(1, 4))
        kind = makers[int(rng.integers(0, len(makers)))]
        if kind == "norm":
            fields.append(norm_field(rng.uniform(-1, 1, size=dim), name=f"norm-{i}"))
        elif kind == "max":
            fields.append(max_field(rng.uniform(-1, 1, size=dim), name=f"max-{i}"))
        elif kind == "lse":
            fields.append(logsumexp_field(dim, float(rng.uniform(0.4, 1.0)),
                                          name=f"lse-{i}"))
        elif kind == "linear":
            fields.append(linear_field(rng.uniform(-1, 1, size=dim),
                                       name=f"linear-{i}"))
        else:
            fields.append(tanh_ridge_field(rng.uniform(-1, 1, size=dim), 0.0,
                                           name=f"tanh-{i}"))
    return fields[:count]
