"""The ridge constructor against the four field constructors it replaced:
every battery field must evaluate, differentiate and declare its Lipschitz
constant bit for bit as before."""

import numpy as np
import pytest

from epkit import fields, gaussian
from epkit.gaussian import ScalarField
from epkit.rng import derive_rng


def linear_field(u, name="linear"):
    """The former fields.linear_field, verbatim."""
    u = np.asarray(u, dtype=float)

    def ev(x):
        return np.atleast_2d(x) @ u

    def gr(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(u, (x.shape[0], u.size)).copy()

    return ScalarField(dim=u.size, eval=ev, grad=gr,
                       lipschitz=float(np.linalg.norm(u)), name=name)


def sine_field(a, b, c, e, g, name="sine"):
    """The former fields.sine_field, verbatim."""

    def ev(x):
        x = np.atleast_2d(x)[:, 0]
        return a * np.sin(b * x) + c * np.cos(e * x) + g * x

    def gr(x):
        x = np.atleast_2d(x)[:, 0]
        d = a * b * np.cos(b * x) - c * e * np.sin(e * x) + g
        return d[:, None]

    return ScalarField(dim=1, eval=ev, grad=gr, name=name)


def tanh_ridge_field(u, c, name="tanh-ridge"):
    """The former fields.tanh_ridge_field, verbatim."""
    u = np.asarray(u, dtype=float)

    def ev(x):
        return np.tanh(np.atleast_2d(x) @ u) + c

    def gr(x):
        t = np.tanh(np.atleast_2d(x) @ u)
        return (1.0 - t ** 2)[:, None] * u

    return ScalarField(dim=u.size, eval=ev, grad=gr,
                       lipschitz=float(np.linalg.norm(u)), name=name)


def sine_ridge_field(a, u, c, name="sine-ridge"):
    """The former fields.sine_ridge_field, verbatim."""
    u = np.asarray(u, dtype=float)

    def ev(x):
        return a * np.sin(np.atleast_2d(x) @ u) + c

    def gr(x):
        return (a * np.cos(np.atleast_2d(x) @ u))[:, None] * u

    return ScalarField(dim=u.size, eval=ev, grad=gr,
                       lipschitz=float(abs(a) * np.linalg.norm(u)), name=name)


FORMER = {"linear_field": linear_field, "sine_field": sine_field,
          "tanh_ridge_field": tanh_ridge_field,
          "sine_ridge_field": sine_ridge_field}
BATTERIES = ("poincare_battery", "lsi_battery", "lipschitz_battery")


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def probe_points(f):
    """1000 normals, and the points the finite-difference check reads: its
    draw and that draw shifted by +-FD_STEP along each axis."""
    x = derive_rng(0, "field-oracle", f.dim).standard_normal((1000, f.dim))
    fd = derive_rng(0, "fd-check", f.name, f.dim).standard_normal(
        (gaussian.FD_POINTS, f.dim))
    shifts = [s * gaussian.FD_STEP * np.eye(f.dim)[j]
              for j in range(f.dim) for s in (1, -1)]
    return [x, fd] + [fd + e for e in shifts]


@pytest.mark.parametrize("battery", BATTERIES)
@pytest.mark.parametrize("seed", [0, 5, 7, 11])
def test_batteries_match_the_former_constructors(battery, seed, monkeypatch):
    new = getattr(fields, battery)(40, seed)
    for name, former in FORMER.items():
        monkeypatch.setattr(fields, name, former)
    old = getattr(fields, battery)(40, seed)
    assert [f.name for f in new] == [f.name for f in old]
    for f, g in zip(new, old):
        assert f.dim == g.dim
        # exact equality, both None when the field declares no constant
        assert f.lipschitz == g.lipschitz and type(f.lipschitz) is type(g.lipschitz)
        assert (f.grad is None) == (g.grad is None)
        for x in probe_points(f):
            assert hexes(f.eval(x)) == hexes(g.eval(x))
            if f.grad is not None:
                assert f.grad(x).shape == g.grad(x).shape == x.shape
                assert hexes(f.grad(x)) == hexes(g.grad(x))


def test_ridge_field_is_h_of_the_projection():
    u = np.array([3.0, -4.0])
    f = fields.ridge_field(u, np.square, lambda t: 2.0 * t, 7.0, "square")
    x = np.array([[1.0, 1.0], [2.0, 0.5]])
    assert f.eval(x).tolist() == [1.0, 16.0]
    assert f.grad(x).tolist() == [[-6.0, 8.0], [24.0, -32.0]]
    assert f.lipschitz == 35.0 and f.dim == 2 and f.name == "square"
    assert fields.ridge_field(u, np.sin, np.cos, None, "free").lipschitz is None
