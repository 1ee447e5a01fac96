"""Every value a caller of epkit can set without being made to.

A defaulted parameter multiplies what the tests and benchmarks must cover,
so the inventory below is kept by hand: adding an option, or removing one,
is an edit to SETTABLE that a reviewer sees.  Counted are the defaulted
parameters of each public function, of each public method and of each
class's own constructor (for a dataclass, its defaulted init fields).
"""

import inspect
import pkgutil

import epkit
from epkit import (blas, chaining, cli, discrete, fields, gaussian, maurey, metric,
                   regression, reports, rng, workers)

MODULES = (blas, chaining, cli, discrete, fields, gaussian, maurey, metric,
           regression, reports, rng, workers)

# each is a default that some command runs
SETTABLE = {
    "chaining.sample_maxima.rows",
    "chaining.build_dyadic_nets.D",
    "chaining.build_dyadic_nets.K",
    "chaining.dudley_bound_check.D",
    "chaining.MgfRow.overflow",
    "cli.main.argv",
    "gaussian.ScalarField.grad",
    "gaussian.ScalarField.lipschitz",
    "metric.blocks.align",
    "metric.FiniteMetricSet.dmat",
    "metric.FiniteMetricSet.points",
    "reports.ReportCollector.add.n_samples",
}


def defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def settable_values() -> set:
    found = set()
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            prefix = f"{mod.__name__.removeprefix('epkit.')}.{name}"
            if inspect.isfunction(obj):
                found |= {f"{prefix}.{p}" for p in defaulted(obj)}
                continue
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)   # class methods
                if inspect.isfunction(fn) and attr == "__init__":
                    found |= {f"{prefix}.{p}" for p in defaulted(fn)}
                elif inspect.isfunction(fn) and not attr.startswith("_"):
                    found |= {f"{prefix}.{attr}.{p}" for p in defaulted(fn)}
    return found


def test_settable_values_are_the_listed_ones():
    found = settable_values()
    added, removed = sorted(found - SETTABLE), sorted(SETTABLE - found)
    assert not added and not removed, (
        f"settable values added: {added}; removed: {removed}")
    assert len(SETTABLE) == 12


def test_every_module_is_inventoried():
    names = {f"epkit.{m.name}" for m in pkgutil.iter_modules(epkit.__path__)}
    assert names == {mod.__name__ for mod in MODULES}
