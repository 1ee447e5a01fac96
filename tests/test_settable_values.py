"""Every value a caller of epkit can set without being made to.

A defaulted parameter multiplies what the tests and benchmarks must cover,
so the inventory below is kept by hand: adding an option, or removing one,
is an edit to SETTABLE that a reviewer sees.  Counted are the defaulted
parameters of each public function, of each public method and of each
class's own constructor (for a dataclass, its defaulted init fields).
"""

import inspect

from epkit import (chaining, cli, discrete, fields, gaussian, maurey, metric,
                   regression, reports, rng)

MODULES = (chaining, cli, discrete, fields, gaussian, maurey, metric, regression,
           reports, rng)

SETTABLE = {
    "chaining.sample_maxima.rows",
    "chaining.build_dyadic_nets.D",
    "chaining.build_dyadic_nets.K",
    "chaining.dudley_bound_check.D",
    "chaining.MgfRow.overflow",
    "cli.main.argv",
    "fields.linear_field.name",
    "fields.sine_field.name",
    "fields.tanh_ridge_field.name",
    "fields.sine_ridge_field.name",
    "fields.norm_field.name",
    "fields.max_field.name",
    "fields.logsumexp_field.name",
    "gaussian.ScalarField.grad",
    "gaussian.ScalarField.lipschitz",
    "gaussian.ScalarField.name",
    "gaussian.finite_max_bound_check.budget",
    "gaussian.bump_first_moment.n_nodes",
    "maurey.maurey_sparsify.seed",
    "maurey.l1_hull_net_construct.n_validation",
    "maurey.l1_hull_net_construct.seed",
    "metric.blocks.align",
    "metric.FiniteMetricSet.dmat",
    "metric.FiniteMetricSet.points",
    "metric.entropy_integral.nodes",
    "regression.solve_ls_l1.tol",
    "regression.solve_ls_l1.max_iter",
    "regression.solve_ls_l1_batch.tol",
    "regression.solve_ls_l1_batch.max_iter",
    "regression.critical_radius.n_samples",
    "regression.critical_radius.seed",
    "regression.dudley_capacity_bound.resolution",
    "regression.RateReport.params",
    "reports.CheckReport.n_samples",
    "reports.ReportCollector.reports",
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
    assert len(SETTABLE) == 36
