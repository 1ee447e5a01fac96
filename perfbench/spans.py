"""Spans around epkit's public functions, installed from outside ``src/``.

A :class:`Tracer` replaces a function at every place it is bound (the module
that defines it, each module that imported it by name, the CLI's suite table,
a class attribute) with a wrapper that records a span and reads counts off
the result, then puts the originals back on :meth:`Tracer.uninstall`.  Spans
are ``[name, start, end, parent, run_id]`` rows kept in memory; counters hold
plain numbers only, never the returned arrays.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _iterations(args, kwargs, res):
    return {"iterations": res.iterations, "uncertified": int(not res.certified)}


def _sparsify(args, kwargs, res):
    return {"attempts": res.attempts, "failed": int(not res.success)}


def _draws(args, kwargs, res):
    return {"draws": kwargs.get("n_samples", args[3] if len(args) > 3 else 2000)}


def _nbytes(args, kwargs, res):
    return {"bytes_computed": res.nbytes}


def _samples(args, kwargs, res):
    return {"samples": res.n_samples}


def _text_bytes(args, kwargs, res):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


# (span name, module, attribute path, counter).  Module-level functions are
# also replaced wherever another epkit module or the CLI suite table holds
# them, because callers look them up by the name they were imported under.
TARGETS = [
    ("regression.solve_ls_l1", "regression", "solve_ls_l1", _iterations),
    ("regression.design_rank", "regression", "design_rank", None),
    ("regression.l1_rate_experiment", "regression", "l1_rate_experiment", None),
    ("regression.l1_localized_sup", "regression", "l1_localized_sup", None),
    ("regression.critical_radius", "regression", "critical_radius", _draws),
    ("regression.localized_complexity_mc", "regression", "localized_complexity_mc", None),
    ("regression.estimate_bad_event_probability", "regression",
     "estimate_bad_event_probability", None),
    ("metric.from_points", "metric", "FiniteMetricSet.from_points", None),
    ("metric.farthest_point_order", "metric", "FiniteMetricSet.farthest_point_order", None),
    ("metric.covering_number_bounds", "metric", "covering_number_bounds", None),
    ("metric.is_epsilon_net", "metric", "is_epsilon_net", None),
    ("metric.entropy_profile", "metric", "entropy_profile", None),
    ("metric.entropy_integral", "metric", "entropy_integral", None),
    ("metric.dyadic_sum", "metric", "dyadic_sum", None),
    ("chaining.realize", "chaining", "CanonicalProcess.realize", _nbytes),
    ("chaining.stage1_bound_check", "chaining", "stage1_bound_check", None),
    ("chaining.dudley_bound_check", "chaining", "dudley_bound_check", None),
    ("chaining.build_dyadic_nets", "chaining", "build_dyadic_nets", None),
    ("chaining.projection_step_margins", "chaining", "projection_step_margins", None),
    ("chaining.telescoping_residual", "chaining", "telescoping_residual", None),
    ("chaining.subgaussian_process_check", "chaining", "subgaussian_process_check", None),
    ("gaussian.poincare_gap", "gaussian", "poincare_gap", None),
    ("gaussian.gaussian_lsi_gap", "gaussian", "gaussian_lsi_gap", None),
    ("gaussian.herbst_cgf_gap", "gaussian", "herbst_cgf_gap", None),
    ("gaussian.lipschitz_tail_gap", "gaussian", "lipschitz_tail_gap", None),
    ("gaussian.finite_max_bound_check", "gaussian", "finite_max_bound_check", None),
    ("gaussian.mollify_1d", "gaussian", "mollify_1d", None),
    ("gaussian.McEstimate.from_samples", "gaussian", "McEstimate.from_samples", _samples),
    ("discrete.efron_stein_gap", "discrete", "efron_stein_gap", None),
    ("discrete.entropy_duality_check", "discrete", "entropy_duality_check", None),
    ("discrete.tensorization_gap", "discrete", "tensorization_gap", None),
    ("discrete.han_inequality_gap", "discrete", "han_inequality_gap", None),
    ("discrete.bernoulli_lsi_gap", "discrete", "bernoulli_lsi_gap", None),
    ("maurey.maurey_sparsify", "maurey", "maurey_sparsify", _sparsify),
    ("maurey.l1_hull_net_construct", "maurey", "l1_hull_net_construct", None),
    ("fields.poincare_battery", "fields", "poincare_battery", None),
    ("fields.lsi_battery", "fields", "lsi_battery", None),
    ("fields.lipschitz_battery", "fields", "lipschitz_battery", None),
    ("reports.write_text", "reports", "write_text", _text_bytes),
    ("rng.derive_rng", "rng", "derive_rng", None),
] + [(f"cli.run_{suite}", "cli", f"run_{suite}", None)
     for suite in ("cover", "entropy", "discrete_check", "gauss_check", "dudley",
                   "regress", "maurey")]


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.run_id = ""
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        """``fn`` with a span named ``name`` around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                bucket = self.counts[self.run_id]
                for key, val in counter(args, kwargs, result).items():
                    bucket[f"{name}.{key}"] += val
            return result

        return traced

    def run_spans(self, run_id):
        """The spans of one run, with parents renumbered to index that list
        (a run's spans are contiguous in ``self.spans``)."""
        idx = [i for i, row in enumerate(self.spans) if row[4] == run_id]
        first = idx[0] if idx else 0
        return [[name, start, end, parent - first if parent >= 0 else -1, rid]
                for name, start, end, parent, rid in self.spans[first:first + len(idx)]]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at each place it is bound in epkit's modules."""
        modules = {key[len("epkit."):]: mod for key, mod in list(sys.modules.items())
                   if key.startswith("epkit.") and mod is not None}
        modules[""] = sys.modules["epkit"]
        for name, mod_name, path, counter in TARGETS:
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                continue
            wrapped = self.wrap(name, raw, counter)
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._set(mod, key, wrapped)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is raw:
                                self._undo.append((val, k, v))
                                val[k] = wrapped

    def uninstall(self):
        """Put every replaced binding back, most recent first."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for idx, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[idx], key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_stats(spans, counts):
    """Per span name: calls, total_s (outermost spans only, so recursion is
    not counted twice), self_s, and the counters read off results."""
    stats = defaultdict(lambda: defaultdict(int))
    selfs = self_times(spans)
    names = [row[0] for row in spans]

    def nested_in(idx, name):
        parent = spans[idx][3]
        while parent >= 0:
            if names[parent] == name:
                return True
            parent = spans[parent][3]
        return False

    for idx, (name, start, end, _, _) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += selfs[idx]
        if not nested_in(idx, name):
            s["total_s"] += end - start
    for key, val in counts.items():
        name, stat = key.rsplit(".", 1)
        stats[name][stat] += val
    sup_in_radius = sum(1 for idx, name in enumerate(names)
                        if name == "regression.l1_localized_sup"
                        and nested_in(idx, "regression.critical_radius"))
    draws = stats["regression.critical_radius"]["draws"]
    stats["regression.critical_radius"]["g_evals"] = (sup_in_radius / draws
                                                      if draws else 0.0)
    return stats


def top_level_time(spans):
    """Summed duration of spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
