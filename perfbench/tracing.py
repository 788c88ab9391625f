"""Spans recorded from outside the program, around calls into vrfrbs.

A `Tracer` keeps every span in memory: its name, start, end, parent span,
the cell or check id current when it opened, the components it evaluated
(oracle spans) and a value taken from the call's result (calls charged by
an estimator step, iterations of a solver run).  `instrument` swaps the
public module attributes that vrfrbs resolves at call time for traced
wrappers and puts them back on exit; `ProxyOperator` stands in for a
problem's forward operator the way `tests/helpers.InstrumentedOperator`
does, timing and counting every component evaluation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

from vrfrbs import bench, estimators, solver, verification

# span record fields
NAME, START, END, PARENT, CELL, COMPONENTS, VALUE = range(7)

ORACLE_SPANS = ("core.batch_mean.small", "core.batch_mean.large",
                "core.batch_components", "core.full")
ESTIMATOR_SPANS = ("estimators.estimator_step", "estimators.make_estimator")


class Tracer:
    """In-memory span store.  Spans nest through a stack, so the tracer
    serves one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.cell = None

    def call(self, name, fn, args, kwargs=None, components=0, value=None):
        """Run fn(*args, **kwargs) inside a span; `value` maps the result to
        the number stored with the span."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.cell, components, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = self.clock()
            self.stack.pop()
        if value is not None:
            rec[VALUE] = value(result)
        return result

    def wrap(self, name, fn, value=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value=value)
        return traced

    def block(self, name, fn, *args, cell=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; `cell`, when given, is the
        id of every span opened inside it."""
        previous = self.cell
        if cell is not None:
            self.cell = cell
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self.cell = previous


class ProxyOperator:
    """Forward-operator proxy: counts component evaluations (full -> n,
    batch access -> len(batch)) and, given a tracer, times each call as an
    oracle span.  Batch means are split at the n // 4 batch size where the
    problems switch from the gather path to the dense path."""

    def __init__(self, op, tracer=None):
        self._op = op
        self._tracer = tracer
        self.components = 0

    def __getattr__(self, name):
        # anything not counted, such as draw, goes to the wrapped operator
        return getattr(self._op, name)

    def _eval(self, name, fn, args, m):
        self.components += m
        if self._tracer is None:
            return fn(*args)
        return self._tracer.call(name, fn, args, components=m)

    def batch_components(self, x, idx):
        return self._eval("core.batch_components", self._op.batch_components,
                          (x, idx), len(idx))

    def batch_mean(self, x, idx):
        m = len(idx)
        name = "core.batch_mean.small" if m < self.n // 4 \
            else "core.batch_mean.large"
        return self._eval(name, self._op.batch_mean, (x, idx), m)

    def full(self, x):
        return self._eval("core.full", self._op.full, (x,), self.n)


def proxied(problem, tracer=None):
    """Copy of an InclusionProblem whose forward operator is a proxy."""
    return dataclasses.replace(problem,
                               forward=ProxyOperator(problem.forward, tracer))


_GENERATORS = ("gen_auc_dataset", "gen_random_mdp", "uniform_features",
               "sample_transitions")
_BUILDERS = ("build_auc_problem", "build_pe_problem",
             "strongly_monotone_affine")


@contextlib.contextmanager
def instrument(tracer):
    """Replace the module attributes vrfrbs calls through with traced
    wrappers for the duration of the block."""
    original_build = bench.build_problem

    def build_problem(*args, **kwargs):
        # problem set-up is shared by the cells that follow it
        tracer.cell = "setup"
        problem = tracer.call("bench.build_problem", original_build, args,
                              kwargs)
        return proxied(problem, tracer)

    def make_cell(kind, *args, **kwargs):
        # a harness cell starts with its estimator; its id is the kind
        tracer.cell = kind
        return make(kind, *args, **kwargs)

    patches = [(bench, "build_problem", build_problem)]
    patches += [(bench, name, tracer.wrap("problems.gen_data",
                                          getattr(bench, name)))
                for name in _GENERATORS]
    patches += [(bench, name, tracer.wrap("problems.build",
                                          getattr(bench, name)))
                for name in _BUILDERS]
    make = tracer.wrap("estimators.make_estimator", estimators.make_estimator,
                       value=lambda st: st.init_calls)
    step = tracer.wrap("estimators.estimator_step", estimators.estimator_step,
                       value=lambda result: result[1])
    patches += [
        (bench, "make_estimator", make_cell),
        (bench, "run", tracer.wrap("solver.run", solver.run,
                                   value=lambda trace: trace.iterations_run)),
        (solver, "estimator_step", step),
        (solver, "apply_resolvent", tracer.wrap("core.apply_resolvent",
                                                solver.apply_resolvent)),
        (solver, "fb_residual", tracer.wrap("core.fb_residual",
                                            solver.fb_residual)),
        (verification, "estimator_step", step),
        (verification, "make_estimator", make),
        (estimators.EstimatorState, "clone",
         tracer.wrap("verification.clone", estimators.EstimatorState.clone)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the part of it that its children's
    intervals cover (overlapping children are counted once)."""
    children = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _estimator_ancestor(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in ESTIMATOR_SPANS:
            return parent
        parent = spans[parent][PARENT]
    return -1


def crosscheck(spans):
    """Oracle components evaluated under estimator spans against the calls
    those estimator spans charged, per cell or check id.

    Returns ({cell: (components, charged)}, unmetered components).  Oracle
    spans outside any estimator span (the residual diagnostic's full
    evaluations, verification's exact reference values) are unmetered.
    """
    per_cell = {}
    unmetered = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        if name in ESTIMATOR_SPANS:
            comps, charged = per_cell.get(rec[CELL], (0, 0))
            per_cell[rec[CELL]] = (comps, charged + rec[VALUE])
        elif name in ORACLE_SPANS:
            owner = _estimator_ancestor(spans, i)
            if owner < 0:
                unmetered += rec[COMPONENTS]
            else:
                cell = spans[owner][CELL]
                comps, charged = per_cell.get(cell, (0, 0))
                per_cell[cell] = (comps + rec[COMPONENTS], charged)
    return per_cell, unmetered


def tail_percentile(count):
    """Highest of 50/90/99/99.9/99.99 with at least ten samples beyond it
    (0 when there are fewer than twenty samples)."""
    best = 0.0
    # a share 1/divisor of the samples lies beyond each percentile
    for pct, divisor in ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000),
                         (99.99, 10_000)):
        if count >= 10 * divisor:
            best = pct
    return best


def _percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1,
            max(0, int(round(pct / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[k]


def layer_metrics(spans):
    """Per-layer totals of one traced pass."""
    selfs = self_times(spans)
    total = {}
    self_s = {}
    calls = {}
    comps = {}
    values = {}
    step_us = []
    for rec, self_time in zip(spans, selfs):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        comps[name] = comps.get(name, 0) + rec[COMPONENTS]
        values[name] = values.get(name, 0) + rec[VALUE]
        if name == "estimators.estimator_step":
            step_us.append(dur * 1e6)
    step_us.sort()

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def per_component(name):
        return own(name) / comps[name] * 1e9 if comps.get(name) else 0.0

    small, large = "core.batch_mean.small", "core.batch_mean.large"
    step = "estimators.estimator_step"
    tail = tail_percentile(len(step_us))
    per_cell, unmetered = crosscheck(spans)
    return {
        "problems.gen_data_s": total.get("problems.gen_data", 0.0),
        "problems.build_s": total.get("problems.build", 0.0)
        + total.get("problems.linear_toy", 0.0),
        "problems.builds": count("bench.build_problem", "problems.linear_toy"),
        "core.batch_mean.calls": count(small, large),
        "core.batch_mean.components": comps.get(small, 0) + comps.get(large, 0),
        "core.batch_mean.self_s": own(small, large),
        "core.batch_mean.ns_per_component.small": per_component(small),
        "core.batch_mean.ns_per_component.large": per_component(large),
        "core.batch_components.components":
            comps.get("core.batch_components", 0),
        "core.batch_components.self_s": own("core.batch_components"),
        "core.full.calls": count("core.full"),
        "core.full.self_s": own("core.full"),
        "core.apply_resolvent.calls": count("core.apply_resolvent"),
        "core.apply_resolvent.self_s": own("core.apply_resolvent"),
        "core.fb_residual.calls": count("core.fb_residual"),
        "core.fb_residual.self_s": own("core.fb_residual"),
        "estimators.make_estimator_s":
            total.get("estimators.make_estimator", 0.0),
        "estimators.estimator_step.calls": count(step),
        "estimators.estimator_step.self_s": own(step),
        "estimators.estimator_step.p50_us": _percentile(step_us, 50.0),
        "estimators.estimator_step.tail_pct": tail,
        "estimators.estimator_step.tail_us": _percentile(step_us, tail),
        "estimators.oracle_calls":
            sum(values.get(n, 0) for n in ESTIMATOR_SPANS),
        "solver.iterations": values.get("solver.run", 0),
        "solver.run.self_s": own("solver.run"),
        "bench.run_experiment.self_s": own("bench.run_experiment"),
        "verification.build_history_s":
            total.get("verification.build_history", 0.0),
        "verification.clone.self_s": own("verification.clone"),
        "verification.check.self_s": own("verification.check"),
        "trace.unmetered_components": unmetered,
        "trace.crosscheck_mismatches":
            sum(1 for comps_, charged in per_cell.values()
                if comps_ != charged),
    }
