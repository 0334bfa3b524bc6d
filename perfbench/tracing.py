"""Span tracing of contractkit's public layer calls, from outside the package.

Every public call into a layer module gets a span (name, start, end, parent,
item id).  Calls that happen hundreds of thousands of times per pass --
``VectorField.eval`` / ``jacobian``, the ``kernels`` functions, ``sip.norm`` /
``sip.sip`` -- are not spans: each span keeps a count and a time sum per
aggregated call name instead.  Spans stay in memory and are written out as
JSON lines when the run ends.

A span's self time is its duration minus the time covered by its child spans
and by the aggregated calls made directly under it.
"""

import functools
import inspect
import json
import os
import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs", "aggs",
                 "agg_top_s", "active", "in_agg")

    def __init__(self, name, parent, item, in_agg):
        self.name = name
        self.parent = parent
        self.item = item
        self.in_agg = in_agg      # opened inside an aggregated call of the parent
        self.attrs = {}
        self.aggs = {}            # name -> [count, seconds]
        self.agg_top_s = 0.0      # time of aggregated calls not nested in another
        self.active = []          # aggregated call names open under this span
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        in_agg = parent is not None and bool(self.spans[parent].active)
        self.spans.append(Span(name, parent, self.item, in_agg))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def current(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def self_times(self):
        """Self time of every span, by index."""
        covered = [s.agg_top_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None and not s.in_agg:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item, "attrs": s.attrs,
                    "aggs": s.aggs}) + "\n")


def span_call(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(span, result, args, kwargs)
        return result
    return wrapper


def count_call(tracer, name, fn):
    """Counts calls per span without timing them, so the time they take stays
    in the parent's self time."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.current()
        if span is not None:
            acc = span.aggs.get(name)
            if acc is None:
                acc = span.aggs[name] = [0, 0.0]
            acc[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def aggregate_call(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.current()
        if span is None:
            return fn(*args, **kwargs)
        active = span.active
        top = not active
        nested_same = name in active
        active.append(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            active.pop()
            acc = span.aggs.get(name)
            if acc is None:
                acc = span.aggs[name] = [0, 0.0]
            acc[0] += 1
            if not nested_same:
                acc[1] += dt
            if top:
                span.agg_top_s += dt
    return wrapper


class Patches:
    """Rebinds functions inside the loaded contractkit modules; undone on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, orig, value):
        """Rebind every module-level name bound to ``orig`` (this catches
        ``from .x import y`` copies as well as the defining module)."""
        for modname, mod in list(sys.modules.items()):
            if modname != "contractkit" and not modname.startswith("contractkit."):
                continue
            for name, obj in list(vars(mod).items()):
                if obj is orig:
                    self.set(mod, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


STENCIL_KERNELS = ("lap1d_periodic", "lap1d_neumann", "lap1d_dirichlet",
                   "burgers_rhs_centered", "burgers_rhs_upwind",
                   "allen_cahn_rhs", "brusselator_rhs")
LP_KERNELS = ("lp_power_sum", "lp_sip_smooth")

SPANS = {
    "cli": ("parse_config",),
    "reporting": ("write_csv", "write_report"),
    "flows": ("integrate", "integrate_variational", "verify_growth_bound",
              "mle_estimate"),
    "measures": ("mu", "weighted_rate", "nonlinear_rate", "mu_fd_oracle"),
    "weights": ("optimize_diagonal_weight", "check_radius_b"),
    "geometry": ("certify_subspace_contraction", "certify_manifold_contraction",
                 "certify_limit_cycle", "certify_phase_locking",
                 "check_subspace_invariance", "check_equivariance",
                 "check_temporal_symmetry"),
    "pde": ("heat_zero_flux_experiment", "reaction_diffusion_experiment",
            "nonlinear_poisson_experiment", "vanishing_osl_experiment",
            "sobolev_rate"),
}


def _record_steps(signature):
    def on_result(span, traj, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        span.attrs["accepted"] = int(traj.stats.get("accepted", 0))
        span.attrs["rejected"] = int(traj.stats.get("rejected", 0))
        span.attrs["adaptive"] = bound.arguments.get("rtol") is not None
    return on_result


def _record_method(span, est, args, kwargs):
    span.attrs["method"] = est.method


def _record_bytes(span, path, args, kwargs):
    span.attrs["bytes"] = os.path.getsize(path)


def instrument(tracer, patches):
    """Wrap every layer boundary of the loaded contractkit package."""
    # contractkit.sip names the function, not the module
    flows, kernels, measures, sip = (sys.modules[f"contractkit.{m}"] for m in
                                     ("flows", "kernels", "measures", "sip"))

    on_result = {
        "integrate": _record_steps(inspect.signature(flows.integrate)),
        "integrate_variational": _record_steps(
            inspect.signature(flows.integrate_variational)),
        "mu": _record_method,
        "weighted_rate": _record_method,
        "write_csv": _record_bytes,
        "write_report": _record_bytes,
    }
    for layer, names in SPANS.items():
        mod = sys.modules[f"contractkit.{layer}"]
        for name in names:
            orig = getattr(mod, name)
            patches.everywhere(orig, span_call(tracer, f"{layer}.{name}", orig,
                                               on_result.get(name)))

    vf = flows.VectorField
    patches.set(vf, "eval", aggregate_call(tracer, "flows.f", vf.__dict__["eval"]))
    patches.set(vf, "jacobian",
                aggregate_call(tracer, "flows.jac", vf.__dict__["jacobian"]))
    # counted, not timed, to cross-check the step counts of Trajectory.stats:
    # the stage arithmetic stays in flows.integrate_self_s
    patches.set(flows, "_rk4_step", count_call(tracer, "flows.rk4", flows._rk4_step))
    for name in STENCIL_KERNELS:
        patches.set(kernels, name,
                    aggregate_call(tracer, "kernels.stencil", getattr(kernels, name)))
    for name in LP_KERNELS:
        patches.set(kernels, name,
                    aggregate_call(tracer, "kernels.lp", getattr(kernels, name)))
    for orig in (sip.norm, sip.sip):
        patches.everywhere(orig, aggregate_call(tracer, "sip", orig))
    # the ray-search objectives are the only callers of sip inside measures
    for name in ("sip_norm", "sip_pair"):
        patches.set(measures, name, aggregate_call(
            tracer, "measures.objective", getattr(measures, name)))


def _agg(spans, name):
    count = secs = 0
    for s in spans:
        acc = s.aggs.get(name)
        if acc is not None:
            count += acc[0]
            secs += acc[1]
    return count, secs


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (counts per pass, seconds per pass)."""
    spans = tracer.spans
    self_s = tracer.self_times()
    m = {}

    integ = [s for s in spans if s.name in ("flows.integrate", "flows.integrate_variational")]
    steps = sum(s.attrs["accepted"] for s in integ)
    rejected = sum(s.attrs["rejected"] for s in integ)
    m["flows.steps"] = steps
    m["flows.steps_rejected"] = rejected
    m["flows.accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    f_n, f_s = _agg(spans, "flows.f")
    j_n, j_s = _agg(spans, "flows.jac")
    m["flows.f_evals"] = f_n
    m["flows.f_eval_us"] = 1e6 * f_s / f_n if f_n else 0.0
    m["flows.jac_evals"] = j_n
    m["flows.jac_s"] = j_s
    m["flows.integrate_self_s"] = sum(
        self_s[i] for i, s in enumerate(spans)
        if s.name in ("flows.integrate", "flows.integrate_variational"))

    m["kernels.stencil_calls"], m["kernels.stencil_s"] = _agg(spans, "kernels.stencil")
    m["kernels.lp_calls"], m["kernels.lp_s"] = _agg(spans, "kernels.lp")

    solves = {"closed_form": [0, 0.0], "eigen": [0, 0.0], "sampled": [0, 0.0]}
    rate_calls = ("measures.mu", "measures.weighted_rate")
    nonlinear_s = 0.0
    for s in spans:
        if s.name in rate_calls and not _has_ancestor(spans, s, rate_calls):
            acc = solves[s.attrs["method"]]
            acc[0] += 1
            acc[1] += s.duration
        elif s.name == "measures.nonlinear_rate" and not _has_ancestor(
                spans, s, ("measures.nonlinear_rate",)):
            nonlinear_s += s.duration
    for method, (count, _) in solves.items():
        m[f"measures.solves.{method}"] = count
    m["measures.solve_s.eigen"] = solves["eigen"][1]
    m["measures.solve_s.sampled"] = solves["sampled"][1]
    m["measures.objective_evals"] = _agg(spans, "measures.objective")[0]
    m["measures.nonlinear_rate_s"] = nonlinear_s

    m["sip.calls"], m["sip.s"] = _agg(spans, "sip")
    m["weights.optimize_s"] = sum(s.duration for s in spans
                                  if s.name == "weights.optimize_diagonal_weight"
                                  and not _has_ancestor(spans, s, (s.name,)))
    m["geometry.certify_self_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                       if s.name.startswith("geometry."))
    m["pde.experiment_self_s"] = sum(self_s[i] for i, s in enumerate(spans)
                                     if s.name.startswith("pde."))
    m["cli.parse_s"] = sum(s.duration for s in spans if s.name == "cli.parse_config")
    writes = [s for s in spans if s.name.startswith("reporting.")]
    m["reporting.write_s"] = sum(s.duration for s in writes)
    m["reporting.bytes"] = sum(s.attrs["bytes"] for s in writes)
    return m


def _has_ancestor(spans, span, names):
    p = span.parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def step_count_mismatches(tracer):
    """Integration spans whose RK4 step calls disagree with Trajectory.stats:
    a fixed-step run makes one call per accepted step, the step-doubling
    controller three per attempted step."""
    bad = []
    for s in tracer.spans:
        if s.name not in ("flows.integrate", "flows.integrate_variational"):
            continue
        calls = s.aggs.get("flows.rk4", [0])[0]
        a, r = s.attrs["accepted"], s.attrs["rejected"]
        expected = 3 * (a + r) if s.attrs["adaptive"] else a
        if calls != expected:
            bad.append((s.item, s.name, calls, expected))
    return bad
