"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Deliberately wrong answers -- a closed-form or eigen rate shifted by 1e-3,
   a sampled rate above its upper bound, a config whose exit code or check
   verdict is flipped -- are counted as failures by the workload checks, and
   an integration whose RK4 step calls disagree with its
   ``Trajectory.stats`` is caught by the cross-check every traced run makes.
2. Every workload runs at seed 0 untraced once and traced twice.  The metric
   names match BENCHMARK.json, the traced counts repeat exactly, and the
   counts the layer predictions fix at zero are zero.  ``flows.steps`` is the
   sum of ``Trajectory.stats["accepted"]``; a traced run that completes has
   passed the RK4 cross-check, which counts the steps independently.

Exits 0 when every check holds.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTS = ("flows.steps", "flows.steps_rejected", "flows.f_evals",
                "flows.jac_evals", "measures.solves.closed_form",
                "measures.solves.eigen", "measures.solves.sampled",
                "measures.objective_evals", "kernels.stencil_calls",
                "kernels.lp_calls", "sip.calls")
ZERO_ON = {
    "measures.solves.sampled": ("ode_configs", "pde_configs", "rates_eigen"),
    "kernels.lp_calls": ("ode_configs", "pde_configs", "rates_eigen"),
    "kernels.stencil_calls": ("ode_configs", "rates_sampled", "rates_eigen"),
}


def injected_faults():
    """Wrong answers the checks must catch; returns the ones they missed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import workloads as wl

    missed = []
    eig = wl.eigen_items(np.random.default_rng(0))
    for item in (eig[0], eig[3]):          # an eigen and a closed-form solve
        est = item.run()
        if item.check(est):
            missed.append(f"{item.id}: the true answer was refused")
        wrong = copy.copy(est)
        wrong.value = est.value + 1e-3
        if not item.check(wrong):
            missed.append(f"{item.id}: a rate shifted by 1e-3 passed")

    import tracing

    tracer = tracing.Tracer()
    span = tracer.open("flows.integrate")
    span.attrs.update(accepted=10, rejected=0, adaptive=False)
    span.aggs["flows.rk4"] = [9, 0.0]
    tracer.close(span)
    if not tracing.step_count_mismatches(tracer):
        missed.append("an RK4 call count below Trajectory.stats passed")

    sampled = [i for i in wl.sampled_items(np.random.default_rng(0)) if i.id == "mu_p3_d2"][0]
    est = sampled.run()
    wrong = copy.copy(est)
    wrong.value = sampled.reference()["upper"] + 1e-3
    if sampled.check(est) or not sampled.check(wrong):
        missed.append("mu_p3_d2: the upper-bound check did not separate right from wrong")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selfcheck") as work:
        item = wl.config_items(["subspace"], ROOT, work, 0)[0]
        rc, out, log = item.run()
        if item.check((rc, out, log)):
            missed.append("subspace: the true answer was refused")
        if not item.check((2, out, log)):
            missed.append("subspace: a flipped exit code passed")
        path = os.path.join(out, "report.json")
        with open(path) as fh:
            report = json.load(fh)
        report["report"]["checks"][0]["passed"] = False
        with open(path, "w") as fh:
            json.dump(report, fh)
        if not item.check((rc, out, log)):
            missed.append("subspace: a flipped check verdict passed")
    return missed


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    problems = injected_faults()
    for w in WORKLOADS:
        plain = run(w, 0)
        first = run(w, 1)
        second = run(w, 1)
        for trace, res in ((0, plain), (1, first), (1, second)):
            if set(res["metrics"]) != declared[trace]:
                problems.append(f"{w}: trace {trace} metric names differ from BENCHMARK.json")
        m1 = {k: v["value"] for k, v in first["metrics"].items()}
        m2 = {k: v["value"] for k, v in second["metrics"].items()}
        for name in EXACT_COUNTS:
            if m1[name] != m2[name]:
                problems.append(f"{w}: {name} differs between traced runs: "
                                f"{m1[name]} vs {m2[name]}")
        for name, zero_on in ZERO_ON.items():
            if w in zero_on and m1[name] != 0:
                problems.append(f"{w}: {name} = {m1[name]}, predicted 0")
        print(f"{w}: steps {m1['flows.steps']}, f_evals {m1['flows.f_evals']}, "
              f"solves {m1['measures.solves.closed_form']}/{m1['measures.solves.eigen']}/"
              f"{m1['measures.solves.sampled']}, overhead {m1['trace_overhead_s']:.3f} s")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
