"""contractkit benchmark: configs and rate solves, timed end to end and traced
per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a source checkout (``src/contractkit`` and ``configs``
must be there); nothing is installed.  Workloads (see BENCHMARK.json):

  ode_configs    `contractkit run` in-process on 7 small ODE configs
  pde_configs    the same on 7 semi-discretised PDE configs
  rates_sampled  ray-search solves of mu / weighted_rate (p not in {1, 2, inf})
  rates_eigen    closed-form solves (p = 2 eigen problems, p = 1 / inf sums)
                 on PDE Jacobians, n = 32..256

Every config is a copy of ``configs/<name>.cfg`` with its seed replaced by
the workload seed; rate inputs are drawn from the workload seed.

A run first sets up: it imports contractkit and the modules a pass imports
lazily, then generates the inputs.  ``setup_s`` is the median of that set-up
timed in this process and in SETUP_PROBES fresh interpreters.  It then
measures: one full pass over the items, then more rounds, each item run
again only while it still fits in ``--seconds``.  ``pass_s`` is the sum over
items of the median time of one run of the item, so one slow run of a cheap
item does not move it.  Every run of every item is checked (see
workloads.py); an item that raises or gives a wrong answer counts as failed.

The reported ``pass_s`` and ``setup_s`` are wall seconds rescaled to a host
of fixed speed, measured by a calibration loop that runs no contractkit
code: each set-up times the loop right after it, and the measuring times it
before an item runs, at most every CAL_EVERY_S.  The unscaled figures are
printed too.

With ``--trace 1`` the run makes one untraced and one traced pass and then
alternates them while time remains; the per-layer metrics come from the
first traced pass, and ``trace_overhead_s`` is traced minus untraced
``pass_s``.  The spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ode_configs", "pde_configs", "rates_sampled", "rates_eigen")
# what a pass imports beyond `import contractkit`; importing it is set-up work
LAZY_IMPORTS = ("contractkit.cli", "scipy.optimize")
# back-to-back set-ups of fresh interpreters range from 0.44 to 0.70 s on a
# 2-vCPU VM, so setup_s is a median over several
SETUP_PROBES = 6
# The host's speed drifts by +-20% over tens of seconds on a shared 2-vCPU VM.
# The gated times are rescaled to a host on which calibration_loop takes
# REF_CAL_S.  A set-up is interpreter work timed right next to its loops and
# follows them fully.  A pass mixes interpreter and numpy work and follows the
# loop less than fully: over two sets of ten 25-second runs per workload, the
# exponent that made pass_s steadiest was 1 for the ODE configs and the eigen
# solves, 0.5 to 0.75 for the sampled solves and 0 to 0.5 for the PDE configs.
CAL_EVERY_S = 0.5
REF_CAL_S = 0.008
PASS_EXPONENT = 0.75
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def cap_blas_threads():
    """One BLAS thread, whatever nproc is: on a 2-vCPU VM two threads made the
    dense solves of rates_eigen 1.7x slower and their run-to-run spread 4x
    wider, because a solve waits for the slower of the two virtual CPUs."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def check_checkout():
    missing = [p for p in ("src/contractkit/__init__.py", "configs/subspace.cfg",
                           "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: not a contractkit checkout ({', '.join(missing)} "
                 f"missing under {ROOT})")
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")


def set_up(workload, seed, work):
    """Import the package and generate the inputs; returns (items, import_s,
    setup_s, cal_s), where cal_s is the median calibration loop time right
    after."""
    t0 = perf_counter()
    import importlib

    import contractkit  # noqa: F401

    import_s = perf_counter() - t0
    for name in LAZY_IMPORTS:
        importlib.import_module(name)
    import numpy as np

    import workloads as wl

    rng = np.random.default_rng(seed)
    if workload == "ode_configs":
        items = wl.config_items(wl.ODE_CONFIGS, ROOT, work, seed)
    elif workload == "pde_configs":
        items = wl.config_items(wl.PDE_CONFIGS, ROOT, work, seed)
    elif workload == "rates_sampled":
        items = wl.sampled_items(rng)
    else:
        items = wl.eigen_items(rng)
    setup_s = perf_counter() - t0
    return items, import_s, setup_s, statistics.median(
        calibration_loop() for _ in range(3))


def probe_setup(workload, seed, work):
    """(set-up seconds, calibration loop seconds) of fresh interpreters, one
    per probe, and their import times."""
    times, imports = [], []
    for k in range(SETUP_PROBES):
        probe_work = os.path.join(work, f"probe{k}")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--work", probe_work],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        times.append((res["setup_s"], res["cal_s"]))
        imports.append(res["import_s"])
    return times, imports


def calibration_loop():
    """Seconds for a fixed piece of interpreter work.  Of the loops tried
    (this one, small-array numpy arithmetic, 8x8 matrix products) it tracked
    the ODE configs best."""
    t0 = perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return perf_counter() - t0


class Outcomes:
    def __init__(self):
        self.durations = {}   # item id -> [seconds per run]
        self.attempted = 0
        self.failed = 0
        self.shortfalls = []
        self.calibration = []  # seconds per calibration loop
        self._last_cal = float("-inf")

    def pass_s(self):
        return sum(statistics.median(d) for d in self.durations.values())

    def calibrate(self):
        """Time the calibration loop, at most once every CAL_EVERY_S."""
        if perf_counter() - self._last_cal >= CAL_EVERY_S:
            self.calibration.append(calibration_loop())
            self._last_cal = perf_counter()

    def host_factor(self):
        """REF_CAL_S over the median calibration loop time of the run."""
        return REF_CAL_S / statistics.median(self.calibration)


def run_item(item, outcomes, tracer=None):
    outcomes.calibrate()
    if tracer is not None:
        tracer.item = item.id
        span = tracer.open("item")
    t0 = perf_counter()
    try:
        result = item.run()
        error = None
    except Exception:  # an item that raises is a failed operation, not a crash
        result, error = None, traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    outcomes.durations.setdefault(item.id, []).append(dt)
    outcomes.attempted += 1
    problems = [error] if error else item.check(result)
    if problems:
        outcomes.failed += 1
        print(f"FAILED {item.id}: " + "; ".join(problems), file=sys.stderr)
    elif hasattr(item, "shortfall"):
        s = item.shortfall(result)
        if s is not None:
            outcomes.shortfalls.append(s)
    return dt


def measure(items, seconds, outcomes):
    """One full pass, then further rounds over the items that still fit."""
    start = perf_counter()
    for item in items:
        run_item(item, outcomes)
    while True:
        ran = False
        for item in items:
            last = outcomes.durations[item.id][-1]
            if perf_counter() - start + last <= seconds:
                run_item(item, outcomes)
                ran = True
        if not ran:
            return


def measure_traced(items, seconds, plain, traced):
    """Alternate untraced and traced passes; returns the tracer of the first
    traced pass."""
    import tracing

    first = None
    start = perf_counter()
    while first is None or perf_counter() - start + 2 * plain.pass_s() <= seconds:
        for item in items:
            run_item(item, plain)
        tracer = tracing.Tracer()
        with tracing.Patches() as patches:
            tracing.instrument(tracer, patches)
            for item in items:
                run_item(item, traced, tracer)
        first = first or tracer
    return first


def percentile_tail(values):
    """(label, value) at the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than 20 samples."""
    import numpy as np

    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}", float(np.percentile(values, q))
    return "max", float(max(values))


def environment(nproc):
    import numpy as np
    import scipy

    from contractkit import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "kernels_backend": kernels.backend(),
    }


def declared_metrics(trace_on):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def latency_lines(workload, outcomes):
    """The per-solve latency of the rates workloads, printed but not gated."""
    per_run = [d for ds in outcomes.durations.values() for d in ds]
    cls = workload.split("_")[1]
    label, tail = percentile_tail(per_run)
    lines = [(f"{cls}_solve_ms_p50", 1e3 * statistics.median(per_run), "ms",
              f"n={len(per_run)}"),
             (f"{cls}_solve_ms_tail", 1e3 * tail, "ms", f"{label}, n={len(per_run)}")]
    if workload == "rates_sampled":
        lines.append(("sampled_shortfall_max", max(outcomes.shortfalls, default=0.0),
                      "ratio", f"over {len(outcomes.shortfalls)} plain lp solves"))
    return lines


def run_workload(args):
    nproc = cap_blas_threads()
    check_checkout()
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        items, import_s, setup_s, cal_s = set_up(args.workload, args.seed, work)
        loaded = set(sys.modules)
        probe_times, probe_imports = probe_setup(args.workload, args.seed, work)
        env = environment(nproc)
        plain = Outcomes()
        if args.trace:
            traced = Outcomes()
            tracer = measure_traced(items, args.seconds, plain, traced)
        else:
            measure(items, args.seconds, plain)
        late = sorted(m for m in set(sys.modules) - loaded
                      if m.split(".")[0] in ("contractkit", "scipy", "numpy"))
        if late:
            print(f"note: modules imported during the pass: {', '.join(late)}",
                  file=sys.stderr)
        setups = [(setup_s, cal_s)] + probe_times
        wall = {"pass_s": plain.pass_s(),
                "setup_s": statistics.median(t for t, _ in setups)}
        host = plain.host_factor()
        e2e = {
            "pass_s": (wall["pass_s"] * host ** PASS_EXPONENT, "s"),
            "setup_s": (statistics.median(t * REF_CAL_S / c for t, c in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if args.trace:
            import tracing
            import workloads as wl

            metrics = tracing.layer_metrics(tracer)
            metrics["import_s"] = statistics.median([import_s] + probe_imports)
            metrics["trace_overhead_s"] = traced.pass_s() - plain.pass_s()
            metrics["measures.sampled_shortfall_max"] = max(plain.shortfalls + traced.shortfalls,
                                                            default=0.0)
            for name in wl.CONFIGS:
                metrics[f"config.{name}.s"] = sum(
                    s.duration for s in tracer.spans
                    if s.name == "item" and s.item == name)
            mismatches = tracing.step_count_mismatches(tracer)
            if mismatches:
                raise SystemExit(f"perfbench: RK4 calls disagree with Trajectory.stats: "
                                 f"{mismatches[:5]}")
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            metrics = {k: v for k, (v, _) in e2e.items()}
            attempted, failed = plain.attempted, plain.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         f"do not match BENCHMARK.json")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {len(items)}  attempted {attempted}  failed {failed}")
    rows = [(k, v, u, "") for k, (v, u) in e2e.items()]
    rows += [(f"{k}_wall", v, "s", "as measured, not rescaled") for k, v in wall.items()]
    rows.append(("host_factor", host, "ratio",
                 f"{REF_CAL_S} s / median of {len(plain.calibration)} calibration loops; "
                 f"pass_s = pass_s_wall * host_factor^{PASS_EXPONENT}"))
    rows.append(("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"))
    if args.workload.startswith("rates_"):
        rows += latency_lines(args.workload, plain)
    if args.trace:
        rows += [(k, metrics[k], units[k], "") for k in units]
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    for item_id, ds in plain.durations.items():
        print(f"  item {item_id:<29} {statistics.median(ds):>14.6g} s      runs={len(ds)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args):
    cap_blas_threads()
    check_checkout()
    os.makedirs(args.work, exist_ok=True)
    _, import_s, setup_s, cal_s = set_up(args.workload, args.seed, args.work)
    print(json.dumps({"import_s": import_s, "setup_s": setup_s, "cal_s": cal_s}))


def run_all(args):
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
