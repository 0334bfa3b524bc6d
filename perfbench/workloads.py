"""Workload items and their correctness checks.

Each workload is a list of items generated from the workload seed.  An item
has ``run()``, the timed call into contractkit, and ``check(result)``, which
returns the list of problems with that result (empty when it is right).  The
references used by the checks are computed with numpy alone, never with
contractkit, and outside the timed region.
"""

import contextlib
import io
import json
import math
import os
import re
import sys

import numpy as np

# Two configs are left out because they fail at some seeds, and a benchmark
# workload must be one on which no operation fails.  These are defects of the
# experiments, not of the benchmark (see README.md):
# - `heat`: its fitted_decay_within_2pct check fails at about a third of
#   seeds.  `subspace` and `rates_eigen` cover the same heat field and
#   mean-complement rate.
# - `manifold`: at some seeds (577215 among them) a simulated trajectory
#   decays slower than the certified rate, so the run withholds its
#   certificate and exits 2.  `limit_cycle` runs the same Hopf field;
#   geometry.certify_manifold_contraction is no longer timed.
ODE_CONFIGS = ("growth_bound", "mle", "limit_cycle", "phase_locking",
               "measure", "weighted_rate", "optimize_weight")
PDE_CONFIGS = ("subspace", "symmetry", "reaction_diffusion",
               "reaction_diffusion_turing", "poisson", "sobolev_rate", "vanishing_osl")
CONFIGS = ODE_CONFIGS + PDE_CONFIGS

# config -> (exit code, names of the checks that must fail); every other
# config must exit 0 with every check passing.  The Turing counter-example
# withholds its certificate by design.
EXPECTED_OUTCOME = {"reaction_diffusion_turing": (2, {"species_0_rate_vs_diffusion"})}

CLOSED_FORM_RTOL = 1e-9   # closed forms vs the numpy reference, relative to the scale
UPPER_BOUND_RTOL = 1e-9   # slack on the Young-inequality upper bound
SWEEP_POINTS = {2: 20_000, 3: 200_000}
# points made at a time: the sweep's arrays stay under 1 MB, well below the
# workload's own memory, so the reference does not set peak_rss_mb
SWEEP_CHUNK = 4_000


# ---------------------------------------------------------------------------
# configs run through the CLI
# ---------------------------------------------------------------------------

class ConfigItem:
    def __init__(self, name, cfg_path, out_root):
        self.id = name
        self.cfg_path = cfg_path
        self.out_root = out_root
        self.runs = 0

    def run(self):
        from contractkit import cli

        out = os.path.join(self.out_root, f"{self.id}-{self.runs}")
        self.runs += 1
        os.environ["CONTRACTKIT_OUTPUT_DIR"] = out
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", self.cfg_path])
        return rc, out, sink.getvalue()

    def check(self, result):
        rc, out, log = result
        want_rc, want_failed = EXPECTED_OUTCOME.get(self.id, (0, set()))
        problems = []
        if rc != want_rc:
            problems.append(f"exit code {rc}, expected {want_rc}: {log.strip()[-200:]}")
        try:
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return problems + [f"no readable report.json: {exc}"]
        checks = list(_checks_in(report))
        if not checks and self.id in EXPECTED_OUTCOME:
            problems.append("report has no checks")
        failed = {c["name"] for c in checks if not c["passed"]}
        if failed != want_failed:
            got = ", ".join(f"{c['name']}={c['value']:.6g} {c['direction']} "
                            f"{c['threshold']:.6g}" for c in checks if not c["passed"])
            problems.append(f"failing checks [{got}], expected {sorted(want_failed)}")
        return problems


def _checks_in(obj):
    if isinstance(obj, dict):
        if {"name", "value", "threshold", "passed", "direction"} <= set(obj):
            yield obj
            return
        for v in obj.values():
            yield from _checks_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _checks_in(v)


def write_seeded_config(src_path, dst_path, seed):
    with open(src_path) as fh:
        text = fh.read()
    text, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if count != 1:
        raise ValueError(f"{src_path}: expected one seed line, found {count}")
    with open(dst_path, "w") as fh:
        fh.write(text)


def config_items(names, root, work, seed):
    cfg_dir = os.path.join(work, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    items = []
    for name in names:
        dst = os.path.join(cfg_dir, f"{name}.cfg")
        write_seeded_config(os.path.join(root, "configs", f"{name}.cfg"), dst, seed)
        items.append(ConfigItem(name, dst, os.path.join(work, "out")))
    return items


# ---------------------------------------------------------------------------
# numpy references
# ---------------------------------------------------------------------------

def mu1_ref(A):
    d = np.real(np.diag(A))
    return float(np.max(np.sum(np.abs(A), axis=0) - np.abs(np.diag(A)) + d))


def muinf_ref(A):
    d = np.real(np.diag(A))
    return float(np.max(np.sum(np.abs(A), axis=1) - np.abs(np.diag(A)) + d))


def sym(A):
    return 0.5 * (A + A.T)


def pencil_max_ref(S, G):
    """Largest eigenvalue of the symmetric pencil (S, G) through a Cholesky
    reduction to a standard problem."""
    L = np.linalg.cholesky(G)
    Li = np.linalg.inv(L)
    return float(np.linalg.eigvalsh(sym(Li @ S @ Li.T))[-1])


def centered_derivative(n, h, periodic):
    """Centered first difference, one-sided second order at closed ends."""
    D = np.zeros((n, n))
    c = 1.0 / (2.0 * h)
    for i in range(n):
        if periodic:
            D[i, (i + 1) % n] += c
            D[i, (i - 1) % n] -= c
        elif i == 0:
            D[0, :3] = [-3.0 * c, 4.0 * c, -c]
        elif i == n - 1:
            D[i, n - 3:] = [c, -4.0 * c, 3.0 * c]
        else:
            D[i, i + 1], D[i, i - 1] = c, -c
    return D


def young_upper_bound(A, p):
    """max_k Re a_kk + (1 - 1/p) sum_{j != k} |a_kj| + (1/p) sum_{i != k} |a_ik|,
    an upper bound on the lp measure of A."""
    off = np.abs(A) - np.diag(np.abs(np.diag(A)))
    rows = off.sum(axis=1)
    cols = off.sum(axis=0)
    return float(np.max(np.real(np.diag(A)) + (1.0 - 1.0 / p) * rows + cols / p))


def _sphere_points(dim, count, start, stop):
    """Points start..stop-1 of a count-point cover of the unit half circle
    (dim 2) or the unit sphere (dim 3)."""
    i = np.arange(start, stop) + 0.5
    if dim == 2:
        th = math.pi * i / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    z = 1.0 - 2.0 * i / count                       # Fibonacci sphere
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def lp_ratio(A, V, p):
    """[v, Av] / ||v||^2 in lp for each row v of V."""
    AV = V @ A.T
    aV = np.abs(V)
    return np.sum(aV ** (p - 1.0) * np.sign(V) * AV, axis=1) / np.sum(aV ** p, axis=1)


def measure_lower_bound(A, p):
    """max(spectral abscissa, max_k Re a_kk, best of a dense sphere sweep for
    dim <= 3): each term is a true lower bound on the lp measure."""
    n = A.shape[0]
    best = max(float(np.max(np.real(np.linalg.eigvals(A)))),
               float(np.max(np.real(np.diag(A)))))
    if n in SWEEP_POINTS:
        count = SWEEP_POINTS[n]
        for k in range(0, count, SWEEP_CHUNK):
            pts = _sphere_points(n, count, k, min(k + SWEEP_CHUNK, count))
            best = max(best, float(np.max(lp_ratio(A, pts, p))))
    return best


# ---------------------------------------------------------------------------
# direct rate solves
# ---------------------------------------------------------------------------

class RateItem:
    """One mu / weighted_rate call.  ``exact`` items carry a closure for the
    numpy reference value; ``sampled`` items may carry the matrix whose
    Young bound caps the value, and the plain ones a lower bound L."""

    def __init__(self, item_id, call, method, exact=None, bound_matrix=None,
                 p=None, plain=False, scale=1.0):
        self.id = item_id
        self.call = call
        self.method = method
        self.exact = exact
        self.bound_matrix = bound_matrix
        self.p = p
        self.plain = plain
        self.scale = scale
        self._ref = None

    def run(self):
        return self.call()

    def reference(self):
        if self._ref is None:
            if self.exact is not None:
                self._ref = {"value": self.exact()}
            else:
                ref = {}
                if self.bound_matrix is not None:
                    ref["upper"] = young_upper_bound(self.bound_matrix, self.p)
                if self.plain:
                    ref["lower"] = measure_lower_bound(self.bound_matrix, self.p)
                self._ref = ref
        return self._ref

    def check(self, est):
        problems = []
        if est.method != self.method:
            problems.append(f"method {est.method!r}, expected {self.method!r}")
        if not math.isfinite(est.value):
            return problems + [f"non-finite value {est.value}"]
        ref = self.reference()
        if "value" in ref:
            scale = max(1.0, abs(ref["value"]), self.scale)
            err = abs(est.value - ref["value"]) / scale
            if err > CLOSED_FORM_RTOL:
                problems.append(f"value {est.value!r} vs reference {ref['value']!r}: "
                                f"relative error {err:.3g} > {CLOSED_FORM_RTOL}")
        if "upper" in ref:
            slack = UPPER_BOUND_RTOL * max(1.0, abs(ref["upper"]), self.scale)
            if est.value > ref["upper"] + slack:
                problems.append(f"sampled value {est.value!r} above the upper bound "
                                f"{ref['upper']!r}")
        return problems

    def shortfall(self, est):
        """max(0, L - value) / (1 + |L|) for plain lp items, else None."""
        if not self.plain:
            return None
        lower = self.reference()["lower"]
        return max(0.0, lower - est.value) / (1.0 + abs(lower))


# The solves look the functions up on the module at call time, so that a
# traced run sees the wrapped ones.
def mu(*args, **kwargs):
    return sys.modules["contractkit.measures"].mu(*args, **kwargs)


def weighted_rate(*args, **kwargs):
    return sys.modules["contractkit.measures"].weighted_rate(*args, **kwargs)


def _periodic_laplacian(n):
    h = 1.0 / n
    L = -2.0 * np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    return L / h**2


def sampled_items(rng):
    """Ray-search solves: random lp measures at p in {1.5, 3, 4} and dims 2-6,
    an invertible diagonal and a projection-complement weight at p = 3, the
    n = 8 / 16 periodic Laplacian at p = 3 and a Sobolev (k=1, p=3) measure
    on an n = 8 grid."""
    from contractkit import NormSpec, weights
    from contractkit.grids import Grid

    def seed():
        return int(rng.integers(2**31))

    items = []
    for p, dims in ((1.5, (2, 3, 4)), (3.0, (2, 3, 5)), (4.0, (2, 3, 6))):
        for d in dims:
            A = rng.standard_normal((d, d))
            spec, s = NormSpec(p=p), seed()
            items.append(RateItem(f"mu_p{p:g}_d{d}", lambda A=A, spec=spec, s=s: mu(A, spec, seed=s),
                                  "sampled", bound_matrix=A, p=p, plain=True))

    spec3 = NormSpec(p=3.0)
    A = rng.standard_normal((4, 4))
    dg = rng.uniform(0.2, 5.0, 4)
    th, s = weights.diagonal(dg), seed()
    items.append(RateItem(
        "diagonal_p3_d4", lambda A=A, th=th, s=s: weighted_rate(A, th, spec=spec3, seed=s),
        "sampled", bound_matrix=np.diag(dg) @ A @ np.diag(1.0 / dg), p=3.0))

    A = rng.standard_normal((4, 4))
    th, s = weights.projection_complement(np.full((4, 4), 0.25)), seed()
    items.append(RateItem(
        "projection_p3_d4", lambda A=A, th=th, s=s: weighted_rate(A, th, spec=spec3, seed=s),
        "sampled"))

    for n in (8, 16):
        L, s = _periodic_laplacian(n), seed()
        items.append(RateItem(f"laplacian_p3_n{n}", lambda L=L, s=s: mu(L, spec3, seed=s),
                              "sampled", bound_matrix=L, p=3.0, plain=True,
                              scale=float(np.max(np.abs(L)))))

    L, s = _periodic_laplacian(8), seed()
    grid = Grid((8,), (1.0 / 8,), "periodic")
    sob = NormSpec(p=3.0, k=1)
    items.append(RateItem("sobolev_k1_p3_n8",
                          lambda L=L, s=s: mu(L, sob, grid=grid, seed=s), "sampled"))
    return items


def eigen_items(rng):
    """Dense closed-form solves on PDE Jacobians at n = 32..256: p = 2
    identity-weighted, mean-complement-weighted and Sobolev k = 1 rates, and
    the p = 1 / p = inf measures."""
    from contractkit import L1, L2, LINF, NormSpec, pde, weights

    sob = NormSpec(p=2.0, k=1)
    items = []
    for n in (32, 64, 128, 256):
        heat = pde.build_discretization(n, boundary="neumann")
        per = pde.build_discretization(n, boundary="periodic")
        x = np.arange(n) / n
        fields = {
            "heat": (heat, pde.heat_field(heat, rng.uniform(0.5, 2.0)),
                     rng.standard_normal(n)),
            "allen_cahn": (heat, pde.reaction_diffusion_field(
                heat, [rng.uniform(0.01, 0.5)], pde.allen_cahn_reaction()),
                rng.uniform(-1.0, 1.0, n)),
            "burgers": (per, pde.burgers_field(per, rng.uniform(0.01, 0.1)),
                        rng.uniform(0.5, 1.0) * np.sin(2 * math.pi * x)
                        + 0.1 * rng.standard_normal(n)),
        }
        ident = weights.identity()
        qw = weights.projection_complement(np.full((n, n), 1.0 / n))
        for fname, (disc, fld, u) in fields.items():
            J = fld.jacobian(0.0, u)
            Jd = J.toarray() if hasattr(J, "toarray") else np.asarray(J)
            scale = float(np.max(np.sum(np.abs(Jd), axis=1)))
            tag = f"{fname}_n{n}"
            D = centered_derivative(n, disc.h, disc.boundary == "periodic")
            G = disc.h * (np.eye(n) + D.T @ D)

            def complement_ref(Jd=Jd):
                w, V = np.linalg.eigh(np.eye(len(Jd)) - 1.0 / len(Jd))
                V = V[:, w > 0.5]
                return float(np.linalg.eigvalsh(sym(V.T @ Jd @ V))[-1])

            items += [
                RateItem(f"identity_{tag}",
                         lambda J=J: weighted_rate(J, ident, spec=L2), "eigen",
                         exact=lambda Jd=Jd: float(np.linalg.eigvalsh(sym(Jd))[-1]),
                         scale=scale),
                RateItem(f"complement_{tag}",
                         lambda J=J, qw=qw: weighted_rate(J, qw, spec=L2), "eigen",
                         exact=complement_ref, scale=scale),
                RateItem(f"sobolev_{tag}",
                         lambda J=J, g=disc.grid: mu(J, sob, grid=g), "eigen",
                         exact=lambda Jd=Jd, G=G: pencil_max_ref(sym(G @ Jd), G),
                         scale=scale),
                RateItem(f"l1_{tag}", lambda J=J: mu(J, L1), "closed_form",
                         exact=lambda Jd=Jd: mu1_ref(Jd), scale=scale),
                RateItem(f"linf_{tag}", lambda J=J: mu(J, LINF), "closed_form",
                         exact=lambda Jd=Jd: muinf_ref(Jd), scale=scale),
            ]
    return items
