"""The built-in oscillators and the records taken of their simulations,
against the formulas they replaced: the per-state loops and the numpy-array
right-hand sides, kept here as references.  Every comparison is exact
(``np.array_equal``), on random states and on the states the shipped
``limit_cycle`` and ``phase_locking`` configs simulate at their seeds."""

import os

import numpy as np
import pytest

from contractkit import cli, geometry, systems
from contractkit.errors import ContractViolation
from contractkit.geometry import Conjugacy, Projector, Submersion
from contractkit.pde import build_discretization
from contractkit.sip import L2, NormSpec
from contractkit.sip import norm as sip_norm

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SEEDS = (0, 918273)


def hopf_reference(omega, gain):
    """hopf_field's f and jac as first written, on numpy scalars."""

    def f(t, u):
        x, y = u
        r2 = x * x + y * y
        return np.array([gain * x * (1.0 - r2) - omega * y,
                         gain * y * (1.0 - r2) + omega * x])

    def jac(t, u):
        x, y = u
        return np.array([
            [gain * (1.0 - 3.0 * x * x - y * y), -omega - 2.0 * gain * x * y],
            [omega - 2.0 * gain * x * y, gain * (1.0 - x * x - 3.0 * y * y)],
        ])

    return f, jac


def coupled_reference(omegas, conj_mats, coupling):
    """coupled_hopf_field's f as first written, on numpy arrays."""
    n_osc = len(omegas)
    M = np.stack([np.asarray(Mi, dtype=float) for Mi in conj_mats])
    Minv = np.linalg.inv(M)
    omega = np.asarray(omegas, dtype=float)
    K = float(coupling)

    def f(t, u):
        v = (M @ np.asarray(u, dtype=float).reshape(n_osc, 2, 1))[..., 0]
        x, y = v[:, 0], v[:, 1]
        radial = 1.0 - (x * x + y * y)
        dv = (K * n_osc) * (v.sum(axis=0) / n_osc - v)
        dv[:, 0] += x * radial - omega * y
        dv[:, 1] += y * radial + omega * x
        return (Minv @ dv[..., None]).reshape(-1)

    return f


def random_states(seed, n, dim):
    """States with norms spread over 1e-3 .. 1e3 around the unit circle."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))


def random_conj_mats(seed, n_osc):
    rng = np.random.default_rng(seed)
    return [np.eye(2)] + [np.eye(2) + 0.4 * rng.standard_normal((2, 2))
                          for _ in range(n_osc - 1)]


def shipped_run(name, seed, tmp_path):
    """Run a shipped config at ``seed``: the arguments of every oscillator
    it builds, every trajectory ``geometry.simulate`` returns, and the
    quantity and trajectories of every ``geometry._decay_cross_check``."""
    built, trajs, decays = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        for maker in ("hopf_field", "coupled_hopf_field"):
            def spy(*args, _maker=maker, _orig=getattr(systems, maker), **kwargs):
                built.append((_maker, args, kwargs))
                return _orig(*args, **kwargs)
            mp.setattr(systems, maker, spy)

        def simulate(*args, _orig=geometry.simulate, **kwargs):
            trajs.append(_orig(*args, **kwargs))
            return trajs[-1]
        mp.setattr(geometry, "simulate", simulate)

        def decay_cross_check(f, sim, dim, quantity, *args, _orig=geometry._decay_cross_check,
                              **kwargs):
            out = _orig(f, sim, dim, quantity, *args, **kwargs)
            decays.append((quantity, out[1]))
            return out
        mp.setattr(geometry, "_decay_cross_check", decay_cross_check)
        with open(os.path.join(CONFIG_DIR, f"{name}.cfg")) as fh:
            text = fh.read().replace("seed = 0", f"seed = {seed}")
        assert f"seed = {seed}" in text
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        mp.setenv("CONTRACTKIT_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.run(str(cfg)) == 0
    return built, trajs, decays


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def limit_cycle_run(request, tmp_path_factory):
    return shipped_run("limit_cycle", request.param, tmp_path_factory.mktemp("lc"))


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def phase_locking_run(request, tmp_path_factory):
    return shipped_run("phase_locking", request.param, tmp_path_factory.mktemp("pl"))


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def manifold_run(request, tmp_path_factory):
    return shipped_run("manifold", request.param, tmp_path_factory.mktemp("mf"))


def assert_field_bits(fld, ref, states):
    for u in states:
        assert np.array_equal(fld(0.0, u), ref(0.0, u)), u


class TestHopfField:
    @pytest.mark.parametrize("omega, gain", [(1.0, 1.0), (1.3, 0.7), (-2.0, 3.5)])
    def test_same_bits_on_random_states(self, omega, gain):
        fld = systems.hopf_field(omega=omega, gain=gain)
        f, jac = hopf_reference(omega, gain)
        states = random_states(1, 4000, 2)
        assert_field_bits(fld.eval, f, states)
        for u in states[:1000]:
            assert np.array_equal(fld.jacobian(0.0, u), jac(0.0, u))

    def test_same_bits_on_the_shipped_trajectories(self, limit_cycle_run):
        built, trajs, _ = limit_cycle_run
        _, args, kwargs = built[0]
        fld = systems.hopf_field(*args, **kwargs)
        f, jac = hopf_reference(kwargs["omega"], kwargs["gain"])
        for traj in trajs:
            assert_field_bits(fld.eval, f, traj.states)
            assert_field_bits(fld.jacobian, jac, traj.states[::10])


class TestConjugatedField:
    def test_singular_matrix_raises(self):
        with pytest.raises(ContractViolation, match="conjugacy matrix is singular"):
            systems.conjugated_field(systems.hopf_field(), np.ones((2, 2)))


class TestCoupledHopfField:
    @pytest.mark.parametrize("n_osc", [1, 3, 5])
    def test_same_bits_on_random_states(self, n_osc):
        rng = np.random.default_rng(n_osc)
        omegas = list(rng.uniform(0.5, 1.5, n_osc))
        mats = random_conj_mats(n_osc, n_osc)
        for coupling in (0.0, 0.4):
            fld = systems.coupled_hopf_field(omegas, mats, coupling)
            ref = coupled_reference(omegas, mats, coupling)
            assert_field_bits(fld.eval, ref, random_states(n_osc, 2000, 2 * n_osc))

    def test_singular_conjugacy_matrix_raises(self):
        mats = [np.eye(2), np.ones((2, 2))]
        with pytest.raises(ContractViolation, match="conjugacy matrix is singular"):
            systems.coupled_hopf_field([1.0, 1.0], mats, coupling=0.4)

    def test_same_bits_on_the_shipped_trajectory(self, phase_locking_run):
        built, trajs, _ = phase_locking_run
        (_, args, kwargs), = [b for b in built if b[0] == "coupled_hopf_field"]
        fld = systems.coupled_hopf_field(*args, **kwargs)
        ref = coupled_reference(*args, **kwargs)
        (traj,) = trajs
        assert_field_bits(fld.eval, ref, traj.states)


def limit_cycle_quantity_loop(sub, conj, states):
    """The limit-cycle decay series, one state at a time."""
    return np.array([float(np.linalg.norm(sub.value(conj.value(u)))) for u in states])


def shear_conjugacy():
    return Conjugacy.linear(np.array([[1.0, 0.6], [-0.2, 1.3]]))


def polar_conjugacy():
    """A nonlinear h that does not broadcast over stacked states."""
    return Conjugacy(h=lambda u: np.array([np.hypot(*u), np.arctan2(u[1], u[0])]),
                     h_inv=lambda v: v[0] * np.array([np.cos(v[1]), np.sin(v[1])]))


class TestStackedRecords:
    @pytest.mark.parametrize("make", [Conjugacy.identity, shear_conjugacy, polar_conjugacy])
    def test_conjugacy_values_are_the_loop(self, make):
        conj = make()
        states = random_states(2, 3000, 2)
        assert np.array_equal(conj.values(states),
                              np.array([conj.value(u) for u in states]))

    def test_identity_returns_the_states(self):
        states = random_states(3, 10, 2)
        assert Conjugacy.identity().values(states) is states

    def test_linear_values_on_strided_blocks(self):
        # phase locking maps each oscillator's columns of the trajectory
        states = random_states(4, 2000, 6)
        for i, M in enumerate(random_conj_mats(4, 3)):
            block = states[:, 2 * i:2 * i + 2]
            assert np.array_equal(Conjugacy.linear(M).values(block),
                                  np.array([M @ u for u in block]))

    @pytest.mark.parametrize("sub, dim", [
        (systems.circle_submersion(), 2),
        (Submersion(phi=lambda u: u[:2] ** 2 - u[2], codim=2), 3),
        (Submersion(phi=lambda u: float(u @ u) - 1.0), 3),        # a scalar phi
    ], ids=["circle", "codim2", "scalar"])
    def test_submersion_values_are_the_loop(self, sub, dim):
        states = random_states(5, 3000, dim)
        assert np.array_equal(sub.values(states), np.array([sub.value(u) for u in states]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_l2_row_norms_are_linalg_norm(self, dim):
        # the decay series were np.linalg.norm of each state's map
        states = random_states(dim, 3000, dim)
        assert np.array_equal(sip_norm(states, L2, rows=True),
                              np.array([np.linalg.norm(u) for u in states]))

    @pytest.mark.parametrize("make", [Conjugacy.identity, shear_conjugacy, polar_conjugacy])
    def test_limit_cycle_series_is_the_loop(self, make):
        sub, conj = systems.circle_submersion(), make()
        states = random_states(6, 3000, 2)
        assert np.array_equal(sip_norm(sub.values(conj.values(states)), L2, rows=True),
                              limit_cycle_quantity_loop(sub, conj, states))

    def test_subspace_series_is_the_loop(self):
        grid = build_discretization(16, boundary="periodic").grid
        proj = Projector.mean(16)
        states = random_states(7, 500, 16)
        for spec in (NormSpec(p=2.0), NormSpec(p=3.0), NormSpec(p=np.inf)):
            assert np.array_equal(sip_norm(proj.q_rows(states), spec, grid, rows=True),
                                  np.array([sip_norm(proj.Q @ u, spec, grid) for u in states]))

    def test_shipped_limit_cycle_records(self, limit_cycle_run):
        _, trajs, [(quantity, decay_trajs)] = limit_cycle_run
        sub, conj = systems.circle_submersion(), Conjugacy.identity()
        for traj in decay_trajs:
            assert np.array_equal(quantity(traj.states),
                                  limit_cycle_quantity_loop(sub, conj, traj.states))
        for traj in trajs:
            assert np.array_equal(np.abs(sub.values(conj.values(traj.states))[:, 0]),
                                  np.array([abs(sub.value(conj.value(u))[0])
                                            for u in traj.states]))

    def test_shipped_manifold_records(self, manifold_run):
        _, trajs, [(quantity, decay_trajs)] = manifold_run
        sub = systems.circle_submersion()
        for traj in decay_trajs:
            assert np.array_equal(quantity(traj.states), np.array(
                [float(np.linalg.norm(sub.value(u))) for u in traj.states]))
        for traj in trajs:
            assert np.array_equal(np.abs(sub.values(traj.states)[:, 0]),
                                  np.array([abs(sub.value(u)[0]) for u in traj.states]))

    def test_shipped_phase_locking_records(self, phase_locking_run):
        built, (traj,), _ = phase_locking_run
        (_, (_, mats, _), _), = [b for b in built if b[0] == "coupled_hopf_field"]
        conjs = [Conjugacy.linear(M) for M in mats]
        vs = np.concatenate([c.values(traj.states[:, 2 * i:2 * i + 2])
                             for i, c in enumerate(conjs)], axis=1)
        loop = np.stack([np.concatenate([c.value(u[2 * i:2 * i + 2])
                                         for i, c in enumerate(conjs)])
                         for u in traj.states])
        assert np.array_equal(vs, loop)

    def test_decay_cross_check_fits_the_loop_series(self):
        sub, conj = systems.circle_submersion(), shear_conjugacy()
        fld = systems.conjugated_field(systems.hopf_field(), conj.linear_matrix)
        sim = geometry.SimCheck(t_end=10.0, dt=5e-3, seed=3, record_every=10)
        stacked, _ = geometry._decay_cross_check(
            fld, sim, 2, lambda U: sip_norm(sub.values(conj.values(U)), L2, rows=True), -2.0)
        loop, _ = geometry._decay_cross_check(
            fld, sim, 2, lambda U: limit_cycle_quantity_loop(sub, conj, U), -2.0)
        assert stacked["fits"] == loop["fits"]
