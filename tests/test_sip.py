"""Norms and semi-inner products: closed forms, the difference-quotient
oracle, and the pairing axioms."""

import numpy as np
import pytest

from contractkit.errors import ContractViolation, DimensionError
from contractkit.grids import Grid, derivative_ops
from contractkit.sip import _ORACLE_RTOL, L1, L2, LINF, NormSpec, OracleResult, norm, sip

P_VALUES = [1.0, 1.5, 2.0, 3.0, np.inf]


def sip_fd_oracle(u, v, spec=L2, h_list=None, grid=None):
    """Definition-level oracle for [u, v] on ``grid``: one-sided difference
    quotients of the norm at decreasing h.  Returns the value at the smallest
    h and a convergence flag (the last two quotients within ``_ORACLE_RTOL``)."""
    if h_list is None:
        h_list = np.geomspace(1e-3, 1e-8, 11)
    h_list = np.asarray(h_list, dtype=float)
    if h_list.size == 0 or np.any(h_list <= 0) or np.any(np.diff(h_list) >= 0):
        raise ContractViolation("h_list must be nonempty, positive, strictly decreasing")
    u, v = np.asarray(u), np.asarray(v)
    nu = norm(u, spec, grid)
    vals = np.empty_like(h_list)
    for i, h in enumerate(h_list):
        nq = norm(u + h * v, spec, grid)
        vals[i] = nu * (nq - nu) / h
    scale = max(1.0, abs(vals[-1]))
    converged = bool(h_list.size > 1 and abs(vals[-1] - vals[-2]) <= _ORACLE_RTOL * scale)
    return OracleResult(value=float(vals[-1]), converged=converged, quotients=vals)


def spec(p, k=0):
    return NormSpec(p=p, k=k)


class TestNorm:
    def test_euclidean_two_point(self):
        assert norm(np.array([3.0, 4.0]), L2) == pytest.approx(5.0)

    def test_zero_vector(self):
        for p in P_VALUES:
            assert norm(np.zeros(4), spec(p)) == 0.0

    def test_l1_hand_value(self):
        assert norm(np.array([1.0, -2.0, 3.0]), L1) == pytest.approx(6.0)

    def test_linf(self):
        assert norm(np.array([1.0, -7.0, 3.0]), LINF) == pytest.approx(7.0)

    def test_quadrature_weights_sum_to_measure(self):
        g = Grid((10,), (0.25,))
        ones = np.ones(10)
        measure = g.cell_measure * g.npoints
        assert norm(ones, L1, g) == pytest.approx(measure)
        assert norm(ones, L2, g) == pytest.approx(np.sqrt(measure))

    def test_positive_definite_on_grid(self):
        rng = np.random.default_rng(0)
        g = Grid((8,), (0.1,))
        u = rng.standard_normal(8)
        for p in [1.0, 1.5, 2.0, 3.0]:
            assert norm(u, spec(p), g) > 0

    @pytest.mark.parametrize("k", [0, 1])
    def test_size_not_whole_grid_functions_raises(self, k):
        # 12 values are not a whole number of 8-point grid functions: no
        # silent fall back to unit weights
        g = Grid((8,), (0.1,))
        with pytest.raises(DimensionError):
            norm(np.ones(12), spec(2.0, k), g)
        with pytest.raises(DimensionError):
            norm(np.ones((3, 12)), spec(2.0, k), g, rows=True)
        with pytest.raises(DimensionError):
            sip(np.ones(12), np.ones(12), spec(2.0, k), g)

    @pytest.mark.parametrize("p,k", [(1.0, 0), (2.0, 0), (3.0, 0), (np.inf, 0), (2.0, 1)])
    def test_flat_stacked_components_taken_on_the_grid(self, p, k):
        # two species on a 16-point grid, flat: 32 values, one per species and point
        g = Grid((16,), (1.0 / 16,), "periodic")
        u = np.random.default_rng(5).standard_normal(32)
        # the same state as one row per species is the same norm, bit for bit
        assert norm(u, spec(p, k), g) == norm(u.reshape(2, 16), spec(p, k), g)
        # every order's derivative applied to each species, all of them
        # weighted by the cell measure 1/16
        slices = [np.concatenate([op @ c for c in u.reshape(2, 16)])
                  for op in derivative_ops(g, k)]
        if np.isinf(p):
            want = np.abs(slices[0]).max()
        else:
            orders = [np.sum(np.abs(s) ** p / 16) ** (1.0 / p) for s in slices]
            want = np.sqrt(np.sum(np.square(orders)))
        assert norm(u, spec(p, k), g) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    @pytest.mark.parametrize("k,on_grid", [(0, False), (0, True), (1, True)])
    def test_rows_are_states(self, p, k, on_grid):
        # five two-species states on a 16-point grid, one per row; unit
        # weights off the grid
        g = Grid((16,), (1.0 / 16,), "periodic") if on_grid else None
        U = np.random.default_rng(6).standard_normal((5, 32))
        got = norm(U, spec(p, k), g, rows=True)
        want = np.array([norm(u, spec(p, k), g) for u in U])
        assert got.shape == (5,)
        # bit for bit: p = 2 takes one dot product per row, as for one
        # state, p = inf a max, and every other p one sum per row and the
        # root by the same array loop
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k,on_grid", [(0, False), (0, True), (1, True)])
    def test_no_rows_no_norms(self, k, on_grid):
        g = Grid((16,), (1.0 / 16,), "periodic") if on_grid else None
        got = norm(np.empty((0, 32)), spec(2.0, k), g, rows=True)
        assert got.shape == (0,) and got.dtype == float

    def test_sobolev_norm_without_grid_raises(self):
        # the derivatives are taken on the grid: no silent unit grid
        u = np.sin(2 * np.pi * np.arange(16) / 16)
        with pytest.raises(ContractViolation):
            norm(u, spec(2.0, 1))
        with pytest.raises(ContractViolation):
            norm(u[None], spec(2.0, 1), rows=True)

    def test_two_species_of_ones_hand_value(self):
        # each species has squared L2 norm 16 * (1/16) = 1
        g = Grid((16,), (1.0 / 16,))
        assert norm(np.ones(32), L2, g) == pytest.approx(np.sqrt(2.0))

    def test_invalid_spec(self):
        with pytest.raises(ContractViolation):
            NormSpec(p=0.5)
        with pytest.raises(ContractViolation):
            NormSpec(p=2.0, k=-1)


class TestSipClosedForms:
    def test_p1_zero_entry_right_limit(self):
        # d+|0 + 5h| = |5|, so [u, v] = ||u||_1 * (0 + 5)
        assert sip(np.array([1.0, 0.0]), np.array([0.0, 5.0]), L1) == pytest.approx(5.0)

    def test_pinf_unique_argmax(self):
        assert sip(np.array([2.0, 1.0]), np.array([3.0, -1.0]), LINF) == pytest.approx(6.0)

    def test_pinf_tied_argmax_right_limit(self):
        # ||u + h v||_inf = max(|2 + h|, |-2 + 5h|) = 2 + h for small h > 0
        u = np.array([2.0, -2.0])
        v = np.array([1.0, 5.0])
        assert sip(u, v, LINF) == pytest.approx(2.0)
        got = sip_fd_oracle(u, v, LINF)
        assert got.value == pytest.approx(2.0, abs=1e-6)

    def test_sip_of_zero_vector(self):
        for p in P_VALUES:
            assert sip(np.zeros(3), np.ones(3), spec(p)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sip(np.ones(3), np.ones(4))

    def test_complex_p2_real_part_convention(self):
        u = np.array([1.0 + 1.0j, 2.0])
        v = np.array([0.5 - 0.5j, 1.0j])
        assert sip(u, v, L2) == pytest.approx(np.real(np.vdot(u, v)))
        assert sip(u, u, L2) == pytest.approx(norm(u, L2) ** 2)


class TestComplexStates:
    rng = np.random.default_rng(13)

    def _complex(self, n=5):
        return self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    def test_closed_form_matches_oracle(self, p):
        s = spec(p)
        for _ in range(20):
            u, v = self._complex(), self._complex()
            if p == 1.0:
                u[1] = 0.0                   # the p = 1 kink at a zero entry
            got = sip_fd_oracle(u, v, s)
            scale = max(1.0, norm(u, s) * norm(v, s))
            assert abs(sip(u, v, s) - got.value) <= 1e-6 * scale
            assert got.converged

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    def test_sip_uu_is_norm_squared(self, p):
        for _ in range(20):
            u = self._complex()
            assert sip(u, u, spec(p)) == pytest.approx(norm(u, spec(p)) ** 2, rel=1e-12)


class TestSipAxioms:
    rng = np.random.default_rng(7)

    def _random_pair(self, n=6):
        return self.rng.standard_normal(n), self.rng.standard_normal(n)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_sip_uu_is_norm_squared(self, p):
        for _ in range(50):
            u, _ = self._random_pair()
            lhs = sip(u, u, spec(p))
            rhs = norm(u, spec(p)) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_cauchy_schwarz(self, p):
        for _ in range(50):
            u, v = self._random_pair()
            s = spec(p)
            assert sip(u, v, s) ** 2 <= (norm(u, s) * norm(v, s)) ** 2 * (1 + 1e-10)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_subadditive_second_slot(self, p):
        for _ in range(50):
            u, v = self._random_pair()
            _, w = self._random_pair()
            s = spec(p)
            scale = max(1.0, abs(sip(u, v, s)) + abs(sip(u, w, s)))
            assert sip(u, v + w, s) <= sip(u, v, s) + sip(u, w, s) + 1e-10 * scale

    @pytest.mark.parametrize("p", P_VALUES)
    def test_nonnegative_homogeneity(self, p):
        for _ in range(50):
            u, v = self._random_pair()
            a = float(self.rng.uniform(0.0, 3.0))
            s = spec(p)
            base = sip(u, v, s)
            scale = max(1.0, abs(base))
            assert abs(sip(a * u, v, s) - a * base) <= 1e-10 * scale * max(a, 1.0)
            assert abs(sip(u, a * v, s) - a * base) <= 1e-10 * scale * max(a, 1.0)


class TestOracle:
    rng = np.random.default_rng(11)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_closed_form_matches_oracle(self, p):
        s = spec(p)
        for _ in range(30):
            u = self.rng.standard_normal(5)
            v = self.rng.standard_normal(5)
            closed = sip(u, v, s)
            got = sip_fd_oracle(u, v, s)
            scale = max(1.0, norm(u, s) * norm(v, s))
            assert abs(closed - got.value) <= 1e-6 * scale
            assert got.converged

    def test_oracle_flags_and_value_shape(self):
        got = sip_fd_oracle(np.array([1.0, 2.0]), np.array([0.3, -0.4]), L2)
        assert got.quotients.shape[0] == 11

    def test_oracle_validates_h_list(self):
        u = np.ones(2)
        with pytest.raises(ContractViolation):
            sip_fd_oracle(u, u, L2, h_list=[1e-3, 1e-2])
        with pytest.raises(ContractViolation):
            sip_fd_oracle(u, u, L2, h_list=[])


class TestSobolev:
    rng = np.random.default_rng(3)

    def test_pairing_without_grid_raises(self):
        u = np.sin(2 * np.pi * np.arange(16) / 16)
        with pytest.raises(ContractViolation):
            sip(u, u, NormSpec(p=3.0, k=1))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_consistency_and_oracle(self, k, p):
        g = Grid((16,), (1.0 / 16,), "periodic")
        s = NormSpec(p=p, k=k)
        for _ in range(5):
            u = self.rng.standard_normal(16)
            v = self.rng.standard_normal(16)
            assert sip(u, u, s, g) == pytest.approx(norm(u, s, g) ** 2, rel=1e-12)
            got = sip_fd_oracle(u, v, s, grid=g)
            scale = max(1.0, norm(u, s, g) * norm(v, s, g))
            assert abs(sip(u, v, s, g) - got.value) <= 1e-6 * scale

    def test_sobolev_p2_equals_sum_of_order_pairings(self):
        g = Grid((12,), (1.0 / 12,), "periodic")
        s = NormSpec(p=2.0, k=1)
        u = self.rng.standard_normal(12)
        v = self.rng.standard_normal(12)
        ops = derivative_ops(g, 1)
        manual = sum(sip(op @ u, op @ v, L2, g) for op in ops)
        assert sip(u, v, s, g) == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_two_components_on_2d_grid_sum_order_pairings(self, p):
        # two stacked components on a 6 x 5 periodic grid: the pairing is the
        # sum over |alpha| <= 1 of the lp pairings of the stacked D^alpha
        # slices, each component's after the other
        g = Grid((6, 5), (0.2, 0.25), "periodic")
        s = NormSpec(p=p, k=1)
        u, v = self.rng.standard_normal((2, 60))
        ops = derivative_ops(g, 1)
        assert len(ops) == 3
        slices = [(np.concatenate([op @ u[:30], op @ u[30:]]),
                   np.concatenate([op @ v[:30], op @ v[30:]])) for op in ops]
        manual = sum(sip(du, dv, NormSpec(p=p), g) for du, dv in slices)
        assert sip(u, v, s, g) == pytest.approx(manual, rel=1e-12)
        assert sip(u.reshape(2, 6, 5), v.reshape(2, 6, 5), s, g) == sip(u, v, s, g)
        if p == 2.0:
            # the plain quadrature: cell measure times the dot product of the slices
            dots = sum(du @ dv for du, dv in slices)
            assert sip(u, v, s, g) == pytest.approx(0.05 * dots, rel=1e-12)
