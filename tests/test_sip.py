"""Norms and semi-inner products: closed forms, the difference-quotient
oracle, and the pairing axioms."""

import numpy as np
import pytest

from contractkit.errors import ContractViolation, DimensionError
from contractkit.grids import Grid, GridFunction
from contractkit.sip import L1, L2, LINF, NormSpec, norm, sip, sip_fd_oracle

P_VALUES = [1.0, 1.5, 2.0, 3.0, np.inf]


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
        ones = GridFunction(np.ones(10), g)
        assert norm(ones, L1) == pytest.approx(g.measure)
        assert norm(ones, L2) == pytest.approx(np.sqrt(g.measure))

    def test_positive_definite_on_grid(self):
        rng = np.random.default_rng(0)
        g = Grid((8,), (0.1,))
        u = GridFunction(rng.standard_normal(8), g)
        for p in [1.0, 1.5, 2.0, 3.0]:
            assert norm(u, spec(p)) > 0

    def test_spacing_mismatch_raises(self):
        g = Grid((8,), (0.1,))
        u = GridFunction(np.ones(8), g)
        with pytest.raises(DimensionError):
            norm(u, NormSpec(p=2.0, grid_spacing=(0.2,)))

    @pytest.mark.parametrize("p,k", [(1.0, 0), (2.0, 0), (3.0, 0), (np.inf, 0), (2.0, 1)])
    def test_flat_stacked_components_taken_on_the_grid(self, p, k):
        # two species on a 16-point grid, flat: 32 values, one per species and point
        g = Grid((16,), (1.0 / 16,), "periodic")
        u = np.random.default_rng(5).standard_normal(32)
        assert norm(u, spec(p, k), g) == norm(GridFunction(u, g), spec(p, k))

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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_consistency_and_oracle(self, k, p):
        g = Grid((16,), (1.0 / 16,), "periodic")
        s = NormSpec(p=p, k=k)
        for _ in range(5):
            u = GridFunction(self.rng.standard_normal(16), g)
            v = GridFunction(self.rng.standard_normal(16), g)
            assert sip(u, u, s) == pytest.approx(norm(u, s) ** 2, rel=1e-12)
            got = sip_fd_oracle(u, v, s)
            scale = max(1.0, norm(u, s) * norm(v, s))
            assert abs(sip(u, v, s) - got.value) <= 1e-6 * scale

    def test_sobolev_p2_equals_sum_of_order_pairings(self):
        from contractkit.grids import derivative_ops

        g = Grid((12,), (1.0 / 12,), "periodic")
        s = NormSpec(p=2.0, k=1)
        u = self.rng.standard_normal(12)
        v = self.rng.standard_normal(12)
        ops = derivative_ops(g, 1)
        manual = sum(sip(GridFunction(op @ u, g), GridFunction(op @ v, g), L2)
                     for op in ops)
        assert sip(GridFunction(u, g), GridFunction(v, g), s) == pytest.approx(manual, rel=1e-12)
