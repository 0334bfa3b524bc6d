"""Weight families, the radius check, and the diagonal rate optimizer."""

import numpy as np
import pytest

from contractkit import sampling, weights
from contractkit.errors import ContractViolation
from contractkit.flows import fit_decay_rate, integrate, linear_field
from contractkit.sip import L2, norm

SHEAR = np.array([[-1.0, 10.0], [0.0, -1.0]])


class TestConstructors:
    def test_identity(self):
        th = weights.identity()
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(th.matrix(0.0, None, 2) @ v, v)
        assert th.bound_b == 1.0

    def test_diagonal_condition_number_within_b_squared(self):
        th = weights.diagonal([1.0, 0.01], b=100.0)
        Th = th.matrix(0.0, None, 2)
        Ti = th.inv_matrix(0.0, None, 2)
        kappa = np.linalg.norm(Th, 2) * np.linalg.norm(Ti, 2)
        assert kappa == pytest.approx(100.0)
        assert kappa <= th.bound_b**2

    @pytest.mark.parametrize("make", [weights.identity, lambda: weights.diagonal([2.0, 0.5]),
                                      lambda: weights.constant_matrix([[2.0, 1.0], [0.0, 1.0]])],
                             ids=["identity", "diagonal", "constant_matrix"])
    def test_constant_weights_hand_out_one_read_only_array(self, make):
        th = make()
        for get in (th.matrix, th.inv_matrix):
            first = get(0.0, None, 2)
            assert get(1.0, np.ones(2), 2) is first
            assert not first.flags.writeable
        np.testing.assert_allclose(th.matrix(0.0, None, 2) @ th.inv_matrix(0.0, None, 2),
                                   np.eye(2), atol=1e-15)

    def test_constant_matrix_leaves_its_argument_writeable(self):
        M = np.array([[2.0, 1.0], [0.0, 1.0]])
        weights.constant_matrix(M)
        M[0, 0] = 3.0

    def test_projection_complement_annihilates_constants(self):
        P = np.full((8, 8), 1.0 / 8)
        th = weights.projection_complement(P)
        out = th.matrix(0.0, None, 8) @ np.ones(8)
        assert np.linalg.norm(out) <= 1e-12
        assert not th.invertible

    def test_projection_complement_rejects_non_projection(self):
        with pytest.raises(ContractViolation):
            weights.projection_complement(np.array([[0.5, 0.2], [0.0, 0.7]]))

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            weights.diagonal([1.0, 0.0])
        with pytest.raises(ContractViolation):
            weights.diagonal([1.0, -2.0])

    def test_declared_bound_violation(self):
        with pytest.raises(ContractViolation):
            weights.diagonal([3.0, 1.0], b=2.0)
        with pytest.raises(ContractViolation):
            weights.constant_matrix(np.diag([5.0, 1.0]), b=2.0)

    def test_singular_constant_matrix_raises(self):
        with pytest.raises(ContractViolation, match="constant weight matrix is singular"):
            weights.constant_matrix([[1.0, 2.0], [2.0, 4.0]])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        M = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        th = weights.constant_matrix(M)
        for _ in range(5):
            v = rng.standard_normal(3)
            w = th.matrix(0.0, None, 3) @ v
            back = th.inv_matrix(0.0, None, 3) @ w
            assert np.linalg.norm(back - v) <= 1e-10 * (1 + np.linalg.norm(v))


class TestRadiusCheck:
    def test_identity_b1_passes(self):
        rep = weights.check_radius_b(weights.identity(), 1.0,
                                     sampling.gaussian_samples(3, 4, seed=0))
        assert rep["passed"] and rep["observed"] == pytest.approx(1.0)

    def test_diagonal_2_passes_at_b2(self):
        rep = weights.check_radius_b(weights.diagonal([2.0, 0.5]), 2.0,
                                     sampling.gaussian_samples(3, 2, seed=0))
        assert rep["passed"] and rep["observed"] == pytest.approx(2.0)

    def test_diagonal_3_fails_at_b2(self):
        rep = weights.check_radius_b(weights.diagonal([3.0, 1.0]), 2.0,
                                     sampling.gaussian_samples(3, 2, seed=0))
        assert not rep["passed"]

    @pytest.mark.parametrize("sampler", [None, []], ids=["none", "empty"])
    def test_refuses_missing_or_empty_sampler(self, sampler):
        with pytest.raises(ContractViolation, match="sampler"):
            weights.check_radius_b(weights.identity(), 1.0, sampler)

    def test_requires_inverse(self):
        P = np.full((4, 4), 0.25)
        with pytest.raises(ContractViolation):
            weights.check_radius_b(weights.projection_complement(P), 2.0,
                                   sampling.gaussian_samples(2, 4, seed=0))


class TestOptimizer:
    origin = sampling.states([np.zeros(2)])

    def test_already_optimal_diagonal(self):
        res = weights.optimize_diagonal_weight(np.diag([-1.0, -2.0]), L2, b=10.0,
                                               sampler=self.origin)
        assert res.lambda_b == pytest.approx(-1.0, abs=1e-9)
        d = res.best_weight.params["entries"]
        assert np.allclose(d, d[0])  # scalar multiples of the identity

    def test_shear_large_b(self):
        res = weights.optimize_diagonal_weight(SHEAR, L2, b=1000.0,
                                               sampler=self.origin)
        assert res.lambda_b <= -0.9
        assert res.transient_bound == pytest.approx(-2 * np.log(1000.0) / res.lambda_b)

    def test_skew_symmetric_floor_at_zero(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = weights.optimize_diagonal_weight(A, L2, b=50.0, sampler=self.origin)
        assert res.lambda_b >= -1e-9

    def test_never_below_spectral_abscissa(self):
        rng = np.random.default_rng(1)
        origin3 = sampling.states([np.zeros(3)])
        for _ in range(5):
            A = rng.standard_normal((3, 3)) - 1.5 * np.eye(3)
            alpha = float(np.max(np.real(np.linalg.eigvals(A))))
            res = weights.optimize_diagonal_weight(A, L2, b=30.0, sampler=origin3)
            assert res.lambda_b >= alpha - 1e-9

    def test_monotone_in_b(self):
        vals = [weights.optimize_diagonal_weight(SHEAR, L2, b=b, sampler=self.origin).lambda_b
                for b in (2.0, 10.0, 100.0)]
        assert vals[1] <= vals[0] + 1e-12
        assert vals[2] <= vals[1] + 1e-12

    def test_transient_infinite_for_expanding(self):
        res = weights.optimize_diagonal_weight(np.eye(2), L2, b=5.0,
                                               sampler=self.origin)
        assert res.lambda_b == pytest.approx(1.0, abs=1e-9)
        assert res.transient_bound == np.inf

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            weights.optimize_diagonal_weight(SHEAR, L2, b=1.0, sampler=self.origin)
        for sampler in (None, []):
            with pytest.raises(ContractViolation, match="sampler"):
                weights.optimize_diagonal_weight(SHEAR, L2, b=10.0, sampler=sampler)


class TestTransientBound:
    def test_negative_rate_and_finite_b(self):
        assert weights.transient_bound(-0.5, 10.0) == pytest.approx(4.0 * np.log(10.0))
        assert weights.transient_bound(-0.5, 1.0) == 0.0

    @pytest.mark.parametrize("lam, b", [(0.0, 10.0), (0.3, 10.0), (-1.0, np.inf),
                                        (-1.0, 0.5)])
    def test_infinite_without_contraction_or_a_bound(self, lam, b):
        assert weights.transient_bound(lam, b) == np.inf


class TestTrajectoryRateInvariance:
    def test_decay_rate_same_under_admissible_weights(self):
        # measured asymptotic decay of a trajectory pair is weight-invariant;
        # only the prefactor changes
        A = np.array([[-0.5, 2.0], [0.0, -1.5]])
        f = linear_field(A)
        u0 = np.array([1.0, 1.0])
        v0 = np.array([-0.3, 0.4])
        t1 = integrate(f, u0, (0.0, 30.0), dt=1e-2, record_every=10)
        t2 = integrate(f, v0, (0.0, 30.0), dt=1e-2, record_every=10)
        diff = t1.states - t2.states
        rng = np.random.default_rng(2)
        M = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        rates = []
        for th in (weights.diagonal([1.0, 0.1]), weights.constant_matrix(M)):
            Th = th.matrix(0.0, None, 2)
            series = np.array([norm(Th @ d, L2) for d in diff])
            fitted, _ = fit_decay_rate(t1.times, series, rel_window=(1e-8, 1e-1))
            rates.append(fitted)
        # both equal the spectral abscissa -0.5 up to fit tolerance
        assert abs(rates[0] - rates[1]) <= 0.02 * abs(rates[0])
        assert rates[0] == pytest.approx(-0.5, rel=0.02)
