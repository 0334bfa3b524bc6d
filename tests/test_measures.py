"""Matrix measures (closed forms vs the definition-level oracle) and
weighted contraction rates."""

import time
import tracemalloc

import numpy as np
import pytest

from contractkit import measures
from contractkit.errors import (
    ContractViolation,
    DegenerateWeightError,
    DimensionError,
    NumericalError,
)
from contractkit.grids import Grid, unit_grid
from contractkit.measures import (
    _sip_ratio,
    mu,
    mu_fd_oracle,
    nonlinear_rate,
    weighted_rate,
)
from contractkit.sip import L1, L2, LINF, NormSpec, gram_matrix, norm, sip
from contractkit import sampling, weights
from contractkit.flows import linear_field

SHEAR = np.array([[-1.0, 10.0], [0.0, -1.0]])


class TestMu:
    def test_diagonal_p2(self):
        assert mu(np.diag([-1.0, -2.0]), L2).value == pytest.approx(-1.0)

    def test_column_formula_p1(self):
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        est = mu(A, L1)
        assert est.value == pytest.approx(-2.0)
        assert est.method == "closed_form"

    def test_row_formula_pinf(self):
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        assert mu(A, LINF).value == pytest.approx(-1.0)

    @pytest.mark.parametrize("spec", [L1, LINF, L2], ids=["p1", "pinf", "p2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, spec, bad):
        with pytest.raises(NumericalError):
            mu(np.array([[-2.0, 1.0], [bad, -3.0]]), spec)

    def test_zero_matrix(self):
        for spec in (L1, L2, LINF):
            assert mu(np.zeros((3, 3)), spec).value == pytest.approx(0.0, abs=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            mu(np.ones((2, 3)))

    def test_subadditivity(self):
        rng = np.random.default_rng(1)
        for spec in (L1, L2, LINF):
            for _ in range(20):
                A = rng.standard_normal((4, 4))
                B = rng.standard_normal((4, 4))
                ab = mu(A + B, spec).value
                assert ab <= mu(A, spec).value + mu(B, spec).value + 1e-10

    def test_spectral_abscissa_lower_bound(self):
        rng = np.random.default_rng(2)
        for spec in (L1, L2, LINF):
            for _ in range(20):
                A = rng.standard_normal((4, 4))
                alpha = np.max(np.real(np.linalg.eigvals(A)))
                assert mu(A, spec).value >= alpha - 1e-10

    def test_sampled_general_p_on_diagonal(self):
        # for diagonal matrices the measure is max a_ii in every lp norm
        est = mu(np.diag([-1.0, -2.0]), NormSpec(p=3.0), seed=0)
        assert est.method == "sampled"
        assert est.value == pytest.approx(-1.0, abs=1e-6)

    def test_sparse_input(self):
        import scipy.sparse as sp

        A = sp.diags([-1.0, -2.0, -3.0])
        assert mu(A, L2).value == pytest.approx(-1.0)


class TestMuOracle:
    rng = np.random.default_rng(3)

    def test_diag_p2(self):
        got = mu_fd_oracle(np.diag([-1.0, -2.0]), L2)
        assert got.value == pytest.approx(-1.0, abs=1e-4)
        assert got.converged

    def test_matches_column_formula(self):
        for _ in range(10):
            A = self.rng.standard_normal((3, 3)) - 2 * np.eye(3)
            got = mu_fd_oracle(A, L1)
            assert got.value == pytest.approx(mu(A, L1).value, abs=1e-4)

    def test_zero_matrix(self):
        got = mu_fd_oracle(np.zeros((2, 2)), LINF)
        assert got.value == pytest.approx(0.0, abs=1e-10)

    def test_converged_where_extrapolation_is_right(self):
        # the ninth draw of TestRaySearchAccuracy::test_matches_oracle (4 x 4 at
        # p = 4): the raw quotient at h = 1e-6 still carries its O(h) term,
        # the extrapolations agree with each other and with mu
        rng = np.random.default_rng(12)
        A = [rng.standard_normal((d, d)) for d in (2, 3, 4) * 3][-1]
        got = mu_fd_oracle(A, NormSpec(p=4.0))
        assert got.converged
        assert got.value == pytest.approx(mu(A, NormSpec(p=4.0)).value, abs=1e-9)

    def test_two_steps_never_converged(self):
        got = mu_fd_oracle(np.diag([-1.0, -2.0]), L2, h_list=[1e-3, 1e-4])
        assert got.value == pytest.approx(-1.0, abs=1e-9)
        assert not got.converged

    def test_dim_limit(self):
        with pytest.raises(ContractViolation):
            mu_fd_oracle(np.eye(7), L2)


class TestWeightedRate:
    def test_identity_weight_reduces_to_mu(self):
        rng = np.random.default_rng(4)
        for spec in (L1, L2, LINF):
            A = rng.standard_normal((4, 4))
            wr = weighted_rate(A, weights.identity(), spec=spec)
            assert wr.value == pytest.approx(mu(A, spec).value, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("spec", [L1, L2, LINF])
    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_diagonal_weights_match_the_dense_products(self, spec, n):
        # the scaled entries (d_i a_ij)(1/d_j) are the bits of the dense
        # products Theta A Theta^-1, which a custom weight of the same
        # matrices still takes
        rng = np.random.default_rng(n)
        for _ in range(5):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
            d = np.exp(rng.uniform(-4, 4, n))
            for th in (weights.identity(), weights.diagonal(d)):
                Th, Ti = th.matrix(0.0, None, n), th.inv_matrix(0.0, None, n)
                dense = weights.custom(lambda t, u, n_: Th, inverse=lambda t, u, n_: Ti)
                got = weighted_rate(A, th, spec=spec)
                assert got.value == weighted_rate(A, dense, spec=spec).value
                assert got.value == mu((Th @ A) @ Ti, spec).value
                assert got.method == ("eigen" if spec is L2 else "closed_form")

    def test_shear_with_squeezing_weight(self):
        # mu_2 of the similarity [[-1, 0.1], [0, -1]] is -1 + 0.05
        th = weights.diagonal([0.01, 1.0])
        wr = weighted_rate(SHEAR, th, spec=L2)
        assert -1.0 < wr.value < -0.94
        assert wr.value == pytest.approx(-0.95)
        # norm-dependence: the unweighted measure is positive
        assert mu(SHEAR, L2).value == pytest.approx(4.0)

    def test_generalized_jacobian_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(2, 6)
            A = rng.standard_normal((n, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Th = q @ np.diag(rng.uniform(0.5, 2.0, n))
            w = weights.constant_matrix(Th)
            lhs = weighted_rate(A, w, spec=L2).value
            rhs = mu(Th @ A @ np.linalg.inv(Th), L2).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_p1_pinf_invertible_routes(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 3))
        th = weights.diagonal([2.0, 1.0, 0.5])
        Tm = np.diag([2.0, 1.0, 0.5])
        B = Tm @ A @ np.linalg.inv(Tm)
        for spec in (L1, LINF):
            wr = weighted_rate(A, th, spec=spec)
            assert wr.method == "closed_form"
            assert wr.value == pytest.approx(mu(B, spec).value, rel=1e-12)

    def test_neumann_laplacian_mean_complement(self):
        from contractkit.pde import build_discretization, neumann_second_eigenvalue

        disc = build_discretization(16, boundary="neumann")
        P = np.full((16, 16), 1.0 / 16)
        qw = weights.projection_complement(P)
        wr = weighted_rate(disc.laplacian, qw, spec=L2, grid=disc.grid)
        assert wr.value == pytest.approx(neumann_second_eigenvalue(16, disc.h), rel=1e-10)
        assert wr.method == "eigen"

    def test_time_varying_weight_needs_derivative(self):
        th = weights.WeightFamily(kind="custom", bound_b=2.0, invertible=True,
                                  time_varying=True,
                                  _matrix=lambda t, u, n: np.eye(n) * (1 + 0.1 * t),
                                  _inv=lambda t, u, n: np.eye(n) / (1 + 0.1 * t))
        with pytest.raises(ContractViolation):
            weighted_rate(np.eye(2), th)

    def test_time_varying_weight_rate(self):
        # Theta(t) = e^{ct} I adds exactly c to the rate
        c = 0.3
        th = weights.WeightFamily(
            kind="custom", bound_b=np.inf, invertible=True, time_varying=True,
            _matrix=lambda t, u, n: np.exp(c * t) * np.eye(n),
            _inv=lambda t, u, n: np.exp(-c * t) * np.eye(n),
            _dmat=lambda t, u, n: c * np.exp(c * t) * np.eye(n),
        )
        A = np.diag([-1.0, -2.0])
        wr = weighted_rate(A, th, t=0.7)
        assert wr.value == pytest.approx(-1.0 + c, rel=1e-10)

    @pytest.mark.parametrize("k", [0, 1])
    def test_empty_kernel_restriction_matches_invertible(self, k):
        # a weight given no inverse takes the kernel-restricted path; with an
        # invertible matrix the kernel is empty and the rate is unchanged
        rng = np.random.default_rng(7)
        grid = Grid((6,), (1.0 / 6,), "periodic")
        A = rng.standard_normal((6, 6))
        Th = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        spec = NormSpec(p=2.0, k=k)
        restricted = weighted_rate(A, weights.custom(matrix=lambda t, u, n: Th),
                                   spec=spec, grid=grid)
        invertible = weighted_rate(A, weights.constant_matrix(Th), spec=spec, grid=grid)
        assert restricted.method == invertible.method == "eigen"
        assert abs(restricted.value - invertible.value) <= 1e-12 * max(1.0, abs(invertible.value))

    def test_degenerate_weight_raises(self):
        th = weights.WeightFamily(kind="custom", bound_b=1.0, invertible=False,
                                  _matrix=lambda t, u, n: np.zeros((n, n)))
        with pytest.raises(DegenerateWeightError):
            weighted_rate(np.eye(3), th)


def _pencil_rate(A, Th, dTh=None, spec=L2, grid=None):
    """The p = 2 weighted rate as the symmetric pencil (sym(Th^H Gw C),
    Th^H Gw Th) on ker(Th)^perp, Gw the cell measure times I or the Sobolev
    Gram matrix, reduced by a Cholesky factor of its second matrix."""
    C = Th @ A if dTh is None else dTh + Th @ A
    m = Th.shape[0]
    if spec.k == 0:
        Gw = np.eye(m) * (grid.cell_measure if grid is not None else 1.0)
    else:
        D = np.vstack([np.eye(grid.npoints), _centered_difference(grid)])
        Gw = np.kron(np.eye(m // grid.npoints), grid.cell_measure * D.T @ D)
    S = Th.conj().T @ Gw @ C
    S = 0.5 * (S + S.conj().T)
    G = Th.conj().T @ Gw @ Th
    _, svals, vt = np.linalg.svd(Th)
    Vr = vt[: np.count_nonzero(svals > 1e-10 * max(svals[0], 1.0))].conj().T
    S, G = Vr.conj().T @ S @ Vr, Vr.conj().T @ G @ Vr
    Li = np.linalg.inv(np.linalg.cholesky(G))
    return float(np.linalg.eigvalsh(Li @ S @ Li.conj().T)[-1])


def _centered_difference(grid):
    n, h = grid.npoints, grid.spacing[0]
    return (np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)) / (2 * h)


class TestStandardEigenproblem:
    """The p = 2 rate as one standard eigenproblem (C Theta^{-1}, or U_r^H C W
    on the coimage) against the pencil it replaces."""

    rng = np.random.default_rng(21)
    PERIODIC = Grid((6,), (1.0 / 6,), "periodic")

    def _check(self, A, theta, t=0.0, u=None, spec=L2, grid=None):
        n = A.shape[0]
        Th = theta.matrix(t, u, n)
        dTh = theta.dmatrix_dt(t, u, n)
        got = weighted_rate(A, theta, t, u, spec=spec, grid=grid)
        want = _pencil_rate(A, Th, dTh, spec, grid)
        assert got.method == "eigen"
        assert abs(got.value - want) <= 1e-10 * max(1.0, np.abs(A).sum(axis=0).max())
        return got.value

    def test_identity(self):
        self._check(self.rng.standard_normal((5, 5)), weights.identity())

    def test_diagonal_condition_100(self):
        self._check(self.rng.standard_normal((5, 5)),
                    weights.diagonal(np.geomspace(0.1, 10.0, 5)))

    def test_constant_matrix(self):
        Th = np.eye(4) + 0.4 * self.rng.standard_normal((4, 4))
        self._check(self.rng.standard_normal((4, 4)), weights.constant_matrix(Th))

    def test_time_varying_custom(self):
        M0 = np.eye(3) + 0.3 * self.rng.standard_normal((3, 3))
        M1 = self.rng.standard_normal((3, 3))
        th = weights.custom(matrix=lambda t, u, n: M0 + 0.1 * t * M1,
                            inverse=lambda t, u, n: np.linalg.inv(M0 + 0.1 * t * M1),
                            dmatrix_dt=lambda t, u, n: 0.1 * M1, time_varying=True)
        self._check(self.rng.standard_normal((3, 3)), th, t=0.8)

    @pytest.mark.parametrize("kind", ["orthogonal", "oblique"])
    def test_projection_complement(self, kind):
        n = 6
        if kind == "orthogonal":
            P, rank = np.full((n, n), 1.0 / n), n - 1
        else:  # a rank-two projection along a random complement
            a, b = self.rng.standard_normal((2, n, 2))
            P, rank = a @ np.linalg.solve(b.T @ a, b.T), n - 2
        th = weights.projection_complement(P)
        assert np.linalg.matrix_rank(th.matrix(0.0, None, n)) == rank
        self._check(self.rng.standard_normal((n, n)), th)
        self._check(self.rng.standard_normal((n, n)), th, grid=self.PERIODIC)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3)])
    def test_jacobian_of_map(self, shape):
        m, n = shape
        B = self.rng.standard_normal(shape)
        th = weights.jacobian_of_map(lambda u: B * (1.0 + 0.1 * np.sum(u ** 2)))
        self._check(self.rng.standard_normal((n, n)), th, u=self.rng.standard_normal(n))

    def test_complex_operator(self):
        A = self.rng.standard_normal((4, 4)) + 1j * self.rng.standard_normal((4, 4))
        Th = np.eye(4) + 0.3 * self.rng.standard_normal((4, 4))
        self._check(A, weights.constant_matrix(Th))
        self._check(A, weights.projection_complement(np.full((4, 4), 0.25)))

    def test_sobolev_k1_invertible(self):
        Th = np.eye(6) + 0.3 * self.rng.standard_normal((6, 6))
        self._check(self.rng.standard_normal((6, 6)), weights.constant_matrix(Th),
                    spec=NormSpec(p=2.0, k=1), grid=self.PERIODIC)

    def test_stored_coimage_matches_one_taken_on_the_call(self):
        A = self.rng.standard_normal((5, 5))
        qw = weights.projection_complement(np.full((5, 5), 0.2))
        Q = qw.matrix(0.0, None, 5)
        on_call = weights.custom(matrix=lambda t, u, n: Q)
        assert qw.coimage is not None and on_call.coimage is None
        for spec, grid in ((L2, None), (NormSpec(p=2.0, k=1), Grid((5,), (0.2,), "periodic")),
                           (NormSpec(p=3.0), None)):
            stored = weighted_rate(A, qw, spec=spec, grid=grid)
            taken = weighted_rate(A, on_call, spec=spec, grid=grid)
            assert stored.value == taken.value

    def test_no_svd_after_the_weight_is_built(self, monkeypatch):
        qw = weights.projection_complement(np.full((8, 8), 1.0 / 8))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        weighted_rate(self.rng.standard_normal((8, 8)), qw, spec=L2)
        assert calls == []

    def test_no_second_matrix_at_k0(self, monkeypatch):
        import scipy.linalg

        seconds = []
        eigh = scipy.linalg.eigh

        def spy(a, b=None, *args, **kwargs):
            seconds.append(b)
            return eigh(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        A = self.rng.standard_normal((4, 4))
        for th in (weights.identity(), weights.diagonal([0.5, 1.0, 2.0, 4.0]),
                   weights.constant_matrix(np.eye(4) + 0.2 * self.rng.standard_normal((4, 4))),
                   weights.projection_complement(np.full((4, 4), 0.25))):
            weighted_rate(A, th, spec=L2)
        assert seconds == [None] * 4


class TestSobolevFactor:
    """mu at p = 2, k >= 1 as sym(R M R^{-1}) through the cached Cholesky
    factor G = R^T R, against scipy's generalized eigh of the pencil
    (sym(G M), G) it replaces."""

    rng = np.random.default_rng(33)
    SOB = NormSpec(p=2.0, k=1)

    def _check(self, J, grid):
        import scipy.linalg
        import scipy.sparse as sps

        G = gram_matrix(self.SOB, grid, ncomp=J.shape[0] // grid.npoints).toarray()
        Jd = J.toarray() if sps.issparse(J) else J
        S = G @ Jd
        want = scipy.linalg.eigh(0.5 * (S + S.conj().T), G, eigvals_only=True)[-1]
        got = mu(J, self.SOB, grid=grid)
        assert got.method == "eigen"
        scale = max(1.0, abs(want), np.abs(Jd).sum(axis=1).max())
        assert abs(got.value - want) <= 1e-11 * scale

    @pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet"])
    def test_1d_grids(self, boundary):
        from contractkit.pde import build_discretization

        disc = build_discretization(24, boundary=boundary)
        self._check(disc.laplacian, disc.grid)                       # sparse
        self._check(self.rng.standard_normal((24, 24)), disc.grid)    # dense
        self._check(disc.laplacian + 1j * sparse_random(24, self.rng), disc.grid)
        self._check(self.rng.standard_normal((24, 24))
                    + 1j * self.rng.standard_normal((24, 24)), disc.grid)

    def test_2d_grid(self):
        from contractkit.pde import build_discretization

        disc = build_discretization(6, dims=2, boundary="neumann")
        n = disc.grid.npoints
        self._check(disc.laplacian, disc.grid)
        self._check(self.rng.standard_normal((n, n)), disc.grid)

    def test_two_components(self):
        import scipy.sparse as sps
        from contractkit.pde import build_discretization

        disc = build_discretization(12, boundary="periodic")
        block = sps.block_diag([disc.laplacian, 0.1 * disc.laplacian], format="csr")
        self._check(block + sps.csr_matrix(self.rng.standard_normal((24, 24))), disc.grid)

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_factor_reproduces_gram_and_is_cached(self, ncomp):
        grid = Grid((10,), (0.1,), "periodic")
        R, Rinv = measures._gram_factor(1, grid, ncomp)
        G = gram_matrix(self.SOB, grid, ncomp=ncomp).toarray()
        assert np.abs((R.T @ R).toarray() - G).max() <= 1e-14 * np.abs(G).max()
        assert np.abs(R @ Rinv - np.eye(G.shape[0])).max() <= 1e-13
        assert Rinv.flags.c_contiguous
        assert not Rinv.flags.writeable and not R.data.flags.writeable
        again = measures._gram_factor(1, grid, ncomp)
        assert again[0] is R and again[1] is Rinv

    def test_factor_above_the_cache_limit_is_not_kept(self):
        grid = Grid((measures._CACHE_MAX_N + 16,), (1e-3,), "periodic")
        held = measures._cached_gram_factor.cache_info().currsize
        R, Rinv = measures._gram_factor(1, grid, 1)
        again = measures._gram_factor(1, grid, 1)
        assert again[0] is not R and again[1] is not Rinv
        assert (again[0] != R).nnz == 0 and np.array_equal(again[1], Rinv)
        assert measures._cached_gram_factor.cache_info().currsize == held
        assert np.abs(R @ Rinv - np.eye(grid.npoints)).max() <= 1e-12

    def test_no_second_matrix(self, monkeypatch):
        seconds = []
        max_eig = measures._max_eig
        monkeypatch.setattr(measures, "_max_eig",
                            lambda S, G=None: seconds.append(G) or max_eig(S, G))
        grid = Grid((8,), (0.125,), "neumann")
        mu(self.rng.standard_normal((8, 8)), self.SOB, grid=grid)
        mu(self.rng.standard_normal((16, 16)), self.SOB, grid=grid)
        assert seconds == [None, None]

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("n", [8, 20])
    def test_dim_not_a_whole_number_of_grid_functions(self, p, n):
        grid = Grid((16,), (1.0 / 16,), "periodic")
        with pytest.raises(DimensionError):
            mu(np.eye(n), NormSpec(p=p, k=1), grid=grid)


class TestSobolevWeightedRateGrid:
    """A Sobolev weighted rate is taken on a grid, of which the weight's
    image must be a whole number of grid functions, whatever the branch."""

    GRID = Grid((8,), (0.125,), "periodic")
    A = np.diag(np.arange(1.0, 9.0)) - np.eye(8, k=1)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_no_grid_raises(self, p):
        theta = weights.projection_complement(np.full((8, 8), 1.0 / 8))
        with pytest.raises(ContractViolation):
            weighted_rate(self.A, theta, spec=NormSpec(p=p, k=1))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_image_not_a_whole_number_of_grid_functions_raises(self, p):
        # a 6 x 8 weight maps an 8-point grid function to 6 values
        Th = np.random.default_rng(9).standard_normal((6, 8))
        theta = weights.custom(lambda t, u, n: Th)
        with pytest.raises(DimensionError):
            weighted_rate(self.A, theta, spec=NormSpec(p=p, k=1), grid=self.GRID)


def sparse_random(n, rng):
    import scipy.sparse as sps

    return sps.random(n, n, density=0.2, random_state=rng, format="csr")


class TestCoimageProduct:
    """The p = 2, k = 0 rate on a coimage, formed as s_r V_r^H (A V_r) (+
    U_r^H dTheta V_r), against the three products U_r^H (Theta A) V_r."""

    rng = np.random.default_rng(34)

    def _check(self, A, theta, t=0.0, u=None):
        n = A.shape[0]
        Th, dTh = theta.matrix(t, u, n), theta.dmatrix_dt(t, u, n)
        Vr, s, UrH = (theta.coimage if theta.coimage is not None
                      else measures.coimage_of(Th)[1])
        C = Th @ A if dTh is None else dTh + Th @ A
        want = measures._max_eig(measures._sym(UrH @ C @ Vr / s))
        got = weighted_rate(A, theta, t, u, spec=L2)
        assert got.method == "eigen"
        assert abs(got.value - want) <= 1e-12 * max(1.0, np.abs(A).sum(axis=1).max())

    def test_mean_complement(self):
        from contractkit.pde import build_discretization

        disc = build_discretization(32, boundary="neumann")
        qw = weights.projection_complement(np.full((32, 32), 1.0 / 32))
        weighted_rate(disc.laplacian, qw)   # a sparse operator stays sparse
        self._check(disc.laplacian.toarray(), qw)
        self._check(self.rng.standard_normal((32, 32)), qw)

    def test_oblique_projection(self):
        a, b = self.rng.standard_normal((2, 7, 2))
        qw = weights.projection_complement(a @ np.linalg.solve(b.T @ a, b.T))
        assert np.ptp(qw.coimage[1]) > 0.1       # singular values other than 1
        self._check(self.rng.standard_normal((7, 7)), qw)

    def test_jacobian_of_map(self):
        B = self.rng.standard_normal((2, 4))
        th = weights.jacobian_of_map(lambda u: B * (1.0 + 0.1 * np.sum(u ** 2)))
        self._check(self.rng.standard_normal((4, 4)), th, u=self.rng.standard_normal(4))

    def test_time_varying_custom(self):
        B0, B1 = self.rng.standard_normal((2, 3, 5))
        th = weights.custom(matrix=lambda t, u, n: B0 + t * B1,
                            dmatrix_dt=lambda t, u, n: B1, time_varying=True)
        self._check(self.rng.standard_normal((5, 5)), th, t=0.6)

    def test_complex_weight(self):
        B = self.rng.standard_normal((3, 5)) + 1j * self.rng.standard_normal((3, 5))
        th = weights.custom(matrix=lambda t, u, n: B)
        self._check(self.rng.standard_normal((5, 5)), th)
        self._check(self.rng.standard_normal((5, 5)) + 1j * self.rng.standard_normal((5, 5)), th)

    def test_sampled_path_keeps_its_values(self):
        # p = 3 still scores Theta V_r and (Theta A) V_r
        A = self.rng.standard_normal((4, 4))
        for th in (weights.projection_complement(np.full((4, 4), 0.25)),
                   weights.jacobian_of_map(lambda u: np.array([[1.0, 2.0, 0.0, -1.0]]))):
            Th = th.matrix(0.0, np.zeros(4), 4)
            Vr = (th.coimage if th.coimage is not None else measures.coimage_of(Th)[1])[0]
            want = measures._sampled_rate(Th @ Vr, (Th @ A) @ Vr, NormSpec(p=3.0),
                                          unit_grid(Th.shape[0]), 5)
            got = weighted_rate(A, th, u=np.zeros(4), spec=NormSpec(p=3.0), seed=5)
            assert got.method == "sampled"
            assert got.value == want.value


class TestSampledObjective:
    """The precomputed ray-search ratio against the reference pairing."""

    GRID = Grid((5,), (0.2,), "periodic")

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, np.inf])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("ncomp", [1, 2])
    @pytest.mark.parametrize("weight", ["identity", "diagonal", "projection"])
    def test_matches_reference_pairing(self, p, k, ncomp, weight):
        # every other point has small integer entries: exact zeros (the p = 1
        # kink) and tied maxima (p = inf) in Tv
        rng = np.random.default_rng(7)
        n = ncomp * self.GRID.npoints
        theta = {
            "identity": weights.identity(),
            "diagonal": weights.diagonal(rng.uniform(0.2, 5.0, n)),
            "projection": weights.projection_complement(np.full((n, n), 1.0 / n)),
        }[weight]
        T = theta.matrix(0.0, None, n)
        C = T @ rng.standard_normal((n, n))
        spec = NormSpec(p=p, k=k)
        ratio = _sip_ratio(T, C, spec, self.GRID)
        V = np.array([rng.standard_normal(n) if i % 2 else rng.integers(-2, 3, n) + 0.0
                      for i in range(50)])
        V[V[:, 0] == 0, 0] = 1.0
        got = ratio(V)
        assert got.shape == (50,)

        def want(tv, v):
            return sip(tv, C @ v, spec, self.GRID) / norm(tv, spec, self.GRID) ** 2

        # the batch against T v from the batch product, whose rounding differs
        # from T @ v and would move exact zeros and ties; each row alone
        # against T @ v, the product the reference forms
        for v, tv, r in zip(V, (T @ V.T).T, got):
            assert r == pytest.approx(want(tv, v), rel=1e-12)
            assert ratio(v[None])[0] == pytest.approx(want(T @ v, v), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
    def test_complex_weight_pairs_the_conjugate_sign(self, p):
        # a complex non-invertible weight: the batch pairs Re(conj(sgn a) b),
        # as sip does, and the search's value is the reference at its argmax
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        Th = (np.eye(3) + 0.5j * rng.standard_normal((3, 3)))[:2]
        spec = NormSpec(p=p)
        Vr = measures.coimage_of(Th)[1][0]
        T, C = Th @ Vr, Th @ A @ Vr

        def want(v):
            return sip(T @ v, C @ v, spec) / norm(T @ v, spec) ** 2

        V = rng.standard_normal((20, 2))
        got = _sip_ratio(T, C, spec, unit_grid(2))(V)
        assert got.dtype == float
        for v, r in zip(V, got):
            assert r == pytest.approx(want(v), rel=1e-12)
        est = weighted_rate(A, weights.custom(lambda t, u, n: Th), spec=spec, seed=1)
        assert est.method == "sampled"
        assert est.value == want(est.argmax)

    def test_zero_image_is_minus_inf(self):
        ratio = _sip_ratio(np.zeros((5, 5)), np.eye(5), NormSpec(p=3.0, k=1), self.GRID)
        assert ratio(np.ones((1, 5)))[0] == -np.inf

    def test_nonfinite_ratio_never_wins(self):
        # rows 0 and 4 have Tv = 0, row 2 overflows to NaN; the best finite
        # row is 3
        ratio = _sip_ratio(np.eye(3), np.diag([-1.0, -2.0, -3.0]), NormSpec(p=3.0),
                           unit_grid(3))
        V = np.array([[0.0, 0, 0], [1, 2, 3], [1e200, 1, 0], [1, 0, 0], [0, 0, 0]])
        with np.errstate(all="ignore"):
            vals = ratio(V)
        assert vals[0] == vals[4] == -np.inf
        assert np.isnan(vals[2]) and np.argmax(vals) == 2
        assert np.argmax(measures._finite(vals)) == 3

    def test_search_ignores_nan_probes(self, monkeypatch):
        A = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]])
        clean = mu(A, NormSpec(p=3.0), seed=0).value
        make = measures._sip_ratio

        def poisoned(*args):
            ratio = make(*args)

            def nan_where_first_negative(V):
                out = ratio(V)
                out[V[:, 0] < 0] = np.nan
                return out
            return nan_where_first_negative

        monkeypatch.setattr(measures, "_sip_ratio", poisoned)
        assert mu(A, NormSpec(p=3.0), seed=0).value >= clean - 1e-9

    def test_repeat_call_bit_identical(self):
        A = np.random.default_rng(8).standard_normal((3, 3))
        for s in (0, 5):
            first = mu(A, NormSpec(p=3.0), seed=s)
            again = mu(A, NormSpec(p=3.0), seed=s)
            assert first.value == again.value
            assert np.array_equal(first.argmax, again.argmax)

    def test_reference_mismatch_raises(self, monkeypatch):
        pair = measures.sip_pair
        monkeypatch.setattr(measures, "sip_pair", lambda u, v, spec, grid: 2.0 * pair(u, v, spec, grid))
        with pytest.raises(NumericalError):
            mu(np.array([[-1.0, 2.0], [0.5, -3.0]]), NormSpec(p=3.0), seed=0)


def _periodic_laplacian(n):
    eye = np.eye(n)
    return (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1) - 2.0 * eye) * n**2


def _unit_search(A, spec, seed, newton=False):
    """The value of mu(A)'s ray search on unit weights, with Newton moves or
    with the pattern sweeps every solve without derivatives makes."""
    grid = unit_grid(len(A))

    def reference(v):
        return sip(v, A @ v, spec, grid) / norm(v, spec, grid) ** 2

    derivatives = measures._ratio_derivatives(None, A, spec, grid) if newton else None
    return measures._ray_search(_sip_ratio(None, A, spec, grid), reference, len(A), seed,
                                derivatives=derivatives)[0]


class TestRaySearchAccuracy:
    """The sampled supremum against values known in closed form or by a
    dense sweep."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_periodic_laplacian_reaches_zero(self, n):
        # the Young bound is 0 and constants attain it
        L = _periodic_laplacian(n)
        for seed in (0, 1, 2):
            assert mu(L, NormSpec(p=3.0), seed=seed).value >= -1e-6 * np.max(np.abs(L))

    def test_sobolev_laplacian_reaches_zero(self):
        grid = Grid((8,), (1.0 / 8,), "periodic")
        for seed in (0, 1, 2):
            est = mu(_periodic_laplacian(8), NormSpec(p=3.0, k=1), grid=grid, seed=seed)
            assert est.value >= -1e-3

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_not_below_dense_sphere_sweep(self, p, dim):
        A = np.random.default_rng(int(10 * p) + dim).standard_normal((dim, dim))
        if dim == 2:
            th = np.linspace(0.0, np.pi, 20001)
            V = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:  # a Fibonacci lattice on the sphere
            k = np.arange(200000) + 0.5
            z = 1.0 - 2.0 * k / k.size
            phi = np.pi * (1.0 + 5**0.5) * k
            r = np.sqrt(1.0 - z**2)
            V = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        nv = (np.abs(V) ** p).sum(axis=1) ** (1.0 / p)
        pair = nv ** (2.0 - p) * (np.abs(V) ** (p - 1.0) * np.sign(V) * (V @ A.T)).sum(axis=1)
        sweep = np.max(pair / nv**2)
        assert mu(A, NormSpec(p=p), seed=0).value >= sweep - 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        t0 = time.perf_counter()
        for p in (1.5, 3.0, 4.0):
            for dim in (2, 3, 4):
                A = rng.standard_normal((dim, dim))
                oracle = mu_fd_oracle(A, NormSpec(p=p)).value
                assert mu(A, NormSpec(p=p)).value == pytest.approx(oracle, abs=1e-4)
        assert time.perf_counter() - t0 < 10.0

    def test_one_stalled_sweep_does_not_end_the_search(self):
        # the p = inf Sobolev (k = 1) quotient has kinks, so this search makes
        # pattern sweeps: no start gains in sweep 36, and one gains 5.3e-9 in
        # sweep 37; ending after one stalled sweep would lose 1.4e-10 relative
        A = np.random.default_rng(86).standard_normal((4, 4))
        est = mu(A, NormSpec(p=np.inf, k=1), grid=Grid((4,), (0.25,), "periodic"), seed=0)
        assert est.value == pytest.approx(4.1582667936736275, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_newton_search_not_below_pattern_search(self, p, n):
        # the Newton search against the pattern sweeps alone
        for seed in range(4):
            A = np.random.default_rng(seed).standard_normal((n, n))
            pattern = _unit_search(A, NormSpec(p=p), seed)
            value = mu(A, NormSpec(p=p), seed=seed).value
            assert value >= pattern - 1e-12 * max(1.0, abs(pattern))

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_maxima_at_kinks(self, p):
        # below p = 3 the Hessian is not finite where an entry of v is 0: the
        # diagonal quotient peaks at e_2, and the block-diagonal upper
        # triangle at a v whose last two entries are 0
        U = np.array([[-1.0, 3.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 0.5, 1.0], [0.0, 0.0, 0.0, -2.0]])
        for seed in (0, 1, 2):
            assert mu(np.diag([-1.0, 2.0, 0.5]), NormSpec(p=p), seed=seed).value == pytest.approx(
                2.0, rel=1e-12)
            pattern = _unit_search(U, NormSpec(p=p), seed)
            assert mu(U, NormSpec(p=p), seed=seed).value == pytest.approx(pattern, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_zero_row_weight_not_below_pattern_search(self, p):
        # Q = diag(0, 1, 1, 1) gives Tv a first entry 0 at every v: below
        # p = 3 the quotient's derivatives there are never finite
        th = weights.projection_complement(np.diag([1.0, 0.0, 0.0, 0.0]))
        spec, grid, Vr = NormSpec(p=p), unit_grid(4), th.coimage[0]
        T = th.matrix(0.0, None, 4) @ Vr
        for seed in range(4):
            A = np.random.default_rng(seed).standard_normal((4, 4))
            C = th.matrix(0.0, None, 4) @ A @ Vr

            def reference(v):
                return sip(T @ v, C @ v, spec, grid) / norm(T @ v, spec, grid) ** 2

            pattern = measures._ray_search(_sip_ratio(T, C, spec, grid), reference, 3, seed)[0]
            value = measures.weighted_rate(A, th, spec=spec, seed=seed).value
            assert value >= pattern - 1e-12 * max(1.0, abs(pattern))

    def test_pattern_sweep_moves_the_starts_newton_cannot(self):
        # with derivatives that are nowhere finite no Newton move is taken:
        # each stalled Newton sweep is followed by a pattern sweep, 20 in the
        # 40 sweeps, where the pattern search alone stalls after 30 at seed
        # 0 and 1.7e-12 relative higher
        spec, grid = NormSpec(p=3.0), unit_grid(6)

        def nowhere(X):
            return np.full(X.shape, np.nan), np.full(X.shape + X.shape[1:], np.nan)

        for seed in range(4):
            A = np.random.default_rng(seed).standard_normal((6, 6))
            ratio = _sip_ratio(None, A, spec, grid)

            def reference(v):
                return sip(v, A @ v, spec, grid) / norm(v, spec, grid) ** 2

            pattern = measures._ray_search(ratio, reference, 6, seed)[0]
            value = measures._ray_search(ratio, reference, 6, seed, derivatives=nowhere)[0]
            assert value == pytest.approx(pattern, rel=1e-11)

    @staticmethod
    def _ratio_calls(monkeypatch, A, spec, grid=None):
        """(calls of the ray search's ratio in one mu solve, the calls of a
        pattern search that runs every sweep): a pattern sweep scores 2n + 1
        probe batches and the renormalized starts, plus one call for the
        starts and one for the best point."""
        calls = []
        make = measures._sip_ratio

        def counted(*args):
            ratio = make(*args)
            return lambda V: calls.append(len(V)) or ratio(V)

        monkeypatch.setattr(measures, "_sip_ratio", counted)
        mu(A, spec, grid=grid, seed=0)
        return len(calls), 2 + measures._SWEEPS * (2 * len(A) + 2)

    def test_search_ends_once_its_sweeps_stall(self, monkeypatch):
        A = np.random.default_rng(4).standard_normal((3, 3))
        calls, every_sweep = self._ratio_calls(monkeypatch, A, NormSpec(p=3.0))
        assert calls < every_sweep

    @pytest.mark.parametrize("n,spec,grid", [
        (8, NormSpec(p=3.0, k=1), Grid((8,), (1.0 / 8,), "periodic")),
        (16, NormSpec(p=3.0), None),
    ])
    def test_newton_search_makes_a_tenth_of_the_pattern_calls(self, monkeypatch, n, spec, grid):
        calls, every_sweep = self._ratio_calls(monkeypatch, _periodic_laplacian(n), spec, grid)
        assert calls < every_sweep / 10

    def test_search_still_climbing_runs_every_sweep(self, monkeypatch):
        # the p = inf Sobolev (k = 1) search makes no Newton moves, and on the
        # n = 8 periodic Laplacian its best value still gains in its last sweep
        grid = Grid((8,), (1.0 / 8,), "periodic")
        calls, every_sweep = self._ratio_calls(monkeypatch, _periodic_laplacian(8),
                                               NormSpec(p=np.inf, k=1), grid)
        assert calls == every_sweep == 722

    @pytest.mark.parametrize("spec,grid", [
        (NormSpec(p=1.5), None), (NormSpec(p=3.0), Grid((6,), (0.5,))),
        (NormSpec(p=1.0), None), (NormSpec(p=np.inf), None),
        (NormSpec(p=3.0, k=1), Grid((6,), (1.0 / 6,), "periodic")),
    ])
    def test_identity_skip_is_the_product_by_eye(self, spec, grid):
        rng = np.random.default_rng(9)
        C = rng.standard_normal((6, 6))
        V = rng.standard_normal((50, 6))
        grid = unit_grid(6) if grid is None else grid
        skipped = _sip_ratio(None, C, spec, grid)(V)
        assert np.array_equal(skipped, _sip_ratio(np.eye(6), C, spec, grid)(V))


class TestNewtonMove:
    """The ray search's Newton move on smooth quotients (1 < p < inf, real
    operators), lp (k = 0) and Sobolev (k >= 1)."""

    @staticmethod
    def _assert_derivatives_match_central_differences(T, C, spec, grid, rng):
        # the five-point central difference, whose error is O(h^4): near a
        # small entry of a at p < 3 the three-point one's O(h^2) error is
        # not small (4e-4 against an exact Hessian at |a| = 0.0036, p = 1.5)
        ratio = _sip_ratio(T, C, spec, grid)
        derivatives = measures._ratio_derivatives(T, C, spec, grid)
        n = C.shape[1]
        X, h = rng.standard_normal((5, n)), 1e-6
        g, H = derivatives(X)

        def central(f, e):
            return (8.0 * (f(X + e) - f(X - e)) - (f(X + 2 * e) - f(X - 2 * e))) / (12 * h)

        steps = [h * e for e in np.eye(n)]
        g_fd = np.stack([central(ratio, e) for e in steps], axis=1)
        H_fd = np.stack([central(lambda Y: derivatives(Y)[0], e) for e in steps], axis=2)
        assert np.abs(g - g_fd).max() <= 1e-7 * max(1.0, np.abs(g).max())
        assert np.abs(H - H_fd).max() <= 1e-7 * max(1.0, np.abs(H).max())
        assert np.array_equal(H, H.transpose(0, 2, 1))

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_derivatives_match_central_differences(self, p, weighted):
        rng = np.random.default_rng(int(10 * p) + weighted)
        n, N = 4, 6 if weighted else 4
        T = rng.standard_normal((N, n)) if weighted else None
        C = rng.standard_normal((N, n))
        self._assert_derivatives_match_central_differences(
            T, C, NormSpec(p=p), unit_grid(N), rng)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", ["periodic_1d", "two_components_2d", "dense_weight"])
    def test_sobolev_derivatives_match_central_differences(self, p, k, case):
        rng = np.random.default_rng(int(10 * p) + k)
        if case == "two_components_2d":
            grid, T = Grid((4, 3), (0.25, 1.0 / 3), "periodic"), None
            C = rng.standard_normal((24, 24))
        else:
            grid, T = Grid((6,), (1.0 / 6,), "periodic"), None
            C = rng.standard_normal((6, 6))
        if case == "dense_weight":
            # the operator pair weighted_rate hands the search under a
            # projection_complement weight: T = Theta V_r, C = Theta A V_r
            theta = weights.projection_complement(np.full((6, 6), 1.0 / 6))
            Th = theta.matrix(0.0, None, 6)
            Vr = theta.coimage[0]
            T, C = Th @ Vr, Th @ C @ Vr
        self._assert_derivatives_match_central_differences(
            T, C, NormSpec(p=p, k=k), grid, rng)

    def test_not_finite_at_a_zero_entry_below_p3(self):
        X = np.array([[0.0, 1.0, 2.0], [0.5, 1.0, 2.0]])
        C = np.random.default_rng(1).standard_normal((3, 3))
        for p, finite in ((1.5, False), (2.5, False), (3.0, True), (4.0, True)):
            g, H = measures._ratio_derivatives(None, C, NormSpec(p=p), unit_grid(3))(X)
            assert np.isfinite(H[0]).all() == finite
            assert np.isfinite(g[1]).all() and np.isfinite(H[1]).all()

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_move_never_lowers_a_start(self, p):
        rng = np.random.default_rng(int(10 * p))
        for n in (2, 5, 9):
            C = rng.standard_normal((n, n))
            ratio = _sip_ratio(None, C, NormSpec(p=p), unit_grid(n))
            x = rng.standard_normal((32, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            fx = measures._finite(ratio(x))
            moved, fm = measures._newton_move(
                ratio, measures._ratio_derivatives(None, C, NormSpec(p=p), unit_grid(n)), x, fx)
            assert np.all(fm >= fx) and np.any(fm > fx)
            assert np.array_equal(fm, measures._finite(ratio(moved)))
            assert np.allclose(np.linalg.norm(moved, axis=1), 1.0)

    @pytest.mark.parametrize("n", [8, 16])
    def test_periodic_laplacian_reaches_its_supremum(self, n):
        # constants attain the supremum 0 of the p = 3 quotient
        for seed in (0, 1, 2):
            assert mu(_periodic_laplacian(n), NormSpec(p=3.0), seed=seed).value >= -1e-12

    def test_sobolev_laplacian_reaches_its_supremum(self):
        # D commutes with the periodic Laplacian, so constants attain the
        # supremum 0 of the k = 1, p = 3 quotient too
        grid = Grid((8,), (1.0 / 8,), "periodic")
        for seed in (0, 1, 2):
            est = mu(_periodic_laplacian(8), NormSpec(p=3.0, k=1), grid=grid, seed=seed)
            assert est.value >= -1e-12

    @staticmethod
    def _spy(monkeypatch):
        built = []
        make = measures._ratio_derivatives
        monkeypatch.setattr(measures, "_ratio_derivatives",
                            lambda *args: built.append(args) or make(*args))
        return built

    def test_real_smooth_lp_solves_build_the_derivatives(self, monkeypatch):
        built = self._spy(monkeypatch)
        A = np.random.default_rng(2).standard_normal((4, 4))
        th = weights.projection_complement(np.full((4, 4), 0.25))
        mu(A, NormSpec(p=3.0))
        weighted_rate(A, th, spec=NormSpec(p=1.5))
        # the Sobolev (k = 1) quotients are smooth too
        mu(_periodic_laplacian(8), NormSpec(p=3.0, k=1),
           grid=Grid((8,), (1.0 / 8,), "periodic"), seed=0)
        weighted_rate(A, th, spec=NormSpec(p=3.0, k=1),
                      grid=Grid((4,), (0.25,), "periodic"), seed=0)
        assert [args[2] for args in built] == [
            NormSpec(p=3.0), NormSpec(p=1.5), NormSpec(p=3.0, k=1), NormSpec(p=3.0, k=1)]

    def test_other_solves_never_build_the_derivatives(self, monkeypatch):
        # each value is the one of the search before the Newton move, bit for bit
        built = self._spy(monkeypatch)
        rng = np.random.default_rng(21)
        A = rng.standard_normal((4, 4))
        Z = A + 1j * rng.standard_normal((4, 4))
        th = weights.projection_complement(np.full((4, 4), 0.25))
        got = [
            weighted_rate(A, th, spec=L1, seed=0),
            weighted_rate(A, th, spec=LINF, seed=0),
            mu(Z, NormSpec(p=3.0), seed=0),
            mu(Z, NormSpec(p=1.5), seed=0),
        ]
        assert not built
        assert [est.method for est in got] == ["sampled"] * 4
        assert [est.value.hex() for est in got] == [
            "0x1.bd3ce3ffc2f6bp+1", "0x1.3c2cb22962dbdp+2",
            "0x1.6b6553d0b4eb5p+1", "0x1.4c80cce4a95a6p+1"]
        assert measures._opnorm(np.eye(3) + 1e-3 * A[:3, :3], 3.0, 0) == float.fromhex(
            "0x1.006fe3528d339p+0")

    def test_sobolev_p1_pinf_solves_never_build_the_derivatives(self, monkeypatch):
        # p in {1, inf} has kinks at every k; each value is the one of the
        # search before the Sobolev quotient took the Newton move, bit for bit
        built = self._spy(monkeypatch)
        A = np.random.default_rng(21).standard_normal((4, 4))
        th = weights.projection_complement(np.full((4, 4), 0.25))
        grid8, grid4 = Grid((8,), (1.0 / 8,), "periodic"), Grid((4,), (0.25,), "periodic")
        got = [
            mu(_periodic_laplacian(8), NormSpec(p=1.0, k=1), grid=grid8, seed=0),
            mu(_periodic_laplacian(8), NormSpec(p=np.inf, k=1), grid=grid8, seed=0),
            weighted_rate(A, th, spec=NormSpec(p=1.0, k=1), grid=grid4, seed=0),
            weighted_rate(A, th, spec=NormSpec(p=np.inf, k=1), grid=grid4, seed=0),
        ]
        assert not built
        assert [est.method for est in got] == ["sampled"] * 4
        assert [est.value.hex() for est in got] == [
            "-0x1.83a3a6cc8bc73p-27", "-0x1.1d810b9181fc4p-2",
            "0x1.0066aac73700ap+2", "0x1.cd93863c9ad61p+1"]

    def test_large_n_no_slower_and_no_more_than_twice_the_memory(self):
        # a 48 x 48 solve takes the Hessians in blocks of starts; against the
        # pattern search on the same ratio: the faster of two untraced runs
        # each, then the tracemalloc peak of one traced run each
        A = np.random.default_rng(0).standard_normal((48, 48))

        def solve(newton, traced=False):
            if traced:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                _unit_search(A, NormSpec(p=3.0), 0, newton)
                return time.perf_counter() - t0, traced and tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        runs = [solve(newton) for _ in range(2) for newton in (True, False)]
        assert min(r[0] for r in runs[0::2]) <= min(r[0] for r in runs[1::2])
        assert solve(True, traced=True)[1] <= 2 * solve(False, traced=True)[1]


class TestNonlinearRate:
    def test_linear_field_constant_jacobian(self):
        A = np.array([[-2.0, 1.0], [0.0, -1.0]])
        f = linear_field(A)
        samples = sampling.gaussian_samples(5, 2, seed=0)
        est = nonlinear_rate(f, weights.identity(), spec=L2, sampler=samples)
        assert est.value == pytest.approx(mu(A, L2).value, rel=1e-12)
        assert est.method == "sampled"
        assert est.sample_count == 5

    def test_cubic_scalar_max_at_origin(self):
        from contractkit.flows import VectorField

        f = VectorField(f=lambda t, u: -u**3, jac=lambda t, u: np.diag(-3.0 * u**2),
                        dim=1)
        samples = sampling.states([np.array([-1.0]), np.array([0.0]), np.array([1.0])])
        est = nonlinear_rate(f, weights.identity(), spec=L2, sampler=samples)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(est.argmax[1], 0.0)

    def test_hopf_level_weight_band(self):
        from contractkit import systems

        f = systems.hopf_field(omega=1.0)
        sub = systems.circle_submersion()
        rng = np.random.default_rng(8)
        samples = []
        while len(samples) < 20:
            u = rng.uniform(-1.2, 1.2, 2)
            if 0.8 <= np.linalg.norm(u) <= 1.2:
                samples.append((0.0, u))
        est = nonlinear_rate(f, sub.weight(), spec=L2, sampler=samples)
        # radial tangent rate is 1 - 3 r^2, so sup over the band is <= -0.92
        assert -3.33 <= est.value <= -0.9

    def test_empty_sampler_raises(self):
        with pytest.raises(ContractViolation, match="sampler"):
            nonlinear_rate(linear_field(np.eye(2)), weights.identity(),
                           sampler=[])

    def test_missing_sampler_raises(self):
        # the sampler is a required argument, and sampling.read refuses None
        with pytest.raises(TypeError, match="sampler"):
            nonlinear_rate(linear_field(np.eye(2)), weights.identity())
        with pytest.raises(ContractViolation, match="sampler"):
            nonlinear_rate(linear_field(np.eye(2)), weights.identity(), sampler=None)

    @pytest.mark.parametrize("spec", [L1, LINF, L2], ids=["p1", "pinf", "p2"])
    def test_nan_jacobian_raises(self, spec):
        # a closed form used to read -inf here: a fully contracting rate
        from contractkit.flows import VectorField

        f = VectorField(f=lambda t, u: -u, jac=lambda t, u: np.diag(u) - np.eye(2), dim=2)
        nan_state = sampling.states([[np.nan, 1.0]])
        mixed = sampling.states([[0.5, 1.0], [np.nan, 1.0], [0.0, 0.0]])
        for sampler in (nan_state, mixed):
            with pytest.raises(NumericalError):
                nonlinear_rate(f, weights.identity(), spec=spec, sampler=sampler)


class TestRead:
    def test_pairs_of_float_arrays(self):
        samples = sampling.read([(0.0, [1, 2]), (0.5, np.array([3.0, 4.0]))])
        assert [t for t, _ in samples] == [0.0, 0.5]
        assert all(u.dtype == float for _, u in samples)
        assert np.array_equal(samples[0][1], [1.0, 2.0])

    def test_reads_a_generator_once(self):
        samples = sampling.read((0.0, np.full(2, k)) for k in range(3))
        assert len(samples) == 3 and samples[2][1][0] == 2.0

    def test_float_states_are_not_copied(self):
        u = np.ones(3)
        assert sampling.read([(0.0, u)])[0][1] is u

    @pytest.mark.parametrize("sampler", [None, [], iter(())], ids=["none", "empty", "exhausted"])
    def test_refuses_no_samples(self, sampler):
        with pytest.raises(ContractViolation, match="sampler"):
            sampling.read(sampler)
