import math

import numpy as np
import pytest

from riemann_bci.errors import (
    ContractError,
    MeanConvergenceError,
    NotPositiveDefiniteError,
)
from riemann_bci.spd import (
    SpdMatrix,
    SymmetricMatrix,
    _eigh_descending,
    geodesic,
    geometric_mean,
    karcher_residual,
    matrix_fn,
    riemann_distance,
)

from conftest import random_invertible, random_spd


class TestEvd:
    def test_diagonal_input(self):
        out = SpdMatrix(np.diag([3.0, 1.0])).eig
        np.testing.assert_allclose(out.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(out.vectors), np.eye(2), atol=1e-12)

    def test_identity(self):
        out = SpdMatrix(np.eye(4)).eig
        np.testing.assert_allclose(out.eigenvalues, np.ones(4))

    def test_reconstruction_oracle(self, rng):
        a = rng.standard_normal((8, 8))
        m = SymmetricMatrix(a + a.T)
        eigenvalues, vectors = _eigh_descending(m.values)
        rebuilt = vectors @ np.diag(eigenvalues) @ vectors.T
        scale = np.linalg.norm(m.values, "fro")
        assert np.linalg.norm(rebuilt - m.values, "fro") <= 1e-10 * scale
        assert np.linalg.norm(vectors.T @ vectors - np.eye(8), "fro") <= 1e-10
        assert np.all(np.diff(eigenvalues) <= 0)

    def test_symmetrized_on_construction(self, rng):
        a = rng.standard_normal((5, 5))
        m = SymmetricMatrix(a)
        np.testing.assert_array_equal(m.values, m.values.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            SymmetricMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestSpdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_rejects_rank_deficient(self):
        x = np.array([[1.0, 2.0]])
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix(x.T @ x)

    def test_relative_check_is_scale_invariant(self, rng):
        c = random_spd(rng, 6, cond=1e4)
        SpdMatrix(c.values * 1e-12)
        SpdMatrix(c.values * 1e12)

    def test_immutable_values(self, rng):
        c = random_spd(rng, 3)
        with pytest.raises(ValueError):
            c.values[0, 0] = 5.0


class TestMatrixFn:
    def test_log_identity_is_zero(self):
        out = matrix_fn(SpdMatrix(np.eye(3)), "log")
        np.testing.assert_allclose(out.values, np.zeros((3, 3)), atol=1e-14)

    def test_sqrt_of_diagonal(self):
        out = matrix_fn(SpdMatrix(np.diag([4.0, 9.0])), "sqrt")
        np.testing.assert_allclose(out.values, np.diag([2.0, 3.0]), atol=1e-12)

    def test_exp_log_round_trip(self, rng):
        for _ in range(10):
            c = random_spd(rng, 5, cond=1e3)
            back = matrix_fn(matrix_fn(c, "log"), "exp")
            scale = np.linalg.norm(c.values, "fro")
            assert np.linalg.norm(back.values - c.values, "fro") <= 1e-9 * scale

    def test_inverse_matches_solve(self, rng):
        c = random_spd(rng, 6)
        inv = matrix_fn(c, "inverse")
        np.testing.assert_allclose(inv.values @ c.values, np.eye(6), atol=1e-9)

    def test_inv_sqrt_whitens(self, rng):
        c = random_spd(rng, 4)
        isq = matrix_fn(c, "inv_sqrt")
        np.testing.assert_allclose(
            isq.values @ c.values @ isq.values, np.eye(4), atol=1e-9
        )

    def test_exp_accepts_indefinite_symmetric(self, rng):
        a = rng.standard_normal((4, 4))
        out = matrix_fn(SymmetricMatrix(a + a.T), "exp")
        assert isinstance(out, SpdMatrix)

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_fn(SymmetricMatrix(np.diag([1.0, -2.0])), "log")

    def test_unknown_function(self):
        with pytest.raises(ContractError):
            matrix_fn(SpdMatrix(np.eye(2)), "cosh")


class TestDistance:
    def test_self_distance_zero(self, rng):
        for _ in range(5):
            c = random_spd(rng, 5)
            assert riemann_distance(c, c) <= 1e-10

    def test_analytic_value(self):
        d = riemann_distance(SpdMatrix(np.diag([4.0, 1.0])), SpdMatrix(np.eye(2)))
        assert d == pytest.approx(math.log(4.0), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = random_spd(rng, 6)
            b = random_spd(rng, 6)
            assert abs(riemann_distance(a, b) - riemann_distance(b, a)) <= 1e-10

    def test_affine_invariance(self, rng):
        for _ in range(20):
            a = random_spd(rng, 5)
            b = random_spd(rng, 5)
            w = random_invertible(rng, 5, cond=1e3)
            d0 = riemann_distance(a, b)
            d1 = riemann_distance(
                SpdMatrix(w.T @ a.values @ w), SpdMatrix(w.T @ b.values @ w)
            )
            assert abs(d0 - d1) <= 1e-8 * max(d0, 1.0)

    def test_inversion_invariance(self, rng):
        for _ in range(10):
            a = random_spd(rng, 4)
            b = random_spd(rng, 4)
            d0 = riemann_distance(a, b)
            d1 = riemann_distance(matrix_fn(a, "inverse"), matrix_fn(b, "inverse"))
            assert abs(d0 - d1) <= 1e-8 * max(d0, 1.0)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = random_spd(rng, 4)
            b = random_spd(rng, 4)
            c = random_spd(rng, 4)
            assert riemann_distance(a, c) <= (
                riemann_distance(a, b) + riemann_distance(b, c) + 1e-9
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ContractError):
            riemann_distance(random_spd(rng, 3), random_spd(rng, 4))


class TestGeodesic:
    def test_endpoints_exact(self, rng):
        a = random_spd(rng, 4)
        b = random_spd(rng, 4)
        assert geodesic(a, b, 0.0) is a
        assert geodesic(a, b, 1.0) is b

    def test_commuting_closed_form(self):
        mid = geodesic(SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0])), 0.5)
        np.testing.assert_allclose(mid.values, np.diag([2.0, 1.0]), atol=1e-12)

    def test_midpoint_with_inverse_is_identity(self, rng):
        for _ in range(5):
            c = random_spd(rng, 5, cond=50.0)
            mid = geodesic(c, matrix_fn(c, "inverse"), 0.5)
            assert np.linalg.norm(mid.values - np.eye(5), "fro") <= 1e-9

    def test_parameter_out_of_range(self, rng):
        a = random_spd(rng, 3)
        b = random_spd(rng, 3)
        with pytest.raises(ContractError):
            geodesic(a, b, 1.5)
        with pytest.raises(ContractError):
            geodesic(a, b, -0.1)

    def test_midpoint_equidistant(self, rng):
        a = random_spd(rng, 4)
        b = random_spd(rng, 4)
        mid = geodesic(a, b, 0.5)
        d = riemann_distance(a, b)
        assert riemann_distance(a, mid) == pytest.approx(d / 2, rel=1e-8)
        assert riemann_distance(mid, b) == pytest.approx(d / 2, rel=1e-8)


class TestGeometricMean:
    def test_single_element(self, rng):
        c = random_spd(rng, 4)
        assert geometric_mean([c]) is c

    def test_commuting_closed_form(self):
        out = geometric_mean(
            [SpdMatrix(np.diag([1.0, 1.0])), SpdMatrix(np.diag([4.0, 1.0]))]
        )
        np.testing.assert_allclose(out.values, np.diag([2.0, 1.0]), atol=1e-9)

    def test_mean_with_inverse_is_identity(self, rng):
        for _ in range(5):
            c = random_spd(rng, 4, cond=50.0)
            out = geometric_mean([c, matrix_fn(c, "inverse")])
            assert np.linalg.norm(out.values - np.eye(4), "fro") <= 1e-8

    def test_karcher_condition_on_convergence(self, rng):
        mats = [random_spd(rng, 6) for _ in range(8)]
        out = geometric_mean(mats)
        assert karcher_residual(out, mats) < 1e-8 * 6

    def test_weighted_mean_degenerate_weight(self, rng):
        mats = [random_spd(rng, 4) for _ in range(3)]
        out = geometric_mean(mats, weights=[1.0, 0.0, 0.0])
        assert riemann_distance(out, mats[0]) <= 1e-7

    def test_weighted_karcher_condition(self, rng):
        mats = [random_spd(rng, 5) for _ in range(4)]
        wts = [0.4, 0.3, 0.2, 0.1]
        out = geometric_mean(mats, weights=wts)
        assert karcher_residual(out, mats, weights=wts) < 1e-8 * 5

    def test_congruence_equivariance(self, rng):
        mats = [random_spd(rng, 4) for _ in range(5)]
        w = random_invertible(rng, 4, cond=100.0)
        mapped = [SpdMatrix(w.T @ m.values @ w) for m in mats]
        lhs = geometric_mean(mapped).values
        rhs = w.T @ geometric_mean(mats).values @ w
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-7 * np.linalg.norm(rhs, "fro")

    def test_permutation_invariance(self, rng):
        mats = [random_spd(rng, 4) for _ in range(6)]
        out0 = geometric_mean(mats)
        out1 = geometric_mean(mats[::-1])
        assert np.linalg.norm(out0.values - out1.values, "fro") <= 1e-9

    def test_max_iter_exhaustion(self, rng):
        mats = [random_spd(rng, 4) for _ in range(4)]
        with pytest.raises(MeanConvergenceError) as err:
            geometric_mean(mats, tol=1e-300, max_iter=3)
        assert err.value.residual > 0.0

    def test_bad_weights(self, rng):
        mats = [random_spd(rng, 3) for _ in range(2)]
        with pytest.raises(ContractError):
            geometric_mean(mats, weights=[0.7, 0.7])
        with pytest.raises(ContractError):
            geometric_mean(mats, weights=[1.5, -0.5])

    def test_empty_set(self):
        with pytest.raises(ContractError):
            geometric_mean([])
