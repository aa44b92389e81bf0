import math

import numpy as np
import pytest

from riemann_bci import spd
from riemann_bci.datasets import SyntheticSpec, generate_p300
from riemann_bci.errors import (
    ContractError,
    MeanConvergenceError,
    NotPositiveDefiniteError,
    NumericError,
)
from riemann_bci.features import P300, build_recipe, featurize
from riemann_bci.preprocessing import demean
from riemann_bci.spd import (
    SpdMatrix,
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
        m = a + a.T
        eigenvalues, vectors = _eigh_descending(m)
        rebuilt = vectors @ np.diag(eigenvalues) @ vectors.T
        scale = np.linalg.norm(m, "fro")
        assert np.linalg.norm(rebuilt - m, "fro") <= 1e-10 * scale
        assert np.linalg.norm(vectors.T @ vectors - np.eye(8), "fro") <= 1e-10
        assert np.all(np.diff(eigenvalues) <= 0)

    def test_symmetrized_on_construction(self, rng):
        a = rng.standard_normal((5, 5))
        m = SpdMatrix(a @ a.T + np.eye(5) + (a - a.T))  # SPD symmetric part
        np.testing.assert_array_equal(m.values, m.values.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractError):
            SpdMatrix(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            SpdMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ContractError):  # finite, but a + a^T overflows
            SpdMatrix(np.full((2, 2), 1e308))


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
    def test_sqrt_of_diagonal(self):
        out = matrix_fn(SpdMatrix(np.diag([4.0, 9.0])), "sqrt")
        np.testing.assert_allclose(out.values, np.diag([2.0, 3.0]), atol=1e-12)

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: riemann_distance(a, b),
        lambda a, b: geodesic(a, b, 0.5),
        lambda a, b: karcher_residual(a, [b]),
    ],
    ids=["riemann_distance", "geodesic", "karcher_residual"],
)
def test_overflowing_whitening_is_numeric_error(call):
    """Whitening diag(1e300) by diag(1e-300)^-1/2 overflows, and the
    eigensolver returns NaN; the positivity test must reject NaN."""
    a = SpdMatrix(np.diag([1e-300, 1e-300]))
    b = SpdMatrix(np.diag([1e300, 1e300]))
    with pytest.raises(NumericError):
        call(a, b)


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

    def test_empty_set(self):
        with pytest.raises(ContractError):
            geometric_mean([])

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_tolerance(self, tol):
        identity = SpdMatrix(np.eye(2))
        with pytest.raises(ContractError, match="tolerance"):
            geometric_mean([identity, identity], tol=tol)

    def test_eigensolver_budget(self, monkeypatch):
        """One criterion-5 class mean (50 P300 features of 16x16 at auto
        shrinkage) took 2652 eigendecompositions by fixed-point iteration;
        conjugate gradient needs about a third of that.  A stacked call
        counts each matrix of its stack."""
        train = [demean(e) for e in generate_p300(SyntheticSpec(trials_per_class=50, seed=0))[0]]
        recipe = build_recipe(P300, training=train, shrinkage="auto")
        feats = [featurize([e], recipe)[0] for e in train if e.label == 0]
        assert (len(feats), feats[0].dim) == (50, 16)
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.extend([a.shape[-2:]] * int(np.prod(a.shape[:-2])))
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        out = geometric_mean(feats)
        assert len(calls) <= 1300
        monkeypatch.undo()
        assert karcher_residual(out, feats) < 1e-8 * 16

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_widely_spread_small_sets_converge(self, rng, cond, dim):
        for k in (2, 3, 4):
            mats = [random_spd(rng, dim, cond=cond) for _ in range(k)]
            out = geometric_mean(mats)
            assert karcher_residual(out, mats) < 1e-8 * dim

    def test_non_descent_direction_restarts_along_gradient(self, monkeypatch):
        """Four 2x2 matrices at condition 1e6: one Polak-Ribiere direction
        is not a descent direction, and the solver steps along G instead.

        Every step is recorded; the directions are recomputed from the
        recorded gradients (the first direction is the gradient itself)."""
        rng = np.random.default_rng(2)
        mats = [random_spd(rng, 2, cond=1e6) for _ in range(4)]
        steps = []  # (frame stepped from, direction, (frame, G, residual) reached)
        real_step = spd._step

        def recording_step(frame, d, alpha, values):
            reached = real_step(frame, d, alpha, values)
            steps.append((frame, d, reached))
            return reached

        monkeypatch.setattr(spd, "_step", recording_step)
        out = geometric_mean(mats)
        iterations = []  # [frame, direction, points reached], one per iteration
        for frame, d, reached in steps:
            if not iterations or iterations[-1][0] is not frame:
                iterations.append([frame, d, []])
            iterations[-1][2].append(reached)
        # the point each iteration moved to is the frame the next one starts from
        accepted = [
            next(p for p in it[2] if p[0] is nxt[0])
            for it, nxt in zip(iterations, iterations[1:])
        ]
        gradients = [iterations[0][1]] + [p[1] for p in accepted]
        restarts = 0
        for i in range(1, len(accepted)):
            g, g_prev, d_prev = gradients[i], gradients[i - 1], iterations[i - 1][1]
            beta = max(0.0, float(np.vdot(g, g - g_prev)) / float(np.vdot(g_prev, g_prev)))
            direction = g + beta * d_prev
            if float(np.vdot(g, direction)) <= 0.0:
                restarts += 1
                direction = g
            np.testing.assert_allclose(iterations[i][1], direction, rtol=1e-12, atol=0.0)
        assert restarts >= 1
        assert karcher_residual(out, mats) < 1e-8 * 2


def per_matrix_mean_log(whiten, values):
    """The mean log map as this package computed it before stacks: one
    eigendecomposition and one rebuild per matrix, summed from zeros."""
    total = np.zeros_like(whiten)
    for value in values:
        a = whiten @ value @ whiten.T
        w, u = np.linalg.eigh(0.5 * (a + a.T))
        w, u = w[::-1].copy(), u[:, ::-1].copy()
        if not w[-1] > 0.0:
            raise NumericError("whitened matrix lost positive definiteness")
        r = (u * np.log(w)) @ u.T
        total += 0.5 * (r + r.T)
    g = total / len(values)
    return g, float(np.linalg.norm(g))


class TestStackedMeanLog:
    """The stacked mean log map and the mean built on it are bit-identical
    to the per-matrix loop."""

    @pytest.fixture
    def p300_class(self):
        train = [demean(e) for e in generate_p300(SyntheticSpec(trials_per_class=50, seed=4))[0]]
        recipe = build_recipe(P300, training=train, shrinkage="auto")
        return featurize([e for e in train if e.label == 1], recipe)

    def test_mean_log_matches_loop(self, rng, p300_class):
        values = np.stack([m.values for m in p300_class])
        whiten = random_invertible(rng, values.shape[-1]) * 0.1
        g, residual = spd._mean_log(whiten, values)
        g0, residual0 = per_matrix_mean_log(whiten, values)
        assert g.tobytes() == g0.tobytes() and residual == residual0

    @pytest.mark.parametrize("dim, k", [(16, 50), (18, 4), (3, 2)])
    def test_geometric_mean_matches_loop(self, rng, monkeypatch, p300_class, dim, k):
        mats = p300_class if dim == 16 else [random_spd(rng, dim, cond=1e4) for _ in range(k)]
        stacked = geometric_mean(mats)
        monkeypatch.setattr(spd, "_mean_log", per_matrix_mean_log)
        looped = geometric_mean(mats)
        assert stacked.values.tobytes() == looped.values.tobytes()
        assert karcher_residual(stacked, mats) == per_matrix_mean_log(
            stacked._inv_sqrt_array(), [m.values for m in mats]
        )[1]

    def test_lost_definiteness_in_any_matrix_is_numeric_error(self):
        values = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NumericError):
            spd._mean_log(np.eye(2), values)
