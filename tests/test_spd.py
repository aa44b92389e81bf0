import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_bci import spd
from riemann_bci.datasets import SyntheticSpec, generate_p300, read_epochs, write_epochs
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

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_stack_dimension_mismatch(self, rng, position):
        stack = [random_spd(rng, 3) for _ in range(5)]
        stack[position] = random_spd(rng, 4)
        with pytest.raises(ContractError, match="dimension mismatch"):
            riemann_distance(random_spd(rng, 3), stack)

    def test_stack_analytic_values(self):
        stack = [SpdMatrix(np.eye(2)), SpdMatrix(np.diag([4.0, 1.0]))]
        d = riemann_distance(SpdMatrix(np.diag([4.0, 1.0])), stack)
        assert isinstance(d, np.ndarray)
        np.testing.assert_allclose(d, [math.log(4.0), 0.0], atol=1e-12)

    def test_empty_stack(self, rng):
        assert riemann_distance(random_spd(rng, 3), []).shape == (0,)


def pair_distance(c1, c2):
    """The distance as this package computed it before stacks: one
    congruence and one eigvalsh per pair."""
    isq = c1._inv_sqrt_array()
    w = np.linalg.eigvalsh(spd._symmetrize(isq @ c2.values @ isq))
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


@given(st.integers(1, 8), st.integers(1, 6), st.floats(0.0, 6.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_distance_is_pairwise_distance(dim, k, log_cond, seed):
    """A stack of k <= 6 matrices of dim <= 8 at condition <= 1e6 gives, bit
    for bit, the distances of one pair at a time."""
    rng = np.random.default_rng(seed)
    c1 = random_spd(rng, dim, cond=10.0**log_cond)
    stack = [random_spd(rng, dim, cond=10.0**log_cond) for _ in range(k)]
    expected = [pair_distance(c1, c) for c in stack]
    assert riemann_distance(c1, stack).tolist() == expected
    assert [riemann_distance(c1, c) for c in stack] == expected


@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(1, 6),
    st.floats(0.0, 6.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_distance_table_is_per_mean_distances(dim, m, k, log_cond, seed):
    """A stack of m <= 4 means against k <= 6 features of dim <= 8 at
    condition <= 1e6 gives the (k, m) table whose column j is, bit for bit,
    the distances from mean j to the stack, one call per mean."""
    rng = np.random.default_rng(seed)
    means = [random_spd(rng, dim, cond=10.0**log_cond) for _ in range(m)]
    feats = [random_spd(rng, dim, cond=10.0**log_cond) for _ in range(k)]
    table = riemann_distance(means, feats)
    assert table.shape == (k, m)
    expected = np.stack([riemann_distance(c, feats) for c in means], axis=-1)
    assert table.tolist() == expected.tolist()
    assert table.tolist() == [[pair_distance(c, f) for c in means] for f in feats]


class TestDistanceShapes:
    def test_stack_against_one_matrix(self, rng):
        means = [random_spd(rng, 3) for _ in range(4)]
        f = random_spd(rng, 3)
        d = riemann_distance(means, f)
        assert d.shape == (4,)
        assert d.tolist() == [riemann_distance(c, f) for c in means]

    def test_empty_stacks(self, rng):
        means = [random_spd(rng, 3) for _ in range(2)]
        assert riemann_distance(means, []).shape == (0, 2)
        assert riemann_distance([], [random_spd(rng, 3)]).shape == (1, 0)

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_dimension_mismatch_in_either_stack(self, rng, position):
        mats = [random_spd(rng, 3) for _ in range(4)]
        mats[position] = random_spd(rng, 4)
        with pytest.raises(ContractError, match="dimension mismatch"):
            riemann_distance(mats[:2], mats[2:])


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

    def test_dimension_mismatch_even_at_an_endpoint(self, rng):
        with pytest.raises(ContractError, match="dimension mismatch"):
            geodesic(random_spd(rng, 3), random_spd(rng, 4), 0.0)

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
        lambda a, b: riemann_distance(a, [a, b]),
        lambda a, b: riemann_distance([a, a], [a, b]),
        lambda a, b: geodesic(a, b, 0.5),
        lambda a, b: karcher_residual(a, [b]),
    ],
    ids=["riemann_distance", "riemann_distance_stack", "riemann_distance_table", "geodesic",
         "karcher_residual"],
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

    def test_max_iter_exhaustion(self, rng, monkeypatch):
        mats = [random_spd(rng, 4) for _ in range(4)]
        monkeypatch.setattr(spd, "MEAN_MAX_STEPS", 3)
        with pytest.raises(MeanConvergenceError) as err:
            geometric_mean(mats, tol=1e-300)
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
        shrinkage) took 2652 eigendecompositions by fixed-point iteration
        and 868 by conjugate gradient.  Newton takes 205: 200 in four
        stacked evaluations of the 50 whitened matrices, one for the
        arithmetic-mean start, one for each of three steps exp(X / 2) and
        one for the returned mean's check.  A stacked call counts each
        matrix of its stack."""
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
        assert len(calls) <= 300
        monkeypatch.undo()
        assert karcher_residual(out, feats) < 1e-8 * 16

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_widely_spread_small_sets_converge(self, rng, cond, dim):
        for k in (2, 3, 4):
            mats = [random_spd(rng, dim, cond=cond) for _ in range(k)]
            out = geometric_mean(mats)
            assert karcher_residual(out, mats) < 1e-8 * dim

    def test_step_acceptance_rule(self, monkeypatch):
        """Sets of three 2x2 matrices at condition 1e6.  Near the solution
        the cost changes by rounding only, and Newton steps that fail the
        Armijo test are accepted because the residual falls.  A direction
        made 4 times too long fails both tests; its step halves until a
        trial passes, and the mean still converges."""
        real_accepts = spd._accepts
        trials = []  # (accepted, Armijo test held, predicted decrease t <G, X>)

        def recording_accepts(point, reached, decrease):
            accepted = real_accepts(point, reached, decrease)
            trials.append((accepted, reached.cost <= point.cost - 1e-4 * decrease, decrease))
            return accepted

        monkeypatch.setattr(spd, "_accepts", recording_accepts)
        rng = np.random.default_rng(2)
        sets = [[random_spd(rng, 2, cond=1e6) for _ in range(3)] for _ in range(10)]
        for mats in sets:
            out = geometric_mean(mats)
            assert karcher_residual(out, mats) < 1e-8 * 2
        assert any(accepted and not armijo for accepted, armijo, _ in trials)

        real_direction = spd._newton_direction
        monkeypatch.setattr(spd, "_newton_direction", lambda point: 4.0 * real_direction(point))
        for mats in sets:
            trials.clear()
            out = geometric_mean(mats)
            assert karcher_residual(out, mats) < 1e-8 * 2
            assert not trials[0][0]
            for (accepted, _, decrease), (_, _, following) in zip(trials, trials[1:]):
                if not accepted:
                    assert following == 0.5 * decrease

    def test_erp_benchmark_class_set_takes_few_evaluations(self, tmp_path, monkeypatch):
        """Class 1 of the last training file of the erp_calibration benchmark
        at seed 301: 50 P300 features of 16x16 at auto shrinkage, condition
        up to 2e5, read back from a float32 epoch file as ``fit`` reads it.
        Its last Newton step lowers the residual from 3e-7 to 6e-14 while
        the cost moves by rounding only, so a rule on the cost alone
        halves that step."""
        seed = int(np.random.SeedSequence([301, 5]).generate_state(16)[14])
        path = tmp_path / "train.dat"
        write_epochs(path, generate_p300(SyntheticSpec(trials_per_class=50, seed=seed))[0], "p300")
        train = [demean(e) for e in read_epochs(path)]
        recipe = build_recipe(P300, training=train, shrinkage="auto")
        feats = featurize([e for e in train if e.label == 1], recipe)
        evaluations = []
        monkeypatch.setattr(spd, "_mean_log", counting_mean_log(evaluations))
        out = geometric_mean(feats)
        assert len(evaluations) <= 8
        monkeypatch.undo()
        assert karcher_residual(out, feats) < 1e-8 * 16

    def test_residual_dimension_mismatch(self):
        with pytest.raises(ContractError, match="dimension mismatch"):
            karcher_residual(SpdMatrix(np.eye(2)), [SpdMatrix(np.eye(3))])


def counting_mean_log(evaluations):
    """``spd._mean_log`` that appends each evaluation's whitening to ``evaluations``."""
    real_mean_log = spd._mean_log

    def counting(whiten, values):
        evaluations.append(whiten)
        return real_mean_log(whiten, values)

    return counting


@given(st.integers(1, 8), st.integers(2, 6), st.floats(0.0, 6.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mean_meets_tolerance_and_moves_with_congruence(dim, k, log_cond, seed):
    """Any set of k <= 6 matrices of dim <= 8 at condition <= 1e6 converges
    within 8 evaluations.  The cost is 1-strongly convex (H >= I), so each
    returned mean lies within its residual of the true mean, and the mean of
    a congruent set within twice the tolerance of the congruent mean.  The
    congruence is a signed permutation times powers of two from 1/2 to 2,
    so forming it adds no rounding and barely moves the condition number."""
    rng = np.random.default_rng(seed)
    mats = [random_spd(rng, dim, cond=10.0**log_cond) for _ in range(k)]
    scale = 2.0 ** rng.integers(-1, 2, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    w = np.diag(scale)[rng.permutation(dim)]
    evaluations = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spd, "_mean_log", counting_mean_log(evaluations))
        out = geometric_mean(mats)
    assert len(evaluations) <= 8
    assert karcher_residual(out, mats) < 1e-8 * dim
    mapped = geometric_mean([SpdMatrix(w.T @ m.values @ w) for m in mats])
    assert riemann_distance(mapped, SpdMatrix(w.T @ out.values @ w)) < 2e-8 * dim


def per_matrix_mean_log(whiten, values):
    """The mean log map as this package computed it before stacks: one
    eigendecomposition and one rebuild per matrix, summed from zeros, with
    each matrix's squared logs summed on their own for the cost."""
    total = np.zeros_like(whiten)
    vectors, logs = [], []
    for value in values:
        a = whiten @ value @ whiten.T
        w, u = np.linalg.eigh(0.5 * (a + a.T))
        w, u = w[::-1].copy(), u[:, ::-1].copy()
        if not w[-1] > 0.0:
            raise NumericError("whitened matrix lost positive definiteness")
        log = np.log(w)
        r = (u * log) @ u.T
        total += 0.5 * (r + r.T)
        vectors.append(u)
        logs.append(log)
    g = total / len(values)
    cost = 0.5 * float(np.mean([np.sum(log * log) for log in logs]))
    return spd._Evaluation(g, float(np.linalg.norm(g)), cost, np.stack(vectors), np.stack(logs))


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
        stacked = spd._mean_log(whiten, values)
        looped = per_matrix_mean_log(whiten, values)
        for field in spd._Evaluation._fields:
            a, b = getattr(stacked, field), getattr(looped, field)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field

    @pytest.mark.parametrize("dim, k", [(16, 50), (18, 4), (3, 2)])
    def test_geometric_mean_matches_loop(self, rng, monkeypatch, p300_class, dim, k):
        mats = p300_class if dim == 16 else [random_spd(rng, dim, cond=1e4) for _ in range(k)]
        stacked = geometric_mean(mats)
        monkeypatch.setattr(spd, "_mean_log", per_matrix_mean_log)
        looped = geometric_mean(mats)
        assert stacked.values.tobytes() == looped.values.tobytes()
        assert karcher_residual(stacked, mats) == per_matrix_mean_log(
            stacked._inv_sqrt_array(), [m.values for m in mats]
        ).residual

    def test_lost_definiteness_in_any_matrix_is_numeric_error(self):
        values = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NumericError):
            spd._mean_log(np.eye(2), values)
