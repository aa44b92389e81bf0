from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from riemann_bci import mdm
from riemann_bci.datasets import (
    SyntheticSpec,
    default_mi_covariances,
    generate_mi,
    generate_p300,
    generate_ssvep,
)
from riemann_bci.errors import ContractError
from riemann_bci.features import (
    ERP_MULTI,
    MI,
    MU_P300,
    P300,
    SSVEP,
    FeatureRecipe,
    build_prototypes,
    build_recipe,
    featurize,
    super_trial_cov,
)
from riemann_bci.spd import geometric_mean, riemann_distance
from riemann_bci.mdm import DistanceVector, MdmModel
from riemann_bci.preprocessing import Epoch, demean

from conftest import random_invertible, random_orthogonal, random_spd

MI_RECIPE = FeatureRecipe(modality=MI, shrinkage=0.0)


def mi_epochs(rng, n=4, t=200, label=None):
    return Epoch(rng.standard_normal((n, t)), fs=128.0, label=label)


def model_from_means(means, class_ids=None):
    class_ids = tuple(range(len(means))) if class_ids is None else tuple(class_ids)
    return MdmModel(
        class_ids=class_ids,
        means=tuple(means),
        recipe=MI_RECIPE,
        counts=tuple(1 for _ in means),
    )


class TestFit:
    def test_identical_epochs_give_exact_mean(self, rng):
        e0 = mi_epochs(rng, label=0)
        e1 = mi_epochs(rng, label=1)
        copies = [Epoch(e.data, fs=e.fs, label=e.label) for e in (e0, e1)]
        model = mdm.fit([e0, copies[0], e1, copies[1]], MI_RECIPE)
        np.testing.assert_array_equal(
            model.means[0].values, super_trial_cov([e0.data], 0.0).values
        )
        np.testing.assert_array_equal(
            model.means[1].values, super_trial_cov([e1.data], 0.0).values
        )

    def test_requires_two_classes(self, rng):
        epochs = [mi_epochs(rng, label=0) for _ in range(4)]
        with pytest.raises(ContractError, match=">= 2 classes"):
            mdm.fit(epochs, MI_RECIPE)

    def test_requires_two_epochs_per_class(self, rng):
        epochs = [mi_epochs(rng, label=0), mi_epochs(rng, label=0), mi_epochs(rng, label=1)]
        with pytest.raises(ContractError, match="class 1"):
            mdm.fit(epochs, MI_RECIPE)

    def test_congruence_equivariance(self, rng):
        epochs = [mi_epochs(rng, label=z) for z in (0, 0, 0, 1, 1, 1)]
        a = random_invertible(rng, 4, cond=50.0)
        mapped = [Epoch(a @ e.data, fs=e.fs, label=e.label) for e in epochs]
        base = mdm.fit(epochs, MI_RECIPE)
        moved = mdm.fit(mapped, MI_RECIPE)
        for m_base, m_moved in zip(base.means, moved.means):
            expected = a @ m_base.values @ a.T
            rel = np.linalg.norm(m_moved.values - expected, "fro")
            assert rel <= 1e-7 * np.linalg.norm(expected, "fro")

    def test_synthetic_two_class_shapes(self):
        spec = SyntheticSpec(
            n_channels=8,
            n_samples=256,
            trials_per_class=10,
            seed=0,
            class_covs=default_mi_covariances(8, 2),
        )
        train = [demean(e) for e in generate_mi(spec)]
        model = mdm.fit(train, MI_RECIPE)
        assert model.class_ids == (0, 1)
        assert model.dim == 8
        assert model.counts == (10, 10)

    def test_training_order_invariance(self, rng):
        epochs = [mi_epochs(rng, label=z % 2) for z in range(8)]
        m1 = mdm.fit(epochs, MI_RECIPE)
        m2 = mdm.fit(epochs[::-1], MI_RECIPE)
        for a, b in zip(m1.means, m2.means):
            assert np.linalg.norm(a.values - b.values, "fro") <= 1e-9

    def test_unlabeled_epochs_ignored(self, rng):
        epochs = [mi_epochs(rng, label=z) for z in (0, 0, 1, 1)]
        epochs.append(mi_epochs(rng, label=None))
        model = mdm.fit(epochs, MI_RECIPE)
        assert model.counts == (2, 2)


def per_class_means(training, recipe):
    """fit's means as they were before one featurize call: each class
    featurized as its own stack."""
    by_class = {}
    for e in training:
        if e.label is not None:
            by_class.setdefault(e.label, []).append(e)
    return [geometric_mean(featurize(by_class[z], recipe)) for z in sorted(by_class)]


def training_set(modality):
    """A small demeaned synthetic training set and a recipe for ``modality``,
    its classes interleaved so that fit has to regroup them."""
    spec = SyntheticSpec(n_channels=4, n_samples=96, trials_per_class=6, seed=3)
    if modality == MI:
        epochs = generate_mi(replace(spec, class_covs=default_mi_covariances(4, 3)))
    elif modality == SSVEP:
        epochs = generate_ssvep(replace(spec, n_samples=256, snr=2.0))
    else:
        epochs, _ = generate_p300(replace(spec, n_samples=64))
    epochs = demean(epochs)
    epochs = epochs[::2] + epochs[1::2]
    freqs = spec.freqs if modality == SSVEP else ()
    return epochs, build_recipe(modality, training=epochs, shrinkage="auto", freqs=freqs)


class TestOneFeaturize:
    @pytest.mark.parametrize("modality", [MI, ERP_MULTI, P300, SSVEP])
    def test_matches_per_class_featurize(self, modality):
        training, recipe = training_set(modality)
        model = mdm.fit(training, recipe)
        expected = per_class_means(training, recipe)
        for mean, oracle in zip(model.means, expected, strict=True):
            np.testing.assert_array_equal(mean.values, oracle.values)
        assert model.counts == tuple(
            sum(e.label == z for e in training) for z in model.class_ids
        )

    def test_featurizes_once(self, rng, monkeypatch):
        calls = []
        real = mdm.featurize
        monkeypatch.setattr(
            mdm, "featurize", lambda epochs, recipe: calls.append(len(epochs)) or real(epochs, recipe)
        )
        epochs = [mi_epochs(rng, label=z) for z in (1, 0, 2, 1, 0, 2, 0)]
        epochs.append(mi_epochs(rng, label=None))
        mdm.fit(epochs, MI_RECIPE)
        assert calls == [7]

    def test_shapes_mixed_across_classes_refused(self, rng):
        """Each class alone has one shape, but the training set has two."""
        epochs = [mi_epochs(rng, t=64, label=0) for _ in range(2)]
        epochs += [mi_epochs(rng, t=32, label=1) for _ in range(2)]
        with pytest.raises(ContractError, match="share one shape"):
            mdm.fit(epochs, MI_RECIPE)


class TestDistanceRows:
    def test_rows_are_read_only_views(self):
        table = np.array([[1.0, 2.0], [0.0, 3.0], [4.0, 4.0]])
        rows = DistanceVector._rows(table, (3, 7))
        assert [dv.argmin_class() for dv in rows] == [3, 3, 3]
        for row, dv in zip(table, rows, strict=True):
            np.testing.assert_array_equal(dv.values, row)
            assert np.shares_memory(dv.values, table) and not dv.values.flags.writeable
            assert dv.class_ids == (3, 7)

    def test_public_constructor_copies_its_input(self):
        v = np.array([1.0, 2.0])
        dv = DistanceVector(v, (0, 1))
        v[0] = 5.0
        assert dv.values.tolist() == [1.0, 2.0] and not dv.values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_refused_as_one_vector_is(self, bad):
        table = np.ones((3, 2))
        table[2, 1] = bad
        with pytest.raises(ContractError, match="distances must be finite and nonnegative"):
            DistanceVector._rows(table, (0, 1))
        with pytest.raises(ContractError, match="distances must be finite and nonnegative"):
            DistanceVector(table[2], (0, 1))

    def test_feature_distances_are_pair_distances(self, rng):
        model = model_from_means([random_spd(rng, 4) for _ in range(3)])
        feats = [random_spd(rng, 4) for _ in range(5)]
        for dv, f in zip(mdm.feature_distances(model, feats), feats, strict=True):
            assert dv.values.tolist() == [riemann_distance(m, f) for m in model.means]


class TestDistancesPredict:
    def test_zero_distance_to_own_mean(self, rng):
        e = mi_epochs(rng)
        feat = featurize([e], MI_RECIPE)[0]
        model = model_from_means([feat, random_spd(rng, 4)])
        dv = mdm.distances(model, e)
        assert dv.values[0] <= 1e-10
        assert mdm.predict(model, e) == 0

    def test_distance_vector_length_matches_classes(self, rng):
        means = [random_spd(rng, 4) for _ in range(4)]
        model = model_from_means(means)
        dv = mdm.distances(model, mi_epochs(rng))
        assert len(dv.values) == 4

    def test_affine_invariance_of_distances(self, rng):
        e = mi_epochs(rng)
        means = [random_spd(rng, 4) for _ in range(3)]
        model = model_from_means(means)
        dv = mdm.distances(model, e)
        w = random_invertible(rng, 4, cond=100.0)
        moved_means = [
            type(m)(w.T @ m.values @ w) for m in means
        ]
        moved_model = model_from_means(moved_means)
        # congruence on the trial data: cov(W^T X) = W^T C W
        moved_epoch = Epoch(w.T @ e.data, fs=e.fs, label=e.label)
        dv_moved = mdm.distances(moved_model, moved_epoch)
        np.testing.assert_allclose(dv_moved.values, dv.values, rtol=1e-8)

    def test_tie_breaks_to_lowest_class_id(self, rng):
        c = random_spd(rng, 4)
        model = model_from_means([c, c], class_ids=(3, 7))
        assert mdm.predict(model, mi_epochs(rng)) == 3

    def test_prediction_invariant_under_common_congruence(self, rng):
        epochs = [mi_epochs(rng, label=z) for z in (0, 0, 0, 1, 1, 1)]
        test = [mi_epochs(rng) for _ in range(10)]
        model = mdm.fit(epochs, MI_RECIPE)
        preds = [mdm.predict(model, e) for e in test]
        a = random_invertible(rng, 4, cond=30.0)
        moved = [Epoch(a @ e.data, fs=e.fs, label=e.label) for e in epochs + test]
        moved_model = mdm.fit(moved[: len(epochs)], MI_RECIPE)
        moved_preds = [mdm.predict(moved_model, e) for e in moved[len(epochs) :]]
        assert preds == moved_preds


def mixing_epochs(modality, seed):
    """Six channels per subject; MU_P300 stacks two P300 subjects."""
    if modality == MU_P300:
        subjects = [mixing_epochs(P300, 10 * seed + s) for s in range(2)]
        return [
            Epoch(np.vstack([a.data, b.data]), fs=a.fs, label=a.label)
            for a, b in zip(*subjects)
        ]
    spec = SyntheticSpec(n_channels=6, n_samples=256, fs=128.0, trials_per_class=8, seed=seed)
    return demean(generate_ssvep(spec) if modality == SSVEP else generate_p300(spec)[0])


def mixing_recipe(modality, training, shrinkage):
    if modality == MU_P300:
        # the shared prototype is the first subject's target average
        first = [Epoch(e.data[:6], fs=e.fs, label=e.label) for e in training]
        prototypes = tuple(build_prototypes(first, class_ids=[1]))
        return FeatureRecipe(MU_P300, prototypes=prototypes, shrinkage=shrinkage, n_subjects=2)
    freqs = {"freqs": (12.0, 15.0, 20.0)} if modality == SSVEP else {}
    return build_recipe(modality, training=training, shrinkage=shrinkage, **freqs)


# Largest relative distance change over five random W per case at shrinkage
# 1e-2: up to 5e-14 for P300, ERP_MULTI and MU_P300 (12x12 and 18x18
# super-trials) and 8e-12 for SSVEP (18x18 band blocks); the bound leaves a
# margin of over 10x for other BLAS builds.
MIXED_DISTANCE_RTOL = 1e-10
# At 'auto' a feature takes the smallest passing ladder level, mostly 1e-8,
# so its condition number reaches about dim / 1e-8 and the rounding of the
# mixed data (relative eps) moves its small eigenvalues' logs by up to
# eps x cond: measured up to 8e-11 for the super-trials and 2.5e-8 for SSVEP.
# A row near a ladder level could also pick another level on one side, and
# then no rounding bound holds; these inputs have none, so the bound is the
# SSVEP figure with a margin of 40x.
AUTO_MIXED_DISTANCE_RTOL = 1e-6


@pytest.mark.parametrize(
    "modality, shrinkage",
    [
        pytest.param(P300, 1e-2, id="p300"),
        pytest.param(SSVEP, 1e-2, id="ssvep"),
        pytest.param(ERP_MULTI, 1e-2, id="erp_multi"),
        pytest.param(MU_P300, 1e-2, id="mu_p300"),
        pytest.param(P300, "auto", id="p300-auto"),
        pytest.param(SSVEP, "auto", id="ssvep-auto"),
        pytest.param(ERP_MULTI, "auto", id="erp_multi-auto"),
        pytest.param(MU_P300, "auto", id="mu_p300-auto"),
    ],
)
@pytest.mark.parametrize("mixing", ["permutation", "orthogonal"])
def test_fit_and_score_invariant_under_channel_mixing(rng, modality, shrinkage, mixing):
    """Mixing every epoch's channels by one W leaves predictions unchanged
    and distances equal up to rounding.  An orthogonal W keeps the shrinkage
    target tr(C)/dim I fixed, and SSVEP's per-band targets too; every
    prototype, a grand average of mixed trials, is mixed too, and SSVEP's
    per-channel band-pass commutes with W.  MU_P300's W has one block per
    subject, so its super-trial is mixed by the orthogonal blockdiag(W1, W1, W2)."""
    subjects = 2 if modality == MU_P300 else 1
    blocks = [
        np.eye(6)[rng.permutation(6)] if mixing == "permutation" else random_orthogonal(rng, 6)
        for _ in range(subjects)
    ]
    w = block_diag(*blocks)
    train, test = mixing_epochs(modality, 1), mixing_epochs(modality, 2)

    def mixed(epochs):
        return [Epoch(w @ e.data, fs=e.fs, label=e.label) for e in epochs]

    tables = []
    for fit_on, score in ((train, test), (mixed(train), mixed(test))):
        model = mdm.fit(fit_on, mixing_recipe(modality, fit_on, shrinkage))
        tables.append(np.array([dv.values for dv in mdm.distances(model, score)]))
    plain, moved = tables
    rtol = AUTO_MIXED_DISTANCE_RTOL if shrinkage == "auto" else MIXED_DISTANCE_RTOL
    np.testing.assert_array_equal(moved.argmin(axis=1), plain.argmin(axis=1))
    np.testing.assert_allclose(moved, plain, rtol=rtol, atol=0.0)


class TestEndToEndModalities:
    def _bump_template(self, n, t, fs, latency):
        time_axis = np.arange(t) / fs
        gains = np.exp(-0.5 * ((np.linspace(0, 1, n) - 0.5) / 0.3) ** 2)
        course = np.exp(-0.5 * ((time_axis - latency) / 0.05) ** 2)
        tpl = gains[:, None] * course[None, :]
        tpl -= tpl.mean(axis=1, keepdims=True)
        return tpl / np.sqrt(np.mean(tpl**2))

    def test_four_class_mi(self):
        spec = SyntheticSpec(
            n_channels=8,
            n_samples=256,
            fs=256.0,
            trials_per_class=20,
            seed=0,
            class_covs=default_mi_covariances(8, 4),
        )
        train = [demean(e) for e in generate_mi(spec)]
        from dataclasses import replace

        test = [demean(e) for e in generate_mi(replace(spec, seed=999))]
        model = mdm.fit(train, MI_RECIPE)
        assert model.class_ids == (0, 1, 2, 3)
        accuracy = np.mean([mdm.predict(model, e) == e.label for e in test])
        assert accuracy >= 0.9

    def test_two_class_erp_with_per_class_prototypes(self):
        from riemann_bci.features import ERP_MULTI, build_recipe

        rng = np.random.default_rng(5)
        n, t, fs = 4, 96, 96.0
        templates = {1: self._bump_template(n, t, fs, 0.3),
                     2: self._bump_template(n, t, fs, 0.6)}

        def erp_epoch(label):
            amp = 1.2 * np.exp(rng.normal(0, 0.3))
            data = amp * templates[label] + rng.standard_normal((n, t))
            return demean(Epoch(data, fs=fs, label=label))

        train = [erp_epoch(z) for z in (1, 2) for _ in range(25)]
        test = [erp_epoch(z) for z in (1, 2) for _ in range(15)]
        recipe = build_recipe(ERP_MULTI, training=train, shrinkage=1e-2)
        model = mdm.fit(train, recipe)
        assert model.dim == n * 3  # two prototypes plus the trial block
        accuracy = np.mean([mdm.predict(model, e) == e.label for e in test])
        assert accuracy >= 0.9

    def test_two_subject_synchronized_p300(self):
        from riemann_bci.features import MU_P300, FeatureRecipe, Prototype

        rng = np.random.default_rng(7)
        n, t, fs = 4, 96, 96.0
        template = self._bump_template(n, t, fs, 0.3)
        proto = Prototype(template, class_id=1, n_epochs=1)

        def mu_epoch(is_target):
            subjects = [
                (template if is_target else 0.0) + rng.standard_normal((n, t))
                for _ in range(2)
            ]
            return demean(
                Epoch(np.vstack(subjects), fs=fs, label=1 if is_target else 0)
            )

        train = [mu_epoch(True) for _ in range(20)] + [mu_epoch(False) for _ in range(20)]
        test = [mu_epoch(True) for _ in range(10)] + [mu_epoch(False) for _ in range(10)]
        recipe = FeatureRecipe(
            modality=MU_P300, prototypes=(proto,), n_subjects=2, shrinkage=1e-2
        )
        model = mdm.fit(train, recipe)
        assert model.dim == n * 3  # prototype plus two subjects
        accuracy = np.mean([mdm.predict(model, e) == e.label for e in test])
        assert accuracy >= 0.9


class TestSoftScores:
    def test_equal_distances_uniform(self):
        dv = DistanceVector(values=np.array([2.0, 2.0, 2.0]), class_ids=(0, 1, 2))
        np.testing.assert_allclose(mdm.soft_scores(dv), np.full(3, 1 / 3))

    def test_zero_distance_dominates(self):
        # With tau = mean(d^2), one zero plus Z-1 equal large distances
        # tends to p = 1 / (1 + (Z-1) exp(-Z/(Z-1))), the formula's limit.
        dv = DistanceVector(values=np.array([0.0, 5e3, 5e3]), class_ids=(0, 1, 2))
        p = mdm.soft_scores(dv)
        limit = 1.0 / (1.0 + 2.0 * np.exp(-1.5))
        assert p[0] == pytest.approx(limit, rel=1e-6)
        assert p[0] > p[1] and p[0] > p[2]
        assert p.sum() == pytest.approx(1.0)

    def test_all_zero_distances(self):
        dv = DistanceVector(values=np.zeros(4), class_ids=(0, 1, 2, 3))
        np.testing.assert_allclose(mdm.soft_scores(dv), np.full(4, 0.25))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_argmax_matches_argmin_distance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 10.0, size=rng.integers(2, 8))
        dv = DistanceVector(values=values, class_ids=tuple(range(len(values))))
        p = mdm.soft_scores(dv)
        assert int(np.argmax(p)) == int(np.argmin(values))
        assert p.sum() == pytest.approx(1.0)


class TestCumulativeSelect:
    def _p300ish_model(self, rng):
        # two-class model in plain covariance features, target = class 1
        epochs = [mi_epochs(rng, label=z) for z in (0, 0, 0, 1, 1, 1)]
        return mdm.fit(epochs, MI_RECIPE)

    def test_single_repetition_picks_target_like_item(self, rng):
        model = self._p300ish_model(rng)
        target_mean, nontarget_mean = model.means[1], model.means[0]

        def epoch_with_cov(c):
            root = c._sqrt_array()
            t = 201
            basis = np.zeros((4, t))
            basis[:, :4] = np.eye(4)
            return Epoch(np.sqrt(t - 1) * root @ basis, fs=128.0)

        rep = {
            0: epoch_with_cov(nontarget_mean),
            1: epoch_with_cov(target_mean),
            2: epoch_with_cov(nontarget_mean),
        }
        assert mdm.cumulative_select(model, [rep]) == 1

    def test_duplicated_repetitions_keep_selection(self, rng):
        model = self._p300ish_model(rng)
        rep = {i: mi_epochs(rng) for i in range(5)}
        assert mdm.cumulative_select(model, [rep]) == mdm.cumulative_select(
            model, [rep, rep, rep]
        )

    def test_inconsistent_item_sets_rejected(self, rng):
        model = self._p300ish_model(rng)
        rep1 = {0: mi_epochs(rng), 1: mi_epochs(rng)}
        rep2 = {0: mi_epochs(rng), 2: mi_epochs(rng)}
        with pytest.raises(ContractError):
            mdm.cumulative_select(model, [rep1, rep2])

    def test_empty_repetition_rejected(self, rng):
        model = self._p300ish_model(rng)
        with pytest.raises(ContractError, match="at least one item"):
            mdm.cumulative_select(model, [{}])

    def test_incremental_equals_batch(self, rng):
        model = self._p300ish_model(rng)
        reps = [{i: mi_epochs(rng) for i in range(4)} for _ in range(3)]
        # recompute from scratch at every repetition count
        for r in range(1, 4):
            batch = mdm.cumulative_select(model, reps[:r])
            assert batch == mdm.cumulative_select(model, list(reps[:r]))

    def test_needs_target_ids_for_multiclass(self, rng):
        means = [random_spd(rng, 4) for _ in range(3)]
        model = model_from_means(means)
        with pytest.raises(ContractError):
            mdm.cumulative_select(model, [{0: mi_epochs(rng)}])


class TestAuc:
    def test_perfect_separation(self):
        scores = [(1.0, 0), (2.0, 0), (3.0, 1), (4.0, 1)]
        assert mdm.auc(scores) == 1.0

    def test_all_ties_give_half(self):
        scores = [(5.0, 0), (5.0, 1), (5.0, 0), (5.0, 1)]
        assert mdm.auc(scores) == 0.5

    def test_null_scores_near_half(self, rng):
        n = 2000
        scores = [(float(rng.standard_normal()), int(rng.integers(0, 2))) for _ in range(n)]
        assert abs(mdm.auc(scores) - 0.5) <= 3.0 / np.sqrt(n)

    def test_single_label_rejected(self):
        with pytest.raises(ContractError):
            mdm.auc([(1.0, 1), (2.0, 1)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_auc_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            return
        scores = [(float(rng.standard_normal()), int(l)) for l in labels]
        assert 0.0 <= mdm.auc(scores) <= 1.0

    def test_complement_symmetry(self, rng):
        scores = [(float(rng.standard_normal()), int(rng.integers(0, 2))) for _ in range(50)]
        if not any(l for _, l in scores) or all(l for _, l in scores):
            scores += [(0.0, 0), (0.0, 1)]
        flipped = [(-s, l) for s, l in scores]
        assert mdm.auc(scores) + mdm.auc(flipped) == pytest.approx(1.0)


@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, width=16)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_average_ranks_equal_rankdata(values):
    """The AUC's ranks, ties included, equal scipy's rankdata bit for bit."""
    from scipy.stats import rankdata

    v = np.array(values, dtype=float)
    assert mdm._average_ranks(v).tobytes() == rankdata(v).tobytes()
