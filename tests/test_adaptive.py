import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_bci import mdm
from riemann_bci.adaptive import FusedClassifier
from riemann_bci.errors import ContractError
from riemann_bci.features import MI, FeatureRecipe, featurize
from riemann_bci.preprocessing import Epoch
from riemann_bci.spd import SpdMatrix, geodesic, geometric_mean, riemann_distance

from conftest import random_spd

MI_RECIPE = FeatureRecipe(modality=MI, shrinkage=0.0)


def epoch(rng, n=4, t=200, label=None):
    return Epoch(rng.standard_normal((n, t)), fs=128.0, label=label)


def generic_model(rng):
    train = [epoch(rng, label=z) for z in (0, 0, 0, 1, 1, 1)]
    return mdm.fit(train, MI_RECIPE)


def feature(fc, e):
    """The epoch's feature under the fused classifier's recipe, a stack of one."""
    return featurize([e], fc.generic.recipe)[0]


def stack(fc, epochs):
    """The epochs' features under the fused classifier's recipe, one stack."""
    return featurize(epochs, fc.generic.recipe)


def individual_model(fc):
    """The fused classifier's individual means as a stand-alone MDM model."""
    class_ids = fc.generic.class_ids
    return mdm.MdmModel(
        class_ids=class_ids,
        means=tuple(fc.individual_means[z] for z in class_ids),
        recipe=fc.generic.recipe,
        counts=tuple(fc.individual_counts[z] for z in class_ids),
    )


class TestAlphaSchedule:
    def test_naive_start_is_zero(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        assert fc.alpha == 0.0

    def test_midpoint(self, rng):
        fc = FusedClassifier(generic=generic_model(rng), ramp=40)
        fc.n_rep = 20
        assert fc.alpha == 0.5

    def test_saturates_after_ramp(self, rng):
        fc = FusedClassifier(generic=generic_model(rng), ramp=40)
        fc.n_rep = 41
        assert fc.alpha == 1.0

    @given(st.floats(0.0, 200.0), st.integers(1, 80))
    @settings(max_examples=50, deadline=None)
    def test_alpha_bounded_and_nondecreasing(self, n_rep, ramp):
        rng = np.random.default_rng(0)
        fc = FusedClassifier(generic=generic_model(rng), ramp=ramp)
        fc.n_rep = n_rep
        a0 = fc.alpha
        assert 0.0 <= a0 <= 1.0
        fc.n_rep = n_rep + 1.0
        assert fc.alpha >= a0


class TestFusedDistances:
    def test_alpha_zero_matches_generic_ranking(self, rng):
        model = generic_model(rng)
        fc = FusedClassifier(generic=model)
        epochs = [epoch(rng) for _ in range(5)]
        for e, fused in zip(epochs, fc.fused_distances(stack(fc, epochs)), strict=True):
            plain = mdm.distances(model, e)
            assert np.argsort(fused.values).tolist() == np.argsort(plain.values).tolist()
            assert fused.argmin_class() == mdm.predict(model, e)

    def test_alpha_one_matches_individual_ranking(self, rng):
        model = generic_model(rng)
        fc = FusedClassifier(generic=model, ramp=1)
        ind_train = [epoch(rng, label=z) for z in (0, 0, 1, 1)]
        for e in ind_train:
            fc.absorb(feature(fc, e), e.label, rep_increment=1.0)
        assert fc.alpha == 1.0
        individual = individual_model(fc)
        epochs = [epoch(rng) for _ in range(5)]
        for e, fused in zip(epochs, fc.fused_distances(stack(fc, epochs)), strict=True):
            plain = mdm.distances(individual, e)
            assert fused.argmin_class() == plain.argmin_class()

    def test_agreeing_models_keep_argmin_at_half(self, rng):
        model = generic_model(rng)
        fc = FusedClassifier(generic=model, ramp=2)
        # individual trained on the same data distribution: absorb the
        # generic training set itself so both models agree
        for e in [epoch(rng, label=z) for z in (0, 0, 1, 1)]:
            fc.absorb(feature(fc, e), e.label, rep_increment=0.5)
        assert fc.alpha == 1.0
        fc.n_rep = 1.0
        assert fc.alpha == 0.5
        individual = individual_model(fc)
        epochs = [epoch(rng) for _ in range(10)]
        for e, fused in zip(epochs, fc.fused_distances(stack(fc, epochs)), strict=True):
            g = mdm.distances(model, e)
            i = mdm.distances(individual, e)
            if g.argmin_class() == i.argmin_class():
                assert fused.argmin_class() == g.argmin_class()

    def test_positive_alpha_without_individual_errors(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        fc.n_rep = 5
        with pytest.raises(ContractError, match="has not observed every class"):
            fc.fused_distances(stack(fc, [epoch(rng), epoch(rng)]))

    def test_partial_individual_still_errors(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        fc.absorb(feature(fc, epoch(rng)), 0, rep_increment=1.0)
        with pytest.raises(ContractError, match="has not observed every class"):
            fc.fused_distances(stack(fc, [epoch(rng), epoch(rng)]))


class TestAbsorb:
    def test_first_epoch_sets_mean_exactly(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        e = epoch(rng)
        fc.absorb(feature(fc, e), 1)
        expected = featurize([e], MI_RECIPE)[0]
        np.testing.assert_array_equal(
            fc.individual_means[1].values, expected.values
        )
        assert fc.individual_counts[1] == 1

    def test_repeated_matrix_is_fixed_point(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        e = epoch(rng)
        feat = featurize([e], MI_RECIPE)[0]
        for _ in range(10):
            fc.absorb(feature(fc, e), 0)
        assert riemann_distance(fc.individual_means[0], feat) <= 1e-9

    def test_unknown_label_rejected(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        with pytest.raises(ContractError):
            fc.absorb(feature(fc, epoch(rng)), 9)

    def test_wrong_dimension_rejected(self, rng):
        """A first feature of the wrong dimension would become a class mean
        that fails only at scoring; absorb refuses it up front."""
        fc = FusedClassifier(generic=generic_model(rng))
        with pytest.raises(ContractError, match="feature dimension 5, model dimension 4"):
            fc.absorb(SpdMatrix(np.eye(5)), 0)
        assert fc.individual_means == {} and fc.n_rep == 0.0

    @pytest.mark.parametrize("increment", [-20.0, float("nan"), float("inf")])
    def test_bad_rep_increment_rejected(self, rng, increment):
        """A negative increment would drive alpha below 0 and a NaN one to 1;
        absorb refuses both, and an infinite one, before changing anything."""
        fc = FusedClassifier(generic=generic_model(rng))
        with pytest.raises(ContractError, match=f"rep_increment must be .*{increment}"):
            fc.absorb(feature(fc, epoch(rng)), 0, rep_increment=increment)
        assert fc.individual_means == {} and fc.n_rep == 0.0 and fc.alpha == 0.0

    def test_zero_rep_increment_accepted(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        fc.absorb(feature(fc, epoch(rng)), 0, rep_increment=0.0)
        assert fc.individual_counts == {0: 1} and fc.n_rep == 0.0

    def test_raw_epoch_rejected(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        with pytest.raises(ContractError):
            fc.absorb(epoch(rng), 0)
        assert fc.individual_means == {} and fc.n_rep == 0.0

    def test_incremental_tracks_batch_mean(self, rng):
        for trial in range(4):
            center = random_spd(rng, 4, cond=10.0)
            root = center._sqrt_array()
            mats = []
            for _ in range(30):
                tangent = rng.standard_normal((4, 4))
                tangent = 0.25 * (tangent + tangent.T) / 2
                w, u = np.linalg.eigh(tangent)
                mats.append(SpdMatrix(root @ (u * np.exp(w)) @ u.T @ root))
            batch = geometric_mean(mats)
            incremental = mats[0]
            for k, m in enumerate(mats[1:], start=1):
                incremental = geodesic(incremental, m, 1.0 / (k + 1))
            spread = max(riemann_distance(m, batch) for m in mats)
            assert riemann_distance(incremental, batch) <= 0.05 * spread

    def test_rep_increment_granularity(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        for _ in range(12):
            fc.absorb(feature(fc, epoch(rng)), 0, rep_increment=1.0 / 12.0)
        assert fc.n_rep == pytest.approx(1.0)

    def test_replay_determinism(self, rng):
        stream = [(epoch(rng), int(rng.integers(0, 2))) for _ in range(20)]
        fc1 = FusedClassifier(generic=generic_model(np.random.default_rng(1)))
        fc2 = FusedClassifier(generic=fc1.generic)
        for e, lab in stream:
            fc1.absorb(feature(fc1, e), lab)
            fc2.absorb(feature(fc2, e), lab)
        assert fc1.n_rep == fc2.n_rep
        for z in fc1.individual_means:
            np.testing.assert_array_equal(
                fc1.individual_means[z].values, fc2.individual_means[z].values
            )

    def test_absorb_preserves_spd(self, rng):
        fc = FusedClassifier(generic=generic_model(rng))
        for _ in range(25):
            lab = int(rng.integers(0, 2))
            fc.absorb(feature(fc, epoch(rng)), lab)
        for mean in fc.individual_means.values():
            assert isinstance(mean, SpdMatrix)

