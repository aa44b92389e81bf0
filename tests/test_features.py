import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemann_bci.errors import ContractError, NotPositiveDefiniteError
from riemann_bci.features import (
    AUTO_SHRINKAGE_LADDER,
    ERP_MULTI,
    MI,
    MODALITIES,
    MU_P300,
    P300,
    SSVEP,
    FeatureRecipe,
    Prototype,
    build_prototypes,
    featurize,
    shrink,
    ssvep_block_cov,
    super_trial_cov,
    _stacked_cov,
)
from riemann_bci.preprocessing import Epoch, ssvep_filter_bank
from riemann_bci.spd import SpdMatrix

from conftest import random_spd


def integer_epoch(rng, n, t, label=None):
    """Epoch whose entries are small integers, so covariance sums are exact."""
    return Epoch(rng.integers(-8, 9, size=(n, t)).astype(float), fs=128.0, label=label)


def spatial_cov(e: Epoch, shrinkage: float | str = 0.0) -> SpdMatrix:
    """The spatial sample covariance: the super-trial of the trial alone."""
    return super_trial_cov([e.data], shrinkage)


def erp_feature(e: Epoch, protos, shrinkage: float | str = "auto") -> SpdMatrix:
    recipe = FeatureRecipe(ERP_MULTI, prototypes=tuple(protos), shrinkage=shrinkage)
    return featurize(e, recipe)


def p300_feature(e: Epoch, proto, shrinkage: float | str = "auto") -> SpdMatrix:
    return featurize(e, FeatureRecipe(P300, prototypes=(proto,), shrinkage=shrinkage))


def mu_p300_feature(epochs, proto, shrinkage: float | str = "auto") -> SpdMatrix:
    """Multi-user feature of per-subject epochs, stacked as the recipe expects."""
    stacked = Epoch(np.vstack([e.data for e in epochs]), fs=epochs[0].fs)
    recipe = FeatureRecipe(
        MU_P300, prototypes=(proto,), shrinkage=shrinkage, n_subjects=len(epochs)
    )
    return featurize(stacked, recipe)


class TestSampleCovariance:
    def test_hand_computed_1x2(self):
        e = Epoch(np.array([[1.0, -1.0]]), fs=128.0)
        out = spatial_cov(e)
        np.testing.assert_array_equal(out.values, [[2.0]])

    def test_orthogonal_rows_give_diagonal(self):
        t = np.arange(256) / 128.0
        x = np.vstack([np.sin(2 * np.pi * 8 * t), np.cos(2 * np.pi * 8 * t)])
        out = spatial_cov(Epoch(x, fs=128.0))
        assert abs(out.values[0, 1]) <= 1e-10

    def test_sample_permutation_invariance_exact(self, rng):
        e = integer_epoch(rng, 6, 200)
        perm = rng.permutation(200)
        shuffled = Epoch(e.data[:, perm], fs=e.fs)
        np.testing.assert_array_equal(
            spatial_cov(e).values, spatial_cov(shuffled).values
        )

    def test_too_few_samples(self):
        # the T >= 2 precondition is enforced at epoch construction
        with pytest.raises(ContractError):
            Epoch(np.zeros((2, 1)), fs=128.0)


class TestShrink:
    def test_gamma_zero_returns_input(self, rng):
        c = random_spd(rng, 5)
        out = shrink(c, 0.0)
        np.testing.assert_array_equal(out.values, c.values)

    def test_gamma_one_is_scaled_identity(self, rng):
        c = random_spd(rng, 4)
        out = shrink(c, 1.0)
        target = np.trace(c.values) / 4
        np.testing.assert_allclose(out.values, target * np.eye(4), atol=1e-14)

    def test_rank_one_becomes_spd(self, rng):
        x = rng.standard_normal((6, 1))
        out = shrink(x @ x.T, 1e-4)
        assert isinstance(out, SpdMatrix)

    def test_auto_picks_smallest_working_level(self, rng):
        c = random_spd(rng, 4)
        out = shrink(c, "auto")
        expected = shrink(c, 1e-8)
        np.testing.assert_allclose(out.values, expected.values)

    def test_auto_on_rank_deficient(self, rng):
        x = rng.standard_normal((8, 3))
        out = shrink(x @ x.T, "auto")
        assert isinstance(out, SpdMatrix)

    def test_zero_matrix_exhausts_ladder(self):
        with pytest.raises(NotPositiveDefiniteError):
            shrink(np.zeros((3, 3)), "auto")

    @given(gamma=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_any_gamma_fixes_psd_input(self, gamma):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 2))
        out = shrink(x @ x.T, gamma)
        assert isinstance(out, SpdMatrix)

    def test_invalid_gamma(self, rng):
        c = random_spd(rng, 3)
        with pytest.raises(ContractError):
            shrink(c, 1.5)
        with pytest.raises(ContractError):
            shrink(c, "automatic")


class TestBuildPrototypes:
    def test_identical_epochs(self, rng):
        data = rng.standard_normal((4, 50))
        epochs = [Epoch(data, fs=128.0, label=1) for _ in range(2)]
        (proto,) = build_prototypes(epochs)
        np.testing.assert_array_equal(proto.data, data)
        assert proto.class_id == 1 and proto.n_epochs == 2

    def test_opposite_epochs_cancel(self, rng):
        data = rng.standard_normal((3, 40))
        epochs = [
            Epoch(data, fs=128.0, label=0),
            Epoch(-data, fs=128.0, label=0),
        ]
        (proto,) = build_prototypes(epochs)
        np.testing.assert_allclose(proto.data, 0.0, atol=1e-12)

    def test_noise_averages_out(self, rng):
        template = rng.standard_normal((4, 100))
        sigma = 0.5
        epochs = [
            Epoch(template + sigma * rng.standard_normal((4, 100)), fs=128.0, label=2)
            for _ in range(100)
        ]
        (proto,) = build_prototypes(epochs)
        residual_rms = np.sqrt(np.mean((proto.data - template) ** 2))
        assert residual_rms <= 1.5 * sigma / np.sqrt(100)

    def test_missing_class_is_named(self, rng):
        epochs = [integer_epoch(rng, 2, 20, label=0)]
        with pytest.raises(ContractError, match="class 3"):
            build_prototypes(epochs, class_ids=[0, 3])

    def test_classes_sorted(self, rng):
        epochs = [
            integer_epoch(rng, 2, 20, label=5),
            integer_epoch(rng, 2, 20, label=1),
        ]
        protos = build_prototypes(epochs)
        assert [p.class_id for p in protos] == [1, 5]


class TestErpSuperCov:
    def test_dims_two_classes(self, rng):
        protos = [
            Prototype(rng.standard_normal((16, 64)), class_id=z, n_epochs=1)
            for z in (0, 1)
        ]
        e = Epoch(rng.standard_normal((16, 64)), fs=128.0)
        out = erp_feature(e, protos)
        assert out.dim == 48

    def test_trial_equals_prototype_cross_block(self, rng):
        data = rng.integers(-8, 9, size=(4, 60)).astype(float)
        proto = Prototype(data, class_id=0, n_epochs=10)
        e = Epoch(data, fs=128.0)
        raw = _stacked_cov([proto.data, e.data])
        np.testing.assert_array_equal(raw[4:, :4], raw[:4, :4])

    def test_shuffle_disrupts_cross_not_trial_block(self, rng):
        proto = Prototype(
            rng.integers(-8, 9, size=(4, 80)).astype(float), class_id=0, n_epochs=5
        )
        e = integer_epoch(rng, 4, 80)
        perm = rng.permutation(80)
        shuffled = Epoch(e.data[:, perm], fs=e.fs)
        raw = _stacked_cov([proto.data, e.data])
        raw_shuffled = _stacked_cov([proto.data, shuffled.data])
        np.testing.assert_array_equal(raw[4:, 4:], raw_shuffled[4:, 4:])
        assert not np.array_equal(raw[4:, :4], raw_shuffled[4:, :4])

    def test_trial_block_matches_sample_covariance(self, rng):
        protos = [
            Prototype(rng.standard_normal((3, 50)), class_id=z, n_epochs=1)
            for z in (0, 1, 2)
        ]
        e = Epoch(rng.standard_normal((3, 50)), fs=128.0)
        raw = _stacked_cov([np.vstack([p.data for p in protos]), e.data])
        np.testing.assert_array_equal(raw[9:, 9:], _stacked_cov([e.data]))

    def test_prototype_blocks_constant_across_trials(self, rng):
        protos = [
            Prototype(rng.standard_normal((3, 50)), class_id=z, n_epochs=1)
            for z in (0, 1)
        ]
        stacked = np.vstack([p.data for p in protos])
        e1 = Epoch(rng.standard_normal((3, 50)), fs=128.0)
        e2 = Epoch(rng.standard_normal((3, 50)), fs=128.0)
        raw1 = _stacked_cov([stacked, e1.data])
        raw2 = _stacked_cov([stacked, e2.data])
        np.testing.assert_array_equal(raw1[:6, :6], raw2[:6, :6])

    def test_block_order_follows_class_ids(self, rng):
        pa = Prototype(np.ones((2, 30)), class_id=2, n_epochs=1)
        pb = Prototype(np.zeros((2, 30)), class_id=1, n_epochs=1)
        e = Epoch(rng.standard_normal((2, 30)), fs=128.0)
        out = erp_feature(e, [pa, pb], shrinkage=1e-4)
        # class 1 (zeros) must occupy the first block regardless of list order
        assert np.all(np.abs(out.values[:2, :2]) <= np.abs(out.values[2:4, 2:4]).max())

    def test_dim_mismatch(self, rng):
        proto = Prototype(rng.standard_normal((4, 50)), class_id=0, n_epochs=1)
        e = Epoch(rng.standard_normal((3, 50)), fs=128.0)
        with pytest.raises(ContractError):
            erp_feature(e, [proto])


class TestP300SuperCov:
    def test_dims(self, rng):
        proto = Prototype(rng.standard_normal((16, 64)), class_id=1, n_epochs=1)
        e = Epoch(rng.standard_normal((16, 64)), fs=128.0)
        assert p300_feature(e, proto).dim == 32

    def test_target_cross_block_larger_monte_carlo(self, rng):
        n, t = 4, 64
        template = rng.standard_normal((n, t))
        proto = Prototype(template, class_id=1, n_epochs=100)
        target_norms, nontarget_norms = [], []
        for _ in range(1000):
            noise = 0.5 * rng.standard_normal((n, t))
            target = template + noise
            nontarget = rng.standard_normal((n, t))
            target_norms.append(np.linalg.norm(template @ target.T / (t - 1), "fro"))
            nontarget_norms.append(
                np.linalg.norm(template @ nontarget.T / (t - 1), "fro")
            )
        assert np.mean(target_norms) > np.mean(nontarget_norms)

    def test_zero_trial_gives_shrinkage_floor(self, rng):
        proto = Prototype(rng.standard_normal((3, 40)), class_id=1, n_epochs=1)
        e = Epoch(np.zeros((3, 40)), fs=128.0)
        out = p300_feature(e, proto, shrinkage="auto")
        trial_block = out.values[3:, 3:]
        cross_block = out.values[3:, :3]
        assert np.allclose(cross_block, 0.0)
        floor = trial_block[0, 0]
        assert floor > 0.0
        np.testing.assert_allclose(trial_block, floor * np.eye(3), atol=1e-15)

    def test_agrees_with_single_class_erp(self, rng):
        proto = Prototype(rng.standard_normal((3, 50)), class_id=1, n_epochs=1)
        e = Epoch(rng.standard_normal((3, 50)), fs=128.0)
        a = p300_feature(e, proto, shrinkage=1e-6)
        b = erp_feature(e, [proto], shrinkage=1e-6)
        np.testing.assert_array_equal(a.values, b.values)


@st.composite
def filter_banks(draw):
    """1-4 bands of one shape: full-rank, rank-deficient or all-zero, each
    scaled by a factor in 1e-8..1e8."""
    n = draw(st.integers(2, 4))
    t = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("full", "rank_deficient", "zero")))
        scale = 10.0 ** draw(st.floats(-8.0, 8.0))
        if kind == "zero":
            data = np.zeros((n, t))
        elif kind == "full":
            data = scale * rng.standard_normal((n, t))
        else:
            r = draw(st.integers(1, n - 1))
            data = scale * rng.standard_normal((n, r)) @ rng.standard_normal((r, t))
        bank.append(Epoch(data, fs=128.0))
    return bank


def per_band_block_cov(bank, shrinkage) -> np.ndarray:
    """Block-diagonal feature built band by band, each blended band checked
    as an SPD matrix before the assembled matrix is checked."""
    n = bank[0].n_channels
    raw = [_stacked_cov([b.data]) for b in bank]

    def assemble(g):
        out = np.zeros((n * len(raw), n * len(raw)))
        for i, c in enumerate(raw):
            if g != 0.0:
                target = np.trace(c) / n
                c = (1.0 - g) * c + g * target * np.eye(n)
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = SpdMatrix(c).values
        return SpdMatrix(out).values

    if shrinkage != "auto":
        return assemble(shrinkage)
    for g in AUTO_SHRINKAGE_LADDER:
        try:
            return assemble(g)
        except NotPositiveDefiniteError:
            pass
    raise NotPositiveDefiniteError("no ladder level passed")


class TestSsvepBlockCov:
    def test_dims_and_zero_off_diagonal(self, rng):
        bank = [Epoch(rng.standard_normal((6, 128)), fs=512.0) for _ in range(3)]
        out = ssvep_block_cov(bank)
        assert out.dim == 18
        for i in range(3):
            for j in range(3):
                if i != j:
                    block = out.values[i * 6 : (i + 1) * 6, j * 6 : (j + 1) * 6]
                    assert np.all(block == 0.0)

    def test_pure_sine_concentrates_in_matched_band(self):
        fs = 512.0
        t = np.arange(1024) / fs
        e = Epoch(np.tile(np.sin(2 * np.pi * 15.0 * t), (6, 1)), fs=fs)
        bank = ssvep_filter_bank(e, [12.0, 15.0, 20.0])
        out = ssvep_block_cov(bank)
        traces = [
            np.trace(out.values[i * 6 : (i + 1) * 6, i * 6 : (i + 1) * 6])
            for i in range(3)
        ]
        assert traces[1] >= 100.0 * traces[0]
        assert traces[1] >= 100.0 * traces[2]

    def test_single_band_reduces_to_sample_covariance(self, rng):
        e = Epoch(rng.standard_normal((4, 200)), fs=128.0)
        out = ssvep_block_cov([e], shrinkage=0.0)
        np.testing.assert_array_equal(out.values, spatial_cov(e).values)

    def test_mismatched_bank_rejected(self, rng):
        bank = [
            Epoch(rng.standard_normal((4, 100)), fs=128.0),
            Epoch(rng.standard_normal((5, 100)), fs=128.0),
        ]
        with pytest.raises(ContractError):
            ssvep_block_cov(bank)

    @settings(max_examples=300, deadline=None)
    @given(bank=filter_banks(), shrinkage=st.sampled_from((0.0, 1e-8, 1e-2, 1.0, "auto")))
    def test_one_check_matches_per_band_checks(self, bank, shrinkage):
        """Checking only the assembled matrix keeps every output and every
        refusal of checking each blended band first: a band that fails its
        own check fails the assembled one too."""
        try:
            expected = per_band_block_cov(bank, shrinkage)
        except NotPositiveDefiniteError:
            with pytest.raises(NotPositiveDefiniteError):
                ssvep_block_cov(bank, shrinkage)
            return
        np.testing.assert_array_equal(ssvep_block_cov(bank, shrinkage).values, expected)


class TestMuP300SuperCov:
    def test_single_subject_equals_p300(self, rng):
        proto = Prototype(rng.standard_normal((5, 60)), class_id=1, n_epochs=1)
        e = Epoch(rng.standard_normal((5, 60)), fs=128.0)
        a = mu_p300_feature([e], proto, shrinkage=1e-4)
        b = p300_feature(e, proto, shrinkage=1e-4)
        np.testing.assert_array_equal(a.values, b.values)

    def test_dims_two_subjects(self, rng):
        proto = Prototype(rng.standard_normal((16, 64)), class_id=1, n_epochs=1)
        epochs = [Epoch(rng.standard_normal((16, 64)), fs=128.0) for _ in range(2)]
        assert mu_p300_feature(epochs, proto).dim == 48

    def test_synchronized_response_raises_inter_subject_block(self, rng):
        n, t = 4, 64
        template = rng.standard_normal((n, t))
        proto = Prototype(template, class_id=1, n_epochs=50)
        sync_norms, noise_norms = [], []
        for _ in range(500):
            s1 = template + 0.7 * rng.standard_normal((n, t))
            s2 = template + 0.7 * rng.standard_normal((n, t))
            n1 = rng.standard_normal((n, t))
            n2 = rng.standard_normal((n, t))
            target = mu_p300_feature(
                [Epoch(s1, fs=128.0), Epoch(s2, fs=128.0)], proto, shrinkage=1e-6
            )
            nontarget = mu_p300_feature(
                [Epoch(n1, fs=128.0), Epoch(n2, fs=128.0)], proto, shrinkage=1e-6
            )
            sync_norms.append(np.linalg.norm(target.values[n : 2 * n, 2 * n :], "fro"))
            noise_norms.append(
                np.linalg.norm(nontarget.values[n : 2 * n, 2 * n :], "fro")
            )
        assert np.mean(sync_norms) > np.mean(noise_norms)

    def test_misaligned_subjects_rejected(self, rng):
        proto = Prototype(rng.standard_normal((3, 50)), class_id=1, n_epochs=1)
        epochs = [
            Epoch(rng.standard_normal((3, 50)), fs=128.0),
            Epoch(rng.standard_normal((3, 49)), fs=128.0),
        ]
        with pytest.raises(ContractError):
            super_trial_cov([proto.data] + [e.data for e in epochs], "auto")


class TestFeaturizeAndRecipe:
    def test_mi_dispatch(self, rng):
        e = Epoch(rng.standard_normal((4, 100)), fs=128.0)
        recipe = FeatureRecipe(modality=MI, shrinkage=0.0)
        out = featurize(e, recipe)
        np.testing.assert_array_equal(out.values, spatial_cov(e).values)
        assert out.dim == 4

    def test_p300_dispatch_dims(self, rng):
        proto = Prototype(rng.standard_normal((4, 80)), class_id=1, n_epochs=1)
        recipe = FeatureRecipe(modality=P300, prototypes=(proto,))
        e = Epoch(rng.standard_normal((4, 80)), fs=128.0)
        assert featurize(e, recipe).dim == 8

    def test_ssvep_dispatch_dims(self, rng):
        recipe = FeatureRecipe(modality=SSVEP, freqs=(12.0, 15.0, 20.0))
        e = Epoch(rng.standard_normal((6, 512)), fs=512.0)
        assert featurize(e, recipe).dim == 18

    def test_mu_dispatch_splits_stacked_channels(self, rng):
        proto = Prototype(rng.standard_normal((3, 60)), class_id=1, n_epochs=1)
        recipe = FeatureRecipe(modality=MU_P300, prototypes=(proto,), n_subjects=2)
        stacked = Epoch(rng.standard_normal((6, 60)), fs=128.0)
        assert featurize(stacked, recipe).dim == 9

    def test_every_builder_returns_spd(self, rng):
        proto = Prototype(rng.standard_normal((4, 30)), class_id=1, n_epochs=1)
        e = Epoch(rng.standard_normal((4, 30)), fs=512.0)
        recipes = [
            FeatureRecipe(modality=MI, shrinkage="auto"),
            FeatureRecipe(modality=P300, prototypes=(proto,)),
            FeatureRecipe(modality=ERP_MULTI, prototypes=(proto,)),
            FeatureRecipe(modality=SSVEP, freqs=(12.0, 15.0)),
        ]
        for recipe in recipes:
            assert isinstance(featurize(e, recipe), SpdMatrix)

    def test_recipe_validation(self):
        with pytest.raises(ContractError):
            FeatureRecipe(modality="unknown")
        with pytest.raises(ContractError):
            FeatureRecipe(modality=P300)
        with pytest.raises(ContractError):
            FeatureRecipe(modality=SSVEP)
        with pytest.raises(ContractError):
            FeatureRecipe(modality=MI, shrinkage=2.0)

    def test_recipe_refuses_fields_its_modality_never_reads(self, rng):
        proto = Prototype(rng.standard_normal((3, 60)), class_id=1, n_epochs=1)
        with pytest.raises(ContractError, match="takes no prototypes"):
            FeatureRecipe(SSVEP, prototypes=(proto,), freqs=(12.0,))
        with pytest.raises(ContractError, match="takes no freqs"):
            FeatureRecipe(P300, prototypes=(proto,), freqs=(12.0,))
        with pytest.raises(ContractError, match="n_subjects must"):
            FeatureRecipe(ERP_MULTI, prototypes=(proto,), n_subjects=2)
        with pytest.raises(ContractError, match="n_subjects must"):
            FeatureRecipe(MU_P300, prototypes=(proto,), n_subjects=0)

    def test_channel_mismatch_is_named(self, rng):
        proto = Prototype(rng.standard_normal((3, 60)), class_id=1, n_epochs=1)
        four = Epoch(rng.standard_normal((4, 60)), fs=128.0)
        with pytest.raises(ContractError, match="prototype for class 1 has shape"):
            featurize(four, FeatureRecipe(P300, prototypes=(proto,)))
        two = FeatureRecipe(MU_P300, prototypes=(proto,), n_subjects=2)
        with pytest.raises(ContractError, match="prototype for class 1 has shape"):
            featurize(Epoch(rng.standard_normal((8, 60)), fs=128.0), two)
        with pytest.raises(ContractError, match="does not split into 2 subjects"):
            featurize(Epoch(rng.standard_normal((7, 60)), fs=128.0), two)


# Integer-valued inputs keep every non-SSVEP covariance sum exact; the SSVEP
# bank's products depend on the BLAS summation order.
def golden_feature(modality: str, shrinkage: float | str) -> SpdMatrix:
    """``featurize`` on fixed per-modality inputs: a 4-channel trial of 6
    samples (rank-deficient super-trials), or of 128 samples for SSVEP."""
    rng = np.random.default_rng(1500 + MODALITIES.index(modality))

    def ints(rows, t=6):
        return rng.integers(-8, 9, size=(rows, t)).astype(float)

    if modality == SSVEP:
        recipe = FeatureRecipe(SSVEP, freqs=(12.0, 15.0, 20.0), shrinkage=shrinkage)
        return featurize(Epoch(ints(4, 128), fs=128.0), recipe)
    class_ids = (2, 1) if modality == ERP_MULTI else (2,)  # stacked as (1, 2)
    protos = tuple(Prototype(ints(4), class_id=z, n_epochs=3) for z in class_ids)
    n_subjects = 2 if modality == MU_P300 else 1
    recipe = FeatureRecipe(
        modality,
        prototypes=() if modality == MI else protos,
        shrinkage=shrinkage,
        n_subjects=n_subjects,
    )
    return featurize(Epoch(ints(4 * n_subjects), fs=128.0), recipe)


# sha256 of every golden feature's bytes, at a fixed shrinkage and at 'auto'.
FEATURE_SHA256 = {
    (MI, 1e-2): "696f24d5fdc0b1f89f4518d49c1c25ce48a872221d21f4a571f6409a9e8b287d",
    (MI, "auto"): "afb8172c204fc5151cdaff62cf03df7c9cdf6b46c67bb52c4871e7af7260b76f",
    (ERP_MULTI, 1e-2): "c39e518bfe0debc5f608308f1de3cccc35b240d88aeab27b1de4e882cbbcdc0b",
    (ERP_MULTI, "auto"): "86ad5bd4bcad6f7569b6e595ae433159cee15eef13a6f740e7a2f47e9a5653d0",
    (P300, 1e-2): "68523b291d8590ea8f26625374245547672781b4477dedf2c38dd844836d2736",
    (P300, "auto"): "58156c59b1af3c5dbd1e771aaf969918d647c0aaee19c72dfcd080475f742d10",
    (SSVEP, 1e-2): "12237d90670c5375f31c71498996ed6d45268347deb8f60e9e8ab827b2e46d88",
    (SSVEP, "auto"): "7fae898820d48ca4d60d46f6d22580d620d59dbb6c013146a516d512007e7ff6",
    (MU_P300, 1e-2): "eaf9c8afc9034a0fba7e46f4133492bec66e55060ceb699dee5db3411e2e7360",
    (MU_P300, "auto"): "a462a7ab6ae538c4cb90d24d436fda8d14361a79485f7998674d4359e35c56a4",
}


@pytest.mark.parametrize("modality, shrinkage", list(FEATURE_SHA256))
def test_feature_bytes_are_pinned(modality, shrinkage):
    """Every stacking rule and both shrinkage paths keep their exact bytes."""
    values = golden_feature(modality, shrinkage).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == FEATURE_SHA256[modality, shrinkage]
