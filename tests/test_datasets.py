import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from riemann_bci import datasets, mdm
from riemann_bci.datasets import (
    SyntheticSpec,
    _colored_noise,
    _mixing,
    default_mi_covariances,
    generate_mi,
    generate_p300,
    generate_ssvep,
    load_model,
    p300_template,
    p300_trial,
    read_epochs,
    save_model,
    write_epochs,
)
from riemann_bci.errors import ContractError, FileFormatError, NotPositiveDefiniteError
from riemann_bci.features import MI, P300, FeatureRecipe, build_prototypes
from riemann_bci.preprocessing import Epoch, demean


class TestEpochFiles:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        epochs = [
            Epoch(
                rng.standard_normal((4, 32)).astype(np.float32).astype(np.float64),
                fs=128.0,
                label=lab,
                channels=("a", "b", "c", "d"),
            )
            for lab in (0, 1, None)
        ]
        path = tmp_path / "epochs.dat"
        write_epochs(path, epochs, modality="mi")
        back = read_epochs(path)
        assert len(back) == 3
        for orig, loaded in zip(epochs, back):
            np.testing.assert_array_equal(orig.data, loaded.data)
            assert loaded.label == orig.label
            assert loaded.channels == orig.channels
            assert loaded.fs == orig.fs

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        epochs = [Epoch(rng.standard_normal((3, 16)), fs=256.0, label=1)]
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        write_epochs(p1, epochs)
        write_epochs(p2, read_epochs(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        write_epochs(path, [])
        assert read_epochs(path) == []

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "epochs.dat"
        write_epochs(path, [Epoch(rng.standard_normal((2, 8)), fs=128.0)])
        blob = path.read_bytes()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        header["n_trials"] = 2
        header["labels"] = [-1, -1]
        bad = tmp_path / "bad.dat"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob[newline + 1 :])
        with pytest.raises(FileFormatError, match="payload"):
            read_epochs(bad)

    def test_missing_header_field(self, rng, tmp_path):
        path = tmp_path / "epochs.dat"
        write_epochs(path, [Epoch(rng.standard_normal((2, 8)), fs=128.0)])
        blob = path.read_bytes()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        del header["fs_hz"]
        bad = tmp_path / "bad.dat"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob[newline + 1 :])
        with pytest.raises(FileFormatError, match="fs_hz"):
            read_epochs(bad)

    def test_label_count_mismatch(self, rng, tmp_path):
        path = tmp_path / "epochs.dat"
        write_epochs(path, [Epoch(rng.standard_normal((2, 8)), fs=128.0)])
        blob = path.read_bytes()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        header["labels"] = [0, 1]
        bad = tmp_path / "bad.dat"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob[newline + 1 :])
        with pytest.raises(FileFormatError, match="labels"):
            read_epochs(bad)

    def test_heterogeneous_epochs_rejected(self, rng, tmp_path):
        epochs = [
            Epoch(rng.standard_normal((2, 8)), fs=128.0),
            Epoch(rng.standard_normal((3, 8)), fs=128.0),
        ]
        with pytest.raises(ContractError):
            write_epochs(tmp_path / "x.dat", epochs)

    @given(
        n=st.integers(1, 4),
        t=st.integers(2, 16),
        k=st.integers(0, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_any_shape(self, n, t, k):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(n * 100 + t * 10 + k)
        epochs = [
            Epoch(
                (rng.standard_normal((n, t)) * 50).astype(np.float32),
                fs=128.0,
                label=i,
            )
            for i in range(k)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.dat"
            write_epochs(path, epochs)
            back = read_epochs(path)
        assert len(back) == k
        for orig, loaded in zip(epochs, back):
            np.testing.assert_array_equal(orig.data, loaded.data)


def per_trial_read(path):
    """read_epochs' decoding as it was before stacks: one float64 copy and
    one epoch per trial."""
    blob = path.read_bytes()
    newline = blob.find(b"\n")
    header = json.loads(blob[:newline])
    shape = (header["n_trials"], header["n_channels"], header["n_samples"])
    data = np.frombuffer(blob[newline + 1 :], dtype="<f4").reshape(shape)
    return [
        Epoch(data[i].astype(np.float64), fs=header["fs_hz"],
              label=None if z == -1 else z, channels=tuple(header["channel_names"]))
        for i, z in enumerate(header["labels"])
    ]


class TestReadEpochsStack:
    @given(
        k=st.integers(1, 5),
        n=st.integers(1, 4),
        t=st.integers(2, 64),
        log_scale=st.floats(-30.0, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_trial_astype(self, k, n, t, log_scale, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        epochs = [
            Epoch(10.0**log_scale * rng.standard_normal((n, t)), fs=128.0,
                  label=None if i == 0 else i)
            for i in range(k)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.dat"
            write_epochs(path, epochs)
            expected, got = per_trial_read(path), read_epochs(path)
        for a, b in zip(expected, got, strict=True):
            np.testing.assert_array_equal(b.data, a.data)
            assert b.data.dtype == np.float64 and not b.data.flags.writeable
            assert (b.fs, b.label, b.channels) == (a.fs, a.label, a.channels)

    def test_trials_are_rows_of_one_stack(self, rng, tmp_path):
        path = tmp_path / "e.dat"
        write_epochs(path, [Epoch(rng.standard_normal((2, 8)), fs=128.0) for _ in range(3)])
        first, *rest = read_epochs(path)
        assert all(e.data.base is first.data.base for e in rest)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_refused(self, rng, tmp_path, value):
        path = tmp_path / "e.dat"
        write_epochs(path, [Epoch(rng.standard_normal((2, 8)), fs=128.0) for _ in range(3)])
        header, payload = path.read_bytes().split(b"\n", 1)
        x = np.frombuffer(payload, dtype="<f4").copy()
        x[-5] = value
        path.write_bytes(header + b"\n" + x.tobytes())
        with pytest.raises(ContractError, match="epoch data must be finite"):
            read_epochs(path)


class TestModelFiles:
    def _small_model(self, rng):
        spec = SyntheticSpec(
            n_channels=4,
            n_samples=64,
            trials_per_class=8,
            seed=3,
            class_covs=default_mi_covariances(4, 2),
        )
        train = [demean(e) for e in generate_mi(spec)]
        return mdm.fit(train, FeatureRecipe(modality=MI, shrinkage=0.0))

    def test_round_trip_exact(self, rng, tmp_path):
        model = self._small_model(rng)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.class_ids == model.class_ids
        assert back.counts == model.counts
        assert back.recipe.modality == model.recipe.modality
        for m0, m1 in zip(model.means, back.means):
            np.testing.assert_array_equal(m0.values, m1.values)

    def test_resave_is_byte_identical(self, rng, tmp_path):
        model = self._small_model(rng)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, model)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_p300_recipe_prototypes_survive(self, rng, tmp_path):
        spec = SyntheticSpec(n_channels=4, n_samples=64, trials_per_class=10, seed=1)
        epochs, _ = generate_p300(spec)
        train = [demean(e) for e in epochs]
        protos = build_prototypes([e for e in train if e.label == 1], class_ids=[1])
        recipe = FeatureRecipe(modality=P300, prototypes=tuple(protos), shrinkage=1e-2)
        model = mdm.fit(train, recipe)
        path = tmp_path / "p300.json"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(
            back.recipe.prototypes[0].data, recipe.prototypes[0].data
        )
        e = train[0]
        np.testing.assert_array_equal(
            mdm.distances(model, e).values, mdm.distances(back, e).values
        )

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "mdm-model"}')
        with pytest.raises(FileFormatError):
            load_model(path)


class TestGenerateMi:
    def test_wishart_concentration(self):
        spec = SyntheticSpec(
            n_channels=4,
            n_samples=4096,
            trials_per_class=1,
            seed=11,
            class_covs=(np.eye(4), np.eye(4)),
        )
        e = generate_mi(spec)[0]
        c = e.data @ e.data.T / (e.n_samples - 1)
        bound = 5.0 * np.sqrt(2.0 / e.n_samples)
        assert np.all(np.abs(c - np.eye(4)) <= bound)

    def test_seed_reproducible(self):
        spec = SyntheticSpec(
            n_channels=3,
            n_samples=32,
            trials_per_class=4,
            seed=5,
            class_covs=default_mi_covariances(3, 2),
        )
        a = generate_mi(spec)
        b = generate_mi(spec)
        for e1, e2 in zip(a, b):
            np.testing.assert_array_equal(e1.data, e2.data)
            assert e1.label == e2.label

    def test_non_spd_covariance_rejected(self):
        spec = SyntheticSpec(
            n_channels=2,
            n_samples=32,
            trials_per_class=2,
            class_covs=(np.eye(2), np.diag([1.0, -1.0])),
        )
        with pytest.raises(NotPositiveDefiniteError):
            generate_mi(spec)

    def test_labels_cover_classes(self):
        spec = SyntheticSpec(
            n_channels=3,
            n_samples=16,
            trials_per_class=3,
            class_covs=default_mi_covariances(3, 3),
        )
        labels = [e.label for e in generate_mi(spec)]
        assert sorted(set(labels)) == [0, 1, 2]
        assert len(labels) == 9


def colored_noise_loop(rng, n, t, ar, mixing):
    """Reference: the AR(1) recursion one sample at a time."""
    innovations = rng.standard_normal((n, t)) * np.sqrt(1.0 - ar**2)
    sources = np.empty((n, t))
    sources[:, 0] = rng.standard_normal(n)
    for i in range(1, t):
        sources[:, i] = ar * sources[:, i - 1] + innovations[:, i]
    return mixing @ sources


class TestColoredNoise:
    @pytest.mark.parametrize("n, t", [(1, 2), (6, 96), (8, 128), (16, 768)])
    @pytest.mark.parametrize("ar", [0.5, 0.95, 0.99])
    def test_matches_per_sample_loop(self, n, t, ar):
        for seed in range(20):
            mixing = np.random.default_rng(1000 + seed).standard_normal((n, n))
            fast_rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            drive = fast_rng.standard_normal((n, t))
            drive[:, 0] = fast_rng.standard_normal(n)
            np.testing.assert_array_equal(
                _colored_noise(drive, ar, mixing),
                colored_noise_loop(loop_rng, n, t, ar, mixing),
            )
            # Same number of draws, in the same order.
            assert fast_rng.standard_normal() == loop_rng.standard_normal()


def p300_response_one(spec, latency):
    """Reference: the evoked response at one latency."""
    n, t = spec.n_channels, spec.n_samples
    time = np.arange(t) / spec.fs
    bump = np.exp(-0.5 * ((time - latency) / 0.06) ** 2)
    dip = -0.4 * np.exp(-0.5 * ((time - (latency - 0.10)) / 0.04) ** 2)
    course = bump + dip
    positions = np.linspace(0.0, 1.0, n)
    gains = np.exp(-0.5 * ((positions - spec.gain_center) / 0.25) ** 2)
    response = gains[:, None] * course[None, :]
    return response - response.mean(axis=1, keepdims=True)


def p300_trial_one(rng, spec, is_target, mixing):
    """Reference: one flash epoch per call, with its draws in generator order."""
    n, t, ar = spec.n_channels, spec.n_samples, datasets.P300_AR_COEFF
    drive = rng.standard_normal((n, t)) * np.sqrt(1.0 - ar**2)
    drive[:, 0] = rng.standard_normal(n)
    noise = mixing @ signal.lfilter([1.0], [1.0, -ar], drive, axis=1)
    scale = np.sqrt(np.mean(p300_response_one(spec, spec.latency_s) ** 2))
    bg_amp = rng.normal(0.0, datasets.P300_BACKGROUND_ERP)
    bg_latency = spec.latency_s + rng.normal(0.0, datasets.P300_LATENCY_JITTER_S)
    data = noise + bg_amp * p300_response_one(spec, bg_latency) / scale
    if is_target:
        amp = spec.snr * np.exp(rng.normal(0.0, datasets.P300_AMP_JITTER))
        latency = spec.latency_s + rng.normal(0.0, datasets.P300_LATENCY_JITTER_S)
        data = data + amp * p300_response_one(spec, latency) / scale
    return data


class TestP300TrialStack:
    @pytest.mark.parametrize(
        "n, t, fs", [(1, 2, 8.0), (3, 50, 100.0), (6, 96, 96.0), (8, 128, 128.0)]
    )
    @pytest.mark.parametrize(
        "targets",
        [
            [True] * 5,
            [False] * 5,
            [False, True, True, False, False, True, False, False],
            [True],
            [False],
        ],
    )
    def test_matches_one_trial_per_call(self, n, t, fs, targets):
        # the nominal latency must lie inside the epoch: 0.125 s for 2 samples at 8 Hz
        latency = min(0.30, (t - 1) / fs)
        for seed in range(4):
            spec = SyntheticSpec(
                n_channels=n, n_samples=t, fs=fs, snr=0.5 + seed, latency_s=latency
            )
            mixing = _mixing(n)
            stack_rng = np.random.default_rng([seed, n])
            one_rng = np.random.default_rng([seed, n])
            stack = p300_trial(stack_rng, spec, targets, mixing)
            assert stack.shape == (len(targets), n, t) and stack.dtype == np.float64
            np.testing.assert_array_equal(
                stack, [p300_trial_one(one_rng, spec, f, mixing) for f in targets]
            )
            # Same number of draws, in the same order.
            assert stack_rng.standard_normal() == one_rng.standard_normal()

    def test_latency_outside_the_epoch_refused(self):
        """The nominal latency must lie at or before the epoch's last sample:
        at 8 Hz a 0.25 s latency is sample 2, so 3 samples hold it and 2 do
        not.  8 samples at 128 Hz end at 55 ms, before the default 0.30 s."""
        accepted = SyntheticSpec(n_channels=2, n_samples=3, fs=8.0, latency_s=0.25)
        stack = p300_trial(np.random.default_rng(0), accepted, [True], _mixing(2))
        assert stack.shape == (1, 2, 3)
        for spec in (replace(accepted, n_samples=2), SyntheticSpec(n_samples=8)):
            with pytest.raises(ContractError, match="end before a .* latency"):
                p300_trial(np.random.default_rng(0), spec, [True], _mixing(spec.n_channels))
            with pytest.raises(ContractError, match="end before a .* latency"):
                generate_p300(spec)


class TestGenerateP300:
    def test_golden_bits(self):
        """The generator's float64 output is pinned bit for bit, so a
        refactor cannot silently change the synthetic data."""
        spec = SyntheticSpec(n_channels=6, n_samples=96, fs=96.0, trials_per_class=5, seed=7)
        epochs, _ = generate_p300(spec)
        digest = hashlib.sha256(np.stack([e.data for e in epochs]).tobytes()).hexdigest()
        assert digest == "c5d135a0606523feeda284d225a2edf35fd445a86cf87cb0c701d568fedd7539"
        assert [e.label for e in epochs] == [1] * 5 + [0] * 5

    def test_template_is_zero_mean_unit_rms(self):
        spec = SyntheticSpec(n_channels=6, n_samples=128)
        template = p300_template(spec)
        np.testing.assert_allclose(template.mean(axis=1), 0.0, atol=1e-12)
        assert np.sqrt(np.mean(template**2)) == pytest.approx(1.0)

    def test_high_snr_correlates_with_template(self, monkeypatch):
        monkeypatch.setattr(datasets, "P300_LATENCY_JITTER_S", 0.0)
        monkeypatch.setattr(datasets, "P300_AMP_JITTER", 0.0)
        spec = SyntheticSpec(
            n_channels=4,
            n_samples=128,
            trials_per_class=30,
            seed=2,
            snr=500.0,
        )
        epochs, template = generate_p300(spec)
        for e in epochs:
            corr = np.corrcoef(e.data.ravel(), template.ravel())[0, 1]
            if e.label == 1:
                assert corr >= 0.99
            else:
                assert abs(corr) < 0.9

    def test_snr_zero_classes_identically_distributed(self):
        spec = SyntheticSpec(n_channels=4, n_samples=64, trials_per_class=200, seed=9, snr=0.0)
        epochs, _ = generate_p300(spec)
        power = {0: [], 1: []}
        for e in epochs:
            power[e.label].append(np.mean(e.data**2))
        # same generative law: mean power within sampling fluctuation
        assert abs(np.mean(power[1]) - np.mean(power[0])) <= 0.1

    def test_seed_reproducible(self):
        spec = SyntheticSpec(n_channels=3, n_samples=48, trials_per_class=5, seed=4)
        a, _ = generate_p300(spec)
        b, _ = generate_p300(spec)
        for e1, e2 in zip(a, b):
            np.testing.assert_array_equal(e1.data, e2.data)


class TestGenerateSsvep:
    def test_labels_with_rest(self):
        spec = SyntheticSpec(
            n_channels=6, n_samples=256, fs=256.0, trials_per_class=2, seed=0
        )
        labels = sorted({e.label for e in generate_ssvep(spec)})
        assert labels == [0, 1, 2, 3]

    def test_harmonic_must_fit_below_nyquist(self):
        spec = SyntheticSpec(
            n_channels=4, n_samples=128, fs=64.0, trials_per_class=1, freqs=(20.0,)
        )
        with pytest.raises(ContractError):
            generate_ssvep(spec)

    def test_flicker_class_has_band_power(self):
        spec = SyntheticSpec(
            n_channels=6,
            n_samples=512,
            fs=256.0,
            trials_per_class=4,
            seed=1,
            snr=5.0,
        )
        epochs = generate_ssvep(spec)
        e15 = next(e for e in epochs if e.label == 2)
        spectrum = np.abs(np.fft.rfft(e15.data, axis=1)) ** 2
        freqs = np.fft.rfftfreq(e15.n_samples, 1.0 / e15.fs)
        band = spectrum[:, np.abs(freqs - 15.0) < 1.0].sum()
        off = spectrum[:, np.abs(freqs - 12.0) < 1.0].sum()
        assert band > 5.0 * off

    def test_seed_reproducible(self):
        spec = SyntheticSpec(
            n_channels=4, n_samples=128, fs=256.0, trials_per_class=2, seed=3
        )
        a = generate_ssvep(spec)
        b = generate_ssvep(spec)
        for e1, e2 in zip(a, b):
            np.testing.assert_array_equal(e1.data, e2.data)
