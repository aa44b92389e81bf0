import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from riemann_bci import preprocessing
from riemann_bci.errors import ContractError
from riemann_bci.preprocessing import (
    DEFAULT_BAND_ORDER,
    MAX_BAND_ORDER,
    BandSpec,
    Epoch,
    bandpass,
    decimate,
    demean,
    ssvep_filter_bank,
)


def sine_epoch(freq, fs=256.0, seconds=8.0, n_channels=1, amplitude=1.0):
    t = np.arange(int(fs * seconds)) / fs
    x = amplitude * np.sin(2 * np.pi * freq * t)
    return Epoch(np.tile(x, (n_channels, 1)), fs=fs)


def fitted_amplitude(x, freq, fs):
    """Least-squares sine amplitude, measured on the middle half of x."""
    n = len(x)
    sl = slice(n // 4, 3 * n // 4)
    t = np.arange(n)[sl] / fs
    basis = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x[sl], rcond=None)
    return float(np.hypot(*coef))


class TestEpoch:
    def test_validates_shape(self):
        with pytest.raises(ContractError):
            Epoch(np.zeros(5), fs=128.0)
        with pytest.raises(ContractError):
            Epoch(np.zeros((2, 1)), fs=128.0)

    def test_default_channel_names(self):
        e = Epoch(np.zeros((3, 10)), fs=128.0)
        assert e.channels == ("ch1", "ch2", "ch3")

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_sampling_rate(self, fs):
        with pytest.raises(ContractError, match="sampling rate"):
            Epoch(np.zeros((2, 10)), fs=fs)

    def test_channel_count_mismatch(self):
        with pytest.raises(ContractError):
            Epoch(np.zeros((2, 10)), fs=128.0, channels=("a",))

    def test_demean_row_sums(self, rng):
        e = Epoch(rng.standard_normal((4, 500)) + 3.0, fs=128.0)
        out = demean(e)
        rms = np.sqrt(np.mean(out.data**2, axis=1))
        assert np.all(np.abs(out.data.sum(axis=1)) <= 1e-6 * 500 * rms)


def one_epoch_demean(e):
    """demean as it was before stacks: a new epoch from the epoch's data
    less its per-channel mean."""
    return e.with_data(e.data - e.data.mean(axis=1, keepdims=True))


class TestEpochRows:
    def test_rows_are_read_only_views(self, rng):
        data = rng.standard_normal((3, 2, 10))
        epochs = Epoch._rows(data, 128.0, [0, None, 1], ("a", "b"))
        assert [e.label for e in epochs] == [0, None, 1]
        for row, e in zip(data, epochs):
            assert np.shares_memory(e.data, data) and not e.data.flags.writeable
            np.testing.assert_array_equal(e.data, row)
            assert e.channels == ("a", "b") and e.fs == 128.0
        assert not data.flags.writeable

    def test_default_channel_names(self, rng):
        (e,) = Epoch._rows(rng.standard_normal((1, 3, 10)), 128.0, [None], ())
        assert e.channels == ("ch1", "ch2", "ch3")

    @pytest.mark.parametrize(
        "shape, fs, channels, message",
        [((2, 2, 1), 128.0, (), "2 samples"),
         ((2, 0, 10), 128.0, (), "1 channel"),
         ((2, 2, 10), np.inf, (), "sampling rate"),
         ((2, 2, 10), 128.0, ("a",), "channel names")],
    )
    def test_checks_of_one_epoch(self, shape, fs, channels, message):
        with pytest.raises(ContractError, match=message):
            Epoch._rows(np.zeros(shape), fs, [None] * shape[0], channels)
        with pytest.raises(ContractError, match=message):
            Epoch(np.zeros(shape[1:]), fs=fs, channels=channels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stack_refused(self, rng, value):
        data = rng.standard_normal((4, 2, 10))
        data[3, 1, 7] = value
        with pytest.raises(ContractError, match="epoch data must be finite"):
            Epoch._rows(data, 128.0, [None] * 4, ())


class TestStackedDemean:
    @given(
        k=st.integers(1, 6),
        n=st.integers(1, 5),
        t=st.integers(2, 300),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_one_epoch_at_a_time(self, k, n, t, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        epochs = [
            Epoch(scale * (rng.standard_normal((n, t)) + rng.standard_normal((n, 1))),
                  fs=250.0, label=i % 2, channels=tuple(f"c{j}" for j in range(n)))
            for i in range(k)
        ]
        out = demean(epochs)
        for got, e in zip(out, epochs, strict=True):
            expected = one_epoch_demean(e)
            np.testing.assert_array_equal(got.data, expected.data)
            assert (got.fs, got.label, got.channels) == (e.fs, e.label, e.channels)
            assert not got.data.flags.writeable

    def test_one_epoch_is_not_a_stack(self, rng):
        e = Epoch(rng.standard_normal((2, 50)) + 1.0, fs=128.0, label=1)
        out = demean(e)
        assert isinstance(out, Epoch)
        np.testing.assert_array_equal(out.data, one_epoch_demean(e).data)

    def test_empty_list(self):
        assert demean([]) == []

    @pytest.mark.parametrize("other", [((2, 40), 128.0), ((3, 50), 128.0), ((2, 50), 256.0)])
    def test_mixed_epochs_refused(self, rng, other):
        shape, fs = other
        epochs = [Epoch(rng.standard_normal((2, 50)), fs=128.0),
                  Epoch(rng.standard_normal(shape), fs=fs)]
        with pytest.raises(ContractError, match="share one shape and sampling rate"):
            demean(epochs)


class TestBandpass:
    def test_in_band_amplitude_preserved(self):
        e = sine_epoch(15.0)
        out = bandpass(e, BandSpec(8.0, 30.0, order=4))
        amp = fitted_amplitude(out.data[0], 15.0, e.fs)
        assert abs(amp - 1.0) <= 0.05

    def test_stop_band_attenuated(self):
        e = sine_epoch(2.0)
        out = bandpass(e, BandSpec(8.0, 30.0, order=4))
        amp = fitted_amplitude(out.data[0], 2.0, e.fs)
        assert amp <= 10 ** (-20.0 / 20.0)

    def test_zero_signal(self):
        e = Epoch(np.zeros((2, 512)), fs=256.0)
        out = bandpass(e, BandSpec(8.0, 30.0))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_band_above_nyquist(self):
        e = sine_epoch(10.0, fs=64.0)
        with pytest.raises(ContractError):
            bandpass(e, BandSpec(8.0, 40.0))

    def test_invalid_band(self):
        with pytest.raises(ContractError):
            BandSpec(30.0, 8.0)
        with pytest.raises(ContractError):
            BandSpec(-1.0, 8.0)

    @pytest.mark.parametrize("order", [0, MAX_BAND_ORDER + 1, 10**20])
    def test_invalid_order(self, order):
        with pytest.raises(ContractError, match="filter order"):
            BandSpec(8.0, 30.0, order=order)

    def test_linearity(self, rng):
        x = Epoch(rng.standard_normal((3, 600)), fs=128.0)
        y = Epoch(rng.standard_normal((3, 600)), fs=128.0)
        spec = BandSpec(1.0, 16.0)
        a, b = 2.5, -0.75
        combined = bandpass(Epoch(a * x.data + b * y.data, fs=128.0), spec)
        separate = a * bandpass(x, spec).data + b * bandpass(y, spec).data
        scale = np.linalg.norm(separate)
        assert np.linalg.norm(combined.data - separate) <= 1e-9 * scale

    def test_zero_phase_has_no_lag(self):
        fs = 256.0
        t = np.arange(2048) / fs
        x = np.sin(2 * np.pi * 12.0 * t) + 0.5 * np.sin(2 * np.pi * 20.0 * t)
        e = Epoch(x[None, :], fs=fs)
        out = bandpass(e, BandSpec(8.0, 30.0))
        xc = np.correlate(out.data[0], e.data[0] - e.data[0].mean(), mode="full")
        assert int(np.argmax(xc)) == len(x) - 1


def fresh_bandpass(x, fs, low, high, order):
    """Reference: a newly designed filter for every call."""
    sos = signal.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")
    padlen = min(3 * (order + 1), x.shape[1] - 1)
    out = signal.sosfiltfilt(sos, x, axis=1, padtype="odd", padlen=padlen)
    return out - out.mean(axis=1, keepdims=True)


class TestBandpassDesignCache:
    @pytest.mark.parametrize(
        "order, low, high, fs",
        [(1, 1.0, 16.0, 128.0), (3, 1.0, 16.0, 128.0), (4, 8.0, 30.0, 128.0),
         (4, 8.0, 30.0, 512.0), (5, 14.0, 16.0, 128.0), (5, 19.0, 21.0, 250.0),
         (2, 0.5, 40.0, 100.0), (MAX_BAND_ORDER, 8.0, 30.0, 128.0)],
    )
    def test_matches_fresh_design(self, rng, order, low, high, fs):
        # The short lengths clip padlen to n_samples - 1 (1 at two samples).
        for n_samples in (2, 3, 8, 19, 128, 768):
            x = rng.standard_normal((3, n_samples))
            expected = fresh_bandpass(x, fs, low, high, order)
            for _ in range(2):
                out = bandpass(Epoch(x, fs=fs), BandSpec(low, high, order))
                np.testing.assert_array_equal(out.data, expected)

    @given(
        order=st.integers(1, MAX_BAND_ORDER),
        band=st.sampled_from([(1.0, 16.0), (8.0, 30.0), (14.0, 16.0), (0.5, 40.0)]),
        fs=st.sampled_from([100.0, 128.0, 250.0, 512.0]),
        n_samples=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_sosfiltfilt(self, order, band, fs, n_samples, seed):
        x = np.random.default_rng(seed).standard_normal((2, n_samples))
        expected = fresh_bandpass(x, fs, *band, order)
        out = bandpass(Epoch(x, fs=fs), BandSpec(*band, order))
        np.testing.assert_array_equal(out.data, expected)

    def test_cached_design_not_mutated(self, rng):
        spec = BandSpec(11.0, 13.0, order=5)
        for n_samples in (16, 200, 768) * 20:
            bandpass(Epoch(rng.standard_normal((2, n_samples)), fs=128.0), spec)
        sos, zi = preprocessing._butter_sos(5, 11.0, 13.0, 128.0)
        fresh = signal.butter(5, [11.0, 13.0], btype="bandpass", fs=128.0, output="sos")
        np.testing.assert_array_equal(sos, fresh)
        np.testing.assert_array_equal(zi, signal.sosfilt_zi(fresh))
        assert not sos.flags.writeable and not zi.flags.writeable

    def test_sampling_rate_is_part_of_the_key(self, rng):
        x = rng.standard_normal((2, 400))
        spec = BandSpec(8.0, 30.0)
        at_128 = bandpass(Epoch(x, fs=128.0), spec)
        at_256 = bandpass(Epoch(x, fs=256.0), spec)
        expected = fresh_bandpass(x, 256.0, 8.0, 30.0, DEFAULT_BAND_ORDER)
        np.testing.assert_array_equal(at_256.data, expected)
        sos_128, zi_128 = preprocessing._butter_sos(DEFAULT_BAND_ORDER, 8.0, 30.0, 128.0)
        sos_256, zi_256 = preprocessing._butter_sos(DEFAULT_BAND_ORDER, 8.0, 30.0, 256.0)
        assert not np.array_equal(sos_128, sos_256)
        assert not np.array_equal(zi_128, zi_256)
        np.testing.assert_array_equal(zi_256, signal.sosfilt_zi(sos_256))

    def test_one_design_per_band(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, "butter")
        run_filter_banks(rng)
        assert len(calls) == 3

    def test_one_initial_state_per_band(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, "sosfilt_zi")
        run_filter_banks(rng)
        assert len(calls) == 3


def count_calls(monkeypatch, name):
    """Empty the design cache and record every call of ``scipy.signal.<name>``."""
    calls = []
    real = getattr(signal, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    preprocessing._butter_sos.cache_clear()
    monkeypatch.setattr(signal, name, counting)
    return calls


def run_filter_banks(rng):
    """Five SSVEP filter banks over three bands at mixed epoch lengths."""
    for n_samples in (128, 256, 768, 128, 768):
        e = Epoch(rng.standard_normal((4, n_samples)), fs=128.0)
        ssvep_filter_bank(e, [12.0, 15.0, 20.0])


def pre_stack_bandpass(e, spec):
    """bandpass as it was before it built one epoch per call: the trimmed
    filter output became an epoch, then demean made a second one."""
    sos, zi = preprocessing._butter_sos(spec.order, spec.low_hz, spec.high_hz, e.fs)
    sos = sos.copy()
    zi = zi.reshape(len(sos), 1, 2)
    n = min(3 * (spec.order + 1), e.n_samples - 1)
    x = e.data
    ext = np.concatenate(
        (2 * x[:, :1] - x[:, n:0:-1], x, 2 * x[:, -1:] - x[:, -2 : -(n + 2) : -1]), axis=1
    )
    y, _ = signal.sosfilt(sos, ext, axis=1, zi=zi * ext[:, :1])
    y, _ = signal.sosfilt(sos, y[:, ::-1], axis=1, zi=zi * y[:, -1:])
    return one_epoch_demean(e.with_data(y[:, ::-1][:, n:-n]))


@given(
    n=st.integers(1, 6),
    n_samples=st.integers(2, 1000),
    fs=st.sampled_from([128.0, 250.0, 512.0]),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_filter_bank_equals_pre_stack_bandpass(n, n_samples, fs, order, seed):
    """Each band of the SSVEP filter bank equals, bit for bit, the band-pass
    that built two epochs per call."""
    rng = np.random.default_rng(seed)
    e = Epoch(rng.standard_normal((n, n_samples)) + 3.0, fs=fs, label=2)
    freqs = [12.0, 15.0, 20.0]
    bank = ssvep_filter_bank(e, freqs, width_hz=2.0, order=order)
    for f, band in zip(freqs, bank, strict=True):
        expected = pre_stack_bandpass(e, BandSpec(f - 1.0, f + 1.0, order))
        np.testing.assert_array_equal(band.data, expected.data)
        assert (band.fs, band.label, band.channels) == (e.fs, e.label, e.channels)
        assert not band.data.flags.writeable


class TestDecimate:
    def test_512_to_128(self):
        e = Epoch(np.arange(512, dtype=float)[None, :], fs=512.0)
        out = decimate(e, 128.0)
        assert out.fs == 128.0
        assert out.n_samples == 128
        np.testing.assert_array_equal(out.data[0], np.arange(0, 512, 4, dtype=float))

    def test_ratio_one_is_identity(self):
        e = Epoch(np.random.default_rng(0).standard_normal((2, 100)), fs=128.0)
        assert decimate(e, 128.0) is e

    def test_constant_signal(self):
        e = Epoch(np.full((1, 100), 7.0), fs=200.0)
        out = decimate(e, 100.0)
        np.testing.assert_array_equal(out.data, np.full((1, 50), 7.0))

    @given(num=st.integers(2, 9), den=st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_non_integer_ratio_rejected(self, num, den):
        e = Epoch(np.zeros((1, 64)), fs=128.0)
        target = 128.0 * den / num
        if (128.0 / target) != round(128.0 / target):
            with pytest.raises(ContractError):
                decimate(e, target)

    def test_label_and_channels_preserved(self):
        e = Epoch(np.zeros((2, 100)), fs=128.0, label=3, channels=("a", "b"))
        out = decimate(e, 64.0)
        assert out.label == 3 and out.channels == ("a", "b")


class TestSsvepFilterBank:
    def test_bank_size(self, rng):
        e = Epoch(rng.standard_normal((6, 1024)), fs=512.0)
        bank = ssvep_filter_bank(e, [12.0, 15.0, 20.0])
        assert len(bank) == 3
        assert all(b.n_channels == 6 for b in bank)

    def test_empty_bank(self, rng):
        e = Epoch(rng.standard_normal((2, 128)), fs=512.0)
        assert ssvep_filter_bank(e, []) == []

    def test_matched_band_dominates(self):
        e = sine_epoch(15.0, fs=512.0, seconds=2.0, n_channels=6)
        bank = ssvep_filter_bank(e, [12.0, 15.0, 20.0])
        powers = [float(np.sum(b.data**2)) for b in bank]
        assert powers[1] >= 100.0 * powers[0]
        assert powers[1] >= 100.0 * powers[2]


class TestDecimationCovarianceShape:
    def test_band_limited_covariance_preserved(self, rng):
        mixing = rng.standard_normal((4, 4))
        raw = Epoch(mixing @ rng.standard_normal((4, 4096)), fs=512.0)
        limited = bandpass(raw, BandSpec(1.0, 16.0))
        dec = decimate(limited, 128.0)
        c_full = limited.data @ limited.data.T / (limited.n_samples - 1)
        c_dec = dec.data @ dec.data.T / (dec.n_samples - 1)
        rel = np.linalg.norm(c_full - c_dec, "fro") / np.linalg.norm(c_full, "fro")
        assert rel <= 0.15
