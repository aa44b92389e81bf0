"""Band-pass filtering, decimation, and epoch conditioning.

Trials are represented by the immutable :class:`Epoch` container.  All
operations return new epochs and are safe for data-parallel mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError

DEFAULT_BAND_ORDER = 4
SSVEP_BAND_ORDER = 5
SSVEP_BAND_WIDTH_HZ = 2.0
# scipy's band-pass designs above this order can come out non-finite (from
# order 48 near Nyquist), overflow (from about 150) or take seconds to make.
MAX_BAND_ORDER = 32


@dataclass(frozen=True, eq=False)
class Epoch:
    """One trial: ``data`` is (n_channels, n_samples) in microvolts."""

    data: np.ndarray
    fs: float
    label: int | None = None
    channels: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64)
        if a.ndim != 2:
            raise ContractError(f"epoch data must be 2-D, got shape {a.shape}")
        object.__setattr__(self, "channels", _checked(a, self.fs, self.channels))
        object.__setattr__(self, "data", a)

    @classmethod
    def _rows(cls, data: np.ndarray, fs: float, labels, channels) -> list["Epoch"]:
        """One epoch per row of a float64 (k, n_channels, n_samples) stack,
        with the checks of one epoch run once for the whole stack.

        The stack is made read-only in place and each epoch's data is a
        view of its row, not a copy.
        """
        names = _checked(data, fs, channels)
        epochs = []
        for row, label in zip(data, labels):
            e = object.__new__(cls)
            vars(e).update(data=row, fs=fs, label=label, channels=names)
            epochs.append(e)
        return epochs

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray, fs: float | None = None) -> "Epoch":
        return Epoch(
            data=data,
            fs=self.fs if fs is None else fs,
            label=self.label,
            channels=self.channels,
        )


def _checked(a: np.ndarray, fs: float, channels) -> tuple[str, ...]:
    """Check the float64 data of one epoch or a stack of them, ``a`` of shape
    (..., n_channels, n_samples), set it read-only and return its channel
    names (``ch1``, ``ch2``, ... when none are given)."""
    n, t = a.shape[-2:]
    if n < 1 or t < 2:
        raise ContractError(f"epoch needs >= 1 channel and >= 2 samples, got {n}x{t}")
    if not np.isfinite(a).all():
        raise ContractError("epoch data must be finite")
    if not (math.isfinite(fs) and fs > 0):
        raise ContractError(f"sampling rate must be positive and finite, got {fs}")
    names = tuple(channels) if channels else tuple(f"ch{i + 1}" for i in range(n))
    if len(names) != n:
        raise ContractError(f"{len(names)} channel names for {n} channels")
    a.flags.writeable = False
    return names


@dataclass(frozen=True)
class BandSpec:
    """Butterworth band-pass settings; validated against fs when applied."""

    low_hz: float
    high_hz: float
    order: int = DEFAULT_BAND_ORDER

    def __post_init__(self):
        if not 0.0 < self.low_hz < self.high_hz:
            raise ContractError(
                f"band must satisfy 0 < low < high, got [{self.low_hz}, {self.high_hz}]"
            )
        if not 1 <= self.order <= MAX_BAND_ORDER:
            raise ContractError(
                f"filter order must lie in [1, {MAX_BAND_ORDER}], got {self.order}"
            )


def demean(e: Epoch | list[Epoch]) -> Epoch | list[Epoch]:
    """Remove each channel's mean so the zero-mean covariance model holds.

    A list of epochs of one shape and sampling rate is demeaned as one
    stack, bit-identical to one epoch at a time.
    """
    if isinstance(e, Epoch):
        return e.with_data(_demeaned(e.data.copy()))
    if not e:
        return []
    data = _demeaned(_stacked_data(e, "demeaned"))
    return Epoch._rows(data, e[0].fs, [x.label for x in e], e[0].channels)


def _demeaned(x: np.ndarray) -> np.ndarray:
    """``x``, an array the caller owns, less the mean of each row along its
    last (time) axis, in place."""
    x -= x.mean(axis=-1, keepdims=True)
    return x


def _stacked_data(epochs: list[Epoch], what: str) -> np.ndarray:
    """The data of nonempty ``epochs`` as one (k, n_channels, n_samples)
    stack; they must share one shape and sampling rate."""
    shape, fs = epochs[0].data.shape, epochs[0].fs
    if any(e.data.shape != shape or e.fs != fs for e in epochs):
        raise ContractError(f"{what} epochs must share one shape and sampling rate")
    return np.stack([e.data for e in epochs])


@lru_cache
def _butter_sos(
    order: int, low_hz: float, high_hz: float, fs: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only second-order sections of one Butterworth band-pass design,
    with their step-response initial state ``sosfilt_zi`` (one linear solve).

    A band edge too close to 0 Hz leaves the solve singular, puts a pole on
    the unit circle (0/0 in the DC gain) or underflows the design; each is
    refused as a contract error naming the band.
    """
    from scipy import signal  # imported on first use: most commands never filter

    try:
        # numpy's LinAlgError is a ValueError; 0/0 raises FloatingPointError
        with np.errstate(invalid="raise"):
            sos = signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
            zi = signal.sosfilt_zi(sos)
    except (ValueError, FloatingPointError) as exc:
        raise ContractError(
            f"cannot design an order-{order} band-pass [{low_hz}, {high_hz}] Hz "
            f"at fs {fs} Hz: {exc}"
        ) from exc
    sos.flags.writeable = False
    zi.flags.writeable = False
    return sos, zi


def bandpass(e: Epoch, spec: BandSpec) -> Epoch:
    """Zero-phase Butterworth IIR band-pass, applied per channel, then demeaned.

    The filter runs forward and backward (squared magnitude response, no
    group delay) with odd edge padding of about three filter orders.  The
    design and its initial state are made once per (order, band, fs) and
    cached; the result equals ``scipy.signal.sosfiltfilt`` with
    ``padtype="odd"`` and the same ``padlen`` bit for bit.
    """
    if spec.high_hz >= e.fs / 2.0:
        raise ContractError(
            f"band edge {spec.high_hz} Hz must lie below Nyquist ({e.fs / 2.0} Hz)"
        )
    from scipy import signal

    sos, zi = _butter_sos(spec.order, spec.low_hz, spec.high_hz, e.fs)
    # scipy's sosfilt refuses a read-only array, so each call filters with a copy.
    sos = sos.copy()
    zi = zi.reshape(len(sos), 1, 2)
    n = min(3 * (spec.order + 1), e.n_samples - 1)
    x = e.data
    # sosfiltfilt's steps, in its order: odd extension, then a forward and a
    # backward pass that each start in the steady state of their first sample.
    ext = np.concatenate(
        (2 * x[:, :1] - x[:, n:0:-1], x, 2 * x[:, -1:] - x[:, -2 : -(n + 2) : -1]), axis=1
    )
    y, _ = signal.sosfilt(sos, ext, axis=1, zi=zi * ext[:, :1])
    y, _ = signal.sosfilt(sos, y[:, ::-1], axis=1, zi=zi * y[:, -1:])
    # demeaned in time order, as one epoch of the trimmed result would be
    y = _demeaned(np.ascontiguousarray(y[:, ::-1][:, n:-n]))
    return Epoch._rows(y[None], e.fs, [e.label], e.channels)[0]


def decimate(e: Epoch, target_fs: float) -> Epoch:
    """Keep every (fs / target_fs)-th sample; the ratio must be an integer.

    The signal is assumed already band-limited below target_fs / 2 by a
    prior band-pass, so no anti-alias filter is applied here.
    """
    if not (math.isfinite(target_fs) and target_fs > 0):
        raise ContractError(f"target rate must be positive and finite, got {target_fs}")
    ratio = e.fs / target_fs
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ContractError(
            f"decimation ratio must be a positive integer, got {e.fs}/{target_fs}"
        )
    if k == 1:
        return e
    return e.with_data(e.data[:, ::k], fs=target_fs)


def ssvep_filter_bank(
    e: Epoch,
    freqs: list[float],
    width_hz: float = SSVEP_BAND_WIDTH_HZ,
    order: int = SSVEP_BAND_ORDER,
) -> list[Epoch]:
    """One band-passed copy per flicker frequency, centered at each freq."""
    return [
        bandpass(e, BandSpec(f - width_hz / 2.0, f + width_hz / 2.0, order))
        for f in freqs
    ]
