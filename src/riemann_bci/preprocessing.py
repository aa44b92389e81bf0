"""Band-pass filtering, decimation, and epoch conditioning.

Trials are represented by the immutable :class:`Epoch` container.  All
operations return new epochs and are safe for data-parallel mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal

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
        n, t = a.shape
        if n < 1 or t < 2:
            raise ContractError(
                f"epoch needs >= 1 channel and >= 2 samples, got {n}x{t}"
            )
        if not np.all(np.isfinite(a)):
            raise ContractError("epoch data must be finite")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ContractError(
                f"sampling rate must be positive and finite, got {self.fs}"
            )
        names = tuple(self.channels) if self.channels else tuple(
            f"ch{i + 1}" for i in range(n)
        )
        if len(names) != n:
            raise ContractError(
                f"{len(names)} channel names for {n} channels"
            )
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "channels", names)

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


def demean(e: Epoch) -> Epoch:
    """Remove each channel's mean so the zero-mean covariance model holds."""
    return e.with_data(e.data - e.data.mean(axis=1, keepdims=True))


@lru_cache
def _butter_sos(order: int, low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    """Read-only second-order sections of one Butterworth band-pass design."""
    sos = signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


def bandpass(e: Epoch, spec: BandSpec) -> Epoch:
    """Zero-phase Butterworth IIR band-pass, applied per channel, then demeaned.

    The filter runs forward and backward (squared magnitude response, no
    group delay) with reflected edge padding of about three filter orders.
    The design is made once per (order, band, fs) and cached.
    """
    if spec.high_hz >= e.fs / 2.0:
        raise ContractError(
            f"band edge {spec.high_hz} Hz must lie below Nyquist ({e.fs / 2.0} Hz)"
        )
    # scipy's sosfilt refuses a read-only array, so each call filters with a copy.
    sos = _butter_sos(spec.order, spec.low_hz, spec.high_hz, e.fs).copy()
    padlen = min(3 * (spec.order + 1), e.n_samples - 1)
    out = signal.sosfiltfilt(sos, e.data, axis=1, padtype="odd", padlen=padlen)
    return demean(e.with_data(out))


def decimate(e: Epoch, target_fs: float) -> Epoch:
    """Keep every (fs / target_fs)-th sample; the ratio must be an integer.

    The signal is assumed already band-limited below target_fs / 2 by a
    prior band-pass, so no anti-alias filter is applied here.
    """
    if target_fs <= 0:
        raise ContractError(f"target rate must be positive, got {target_fs}")
    ratio = e.fs / target_fs
    k = round(ratio)
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
