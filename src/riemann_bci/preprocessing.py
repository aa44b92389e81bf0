"""Band-pass filtering, decimation, and epoch conditioning.

Trials are represented by the immutable :class:`Epoch` container.  Each
stage (:func:`demean`, :func:`bandpass`, :func:`decimate`) takes one epoch
or a list of epochs that share one shape and sampling rate, works on the
list as one (k, n_channels, n_samples) stack and returns the same form.
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
    return _stage(e, "demeaned", lambda x, fs: (_demeaned(x), fs))


def _demeaned(x: np.ndarray) -> np.ndarray:
    """``x``, an array the caller owns, less the mean of each row along its
    last (time) axis, in place."""
    x -= x.mean(axis=-1, keepdims=True)
    return x


def _stage(e: Epoch | list[Epoch], what: str, step) -> Epoch | list[Epoch]:
    """One stage of the pipeline: ``step(x, fs) -> (y, fs')`` applied to
    one epoch or to a list of epochs as one (k, n_channels, n_samples)
    stack ``x``, which ``step`` may overwrite.

    One epoch gives one epoch and a list a list (``[]`` for ``[]``); each
    result row carries the label of its input epoch.
    """
    epochs = [e] if isinstance(e, Epoch) else e
    if not epochs:
        return []
    y, fs = step(_stacked_data(epochs, what), epochs[0].fs)
    out = Epoch._rows(y, fs, [x.label for x in epochs], epochs[0].channels)
    return out[0] if isinstance(e, Epoch) else out


def _stacked_data(epochs: list[Epoch], what: str) -> np.ndarray:
    """The data of nonempty ``epochs`` as one (k, n_channels, n_samples)
    stack; they must share one shape and sampling rate."""
    shape, fs = epochs[0].data.shape, epochs[0].fs
    if any(e.data.shape != shape or e.fs != fs for e in epochs):
        raise ContractError(f"{what} epochs must share one shape and sampling rate")
    # np.array copies equal-shape rows in about half np.stack's time on small stacks
    return np.array([e.data for e in epochs])


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


def bandpass(e: Epoch | list[Epoch], spec: BandSpec) -> Epoch | list[Epoch]:
    """Zero-phase Butterworth IIR band-pass, applied per channel, then demeaned.

    The filter runs forward and backward (squared magnitude response, no
    group delay) with odd edge padding of about three filter orders.  The
    design and its initial state are made once per (order, band, fs) and
    cached; the result equals ``scipy.signal.sosfiltfilt`` with
    ``padtype="odd"`` and the same ``padlen`` bit for bit.  A list of epochs
    of one shape and sampling rate is filtered as one stack, bit-identical
    to one epoch at a time.
    """
    return _stage(e, "band-passed", lambda x, fs: (_bandpassed(x, fs, spec), fs))


def _bandpassed(x: np.ndarray, fs: float, spec: BandSpec) -> np.ndarray:
    """:func:`bandpass` of a (k, n_channels, n_samples) stack ``x`` at ``fs``,
    whose channels are filtered as the rows of one (k * n_channels, n_samples)
    array."""
    if spec.high_hz >= fs / 2.0:
        raise ContractError(
            f"band edge {spec.high_hz} Hz must lie below Nyquist ({fs / 2.0} Hz)"
        )
    from scipy import signal

    sos, zi = _butter_sos(spec.order, spec.low_hz, spec.high_hz, fs)
    # scipy's sosfilt refuses a read-only array, so each call filters with a copy.
    sos = sos.copy()
    zi = zi.reshape(len(sos), 1, 2)
    shape = x.shape
    x = x.reshape(-1, shape[-1])
    n = min(3 * (spec.order + 1), x.shape[1] - 1)
    # sosfiltfilt's steps, in its order: odd extension, then a forward and a
    # backward pass that each start in the steady state of their first sample.
    ext = np.concatenate(
        (2 * x[:, :1] - x[:, n:0:-1], x, 2 * x[:, -1:] - x[:, -2 : -(n + 2) : -1]), axis=1
    )
    y, _ = signal.sosfilt(sos, ext, axis=1, zi=zi * ext[:, :1])
    y, _ = signal.sosfilt(sos, y[:, ::-1], axis=1, zi=zi * y[:, -1:])
    # demeaned in time order, as one epoch of the trimmed result would be
    return _demeaned(np.ascontiguousarray(y[:, ::-1][:, n:-n])).reshape(shape)


def decimate(e: Epoch | list[Epoch], target_fs: float) -> Epoch | list[Epoch]:
    """Keep every (fs / target_fs)-th sample; the ratio must be an integer.

    The signal is assumed already band-limited below target_fs / 2 by a
    prior band-pass, so no anti-alias filter is applied here.  A list of
    epochs of one shape and sampling rate is decimated as one stack.  At
    ratio 1 (for a list, at its first epoch's rate) the input itself is
    returned.
    """
    if not (math.isfinite(target_fs) and target_fs > 0):
        raise ContractError(f"target rate must be positive and finite, got {target_fs}")
    if not e:
        return []
    fs = e.fs if isinstance(e, Epoch) else e[0].fs
    ratio = fs / target_fs
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ContractError(
            f"decimation ratio must be a positive integer, got {fs}/{target_fs}"
        )
    if k == 1:
        return e
    return _stage(e, "decimated", lambda x, fs: (np.ascontiguousarray(x[..., ::k]), target_fs))
