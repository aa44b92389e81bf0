"""Epoch and model file formats plus synthetic data generators.

Epoch file layout (bit-exact across platforms):
    line 1   UTF-8 JSON header terminated by a newline, with keys
             version, n_trials, n_channels, n_samples, fs_hz,
             channel_names (a list of strings), labels (one int per
             trial, -1 = unlabeled) and modality (a string);
    rest     raw payload of n_trials * n_channels * n_samples IEEE
             float32 values, little endian, trial-major then
             channel-major (C order).

Model files are single JSON documents holding the format name, version,
recipe, class ids, per-class training counts, and the class means as
row-major float64 decimal arrays; reading one back reproduces the model
exactly.  Both readers refuse a version other than FILE_VERSION.

The generators realize a zero-mean Gaussian data model: each motor-imagery
class is a draw from N(0, Sigma_z); P300 targets are a fixed temporal
template plus AR(1)-colored, spatially mixed noise; SSVEP classes are
flicker-frequency sinusoids (plus a half-amplitude harmonic) mixed over
channel gain profiles.  All generators are pure functions of (spec, seed).
P300 flash epochs are generated as one (trials, channels, samples) stack
per call of ``p300_trial``, each trial's draws taken in trial order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FileFormatError
from .features import FeatureRecipe, Prototype
from .mdm import MdmModel
from .preprocessing import Epoch
from .spd import SpdMatrix

FILE_VERSION = 1

# Frozen by a one-off sweep over the default P300 geometry (8 channels,
# 1 s at 128 Hz, 50 trials per class, shrinkage 1e-2): mean held-out AUC
# over seeds 0..19 lands at 0.908.  See scripts/calibrate_p300_snr.py.
DEFAULT_P300_SNR = 0.9
# Every P300 trial: AR(1) coefficient of the noise sources, and standard
# deviation of the random-sign ERP-shaped background (template units).
P300_AR_COEFF = 0.95
P300_BACKGROUND_ERP = 0.5
# Per-trial jitter of the ERP: standard deviation of its latency in seconds
# (background and target response alike), and of the target response's
# log-amplitude.
P300_LATENCY_JITTER_S = 0.05
P300_AMP_JITTER = 0.5


# ---------------------------------------------------------------------------
# epoch files


def write_epochs(path, epochs: list[Epoch], modality: str = "raw") -> None:
    """Write epochs to ``path``; lossless round trip at float32 precision."""
    path = Path(path)
    if epochs:
        n = epochs[0].n_channels
        t = epochs[0].n_samples
        fs = epochs[0].fs
        names = epochs[0].channels
        for e in epochs:
            if e.n_channels != n or e.n_samples != t or e.fs != fs:
                raise ContractError("all epochs in a file must share shape and fs")
        labels = [(-1 if e.label is None else int(e.label)) for e in epochs]
        payload = np.stack([e.data for e in epochs]).astype("<f4").tobytes()
    else:
        n = t = 0
        fs = 0.0
        names = ()
        labels = []
        payload = b""
    header = {
        "version": FILE_VERSION,
        "n_trials": len(epochs),
        "n_channels": n,
        "n_samples": t,
        "fs_hz": fs,
        "channel_names": list(names),
        "labels": labels,
        "modality": modality,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def _field(doc, key: str, where: str, convert=lambda v: v):
    """``convert(doc[key])``; a missing or malformed value raises a
    FileFormatError that names the field."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where} must be a JSON object")
    if key not in doc:
        raise FileFormatError(f"{where} missing field '{key}'")
    try:
        return convert(doc[key])
    except ContractError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        raise FileFormatError(f"{where} field '{key}' is malformed: {exc!r}") from exc


def _integer(v, least: int | None = None) -> int:
    """``v`` itself if it is a JSON integer (not a boolean) >= ``least``."""
    if type(v) is not int or (least is not None and v < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"expected an integer{bound}, got {v!r}")
    return v


def _number(v) -> float:
    """``v`` as a float if it is a JSON number (an int or a float, not a boolean)."""
    if type(v) not in (int, float):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _matrix(v) -> np.ndarray:
    """``v`` as a float64 array if it is a list of equal-length lists of JSON numbers."""
    if type(v) is not list or any(type(r) is not list or len(r) != len(v[0]) for r in v):
        raise ValueError("expected a list of equal-length lists of numbers")
    return np.array([[_number(z) for z in r] for r in v], dtype=np.float64)


def _ints(v, least: int | None = None) -> tuple[int, ...]:
    return tuple(_integer(z, least) for z in v)


def _string(v) -> str:
    if type(v) is not str:
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _strings(v) -> tuple[str, ...]:
    if type(v) is not list:
        raise ValueError(f"expected a list of strings, got {v!r}")
    return tuple(_string(z) for z in v)


def _version(v) -> int:
    if _integer(v) != FILE_VERSION:
        raise ValueError(f"expected version {FILE_VERSION}, got {v!r}")
    return v


def read_epochs(path) -> list[Epoch]:
    """Read an epoch file; parse errors name the offending field."""
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise FileFormatError("missing header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"unparseable header: {exc}") from exc
    _field(header, "version", "header", _version)
    _field(header, "modality", "header", _string)
    n_trials, n, t = (
        _field(header, key, "header", lambda v: _integer(v, 0))
        for key in ("n_trials", "n_channels", "n_samples")
    )
    fs = _field(header, "fs_hz", "header", _number)
    labels = _field(header, "labels", "header", _ints)
    channels = _field(header, "channel_names", "header", _strings)
    if len(labels) != n_trials:
        raise FileFormatError(
            f"field 'labels' has {len(labels)} entries for n_trials={n_trials}"
        )
    if n_trials == 0:
        return []
    if len(channels) != n:
        raise FileFormatError(
            f"field 'channel_names' has {len(channels)} entries "
            f"for n_channels={n}"
        )
    payload = blob[newline + 1 :]
    expected = n_trials * n * t * 4
    if len(payload) != expected:
        raise FileFormatError(
            f"payload holds {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(n_trials, n, t).astype(np.float64)
    return Epoch._rows(data, fs, [None if z == -1 else z for z in labels], channels)


# ---------------------------------------------------------------------------
# model files


def _recipe_to_doc(recipe: FeatureRecipe) -> dict:
    return {
        "modality": recipe.modality,
        "prototypes": [
            {
                "class_id": p.class_id,
                "n_epochs": p.n_epochs,
                "data": p.data.tolist(),
            }
            for p in recipe.prototypes
        ],
        "freqs": list(recipe.freqs),
        "width_hz": recipe.width_hz,
        "order": recipe.order,
        "shrinkage": recipe.shrinkage,
        "n_subjects": recipe.n_subjects,
    }


def _prototypes_from_doc(docs) -> tuple[Prototype, ...]:
    return tuple(
        Prototype(
            data=_matrix(p["data"]),
            class_id=_integer(p["class_id"]),
            n_epochs=_integer(p["n_epochs"], 1),
        )
        for p in docs
    )


def _recipe_from_doc(doc) -> FeatureRecipe:
    return FeatureRecipe(
        modality=_field(doc, "modality", "recipe"),
        prototypes=_field(doc, "prototypes", "recipe", _prototypes_from_doc),
        freqs=_field(doc, "freqs", "recipe", lambda v: tuple(_number(f) for f in v)),
        width_hz=_field(doc, "width_hz", "recipe", _number),
        order=_field(doc, "order", "recipe", lambda v: _integer(v, 1)),
        shrinkage=_field(
            doc, "shrinkage", "recipe", lambda v: v if v == "auto" else _number(v)
        ),
        n_subjects=_field(doc, "n_subjects", "recipe", lambda v: _integer(v, 1)),
    )


def save_model(path, model) -> None:
    doc = {
        "format": "mdm-model",
        "version": FILE_VERSION,
        "class_ids": list(model.class_ids),
        "counts": list(model.counts),
        "recipe": _recipe_to_doc(model.recipe),
        "means": [m.values.tolist() for m in model.means],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_model(path):
    """Read a model document; parse errors name the offending field."""
    where = "model document"
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"unparseable {where} {path}: {exc}") from exc
    if _field(doc, "format", where) != "mdm-model":
        raise FileFormatError(f"unexpected document format {doc['format']!r}")
    _field(doc, "version", where, _version)
    return MdmModel(
        class_ids=_field(doc, "class_ids", where, _ints),
        means=_field(
            doc, "means", where,
            lambda v: tuple(SpdMatrix(_matrix(m)) for m in v),
        ),
        recipe=_field(doc, "recipe", where, _recipe_from_doc),
        counts=_field(doc, "counts", where, lambda v: _ints(v, 1)),
    )


# ---------------------------------------------------------------------------
# synthetic generators


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the zero-mean Gaussian generators, one modality at a time.

    ``class_covs`` drives the motor-imagery mode; ``snr`` the P300 and SSVEP
    modes (snr = 0 is the null model: targets are indistinguishable noise).
    The P300 noise coefficient, background size and response jitter are
    the module constants ``P300_AR_COEFF``, ``P300_BACKGROUND_ERP``,
    ``P300_LATENCY_JITTER_S`` and ``P300_AMP_JITTER``.
    """

    n_channels: int = 8
    n_samples: int = 128
    fs: float = 128.0
    trials_per_class: int = 50
    seed: int = 0
    class_covs: tuple[np.ndarray, ...] = ()
    snr: float = DEFAULT_P300_SNR
    latency_s: float = 0.30
    gain_center: float = 0.60
    freqs: tuple[float, ...] = (12.0, 15.0, 20.0)

    def __post_init__(self):
        if self.n_channels < 1:
            raise ContractError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.n_samples < 2:
            raise ContractError(f"n_samples must be >= 2, got {self.n_samples}")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ContractError(f"fs must be positive and finite, got {self.fs}")
        if not (math.isfinite(self.snr) and self.snr >= 0):
            raise ContractError(f"snr must be finite and >= 0, got {self.snr}")
        if self.trials_per_class < 1:
            raise ContractError("trials_per_class must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if any(not f > 0 for f in self.freqs):
            raise ContractError(f"freqs must be positive, got {self.freqs}")
        if len(set(self.freqs)) != len(self.freqs):
            raise ContractError(f"freqs must be distinct, got {list(self.freqs)}")


def default_mi_covariances(n_channels: int, n_classes: int) -> tuple[np.ndarray, ...]:
    """Class 0 is isotropic; class z boosts the variance of channel z-1 by 4."""
    if n_classes < 2:
        raise ContractError("need at least 2 classes")
    if n_classes - 1 > n_channels:
        raise ContractError(
            f"{n_classes} classes need at least {n_classes - 1} channels"
        )
    covs = [np.eye(n_channels)]
    for z in range(1, n_classes):
        d = np.ones(n_channels)
        d[z - 1] = 4.0
        covs.append(np.diag(d))
    return tuple(covs)


def generate_mi(spec: SyntheticSpec) -> list[Epoch]:
    """Labeled trials X = Sigma_z^(1/2) W with W standard normal, per class."""
    if not spec.class_covs:
        raise ContractError("mi generation requires class_covs")
    roots = []
    for sigma in spec.class_covs:
        spd = SpdMatrix(sigma)  # raises if a class covariance is not SPD
        roots.append(spd._sqrt_array())
    rng = np.random.default_rng(spec.seed)
    epochs = []
    for z, root in enumerate(roots):
        for _ in range(spec.trials_per_class):
            w = rng.standard_normal((spec.n_channels, spec.n_samples))
            epochs.append(Epoch(root @ w, fs=spec.fs, label=z))
    return epochs


def _p300_response(spec: SyntheticSpec, latency) -> np.ndarray:
    """Unnormalized evoked response: a late positive bump over posterior
    channels preceded by a smaller negative deflection, zero mean per row.

    A scalar ``latency`` gives one (n_channels, n_samples) response, an
    array of k latencies a (k, n_channels, n_samples) stack.
    """
    n, t = spec.n_channels, spec.n_samples
    time = np.arange(t) / spec.fs
    latency = np.asarray(latency)[..., None]
    # the bump, with the dip added in place
    course = np.exp(-0.5 * ((time - latency) / 0.06) ** 2)
    course += -0.4 * np.exp(-0.5 * ((time - (latency - 0.10)) / 0.04) ** 2)
    positions = np.linspace(0.0, 1.0, n)
    gains = np.exp(-0.5 * ((positions - spec.gain_center) / 0.25) ** 2)
    response = gains[:, None] * course[..., None, :]
    response -= response.mean(axis=-1, keepdims=True)
    return response


def p300_template(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic ground-truth target template at nominal latency, unit RMS."""
    nominal = _p300_response(spec, spec.latency_s)
    return nominal / np.sqrt(np.mean(nominal**2))


def _mixing(n: int) -> np.ndarray:
    """Fixed channel-mixing matrix with unit-norm rows (volume conduction)."""
    rng = np.random.default_rng(1234 + n)
    w = np.eye(n) + 0.5 * rng.standard_normal((n, n))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _colored_noise(drive: np.ndarray, ar: float, mixing: np.ndarray) -> np.ndarray:
    """AR(1)-filtered Gaussian sources mixed across channels, unit variance.

    ``drive`` is a (..., n, t) stack of standard normal draws whose first
    column is the stationary start; it is overwritten with the result.
    """
    from scipy import signal  # imported on first use: only P300 generation filters

    drive[..., 1:] *= np.sqrt(1.0 - ar**2)
    sources = signal.lfilter([1.0], [1.0, -ar], drive, axis=-1)
    return np.matmul(mixing, sources, out=drive)


def p300_trial(
    rng, spec: SyntheticSpec, targets: list[bool], mixing: np.ndarray
) -> np.ndarray:
    """Synthetic flash epochs, a (len(targets), n_channels, n_samples) stack.

    Every trial carries colored noise plus an ERP-shaped background
    fluctuation of random sign and size; a trial whose ``targets`` flag is
    set adds the snr-scaled evoked response on top, with per-trial
    lognormal amplitude and Gaussian latency jitter.  The background keeps
    the template direction populated in both classes, which is what makes
    single-trial detection a graded problem instead of a separable one.

    Each trial takes its draws in turn (noise drive, its start column,
    background amplitude and latency, then a target's amplitude and
    latency), so a stack equals its trials generated one call at a time.
    The nominal latency must lie inside the epoch, at or before its last sample.
    """
    k, n, t = len(targets), spec.n_channels, spec.n_samples
    if not spec.latency_s * spec.fs <= t - 1:
        raise ContractError(f"{t} samples at {spec.fs} Hz end before a {spec.latency_s} s latency")
    data = np.empty((k, n, t))
    bg_amp, bg_latency, amp, latency = [], [], [], []
    for i, is_target in enumerate(targets):
        rng.standard_normal(out=data[i])
        data[i, :, 0] = rng.standard_normal(n)  # stationary start, drawn after the drive
        bg_amp.append(rng.normal(0.0, P300_BACKGROUND_ERP))
        bg_latency.append(spec.latency_s + rng.normal(0.0, P300_LATENCY_JITTER_S))
        if is_target:
            amp.append(spec.snr * np.exp(rng.normal(0.0, P300_AMP_JITTER)))
            latency.append(spec.latency_s + rng.normal(0.0, P300_LATENCY_JITTER_S))
    _colored_noise(data, P300_AR_COEFF, mixing)
    scale = np.sqrt(np.mean(_p300_response(spec, spec.latency_s) ** 2))
    # the background on every trial, then the response on the target trials
    terms = (
        (slice(None), bg_amp, bg_latency),
        (np.asarray(targets, dtype=bool), amp, latency),
    )
    for rows, amps, latencies in terms:
        response = _p300_response(spec, np.array(latencies))
        response *= np.array(amps)[:, None, None]
        response /= scale
        data[rows] += response
        del response  # freed before the next term's stack is made
    return data


def generate_p300(spec: SyntheticSpec) -> tuple[list[Epoch], np.ndarray]:
    """Target (label 1) and non-target (label 0) epochs plus the template."""
    k = spec.trials_per_class
    targets = [True] * k + [False] * k
    rng = np.random.default_rng(spec.seed)
    data = p300_trial(rng, spec, targets, _mixing(spec.n_channels))
    return Epoch._rows(data, spec.fs, [int(z) for z in targets], ()), p300_template(spec)


def ssvep_gains(n_channels: int, n_freqs: int) -> np.ndarray:
    """Per-frequency channel gain profiles, overlapping but distinct."""
    positions = np.linspace(0.0, 1.0, n_channels)
    centers = np.linspace(0.25, 0.75, n_freqs)
    return np.stack(
        [np.exp(-0.5 * ((positions - c) / 0.3) ** 2) for c in centers]
    )


def generate_ssvep(spec: SyntheticSpec) -> list[Epoch]:
    """Labeled SSVEP epochs: label 0 is rest (noise only), then one class
    per flicker frequency with a half-amplitude harmonic."""
    for f in spec.freqs:
        if 2.0 * f >= spec.fs / 2.0:
            raise ContractError(
                f"flicker frequency {f} Hz needs its harmonic below Nyquist"
            )
    gains = ssvep_gains(spec.n_channels, len(spec.freqs))
    mixing = _mixing(spec.n_channels)
    rng = np.random.default_rng(spec.seed)
    time = np.arange(spec.n_samples) / spec.fs
    epochs = []
    for label in range(len(spec.freqs) + 1):
        for _ in range(spec.trials_per_class):
            noise = mixing @ rng.standard_normal((spec.n_channels, spec.n_samples))
            if label == 0:
                data = noise
            else:
                f = spec.freqs[label - 1]
                phase = rng.uniform(0.0, 2.0 * np.pi)
                wave = np.sin(2 * np.pi * f * time + phase) + 0.5 * np.sin(
                    2 * np.pi * 2 * f * time + 2 * phase
                )
                data = spec.snr * gains[label - 1][:, None] * wave[None, :] + noise
            epochs.append(Epoch(data, fs=spec.fs, label=label))
    return epochs
