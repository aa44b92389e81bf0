"""Modality-specific covariance features built from epochs.

Every classifier in this package consumes one structured SPD matrix per
trial.  Apart from SSVEP, every modality's matrix is the covariance of a
super-trial, built by :func:`super_trial_cov` from stacked row groups;
the modalities differ only in which rows they stack:

* motor imagery: the trial alone, i.e. the plain spatial sample covariance;
* ERP / P300: the per-class temporal prototypes (two-class P300: the
  target prototype only) above the trial, whose cross blocks carry the
  temporal correlation between trial and prototype;
* multi-user P300: one shared prototype above every subject's trial,
  including the inter-subject cross blocks;
* SSVEP: a block-diagonal matrix of per-frequency-band covariances.

Super-trial covariances are rank-deficient whenever the stacked dimension
exceeds the sample count, so shrinkage toward a scaled identity is applied
to guarantee positive definiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContractError, NotPositiveDefiniteError
from . import preprocessing
from .preprocessing import (
    BandSpec,
    Epoch,
    SSVEP_BAND_ORDER,
    SSVEP_BAND_WIDTH_HZ,
    _stacked_data,
)
from .spd import SpdMatrix, checked_rows

MI = "mi"
ERP_MULTI = "erp_multi"
P300 = "p300"
SSVEP = "ssvep"
MU_P300 = "mu_p300"
MODALITIES = (MI, ERP_MULTI, P300, SSVEP, MU_P300)

AUTO_SHRINKAGE_LADDER = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1)

# Recommended fixed shrinkage for ERP super-trial features: on 50-trial
# P300 sets the 'auto' floor leaves condition numbers of 1e4-5e6 (median
# 4e4), and 1e-2 keeps them near 1e3 without measurably hurting
# classification.  The geometric mean of such a set costs about the same
# at either level: four stacked evaluations of its 50 matrices.
DEFAULT_ERP_SHRINKAGE = 1e-2


@dataclass(frozen=True, eq=False)
class Prototype:
    """Grand-average ERP of one class: the temporal template rows of a super-trial."""

    data: np.ndarray
    class_id: int
    n_epochs: int

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64)
        if a.ndim != 2:
            raise ContractError(f"prototype must be 2-D, got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "data", a)


@dataclass(frozen=True)
class FeatureRecipe:
    """Which feature matrix to build, and everything needed to build it."""

    modality: str
    prototypes: tuple[Prototype, ...] = ()
    freqs: tuple[float, ...] = ()
    width_hz: float = SSVEP_BAND_WIDTH_HZ
    order: int = SSVEP_BAND_ORDER
    shrinkage: float | str = "auto"
    n_subjects: int = 1

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ContractError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "prototypes", tuple(self.prototypes))
        object.__setattr__(self, "freqs", tuple(float(f) for f in self.freqs))
        _validate_shrinkage(self.shrinkage)
        if self.modality in (ERP_MULTI, P300, MU_P300) and not self.prototypes:
            raise ContractError(f"modality {self.modality!r} requires prototypes")
        if self.modality in (MI, SSVEP) and self.prototypes:
            raise ContractError(f"modality {self.modality!r} takes no prototypes")
        if self.modality in (P300, MU_P300) and len(self.prototypes) != 1:
            raise ContractError(
                f"modality {self.modality!r} takes exactly one target prototype"
            )
        if self.modality == SSVEP and not self.freqs:
            raise ContractError("ssvep modality requires flicker frequencies")
        band = (self.width_hz, self.order) != (SSVEP_BAND_WIDTH_HZ, SSVEP_BAND_ORDER)
        if self.modality != SSVEP and (self.freqs or band):
            raise ContractError(f"modality {self.modality!r} takes no freqs, width_hz or order")
        if len(set(self.freqs)) != len(self.freqs):
            raise ContractError(f"freqs must be distinct, got {list(self.freqs)}")
        if self.n_subjects < 1 or (self.n_subjects != 1 and self.modality != MU_P300):
            raise ContractError(
                f"n_subjects must be >= 1 for {MU_P300!r} and 1 otherwise, "
                f"got {self.n_subjects} for modality {self.modality!r}"
            )


def _validate_shrinkage(gamma) -> None:
    if gamma == "auto":
        return
    number = isinstance(gamma, (int, float)) and not isinstance(gamma, bool)
    if not number or not 0.0 <= float(gamma) <= 1.0:
        raise ContractError(f"shrinkage must be in [0, 1] or 'auto', got {gamma!r}")


def shrink(c: SpdMatrix | np.ndarray, gamma: float | str) -> SpdMatrix | list[SpdMatrix]:
    """Blend toward the scaled identity: (1 - g) C + g (trace(C)/dim) I.

    ``gamma='auto'`` picks the smallest value from the ladder
    (1e-8, 1e-6, 1e-4, 1e-2, 1e-1) that yields a matrix passing the SPD
    check; gamma=0 returns C unchanged (C must already be SPD).  A
    (k, dim, dim) stack C gives a list of k, each at its own level.
    """
    values = c.values if isinstance(c, SpdMatrix) else np.asarray(c, float)
    if values.ndim not in (2, 3) or values.shape[-1] != values.shape[-2]:
        raise ContractError(f"expected square matrices, got shape {values.shape}")
    return _shrunk(values, 1, gamma, False)


def _shrunk(
    raw: np.ndarray, bands: int, gamma: float | str, gram: bool
) -> SpdMatrix | list[SpdMatrix]:
    """``SpdMatrix`` of the blend (1 - g) C + g T of ``raw``, one matrix C or
    a (k, dim, dim) stack (a list of k), at g = gamma, or for ``'auto'`` at
    the smallest ladder level g whose blend passes the SPD check; only the
    matrices that fail a level try the next.  T is diagonal: each of C's
    ``bands`` equal diagonal blocks blends toward its own trace / size.

    A ``gram`` C is positive semidefinite, so a blend's eigenvalues lie in
    [g min T, trace C] (Ledoit & Wolf's blend form, J. Multivariate Anal.
    88(2), 2004), the bounds :func:`spd.checked_rows` takes in place of
    eigenvalues (a floor g / dim for one band); its margin covers the Gram
    product's rounding, T eps trace C, up to about 1e4 dim samples T.
    """
    _validate_shrinkage(gamma)
    stack = raw[None] if raw.ndim == 2 else raw
    k, dim = stack.shape[:2]
    if dim < 1:
        raise ContractError("matrix dimension must be >= 1")
    if not np.isfinite(stack).all():  # refused before any arithmetic can warn
        raise ContractError("matrix entries must be finite")
    n = dim // bands
    traces = stack.diagonal(axis1=1, axis2=2).reshape(k, bands, n).sum(axis=2)
    target, trace = np.repeat(traces / n, n, axis=1), traces.sum(axis=1)
    out, rows = [None] * k, np.arange(k)
    for g in AUTO_SHRINKAGE_LADDER if gamma == "auto" else (float(gamma),):
        blend = stack if g == 0.0 else (1.0 - g) * stack + g * target[:, None, :] * np.eye(dim)
        low = g * target.min(axis=1) if gram else np.zeros(len(stack))
        checked, error = checked_rows(blend, low, trace)
        for row, m in zip(rows.tolist(), checked):
            out[row] = m
        failed = [i for i, m in enumerate(checked) if m is None]
        if not failed:
            return out if raw.ndim == 3 else out[0]
        rows, stack, target, trace = rows[failed], stack[failed], target[failed], trace[failed]
    if gamma != "auto":
        raise error
    raise NotPositiveDefiniteError(
        "no shrinkage level in the auto ladder produced a positive-definite "
        "matrix (is the input identically zero?)"
    ) from error


def _stacked_cov(rows: list[np.ndarray]) -> np.ndarray:
    """Covariance of vertically stacked row groups, built block by block.

    A (channels, T) group is shared by all k super-trials, a (k, channels, T)
    group holds one per super-trial.  Each (i, j) block is rows[i] @ rows[j].T
    so the diagonal blocks are bit-identical to standalone sample covariances.
    """
    edges = list(accumulate((r.shape[-2] for r in rows), initial=0))
    spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
    c = np.empty(max(r.shape[:-2] for r in rows) + (edges[-1], edges[-1]))
    for i, a in enumerate(rows):
        for j, b in enumerate(rows[: i + 1]):
            c[..., spans[i], spans[j]] = block = a @ b.swapaxes(-1, -2)
            c[..., spans[j], spans[i]] = block.swapaxes(-1, -2)
    c /= rows[0].shape[-1] - 1
    return 0.5 * (c + c.swapaxes(-1, -2))


def super_trial_cov(
    rows: list[np.ndarray], shrinkage: float | str
) -> SpdMatrix | list[SpdMatrix]:
    """Shrunk covariance X X^T / (T - 1) of the super-trial X = [rows; ...].

    Every row group is a zero-mean (channels, T) array over the same T
    samples, stacked top to bottom; a single group gives the plain spatial
    sample covariance.  Groups stacked as (k, channels, T) give a list of k.
    The SPD check of each is decided as :func:`_shrunk` decides a Gram
    blend's.
    """
    counts = [r.shape[-1] for r in rows]
    if len(set(counts)) > 1:
        raise ContractError(f"super-trial rows must share one sample count, got {counts}")
    if counts[0] < 2:
        raise ContractError("sample covariance needs at least 2 samples")
    return _shrunk(_stacked_cov(rows), 1, shrinkage, True)


def by_class(epochs: list[Epoch]) -> dict[int, list[Epoch]]:
    """The labeled ``epochs`` grouped by label, in ascending class id, each
    group in input order."""
    groups: dict[int, list[Epoch]] = {}
    for e in epochs:
        if e.label is not None:
            groups.setdefault(e.label, []).append(e)
    return dict(sorted(groups.items()))


def build_prototypes(training: list[Epoch], class_ids: list[int]) -> list[Prototype]:
    """Element-wise mean epoch per class, in ascending class-id order.

    The labeled epochs must share one shape and sampling rate.
    """
    groups = by_class(training)
    if not groups:
        raise ContractError("no labeled epochs to build prototypes from")
    data = _stacked_data([e for g in groups.values() for e in g], "prototype")
    starts = dict(zip(groups, accumulate((len(g) for g in groups.values()), initial=0)))
    protos = []
    for z in sorted(class_ids):
        if z not in groups:
            raise ContractError(f"no training epochs for class {z}")
        members = data[starts[z] : starts[z] + len(groups[z])]
        protos.append(Prototype(data=np.mean(members, axis=0), class_id=z, n_epochs=len(members)))
    return protos


def ssvep_block_cov(bank: list[Epoch], shrinkage: float | str = "auto") -> SpdMatrix:
    """Block-diagonal NF x NF covariance over a filter-bank output.

    Diagonal blocks are the per-band sample covariances, each blended
    toward its own scaled identity at one shared gamma; off-diagonal blocks
    are exactly zero.  The assembled matrix is checked once.
    """
    if not bank or len({b.data.shape for b in bank}) > 1:
        raise ContractError("ssvep feature requires a nonempty filter bank of one shape")
    return _block_cov([b.data[None] for b in bank], shrinkage)[0]


def _block_cov(bands: list[np.ndarray], shrinkage: float | str) -> list[SpdMatrix]:
    """:func:`ssvep_block_cov` of k epochs at once, each band a (k, n, T) stack."""
    k, n = bands[0].shape[:2]
    raw = np.zeros((k, n * len(bands), n * len(bands)))
    for i, b in enumerate(bands):
        raw[:, i * n : (i + 1) * n, i * n : (i + 1) * n] = _stacked_cov([b])
    # 'auto' takes one ladder level for all bands: the smallest gamma that
    # makes the assembled matrix positive definite, so weak bands get a
    # floor commensurate with the global eigenvalue check.
    return _shrunk(raw, len(bands), shrinkage, True)


def build_recipe(modality: str, training: list[Epoch] | None = None, **fields) -> FeatureRecipe:
    """``FeatureRecipe(modality, prototypes=..., **fields)``, its prototypes
    derived from the labeled ``training`` epochs.

    One rule: ERP_MULTI takes every class's grand average, P300 only the
    highest class id's (the target); both need at least two labeled
    classes.  MU_P300 is refused, as epochs cannot say how their channels
    split into subjects.
    """
    if modality == MU_P300:
        raise ContractError(
            f"{MU_P300} recipe needs the subject count: build "
            f"FeatureRecipe({MU_P300!r}, prototypes=..., n_subjects=...)"
        )
    prototypes: list[Prototype] = []
    if modality in (ERP_MULTI, P300):
        class_ids = list(by_class(training or []))
        if len(class_ids) < 2:
            raise ContractError(
                f"{modality} recipe needs training epochs of at least two labeled "
                f"classes, got {len(class_ids)}"
            )
        prototypes = build_prototypes(training, class_ids[-1:] if modality == P300 else class_ids)
    return FeatureRecipe(modality, prototypes=prototypes, **fields)


def featurize(epochs: list[Epoch], recipe: FeatureRecipe) -> list[SpdMatrix]:
    """Build the recipe's feature matrix for each (preprocessed) epoch.

    The epochs share one shape and sampling rate and are featurized as one
    stack; one epoch is a stack of one.  Apart from SSVEP, the feature is one
    super-trial: the recipe's prototypes stacked in ascending class id (none
    for motor imagery), then the epoch's ``n_subjects`` equal channel groups,
    one trial per subject.  Prototype blocks are constant across trials, the
    cross blocks carry what discriminates the classes.
    """
    if not epochs:
        return []
    if recipe.modality == SSVEP:
        w = recipe.width_hz / 2.0
        # one bandpass per band, through the preprocessing binding perfbench/tracer.py wraps
        bands = [
            preprocessing.bandpass(epochs, BandSpec(f - w, f + w, recipe.order))
            for f in recipe.freqs
        ]
        return _block_cov([_stacked_data(b, "band-passed") for b in bands], recipe.shrinkage)
    data = _stacked_data(epochs, "featurized")
    shape = data.shape[1:]
    m = recipe.n_subjects
    n = shape[0] // m
    if n * m != shape[0]:
        raise ContractError(
            f"epoch of {shape[0]} channels does not split into {m} subjects"
        )
    trials = [data[:, i * n : (i + 1) * n] for i in range(m)]
    protos = sorted(recipe.prototypes, key=lambda p: p.class_id)
    for p in protos:
        if p.data.shape != (n, shape[1]):
            raise ContractError(
                f"prototype for class {p.class_id} has shape {p.data.shape}, "
                f"trial has {(n, shape[1])}"
            )
    head = [np.concatenate([p.data for p in protos])] if protos else []
    return super_trial_cov(head + trials, recipe.shrinkage)
