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
from typing import Callable

import numpy as np

from .errors import ContractError, NotPositiveDefiniteError
from .preprocessing import (
    Epoch,
    SSVEP_BAND_ORDER,
    SSVEP_BAND_WIDTH_HZ,
    ssvep_filter_bank,
)
from .spd import SpdMatrix

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
# classification; the geometric mean of such a set costs about 1.2x more
# at 'auto' than at 1e-2.
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

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


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
        if self.modality in (P300, MU_P300) and len(self.prototypes) != 1:
            raise ContractError(
                f"modality {self.modality!r} takes exactly one target prototype"
            )
        if self.modality == SSVEP and not self.freqs:
            raise ContractError("ssvep modality requires flicker frequencies")
        if len(set(self.freqs)) != len(self.freqs):
            raise ContractError(f"freqs must be distinct, got {list(self.freqs)}")
        if self.modality == MU_P300 and self.n_subjects < 1:
            raise ContractError(f"n_subjects must be >= 1, got {self.n_subjects}")


def _validate_shrinkage(gamma) -> None:
    if gamma == "auto":
        return
    if not isinstance(gamma, (int, float)) or not 0.0 <= float(gamma) <= 1.0:
        raise ContractError(f"shrinkage must be in [0, 1] or 'auto', got {gamma!r}")


def shrink(c: SpdMatrix | np.ndarray, gamma: float | str) -> SpdMatrix:
    """Blend toward the scaled identity: (1 - g) C + g (trace(C)/dim) I.

    ``gamma='auto'`` picks the smallest value from the ladder
    (1e-8, 1e-6, 1e-4, 1e-2, 1e-1) that yields a matrix passing the SPD
    check; gamma=0 returns C unchanged (C must already be SPD).
    """
    values = c.values if isinstance(c, SpdMatrix) else np.asarray(c, float)
    return _shrunk(lambda g: _blend(values, g), gamma)


def _blend(values: np.ndarray, g: float) -> np.ndarray:
    if g == 0.0:
        return values
    target = np.trace(values) / values.shape[0]
    return (1.0 - g) * values + g * target * np.eye(values.shape[0])


def _shrunk(build: Callable[[float], np.ndarray], gamma: float | str) -> SpdMatrix:
    """``SpdMatrix(build(g))`` at g = gamma, or for ``'auto'`` at the
    smallest ladder level g whose result passes the SPD check."""
    if gamma != "auto":
        _validate_shrinkage(gamma)
        return SpdMatrix(build(float(gamma)))
    last_error = None
    for g in AUTO_SHRINKAGE_LADDER:
        try:
            return SpdMatrix(build(g))
        except NotPositiveDefiniteError as exc:
            last_error = exc
    raise NotPositiveDefiniteError(
        "no shrinkage level in the auto ladder produced a positive-definite "
        "matrix (is the input identically zero?)"
    ) from last_error


def _stacked_cov(rows: list[np.ndarray]) -> np.ndarray:
    """Covariance of vertically stacked row groups, built block by block.

    Each (i, j) block is rows[i] @ rows[j].T so that the diagonal blocks are
    bit-identical to the blocks' standalone sample covariances.
    """
    t = rows[0].shape[1]
    n = len(rows)
    blocks: list[list[np.ndarray | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            blocks[i][j] = rows[i] @ rows[j].T
            if j < i:
                blocks[j][i] = blocks[i][j].T
    c = np.block(blocks) / (t - 1)
    return 0.5 * (c + c.T)


def super_trial_cov(rows: list[np.ndarray], shrinkage: float | str) -> SpdMatrix:
    """Shrunk covariance X X^T / (T - 1) of the super-trial X = [rows; ...].

    Every row group is a zero-mean (channels, T) array over the same T
    samples, stacked top to bottom; a single group gives the plain spatial
    sample covariance.
    """
    t = rows[0].shape[1]
    for r in rows:
        if r.shape[1] != t:
            raise ContractError(
                f"super-trial rows must share one sample count, got "
                f"{[r.shape[1] for r in rows]}"
            )
    if t < 2:
        raise ContractError("sample covariance needs at least 2 samples")
    return shrink(_stacked_cov(rows), shrinkage)


def build_prototypes(
    training: list[Epoch], class_ids: list[int] | None = None
) -> list[Prototype]:
    """Element-wise mean epoch per class, in ascending class-id order."""
    labeled = [e for e in training if e.label is not None]
    if not labeled:
        raise ContractError("no labeled epochs to build prototypes from")
    shape = labeled[0].data.shape
    for e in labeled:
        if e.data.shape != shape:
            raise ContractError(
                f"epoch shape {e.data.shape} differs from {shape}"
            )
    available = sorted({e.label for e in labeled})
    wanted = available if class_ids is None else sorted(class_ids)
    protos = []
    for z in wanted:
        members = [e.data for e in labeled if e.label == z]
        if not members:
            raise ContractError(f"no training epochs for class {z}")
        protos.append(
            Prototype(
                data=np.mean(members, axis=0), class_id=z, n_epochs=len(members)
            )
        )
    return protos


def ssvep_block_cov(
    bank: list[Epoch],
    shrinkage: float | str = "auto",
) -> SpdMatrix:
    """Block-diagonal NF x NF covariance over a filter-bank output.

    Diagonal blocks are the per-band sample covariances, each blended
    toward its own scaled identity at one shared gamma; off-diagonal blocks
    are exactly zero.  The assembled matrix is checked once.
    """
    if not bank:
        raise ContractError("ssvep feature requires a nonempty filter bank")
    n = bank[0].n_channels
    t = bank[0].n_samples
    for b in bank:
        if b.n_channels != n or b.n_samples != t:
            raise ContractError("filter-bank epochs must share channel/sample counts")
    raw_blocks = [_stacked_cov([b.data]) for b in bank]

    def build(g: float) -> np.ndarray:
        out = np.zeros((n * len(bank), n * len(bank)))
        for i, raw in enumerate(raw_blocks):
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = _blend(raw, g)
        return out

    # 'auto' takes one ladder level for all bands: the smallest gamma that
    # makes the assembled matrix positive definite, so weak bands get a
    # floor commensurate with the global eigenvalue check.
    return _shrunk(build, shrinkage)


def build_recipe(
    modality: str,
    training: list[Epoch] | None = None,
    shrinkage: float | str = "auto",
    freqs: tuple[float, ...] = (),
    width_hz: float = SSVEP_BAND_WIDTH_HZ,
    order: int = SSVEP_BAND_ORDER,
) -> FeatureRecipe:
    """Assemble a recipe, deriving prototypes from labeled epochs as needed.

    ERP modalities take their temporal prototypes from the training grand
    averages; the two-class P300 forms use only the higher class id (the
    target) as prototype.
    """
    prototypes: tuple[Prototype, ...] = ()
    if modality == ERP_MULTI:
        if not training:
            raise ContractError("erp_multi recipe needs labeled training epochs")
        prototypes = tuple(build_prototypes(training))
    elif modality in (P300, MU_P300):
        if not training:
            raise ContractError(f"{modality} recipe needs labeled training epochs")
        labels = sorted({e.label for e in training if e.label is not None})
        if len(labels) < 2:
            raise ContractError("two-class recipe needs both classes in training")
        prototypes = tuple(build_prototypes(training, class_ids=[labels[-1]]))
    return FeatureRecipe(
        modality=modality,
        prototypes=prototypes,
        freqs=freqs,
        width_hz=width_hz,
        order=order,
        shrinkage=shrinkage,
    )


def featurize(e: Epoch, recipe: FeatureRecipe) -> SpdMatrix:
    """Build the recipe's feature matrix for one (preprocessed) epoch.

    Prototype blocks come first (ascending class id), the trial last; a
    multi-user epoch stacks its subjects' channels and is split into one
    trial per subject.  Prototype blocks are constant across trials, the
    cross blocks carry what discriminates the classes.
    """
    if recipe.modality == SSVEP:
        bank = ssvep_filter_bank(
            e, list(recipe.freqs), width_hz=recipe.width_hz, order=recipe.order
        )
        return ssvep_block_cov(bank, recipe.shrinkage)
    protos = recipe.prototypes
    trials = [e.data]
    if recipe.modality == MU_P300:
        n = protos[0].n_channels
        m = recipe.n_subjects
        if e.n_channels != m * n:
            raise ContractError(
                f"multi-user epoch needs {m} x {n} stacked channels, "
                f"got {e.n_channels}"
            )
        trials = [e.data[i * n : (i + 1) * n] for i in range(m)]
    for p in protos:
        if p.data.shape != trials[0].shape:
            raise ContractError(
                f"prototype for class {p.class_id} has shape {p.data.shape}, "
                f"trial has {trials[0].shape}"
            )
    if recipe.modality == MI:
        rows = trials
    elif recipe.modality == ERP_MULTI:
        ordered = sorted(protos, key=lambda p: p.class_id)
        rows = [np.vstack([p.data for p in ordered])] + trials
    else:  # P300 and MU_P300 stack the target prototype alone
        rows = [protos[0].data] + trials
    return super_trial_cov(rows, recipe.shrinkage)
