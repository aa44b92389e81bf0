"""Offline replay of P300 selection sessions with the NRD metric.

A level presents a fixed set of items; every repetition yields one epoch
per item (in the game each item is flashed twice and the two flash epochs
are averaged).  After each repetition the classifier selects the item
whose cumulated distance contrast over all repetitions so far is most
target-like; the level ends when the selection hits the target, and the
repetition count at that point is the NRD (number of repetitions needed
to destroy the target).

In adaptive mode the repetition's labeled epochs are absorbed into the
individual classifier only after its selection has been used, so the
reported performance is never biased by the data it is tested on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import mdm as mdm_mod
from .adaptive import DEFAULT_RAMP, FusedClassifier
from .datasets import SyntheticSpec, generate_p300, p300_trial, _mixing
from .errors import ContractError
from .features import DEFAULT_ERP_SHRINKAGE, P300, build_recipe
from .mdm import MdmModel, add_repetition, distances
from .preprocessing import Epoch, demean

ADAPTIVE = "adaptive"
NON_ADAPTIVE = "non-adaptive"

DEFAULT_MAX_REPETITIONS = 8


@dataclass(frozen=True)
class LevelSpec:
    """One level: a target item and a deterministic per-repetition source.

    ``epoch_source(rep_index)`` returns one epoch per item id, the average
    of that item's two flashes for that repetition.
    """

    target: int
    epoch_source: Callable[[int], dict[int, Epoch]]
    n_items: int
    max_repetitions: int = DEFAULT_MAX_REPETITIONS

    def __post_init__(self):
        if self.n_items < 2:
            raise ContractError(f"a level needs >= 2 items, got {self.n_items}")
        if not 0 <= self.target < self.n_items:
            raise ContractError(
                f"target {self.target} outside item range 0..{self.n_items - 1}"
            )
        if self.max_repetitions < 1:
            raise ContractError("max_repetitions must be >= 1")


@dataclass(frozen=True)
class LevelResult:
    nrd: int
    solved: bool
    selections: tuple[int, ...]
    mode: str
    target: int


@dataclass(frozen=True)
class SessionSummary:
    nrds: tuple[int, ...]
    mean_nrd: float
    nrd_slope: float
    solved_levels: int


def run_level(spec: LevelSpec, clf, mode: str) -> LevelResult:
    """Play one level to completion or to the repetition cap.

    Cumulated scores are accumulated repetition by repetition, which for a
    fixed model reproduces a from-scratch recomputation exactly; for a
    fused classifier each repetition is scored with the state the
    classifier had at that moment, as in online operation.
    """
    if mode not in (ADAPTIVE, NON_ADAPTIVE):
        raise ContractError(f"unknown mode {mode!r}")
    fused = isinstance(clf, FusedClassifier)
    if mode == ADAPTIVE and not fused:
        raise ContractError("adaptive mode needs a FusedClassifier")
    class_ids = clf.generic.class_ids if fused else clf.class_ids
    score = clf.fused_distances if fused else partial(distances, clf)
    cumulative: dict[int, float] = {}
    selections: list[int] = []
    solved = False
    nrd = spec.max_repetitions
    for rep in range(spec.max_repetitions):
        epochs_by_item = spec.epoch_source(rep)
        if len(epochs_by_item) != spec.n_items:
            raise ContractError(
                f"source yielded {len(epochs_by_item)} items for a "
                f"{spec.n_items}-item level"
            )
        selected = add_repetition(cumulative, epochs_by_item, score)
        selections.append(selected)
        if mode == ADAPTIVE:
            # supervised update, applied only after the selection was used
            for item in cumulative:
                label = max(class_ids) if item == spec.target else min(class_ids)
                clf.absorb(
                    epochs_by_item[item], label, rep_increment=1.0 / spec.n_items
                )
        if selected == spec.target:
            solved = True
            nrd = rep + 1
            break
    return LevelResult(
        nrd=nrd,
        solved=solved,
        selections=tuple(selections),
        mode=mode,
        target=spec.target,
    )


def run_session(
    levels: list[LevelSpec], clf, mode: str
) -> tuple[list[LevelResult], SessionSummary]:
    """Play levels in order; adaptive state persists across levels."""
    results = [run_level(spec, clf, mode) for spec in levels]
    nrds = np.array([r.nrd for r in results], dtype=float)
    slope = (
        float(np.polyfit(np.arange(len(nrds)), nrds, 1)[0]) if len(nrds) >= 2 else 0.0
    )
    summary = SessionSummary(
        nrds=tuple(int(n) for n in nrds),
        mean_nrd=float(nrds.mean()),
        nrd_slope=slope,
        solved_levels=sum(r.solved for r in results),
    )
    return results, summary


@dataclass(frozen=True)
class ModeComparison:
    adaptive_results: tuple[LevelResult, ...]
    adaptive_summary: SessionSummary
    non_adaptive_results: tuple[LevelResult, ...]
    non_adaptive_summary: SessionSummary


def compare_modes(
    levels: list[LevelSpec],
    generic: MdmModel,
    training: list[Epoch],
    shrinkage: float | str = DEFAULT_ERP_SHRINKAGE,
    ramp: int = DEFAULT_RAMP,
) -> ModeComparison:
    """Paired run of both modes over identical level specs.

    The epoch sources must be deterministic so both modes replay the same
    stream.  Non-adaptive is the classic setting: a model calibrated on
    the subject's own training run (prototypes included).  Adaptive starts
    from the generic model with no individual data at all.
    """
    recipe = build_recipe(P300, training=training, shrinkage=shrinkage)
    trained = mdm_mod.fit(training, recipe)
    adaptive_clf = FusedClassifier(generic=generic, ramp=ramp)
    adaptive_results, adaptive_summary = run_session(levels, adaptive_clf, ADAPTIVE)
    non_adaptive_results, non_adaptive_summary = run_session(
        levels, trained, NON_ADAPTIVE
    )
    return ModeComparison(
        adaptive_results=tuple(adaptive_results),
        adaptive_summary=adaptive_summary,
        non_adaptive_results=tuple(non_adaptive_results),
        non_adaptive_summary=non_adaptive_summary,
    )


CSV_COLUMNS = ("session", "level", "mode", "repetition", "selected", "target", "nrd")


def write_session_csv(path, rows: list[dict]) -> None:
    """Emit per-repetition rows with the fixed column set for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def session_rows(
    session: int, results: list[LevelResult] | tuple[LevelResult, ...]
) -> list[dict]:
    rows = []
    for level, result in enumerate(results):
        for rep, selected in enumerate(result.selections):
            rows.append(
                {
                    "session": session,
                    "level": level,
                    "mode": result.mode,
                    "repetition": rep + 1,
                    "selected": selected,
                    "target": result.target,
                    "nrd": result.nrd,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# synthetic sessions


GENERIC_SHIFT_S = 0.20
GENERIC_GAIN_CENTER = 0.10
GENERIC_SNR_SCALE = 0.4
GENERIC_TRIALS = 6
TRAINING_TRIALS = 40
RUN_SEED = 202


@dataclass(frozen=True)
class SyntheticSessionConfig:
    """Geometry and difficulty of a synthetic selection session.

    The subject's epochs follow ``subject``.  The generic model is
    deliberately mismatched: fitted on ``GENERIC_TRIALS`` per class of a
    world with shifted response latency and scalp profile and a weaker
    response (``GENERIC_SHIFT_S``, ``GENERIC_GAIN_CENTER``,
    ``GENERIC_SNR_SCALE``), emulating a rough cross-subject transfer for a
    naive user (its stand-alone mean NRD is around 4 to 5, against about
    1.5 for a model calibrated on the subject's own ``TRAINING_TRIALS`` per
    class).  Both training runs are generated with ``RUN_SEED``.
    """

    n_items: int = 12
    n_levels: int = 12
    max_repetitions: int = DEFAULT_MAX_REPETITIONS
    subject: SyntheticSpec = field(
        default_factory=lambda: SyntheticSpec(
            n_channels=6, n_samples=96, fs=96.0, snr=0.85
        )
    )
    ramp: int = DEFAULT_RAMP
    shrinkage: float = DEFAULT_ERP_SHRINKAGE

    def __post_init__(self):
        if self.n_items < 2:
            raise ContractError(f"n_items must be >= 2, got {self.n_items}")
        if self.n_levels < 1:
            raise ContractError(f"n_levels must be >= 1, got {self.n_levels}")


def synthetic_generic_model(config: SyntheticSessionConfig) -> MdmModel:
    """Fit the mismatched generic model for a synthetic session."""
    subject = config.subject
    spec = replace(
        subject,
        latency_s=subject.latency_s + GENERIC_SHIFT_S,
        gain_center=GENERIC_GAIN_CENTER,
        snr=subject.snr * GENERIC_SNR_SCALE,
        trials_per_class=GENERIC_TRIALS,
        seed=RUN_SEED,
    )
    epochs, _ = generate_p300(spec)
    train = [demean(e) for e in epochs]
    recipe = build_recipe(P300, training=train, shrinkage=config.shrinkage)
    return mdm_mod.fit(train, recipe)


def synthetic_training_run(config: SyntheticSessionConfig) -> list[Epoch]:
    """The subject's own calibration epochs for the non-adaptive mode."""
    spec = replace(config.subject, trials_per_class=TRAINING_TRIALS, seed=RUN_SEED)
    epochs, _ = generate_p300(spec)
    return [demean(e) for e in epochs]


def make_level_specs(
    config: SyntheticSessionConfig, session_seed: int
) -> list[LevelSpec]:
    """Deterministic level specs: epochs are pure functions of
    (session_seed, level, repetition), so paired mode runs replay
    identical streams."""
    subject = config.subject
    mixing = _mixing(subject.n_channels)
    level_rng = np.random.default_rng([session_seed, 979])
    targets = [
        int(level_rng.integers(0, config.n_items)) for _ in range(config.n_levels)
    ]

    def source_for(level: int) -> Callable[[int], dict[int, Epoch]]:
        def source(rep: int) -> dict[int, Epoch]:
            rng = np.random.default_rng([session_seed, level, rep])
            epochs = {}
            for item in range(config.n_items):
                is_target = item == targets[level]
                flashes = [
                    p300_trial(rng, subject, is_target, mixing).data
                    for _ in range(2)
                ]
                averaged = 0.5 * (flashes[0] + flashes[1])
                epochs[item] = demean(
                    Epoch(averaged, fs=subject.fs, label=1 if is_target else 0)
                )
            return epochs

        return source

    return [
        LevelSpec(
            target=targets[level],
            epoch_source=source_for(level),
            n_items=config.n_items,
            max_repetitions=config.max_repetitions,
        )
        for level in range(config.n_levels)
    ]
