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
reported performance is never biased by the data it is tested on.  Each
repetition's item epochs are featurized as one stack, the stack is scored
in one call, and in adaptive mode its features are then absorbed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from . import mdm as mdm_mod
from .adaptive import DEFAULT_RAMP, FusedClassifier
from .datasets import SyntheticSpec, generate_p300, p300_trial, _mixing
from .errors import ContractError
from .features import DEFAULT_ERP_SHRINKAGE, P300, build_recipe
from .mdm import MdmModel, add_repetition, feature_distances
from .preprocessing import Epoch, _demeaned, demean
# Unused here, but perfbench/tracer.py wraps the simulator.distances binding.
from .mdm import distances  # noqa: F401

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
    """One level as played; its NRD and outcome are read from the selections."""

    selections: tuple[int, ...]
    mode: str
    target: int

    @property
    def nrd(self) -> int:
        return len(self.selections)

    @property
    def solved(self) -> bool:
        return self.selections[-1] == self.target


@dataclass(frozen=True)
class SessionSummary:
    nrds: tuple[int, ...]
    mean_nrd: float
    nrd_slope: float


def run_level(spec: LevelSpec, clf, mode: str) -> LevelResult:
    """Play one level to completion or to the repetition cap.

    Cumulated scores are accumulated repetition by repetition, which for a
    fixed model reproduces a from-scratch recomputation exactly; for a
    fused classifier each repetition is scored with the state the
    classifier had at that moment, as in online operation.
    """
    if mode not in (ADAPTIVE, NON_ADAPTIVE):
        raise ContractError(f"unknown mode {mode!r}")
    if isinstance(clf, FusedClassifier):
        model, score = clf.generic, clf.fused_distances
    elif mode == ADAPTIVE:
        raise ContractError("adaptive mode needs a FusedClassifier")
    else:
        model, score = clf, partial(feature_distances, clf)
    cumulative: dict[int, float] = {}
    selections: list[int] = []
    for rep in range(spec.max_repetitions):
        epochs_by_item = spec.epoch_source(rep)
        if len(epochs_by_item) != spec.n_items:
            raise ContractError(
                f"source yielded {len(epochs_by_item)} items for a "
                f"{spec.n_items}-item level"
            )
        # one featurize per repetition, through the mdm binding perfbench/tracer.py
        # wraps; the stack of features is scored in one call, then absorbed
        items = sorted(epochs_by_item)
        feats = mdm_mod.featurize([epochs_by_item[i] for i in items], model.recipe)
        selections.append(add_repetition(cumulative, dict(zip(items, score(feats)))))
        if mode == ADAPTIVE:
            # supervised update, applied only after the selection was used
            for item, feat in zip(items, feats):
                label = model.class_ids[-1] if item == spec.target else model.class_ids[0]
                clf.absorb(feat, label, rep_increment=1.0 / spec.n_items)
        if selections[-1] == spec.target:
            break
    return LevelResult(selections=tuple(selections), mode=mode, target=spec.target)


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
    )
    return results, summary


def _replay_levels(
    levels: list[LevelSpec], modes: tuple[str, ...], generic, trained, ramp: int
) -> Iterator[tuple[str, list[LevelResult], SessionSummary]]:
    """Replay the same levels once per mode, in order, yielding
    ``(mode, results, summary)``: each adaptive replay starts a fresh fused
    classifier from ``generic``; non-adaptive ones share ``trained``."""
    for mode in modes:
        clf = FusedClassifier(generic=generic, ramp=ramp) if mode == ADAPTIVE else trained
        yield (mode, *run_session(levels, clf, mode))


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
    """Paired run of both modes over identical level specs, adaptive first:
    one seed's pass of :func:`replay_sessions`.

    The epoch sources must be deterministic so both modes replay the same
    stream.  Non-adaptive is the classic setting: a model calibrated on
    the subject's own training run (prototypes included).  Adaptive starts
    from the generic model with no individual data at all.
    """
    trained = calibrated_model(training, shrinkage)
    replays = _replay_levels(levels, (ADAPTIVE, NON_ADAPTIVE), generic, trained, ramp)
    (_, adaptive, adaptive_summary), (_, static, static_summary) = replays
    return ModeComparison(tuple(adaptive), adaptive_summary, tuple(static), static_summary)


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
    # both models' shrinkage; a class constant, not a field
    shrinkage = DEFAULT_ERP_SHRINKAGE

    def __post_init__(self):
        if self.n_items < 2:
            raise ContractError(f"n_items must be >= 2, got {self.n_items}")
        if self.n_levels < 1:
            raise ContractError(f"n_levels must be >= 1, got {self.n_levels}")
        if self.ramp < 1:
            raise ContractError(f"ramp must be >= 1, got {self.ramp}")


def calibrated_model(run: list[Epoch], shrinkage: float | str) -> MdmModel:
    """An MDM model calibrated on one labeled P300 run, prototypes included."""
    return mdm_mod.fit(run, build_recipe(P300, training=run, shrinkage=shrinkage))


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
    if not spec.latency_s * spec.fs <= spec.n_samples - 1:
        raise ContractError(
            f"{spec.n_samples} samples at {spec.fs} Hz end before a {spec.latency_s} s "
            f"latency: the generic model's response is shifted GENERIC_SHIFT_S = "
            f"{GENERIC_SHIFT_S} s after the subject's and needs the longer epoch"
        )
    epochs, _ = generate_p300(spec)
    return calibrated_model(demean(epochs), config.shrinkage)


def synthetic_training_run(config: SyntheticSessionConfig) -> list[Epoch]:
    """The subject's own calibration epochs for the non-adaptive mode."""
    spec = replace(config.subject, trials_per_class=TRAINING_TRIALS, seed=RUN_SEED)
    epochs, _ = generate_p300(spec)
    return demean(epochs)


def make_level_specs(
    config: SyntheticSessionConfig, session_seed: int
) -> list[LevelSpec]:
    """Deterministic level specs: epochs are pure functions of
    (session_seed, level, repetition), so paired mode runs replay
    identical streams."""
    if session_seed < 0:
        raise ContractError(f"session_seed must be >= 0, got {session_seed}")
    subject = config.subject
    mixing = _mixing(subject.n_channels)
    level_rng = np.random.default_rng([session_seed, 979])
    targets = [
        int(level_rng.integers(0, config.n_items)) for _ in range(config.n_levels)
    ]

    def source_for(level: int) -> Callable[[int], dict[int, Epoch]]:
        def source(rep: int) -> dict[int, Epoch]:
            rng = np.random.default_rng([session_seed, level, rep])
            target = targets[level]
            # item-major, flash-minor: both flashes of item 0, then of item 1, ...
            flags = [item == target for item in range(config.n_items) for _ in range(2)]
            flashes = p300_trial(rng, subject, flags, mixing)
            averaged = _demeaned(0.5 * (flashes[0::2] + flashes[1::2]))
            labels = [int(item == target) for item in range(config.n_items)]
            return dict(enumerate(Epoch._rows(averaged, subject.fs, labels, ())))

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


def replay_sessions(
    config: SyntheticSessionConfig, seed: int, sessions: int, modes: tuple[str, ...]
) -> Iterator[tuple[int, str, list[LevelResult], SessionSummary]]:
    """The paired protocol of ``simulate`` and the adaptation study: yield
    ``(session, mode, results, summary)`` for each of ``sessions`` session
    seeds from ``seed`` on (``session`` counts from 0), and within it for
    each mode in order, all over the same level specs: per seed, the replay
    :func:`compare_modes` makes, with the static model calibrated once on
    the subject's training run.
    """
    if sessions < 1:
        raise ContractError(f"sessions must be >= 1, got {sessions}")
    # every seed is checked before either model is built
    levels = [make_level_specs(config, s) for s in range(seed, seed + sessions)]
    # Each builder draws from its own fixed-seed generator, so building only
    # what the modes use changes no output; an unknown mode fails in run_level.
    generic = trained = None
    if ADAPTIVE in modes:
        generic = synthetic_generic_model(config)
    if NON_ADAPTIVE in modes:
        trained = calibrated_model(synthetic_training_run(config), config.shrinkage)
    for session, specs in enumerate(levels):
        for replay in _replay_levels(specs, modes, generic, trained, config.ramp):
            yield (session, *replay)
