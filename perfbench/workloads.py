"""The three benchmark workloads: inputs, one operation, and output checks.

Each workload is a closed loop with one simulated user: the next operation
starts when the previous one ends.  Set-up builds a pool of inputs from the
workload seed; operations cycle through the pool.  ``operate`` is the timed
call into the package; ``check`` runs untimed afterwards, validates the
outputs and returns what the harness records for the operation.

Why these three: each loads a different stage of the one pipeline.

* ``ssvep_curve`` spends ~95% in the Butterworth filter bank (design and
  zero-phase filtering); its geometric means average only 4 matrices.
* ``p300_session`` is the only workload that runs the adaptive classifier
  and the session simulator, with lazy synthetic epoch generation.
* ``erp_calibration`` spends ~83% in the geometric mean (50 matrices per
  class) and is the only one that runs the CLI, epoch files and model JSON.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from riemann_bci import cli, mdm, simulator
from riemann_bci.datasets import SyntheticSpec, generate_p300, generate_ssvep, write_epochs
from riemann_bci.features import DEFAULT_ERP_SHRINKAGE, SSVEP, build_recipe
from riemann_bci.preprocessing import Epoch

from tracer import EPOCH_SOURCE


class CheckFailed(Exception):
    """An operation returned output that fails the workload's check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpResult:
    """What the harness keeps from one checked operation."""

    epochs: int  # epochs handed to the package by the operation
    digest: str  # sha256 of the operation's canonical output
    quality: dict[str, float]
    rep_s: list[float] = field(default_factory=list)


def derive_seeds(seed: int, tag: int, n: int) -> list[int]:
    """``n`` distinct input seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# ssvep_curve


SSVEP_FREQS = (12.0, 15.0, 20.0)
SSVEP_DURATIONS_S = (1, 2, 3, 4, 5, 6)


def crop(e: Epoch, seconds: float) -> Epoch:
    n = int(round(seconds * e.fs))
    return Epoch(e.data[:, :n], fs=e.fs, label=e.label, channels=e.channels)


class Workload:
    """Set-up, timed operation and untimed check of one workload."""

    def use_tracer(self, state, tracer) -> None:
        """Let spans the workload opens itself go to ``tracer`` (None: off)."""


class SsvepCurve(Workload):
    """Acceptance criterion 6 geometry: one subject's 1-6 s accuracy curve."""

    name = "ssvep_curve"
    pool_size = 4
    inputs = (
        "6 ch x 768 samples at 128 Hz; rest + 12/15/20 Hz; 4 train and 4 test "
        "trials per class; snr 0.15; shrinkage 1e-2; one subject per operation"
    )

    def __init__(self, seed: int, pool_size: int | None = None) -> None:
        self.seeds = derive_seeds(seed, 6, 2 * (pool_size or self.pool_size))

    def setup(self, workdir: Path):
        recipe = build_recipe(SSVEP, shrinkage=DEFAULT_ERP_SHRINKAGE, freqs=SSVEP_FREQS)
        subjects = []
        for train_seed, test_seed in zip(self.seeds[::2], self.seeds[1::2]):
            spec = SyntheticSpec(
                n_channels=6, n_samples=768, fs=128.0, trials_per_class=4,
                seed=train_seed, snr=0.15,
            )
            subjects.append((generate_ssvep(spec), generate_ssvep(replace(spec, seed=test_seed))))
        return recipe, subjects

    def operate(self, state, index: int):
        recipe, subjects = state
        train, test = subjects[index]
        predictions = []
        for seconds in SSVEP_DURATIONS_S:
            model = mdm.fit([crop(e, seconds) for e in train], recipe)
            predictions.append([mdm.predict(model, crop(e, seconds)) for e in test])
        return predictions

    def check(self, state, index: int, predictions) -> OpResult:
        _, subjects = state
        train, test = subjects[index]
        labels = [e.label for e in test]
        classes = set(labels)
        require(len(predictions) == len(SSVEP_DURATIONS_S), "curve needs six points")
        accuracies = []
        for row in predictions:
            require(len(row) == len(test), "one prediction per test trial")
            require(all(p in classes for p in row), f"unknown class in {row}")
            accuracies.append(float(np.mean([p == y for p, y in zip(row, labels)])))
        require(all(0.0 <= a <= 1.0 for a in accuracies), f"accuracy {accuracies}")
        return OpResult(
            epochs=len(SSVEP_DURATIONS_S) * (len(train) + len(test)),
            digest=sha256_json({"predictions": predictions, "accuracies": accuracies}),
            quality={"accuracy": float(np.mean(accuracies))},
        )


# ---------------------------------------------------------------------------
# p300_session


class _SourceLog:
    """Timestamps of every level epoch-source call in one operation."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, float, float, int]] = []  # level, call, return, epochs
        self.tracer = None

    def wrap(self, level: int, source):
        def recorded(rep: int):
            fn = source if self.tracer is None else self.tracer.wrap(EPOCH_SOURCE, source)
            start = perf_counter()
            epochs = fn(rep)
            self.calls.append((level, start, perf_counter(), len(epochs)))
            return epochs

        return recorded


class P300Session(Workload):
    """Paired adaptive vs non-adaptive replay of one session seed."""

    name = "p300_session"
    pool_size = 32
    inputs = (
        "default SyntheticSessionConfig: 12 items, 12 levels, cap 8, "
        "6 ch x 96 samples, ramp 40; lazy level epochs; one session per operation"
    )

    def __init__(self, seed: int, pool_size: int | None = None) -> None:
        self.seeds = derive_seeds(seed, 300, pool_size or self.pool_size)

    def setup(self, workdir: Path):
        # As in ``riemann-bci simulate``: the generic model and the training
        # run use the package's fixed seeds; the workload seed picks sessions.
        config = simulator.SyntheticSessionConfig()
        generic = simulator.synthetic_generic_model(config)
        training = simulator.synthetic_training_run(config)
        log = _SourceLog()
        sessions = []
        for s in self.seeds:
            levels = simulator.make_level_specs(config, session_seed=s)
            sessions.append(
                [
                    replace(spec, epoch_source=log.wrap(level, spec.epoch_source))
                    for level, spec in enumerate(levels)
                ]
            )
        return config, generic, training, log, sessions

    def use_tracer(self, state, tracer) -> None:
        state[3].tracer = tracer

    def operate(self, state, index: int):
        config, generic, training, log, sessions = state
        log.calls.clear()
        comparison = simulator.compare_modes(
            sessions[index], generic, training, shrinkage=config.shrinkage, ramp=config.ramp
        )
        return comparison, perf_counter()

    def check(self, state, index: int, outcome) -> OpResult:
        _, _, training, log, sessions = state
        comparison, returned = outcome
        levels = sessions[index]
        runs = (
            ("adaptive", comparison.adaptive_results, comparison.adaptive_summary),
            ("non-adaptive", comparison.non_adaptive_results, comparison.non_adaptive_summary),
        )
        for mode, results, summary in runs:
            require(len(results) == len(levels), f"{mode}: one result per level")
            for spec, r in zip(levels, results):
                sel = r.selections
                require(r.mode == mode and r.target == spec.target, f"{mode}: level mix-up")
                require(
                    all(isinstance(s, int) and 0 <= s < spec.n_items for s in sel),
                    f"{mode}: invalid item id in {sel}",
                )
                require(r.nrd == len(sel), f"{mode}: nrd {r.nrd} vs {len(sel)} selections")
                require(spec.target not in sel[:-1], f"{mode}: level ran past its target")
                require(
                    r.solved == (sel[-1] == spec.target), f"{mode}: solved flag vs selections"
                )
                require(
                    r.solved or r.nrd == spec.max_repetitions, f"{mode}: stopped before the cap"
                )
            require(summary.nrds == tuple(r.nrd for r in results), f"{mode}: summary nrds")

        # The adaptive session replays every level first, then the
        # non-adaptive one starts again at level 0.
        calls = log.calls
        n_adaptive = next(
            (i for i in range(1, len(calls)) if calls[i][0] < calls[i - 1][0]), len(calls)
        )
        require(
            n_adaptive == sum(r.nrd for r in comparison.adaptive_results)
            and len(calls) - n_adaptive == sum(r.nrd for r in comparison.non_adaptive_results),
            "epoch-source calls do not match the repetitions played",
        )
        # A repetition runs from the return of one source call to the next
        # call; the last adaptive one ends when the non-adaptive replay asks
        # for its first epochs (a run_session summary later than run_level).
        ends = [c[1] for c in calls[1:]] + [returned]
        rep_s = [ends[i] - calls[i][2] for i in range(n_adaptive)]
        doc = {
            mode: [list(r.selections) for r in results] for mode, results, _ in runs
        }
        return OpResult(
            epochs=len(training) + sum(c[3] for c in calls),
            digest=sha256_json(doc),
            quality={
                "nrd_adaptive": comparison.adaptive_summary.mean_nrd,
                "nrd_static": comparison.non_adaptive_summary.mean_nrd,
            },
            rep_s=rep_s,
        )


# ---------------------------------------------------------------------------
# erp_calibration


TRIALS_PER_CLASS = 50


class ErpCalibration(Workload):
    """``fit --shrinkage auto`` then ``eval`` through ``cli.main``, in process."""

    name = "erp_calibration"
    pool_size = 8
    inputs = (
        "criterion 5 geometry: 8 ch x 128 samples at 128 Hz, 50 trials per class, "
        "snr 0.9; one training file and one held-out file per operation"
    )

    def __init__(self, seed: int, pool_size: int | None = None) -> None:
        self.seeds = derive_seeds(seed, 5, 2 * (pool_size or self.pool_size))

    def setup(self, workdir: Path):
        pairs = []
        for i, (train_seed, test_seed) in enumerate(zip(self.seeds[::2], self.seeds[1::2])):
            spec = SyntheticSpec(trials_per_class=TRIALS_PER_CLASS, seed=train_seed)
            train, test = workdir / f"train{i}.dat", workdir / f"test{i}.dat"
            write_epochs(train, generate_p300(spec)[0], modality="p300")
            write_epochs(test, generate_p300(replace(spec, seed=test_seed))[0], modality="p300")
            pairs.append((train, test, workdir / f"model{i}.json", workdir / f"report{i}.csv"))
        return pairs

    def operate(self, state, index: int):
        train, test, model, report = (str(p) for p in state[index])
        with contextlib.redirect_stdout(io.StringIO()):
            fit_rc = cli.main(
                ["fit", "--modality", "p300", "--shrinkage", "auto",
                 "--in", train, "--out", model]
            )
            eval_rc = cli.main(["eval", "--model", model, "--in", test, "--report", report])
        return fit_rc, eval_rc

    def check(self, state, index: int, codes) -> OpResult:
        _, _, model, report = state[index]
        require(codes == (0, 0), f"exit codes {codes}")
        text = report.read_text()
        model_bytes = model.read_bytes()
        report.unlink()
        model.unlink()
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[:1] == [["metric", "value"]], f"report header {rows[:1]}")
        values = {k: float(v) for k, v in rows[1:]}
        require(set(values) == {"n_trials", "accuracy", "auc"}, f"report rows {rows}")
        require(values["n_trials"] == 2 * TRIALS_PER_CLASS, f"n_trials {values['n_trials']}")
        require(0.0 <= values["accuracy"] <= 1.0, f"accuracy {values['accuracy']}")
        require(0.0 <= values["auc"] <= 1.0, f"auc {values['auc']}")
        digest = hashlib.sha256(text.encode() + model_bytes).hexdigest()
        return OpResult(epochs=4 * TRIALS_PER_CLASS, digest=digest, quality={"auc": values["auc"]})


WORKLOADS = {w.name: w for w in (SsvepCurve, P300Session, ErpCalibration)}
