"""Command-line surface binding the pipeline end to end.

Subcommands: ``synth`` (write synthetic epoch files), ``fit`` (train and
save an MDM model), ``eval`` (accuracy/AUC report), ``crossval`` (k-fold
report) and ``simulate`` (paired adaptive / non-adaptive session replay).
Every command is deterministic given its inputs, flags and seed.

Exit codes: 0 success, 2 usage error, 3 data or contract error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import mdm as mdm_mod
from .datasets import (
    SyntheticSpec,
    default_mi_covariances,
    generate_mi,
    generate_p300,
    generate_ssvep,
    load_model,
    read_epochs,
    save_model,
    write_epochs,
)
from .errors import ContractError, NumericError
from .features import MI, P300, SSVEP, build_recipe
from .preprocessing import BandSpec, bandpass, decimate, demean
from .preprocessing import DEFAULT_BAND_ORDER, SSVEP_BAND_ORDER, SSVEP_BAND_WIDTH_HZ
from .simulator import (
    ADAPTIVE,
    NON_ADAPTIVE,
    SyntheticSessionConfig,
    replay_sessions,
    session_rows,
    write_session_csv,
)
from .spd import DEFAULT_MEAN_MAX_ITER
# Unused here, but perfbench/tracer.py wraps the cli.compare_modes binding.
from .simulator import compare_modes  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_shrinkage(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ContractError(f"shrinkage must be a float or 'auto', got {text!r}")


def _preprocess(epochs, args):
    if args.band:
        spec = BandSpec(args.band[0], args.band[1], order=args.band_order)
        epochs = [bandpass(e, spec) for e in epochs]
    if args.decimate_to is not None:
        epochs = [decimate(e, args.decimate_to) for e in epochs]
    return demean(epochs)


def _fit(args, training):
    recipe = build_recipe(
        args.modality,
        training=training,
        shrinkage=_parse_shrinkage(args.shrinkage),
        freqs=tuple(args.freqs) if args.freqs else (),
        width_hz=args.width,
        order=args.order,
    )
    return mdm_mod.fit(training, recipe, tol=args.mean_tol, max_iter=args.mean_max_iter)


def _subject(args, **fields) -> SyntheticSpec:
    """The synthetic subject the ``add_subject_flags`` flags describe."""
    return SyntheticSpec(
        n_channels=args.channels,
        n_samples=args.samples,
        fs=args.fs,
        snr=args.snr,
        **fields,
    )


def cmd_synth(args) -> int:
    spec = _subject(args, trials_per_class=args.trials, seed=args.seed)
    if args.modality == MI:
        covs = default_mi_covariances(spec.n_channels, args.classes)
        epochs = generate_mi(replace(spec, class_covs=covs))
    elif args.modality == P300:
        epochs, _ = generate_p300(spec)
    else:
        epochs = generate_ssvep(replace(spec, freqs=tuple(args.freqs)))
    write_epochs(args.out, epochs, modality=args.modality)
    print(
        f"wrote {len(epochs)} trials ({spec.n_channels} ch x {spec.n_samples} "
        f"samples at {spec.fs} Hz, modality {args.modality}, seed {args.seed}) "
        f"to {args.out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    model = _fit(args, _preprocess(read_epochs(args.input), args))
    save_model(args.out, model)
    counts = ", ".join(
        f"class {z}: {c}" for z, c in zip(model.class_ids, model.counts)
    )
    print(f"fitted {len(model.class_ids)}-class model ({counts}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    epochs = _preprocess(read_epochs(args.input), args)
    labeled = [e for e in epochs if e.label is not None]
    if not labeled:
        raise ContractError("unlabeled test set: no epoch carries a label")
    strays = sorted({e.label for e in labeled} - set(model.class_ids))
    if strays:
        raise ContractError(
            f"labels {strays} are not model class ids {list(model.class_ids)}"
        )
    scored = list(zip(mdm_mod.stack_distances(model, labeled), [e.label for e in labeled]))
    accuracy = float(np.mean([dv.argmin_class() == y for dv, y in scored]))
    rows = [("n_trials", len(labeled)), ("accuracy", accuracy)]
    if model.recipe.modality == P300 and len(model.class_ids) == 2:
        # negated contrasts: higher is more target-like, as the AUC expects
        target = max(model.class_ids)
        pairs = [(-mdm_mod.target_contrast(dv), int(y == target)) for dv, y in scored]
        rows.append(("auc", mdm_mod.auc(pairs)))
    with open(args.report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("metric", "value"))
        writer.writerows(rows)
    for name, value in rows:
        print(f"{name}: {value}")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")


def cmd_crossval(args) -> int:
    _check_seed(args.seed)
    epochs = _preprocess(read_epochs(args.input), args)
    labeled = [e for e in epochs if e.label is not None]
    if args.k < 2:
        raise ContractError(f"k must be >= 2, got {args.k}")
    if args.k > len(labeled):
        raise ContractError(
            f"k={args.k} exceeds the {len(labeled)} labeled trials"
        )
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(labeled))
    folds = np.array_split(order, args.k)
    rows = []
    accuracies = []
    for fold_id, fold in enumerate(folds):
        test_idx = set(int(i) for i in fold)
        train = [e for i, e in enumerate(labeled) if i not in test_idx]
        test = [labeled[i] for i in sorted(test_idx)]
        model = _fit(args, train)
        scored = zip(mdm_mod.stack_distances(model, test), test)
        accuracy = float(np.mean([dv.argmin_class() == e.label for dv, e in scored]))
        accuracies.append(accuracy)
        rows.append((fold_id, len(test), accuracy))
    with open(args.report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("fold", "n_test", "accuracy"))
        writer.writerows(rows)
        writer.writerow(("mean", len(labeled), float(np.mean(accuracies))))
    print(
        f"{args.k}-fold accuracy: mean {np.mean(accuracies):.4f} "
        f"(folds {', '.join(f'{a:.4f}' for a in accuracies)})"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.sessions < 1:
        raise ContractError(f"sessions must be >= 1, got {args.sessions}")
    _check_seed(args.seed)
    config = SyntheticSessionConfig(
        n_items=args.items,
        n_levels=args.levels,
        max_repetitions=args.cap,
        subject=_subject(args),
        ramp=args.ramp,
    )
    modes = (ADAPTIVE, NON_ADAPTIVE) if args.mode == "both" else (args.mode,)
    seeds = range(args.seed, args.seed + args.sessions)
    rows = []
    capped = 0
    for session, _, results, _ in replay_sessions(config, seeds, modes):
        rows += session_rows(session, results)
        capped += sum(not r.solved for r in results)
    write_session_csv(args.out, rows)
    print(
        f"simulated {args.sessions} session(s) x {args.levels} levels "
        f"({args.mode}) -> {args.out}"
    )
    if capped:
        print(f"{capped} level run(s) hit the repetition cap of {args.cap}")
    return EXIT_OK


@cache  # one parser per process: main may run many commands in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemann-bci",
        description="Riemannian minimum-distance-to-mean EEG classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subject_flags(p, subject):
        p.add_argument("--channels", type=int, default=subject.n_channels)
        p.add_argument("--samples", type=int, default=subject.n_samples)
        p.add_argument("--fs", type=float, default=subject.fs)
        p.add_argument("--snr", type=float, default=subject.snr)

    spec = SyntheticSpec()
    synth = sub.add_parser("synth", help="write a synthetic epoch file")
    synth.add_argument("--modality", choices=(MI, P300, SSVEP), required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument(
        "--trials", type=int, default=spec.trials_per_class, help="trials per class"
    )
    synth.add_argument("--classes", type=int, default=2, help="MI class count")
    add_subject_flags(synth, spec)
    synth.add_argument("--freqs", type=float, nargs="+", default=list(spec.freqs))
    synth.add_argument("--seed", type=int, default=spec.seed)
    synth.set_defaults(func=cmd_synth)

    def add_preprocessing_flags(p):
        p.add_argument("--band", type=float, nargs=2, metavar=("LOW", "HIGH"))
        p.add_argument("--band-order", type=int, default=DEFAULT_BAND_ORDER)
        p.add_argument("--decimate-to", type=float)

    def add_pipeline_flags(p):
        p.add_argument("--modality", choices=(MI, P300, SSVEP), required=True)
        add_preprocessing_flags(p)
        p.add_argument("--shrinkage", default="auto")
        p.add_argument("--freqs", type=float, nargs="+")
        p.add_argument("--width", type=float, default=SSVEP_BAND_WIDTH_HZ)
        p.add_argument("--order", type=int, default=SSVEP_BAND_ORDER)
        p.add_argument("--mean-tol", type=float, default=None)
        p.add_argument("--mean-max-iter", type=int, default=DEFAULT_MEAN_MAX_ITER)

    fit = sub.add_parser("fit", help="train an MDM model from an epoch file")
    fit.add_argument("--in", dest="input", required=True)
    fit.add_argument("--out", required=True)
    add_pipeline_flags(fit)
    fit.set_defaults(func=cmd_fit)

    evl = sub.add_parser("eval", help="evaluate a model on an epoch file")
    evl.add_argument("--model", required=True)
    evl.add_argument("--in", dest="input", required=True)
    evl.add_argument("--report", required=True)
    add_preprocessing_flags(evl)
    evl.set_defaults(func=cmd_eval)

    cv = sub.add_parser("crossval", help="k-fold cross-validation report")
    cv.add_argument("--in", dest="input", required=True)
    cv.add_argument("--report", required=True)
    cv.add_argument("--k", type=int, default=8)
    cv.add_argument("--seed", type=int, default=0)
    add_pipeline_flags(cv)
    cv.set_defaults(func=cmd_crossval)

    config = SyntheticSessionConfig()
    sim = sub.add_parser("simulate", help="replay synthetic selection sessions")
    sim.add_argument("--out", required=True)
    sim.add_argument("--mode", choices=(ADAPTIVE, NON_ADAPTIVE, "both"), default="both")
    sim.add_argument("--sessions", type=int, default=1)
    sim.add_argument("--levels", type=int, default=config.n_levels)
    sim.add_argument("--items", type=int, default=config.n_items)
    sim.add_argument("--cap", type=int, default=config.max_repetitions)
    sim.add_argument("--ramp", type=int, default=config.ramp)
    add_subject_flags(sim, config.subject)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
