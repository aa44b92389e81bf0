"""Classification accuracy of the frequency-band features versus segment
duration, averaged over seeded synthetic subjects.

Usage: python scripts/ssvep_duration_curve.py [--snr 0.15] [--seeds 50]
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from riemann_bci import ContractError, mdm
from riemann_bci.cli import run
from riemann_bci.datasets import SyntheticSpec, generate_ssvep
from riemann_bci.features import DEFAULT_ERP_SHRINKAGE, SSVEP, build_recipe
from riemann_bci.preprocessing import Epoch

DURATIONS = (1, 2, 3, 4, 5, 6)


def crop(e: Epoch, seconds: float) -> Epoch:
    n = int(round(seconds * e.fs))
    return Epoch(e.data[:, :n], fs=e.fs, label=e.label, channels=e.channels)


def curve(snr: float, seed: int) -> np.ndarray:
    spec = SyntheticSpec(
        n_channels=6, n_samples=768, fs=128.0, trials_per_class=4, seed=seed, snr=snr
    )
    train = generate_ssvep(spec)
    test = generate_ssvep(replace(spec, seed=seed + 50_000))
    recipe = build_recipe(SSVEP, shrinkage=DEFAULT_ERP_SHRINKAGE, freqs=spec.freqs)
    accs = []
    for seconds in DURATIONS:
        model = mdm.fit([crop(e, seconds) for e in train], recipe)
        cropped = [crop(e, seconds) for e in test]
        scored = zip(mdm.distances(model, cropped), cropped)
        accs.append(np.mean([dv.argmin_class() == e.label for dv, e in scored]))
    return np.array(accs)


def main(args) -> None:
    if args.seeds < 1:
        raise ContractError(f"seeds must be >= 1, got {args.seeds}")

    curves = np.array([curve(args.snr, seed) for seed in range(args.seeds)])
    mean_curve = curves.mean(axis=0)
    print(f"snr {args.snr}, {args.seeds} seeds")
    print(f"{'duration':>9}  {'accuracy':>9}")
    for seconds, acc in zip(DURATIONS, mean_curve):
        print(f"{seconds:8d}s  {acc:9.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--snr", type=float, default=0.15)
    parser.add_argument("--seeds", type=int, default=50)
    parser.set_defaults(func=main)
    sys.exit(run(parser, None))
