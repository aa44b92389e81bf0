"""Sweep the synthetic P300 snr and report held-out AUC per level.

This is the one-off calibration behind DEFAULT_P300_SNR: pick the level
whose mean AUC over seeds lands nearest 0.90.

Usage: python scripts/calibrate_p300_snr.py [--seeds 20]
"""

import argparse
import sys

import numpy as np

from riemann_bci import ContractError, mdm
from riemann_bci.cli import run
from riemann_bci.datasets import SyntheticSpec, generate_p300
from riemann_bci.features import DEFAULT_ERP_SHRINKAGE, P300, build_recipe
from riemann_bci.preprocessing import demean

SNR_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)


def auc_for(snr: float, seed: int) -> float:
    train_spec = SyntheticSpec(trials_per_class=50, seed=seed, snr=snr)
    test_spec = SyntheticSpec(trials_per_class=50, seed=seed + 7000, snr=snr)
    train = demean(generate_p300(train_spec)[0])
    test = demean(generate_p300(test_spec)[0])
    recipe = build_recipe(P300, training=train, shrinkage=DEFAULT_ERP_SHRINKAGE)
    model = mdm.fit(train, recipe)
    scored = zip(mdm.distances(model, test), test)
    return mdm.auc([(-mdm.target_contrast(dv), e.label) for dv, e in scored])


def main(args) -> None:
    if args.seeds < 1:
        raise ContractError(f"seeds must be >= 1, got {args.seeds}")

    print(f"{'snr':>6}  {'mean AUC':>9}  {'min':>6}  {'max':>6}")
    for snr in SNR_GRID:
        aucs = [auc_for(snr, seed) for seed in range(args.seeds)]
        print(
            f"{snr:6.2f}  {np.mean(aucs):9.4f}  {min(aucs):6.3f}  {max(aucs):6.3f}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=20)
    parser.set_defaults(func=main)
    sys.exit(run(parser, None))
