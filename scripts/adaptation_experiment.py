"""Monte-Carlo study of the adaptive session simulator.

Runs paired adaptive / non-adaptive sessions from a deliberately
mismatched generic model, reports the distribution of per-session NRD
slopes, per-level means, and the share of levels solved within three
repetitions.  ``riemann-bci simulate --mode both`` writes the same
sessions' per-repetition CSV.

Usage: python scripts/adaptation_experiment.py [--sessions 100] [--seed 0]
"""

import argparse
import sys

import numpy as np

from riemann_bci.cli import run
from riemann_bci.simulator import (
    ADAPTIVE,
    NON_ADAPTIVE,
    SyntheticSessionConfig,
    replay_sessions,
)


def main(args) -> None:
    config = SyntheticSessionConfig()
    slopes = []
    nrds = {ADAPTIVE: [], NON_ADAPTIVE: []}  # per mode, one row of level NRDs per session
    for _, mode, _, summary in replay_sessions(
        config, args.seed, args.sessions, (ADAPTIVE, NON_ADAPTIVE)
    ):
        if mode == ADAPTIVE:
            slopes.append(summary.nrd_slope)
        nrds[mode].append(summary.nrds)

    print(f"sessions: {args.sessions}, levels: {config.n_levels}")
    print(
        f"adaptive NRD slope: mean {np.mean(slopes):+.4f}, "
        f"negative in {np.mean(np.array(slopes) < 0):.0%} of sessions"
    )
    print("mean NRD per level:")
    print("  adaptive:", np.round(np.mean(nrds[ADAPTIVE], axis=0), 2).tolist())
    print("  trained: ", np.round(np.mean(nrds[NON_ADAPTIVE], axis=0), 2).tolist())
    for mode, values in nrds.items():
        values = np.array(values)
        within3 = np.mean(values <= 3)
        print(f"{mode}: mean NRD {values.mean():.2f}, solved within 3 reps {within3:.1%}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=main)
    sys.exit(run(parser, None))
