"""Monte-Carlo study of the adaptive session simulator.

Runs paired adaptive / non-adaptive sessions from a deliberately
mismatched generic model, reports the distribution of per-session NRD
slopes, per-level means, and the share of levels solved within three
repetitions, and optionally writes the per-repetition CSV.

Usage: python scripts/adaptation_experiment.py [--sessions 100] [--csv out.csv]
"""

import argparse

import numpy as np

from riemann_bci.simulator import (
    ADAPTIVE,
    NON_ADAPTIVE,
    SyntheticSessionConfig,
    replay_sessions,
    session_rows,
    write_session_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()
    if args.sessions < 1:
        parser.error(f"--sessions must be >= 1, got {args.sessions}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")

    config = SyntheticSessionConfig()
    seeds = range(args.seed, args.seed + args.sessions)
    slopes = []
    nrds = {ADAPTIVE: [], NON_ADAPTIVE: []}  # per mode, one row of level NRDs per session
    rows = []
    for session, mode, results, summary in replay_sessions(
        config, seeds, (ADAPTIVE, NON_ADAPTIVE)
    ):
        if mode == ADAPTIVE:
            slopes.append(summary.nrd_slope)
        nrds[mode].append(summary.nrds)
        if args.csv:
            rows += session_rows(session, results)

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
    if args.csv:
        write_session_csv(args.csv, rows)
        print(f"wrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
