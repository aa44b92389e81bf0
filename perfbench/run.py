"""Run one benchmark workload against the package in ``src/`` and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload p300_session --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced pass with ``--trace 1``.
Workloads: ssvep_curve, p300_session, erp_calibration (see README.md).
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riemann_bci"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> str:
    """Cap BLAS thread pools at the usable core count; must precede numpy's import."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("ssvep_curve", "p300_session", "erp_calibration"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(PACKAGE.parent))
    import riemann_bci

    if Path(riemann_bci.__file__).resolve().parent != PACKAGE:
        print(f"error: imported riemann_bci from {riemann_bci.__file__}", file=sys.stderr)
        return 2

    import harness

    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    return 0 if harness.print_report(report, bool(args.trace), blas_threads) else 1


if __name__ == "__main__":
    sys.exit(main())
