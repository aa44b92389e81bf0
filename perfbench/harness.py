"""Measurement loop, statistics and report for one benchmark run.

A run sets the workload up, then runs operations back to back for
``seconds`` and at least one full pass over the input pool.  Between
operations it times the set-up again, so that set-up samples fill
``SETUP_SHARE`` of the elapsed time, at least one every ``SETUP_EVERY_S``
seconds, and see the same stretches of machine load as the operations;
``setup_s`` is their median.  Every operation's
output is checked and hashed; later passes over the pool must reproduce
the first pass's hashes.  A traced run instead makes exactly one pass,
running each pool entry untraced and then with the tracer installed, and
reports per-layer metrics; its counts are totals over that pass, so they
repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import Tracer, layer_metric_units
from workloads import WORKLOADS, OpResult, require

SETUP_SHARE = 0.1
SETUP_EVERY_S = 5.0
# Tails are fixed percentiles, so runs that fit different numbers of
# operations in their time are still compared on the same statistic.
OP_TAIL_PCT = 90
REP_TAIL_PCT = 98

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "epochs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

QUALITY_UNITS = {"accuracy": "ratio", "auc": "ratio", "nrd_adaptive": "reps", "nrd_static": "reps"}


@dataclass
class Phase:
    """Operations of one measured phase, traced or not."""

    durations: list[float] = field(default_factory=list)
    epochs: int = 0
    rep_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_pass: dict[int, OpResult] = field(default_factory=dict)


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """The ``pct``-th percentile, interpolated between the two nearest
    values, and the number of values above it."""
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, sum(v > value for v in values)


def run_op(workload, state, index: int, phase: Phase, tracer: Tracer | None = None) -> None:
    """One operation on pool entry ``index``: timed call, then the untimed check."""
    phase.attempted += 1
    try:
        start = perf_counter()
        outcome = workload.operate(state, index)
        duration = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        result = workload.check(state, index, outcome)
        first = phase.first_pass.setdefault(index, result)
        require(result.digest == first.digest, f"pool entry {index} changed on repeat")
    except Exception:
        phase.failed += 1
        if phase.failed <= 3:
            traceback.print_exc(file=sys.stderr)
        return
    phase.durations.append(duration)
    phase.epochs += result.epochs
    phase.rep_s += result.rep_s


def time_setup(workload, workdir: Path):
    start = perf_counter()
    state = workload.setup(workdir)
    return perf_counter() - start, state


def measure(workload, state, seconds: float, pool: int, setups: list[float],
            workdir: Path) -> Phase:
    """Closed loop over the pool until ``seconds`` pass and the pool is covered.

    After each operation, set-up is timed again until the set-up samples in
    ``setups`` add up to ``SETUP_SHARE`` of the elapsed time and number at
    least one per ``SETUP_EVERY_S`` of it.  A repeated set-up rebuilds the
    same inputs in the same files; its state is dropped.
    """
    phase = Phase()
    start = perf_counter()
    deadline = start + seconds
    while phase.attempted < pool or perf_counter() < deadline:
        run_op(workload, state, phase.attempted % pool, phase)
        elapsed = perf_counter() - start
        while sum(setups) < SETUP_SHARE * elapsed or len(setups) < elapsed / SETUP_EVERY_S:
            setups.append(time_setup(workload, workdir)[0])
    return phase


def measure_traced(workload, state, pool: int, tracer: Tracer) -> tuple[Phase, Phase]:
    """One pass in which each pool entry runs untraced, then traced.

    Alternating puts both sides under the same machine load, so the ratio
    of their medians isolates the tracer's cost from drift.
    """
    plain, traced = Phase(), Phase()
    for index in range(pool):
        run_op(workload, state, index, plain)
        workload.use_tracer(state, tracer)
        try:
            with tracer.installed():
                run_op(workload, state, index, traced, tracer)
        finally:
            workload.use_tracer(state, None)
    return plain, traced


def output_digest(phase: Phase, pool: int) -> str:
    """sha256 over the first pass's per-operation output hashes, in pool order."""
    h = hashlib.sha256()
    for index in range(pool):
        result = phase.first_pass.get(index)
        h.update((result.digest if result else "failed").encode())
    return h.hexdigest()


def quality(phase: Phase) -> dict[str, float]:
    """Per-workload quality numbers averaged over the pool."""
    results = list(phase.first_pass.values())
    if not results:
        return {}
    return {k: float(np.mean([r.quality[k] for r in results])) for k in results[0].quality}


def end_to_end(phase: Phase, setups: list[float]) -> list[tuple[str, float, str]]:
    """(name, value, note) for each end-to-end metric the phase supports."""
    rows = [("setup_s", statistics.median(setups), f"median of {len(setups)} set-ups")]
    n = len(phase.durations)
    if n:
        rows += [
            ("op_s_p50", statistics.median(phase.durations), f"median of {n} ops"),
            ("epochs_per_s", phase.epochs / sum(phase.durations), f"{phase.epochs} epochs"),
        ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rows + [("peak_rss_mb", rss_mb, "whole process")]


def ungated(phase: Phase, attempted: int, failed: int) -> list[tuple]:
    """(name, value, unit, note) rows printed but left out of the JSON line.

    ``op_s_tail`` is among them: at the benchmark's run length the slowest
    workload fits about 14 operations, too few for a steady upper percentile.
    """
    rows = [("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} ops")]
    if phase.durations:
        n = len(phase.durations)
        value, beyond = tail(phase.durations, OP_TAIL_PCT)
        rows.append(("op_s_tail", value, "s", f"p{OP_TAIL_PCT} of {n} ops, {beyond} above it"))
    if phase.rep_s:
        n = len(phase.rep_s)
        value, beyond = tail(phase.rep_s, REP_TAIL_PCT)
        rows += [
            ("rep_ms_p50", 1e3 * statistics.median(phase.rep_s), "ms",
             f"median of {n} adaptive reps"),
            ("rep_ms_tail", 1e3 * value, "ms",
             f"p{REP_TAIL_PCT} of {n} adaptive reps, {beyond} above it"),
        ]
    for key, value in quality(phase).items():
        rows.append((key, value, QUALITY_UNITS[key], "mean over the pool"))
    return rows


def cpu_steal() -> tuple[int, int] | None:
    """(steal ticks, all ticks) from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(blas_threads: str) -> str:
    return (
        f"env nproc={len(os.sched_getaffinity(0))} blas_threads={blas_threads} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} machine={platform.machine()}"
    )


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        pool_size: int | None = None) -> dict:
    """Run one workload and return everything the report prints."""
    workload = WORKLOADS[name](seed, pool_size)
    pool = pool_size or workload.pool_size
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    steal_before = cpu_steal()
    try:
        setup_s, state = time_setup(workload, workdir)
        setups = [setup_s]
        traced = tracer = None
        if trace:
            tracer = Tracer()
            timed, traced = measure_traced(workload, state, pool, tracer)
        else:
            timed = measure(workload, state, seconds, pool, setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    steal_after = cpu_steal()

    phases = [timed] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": name,
        "seed": seed,
        "pool": pool,
        "inputs": workload.inputs,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end(timed, setups),
        "ungated": ungated(timed, attempted, failed),
        "quality": quality(timed),
        "digest": output_digest(timed, pool),
        "steal": (steal_before, steal_after),
    }
    if traced:
        layers = tracer.layer_metrics()
        if traced.durations and timed.durations:
            layers["trace.overhead"] = (
                statistics.median(traced.durations) / statistics.median(timed.durations) - 1.0
            )
        report["per_layer"] = layers
        report["traced_digest"] = output_digest(traced, pool)
        spans = root / ".perfbench_out" / f"spans_{name}_seed{seed}.tsv"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        report["spans"] = spans
    return report


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict, trace: bool, blas_threads: str) -> bool:
    """Print the human-readable lines and the final JSON line; return correctness."""
    print(f"# perfbench {report['workload']} seed={report['seed']} trace={int(trace)}")
    print(environment(blas_threads))
    print(f"inputs: {report['inputs']}; pool of {report['pool']} per pass")
    before, after = report["steal"]
    if before and after:
        print(
            f"cpu_steal_ticks before={before[0]} after={after[0]} "
            f"delta={after[0] - before[0]} of {after[1] - before[1]} ticks"
        )
    else:
        print("cpu_steal_ticks unavailable")
    for key, value, note in report["end_to_end"]:
        print(f"{key:<20} {_fmt(value):>14} {END_TO_END_UNITS[key]:<6} {note}")
    for key, value, unit, note in report["ungated"]:
        print(f"{key:<20} {_fmt(value):>14} {unit:<6} {note}")
    print(f"digest sha256:{report['digest']}")

    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and attempted > 0
    if trace:
        layer_units = layer_metric_units()
        layers = report["per_layer"]
        for key in layer_units:
            print(f"{key:<44} {_fmt(layers.get(key, 0)):>14} {layer_units[key]}")
        print(f"traced digest sha256:{report['traced_digest']}")
        print(f"spans written to {report['spans']}")
        correct = correct and report["traced_digest"] == report["digest"]
        metrics = {
            k: {"value": layers.get(k, 0), "unit": u} for k, u in layer_units.items()
        }
    else:
        metrics = {
            k: {"value": value, "unit": END_TO_END_UNITS[k]}
            for k, value, _ in report["end_to_end"]
        }
        correct = correct and len(metrics) == len(END_TO_END_UNITS)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return correct
