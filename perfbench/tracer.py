"""Span tracer that wraps the package's functions where they are looked up.

A span is (name, start, end, parent).  Spans stay in memory while a traced
pass runs and are aggregated when it ends.  A span's self time is its
duration minus the time its child spans cover; calls on one thread nest,
so the children of a span never overlap.

The package binds most names with ``from ... import``, so one function can
have several bindings (``riemann_bci.mdm.featurize`` and
``riemann_bci.adaptive.featurize`` are separate attributes).  ``PATCHES``
lists every binding the package or the benchmark looks up at call time;
``numpy.linalg.eigh`` and ``scipy.signal.butter`` are read from their
modules on each call, so wrapping the module attribute once is enough.
Nothing is patched outside ``Tracer.installed()``.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.signal

from riemann_bci import adaptive, cli, datasets, features, mdm, preprocessing, simulator, spd

# (owner, attribute, span name); several bindings may share one span name.
PATCHES = (
    (preprocessing, "bandpass", "preprocessing.bandpass"),
    (cli, "bandpass", "preprocessing.bandpass"),
    (scipy.signal, "butter", "preprocessing.butter"),
    (scipy.signal, "sosfiltfilt", "preprocessing.sosfiltfilt"),
    (mdm, "featurize", "features.featurize"),
    (adaptive, "featurize", "features.featurize"),
    (features, "shrink", "features.shrink"),
    (mdm, "geometric_mean", "spd.geometric_mean"),
    (adaptive, "geometric_mean", "spd.geometric_mean"),
    (mdm, "riemann_distance", "spd.riemann_distance"),
    (adaptive, "riemann_distance", "spd.riemann_distance"),
    (adaptive, "geodesic", "spd.geodesic"),
    (spd.SpdMatrix, "__init__", "spd.SpdMatrix"),
    (np.linalg, "eigh", "spd.eigh"),
    (np.linalg, "eigvalsh", "spd.eigh"),
    (mdm, "fit", "mdm.fit"),
    (mdm, "distances", "mdm.distances"),
    (simulator, "distances", "mdm.distances"),
    (adaptive.FusedClassifier, "fused_distances", "adaptive.fused_distances"),
    (adaptive.FusedClassifier, "absorb", "adaptive.absorb"),
    (simulator, "compare_modes", "simulator.compare_modes"),
    (cli, "compare_modes", "simulator.compare_modes"),
    (simulator, "run_level", "simulator.run_level"),
    (datasets, "p300_trial", "datasets.p300_trial"),
    (simulator, "p300_trial", "datasets.p300_trial"),
    (cli, "read_epochs", "datasets.read_epochs"),
    (cli, "load_model", "datasets.load_model"),
    (cli, "save_model", "datasets.save_model"),
    (cli, "main", "cli.main"),
)

# The level epoch source is an input the benchmark builds, not a package
# binding; the p300 workload wraps it itself with this span name.
EPOCH_SOURCE = "simulator.epoch_source"

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in PATCHES] + [EPOCH_SOURCE]))

# Layer metrics beyond calls and self_s, with their units.
EXTRA_METRICS = {
    "features.featurize.calls_per_epoch": "count",
    "spd.geometric_mean.iterations": "count",
    "datasets.read_epochs.bytes": "B",
    "datasets.model.bytes": "B",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Collects spans from wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, matrices]
        self._stack: list[int] = []
        self.bytes: Counter = Counter()
        self._op_epochs: dict[int, object] = {}
        self.distinct_epochs = 0

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(span, args, kwargs)`` runs before the call and ``after(args,
        kwargs)`` after it returns; both record side information.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(span, args, kwargs)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    # -- side information recorded at the boundaries -----------------------

    def _featurized(self, span, args, kwargs) -> None:
        epoch = args[0] if args else kwargs["e"]
        self._op_epochs[id(epoch)] = epoch  # keep it alive so ids stay unique

    def _mean_inputs(self, span, args, kwargs) -> None:
        mats = args[0] if args else kwargs["mats"]
        weights = args[1] if len(args) > 1 else kwargs.get("weights")
        span[4] = len(mats) if weights is None else int(np.count_nonzero(weights))

    def _epochs_read(self, span, args, kwargs) -> None:
        self.bytes["datasets.read_epochs.bytes"] += os.path.getsize(args[0])

    def _model_read(self, span, args, kwargs) -> None:
        self.bytes["datasets.model.bytes"] += os.path.getsize(args[0])

    def _model_written(self, args, kwargs) -> None:
        self.bytes["datasets.model.bytes"] += os.path.getsize(args[0])

    def _hooks(self, name: str) -> dict:
        return {
            "features.featurize": {"before": self._featurized},
            "spd.geometric_mean": {"before": self._mean_inputs},
            "datasets.read_epochs": {"before": self._epochs_read},
            "datasets.load_model": {"before": self._model_read},
            "datasets.save_model": {"after": self._model_written},
        }.get(name, {})

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in ``PATCHES``; restore the originals on exit."""
        originals = []
        try:
            for owner, attr, name in PATCHES:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **self._hooks(name)))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def end_op(self) -> None:
        """Close one operation: count the distinct epochs it featurized."""
        self.distinct_epochs += len(self._op_epochs)
        self._op_epochs.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per span name plus the derived counts.

        Each geometric-mean iteration over k matrices makes exactly k + 2
        eigensolver calls (one for the iterate, one per whitened input, one
        for the step; the converged iterate's SpdMatrix check replaces the
        step on the last iteration), so iterations = eigh calls / (k + 2).
        """
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        eigh_below = [0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        iterations = 0.0
        # Children start after their parent, so a reverse sweep sees every
        # child before its parent.
        for i in range(n - 1, -1, -1):
            name, start, end, parent, matrices = spans[i]
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            if name == "spd.eigh":
                eigh_below[i] += 1
            if name == "spd.geometric_mean" and eigh_below[i]:
                iterations += eigh_below[i] / (matrices + 2)
            if parent >= 0:
                child_time[parent] += duration
                eigh_below[parent] += eigh_below[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        featurized = calls["features.featurize"]
        out["features.featurize.calls_per_epoch"] = (
            featurized / self.distinct_epochs if self.distinct_epochs else 0.0
        )
        out["spd.geometric_mean.iterations"] = iterations
        out["datasets.read_epochs.bytes"] = self.bytes["datasets.read_epochs.bytes"]
        out["datasets.model.bytes"] = self.bytes["datasets.model.bytes"]
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
