"""Tests of the benchmark itself, on one short seed with a one-entry pool.

Run from the root of the repository:

    python3 -m pytest perfbench/selftest.py -q
"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from tracer import PATCHES  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

SEED = 7

# Layers each workload must reach, so a patch that silently stopped
# applying shows up as a zero count.
REACHED = {
    "ssvep_curve": ("preprocessing.butter", "preprocessing.sosfiltfilt", "mdm.fit"),
    "p300_session": ("adaptive.absorb", "simulator.epoch_source", "datasets.p300_trial"),
    "erp_calibration": ("cli.main", "datasets.read_epochs", "datasets.save_model"),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    name = request.param
    root = tmp_path_factory.mktemp(name)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in PATCHES]
    untraced = harness.run(name, SEED, 0.0, False, root, pool_size=1)
    traced = [harness.run(name, SEED, 0.0, True, root, pool_size=1) for _ in range(2)]
    return name, originals, untraced, traced


def test_traced_and_untraced_outputs_agree(runs):
    _, _, untraced, traced = runs
    assert untraced["failed"] == 0 and untraced["attempted"] == 1
    for report in traced:
        assert report["failed"] == 0
        assert report["digest"] == untraced["digest"]
        assert report["traced_digest"] == untraced["digest"]
        assert report["quality"] == untraced["quality"]


def test_patches_applied_then_restored(runs):
    name, originals, _, traced = runs
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"
    for layer in REACHED[name] + ("spd.eigh", "features.featurize"):
        assert traced[0]["per_layer"][f"{layer}.calls"] > 0, layer


def test_counts_repeat_exactly(runs):
    _, _, _, (first, second) = runs
    exact = [
        k for k in first["per_layer"]
        if k.endswith((".calls", ".bytes", ".iterations", ".calls_per_epoch"))
    ]
    assert {k: first["per_layer"][k] for k in exact} == {
        k: second["per_layer"][k] for k in exact
    }
    assert first["per_layer"]["features.featurize.calls_per_epoch"] >= 1.0


def test_geometric_mean_iterations_are_whole(runs):
    # Each mean makes k + 2 eigensolver calls per iteration, so the derived
    # count is a whole number unless that rule no longer holds.
    _, _, _, traced = runs
    iterations = traced[0]["per_layer"]["spd.geometric_mean.iterations"]
    assert iterations > 0 and iterations == int(iterations)


@pytest.mark.parametrize("n", [5, 16, 100, 1000])
def test_tail_is_a_fixed_percentile(n):
    values = [float(i) for i in range(n)]
    value, beyond = harness.tail(values, 90)
    assert value == pytest.approx(0.9 * (n - 1))
    assert beyond == sum(v > value for v in values)


class _Sleeper:
    """A workload whose set-up and operation only sleep."""

    def setup(self, workdir):
        time.sleep(0.01)

    def operate(self, state, index):
        time.sleep(0.05)

    def check(self, state, index, outcome):
        return OpResult(epochs=1, digest="same", quality={})


def test_setup_is_retimed_across_the_run(tmp_path):
    setups = [0.01]
    phase = harness.measure(_Sleeper(), None, 0.5, 1, setups, tmp_path)
    assert phase.failed == 0 and phase.attempted >= 5
    assert len(setups) >= 3
    assert sum(setups) >= harness.SETUP_SHARE * sum(phase.durations)
