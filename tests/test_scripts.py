"""Each script in ``scripts/`` runs in-process to completion at its smallest
size, so a change to the package API cannot break one unseen."""

import runpy
import sys
from pathlib import Path

import pytest

from riemann_bci.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (smallest-size arguments, text its report prints)
SMALLEST = {
    "calibrate_p300_snr.py": (["--seeds", "1"], "mean AUC"),
    "adaptation_experiment.py": (["--sessions", "1"], "adaptive NRD slope"),
    "ssvep_duration_curve.py": (["--seeds", "1"], "duration"),
}


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs(monkeypatch, capsys, script):
    argv, printed = SMALLEST[script]
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    assert printed in capsys.readouterr().out


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALLEST)


def test_adaptation_study_replays_the_simulate_protocol(monkeypatch, tmp_path):
    """The study's CSV is byte-identical to ``simulate --mode both``'s."""
    study, simulated = tmp_path / "study.csv", tmp_path / "simulate.csv"
    path = SCRIPTS / "adaptation_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--sessions", "1", "--csv", str(study)])
    runpy.run_path(str(path), run_name="__main__")
    assert main(["simulate", "--sessions", "1", "--mode", "both",
                 "--out", str(simulated)]) == 0
    assert study.read_bytes() == simulated.read_bytes()


def test_adaptation_study_refuses_no_sessions(monkeypatch):
    """Zero sessions is a usage error, not a report of NaN means."""
    path = SCRIPTS / "adaptation_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--sessions", "0"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2


@pytest.mark.parametrize("script", ["calibrate_p300_snr.py", "ssvep_duration_curve.py"])
def test_seed_sweep_refuses_no_seeds(monkeypatch, script):
    """Zero seeds is a usage error, not a traceback over an empty sweep."""
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), "--seeds", "0"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2


def test_adaptation_study_refuses_negative_seed(monkeypatch):
    """A negative session seed is a usage error, not a traceback."""
    path = SCRIPTS / "adaptation_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--seed", "-1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2
