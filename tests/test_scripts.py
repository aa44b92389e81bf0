"""Each script in ``scripts/`` runs in-process to completion at its smallest
size, so a change to the package API cannot break one unseen, and ends a
refused argument through ``cli.run``'s exit codes, never a traceback."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> (smallest-size arguments, text its report prints, a hostile
# argument list, the exit code that list must end with)
SMALLEST = {
    "calibrate_p300_snr.py": (["--seeds", "1"], "mean AUC", ["--seeds", "0"], 3),
    "adaptation_experiment.py": (["--sessions", "1"], "adaptive NRD slope", ["--sessions", "0"], 3),
    "ssvep_duration_curve.py": (["--seeds", "1"], "duration", ["--snr", "-1"], 3),
}

# (script, hostile arguments, exit code): each script's SMALLEST case, then more
HOSTILE = [(script, *SMALLEST[script][2:]) for script in sorted(SMALLEST)] + [
    ("ssvep_duration_curve.py", ["--snr", "nan"], 3),
    ("ssvep_duration_curve.py", ["--snr", "inf"], 3),
    ("ssvep_duration_curve.py", ["--seeds", "0"], 3),
    ("adaptation_experiment.py", ["--seed", "-1"], 3),
]


def run_script(monkeypatch, script, argv):
    """The exit code ``script`` ends with, run in-process on ``argv``."""
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs(monkeypatch, capsys, script):
    argv, printed, _, _ = SMALLEST[script]
    assert run_script(monkeypatch, script, argv) == 0
    assert printed in capsys.readouterr().out


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALLEST)


@pytest.mark.parametrize(
    "script, argv, code", HOSTILE, ids=[" ".join([s, *a]) for s, a, _ in HOSTILE]
)
def test_hostile_arguments_end_with_an_exit_code(monkeypatch, capsys, script, argv, code):
    """A refused argument ends the script with its exit code and, for a data
    error, exactly one ``error:`` line; no traceback escapes."""
    assert run_script(monkeypatch, script, argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        (line,) = err.splitlines()
        assert line.startswith("error: "), err


def test_adaptation_study_refuses_no_sessions(monkeypatch):
    """Zero sessions is a data error, not a report of NaN means."""
    assert run_script(monkeypatch, "adaptation_experiment.py", ["--sessions", "0"]) == 3


@pytest.mark.parametrize("script", ["calibrate_p300_snr.py", "ssvep_duration_curve.py"])
def test_seed_sweep_refuses_no_seeds(monkeypatch, script):
    """Zero seeds is a data error, not a traceback over an empty sweep."""
    assert run_script(monkeypatch, script, ["--seeds", "0"]) == 3


def test_adaptation_study_refuses_negative_seed(monkeypatch):
    """A negative session seed is a data error, not a traceback."""
    assert run_script(monkeypatch, "adaptation_experiment.py", ["--seed", "-1"]) == 3
