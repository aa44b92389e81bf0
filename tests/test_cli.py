import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riemann_bci
from riemann_bci.cli import main
from riemann_bci.datasets import load_model, read_epochs, save_model


def run(argv):
    return main(argv)


class TestSynth:
    def test_mi_trial_count(self, tmp_path):
        out = tmp_path / "mi.dat"
        code = run(
            ["synth", "--modality", "mi", "--classes", "2", "--trials", "50",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        epochs = read_epochs(out)
        assert len(epochs) == 100

    def test_same_seed_identical_files(self, tmp_path):
        args = ["synth", "--modality", "p300", "--trials", "5", "--seed", "3"]
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_usage_error(self):
        assert run(["synth", "--modality", "mi"]) == 2

    def test_bad_spec_is_data_error(self, tmp_path):
        code = run(
            ["synth", "--modality", "mi", "--classes", "12", "--channels", "4",
             "--out", str(tmp_path / "x.dat")]
        )
        assert code == 3


class TestFit:
    def _synth_mi(self, tmp_path, trials=20):
        out = tmp_path / "mi.dat"
        run(["synth", "--modality", "mi", "--trials", str(trials), "--samples",
             "256", "--seed", "1", "--out", str(out)])
        return out

    def test_fit_writes_model(self, tmp_path):
        data = self._synth_mi(tmp_path)
        model_path = tmp_path / "model.json"
        code = run(
            ["fit", "--modality", "mi", "--shrinkage", "0.0",
             "--in", str(data), "--out", str(model_path)]
        )
        assert code == 0
        assert model_path.exists()

    def test_refit_byte_identical(self, tmp_path):
        data = self._synth_mi(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["fit", "--modality", "mi", "--shrinkage", "0.0", "--in", str(data)]
        assert run(args + ["--out", str(m1)]) == 0
        assert run(args + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_single_class_is_contract_error(self, tmp_path, capsys):
        from riemann_bci.datasets import write_epochs
        from riemann_bci.preprocessing import Epoch
        import numpy as np

        epochs = [
            Epoch(np.random.default_rng(i).standard_normal((3, 64)), fs=128.0, label=0)
            for i in range(6)
        ]
        data = tmp_path / "one_class.dat"
        write_epochs(data, epochs)
        code = run(
            ["fit", "--modality", "mi", "--in", str(data),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 3
        assert ">= 2 classes" in capsys.readouterr().err


class TestEval:
    def _fitted_mi(self, tmp_path):
        data = tmp_path / "mi.dat"
        run(["synth", "--modality", "mi", "--trials", "20", "--samples", "256",
             "--seed", "2", "--out", str(data)])
        model = tmp_path / "model.json"
        run(["fit", "--modality", "mi", "--shrinkage", "0.0", "--in", str(data),
             "--out", str(model)])
        return data, model

    def test_training_data_accuracy_high(self, tmp_path):
        data, model = self._fitted_mi(tmp_path)
        report = tmp_path / "report.csv"
        code = run(["eval", "--model", str(model), "--in", str(data),
                    "--report", str(report)])
        assert code == 0
        with open(report) as fh:
            rows = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
        assert rows["accuracy"] >= 0.95

    def test_unlabeled_test_set_rejected(self, tmp_path, capsys):
        from riemann_bci.datasets import write_epochs
        from riemann_bci.preprocessing import Epoch
        import numpy as np

        _, model = self._fitted_mi(tmp_path)
        epochs = [
            Epoch(np.random.default_rng(9).standard_normal((8, 128)), fs=128.0)
        ]
        data = tmp_path / "unlabeled.dat"
        write_epochs(data, epochs)
        code = run(["eval", "--model", str(model), "--in", str(data),
                    "--report", str(tmp_path / "r.csv")])
        assert code == 3
        assert "unlabeled test set" in capsys.readouterr().err

    def test_band_and_decimation_pipeline(self, tmp_path):
        # acquisition at 512 Hz, trained and scored after a 1-16 Hz band
        # pass and decimation to 128 Hz, applied identically in fit and eval
        train = tmp_path / "p300_512.dat"
        test = tmp_path / "test_512.dat"
        for seed, path in ((3, train), (77, test)):
            assert run(["synth", "--modality", "p300", "--trials", "30",
                        "--channels", "6", "--samples", "512", "--fs", "512",
                        "--seed", str(seed), "--out", str(path)]) == 0
        model = tmp_path / "model.json"
        assert run(["fit", "--modality", "p300", "--shrinkage", "0.01",
                    "--band", "1", "16", "--decimate-to", "128",
                    "--in", str(train), "--out", str(model)]) == 0
        report = tmp_path / "report.csv"
        assert run(["eval", "--model", str(model), "--band", "1", "16",
                    "--decimate-to", "128", "--in", str(test),
                    "--report", str(report)]) == 0
        with open(report) as fh:
            rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert rows["auc"] >= 0.8

    def test_p300_report_includes_auc(self, tmp_path):
        data = tmp_path / "p300.dat"
        run(["synth", "--modality", "p300", "--trials", "25", "--channels", "6",
             "--samples", "96", "--fs", "96", "--seed", "4", "--out", str(data)])
        model = tmp_path / "model.json"
        assert run(["fit", "--modality", "p300", "--shrinkage", "0.01",
                    "--in", str(data), "--out", str(model)]) == 0
        report = tmp_path / "report.csv"
        assert run(["eval", "--model", str(model), "--in", str(data),
                    "--report", str(report)]) == 0
        with open(report) as fh:
            metrics = [row["metric"] for row in csv.DictReader(fh)]
        assert "auc" in metrics


class TestCrossval:
    def test_fold_rows_and_mean(self, tmp_path):
        data = tmp_path / "ssvep.dat"
        run(["synth", "--modality", "ssvep", "--trials", "6", "--channels", "6",
             "--samples", "512", "--fs", "256", "--snr", "3.0", "--seed", "5",
             "--out", str(data)])
        report = tmp_path / "cv.csv"
        code = run(["crossval", "--modality", "ssvep", "--k", "8",
                    "--freqs", "12", "15", "20", "--in", str(data),
                    "--report", str(report), "--seed", "1"])
        assert code == 0
        with open(report) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fold", "n_test", "accuracy"]
        assert len(rows) == 1 + 8 + 1
        assert rows[-1][0] == "mean"

    def test_k_larger_than_trials_rejected(self, tmp_path):
        data = tmp_path / "mi.dat"
        run(["synth", "--modality", "mi", "--trials", "3", "--samples", "64",
             "--seed", "0", "--out", str(data)])
        code = run(["crossval", "--modality", "mi", "--k", "20", "--in", str(data),
                    "--report", str(tmp_path / "r.csv")])
        assert code == 3

    def test_fixed_seed_identical_reports(self, tmp_path):
        data = tmp_path / "mi.dat"
        run(["synth", "--modality", "mi", "--trials", "10", "--samples", "256",
             "--seed", "0", "--out", str(data)])
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["crossval", "--modality", "mi", "--k", "4", "--shrinkage", "0.0",
                "--in", str(data), "--seed", "9"]
        assert run(args + ["--report", str(r1)]) == 0
        assert run(args + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestSimulate:
    def test_paired_csv(self, tmp_path):
        out = tmp_path / "session.csv"
        code = run(["simulate", "--levels", "3", "--items", "4", "--mode", "both",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        modes = {row["mode"] for row in rows}
        assert modes == {"adaptive", "non-adaptive"}
        levels = {int(row["level"]) for row in rows}
        assert levels == {0, 1, 2}

    def test_fixed_seed_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--levels", "2", "--items", "3", "--mode", "adaptive",
                "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_both_is_adaptive_then_non_adaptive(self, tmp_path):
        def session_rows(mode):
            out = tmp_path / f"{mode}.csv"
            assert run(["simulate", "--sessions", "2", "--levels", "3", "--items", "4",
                        "--mode", mode, "--seed", "0", "--out", str(out)]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            return [[r for r in rows if r["session"] == s] for s in ("0", "1")]

        both = session_rows("both")
        adaptive = session_rows("adaptive")
        non_adaptive = session_rows("non-adaptive")
        for session in range(2):
            assert both[session] == adaptive[session] + non_adaptive[session]

    def test_cap_one_flags_levels(self, tmp_path, capsys):
        out = tmp_path / "capped.csv"
        code = run(["simulate", "--levels", "4", "--items", "8", "--cap", "1",
                    "--mode", "adaptive", "--snr", "0.2", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        assert "repetition cap" in capsys.readouterr().out


def _eval(tmp_path, model, data, report=None):
    report = report or tmp_path / "r.csv"
    return ["eval", "--model", str(model), "--in", str(data), "--report", str(report)]


def _fit(tmp_path, data):
    out = tmp_path / "m.json"
    return ["fit", "--modality", "mi", "--in", str(data), "--out", str(out)]


def _rewritten_model(tmp_path, model, mutate):
    doc = json.loads(model.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


def _missing_freqs(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc["recipe"].pop("freqs"))
    return _eval(tmp_path, bad, data), "'freqs'"


def _non_utf8_model(tmp_path, model, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff\xfe"}')
    return _eval(tmp_path, bad, data), str(bad)


def _string_class_ids(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(class_ids="ab"))
    return _eval(tmp_path, bad, data), "'class_ids'"


def _negative_counts(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(counts=[-5, 3]))
    return _eval(tmp_path, bad, data), "'counts'"


def _fractional_order(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc["recipe"].update(order=2.7))
    return _eval(tmp_path, bad, data), "'order'"


def _fractional_class_ids(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(class_ids=[0.5, 1.9]))
    return _eval(tmp_path, bad, data), "'class_ids'"


def _missing_model(tmp_path, model, data):
    missing = tmp_path / "nope.json"
    return _eval(tmp_path, missing, data), str(missing)


def _missing_input(tmp_path, model, data):
    missing = tmp_path / "nope.dat"
    return _fit(tmp_path, missing), str(missing)


def _number_header(tmp_path, model, data):
    bad = tmp_path / "bad.dat"
    bad.write_bytes(b"5\n")
    return _fit(tmp_path, bad), "header"


def _rewritten_header(tmp_path, data, mutate):
    header, payload = data.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    mutate(doc)
    bad = tmp_path / "bad.dat"
    bad.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    return bad


def _infinite_fs_header(tmp_path, model, data):
    bad = _rewritten_header(tmp_path, data, lambda doc: doc.update(fs_hz=float("inf")))
    return _fit(tmp_path, bad), "sampling rate must"


def _non_string_channel_names(tmp_path, model, data):
    def mutate(doc):
        doc["channel_names"][:3] = [None, 1, {}]

    bad = _rewritten_header(tmp_path, data, mutate)
    return _fit(tmp_path, bad), "'channel_names'"


def _object_modality(tmp_path, model, data):
    bad = _rewritten_header(tmp_path, data, lambda doc: doc.update(modality={"k": [1]}))
    return _fit(tmp_path, bad), "'modality'"


def _future_epoch_version(tmp_path, model, data):
    bad = _rewritten_header(tmp_path, data, lambda doc: doc.update(version=99))
    return _fit(tmp_path, bad), "'version'"


def _future_model_version(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(version=99))
    return _eval(tmp_path, bad, data), "'version'"


def _report_in_missing_dir(tmp_path, model, data):
    report = tmp_path / "no_such_dir" / "r.csv"
    return _eval(tmp_path, model, data, report), str(report)


def _zero_mean_iterations(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--mean-max-iter", "0"], "max_iter must"


def _negative_mean_tol(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--mean-tol", "-1"], "tol must"


def _mean_tol_infinite(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--mean-tol", "inf"], "tol must"


def _header_value(key, value, name):
    """Case: the epoch header's ``key`` set to ``value``."""
    def case(tmp_path, model, data):
        bad = _rewritten_header(tmp_path, data, lambda doc: doc.update({key: value}))
        return _fit(tmp_path, bad), f"'{key}'"

    case.__name__ = name
    return case


def _recipe_value(key, value, name):
    """Case: the model recipe's ``key`` set to ``value``."""
    def case(tmp_path, model, data):
        bad = _rewritten_model(tmp_path, model, lambda doc: doc["recipe"].update({key: value}))
        return _eval(tmp_path, bad, data), f"'{key}'"

    case.__name__ = name
    return case


# JSON numbers are decoded strictly: a string or a boolean is not a number.
_NOT_NUMBERS = [
    _header_value("fs_hz", "128", "string_fs"),
    _header_value("fs_hz", True, "boolean_fs"),
    _recipe_value("width_hz", True, "boolean_width"),
    _recipe_value("width_hz", "2", "string_width"),
    _recipe_value("freqs", ["10", 15], "string_freq"),
    _recipe_value("shrinkage", True, "boolean_shrinkage"),
]


def _zero_decimation_rate(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--decimate-to", "0"], "target rate must"


def _nan_decimation_rate(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--decimate-to", "nan"], "target rate must"


def _subnormal_decimation_rate(tmp_path, model, data):
    # 128 / 1e-320 overflows to an infinite decimation ratio
    return _fit(tmp_path, data) + ["--decimate-to", "1e-320"], "decimation ratio must"


def _band_edge_near_zero(tmp_path, model, data):
    # the Butterworth initial-state solve is singular for a 1e-8 Hz edge
    return _fit(tmp_path, data) + ["--band", "1e-8", "10"], "[1e-08, 10.0] Hz"


def _subnormal_band_edge(tmp_path, model, data):
    # scipy refuses a band edge that underflows to 0 in normalized frequency
    return _fit(tmp_path, data) + ["--band", "5e-324", "10"], "[5e-324, 10.0] Hz"


def _model_band_edge_near_zero(tmp_path, model, data):
    ssvep, ssvep_model = _fitted(tmp_path, "ssvep")
    # the 12 Hz band of this width starts at about 1e-8 Hz
    bad = _rewritten_model(
        tmp_path, ssvep_model, lambda doc: doc["recipe"].update(width_hz=23.99999998)
    )
    return _eval(tmp_path, bad, ssvep), "band-pass"


def _string_mean_entry(tmp_path, model, data):
    def mutate(doc):
        doc["means"][0][0][0] = str(doc["means"][0][0][0])

    bad = _rewritten_model(tmp_path, model, mutate)
    return _eval(tmp_path, bad, data), "'means'"


def _string_prototype_entry(tmp_path, model, data):
    p300, p300_model = tmp_path / "p300.dat", tmp_path / "p300.json"
    assert run(["synth", "--modality", "p300", "--trials", "4", "--samples", "64",
                "--seed", "0", "--out", str(p300)]) == 0
    assert run(["fit", "--modality", "p300", "--in", str(p300),
                "--out", str(p300_model)]) == 0

    def mutate(doc):
        doc["recipe"]["prototypes"][0]["data"][0][0] = "1"

    bad = _rewritten_model(tmp_path, p300_model, mutate)
    return _eval(tmp_path, bad, p300), "'prototypes'"


def _duplicate_class_ids(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(class_ids=[1, 1]))
    return _eval(tmp_path, bad, data), "class ids must"


def _fitted(tmp_path, modality):
    """A small synthetic epoch file of ``modality`` and the model fitted on it."""
    data, model = tmp_path / f"{modality}.dat", tmp_path / f"{modality}.json"
    assert run(["synth", "--modality", modality, "--trials", "4", "--samples", "128",
                "--seed", "0", "--out", str(data)]) == 0
    freqs = ["--freqs", "12", "15", "20"] if modality == "ssvep" else []
    assert run(["fit", "--modality", modality, "--in", str(data),
                "--out", str(model)] + freqs) == 0
    return data, model


def _labels_not_class_ids(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc.update(class_ids=[5, 6]))
    return _eval(tmp_path, bad, data), "class ids"


def _stray_prototype_class(tmp_path, model, data):
    p300, p300_model = _fitted(tmp_path, "p300")

    def mutate(doc):
        doc["recipe"]["prototypes"][0]["class_id"] = 99

    bad = _rewritten_model(tmp_path, p300_model, mutate)
    return _eval(tmp_path, bad, p300), "[99]"


def _repeated_fit_freqs(tmp_path, model, data):
    ssvep, _ = _fitted(tmp_path, "ssvep")
    argv = ["fit", "--modality", "ssvep", "--freqs", "12", "12", "15",
            "--in", str(ssvep), "--out", str(tmp_path / "m.json")]
    return argv, "freqs must be distinct"


def _repeated_model_freqs(tmp_path, model, data):
    ssvep, ssvep_model = _fitted(tmp_path, "ssvep")
    bad = _rewritten_model(
        tmp_path, ssvep_model, lambda doc: doc["recipe"].update(freqs=[12, 12, 12])
    )
    return _eval(tmp_path, bad, ssvep), "freqs must be distinct"


def _mi_freqs(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--freqs", "12", "15"], "takes no freqs"


def _mi_model_prototype(tmp_path, model, data):
    # a prototype of the trial's own shape, which no MI feature reads
    prototype = {"class_id": 1, "n_epochs": 1, "data": read_epochs(data)[0].data.tolist()}
    bad = _rewritten_model(
        tmp_path, model, lambda doc: doc["recipe"].update(prototypes=[prototype])
    )
    return _eval(tmp_path, bad, data), "takes no prototypes"


def _mi_width_and_order(tmp_path, model, data):
    return _fit(tmp_path, data) + ["--width", "3", "--order", "7"], "width_hz or order"


def _mi_model_order(tmp_path, model, data):
    bad = _rewritten_model(tmp_path, model, lambda doc: doc["recipe"].update(order=7))
    return _eval(tmp_path, bad, data), "width_hz or order"


def _p300_model_two_subjects(tmp_path, model, data):
    p300, p300_model = _fitted(tmp_path, "p300")
    bad = _rewritten_model(
        tmp_path, p300_model, lambda doc: doc["recipe"].update(n_subjects=2)
    )
    return _eval(tmp_path, bad, p300), "n_subjects must"


def _negative_crossval_seed(tmp_path, model, data):
    argv = ["crossval", "--modality", "mi", "--in", str(data),
            "--report", str(tmp_path / "r.csv"), "--k", "2", "--seed", "-1"]
    return argv, "seed must"


def _p300_epoch_too_short(tmp_path, model, data):
    # 8 samples at 128 Hz end at 55 ms, before the 0.30 s response
    argv = ["synth", "--modality", "p300", "--samples", "8", "--out", str(tmp_path / "p.dat")]
    return argv, "end before a 0.3 s latency"


def _simulated_epoch_too_short(tmp_path, model, data):
    # the mismatched generic model, built first, responds 0.2 s later than the subject
    argv = ["simulate", "--samples", "8", "--sessions", "1", "--levels", "1",
            "--out", str(tmp_path / "s.csv")]
    return argv, "end before a 0.5 s latency"


def _generic_epoch_too_short(tmp_path, model, data):
    # 40 samples at 96 Hz end at 0.41 s: after the subject's 0.3 s response,
    # before the generic model's, which comes 0.2 s later
    argv = ["simulate", "--samples", "40", "--fs", "96", "--sessions", "1", "--levels", "1",
            "--out", str(tmp_path / "s.csv")]
    return argv, "generic model's response is shifted GENERIC_SHIFT_S = 0.2 s"


def _payload_value(command, value, name):
    """Case: one float32 of the epoch payload set to ``value``, then ``command``."""
    def case(tmp_path, model, data):
        header, payload = data.read_bytes().split(b"\n", 1)
        x = np.frombuffer(payload, dtype="<f4").copy()
        x[x.size // 2] = value
        bad = tmp_path / "bad.dat"
        bad.write_bytes(header + b"\n" + x.tobytes())
        argv = _fit(tmp_path, bad) if command == "fit" else _eval(tmp_path, model, bad)
        return argv, "must be finite"

    case.__name__ = name
    return case


_NON_FINITE_PAYLOADS = [
    _payload_value("fit", np.nan, "nan_payload_fit"),
    _payload_value("eval", np.nan, "nan_payload_eval"),
    _payload_value("fit", np.inf, "inf_payload_fit"),
    _payload_value("eval", np.inf, "inf_payload_eval"),
]


@pytest.mark.parametrize(
    "case",
    [_missing_freqs, _non_utf8_model, _string_class_ids, _negative_counts,
     _fractional_order, _fractional_class_ids, _missing_model,
     _missing_input, _number_header, _infinite_fs_header, _non_string_channel_names,
     _object_modality, _future_epoch_version, _future_model_version,
     _report_in_missing_dir, _zero_mean_iterations, _negative_mean_tol,
     _mean_tol_infinite, _zero_decimation_rate, _nan_decimation_rate,
     _subnormal_decimation_rate, _band_edge_near_zero, _subnormal_band_edge,
     _model_band_edge_near_zero, _string_mean_entry,
     _string_prototype_entry, _duplicate_class_ids, _negative_crossval_seed,
     _labels_not_class_ids, _stray_prototype_class, _repeated_fit_freqs,
     _repeated_model_freqs, _mi_freqs, _mi_model_prototype,
     _p300_model_two_subjects, _mi_width_and_order, _mi_model_order,
     _p300_epoch_too_short, _simulated_epoch_too_short, _generic_epoch_too_short]
    + _NOT_NUMBERS + _NON_FINITE_PAYLOADS,
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_bad_input_is_data_error(tmp_path, capsys, case):
    """Malformed or unsupported-version documents, unusable paths and
    degenerate solver or preprocessing settings exit 3 with an error line
    naming the field or path, never with a traceback or a failed fit."""
    data = tmp_path / "mi.dat"
    model = tmp_path / "model.json"
    assert run(["synth", "--modality", "mi", "--trials", "4", "--samples", "64",
                "--seed", "0", "--out", str(data)]) == 0
    assert run(["fit", "--modality", "mi", "--in", str(data),
                "--out", str(model)]) == 0
    capsys.readouterr()
    argv, named = case(tmp_path, model, data)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err


def test_generic_epoch_length_binds_only_the_adaptive_mode(tmp_path):
    """The geometry the generic model refuses holds the subject's own response."""
    argv = ["simulate", "--mode", "non-adaptive", "--samples", "40", "--fs", "96",
            "--sessions", "1", "--levels", "1", "--out", str(tmp_path / "s.csv")]
    assert run(argv) == 0


# Run each argv of a JSON list through main in this one process and print,
# as JSON, each one's exit code, standard output and standard error.
_SEQUENCE_SCRIPT = """
import contextlib, io, json, sys
from riemann_bci.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_commands_in_one_process_match_each_alone(tmp_path):
    """main builds its parser once per process; fit, eval, a usage error and
    --help run one after another in one process give the exit code and the
    output each gives in a process of its own."""
    data, model, report = (str(tmp_path / name) for name in ("mi.dat", "m.json", "r.csv"))
    assert run(["synth", "--modality", "mi", "--trials", "4", "--samples", "64",
                "--seed", "0", "--out", data]) == 0
    commands = [
        ["fit", "--modality", "mi", "--in", data, "--out", model],
        ["eval", "--model", model, "--in", data, "--report", report],
        ["fit", "--modality", "eeg", "--in", data, "--out", model],
        ["eval", "--help"],
    ]
    src = Path(riemann_bci.__file__).resolve().parents[1]

    def results(argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _SEQUENCE_SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    alone = [results([argv])[0] for argv in commands]
    assert [code for code, _, _ in alone] == [0, 0, 2, 0]
    assert "invalid choice: 'eeg'" in alone[2][2] and "usage:" in alone[3][1]
    assert results(commands) == alone


def test_cli_import_loads_no_scipy():
    """scipy is imported where it is used (filter design and filtering,
    P300 noise), so a command that never filters does not load it."""
    src = Path(riemann_bci.__file__).resolve().parents[1]
    script = "import sys, riemann_bci.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_refused_band_prints_one_error_line(tmp_path):
    """A band whose design divides 0 by 0 is refused with the error line
    alone on stderr, no library warning before it."""
    data = tmp_path / "mi.dat"
    assert run(["synth", "--modality", "mi", "--trials", "4", "--samples", "64",
                "--seed", "0", "--out", str(data)]) == 0
    src = Path(riemann_bci.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "riemann_bci", "fit", "--modality", "mi",
         "--band", "1e-7", "10", "--in", str(data), "--out", str(tmp_path / "m.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# Synthesize, fit and evaluate a small P300 set, fit a small SSVEP set, and
# print the sha256 of every file written, in order.
_THREADS_SCRIPT = """
import contextlib, hashlib, io, sys
from riemann_bci.cli import main
d = sys.argv[1] + "/"
small = ["--trials", "6", "--channels", "4", "--seed", "2"]
ssvep = ["--freqs", "12", "15", "20"]
runs = [
    (["synth", "--modality", "p300", "--samples", "64", *small], "p300.dat"),
    (["fit", "--modality", "p300", "--in", d + "p300.dat"], "p300.json"),
    (["eval", "--model", d + "p300.json", "--in", d + "p300.dat", "--report"], "p300.csv"),
    (["synth", "--modality", "ssvep", "--samples", "256", *small, *ssvep], "ssvep.dat"),
    (["fit", "--modality", "ssvep", "--in", d + "ssvep.dat", *ssvep], "ssvep.json"),
]
for argv, name in runs:
    if argv[-1] != "--report":
        argv.append("--out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + [d + name]) == 0
    print(name, hashlib.sha256(open(d + name, "rb").read()).hexdigest())
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Stacked and one-matrix BLAS calls can take different paths; one and
    two OpenBLAS threads write the same bytes."""
    src = Path(riemann_bci.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].splitlines()) == 5
    assert digests[0] == digests[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, field",
    [
        (["synth", "--modality", "ssvep", "--freqs", "0"], "freqs"),
        (["synth", "--modality", "mi", "--channels", "0"], "n_channels"),
        (["synth", "--modality", "p300", "--fs", "0"], "fs"),
        (["simulate", "--levels", "0"], "n_levels"),
        (["synth", "--modality", "mi", "--fs", "inf"], "fs"),
        (["synth", "--modality", "mi", "--snr", "nan"], "snr"),
        (["simulate", "--sessions", "-1"], "sessions"),
        (["simulate", "--items", "0"], "n_items"),
        (["synth", "--modality", "p300", "--seed", "-1"], "seed"),
        (["simulate", "--seed", "-1"], "seed"),
        (["synth", "--modality", "ssvep", "--freqs", "12", "12"], "freqs"),
        (["simulate", "--mode", "non-adaptive", "--ramp", "0"], "ramp"),
    ],
)
def test_bad_synthetic_geometry_is_data_error(tmp_path, capsys, argv, field):
    """Degenerate geometry exits 3 naming the field, before any data is made."""
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must" in err, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--fs", "1e-300", "--sessions", "1", "--levels", "1"],
        ["synth", "--modality", "p300", "--fs", "1e-300"],
    ],
)
def test_overflow_is_numeric_failure(tmp_path, capsys, argv):
    """A sampling rate so small that generating the evoked response
    overflows exits 4 with one line, instead of a warning and exit 0."""
    assert run(argv + ["--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "overflow" in err, err


# Any float fit may be given on its command line.
FLAG_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fit_float_flags(fitted_models, data):
    """``fit`` given any float, NaN, infinite or subnormal value for
    ``--band LOW HIGH`` or ``--decimate-to`` on an MI file, or ``--width``
    on an SSVEP file, fits (0) or refuses it (2 usage, 3 data, 4 numeric);
    no exception escapes ``main``."""
    flag = data.draw(st.sampled_from(["--band", "--decimate-to", "--width"]))
    if flag == "--band":
        flags = [flag, repr(data.draw(FLAG_FLOATS)), repr(data.draw(FLAG_FLOATS))]
    else:
        # the joined form keeps a negative value from reading as a flag
        flags = [f"{flag}={data.draw(FLAG_FLOATS)!r}"]
    if flag == "--width":
        (_, epochs), modality = fitted_models[2], ["ssvep", "--freqs", "10", "15"]
    else:
        (_, epochs), modality = fitted_models[0], ["mi"]
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["fit", "--modality", *modality, "--in", str(epochs),
                "--out", str(Path(tmp) / "m.json")] + flags
        assert run(argv) in (0, 2, 3, 4)


# Largest value drawn for each size flag of the generators: small enough
# that every draw runs in milliseconds.
GENERATOR_SIZES = {
    "synth": {"--channels": 8, "--samples": 256, "--trials": 4, "--classes": 3},
    "simulate": {"--channels": 8, "--samples": 256, "--items": 4, "--levels": 2,
                 "--cap": 2},
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generator_flags(data):
    """``synth`` and ``simulate`` given any float, NaN, infinite or subnormal
    ``--fs`` and ``--snr`` (and ``synth --freqs``), and small sizes, zero and
    negatives included, write their output (0) or refuse the flags (2 usage,
    3 data, 4 numeric) without an exception or a warning."""
    command = data.draw(st.sampled_from(sorted(GENERATOR_SIZES)))
    if command == "synth":
        argv = ["synth", "--modality", data.draw(st.sampled_from(["mi", "p300", "ssvep"]))]
        freqs = data.draw(st.lists(FLAG_FLOATS, min_size=1, max_size=3))
        # the joined form keeps one negative value from reading as a flag
        argv += [f"--freqs={freqs[0]!r}"] if len(freqs) == 1 else ["--freqs", *map(repr, freqs)]
    else:
        mode = data.draw(st.sampled_from(["adaptive", "non-adaptive", "both"]))
        argv = ["simulate", "--mode", mode, "--sessions", "1"]
    argv += [f"{flag}={data.draw(FLAG_FLOATS)!r}" for flag in ("--fs", "--snr")]
    argv += [
        f"{flag}={data.draw(st.integers(-2, largest))}"
        for flag, largest in GENERATOR_SIZES[command].items()
    ]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]


# One of each kind of hostile JSON value: negative, float, huge, string,
# numeric string, boolean, null, list and object (10**400 overflows a float).
HOSTILE_VALUES = st.sampled_from(
    [-1, -5, 0.5, 2.7, 1e308, 10**30, 10**400, "", "x", "12", True, None, [], [1, "a"],
     {}, {"k": 1}]
)


@pytest.fixture(scope="module")
def fitted_models(tmp_path_factory):
    """(model file, epoch file) of one small fitted model per modality."""
    root = tmp_path_factory.mktemp("models")
    fitted = []
    for modality, extra in (("mi", []), ("p300", []), ("ssvep", ["--freqs", "10", "15"])):
        data, model = root / f"{modality}.dat", root / f"{modality}.json"
        assert run(["synth", "--modality", modality, "--trials", "4", "--channels", "3",
                    "--samples", "128", "--fs", "64", "--seed", "0",
                    "--out", str(data)] + extra) == 0
        assert run(["fit", "--modality", modality, "--in", str(data),
                    "--out", str(model)] + extra) == 0
        fitted.append((model, data))
    return fitted


def _replace_one_value(doc, data):
    """Replace one value of ``doc``, at a depth drawn from ``data``."""
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            node[key] = data.draw(HOSTILE_VALUES)
            return
        node = child


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_model_document(fitted_models, data):
    """A model document with one value replaced at any depth is evaluated
    (0) or refused (3 data, 4 numeric), never crashes; one that is accepted
    saves to a document that loads and saves back byte-identically."""
    model, epochs = data.draw(st.sampled_from(fitted_models))
    doc = json.loads(model.read_text())
    _replace_one_value(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        bad, saved, resaved = (Path(tmp) / name for name in ("bad.json", "a.json", "b.json"))
        bad.write_text(json.dumps(doc))
        code = run(["eval", "--model", str(bad), "--in", str(epochs),
                    "--report", str(Path(tmp) / "r.csv")])
        assert code in (0, 3, 4)
        if code == 0:
            save_model(saved, load_model(bad))
            save_model(resaved, load_model(saved))
            assert resaved.read_bytes() == saved.read_bytes()


# The per-class lists of a model document, rewritten together.
CLASS_FIELDS = ("class_ids", "counts", "means")
NEW_CLASS_IDS = st.sampled_from([-1, 0, 1, 2, 3, 7, 10**30])
NEW_FREQS = st.sampled_from([-5.0, 0.0, 7.5, 10.0, 15.0, 31.0, 32.0, 40.0, float("nan")])


def _rewrite_classes_together(doc, data):
    """Drop, duplicate or reverse a class in every per-class list, renumber a
    class id and the prototypes that name it, or change one SSVEP frequency
    (keeping the feature dimension), as drawn from ``data``."""
    kinds = ["drop", "duplicate", "reverse", "renumber"]
    kind = data.draw(st.sampled_from(kinds + ["freq"] * bool(doc["recipe"]["freqs"])))
    if kind == "freq":
        freqs = doc["recipe"]["freqs"]
        freqs[data.draw(st.integers(0, len(freqs) - 1))] = data.draw(NEW_FREQS)
        return
    if kind == "reverse":
        for key in CLASS_FIELDS:
            doc[key].reverse()
        return
    i = data.draw(st.integers(0, len(doc["class_ids"]) - 1))
    if kind == "drop":
        for key in CLASS_FIELDS:
            del doc[key][i]
    elif kind == "duplicate":
        for key in CLASS_FIELDS:
            doc[key].insert(i, doc[key][i])
    else:
        old, new = doc["class_ids"][i], data.draw(NEW_CLASS_IDS)
        doc["class_ids"][i] = new
        for prototype in doc["recipe"]["prototypes"]:
            if prototype["class_id"] == old:
                prototype["class_id"] = new


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_consistent_model_rewrite(fitted_models, data):
    """A model document whose tied fields are rewritten together, one to
    three times, is evaluated (0) or refused (3 data, 4 numeric), never
    crashes; one that is accepted saves to a document that loads and saves
    back byte-identically."""
    model, epochs = data.draw(st.sampled_from(fitted_models))
    doc = json.loads(model.read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        if doc["class_ids"]:
            _rewrite_classes_together(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        bad, saved, resaved = (Path(tmp) / name for name in ("bad.json", "a.json", "b.json"))
        bad.write_text(json.dumps(doc))
        code = run(["eval", "--model", str(bad), "--in", str(epochs),
                    "--report", str(Path(tmp) / "r.csv")])
        assert code in (0, 3, 4)
        if code == 0:
            save_model(saved, load_model(bad))
            save_model(resaved, load_model(saved))
            assert resaved.read_bytes() == saved.read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_epoch_header(fitted_models, data):
    """A P300 epoch file with one header value replaced at any depth is
    fitted and evaluated (0) or refused (3 data, 4 numeric), never crashes."""
    model, epochs = fitted_models[1]
    with tempfile.TemporaryDirectory() as tmp:
        bad = _rewritten_header(Path(tmp), epochs, lambda doc: _replace_one_value(doc, data))
        assert run(["fit", "--modality", "p300", "--in", str(bad),
                    "--out", str(Path(tmp) / "m.json")]) in (0, 3, 4)
        assert run(["eval", "--model", str(model), "--in", str(bad),
                    "--report", str(Path(tmp) / "r.csv")]) in (0, 3, 4)


# Non-finite, near the float32 maximum, near its smallest normal, and zero.
HOSTILE_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, 3e38, 1e-38, 0.0])


def _rewritten_payload(payload, data):
    """``payload`` with one float32 value or all of them replaced, every value
    scaled by 1e30, or cut short, as drawn from ``data``."""
    x = np.frombuffer(payload, dtype="<f4").copy()
    kind = data.draw(st.sampled_from(["one", "all", "scale", "truncate"]))
    if kind == "truncate":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if kind == "scale":
        x *= np.float32(1e30)
    elif kind == "all":
        x[:] = data.draw(HOSTILE_FLOATS)
    else:
        x[data.draw(st.integers(0, x.size - 1))] = data.draw(HOSTILE_FLOATS)
    return x.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_epoch_payload(fitted_models, data):
    """A P300 epoch file whose payload has one or every value set to NaN,
    +-inf, a huge, tiny or zero value, is scaled by 1e30 or is cut short is
    fitted, with and without a band-pass, and evaluated (0) or refused
    (3 data, 4 numeric), never crashes."""
    model, epochs = fitted_models[1]
    header, payload = epochs.read_bytes().split(b"\n", 1)
    with tempfile.TemporaryDirectory() as tmp:
        bad, out, report = (str(Path(tmp) / name) for name in ("bad.dat", "m.json", "r.csv"))
        Path(bad).write_bytes(header + b"\n" + _rewritten_payload(payload, data))
        fit = ["fit", "--modality", "p300", "--in", bad, "--out", out]
        for argv in (fit, fit + ["--band", "1", "16"],
                     ["eval", "--model", str(model), "--in", bad, "--report", report]):
            assert run(argv) in (0, 3, 4)
