"""CLI surface: subcommands, exit codes, and invocation determinism."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from qmlfinder import PortableRng
from qmlfinder.cli import EXIT_DATA, EXIT_OK, EXIT_STUDY, EXIT_USAGE, cli_main


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def blobs_csv(tmp_path):
    rng = PortableRng(0)
    rows = []
    for label, center in enumerate([(1.0, 1.0), (-1.0, -1.0)]):
        for _ in range(10):
            rows.append(
                (center[0] + rng.uniform(-0.5, 0.5), center[1] + rng.uniform(-0.5, 0.5), label)
            )
    path = tmp_path / "blobs.csv"
    write_csv(path, ["f0", "f1", "y"], rows)
    return path


FAST_FLAGS = ["--trials", "4", "--seeds", "1", "--epochs", "2"]


def run_find(tmp_path, blobs_csv, extra=()):
    return cli_main(
        ["find-model", "--task", "classification", "--data", str(blobs_csv), "--target", "y",
         *FAST_FLAGS, "--store", str(tmp_path / "study.jsonl"),
         "--out", str(tmp_path / "model.json"), *extra]
    )


def test_find_model_happy_path(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "study.jsonl").exists()
    assert "wrote" in capsys.readouterr().out


def test_predict_roundtrip(tmp_path, blobs_csv):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(1.0, 1.0), (-1.0, -1.0)])
    code = cli_main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(features),
         "--out", str(tmp_path / "pred.csv")]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 3


def test_predict_feature_count_mismatch_is_data_error(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["f0"], [(1.0,), (2.0,)])
    code = cli_main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(bad),
         "--out", str(tmp_path / "p.csv")]
    )
    assert code == EXIT_DATA
    assert "feature columns" in capsys.readouterr().err


def test_report_subcommand(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    code = cli_main(
        ["report", "--store", str(tmp_path / "study.jsonl"), "--out", str(tmp_path / "r.csv")]
    )
    assert code == EXIT_OK
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header.startswith("trial_id,status,feasible,mean_score,total_calls")
    assert "best trial" in capsys.readouterr().out


def test_unknown_task_is_usage_error(tmp_path, blobs_csv):
    code = cli_main(["find-model", "--task", "ranking", "--data", str(blobs_csv)])
    assert code == EXIT_USAGE


def test_missing_target_for_classification_is_usage_error(tmp_path, blobs_csv):
    code = cli_main(
        ["find-model", "--task", "classification", "--data", str(blobs_csv), *FAST_FLAGS,
         "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_USAGE


def test_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, blobs_csv):
    # spreadsheet programs' "CSV UTF-8" starts the file with U+FEFF
    lines = blobs_csv.read_text().splitlines()
    moved = [",".join([cells[-1], *cells[:-1]]) for cells in (line.split(",") for line in lines)]
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + "\n".join(moved) + "\n", encoding="utf-8")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfy,f0,f1\n")
    assert run_find(tmp_path, path) == EXIT_OK
    assert json.loads((tmp_path / "model.json").read_text())["n_features"] == 2


def test_non_binary_target_is_data_error(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    write_csv(path, ["f0", "y"], [(0.1, 0), (0.2, 1), (0.3, 2)])
    code = cli_main(
        ["find-model", "--task", "classification", "--data", str(path), "--target", "y",
         *FAST_FLAGS, "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA
    assert "binary" in capsys.readouterr().err


def test_non_numeric_column_is_data_error(tmp_path, capsys):
    path = tmp_path / "text.csv"
    path.write_text("f0,y\nhello,0\n")
    code = cli_main(
        ["find-model", "--task", "classification", "--data", str(path), "--target", "y",
         "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA
    assert "non-numeric" in capsys.readouterr().err


def test_missing_target_column_is_data_error(tmp_path, blobs_csv, capsys):
    code = cli_main(
        ["find-model", "--task", "classification", "--data", str(blobs_csv),
         "--target", "label", *FAST_FLAGS,
         "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA
    assert "label" in capsys.readouterr().err


def test_clustering_ignores_target_with_warning(tmp_path, capsys):
    rng = PortableRng(5)
    rows = []
    for center in (0.0, 4.0):
        for _ in range(8):
            rows.append(tuple(center + rng.uniform(-0.3, 0.3) for _ in range(4)))
    path = tmp_path / "clusters.csv"
    write_csv(path, ["a", "b", "c", "d"], rows)
    code = cli_main(
        ["find-model", "--task", "clustering", "--data", str(path), "--target", "a",
         "--trials", "4", "--seeds", "1", "--epochs", "10", "--threshold", "0.3",
         "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_OK
    assert "ignored" in capsys.readouterr().err


def test_constant_regression_target_is_study_failure(tmp_path, capsys):
    path = tmp_path / "const.csv"
    write_csv(path, ["f0", "y"], [(0.1, 5.0), (0.2, 5.0), (0.3, 5.0)])
    code = cli_main(
        ["find-model", "--task", "regression", "--data", str(path), "--target", "y",
         *FAST_FLAGS, "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_STUDY


def test_tune_on_kernel_model_is_rejected(tmp_path, blobs_csv, capsys):
    # train a QEK directly and serialize it, then ask the tuner to tune it
    import numpy as np

    from qmlfinder import (
        ANGLE,
        BASIC_ENTANGLER,
        BudgetLedger,
        CircuitSpec,
        QEKClassifier,
    )
    from qmlfinder.store import model_to_spec, write_model_spec

    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    y = np.array([0, 1, 0, 1])
    model = QEKClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,) * 3), seed=0)
    model.fit(X, y, BudgetLedger())
    spec_path = tmp_path / "qek.json"
    write_model_spec(model_to_spec(model, 2, {"mean_score": 1.0, "total_calls": 1,
                                              "base_seed": 0, "feasible": True}), spec_path)
    code = cli_main(
        ["tune", "--model", str(spec_path), "--data", str(blobs_csv), "--target", "y",
         "--trials", "2", "--seeds", "1", "--store", str(tmp_path / "t.jsonl")]
    )
    assert code == EXIT_DATA


def test_tune_happy_path(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    code = cli_main(
        ["tune", "--model", str(tmp_path / "model.json"), "--data", str(blobs_csv),
         "--target", "y", "--trials", "2", "--seeds", "1",
         "--store", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "opt.json")]
    )
    assert code == EXIT_OK  # the fixture study picks a QNN, so the tuner must run
    assert '"kind"' in capsys.readouterr().out
    assert (tmp_path / "opt.json").exists()


def test_identical_invocations_are_byte_identical(tmp_path, blobs_csv):
    out = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        assert run_find(workdir, blobs_csv) == EXIT_OK
        assert cli_main(
            ["report", "--store", str(workdir / "study.jsonl"),
             "--out", str(workdir / "report.csv")]
        ) == EXIT_OK
        out.append(
            ((workdir / "model.json").read_bytes(), (workdir / "report.csv").read_bytes())
        )
    assert out[0] == out[1]


def test_console_script_entry(tmp_path, blobs_csv):
    result = subprocess.run(
        [sys.executable, "-m", "qmlfinder.cli", "find-model", "--task", "classification",
         "--data", str(blobs_csv), "--target", "y", "--trials", "2", "--seeds", "1",
         "--epochs", "1", "--store", str(tmp_path / "s.jsonl"),
         "--out", str(tmp_path / "m.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert (tmp_path / "m.json").exists()


# -- malformed inputs, invalid counts, and predict's call report ---------------


def test_non_finite_cells_are_data_errors(tmp_path, capsys):
    path = tmp_path / "nonfinite.csv"
    write_csv(path, ["f0", "f1", "y"],
              [(0.1, 0.2, 0), (0.3, "nan", 1), (0.5, 0.6, 0), ("inf", 0.8, 1)])
    code = cli_main(
        ["find-model", "--task", "classification", "--data", str(path), "--target", "y",
         *FAST_FLAGS, "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "non-finite" in err and "'f1'" in err and "row 2" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("cells, message", [
    (("nan", "x"), "non-finite value 'nan' in column 'f0' (row 2)"),
    (("x", "nan"), "non-numeric value 'x' in column 'f0' (row 2)"),
    (("0.5", "-inf"), "non-finite value '-inf' in column 'f1' (row 2)"),
    ((" 1", "1e999"), "non-finite value '1e999' in column 'f1' (row 2)"),
])
def test_a_table_names_its_first_bad_cell_in_row_order(tmp_path, cells, message):
    from qmlfinder.cli import DataFormatError, _read_table

    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1\n0.1,0.2\n{','.join(cells)}\nx,x\n")
    with pytest.raises(DataFormatError) as raised:
        _read_table(str(path))
    assert str(raised.value) == f"{path}: {message}"


def test_a_table_holds_each_cell_as_float_reads_it(tmp_path):
    from qmlfinder.cli import _read_table

    cells = [["-0.0", "5e-324", "1.7976931348623157e308"], [" 0.1", "1_000", "-3"],
             ["0.125", "1e-308", "2.5e-310"]]
    path = tmp_path / "values.csv"
    path.write_text("a,b,c\n" + "".join(",".join(row) + "\n" for row in cells))
    header, data = _read_table(str(path))
    want = np.array([[float(cell) for cell in row] for row in cells])
    assert header == ["a", "b", "c"] and data.dtype == np.float64
    assert data.shape == (3, 3) and data.tobytes() == want.tobytes()


def test_predict_on_infinite_row_is_data_error(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv) == EXIT_OK
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(1.0, 1.0), ("-inf", -1.0)])
    code = cli_main(
        ["predict", "--model", str(tmp_path / "model.json"), "--data", str(features),
         "--out", str(tmp_path / "pred.csv")]
    )
    assert code == EXIT_DATA
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


def _qnn_model_doc():
    from qmlfinder import ANGLE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    model = QNNClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=2, n_epochs=1,
                          accuracy_threshold=0.8, seed=0)
    return model_to_spec(model, 2, {}).as_dict()


MALFORMED_MODEL_EDITS = {
    "format_version": lambda doc: doc.update(format_version=2),
    "truncated_weights": lambda doc: doc.update(weights=doc["weights"][:-1]),
    "unknown_family": lambda doc: doc.update(model_family="PERCEPTRON"),
    "n_wires_text": lambda doc: doc.update(n_wires="two"),
    "layers_number": lambda doc: doc.update(layers=5),
}


@pytest.mark.parametrize("command", ["predict", "tune"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_EDITS))
def test_malformed_model_file_is_data_error(tmp_path, blobs_csv, capsys, command, case):
    import json

    doc = _qnn_model_doc()
    MALFORMED_MODEL_EDITS[case](doc)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    if command == "predict":
        features = tmp_path / "features.csv"
        write_csv(features, ["f0", "f1"], [(1.0, 1.0), (-1.0, -1.0)])
        argv = ["predict", "--model", str(model_path), "--data", str(features),
                "--out", str(tmp_path / "pred.csv")]
    else:
        argv = ["tune", "--model", str(model_path), "--data", str(blobs_csv), "--target", "y",
                "--trials", "1", "--seeds", "1", "--store", str(tmp_path / "t.jsonl")]
    assert cli_main(argv) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _rbm_model_doc():
    from qmlfinder import RBMClusterer
    from qmlfinder.store import model_to_spec

    X = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.2, 0.1, 0.3], [0.8, 0.9, 0.7]])
    model = RBMClusterer(input_size=3, encoder_layers=1, latent_size=2, n_hidden=1,
                         firing_threshold=0.5, n_epochs=2, seed=0).fit(X)
    return model_to_spec(model, 3, {}).as_dict()


@pytest.mark.parametrize("widths", [[3, 2, 2], [3, 3]], ids=["extra_layer", "other_width"])
def test_rbm_model_file_with_foreign_encoder_widths_is_data_error(tmp_path, capsys, widths):
    import json

    doc = _rbm_model_doc()
    assert doc["extras"]["encoder_widths"] == [3, 2]
    doc["extras"]["encoder_widths"] = widths
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1", "f2"], [(0.1, 0.2, 0.3), (0.9, 0.8, 0.7)])
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "encoder_widths" in err[0]
    assert not (tmp_path / "pred.csv").exists()


def test_predict_on_row_the_model_cannot_embed_is_data_error(tmp_path, capsys):
    import json

    from qmlfinder import AMPLITUDE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    model = QNNClassifier(CircuitSpec(1, AMPLITUDE, (BASIC_ENTANGLER,)), batch_size=2,
                          n_epochs=1, accuracy_threshold=0.8, seed=0)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_spec(model, 2, {}).as_dict()))
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(1.0, 0.5), (0.0, 0.0)])
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {features}: ") and "all-zero" in err[0]
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["find-model", "--task", "classification", "--trials", "0"],
        ["find-model", "--task", "classification", "--seeds", "0"],
        ["find-model", "--task", "classification", "--epochs", "-1"],
        ["tune", "--model", "model.json", "--trials", "0"],
        ["tune", "--model", "model.json", "--seeds", "0"],
    ],
    ids=["find-trials", "find-seeds", "find-epochs", "tune-trials", "tune-seeds"],
)
def test_invalid_counts_are_usage_errors(tmp_path, blobs_csv, argv, capsys):
    code = cli_main(
        [*argv, "--data", str(blobs_csv), "--target", "y",
         "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "out.json")]
    )
    assert code == EXIT_USAGE
    assert "must be >=" in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
def test_nan_threshold_is_a_usage_error(tmp_path, blobs_csv, text, capsys):
    # no score is >= nan, so a study would pick an "infeasible-best" model and exit 0
    assert run_find(tmp_path, blobs_csv, ["--threshold", text]) == EXIT_USAGE
    assert "argument --threshold: must be a number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "study.jsonl").exists()


@pytest.mark.parametrize("text, tag", [("inf", "infeasible-best"), ("-inf", "feasible")])
def test_infinite_thresholds_keep_their_meaning(tmp_path, blobs_csv, text, tag, capsys):
    assert run_find(tmp_path, blobs_csv, [f"--threshold={text}"]) == EXIT_OK
    assert f"({tag})" in capsys.readouterr().out


def test_a_model_file_the_study_cannot_write_leaves_the_previous_one(tmp_path, capsys):
    # a QNN regressor stores the study threshold, and JSON has no inf: the study
    # runs, then exits 3 without touching the model file already there
    xs = np.linspace(-np.pi, np.pi, 12)
    data = tmp_path / "sine.csv"
    write_csv(data, ["f0", "y"], zip(xs, np.sin(xs)))
    model = tmp_path / "model.json"
    model.write_bytes(b'{"previous":1}')
    code = cli_main(
        ["find-model", "--task", "regression", "--data", str(data), "--target", "y",
         *FAST_FLAGS, "--threshold=inf", "--store", str(tmp_path / "s.jsonl"),
         "--out", str(model)]
    )
    assert code == EXIT_STUDY
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert model.read_bytes() == b'{"previous":1}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "s.jsonl", "sine.csv"]


@pytest.mark.parametrize("text", ["-inf", "-1e3"])
def test_a_negative_threshold_may_follow_its_flag_after_a_space(tmp_path, blobs_csv, text,
                                                                capsys):
    # argparse alone reads `-inf` and `-1e3` as options, not as the flag's value
    assert run_find(tmp_path, blobs_csv, ["--threshold", text]) == EXIT_OK
    assert "(feasible)" in capsys.readouterr().out


def test_threshold_without_a_value_is_a_usage_error(tmp_path, blobs_csv, capsys):
    assert run_find(tmp_path, blobs_csv, ["--threshold", "--seed", "1"]) == EXIT_USAGE
    assert "argument --threshold: expected one argument" in capsys.readouterr().err


def test_predict_reports_device_calls(tmp_path, capsys):
    from qmlfinder import (
        ANGLE,
        BASIC_ENTANGLER,
        BudgetLedger,
        CircuitSpec,
        QEKClassifier,
        RBMClusterer,
    )
    from qmlfinder.store import model_to_spec, write_model_spec

    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8], [0.9, 0.1]])
    qek = QEKClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), seed=0)
    qek.fit(X, np.array([0, 1, 0, 1, 1]), BudgetLedger())
    rbm = RBMClusterer(input_size=2, encoder_layers=1, latent_size=2, n_hidden=1,
                       firing_threshold=0.5, n_epochs=2, seed=0)
    rbm.fit(X)
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(0.2, 0.3), (0.8, 0.9), (0.4, 0.1)])
    n, m = len(X), 3
    for model, calls in ((qek, 2 * n * m), (rbm, 0)):
        model_path = tmp_path / f"{model.family}.json"
        write_model_spec(model_to_spec(model, 2, {}), model_path)
        out = tmp_path / f"{model.family}.csv"
        code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                         "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            f"wrote {m} predictions to {out} ({calls} device calls)\n"
        )


def _qek_model_doc():
    from qmlfinder import ANGLE, BASIC_ENTANGLER, BudgetLedger, CircuitSpec, QEKClassifier
    from qmlfinder.store import model_to_spec

    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    model = QEKClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,) * 3), seed=0)
    model.fit(X, np.array([0, 1, 0, 1]), BudgetLedger())
    return model_to_spec(model, 2, {}).as_dict()


NON_FINITE_MODEL_EDITS = {
    "weights": lambda doc: doc["weights"].__setitem__(0, float("nan")),
    "dual_coeffs": lambda doc: doc["extras"]["dual_coeffs"].__setitem__(0, float("nan")),
}


@pytest.mark.parametrize("command", ["predict", "tune"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_MODEL_EDITS))
def test_non_finite_model_file_is_data_error(tmp_path, blobs_csv, capsys, command, field):
    import json

    doc = _qek_model_doc()
    NON_FINITE_MODEL_EDITS[field](doc)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))  # writes the non-standard NaN literal
    assert "NaN" in model_path.read_text()
    if command == "predict":
        features = tmp_path / "features.csv"
        write_csv(features, ["f0", "f1"], [(1.0, 1.0), (-1.0, -1.0)])
        argv = ["predict", "--model", str(model_path), "--data", str(features),
                "--out", str(tmp_path / "pred.csv")]
    else:
        argv = ["tune", "--model", str(model_path), "--data", str(blobs_csv), "--target", "y",
                "--trials", "1", "--seeds", "1", "--store", str(tmp_path / "t.jsonl")]
    assert cli_main(argv) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "non-finite" in err[0]
    assert not (tmp_path / "pred.csv").exists()


def test_model_file_with_integer_beyond_float_range_is_data_error(tmp_path, capsys):
    import json

    doc = _qnn_model_doc()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc).replace(repr(doc["weights"][0]), "1" + "0" * 400, 1))
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(1.0, 1.0)])
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


EXTRAS_SHAPE_EDITS = {
    # case: (model doc, edit, feature count of the data file, the field named)
    "short_dual_coeffs": (_qek_model_doc, lambda x: x["dual_coeffs"].pop(), 2, "dual_coeffs"),
    "wide_support_rows": (_qek_model_doc,
                          lambda x: x.update(support_data=[r + [0.5] for r in x["support_data"]]),
                          2, "support_data"),
    "flat_support_data": (_qek_model_doc, lambda x: x.update(support_data=x["dual_coeffs"]),
                          2, "support_data"),
    "short_feature_min": (_rbm_model_doc, lambda x: x["feature_min"].pop(), 3, "feature_min"),
    "long_feature_max": (_rbm_model_doc, lambda x: x["feature_max"].append(1.0), 3,
                         "feature_max"),
}


@pytest.mark.parametrize("case", sorted(EXTRAS_SHAPE_EDITS))
def test_model_file_with_misshapen_extras_is_a_model_file_error(tmp_path, capsys, case):
    import json

    make_doc, edit, n_features, field = EXTRAS_SHAPE_EDITS[case]
    doc = make_doc()
    edit(doc["extras"])
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    write_csv(features, [f"f{i}" for i in range(n_features)], [[0.2] * n_features] * 2)
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path}: ") and field in err[0]
    assert not (tmp_path / "pred.csv").exists()


DEGENERATE_TARGETS = {
    # case: (task, header, rows, exit code); exit 3 is the study failure that
    # every trial of a constant regression target would end in
    "one_class": ("classification", ["f0", "f1", "y"],
                  [(0.1, 0.2, 1), (0.3, 0.4, 1), (0.5, 0.6, 1), (0.7, 0.8, 1)], EXIT_DATA),
    "constant_regression": ("regression", ["f0", "y"],
                            [(0.1, 2.5), (0.2, 2.5), (0.3, 2.5), (0.4, 2.5)], EXIT_STUDY),
    "single_column_clustering": ("clustering", ["y"], [(0.1,), (0.2,), (0.3,), (0.4,)],
                                 EXIT_DATA),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_TARGETS))
def test_degenerate_target_is_refused_before_the_study(tmp_path, capsys, case):
    task, header, rows, code = DEGENERATE_TARGETS[case]
    path = tmp_path / "data.csv"
    write_csv(path, header, rows)
    target = [] if task == "clustering" else ["--target", "y"]
    argv = ["find-model", "--task", task, "--data", str(path), *target, *FAST_FLAGS,
            "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")]
    assert cli_main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'y'" in err[0]
    assert not (tmp_path / "s.jsonl").exists()
    assert not (tmp_path / "m.json").exists()


def test_tune_on_one_class_target_is_data_error(tmp_path, capsys):
    import json

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(_qnn_model_doc()))
    path = tmp_path / "one_class.csv"
    write_csv(path, ["f0", "f1", "y"], [(0.1, 0.2, 0), (0.3, 0.4, 0), (0.5, 0.6, 0)])
    code = cli_main(["tune", "--model", str(model_path), "--data", str(path), "--target", "y",
                     "--trials", "1", "--seeds", "1", "--store", str(tmp_path / "t.jsonl")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'y'" in err[0] and "only class 0" in err[0]
    assert not (tmp_path / "t.jsonl").exists()


# -- model files of the wrong type, rows whose norm overflows -------------------


def _regressor_model_doc():
    from qmlfinder import ANGLE, BASIC_ENTANGLER, BudgetLedger, CircuitSpec, QNNRegressor
    from qmlfinder.store import model_to_spec

    model = QNNRegressor(CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,)), batch_size=2, n_epochs=1,
                         r2_threshold=0.8, seed=0)  # one weight
    xs = np.linspace(-1.0, 1.0, 6)
    model.fit(xs[:, None], np.sin(xs), BudgetLedger())
    return model_to_spec(model, 1, {}).as_dict()


WRONG_TYPE_MODEL_EDITS = {
    # case: (model doc, edit, the field named)
    **{f"{bound}_{kind}": (_regressor_model_doc,
                           lambda doc, bound=bound, value=value: doc["extras"].update(
                               {bound: value}), bound)
       for bound in ("target_min", "target_max")
       for kind, value in (("text", "1.0"), ("list", [1.0]), ("object", {"a": 1.0}),
                           ("empty_list", []))},
    **{f"weights_{kind}": (_regressor_model_doc,
                           lambda doc, value=value: doc.update(weights=value), "weights")
       for kind, value in (("number", 0.5), ("true", True), ("null", None))},
    "weights_holding_a_bool": (_qnn_model_doc, lambda doc: doc["weights"].__setitem__(0, True),
                               "weights"),
    "n_wires_true": (_regressor_model_doc, lambda doc: doc.update(n_wires=True), "n_wires"),
    "n_features_float": (_qnn_model_doc, lambda doc: doc.update(n_features=2.0), "n_features"),
    "format_version_true": (_qnn_model_doc, lambda doc: doc.update(format_version=True),
                            "format_version"),
    "unknown_task": (_qnn_model_doc, lambda doc: doc.update(task="x"), "task"),
    "foreign_task": (_regressor_model_doc, lambda doc: doc.update(task="classification"),
                     "task"),
    "embedding_text": (_qnn_model_doc, lambda doc: doc.update(embedding="ANGLE"), "embedding"),
    "embedding_without_options": (_qnn_model_doc,
                                  lambda doc: doc["embedding"].pop("fixed_options"),
                                  "embedding"),
    "layers_of_numbers": (_qnn_model_doc, lambda doc: doc.update(layers=[1]), "layers"),
    "extras_list": (_qnn_model_doc, lambda doc: doc.update(extras=[]), "extras"),
    "metadata_number": (_qnn_model_doc, lambda doc: doc.update(metadata=5), "metadata"),
    "r2_threshold_text": (_regressor_model_doc,
                          lambda doc: doc["extras"].update(r2_threshold="0.8"), "r2_threshold"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_MODEL_EDITS))
def test_model_file_field_of_the_wrong_type_is_data_error(tmp_path, capsys, case):
    make_doc, edit, field = WRONG_TYPE_MODEL_EDITS[case]
    doc = make_doc()
    edit(doc)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    n_features = 1 if make_doc is _regressor_model_doc else 2
    write_csv(features, [f"f{i}" for i in range(n_features)], [[0.2] * n_features] * 2)
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path}: ") and field in err[0]
    assert not (tmp_path / "pred.csv").exists()


MALFORMED_QNN_EXTRAS = {
    # case: (extras field, value)
    **{f"n_epochs_{kind}": ("n_epochs", value)
       for kind, value in (("text", "x"), ("huge", 1e308), ("fraction", 2.5), ("negative", -1))},
    "batch_size_true": ("batch_size", True),
    "batch_size_zero": ("batch_size", 0),
    "batch_size_fraction": ("batch_size", 2.5),
    "accuracy_threshold_text": ("accuracy_threshold", "0.8"),
    "accuracy_threshold_true": ("accuracy_threshold", True),
}


@pytest.mark.parametrize("command", ["tune", "predict"])
@pytest.mark.parametrize("case", sorted(MALFORMED_QNN_EXTRAS))
def test_malformed_qnn_extras_are_data_errors(tmp_path, blobs_csv, capsys, command, case):
    # tune would otherwise run its whole study on them (or tune a batch size of true)
    field, value = MALFORMED_QNN_EXTRAS[case]
    doc = _qnn_model_doc()
    doc["extras"][field] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    out = tmp_path / ("t.jsonl" if command == "tune" else "pred.csv")
    if command == "tune":
        argv = ["tune", "--model", str(model_path), "--data", str(blobs_csv), "--target", "y",
                "--trials", "2", "--seeds", "1", "--store", str(out)]
    else:
        features = tmp_path / "features.csv"
        write_csv(features, ["f0", "f1"], [(1.0, 1.0), (-1.0, -1.0)])
        argv = ["predict", "--model", str(model_path), "--data", str(features),
                "--out", str(out)]
    assert cli_main(argv) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path}: ") and field in err[0]
    assert not out.exists()


MALFORMED_CLUSTERER_AND_QEK_EXTRAS = {
    # case: (model doc, extras field, value)
    **{f"{field}_{kind}": (_rbm_model_doc, field, value)
       for field in ("input_size", "encoder_layers", "latent_size", "n_hidden", "n_epochs")
       for kind, value in (("text", "x"), ("list", [1, 2]), ("true", True), ("fraction", 2.5))},
    "firing_threshold_text": (_rbm_model_doc, "firing_threshold", "0.5"),
    "firing_threshold_true": (_rbm_model_doc, "firing_threshold", True),
    "ridge_lambda_text": (_qek_model_doc, "ridge_lambda", "x"),
    "ridge_lambda_true": (_qek_model_doc, "ridge_lambda", True),
    "ridge_lambda_list": (_qek_model_doc, "ridge_lambda", [1e-3]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CLUSTERER_AND_QEK_EXTRAS))
def test_malformed_clusterer_and_qek_extras_are_data_errors(tmp_path, capsys, case):
    make_doc, field, value = MALFORMED_CLUSTERER_AND_QEK_EXTRAS[case]
    doc = make_doc()
    doc["extras"][field] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    n_features = 3 if make_doc is _rbm_model_doc else 2
    write_csv(features, [f"f{i}" for i in range(n_features)], [[0.2] * n_features] * 2)
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path}: ") and field in err[0]
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("task", ["clustering", "regression"])
def test_a_column_whose_range_overflows_is_data_error(tmp_path, capsys, task):
    # min-max scaling would overflow: the study used to warn and fail every trial
    data = tmp_path / "huge.csv"
    write_csv(data, ["f0", "f1", "y"],
              [(0.1 * i, 0.2 * i, sign * 1e308) for i, sign in enumerate([1.0, -1.0] * 4)])
    target = [] if task == "clustering" else ["--target", "y"]
    code = cli_main(["find-model", "--task", task, "--data", str(data), *target, *FAST_FLAGS,
                     "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: column 'y' ") and "overflows" in err[0]
    assert not (tmp_path / "s.jsonl").exists()
    assert not (tmp_path / "m.json").exists()


def test_a_regressor_whose_target_range_overflows_is_data_error(tmp_path, capsys):
    doc = _regressor_model_doc()
    doc["extras"].update(target_min=-1e308, target_max=1e308)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    write_csv(features, ["f0"], [[0.2], [0.4]])
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path}: ")
    assert "target range" in err[0] and "overflows" in err[0]
    assert not (tmp_path / "pred.csv").exists()


def test_rows_whose_norm_overflows_fail_every_amplitude_trial(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    write_csv(data, ["f0", "f1", "y"],
              [(sign * 1e308, -sign * 1e308, i % 2)
               for i, sign in enumerate([1.0, -1.0] * 6)])
    store = tmp_path / "s.jsonl"
    code = cli_main(["find-model", "--task", "classification", "--data", str(data),
                     "--target", "y", "--trials", "8", "--seeds", "1", "--epochs", "2",
                     "--store", str(store),
                     "--out", str(tmp_path / "m.json")])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    records = [json.loads(line) for line in store.read_text().splitlines()]
    amplitude = [r for r in records if r["sampled"]["embedding"] == "AMPLITUDE"]
    assert amplitude and len(amplitude) < len(records)
    for record in amplitude:
        assert record["status"] == "failed"
        assert "AMPLITUDE embedding of a vector whose norm overflows" in record["error"]


def test_predict_on_row_whose_norm_overflows_is_data_error(tmp_path, capsys):
    from qmlfinder import AMPLITUDE, BASIC_ENTANGLER, CircuitSpec, QNNClassifier
    from qmlfinder.store import model_to_spec

    model = QNNClassifier(CircuitSpec(1, AMPLITUDE, (BASIC_ENTANGLER,)), batch_size=2,
                          n_epochs=1, accuracy_threshold=0.8, seed=0)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_spec(model, 2, {}).as_dict()))
    features = tmp_path / "features.csv"
    write_csv(features, ["f0", "f1"], [(1.0, 0.5), (1e308, -1e308)])
    code = cli_main(["predict", "--model", str(model_path), "--data", str(features),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {features}: ") and "overflows" in err[0]
    assert not (tmp_path / "pred.csv").exists()


# -- the invoked command's parser against the full parser ----------------------

COMMANDS = ["find-model", "tune", "report", "predict"]
PARSER_ARGVS = {
    "no_argv": [],
    "help": ["--help"],
    "help_before_command": ["-h", "predict"],
    "unknown_command": ["bogus"],
    **{f"{command}_help": [command, "--help"] for command in COMMANDS},
    **{f"{command}_missing_required": [command] for command in COMMANDS},
    "unknown_task": ["find-model", "--task", "nope", "--data", "missing.csv"],
    "zero_trials": ["find-model", "--task", "classification", "--data", "missing.csv",
                    "--trials", "0"],
    "nan_threshold": ["find-model", "--task", "classification", "--data", "missing.csv",
                      "--threshold", "nan"],
    "negative_infinite_threshold": ["find-model", "--task", "classification", "--data",
                                    "missing.csv", "--target", "y", "--threshold", "-inf"],
    "negative_infinite_threshold_joined": ["find-model", "--task", "classification",
                                           "--data", "missing.csv", "--target", "y",
                                           "--threshold=-inf"],
    "abbreviated_option": ["predict", "--mod", "missing.json", "--data", "missing.csv"],
    "unknown_option": ["predict", "--model", "missing.json", "--data", "missing.csv",
                       "--bogus"],
    "extra_positional": ["predict", "--model", "missing.json", "--data", "missing.csv",
                         "extra"],
}


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(PARSER_ARGVS))
def test_the_command_parser_prints_what_the_full_parser_prints(monkeypatch, tmp_path, case):
    from qmlfinder import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSER_ARGVS[case]
    got = _outcome(argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert got == _outcome(argv)
    assert got[0] in (EXIT_OK, EXIT_USAGE, EXIT_DATA)


@pytest.mark.parametrize("argv", [[command, "--help"] for command in COMMANDS]
                         + [["predict", "--model", "missing.json", "--data", "missing.csv"]])
def test_a_command_builds_only_its_own_parser(monkeypatch, tmp_path, argv, capsys):
    from qmlfinder import cli

    def refuse():
        raise AssertionError("built the parser of every command")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_build_parser", refuse)
    code = cli_main(argv)
    if argv[1] == "--help":
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: qmlfinder {argv[0]} ")
    else:
        assert code == EXIT_DATA  # parsed, then the model file is missing
