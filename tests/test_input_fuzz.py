"""One-edit fuzzes of the files the CLI reads besides model files: a real
study-store line with one field replaced goes through `report`, and a CSV
table with one cell or header name replaced goes through `find-model` and
`predict`. Each either succeeds or ends in one `error:` line with its exit
code, never a traceback."""

import contextlib
import io
import json
from functools import cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qmlfinder.cli import cli_main

# 8 rows: two features and a binary label, which also serves as a regression target
TABLE = [["f0", "f1", "y"]] + [[repr(0.1 + 0.1 * i), repr(0.9 - 0.07 * i), str(i % 2)]
                               for i in range(8)]
TASKS = ("classification", "regression", "clustering")


def _run(argv):
    """Exit code and stderr lines of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue().splitlines()


def _write_table(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def _find_model(task, data, store, out, trials=1):
    """`find-model` of `trials` trials, 1 seed and 0 epochs."""
    target = [] if task == "clustering" else ["--target", "y"]
    return _run(["find-model", "--task", task, "--data", str(data), *target,
                 "--trials", str(trials), "--seeds", "1", "--epochs", "0",
                 "--store", str(store), "--out", str(out)])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@cache
def _clean_study(workdir, task):
    """The store lines and model file of a 3-trial study of `task` on TABLE."""
    data, store, model = (workdir / f"clean-{task}.{ext}" for ext in ("csv", "jsonl", "json"))
    _write_table(data, TABLE)
    code, err = _find_model(task, data, store, model, trials=3)
    assert code == 0, err
    return store.read_text(encoding="utf-8").splitlines(), model


# -- store lines -------------------------------------------------------------------

FIELDS = ("trial_id", "status", "feasible", "mean_score", "per_seed_scores", "total_calls",
          "subtotals", "seed", "sampled", "error")
BAD_VALUES = ('"x"', "[1, 2]", '{"a": 1}', "true", "false", "null", "NaN", "1e999", "1e308",
              "-1e308", "[]", "0", "-1", "2.5")


@settings(deadline=None)
@given(task=st.sampled_from(TASKS), index=st.integers(0, 2), field=st.sampled_from(FIELDS),
       value=st.sampled_from(BAD_VALUES))
def test_a_store_line_with_one_bad_field_reports_or_ends_in_one_error_line(workdir, task, index,
                                                                          field, value):
    lines, _ = _clean_study(workdir, task)
    doc = json.loads(lines[index])
    doc[field] = "__replaced__"
    edited = lines[:index] + [json.dumps(doc).replace('"__replaced__"', value)] + lines[index + 1:]
    store = workdir / "edited.jsonl"
    store.write_text("".join(line + "\n" for line in edited), encoding="utf-8")
    code, err = _run(["report", "--store", str(store), "--out", str(workdir / "report.csv")])
    assert code in (0, 2)
    if code:
        assert len(err) == 1 and err[0].startswith(f"error: corrupt record at index {index}: ")
        assert field in err[0]


# -- CSV tables --------------------------------------------------------------------

CELL_VALUES = ("", "nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e999", "x")


@st.composite
def table_edits(draw):
    """TABLE with one header name or cell replaced: by an empty, non-finite,
    extreme or non-numeric text, by itself behind a byte-order mark, or, in
    the header, by another column's name."""
    rows = [list(row) for row in TABLE]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    choices = [*CELL_VALUES, "\ufeff" + rows[i][j]]
    if i == 0:
        choices += [name for name in rows[0] if name != rows[0][j]]  # a repeated name
    rows[i][j] = draw(st.sampled_from(choices))
    return rows


@settings(deadline=None)
@given(task=st.sampled_from(TASKS), rows=table_edits())
def test_a_table_with_one_bad_cell_studies_predicts_or_ends_in_one_error_line(workdir, task,
                                                                             rows):
    data, features = workdir / "edited.csv", workdir / "features.csv"
    _write_table(data, rows)
    # a supervised model reads the feature columns only, a clusterer every column
    _write_table(features, rows if task == "clustering" else [row[:-1] for row in rows])
    _, model = _clean_study(workdir, task)
    for code, err in (
        _find_model(task, data, workdir / "s.jsonl", workdir / "m.json"),
        _run(["predict", "--model", str(model), "--data", str(features),
              "--out", str(workdir / "predictions.csv")]),
    ):
        assert code in (0, 1, 2, 3)
        if code:
            assert len(err) == 1 and err[0].startswith("error: "), err
