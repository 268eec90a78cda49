"""A one-field model-file fuzz through `cli_main predict`: a real model file
with one top-level or `extras` field replaced by a value of the wrong kind
either predicts (exit 0) or ends in one `error:` line, never a traceback. A
clusterer option or the kernel ridge set to anything but a number is a data
error (exit 2) that names the field."""

import contextlib
import io
import json
from functools import cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qmlfinder import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    BudgetLedger,
    CircuitSpec,
    QEKClassifier,
    QNNClassifier,
    QNNRegressor,
    RBMClusterer,
)
from qmlfinder.cli import cli_main
from qmlfinder.store import model_to_spec

X2 = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8], [0.9, 0.1], [0.2, 0.9]])
LABELS = np.array([0, 1, 0, 1, 1, 0])
X3 = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.2, 0.1, 0.3], [0.8, 0.9, 0.7]])


@cache
def model_docs() -> dict[str, dict]:
    """One trained model file of each shape: QNN on ANGLE and on AMPLITUDE, QEK,
    QNN_REGRESSOR and RBM."""
    ledger = BudgetLedger()
    qnn_angle = QNNClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=3,
                              n_epochs=1, accuracy_threshold=0.8, seed=0)
    qnn_amplitude = QNNClassifier(CircuitSpec(1, AMPLITUDE, (STRONGLY_ENTANGLING,)),
                                  batch_size=3, n_epochs=1, accuracy_threshold=0.8, seed=1)
    qek = QEKClassifier(CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,) * 3), seed=2)
    regressor = QNNRegressor(CircuitSpec(1, ANGLE, (STRONGLY_ENTANGLING,)), batch_size=3,
                             n_epochs=1, r2_threshold=0.8, seed=3)
    rbm = RBMClusterer(input_size=3, encoder_layers=1, latent_size=2, n_hidden=1,
                       firing_threshold=0.5, n_epochs=2, seed=4)
    docs = {}
    for name, model, X, y in (
        ("QNN_ANGLE", qnn_angle, X2, LABELS),
        ("QNN_AMPLITUDE", qnn_amplitude, X2, LABELS),
        ("QEK", qek, X2, LABELS),
        ("QNN_REGRESSOR", regressor, X2[:, :1], X2[:, 1]),
        ("RBM", rbm, X3, None),
    ):
        model.fit(X, y, ledger)
        docs[name] = (model_to_spec(model, X.shape[1], {"source": "fit"}).as_dict(), X)
    return docs


# JSON text of the replacement values: wrong types, non-finite and extreme numbers
BAD_VALUES = ('"x"', "[1, 2]", '{"a": 1}', "true", "null", "NaN", "1e999", "1e308", "-1e308",
              "[]")
PLACEHOLDER = "__replaced__"
# extras their constructor type-checks, and the replacements that are no number
TYPED_EXTRAS = {"RBM": RBMClusterer.extras_keys, "QEK": ("ridge_lambda",)}
NOT_NUMBERS = ('"x"', "[1, 2]", '{"a": 1}', "true", "null", "[]")


@st.composite
def one_field_edits(draw):
    family = draw(st.sampled_from(sorted(model_docs())))
    doc, _ = model_docs()[family]
    paths = [(key,) for key in sorted(doc)] + [("extras", key) for key in sorted(doc["extras"])]
    return family, draw(st.sampled_from(paths)), draw(st.sampled_from(BAD_VALUES))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)
@given(edit=one_field_edits())
def test_a_model_file_with_one_bad_field_predicts_or_ends_in_one_error_line(workdir, edit):
    family, path, value = edit
    doc, X = model_docs()[family]
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = PLACEHOLDER
    model_path, data_path = workdir / "model.json", workdir / "data.csv"
    model_path.write_text(json.dumps(doc).replace(f'"{PLACEHOLDER}"', value))
    header = ",".join(f"f{i}" for i in range(X.shape[1]))
    data_path.write_text("\n".join([header, *(",".join(map(repr, row)) for row in X.tolist())]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["predict", "--model", str(model_path), "--data", str(data_path),
                         "--out", str(workdir / "predictions.csv")])
    lines = err.getvalue().splitlines()
    if parents == ["extras"] and key in TYPED_EXTRAS.get(family, ()) and value in NOT_NUMBERS:
        assert code == 2 and len(lines) == 1 and key in lines[0], lines
    if code != 0:
        assert code in (1, 2, 3)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
