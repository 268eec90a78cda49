"""Store durability, model-file fidelity, and the CSV report."""

import csv
import json
import threading

import numpy as np
import pytest

from qmlfinder import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    BudgetLedger,
    CallCounter,
    CircuitSpec,
    PortableRng,
    QEKClassifier,
    QNNClassifier,
    QNNRegressor,
    RBMClusterer,
    TrialRecord,
    select_best,
)
from qmlfinder.store import (
    ModelSpec,
    StoreCorruptionError,
    StudyStore,
    export_report,
    model_from_spec,
    model_to_spec,
    read_model_spec,
    write_model_spec,
    write_text,
)


def _record(trial_id, sampled=None, mean_score=0.5, calls=10, status="complete"):
    return TrialRecord(
        trial_id=trial_id,
        seed=trial_id * 11,
        sampled=sampled or {"n_layers": 2, "embedding": "ANGLE"},
        per_seed_scores=[mean_score] if mean_score is not None else [],
        mean_score=mean_score,
        total_calls=calls,
        subtotals={"training_gradients": calls, "training_forward": 0, "scoring": 0,
                   "kernel": 0, "total": calls},
        feasible=status == "complete" and (mean_score or 0) >= 0.5,
        status=status,
    )


# -- study store -----------------------------------------------------------------


def test_append_then_load_preserves_order(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    originals = [_record(i, mean_score=0.1 * i) for i in range(5)]
    for record in originals:
        store.append_trial(record)
    loaded = store.load()
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in originals]


def test_a_store_line_is_the_record_fields_in_order(tmp_path):
    path = tmp_path / "s.jsonl"
    record = TrialRecord(
        error="ValueError: boom", sampled={"model_type": "QNN", "batch_size": 16}, seed=11,
        subtotals={"scoring": 3, "total": 7}, total_calls=7, per_seed_scores=[0.25, 0.75],
        mean_score=0.5, feasible=False, status="failed", trial_id=3,
    )
    StudyStore(path).append_trial(record)
    assert path.read_text(encoding="utf-8") == (
        '{"trial_id": 3, "status": "failed", "feasible": false, "mean_score": 0.5, '
        '"per_seed_scores": [0.25, 0.75], "total_calls": 7, '
        '"subtotals": {"scoring": 3, "total": 7}, "seed": 11, '
        '"sampled": {"model_type": "QNN", "batch_size": 16}, "error": "ValueError: boom"}\n'
    )
    assert StudyStore(path).load() == [record]


def test_a_store_line_without_error_loads_with_error_none(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"trial_id": 0, "status": "complete", "feasible": true, "mean_score": 1.0, '
                    '"per_seed_scores": [1.0], "total_calls": 2, "subtotals": {"total": 2}, '
                    '"seed": 5, "sampled": {}}\n', encoding="utf-8")
    (record,) = StudyStore(path).load()
    assert record.error is None and record.trial_id == 0 and record.seed == 5


def test_load_missing_file_is_empty(tmp_path):
    assert StudyStore(tmp_path / "nope.jsonl").load() == []


def test_concurrent_appenders_leave_no_torn_lines(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")

    def append_many(offset):
        for i in range(100):
            store.append_trial(_record(offset + i))

    threads = [threading.Thread(target=append_many, args=(k * 100,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = store.load()
    assert len(records) == 200
    assert {r.trial_id for r in records} == set(range(200))


def test_truncated_final_line_reports_index(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    for i in range(3):
        store.append_trial(_record(i))
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write('{"trial_id": 3, "status"')  # torn write, no newline
    with pytest.raises(StoreCorruptionError) as info:
        store.load()
    assert info.value.index == 3


def test_corrupt_middle_line_reports_index(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    store.append_trial(_record(0))
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
    store.append_trial(_record(2))
    with pytest.raises(StoreCorruptionError) as info:
        store.load()
    assert info.value.index == 1


# -- model specs -----------------------------------------------------------------


METADATA = {"mean_score": 0.9, "total_calls": 123, "base_seed": 0, "feasible": True}


def _random_model(rng, registry):
    kind = rng.choice(["QNN", "QNN_REGRESSOR", "QEK", "RBM"])
    if kind == "RBM":
        model = RBMClusterer(
            input_size=4,
            encoder_layers=rng.randint(1, 3),
            latent_size=rng.randint(2, 3),
            n_hidden=rng.randint(1, 2),
            firing_threshold=rng.uniform(0.3, 0.7),
            n_epochs=3,
            seed=rng.randint(0, 999),
        )
        X = np.array([[rng.uniform(0, 1) for _ in range(4)] for _ in range(8)])
        model.fit(X)
        return model, np.array([[rng.uniform(0, 1) for _ in range(4)] for _ in range(5)]), 4
    n_wires = 2
    embedding = rng.choice([ANGLE, AMPLITUDE])
    if embedding.name == "AMPLITUDE":
        n_wires = 1
    layers = tuple(rng.choice([BASIC_ENTANGLER, STRONGLY_ENTANGLING])
                   for _ in range(rng.randint(1, 3)))
    circuit = CircuitSpec(n_wires, embedding, layers)
    X = np.array([[rng.uniform(-1, 1) + 0.1, rng.uniform(-1, 1)] for _ in range(6)])
    seed = rng.randint(0, 999)
    if kind == "QNN":
        model = QNNClassifier(circuit, batch_size=4, n_epochs=1, accuracy_threshold=1.0,
                              seed=seed)
        model.fit(X, np.array([0, 1, 0, 1, 0, 1]), BudgetLedger())
    elif kind == "QNN_REGRESSOR":
        model = QNNRegressor(circuit, batch_size=4, n_epochs=1, r2_threshold=1.0, seed=seed)
        model.fit(X, X[:, 0] * 2.0, BudgetLedger())
    else:
        model = QEKClassifier(circuit, ridge_lambda=1e-3, seed=seed)
        model.fit(X, np.array([0, 1, 0, 1, 0, 1]), BudgetLedger())
    X_new = np.array([[rng.uniform(-1, 1) + 0.1, rng.uniform(-1, 1)] for _ in range(5)])
    return model, X_new, 2


def test_model_spec_roundtrip_is_byte_identical(tmp_path, registry):
    rng = PortableRng(1)
    model, _, n_features = _random_model(rng, registry)
    spec = model_to_spec(model, n_features, METADATA)
    path = tmp_path / "model.json"
    write_model_spec(spec, path)
    text1 = path.read_bytes()
    reread = read_model_spec(path)
    write_model_spec(reread, path)
    assert path.read_bytes() == text1


def test_serialize_reload_prediction_equivalence(tmp_path, registry):
    rng = PortableRng(2024)
    for _ in range(40):
        model, X_new, n_features = _random_model(rng, registry)
        spec = model_to_spec(model, n_features, METADATA)
        path = tmp_path / "m.json"
        write_model_spec(spec, path)
        restored = model_from_spec(read_model_spec(path), registry)
        if isinstance(model, QNNRegressor):
            original = model.predict(X_new, CallCounter())
            loaded = restored.predict(X_new, CallCounter())
            np.testing.assert_allclose(loaded, original, atol=1e-15, rtol=0)
        else:
            np.testing.assert_array_equal(
                model.predict(X_new, CallCounter()), restored.predict(X_new, CallCounter())
            )


def test_model_spec_weight_length_validated(registry):
    rng = PortableRng(5)
    model, _, n_features = _random_model(rng, registry)
    spec = model_to_spec(model, n_features, METADATA)
    spec.weights = spec.weights + [0.5]
    with pytest.raises(ValueError):
        model_from_spec(spec, registry)


def test_model_spec_json_shape(registry):
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
        accuracy_threshold=0.8, seed=0,
    )
    model.fit(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 1]), BudgetLedger())
    doc = json.loads(model_to_spec(model, 2, METADATA).to_json())
    assert doc["format_version"] == 1
    assert doc["model_family"] == "QNN"
    assert doc["embedding"] == {"name": "ANGLE", "fixed_options": {}}
    assert doc["layers"] == ["BasicEntangler"]
    assert len(doc["weights"]) == 2
    assert doc["metadata"] == METADATA


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_model_file_refuses_non_finite_numbers(literal):
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
        accuracy_threshold=0.8, seed=0,
    )
    spec = model_to_spec(model, 2, METADATA)
    text = spec.to_json()
    first = repr(spec.weights[0])
    assert text.count(first) == 1
    with pytest.raises(ValueError, match="non-finite"):
        ModelSpec.from_json(text.replace(first, literal))
    spec.weights[0] = float(literal)
    with pytest.raises(ValueError):
        spec.to_json()


def test_written_files_get_the_mode_a_plain_open_gives(tmp_path):
    import os

    path = tmp_path / "new.txt"
    write_text(path, "one\n")
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("one\n")
    assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
    os.chmod(path, 0o600)  # an existing file keeps its own mode
    write_text(path, "two\n")
    assert path.read_text() == "two\n" and path.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "plain.txt"]


def test_a_model_that_cannot_be_serialized_leaves_the_file_there_whole(tmp_path):
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1,
        accuracy_threshold=0.8, seed=0,
    )
    spec = model_to_spec(model, 2, METADATA)
    path = tmp_path / "model.json"
    write_model_spec(spec, path)
    before = path.read_bytes()
    spec.weights[0] = float("inf")
    with pytest.raises(ValueError):
        write_model_spec(spec, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


# -- report ------------------------------------------------------------------------


def test_report_columns_and_best_line(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    store.append_trial(_record(0, sampled={"n_layers": 2, "layer_0": "BasicEntangler",
                                           "layer_1": "BasicEntangler"}, calls=100))
    store.append_trial(_record(1, sampled={"n_layers": 1, "layer_0": "StronglyEntangling"},
                               calls=50))
    out = tmp_path / "report.csv"
    summary = export_report(store, out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["trial_id", "status", "feasible", "mean_score", "total_calls"]
    for column in ("n_layers", "layer_0", "layer_1"):
        assert column in header
    assert len(lines) == 3
    # absent sampled names are blank
    row1 = dict(zip(header, lines[2].split(",")))
    assert row1["layer_1"] == ""
    best, _ = select_best(store.load())
    assert f"best trial {best.trial_id}" in summary


def test_report_numeric_roundtrip(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    score = 0.12345678901234567
    store.append_trial(_record(0, mean_score=score))
    out = tmp_path / "report.csv"
    export_report(store, out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["mean_score"]) - score) < 1e-12
    assert float(row["mean_score"]) == score  # repr round-trips exactly


def test_report_quotes_cells_holding_commas_and_quotes(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    sampled = {"layer_0": "A,B", "embedding": 'say "hi"', "n_layers": 1}
    store.append_trial(_record(0, sampled=sampled))
    out = tmp_path / "report.csv"
    export_report(store, out)
    with open(out, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header)
    cells = dict(zip(header, row))
    assert (cells["layer_0"], cells["embedding"], cells["n_layers"]) == ("A,B", 'say "hi"', "1")


def test_report_empty_store_warns(tmp_path):
    store = StudyStore(tmp_path / "empty.jsonl")
    out = tmp_path / "report.csv"
    summary = export_report(store, out)
    assert "warning" in summary
    assert out.read_text().splitlines()[0].startswith("trial_id,")


def test_report_total_calls_equals_subtotal_sums(tmp_path):
    store = StudyStore(tmp_path / "s.jsonl")
    for i in range(4):
        store.append_trial(_record(i, calls=10 * (i + 1)))
    out = tmp_path / "r.csv"
    export_report(store, out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    for line, record in zip(lines[1:], store.load()):
        row = dict(zip(header, line.split(",")))
        assert int(row["total_calls"]) == record.subtotals["total"]
