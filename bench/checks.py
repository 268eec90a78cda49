"""Output checks, run after the timed invocations.

Each check returns a list of problems (empty when the outputs are right) and
the workload's outcome: the counts and the winner that the reference file
records and the report prints.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from qmlfinder import CallCounter, StudyStore, select_best
from qmlfinder.store import model_from_spec, read_model_spec

PHASES = ("training_gradients", "training_forward", "scoring", "kernel")
TIE = 1e-9  # |decision| below this is too close to the boundary to compare


def load_oracles(path: Path):
    spec = importlib.util.spec_from_file_location("qmlfinder_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ledger_problem(record, registry, n_rows: int, n_features: int, n_seeds: int) -> str | None:
    """The closed-form ledger of one complete trial, or why it does not hold."""
    sub = record.subtotals
    if sum(sub[p] for p in PHASES) != sub["total"] or sub["total"] != record.total_calls:
        return f"phase subtotals {sub} do not add up to total_calls {record.total_calls}"
    family = record.sampled["model_type"]
    if family == "QEK":
        expected = n_seeds * n_rows * (n_rows - 1)
        if sub["kernel"] != expected or record.total_calls != expected:
            return (
                f"QEK kernel calls {sub['kernel']} (total {record.total_calls}), "
                f"expected {expected}"
            )
    elif family in ("QNN", "QNN_REGRESSOR"):
        wires = registry.embedding(record.sampled["embedding"]).wires_for_features(n_features)
        params = sum(
            registry.layer(record.sampled[f"layer_{i}"]).params_per_layer(wires)
            for i in range(record.sampled["n_layers"])
        )
        scoring, gradients = sub["scoring"], sub["training_gradients"]
        if scoring % n_rows or gradients != 2 * params * (scoring - n_seeds * n_rows):
            return (
                f"{family} scoring={scoring}, training_gradients={gradients}: expected "
                f"scoring % {n_rows} == 0 and "
                f"gradients == 2*{params}*(scoring - {n_seeds}*{n_rows})"
            )
        if record.total_calls != scoring + gradients:
            return f"{family} total_calls {record.total_calls} != scoring + gradients"
    elif family == "RBM":
        if record.total_calls != 0:
            return f"RBM booked {record.total_calls} device calls, expected 0"
    else:
        return f"no closed-form ledger for family {family!r}"
    return None


def check_study(workload, registry) -> tuple[list[str], dict]:
    problems = []
    started = time.perf_counter()
    records = StudyStore(workload.outputs["store"]).load()
    load_s = time.perf_counter() - started
    size = workload.study
    if [r.trial_id for r in records] != list(range(size["trials"])):
        ids = [r.trial_id for r in records]
        problems.append(f"store holds trial ids {ids}, expected 0..{size['trials'] - 1}")
    complete = [r for r in records if r.status == "complete"]
    for record in complete:
        problem = _ledger_problem(
            record, registry, workload.n_rows, workload.n_features, size["seeds"]
        )
        if problem:
            problems.append(f"trial {record.trial_id}: {problem}")

    path = workload.outputs["model"]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    spec = read_model_spec(path)
    if spec.to_json() != text:
        problems.append("model file does not re-serialize byte-identically")
    winner, feasible = select_best(records)
    expected = {
        "model_family": winner.sampled["model_type"],
        "trial_id": winner.trial_id,
        "total_calls": winner.total_calls,
        "feasible": feasible,
    }
    found = {"model_family": spec.model_family}
    found.update({k: spec.metadata.get(k) for k in ("trial_id", "total_calls", "feasible")})
    if found != expected:
        problems.append(f"model file names {found}, the store's select_best winner is {expected}")

    outcome = {
        "device_calls": sum(r.total_calls for r in records),
        "winner_family": spec.model_family,
        "winner_trial": spec.metadata["trial_id"],
        "winner_calls": spec.metadata["total_calls"],
        "winner_score": spec.metadata["mean_score"],
        "failed_trials": sum(r.status == "failed" for r in records),
        "attempted_trials": len(records),
        "complete_trials": len(complete),
        "feasible_trials": sum(r.feasible for r in complete),
        "load_s": load_s,
        "model_bytes": len(text.encode()),
    }
    return problems, outcome


def check_predict(workload, registry, oracles) -> tuple[list[str], dict]:
    problems = []
    with open(workload.outputs["predictions"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = lines[1:]
    if lines[:1] != ["prediction"] or len(rows) != workload.n_rows:
        problems.append(
            f"expected a 'prediction' header and {workload.n_rows} rows, got {len(lines)} lines"
        )
    if not set(rows) <= {"0", "1"}:
        problems.append(f"predictions outside {{0, 1}}: {sorted(set(rows) - {'0', '1'})[:5]}")

    spec = read_model_spec(workload.extra["model"])
    X = workload.extra["new_rows"]
    counter = CallCounter()
    api = model_from_spec(spec, registry).predict(X, counter)
    if rows != [str(int(v)) for v in api]:
        problems.append("CLI predictions differ from model_from_spec(...).predict on the same rows")
    n, m = workload.extra["support_rows"], workload.n_rows
    if counter.total_calls != 2 * n * m:
        problems.append(
            f"predict booked {counter.total_calls} calls, the cross kernel costs 2*{n}*{m}"
        )

    # independent decision for every row from dense full-unitary states
    def state(x):
        return oracles.ref_run_circuit(
            spec.n_wires, spec.embedding["name"], spec.layers, spec.weights, x
        )

    support = [state(s) for s in spec.extras["support_data"]]
    alpha = np.asarray(spec.extras["dual_coeffs"])
    for i, row in enumerate(rows):
        phi = state(X[i])
        decision = float(alpha @ np.array([abs(np.vdot(s, phi)) ** 2 for s in support]))
        if abs(decision) >= TIE and row != ("1" if decision < 0 else "0"):
            problems.append(f"row {i}: CLI predicts {row}, the oracle decision is {decision!r}")

    outcome = {
        "device_calls": counter.total_calls,
        "winner_family": spec.model_family,
        "winner_trial": spec.metadata["trial_id"],
        "winner_calls": spec.metadata["total_calls"],
        "winner_score": spec.metadata["mean_score"],
        "failed_trials": 0,
        "attempted_trials": 0,
        "complete_trials": 0,
        "feasible_trials": 0,
        "load_s": 0.0,
        "model_bytes": Path(workload.extra["model"]).stat().st_size,
    }
    return problems, outcome
