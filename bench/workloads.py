"""The four benchmark workloads: seeded inputs and the CLI command for each.

Every input comes from numpy's own `default_rng(seed)`, never from the
package's PortableRng, so a change to the package generator cannot change the
data. Inputs are written as header CSVs and reach the program only through
the CLI, as a user's files would.

The studies use noisy data on purpose. No QNN trial reaches the default 0.8
threshold within its epochs, so every gradient trial runs its full training
budget and the work per invocation does not depend on the seed. The seed
changes the data, the scores and which trial wins, but not how much is
simulated.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

STUDY_SEED = 0  # the CLI --seed; the workload seed only shapes the data

CLASSIFY = dict(rows=24, trials=8, seeds=1, epochs=3)
REGRESS = dict(rows=20, trials=20, seeds=1, epochs=3)
CLUSTER = dict(rows=30, trials=20, seeds=1, epochs=10)
PREDICT = dict(
    support_rows=40, new_rows=24, wires=4,
    layers=("StronglyEntangling", "BasicEntangler", "StronglyEntangling"),
)


@dataclass
class Workload:
    """One prepared workload: its CLI argv and what the checks need."""

    argv: list[str]
    outputs: dict[str, str]  # role -> path the CLI writes (removed before each invocation)
    n_rows: int
    n_features: int
    study: dict | None = None  # trials/seeds/epochs for the studies
    extra: dict = field(default_factory=dict)


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _study_argv(task: str, data: str, target: str | None, size: dict, work: str):
    outputs = {
        "store": os.path.join(work, "study.jsonl"),
        "model": os.path.join(work, "model.json"),
    }
    argv = ["find-model", "--task", task, "--data", data]
    if target is not None:
        argv += ["--target", target]
    argv += [
        "--trials", str(size["trials"]), "--seeds", str(size["seeds"]),
        "--epochs", str(size["epochs"]), "--seed", str(STUDY_SEED),
        "--store", outputs["store"], "--out", outputs["model"],
    ]
    return argv, outputs


def classify_blobs(seed: int, work: str, package) -> Workload:
    """Two overlapping Gaussian blobs in 2-D; labels 0/1 by blob."""
    rng = np.random.default_rng(seed)
    n = CLASSIFY["rows"]
    y = np.repeat([0, 1], n // 2)
    X = np.where(y[:, None] == 0, 0.5, -0.5) + rng.normal(0.0, 1.3, (n, 2))
    data = os.path.join(work, "blobs.csv")
    write_csv(data, ["f0", "f1", "label"], np.column_stack([X, y]))
    argv, outputs = _study_argv("classification", data, "label", CLASSIFY, work)
    return Workload(argv, outputs, n, 2, CLASSIFY)


def regress_sine(seed: int, work: str, package) -> Workload:
    """sin(x) plus Gaussian noise at random x in [-pi, pi]."""
    rng = np.random.default_rng(seed)
    n = REGRESS["rows"]
    x = rng.uniform(-np.pi, np.pi, n)
    y = np.sin(x) + rng.normal(0.0, 0.6, n)
    data = os.path.join(work, "sine.csv")
    write_csv(data, ["x", "y"], np.column_stack([x, y]))
    argv, outputs = _study_argv("regression", data, "y", REGRESS, work)
    return Workload(argv, outputs, n, 1, REGRESS)


def cluster_blobs(seed: int, work: str, package) -> Workload:
    """Two tight blobs in 4-D, centred at 0 and 4 on every axis."""
    rng = np.random.default_rng(seed)
    n = CLUSTER["rows"]
    centers = np.repeat([0.0, 4.0], n // 2)[:, None]
    X = centers + rng.normal(0.0, 0.3, (n, 4))
    data = os.path.join(work, "clusters.csv")
    write_csv(data, ["f0", "f1", "f2", "f3"], X)
    argv, outputs = _study_argv("clustering", data, None, CLUSTER, work)
    return Workload(argv, outputs, n, 4, CLUSTER)


def predict_qek(seed: int, work: str, package) -> Workload:
    """A QEK model on 4 wires fitted to N labelled rows, applied to M new rows.

    The model file is built here, before any timing, through the public API:
    QEKClassifier.fit -> model_to_spec -> write_model_spec of `package`, the
    package whose CLI will read it. Its feature-map weights come from the
    workload seed, not from the package generator.
    """
    rng = np.random.default_rng(seed)
    n, m, wires = PREDICT["support_rows"], PREDICT["new_rows"], PREDICT["wires"]
    registry = package.default_registry()
    circuit = package.CircuitSpec(
        wires,
        registry.embedding("ANGLE"),
        tuple(registry.layer(name) for name in PREDICT["layers"]),
    )
    weights = rng.uniform(0.0, np.pi, circuit.param_count)
    y = np.repeat([0, 1], n // 2)
    X = np.where(y[:, None] == 0, 0.8, -0.8) + rng.normal(0.0, 0.5, (n, wires))
    new_rows = np.where(rng.random(m)[:, None] < 0.5, 0.8, -0.8) + rng.normal(0.0, 0.5, (m, wires))

    ledger = package.BudgetLedger()
    model = package.QEKClassifier(circuit, weights=weights).fit(X, y, ledger)
    metadata = {
        "base_seed": seed,
        "feasible": True,
        "mean_score": model.train_score,
        "total_calls": ledger.total,
        "trial_id": 0,
    }
    model_path = os.path.join(work, "qek_model.json")
    package.write_model_spec(package.model_to_spec(model, wires, metadata), model_path)
    data = os.path.join(work, "new_rows.csv")
    write_csv(data, [f"f{i}" for i in range(wires)], new_rows)
    outputs = {"predictions": os.path.join(work, "predictions.csv")}
    argv = ["predict", "--model", model_path, "--data", data, "--out", outputs["predictions"]]
    extra = {"model": model_path, "new_rows": new_rows, "support_rows": n}
    return Workload(argv, outputs, m, wires, extra=extra)


WORKLOADS = {
    "classify-blobs": classify_blobs,
    "regress-sine": regress_sine,
    "cluster-blobs": cluster_blobs,
    "predict-qek": predict_qek,
}
