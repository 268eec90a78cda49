"""Durable study storage, bit-exact model files, and the CSV report.

The study store is an append-only line-delimited JSON file: one record per
line, written under a lock so concurrent in-process appenders never tear a
line. Model files are canonical JSON (sorted keys, two-space indent, repr
floats), which makes serialize -> parse -> serialize byte-identical.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .models import QEKClassifier, QNNClassifier, QNNRegressor, RBMClusterer
from .records import StudyFailureError, TrialRecord, select_best
from .registry import CircuitSpec, Registry

FORMAT_VERSION = 1

REPORT_FIXED_COLUMNS = ("trial_id", "status", "feasible", "mean_score", "total_calls")


class StoreCorruptionError(RuntimeError):
    """A store line failed to parse; carries the offending record index."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"corrupt record at index {index}: {reason}")
        self.index = index


class StudyStore:
    """Append-only trial-record store backed by one JSON document per line."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self._lock = threading.Lock()

    def append_trial(self, record: TrialRecord) -> None:
        line = json.dumps(record.as_dict(), allow_nan=True) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()

    def load(self) -> list[TrialRecord]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text:
            return []
        if not text.endswith("\n"):
            index = text.count("\n")
            raise StoreCorruptionError(index, "truncated final line (missing newline)")
        records = []
        for index, line in enumerate(text.splitlines()):
            try:
                doc = json.loads(line)
                records.append(TrialRecord.from_dict(doc))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StoreCorruptionError(index, str(exc)) from exc
        return records


@dataclass
class ModelSpec:
    """Serializable trained model: architecture by registry names, flat weights,
    family-specific extras, and search metadata."""

    task: str
    model_family: str
    n_features: int
    n_wires: int
    embedding: dict[str, Any] | None
    layers: list[str]
    weights: list[float]
    extras: dict[str, Any] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def as_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "task": self.task,
            "model_family": self.model_family,
            "n_features": self.n_features,
            "n_wires": self.n_wires,
            "embedding": self.embedding,
            "layers": self.layers,
            "weights": self.weights,
            "extras": self.extras,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModelSpec":
        return cls(
            task=doc["task"],
            model_family=doc["model_family"],
            n_features=doc["n_features"],
            n_wires=doc["n_wires"],
            embedding=doc["embedding"],
            layers=doc["layers"],
            weights=doc["weights"],
            extras=doc["extras"],
            metadata=doc["metadata"],
            format_version=doc["format_version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))


def write_model_spec(spec: ModelSpec, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spec.to_json())


def read_model_spec(path: str | os.PathLike) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelSpec.from_json(fh.read())


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


def model_to_spec(model, n_features: int, metadata: dict[str, Any]) -> ModelSpec:
    """Freeze a trained model into its serializable form."""
    if isinstance(model, RBMClusterer):
        packed: list[float] = []
        for W, b in zip(model.encoder.enc_weights, model.encoder.enc_biases):
            packed.extend(_floats(W))
            packed.extend(_floats(b))
        packed.extend(_floats(model.rbm.weights))
        packed.extend(_floats(model.rbm.visible_bias))
        packed.extend(_floats(model.rbm.hidden_bias))
        extras = {
            "input_size": model.input_size,
            "encoder_layers": model.encoder_layers,
            "encoder_widths": list(model.encoder.widths),
            "latent_size": model.latent_size,
            "n_hidden": model.n_hidden,
            "firing_threshold": model.firing_threshold,
            "n_epochs": model.n_epochs,
            "feature_min": _floats(model.feature_min),
            "feature_max": _floats(model.feature_max),
        }
        return ModelSpec(
            task=model.task.value,
            model_family=model.family,
            n_features=n_features,
            n_wires=0,
            embedding=None,
            layers=[],
            weights=packed,
            extras=extras,
            metadata=metadata,
        )

    circuit = model.circuit
    embedding = {
        "name": circuit.embedding.name,
        "fixed_options": dict(circuit.embedding.fixed_options),
    }
    common = dict(
        task=model.task.value,
        model_family=model.family,
        n_features=n_features,
        n_wires=circuit.n_wires,
        embedding=embedding,
        layers=circuit.layer_names(),
        weights=_floats(model.weights),
        metadata=metadata,
    )
    if isinstance(model, QNNClassifier):
        extras = {
            "batch_size": model.batch_size,
            "n_epochs": model.n_epochs,
            "accuracy_threshold": model.accuracy_threshold,
        }
    elif isinstance(model, QNNRegressor):
        extras = {
            "batch_size": model.batch_size,
            "n_epochs": model.n_epochs,
            "r2_threshold": model.r2_threshold,
            "target_min": model.target_min,
            "target_max": model.target_max,
        }
    elif isinstance(model, QEKClassifier):
        extras = {
            "ridge_lambda": model.ridge_lambda,
            "dual_coeffs": _floats(model.dual_coeffs),
            "support_data": [_floats(row) for row in model.support_data],
        }
    else:
        raise ValueError(f"cannot serialize model of type {type(model).__name__}")
    return ModelSpec(extras=extras, **common)


def circuit_from_spec(spec: ModelSpec, registry: Registry) -> CircuitSpec:
    if spec.embedding is None:
        raise ValueError(f"{spec.model_family} model carries no circuit")
    embedding = registry.embedding(spec.embedding["name"])
    layer_kinds = tuple(registry.layer(name) for name in spec.layers)
    return CircuitSpec(spec.n_wires, embedding, layer_kinds)


def model_from_spec(spec: ModelSpec, registry: Registry):
    """Reconstruct a ready-to-predict model from its serialized form."""
    if spec.format_version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {spec.format_version}")
    if spec.model_family == "RBM":
        extras = spec.extras
        model = RBMClusterer(
            input_size=extras["input_size"],
            encoder_layers=extras["encoder_layers"],
            latent_size=extras["latent_size"],
            n_hidden=extras["n_hidden"],
            firing_threshold=extras["firing_threshold"],
            n_epochs=extras["n_epochs"],
        )
        flat = np.asarray(spec.weights, dtype=float)
        offset = 0

        def take(shape) -> np.ndarray:
            nonlocal offset
            size = int(np.prod(shape))
            chunk = flat[offset : offset + size]
            if chunk.size != size:
                raise ValueError("weights length inconsistent with declared architecture")
            offset += size
            return chunk.reshape(shape)

        widths = extras["encoder_widths"]
        for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            model.encoder.enc_weights[layer] = take((fan_out, fan_in))
            model.encoder.enc_biases[layer] = take((fan_out,))
        model.rbm.weights = take((extras["latent_size"], extras["n_hidden"]))
        model.rbm.visible_bias = take((extras["latent_size"],))
        model.rbm.hidden_bias = take((extras["n_hidden"],))
        if offset != flat.size:
            raise ValueError("weights length inconsistent with declared architecture")
        model.feature_min = np.asarray(extras["feature_min"], dtype=float)
        model.feature_max = np.asarray(extras["feature_max"], dtype=float)
        return model

    circuit = circuit_from_spec(spec, registry)
    weights = np.asarray(spec.weights, dtype=float)
    if weights.size != circuit.param_count:
        raise ValueError("weights length inconsistent with declared architecture")
    extras = spec.extras
    if spec.model_family == "QNN":
        return QNNClassifier(
            circuit,
            batch_size=extras["batch_size"],
            n_epochs=extras["n_epochs"],
            accuracy_threshold=extras["accuracy_threshold"],
            weights=weights,
        )
    if spec.model_family == "QNN_REGRESSOR":
        return QNNRegressor(
            circuit,
            batch_size=extras["batch_size"],
            n_epochs=extras["n_epochs"],
            r2_threshold=extras["r2_threshold"],
            weights=weights,
            target_min=extras["target_min"],
            target_max=extras["target_max"],
        )
    if spec.model_family == "QEK":
        model = QEKClassifier(circuit, ridge_lambda=extras["ridge_lambda"], weights=weights)
        model.support_data = np.asarray(extras["support_data"], dtype=float)
        model.dual_coeffs = np.asarray(extras["dual_coeffs"], dtype=float)
        return model
    raise ValueError(f"unknown model family {spec.model_family!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_report(store: StudyStore, out_path: str | os.PathLike) -> str:
    """Write one CSV row per trial and return a one-line summary naming the
    best trial under the finder's selection rule."""
    records = store.load()
    sampled_names: set[str] = set()
    for record in records:
        sampled_names.update(record.sampled)
    sampled_columns = sorted(sampled_names)
    lines = [",".join(list(REPORT_FIXED_COLUMNS) + sampled_columns)]
    for record in records:
        doc = record.as_dict()
        row = [_format_cell(doc[c]) for c in REPORT_FIXED_COLUMNS]
        row += [_format_cell(record.sampled.get(name)) for name in sampled_columns]
        lines.append(",".join(row))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if not records:
        return "warning: study store is empty; wrote header-only report"
    try:
        best, feasible = select_best(records)
    except StudyFailureError:
        return f"wrote {len(records)} trials; no complete trial to select a best from"
    tag = "feasible" if feasible else "infeasible-best"
    return (
        f"wrote {len(records)} trials; best trial {best.trial_id} ({tag}): "
        f"mean_score={best.mean_score!r}, total_calls={best.total_calls}"
    )
