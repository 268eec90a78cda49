"""Durable study storage, bit-exact model files, and the CSV report.

The study store is an append-only line-delimited JSON file: one record per
line, written under a lock so concurrent in-process appenders never tear a
line. Model files are canonical JSON (sorted keys, two-space indent, repr
floats), which makes serialize -> parse -> serialize byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
import threading
from dataclasses import dataclass, field, fields
from typing import Any

from .records import StudyFailureError, TrialRecord, select_best
from .registry import Registry, TaskType

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
        line = json.dumps(record.as_dict(), allow_nan=False) + "\n"
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ModelSpec":
        """The spec of a parsed model file; a field of the wrong type raises
        ValueError naming it."""
        spec = cls(**{f.name: doc[f.name] for f in fields(cls)})
        for name, rule, ok in _FIELD_RULES:
            value = getattr(spec, name)
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")
        return spec

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        """Parse a model file; NaN, Infinity and overflowing numbers raise ValueError."""
        return cls.from_dict(json.loads(text, parse_float=_finite, parse_constant=_finite))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TASKS = frozenset(task.value for task in TaskType)

# (field, what it must be, test) for the fields every model file has
_FIELD_RULES = (
    ("task", f"one of {sorted(_TASKS)}", lambda v: isinstance(v, str) and v in _TASKS),
    ("n_features", "an integer", _is_int),
    ("n_wires", "an integer", _is_int),
    ("format_version", "an integer", _is_int),
    ("embedding", "null or an object with a string name and an object fixed_options",
     lambda v: v is None or (isinstance(v, dict) and isinstance(v.get("name"), str)
                             and isinstance(v.get("fixed_options"), dict))),
    ("layers", "a list of names",
     lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v)),
    ("weights", "a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    ("extras", "an object", lambda v: isinstance(v, dict)),
    ("metadata", "an object", lambda v: isinstance(v, dict)),
)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in model file")
    return value


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write `text` to `path` through a new file beside it, moved into place with
    os.replace, so a failed write leaves any previous file whole. The file gets
    the mode a plain `open` gives: an existing file's, else 0o666 less the umask."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_model_spec(spec: ModelSpec, path: str | os.PathLike) -> None:
    write_text(path, spec.to_json())  # serialized first: a refused value writes nothing


def read_model_spec(path: str | os.PathLike) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelSpec.from_json(fh.read())


def model_to_spec(model, n_features: int, metadata: dict[str, Any]) -> ModelSpec:
    """Freeze a trained model into its serializable form via its `spec_fields()`."""
    if not hasattr(model, "spec_fields"):
        raise ValueError(f"cannot serialize model of type {type(model).__name__}")
    return ModelSpec(
        task=model.task.value,
        model_family=model.family,
        n_features=n_features,
        metadata=metadata,
        **model.spec_fields(),
    )


def model_from_spec(spec: ModelSpec, registry: Registry):
    """Reconstruct a ready-to-predict model through its family class's `from_spec`."""
    if spec.format_version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {spec.format_version}")
    if spec.model_family not in registry.model_names:
        raise ValueError(f"unknown model family {spec.model_family!r}")
    family = registry.model(spec.model_family)
    if spec.task != family.task.value:
        raise ValueError(f"task {spec.task!r} is not the {family.task.value!r} of a "
                         f"{spec.model_family} model")
    return family.from_spec(spec, registry)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_report(store: StudyStore, out_path: str | os.PathLike) -> str:
    """Write one CSV row per trial, quoted where a cell holds a comma, quote or
    newline, and return a one-line summary naming the best trial under the
    finder's selection rule."""
    records = store.load()
    sampled_names: set[str] = set()
    for record in records:
        sampled_names.update(record.sampled)
    sampled_columns = sorted(sampled_names)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(list(REPORT_FIXED_COLUMNS) + sampled_columns)
    for record in records:
        doc = record.as_dict()
        row = [_format_cell(doc[c]) for c in REPORT_FIXED_COLUMNS]
        row += [_format_cell(record.sampled.get(name)) for name in sampled_columns]
        writer.writerow(row)
    write_text(out_path, text.getvalue())
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
