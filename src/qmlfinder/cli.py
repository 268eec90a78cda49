"""Command-line surface: point it at a CSV and a task, get a trained model.

Subcommands: find-model, tune, report, predict. Exit codes: 0 success,
1 usage error, 2 data error, 3 study failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Any, Callable

import numpy as np

from .models import default_registry
from .records import StudyFailureError
from .registry import TaskType
from .search import FinderConfig, UnsupportedModelError, find_hyperparameters, find_model
from .simulator import CallCounter
from .store import (
    ModelSpec,
    StoreCorruptionError,
    StudyStore,
    export_report,
    model_from_spec,
    read_model_spec,
    write_model_spec,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STUDY = 3


class DataFormatError(ValueError):
    """The input CSV violates the data contract."""


def _read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Numeric CSV with a mandatory header row; a leading UTF-8 byte-order mark
    (as spreadsheet programs write) is not part of the first column name."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file, header row required")
    header = rows[0]
    if not header or any(not name for name in header):
        raise DataFormatError(f"{path}: header row has empty column names")
    data = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: non-numeric value {cell!r} in column {header[j]!r} (row {i})"
                ) from exc
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: non-finite value {cell!r} in column {header[j]!r} (row {i})"
                )
            data[i - 1, j] = value
    if data.shape[0] == 0:
        raise DataFormatError(f"{path}: no data rows")
    return header, data


def _task_data(
    task: TaskType, header: list[str], data: np.ndarray, target: str | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Features and targets of `task`, refusing data on which no trial could be
    scored before the study starts: a single-column clustering table, a
    one-class classification target, or a constant regression target."""
    if task == TaskType.CLUSTERING:
        if data.shape[1] < 2:
            raise DataFormatError(
                f"clustering needs at least 2 feature columns, found only {header[0]!r}"
            )
        return data, None
    if target not in header:
        raise DataFormatError(f"target column {target!r} not found; columns are {header}")
    idx = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[idx] = False
    X = data[:, mask]
    if X.shape[1] == 0:
        raise DataFormatError("no feature columns remain after removing the target")
    y = data[:, idx]
    if task == TaskType.REGRESSION:
        if y.min() == y.max():
            # every trial would fail to score, so this is the study failure
            # (exit 3), reported before any trial runs
            raise StudyFailureError(
                f"regression target {target!r} is constant ({float(y[0])!r}): "
                "R^2 is undefined, so no trial could complete"
            )
        return X, y
    values = [float(v) for v in np.unique(y)]
    if not set(values) <= {0.0, 1.0}:
        raise DataFormatError(
            f"classification target {target!r} must be binary 0/1, found values {values}"
        )
    if len(values) < 2:
        raise DataFormatError(
            f"classification target {target!r} holds only class {values[0]:g}; "
            "both 0 and 1 are needed"
        )
    return X, y.astype(int)


def _load_model(path: str) -> tuple[ModelSpec, object]:
    """Read a model file and restore its model; a file that fails either step is a
    data error."""
    try:
        spec = read_model_spec(path)
        return spec, model_from_spec(spec, default_registry())
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc


def _cmd_find_model(args: argparse.Namespace) -> int:
    header, data = _read_table(args.data)
    task = TaskType(args.task)
    if task == TaskType.CLUSTERING:
        if args.target is not None:
            print(f"warning: --target {args.target!r} is ignored for clustering", file=sys.stderr)
    elif args.target is None:
        raise _Usage("--target is required for classification and regression")
    X, y = _task_data(task, header, data, args.target)
    config = FinderConfig(
        task=task,
        n_trials=args.trials,
        n_seeds=args.seeds,
        n_epochs=args.epochs,
        threshold=args.threshold,
        base_seed=args.seed,
    )
    spec = find_model(config, default_registry(), X, y, StudyStore(args.store))
    write_model_spec(spec, args.out)
    meta = spec.metadata
    tag = "feasible" if meta["feasible"] else "infeasible-best"
    print(
        f"wrote {args.out}: {spec.model_family} ({tag}), "
        f"mean_score={meta['mean_score']!r}, total_calls={meta['total_calls']}"
    )
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    spec, model = _load_model(args.model)
    header, data = _read_table(args.data)
    if args.target is None:
        raise _Usage("--target is required for tune")
    X, y = _task_data(model.task, header, data, args.target)
    best = find_hyperparameters(
        spec,
        X,
        y,
        default_registry(),
        n_trials=args.trials,
        n_seeds=args.seeds,
        store=StudyStore(args.store),
        base_seed=args.seed,
    )
    text = json.dumps(best.as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    summary = export_report(StudyStore(args.store), args.out)
    print(summary)
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    spec, model = _load_model(args.model)
    header, data = _read_table(args.data)
    if data.shape[1] != spec.n_features:
        raise DataFormatError(
            f"model expects {spec.n_features} feature columns, {args.data} has "
            f"{data.shape[1]} ({header})"
        )
    counter = CallCounter()
    try:
        predictions = model.predict(data, counter)
    except ValueError as exc:  # the rows do not fit the model, e.g. an all-zero AMPLITUDE row
        raise DataFormatError(f"{args.data}: cannot apply the model: {exc}") from exc
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("prediction\n")
        for value in predictions:
            cell = repr(float(value)) if spec.task == "regression" else str(int(value))
            fh.write(cell + "\n")
    print(
        f"wrote {len(predictions)} predictions to {args.out} "
        f"({counter.total_calls} device calls)"
    )
    return EXIT_OK


class _Usage(Exception):
    pass


def _checked(convert: type, rule: str, ok: Callable[[Any], bool]):
    """argparse type: `convert(text)`, a usage error unless `ok` accepts it."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" message names the type
    return parse


def _count(minimum: int):
    """argparse type for an integer count of at least `minimum`."""
    return _checked(int, f">= {minimum}", lambda value: value >= minimum)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlfinder",
        description="Search, train, and serialize quantum ML models from CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find-model", help="search for the best model on a dataset")
    find.add_argument("--task", required=True, choices=[t.value for t in TaskType])
    find.add_argument("--data", required=True, help="CSV file with header row")
    find.add_argument("--target", default=None, help="target column (ignored for clustering)")
    find.add_argument("--trials", type=_count(1), default=20)
    find.add_argument("--seeds", type=_count(1), default=3)
    find.add_argument("--epochs", type=_count(0), default=10)
    find.add_argument("--threshold", default=0.8,
                      type=_checked(float, "a number", lambda value: not math.isnan(value)))
    find.add_argument("--seed", type=int, default=0)
    find.add_argument("--store", default="study.jsonl")
    find.add_argument("--out", default="model.json")
    find.set_defaults(func=_cmd_find_model)

    tune = sub.add_parser("tune", help="compare optimizers on a trained model's architecture")
    tune.add_argument("--model", required=True)
    tune.add_argument("--data", required=True)
    tune.add_argument("--target", default=None)
    tune.add_argument("--trials", type=_count(1), default=20)
    tune.add_argument("--seeds", type=_count(1), default=3)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--store", default="tuning.jsonl")
    tune.add_argument("--out", default=None)
    tune.set_defaults(func=_cmd_tune)

    report = sub.add_parser("report", help="export a study store as CSV")
    report.add_argument("--store", required=True)
    report.add_argument("--out", default="report.csv")
    report.set_defaults(func=_cmd_report)

    predict = sub.add_parser("predict", help="apply a saved model to new data")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", default="predictions.csv")
    predict.set_defaults(func=_cmd_predict)

    return parser


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with `--threshold VALUE` written `--threshold=VALUE` when VALUE is a
    float: argparse takes a value such as `-inf` or `-1e3` for an option and
    would refuse `--threshold` for want of an argument."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--threshold" and _is_float(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DataFormatError,
        StoreCorruptionError,
        UnsupportedModelError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (StudyFailureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STUDY


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
