"""qmlfinder benchmark: one CLI study per task plus QEK predict from a model file.

    python3 bench/run.py --workload classify-blobs --seed 0 --seconds 20 --trace 0

Run from any directory; the package is imported from the `src/` next to this
directory, so the checkout is benchmarked as it stands. Workloads:
classify-blobs, regress-sine, cluster-blobs, predict-qek (see workloads.py).

A run is a closed loop with one client: it calls `qmlfinder.cli.cli_main` once
at a time, in this process, until `--seconds` have passed. The output checks
run afterwards, outside the timed region.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. Before every
invocation it runs the same command through `qmlfinder_seed`, a verbatim copy
of src/qmlfinder as it stood when this benchmark was defined (baseline/; never
edit it), on its own copy of the inputs. The gated time, `wall_rel`, is the
median over those adjacent pairs of the checkout's wall time over the
baseline's. On a shared 2-vCPU VM the CPU speed drifted by up to 2x within
minutes, which moved the raw median wall time of the same code by 30-40%
between runs; both halves of a pair run at the same speed, so the ratio still
shows a change in the package. Raw `wall_s` is in every report and is a
per-layer metric.

`--trace 1` alternates untraced and traced invocations and reports the
per-layer metrics from spans recorded around the package's public functions
(spans.py). Both modes print a readable report followed, as the last line, by
one JSON object with the keys correct, attempted, failed and metrics.

`--record` stores this run's outcome (device calls, winner, failed trials) in
reference.json; later runs print any drift from it by name.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
CONTRACT = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline"

SETUP_PROBES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import qmlfinder; qmlfinder.default_registry(); "
    "print(repr(time.perf_counter() - t))"
)
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
REFERENCE_KEYS = ("device_calls", "winner_family", "winner_trial", "winner_calls", "failed_trials")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="store this outcome in reference.json"
    )
    return parser.parse_args(argv)


# -- stamp -------------------------------------------------------------------


def stamp() -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmlfinder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in BLAS_VARS if name in os.environ},
    }


# -- measurement -------------------------------------------------------------


def measure_setup() -> list[float]:
    """Import qmlfinder and build default_registry() in fresh processes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def invoke(cli, argv: list[str]) -> tuple[int, float, str]:
    """One CLI invocation; returns its exit code, wall time and output."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        started = time.perf_counter()
        try:
            code = cli.cli_main(list(argv))
        except Exception:  # a crash counts as a failed invocation, not a benchmark error
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - started
    return code, wall, captured.getvalue()


def fresh_invoke(cli, workload) -> tuple[int, float, str]:
    for path in workload.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gc.collect()
    return invoke(cli, workload.argv)


def run_loop(cli, workload, seconds: float, tracer, baseline=None) -> dict:
    """Invoke until `seconds` have passed. With a tracer, odd invocations are
    traced and even ones are not, and at least one of each runs. With a
    baseline (cli, workload), every invocation follows one of the baseline
    package on its own copy of the inputs, and `ratios` holds each pair's
    wall time over the baseline's."""
    plain, traced, snapshots, errors, ratios = [], [], [], [], []
    first_outputs = None
    mismatched = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline or (tracer and not traced):
        use_trace = tracer is not None and i % 2 == 1
        if baseline is not None:
            base_code, base_wall, base_text = fresh_invoke(*baseline)
            if base_code != 0:
                errors.append(f"baseline invocation exited {base_code}: {base_text.strip()[-500:]}")
        if use_trace:
            tracer.reset()
        with tracer if use_trace else contextlib.nullcontext():
            code, wall, text = fresh_invoke(cli, workload)
        i += 1
        if code != 0:
            errors.append(f"invocation {i} exited {code}: {text.strip()[-500:]}")
            continue
        if baseline is not None and base_code == 0:
            ratios.append(wall / base_wall)
        outputs = {role: Path(path).read_bytes() for role, path in workload.outputs.items()}
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            mismatched += 1
        (traced if use_trace else plain).append(wall)
        if use_trace:
            snapshots.append({
                "stats": {name: tuple(v) for name, v in tracer.stats.items()},
                "counts": dict(tracer.counts),
                "unattributed_s": wall - tracer.root_s,
                "sizes": {role: len(data) for role, data in outputs.items()},
            })
    return {
        "plain": plain, "traced": traced, "snapshots": snapshots, "errors": errors,
        "ratios": ratios, "attempted": i, "mismatched": mismatched,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- metrics -----------------------------------------------------------------


def share(part: float, base: float) -> float:
    return part / base if base else 0.0


def end_to_end(loop: dict, setup: list[float]) -> dict:
    return {
        "wall_rel": statistics.median(loop["ratios"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": loop["peak_rss_mb"],
    }


def layer_values(snap: dict, outcome: dict, overhead_s: float) -> dict:
    stats, counts = snap["stats"], snap["counts"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    values = {}
    counted = (
        "run_circuit", "apply_gate", "parameter_shift_gradient", "fidelity", "expectation_z",
        "build_ops", "train_epochs", "step", "kernel_matrix", "run_trial", "append_trial",
    )
    for name in counted:
        values[f"{name}.calls"] = calls(name)
    timed_only = (
        "QNN.fit", "QEK.fit", "QNN_REGRESSOR.fit", "RBM.fit", "BinaryEncoder.train",
        "RBM.cd1_epoch", "silhouette_score", "QEK.predict", "model_to_spec",
        "write_model_spec", "read_model_spec", "model_from_spec",
    )
    for name in counted + timed_only:
        values[f"{name}.busy_s"] = busy(name)
    for name in ("run_circuit", "train_epochs", "kernel_matrix", "cli_main"):
        values[f"{name}.self_s"] = self_s(name)
    for name in ("amplitudes_touched", "kernel_matrix.pairs", "epochs_run", "metered_calls",
                 "winner_refit_s"):
        values[name] = counts.get(name, 0)
    for family in ("QNN", "QEK", "QNN_REGRESSOR", "RBM"):
        values[f"trial_s.{family}"] = counts.get(f"trial_s.{family}", 0.0)
    values["runs_per_metered_call"] = share(calls("run_circuit"), counts.get("metered_calls", 0))
    values["feasible_share"] = share(outcome["feasible_trials"], outcome["complete_trials"])
    values["bytes_appended"] = snap["sizes"].get("store", 0)
    values["model_bytes"] = outcome["model_bytes"]
    values["load.busy_s"] = outcome["load_s"]
    values["trace.overhead_s"] = overhead_s
    values["trace.unattributed_s"] = snap["unattributed_s"]
    for name in ("device_calls", "winner_calls", "winner_score"):
        values[name] = outcome[name]
    values["failed_share"] = outcome["failed_share"]
    return values


def per_layer(loop: dict, outcome: dict, timed: set[str]) -> tuple[dict, list[str]]:
    """Median over traced invocations; everything but the times in `timed`
    must repeat exactly."""
    overhead = statistics.median(loop["traced"]) - statistics.median(loop["plain"])
    samples = [layer_values(snap, outcome, overhead) for snap in loop["snapshots"]]
    values, unsteady = {}, []
    for name in samples[0]:
        column = [sample[name] for sample in samples]
        values[name] = statistics.median(column)
        if name not in timed and len(set(column)) > 1:
            unsteady.append(f"{name} varies between traced invocations: {column}")
    values["wall_s"] = statistics.median(loop["plain"])
    return values, unsteady


# -- report ------------------------------------------------------------------


def reference_drift(workload: str, seed: int, outcome: dict) -> list[str] | None:
    if not REFERENCE.is_file():
        return None
    recorded = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    return [
        f"{key}: reference {recorded.get(key)!r}, now {outcome[key]!r}"
        for key in REFERENCE_KEYS if recorded.get(key) != outcome[key]
    ]


def record_reference(workload: str, seed: int, outcome: dict) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = {key: outcome[key] for key in REFERENCE_KEYS}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def describe(workload) -> str:
    if workload.study:
        s = workload.study
        return (f"{workload.n_rows} rows x {workload.n_features} features; "
                f"{s['trials']} trials x {s['seeds']} seeds x {s['epochs']} epochs")
    return (f"QEK on {workload.n_features} wires, {workload.extra['support_rows']} support rows, "
            f"{workload.n_rows} new rows")


def print_report(
    args, workload, stamp_info, loop, setup, outcome, problems, drift, metrics, contract
) -> None:
    print(f"qmlfinder benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp: " + json.dumps(stamp_info, sort_keys=True))
    print(f"inputs: {describe(workload)}")
    walls = loop["plain"]
    print(f"invocations: {loop['attempted']} ({len(loop['errors'])} failed); untraced {len(walls)}"
          + (f", traced {len(loop['traced'])}" if args.trace else ""))
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
    print(f"  untraced wall_s: median {statistics.median(walls):.4f} s, quartiles "
          f"{q[0]:.4f}/{q[2]:.4f} s, min {min(walls):.4f} s, max {max(walls):.4f} s, "
          f"n={len(walls)}")
    print(f"  untraced wall_s samples: {', '.join(f'{t:.4f}' for t in walls)} s")
    if setup:
        print(f"  setup_s samples: {', '.join(f'{t:.4f}' for t in setup)} s")
    ratios = loop["ratios"]
    if ratios:
        print(f"  wall_rel samples: {', '.join(f'{r:.4f}' for r in ratios)}")
    base = (f"{outcome['failed_trials']} of {outcome['attempted_trials']} trials"
            if workload.study else f"{len(loop['errors'])} of {loop['attempted']} CLI runs")
    print("end-to-end:")
    for name, value, unit, note in (
        ("wall_s", statistics.median(walls), "s", "median, untraced"),
        ("wall_rel", statistics.median(ratios) if ratios else None, "ratio",
         "median of wall_s over the seed baseline's, per adjacent pair"
         if ratios else "measured with --trace 0"),
        ("setup_s", statistics.median(setup) if setup else None, "s",
         f"median of {len(setup)} fresh processes" if setup else "measured with --trace 0"),
        ("device_calls", outcome["device_calls"], "calls",
         "sum of trial total_calls" if workload.study else "booked on the predict counter"),
        ("winner_calls", outcome["winner_calls"], "calls",
         f"{outcome['winner_family']} trial {outcome['winner_trial']}, metadata.total_calls"),
        ("winner_score", outcome["winner_score"], "score", "metadata.mean_score"),
        ("failed_share", outcome["failed_share"], "ratio", base),
        ("peak_rss_mb", loop["peak_rss_mb"], "MB", "ru_maxrss of this process"),
    ):
        shown = "-" if value is None else f"{value!r} {unit}"
        print(f"  {name:<14} {shown}  ({note})")
    if args.trace:
        print("per-layer (median over traced invocations):")
        for entry in contract["per_layer"]:
            print(f"  {entry['name']:<30} {metrics[entry['name']]['value']!r} {entry['unit']}")
    if problems:
        print(f"checks: {len(problems)} failed")
        for problem in problems:
            print(f"  FAIL {problem}")
    else:
        print("checks: all passed")
    if drift is None:
        print(f"reference: no recorded outcome for {args.workload} seed {args.seed}")
    elif drift:
        print("reference: DRIFT from the recorded outcome")
        for line in drift:
            print(f"  drift {line}")
    else:
        print("reference: matches the recorded outcome")


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "qmlfinder" / "__init__.py", ORACLES, CONTRACT)
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a qmlfinder checkout, missing {missing}", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BASELINE))
    import qmlfinder
    import qmlfinder_seed.cli
    from qmlfinder import cli, default_registry

    import checks
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1

    stamp_info = stamp()
    setup = [] if args.trace else measure_setup()
    registry = default_registry()
    oracles = checks.load_oracles(ORACLES)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        workload = WORKLOADS[args.workload](args.seed, work, qmlfinder)
        baseline = None
        if not args.trace:
            seed_work = os.path.join(work, "seed")
            os.mkdir(seed_work)
            seed_workload = WORKLOADS[args.workload](args.seed, seed_work, qmlfinder_seed)
            baseline = (qmlfinder_seed.cli, seed_workload)
        loop = run_loop(cli, workload, args.seconds, tracer, baseline)
        problems = list(loop["errors"])
        if loop["mismatched"]:
            problems.append(
                f"{loop['mismatched']} invocations wrote outputs that differ from the first"
            )
        try:
            if workload.study:
                found, outcome = checks.check_study(workload, registry)
            else:
                found, outcome = checks.check_predict(workload, registry, oracles)
            problems += found
        except Exception as exc:  # a missing or malformed output is a failed check
            problems.append(f"checks raised {type(exc).__name__}: {exc}")
            outcome = None

    measured = loop["traced"] if args.trace else loop["ratios"]
    if outcome is None or not (loop["plain"] and measured):
        print("\n".join(problems) or "no successful invocation", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": loop["attempted"],
                          "failed": len(loop["errors"]), "metrics": {}}))
        return 1
    outcome["failed_share"] = (
        share(outcome["failed_trials"], outcome["attempted_trials"]) if workload.study
        else share(len(loop["errors"]), loop["attempted"])
    )

    if args.trace:
        section = contract["per_layer"]
        timed = {entry["name"] for entry in section if entry["unit"] == "s"}
        values, unsteady = per_layer(loop, outcome, timed)
        problems += unsteady
    else:
        values = end_to_end(loop, setup)
        section = contract["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in section
    }

    if args.record:
        record_reference(args.workload, args.seed, outcome)
    drift = reference_drift(args.workload, args.seed, outcome)
    print_report(
        args, workload, stamp_info, loop, setup, outcome, problems, drift, metrics, contract
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": len(loop["errors"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
