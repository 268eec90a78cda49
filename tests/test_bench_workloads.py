"""The benchmark's four workloads at seed 0, each run once through the CLI and
checked as bench/run.py checks them: bench/checks.py finds no problem, and the
outcome (device calls, winner, failed trials) is the one bench/reference.json
records. The bench modules are loaded from their files and used as they are."""

import importlib.util
import sys
from pathlib import Path

import pytest

import qmlfinder
from qmlfinder import default_registry
from qmlfinder.cli import EXIT_OK, cli_main

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


checks, run, workloads = _load("checks"), _load("run"), _load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks_and_matches_the_reference(tmp_path, name, capsys):
    workload = workloads.WORKLOADS[name](0, str(tmp_path), qmlfinder)
    assert cli_main(workload.argv) == EXIT_OK
    registry = default_registry()
    if workload.study:
        problems, outcome = checks.check_study(workload, registry)
    else:
        oracles = checks.load_oracles(ROOT / "tests" / "oracles.py")
        problems, outcome = checks.check_predict(workload, registry, oracles)
    assert problems == []
    assert run.reference_drift(name, 0, outcome) == []  # None: nothing recorded
