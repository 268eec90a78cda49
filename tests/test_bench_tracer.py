"""The benchmark's tracer (bench/spans.py) finds what it wraps by name: module
functions through `getattr`, family methods through the class `__dict__`. A
renamed or moved target must fail here, not first in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import qmlfinder.cli  # noqa: F401  (the tracer imports it; bound before the first snapshot)
from qmlfinder import models, records, search, simulator, training

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _bindings() -> dict:
    """Every name bound in a qmlfinder module or on a class defined in one."""
    owners = [module for name, module in sys.modules.items()
              if name == "qmlfinder" or name.startswith("qmlfinder.")]
    owners += [value for module in list(owners) for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("qmlfinder")]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_uninstall_restores_every_original():
    before = _bindings()
    tracer = _tracer_class()()
    tracer.install()
    try:
        for cls in (models.QNNClassifier, models.QEKClassifier, models.QNNRegressor,
                    models.RBMClusterer):
            assert vars(cls)["fit"] is not before[(cls, "fit")]
        for module, name in [(search, "run_trial"), (records, "select_best"),
                             (simulator, "parameter_shift_gradient"), (simulator, "fidelity"),
                             (training, "step"), (training, "train_epochs")]:
            assert getattr(module, name) is not before[(module, name)]
        training.step(training.OptState(), np.zeros(2), np.ones(2), training.OptimizerConfig())
        assert tracer.stats["step"][0] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
