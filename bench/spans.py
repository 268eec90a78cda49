"""Spans around the public functions of each qmlfinder module, recorded from
the benchmark's side without editing the package.

`Tracer.install()` rebinds every target in every qmlfinder module namespace
that holds it (models, for one, calls `run_circuit` and `train_epochs` through
its own globals), and on class attributes for methods. `uninstall()` puts the
originals back, so untraced invocations run the unmodified code.

Spans are aggregated in memory per name: calls, busy time (span duration) and
self time (duration minus the time covered by child spans). The parent stack
is thread-local, so spans opened on worker threads nest correctly.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; patches stay installed."""
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts: dict[str, float] = defaultdict(int)
        self.root_s = 0.0  # time covered by spans that have no parent
        self._refit_open = False

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(duration, args, kwargs, result)` runs
        once the span has closed, also when `fn` raised (result is None)."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [perf_counter(), 0.0]  # start, time covered by children
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                with self._lock:
                    entry = self.stats[name]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                    else:
                        self.root_s += duration
                if after is not None:
                    after(duration, args, kwargs, result)

        return wrapper

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace `original` under every name any qmlfinder module binds it to."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "qmlfinder" and not module_name.startswith("qmlfinder."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrap_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self.span(name, original, after))

    def _replace_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        self._replace_method(cls, attr, lambda original: self.span(name, original, after))

    def install(self) -> None:
        from qmlfinder import cli, models, records, registry, search, simulator, store, training

        if self._patches:
            raise RuntimeError("tracer already installed")

        def after_gate(duration, args, kwargs, result):
            # computed, not measured: each gate rewrites the whole state
            self.count("amplitudes_touched", 2 ** args[0].n_wires)

        def after_kernel(duration, args, kwargs, result):
            X1, X2 = args[2], args[3]
            if len(X1) == len(X2) and np.array_equal(X1, X2):
                pairs = len(X1) * (len(X1) - 1) // 2
            else:
                pairs = len(X1) * len(X2)
            self.count("kernel_matrix.pairs", pairs)

        def after_epochs(duration, args, kwargs, result):
            if result is not None:
                self.count("epochs_run", result.epochs_run)

        def after_trial(duration, args, kwargs, result):
            if result is not None:
                self.count(f"trial_s.{result.sampled.get('model_type', 'unknown')}", duration)

        def after_select(duration, args, kwargs, result):
            self._refit_open = True

        def after_find(duration, args, kwargs, result):
            self._refit_open = False

        def after_fit(duration, args, kwargs, result):
            if self._refit_open:
                self.count("winner_refit_s", duration)

        def count_booked(original):
            # metered calls booked on any CallCounter, except the re-booking
            # that BudgetLedger.merge does of calls already counted
            def increment(counter, n=1):
                if not getattr(self._local, "merging", False):
                    self.count("metered_calls", n)
                return original(counter, n)

            return increment

        def merging(original):
            def merge(ledger, other):
                self._local.merging = True
                try:
                    return original(ledger, other)
                finally:
                    self._local.merging = False

            return merge

        self._wrap_function(cli, "cli_main", "cli_main")
        self._wrap_function(search, "find_model", "find_model", after_find)
        self._wrap_function(search, "run_trial", "run_trial", after_trial)
        self._wrap_function(records, "select_best", "select_best", after_select)
        self._wrap_function(simulator, "run_circuit", "run_circuit")
        self._wrap_function(simulator, "apply_gate", "apply_gate", after_gate)
        self._wrap_function(simulator, "parameter_shift_gradient", "parameter_shift_gradient")
        self._wrap_function(simulator, "fidelity", "fidelity")
        self._wrap_function(simulator, "expectation_z", "expectation_z")
        self._wrap_method(registry.CircuitSpec, "build_ops", "build_ops")
        self._wrap_function(training, "train_epochs", "train_epochs", after_epochs)
        self._wrap_function(training, "step", "step")
        self._wrap_function(models, "kernel_matrix", "kernel_matrix", after_kernel)
        self._wrap_function(models, "silhouette_score", "silhouette_score")
        families = (models.QNNClassifier, models.QEKClassifier, models.QNNRegressor,
                    models.RBMClusterer)
        for cls in families:
            self._wrap_method(cls, "fit", f"{cls.family}.fit", after_fit)
        self._wrap_method(models.QEKClassifier, "predict", "QEK.predict")
        self._wrap_method(models.BinaryEncoder, "train", "BinaryEncoder.train")
        self._wrap_method(models.RBM, "cd1_epoch", "RBM.cd1_epoch")
        self._wrap_method(store.StudyStore, "append_trial", "append_trial")
        self._wrap_function(store, "model_to_spec", "model_to_spec")
        self._wrap_function(store, "write_model_spec", "write_model_spec")
        self._wrap_function(store, "read_model_spec", "read_model_spec")
        self._wrap_function(store, "model_from_spec", "model_from_spec")

        self._replace_method(simulator.CallCounter, "increment", count_booked)
        self._replace_method(training.BudgetLedger, "merge", merging)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
