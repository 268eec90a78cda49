"""The search engine: seeded trials, the model finder with its
threshold-constrained call-minimization objective, and the
optimizer-comparison tuner.

A trial draws `model_type` among the task's families; that family's class
draws the rest in its `build`, each option where the model needs it.

Trials run one at a time in id order, each record stored before the next
trial starts; every trial seeds its own sampler from (base_seed, trial_id).
Evaluation repeats within a trial use the shared training seeds
base_seed * 10007 + k, making repeat k comparable across trials.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from math import isnan
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .models import Score, default_registry
from .records import StudyFailureError, TrialRecord, _require_integer, _require_number, rank_key
from .registry import Registry, TaskType
from .rng import PortableRng, derive_seed, repeat_seed
from .store import ModelSpec, StudyStore, model_from_spec, model_to_spec
from .training import OPTIMIZER_KINDS, BudgetLedger, OptimizerConfig

TUNER_LEARNING_RATE_RANGE = (1e-3, 0.5)
TUNER_MOMENTUM_RANGE = (0.0, 0.99)


class UnsupportedModelError(ValueError):
    """Raised when the tuner is asked to tune a model it cannot retrain per
    seed: one without `reseeded`."""


class Trial:
    """One search trial; records every suggestion and answers repeats from the
    record instead of re-sampling. Each new name draws from one portable
    generator seeded with the trial's seed, in suggestion order."""

    def __init__(self, trial_id: int, seed: int) -> None:
        self.trial_id = trial_id
        self.seed = seed
        self.sampled: dict[str, Any] = {}
        self._rng = PortableRng(seed)

    def _suggest(self, name: str, draw: Callable[[], Any]) -> Any:
        if name not in self.sampled:
            self.sampled[name] = draw()
        return self.sampled[name]

    def suggest_int(self, name: str, low: int, high: int) -> int:
        return self._suggest(name, lambda: self._rng.randint(low, high))

    def suggest_float(self, name: str, low: float, high: float, log: bool = False) -> float:
        draw = self._rng.log_uniform if log else self._rng.uniform
        return self._suggest(name, lambda: draw(low, high))

    def suggest_categorical(self, name: str, options: Sequence) -> Any:
        return self._suggest(name, lambda: self._rng.choice(options))


@dataclass(frozen=True)
class FinderConfig:
    task: TaskType
    n_trials: int = 20
    n_seeds: int = 3
    n_epochs: int = 10
    n_cores: int = 1
    threshold: float = 0.8
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("n_trials", 1), ("n_seeds", 1), ("n_epochs", 0), ("n_cores", 1),
                              ("base_seed", None)):
            _require_integer(name, getattr(self, name), minimum)
        _require_number("threshold", self.threshold, "a number", lambda value: not isnan(value))


def _suggest_and_build(
    trial: Trial,
    config: FinderConfig,
    registry: Registry,
    X: np.ndarray,
    seed: int,
):
    families = registry.models_for_task(config.task)
    if not families:
        raise ValueError(f"no model families registered for task {config.task.value}")
    model_type = trial.suggest_categorical("model_type", families)
    return registry.model(model_type).build(trial, X, config, registry, seed)


def _require_data(X: np.ndarray, y) -> None:
    """Refuse targets that are not one per row of X, and NaN or infinite
    features or targets, before any trial runs on them."""
    if y is not None and np.shape(y)[:1] != X.shape[:1]:
        raise ValueError(f"y holds {len(np.atleast_1d(y))} targets but X holds "
                         f"{len(np.atleast_1d(X))} rows")
    for name, values in (("X", X), ("y", y)):
        if values is not None and not np.isfinite(np.asarray(values, dtype=float)).all():
            raise ValueError(f"{name} holds non-finite values (NaN or infinity)")


def _fit_and_score(model, X: np.ndarray, y, ledger: BudgetLedger) -> float:
    """Fit `model` and return its `train_score`, bounds-checked as a trial score."""
    model.fit(X, y, ledger)
    return Score(float(model.train_score), model.score_kind).value


def evaluate_config(
    trial: Trial,
    fit_repeat: Callable[[int, BudgetLedger], float],
    n_seeds: int,
    base_seed: int,
    threshold: float | None,
) -> TrialRecord:
    """Evaluate one sampled configuration over `n_seeds` training repeats.

    `fit_repeat(seed, ledger)` trains a fresh model with the training seed of
    repeat k, repeat_seed(base_seed, k), books its device calls on `ledger`
    and returns its score. Any failure yields a failed record instead of
    aborting the study. A complete trial is feasible when its mean score
    reaches `threshold`; with no threshold every complete trial is.
    """
    ledger = BudgetLedger()
    scores: list[float] = []
    error = None
    try:
        for k in range(n_seeds):
            repeat_ledger = BudgetLedger()
            scores.append(fit_repeat(repeat_seed(base_seed, k), repeat_ledger))
            ledger.merge(repeat_ledger)
        mean_score = float(np.mean(scores))
        status = "complete"
        feasible = threshold is None or mean_score >= threshold
    except Exception as exc:  # crash containment: the study must survive
        mean_score = None
        status = "failed"
        feasible = False
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        trial_id=trial.trial_id,
        status=status,
        feasible=feasible,
        mean_score=mean_score,
        per_seed_scores=scores,
        total_calls=ledger.total,
        subtotals=ledger.as_dict(),
        seed=trial.seed,
        sampled=dict(trial.sampled),
        error=error,
    )


def _plan_repeats(trial: Trial, config: FinderConfig, registry: Registry, X: np.ndarray) -> list:
    """Build `trial`'s model for each training repeat, in repeat order. A build
    that raises ends the list with its exception, which the trial raises when
    it reaches that repeat."""
    models: list = []
    for k in range(config.n_seeds):
        try:
            models.append(
                _suggest_and_build(trial, config, registry, X, repeat_seed(config.base_seed, k))
            )
        except Exception as exc:  # the trial records it when it gets there
            models.append(exc)
            break
    return models


def _prepare(plan: Iterable[tuple[Trial, list]], registry: Registry, X: np.ndarray, y) -> None:
    """Hand each family whose class has a `prepare` hook the models built in
    `plan`, with the data they will be fitted on."""
    families: dict[str, list] = {}
    for trial, models in plan:
        for model in models:
            if not isinstance(model, Exception):
                families.setdefault(trial.sampled["model_type"], []).append(model)
    for name, models in families.items():
        prepare = getattr(registry.model(name), "prepare", None)
        if prepare is not None:
            prepare(models, X, y)


def run_trial(
    trial: Trial,
    config: FinderConfig,
    registry: Registry,
    X: np.ndarray,
    y,
    models: list | None = None,
) -> TrialRecord:
    """Evaluate one configuration over n_seeds training repeats, fitting
    `models[k]` in repeat k. `models` is the trial's plan: one prepared model
    per repeat, or a build's exception in place of the rest. Without it, the
    trial samples, builds and prepares its own. Any failure (construction,
    training, undefined score) yields a failed record instead of aborting the
    study."""
    if models is None:
        models = _plan_repeats(trial, config, registry, X)
        _prepare([(trial, models)], registry, X, y)
    repeats = iter(models)

    def fit_repeat(seed: int, ledger: BudgetLedger) -> float:
        model = next(repeats)
        if isinstance(model, Exception):
            raise model
        return _fit_and_score(model, X, y, ledger)

    return evaluate_config(trial, fit_repeat, config.n_seeds, config.base_seed, config.threshold)


def _run_trials(
    trials: Iterable[Trial], evaluate: Callable[[Trial], TrialRecord], store: StudyStore | None
) -> list[TrialRecord]:
    """Evaluate `trials` in order; each is stored before the next starts."""
    records = []
    for trial in trials:
        records.append(evaluate(trial))
        if store is not None:
            store.append_trial(records[-1])
    return records


def find_model(
    config: FinderConfig,
    registry: Registry,
    X: np.ndarray,
    y,
    store: StudyStore | None = None,
) -> ModelSpec:
    """Run the study and return the trained winner as a serializable spec.

    Winner: the complete trial with the least `rank_key`, i.e. the feasible
    trial with the fewest device calls (ties: higher mean score, then lower
    trial id). If nothing was feasible, the highest-scoring complete trial is
    returned with metadata feasible=false. The serialized model is the
    winner's own repeat-0 model, the one that scored per_seed_scores[0].

    Every (trial, repeat) model is built once, before the first trial, and
    each family's `prepare` gets its models with X and y: the QNN families
    train theirs in lockstep there, the clusterer its encoders and RBMs, and
    each trial's fit then books and returns what its model's training gave.
    Between trials only the leading trial's repeat-0 model is kept.

    Every candidate family's `build` must return models with `spec_fields`,
    and X and y must be finite, with one target per row of X; otherwise a
    ValueError naming the family, or X or y, is raised before any fit or
    store write. Every registered family's class has `from_spec`, so the
    winner can be restored from its model file.
    """
    X = np.asarray(X, dtype=float)
    if config.task != TaskType.CLUSTERING:
        if y is None:
            raise ValueError(f"task {config.task.value} requires targets")
        y = np.asarray(y)
    _require_data(X, y)

    trials = [Trial(t, derive_seed(config.base_seed, t)) for t in range(config.n_trials)]
    plan = {trial.trial_id: _plan_repeats(trial, config, registry, X) for trial in trials}
    for trial in trials:
        if not all(hasattr(m, "spec_fields") for m in plan[trial.trial_id]
                   if not isinstance(m, Exception)):
            raise ValueError(f"model family {trial.sampled['model_type']!r} builds models "
                             "without spec_fields, so its winner could not be saved")
    _prepare(((trial, plan[trial.trial_id]) for trial in trials), registry, X, y)
    leader = None  # the leading trial's rank key, record and fitted repeat-0 model

    def evaluate(trial: Trial) -> TrialRecord:
        nonlocal leader
        models = plan.pop(trial.trial_id)  # released when the trial ends, unless it leads
        record = run_trial(trial, config, registry, X, y, models)
        if record.status == "complete" and (leader is None or rank_key(record) < leader[0]):
            leader = rank_key(record), record, models[0]
        return record

    _run_trials(trials, evaluate, store)
    if leader is None:
        raise StudyFailureError("no complete trials in the study")
    _, best, model = leader
    metadata = {
        "mean_score": best.mean_score,
        "total_calls": best.total_calls,
        "base_seed": config.base_seed,
        "feasible": best.feasible,
        "trial_id": best.trial_id,
    }
    return model_to_spec(model, X.shape[1], metadata)


@dataclass(eq=False)
class HyperparameterTuner:
    """Compare optimizer configurations on a fixed architecture, retraining it
    from scratch per seed; the best mean final score wins, ties broken by
    fewer device calls then lower trial id. The default registry unless one
    is given. The model's class must have `reseeded(seed)` and a `fit` taking
    `optimizer=`. Non-finite X or y, a y whose length is not X's row count,
    n_trials or n_seeds not an integer >= 1, or base_seed not an integer,
    raise a ValueError naming which before the first trial."""

    X: np.ndarray
    y: Any
    model_spec: ModelSpec
    _: KW_ONLY
    registry: Registry | None = None
    store: StudyStore | None = None
    n_trials: int = 20
    n_seeds: int = 3
    base_seed: int = 0

    def find_hyperparameters(self) -> OptimizerConfig:
        for name, minimum in (("n_trials", 1), ("n_seeds", 1), ("base_seed", None)):
            _require_integer(name, getattr(self, name), minimum)
        registry = self.registry if self.registry is not None else default_registry()
        model = model_from_spec(self.model_spec, registry)
        if not hasattr(model, "reseeded"):
            raise UnsupportedModelError(
                f"{self.model_spec.model_family} is not gradient-trained; nothing to tune"
            )
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        _require_data(X, y)

        optimizers: dict[int, OptimizerConfig] = {}

        def evaluate(trial: Trial) -> TrialRecord:
            kind = trial.suggest_categorical("optimizer", list(OPTIMIZER_KINDS))
            learning_rate = trial.suggest_float(
                "learning_rate", *TUNER_LEARNING_RATE_RANGE, log=True
            )
            momentum = (
                trial.suggest_float("momentum", *TUNER_MOMENTUM_RANGE)
                if kind == "momentum_gd"
                else 0.0
            )
            opt = OptimizerConfig(kind=kind, learning_rate=learning_rate, momentum=momentum)
            optimizers[trial.trial_id] = opt

            def fit_repeat(seed: int, ledger: BudgetLedger) -> float:
                return float(model.reseeded(seed).fit(X, y, ledger, optimizer=opt).train_score)

            return evaluate_config(trial, fit_repeat, self.n_seeds, self.base_seed, None)

        trials = (Trial(t, derive_seed(self.base_seed, t)) for t in range(self.n_trials))
        records = _run_trials(trials, evaluate, self.store)
        complete = [r for r in records if r.status == "complete"]
        if not complete:
            raise StudyFailureError("no tuner trial completed")
        best = min(complete, key=lambda r: (-r.mean_score, r.total_calls, r.trial_id))
        return optimizers[best.trial_id]


def find_hyperparameters(
    model_spec: ModelSpec, X: np.ndarray, y, registry: Registry, **options
) -> OptimizerConfig:
    """`HyperparameterTuner`'s study on `registry`; the keyword options
    (`store`, `n_trials`, `n_seeds`, `base_seed`) are its fields, with its
    defaults."""
    return HyperparameterTuner(X, y, model_spec, registry=registry,
                               **options).find_hyperparameters()


class ModelFinder:
    """Convenience wrapper: hold data and config, then call find_model(). The
    keyword options are `FinderConfig`'s fields, with its defaults. n_cores
    must be >= 1 but parallelizes nothing: trials run serially in id order."""

    def __init__(self, task: TaskType | str, X: np.ndarray, y=None, *,
                 registry: Registry | None = None, store: StudyStore | None = None,
                 **options) -> None:
        self.config = FinderConfig(task=TaskType(task), **options)
        self.registry = registry if registry is not None else default_registry()
        self.store = store
        self._X = X
        self._y = y

    def find_model(self) -> ModelSpec:
        return find_model(self.config, self.registry, self._X, self._y, self.store)
