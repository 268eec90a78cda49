"""The search engine: seeded trials, the suggestion procedures, the model
finder with its threshold-constrained call-minimization objective, and the
optimizer-comparison tuner.

Trials run one at a time in id order, each record stored before the next
trial starts; every trial seeds its own sampler from (base_seed, trial_id).
Evaluation repeats within a trial use the shared training seeds
base_seed * 10007 + k, making repeat k comparable across trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, sqrt
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .models import QNN, Score, default_registry
from .records import StudyFailureError, TrialRecord, select_best
from .registry import EmbeddingKind, FloatRange, IntRange, LayerKind, Registry, TaskType
from .rng import PortableRng, derive_seed, repeat_seed
from .simulator import MAX_WIRES
from .store import ModelSpec, StudyStore, model_from_spec, model_to_spec
from .training import BudgetLedger, OptimizerConfig

TUNER_OPTIMIZER_KINDS = ("vanilla_gd", "momentum_gd", "adam")
TUNER_LEARNING_RATE_RANGE = (1e-3, 0.5)
TUNER_MOMENTUM_RANGE = (0.0, 0.99)


class UnsupportedModelError(ValueError):
    """Raised when the tuner is asked to tune a model that is not a QNN."""


class RandomSampler:
    """Uniform sampling over the declared domains, seeded and portable."""

    def __init__(self, seed: int) -> None:
        self._rng = PortableRng(seed)

    def suggest_int(self, name: str, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def suggest_float(self, name: str, low: float, high: float, log: bool = False) -> float:
        if log:
            return self._rng.log_uniform(low, high)
        return self._rng.uniform(low, high)

    def suggest_categorical(self, name: str, options: Sequence) -> Any:
        return self._rng.choice(options)


class ReplaySampler:
    """Returns previously recorded values; used to rebuild a winning trial."""

    def __init__(self, values: Mapping[str, Any]) -> None:
        self._values = values

    def _lookup(self, name: str):
        if name not in self._values:
            raise KeyError(f"no recorded value for suggestion {name!r}")
        return self._values[name]

    def suggest_int(self, name: str, low: int, high: int) -> int:
        value = int(self._lookup(name))
        if not low <= value <= high:
            raise ValueError(f"recorded {name}={value} outside [{low}, {high}]")
        return value

    def suggest_float(self, name: str, low: float, high: float, log: bool = False) -> float:
        value = float(self._lookup(name))
        if not low <= value <= high:
            raise ValueError(f"recorded {name}={value} outside [{low}, {high}]")
        return value

    def suggest_categorical(self, name: str, options: Sequence) -> Any:
        value = self._lookup(name)
        if value not in options:
            raise ValueError(f"recorded {name}={value!r} not among {list(options)}")
        return value


class Trial:
    """One search trial; records every suggestion and answers repeats from the
    record instead of re-sampling."""

    def __init__(self, trial_id: int, seed: int, sampler=None) -> None:
        self.trial_id = trial_id
        self.seed = seed
        self.sampled: dict[str, Any] = {}
        self._sampler = sampler if sampler is not None else RandomSampler(seed)

    def suggest_int(self, name: str, low: int, high: int) -> int:
        if name not in self.sampled:
            self.sampled[name] = self._sampler.suggest_int(name, low, high)
        return self.sampled[name]

    def suggest_float(self, name: str, low: float, high: float, log: bool = False) -> float:
        if name not in self.sampled:
            self.sampled[name] = self._sampler.suggest_float(name, low, high, log)
        return self.sampled[name]

    def suggest_categorical(self, name: str, options: Sequence) -> Any:
        if name not in self.sampled:
            self.sampled[name] = self._sampler.suggest_categorical(name, options)
        return self.sampled[name]


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
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be >= 0")


def suggest_embedding(trial: Trial, registry: Registry, n_features: int) -> EmbeddingKind:
    """Categorical draw over the embeddings that can host `n_features` features."""
    eligible = []
    for name in registry.embedding_names:
        kind = registry.embedding(name)
        wires = kind.wires_for_features(n_features)
        if 1 <= wires <= MAX_WIRES and n_features <= kind.max_features(wires):
            eligible.append(name)
    if not eligible:
        raise ValueError(f"no registered embedding can host {n_features} features")
    return registry.embedding(trial.suggest_categorical("embedding", eligible))


def suggest_layers(trial: Trial, n_layers: int, registry: Registry) -> list[LayerKind]:
    """Exactly n_layers categorical draws named layer_0 ... layer_{n-1}; the
    sampled order is the order the layers are applied in."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    names = registry.layer_names
    if not names:
        raise ValueError("layer registry is empty")
    return [
        registry.layer(trial.suggest_categorical(f"layer_{i}", names)) for i in range(n_layers)
    ]


def _suggest_tunables(trial: Trial, tunables: Mapping) -> dict[str, Any]:
    out = {}
    for name in sorted(tunables):
        spec = tunables[name]
        if isinstance(spec, IntRange):
            out[name] = trial.suggest_int(name, spec.low, spec.high)
        elif isinstance(spec, FloatRange):
            out[name] = trial.suggest_float(name, spec.low, spec.high, log=spec.log)
        else:
            raise TypeError(f"unsupported tunable range {spec!r} for {name}")
    return out


def suggest_supervised_kwargs(
    trial: Trial,
    model_type: str,
    registry: Registry,
    X: np.ndarray,
    config: FinderConfig,
) -> dict[str, Any]:
    """Construction options for a circuit-based model: layer count first, then
    embedding (which fixes the wire count), then the per-slot layer kinds."""
    family = registry.model(model_type)
    n_features = int(np.asarray(X).shape[1])
    low, high = family.n_layers
    n_layers = trial.suggest_int("n_layers", low, high)
    embedding = suggest_embedding(trial, registry, n_features)
    kwargs: dict[str, Any] = {
        "n_wires": embedding.wires_for_features(n_features),
        "embedding": embedding,
        "layers": suggest_layers(trial, n_layers, registry),
        "n_epochs": config.n_epochs,
        "threshold": config.threshold,
    }
    kwargs.update(_suggest_tunables(trial, family.tunables))
    kwargs.update(family.fixed_options)
    return kwargs


def suggest_unsupervised_kwargs(
    trial: Trial,
    X: np.ndarray,
    registry: Registry,
    config: FinderConfig,
    model_type: str = "RBM",
) -> dict[str, Any]:
    """Construction options for the encoder+RBM pipeline; the latent and hidden
    widths follow the sqrt/0.75 bracketing of the input size."""
    family = registry.model(model_type)
    input_size = int(np.asarray(X).shape[1])
    if input_size < 2:
        raise ValueError("clustering requires input size >= 2")
    out_channels = trial.suggest_int(
        "lbae_out_channels", floor(sqrt(input_size)), ceil(0.75 * input_size)
    )
    n_hidden = trial.suggest_int(
        "rbm_n_hidden_neurons", floor(sqrt(out_channels)), ceil(0.75 * out_channels)
    )
    low, high = family.n_layers
    kwargs: dict[str, Any] = {
        "input_size": input_size,
        "lbae_out_channels": out_channels,
        "rbm_n_visible_neurons": out_channels,  # hard equality with the latent width
        "rbm_n_hidden_neurons": n_hidden,
        "lbae_n_layers": trial.suggest_int("lbae_n_layers", low, high),
        "n_epochs": config.n_epochs,
    }
    kwargs.update(_suggest_tunables(trial, family.tunables))
    kwargs.update(family.fixed_options)
    return kwargs


def _suggest_and_build(
    trial: Trial,
    config: FinderConfig,
    registry: Registry,
    X: np.ndarray,
    seed: int,
    encoder_memo: dict | None = None,
):
    families = registry.models_for_task(config.task)
    if not families:
        raise ValueError(f"no model families registered for task {config.task.value}")
    model_type = trial.suggest_categorical("model_type", families)
    if config.task == TaskType.CLUSTERING:
        kwargs = suggest_unsupervised_kwargs(trial, X, registry, config, model_type)
    else:
        kwargs = suggest_supervised_kwargs(trial, model_type, registry, X, config)
    kwargs["encoder_memo"] = encoder_memo  # unsampled; only the RBM builder reads it
    return registry.model(model_type).builder(kwargs, seed)


def _require_finite(X: np.ndarray, y) -> None:
    """Refuse NaN or infinite features or targets before any trial runs on them."""
    for name, values in (("X", X), ("y", y)):
        if values is not None and not np.isfinite(np.asarray(values, dtype=float)).all():
            raise ValueError(f"{name} holds non-finite values (NaN or infinity)")


def _fit_and_score(model, X: np.ndarray, y, ledger: BudgetLedger) -> float:
    if model.task == TaskType.CLUSTERING:
        model.fit(X, ledger)
        value = float(model.score(X))
    else:
        model.fit(X, y, ledger)
        value = float(model.train_score)
    return Score(value, model.score_kind).value  # bounds-checked at the trial boundary


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
    record = TrialRecord(
        trial_id=trial.trial_id,
        seed=trial.seed,
        sampled=dict(trial.sampled),
        per_seed_scores=scores,
        mean_score=mean_score,
        total_calls=ledger.total,
        subtotals=ledger.as_dict(),
        feasible=feasible,
        status=status,
        error=error,
    )
    return record


def run_trial(
    trial: Trial,
    config: FinderConfig,
    registry: Registry,
    X: np.ndarray,
    y,
    encoder_memo: dict | None = None,
) -> TrialRecord:
    """Sample, build, and evaluate one configuration over n_seeds training
    repeats. Any failure (construction, training, undefined score) yields a
    failed record instead of aborting the study. `encoder_memo` is the
    study's memo of trained encoders (see RBMClusterer)."""

    def fit_repeat(seed: int, ledger: BudgetLedger) -> float:
        model = _suggest_and_build(trial, config, registry, X, seed, encoder_memo)
        return _fit_and_score(model, X, y, ledger)

    return evaluate_config(trial, fit_repeat, config.n_seeds, config.base_seed, config.threshold)


def _prepare_families(
    config: FinderConfig, registry: Registry, X: np.ndarray, encoder_memo: dict
) -> None:
    """Build every (trial, repeat) model the study will build, as its trials
    will, and hand each candidate family that registers `prepare` its own.
    Nothing is built when no family registers one."""
    families = [registry.model(name) for name in registry.models_for_task(config.task)]
    planned: dict[str, list] = {f.name: [] for f in families if f.prepare is not None}
    if not planned:
        return
    for trial_id in range(config.n_trials):
        trial = Trial(trial_id, derive_seed(config.base_seed, trial_id))
        for k in range(config.n_seeds):
            seed = repeat_seed(config.base_seed, k)
            try:
                model = _suggest_and_build(trial, config, registry, X, seed, encoder_memo)
            except Exception:  # the trial stops here too, and records the failure itself
                break
            if trial.sampled["model_type"] in planned:
                planned[trial.sampled["model_type"]].append(model)
    for name, models in planned.items():
        registry.model(name).prepare(models, X, encoder_memo)


def _run_trials(
    n_trials: int, base_seed: int, evaluate: Callable[[Trial], TrialRecord],
    store: StudyStore | None,
) -> list[TrialRecord]:
    """Evaluate trials 0 ... n_trials-1 in id order; each is stored before the next starts."""
    records = []
    for trial_id in range(n_trials):
        records.append(evaluate(Trial(trial_id, derive_seed(base_seed, trial_id))))
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

    Winner: the feasible complete trial with the fewest device calls (ties:
    higher mean score, then lower trial id). If nothing was feasible, the
    highest-scoring complete trial is returned with metadata feasible=false.
    The winning configuration is retrained with the training seed of its
    evaluation repeat 0, repeat_seed(base_seed, 0), so the serialized model is
    the one that scored per_seed_scores[0].

    Every candidate family for the task must register `restore`, and X and y
    must be finite; otherwise a ValueError naming the family, or X or y, is
    raised before any trial runs.

    Trials and the winner refit share one memo of trained encoders, filled
    before the first trial by the families' `prepare` hooks, so each distinct
    encoder is trained once per call; it is dropped on return.
    """
    X = np.asarray(X, dtype=float)
    if config.task != TaskType.CLUSTERING:
        if y is None:
            raise ValueError(f"task {config.task.value} requires targets")
        y = np.asarray(y)
    _require_finite(X, y)
    for name in registry.models_for_task(config.task):
        if registry.model(name).restore is None:
            raise ValueError(
                f"model family {name!r} registers no restore, so its winner could not be saved"
            )

    encoder_memo: dict = {}
    _prepare_families(config, registry, X, encoder_memo)

    def evaluate(trial: Trial) -> TrialRecord:
        return run_trial(trial, config, registry, X, y, encoder_memo)

    best, feasible = select_best(_run_trials(config.n_trials, config.base_seed, evaluate, store))

    replay = Trial(best.trial_id, best.seed, sampler=ReplaySampler(best.sampled))
    model = _suggest_and_build(
        replay, config, registry, X, repeat_seed(config.base_seed, 0), encoder_memo
    )
    _fit_and_score(model, X, y, BudgetLedger())
    metadata = {
        "mean_score": best.mean_score,
        "total_calls": best.total_calls,
        "base_seed": config.base_seed,
        "feasible": feasible,
        "trial_id": best.trial_id,
    }
    return model_to_spec(model, X.shape[1], metadata)


def find_hyperparameters(
    model_spec: ModelSpec,
    X: np.ndarray,
    y,
    registry: Registry,
    *,
    n_trials: int = 20,
    n_seeds: int = 3,
    store: StudyStore | None = None,
    base_seed: int = 0,
) -> OptimizerConfig:
    """Compare optimizer configurations on a fixed architecture, retraining it
    from scratch per seed; the best mean final score wins, ties broken by
    fewer device calls then lower trial id. Non-finite X or y, or n_trials or
    n_seeds below 1, raise a ValueError naming which before the first trial."""
    for name, count in (("n_trials", n_trials), ("n_seeds", n_seeds)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    model = model_from_spec(model_spec, registry)
    if not isinstance(model, QNN):
        raise UnsupportedModelError(
            f"{model_spec.model_family} is not gradient-trained; nothing to tune"
        )
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    _require_finite(X, y)

    optimizers: dict[int, OptimizerConfig] = {}

    def evaluate(trial: Trial) -> TrialRecord:
        kind = trial.suggest_categorical("optimizer", list(TUNER_OPTIMIZER_KINDS))
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

        return evaluate_config(trial, fit_repeat, n_seeds, base_seed, None)

    records = _run_trials(n_trials, base_seed, evaluate, store)
    complete = [r for r in records if r.status == "complete"]
    if not complete:
        raise StudyFailureError("no tuner trial completed")
    best = min(complete, key=lambda r: (-r.mean_score, r.total_calls, r.trial_id))
    return optimizers[best.trial_id]


class ModelFinder:
    """Convenience wrapper: hold data and config, then call find_model().
    n_cores must be >= 1 but parallelizes nothing: trials run serially in id order."""

    def __init__(
        self,
        task: TaskType | str,
        X: np.ndarray,
        y=None,
        *,
        registry: Registry | None = None,
        store: StudyStore | None = None,
        n_trials: int = 20,
        n_seeds: int = 3,
        n_epochs: int = 10,
        n_cores: int = 1,
        threshold: float = 0.8,
        base_seed: int = 0,
    ) -> None:
        self.config = FinderConfig(
            task=TaskType(task),
            n_trials=n_trials,
            n_seeds=n_seeds,
            n_epochs=n_epochs,
            n_cores=n_cores,
            threshold=threshold,
            base_seed=base_seed,
        )
        self.registry = registry if registry is not None else default_registry()
        self.store = store
        self._X = X
        self._y = y

    def find_model(self) -> ModelSpec:
        return find_model(self.config, self.registry, self._X, self._y, self.store)


class HyperparameterTuner:
    """Convenience wrapper around find_hyperparameters."""

    def __init__(
        self,
        X: np.ndarray,
        y,
        model_spec: ModelSpec,
        *,
        registry: Registry | None = None,
        store: StudyStore | None = None,
        n_trials: int = 20,
        n_seeds: int = 3,
        base_seed: int = 0,
    ) -> None:
        self._X = X
        self._y = y
        self.model_spec = model_spec
        self.registry = registry if registry is not None else default_registry()
        self.store = store
        self.n_trials = n_trials
        self.n_seeds = n_seeds
        self.base_seed = base_seed

    def find_hyperparameters(self) -> OptimizerConfig:
        return find_hyperparameters(
            self.model_spec,
            self._X,
            self._y,
            self.registry,
            n_trials=self.n_trials,
            n_seeds=self.n_seeds,
            store=self.store,
            base_seed=self.base_seed,
        )
