"""The trainable model families the finder chooses among.

Every family presents one protocol: class attributes `task`, `family` and
`score_kind`; the class-level `build(trial, X, config, registry, seed)`
draws the family's own options on a search trial and returns an untrained
model; `fit(X, y, ledger)` (which sets `train_score`), `predict`, and
`score`, with every simulated device call booked on the caller's ledger;
`spec_fields()` freezes a trained model into model-file fields and the
class-level `from_spec(spec, registry)` restores it. The QNN families and
the clusterer also have the optional class-level `prepare(models, X, y=None)`
hook, which trains a study's models ahead, the QNN fits in lockstep.
Label convention is fixed: class 0 maps to target +1 (the <Z> of |0>), so a
classifier predicts 1 exactly when its expectation drops to 0 or below.
"""

from __future__ import annotations

import sys
from copy import deepcopy
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from math import ceil, floor, isfinite, pi, prod, sqrt
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .records import _require_integer, _require_number
from .registry import CircuitSpec, Registry, TaskType, base_registry, suggest_circuit
from .rng import PortableRng, derive_seed
from .simulator import CallCounter, MergedRuns, expectation_z, run_circuit
from .training import BudgetLedger, OptimizerConfig, TrainResult, fit_steps

if TYPE_CHECKING:
    from .search import FinderConfig, Trial


class ScoreUndefinedError(RuntimeError):
    """Raised when a score has no defined value (degenerate clustering)."""


@dataclass(frozen=True)
class Score:
    value: float
    kind: str  # mean_accuracy | r2 | silhouette

    def __post_init__(self) -> None:
        if not isfinite(self.value):
            raise ValueError(f"{self.kind} score {self.value} is not finite")
        if self.kind == "mean_accuracy" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"mean accuracy {self.value} outside [0, 1]")
        if self.kind == "silhouette" and not -1.0 <= self.value <= 1.0:
            raise ValueError(f"silhouette {self.value} outside [-1, 1]")


def _accuracy(values: np.ndarray, targets: np.ndarray) -> float:
    # predicted label 1 iff f <= 0; true label 1 iff target == -1
    return float(np.mean((values <= 0) == (targets < 0)))


def _ss_tot(targets: np.ndarray) -> float:
    return float(np.sum((targets - targets.mean()) ** 2))


def _r_squared(values: np.ndarray, targets: np.ndarray, ss_tot: float | None = None) -> float:
    """R^2; `ss_tot` is the targets' total sum of squares, computed unless given."""
    ss_res = float(np.sum((targets - values) ** 2))
    return 1.0 - ss_res / (_ss_tot(targets) if ss_tot is None else ss_tot)


def _initial_weights(param_count: int, seed: int) -> np.ndarray:
    rng = PortableRng(derive_seed(seed, 0))
    return rng.uniforms(param_count, 0.0, pi)


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


def _rows(X) -> np.ndarray:
    """X as float rows (N, F): an empty X is no rows, any other non-2-D X an error."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        return X
    if X.size == 0:
        return X.reshape(0, 0)
    raise ValueError(f"X must be a 2-D array of rows, got shape {X.shape}")


def _require_range(low, high, name: str) -> None:
    """Refuse bounds whose range high - low overflows the float range. `low`
    and `high` are numbers, or arrays holding one bound per feature."""
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.subtract(high, low))
    if not finite.all():
        if finite.ndim:  # name the first feature whose range overflows
            j = int(np.argmin(finite))
            name, low, high = f"{name} {j}", low[j], high[j]
        raise ValueError(f"{name} range {float(low)!r} to {float(high)!r} "
                         "overflows the float range")


def _training_data(X, y, labels: bool) -> tuple[np.ndarray, np.ndarray]:
    """The supervised fits' input rule: X as float rows, at least 2 of them,
    and y as floats; with `labels`, y must be binary labels holding both
    classes, returned as targets class 0 -> +1, class 1 -> -1."""
    X = _rows(X)
    if len(X) < 2:
        raise ValueError("need at least 2 training samples")
    y = np.asarray(y)
    if not labels:
        return X, y.astype(float)
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise ValueError("labels must be binary {0, 1}")
    if len(classes) < 2:
        raise ValueError("training data must contain both classes")
    return X, 1.0 - 2.0 * y.astype(float)


class CircuitModel:
    """A variational circuit with weights drawn from the seed unless given.

    The circuit families serialize as the circuit's registry names, its flat
    weights, and the family's `spec_extras()`, which `_from_extras` restores.
    """

    task: TaskType
    family: str
    score_kind: str

    def __init__(self, circuit: CircuitSpec, seed: int, weights: Sequence[float] | None) -> None:
        self.circuit = circuit
        self.seed = seed
        self.weights = (
            np.asarray(weights, dtype=float)
            if weights is not None
            else _initial_weights(circuit.param_count, seed)
        )
        self.train_score: float | None = None

    def spec_fields(self) -> dict[str, Any]:
        """Model-file fields other than task, family, feature count and metadata."""
        embedding = self.circuit.embedding
        return {
            "n_wires": self.circuit.n_wires,
            "embedding": {"name": embedding.name, "fixed_options": dict(embedding.fixed_options)},
            "layers": self.circuit.layer_names(),
            "weights": _floats(self.weights),
            "extras": self.spec_extras(),
        }

    @classmethod
    def from_spec(cls, spec, registry: Registry) -> "CircuitModel":
        """Rebuild a ready-to-predict model from a ModelSpec written by `spec_fields`."""
        if spec.embedding is None:
            raise ValueError(f"{spec.model_family} model carries no circuit")
        circuit = CircuitSpec(
            spec.n_wires,
            registry.embedding(spec.embedding["name"]),
            tuple(registry.layer(name) for name in spec.layers),
        )
        weights = np.asarray(spec.weights, dtype=float)
        if weights.size != circuit.param_count:
            raise ValueError("weights length inconsistent with declared architecture")
        return cls._from_extras(circuit, weights, spec.extras)


class QNN(CircuitModel):
    """Variational model read out as <Z_0>, trained by parameter-shift gradient
    descent on the squared error against targets in [-1, 1].

    Subclasses map labels to targets in `_fit_data`, name their model-file
    extras in `extras_keys`: constructor keywords that are also attributes,
    name the one taking the study threshold in `threshold_key`, and give in
    `threshold_range` the thresholds their model file can store. A batch size
    must be an integer >= 1, an epoch count an integer >= 0 and the threshold
    a number; bools are neither. Each subclass defines its own `fit`, so
    profiles tell the families apart.
    """

    extras_keys: tuple[str, ...] = ()
    threshold_key: str
    threshold_range: tuple[float, float]

    def __init__(self, circuit: CircuitSpec, *, batch_size: int, n_epochs: int,
                 threshold: float, seed: int, weights: Sequence[float] | None) -> None:
        _require_integer("batch_size", batch_size, 1)
        _require_integer("n_epochs", n_epochs, 0)
        _require_number(self.threshold_key, threshold)
        super().__init__(circuit, seed, weights)
        self.batch_size = batch_size
        self.n_epochs = n_epochs
        setattr(self, self.threshold_key, threshold)
        self.epochs_run = 0
        # from `_lockstep`: the rows and targets it trained on, and its booked
        # calls and result, or the exception it raised, for the next fit on them
        self._prepared: tuple[np.ndarray, np.ndarray,
                              tuple[BudgetLedger, TrainResult] | Exception] | None = None

    @classmethod
    def build(cls, trial: "Trial", X: np.ndarray, config: "FinderConfig", registry: Registry,
              seed: int) -> "QNN":
        """Draws 1-3 layers, then a batch size of 15-25. The early-stop threshold
        is the study threshold clamped into `threshold_range`; the study
        threshold alone decides which trials are feasible."""
        circuit = suggest_circuit(trial, registry, X, (1, 3))
        low, high = cls.threshold_range
        return cls(circuit, batch_size=trial.suggest_int("batch_size", 15, 25),
                   n_epochs=config.n_epochs, seed=seed,
                   **{cls.threshold_key: min(max(config.threshold, low), high)})

    def expectations(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        return expectation_z(run_circuit(self.circuit, self.weights, _rows(X), counter), 0)

    def _options(self, optimizer: OptimizerConfig | None) -> dict[str, Any]:
        """The keywords of `fit_steps` that this model sets."""
        return {"weights": self.weights, "opt_config": optimizer or OptimizerConfig(),
                "batch_size": self.batch_size, "n_epochs": self.n_epochs,
                "threshold": getattr(self, self.threshold_key), "seed": self.seed}

    def _train(self, X: np.ndarray, y: np.ndarray, ledger: BudgetLedger,
               optimizer: OptimizerConfig | None) -> "QNN":
        X, targets, score_fn, fitted = self._fit_data(X, y)
        for name, value in fitted.items():
            setattr(self, name, value)
        prepared, self._prepared = self._prepared, None
        if (prepared is None or optimizer is not None or not _same_bits(X, prepared[0])
                or not _same_bits(targets, prepared[1])):
            self._lockstep([self], X, targets, score_fn, optimizer)
            prepared, self._prepared = self._prepared, None
        if isinstance(prepared[2], Exception):
            raise prepared[2]
        booked, result = prepared[2]
        ledger.merge(booked)
        self.weights = result.weights
        self.epochs_run = result.epochs_run
        self.train_score = result.final_score
        return self

    def _fit_key(self, n: int, optimizer: OptimizerConfig | None) -> tuple:
        """What `fit_steps` reads of this model's fit on n rows with `optimizer`:
        equal keys train alike. A batch size of at least n is one batch of the
        whole shuffled order, so it reads as n; options are keyed with their
        types, so a value `fit_steps` refuses never equals one it takes."""
        options = self._options(optimizer)
        w = options.pop("weights")
        if type(options["batch_size"]) is int and options["batch_size"] > n:
            options["batch_size"] = n
        return (self.circuit, w.dtype, w.shape, w.tobytes(),
                *((type(value), value) for value in options.values()))

    @staticmethod
    def _lockstep(models: Sequence["QNN"], X: np.ndarray, targets: np.ndarray,
                  score_fn: Callable, optimizer: OptimizerConfig | None = None) -> None:
        """Train `models` on the rows X and `targets` in lockstep: each distinct
        fit (`_fit_key`) is a step generator (`training.fit_steps`), and each
        lockstep step answers every unfinished fit's next request in one
        `MergedRuns` call, so X is embedded once per embedding and wire count.
        Each model's `_prepared` becomes X, targets and its booked calls and
        result, or the exception its training raised (a refused layer, a row its
        embedding refuses), which leaves the other fits untouched. Models of one
        key share their lead's outcome: its booked calls and error, and a copy
        of its weights each."""
        runs, fits = MergedRuns(X, 0), []
        for group in _groups(models, lambda model: model._fit_key(len(X), optimizer)):
            ledger = BudgetLedger()
            fits.append((group, ledger, fit_steps(n=len(X), targets=targets, score_fn=score_fn,
                                                  ledger=ledger,
                                                  **group[0]._options(optimizer))))
        answers: list = [None] * len(fits)
        while fits:  # one request per unfinished fit per step; a finished fit is let go
            asked, requests = [], []
            for (group, ledger, steps), answer in zip(fits, answers):
                try:  # a failed simulation raises where the fit's own run would have
                    request = (steps.throw(answer) if isinstance(answer, Exception)
                               else steps.send(answer))
                except StopIteration as stop:
                    result = stop.value
                    for k, model in enumerate(group):
                        model._prepared = X, targets, (ledger, result if not k else TrainResult(
                            result.weights.copy(), result.epochs_run, result.final_score))
                except Exception as exc:
                    for model in group:
                        model._prepared = X, targets, exc
                else:
                    asked.append((group, ledger, steps))
                    requests.append((group[0].circuit, *request))
            # the last answers go before the next run: each fit keeps what it needs
            fits, answers = asked, None
            if fits:
                answers = _answers(runs, requests)

    @classmethod
    def prepare(cls, models: Sequence["QNN"], X: np.ndarray, y=None) -> None:
        """Train `models` on X and y ahead of their fits, all in one lockstep
        (`_lockstep`), which trains each distinct fit once. A model's next
        `fit`, on the same rows and targets and without an optimizer, books
        the calls its training booked here and takes its result, or raises
        what its training raised here; any other fit trains in a lockstep of
        its own, which gives the same bits. On data no fit accepts nothing
        trains: each fit raises on it."""
        try:
            X, targets, score_fn, _ = cls._fit_data(X, y)
        except ValueError:
            return
        # X copied: what a replayed fit must match, whatever becomes of the caller's X
        cls._lockstep(models, X.copy(), targets, score_fn)

    def spec_extras(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in self.extras_keys}

    @classmethod
    def _from_extras(cls, circuit: CircuitSpec, weights: np.ndarray, extras: Mapping) -> "QNN":
        return cls(circuit, weights=weights, **{key: extras[key] for key in cls.extras_keys})

    def reseeded(self, seed: int) -> "QNN":
        """An untrained copy with the same circuit and options, initialised from `seed`."""
        return type(self)(self.circuit, seed=seed, **self.spec_extras())


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _answers(runs: MergedRuns, requests: list) -> list:
    """`runs(requests)`; if that raises, each request runs alone, and one that
    raises again is answered with its exception."""
    try:
        return runs(requests)
    except Exception as exc:
        if len(requests) == 1:
            return [exc]
    return [_answers(runs, [request])[0] for request in requests]


class QNNClassifier(QNN):
    """Variational binary classifier read out as p(1) = (1 - <Z_0>)/2."""

    task = TaskType.CLASSIFICATION
    family = "QNN"
    score_kind = "mean_accuracy"
    extras_keys = ("batch_size", "n_epochs", "accuracy_threshold")
    threshold_key = "accuracy_threshold"
    threshold_range = (0.0, 1.0)

    def __init__(self, circuit: CircuitSpec, *, batch_size: int, n_epochs: int,
                 accuracy_threshold: float, seed: int = 0,
                 weights: Sequence[float] | None = None) -> None:
        super().__init__(circuit, batch_size=batch_size, n_epochs=n_epochs,
                         threshold=accuracy_threshold, seed=seed, weights=weights)
        if not 0.0 <= accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in [0, 1]")

    @staticmethod
    def _fit_data(X, y) -> tuple[np.ndarray, np.ndarray, Callable, dict[str, Any]]:
        """A fit's rows, targets, score function and fitted attributes (none)."""
        X, targets = _training_data(X, y, labels=True)
        return X, targets, _accuracy, {}

    def predict(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        return (self.expectations(X, counter) <= 0).astype(int)

    def fit(self, X: np.ndarray, y: np.ndarray, ledger: BudgetLedger,
            optimizer: OptimizerConfig | None = None) -> "QNNClassifier":
        return self._train(X, y, ledger, optimizer)

    def score(self, X: np.ndarray, y: np.ndarray, counter: CallCounter) -> float:
        return float(np.mean(self.predict(X, counter) == np.asarray(y)))


def _rescale(y: np.ndarray, target_min: float, target_max: float) -> np.ndarray:
    """y mapped affinely from [target_min, target_max] onto [-1, 1]: 2(y - min) /
    span - 1, without doubling a span above half the float range."""
    return (y - target_min) / ((target_max - target_min) / 2.0) - 1.0


class QNNRegressor(QNN):
    """Variational regressor: targets are affinely mapped onto [-1, 1] and the
    circuit expectation is trained against them; predictions invert the map."""

    task = TaskType.REGRESSION
    family = "QNN_REGRESSOR"
    score_kind = "r2"
    extras_keys = ("batch_size", "n_epochs", "r2_threshold", "target_min", "target_max")
    threshold_key = "r2_threshold"
    threshold_range = (-sys.float_info.max, 1.0)

    def __init__(self, circuit: CircuitSpec, *, batch_size: int, n_epochs: int,
                 r2_threshold: float, seed: int = 0, weights: Sequence[float] | None = None,
                 target_min: float | None = None, target_max: float | None = None) -> None:
        for name, bound in (("target_min", target_min), ("target_max", target_max)):
            if bound is not None:
                _require_number(name, bound, "null or a finite number", isfinite)
        if target_min is not None and target_max is not None:
            _require_range(target_min, target_max, "target")
        super().__init__(circuit, batch_size=batch_size, n_epochs=n_epochs,
                         threshold=r2_threshold, seed=seed, weights=weights)
        self.target_min = target_min
        self.target_max = target_max

    @staticmethod
    def _fit_data(X, y) -> tuple[np.ndarray, np.ndarray, Callable, dict[str, Any]]:
        """A fit's rows, targets, score function and fitted attributes (the
        target range)."""
        X, y = _training_data(X, y, labels=False)
        fitted = {"target_min": float(y.min()), "target_max": float(y.max())}
        if fitted["target_min"] == fitted["target_max"]:
            raise ValueError("constant targets: rescaling to [-1, 1] is undefined")
        _require_range(fitted["target_min"], fitted["target_max"], "target")
        targets = _rescale(y, **fitted)
        return X, targets, partial(_r_squared, ss_tot=_ss_tot(targets)), fitted  # one total per fit

    def _inverse(self, values: np.ndarray) -> np.ndarray:
        return (values + 1.0) / 2.0 * (self.target_max - self.target_min) + self.target_min

    def predict(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        if self.target_min is None or self.target_max is None:
            raise ValueError("regressor must be fit (or restored) before predicting")
        return self._inverse(self.expectations(X, counter))

    def fit(self, X: np.ndarray, y: np.ndarray, ledger: BudgetLedger,
            optimizer: OptimizerConfig | None = None) -> "QNNRegressor":
        return self._train(X, y, ledger, optimizer)

    def score(self, X: np.ndarray, y: np.ndarray, counter: CallCounter) -> float:
        y = np.asarray(y, dtype=float)
        if float(y.min()) == float(y.max()):
            raise ValueError("R^2 is undefined for constant targets")
        return _r_squared(self.predict(X, counter), y)


def kernel_matrix(circuit: CircuitSpec, weights: Sequence[float], X1: np.ndarray,
                  X2: np.ndarray, counter: CallCounter) -> np.ndarray:
    """Fidelity kernel K[i][j] = |<phi(x1_i)|phi(x2_j)>|^2.

    Each row is simulated once, all rows in one run, and K is |S1* S2^T|^2 over
    the stacked row states S, held at once: rows * 2**n_wires amplitudes of 16 B
    each (N + M rows for a cross kernel). The booking is 2 calls per pair:
    N*(N-1) for a training kernel (X1 and X2 hold the same rows; strict upper
    triangle, mirrored, over a unit diagonal) and 2*N*M for a cross kernel. The
    simulation itself is not booked.
    """
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X1.shape == X2.shape and np.array_equal(X1, X2):
        n = len(X1)
        S = run_circuit(circuit, weights, X1, CallCounter()).amplitudes
        upper = np.triu(np.abs(S.conj() @ S.T) ** 2, 1)
        counter.increment(n * (n - 1))
        return upper + upper.T + np.eye(n)
    # an empty side may be (0, 0), which does not stack onto rows of features
    rows = np.concatenate([X1, X2]) if len(X1) and len(X2) else (X1 if len(X1) else X2)
    S = run_circuit(circuit, weights, rows, CallCounter()).amplitudes
    K = np.abs(S[: len(X1)].conj() @ S[len(X1) :].T) ** 2
    counter.increment(2 * len(X1) * len(X2))
    return K


class QEKClassifier(CircuitModel):
    """Kernel ridge classifier over the fidelity kernel of a fixed feature map.

    The feature-map weights are drawn once from the seed and frozen; only the
    ridge system (K + lambda*I) alpha = t is solved during fit, with targets
    t = 1 - 2y. Prediction is 1 exactly when sum_i alpha_i k(x_i, x) < 0.
    """

    task = TaskType.CLASSIFICATION
    family = "QEK"
    score_kind = "mean_accuracy"

    def __init__(
        self,
        circuit: CircuitSpec,
        *,
        ridge_lambda: float = 1e-3,
        seed: int = 0,
        weights: Sequence[float] | None = None,
    ) -> None:
        _require_number("ridge_lambda", ridge_lambda, "a finite number > 0",
                        lambda value: isfinite(value) and value > 0)
        super().__init__(circuit, seed, weights)
        self.ridge_lambda = ridge_lambda
        self.support_data: np.ndarray | None = None
        self.dual_coeffs: np.ndarray | None = None

    @classmethod
    def build(cls, trial: "Trial", X: np.ndarray, config: "FinderConfig", registry: Registry,
              seed: int) -> "QEKClassifier":
        """Draws 3-5 layers for the feature map."""
        return cls(suggest_circuit(trial, registry, X, (3, 5)), seed=seed)

    def fit(self, X: np.ndarray, y: np.ndarray, ledger: BudgetLedger) -> "QEKClassifier":
        X, targets = _training_data(X, y, labels=True)
        K = kernel_matrix(self.circuit, self.weights, X, X, ledger.kernel)
        self.dual_coeffs = np.linalg.solve(K + self.ridge_lambda * np.eye(len(X)), targets)
        self.support_data = X
        # training accuracy from the kernel just built: no extra calls
        self.train_score = float(np.mean((self.dual_coeffs @ K < 0) == (targets < 0)))
        return self

    def decision_values(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        """sum_i alpha_i k(x_i, x) per row of X, through `kernel_matrix`: rows
        equal to the support rows book N*(N-1) calls, others 2*N*M."""
        if self.dual_coeffs is None:
            raise ValueError("classifier must be fit before predicting")
        return self.dual_coeffs @ kernel_matrix(self.circuit, self.weights, self.support_data,
                                                _rows(X), counter)

    def predict(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        return (self.decision_values(X, counter) < 0).astype(int)

    def score(self, X: np.ndarray, y: np.ndarray, counter: CallCounter) -> float:
        return float(np.mean(self.predict(X, counter) == np.asarray(y)))

    def spec_extras(self) -> dict[str, Any]:
        return {
            "ridge_lambda": self.ridge_lambda,
            "dual_coeffs": _floats(self.dual_coeffs),
            "support_data": [_floats(row) for row in self.support_data],
        }

    @classmethod
    def _from_extras(
        cls, circuit: CircuitSpec, weights: np.ndarray, extras: Mapping
    ) -> "QEKClassifier":
        model = cls(circuit, ridge_lambda=extras["ridge_lambda"], weights=weights)
        support = np.asarray(extras["support_data"], dtype=float)
        coeffs = np.asarray(extras["dual_coeffs"], dtype=float)
        widest = circuit.embedding.max_features(circuit.n_wires)
        if support.ndim != 2 or support.shape[1] > widest:
            raise ValueError(f"support_data must be rows of at most {widest} features, "
                             f"got shape {support.shape}")
        if coeffs.shape != support.shape[:1]:
            raise ValueError(f"dual_coeffs has shape {coeffs.shape}, expected one per "
                             f"support row ({len(support)})")
        model.support_data, model.dual_coeffs = support, coeffs
        return model


def _sigmoid(z: np.ndarray, out=None, pair: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of z into `out` when given (`out` may be z), as
    exp(min(z, 0)) / (1 + exp(-|z|)), where neither exp overflows; both exps
    are one call over `pair`, a (2, *z.shape) scratch buffer (allocated when
    not given) that may hold z as its first half."""
    pair = np.empty((2, *np.shape(z))) if pair is None else pair
    low, high = pair[0, ...], pair[1, ...]  # views, even where z is 0-d
    np.copysign(z, -1.0, out=high)  # -|z|, bit for bit
    np.minimum(z, 0.0, out=low)
    np.exp(pair, out=pair)
    high += 1.0
    return np.divide(low, high, out=out)


class BinaryEncoder:
    """Stack of affine+sigmoid maps trained as an autoencoder (mirrored,
    untied decoder) under squared reconstruction error, full-batch descent."""

    def __init__(self, input_size: int, n_layers: int, latent_size: int, seed: int) -> None:
        if n_layers < 1:
            raise ValueError("encoder needs at least one layer")
        widths = [
            round(input_size + (latent_size - input_size) * i / n_layers)
            for i in range(n_layers + 1)
        ]
        rng = PortableRng(derive_seed(seed, 0))
        self.widths = widths
        self.enc_weights, self.enc_biases = self._init_stack(widths, rng)
        self.dec_weights, self.dec_biases = self._init_stack(widths[::-1], rng)

    @staticmethod
    def _init_stack(widths: list[int], rng: PortableRng):
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniforms(fan_out * fan_in, -scale, scale).reshape(fan_out, fan_in))
            biases.append(np.zeros(fan_out))
        return weights, biases

    @staticmethod
    def _forward(X, weights, biases):
        for W, b in zip(weights, biases):
            X = _sigmoid(X @ W.T + b)
        return X

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X, self.enc_weights, self.enc_biases)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        return self._forward(self.encode(X), self.dec_weights, self.dec_biases)

    def reconstruction_error(self, X: np.ndarray) -> float:
        return float(np.mean((X - self.reconstruct(X)) ** 2))

    def train(
        self,
        X: np.ndarray,
        n_epochs: int,
        learning_rate: float = 0.5,
        alongside: Sequence["BinaryEncoder"] = (),
    ) -> None:
        """Full-batch descent on the squared reconstruction error of X, for this
        encoder and every encoder in `alongside` at once, each bit for bit as if
        trained alone.

        The encoders train as stacks (`_train_stack`): each layer step holds
        its encoders in one (k, rows, width) array, so each matmul and
        elementwise operation is one numpy call for all k of them. A padded
        stack zero-pads every layer to one width, its widest unit. Padding is
        exact only while every product is a matrix product. numpy sends a
        product with a vector (a width-1 layer, or X with one row) to BLAS
        gemv, and padding would turn it into gemm, which rounds differently;
        numpy also sums a width-1 column pairwise, wider ones row by row. Such
        an encoder stacks only with encoders of identical widths, unpadded.
        """
        X = np.asarray(X, dtype=float)
        stacks: dict[tuple | None, list[BinaryEncoder]] = {}
        for encoder in (self, *alongside):
            exact = len(X) < 2 or min(encoder.widths) < 2
            stacks.setdefault(tuple(encoder.widths) if exact else None, []).append(encoder)
        for key, encoders in stacks.items():
            _train_stack(encoders, X, n_epochs, learning_rate, padded=key is None)


def _carve(flat: np.ndarray, shapes: Sequence[tuple]) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per shape."""
    ends = np.cumsum([0, *map(prod, shapes)]).tolist()
    return [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


def _split(flat: np.ndarray, steps: Sequence[tuple]) -> tuple[list, list]:
    """Consecutive views of `flat`: each (k, out, in) of `steps`, then each (k, out)."""
    views = _carve(flat, [*steps, *((k, w_out) for k, w_out, _ in steps)])
    return views[:len(steps)], views[len(steps):]


def _train_stack(encoders: Sequence[BinaryEncoder], X: np.ndarray, n_epochs: int,
                 learning_rate: float, padded: bool) -> None:
    """Train `encoders` on X as one stack, deepest first and right-aligned:
    step s holds the first k_s encoders, reads the (k_s, rows, width)
    activations of boundary s (whose tail holds X for encoders starting
    there) and writes the head of boundary s+1's. A padded stack is its widest
    unit wide everywhere, X and target zero-padded. Padding has zero weights
    and biases and a zero learning rate, so they stay zero and every padded
    term of a real sum is an exact zero (a -inf bias, for zero activations,
    would send exp down its slow path). Activations, deltas, weights then
    biases, and gradients are consecutive views, in step order: each run of
    steps of one shape (a padded stack is one) repeats its biases over the
    rows in one gather, into bias planes that make each bias add contiguous,
    and takes its gradients in one matmul and one row sum, as numpy would per
    step. A run wider than 1 sums its rows by einsum, in row order as
    `np.add.reduce` does but without its per-row inner loop; numpy sums a
    width-1 column pairwise, so such a run keeps the reduce."""
    layers = sorted(([*zip(e.enc_weights + e.dec_weights, e.enc_biases + e.dec_biases)]
                     for e in encoders), key=len, reverse=True)
    depth, n, features = len(layers[0]), len(X), X.shape[1]
    counts = [sum(len(own) >= depth - j for own in layers) for j in range(depth + 1)]
    widths = ([max(max(e.widths) for e in encoders)] * (depth + 1) if padded
              else [W.shape[1] for W, _ in layers[0]] + [features])
    shapes = [(k, n, width) for k, width in zip(counts, widths)]
    all_acts = np.zeros(sum(map(prod, shapes)))
    all_complements = np.empty_like(all_acts)
    acts, complements = _carve(all_acts, shapes), _carve(all_complements, shapes)
    for j, start in enumerate([0, *counts[:depth - 1]]):
        if counts[j] > start:  # encoders start at step j
            acts[j][start:, :, :features] = X
    steps = [*zip(counts, widths[1:], widths)]  # (k, out width, in width) per step
    runs = [(sum(k for k, *_ in run), *shape)  # the same per run of one step shape
            for shape, run in groupby(steps, key=lambda step: step[1:])]
    params = np.zeros(sum(k * w_out * (w_in + 1) for k, w_out, w_in in steps))
    grads = np.empty_like(params)
    weights, biases = _split(params, steps)
    all_deltas = np.empty(sum(k * n * w_out for k, w_out, _ in steps))
    deltas = _carve(all_deltas, [(k, n, w_out) for k, w_out, _ in steps])
    rates = np.zeros_like(params)  # the learning rate of each real parameter, 0 for padding
    trained = []
    for s, (step_weights, step_biases, step_rates, bias_rates) in enumerate(
            zip(weights, biases, *_split(rates, steps))):
        for i, own in enumerate(layers[:counts[s]]):
            W, b = own[s - depth + len(own)]
            rows, cols = W.shape
            step_weights[i, :rows, :cols], step_biases[i, :rows] = W, b
            step_rates[i, :rows, :cols] = bias_rates[i, :rows] = learning_rate
            trained += [(W, step_weights[i, :rows, :cols]), (b, step_biases[i, :rows])]
    pairs = np.empty(2 * max(k * n * w_out for k, w_out, _ in steps))
    # the bias planes borrow the complements' buffer: they need all_deltas.size
    # of its elements, and no complement is read between the fills below and
    # the np.subtract(1.0, all_acts, ...) that rewrites every one of them
    all_planes = all_complements[:all_deltas.size]
    planes = _carve(all_planes, [(k, n, w_out) for k, w_out, _ in steps])
    forward = [(acts[s], weights[s].transpose(0, 2, 1), planes[s], acts[s + 1][:k],
                pairs[:2 * k * n * w_out].reshape(2, k, n, w_out))
               for s, (k, w_out, _) in enumerate(steps)]
    fills = [*zip(_split(params, runs)[1], [np.repeat(np.arange(k), n) for k, *_ in runs],
                  _carve(all_planes, [(k * n, w_out) for k, w_out, _ in runs]))]
    backward = [(deltas[s][:k], weights[s][:k], deltas[s - 1], acts[s][:k], complements[s][:k])
                for s, k in reversed([*enumerate(counts[:depth - 1], 1)])]
    run_deltas = _carve(all_deltas, [(k, n, w_out) for k, w_out, _ in runs])
    gradients = [*zip([delta.transpose(0, 2, 1) for delta in run_deltas],
                      _carve(all_acts, [(k, n, w_in) for k, _, w_in in runs]),
                      *_split(grads, runs), run_deltas,
                      [partial(np.einsum, "knw->kw") if w_out > 1 else
                       partial(np.add.reduce, axis=1) for _, w_out, _ in runs])]
    out, last, target = acts[-1], deltas[-1], acts[0][0]  # X, zero-padded
    for _ in range(n_epochs):
        for run_biases, repeat, plane in fills:  # in range: "clip" only skips a buffer
            run_biases.take(repeat, axis=0, out=plane, mode="clip")
        for inputs, weights_t, plane, step_out, pair in forward:
            np.matmul(inputs, weights_t, out=step_out)
            step_out += plane
            _sigmoid(step_out, step_out, pair)
        np.subtract(1.0, all_acts, out=all_complements)
        np.subtract(out, target, out=last)
        last *= 2.0
        last /= n
        last *= out
        last *= complements[-1]
        for delta, step_weights, prev, step_acts, step_complements in backward:
            np.matmul(delta, step_weights, out=prev)
            prev *= step_acts
            prev *= step_complements
        for delta_t, inputs, weight_grads, bias_grads, delta, row_sum in gradients:
            np.matmul(delta_t, inputs, out=weight_grads)
            row_sum(delta, out=bias_grads)
        grads *= rates
        params -= grads
    for own, padded_view in trained:
        own[...] = padded_view


class RBM:
    """Bernoulli restricted Boltzmann machine trained by one-step contrastive
    divergence; sampling uses the portable generator for determinism.

    `stacked` holds several machines along a leading axis of every array, so
    one `cd1_epoch` trains them all, each bit for bit as if alone; `unstack`
    writes them back."""

    # O(1) init spreads hidden activations enough for firing thresholds to bite
    init_scale = 1.0

    def __init__(self, n_visible: int, n_hidden: int, seed: int) -> None:
        if n_visible < 1 or n_hidden < 1:
            raise ValueError("RBM needs at least one visible and one hidden unit")
        rng = PortableRng(derive_seed(seed, 1))
        self.weights = rng.uniforms(
            n_visible * n_hidden, -self.init_scale, self.init_scale
        ).reshape(n_visible, n_hidden)
        self.visible_bias = np.zeros(n_visible)
        self.hidden_bias = np.zeros(n_hidden)
        self._sample_rng = PortableRng(derive_seed(seed, 2))

    @classmethod
    def stacked(cls, rbms: Sequence["RBM"]) -> "RBM":
        """One machine holding `rbms` along a leading axis: weights (k, visible,
        hidden), biases (k, 1, width) to broadcast over rows. The machines must
        share their sample stream's state: the stack draws each Bernoulli
        step's uniforms once, for all of them."""
        stack = cls.__new__(cls)
        stack.weights = np.stack([rbm.weights for rbm in rbms])
        stack.visible_bias = np.stack([rbm.visible_bias for rbm in rbms])[:, None]
        stack.hidden_bias = np.stack([rbm.hidden_bias for rbm in rbms])[:, None]
        stack._sample_rng = deepcopy(rbms[0]._sample_rng)
        if any(rbm._sample_rng._state != stack._sample_rng._state for rbm in rbms):
            raise ValueError("stacked RBMs must share their sample stream's state")
        return stack

    def unstack(self, rbms: Sequence["RBM"]) -> None:
        """Write this stack's machines back into `rbms`, sample stream included."""
        for rbm, weights, visible_bias, hidden_bias in zip(
                rbms, self.weights, self.visible_bias[:, 0], self.hidden_bias[:, 0]):
            rbm.weights, rbm.visible_bias, rbm.hidden_bias = (
                weights.copy(), visible_bias.copy(), hidden_bias.copy())
            rbm._sample_rng = deepcopy(self._sample_rng)

    def hidden_probabilities(self, visible: np.ndarray) -> np.ndarray:
        return _sigmoid(visible @ self.weights + self.hidden_bias)

    def visible_probabilities(self, hidden: np.ndarray) -> np.ndarray:
        return _sigmoid(hidden @ self.weights.swapaxes(-1, -2) + self.visible_bias)

    def _bernoulli(self, probs: np.ndarray) -> np.ndarray:
        """Samples of `probs`; a stack's machines share one (rows, width) draw."""
        shape = probs.shape[-2:]
        draws = self._sample_rng.uniforms(prod(shape)).reshape(shape)
        return (draws < probs).astype(float)

    def cd1_epoch(self, V: np.ndarray, learning_rate: float = 0.1) -> None:
        """One CD-1 step on the rows of V: (rows, visible), or (k, rows, visible)
        for a stack of k machines."""
        p_h = self.hidden_probabilities(V)
        h_sample = self._bernoulli(p_h)
        v_model = self._bernoulli(self.visible_probabilities(h_sample))
        p_h_model = self.hidden_probabilities(v_model)
        n = V.shape[-2]
        self.weights += learning_rate * (V.swapaxes(-1, -2) @ p_h
                                         - v_model.swapaxes(-1, -2) @ p_h_model) / n
        for bias, diff in ((self.visible_bias, V - v_model), (self.hidden_bias, p_h - p_h_model)):
            bias += (learning_rate * diff.mean(axis=-2)).reshape(bias.shape)

    def reconstruction_error(self, V: np.ndarray) -> float:
        recon = self.visible_probabilities(self.hidden_probabilities(V))
        return float(np.mean((V - recon) ** 2))


class RBMClusterer:
    """Binary encoder feeding an RBM; a sample's cluster id is the integer
    encoding of which hidden units fire (unit j contributes 2**j).

    Entirely classical: fitting and assignment touch no device-call counter.
    Training is a pure function of the data and the seed, plus the widths and
    the encoder budget for the encoder, and the encoder, n_hidden and n_epochs
    for the RBM; the firing threshold only reads the trained RBM. So `fit`
    trains nothing when the model was already trained on the same data, and
    `prepare` trains many models ahead, each distinct encoder and RBM once,
    which a study does before its first trial.
    """

    task = TaskType.CLUSTERING
    family = "RBM"
    score_kind = "silhouette"
    # The encoder phase has its own fixed budget: full-batch sigmoid autoencoders
    # need a long warmup to leave the symmetric plateau, and only the CD-1 phase
    # is bound to the sampled epoch count.
    encoder_epochs = 800
    encoder_learning_rate = 5.0
    rbm_learning_rate = 1.0
    # model-file extras that are constructor keywords and attributes
    extras_keys = ("input_size", "encoder_layers", "latent_size", "n_hidden",
                   "firing_threshold", "n_epochs")

    def __init__(
        self,
        *,
        input_size: int,
        encoder_layers: int,
        latent_size: int,
        n_hidden: int,
        firing_threshold: float,
        n_epochs: int,
        seed: int = 0,
    ) -> None:
        for name, value, minimum in (("input_size", input_size, 2),
                                     ("encoder_layers", encoder_layers, 1),
                                     ("latent_size", latent_size, 1), ("n_hidden", n_hidden, 1),
                                     ("n_epochs", n_epochs, 0)):
            _require_integer(name, value, minimum)
        _require_number("firing_threshold", firing_threshold, "a number in (0, 1)",
                        lambda value: 0.0 < value < 1.0)
        self.input_size = input_size
        self.encoder_layers = encoder_layers
        self.latent_size = latent_size
        self.n_hidden = n_hidden
        self.firing_threshold = firing_threshold
        self.n_epochs = n_epochs
        self.seed = seed
        self.encoder = BinaryEncoder(input_size, encoder_layers, latent_size, seed)
        self._trained_on: np.ndarray | None = None  # the data encoder and RBM were trained on
        self.rbm = RBM(latent_size, n_hidden, seed)
        # per-feature affine scaling fitted on the training data
        self.feature_min: np.ndarray | None = None
        self.feature_max: np.ndarray | None = None
        self._fitted = False

    @classmethod
    def build(cls, trial: "Trial", X: np.ndarray, config: "FinderConfig", registry: Registry,
              seed: int) -> "RBMClusterer":
        """Draws the options `suggest_unsupervised_kwargs` names."""
        kwargs = suggest_unsupervised_kwargs(trial, X, registry, config)
        return cls(input_size=kwargs["input_size"], encoder_layers=kwargs["lbae_n_layers"],
                   latent_size=kwargs["lbae_out_channels"],
                   n_hidden=kwargs["rbm_n_hidden_neurons"],
                   firing_threshold=kwargs["firing_threshold"], n_epochs=kwargs["n_epochs"],
                   seed=seed)

    def _scale(self, X: np.ndarray) -> np.ndarray:
        span = np.where(self.feature_max > self.feature_min, self.feature_max - self.feature_min, 1.0)
        return (X - self.feature_min) / span

    def _latent_bits(self, X: np.ndarray) -> np.ndarray:
        return (self.encoder.encode(self._scale(X)) >= 0.5).astype(float)

    def fit(self, X: np.ndarray, y=None, ledger: BudgetLedger | None = None) -> "RBMClusterer":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_size:
            raise ValueError(f"expected 2D data with {self.input_size} features")
        if self._trained_on is None or not np.array_equal(X, self._trained_on):
            if self._trained_on is not None:  # trained on other data: start afresh
                self.encoder = BinaryEncoder(
                    self.input_size, self.encoder_layers, self.latent_size, self.seed
                )
                self.rbm = RBM(self.latent_size, self.n_hidden, self.seed)
            type(self).prepare([self], X)
        self._fit_scaling(X)
        self._fitted = True
        return self

    @property
    def train_score(self) -> float | None:
        """Silhouette of the fitted data, None before `fit`; computed on read, so
        a degenerate clustering raises ScoreUndefinedError here, not in `fit`."""
        return self.score(self._trained_on) if self._fitted else None

    @staticmethod
    def _train_rbms(models: Sequence["RBMClusterer"], X: np.ndarray) -> None:
        """CD-1 on each model's latent bits of X, under the scaling fitted to X,
        all in one stacked RBM. The models share one class, the RBM shape, the
        epoch count and the sample stream's state."""
        for model in models:
            model._fit_scaling(X)
        stack = RBM.stacked([model.rbm for model in models])
        latents = np.stack([model._latent_bits(X) for model in models])
        for _ in range(models[0].n_epochs):
            stack.cd1_epoch(latents, models[0].rbm_learning_rate)
        stack.unstack([model.rbm for model in models])

    def _fit_scaling(self, X: np.ndarray) -> np.ndarray:
        """Fit the feature scaling to X; return the scaled data."""
        self._set_scaling(X.min(axis=0), X.max(axis=0))
        return self._scale(X)

    def _set_scaling(self, feature_min: np.ndarray, feature_max: np.ndarray) -> None:
        _require_range(feature_min, feature_max, "feature")
        self.feature_min, self.feature_max = feature_min, feature_max

    @staticmethod
    def prepare(models: Sequence["RBMClusterer"], X: np.ndarray, y=None) -> None:
        """Train `models` on X in place; a model's `fit` trains through here too,
        so a later `fit` on X trains nothing. Each distinct encoder, keyed by
        (widths, seed), trains once, all of them in one lockstep; each distinct
        RBM, keyed by (widths, seed, n_hidden, n_epochs), trains once on its
        encoder's latent bits, in stacks of one (latent_size, n_hidden, seed,
        n_epochs): the RBMs here are fresh, so their sample streams follow the seed.
        Models sharing a key get copies. The models share one class, hence one
        encoder budget and one RBM learning rate."""
        X = np.asarray(X, dtype=float)
        if not models or X.size == 0:  # no data: each fit fails on it and records that
            return
        try:
            _require_range(X.min(axis=0), X.max(axis=0), "feature")
        except ValueError:  # unscalable data: each fit fails on it and records that
            return
        encoders = _groups(models, lambda m: (tuple(m.encoder.widths), m.seed))
        first, *others = [lead for lead, *_ in encoders]
        first.encoder.train(first._fit_scaling(X), first.encoder_epochs,
                            first.encoder_learning_rate,
                            alongside=[model.encoder for model in others])
        for lead, *copies in encoders:
            for model in copies:
                model.encoder = deepcopy(lead.encoder)
        rbms = _groups(models, lambda m: (tuple(m.encoder.widths), m.seed, m.n_hidden,
                                          m.n_epochs))
        for stack in _groups([lead for lead, *_ in rbms],
                             lambda m: (m.latent_size, m.n_hidden, m.seed, m.n_epochs)):
            first._train_rbms(stack, X)
        for lead, *copies in rbms:
            for model in copies:
                model.rbm = deepcopy(lead.rbm)
        data = X.copy()
        for model in models:
            model._trained_on = data

    def cluster_assign(self, x: Sequence[float]) -> int:
        return int(self.predict(np.atleast_2d(x))[0])

    def predict(self, X: np.ndarray, counter: CallCounter | None = None) -> np.ndarray:
        X = _rows(X)
        if len(X) == 0:
            return np.zeros(0, dtype=np.int64)
        try:
            with np.errstate(over="raise", invalid="raise"):
                bits = self._latent_bits(X)
        except FloatingPointError as exc:  # a row far outside the fitted feature range
            raise ValueError(f"a row's scaled features overflow the encoder ({exc})") from exc
        probs = self.rbm.hidden_probabilities(bits)
        # ids of 64 or more hidden units outgrow int64, so they stay Python ints
        units = np.arange(self.n_hidden, dtype=np.int64 if self.n_hidden < 64 else object)
        return (probs >= self.firing_threshold) @ (1 << units)

    def score(self, X: np.ndarray, y=None, counter: CallCounter | None = None) -> float:
        return silhouette_score(np.asarray(X, dtype=float), self.predict(X))

    def spec_fields(self) -> dict[str, Any]:
        """Model-file fields: no circuit; encoder and RBM parameters packed flat."""
        packed: list[float] = []
        for W, b in zip(self.encoder.enc_weights, self.encoder.enc_biases):
            packed.extend(_floats(W))
            packed.extend(_floats(b))
        packed.extend(_floats(self.rbm.weights))
        packed.extend(_floats(self.rbm.visible_bias))
        packed.extend(_floats(self.rbm.hidden_bias))
        extras = {key: getattr(self, key) for key in self.extras_keys}
        extras.update(encoder_widths=list(self.encoder.widths),
                      feature_min=_floats(self.feature_min), feature_max=_floats(self.feature_max))
        return {"n_wires": 0, "embedding": None, "layers": [], "weights": packed, "extras": extras}

    @classmethod
    def from_spec(cls, spec, registry: Registry) -> "RBMClusterer":
        """Rebuild a ready-to-predict clusterer from a ModelSpec written by `spec_fields`."""
        extras = spec.extras
        model = cls(**{key: extras[key] for key in cls.extras_keys})
        widths = model.encoder.widths
        if extras["encoder_widths"] != widths:
            raise ValueError(f"encoder_widths {extras['encoder_widths']} differ from the "
                             f"{widths} of a {model.encoder_layers}-layer encoder")
        shapes = [shape for fan_in, fan_out in zip(widths[:-1], widths[1:])
                  for shape in ((fan_out, fan_in), (fan_out,))]
        shapes += [(model.latent_size, model.n_hidden), (model.latent_size,), (model.n_hidden,)]
        flat = np.asarray(spec.weights, dtype=float)
        if flat.size != sum(map(prod, shapes)):
            raise ValueError("weights length inconsistent with declared architecture")
        rbm = model.rbm
        *encoder, rbm.weights, rbm.visible_bias, rbm.hidden_bias = _carve(flat, shapes)
        model.encoder.enc_weights, model.encoder.enc_biases = encoder[::2], encoder[1::2]
        bounds = {name: np.asarray(extras[name], dtype=float)
                  for name in ("feature_min", "feature_max")}
        for name, bound in bounds.items():
            if bound.shape != (model.input_size,):
                raise ValueError(f"{name} has shape {bound.shape}, expected "
                                 f"({model.input_size},)")
        model._set_scaling(*bounds.values())
        return model


def _groups(items: Sequence, key: Callable) -> list[list]:
    """`items` grouped by `key`, in order of each key's first item."""
    groups: dict[Any, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over Euclidean distances in the given feature space.

    Undefined (raises ScoreUndefinedError) when all points share one cluster
    or when any cluster is a singleton.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n = len(X)
    if n != len(labels):
        raise ValueError("X and labels must have equal length")
    unique, counts = np.unique(labels, return_counts=True)
    if len(unique) < 2:
        raise ScoreUndefinedError("silhouette undefined: all points share one cluster")
    if np.any(counts == 1):
        raise ScoreUndefinedError("silhouette undefined: singleton cluster present")
    distances = np.empty((n, n))
    block = max(1, (1 << 20) // max(1, n * X.shape[1]))  # rows whose differences fill 8 MB
    for start in range(0, n, block):
        diffs = X[start:start + block, None, :] - X[None, :, :]
        distances[start:start + block] = np.sqrt((diffs**2).sum(axis=-1))
    one_hot = (labels[:, None] == unique[None, :]).astype(float)
    cluster_sums = distances @ one_hot  # n x k: summed distance to each cluster
    own = np.argmax(one_hot, axis=1)
    a = cluster_sums[np.arange(n), own] / (counts[own] - 1)
    mean_other = cluster_sums / counts[None, :]
    mean_other[np.arange(n), own] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(s.mean())


def suggest_unsupervised_kwargs(
    trial: "Trial",
    X: np.ndarray,
    registry: Registry,
    config: "FinderConfig",
) -> dict[str, Any]:
    """Construction options for the encoder+RBM pipeline; the latent and hidden
    widths follow the sqrt/0.75 bracketing of the input size, the encoder has
    1-3 layers and the firing threshold is in [0.3, 0.7]."""
    input_size = int(np.asarray(X).shape[1])
    if input_size < 2:
        raise ValueError("clustering requires input size >= 2")
    out_channels = trial.suggest_int(
        "lbae_out_channels", floor(sqrt(input_size)), ceil(0.75 * input_size)
    )
    n_hidden = trial.suggest_int(
        "rbm_n_hidden_neurons", floor(sqrt(out_channels)), ceil(0.75 * out_channels)
    )
    return {
        "input_size": input_size,
        "lbae_out_channels": out_channels,
        "rbm_n_visible_neurons": out_channels,  # hard equality with the latent width
        "rbm_n_hidden_neurons": n_hidden,
        "lbae_n_layers": trial.suggest_int("lbae_n_layers", 1, 3),
        "n_epochs": config.n_epochs,
        "firing_threshold": trial.suggest_float("firing_threshold", 0.3, 0.7),
    }


def default_registry() -> Registry:
    """The shipped search space: two embeddings, two layers, four families, in
    the order a trial's `model_type` draw offers them."""
    reg = base_registry()
    for family in (QNNClassifier, QEKClassifier, QNNRegressor, RBMClusterer):
        reg.register("model", family)
    return reg
