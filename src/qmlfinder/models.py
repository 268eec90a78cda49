"""The trainable model families the finder chooses among.

Every family presents one protocol: class attributes `task`, `family` and
`score_kind`; construct with a seed, `fit` (which sets `train_score`),
`predict`, and `score`, with every simulated device call booked on the
caller's ledger; `spec_fields()` freezes a trained model into model-file
fields and the class-level `from_spec(spec, registry)` restores it.
Label convention is fixed: class 0 maps to target +1 (the <Z> of |0>), so a
classifier predicts 1 exactly when its expectation drops to 0 or below.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .registry import (
    CircuitSpec,
    FloatRange,
    IntRange,
    ModelFamilyConfig,
    Registry,
    TaskType,
    base_registry,
)
from .rng import PortableRng, derive_seed
from .simulator import CallCounter, expectation_z, parameter_shift_gradient, run_circuit
from .training import BudgetLedger, OptimizerConfig, train_epochs


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


def _r_squared(values: np.ndarray, targets: np.ndarray) -> float:
    ss_res = float(np.sum((targets - values) ** 2))
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def _initial_weights(param_count: int, seed: int) -> np.ndarray:
    rng = PortableRng(derive_seed(seed, 0))
    return np.array(rng.uniforms(param_count, 0.0, pi))


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


def _check_binary_labels(y: np.ndarray) -> None:
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise ValueError("labels must be binary {0, 1}")
    if len(classes) < 2:
        raise ValueError("training data must contain both classes")


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

    Subclasses map labels to targets, pick the training score, and name their
    model-file extras in `extras_keys`: constructor keywords that are also
    attributes.
    """

    extras_keys: tuple[str, ...] = ()

    def __init__(
        self,
        circuit: CircuitSpec,
        *,
        batch_size: int,
        n_epochs: int,
        seed: int,
        weights: Sequence[float] | None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(circuit, seed, weights)
        self.batch_size = batch_size
        self.n_epochs = n_epochs
        self.epochs_run = 0

    def expectations(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        return expectation_z(run_circuit(self.circuit, self.weights, _rows(X), counter), 0)

    def _train(
        self,
        X: np.ndarray,
        targets: np.ndarray,
        score_fn: Callable[[np.ndarray, np.ndarray], float],
        threshold: float,
        ledger: BudgetLedger,
        optimizer: OptimizerConfig | None,
    ) -> "QNN":
        result = train_epochs(
            weights=self.weights,
            X=X,
            targets=targets,
            forward=lambda w, X, c: expectation_z(run_circuit(self.circuit, w, X, c), 0),
            gradient=lambda w, X, c: parameter_shift_gradient(self.circuit, w, X, 0, c),
            score_fn=score_fn,
            ledger=ledger,
            opt_config=optimizer or OptimizerConfig(),
            batch_size=self.batch_size,
            n_epochs=self.n_epochs,
            threshold=threshold,
            seed=self.seed,
        )
        self.weights = result.weights
        self.epochs_run = result.epochs_run
        self.train_score = result.final_score
        return self

    def spec_extras(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in self.extras_keys}

    @classmethod
    def _from_extras(cls, circuit: CircuitSpec, weights: np.ndarray, extras: Mapping) -> "QNN":
        return cls(circuit, weights=weights, **{key: extras[key] for key in cls.extras_keys})

    def reseeded(self, seed: int) -> "QNN":
        """An untrained copy with the same circuit and options, initialised from `seed`."""
        return type(self)(self.circuit, seed=seed, **self.spec_extras())


class QNNClassifier(QNN):
    """Variational binary classifier read out as p(1) = (1 - <Z_0>)/2."""

    task = TaskType.CLASSIFICATION
    family = "QNN"
    score_kind = "mean_accuracy"
    extras_keys = ("batch_size", "n_epochs", "accuracy_threshold")

    def __init__(
        self,
        circuit: CircuitSpec,
        *,
        batch_size: int,
        n_epochs: int,
        accuracy_threshold: float,
        seed: int = 0,
        weights: Sequence[float] | None = None,
    ) -> None:
        if not 0.0 <= accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in [0, 1]")
        super().__init__(circuit, batch_size=batch_size, n_epochs=n_epochs, seed=seed,
                         weights=weights)
        self.accuracy_threshold = accuracy_threshold

    def predict(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        return (self.expectations(X, counter) <= 0).astype(int)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        ledger: BudgetLedger,
        optimizer: OptimizerConfig | None = None,
    ) -> "QNNClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) < 2:
            raise ValueError("need at least 2 training samples")
        _check_binary_labels(y)
        targets = 1.0 - 2.0 * y.astype(float)
        return self._train(X, targets, _accuracy, self.accuracy_threshold, ledger, optimizer)

    def score(self, X: np.ndarray, y: np.ndarray, counter: CallCounter) -> float:
        return _accuracy(self.expectations(X, counter), 1.0 - 2.0 * np.asarray(y, dtype=float))


class QNNRegressor(QNN):
    """Variational regressor: targets are affinely mapped onto [-1, 1] and the
    circuit expectation is trained against them; predictions invert the map."""

    task = TaskType.REGRESSION
    family = "QNN_REGRESSOR"
    score_kind = "r2"
    extras_keys = ("batch_size", "n_epochs", "r2_threshold", "target_min", "target_max")

    def __init__(
        self,
        circuit: CircuitSpec,
        *,
        batch_size: int,
        n_epochs: int,
        r2_threshold: float,
        seed: int = 0,
        weights: Sequence[float] | None = None,
        target_min: float | None = None,
        target_max: float | None = None,
    ) -> None:
        super().__init__(circuit, batch_size=batch_size, n_epochs=n_epochs, seed=seed,
                         weights=weights)
        self.r2_threshold = r2_threshold
        self.target_min = target_min
        self.target_max = target_max

    def _rescale(self, y: np.ndarray) -> np.ndarray:
        return 2.0 * (y - self.target_min) / (self.target_max - self.target_min) - 1.0

    def _inverse(self, values: np.ndarray) -> np.ndarray:
        return (values + 1.0) / 2.0 * (self.target_max - self.target_min) + self.target_min

    def predict(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        if self.target_min is None or self.target_max is None:
            raise ValueError("regressor must be fit (or restored) before predicting")
        return self._inverse(self.expectations(X, counter))

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        ledger: BudgetLedger,
        optimizer: OptimizerConfig | None = None,
    ) -> "QNNRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) < 2:
            raise ValueError("need at least 2 training samples")
        self.target_min = float(y.min())
        self.target_max = float(y.max())
        if self.target_min == self.target_max:
            raise ValueError("constant targets: rescaling to [-1, 1] is undefined")
        return self._train(X, self._rescale(y), _r_squared, self.r2_threshold, ledger, optimizer)

    def score(self, X: np.ndarray, y: np.ndarray, counter: CallCounter) -> float:
        y = np.asarray(y, dtype=float)
        if float(y.min()) == float(y.max()):
            raise ValueError("R^2 is undefined for constant targets")
        return _r_squared(self.predict(X, counter), y)


def kernel_matrix(
    circuit: CircuitSpec,
    weights: Sequence[float],
    X1: np.ndarray,
    X2: np.ndarray,
    counter: CallCounter,
) -> np.ndarray:
    """Fidelity kernel K[i][j] = |<phi(x1_i)|phi(x2_j)>|^2.

    Each row is simulated once and K is |S1* S2^T|^2 over the stacked row
    states S, held at once: rows * 2**n_wires amplitudes of 16 B each. The
    booking is 2 calls per pair: N*(N-1) for a training kernel (X1 and X2 hold
    the same rows; strict upper triangle, mirrored, over a unit diagonal) and
    2*len(X1)*len(X2) for a cross kernel. The simulations themselves are not booked.
    """
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    S1 = run_circuit(circuit, weights, X1, CallCounter()).amplitudes
    if X1.shape == X2.shape and np.array_equal(X1, X2):
        n = len(X1)
        upper = np.triu(np.abs(S1.conj() @ S1.T) ** 2, 1)
        counter.increment(n * (n - 1))
        return upper + upper.T + np.eye(n)
    K = np.abs(S1.conj() @ run_circuit(circuit, weights, X2, CallCounter()).amplitudes.T) ** 2
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
        if ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be > 0")
        super().__init__(circuit, seed, weights)
        self.ridge_lambda = ridge_lambda
        self.support_data: np.ndarray | None = None
        self.dual_coeffs: np.ndarray | None = None
        self._train_kernel: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, ledger: BudgetLedger) -> "QEKClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if len(X) < 2:
            raise ValueError("need at least 2 training samples")
        _check_binary_labels(y)
        targets = 1.0 - 2.0 * y.astype(float)
        K = kernel_matrix(self.circuit, self.weights, X, X, ledger.kernel)
        self.dual_coeffs = np.linalg.solve(K + self.ridge_lambda * np.eye(len(X)), targets)
        self.support_data = X
        self._train_kernel = K
        # training accuracy comes from the kernel already built: no extra calls
        decisions = self.dual_coeffs @ K
        self.train_score = float(np.mean((decisions < 0) == (targets < 0)))
        return self

    def decision_values(self, X: np.ndarray, counter: CallCounter) -> np.ndarray:
        if self.dual_coeffs is None:
            raise ValueError("classifier must be fit before predicting")
        X = _rows(X)
        if self._train_kernel is not None and np.array_equal(X, self.support_data):
            return self.dual_coeffs @ self._train_kernel
        K = kernel_matrix(self.circuit, self.weights, self.support_data, X, counter)
        return self.dual_coeffs @ K

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
        model.support_data = np.asarray(extras["support_data"], dtype=float)
        model.dual_coeffs = np.asarray(extras["dual_coeffs"], dtype=float)
        return model


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of z, written into `out` when given (`out` may be z)."""
    e = np.exp(-np.abs(z))  # in (0, 1], so neither branch overflows
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


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
            weights.append(
                np.array(rng.uniforms(fan_out * fan_in, -scale, scale)).reshape(fan_out, fan_in)
            )
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

        The encoders run in lockstep: depths are right-aligned, so every output
        layer falls on the last step. A step holds its encoders' activations
        side by side in one buffer and their parameters in one vector each, so
        each elementwise operation is one numpy call for all of them; only the
        matmuls run per encoder.
        """
        X = np.asarray(X, dtype=float)
        stacks = [(e.enc_weights + e.dec_weights, e.enc_biases + e.dec_biases)
                  for e in (self, *alongside)]
        depth = max(len(weights) for weights, _ in stacks)
        steps: list[_LockstepLayer] = []
        for s in range(depth):
            layers = {i: (weights[layer], biases[layer])
                      for i, (weights, biases) in enumerate(stacks)
                      if (layer := s - depth + len(weights)) >= 0}
            steps.append(_LockstepLayer(layers, X, steps[-1] if steps else None))
        last = steps[-1]
        targets = np.tile(X, len(stacks))
        for _ in range(n_epochs):
            for step in steps:
                step.forward()
            delta = last.delta
            np.subtract(last.act, targets, out=delta)
            delta *= 2.0
            delta /= len(X)
            delta *= last.act
            delta *= 1.0 - last.act
            for step in reversed(steps):
                step.backward(learning_rate)
        for step in steps:
            step.write_back()


class _LockstepLayer:
    """One step of a lockstep: a layer of each encoder taking part, with
    their activation and delta columns side by side in one (rows, sum of
    widths) buffer each and their weights and biases as views into one
    vector each. The per-encoder views are made once, before the epochs."""

    def __init__(self, layers: Mapping[int, tuple], X: np.ndarray, prev: "_LockstepLayer | None"):
        edges = np.cumsum([0, *(len(b) for _, b in layers.values())]).tolist()
        sizes = np.cumsum([0, *(W.size for W, _ in layers.values())]).tolist()
        self.prev = prev
        self.act = np.empty((len(X), edges[-1]))
        self.delta = np.empty_like(self.act)
        self.biases = np.concatenate([b for _, b in layers.values()])
        self.bias_grads = np.empty_like(self.biases)
        self.weights = np.concatenate([W.ravel() for W, _ in layers.values()])
        self.grads = np.empty_like(self.weights)
        self.blocks: dict[int, tuple] = {}  # encoder -> its (activation, delta) columns
        self.forward_ops, self.grad_ops, self.back_ops, self.lone, self.trained = [], [], [], [], []
        for (i, (W, b)), c0, c1, w0, w1 in zip(layers.items(), edges, edges[1:], sizes, sizes[1:]):
            weights = self.weights[w0:w1].reshape(W.shape)
            act, delta = self.blocks[i] = self.act[:, c0:c1], self.delta[:, c0:c1]
            inputs = X
            if prev is not None and i in prev.blocks:
                inputs, prev_delta = prev.blocks[i]
                self.back_ops.append((delta, weights, prev_delta))
            self.forward_ops.append((inputs, weights.T, act))
            # a product with a vector takes another BLAS path on strided operands
            # than on the contiguous arrays of an encoder trained alone
            vector = 1 in (c1 - c0, inputs.shape[1])
            self.grad_ops.append((delta, inputs, self.grads[w0:w1].reshape(W.shape), vector))
            if c1 - c0 == 1:
                # numpy sums a lone (n, 1) column pairwise but the columns of a
                # wider array row by row, so width-1 blocks reduce on their own
                self.lone.append((delta, self.bias_grads[c0:c1]))
            self.trained += [(W, weights), (b, self.biases[c0:c1])]

    def forward(self) -> None:
        for inputs, weights_t, out in self.forward_ops:
            np.matmul(inputs, weights_t, out=out)
        self.act += self.biases
        _sigmoid(self.act, out=self.act)

    def backward(self, learning_rate: float) -> None:
        """Gradients from this step's delta, the previous step's delta, then
        the descent step; the delta is propagated through the old weights."""
        for delta, inputs, grads, vector in self.grad_ops:
            if vector:
                delta, inputs = np.ascontiguousarray(delta), np.ascontiguousarray(inputs)
            np.matmul(delta.T, inputs, out=grads)
        np.add.reduce(self.delta, axis=0, out=self.bias_grads)
        for delta, out in self.lone:
            np.add.reduce(delta, axis=0, out=out)
        prev = self.prev
        if prev is not None:
            for delta, weights, out in self.back_ops:
                np.matmul(delta, weights, out=out)
            prev.delta *= prev.act
            prev.delta *= 1.0 - prev.act
        self.grads *= learning_rate
        self.weights -= self.grads
        self.bias_grads *= learning_rate
        self.biases -= self.bias_grads

    def write_back(self) -> None:
        """Copy the trained parameters into the encoders' own arrays."""
        for own, trained in self.trained:
            own[...] = trained


class RBM:
    """Bernoulli restricted Boltzmann machine trained by one-step contrastive
    divergence; sampling uses the portable generator for determinism."""

    # O(1) init spreads hidden activations enough for firing thresholds to bite
    init_scale = 1.0

    def __init__(self, n_visible: int, n_hidden: int, seed: int) -> None:
        if n_visible < 1 or n_hidden < 1:
            raise ValueError("RBM needs at least one visible and one hidden unit")
        rng = PortableRng(derive_seed(seed, 1))
        self.weights = np.array(
            rng.uniforms(n_visible * n_hidden, -self.init_scale, self.init_scale)
        ).reshape(n_visible, n_hidden)
        self.visible_bias = np.zeros(n_visible)
        self.hidden_bias = np.zeros(n_hidden)
        self._sample_rng = PortableRng(derive_seed(seed, 2))

    def hidden_probabilities(self, visible: np.ndarray) -> np.ndarray:
        return _sigmoid(visible @ self.weights + self.hidden_bias)

    def visible_probabilities(self, hidden: np.ndarray) -> np.ndarray:
        return _sigmoid(hidden @ self.weights.T + self.visible_bias)

    def _bernoulli(self, probs: np.ndarray) -> np.ndarray:
        draws = np.array(self._sample_rng.uniforms(probs.size)).reshape(probs.shape)
        return (draws < probs).astype(float)

    def cd1_epoch(self, V: np.ndarray, learning_rate: float = 0.1) -> None:
        p_h = self.hidden_probabilities(V)
        h_sample = self._bernoulli(p_h)
        v_model = self._bernoulli(self.visible_probabilities(h_sample))
        p_h_model = self.hidden_probabilities(v_model)
        n = len(V)
        self.weights += learning_rate * (V.T @ p_h - v_model.T @ p_h_model) / n
        self.visible_bias += learning_rate * (V - v_model).mean(axis=0)
        self.hidden_bias += learning_rate * (p_h - p_h_model).mean(axis=0)

    def reconstruction_error(self, V: np.ndarray) -> float:
        recon = self.visible_probabilities(self.hidden_probabilities(V))
        return float(np.mean((V - recon) ** 2))


class RBMClusterer:
    """Binary encoder feeding an RBM; a sample's cluster id is the integer
    encoding of which hidden units fire (unit j contributes 2**j).

    Entirely classical: fitting and assignment touch no device-call counter.
    Encoder training is a pure function of the scaled data, the widths, the
    seed and the encoder budget. `fit` installs a copy of the trained stack
    from its `encoder_memo` dict, training (and memoizing) it only on a miss;
    `train_encoders` fills a memo for many models in one lockstep, which a
    study does before its first trial.
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
        encoder_memo: dict | None = None,
    ) -> None:
        if input_size < 2:
            raise ValueError("input size must be >= 2")
        if latent_size < 1:
            raise ValueError("latent_size must be >= 1")
        if n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if not 0.0 < firing_threshold < 1.0:
            raise ValueError("firing_threshold must be in (0, 1)")
        self.input_size = input_size
        self.encoder_layers = encoder_layers
        self.latent_size = latent_size
        self.n_hidden = n_hidden
        self.firing_threshold = firing_threshold
        self.n_epochs = n_epochs
        self.seed = seed
        self.encoder_memo = encoder_memo
        self.encoder = BinaryEncoder(input_size, encoder_layers, latent_size, seed)
        self.rbm = RBM(latent_size, n_hidden, seed)
        # per-feature affine scaling fitted on the training data
        self.feature_min: np.ndarray | None = None
        self.feature_max: np.ndarray | None = None
        self.train_score: float | None = None

    def _scale(self, X: np.ndarray) -> np.ndarray:
        span = np.where(self.feature_max > self.feature_min, self.feature_max - self.feature_min, 1.0)
        return (X - self.feature_min) / span

    def _latent_bits(self, X: np.ndarray) -> np.ndarray:
        return (self.encoder.encode(self._scale(X)) >= 0.5).astype(float)

    def fit(self, X: np.ndarray, ledger: BudgetLedger | None = None) -> "RBMClusterer":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_size:
            raise ValueError(f"expected 2D data with {self.input_size} features")
        memo = {} if self.encoder_memo is None else self.encoder_memo
        _, key = self._scaled_key(X)
        if key not in memo:
            self.train_encoders([self], X, memo)
        encoder = self.encoder
        (encoder.enc_weights, encoder.enc_biases,
         encoder.dec_weights, encoder.dec_biases) = ([a.copy() for a in s] for s in memo[key])
        latents = self._latent_bits(X)
        for _ in range(self.n_epochs):
            self.rbm.cd1_epoch(latents, self.rbm_learning_rate)
        return self

    def _scaled_key(self, X: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Fit the feature scaling to X; return the scaled data and the memo key
        of the encoder trained on it."""
        self.feature_min = X.min(axis=0)
        self.feature_max = X.max(axis=0)
        scaled = self._scale(X)
        return scaled, (scaled.shape, scaled.tobytes(), tuple(self.encoder.widths), self.seed,
                        self.encoder_epochs, self.encoder_learning_rate)

    @staticmethod
    def train_encoders(models: Sequence["RBMClusterer"], X: np.ndarray, memo: dict) -> None:
        """Train each distinct encoder that fitting `models` on X needs and
        `memo` lacks, all in one lockstep, and store copies in `memo`. The
        models share one class, hence one encoder budget."""
        pending: dict[tuple, RBMClusterer] = {}
        for model in models:
            try:
                scaled, key = model._scaled_key(X)
            except ValueError:  # data without rows: each fit fails on it and records that
                continue
            if key not in memo:
                pending.setdefault(key, model)
        if not pending:
            return
        first, *rest = pending.values()
        first.encoder.train(scaled, first.encoder_epochs, first.encoder_learning_rate,
                            alongside=[model.encoder for model in rest])
        for key, model in pending.items():
            encoder = model.encoder
            # threads that miss on one key store the same pure result; a dict store is GIL-atomic
            memo[key] = [[a.copy() for a in s] for s in (
                encoder.enc_weights, encoder.enc_biases, encoder.dec_weights, encoder.dec_biases)]

    def cluster_assign(self, x: Sequence[float]) -> int:
        return int(self.predict(np.atleast_2d(x))[0])

    def predict(self, X: np.ndarray, counter: CallCounter | None = None) -> np.ndarray:
        X = _rows(X)
        if len(X) == 0:
            return np.zeros(0, dtype=np.int64)
        probs = self.rbm.hidden_probabilities(self._latent_bits(X))
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
        extras = {
            "input_size": self.input_size,
            "encoder_layers": self.encoder_layers,
            "encoder_widths": list(self.encoder.widths),
            "latent_size": self.latent_size,
            "n_hidden": self.n_hidden,
            "firing_threshold": self.firing_threshold,
            "n_epochs": self.n_epochs,
            "feature_min": _floats(self.feature_min),
            "feature_max": _floats(self.feature_max),
        }
        return {"n_wires": 0, "embedding": None, "layers": [], "weights": packed, "extras": extras}

    @classmethod
    def from_spec(cls, spec, registry: Registry) -> "RBMClusterer":
        """Rebuild a ready-to-predict clusterer from a ModelSpec written by `spec_fields`."""
        extras = spec.extras
        model = cls(
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
    diffs = X[:, None, :] - X[None, :, :]
    distances = np.sqrt((diffs**2).sum(axis=-1))
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


def _build_qnn_classifier(kwargs: Mapping, seed: int) -> QNNClassifier:
    return QNNClassifier(
        CircuitSpec(kwargs["n_wires"], kwargs["embedding"], tuple(kwargs["layers"])),
        batch_size=kwargs["batch_size"],
        n_epochs=kwargs["n_epochs"],
        accuracy_threshold=kwargs["threshold"],
        seed=seed,
    )


def _build_qnn_regressor(kwargs: Mapping, seed: int) -> QNNRegressor:
    return QNNRegressor(
        CircuitSpec(kwargs["n_wires"], kwargs["embedding"], tuple(kwargs["layers"])),
        batch_size=kwargs["batch_size"],
        n_epochs=kwargs["n_epochs"],
        r2_threshold=kwargs["threshold"],
        seed=seed,
    )


def _build_qek_classifier(kwargs: Mapping, seed: int) -> QEKClassifier:
    return QEKClassifier(
        CircuitSpec(kwargs["n_wires"], kwargs["embedding"], tuple(kwargs["layers"])),
        ridge_lambda=kwargs.get("ridge_lambda", 1e-3),
        seed=seed,
    )


def _build_rbm_clusterer(kwargs: Mapping, seed: int) -> RBMClusterer:
    return RBMClusterer(
        input_size=kwargs["input_size"],
        encoder_layers=kwargs["lbae_n_layers"],
        latent_size=kwargs["lbae_out_channels"],
        n_hidden=kwargs["rbm_n_hidden_neurons"],
        firing_threshold=kwargs["firing_threshold"],
        n_epochs=kwargs["n_epochs"],
        seed=seed,
        encoder_memo=kwargs.get("encoder_memo"),
    )


def default_registry() -> Registry:
    """The shipped search space: two embeddings, two layers, four families."""
    reg = base_registry()
    reg.register(
        "model",
        ModelFamilyConfig(
            name="QNN",
            task=TaskType.CLASSIFICATION,
            n_layers=(1, 3),
            builder=_build_qnn_classifier,
            restore=QNNClassifier.from_spec,
            tunables={"batch_size": IntRange(15, 25)},
        ),
    )
    reg.register(
        "model",
        ModelFamilyConfig(
            name="QEK",
            task=TaskType.CLASSIFICATION,
            n_layers=(3, 5),
            builder=_build_qek_classifier,
            restore=QEKClassifier.from_spec,
            fixed_options={"ridge_lambda": 1e-3},
        ),
    )
    reg.register(
        "model",
        ModelFamilyConfig(
            name="QNN_REGRESSOR",
            task=TaskType.REGRESSION,
            n_layers=(1, 3),
            builder=_build_qnn_regressor,
            restore=QNNRegressor.from_spec,
            tunables={"batch_size": IntRange(15, 25)},
        ),
    )
    reg.register(
        "model",
        ModelFamilyConfig(
            name="RBM",
            task=TaskType.CLUSTERING,
            n_layers=(1, 3),  # encoder depth bounds (lbae_n_layers)
            builder=_build_rbm_clusterer,
            restore=RBMClusterer.from_spec,
            prepare=RBMClusterer.train_encoders,
            tunables={"firing_threshold": FloatRange(0.3, 0.7)},
        ),
    )
    return reg
