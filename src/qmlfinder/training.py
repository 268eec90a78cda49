"""Optimizers, the shared epoch/batch training loop, and the device-call ledger.

The ledger's closed-form cost model for gradient training is an exact integer
contract: E full epochs over N samples of a P-parameter circuit record
2*P*N*E gradient-shift calls plus N*(E+1) scoring calls (one full-train check
before training and one after each epoch). To keep that model exact, the loss
residuals (f - t) for an epoch are taken from the expectation values computed
by the preceding full-train check rather than from extra forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import PortableRng, derive_seed
from .simulator import CallCounter

OPTIMIZER_KINDS = ("vanilla_gd", "momentum_gd", "adam")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "vanilla_gd"
    learning_rate: float = 0.1
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "learning_rate": self.learning_rate}
        if self.kind == "momentum_gd":
            out["momentum"] = self.momentum
        if self.kind == "adam":
            out.update({"beta1": self.beta1, "beta2": self.beta2, "epsilon": self.epsilon})
        return out


@dataclass
class OptState:
    step_count: int = 0
    velocity: np.ndarray | None = None
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


def init_opt_state(config: OptimizerConfig, n_params: int) -> OptState:
    state = OptState()
    if config.kind == "momentum_gd":
        state.velocity = np.zeros(n_params)
    elif config.kind == "adam":
        state.first_moment = np.zeros(n_params)
        state.second_moment = np.zeros(n_params)
    return state


def step(
    state: OptState,
    weights: np.ndarray,
    gradient: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptState]:
    """One optimizer update; returns new weights and the advanced state."""
    w = np.asarray(weights, dtype=float)
    g = np.asarray(gradient, dtype=float)
    if w.shape != g.shape:
        raise ValueError(f"weights shape {w.shape} != gradient shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite components")
    lr = config.learning_rate
    if config.kind == "vanilla_gd":
        return w - lr * g, state
    if config.kind == "momentum_gd":
        velocity = config.momentum * state.velocity + g
        new_state = OptState(step_count=state.step_count + 1, velocity=velocity)
        return w - lr * velocity, new_state
    # adam, bias-corrected
    t = state.step_count + 1
    m = config.beta1 * state.first_moment + (1 - config.beta1) * g
    v = config.beta2 * state.second_moment + (1 - config.beta2) * g * g
    m_hat = m / (1 - config.beta1**t)
    v_hat = v / (1 - config.beta2**t)
    new_state = OptState(step_count=t, first_moment=m, second_moment=v)
    return w - lr * m_hat / (np.sqrt(v_hat) + config.epsilon), new_state


_PHASES = ("training_gradients", "training_forward", "scoring", "kernel")


class BudgetLedger:
    """Per-phase device-call subtotals; the total is always their sum."""

    def __init__(self) -> None:
        self.training_gradients = CallCounter()
        self.training_forward = CallCounter()
        self.scoring = CallCounter()
        self.kernel = CallCounter()

    @property
    def total(self) -> int:
        return sum(getattr(self, phase).total_calls for phase in _PHASES)

    def merge(self, other: "BudgetLedger") -> None:
        for phase in _PHASES:
            getattr(self, phase).increment(getattr(other, phase).total_calls)

    def as_dict(self) -> dict[str, int]:
        out = {phase: getattr(self, phase).total_calls for phase in _PHASES}
        out["total"] = self.total
        return out


@dataclass
class TrainResult:
    weights: np.ndarray
    epochs_run: int
    final_score: float
    final_values: np.ndarray


def train_epochs(
    *,
    weights: Sequence[float],
    X: np.ndarray,
    targets: np.ndarray,
    forward: Callable[[np.ndarray, np.ndarray, CallCounter], np.ndarray],
    gradient: Callable[[np.ndarray, np.ndarray, CallCounter], np.ndarray],
    score_fn: Callable[[np.ndarray, np.ndarray], float],
    ledger: BudgetLedger,
    opt_config: OptimizerConfig,
    batch_size: int,
    n_epochs: int,
    threshold: float,
    seed: int,
) -> TrainResult:
    """Mini-batch gradient descent on the squared error between circuit output
    and targets in [-1, 1], with a full-train score check before training and
    after every epoch; stops as soon as the score reaches `threshold`.

    Batch order is shuffled once per epoch by the portable generator seeded
    with derive_seed(seed, epoch); the last partial batch is kept.
    `forward(w, X, counter)` returns the output for every row of X at once;
    `gradient(w, X_batch, counter)` the (B, P) gradients of a mini-batch's rows,
    which are summed per sample in shuffled order.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty training data")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if n_epochs < 0:
        raise ValueError("n_epochs must be >= 0")
    w = np.asarray(weights, dtype=float).copy()

    values = forward(w, X, ledger.scoring)
    score = score_fn(values, targets)
    if score >= threshold or n_epochs == 0:
        return TrainResult(w, 0, score, values)

    state = init_opt_state(opt_config, w.size)
    epochs_run = 0
    for epoch in range(1, n_epochs + 1):
        order = list(range(n))
        PortableRng(derive_seed(seed, epoch)).shuffle(order)
        residuals = 2.0 * (values - targets)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            grad = np.zeros_like(w)
            for i, g in zip(batch, gradient(w, X[batch], ledger.training_gradients)):
                grad += residuals[i] * g
            grad /= len(batch)
            w, state = step(state, w, grad, opt_config)
        values = forward(w, X, ledger.scoring)
        score = score_fn(values, targets)
        epochs_run = epoch
        if score >= threshold:
            break
    return TrainResult(w, epochs_run, score, values)
