"""Optimizers, the shared epoch/batch training loop, and the device-call ledger.

The ledger's closed-form cost model for gradient training is an exact integer
contract: E full epochs over N samples of a P-parameter circuit record
2*P*N*E gradient-shift calls plus N*(E+1) scoring calls (one full-train check
before training and one after each epoch). To keep that model exact, the loss
residuals (f - t) for an epoch are taken from the expectation values computed
by the preceding full-train check rather than from extra forward passes.
Each check shares its simulation with the next epoch's first mini-batch, and
calls are booked when used: a batch run with the check that stops training is
simulated but never booked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import PortableRng, derive_seed
from .simulator import CallCounter

OPTIMIZER_KINDS = ("vanilla_gd", "momentum_gd", "adam")
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "vanilla_gd"
    learning_rate: float = 0.1
    momentum: float = 0.0

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
            out.update({"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "epsilon": ADAM_EPSILON})
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
    m = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.second_moment + (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    new_state = OptState(step_count=t, first_moment=m, second_moment=v)
    return w - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), new_state


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


def train_epochs(
    *,
    weights: Sequence[float],
    X: np.ndarray,
    targets: np.ndarray,
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
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
    `evaluate(w, X_check, X_batch)` returns, from one simulation that books
    nothing, the output for every row of X_check and the (B, P) gradients of
    X_batch's rows, summed per sample in shuffled order. A check books N calls;
    a batch books 2*P*B when its gradients are used.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty training data")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if n_epochs < 0:
        raise ValueError("n_epochs must be >= 0")

    def check(w: np.ndarray, epoch: int):
        """Score at w, simulated with the first batch of `epoch` if that epoch runs."""
        order = list(range(n)) if epoch <= n_epochs else []
        PortableRng(derive_seed(seed, epoch)).shuffle(order)
        values, grads = evaluate(w, X, X[order[:batch_size]])
        ledger.scoring.increment(n)
        return order, values, grads, score_fn(values, targets)

    w = np.asarray(weights, dtype=float).copy()
    order, values, grads, score = check(w, 1)
    if score >= threshold or n_epochs == 0:
        return TrainResult(w, 0, score)

    state = init_opt_state(opt_config, w.size)
    epochs_run = 0
    for epoch in range(1, n_epochs + 1):
        residuals = 2.0 * (values - targets)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            if start:
                _, grads = evaluate(w, X[:0], X[batch])
            ledger.training_gradients.increment(2 * w.size * len(batch))
            # added in row order (numpy's pairwise sum would round differently);
            # + 0.0 makes an all -0.0 sum +0.0
            grad = np.add.accumulate(residuals[batch, None] * grads, axis=0)[-1] + 0.0
            grad /= len(batch)
            w, state = step(state, w, grad, opt_config)
        order, values, grads, score = check(w, epoch + 1)
        epochs_run = epoch
        if score >= threshold:
            break
    return TrainResult(w, epochs_run, score)
