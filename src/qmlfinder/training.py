"""Optimizers, the shared epoch/batch training loop, and the device-call ledger.

The ledger's closed-form cost model for gradient training is an exact integer
contract: E full epochs over N samples of a P-parameter circuit record
2*P*N*E gradient-shift calls plus N*(E+1) scoring calls (one full-train check
before training and one after each epoch). To keep that model exact, the loss
residuals (f - t) for an epoch are taken from the expectation values computed
by the preceding full-train check rather than from extra forward passes.
Each check shares its simulation with the next epoch's first mini-batch, and
calls are booked when used: a batch run with the check that stops training is
simulated but never booked. One fit's loop is a step generator (`fit_steps`).
Every QNN fit runs it in a lockstep (`QNN._lockstep`, of one fit or of a
study's many); `train_epochs` drives one fit from an `evaluate` callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Generator, Sequence

import numpy as np

from .records import _require_integer, _require_number
from .rng import PortableRng, derive_seed
from .simulator import CallCounter

OPTIMIZER_KINDS = ("vanilla_gd", "momentum_gd", "adam")
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """An optimizer: its kind, a learning rate that is a finite number > 0 and
    a momentum (read by momentum_gd only) that is a number in [0, 1); bools
    are not numbers."""

    kind: str = "vanilla_gd"
    learning_rate: float = 0.1
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        _require_number("learning_rate", self.learning_rate, "a finite number > 0",
                        lambda value: isfinite(value) and value > 0)
        _require_number("momentum", self.momentum, "a number in [0, 1)",
                        lambda value: 0.0 <= value < 1.0)

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


def step(state: OptState, weights: np.ndarray, gradient: np.ndarray,
         config: OptimizerConfig) -> tuple[np.ndarray, OptState]:
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


_ORDERS: dict[tuple[int, int, int], np.ndarray] = {}
_ORDERS_BOUND = 2**20  # row indices, 8 MiB


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Read-only batch order of `epoch`: range(n) shuffled by the portable
    generator seeded with derive_seed(seed, epoch). Cached because every QNN
    trial of a study trains on the same n rows with the same repeat seeds; an
    order that would take the cache past _ORDERS_BOUND empties it first."""
    order = _ORDERS.get((seed, epoch, n))
    if order is None:
        shuffled = list(range(n))
        PortableRng(derive_seed(seed, epoch)).shuffle(shuffled)
        order = np.array(shuffled, dtype=np.intp)
        order.flags.writeable = False  # one order serves every trial that draws it
        if sum(map(len, _ORDERS.values())) + n > _ORDERS_BOUND:
            _ORDERS.clear()
        _ORDERS[seed, epoch, n] = order
    return order


def fit_steps(
    *,
    weights: Sequence[float],
    n: int,
    targets: np.ndarray,
    score_fn: Callable[[np.ndarray, np.ndarray], float],
    ledger: BudgetLedger,
    opt_config: OptimizerConfig,
    batch_size: int,
    n_epochs: int,
    threshold: float,
    seed: int,
) -> Generator[tuple[np.ndarray, np.ndarray, np.ndarray],
               tuple[np.ndarray, np.ndarray], TrainResult]:
    """One fit of `train_epochs` on n rows, step by step: a generator that
    yields each simulation the fit needs as (w, check, batch), is sent back
    its (values, grads), books the calls it uses and returns the TrainResult.
    `train_epochs` drives one fit; `QNN._lockstep` drives one or many."""
    if n == 0:
        raise ValueError("empty training data")
    _require_integer("batch_size", batch_size, 1)
    _require_integer("n_epochs", n_epochs, 0)

    rows, w = np.arange(n), np.asarray(weights, dtype=float).copy()
    for epoch in range(n_epochs + 1):  # the check after `epoch` epochs returns at the last
        # the check shares its simulation with the next epoch's first batch, if that runs
        order = _epoch_order(seed, epoch + 1, n if epoch < n_epochs else 0)
        values, grads = yield w, rows, order[:batch_size]
        ledger.scoring.increment(n)
        score = score_fn(values, targets)
        if score >= threshold or epoch == n_epochs:
            return TrainResult(w, epoch, score)
        # a lockstep holds every fit between its yields, so a fit keeps no
        # simulation's outputs or gradients longer than it needs them
        residuals = 2.0 * (values - targets)
        del values
        if not epoch:
            state = init_opt_state(opt_config, w.size)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            if start:
                _, grads = yield w, rows[:0], batch
            ledger.training_gradients.increment(2 * w.size * len(batch))
            # added in row order (numpy's pairwise sum would round differently);
            # + 0.0 makes an all -0.0 sum +0.0
            grad = np.add.accumulate(residuals[batch, None] * grads, axis=0)[-1] + 0.0
            del grads
            grad /= len(batch)
            w, state = step(state, w, grad, opt_config)


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
    `evaluate(w, check, batch)` gets row indices of X and returns, from one
    simulation that books nothing, the output for every row in `check` (all
    or none) and the (B, P) gradients of the rows in `batch`, summed per
    sample in shuffled order. A check books N calls; a batch books 2*P*B when
    its gradients are used. The steps are `fit_steps`'.
    """
    steps = fit_steps(weights=weights, n=len(X), targets=targets, score_fn=score_fn,
                      ledger=ledger, opt_config=opt_config, batch_size=batch_size,
                      n_epochs=n_epochs, threshold=threshold, seed=seed)
    answer = None
    while True:
        try:
            request = steps.send(answer)
        except StopIteration as stop:
            return stop.value
        answer = evaluate(*request)
