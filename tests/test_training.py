"""Optimizer updates, ledger accounting exactness, and the epoch loop."""

import numpy as np
import pytest

import qmlfinder.simulator
from qmlfinder import training
from qmlfinder import (
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    BudgetLedger,
    CircuitSpec,
    Gate,
    OptimizerConfig,
    PortableRng,
    QNNClassifier,
    init_opt_state,
    step,
    train_epochs,
)
from qmlfinder.rng import derive_seed
from qmlfinder.training import _epoch_order

from conftest import make_blobs
from oracles import qnn_fit_cost


# -- optimizer steps -----------------------------------------------------------


def test_vanilla_step():
    state = init_opt_state(OptimizerConfig(learning_rate=0.1), 1)
    w, _ = step(state, np.array([1.0]), np.array([2.0]), OptimizerConfig(learning_rate=0.1))
    np.testing.assert_allclose(w, [0.8])


def test_zero_gradient_leaves_weights_unchanged():
    for kind in ("vanilla_gd", "momentum_gd", "adam"):
        config = OptimizerConfig(kind=kind, learning_rate=0.3, momentum=0.5)
        state = init_opt_state(config, 3)
        w0 = np.array([1.0, -2.0, 0.5])
        w1, state = step(state, w0, np.zeros(3), config)
        np.testing.assert_array_equal(w1, w0)  # adam included: moments stay exactly 0


def test_momentum_two_steps_match_hand_unrolled():
    # v1 = 0.5*0 + 2 = 2, w1 = 1 - 0.1*2 = 0.8
    # v2 = 0.5*2 + 2 = 3, w2 = 0.8 - 0.1*3 = 0.5
    config = OptimizerConfig(kind="momentum_gd", learning_rate=0.1, momentum=0.5)
    state = init_opt_state(config, 1)
    w = np.array([1.0])
    g = np.array([2.0])
    w, state = step(state, w, g, config)
    np.testing.assert_allclose(w, [0.8])
    w, state = step(state, w, g, config)
    np.testing.assert_allclose(w, [0.5])


def test_adam_first_step_matches_hand_computation():
    # m=0.2, v=0.004, m_hat=2, v_hat=4 -> w = 1 - 0.1 * 2/(2 + 1e-8)
    config = OptimizerConfig(kind="adam", learning_rate=0.1)
    state = init_opt_state(config, 1)
    w, _ = step(state, np.array([1.0]), np.array([2.0]), config)
    np.testing.assert_allclose(w, [1.0 - 0.1 * 2.0 / (2.0 + 1e-8)], atol=1e-15)


def test_step_rejects_bad_input():
    config = OptimizerConfig()
    state = init_opt_state(config, 2)
    with pytest.raises(ValueError):
        step(state, np.zeros(2), np.zeros(3), config)
    with pytest.raises(ValueError):
        step(state, np.zeros(2), np.array([np.nan, 0.0]), config)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(kind="momentum_gd", momentum=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(kind="sgd_magic")


def test_vanilla_descent_converges_on_quadratic():
    # f(w) = |w|^2, grad = 2w
    config = OptimizerConfig(learning_rate=0.1)
    state = init_opt_state(config, 2)
    w = np.array([1.0, 1.0])
    for _ in range(100):
        w, state = step(state, w, 2.0 * w, config)
    assert np.linalg.norm(w) < 1e-4


# -- ledger --------------------------------------------------------------------


def test_ledger_total_is_sum_and_merge_adds():
    a, b = BudgetLedger(), BudgetLedger()
    a.training_gradients.increment(10)
    a.scoring.increment(4)
    b.kernel.increment(7)
    b.training_forward.increment(1)
    a.merge(b)
    assert a.as_dict() == {
        "training_gradients": 10,
        "training_forward": 1,
        "scoring": 4,
        "kernel": 7,
        "total": 22,
    }


# -- train_epochs accounting and control flow -----------------------------------


def _fit_qnn(n_samples, batch_size, n_epochs, n_layers, threshold):
    """1-wire circuit with n_layers params on synthetic two-class data.

    Samples come in duplicate pairs carrying both labels, so accuracy is
    pinned at exactly 0.5 and a threshold of 1.0 is never reached.
    """
    circuit = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,) * n_layers)
    rng = PortableRng(1)
    X, y = [], []
    for i in range(n_samples // 2):
        value = rng.uniform(-2, 2)
        X += [[value], [value]]
        y += [0, 1]
    model = QNNClassifier(
        circuit,
        batch_size=batch_size,
        n_epochs=n_epochs,
        accuracy_threshold=threshold,
        seed=0,
    )
    ledger = BudgetLedger()
    model.fit(np.array(X), np.array(y), ledger)
    return model, ledger


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [8, 20])
@pytest.mark.parametrize("b", [4, 20])
@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_cost_model_exact_over_sweep(p, n, b, e):
    model, ledger = _fit_qnn(n, b, e, p, threshold=1.0)  # unreachable: all epochs run
    gradients, scoring = qnn_fit_cost(p, n, e)
    assert ledger.training_gradients.total_calls == gradients
    assert ledger.scoring.total_calls == scoring
    assert ledger.training_forward.total_calls == 0
    assert ledger.total == gradients + scoring


def _spy_runs(monkeypatch):
    """The number of circuits in each simulation (run_circuit and every slice of
    a merged run go through simulator._simulate), in call order."""
    runs, simulate = [], qmlfinder.simulator._simulate

    def spy(*args):
        state = simulate(*args)
        runs.append(len(state.amplitudes))
        return state

    monkeypatch.setattr(qmlfinder.simulator, "_simulate", spy)
    return runs


@pytest.mark.parametrize("n, b, e", [(8, 3, 2), (8, 8, 3), (20, 4, 1), (10, 4, 2)])
def test_full_length_fit_runs_each_check_with_the_next_first_batch(monkeypatch, n, b, e):
    runs = _spy_runs(monkeypatch)
    model, ledger = _fit_qnn(n, b, e, 2, threshold=1.0)
    assert model.epochs_run == e
    # E + 1 checks, the first E of them sharing a run with a first batch,
    # then each epoch's other batches alone
    assert len(runs) == e + 1 + e * (-(-n // b) - 1)
    assert sum(runs) == ledger.total == sum(qnn_fit_cost(2, n, e))


def test_zero_epoch_fit_simulates_the_training_rows_only(monkeypatch):
    runs = _spy_runs(monkeypatch)
    _, ledger = _fit_qnn(12, 4, 0, 2, threshold=1.0)
    assert runs == [12] and ledger.total == 12


def test_qnn_fit_embeds_its_rows_once_and_builds_no_layer_gate(monkeypatch):
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER, STRONGLY_ENTANGLING))
    # compiled once per circuit shape, from gates built at probe weights
    assert qmlfinder.simulator._plan(spec.n_wires, spec.layer_kinds)
    embedded, built = [], []
    embedding_ops, post_init = CircuitSpec.embedding_ops, Gate.__post_init__

    def spy_embedding(self, x):
        embedded.append(np.shape(x))
        return embedding_ops(self, x)

    def spy_gate(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(CircuitSpec, "embedding_ops", spy_embedding)
    monkeypatch.setattr(Gate, "__post_init__", spy_gate)
    X, y = make_blobs(0, 6, [(0.6, 0.6), (-0.6, -0.6)], 1.2)
    model = QNNClassifier(spec, batch_size=5, n_epochs=3, accuracy_threshold=1.0, seed=0)
    model.fit(X, y, BudgetLedger())
    assert model.epochs_run == 3  # 4 checks and 9 batches, in 10 merged runs
    assert embedded == [(2, 12)]  # feature-major: X's 12 rows, once
    assert built == ["RX", "RX"]  # the embedding's gates, one per wire


def _fit_blobs(n_epochs, threshold):
    # overlapping blobs: accuracy moves between epochs and never reaches 1.0
    X, y = make_blobs(0, 6, [(0.6, 0.6), (-0.6, -0.6)], 1.2)
    model = QNNClassifier(CircuitSpec(2, ANGLE, (STRONGLY_ENTANGLING,)), batch_size=5,
                          n_epochs=n_epochs, accuracy_threshold=threshold, seed=0)
    ledger = BudgetLedger()
    model.fit(X, y, ledger)
    return model, ledger


def test_fit_stopped_by_its_threshold_books_the_closed_form(monkeypatch):
    scores = [_fit_blobs(k, 1.0)[0].train_score for k in range(4)]
    assert max(scores) < 1.0
    e = next(k for k in range(1, 4) if scores[k] > max(scores[:k]))
    runs = _spy_runs(monkeypatch)
    model, ledger = _fit_blobs(9, scores[e])
    n, p = 12, model.circuit.param_count
    assert model.epochs_run == e
    assert ledger.as_dict() == {"training_gradients": 2 * p * n * e, "training_forward": 0,
                                "scoring": n * (e + 1), "kernel": 0,
                                "total": 2 * p * n * e + n * (e + 1)}
    # the stopping check also simulated epoch e + 1's first batch, never booked
    assert sum(runs) == ledger.total + 2 * p * 5


def test_threshold_zero_stops_at_precheck():
    model, ledger = _fit_qnn(12, 4, 5, 2, threshold=0.0)
    assert model.epochs_run == 0
    assert ledger.total == 12  # exactly N scoring calls
    assert ledger.as_dict()["scoring"] == 12


def test_zero_epochs_leaves_weights_unchanged():
    circuit = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,))
    model = QNNClassifier(circuit, batch_size=4, n_epochs=0, accuracy_threshold=1.0, seed=3)
    before = model.weights.copy()
    ledger = BudgetLedger()
    model.fit(np.array([[0.1], [0.9], [-0.4], [1.2]]), np.array([0, 1, 0, 1]), ledger)
    np.testing.assert_array_equal(model.weights, before)
    assert ledger.total == 4


def test_ledger_example_p4_n20_b20_e2():
    _, ledger = _fit_qnn(20, 20, 2, 4, threshold=1.0)
    assert ledger.training_gradients.total_calls == 2 * 4 * 20 * 2 == 320
    assert ledger.scoring.total_calls == 20 * 3 == 60


def test_batch_order_deterministic_and_epoch_indexed():
    # same seed/epoch -> same permutation; different epoch -> different stream
    order1 = list(range(10))
    order2 = list(range(10))
    PortableRng(derive_seed(5, 1)).shuffle(order1)
    PortableRng(derive_seed(5, 1)).shuffle(order2)
    assert order1 == order2
    order3 = list(range(10))
    PortableRng(derive_seed(5, 2)).shuffle(order3)
    assert order1 != order3


def test_epoch_order_cache_keeps_a_study_cycle_of_orders(monkeypatch):
    # 4 repeat seeds x 40 epochs: each trial of a study draws these 160 orders
    # in turn, which a 128-entry least-recently-used cache never hits
    monkeypatch.setattr(training, "_ORDERS", {})
    keys = [(derive_seed(77, seed), epoch) for seed in range(4) for epoch in range(1, 41)]
    first = [_epoch_order(seed, epoch, 20) for seed, epoch in keys]
    assert all(_epoch_order(seed, epoch, 20) is order for (seed, epoch), order in zip(keys, first))


def test_epoch_order_cache_empties_itself_at_its_bound(monkeypatch):
    monkeypatch.setattr(training, "_ORDERS", {})
    monkeypatch.setattr(training, "_ORDERS_BOUND", 50)  # row indices
    a, b = _epoch_order(1, 1, 20), _epoch_order(1, 2, 20)
    assert _epoch_order(1, 1, 20) is a and _epoch_order(1, 2, 20) is b  # 40 held
    c = _epoch_order(1, 3, 20)  # 60 would pass the bound: the cache empties first
    assert list(training._ORDERS) == [(1, 3, 20)] and training._ORDERS[1, 3, 20] is c
    assert _epoch_order(1, 1, 20) is not a and _epoch_order(1, 1, 20).tolist() == a.tolist()


def test_train_epochs_threshold_unreachable_runs_all():
    def evaluate(w, check, batch):
        return np.full(len(check), float(w[0])), np.ones((len(batch), 1))

    ledger = BudgetLedger()
    result = train_epochs(
        weights=[0.0],
        X=np.zeros((6, 1)),
        targets=np.zeros(6),
        evaluate=evaluate,
        score_fn=lambda v, t: 0.5,
        ledger=ledger,
        opt_config=OptimizerConfig(learning_rate=0.1),
        batch_size=4,  # last partial batch (2 samples) is kept
        n_epochs=3,
        threshold=1.1,
        seed=0,
    )
    assert result.epochs_run == 3
    assert ledger.training_gradients.total_calls == 2 * 1 * 6 * 3
    assert ledger.scoring.total_calls == 6 * 4


def test_train_epochs_stops_when_threshold_met():
    calls = {"n": 0}

    def score(values, targets):
        calls["n"] += 1
        return 1.0 if calls["n"] >= 3 else 0.0  # met after epoch 2's check

    result = train_epochs(
        weights=[0.0],
        X=np.zeros((4, 1)),
        targets=np.zeros(4),
        evaluate=lambda w, check, batch: (np.zeros(len(check)), np.full((len(batch), 1), 0.1)),
        score_fn=score,
        ledger=BudgetLedger(),
        opt_config=OptimizerConfig(),
        batch_size=2,
        n_epochs=9,
        threshold=1.0,
        seed=0,
    )
    assert result.epochs_run == 2
