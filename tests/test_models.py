"""Model-family behavior: decision rules, training, kernels, clustering."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qmlfinder import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    BudgetLedger,
    CallCounter,
    CircuitSpec,
    OptimizerConfig,
    PortableRng,
    QEKClassifier,
    QNNClassifier,
    QNNRegressor,
    RBMClusterer,
    ScoreUndefinedError,
    default_registry,
    fidelity,
    kernel_matrix,
    model_from_spec,
    model_to_spec,
    run_circuit,
    silhouette_score,
)
from qmlfinder.models import RBM, BinaryEncoder, _rescale, _sigmoid
from qmlfinder.training import train_epochs

from conftest import make_blobs
from oracles import (
    brute_silhouette,
    gate_loop_merged,
    ref_expectation_z,
    ref_run_circuit,
    ref_silhouette,
    ref_train_autoencoder,
    training_kernel_cost,
    two_run_cross_kernel,
)


# -- QNN classifier -------------------------------------------------------------


def test_qnn_predict_zero_circuit_gives_class_zero():
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, ()), batch_size=4, n_epochs=1, accuracy_threshold=0.9
    )
    X = np.array([[0.0, 0.0]])
    p_one = (1.0 - model.expectations(X, CallCounter())) / 2.0
    assert model.predict(X, CallCounter()).tolist() == [0] and p_one.tolist() == [0.0]


def test_qnn_predict_flipped_wire_gives_class_one():
    # ANGLE embeds RX(pi) on wire 0: |0> -> |1>, so <Z_0> = -1 and p(1) = 1
    model = QNNClassifier(
        CircuitSpec(1, ANGLE, ()), batch_size=4, n_epochs=1, accuracy_threshold=0.9
    )
    X = np.array([[np.pi]])
    p_one = (1.0 - model.expectations(X, CallCounter())) / 2.0
    assert model.predict(X, CallCounter()).tolist() == [1] and abs(p_one[0] - 1.0) < 1e-12


def test_qnn_predict_counts_one_call_per_sample():
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)),
        batch_size=4,
        n_epochs=1,
        accuracy_threshold=0.9,
    )
    counter = CallCounter()
    model.predict(np.zeros((7, 2)), counter)
    assert counter.total_calls == 7


def test_qnn_labels_match_sign_oracle():
    rng = PortableRng(12)
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER, STRONGLY_ENTANGLING))
    model = QNNClassifier(spec, batch_size=4, n_epochs=1, accuracy_threshold=0.9, seed=5)
    for _ in range(20):
        x = [rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)]
        expected_state = ref_run_circuit(2, "ANGLE", spec.layer_names(), model.weights, x)
        f = ref_expectation_z(expected_state, 0, 2)
        assert model.predict(np.array([x]), CallCounter()).tolist() == [1 if f <= 0 else 0]


def test_qnn_fit_requires_both_classes_and_data():
    model = QNNClassifier(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,)),
        batch_size=2,
        n_epochs=1,
        accuracy_threshold=0.9,
    )
    with pytest.raises(ValueError):
        model.fit(np.zeros((3, 1)), np.array([1, 1, 1]), BudgetLedger())
    with pytest.raises(ValueError):
        model.fit(np.zeros((0, 1)), np.array([]), BudgetLedger())
    with pytest.raises(ValueError):
        model.fit(np.zeros((2, 1)), np.array([0, 2]), BudgetLedger())


def test_qnn_learns_separable_blobs(blobs40):
    X, y = blobs40
    model = QNNClassifier(
        CircuitSpec(2, ANGLE, (BASIC_ENTANGLER, BASIC_ENTANGLER)),
        batch_size=20,
        n_epochs=30,
        accuracy_threshold=0.95,
        seed=0,
    )
    model.fit(X, y, BudgetLedger(), optimizer=OptimizerConfig(learning_rate=0.1))
    assert model.train_score >= 0.9


def test_qnn_fit_is_seed_deterministic(blobs40):
    X, y = blobs40
    results = []
    for _ in range(2):
        model = QNNClassifier(
            CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)),
            batch_size=15,
            n_epochs=3,
            accuracy_threshold=1.0,
            seed=7,
        )
        ledger = BudgetLedger()
        model.fit(X, y, ledger)
        results.append((model.weights.tobytes(), ledger.total))
    assert results[0] == results[1]


def _spy_requests(monkeypatch):
    """The number of requests of each MergedRuns call, in call order."""
    import qmlfinder.simulator as simulator

    sizes, call = [], simulator.MergedRuns.__call__
    monkeypatch.setattr(simulator.MergedRuns, "__call__",
                        lambda self, requests: sizes.append(len(requests)) or call(self, requests))
    return sizes


def test_a_lockstep_trains_each_distinct_fit_once(monkeypatch):
    # N = 6 rows: batch sizes 6 and 9 are each one batch of the whole shuffled
    # order, so those two fits train alike; batch size 4 is two batches
    X, y = make_blobs(2, 3, [(0.6, 0.6), (-0.6, -0.6)], 1.2)
    spec = CircuitSpec(2, ANGLE, (STRONGLY_ENTANGLING,))
    lead, twin, other = (QNNClassifier(spec, batch_size=batch_size, n_epochs=2,
                                       accuracy_threshold=1.0, seed=5)
                         for batch_size in (6, 9, 4))
    sizes = _spy_requests(monkeypatch)
    QNNClassifier.prepare([lead, twin, other], X, y)
    # 3 runs of the lead (2 epochs of one batch, a last check) beside the
    # other's 5 (2 epochs of two batches, a last check): the twin asks nothing
    assert sizes == [2, 2, 2, 1, 1]
    _, targets, score_fn, _ = QNNClassifier._fit_data(X, y)
    for model in (lead, twin, other):
        want = BudgetLedger()
        result = train_epochs(
            weights=model.weights.copy(), X=X, targets=targets, score_fn=score_fn, ledger=want,
            evaluate=lambda w, check, batch: gate_loop_merged(spec, w, X, check, batch, 0),
            opt_config=OptimizerConfig(), batch_size=model.batch_size, n_epochs=2,
            threshold=1.0, seed=5)
        got = BudgetLedger()
        model.fit(X, y, got)
        assert model.weights.tobytes() == result.weights.tobytes()
        assert model.epochs_run == result.epochs_run == 2
        assert np.float64(model.train_score).tobytes() == np.float64(result.final_score).tobytes()
        assert got.as_dict() == want.as_dict()
    assert not np.shares_memory(lead.weights, twin.weights)
    assert lead.weights.tobytes() != other.weights.tobytes()


def test_a_twin_of_a_failing_fit_raises_its_error(monkeypatch):
    # an all-zero row has no AMPLITUDE embedding, so the lead's training raises
    X, y = make_blobs(2, 3, [(0.6, 0.6), (-0.6, -0.6)], 1.2)
    X[2] = 0.0
    spec = CircuitSpec(1, AMPLITUDE, (BASIC_ENTANGLER,))
    lead, twin = (QNNClassifier(spec, batch_size=batch_size, n_epochs=1,
                                accuracy_threshold=1.0, seed=5) for batch_size in (6, 7))
    sizes = _spy_requests(monkeypatch)
    QNNClassifier.prepare([lead, twin], X, y)
    assert sizes == [1]
    message = "^AMPLITUDE embedding of an all-zero vector is undefined$"
    for model in (lead, twin, QNNClassifier(spec, batch_size=6, n_epochs=1,
                                            accuracy_threshold=1.0, seed=5)):
        ledger = BudgetLedger()
        with pytest.raises(ValueError, match=message):
            model.fit(X, y, ledger)
        assert ledger.total == 0

def test_a_row_an_embedding_refuses_raises_before_any_circuit_runs(monkeypatch):
    # X fits one slice, so the lockstep's first merged run embeds every
    # request's rows before its first group runs: the AMPLITUDE fit's all-zero
    # row raises there, and only the ANGLE fits' own circuits are simulated,
    # each once, when the requests run alone
    import qmlfinder.simulator as simulator

    X, y = make_blobs(2, 3, [(0.6, 0.6), (-0.6, -0.6)], 1.2)
    X[2] = 0.0
    angle = CircuitSpec(2, ANGLE, (STRONGLY_ENTANGLING,))
    fits = [QNNClassifier(angle, batch_size=6, n_epochs=1, accuracy_threshold=1.0, seed=seed)
            for seed in range(4)]
    fits.append(QNNClassifier(CircuitSpec(1, AMPLITUDE, (BASIC_ENTANGLER,)), batch_size=6,
                              n_epochs=1, accuracy_threshold=1.0, seed=0))
    simulated, simulate = [], simulator._simulate

    def spy(*args):
        state = simulate(*args)
        simulated.append(len(state.amplitudes))
        return state

    monkeypatch.setattr(simulator, "_simulate", spy)
    QNNClassifier.prepare(fits, X, y)
    monkeypatch.setattr(simulator, "_simulate", simulate)
    booked = 0
    for model in fits[:4]:  # each as trained alone
        alone, ledger, want = model.reseeded(model.seed), BudgetLedger(), BudgetLedger()
        model.fit(X, y, ledger)
        alone.fit(X, y, want)
        assert model.weights.tobytes() == alone.weights.tobytes()
        assert ledger.as_dict() == want.as_dict()
        booked += ledger.total
    assert sum(simulated) == booked
    with pytest.raises(ValueError, match="^AMPLITUDE embedding of an all-zero vector"):
        fits[4].fit(X, y, BudgetLedger())



# -- QNN regressor ---------------------------------------------------------------


def test_regressor_constant_targets_rejected():
    model = QNNRegressor(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,)), batch_size=4, n_epochs=1, r2_threshold=0.9
    )
    with pytest.raises(ValueError):
        model.fit(np.array([[0.1], [0.2]]), np.array([3.0, 3.0]), BudgetLedger())


def test_regressor_refuses_a_target_range_past_the_float_range():
    circuit = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,))
    model = QNNRegressor(circuit, batch_size=4, n_epochs=1, r2_threshold=0.9)
    with pytest.raises(ValueError, match="^target range -1e\\+308 to 1e\\+308 overflows"):
        model.fit(np.array([[0.1], [0.2]]), np.array([-1e308, 1e308]), BudgetLedger())
    with pytest.raises(ValueError, match="^target range"):
        QNNRegressor(circuit, batch_size=4, n_epochs=1, r2_threshold=0.9, target_min=-1e308,
                     target_max=1e308)


def test_regressor_rescales_a_range_above_half_the_float_range():
    # 2 * (y - min) would overflow; the rescaled targets still span [-1, 1]
    assert _rescale(np.array([0.0, 0.75e308, 1.5e308]), 0.0, 1.5e308).tolist() == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("extras", [{"batch_size": 0}, {"batch_size": True},
                                    {"batch_size": 2.0}, {"n_epochs": -1},
                                    {"n_epochs": 1.5}, {"n_epochs": "1"},
                                    {"accuracy_threshold": "0.5"},
                                    {"accuracy_threshold": False}])
def test_qnn_refuses_options_of_the_wrong_type(extras):
    options = {"batch_size": 2, "n_epochs": 1, "accuracy_threshold": 0.5, **extras}
    (name,) = extras
    with pytest.raises(ValueError, match=f"^{name} must be"):
        QNNClassifier(CircuitSpec(1, ANGLE, ()), **options)


def test_qnn_accepts_numpy_integer_options():
    model = QNNClassifier(CircuitSpec(1, ANGLE, ()), batch_size=np.int64(2),
                          n_epochs=np.int32(0), accuracy_threshold=np.float64(0.5))
    assert (model.batch_size, model.n_epochs, model.accuracy_threshold) == (2, 0, 0.5)


CLUSTERER_OPTIONS = {"input_size": 3, "encoder_layers": 1, "latent_size": 2, "n_hidden": 1,
                     "firing_threshold": 0.5, "n_epochs": 2}


@pytest.mark.parametrize("extras", [
    *({name: value} for name in ("input_size", "encoder_layers", "latent_size", "n_hidden",
                                 "n_epochs")
      for value in ("x", [1, 2], True, 2.0, None)),
    {"input_size": 1}, {"encoder_layers": 0}, {"latent_size": 0}, {"n_hidden": 0},
    {"n_epochs": -1}, {"firing_threshold": "0.5"}, {"firing_threshold": True},
    {"firing_threshold": 1.0},
])
def test_clusterer_refuses_options_of_the_wrong_type(extras):
    (name,) = extras
    with pytest.raises(ValueError, match=f"^{name} must be"):
        RBMClusterer(**{**CLUSTERER_OPTIONS, **extras})


def test_clusterer_accepts_numpy_options():
    options = {name: np.int64(value) for name, value in CLUSTERER_OPTIONS.items()}
    model = RBMClusterer(**{**options, "firing_threshold": np.float64(0.5)})
    assert [getattr(model, name) for name in CLUSTERER_OPTIONS] == [*CLUSTERER_OPTIONS.values()]


@pytest.mark.parametrize("ridge_lambda", ["x", True, None, [1e-3], 0.0, -1.0, float("nan"),
                                          float("inf")])
def test_qek_refuses_a_ridge_lambda_that_is_not_a_positive_number(ridge_lambda):
    with pytest.raises(ValueError, match="^ridge_lambda must be"):
        QEKClassifier(CircuitSpec(1, ANGLE, ()), ridge_lambda=ridge_lambda)


def test_regressor_inverse_map_midpoint():
    model = QNNRegressor(
        CircuitSpec(1, ANGLE, ()),
        batch_size=4,
        n_epochs=1,
        r2_threshold=0.9,
        target_min=0.0,
        target_max=10.0,
    )
    # zero-layer circuit on x = pi/2 gives <Z> = cos(pi/2) = 0 -> midpoint 5
    value = model.predict(np.array([[np.pi / 2]]), CallCounter())[0]
    assert abs(value - 5.0) < 1e-12


def test_regressor_training_reduces_mse(sine20):
    X, y = sine20
    model = QNNRegressor(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,) * 3),
        batch_size=20,
        n_epochs=10,
        r2_threshold=2.0,  # unreachable: run all epochs
        seed=0,
    )
    before = QNNRegressor(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,) * 3),
        batch_size=20,
        n_epochs=0,
        r2_threshold=2.0,
        seed=0,
    )
    before.fit(X, y, BudgetLedger())
    mse_before = np.mean((before.predict(X, CallCounter()) - y) ** 2)
    model.fit(X, y, BudgetLedger(), optimizer=OptimizerConfig(learning_rate=0.1))
    mse_after = np.mean((model.predict(X, CallCounter()) - y) ** 2)
    assert mse_after < mse_before


def test_regressor_perfect_fit_is_training_noop():
    # with weight 0 the 1-wire circuit outputs cos(x); targets hitting exactly
    # [-1, 1] make the rescale the identity, so residuals and updates vanish
    model = QNNRegressor(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,)),
        batch_size=2,
        n_epochs=5,
        r2_threshold=2.0,
        seed=0,
        weights=[0.0],
    )
    X = np.array([[0.0], [np.pi]])
    y = np.array([1.0, -1.0])  # equals cos(x) on these inputs
    model.fit(X, y, BudgetLedger())
    np.testing.assert_array_equal(model.weights, [0.0])
    preds = model.predict(X, CallCounter())
    assert float(np.sum((preds - y) ** 2)) < 1e-24


def test_regressor_score_is_r_squared(sine20):
    X, y = sine20
    model = QNNRegressor(
        CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,) * 3),
        batch_size=20,
        n_epochs=10,
        r2_threshold=2.0,
        seed=0,
    )
    model.fit(X, y, BudgetLedger(), optimizer=OptimizerConfig(learning_rate=0.1))
    preds = model.predict(X, CallCounter())
    expected = 1 - np.sum((y - preds) ** 2) / np.sum((y - y.mean()) ** 2)
    assert abs(model.score(X, y, CallCounter()) - expected) < 1e-12
    assert model.score(X, y, CallCounter()) > 0.9


# -- kernels and QEK --------------------------------------------------------------


def _feature_map():
    return CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,) * 3)


def test_training_kernel_unit_diagonal_without_calls():
    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    counter = CallCounter()
    K = kernel_matrix(_feature_map(), np.zeros(6), X, X, counter)
    np.testing.assert_array_equal(np.diag(K), np.ones(3))
    assert counter.total_calls == training_kernel_cost(3)


def test_training_kernel_symmetric_bitwise():
    rng = PortableRng(3)
    X = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(5)])
    w = np.array(rng.uniforms(6, 0, np.pi))
    K = kernel_matrix(_feature_map(), w, X, X, CallCounter())
    assert np.array_equal(K, K.T)


def test_four_point_training_kernel_costs_twelve_calls():
    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    counter = CallCounter()
    kernel_matrix(_feature_map(), np.zeros(6), X, X, counter)
    assert counter.total_calls == 12  # 6 pairs, 2 executions each


def test_cross_kernel_shape_and_cost():
    X1 = np.array([[0.1, 0.2], [0.3, 0.4]])
    X2 = np.array([[0.5, 0.6], [0.7, 0.8], [0.9, 1.0]])
    counter = CallCounter()
    K = kernel_matrix(_feature_map(), np.zeros(6), X1, X2, counter)
    assert K.shape == (2, 3)
    assert counter.total_calls == 2 * 2 * 3


def test_kernel_psd_on_random_feature_maps():
    rng = PortableRng(88)
    for _ in range(25):
        n = rng.randint(2, 12)
        spec = CircuitSpec(2, ANGLE, (rng.choice([BASIC_ENTANGLER, STRONGLY_ENTANGLING]),))
        w = np.array(rng.uniforms(spec.param_count, 0, np.pi))
        X = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(n)])
        K = kernel_matrix(spec, w, X, X, CallCounter())
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_kernel_matrix_matches_pairwise_fidelity():
    rng = PortableRng(404)
    for embedding in (ANGLE, AMPLITUDE):
        for n_wires in (1, 2, 3):
            spec = CircuitSpec(n_wires, embedding, (rng.choice([BASIC_ENTANGLER,
                                                                 STRONGLY_ENTANGLING]),))
            w = np.array(rng.uniforms(spec.param_count, 0, np.pi))
            n_features = embedding.max_features(n_wires)
            X = np.array([rng.uniforms(n_features, 0.1, 2.0) for _ in range(4)])
            X = np.vstack([X, X[1]])  # a repeated row
            X2 = np.vstack([X[3], rng.uniforms(n_features, 0.1, 2.0)])
            for A, B, calls in ((X, X, len(X) * (len(X) - 1)), (X, X2, 2 * len(X) * len(X2))):
                counter = CallCounter()
                K = kernel_matrix(spec, w, A, B, counter)
                expected = [
                    [fidelity(run_circuit(spec, w, a, CallCounter()),
                              run_circuit(spec, w, b, CallCounter())) for b in B]
                    for a in A
                ]
                np.testing.assert_allclose(K, expected, rtol=0, atol=1e-12)
                assert counter.total_calls == calls


def test_cross_kernel_with_no_rows_is_empty_and_free():
    X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    no_rows, no_features = np.empty((0, 2)), np.empty((0, 0))  # `_rows([])` is (0, 0)
    for X1, X2, shape in ((X, no_rows, (3, 0)), (X, no_features, (3, 0)),
                          (no_features, X, (0, 3)), (no_rows, no_features, (0, 0))):
        counter = CallCounter()
        K = kernel_matrix(_feature_map(), np.zeros(6), X1, X2, counter)
        assert K.shape == shape
        assert counter.total_calls == 0


@pytest.mark.parametrize("n_wires", [1, 2, 3, 4])
@pytest.mark.parametrize("embedding", [ANGLE, AMPLITUDE], ids=lambda kind: kind.name)
def test_cross_kernel_in_one_run_equals_two_runs_bit_for_bit(embedding, n_wires):
    rng = PortableRng(505 + n_wires)
    spec = CircuitSpec(n_wires, embedding, (STRONGLY_ENTANGLING, BASIC_ENTANGLER))
    w = np.array(rng.uniforms(spec.param_count, 0, np.pi))
    n_features = embedding.max_features(n_wires)
    X1 = np.array([rng.uniforms(n_features, 0.1, 2.0) for _ in range(5)])
    X2 = np.array([rng.uniforms(n_features, 0.1, 2.0) for _ in range(3)])
    for A, B in ((X1, X2), (X2, X1), (X1[:1], X2), (X1, X1[:4])):
        counter = CallCounter()
        K = kernel_matrix(spec, w, A, B, counter)
        assert K.shape == (len(A), len(B))
        assert K.tobytes() == two_run_cross_kernel(spec, w, A, B).tobytes()
        assert counter.total_calls == 2 * len(A) * len(B)


def test_restored_qek_predict_simulates_each_row_once(blobs8, monkeypatch):
    import qmlfinder.models

    X, y = blobs8
    model = QEKClassifier(_feature_map(), ridge_lambda=1e-3, seed=0)
    model.fit(X, y, BudgetLedger())
    restored = model_from_spec(model_to_spec(model, 2, {}), default_registry())
    runs = []

    def counting_run_circuit(*args):
        runs.append(len(args[2]))  # the rows simulated by this call
        return run_circuit(*args)

    monkeypatch.setattr(qmlfinder.models, "run_circuit", counting_run_circuit)
    X_new = np.array([[0.2, 0.3], [-0.8, -1.1], [1.0, 0.9], [0.0, -0.4], [1.5, 1.2]])
    counter = CallCounter()
    restored.predict(X_new, counter)
    n, m = len(X), len(X_new)
    assert runs == [n + m]  # support and input rows in one run
    assert counter.total_calls == 2 * n * m


def test_model_entry_points_read_X_as_rows(blobs8):
    X, y = blobs8
    classifier = QNNClassifier(_feature_map(), batch_size=4, n_epochs=1, accuracy_threshold=0.9)
    regressor = QNNRegressor(_feature_map(), batch_size=4, n_epochs=1, r2_threshold=0.9,
                             target_min=-1.0, target_max=1.0)
    qek = QEKClassifier(_feature_map(), ridge_lambda=1e-3).fit(X, y, BudgetLedger())
    for model in (classifier, regressor, qek):
        for empty in ([], np.empty(0), np.empty((0, 2))):
            counter = CallCounter()
            assert model.predict(empty, counter).shape == (0,)
            assert counter.total_calls == 0
        with pytest.raises(ValueError, match=r"\(2,\)"):
            model.predict([0.1, 0.2], CallCounter())


def test_qek_fit_refuses_one_class_labels(blobs8):
    X, _ = blobs8
    model = QEKClassifier(_feature_map(), ridge_lambda=1e-3, seed=0)
    with pytest.raises(ValueError, match="both classes"):
        model.fit(X, np.zeros(len(X), dtype=int), BudgetLedger())


def test_qek_identity_kernel_closed_form():
    # (I + lambda I) alpha = t  ->  alpha = t / (1 + lambda)
    lam = 1e-3
    t = np.array([1.0, -1.0, 1.0])
    alpha = np.linalg.solve(np.eye(3) + lam * np.eye(3), t)
    np.testing.assert_allclose(alpha, t / (1 + lam), atol=1e-15)


def test_qek_requires_positive_lambda():
    with pytest.raises(ValueError):
        QEKClassifier(_feature_map(), ridge_lambda=0.0)


def test_qek_learns_small_separable_set(blobs8):
    X, y = blobs8
    model = QEKClassifier(_feature_map(), ridge_lambda=1e-3, seed=0)
    ledger = BudgetLedger()
    model.fit(X, y, ledger)
    assert model.train_score >= 0.9
    assert ledger.kernel.total_calls == training_kernel_cost(len(X))


def test_fitted_and_restored_qek_decide_and_book_alike(blobs8):
    # a fitted QEK keeps no kernel: on its support rows, as on new rows, it
    # computes and books through kernel_matrix exactly as its restored copy does
    X, y = blobs8
    model = QEKClassifier(_feature_map(), ridge_lambda=1e-3, seed=0)
    model.fit(X, y, BudgetLedger())
    restored = model_from_spec(model_to_spec(model, 2, {}), default_registry())
    n = len(X)
    for rows, calls in ((X, n * (n - 1)), (X[:3] + 0.25, 2 * n * 3)):
        fitted_counter, restored_counter = CallCounter(), CallCounter()
        got = model.decision_values(rows, fitted_counter)
        want = restored.decision_values(rows, restored_counter)
        assert got.tobytes() == want.tobytes()
        assert fitted_counter.total_calls == restored_counter.total_calls == calls
    assert not hasattr(model, "_train_kernel")


def test_qek_ridge_limit_shrinks_alpha_and_collapses_predictions():
    rng = PortableRng(9)
    X = np.array([[0.5 + rng.uniform(-0.1, 0.1), 0.5 + rng.uniform(-0.1, 0.1)] for _ in range(8)])
    y = np.array([0] * 6 + [1] * 2)  # one tight blob, imbalanced labels
    model = QEKClassifier(_feature_map(), ridge_lambda=1e6, seed=0)
    model.fit(X, y, BudgetLedger())
    assert np.abs(model.dual_coeffs).max() <= 2.0 / 1e6
    assert set(model.predict(X, CallCounter())) == {0}


def test_qek_decision_sign_invariant_under_positive_scaling(blobs8):
    X, y = blobs8
    model = QEKClassifier(_feature_map(), ridge_lambda=1e-3, seed=1)
    model.fit(X, y, BudgetLedger())
    base = model.predict(X, CallCounter())
    for c in (0.5, 3.0, 1e4):
        model.dual_coeffs = model.dual_coeffs * c
        np.testing.assert_array_equal(model.predict(X, CallCounter()), base)
        model.dual_coeffs = model.dual_coeffs / c


def test_qek_amplitude_feature_map_roundtrip(blobs8):
    X, y = blobs8
    spec = CircuitSpec(1, AMPLITUDE, (BASIC_ENTANGLER,) * 3)
    model = QEKClassifier(spec, ridge_lambda=1e-3, seed=0)
    model.fit(X, y, BudgetLedger())
    assert model.predict(X, CallCounter()).shape == (8,)


# -- encoder + RBM ----------------------------------------------------------------


def test_sigmoid_stable_at_extremes():
    values = _sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(values, [0.0, 0.5, 1.0], atol=1e-12)


def _masked_sigmoid(z):
    """The two-mask form `_sigmoid` replaced, kept as its bit-exact oracle."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def test_sigmoid_is_bit_equal_to_masked_form():
    tiny = np.finfo(float).tiny
    edges = np.array([0.0, -0.0, 709.0, -709.0, 1000.0, -1000.0, tiny, -tiny])
    rng = PortableRng(71)
    narrow = np.array(rng.uniforms(20_000, -40.0, 40.0))
    wide = np.array(rng.uniforms(20_000, -800.0, 800.0)).reshape(200, 100)
    for z in (edges, narrow, wide):
        assert np.array_equal(_sigmoid(z), _masked_sigmoid(z))


def test_sigmoid_in_place_is_bit_equal_at_the_edges():
    z = np.array([0.0, -0.0, 709.0, -709.0, 1000.0, -1000.0, np.nan])
    want = _masked_sigmoid(z)
    out = z.copy()
    assert _sigmoid(out, out=out) is out
    assert np.array_equal(out, want, equal_nan=True)
    assert np.isnan(out[-1]) and out[0] == out[1] == 0.5
    spare = np.empty_like(z)
    assert _sigmoid(z, out=spare) is spare and np.array_equal(spare, want, equal_nan=True)


def test_identity_encoder_layer_is_sigmoid_of_input():
    enc = BinaryEncoder(3, 1, 3, seed=0)
    enc.enc_weights[0] = np.eye(3)
    enc.enc_biases[0] = np.zeros(3)
    X = np.array([[0.2, -1.0, 3.0]])
    np.testing.assert_allclose(enc.encode(X), _sigmoid(X), atol=1e-15)


def _study_encoders(cluster_blobs):
    """The six encoders a cluster-blobs study trains together (depth 1-3 by
    latent 2-3, seed 0) and the min-max scaled 30 x 4 data they train on."""
    low, high = cluster_blobs.min(axis=0), cluster_blobs.max(axis=0)
    X = (cluster_blobs - low) / (high - low)
    return X, [BinaryEncoder(4, depth, latent, seed=0) for depth in (1, 2, 3) for latent in (2, 3)]


def _parameters(encoder):
    return [*encoder.enc_weights, *encoder.enc_biases, *encoder.dec_weights, *encoder.dec_biases]


def test_study_encoder_stack_equals_the_reference_loop_in_any_order(cluster_blobs):
    epochs, rate = RBMClusterer.encoder_epochs, RBMClusterer.encoder_learning_rate
    X, stacked = _study_encoders(cluster_blobs)
    _, permuted = _study_encoders(cluster_blobs)
    _, references = _study_encoders(cluster_blobs)
    stacked[0].train(X, epochs, rate, alongside=stacked[1:])
    first, *rest = (permuted[i] for i in (4, 1, 5, 0, 3, 2))
    first.train(X, epochs, rate, alongside=rest)
    for encoder, other, reference in zip(stacked, permuted, references):
        ref_train_autoencoder(reference.enc_weights + reference.dec_weights,
                              reference.enc_biases + reference.dec_biases, X, epochs, rate)
        for got, again, want in zip(_parameters(encoder), _parameters(other),
                                    _parameters(reference)):
            assert got.tobytes() == want.tobytes() and again.tobytes() == want.tobytes()


def test_study_encoder_stack_padding_never_surfaces(cluster_blobs):
    """Padded units are exact zeros: no floating-point fault or warning, and
    each encoder keeps its own finite arrays, which the encoder memo copies."""
    X, encoders = _study_encoders(cluster_blobs)
    before = [[(array, array.shape) for array in _parameters(e)] for e in encoders]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        encoders[0].train(X, RBMClusterer.encoder_epochs, RBMClusterer.encoder_learning_rate,
                          alongside=encoders[1:])
    for encoder, arrays in zip(encoders, before):
        for got, (array, shape) in zip(_parameters(encoder), arrays):
            assert got is array and got.shape == shape and np.isfinite(got).all()


def test_stack_as_wide_as_the_data_equals_lone_training_bit_for_bit():
    """At 16 features or more, padding a product's inner dimension from below
    16 to 16 or more can change how BLAS rounds it (OpenBLAS's Haswell
    kernels do), so the padded lockstep may differ from the plain per-encoder
    loop. That is why the property test compares the lockstep with that loop
    (`oracles.ref_train_autoencoder`) only on up to 8 features, where no
    padded width reaches 16. A lone encoder pads to its widest unit too, the
    data width, so encoders that start at the data width (every clusterer's)
    still equal lone training; this checks that at 16, 20 and 32 features."""
    for n_features in (16, 20, 32):
        X = np.random.default_rng(n_features).random((30, n_features))
        shapes = [(n_features, depth, latent, 7 * depth + latent)
                  for depth in (1, 2, 3) for latent in (2, 5, 10, 15)]
        together = [BinaryEncoder(*shape) for shape in shapes]
        together[0].train(X, 5, 0.5, alongside=together[1:])
        for shape, encoder in zip(shapes, together):
            alone = BinaryEncoder(*shape)
            alone.train(X, 5, 0.5)
            for got, want in zip(_parameters(encoder), _parameters(alone)):
                assert got.tobytes() == want.tobytes(), (n_features, shape)


def test_zero_weight_rbm_hidden_probs_are_sigmoid_of_bias():
    rbm = RBM(4, 3, seed=0)
    rbm.weights[:] = 0.0
    rbm.hidden_bias[:] = np.array([0.0, 1.0, -2.0])
    probs = rbm.hidden_probabilities(np.array([1.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(probs, _sigmoid(np.array([0.0, 1.0, -2.0])), atol=1e-15)


def test_cd1_reduces_reconstruction_error_on_bars_stripes(bars_stripes):
    rbm = RBM(16, 8, seed=0)
    initial = rbm.reconstruction_error(bars_stripes)
    for _ in range(100):
        rbm.cd1_epoch(bars_stripes, learning_rate=0.5)
    assert rbm.reconstruction_error(bars_stripes) < initial


def test_rbms_whose_sample_streams_differ_do_not_stack(bars_stripes):
    moved, fresh = RBM(16, 8, seed=0), RBM(16, 8, seed=0)
    RBM.stacked([moved, fresh])
    moved.cd1_epoch(bars_stripes)
    with pytest.raises(ValueError, match="sample stream"):
        RBM.stacked([moved, fresh])
    with pytest.raises(ValueError, match="sample stream"):
        RBM.stacked([RBM(16, 8, seed=0), RBM(16, 8, seed=1)])


def test_cluster_assignment_bit_encoding():
    model = RBMClusterer(
        input_size=2,
        encoder_layers=1,
        latent_size=2,
        n_hidden=2,
        firing_threshold=0.5,
        n_epochs=1,
        seed=0,
    )
    model.feature_min = np.zeros(2)
    model.feature_max = np.ones(2)
    # force hidden probabilities (0.9, 0.1): only unit 0 fires -> id 2**0 = 1
    model.rbm.weights[:] = 0.0
    model.rbm.hidden_bias = np.array([_logit(0.9), _logit(0.1)])
    assert model.cluster_assign([0.3, 0.7]) == 1
    # both below threshold -> cluster 0
    model.rbm.hidden_bias = np.array([_logit(0.2), _logit(0.1)])
    assert model.cluster_assign([0.3, 0.7]) == 0
    # only unit 1 fires -> id 2**1 = 2
    model.rbm.hidden_bias = np.array([_logit(0.1), _logit(0.9)])
    assert model.cluster_assign([0.3, 0.7]) == 2


def _logit(p):
    return float(np.log(p / (1 - p)))


def test_cluster_assignment_deterministic(cluster_blobs):
    model = RBMClusterer(
        input_size=4,
        encoder_layers=2,
        latent_size=2,
        n_hidden=2,
        firing_threshold=0.5,
        n_epochs=10,
        seed=0,
    )
    model.fit(cluster_blobs)
    first = model.predict(cluster_blobs)
    second = model.predict(cluster_blobs)
    np.testing.assert_array_equal(first, second)


def _per_row_cluster_ids(model, X):
    """The per-row assignment `predict` vectorizes: one row, one Python int."""
    ids = []
    for x in X:
        probs = model.rbm.hidden_probabilities(model._latent_bits(np.atleast_2d(x))[0])
        ids.append(sum(1 << j for j, fired in enumerate(probs >= model.firing_threshold)
                       if fired))
    return ids


def test_rbm_predict_matches_per_row_assignment(cluster_blobs):
    shapes = ((1, 2, 1, 0.5), (2, 3, 2, 0.45), (3, 3, 3, 0.6), (2, 2, 3, 0.35))
    for seed, (encoder_layers, latent_size, n_hidden, threshold) in enumerate(shapes):
        model = RBMClusterer(input_size=4, encoder_layers=encoder_layers,
                             latent_size=latent_size, n_hidden=n_hidden,
                             firing_threshold=threshold, n_epochs=10, seed=seed)
        model.fit(cluster_blobs)
        labels = model.predict(cluster_blobs)
        assert labels.shape == (len(cluster_blobs),)
        assert np.issubdtype(labels.dtype, np.integer)
        assert labels.tolist() == _per_row_cluster_ids(model, cluster_blobs)
        assert [model.cluster_assign(x) for x in cluster_blobs] == labels.tolist()


def test_cluster_ids_of_64_or_more_hidden_units_do_not_wrap():
    X = np.array([[0.1, 0.2], [0.3, 0.4]])
    for n_hidden in (63, 64, 70):
        model = RBMClusterer(input_size=2, encoder_layers=1, latent_size=2, n_hidden=n_hidden,
                             firing_threshold=0.5, n_epochs=1, seed=0)
        model.feature_min, model.feature_max = np.zeros(2), np.ones(2)
        model.rbm.weights[:] = 0.0
        model.rbm.hidden_bias = np.full(n_hidden, _logit(0.9))
        model.rbm.hidden_bias[1] = _logit(0.1)  # every unit but unit 1 fires
        expected = 2**n_hidden - 1 - 2
        assert model.predict(X).tolist() == [expected, expected]
        assert model.cluster_assign(X[0]) == expected


def test_rbm_predict_reads_X_as_rows(cluster_blobs):
    model = RBMClusterer(input_size=4, encoder_layers=1, latent_size=2, n_hidden=2,
                         firing_threshold=0.5, n_epochs=2, seed=0).fit(cluster_blobs)
    for empty in ([], np.empty(0), np.empty((0, 4))):
        labels = model.predict(empty)
        assert labels.shape == (0,)
        assert np.issubdtype(labels.dtype, np.integer)
    for bad in (cluster_blobs[0], cluster_blobs[None]):
        with pytest.raises(ValueError, match="2-D"):
            model.predict(bad)


def test_rbm_pipeline_touches_no_device_calls(cluster_blobs):
    ledger = BudgetLedger()
    model = RBMClusterer(
        input_size=4,
        encoder_layers=1,
        latent_size=2,
        n_hidden=1,
        firing_threshold=0.5,
        n_epochs=5,
        seed=0,
    )
    model.fit(cluster_blobs, None, ledger)
    model.score(cluster_blobs)
    assert ledger.total == 0


def _small_clusterer(seed=0):
    return RBMClusterer(input_size=4, encoder_layers=1, latent_size=2, n_hidden=1,
                        firing_threshold=0.5, n_epochs=5, seed=seed)


def test_rbm_train_score_is_the_silhouette_of_the_fitted_data(cluster_blobs):
    model, prepared = _small_clusterer(), _small_clusterer()
    RBMClusterer.prepare([prepared], cluster_blobs)
    assert model.train_score is None and prepared.train_score is None  # trained, not fitted
    model.fit(cluster_blobs, None, BudgetLedger())
    assert model.train_score == model.score(cluster_blobs) > 0.9
    assert prepared.fit(cluster_blobs, None, BudgetLedger()).train_score == model.train_score


def test_rbm_degenerate_fit_returns_and_its_train_score_raises(cluster_blobs):
    identical = np.ones((10, 4))  # every point lands in one cluster
    model = _small_clusterer().fit(identical, None, BudgetLedger())
    with pytest.raises(ScoreUndefinedError, match="silhouette undefined: all points share"):
        model.train_score
    seed_1 = _small_clusterer(seed=1).fit(cluster_blobs, None, BudgetLedger())  # one firing code
    with pytest.raises(ScoreUndefinedError, match="silhouette undefined"):
        seed_1.train_score


def test_rbm_refuses_a_feature_range_past_the_float_range(cluster_blobs):
    model = RBMClusterer(input_size=4, encoder_layers=1, latent_size=2, n_hidden=1,
                         firing_threshold=0.5, n_epochs=1, seed=0)
    X = cluster_blobs.copy()
    X[:2, 1] = [1e308, -1e308]
    with pytest.raises(ValueError, match="^feature 1 range -1e\\+308 to 1e\\+308 overflows"):
        model.fit(X, None, BudgetLedger())
    spec = model_to_spec(model.fit(cluster_blobs), 4, {})
    spec.extras["feature_min"][3], spec.extras["feature_max"][3] = -1e308, 1e308
    with pytest.raises(ValueError, match="^feature 3 range"):
        model_from_spec(spec, default_registry())


def test_rbm_validation():
    kwargs = dict(encoder_layers=1, n_hidden=1, firing_threshold=0.5, n_epochs=1, seed=0)
    with pytest.raises(ValueError):
        RBMClusterer(input_size=4, latent_size=0, **kwargs)
    with pytest.raises(ValueError):
        RBMClusterer(input_size=1, latent_size=1, **kwargs)
    with pytest.raises(ValueError):
        RBMClusterer(input_size=4, latent_size=2, encoder_layers=1, n_hidden=0,
                     firing_threshold=0.5, n_epochs=1, seed=0)


# -- silhouette --------------------------------------------------------------------


def test_silhouette_identical_point_clusters_is_one():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    assert silhouette_score(X, [0, 0, 1, 1]) == 1.0


def test_silhouette_four_point_hand_case_matches_brute_force():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    labels = [0, 0, 1, 1]
    ours = silhouette_score(X, labels)
    assert abs(ours - brute_silhouette(X, labels)) < 1e-12
    # closed form by symmetry: a = 1, b = (10 + sqrt(101)) / 2
    b = (10 + np.sqrt(101)) / 2
    assert abs(ours - (b - 1) / b) < 1e-12


def test_silhouette_matches_brute_force_on_random_partitions():
    rng = PortableRng(55)
    for _ in range(30):
        n = rng.randint(4, 12)
        X = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(n)])
        labels = [rng.randint(0, 2) for _ in range(n)]
        counts = {c: labels.count(c) for c in set(labels)}
        if len(counts) < 2 or min(counts.values()) == 1:
            continue
        assert abs(silhouette_score(X, labels) - brute_silhouette(X, labels)) < 1e-12


def test_silhouette_in_row_blocks_equals_the_full_difference_array_bit_for_bit():
    rng = np.random.default_rng(5)
    for n, features in ((30, 4), (6, 1), (400, 16)):  # 400 x 16 takes three blocks
        X = rng.normal(size=(n, features))
        labels = np.arange(n) % 3
        assert repr(silhouette_score(X, labels)) == repr(ref_silhouette(X, labels))


def test_silhouette_peak_memory_is_bounded_at_1000_rows():
    X = np.random.default_rng(6).normal(size=(1000, 16))
    labels = np.arange(1000) % 3
    tracemalloc.start()
    try:
        silhouette_score(X, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20  # the full (1000, 1000, 16) difference array alone is 128 MB


def test_silhouette_error_cases():
    X = np.eye(4)
    with pytest.raises(ScoreUndefinedError):
        silhouette_score(X, [1, 1, 1, 1])
    with pytest.raises(ScoreUndefinedError):
        silhouette_score(X, [0, 0, 0, 1])


def test_silhouette_bounds_on_random_instances():
    rng = PortableRng(66)
    checked = 0
    while checked < 1000:
        n = rng.randint(4, 10)
        X = np.array([[rng.uniform(-5, 5)] for _ in range(n)])
        labels = [rng.randint(0, 2) for _ in range(n)]
        counts = {c: labels.count(c) for c in set(labels)}
        if len(counts) < 2 or min(counts.values()) == 1:
            continue
        value = silhouette_score(X, labels)
        assert -1.0 <= value <= 1.0
        checked += 1


def test_score_type_validates_bounds():
    from qmlfinder import Score

    Score(0.5, "mean_accuracy")
    Score(-0.3, "silhouette")
    Score(-7.0, "r2")  # r2 is unbounded below
    with pytest.raises(ValueError):
        Score(1.2, "mean_accuracy")
    with pytest.raises(ValueError):
        Score(-1.5, "silhouette")


def test_accuracy_bounds_on_random_instances():
    rng = PortableRng(67)
    spec = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,))
    model = QNNClassifier(spec, batch_size=4, n_epochs=1, accuracy_threshold=0.5, seed=0)
    for _ in range(1000):
        X = np.array([[rng.uniform(-3, 3)] for _ in range(4)])
        y = np.array([rng.randint(0, 1) for _ in range(4)])
        score = model.score(X, y, CallCounter())
        assert 0.0 <= score <= 1.0
