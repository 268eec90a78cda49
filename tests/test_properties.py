"""Property tests (hypothesis): simulator, gradient training, encoder and RBM
training and generator invariants over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmlfinder.models import RBM, BinaryEncoder, _sigmoid
from qmlfinder.registry import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    CircuitSpec,
    LayerKind,
)
from qmlfinder.rng import PortableRng, derive_seed
from qmlfinder.simulator import (
    CallCounter,
    Gate,
    MergedRuns,
    cnot,
    expectation_z,
    gate_matrix,
    h,
    parameter_shift_gradient,
    pauli_z,
    rot,
    run_circuit,
    ry,
    rz,
)
from qmlfinder.training import BudgetLedger, OptimizerConfig, _epoch_order, train_epochs

from oracles import (
    gate_loop_merged,
    gate_loop_run,
    loop_gradient_sum,
    product_rot,
    ref_sigmoid,
    ref_train_autoencoder,
    sliced_gradient,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rot_angles(draw):
    """Three angles, each a Python float, numpy scalar, 0-d array or (n,) array."""
    n = draw(st.integers(0, 4))
    angle = st.one_of(
        FINITE,
        FINITE.map(np.float64),
        hnp.arrays(np.float64, (), elements=FINITE),
        hnp.arrays(np.float64, (n,), elements=FINITE),
    )
    return draw(angle), draw(angle), draw(angle)


@settings(deadline=None)
@given(rot_angles())
def test_rot_matrix_equals_the_product_form_bit_for_bit(angles):
    got, want = gate_matrix(Gate("ROT", (0,), angles)), product_rot(*angles)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def merged_runs(draw):
    """A circuit (ANGLE or AMPLITUDE, 1-4 wires, one or two layers of either
    kind), 1-D weights, a read-out wire, 0-6 scoring rows and a batch of 0-8
    rows drawn with repeats from them and from up to two rows not among them."""
    n_wires = draw(st.integers(1, 4))
    embedding = draw(st.sampled_from([ANGLE, AMPLITUDE]))
    layers = draw(st.lists(st.sampled_from([BASIC_ENTANGLER, STRONGLY_ENTANGLING]),
                           min_size=1, max_size=2))
    spec = CircuitSpec(n_wires, embedding, tuple(layers))
    weights = draw(hnp.arrays(np.float64, (spec.param_count,),
                              elements=st.floats(-2 * np.pi, 2 * np.pi)))
    n_rows = draw(st.integers(1, 6))
    n_features = draw(st.integers(1, embedding.max_features(n_wires)))
    pool = draw(hnp.arrays(np.float64, (n_rows + draw(st.integers(0, 2)), n_features),
                           elements=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)))
    X = pool[:n_rows]
    batch = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    scored = X if draw(st.booleans()) else X[:0]  # later batches run without scoring
    return spec, weights, draw(st.integers(0, n_wires - 1)), scored, pool[batch]


@settings(deadline=None)
@given(merged_runs())
def test_merged_run_equals_the_separate_runs_bit_for_bit(case):
    spec, w, wire, X, rows = case
    runs = MergedRuns(spec, np.concatenate([X, rows]), wire)
    values, grads = runs(w, np.arange(len(X)), len(X) + np.arange(len(rows)))
    # the 1-D weights build the layer gates from 0-d angles; the merged run
    # gives each circuit its own row of weights
    want = expectation_z(run_circuit(spec, w, X, CallCounter()), wire)
    assert values.shape == want.shape and values.tobytes() == want.tobytes()
    alone, wrapped = CallCounter(), CallCounter()
    want = sliced_gradient(spec, w, rows, wire, alone)
    assert grads.shape == (len(rows), spec.param_count) and grads.tobytes() == want.tobytes()
    assert parameter_shift_gradient(spec, w, rows, wire, wrapped).tobytes() == want.tobytes()
    assert wrapped.total_calls == alone.total_calls == 2 * spec.param_count * len(rows)


def _mixed_layer(n_wires, w):
    """Every gate kind in one layer: RY, H, RZ and ROT on each wire, a PAULI_Z,
    then a CNOT chain from the last wire back to the first."""
    gates = []
    for i in range(n_wires):
        gates += [ry(i, w[5 * i]), h(i), rz(i, w[5 * i + 1]),
                  rot(i, w[5 * i + 2], w[5 * i + 3], w[5 * i + 4])]
    return gates + [pauli_z(0)] + [cnot(i + 1, i) for i in range(n_wires - 1)]


MIXED_LAYER = LayerKind("Mixed", lambda n_wires: 5 * n_wires, _mixed_layer)


@st.composite
def fit_runs(draw):
    """A circuit (ANGLE or AMPLITUDE, 1-4 wires, 1-3 layers, the shipped kinds
    and one mixing every gate kind), a read-out wire, 1-6 training rows, and
    1-3 merged runs as one fit makes them: 1-D weights, a check of all rows
    or none, and a batch of 0-8 row indices with repeats."""
    n_wires = draw(st.integers(1, 4))
    embedding = draw(st.sampled_from([ANGLE, AMPLITUDE]))
    layers = draw(st.lists(st.sampled_from([BASIC_ENTANGLER, STRONGLY_ENTANGLING, MIXED_LAYER]),
                           min_size=1, max_size=3))
    spec = CircuitSpec(n_wires, embedding, tuple(layers))
    n_features = draw(st.integers(1, embedding.max_features(n_wires)))
    X = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), n_features),
                        elements=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)))
    weights = hnp.arrays(np.float64, (spec.param_count,), elements=st.floats(-2 * np.pi, 2 * np.pi))
    runs = draw(st.lists(st.tuples(weights, st.booleans(),
                                   st.lists(st.integers(0, len(X) - 1), max_size=8)),
                         min_size=1, max_size=3))
    return spec, draw(st.integers(0, n_wires - 1)), X, runs


@settings(deadline=None)
@given(fit_runs())
def test_plan_runs_equal_the_gate_loop_bit_for_bit(case):
    spec, wire, X, runs = case
    merged = MergedRuns(spec, X, wire)  # embeds X once for all of the fit's runs
    rows = np.arange(len(X))
    for w, scored, batch in runs:
        check, batch = (rows if scored else rows[:0]), np.array(batch, dtype=np.intp)
        got, want = merged(w, check, batch), gate_loop_merged(spec, w, X, check, batch, wire)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # a cross kernel's one run over both sides' rows, at 1-D weights
        S = run_circuit(spec, w, X, CallCounter()).amplitudes
        assert S.tobytes() == gate_loop_run(spec, w, X).tobytes()


# signed zeros and small integers make exact cancellations, and all -0.0 sums, common
SUMMANDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e3, 1e3)


@st.composite
def gradient_batches(draw):
    """Outputs, targets and per-row gradients of n rows and P weights, a batch
    size, and +-0.0 starting weights, under which a step keeps a zero's sign."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    values, targets = (draw(hnp.arrays(np.float64, (n,), elements=SUMMANDS)) for _ in "vt")
    grads = draw(hnp.arrays(np.float64, (n, p), elements=SUMMANDS))
    w0 = draw(hnp.arrays(np.float64, (p,), elements=st.sampled_from([0.0, -0.0])))
    return values, targets, grads, w0, draw(st.integers(1, n)), draw(st.integers(0, 2**32))


@settings(deadline=None)
@given(gradient_batches())
@example((np.zeros(1), np.zeros(1), np.array([[-0.0]]), np.array([-0.0]), 1, 0))
# one column of 8 rows: numpy's pairwise sum adds these in another order, and rounds apart
@example((np.array([0.1, -0.9, 0.5, 0.1, -0.3, 0.6, -0.4, -0.1]), np.zeros(8), np.ones((8, 1)),
          np.zeros(1), 8, 0))
def test_batch_gradient_sum_equals_the_row_loop_bit_for_bit(case):
    values, targets, grads, w0, batch_size, seed = case
    X = np.zeros((len(values), 1))
    batches = []

    def evaluate(w, check, batch):  # the same outputs and gradients at any weights
        batches.extend([batch.tolist()] if len(batch) else [])
        return values[check], grads[batch]

    opt = OptimizerConfig(learning_rate=1.0)
    result = train_epochs(weights=w0, X=X, targets=targets, evaluate=evaluate,
                          score_fn=lambda v, t: 0.0, ledger=BudgetLedger(), opt_config=opt,
                          batch_size=batch_size, n_epochs=1, threshold=np.inf, seed=seed)
    residuals, want = 2.0 * (values - targets), w0
    for batch in batches:
        want = want - opt.learning_rate * (loop_gradient_sum(residuals, batch, grads[batch])
                                           / len(batch))
    assert result.weights.tobytes() == want.tobytes()


@settings(deadline=None)
@given(st.integers(-(2**64), 2**64), st.integers(0, 50), st.integers(0, 40))
def test_cached_epoch_order_equals_a_fresh_shuffle(seed, epoch, n):
    want = list(range(n))
    PortableRng(derive_seed(seed, epoch)).shuffle(want)
    got = _epoch_order(seed, epoch, n)
    assert got.tolist() == want and _epoch_order(seed, epoch, n) is got
    with pytest.raises(ValueError, match="read-only"):
        got[...] = 0  # every trial that draws this order shares the array


@st.composite
def encoder_lockstep(draw):
    """Data of 1-80 rows (past numpy's pairwise blocks of 8 rows, and past 32,
    where BLAS kernels change), 1-6 encoder shapes (depth 1-3, latent width 1
    up to two past the input width, so width-1 layers and stacks wider than X
    occur) with shared or distinct seeds, epochs."""
    input_size, rows = draw(st.integers(2, 8)), draw(st.integers(1, 80))
    X = draw(hnp.arrays(np.float64, (rows, input_size), elements=st.floats(0.0, 1.0)))
    shared = draw(st.booleans())
    seed = draw(st.integers(0, 2**32))
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, input_size + 2),
                  st.just(seed) if shared else st.integers(0, 2**32)),
        min_size=1, max_size=6,
    ))
    return X, [(input_size, *shape) for shape in shapes], draw(st.integers(0, 4))


def _stacks(encoder):
    return [encoder.enc_weights, encoder.enc_biases, encoder.dec_weights, encoder.dec_biases]


def _rows(n_rows, input_size):
    return np.array([[(3 * r + f) % 7 / 6 for f in range(input_size)] for r in range(n_rows)])


# one train call mixing a padded stack with width-1 encoders, which stack
# only with their twins; then the same mix on one row, where nothing pads
MIXED = [(5, 1, 1, 3), (5, 3, 4, 3), (5, 1, 2, 7), (5, 2, 1, 3), (5, 2, 3, 3), (5, 1, 1, 3)]


@settings(deadline=None)
@given(encoder_lockstep(), st.sampled_from([0.5, 5.0]))
@example((_rows(12, 5), MIXED, 3), 5.0)
@example((_rows(1, 5), MIXED, 3), 0.5)
# widths 2, 2, 1, 1 mirrored: an exact stack whose steps (1, 1), (1, 1) are one run
@example((_rows(6, 2), [(2, 3, 1, 5)], 3), 0.5)
# widths 3, 4, 5: a padded stack five wide over three data columns
@example((_rows(4, 3), [(3, 2, 5, 9)], 3), 5.0)
def test_lockstep_training_equals_separate_training_bit_for_bit(case, learning_rate):
    X, shapes, n_epochs = case
    together = [BinaryEncoder(*shape) for shape in shapes]
    together[0].train(X, n_epochs, learning_rate, alongside=together[1:])
    for shape, trained in zip(shapes, together):
        alone, reference = BinaryEncoder(*shape), BinaryEncoder(*shape)
        alone.train(X, n_epochs, learning_rate)
        ref_train_autoencoder(reference.enc_weights + reference.dec_weights,
                              reference.enc_biases + reference.dec_biases,
                              X, n_epochs, learning_rate)
        for got, solo, want in zip(_stacks(trained), _stacks(alone), _stacks(reference)):
            for a, b, c in zip(got, solo, want):
                assert np.array_equal(a, c) and np.array_equal(b, c)


@st.composite
def rbm_stack(draw):
    """1-5 machines of one seed and of latent and hidden widths 1-6, fresh or
    with drawn parameters, each with its own 1-45 rows of data, binary or in
    [0, 1]; epochs."""
    latent, hidden = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.integers(1, 45))
    k, seed = draw(st.integers(1, 5)), draw(st.integers(0, 2**32))
    unit = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.floats(0.0, 1.0)
    data = draw(hnp.arrays(np.float64, (k, rows, latent), elements=unit))
    params = [None] * k
    if draw(st.booleans()):
        params = [[draw(hnp.arrays(np.float64, shape, elements=st.floats(-3.0, 3.0)))
                   for shape in ((latent, hidden), (latent,), (hidden,))] for _ in range(k)]
    return (latent, hidden, seed), data, params, draw(st.integers(0, 4))


def _rbm(shape, params):
    rbm = RBM(*shape)
    if params is not None:
        rbm.weights, rbm.visible_bias, rbm.hidden_bias = (p.copy() for p in params)
    return rbm


@settings(deadline=None)
@given(rbm_stack(), st.sampled_from([0.1, 1.0]))
def test_stacked_rbms_equal_rbms_trained_alone_bit_for_bit(case, learning_rate):
    shape, data, params, n_epochs = case
    together = [_rbm(shape, own) for own in params]
    stack = RBM.stacked(together)
    for _ in range(n_epochs):
        stack.cd1_epoch(data, learning_rate)
    stack.unstack(together)
    for trained, V, own in zip(together, data, params):
        alone = _rbm(shape, own)
        for _ in range(n_epochs):
            alone.cd1_epoch(V, learning_rate)
        for got, want in ((trained.weights, alone.weights),
                          (trained.visible_bias, alone.visible_bias),
                          (trained.hidden_bias, alone.hidden_bias)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert trained._sample_rng._state == alone._sample_rng._state


def _assert_same_bits(got, want):
    """Equal shapes, NaN in the same places and every other value bit for bit."""
    nan = np.isnan(want)
    assert np.shape(got) == np.shape(want) and np.array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


@settings(deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                  elements=st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])))
@example(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 709.0, -709.0, 745.2, -745.2]))
def test_pair_sigmoid_equals_the_two_exp_form_bit_for_bit(z):
    want = ref_sigmoid(z)
    _assert_same_bits(_sigmoid(z), want)  # allocating
    pair, out = np.empty((2, *z.shape)), np.empty_like(z)
    assert _sigmoid(z, out, pair) is out  # into preallocated buffers
    _assert_same_bits(out, want)
    aliased = z.copy()
    assert _sigmoid(aliased, aliased, pair) is aliased  # `out` is z
    _assert_same_bits(aliased, want)
    pair[0] = z
    _assert_same_bits(_sigmoid(pair[0, ...], pair[0, ...], pair), want)  # z and `out` in `pair`


@settings(deadline=None)
@given(
    st.integers(-(2**64), 2**64),
    st.integers(0, 300),  # past two jump-table passes of 128 states
    st.tuples(FINITE, FINITE) | st.just((0.0, 1.0)),
)
@example(2**64 - 1, 128, (0.0, 1.0))
@example(-3, 257, (-1.7976931348623157e308, 1.7976931348623157e308))
def test_uniforms_equals_the_uniform_chain(seed, n, bounds):
    fast, slow = PortableRng(seed), PortableRng(seed)
    got = fast.uniforms(n, *bounds)
    want = [slow.uniform(*bounds) for _ in range(n)]
    assert list(map(repr, got.tolist())) == list(map(repr, want))
    assert fast._state == slow._state
