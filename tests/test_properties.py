"""Property tests (hypothesis): simulator, gradient training, encoder training
and generator invariants over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmlfinder.models import BinaryEncoder
from qmlfinder.registry import AMPLITUDE, ANGLE, BASIC_ENTANGLER, STRONGLY_ENTANGLING, CircuitSpec
from qmlfinder.rng import PortableRng
from qmlfinder.simulator import (
    CallCounter,
    Gate,
    expectation_and_gradient,
    expectation_z,
    gate_matrix,
    parameter_shift_gradient,
    run_circuit,
)
from qmlfinder.training import BudgetLedger, OptimizerConfig, train_epochs

from oracles import loop_gradient_sum, product_rot, ref_train_autoencoder, sliced_gradient

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
    kind), 1-D weights, a read-out wire, 0-6 scoring rows and a mini-batch of
    0 up to all of them, as training draws one."""
    n_wires = draw(st.integers(1, 4))
    embedding = draw(st.sampled_from([ANGLE, AMPLITUDE]))
    layers = draw(st.lists(st.sampled_from([BASIC_ENTANGLER, STRONGLY_ENTANGLING]),
                           min_size=1, max_size=2))
    spec = CircuitSpec(n_wires, embedding, tuple(layers))
    weights = draw(hnp.arrays(np.float64, (spec.param_count,),
                              elements=st.floats(-2 * np.pi, 2 * np.pi)))
    n_rows = draw(st.integers(1, 6))
    n_features = draw(st.integers(1, embedding.max_features(n_wires)))
    X = draw(hnp.arrays(np.float64, (n_rows, n_features),
                        elements=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)))
    batch = draw(st.lists(st.integers(0, n_rows - 1), max_size=n_rows, unique=True))
    scored = X if draw(st.booleans()) else X[:0]  # later batches run without scoring
    return spec, weights, draw(st.integers(0, n_wires - 1)), scored, X[batch]


@settings(deadline=None)
@given(merged_runs())
def test_merged_run_equals_the_separate_runs_bit_for_bit(case):
    spec, w, wire, X, rows = case
    values, grads = expectation_and_gradient(spec, w, X, rows, wire)
    # the 1-D weights build the layer gates from 0-d angles; the merged run
    # gives each circuit its own row of weights
    want = expectation_z(run_circuit(spec, w, X, CallCounter()), wire)
    assert values.shape == want.shape and values.tobytes() == want.tobytes()
    alone, wrapped = CallCounter(), CallCounter()
    want = sliced_gradient(spec, w, rows, wire, alone)
    assert grads.shape == (len(rows), spec.param_count) and grads.tobytes() == want.tobytes()
    assert parameter_shift_gradient(spec, w, rows, wire, wrapped).tobytes() == want.tobytes()
    assert wrapped.total_calls == alone.total_calls == 2 * spec.param_count * len(rows)


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
    X = np.arange(len(values), dtype=float)[:, None]  # each row holds its own index
    batches = []

    def evaluate(w, X_check, X_batch):  # the same outputs and gradients at any weights
        batch = X_batch[:, 0].astype(int).tolist()
        batches.extend([batch] if batch else [])
        return values[X_check[:, 0].astype(int)], grads[batch]

    opt = OptimizerConfig(learning_rate=1.0)
    result = train_epochs(weights=w0, X=X, targets=targets, evaluate=evaluate,
                          score_fn=lambda v, t: 0.0, ledger=BudgetLedger(), opt_config=opt,
                          batch_size=batch_size, n_epochs=1, threshold=np.inf, seed=seed)
    residuals, want = 2.0 * (values - targets), w0
    for batch in batches:
        want = want - opt.learning_rate * (loop_gradient_sum(residuals, batch, grads[batch])
                                           / len(batch))
    assert result.weights.tobytes() == want.tobytes()


@st.composite
def encoder_lockstep(draw):
    """Data, 1-6 encoder shapes (depth 1-3, latent width 1 up to the input
    width, so width-1 layers occur) with shared or distinct seeds, epochs."""
    input_size, rows = draw(st.integers(2, 8)), draw(st.integers(1, 20))
    X = draw(hnp.arrays(np.float64, (rows, input_size), elements=st.floats(0.0, 1.0)))
    shared = draw(st.booleans())
    seed = draw(st.integers(0, 2**32))
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, input_size),
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
