"""Simulator contracts: known states, conventions, oracle equivalence,
gradients, and call accounting."""

import itertools

import numpy as np
import pytest

from qmlfinder import (
    AMPLITUDE,
    ANGLE,
    BASIC_ENTANGLER,
    STRONGLY_ENTANGLING,
    CallCounter,
    CircuitSpec,
    EmbeddingKind,
    Gate,
    PortableRng,
    Statevector,
    apply_gate,
    cnot,
    expectation_z,
    fidelity,
    parameter_shift_gradient,
    rot,
    run_circuit,
    rx,
    ry,
    rz,
)
from qmlfinder.simulator import (
    MAX_WIRES,
    MergedRuns,
    gate_matrix,
    h as hadamard,
    pauli_z,
)

from oracles import (
    REF_H,
    STACKED_GATES,
    cnot_unitary,
    fd_gradient,
    gate_loop_merged,
    ref_expectation_z,
    ref_run_circuit,
    ref_rot,
    sliced_gradient,
    ref_rx,
    ref_ry,
    ref_rz,
    single_wire_unitary,
)

SQRT2_INV = 1 / np.sqrt(2)

LAYER_POOL = [BASIC_ENTANGLER, STRONGLY_ENTANGLING]


def random_spec(rng, max_wires=3, embedding=None):
    n_wires = rng.randint(1, max_wires)
    emb = embedding or rng.choice([ANGLE, AMPLITUDE])
    layers = tuple(rng.choice(LAYER_POOL) for _ in range(rng.randint(1, 3)))
    return CircuitSpec(n_wires, emb, layers)


def random_input(rng, spec):
    if spec.embedding.name == "ANGLE":
        return [rng.uniform(-np.pi, np.pi) for _ in range(spec.n_wires)]
    size = rng.randint(1, 2**spec.n_wires)
    return [rng.uniform(-1, 1) + 0.1 for _ in range(size)]


# -- gate-level behavior ------------------------------------------------------


def test_hadamard_on_zero():
    state = apply_gate(Statevector.zero(1), hadamard(0))
    np.testing.assert_allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-12)


def test_ry_pi_flips_to_one():
    state = apply_gate(Statevector.zero(1), ry(0, np.pi))
    np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-12)


def test_bell_state_amplitudes():
    state = apply_gate(Statevector.zero(2), hadamard(0))
    state = apply_gate(state, cnot(0, 1))
    np.testing.assert_allclose(state.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12)


def test_big_endian_convention():
    # H on wire 0 of |00> populates index 2 (|10>), not index 1
    state = apply_gate(Statevector.zero(2), hadamard(0))
    np.testing.assert_allclose(state.amplitudes, [SQRT2_INV, 0, SQRT2_INV, 0], atol=1e-12)


def test_rotation_half_angle_convention():
    theta = 0.7
    state = apply_gate(Statevector.zero(1), ry(0, theta))
    np.testing.assert_allclose(
        state.amplitudes, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-12
    )


def test_rot_equals_rz_ry_rz():
    phi, theta, omega = 0.3, 1.1, -0.8
    via_rot = apply_gate(Statevector.zero(1), rot(0, phi, theta, omega))
    step = apply_gate(Statevector.zero(1), rz(0, phi))
    step = apply_gate(step, ry(0, theta))
    step = apply_gate(step, rz(0, omega))
    np.testing.assert_allclose(via_rot.amplitudes, step.amplitudes, atol=1e-12)


def test_pauli_z_gate_flips_one_phase():
    from qmlfinder import pauli_z

    state = apply_gate(Statevector.zero(1), hadamard(0))
    state = apply_gate(state, pauli_z(0))
    np.testing.assert_allclose(state.amplitudes, [SQRT2_INV, -SQRT2_INV], atol=1e-12)


SPECIAL_ANGLES = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, -1e-300, 1e300, -1e300]


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "ROT"])
def test_gate_matrices_equal_the_stacked_product_forms_bit_for_bit(kind):
    count = 3 if kind == "ROT" else 1
    draws = np.random.default_rng(8).uniform(-4 * np.pi, 4 * np.pi, (count, 40))
    batch = np.concatenate([np.tile(SPECIAL_ANGLES, (count, 1)), draws], axis=1)
    cases = [
        tuple(convert(t) for t in angles)
        for convert in (float, np.float64, np.array)  # Python float, numpy scalar, 0-d array
        for angles in itertools.product(SPECIAL_ANGLES + [0.3, -1.7], repeat=count)
    ]
    cases += [tuple(batch), tuple(batch[:, :1]), tuple(np.empty((count, 0)))]
    for k in range(count):  # one (B,) angle broadcast against scalars of each kind
        for scalar in (0.3, np.float64(-1.7), np.array(np.pi)):
            cases.append(tuple(batch[i] if i == k else scalar for i in range(count)))
    for angles in cases:
        got, want = gate_matrix(Gate(kind, (0,), angles)), STACKED_GATES[kind](*angles)
        assert got.dtype == np.complex128 and got.shape == want.shape, angles
        assert np.array_equal(got, want), angles


def random_state(rng, n_wires):
    re = np.array(rng.uniforms(2**n_wires, -1, 1))
    im = np.array(rng.uniforms(2**n_wires, -1, 1))
    amps = re + 1j * im
    return Statevector(amps / np.linalg.norm(amps), n_wires)


def test_every_gate_on_every_wire_matches_dense_unitary():
    rng = PortableRng(2024)
    for n in range(1, 6):
        state = random_state(rng, n)
        before = state.amplitudes.copy()
        cases = []
        for wire in range(n):
            t = rng.uniform(-4, 4)
            angles = [rng.uniform(-4, 4) for _ in range(3)]
            cases += [
                (rx(wire, t), single_wire_unitary(n, wire, ref_rx(t))),
                (ry(wire, t), single_wire_unitary(n, wire, ref_ry(t))),
                (rz(wire, t), single_wire_unitary(n, wire, ref_rz(t))),
                (rot(wire, *angles), single_wire_unitary(n, wire, ref_rot(*angles))),
                (hadamard(wire), single_wire_unitary(n, wire, REF_H)),
                (pauli_z(wire), single_wire_unitary(n, wire, np.diag([1, -1]).astype(complex))),
            ]
            cases += [
                (cnot(wire, target), cnot_unitary(n, wire, target))
                for target in range(n)
                if target != wire
            ]
        for gate, unitary in cases:
            out = apply_gate(state, gate)
            np.testing.assert_allclose(
                out.amplitudes, unitary @ before, atol=1e-12, err_msg=str(gate)
            )
            np.testing.assert_array_equal(state.amplitudes, before)
        for wire in range(n):
            ref = ref_expectation_z(before, wire, n)
            assert abs(expectation_z(state, wire) - ref) < 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("RX", (0,), ())  # missing angle
    with pytest.raises(ValueError):
        Gate("ROT", (0,), (0.1,))  # ROT takes three angles
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))  # wires must differ
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))  # unknown kind


def test_wire_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(Statevector.zero(2), rx(2, 0.1))


def test_wire_cap():
    with pytest.raises(ValueError):
        Statevector.zero(MAX_WIRES + 1)


def test_norm_preserved_over_random_sequences():
    rng = PortableRng(77)
    for _ in range(1000):
        n = rng.randint(1, 4)
        state = Statevector.zero(n)
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["RX", "RY", "RZ", "ROT", "H", "CNOT"])
            if kind == "CNOT" and n > 1:
                control = rng.randint(0, n - 1)
                target = (control + 1 + rng.randint(0, n - 2)) % n if n > 2 else 1 - control
                state = apply_gate(state, cnot(control, target))
            elif kind == "ROT":
                state = apply_gate(
                    state,
                    rot(rng.randint(0, n - 1), rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)),
                )
            elif kind == "H":
                state = apply_gate(state, hadamard(rng.randint(0, n - 1)))
            elif kind != "CNOT":
                state = apply_gate(state, Gate(kind, (rng.randint(0, n - 1),), (rng.uniform(-4, 4),)))
        assert abs(state.norm() - 1.0) < 1e-10


# -- expectations and fidelity ------------------------------------------------


def test_expectation_of_zero_state():
    assert expectation_z(Statevector.zero(3), 1) == 1.0


def test_expectation_after_ry_is_cosine():
    for theta in [0.0, np.pi / 4, np.pi / 2, np.pi]:
        state = apply_gate(Statevector.zero(1), ry(0, theta))
        assert abs(expectation_z(state, 0) - np.cos(theta)) < 1e-12


def test_expectation_of_bell_state_is_zero():
    state = apply_gate(Statevector.zero(2), hadamard(0))
    state = apply_gate(state, cnot(0, 1))
    assert abs(expectation_z(state, 0)) < 1e-12
    assert abs(expectation_z(state, 1)) < 1e-12


def test_expectation_wire_out_of_range():
    with pytest.raises(ValueError):
        expectation_z(Statevector.zero(2), 2)


def test_expectation_matches_reference_on_random_states():
    rng = PortableRng(31)
    for _ in range(50):
        spec = random_spec(rng)
        weights = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
        x = random_input(rng, spec)
        state = run_circuit(spec, weights, x, CallCounter())
        for wire in range(spec.n_wires):
            ref = ref_expectation_z(state.amplitudes, wire, spec.n_wires)
            assert abs(expectation_z(state, wire) - ref) < 1e-12


def test_fidelity_self_and_orthogonal():
    zero = Statevector.zero(1)
    one = apply_gate(zero, ry(0, np.pi))
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12
    assert fidelity(zero, one) < 1e-12


def test_fidelity_matches_direct_inner_product():
    rng = PortableRng(17)
    for _ in range(25):
        spec = random_spec(rng, max_wires=3, embedding=ANGLE)
        w1 = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
        w2 = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
        x = random_input(rng, spec)
        a = run_circuit(spec, w1, x, CallCounter())
        b = run_circuit(spec, w2, x, CallCounter())
        direct = abs(np.sum(np.conj(a.amplitudes) * b.amplitudes)) ** 2
        assert abs(fidelity(a, b) - direct) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(Statevector.zero(1), Statevector.zero(2))


def test_fidelity_and_norm_of_a_batch_are_per_state():
    rng = PortableRng(23)
    spec = CircuitSpec(2, ANGLE, (STRONGLY_ENTANGLING,))
    W = np.array([rng.uniforms(spec.param_count, -np.pi, np.pi) for _ in range(3)])
    x = [0.4, -1.2]
    S = run_circuit(spec, W, x, CallCounter())
    T = run_circuit(spec, W[::-1] + 0.5, x, CallCounter())
    same = run_circuit(spec, np.tile(W[0], (3, 1)), x, CallCounter())

    def rows(state):
        return [Statevector(amps, 2) for amps in state.amplitudes]

    for a, b in [(S, T), (same, same)]:
        batch = fidelity(a, b)
        assert batch.shape == (3,)
        per_row = [fidelity(u, v) for u, v in zip(rows(a), rows(b))]
        np.testing.assert_allclose(batch, per_row, rtol=0, atol=1e-15)
    assert np.all((fidelity(S, T) >= 0) & (fidelity(S, T) <= 1))
    one = rows(T)[0]
    np.testing.assert_allclose(
        fidelity(S, one), [fidelity(u, one) for u in rows(S)], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(fidelity(same, same), 1.0, rtol=0, atol=1e-12)
    for state in (S, T, same):
        norms = state.norm()
        assert norms.shape == (3,)
        np.testing.assert_allclose(norms, [u.norm() for u in rows(state)], rtol=0, atol=1e-15)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    single = rows(S)[0]
    assert isinstance(fidelity(single, rows(T)[0]), float) and isinstance(single.norm(), float)


# -- circuit execution vs dense-matrix oracle ---------------------------------


def test_zero_layer_circuit_runs_and_counts():
    spec = CircuitSpec(2, ANGLE, ())
    counter = CallCounter()
    state = run_circuit(spec, [], [0.0, 0.0], counter)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)
    assert counter.total_calls == 1


def test_basic_entangler_identity_on_zero_weights():
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,))
    state = run_circuit(spec, [0.0, 0.0], [0.0, 0.0], CallCounter())
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_weight_length_mismatch():
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,))
    with pytest.raises(ValueError):
        run_circuit(spec, [0.1], [0.0, 0.0], CallCounter())


@pytest.mark.parametrize("weights", [[0.5], [0.5, 0.1, 0.2]], ids=["fewer", "more"])
def test_gradient_refuses_a_wrong_weight_count_before_embedding_or_booking(weights, monkeypatch):
    import qmlfinder.simulator as simulator

    embedded = []
    monkeypatch.setattr(simulator, "_embed", lambda *args: embedded.append(args))
    spec, counter = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,)), CallCounter()
    with pytest.raises(ValueError, match=f"^expected 2 weights, got {len(weights)}$"):
        parameter_shift_gradient(spec, weights, [[0.1, 0.2], [0.3, 0.4]], 0, counter)
    assert embedded == [] and counter.total_calls == 0


def test_run_circuit_matches_matrix_oracle():
    rng = PortableRng(101)
    for _ in range(60):
        spec = random_spec(rng, max_wires=3)
        weights = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
        x = random_input(rng, spec)
        state = run_circuit(spec, weights, x, CallCounter())
        expected = ref_run_circuit(
            spec.n_wires, spec.embedding.name, spec.layer_names(), weights, x
        )
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)


@pytest.mark.parametrize("embedding", [ANGLE, AMPLITUDE])
@pytest.mark.parametrize("n_wires", [1, 2, 3])
def test_batched_run_circuit_matches_oracle_per_circuit(embedding, n_wires):
    rng = PortableRng(505 + n_wires)
    spec = CircuitSpec(n_wires, embedding, (BASIC_ENTANGLER, STRONGLY_ENTANGLING))
    W = np.array([rng.uniforms(spec.param_count, -np.pi, np.pi) for _ in range(4)])
    X = np.array([rng.uniforms(embedding.max_features(n_wires), 0.1, 2.0) for _ in range(4)])
    cases = {
        "weight batch": (W, X[0], [(w, X[0]) for w in W]),
        "row batch": (W[0], X, [(W[0], x) for x in X]),
        "both": (W, X, list(zip(W, X))),
    }
    for weights, rows, circuits in cases.values():
        counter = CallCounter()
        state = run_circuit(spec, weights, rows, counter)
        expected = [
            ref_run_circuit(n_wires, embedding.name, spec.layer_names(), w, x) for w, x in circuits
        ]
        assert state.amplitudes.shape == (4, 2**n_wires)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)
        assert counter.total_calls == 4
        one_by_one = [run_circuit(spec, w, x, CallCounter()).amplitudes for w, x in circuits]
        np.testing.assert_array_equal(state.amplitudes, one_by_one)  # same arithmetic
        for wire in range(n_wires):
            np.testing.assert_allclose(
                expectation_z(state, wire),
                [ref_expectation_z(amps, wire, n_wires) for amps in expected],
                rtol=0, atol=1e-12,
            )
    counter = CallCounter()
    empty = run_circuit(spec, W[0], np.empty((0, X.shape[1])), counter)
    assert empty.amplitudes.shape == (0, 2**n_wires)
    assert counter.total_calls == 0


def test_batch_through_an_embedding_that_ignores_the_rows():
    constant = EmbeddingKind(
        name="CONSTANT", build=lambda x, n: [], max_features=lambda n: n,
        wires_for_features=lambda f: f,
    )
    counter = CallCounter()
    state = run_circuit(CircuitSpec(2, constant, ()), [], np.ones((3, 2)), counter)
    np.testing.assert_array_equal(state.amplitudes, np.tile([1, 0, 0, 0], (3, 1)))
    assert counter.total_calls == 3


# -- parameter-shift gradients -------------------------------------------------


def test_gradient_of_single_ry():
    # d<Z>/dtheta of RY(theta)|0> is -sin(theta); via an RX circuit the same
    # identity holds, so use a 1-wire BasicEntangler (one RX after RX(0) input)
    spec = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,))
    counter = CallCounter()
    grad = parameter_shift_gradient(spec, [np.pi / 2], [0.0], 0, counter)
    np.testing.assert_allclose(grad, [-1.0], atol=1e-12)
    assert counter.total_calls == 2


def test_gradient_empty_for_zero_params():
    spec = CircuitSpec(2, ANGLE, ())
    counter = CallCounter()
    grad = parameter_shift_gradient(spec, [], [0.1, 0.2], 0, counter)
    assert grad.size == 0
    assert counter.total_calls == 0


def test_gradient_matches_finite_differences():
    rng = PortableRng(202)
    for _ in range(20):
        spec = random_spec(rng, max_wires=2)
        weights = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
        x = random_input(rng, spec)
        grad = parameter_shift_gradient(spec, weights, x, 0, CallCounter())

        def f(w):
            return expectation_z(run_circuit(spec, w, x, CallCounter()), 0)

        np.testing.assert_allclose(grad, fd_gradient(f, weights), atol=1e-6)


def test_sixteen_wire_gradient_runs_in_bounded_memory():
    import tracemalloc

    spec = CircuitSpec(16, ANGLE, (BASIC_ENTANGLER,))
    rng = PortableRng(606)
    w = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
    x = rng.uniforms(16, -np.pi, np.pi)
    counter = CallCounter()
    tracemalloc.start()
    try:
        grad = parameter_shift_gradient(spec, w, x, 0, counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.total_calls == 2 * spec.param_count
    assert peak < 64 * 2**20

    # two rows: 4P circuits in slices of 16, each slice within one row's 2P
    X = np.array([x, rng.uniforms(16, -np.pi, np.pi)])
    counter = CallCounter()
    tracemalloc.start()
    try:
        grads = parameter_shift_gradient(spec, w, X, 0, counter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counter.total_calls == 2 * 2 * spec.param_count
    assert peak < 64 * 2**20
    assert np.array_equal(grads[0], grad)
    assert np.array_equal(grads[1], parameter_shift_gradient(spec, w, X[1], 0, CallCounter()))

    def f(weights):
        return expectation_z(run_circuit(spec, weights, x, CallCounter()), 0)

    shifts = np.eye(spec.param_count) * np.pi / 2
    expected = [(f(w + shift) - f(w - shift)) / 2 for shift in shifts]
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "embedding, n_wires",
    [(ANGLE, 1), (ANGLE, 2), (ANGLE, 3), (AMPLITUDE, 1), (AMPLITUDE, 2), (AMPLITUDE, 3),
     (AMPLITUDE, 14)],
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_gradient_of_rows_equals_per_row_gradients(embedding, n_wires):
    # at 14 wires a slice holds 64 circuits and a row 28, so slices straddle rows
    rng = PortableRng(707 + n_wires)
    layers = (BASIC_ENTANGLER,) if n_wires == 14 else (STRONGLY_ENTANGLING, BASIC_ENTANGLER)
    spec = CircuitSpec(n_wires, embedding, layers)
    p = spec.param_count
    w = np.array(rng.uniforms(p, -np.pi, np.pi))
    X = np.array([rng.uniforms(n_wires, 0.1, 2.0) for _ in range(3)])
    counter = CallCounter()
    grads = parameter_shift_gradient(spec, w, X, 0, counter)
    assert grads.shape == (3, p)
    assert counter.total_calls == 3 * 2 * p
    for row, grad in zip(X, grads):
        assert np.array_equal(grad, parameter_shift_gradient(spec, w, row, 0, CallCounter()))


def test_merged_run_slices_cut_between_scoring_and_shifted_circuits():
    # at 14 wires a slice holds 64 circuits: 3 scoring rows, then 2 * 14 shifted
    # circuits for each of 3 batch rows, so the first slice ends inside the third
    rng = PortableRng(808)
    spec = CircuitSpec(14, ANGLE, (BASIC_ENTANGLER,))
    w = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
    X = np.array([rng.uniforms(14, -np.pi, np.pi) for _ in range(3)])
    ((values, grads),) = MergedRuns(X, 0)([(spec, w, np.arange(3), np.array([2, 0, 1]))])
    assert values.tobytes() == expectation_z(run_circuit(spec, w, X, CallCounter()), 0).tobytes()
    assert grads.tobytes() == sliced_gradient(spec, w, X[[2, 0, 1]], 0, CallCounter()).tobytes()


def test_a_fit_too_large_for_one_slice_embeds_its_rows_slice_by_slice(monkeypatch):
    # at 14 wires a slice holds 64 circuits, so 65 rows are not kept embedded:
    # each slice embeds the distinct rows its circuits use, within the slice bound
    import tracemalloc

    import qmlfinder.simulator as simulator

    embedded, embed = [], simulator._embed
    monkeypatch.setattr(simulator, "_embed",
                        lambda spec, x, batch: embedded.append(len(x)) or embed(spec, x, batch))
    rng = PortableRng(818)
    spec = CircuitSpec(14, ANGLE, (BASIC_ENTANGLER,))
    w = np.array(rng.uniforms(spec.param_count, -np.pi, np.pi))
    X = np.array([rng.uniforms(14, -np.pi, np.pi) for _ in range(65)])
    tracemalloc.start()
    try:
        runs = MergedRuns(X, 0)
        ((values, _),) = runs([(spec, w, np.arange(65), np.arange(0))])
        ((_, grads),) = runs([(spec, w, np.arange(0), np.array([64, 3, 64]))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs.embedded[14][1] is None and embedded == [64, 1, 2, 1]
    assert peak < 64 * 2**20
    assert values.tobytes() == expectation_z(run_circuit(spec, w, X, CallCounter()), 0).tobytes()
    want = sliced_gradient(spec, w, X[[64, 3, 64]], 0, CallCounter())
    assert grads.tobytes() == want.tobytes()


def test_merged_run_builds_each_gate_kinds_matrices_in_one_call(monkeypatch):
    # N = 5 scoring rows and a batch of B = 3 (one row twice, one not in X)
    # make N + 2PB = 53 circuits from N + B = 8 embedded rows and 2P + 1 = 17
    # weight vectors: the embedding's RX gates build their matrices over the
    # rows, and each layer gate kind builds all of its gates' matrices in one
    # call, never per circuit: a gate of q angles has 1 + 2q distinct ones
    # among the weight vectors (unshifted, then each angle shifted +-pi/2)
    import qmlfinder.simulator as simulator

    built = []

    def spy(kind, matrix):
        def build(*angles):
            out = matrix(*angles)
            built.append((kind, out.shape))
            return out

        return build

    monkeypatch.setattr(simulator, "_GATES", {kind: (count, matrix and spy(kind, matrix))
                                              for kind, (count, matrix) in simulator._GATES.items()})
    rng = PortableRng(909)
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER, STRONGLY_ENTANGLING))
    p = spec.param_count
    w = np.array(rng.uniforms(p, -np.pi, np.pi))
    X = np.array([rng.uniforms(2, -np.pi, np.pi) for _ in range(5)])
    rows = np.array([X[3], rng.uniforms(2, -np.pi, np.pi), X[3]])
    runs = MergedRuns(np.concatenate([X, rows]), 0)
    ((values, grads),) = runs([(spec, w, np.arange(5), np.arange(5, 8))])
    assert built == [("RX", (2 * 3, 2, 2)), ("ROT", (2 * 7, 2, 2))] + [("RX", (5 + 3, 2, 2))] * 2
    assert values.shape == (5,) and grads.shape == (3, p)


def test_merged_requests_share_a_slice_only_with_one_circuit_skeleton(monkeypatch):
    # on 1 wire each BASIC_ENTANGLER layer is one RX: requests of one depth
    # have one skeleton, and depths 1, 2 and 3 have prefixes of one another
    import qmlfinder.simulator as simulator

    slices, simulate = [], simulator._simulate

    def spy(n, steps, states, rows_at, *rest):
        slices.append((len(steps), len(states if rows_at is None else rows_at)))
        return simulate(n, steps, states, rows_at, *rest)

    monkeypatch.setattr(simulator, "_simulate", spy)
    rng = PortableRng(919)
    X = np.array([rng.uniforms(1, -np.pi, np.pi) for _ in range(3)])

    def request(depth):
        spec = CircuitSpec(1, ANGLE, (BASIC_ENTANGLER,) * depth)
        return spec, np.array(rng.uniforms(depth, -np.pi, np.pi)), np.arange(3), np.array([2, 0])

    for depths, want in (((2, 2, 2), [(2, 3 * (3 + 2 * 2 * 2))]),
                         ((3, 1, 2), [(3, 3 + 2 * 3 * 2), (1, 3 + 2 * 1 * 2),
                                      (2, 3 + 2 * 2 * 2)])):
        slices.clear()
        requests = [request(depth) for depth in depths]
        answers = MergedRuns(X, 0)(requests)
        assert slices == want  # one slice per skeleton, in request order
        for (spec, w, check, batch), got in zip(requests, answers):
            for a, b in zip(got, gate_loop_merged(spec, w, X, check, batch, 0)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_merged_group_answers_each_request_as_it_runs_alone(monkeypatch):
    # on 1 wire a BASIC_ENTANGLER layer is one RX and a STRONGLY_ENTANGLING
    # layer one ROT: one skeleton, P = 1 and 3; beside them a circuit without
    # parameters, and on 14 wires (64 circuits a slice) a request of exactly
    # 64 circuits, so the slice boundary falls between it and the next
    import qmlfinder.simulator as simulator

    slices, simulate = [], simulator._simulate

    def spy(n, steps, states, rows_at, *rest):
        slices.append((n, len(steps), len(states if rows_at is None else rows_at)))
        return simulate(n, steps, states, rows_at, *rest)

    rng = PortableRng(929)
    X = np.array([rng.uniforms(2, 0.1, 2.0) for _ in range(8)])
    rows, none = np.arange(8), np.arange(0)

    def request(spec, check, batch):
        return spec, np.array(rng.uniforms(spec.param_count, -np.pi, np.pi)), check, np.array(
            batch, dtype=np.intp)

    rx, rot, bare = (CircuitSpec(1, AMPLITUDE, layers)
                     for layers in ((BASIC_ENTANGLER,), (STRONGLY_ENTANGLING,), ()))
    wide = CircuitSpec(14, ANGLE, (BASIC_ENTANGLER,))
    requests = [request(rx, rows, [2, 0]), request(rot, none, [1, 1, 3]),
                request(wide, rows, [0, 3]), request(bare, rows, [0, 1]),
                request(rx, rows, []), request(wide, none, [1])]
    monkeypatch.setattr(simulator, "_simulate", spy)
    answers = MergedRuns(X, 0)(requests)
    assert slices == [(1, 1, 8 + 2 * 2 + 2 * 3 * 3 + 8), (14, 28, 64), (14, 28, 28), (1, 0, 8)]
    monkeypatch.setattr(simulator, "_simulate", simulate)
    for (spec, w, check, batch), got in zip(requests, answers):
        alone = MergedRuns(X, 0)([(spec, w, check, batch)])[0]
        want = alone if spec is wide else gate_loop_merged(spec, w, X, check, batch, 0)
        assert got[0].shape == (len(check),) and got[1].shape == (len(batch), spec.param_count)
        for a, b, c in zip(got, alone, want):
            assert a.tobytes() == b.tobytes() == c.tobytes()


def test_call_accounting_gradients_plus_forwards():
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER, STRONGLY_ENTANGLING))
    p = spec.param_count
    counter = CallCounter()
    weights = np.zeros(p)
    for _ in range(3):  # G = 3 gradient evaluations
        parameter_shift_gradient(spec, weights, [0.1, 0.2], 0, counter)
    for _ in range(5):  # F = 5 forward passes
        run_circuit(spec, weights, [0.1, 0.2], counter)
    assert counter.total_calls == 2 * p * 3 + 5


def test_counter_counts_increments_and_refuses_negative_ones():
    counter = CallCounter()
    for n in (1, 0, 5):
        counter.increment(n)
    counter.increment()
    assert counter.total_calls == 7
    with pytest.raises(ValueError, match="nonnegative"):
        counter.increment(-1)
    assert counter.total_calls == 7


def test_merged_run_refuses_weights_of_another_count():
    # one weight would broadcast over the shift table, and more would index it
    spec = CircuitSpec(2, ANGLE, (BASIC_ENTANGLER,))
    for w in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError, match=f"^expected 2 weights, got {len(w)}$"):
            MergedRuns(np.zeros((2, 2)), 0)([(spec, w, np.arange(2), np.arange(1))])
