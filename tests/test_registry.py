"""Embedding/layer behavior and the extensible registry tables."""

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
    EmbeddingKind,
    LayerKind,
    PortableRng,
    QNNClassifier,
    Registry,
    TaskType,
    base_registry,
    build_layer,
    embed,
    register,
    run_circuit,
)
from qmlfinder.simulator import StatePrep, _plan, cnot, h, rot, rx, ry

from oracles import gate_loop_run, ref_run_circuit


# -- embeddings ----------------------------------------------------------------


def test_angle_zero_input_is_identity_preparation():
    ops = embed(ANGLE, [0.0, 0.0], 2)
    assert [op.kind for op in ops] == ["RX", "RX"]
    spec = CircuitSpec(2, ANGLE, ())
    state = run_circuit(spec, [], [0.0, 0.0], CallCounter())
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_angle_pads_trailing_wires_with_zero_rotations():
    ops = embed(ANGLE, [0.5], 3)
    assert len(ops) == 3
    assert ops[1].angles == (0.0,) and ops[2].angles == (0.0,)


def test_angle_too_many_features():
    with pytest.raises(ValueError):
        embed(ANGLE, [0.1, 0.2, 0.3], 2)


def test_amplitude_pad_then_normalize():
    (prep,) = embed(AMPLITUDE, [1.0, 1.0], 2)
    assert isinstance(prep, StatePrep)
    np.testing.assert_allclose(prep.amplitudes, [2**-0.5, 2**-0.5, 0, 0], atol=1e-12)


def test_amplitude_three_four_normalization():
    (prep,) = embed(AMPLITUDE, [3.0, 4.0], 1)
    np.testing.assert_allclose(prep.amplitudes, [0.6, 0.8], atol=1e-15)


def test_amplitude_rejects_zero_vector():
    with pytest.raises(ValueError):
        embed(AMPLITUDE, [0.0, 0.0], 2)


def test_amplitude_too_many_features():
    with pytest.raises(ValueError):
        embed(AMPLITUDE, [1.0] * 5, 2)


def test_amplitude_unit_norm_including_tiny_inputs():
    rng = PortableRng(44)
    for _ in range(200):
        n_wires = rng.randint(1, 3)
        size = rng.randint(1, 2**n_wires)
        x = np.array([rng.uniform(-1, 1) for _ in range(size)])
        if not np.any(x):
            x[0] = 1.0
        for scale in (1.0, 1e-8):
            (prep,) = embed(AMPLITUDE, x * scale, n_wires)
            assert abs(np.linalg.norm(prep.amplitudes) - 1.0) < 1e-10


def test_amplitude_fixed_options():
    assert AMPLITUDE.fixed_options == {"pad_with": 0, "normalize": True}
    assert ANGLE.fixed_options == {}


# -- layers --------------------------------------------------------------------


def test_basic_entangler_single_wire_has_no_cnot():
    gates = build_layer(BASIC_ENTANGLER, 1, [0.4])
    assert [g.kind for g in gates] == ["RX"]


def test_basic_entangler_ring():
    gates = build_layer(BASIC_ENTANGLER, 3, [0.1, 0.2, 0.3])
    kinds = [g.kind for g in gates]
    assert kinds == ["RX", "RX", "RX", "CNOT", "CNOT", "CNOT"]
    assert [g.wires for g in gates[3:]] == [(0, 1), (1, 2), (2, 0)]


def test_strongly_entangling_structure_and_oracle():
    gates = build_layer(STRONGLY_ENTANGLING, 2, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert [g.kind for g in gates] == ["ROT", "ROT", "CNOT", "CNOT"]
    spec = CircuitSpec(2, ANGLE, (STRONGLY_ENTANGLING,))
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    x = [0.7, -0.4]
    state = run_circuit(spec, w, x, CallCounter())
    expected = ref_run_circuit(2, "ANGLE", ["StronglyEntangling"], w, x)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-10)


def test_layer_weight_count_mismatch():
    with pytest.raises(ValueError):
        build_layer(BASIC_ENTANGLER, 2, [0.1])


def test_param_counts():
    assert BASIC_ENTANGLER.params_per_layer(3) == 3
    assert STRONGLY_ENTANGLING.params_per_layer(3) == 9


def test_param_count_matches_accepted_weights_exhaustively():
    registry = base_registry()
    rng = PortableRng(9)
    for n_wires in range(1, 5):
        for emb_name in registry.embedding_names:
            emb = registry.embedding(emb_name)
            for first in registry.layer_names:
                for second in registry.layer_names:
                    spec = CircuitSpec(
                        n_wires, emb, (registry.layer(first), registry.layer(second))
                    )
                    x = [0.3] * min(n_wires, emb.max_features(n_wires))
                    weights = np.array(rng.uniforms(spec.param_count, -1, 1))
                    run_circuit(spec, weights, x, CallCounter())  # accepts exact count
                    with pytest.raises(ValueError):
                        run_circuit(spec, np.append(weights, 0.0), x, CallCounter())


def test_gate_plan_reads_each_weight_column_from_the_layers():
    # weights in another order than the wires, and an angle-free gate between
    reversed_rx = LayerKind("ReversedRX", lambda n: n,
                            lambda n, w: [rx(i, w[n - 1 - i]) for i in range(n)] + [h(0)])
    spec = CircuitSpec(3, ANGLE, (STRONGLY_ENTANGLING, reversed_rx))
    plan = _plan(spec.n_wires, spec.layer_kinds)
    assert list(plan.columns) == ["ROT", "RX", "H"]
    assert plan.columns["ROT"].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert plan.columns["RX"].tolist() == [[11], [10], [9]] and plan.columns["H"].shape == (1, 0)
    # the steps in order: rotations on a wire, each of a kind and a gate of it, and CNOTs
    assert plan.skeleton == (0, 1, 2, (0, 1), (1, 2), (2, 0), 0, 1, 2, 0)
    assert plan.kinds == (0, 0, 0, 1, 1, 1, 2) and plan.gates == (0, 1, 2, 0, 1, 2, 0)
    # compiled once per circuit shape, whatever the embedding
    assert _plan(3, (STRONGLY_ENTANGLING, reversed_rx)) is _plan(3, spec.layer_kinds)


def test_gate_plan_arrays_cannot_be_written():
    arrays = []
    for field in _plan(2, (STRONGLY_ENTANGLING, BASIC_ENTANGLER)):
        if isinstance(field, np.ndarray):
            arrays.append(field)
        elif not isinstance(field, tuple):  # a mapping of gate kinds
            arrays.extend(field.values())
            with pytest.raises(TypeError):
                field["RX"] = field["ROT"]
    assert len(arrays) == 3 + 2 * 2  # the shift table and variants; columns and picks per kind
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def _counted_layer(name, builds, rotation=rx):
    """A BasicEntangler-shaped layer of `rotation` gates whose `build` calls are
    appended to `builds`."""

    def build(n, w):
        builds.append(name)
        return [rotation(i, w[i]) for i in range(n)] + [cnot(0, 1)]

    return LayerKind(name, lambda n: n, build)


def test_equal_circuits_built_apart_and_fitted_apart_compile_one_plan(blobs40):
    builds = []
    kind = _counted_layer("Counted", builds)
    specs = [CircuitSpec(2, embedding, (LayerKind(kind.name, kind.params_per_layer, kind.build),))
             for embedding in (ANGLE, ANGLE, AMPLITUDE)]  # equal kinds, separate objects
    assert specs[0] == specs[1] and specs[0] is not specs[1]
    misses = _plan.cache_info().misses
    X, y = blobs40
    for spec in specs[:2]:
        QNNClassifier(spec, batch_size=8, n_epochs=1, accuracy_threshold=1.0, seed=0).fit(
            X, y, BudgetLedger())
    run_circuit(specs[2], [0.1, 0.2], [0.3, 0.4], CallCounter())
    assert builds == ["Counted", "Counted"]  # the probe and its squares, once
    assert _plan.cache_info().misses == misses + 1


def test_layers_of_one_name_with_different_builds_get_different_plans():
    builds = []
    as_rx, as_ry = _counted_layer("Same", builds, rx), _counted_layer("Same", builds, ry)
    assert as_rx != as_ry
    rx_plan, ry_plan = _plan(2, (as_rx,)), _plan(2, (as_ry,))
    assert list(rx_plan.columns) == ["RX"] and list(ry_plan.columns) == ["RY"]
    for plan in (rx_plan, ry_plan):
        assert plan.skeleton[0] == 0 and (plan.kinds[0], plan.gates[0]) == (0, 0)
    w, x = [0.3, -1.1], [0.5, 0.7]
    runs = []
    for kind in (as_rx, as_ry):
        spec = CircuitSpec(2, ANGLE, (kind,))
        runs.append(run_circuit(spec, w, x, CallCounter()).amplitudes)
        assert runs[-1].tobytes() == gate_loop_run(spec, w, x).tobytes()
    assert not np.allclose(*runs)


@pytest.mark.parametrize("build", [
    lambda n, w: [rx(i, 2 * w[i]) for i in range(n)],  # a scaled angle
    lambda n, w: [rx(i, -w[i]) for i in range(n)],  # a negated angle
    lambda n, w: [rx(i, w[i] + 1.0) for i in range(n)],  # a shifted angle
    lambda n, w: [rx(i, w[i] ** 2) for i in range(n)],  # a squared angle
    lambda n, w: [rx(0, w[0]), rx(1, w[0])],  # one weight in two gates, one in none
    lambda n, w: [rx(0, w[0]), rx(1, w[1]), ry(1, w[1])],  # one weight in two gates
    lambda n, w: [rot(0, w[0], w[1], w[1])],  # one weight twice in a gate, one in none
    lambda n, w: [rx(0, w[0]), ry(1, 0.5)],  # a fixed angle, one weight in none
    lambda n, w: [rx(0, w[0]), rx(1, w[1])] + ([cnot(0, 1)] if w[0] > 2 else []),  # gates vary
], ids=["scaled", "negated", "shifted", "squared", "reused", "twice", "in-one-gate", "fixed",
        "varying"])
def test_gate_plan_refuses_a_weight_that_is_not_exactly_one_rotation_angle(build):
    with pytest.raises(ValueError, match="^layer Odd: each weight must be the angle of exactly "
                                         "one rotation gate$"):
        _plan(2, (LayerKind("Odd", lambda n: n, build),))


def test_gate_plan_refuses_a_wire_outside_the_circuit():
    with pytest.raises(ValueError, match="layer Wide: wire 2 out of range"):
        _plan(2, (LayerKind("Wide", lambda n: 1, lambda n, w: [rx(n, w[0])]),))


# -- registry ------------------------------------------------------------------


def _dummy_embedding(name="CONST"):
    return EmbeddingKind(
        name=name,
        build=lambda x, n: embed(ANGLE, x, n),
        max_features=lambda n: n,
        wires_for_features=lambda f: f,
    )


def test_register_grows_embedding_domain_by_one():
    registry = base_registry()
    before = list(registry.embedding_names)
    register(registry, "embedding", _dummy_embedding())
    after = registry.embedding_names
    assert after == before + ["CONST"]


def test_register_duplicate_name_fails():
    registry = base_registry()
    with pytest.raises(ValueError):
        register(registry, "embedding", _dummy_embedding("ANGLE"))


def test_register_unknown_table():
    with pytest.raises(ValueError):
        register(base_registry(), "frobnicator", _dummy_embedding())


def test_registering_layer_preserves_existing_entries():
    registry = base_registry()
    extra = LayerKind("RXOnly", lambda n: n, lambda n, w: build_layer(BASIC_ENTANGLER, n, w))
    before = list(registry.layer_names)
    register(registry, "layer", extra)
    assert registry.layer_names == before + ["RXOnly"]


def _family(family, task):
    """A bare model class carrying a family's identity, build and restore."""
    new = classmethod(lambda cls, *args: cls())
    return type(family, (), {"family": family, "task": task, "build": new, "from_spec": new})


def test_models_for_task():
    registry = Registry()
    register(registry, "model", _family("M", TaskType.REGRESSION))
    assert registry.models_for_task(TaskType.REGRESSION) == ["M"]
    assert registry.models_for_task(TaskType.CLUSTERING) == []


def test_model_registered_twice_is_refused():
    registry = Registry()
    register(registry, "model", _family("M", TaskType.REGRESSION))
    with pytest.raises(ValueError, match="model 'M' is already registered"):
        register(registry, "model", _family("M", TaskType.CLASSIFICATION))


def test_registry_copy_is_independent():
    registry = base_registry()
    dup = registry.copy()
    register(dup, "embedding", _dummy_embedding())
    assert "CONST" in dup.embedding_names
    assert "CONST" not in registry.embedding_names
