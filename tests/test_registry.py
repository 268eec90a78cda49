"""Embedding/layer behavior and the extensible registry tables."""

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
    LayerKind,
    PortableRng,
    Registry,
    TaskType,
    base_registry,
    build_layer,
    embed,
    register,
    run_circuit,
)
from qmlfinder.simulator import StatePrep

from oracles import ref_run_circuit


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
