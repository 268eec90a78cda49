"""Data embeddings, trainable layer templates, the extensible registries that
span the architecture search space, and the draws a circuit family makes on
them.

Registering an extra embedding, layer, or model family widens what the model
finder can sample; nothing else needs to change. Names registered here are
part of the model-file serialization contract.

A model family is its class (models.py states the protocol); the model table
holds classes, named by their `family`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import ceil, log2
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .simulator import MAX_WIRES, Gate, Operation, StatePrep, cnot, rot, rx

if TYPE_CHECKING:
    from .search import Trial


class TaskType(str, Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"
    CLUSTERING = "clustering"


@dataclass(frozen=True)
class EmbeddingKind:
    """A named way of loading a feature vector into the circuit.

    `build(x, n_wires)` returns the preparation operations; `max_features`
    bounds the feature count for a wire count, and `wires_for_features` is the
    wire count the model finder allocates for a feature count. `x` is
    feature-major, (F,) or (F, B) for B rows, so `len(x)` is the feature count.
    """

    name: str
    build: Callable[[Sequence[float], int], list[Operation]]
    max_features: Callable[[int], int]
    wires_for_features: Callable[[int], int]
    fixed_options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LayerKind:
    """A named trainable layer template; `build` gets weights (count,) or (count, B)."""

    name: str
    params_per_layer: Callable[[int], int]
    build: Callable[[int, Sequence[float]], list[Gate]]


def _cnot_ring(n_wires: int) -> list[Gate]:
    # Ring i -> (i+1) mod n; degenerates to nothing on a single wire.
    if n_wires == 1:
        return []
    return [cnot(i, (i + 1) % n_wires) for i in range(n_wires)]


def _build_angle(x: Sequence[float], n_wires: int) -> list[Operation]:
    features = np.asarray(x, dtype=float)
    if len(features) > n_wires:
        raise ValueError(f"ANGLE embedding: {len(features)} features exceed {n_wires} wires")
    angles = np.zeros((n_wires,) + features.shape[1:])
    angles[: len(features)] = features
    return [rx(w, angles[w]) for w in range(n_wires)]


def _build_amplitude(x: Sequence[float], n_wires: int) -> list[Operation]:
    features = np.asarray(x, dtype=float)
    dim = 2**n_wires
    if len(features) > dim:
        raise ValueError(
            f"AMPLITUDE embedding: {len(features)} features exceed {dim} amplitudes"
        )
    rows = np.zeros(features.shape[1:] + (dim,))  # contiguous rows: each norm below is
    rows[..., : len(features)] = features.T  # the same ddot as np.linalg.norm of one row
    norm = np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])
    if np.any(norm == 0.0):
        raise ValueError("AMPLITUDE embedding of an all-zero vector is undefined")
    return [StatePrep((rows / norm[..., None]).astype(complex))]


def _amplitude_wires(n_features: int) -> int:
    return max(1, ceil(log2(max(n_features, 2))))


ANGLE = EmbeddingKind(
    name="ANGLE",
    build=_build_angle,
    max_features=lambda n_wires: n_wires,
    wires_for_features=lambda f: f,
)

AMPLITUDE = EmbeddingKind(
    name="AMPLITUDE",
    build=_build_amplitude,
    max_features=lambda n_wires: 2**n_wires,
    wires_for_features=_amplitude_wires,
    fixed_options={"pad_with": 0, "normalize": True},
)


def _build_basic_entangler(n_wires: int, layer_weights: Sequence[float]) -> list[Gate]:
    w = np.asarray(layer_weights, dtype=float)
    gates = [rx(i, w[i]) for i in range(n_wires)]
    return gates + _cnot_ring(n_wires)


def _build_strongly_entangling(n_wires: int, layer_weights: Sequence[float]) -> list[Gate]:
    w = np.asarray(layer_weights, dtype=float)
    gates = [rot(i, w[3 * i], w[3 * i + 1], w[3 * i + 2]) for i in range(n_wires)]
    return gates + _cnot_ring(n_wires)


BASIC_ENTANGLER = LayerKind(
    name="BasicEntangler",
    params_per_layer=lambda n_wires: n_wires,
    build=_build_basic_entangler,
)

STRONGLY_ENTANGLING = LayerKind(
    name="StronglyEntangling",
    params_per_layer=lambda n_wires: 3 * n_wires,
    build=_build_strongly_entangling,
)


def embed(kind: EmbeddingKind, x: Sequence[float], n_wires: int) -> list[Operation]:
    """Preparation operations loading `x` onto `n_wires` wires."""
    if len(np.asarray(x, dtype=float)) > kind.max_features(n_wires):
        raise ValueError(
            f"{kind.name} embedding supports at most {kind.max_features(n_wires)} "
            f"features on {n_wires} wires"
        )
    return kind.build(x, n_wires)


def build_layer(kind: LayerKind, n_wires: int, layer_weights: Sequence[float]) -> list[Gate]:
    """Gate sequence of one trainable layer."""
    expected = kind.params_per_layer(n_wires)
    if len(layer_weights) != expected:
        raise ValueError(
            f"{kind.name} on {n_wires} wires takes {expected} weights, got {len(layer_weights)}"
        )
    return kind.build(n_wires, layer_weights)


@dataclass(frozen=True)
class CircuitSpec:
    """Declarative description of a variational circuit."""

    n_wires: int
    embedding: EmbeddingKind
    layer_kinds: tuple[LayerKind, ...] = ()

    def __post_init__(self) -> None:
        if self.n_wires < 1:
            raise ValueError("n_wires must be >= 1")
        if self.n_wires > MAX_WIRES:
            raise ValueError(f"n_wires {self.n_wires} exceeds the supported maximum {MAX_WIRES}")

    @property
    def param_count(self) -> int:
        return sum(kind.params_per_layer(self.n_wires) for kind in self.layer_kinds)

    def layer_names(self) -> list[str]:
        return [kind.name for kind in self.layer_kinds]

    def embedding_ops(self, x: Sequence[float]) -> list[Operation]:
        """Operations loading the feature-major rows `x`, (F,) or (F, B)."""
        return embed(self.embedding, x, self.n_wires)

    def layer_ops(self, weights: Sequence[float]) -> list[Gate]:
        """Gates of every layer at weights (P,) or, one column per weight vector, (P, W)."""
        w = np.asarray(weights, dtype=float)
        if len(w) != self.param_count:
            raise ValueError(f"expected {self.param_count} weights, got {len(w)}")
        gates, offset = [], 0
        for kind in self.layer_kinds:
            count = kind.params_per_layer(self.n_wires)
            gates.extend(build_layer(kind, self.n_wires, w[offset : offset + count]))
            offset += count
        return gates

    def build_ops(self, weights: Sequence[float], x: Sequence[float]) -> list[Operation]:
        layers = self.layer_ops(weights)  # a wrong weight count is refused before embedding
        return self.embedding_ops(x) + layers


class Registry:
    """Name-keyed tables of embeddings, layers, and model family classes."""

    def __init__(self) -> None:
        self._embeddings: dict[str, EmbeddingKind] = {}
        self._layers: dict[str, LayerKind] = {}
        self._models: dict[str, type] = {}

    def register(self, table: str, entry) -> "Registry":
        """Add `entry` under its name; a model class is named by its `family` and
        is refused without `family`, `task`, `build` or `from_spec`."""
        tables = {"embedding": self._embeddings, "layer": self._layers, "model": self._models}
        if table not in tables:
            raise ValueError(f"unknown registry table {table!r}")
        if table == "model":
            missing = [attr for attr in ("family", "task", "build", "from_spec")
                       if not hasattr(entry, attr)]
            if missing:
                raise ValueError(f"model class {entry.__name__} has no {', '.join(missing)}")
            name = entry.family
        else:
            name = entry.name
        if name in tables[table]:
            raise ValueError(f"{table} {name!r} is already registered")
        tables[table][name] = entry
        return self

    @property
    def embedding_names(self) -> list[str]:
        return list(self._embeddings)

    @property
    def layer_names(self) -> list[str]:
        return list(self._layers)

    @property
    def model_names(self) -> list[str]:
        return list(self._models)

    def embedding(self, name: str) -> EmbeddingKind:
        return self._embeddings[name]

    def layer(self, name: str) -> LayerKind:
        return self._layers[name]

    def model(self, name: str) -> type:
        return self._models[name]

    def models_for_task(self, task: TaskType) -> list[str]:
        return [name for name, cls in self._models.items() if cls.task == task]

    def copy(self) -> "Registry":
        dup = Registry()
        dup._embeddings = dict(self._embeddings)
        dup._layers = dict(self._layers)
        dup._models = dict(self._models)
        return dup


def register(registry: Registry, table: str, entry) -> Registry:
    """Add an embedding, layer, or model family to the search space."""
    return registry.register(table, entry)


def base_registry() -> Registry:
    """Registry with the shipped embeddings and layers and no model families."""
    reg = Registry()
    reg.register("embedding", ANGLE)
    reg.register("embedding", AMPLITUDE)
    reg.register("layer", BASIC_ENTANGLER)
    reg.register("layer", STRONGLY_ENTANGLING)
    return reg


def suggest_embedding(trial: "Trial", registry: Registry, n_features: int) -> EmbeddingKind:
    """Categorical draw over the embeddings that can host `n_features` features."""
    eligible = []
    for name in registry.embedding_names:
        kind = registry.embedding(name)
        wires = kind.wires_for_features(n_features)
        if 1 <= wires <= MAX_WIRES and n_features <= kind.max_features(wires):
            eligible.append(name)
    if not eligible:
        raise ValueError(f"no registered embedding can host {n_features} features")
    return registry.embedding(trial.suggest_categorical("embedding", eligible))


def suggest_layers(trial: "Trial", n_layers: int, registry: Registry) -> list[LayerKind]:
    """Exactly n_layers categorical draws named layer_0 ... layer_{n-1}; the
    sampled order is the order the layers are applied in."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    names = registry.layer_names
    if not names:
        raise ValueError("layer registry is empty")
    return [
        registry.layer(trial.suggest_categorical(f"layer_{i}", names)) for i in range(n_layers)
    ]


def suggest_circuit(
    trial: "Trial", registry: Registry, X: np.ndarray, n_layers: tuple[int, int]
) -> CircuitSpec:
    """A circuit for the rows X: the layer count within the inclusive bounds
    `n_layers` first, then the embedding (which fixes the wire count), then
    the per-slot layer kinds."""
    n_features = int(np.asarray(X).shape[1])
    depth = trial.suggest_int("n_layers", *n_layers)
    embedding = suggest_embedding(trial, registry, n_features)
    return CircuitSpec(
        embedding.wires_for_features(n_features),
        embedding,
        tuple(suggest_layers(trial, depth, registry)),
    )
