"""Data embeddings, trainable layer templates, and the extensible registries
that span the architecture search space.

Registering an extra embedding, layer, or model family widens what the model
finder can sample; nothing else needs to change. Names registered here are
part of the model-file serialization contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import ceil, log2
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .simulator import MAX_WIRES, Gate, Operation, StatePrep, cnot, rot, rx


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

    def build_ops(self, weights: Sequence[float], x: Sequence[float]) -> list[Operation]:
        w = np.asarray(weights, dtype=float)
        if len(w) != self.param_count:
            raise ValueError(f"expected {self.param_count} weights, got {len(w)}")
        ops = embed(self.embedding, x, self.n_wires)
        offset = 0
        for kind in self.layer_kinds:
            count = kind.params_per_layer(self.n_wires)
            ops.extend(build_layer(kind, self.n_wires, w[offset : offset + count]))
            offset += count
        return ops


@dataclass(frozen=True)
class IntRange:
    low: int
    high: int


@dataclass(frozen=True)
class FloatRange:
    low: float
    high: float


TunableRange = IntRange | FloatRange


@dataclass(frozen=True)
class ModelFamilyConfig:
    """One searchable model family: its model class, layer-count bounds, and tunables.

    The class is the one place the family's identity lives: its `family` is
    the registry name, `task` the task it is searched for, `from_spec(spec,
    registry)` rebuilds a trained model from its model file, and an optional
    class attribute `prepare(models, X)` gets, before a study's first trial,
    every model of the family its trials will fit on X, and may do their
    shared work ahead, in place. A class without `family`, `task` or
    `from_spec` is refused. `builder(kwargs, seed)` makes an untrained model
    from the sampled construction options.
    """

    model: type
    n_layers: tuple[int, int]
    builder: Callable[[Mapping[str, Any], int], Any]
    tunables: Mapping[str, TunableRange] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [attr for attr in ("family", "task", "from_spec")
                   if not hasattr(self.model, attr)]
        if missing:
            raise ValueError(f"model class {self.model.__name__} has no {', '.join(missing)}")
        low, high = self.n_layers
        if low < 1 or high < low:
            raise ValueError(f"invalid n_layers bounds {self.n_layers} for {self.name}")

    @property
    def name(self) -> str:
        return self.model.family


class Registry:
    """Name-keyed tables of embeddings, layers, and model families."""

    def __init__(self) -> None:
        self._embeddings: dict[str, EmbeddingKind] = {}
        self._layers: dict[str, LayerKind] = {}
        self._models: dict[str, ModelFamilyConfig] = {}

    def register(self, table: str, entry) -> "Registry":
        tables = {"embedding": self._embeddings, "layer": self._layers, "model": self._models}
        if table not in tables:
            raise ValueError(f"unknown registry table {table!r}")
        if entry.name in tables[table]:
            raise ValueError(f"{table} {entry.name!r} is already registered")
        tables[table][entry.name] = entry
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

    def model(self, name: str) -> ModelFamilyConfig:
        return self._models[name]

    def models_for_task(self, task: TaskType) -> list[str]:
        return [name for name, cfg in self._models.items() if cfg.model.task == task]

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
