"""Minimal statevector simulator with device-call accounting.

Fixed conventions (they are part of the serialization and test contract):
  - Basis index is big-endian in wire index: wire 0 is the most significant
    bit, so |10> on two wires is amplitude index 2.
  - Half-angle rotations: RY(t)|0> = cos(t/2)|0> + sin(t/2)|1>.
  - Global phase is kept exactly as produced by the gate sequence.
  - One circuit is one device call, also in a batch (states, gate angles and
    expectations take a leading batch axis); expectations are exact.
    models.kernel_matrix runs each row once and books 2 calls per kernel pair.

Embeddings run gate by gate; `_simulate` runs the layers on the states it is
handed, from the gate plan `_plan` compiles once per circuit shape. A fit's
merged runs (MergedRuns) embed its rows once and build each layer gate's
matrices once per weight vector, gathered onto the circuits with `take` as
contiguous (B, 2, 2) arrays, as if built per circuit, so every matmul takes
the same numpy path and gives the same bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import pi
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .registry import CircuitSpec, LayerKind

MAX_WIRES = 16


@dataclass(frozen=True)
class Gate:
    """A single unitary operation on one or two wires."""

    kind: str
    wires: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        expected_wires = 2 if self.kind == "CNOT" else 1
        if len(self.wires) != expected_wires:
            raise ValueError(f"{self.kind} acts on {expected_wires} wire(s), got {self.wires}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"{self.kind} wires must be distinct, got {self.wires}")
        if any(w < 0 for w in self.wires):
            raise ValueError(f"negative wire index in {self.wires}")
        angle_count = _GATES[self.kind][0]
        if len(self.angles) != angle_count:
            raise ValueError(f"{self.kind} takes {angle_count} angle(s), got {len(self.angles)}")


def rx(wire: int, angle: float) -> Gate:
    return Gate("RX", (wire,), (angle,))


def ry(wire: int, angle: float) -> Gate:
    return Gate("RY", (wire,), (angle,))


def rz(wire: int, angle: float) -> Gate:
    return Gate("RZ", (wire,), (angle,))


def rot(wire: int, phi: float, theta: float, omega: float) -> Gate:
    return Gate("ROT", (wire,), (phi, theta, omega))


def h(wire: int) -> Gate:
    return Gate("H", (wire,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def pauli_z(wire: int) -> Gate:
    return Gate("PAULI_Z", (wire,))


@dataclass(frozen=True)
class StatePrep:
    """Direct amplitude initialization; only valid on the all-zeros state."""

    amplitudes: np.ndarray


Operation = Union[Gate, StatePrep]


@dataclass
class Statevector:
    """Complex amplitudes of an n-wire pure state, (2**n_wires,) or (B, 2**n_wires)."""

    amplitudes: np.ndarray
    n_wires: int

    @classmethod
    def zero(cls, n_wires: int, batch: tuple[int, ...] = ()) -> "Statevector":
        if n_wires < 1:
            raise ValueError("n_wires must be >= 1")
        if n_wires > MAX_WIRES:
            raise ValueError(f"n_wires {n_wires} exceeds the supported maximum {MAX_WIRES}")
        amps = np.zeros(batch + (2**n_wires,), dtype=complex)
        amps[..., 0] = 1.0
        return cls(amps, n_wires)

    def norm(self) -> float | np.ndarray:
        """Euclidean norm of each state over the last axis; (B,) for a batch."""
        return np.linalg.norm(self.amplitudes, axis=-1)


class CallCounter:
    """Monotone counter of simulated device calls; increments are thread-safe."""

    __slots__ = ("_lock", "_total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = 0

    @property
    def total_calls(self) -> int:
        return self._total

    def increment(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter increments must be nonnegative")
        with self._lock:
            self._total += n


def _matrix(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] as a complex (..., 2, 2) array over the shape of `a`, which
    every other entry broadcasts to: one allocation, each entry assigned in
    place (real entries get +0j)."""
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _rx_matrix(t) -> np.ndarray:
    c, s = np.cos(t / 2), -1j * np.sin(t / 2)
    return _matrix(c, s, s, c)


def _ry_matrix(t) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return _matrix(c, -s, s, c)


def _rz_matrix(t) -> np.ndarray:
    return _matrix(np.exp(-0.5j * t), 0, 0, np.exp(0.5j * t))


def _rot_matrix(phi, theta, omega) -> np.ndarray:
    """RZ(omega) @ RY(theta) @ RZ(phi), each entry multiplied in the product's order."""
    scalar = np.ndim(phi) == np.ndim(theta) == np.ndim(omega) == 0
    # on 1-d arrays: numpy's scalar arithmetic rounds differently from its array loops
    phi, theta, omega = np.atleast_1d(phi, theta, omega)
    a0, a1 = np.exp(-0.5j * omega), np.exp(0.5j * omega)
    b0, b1 = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = _matrix(a0 * c * b0, a0 * -s * b1, a1 * s * b0, a1 * c * b1)
    return out[0] if scalar else out


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)

# kind -> (angle count, 2x2 matrix from the angles); CNOT has no single-wire matrix
_GATES = {
    "RX": (1, _rx_matrix),
    "RY": (1, _ry_matrix),
    "RZ": (1, _rz_matrix),
    "ROT": (3, _rot_matrix),
    "H": (0, lambda: _H_MATRIX),
    "PAULI_Z": (0, lambda: _Z_MATRIX),
    "CNOT": (0, None),
}
GATE_KINDS = frozenset(_GATES)


def gate_matrix(gate: Gate) -> np.ndarray:
    """(..., 2, 2) matrix of a single-wire gate (CNOT is handled by index permutation)."""
    matrix = _GATES[gate.kind][1]
    if matrix is None:
        raise ValueError(f"{gate.kind} has no single-wire matrix")
    return matrix(*gate.angles)


def _wire_view(amps: np.ndarray, wire: int) -> np.ndarray:
    """The amplitudes as a (..., 2**wire, 2, rest) array whose axis -2 is `wire`'s bit."""
    return amps.reshape(amps.shape[:-1] + (1 << wire, 2, amps.shape[-1] >> (wire + 1)))


def _rotate(amps: np.ndarray, n: int, wire: int, matrix: np.ndarray) -> np.ndarray:
    out = matrix[..., None, :, :] @ _wire_view(amps, wire)
    return out.reshape(out.shape[:-3] + (1 << n,))


def _cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    """A copy of the state whose control=1 half has its target bit flipped, read
    from views of `amps`, so it allocates no array but the copy."""
    lo, hi = sorted((control, target))  # their bits on axes -4 and -2 of the view
    view = amps.reshape(amps.shape[:-1] + (1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1)))
    out = view.copy()
    if control < target:
        out[..., 1, :, 0, :], out[..., 1, :, 1, :] = view[..., 1, :, 1, :], view[..., 1, :, 0, :]
    else:
        out[..., 0, :, 1, :], out[..., 1, :, 1, :] = view[..., 1, :, 1, :], view[..., 0, :, 1, :]
    return out.reshape(amps.shape)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate to a copy of the state: its matrix on axis -2 of the wire's
    view, or for CNOT a flip of the target axis in the control=1 half."""
    n = state.n_wires
    if max(gate.wires) >= n:
        raise ValueError(f"wire {max(gate.wires)} out of range for a {n}-wire state")
    if gate.kind == "CNOT":
        return Statevector(_cnot(state.amplitudes, n, *gate.wires), n)
    return Statevector(_rotate(state.amplitudes, n, gate.wires[0], gate_matrix(gate)), n)


def _prepare(state: Statevector, op: StatePrep) -> Statevector:
    amps = state.amplitudes
    if np.any(amps[..., 0] != 1.0) or np.any(amps[..., 1:]):
        raise ValueError("state preparation is only valid on the all-zeros state")
    prepared = np.asarray(op.amplitudes, dtype=complex)
    if prepared.shape[-1:] != amps.shape[-1:]:
        raise ValueError(
            f"prepared amplitudes have length {prepared.shape[-1]}, state needs {amps.shape[-1]}"
        )
    return Statevector(np.broadcast_to(prepared, amps.shape).copy(), state.n_wires)


def _embed(spec: CircuitSpec, x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """The rows x (..., F) embedded as (*batch, 2**n) amplitudes, gate by gate."""
    state = Statevector.zero(spec.n_wires, batch)
    for op in spec.embedding_ops(x.T):
        state = apply_gate(state, op) if isinstance(op, Gate) else _prepare(state, op)
    return state.amplitudes


@lru_cache(maxsize=256)
def _plan(n_wires: int, layer_kinds: tuple[LayerKind, ...]
          ) -> tuple[Mapping[str, np.ndarray], tuple[tuple[str, int, int], ...]]:
    """The layers of every circuit of this shape as the simulator runs them: per
    gate kind, the read-only weight column of each angle of its G gates,
    (G, angles), and the steps (kind, index in kind, wire) or ("CNOT", control,
    target). Compiled from each layer's `build` at weights 2, 3, ... and at their
    squares; a layer is refused unless each weight is the angle of exactly one
    rotation gate at both."""
    columns: dict[str, list[list[int]]] = {}
    steps, offset = [], 0
    for kind in layer_kinds:
        probe = np.arange(2.0, kind.params_per_layer(n_wires) + 2)  # none its own square
        gates, twins = (kind.build(n_wires, w) for w in (probe, probe**2))
        angles = [(float(a), float(b)) for g, t in zip(gates, twins)
                  for a, b in zip(g.angles, t.angles)]
        if ([(g.kind, g.wires) for g in gates] != [(t.kind, t.wires) for t in twins]
                or sorted(a if b == a * a else 0.0 for a, b in angles) != probe.tolist()):
            raise ValueError(f"layer {kind.name}: each weight must be the angle of exactly "
                             "one rotation gate")
        for gate in gates:
            if max(gate.wires) >= n_wires:
                raise ValueError(f"layer {kind.name}: wire {max(gate.wires)} out of range")
            if gate.kind == "CNOT":
                steps.append(("CNOT", *gate.wires))
            else:
                of_kind = columns.setdefault(gate.kind, [])
                steps.append((gate.kind, len(of_kind), gate.wires[0]))
                of_kind.append([offset + int(a) - 2 for a in gate.angles])
        offset += len(probe)
    arrays = {k: np.array(v, dtype=np.intp) for k, v in columns.items()}
    for array in arrays.values():
        array.flags.writeable = False  # shared by every circuit of this shape
    return MappingProxyType(arrays), tuple(steps)


def _simulate(spec: CircuitSpec, weights: np.ndarray, states: np.ndarray,
              weights_at: np.ndarray | None = None,
              rows_at: np.ndarray | None = None) -> Statevector:
    """The circuits' final states from the embedded `states`, booking nothing.
    Without indices: weights (P,) or (B, P) run on states broadcast to them.
    With both: circuit k runs weight row weights_at[k] of weights (W, P) on row
    rows_at[k] of `states`."""
    amps, n = (states if rows_at is None else states.take(rows_at, axis=0)), spec.n_wires
    del states  # held no longer than a slice's first gate
    (columns_of, steps), mats = _plan(spec.n_wires, spec.layer_kinds), {}
    for kind, columns in columns_of.items():
        m = _GATES[kind][1](*weights.T[columns.T])
        mats[kind] = np.broadcast_to(m, (len(columns), 2, 2)) if m.ndim == 2 else m
    for kind, a, b in steps:
        if kind == "CNOT":
            amps = _cnot(amps, n, a, b)
            continue
        m = mats[kind][a]
        if weights_at is not None and m.ndim > 2:  # one matrix per weight row
            m = m.take(weights_at, axis=0)
        amps = _rotate(amps, n, b, m)
    return Statevector(amps, n)


def run_circuit(spec: CircuitSpec, weights: Sequence[float], x: Sequence[float],
                counter: CallCounter) -> Statevector:
    """Execute embedding plus layers on |0...0>: weights (B, P), rows (B, F) or both
    run B circuits, return (B, 2**n) amplitudes and book B calls (1-D: one circuit)."""
    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    if w.shape[-1] != spec.param_count:  # refused before embedding
        raise ValueError(f"expected {spec.param_count} weights, got {w.shape[-1]}")
    state = _simulate(spec, w, _embed(spec, x, np.broadcast_shapes(w.shape[:-1], x.shape[:-1])))
    counter.increment(int(np.prod(state.amplitudes.shape[:-1])))
    return state


def expectation_z(state: Statevector, wire: int) -> float | np.ndarray:
    """<Z_wire>: +1 weight on basis states with wire bit 0, -1 on bit 1; (B,) for a batch."""
    if not 0 <= wire < state.n_wires:
        raise ValueError(f"wire {wire} out of range for a {state.n_wires}-wire state")
    p = (np.abs(_wire_view(state.amplitudes, wire)) ** 2).sum(axis=(-3, -1))
    return p[..., 0] - p[..., 1]


def fidelity(a: Statevector, b: Statevector) -> float | np.ndarray:
    """|<a|b>|^2 in [0, 1] per state over the last axis; (B,) for a batch."""
    if a.n_wires != b.n_wires:
        raise ValueError(f"wire-count mismatch: {a.n_wires} vs {b.n_wires}")
    return np.abs((a.amplitudes.conj() * b.amplitudes).sum(axis=-1)) ** 2


class MergedRuns:
    """A fit's runs on the rows X (N, F): called with 1-D weights and row
    indices `check` and `batch`, <Z_wire> of the rows in `check` and the (B, P)
    +-pi/2 parameter-shift gradients of those in `batch`, from len(check) +
    2P*B circuits in slices of at most 2**20 amplitudes; books nothing. X is
    embedded once if it fits one slice, else each slice embeds its rows."""

    def __init__(self, spec: CircuitSpec, X: np.ndarray, wire: int) -> None:
        self.spec, self.X, self.wire = spec, np.asarray(X, dtype=float), wire
        self.size = max(1, 2**20 >> spec.n_wires)  # circuits per slice
        self.states = _embed(spec, self.X, self.X.shape[:-1]) if len(self.X) <= self.size else None
        p = spec.param_count
        eye = np.eye(p, dtype=bool)  # weight rows: unshifted, then +-pi/2 on each weight in turn
        self.mask = np.concatenate([np.zeros((1, p), dtype=bool), eye, eye])
        self.offsets = np.concatenate([np.zeros((1, p)), eye * (pi / 2), eye * -(pi / 2)])
        self.layouts: dict[tuple[int, int], np.ndarray] = {}  # weight row of each circuit

    def __call__(self, weights: Sequence[float], check: np.ndarray,
                 batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = np.asarray(weights, dtype=float)
        p, n_check = w.size, len(check)
        table = np.where(self.mask, w + self.offsets, w)
        weights_at = self.layouts.get((n_check, len(batch)))
        if weights_at is None:
            weights_at = self.layouts[n_check, len(batch)] = np.concatenate(
                [np.zeros(n_check, dtype=np.intp), np.tile(np.arange(1, 2 * p + 1), len(batch))])
        rows_at, values = np.concatenate([check, np.repeat(batch, 2 * p)]), []
        for k in range(0, max(1, len(rows_at)), self.size):  # with no circuits, one empty run
            used, x = rows_at[k : k + self.size], None
            if self.states is None:  # embed the slice's distinct rows
                distinct, used = np.unique(used, return_inverse=True)
                x = self.X[distinct]
            values.append(expectation_z(  # unbound: a slice's states go before the next's
                _simulate(self.spec, table, self.states if x is None else
                          _embed(self.spec, x, x.shape[:-1]), weights_at[k : k + self.size], used),
                self.wire))
        values = np.concatenate(values)
        shifted = values[n_check:].reshape(len(batch), 2, p)
        return values[:n_check], 0.5 * (shifted[:, 0] - shifted[:, 1])


def parameter_shift_gradient(spec: CircuitSpec, weights: Sequence[float], x: Sequence[float],
                             wire: int, counter: CallCounter) -> np.ndarray:
    """Exact gradient of <Z_wire> via +-pi/2 shifts: rows (B, F) give (B, P) and
    cost B * 2 * param_count calls; one row (F,) gives (P,)."""
    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    if len(w) != spec.param_count:  # refused before embedding
        raise ValueError(f"expected {spec.param_count} weights, got {len(w)}")
    rows = np.atleast_2d(x)
    _, grads = MergedRuns(spec, rows, wire)(w, np.arange(0), np.arange(len(rows)))
    counter.increment(2 * grads.size)
    return grads.reshape(x.shape[:-1] + grads.shape[1:])
