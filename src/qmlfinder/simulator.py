"""Minimal statevector simulator with device-call accounting.

Fixed conventions (they are part of the serialization and test contract):
  - Basis index is big-endian in wire index: wire 0 is the most significant
    bit, so |10> on two wires is amplitude index 2.
  - Half-angle rotations: RY(t)|0> = cos(t/2)|0> + sin(t/2)|1>.
  - Global phase is kept exactly as produced by the gate sequence.
  - One circuit is one device call, also in a batch (states, gate angles and
    expectations take a leading batch axis); expectations are exact.
    models.kernel_matrix runs each row once and books 2 calls per kernel pair.

run_circuit and the merged runs of expectation_and_gradient share one loop,
`_simulate`. A merged run's circuits repeat few input rows and weight vectors,
so it embeds each input row once and builds each layer gate's matrices once
per weight vector, then gathers both onto the circuits with `take`. The
gathered matrices are contiguous (B, 2, 2) arrays, as if built per circuit, so
every matmul takes the same numpy path and the results are the same bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import pi
from typing import Protocol, Sequence, Union

import numpy as np

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


class CircuitLike(Protocol):
    """What the simulation needs from a circuit description: the embedding of
    feature-major rows x, the layer gates at weights, and both in one list."""

    n_wires: int

    @property
    def param_count(self) -> int: ...

    def embedding_ops(self, x: np.ndarray) -> list[Operation]: ...

    def layer_ops(self, weights: np.ndarray) -> list[Gate]: ...

    def build_ops(self, weights: np.ndarray, x: np.ndarray) -> list[Operation]: ...


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


def _apply(state: Statevector, gate: Gate, matrix: np.ndarray | None = None) -> Statevector:
    """apply_gate, with a single-wire gate's (..., 2, 2) matrix given, or built
    from its angles when None."""
    n = state.n_wires
    if max(gate.wires) >= n:
        raise ValueError(f"wire {max(gate.wires)} out of range for a {n}-wire state")
    if gate.kind == "CNOT":
        control, target = gate.wires
        amps = state.amplitudes.copy()
        on = _wire_view(amps, control)[..., 1, :]  # control=1 half: a state of the other n-1 wires
        half = on.reshape(on.shape[:-2] + (1 << (n - 1),))
        on[...] = _wire_view(half, target - (target > control))[..., ::-1, :].reshape(on.shape)
    else:
        matrix = gate_matrix(gate) if matrix is None else matrix
        out = matrix[..., None, :, :] @ _wire_view(state.amplitudes, gate.wires[0])
        amps = out.reshape(out.shape[:-3] + (1 << n,))
    return Statevector(amps, n)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate to a copy of the state: its matrix on axis -2 of the wire's
    view, or for CNOT a flip of the target axis in the control=1 half."""
    return _apply(state, gate)


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


def _run_ops(state: Statevector, ops: Sequence[Operation]) -> Statevector:
    for op in ops:
        state = apply_gate(state, op) if isinstance(op, Gate) else _prepare(state, op)
    return state


def _simulate(
    spec: CircuitLike,
    weights: np.ndarray,
    x: np.ndarray,
    weights_at: np.ndarray | None = None,
    rows_at: np.ndarray | None = None,
) -> Statevector:
    """The circuits' final states, booking nothing. Without indices: as
    run_circuit. With both: circuit k runs weight row weights_at[k] of weights
    (W, P) on input row rows_at[k] of x (R, F), gathered from R embedded states
    and, per single-wire layer gate, W matrices."""
    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    if rows_at is None:
        state = Statevector.zero(spec.n_wires, np.broadcast_shapes(w.shape[:-1], x.shape[:-1]))
        return _run_ops(state, spec.build_ops(w.T, x.T))
    state = _run_ops(Statevector.zero(spec.n_wires, x.shape[:-1]), spec.embedding_ops(x.T))
    state = Statevector(state.amplitudes.take(rows_at, axis=0), spec.n_wires)
    for gate in spec.layer_ops(w.T):
        matrix = None if gate.kind == "CNOT" else gate_matrix(gate)
        if matrix is not None and matrix.ndim > 2:  # one matrix per weight row
            matrix = matrix.take(weights_at, axis=0)
        state = _apply(state, gate, matrix)
    return state


def run_circuit(
    spec: CircuitLike, weights: Sequence[float], x: Sequence[float], counter: CallCounter
) -> Statevector:
    """Execute embedding plus layers on |0...0>: weights (B, P), rows (B, F) or both
    run B circuits, return (B, 2**n) amplitudes and book B calls (1-D: one circuit)."""
    batch = np.broadcast_shapes(np.shape(weights)[:-1], np.shape(x)[:-1])
    state = _simulate(spec, weights, x)
    counter.increment(int(np.prod(batch)))
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


@lru_cache(maxsize=8)
def _merged_layout(n_x: int, n_rows: int, p: int) -> tuple[np.ndarray, ...]:
    """Read-only plan of a merged run: the (2P + 1, P) shift mask and offsets
    (row 0 unshifted, then +pi/2 and -pi/2 on each weight in turn), and each
    circuit's row of that table and of the inputs (X's N rows, then `rows`).
    Cached because a training runs at most four shapes, each many times."""
    eye = np.eye(p, dtype=bool)
    mask = np.concatenate([np.zeros((1, p), dtype=bool), eye, eye])
    offsets = np.concatenate([np.zeros((1, p)), eye * (pi / 2), eye * -(pi / 2)])
    row, shift = np.divmod(np.arange(n_rows * 2 * p), 2 * p)
    weight_index = np.concatenate([np.zeros(n_x, dtype=int), 1 + shift])
    row_index = np.concatenate([np.arange(n_x), n_x + row])
    for a in (mask, offsets, weight_index, row_index):
        a.flags.writeable = False  # one plan serves every call of its shape
    return mask, offsets, weight_index, row_index


def expectation_and_gradient(
    spec: CircuitLike, weights: Sequence[float], X: np.ndarray, rows: np.ndarray, wire: int
) -> tuple[np.ndarray, np.ndarray]:
    """<Z_wire> of every row of X (N, F) and the +-pi/2 parameter-shift gradients
    (B, P) of `rows` (B, F) at 1-D weights, from N + B * 2P circuits run in
    slices of at most 2**20 amplitudes; books nothing. Exact because each weight
    of the shipped layers is the angle of one single-axis rotation (ROT: three).

    The circuits use only N + B input rows and 2P + 1 weight vectors. A slice
    embeds the input rows its circuits use, once each, and builds each layer
    gate's matrices once per weight vector; both are gathered onto its circuits.
    """
    w, X, rows = (np.asarray(a, dtype=float) for a in (weights, X, rows))
    p, n_x = w.size, len(X)
    mask, offsets, weight_index, row_index = _merged_layout(n_x, len(rows), p)
    table, inputs = np.where(mask, w + offsets, w), np.concatenate([X, rows])
    size = max(1, 2**20 >> spec.n_wires)
    values = []
    for k in range(0, max(1, len(row_index)), size):  # with no circuits, one empty run
        used = row_index[k : k + size]  # consecutive input rows
        lo, hi = (used[0], used[-1] + 1) if len(used) else (0, 0)
        values.append(expectation_z(  # unbound: a slice's states go before the next's
            _simulate(spec, table, inputs[lo:hi], weight_index[k : k + size], used - lo), wire))
    values = np.concatenate(values)
    shifted = values[n_x:].reshape(len(rows), 2, p)
    return values[:n_x], 0.5 * (shifted[:, 0] - shifted[:, 1])


def parameter_shift_gradient(
    spec: CircuitLike,
    weights: Sequence[float],
    x: Sequence[float],
    wire: int,
    counter: CallCounter,
) -> np.ndarray:
    """Exact gradient of <Z_wire> via +-pi/2 shifts: rows (B, F) give (B, P) and
    cost B * 2 * param_count calls; one row (F,) gives (P,)."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    _, grads = expectation_and_gradient(spec, weights, rows[:0], rows, wire)
    counter.increment(2 * grads.size)
    return grads.reshape(x.shape[:-1] + grads.shape[1:])
