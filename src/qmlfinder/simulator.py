"""Minimal statevector simulator with device-call accounting.

Fixed conventions (they are part of the serialization and test contract):
  - Basis index is big-endian in wire index: wire 0 is the most significant
    bit, so |10> on two wires is amplitude index 2.
  - Half-angle rotations: RY(t)|0> = cos(t/2)|0> + sin(t/2)|1>.
  - Global phase is kept exactly as produced by the gate sequence.
  - One run_circuit call counts as exactly one device call; expectations are
    exact (infinite-shot). models.kernel_matrix runs each row once and books
    its pair cost, 2 calls per kernel pair, in closed form.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import cos, pi, sin
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
    return Gate("RX", (wire,), (float(angle),))


def ry(wire: int, angle: float) -> Gate:
    return Gate("RY", (wire,), (float(angle),))


def rz(wire: int, angle: float) -> Gate:
    return Gate("RZ", (wire,), (float(angle),))


def rot(wire: int, phi: float, theta: float, omega: float) -> Gate:
    return Gate("ROT", (wire,), (float(phi), float(theta), float(omega)))


def h(wire: int) -> Gate:
    return Gate("H", (wire,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def pauli_z(wire: int) -> Gate:
    return Gate("PAULI_Z", (wire,))


@dataclass(frozen=True)
class StatePrep:
    """Direct amplitude initialization; only valid on the all-zeros state."""

    amplitudes: tuple[complex, ...]


Operation = Union[Gate, StatePrep]


@dataclass
class Statevector:
    """Complex amplitudes of an n-wire pure state, length 2**n_wires."""

    amplitudes: np.ndarray
    n_wires: int

    @classmethod
    def zero(cls, n_wires: int) -> "Statevector":
        if n_wires < 1:
            raise ValueError("n_wires must be >= 1")
        if n_wires > MAX_WIRES:
            raise ValueError(f"n_wires {n_wires} exceeds the supported maximum {MAX_WIRES}")
        amps = np.zeros(2**n_wires, dtype=complex)
        amps[0] = 1.0
        return cls(amps, n_wires)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
    """What run_circuit needs from a circuit description."""

    n_wires: int

    @property
    def param_count(self) -> int: ...

    def build_ops(self, weights: np.ndarray, x: Sequence[float]) -> list[Operation]: ...


def _rx_matrix(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry_matrix(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(t: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)

# kind -> (angle count, 2x2 matrix from the angles); CNOT has no single-wire matrix
_GATES = {
    "RX": (1, _rx_matrix),
    "RY": (1, _ry_matrix),
    "RZ": (1, _rz_matrix),
    "ROT": (3, lambda phi, theta, omega: _rz_matrix(omega) @ _ry_matrix(theta) @ _rz_matrix(phi)),
    "H": (0, lambda: _H_MATRIX),
    "PAULI_Z": (0, lambda: _Z_MATRIX),
    "CNOT": (0, None),
}
GATE_KINDS = frozenset(_GATES)


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-wire gate (CNOT is handled by index permutation)."""
    matrix = _GATES[gate.kind][1]
    if matrix is None:
        raise ValueError(f"{gate.kind} has no single-wire matrix")
    return matrix(*gate.angles)


def _wire_view(amps: np.ndarray, wire: int) -> np.ndarray:
    """The amplitudes as a (2**wire, 2, rest) array whose middle axis is `wire`'s bit."""
    return amps.reshape(1 << wire, 2, -1)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate to a copy of the state: its matrix on the middle axis of the
    wire's view, or for CNOT a flip of the target axis in the control=1 half."""
    n = state.n_wires
    if max(gate.wires) >= n:
        raise ValueError(f"wire {max(gate.wires)} out of range for a {n}-wire state")
    if gate.kind == "CNOT":
        control, target = gate.wires
        amps = state.amplitudes.copy()
        on = _wire_view(amps, control)[:, 1]  # control=1 half: a state of the other n-1 wires
        flipped = _wire_view(on.reshape(-1), target - (target > control))[:, ::-1]
        on[:] = flipped.reshape(on.shape)
    else:
        amps = (gate_matrix(gate) @ _wire_view(state.amplitudes, gate.wires[0])).reshape(-1)
    return Statevector(amps, n)


def run_circuit(
    spec: CircuitLike, weights: Sequence[float], x: Sequence[float], counter: CallCounter
) -> Statevector:
    """Execute embedding plus layers on |0...0>; counts as exactly one device call."""
    state = Statevector.zero(spec.n_wires)
    for op in spec.build_ops(np.asarray(weights, dtype=float), x):
        if isinstance(op, Gate):
            state = apply_gate(state, op)
            continue
        amps = state.amplitudes
        if amps[0] != 1.0 or np.any(amps[1:]):
            raise ValueError("state preparation is only valid on the all-zeros state")
        prepared = np.array(op.amplitudes, dtype=complex)
        if prepared.shape != amps.shape:
            raise ValueError(
                f"prepared amplitudes have length {prepared.size}, state needs {amps.size}"
            )
        state = Statevector(prepared, spec.n_wires)
    counter.increment()
    return state


def expectation_z(state: Statevector, wire: int) -> float:
    """<Z_wire>: +1 weight on basis states with wire bit 0, -1 on bit 1."""
    if not 0 <= wire < state.n_wires:
        raise ValueError(f"wire {wire} out of range for a {state.n_wires}-wire state")
    p0, p1 = (np.abs(_wire_view(state.amplitudes, wire)) ** 2).sum(axis=(0, 2))
    return float(p0 - p1)


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2 in [0, 1]."""
    if a.n_wires != b.n_wires:
        raise ValueError(f"wire-count mismatch: {a.n_wires} vs {b.n_wires}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def parameter_shift_gradient(
    spec: CircuitLike,
    weights: Sequence[float],
    x: Sequence[float],
    wire: int,
    counter: CallCounter,
) -> np.ndarray:
    """Exact gradient of <Z_wire> via +-pi/2 shifts; costs 2 * param_count calls.

    Valid because every trainable weight in the shipped layer templates enters
    the circuit as the angle of exactly one single-axis rotation (ROT counts as
    three such rotations).
    """
    w = np.asarray(weights, dtype=float).copy()
    grad = np.empty(w.size)
    for j in range(w.size):
        original = w[j]
        w[j] = original + pi / 2
        f_plus = expectation_z(run_circuit(spec, w, x, counter), wire)
        w[j] = original - pi / 2
        f_minus = expectation_z(run_circuit(spec, w, x, counter), wire)
        w[j] = original
        grad[j] = 0.5 * (f_plus - f_minus)
    return grad
