"""Minimal statevector simulator with device-call accounting.

Fixed conventions (they are part of the serialization and test contract):
  - Basis index is big-endian in wire index: wire 0 is the most significant
    bit, so |10> on two wires is amplitude index 2.
  - Half-angle rotations: RY(t)|0> = cos(t/2)|0> + sin(t/2)|1>.
  - Global phase is kept exactly as produced by the gate sequence.
  - One run_circuit call counts as exactly one device call; expectations are
    exact (infinite-shot).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import cos, pi, sin
from typing import Protocol, Sequence, Union

import numpy as np

MAX_WIRES = 16

_ANGLE_COUNTS = {"RX": 1, "RY": 1, "RZ": 1, "ROT": 3, "H": 0, "CNOT": 0, "PAULI_Z": 0}
GATE_KINDS = frozenset(_ANGLE_COUNTS)


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
        if len(self.angles) != _ANGLE_COUNTS[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ANGLE_COUNTS[self.kind]} angle(s), got {len(self.angles)}"
            )


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


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-wire gate (CNOT is handled by index permutation)."""
    if gate.kind == "RX":
        return _rx_matrix(gate.angles[0])
    if gate.kind == "RY":
        return _ry_matrix(gate.angles[0])
    if gate.kind == "RZ":
        return _rz_matrix(gate.angles[0])
    if gate.kind == "ROT":
        phi, theta, omega = gate.angles
        return _rz_matrix(omega) @ _ry_matrix(theta) @ _rz_matrix(phi)
    if gate.kind == "H":
        return _H_MATRIX
    if gate.kind == "PAULI_Z":
        return _Z_MATRIX
    raise ValueError(f"{gate.kind} has no single-wire matrix")


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state; the input is left untouched."""
    n = state.n_wires
    for w in gate.wires:
        if w >= n:
            raise ValueError(f"wire {w} out of range for a {n}-wire state")
    amps = state.amplitudes.reshape([2] * n)
    if gate.kind == "CNOT":
        control, target = gate.wires
        amps = amps.copy()
        sel10 = [slice(None)] * n
        sel11 = [slice(None)] * n
        sel10[control], sel10[target] = 1, 0
        sel11[control], sel11[target] = 1, 1
        i10, i11 = tuple(sel10), tuple(sel11)
        amps[i10], amps[i11] = amps[i11].copy(), amps[i10].copy()
    else:
        u = gate_matrix(gate)
        wire = gate.wires[0]
        amps = np.tensordot(amps, u, axes=([wire], [1]))
        amps = np.moveaxis(amps, -1, wire)
    return Statevector(np.ascontiguousarray(amps.reshape(-1)), n)


def _apply_operation(state: Statevector, op: Operation) -> Statevector:
    if isinstance(op, StatePrep):
        amps = state.amplitudes
        if amps[0] != 1.0 or np.any(amps[1:]):
            raise ValueError("state preparation is only valid on the all-zeros state")
        prepared = np.asarray(op.amplitudes, dtype=complex)
        if prepared.shape != amps.shape:
            raise ValueError(
                f"prepared amplitudes have length {prepared.size}, state needs {amps.size}"
            )
        return Statevector(prepared.copy(), state.n_wires)
    return apply_gate(state, op)


def run_circuit(
    spec: CircuitLike,
    weights: Sequence[float],
    x: Sequence[float],
    counter: CallCounter,
) -> Statevector:
    """Execute embedding plus layers on |0...0>; counts as exactly one device call."""
    w = np.asarray(weights, dtype=float)
    if w.size != spec.param_count:
        raise ValueError(f"expected {spec.param_count} weights, got {w.size}")
    state = Statevector.zero(spec.n_wires)
    for op in spec.build_ops(w, x):
        state = _apply_operation(state, op)
    counter.increment()
    return state


def expectation_z(state: Statevector, wire: int) -> float:
    """<Z_wire>: +1 weight on basis states with wire bit 0, -1 on bit 1."""
    if not 0 <= wire < state.n_wires:
        raise ValueError(f"wire {wire} out of range for a {state.n_wires}-wire state")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs.reshape([2] * state.n_wires)
    other_axes = tuple(a for a in range(state.n_wires) if a != wire)
    marginal = probs.sum(axis=other_axes) if other_axes else probs
    return float(marginal[0] - marginal[1])


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
