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
handed. Both run_circuit and merged runs read the layers from one plan
(`_plan`), compiled once per circuit shape: its gate skeleton, each gate
kind's weight columns and the parameter-shift table. Merged runs
(MergedRuns) serve every QNN fit's training, a lockstep of one fit or of
many: they embed the rows once per embedding and build each layer gate's
distinct matrices once per weight vector, in one call per gate kind for all
fits, gathered onto the circuits with `take` as contiguous (B, 2, 2) arrays,
as if built per circuit, so every matmul takes the same numpy path and gives
the same bits. Fits of one wire count and gate skeleton share each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, prod
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

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
    """Monotone counter of simulated device calls. Not locked: trials run one
    at a time in one thread."""

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0

    @property
    def total_calls(self) -> int:
        return self._total

    def increment(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter increments must be nonnegative")
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


class Plan(NamedTuple):
    """The layers of every circuit of one shape as the simulator runs them, with
    the shift table that merged runs read. Every array is read-only: one plan
    serves every circuit of its shape."""

    skeleton: tuple  # per step, a rotation's wire or a CNOT's (control, target)
    columns: Mapping[str, np.ndarray]  # per gate kind, its G gates' weight columns (G, angles)
    kinds: tuple[int, ...]  # per rotation step, its gate kind's place among `columns`
    gates: tuple[int, ...]  # per rotation step, its gate's index among its kind's G
    mask: np.ndarray  # the shift table's (2P+1, P) shifted entries
    offsets: np.ndarray  # and each table row's shift, (2P+1, 1)
    picks: Mapping[str, np.ndarray]  # per gate kind, (angles, G * (1 + 2 angles))
    variants: np.ndarray  # (rotation steps, 2P+1)


@lru_cache(maxsize=256)
def _plan(n_wires: int, layer_kinds: tuple[LayerKind, ...]) -> Plan:
    """The plan of circuits of this shape. Compiled from each layer's `build` at
    weights 2, 3, ... and at their squares; a layer is refused unless each
    weight is the angle of exactly one rotation gate at both.

    A shift table holds 2P+1 weight rows: the weights, then +-pi/2 on each in
    turn (MergedRuns), the shifted entries in `mask` and each row's shift in
    `offsets` (a column: the process keeps a plan for every shape it meets,
    so no (2P+1, P) float array). Among those rows a gate with q angles has
    1 + 2q distinct angle sets: unshifted, then each angle +pi/2, then each
    -pi/2. A kind's picks are the flat positions in the table of its G gates'
    angle sets, gate by gate. Row r of `variants` gives each table row the
    index of the r-th rotation step's matrix among its kind's G * (1 + 2q)."""
    columns: dict[str, list[list[int]]] = {}
    skeleton, rotations, p = [], [], 0
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
                skeleton.append(gate.wires)
            else:
                of_kind = columns.setdefault(gate.kind, [])
                skeleton.append(gate.wires[0])
                rotations.append((gate.kind, len(of_kind)))
                of_kind.append([p + int(a) - 2 for a in gate.angles])
        p += len(probe)
    columns_of = {kind: np.array(c, dtype=np.intp) for kind, c in columns.items()}
    eye = np.eye(p, dtype=bool)
    mask = np.concatenate([np.zeros((1, p), dtype=bool), eye, eye])
    offsets = np.repeat([0.0, pi / 2, -pi / 2], [1, p, p]).reshape(-1, 1)
    picks = {}
    for kind, c in columns_of.items():
        g, q = c.shape
        rows = np.concatenate([np.zeros((g, 1), dtype=np.intp), 1 + c, 1 + p + c], axis=1)
        picks[kind] = (rows[:, :, None] * p + c[:, None, :]).transpose(2, 0, 1).reshape(
            q, g * (1 + 2 * q))
    variants = np.empty((len(rotations), 2 * p + 1), dtype=np.intp)
    for r, (kind, a) in enumerate(rotations):
        c = columns_of[kind][a]
        variants[r] = a * (1 + 2 * len(c))
        variants[r, 1 + c] += 1 + np.arange(len(c))
        variants[r, 1 + p + c] += 1 + len(c) + np.arange(len(c))
    for array in (*columns_of.values(), mask, offsets, *picks.values(), variants):
        array.flags.writeable = False  # shared by every circuit of this shape
    order = list(columns_of)
    return Plan(tuple(skeleton), MappingProxyType(columns_of),
                tuple(order.index(kind) for kind, _ in rotations),
                tuple(a for _, a in rotations), mask, offsets, MappingProxyType(picks), variants)


def _layer_matrices(angle_sets: Sequence[Mapping[str, np.ndarray]]
                    ) -> tuple[np.ndarray, list[list[int]]]:
    """The matrices of each set's angles, kind -> (angles, M) for M gates, as
    one (total, 2, 2) array, kind by kind and within a kind set by set, and
    for each set the row of its first matrix of each of its kinds, in its
    kinds' order. Each gate kind builds its matrices in one call over all sets."""
    kinds: dict[str, list[np.ndarray]] = {}
    for angles in angle_sets:
        for kind, piece in angles.items():
            kinds.setdefault(kind, []).append(piece)
    blocks, first, size = [], {}, 0
    for kind, pieces in kinds.items():
        angles = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        m = _GATES[kind][1](*angles)
        blocks.append(np.broadcast_to(m, (angles.shape[1], 2, 2)) if m.ndim == 2 else m)
        first[kind], size = size, size + angles.shape[1]
    starts = []
    for angles in angle_sets:
        starts.append([first[kind] for kind in angles])
        for kind, piece in angles.items():
            first[kind] += piece.shape[1]
    mats = blocks[0] if len(blocks) == 1 else np.concatenate(blocks or [np.empty((0, 2, 2))])
    return mats, starts


def _simulate(n: int, steps: tuple, states: np.ndarray, rows_at: np.ndarray | None,
              at: Sequence) -> Statevector:
    """The final states of circuits run from the embedded `states` (their rows
    rows_at, else all of them), booking nothing. A step is a CNOT's (control,
    target) or a rotation's wire; the r-th rotation's at[r] = (matrices, index)
    gives every circuit `matrices`, or with an index circuit k matrices[index[k]]."""
    amps = states if rows_at is None else states.take(rows_at, axis=0)
    del states  # held no longer than a slice's first gate
    at = iter(at)
    for step in steps:
        if isinstance(step, tuple):
            amps = _cnot(amps, n, *step)
        else:
            m, index = next(at)
            amps = _rotate(amps, n, step, m if index is None else m.take(index, axis=0))
    return Statevector(amps, n)


def run_circuit(spec: CircuitSpec, weights: Sequence[float], x: Sequence[float],
                counter: CallCounter) -> Statevector:
    """Execute embedding plus layers on |0...0>: weights (B, P), rows (B, F) or both
    run B circuits, return (B, 2**n) amplitudes and book B calls (1-D: one circuit)."""
    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    if w.shape[-1] != spec.param_count:  # refused before embedding
        raise ValueError(f"expected {spec.param_count} weights, got {w.shape[-1]}")
    batch, n = np.broadcast_shapes(w.shape[:-1], x.shape[:-1]), spec.n_wires
    plan = _plan(n, spec.layer_kinds)
    rows, table = None, w  # 1-D weights: one matrix per gate, broadcast over the circuits
    if w.ndim > 1:  # gate g's matrices (W, 2, 2), one per weight row, gathered per circuit
        table = w.reshape(-1, w.shape[-1])
        rows = np.broadcast_to(np.arange(len(table)).reshape(w.shape[:-1]), batch).reshape(-1)
    mats = []
    for kind, c in plan.columns.items():  # a gate without angles has one matrix
        m = _GATES[kind][1](*table.T[c.T])
        mats.append(np.broadcast_to(m, (len(c), 2, 2)) if m.ndim == 2 else m)
    at = [(m, rows if m.ndim > 2 else None)
          for m in (mats[k][g] for k, g in zip(plan.kinds, plan.gates))]
    # one row per circuit; no reference outlives its first gate
    state = _simulate(n, plan.skeleton, _embed(spec, x, batch).reshape(-1, 2**n), None, at)
    counter.increment(prod(batch))
    return Statevector(state.amplitudes.reshape(batch + (2**n,)), n)


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


SLICE = 2**20  # amplitudes of a slice of a merged run


class MergedRuns:
    """The runs of fits on the rows X (N, F), read out at `wire`. Called with
    one request (spec, weights, check, batch) per fit, it returns each fit's
    (values, grads): <Z_wire> of the rows in `check` at the 1-D weights, and
    the (B, P) +-pi/2 parameter-shift gradients of the rows in `batch`, from
    len(check) + 2P*B circuits; it books nothing. A lone fit's requests are
    the case of one request.

    Each gate kind builds its matrices in one call over all requests' weight
    vectors, read from each request's plan (`_plan`) and its shift table.
    Requests of one wire count and one skeleton run together as one group:
    its circuits are laid out as arrays, request by request in order, and
    each step is one `_rotate` of all of them, in slices of at most SLICE
    amplitudes. X is embedded once per embedding and wire count if it fits
    one slice, and then every request's rows are embedded before the first
    group runs, so a row an embedding refuses raises before anything is
    simulated. A larger X is embedded slice by slice, each slice the rows it
    uses, so there a refused row can still raise after some groups ran."""

    def __init__(self, X: np.ndarray, wire: int) -> None:
        self.X, self.wire = np.asarray(X, dtype=float), wire
        # wire count -> a spec per embedding, and X embedded by each in turn (or None)
        self.embedded: dict[int, tuple[list[CircuitSpec], np.ndarray | None]] = {}

    def _first_row(self, spec: CircuitSpec) -> int:
        """The row of X's first row embedded by spec's embedding, among the
        embedded rows of its wire count."""
        specs, stacked = self.embedded.get(spec.n_wires, ([], None))
        for k, known in enumerate(specs):
            if known.embedding is spec.embedding or known.embedding == spec.embedding:
                return k * len(self.X)
        if len(self.X) <= SLICE >> spec.n_wires:
            states = _embed(spec, self.X, self.X.shape[:-1])
            stacked = states if stacked is None else np.concatenate([stacked, states])
        self.embedded[spec.n_wires] = specs + [spec], stacked
        return len(specs) * len(self.X)

    def _states(self, n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Embedded states holding the embedded rows `rows`, and their rows in them."""
        specs, stacked = self.embedded[n]
        if stacked is not None:
            return stacked, rows
        distinct, used = np.unique(rows, return_inverse=True)
        owner = distinct // len(self.X)
        parts = [_embed(specs[k], self.X[distinct[owner == k] - k * len(self.X)],
                        (int(np.sum(owner == k)),))
                 for k in (np.unique(owner) if len(owner) else [0])]
        return (parts[0] if len(parts) == 1 else np.concatenate(parts)), used

    def __call__(self, requests: Sequence[tuple[CircuitSpec, Sequence[float], np.ndarray,
                                                np.ndarray]]
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
        plans = [_plan(spec.n_wires, spec.layer_kinds) for spec, *_ in requests]
        angle_sets = []
        for (_, w, _, _), plan in zip(requests, plans):
            w = np.asarray(w, dtype=float)
            if w.size != plan.mask.shape[1]:
                raise ValueError(f"expected {plan.mask.shape[1]} weights, got {w.size}")
            table = np.where(plan.mask, w + plan.offsets, w)  # `take` reads it flat
            angle_sets.append({kind: table.take(pick) for kind, pick in plan.picks.items()})
        mats, starts = _layer_matrices(angle_sets)  # one call per gate kind for all requests
        del angle_sets
        for spec, *_ in requests:
            self._first_row(spec)  # embedded before any run
        groups: dict[tuple, list[tuple]] = {}  # the requests that run together
        for i, ((spec, _, check, batch), plan) in enumerate(zip(requests, plans)):
            groups.setdefault((spec.n_wires, plan.skeleton), []).append(
                (i, spec, plan.mask.shape[1], check, batch, plan.variants,
                 [starts[i][k] for k in plan.kinds]))
        answers: list = [None] * len(requests)
        for (n, skeleton), group in groups.items():
            rows, columns, table = self._layout(group)
            size, values = max(1, SLICE >> n), []
            for k in range(0, len(rows), size):
                at = [(mats, index) for index in table.take(columns[k : k + size], axis=1)]
                state = _simulate(n, skeleton, *self._states(n, rows[k : k + size]), at)
                values.append(expectation_z(state, self.wire))
            values = values[0] if len(values) == 1 else np.concatenate(values or [np.empty(0)])
            k = 0
            for i, _, p, check, batch, *_ in group:  # its checked rows, then its shifted pairs
                shifted = values[k + len(check) : k + len(check) + 2 * p * len(batch)]
                shifted = shifted.reshape(len(batch), 2, p)
                answers[i] = values[k : k + len(check)], 0.5 * (shifted[:, 0] - shifted[:, 1])
                k += len(check) + shifted.size
        return answers

    def _layout(self, group: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A group's circuits as arrays, request by request, in a fixed number of
        numpy calls: each circuit's row among the embedded rows of X, its column
        in the group's table, and the table. A request (index, spec, P, check,
        batch, variants, offsets) has its checked rows at its column 0, then 2P
        circuits for each batch row at its columns 1..2P. The table's row r holds,
        for the r-th rotation step, each request's 2P + 1 matrix indices among the
        run's matrices, its `variants` row r plus offsets[r], the requests side by
        side."""
        cells, lengths, units, blocks, offsets, widths = [], [], [], [], [], []
        column = circuit = unit = 0
        later = False  # whether an embedding is not the first of its wire count
        for _, spec, p, check, batch, variants, offset in group:
            first = self._first_row(spec)
            # two cells, the checked rows and the batch rows, each row `width`
            # circuits: the group's circuit c runs the row at (c + shift) //
            # width in `units` (of the embedded X whose first row is `first`),
            # at column `at` + (c + shift) % width
            for count, width, indices, at in ((len(check), 1, check, column),
                                              (len(batch), 2 * p, batch, column + 1)):
                cells.append((unit * width - circuit, width, at, first))
                lengths.append(count * width)
                units.append(indices)
                circuit, unit = circuit + count * width, unit + count
            blocks.append(variants)
            offsets.append(offset)
            widths.append(2 * p + 1)
            column += 2 * p + 1
            later = later or first > 0
        cells = np.array(cells, dtype=np.intp).repeat(lengths, axis=0)
        row, columns = np.divmod(np.arange(circuit) + cells[:, 0], cells[:, 1])
        rows = np.concatenate(units).take(row)
        if later:
            rows += cells[:, 3]
        columns += cells[:, 2]
        table, offsets = blocks[0], np.array(offsets, dtype=np.intp).T
        if len(blocks) > 1:  # a request's offsets over each of its columns
            table, offsets = np.concatenate(blocks, axis=1), offsets.repeat(widths, axis=1)
        return rows, columns, table + offsets


def parameter_shift_gradient(spec: CircuitSpec, weights: Sequence[float], x: Sequence[float],
                             wire: int, counter: CallCounter) -> np.ndarray:
    """Exact gradient of <Z_wire> via +-pi/2 shifts: rows (B, F) give (B, P) and
    cost B * 2 * param_count calls; one row (F,) gives (P,)."""
    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    if len(w) != spec.param_count:  # refused before embedding
        raise ValueError(f"expected {spec.param_count} weights, got {len(w)}")
    rows = np.atleast_2d(x)
    ((_, grads),) = MergedRuns(rows, wire)([(spec, w, np.arange(0), np.arange(len(rows)))])
    counter.increment(2 * grads.size)
    return grads.reshape(x.shape[:-1] + grads.shape[1:])
