"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented conventions (big-endian wire
ordering, half-angle rotations, fixed PRNG constants) without calling into
the package's own gate application, sampling, or scoring code paths.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# ---------------------------------------------------------------------------
# Reference portable PRNG (splitmix64 seeding + xorshift64*), plain integers.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def ref_splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def ref_derive_seed(base, index):
    return ref_splitmix64((base & _M64) ^ ref_splitmix64(index & _M64))


class RefXorshift:
    def __init__(self, seed):
        self.state = ref_splitmix64(seed & _M64) or 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, n):
        k = (n - 1).bit_length()
        while True:
            r = self.next_u64() >> (64 - k) if k else 0
            if r < n:
                return r

    def randint(self, low, high):
        return low + self.randbelow(high - low + 1)

    def choice(self, options):
        return options[self.randbelow(len(options))]


# ---------------------------------------------------------------------------
# Dense-matrix circuit oracle (kron products, big-endian wire 0 = MSB).
# ---------------------------------------------------------------------------


def ref_rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ref_ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def ref_rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])


def ref_rot(phi, theta, omega):
    # closed form of RZ(omega) RY(theta) RZ(phi)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [np.exp(-0.5j * (phi + omega)) * c, -np.exp(0.5j * (phi - omega)) * s],
            [np.exp(0.5j * (omega - phi)) * s, np.exp(0.5j * (phi + omega)) * c],
        ]
    )


# Stack-and-multiply gate matrices: each entry broadcast, stacked and cast to
# complex, and ROT as the RZ(omega) @ RY(theta) @ RZ(phi) product. The
# simulator builds its matrices entry by entry and must equal these bit for bit.


def stacked_matrix(a, b, c, d):
    entries = np.broadcast_arrays(a, b, c, d)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2)).astype(complex)


def stacked_rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return stacked_matrix(c, -1j * s, -1j * s, c)


def stacked_ry(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return stacked_matrix(c, -s, s, c)


def stacked_rz(t):
    return stacked_matrix(np.exp(-0.5j * t), 0, 0, np.exp(0.5j * t))


def product_rot(phi, theta, omega):
    return stacked_rz(omega) @ stacked_ry(theta) @ stacked_rz(phi)


STACKED_GATES = {"RX": stacked_rx, "RY": stacked_ry, "RZ": stacked_rz, "ROT": product_rot}


REF_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
REF_X = np.array([[0, 1], [1, 0]], dtype=complex)
REF_I = np.eye(2, dtype=complex)
REF_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
REF_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kron_all(factors):
    return reduce(np.kron, factors)


def single_wire_unitary(n_wires, wire, u2):
    return kron_all([u2 if w == wire else REF_I for w in range(n_wires)])


def cnot_unitary(n_wires, control, target):
    keep = [REF_P0 if w == control else REF_I for w in range(n_wires)]
    flip = [
        REF_P1 if w == control else (REF_X if w == target else REF_I) for w in range(n_wires)
    ]
    return kron_all(keep) + kron_all(flip)


def ring_unitaries(n_wires):
    if n_wires == 1:
        return []
    return [cnot_unitary(n_wires, i, (i + 1) % n_wires) for i in range(n_wires)]


def layer_unitaries(name, n_wires, layer_weights):
    w = list(layer_weights)
    if name == "BasicEntangler":
        singles = [single_wire_unitary(n_wires, i, ref_rx(w[i])) for i in range(n_wires)]
    elif name == "StronglyEntangling":
        singles = [
            single_wire_unitary(n_wires, i, ref_rot(w[3 * i], w[3 * i + 1], w[3 * i + 2]))
            for i in range(n_wires)
        ]
    else:
        raise ValueError(name)
    return singles + ring_unitaries(n_wires)


def layer_param_count(name, n_wires):
    return {"BasicEntangler": n_wires, "StronglyEntangling": 3 * n_wires}[name]


def ref_run_circuit(n_wires, embedding_name, layer_names, weights, x):
    """Final statevector via explicit full-unitary products."""
    dim = 2**n_wires
    x = np.asarray(x, dtype=float)
    if embedding_name == "ANGLE":
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        for wire in range(n_wires):
            angle = x[wire] if wire < x.size else 0.0
            state = single_wire_unitary(n_wires, wire, ref_rx(angle)) @ state
    elif embedding_name == "AMPLITUDE":
        padded = np.zeros(dim)
        padded[: x.size] = x
        state = (padded / np.linalg.norm(padded)).astype(complex)
    else:
        raise ValueError(embedding_name)
    offset = 0
    for name in layer_names:
        count = layer_param_count(name, n_wires)
        for u in layer_unitaries(name, n_wires, weights[offset : offset + count]):
            state = u @ state
        offset += count
    return state


def ref_expectation_z(state, wire, n_wires):
    total = 0.0
    for idx, amp in enumerate(state):
        bit = (idx >> (n_wires - 1 - wire)) & 1
        total += (1 - 2 * bit) * abs(amp) ** 2
    return total


# ---------------------------------------------------------------------------
# Finite differences, brute silhouette, closed-form cost model.
# ---------------------------------------------------------------------------


def fd_gradient(f, w, h=1e-5):
    w = np.asarray(w, dtype=float)
    grad = np.empty(w.size)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2 * h)
    return grad


def brute_silhouette(X, labels):
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    n = len(X)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        a = sum(np.linalg.norm(X[i] - X[j]) for j in own) / len(own)
        b = math.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, sum(np.linalg.norm(X[i] - X[j]) for j in members) / len(members))
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return sum(scores) / n


def ref_train_autoencoder(weights, biases, X, n_epochs, learning_rate):
    """One autoencoder's full-batch descent on squared reconstruction error,
    layer by layer on its own arrays: the per-encoder loop the lockstep
    trainer must match bit for bit. Updates `weights` and `biases` in place."""

    def sigmoid(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    n = len(X)
    for _ in range(n_epochs):
        activations = [X]
        for W, b in zip(weights, biases):
            activations.append(sigmoid(activations[-1] @ W.T + b))
        output = activations[-1]
        delta = 2.0 * (output - X) / n * output * (1.0 - output)
        for layer in range(len(weights) - 1, -1, -1):
            grad_w = delta.T @ activations[layer]
            grad_b = delta.sum(axis=0)
            if layer > 0:
                prev = activations[layer]
                delta = (delta @ weights[layer]) * prev * (1.0 - prev)
            weights[layer] -= learning_rate * grad_w
            biases[layer] -= learning_rate * grad_b


def loop_gradient_sum(residuals, batch, grads):
    """A batch's residual-weighted gradient sum added row by row in batch
    order, starting from +0.0: `grads` holds one row per index in `batch`."""
    grad = np.zeros(grads.shape[1])
    for i, g in zip(batch, grads):
        grad += residuals[i] * g
    return grad


def qnn_fit_cost(p, n, epochs_run):
    """(training_gradients, scoring) for a full run of `epochs_run` epochs."""
    return 2 * p * n * epochs_run, n * (epochs_run + 1)


def training_kernel_cost(n):
    """Device calls to build an n-point training kernel: 2 per strict-upper pair."""
    return n * (n - 1)


# Simulations that ran apart before runs sharing one weight vector were merged:
# the gradient on its own sliced run, and the cross kernel from one run per
# side. The merged runs must equal them bit for bit. They call the package's
# run_circuit, imported on use so that loading this module imports nothing.


def sliced_gradient(spec, weights, x, wire, counter):
    """parameter_shift_gradient as it ran alone: rows (B, F) give (B, P), one
    row (F,) gives (P,); the B * 2P circuits run in slices of 2**20 amplitudes."""
    from qmlfinder.simulator import expectation_z, run_circuit

    w, x = np.asarray(weights, dtype=float), np.asarray(x, dtype=float)
    p, eye, rows = w.size, np.eye(w.size, dtype=bool), np.atleast_2d(x)
    half_pi = math.pi / 2
    shifted = np.concatenate([np.where(eye, w + half_pi, w), np.where(eye, w - half_pi, w)])
    n, size = len(rows) * 2 * p, max(1, 2**20 >> spec.n_wires)
    values = np.concatenate([
        expectation_z(run_circuit(spec, shifted[k % (2 * p)], rows[k // (2 * p)], counter), wire)
        for k in np.split(np.arange(n), range(size, n, size))
    ]).reshape(x.shape[:-1] + (2, p))
    return 0.5 * (values[..., 0, :] - values[..., 1, :])


def two_run_cross_kernel(spec, weights, X1, X2):
    """|S1* S2^T|^2 with the row states of X1 and of X2 from separate runs."""
    from qmlfinder.simulator import CallCounter, run_circuit

    S1 = run_circuit(spec, weights, np.asarray(X1, dtype=float), CallCounter()).amplitudes
    S2 = run_circuit(spec, weights, np.asarray(X2, dtype=float), CallCounter()).amplitudes
    return np.abs(S1.conj() @ S2.T) ** 2
