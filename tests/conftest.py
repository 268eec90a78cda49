import numpy as np
import pytest

from qmlfinder import PortableRng, default_registry

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # `--hypothesis-profile=ci`: more examples for the bit-for-bit properties,
    # which depend on the BLAS kernels of the machine running them
    settings.register_profile("ci", max_examples=500)


@pytest.fixture
def registry():
    return default_registry()


def make_blobs(seed: int, per_class: int, centers, spread: float, n_features: int = 2):
    """Two labeled square blobs, generated with the portable PRNG."""
    rng = PortableRng(seed)
    X, y = [], []
    for label, center in enumerate(centers):
        for _ in range(per_class):
            X.append([center[f % len(center)] + rng.uniform(-spread, spread) for f in range(n_features)])
            y.append(label)
    return np.array(X), np.array(y)


@pytest.fixture
def blobs40():
    """The fixed 40-point linearly separable 2-feature set (seed 0)."""
    return make_blobs(0, 20, [(1.0, 1.0), (-1.0, -1.0)], 0.5)


@pytest.fixture
def blobs8():
    """The fixed 8-point separable set for the kernel classifier."""
    return make_blobs(3, 4, [(1.2, 1.2), (-1.2, -1.2)], 0.4)


@pytest.fixture
def sine20():
    xs = np.linspace(-np.pi, np.pi, 20).reshape(-1, 1)
    return xs, np.sin(xs[:, 0])


@pytest.fixture
def cluster_blobs():
    """Two tight 4-feature blobs, 15 points each."""
    rng = PortableRng(5)
    X = []
    for center in (0.0, 4.0):
        for _ in range(15):
            X.append([center + rng.uniform(-0.3, 0.3) for _ in range(4)])
    return np.array(X)


@pytest.fixture
def bars_stripes():
    """All 30 distinct 4x4 bar/stripe patterns as flat binary vectors."""
    patterns = set()
    for bits in range(16):
        row = [(bits >> i) & 1 for i in range(4)]
        patterns.add(tuple(np.repeat(row, 4)))
        patterns.add(tuple(np.tile(row, 4)))
    return np.array(sorted(patterns), dtype=float)
