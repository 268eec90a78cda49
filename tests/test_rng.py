"""The portable generator must match its documented algorithm bit for bit."""

import subprocess
import sys

import numpy as np

from qmlfinder import PortableRng, derive_seed, repeat_seed, splitmix64
from qmlfinder.rng import SEED_STRIDE

from oracles import RefXorshift, ref_derive_seed, ref_splitmix64


def test_splitmix_matches_reference():
    for x in [0, 1, 42, 2**63, (1 << 64) - 1]:
        assert splitmix64(x) == ref_splitmix64(x)


def test_stream_matches_reference():
    for seed in [0, 7, 123456789, 2**60 + 3]:
        ours = PortableRng(seed)
        ref = RefXorshift(seed)
        assert [ours.next_uint64() for _ in range(50)] == [ref.next_u64() for _ in range(50)]


def test_random_unit_interval_and_determinism():
    rng = PortableRng(11)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    again = PortableRng(11)
    assert values == [again.random() for _ in range(1000)]


def test_randint_inclusive_bounds():
    rng = PortableRng(5)
    draws = [rng.randint(3, 7) for _ in range(2000)]
    assert set(draws) == {3, 4, 5, 6, 7}


def test_randint_single_value():
    assert PortableRng(0).randint(4, 4) == 4


def test_randbelow_matches_reference():
    ours, ref = PortableRng(99), RefXorshift(99)
    assert [ours.randbelow(n) for n in [1, 2, 3, 10, 1000] * 20] == [
        ref.randbelow(n) for n in [1, 2, 3, 10, 1000] * 20
    ]


def test_choice_and_shuffle_are_deterministic():
    items = list(range(10))
    a, b = items[:], items[:]
    PortableRng(13).shuffle(a)
    PortableRng(13).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert PortableRng(2).choice("xyz") == PortableRng(2).choice("xyz")


def test_log_uniform_stays_in_bounds():
    rng = PortableRng(21)
    for _ in range(1000):
        v = rng.log_uniform(1e-3, 0.5)
        assert 1e-3 <= v <= 0.5


def test_derive_seed_matches_reference_and_separates_streams():
    assert derive_seed(0, 1) == ref_derive_seed(0, 1)
    assert derive_seed(123, 45) == ref_derive_seed(123, 45)
    streams = {derive_seed(7, i) for i in range(100)}
    assert len(streams) == 100


def test_repeat_seed_linear_rule():
    assert repeat_seed(0, 0) == 0
    assert repeat_seed(3, 2) == 3 * SEED_STRIDE + 2


def test_zero_seed_still_produces_output():
    rng = PortableRng(0)
    assert len({rng.next_uint64() for _ in range(10)}) == 10


def test_uniform_range():
    rng = PortableRng(8)
    draws = np.array(rng.uniforms(500, -2.0, 3.0))
    assert draws.min() >= -2.0 and draws.max() < 3.0


def test_jump_table_is_built_on_the_first_draw_not_at_import():
    # draws below the crossover take the scalar chain and build no table
    code = (
        "from qmlfinder import rng; built = rng._jump_table.cache_info().currsize; "
        "rng.PortableRng(0).uniforms(rng._TABLE_MIN_DRAWS - 1); "
        "chain = rng._jump_table.cache_info().currsize; "
        "rng.PortableRng(0).uniforms(rng._TABLE_MIN_DRAWS); table = rng._jump_table(); "
        "print(built, chain, rng._jump_table.cache_info().currsize, table.nbytes, "
        "table.flags.writeable)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "1", "65536", "False"]
