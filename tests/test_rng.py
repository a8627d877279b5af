"""SplitMix64 generator: published-recurrence vectors and distribution checks."""

from lodprobe.rng import SeededRng, derive_seed

# First outputs of the reference splitmix64 recurrence for seed 0 and
# seed 0x9E3779B97F4A7C15 (values reproduced by the C reference at
# prng.di.unimi.it/splitmix64.c).
SEED0_FIRST = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_reference_sequence_seed0():
    rng = SeededRng(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_FIRST


def test_same_seed_same_sequence():
    a, b = SeededRng(12345), SeededRng(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a, b = SeededRng(1), SeededRng(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_uniform_below_range_and_coverage():
    rng = SeededRng(7)
    seen = set()
    for _ in range(2000):
        v = rng.uniform_below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_uniform_below_mean():
    rng = SeededRng(99)
    n = 50_000
    mean = sum(rng.uniform_below(1000) for _ in range(n)) / n
    assert abs(mean - 499.5) < 5  # ~3.9 sigma of the sample mean


def test_next_float_in_unit_interval():
    rng = SeededRng(3)
    values = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.03


def test_fork_is_label_stable_and_independent():
    assert derive_seed(42, "walk") == derive_seed(42, "walk")
    assert derive_seed(42, "walk") != derive_seed(42, "global")
    assert derive_seed(42, "walk") != derive_seed(43, "walk")
