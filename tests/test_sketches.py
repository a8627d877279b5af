import random
import subprocess
import sys
import tracemalloc
from hashlib import blake2b
from heapq import heapify, heapreplace
from pathlib import Path

import pytest
from scipy import stats

from lodprobe import (
    ReservoirSampler,
    SeededRng,
    StableBloomFilter,
    derive_num_filters,
)
from lodprobe.sketches import AddOutcome, hash128


def _rank(item: str, seed: int) -> int:
    """Independent oracle for the sampler's rank: keyed 64-bit BLAKE2b."""
    key = (seed % 2**64).to_bytes(8, "little")
    return int.from_bytes(blake2b(item.encode(), digest_size=8, key=key).digest(), "little")


class _CountingHasher:
    """Stands in for a sampler's keyed hasher and counts the items it hashes."""

    def __init__(self, inner):
        self.inner = inner
        self.copies = 0

    def copy(self):
        self.copies += 1
        return self.inner.copy()


class _MemolessSampler:
    """Bottom-k as the sampler documents it, with no memo of what it turned
    away: every offer that is not held, once the sample binds, is ranked
    and compared with the k-th rank. The oracle for the sampler's memo."""

    def __init__(self, capacity: int, seed: int):
        self.capacity, self.seed = capacity, seed
        self.held: dict[str, None] = {}
        self.heap: list | None = None

    def add(self, item: str) -> AddOutcome:
        held = self.held
        if item in held:
            return AddOutcome(False, False)
        if len(held) < self.capacity:
            held[item] = None
            return AddOutcome(True, False)
        if self.heap is None:
            self.heap = [(-_rank(x, self.seed), x) for x in held]
            heapify(self.heap)
        rank = _rank(item, self.seed)
        if rank >= -self.heap[0][0]:
            return AddOutcome(False, False)
        del held[heapreplace(self.heap, (-rank, item))[1]]
        held[item] = None
        return AddOutcome(False, True)

    def distinct(self) -> float:
        if self.heap is None:
            return len(self.held)
        return (self.capacity - 1) * 2.0**64 / -self.heap[0][0]


def _repeating_stream(seed: int, capacity: int, n: int = 3_000) -> list[str]:
    """Offers from a pool of 40 items per slot, skewed so that some repeat
    often and recent ones come back soon, as URIs do in a subject-sorted
    dump."""
    rng = random.Random(seed)
    pool = [f"http://r{i % 97}.example.org/{i}" for i in range(40 * capacity)]
    out: list[str] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3 and out:
            out.append(out[-1 - rng.randrange(min(len(out), 20))])
        elif roll < 0.5:
            out.append(pool[int(len(pool) * rng.random() ** 3)])
        else:
            out.append(rng.choice(pool))
    return out


class TestReservoir:
    def test_fill_phase(self):
        s = ReservoirSampler(3, seed=0)
        for x in "abc":
            assert s.add(x) == AddOutcome(True, False)
        assert sorted(s.contents()) == ["a", "b", "c"]
        assert s.distinct() == 3

    def test_replay_matches_manual_simulation(self):
        # The sample is the k items of smallest rank, ranked here by hand.
        items = [f"item{i}" for i in range(300)]
        s = ReservoirSampler(10, seed=5)
        for x in items:
            s.add(x)
        assert sorted(s.contents()) == sorted(sorted(items, key=lambda x: _rank(x, 5))[:10])

    def test_held_item_is_discarded_uncounted(self):
        # Held, refused and evicted items alike: a second offer changes
        # neither the sample nor its distinct count, in any order.
        items = [f"u{i}" for i in range(60)]
        s = ReservoirSampler(5, seed=1)
        for x in items:
            s.add(x)
        sample, distinct = sorted(s.contents()), s.distinct()
        for x in reversed(items + items):
            assert s.add(x) == AddOutcome(False, False), x
        assert sorted(s.contents()) == sample
        assert s.distinct() == distinct

    def test_eviction_returns_evicted(self):
        # An eviction drops the highest-ranked item from the sample, and
        # that item stays out when offered again.
        s = ReservoirSampler(2, seed=2)
        assert s.add("a").added and s.add("b").added
        top = max("ab", key=lambda x: _rank(x, 2))
        lower = next(f"c{i}" for i in range(1000) if _rank(f"c{i}", 2) < _rank(top, 2))
        assert s.add(lower) == AddOutcome(False, True)
        assert sorted(s.contents()) == sorted({"a", "b", lower} - {top})
        assert top not in s.contents() and top not in s.held
        assert s.add(top) == AddOutcome(False, False)

    @pytest.mark.parametrize("offers, max_bytes_per_slot", [(20_000, 32), (25_000, 170)])
    def test_memory_per_slot(self, offers, max_bytes_per_slot):
        # One dict entry per held item until the sample binds, then a
        # (-rank, item) heap beside it. Items are built before the trace, so
        # only the sampler's own structures count.
        k = 20_000
        items = [f"http://pld{i}.example.org" for i in range(offers)]
        s = ReservoirSampler(k, seed=1)
        tracemalloc.start()
        try:
            for x in items:
                s.add(x)
            held_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(s.contents()) == k
        assert held_bytes / k <= max_bytes_per_slot

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_distinct_exact_up_to_capacity(self, k):
        s = ReservoirSampler(k, seed=3)
        for i in range(k):
            s.add(f"d{i}")
            s.add(f"d{i}")
            assert s.distinct() == i + 1
        assert type(s.distinct()) is int
        for i in range(k, 5 * k + 20):
            s.add(f"d{i}")
        kth_rank = max(_rank(x, 3) for x in s.contents())
        assert s.distinct() == pytest.approx((k - 1) * 2**64 / kth_rank, rel=1e-12)

    def test_discard_outcome(self):
        s = ReservoirSampler(2, seed=6)
        s.add("a")
        s.add("b")
        threshold = max(_rank("a", 6), _rank("b", 6))
        above = next(f"z{i}" for i in range(1000) if _rank(f"z{i}", 6) > threshold)
        assert s.add(above) == AddOutcome(False, False)
        assert sorted(s.contents()) == ["a", "b"]

    def test_size_invariant_random_ops(self):
        rng = SeededRng(5)
        for trial in range(30):
            cap = 2 + rng.uniform_below(10)
            s = ReservoirSampler(cap, seed=trial)
            n = rng.uniform_below(300)
            for i in range(n):
                s.add(str(i))
            assert len(s.contents()) == min(n, cap)
            if n <= cap:
                assert s.distinct() == n

    def test_distinct_estimate_within_bound(self):
        k, n = 400, 4000
        for seed in range(10):
            s = ReservoirSampler(k, seed=seed)
            for i in range(n):
                s.add(f"v{i}")
            assert abs(s.distinct() / n - 1) <= 4 / k**0.5, seed

    def test_last_refused_item_is_not_hashed_again(self):
        s = ReservoirSampler(2, seed=4)
        s._hasher = counter = _CountingHasher(s._hasher)
        s.add("a")
        s.add("b")
        assert s.add("a") == AddOutcome(False, False)  # held: not hashed
        assert counter.copies == 0  # ranks wait for the first overflow
        threshold = max(_rank("a", 4), _rank("b", 4))
        x, y = [f"r{i}" for i in range(1000) if _rank(f"r{i}", 4) > threshold][:2]
        assert s.add(x) == AddOutcome(False, False)
        assert counter.copies == 3  # a, b and x
        assert s.add(x) == AddOutcome(False, False)  # remembered as refused
        assert counter.copies == 3
        s.add(y)
        assert s.add(x) == AddOutcome(False, False)  # still remembered beside y
        assert counter.copies == 4

    @pytest.mark.parametrize("capacity", [2, 3, 7, 20, 50])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memo_matches_memoless_bottom_k(self, capacity, seed):
        # Skipping what was turned away changes no outcome, order, estimate
        # or heap, also across the memo's clears.
        s = ReservoirSampler(capacity, seed=seed)
        oracle = _MemolessSampler(capacity, seed=seed)
        clears, memo = 0, 0
        for item in _repeating_stream(seed, capacity):
            assert s.add(item) == oracle.add(item), item
            assert s.contents() == list(oracle.held)
            assert len(s._turned_away) <= capacity
            clears += len(s._turned_away) < memo
            memo = len(s._turned_away)
        assert clears > 0
        assert s.distinct() == oracle.distinct()
        assert s._heap == oracle.heap

    def test_turned_away_item_is_ranked_once_while_remembered(self):
        s = ReservoirSampler(3, seed=8)
        s._hasher = counter = _CountingHasher(s._hasher)
        for x in "abc":
            s.add(x)
        threshold = max(_rank(x, 8) for x in "abc")
        top = max("abc", key=lambda x: _rank(x, 8))
        above = [f"q{i}" for i in range(1000) if _rank(f"q{i}", 8) > threshold][:3]
        lower = next(f"w{i}" for i in range(1000) if _rank(f"w{i}", 8) < threshold)
        for x in above:
            assert s.add(x) == AddOutcome(False, False)
        assert counter.copies == 6  # the three held when the sample bound, and `above`
        for x in above * 3:
            assert s.add(x) == AddOutcome(False, False)
        assert counter.copies == 6
        # The memo is full, so the eviction clears it and remembers `top`
        assert s.add(lower) == AddOutcome(False, True)
        assert counter.copies == 7
        assert s.add(top) == AddOutcome(False, False)
        assert counter.copies == 7
        assert s.add(above[0]) == AddOutcome(False, False)  # forgotten, ranked again
        assert counter.copies == 8

    def test_every_rank_comes_from_the_keyed_hasher(self):
        # The hasher sees each rank, and a rank is the seed-keyed BLAKE2b.
        s = ReservoirSampler(20, seed=9)
        s._hasher = counter = _CountingHasher(s._hasher)
        ranked = []
        rank = s._rank
        s._rank = lambda item: ranked.append(item) or rank(item)
        for item in _repeating_stream(9, 20):
            s.add(item)
        assert counter.copies == len(ranked) > 20
        assert all(rank(x) == _rank(x, 9) for x in ranked[:200])

    def test_retention_frequency_capacity2_stream4(self):
        # Each of 4 items should be retained with probability 2/4 = 0.5
        # (empirical-frequency oracle over 100k seeded runs, judged at
        # three standard errors of the trial count).
        trials = 100_000
        counts = [0, 0, 0, 0]
        for seed in range(trials):
            s = ReservoirSampler(2, seed=seed)
            for i in "0123":
                s.add(i)
            for kept in s.contents():
                counts[int(kept)] += 1
        bound = 3 * (0.5 * 0.5 / trials) ** 0.5
        for i, c in enumerate(counts):
            freq = c / trials
            assert abs(freq - 0.5) < bound, f"item {i}: {freq}"

    def test_empty_contents(self):
        s = ReservoirSampler(3, seed=0)
        assert s.contents() == []
        assert s.distinct() == 0

    def test_invalid_capacity(self):
        for capacity in (0, 1):  # from one rank, (1-1)/U_(1) would read 0
            with pytest.raises(ValueError):
                ReservoirSampler(capacity, seed=0)


def _cli_import_modules(then: str = "pass") -> tuple[set[str], set[str]]:
    """(every module, top-level modules the import added) after a fresh
    child imports `lodprobe.cli` from the checkout under test, not from an
    installed lodprobe, and runs the statement `then`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        f"import lodprobe.cli; {then}; "
        "print(' '.join(sys.modules)); "
        "print(' '.join({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    child = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    loaded, added = child.stdout.splitlines()
    return set(loaded.split()), set(added.split())


def test_cli_import_leaves_openssl_unloaded():
    # OpenSSL costs about 3 MiB of RSS in every run: `hashlib` loads it as
    # `_hashlib`, so the sampler takes BLAKE2b from `_blake2`, and
    # `urllib.request` loads it as `ssl`, so only a live resolver imports it.
    loaded, _ = _cli_import_modules()
    assert not {"_hashlib", "ssl", "urllib.request"} & loaded


def test_cli_import_loads_only_the_standard_library():
    # The core is stdlib-only: the CLI's import chain may add lodprobe
    # itself and standard-library modules, nothing installed beside them.
    _, added = _cli_import_modules()
    assert added - sys.stdlib_module_names == {"lodprobe"}
    # So may the live resolver's lazy imports, which an ftp URI runs
    # without opening a socket.
    loaded, added = _cli_import_modules(
        "lodprobe.cli.LiveResolver().resolve('ftp://example.org/')")
    assert {"urllib.request", "http.client"} <= loaded
    assert added - sys.stdlib_module_names == {"lodprobe"}


class TestDeriveNumFilters:
    @pytest.mark.parametrize("t,k", [(0.5, 1), (0.25, 2), (0.01, 7), (0.001, 10)])
    def test_formula(self, t, k):
        assert derive_num_filters(t) == k

    def test_monotone_in_threshold(self):
        ks = [derive_num_filters(t) for t in (0.5, 0.1, 0.01, 0.001, 0.0001)]
        assert ks == sorted(ks)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_range(self, bad):
        with pytest.raises(ValueError):
            derive_num_filters(bad)


def _probes(f: StableBloomFilter, item: bytes) -> list[int]:
    """Bit index of `item` in each sub-filter of `f`, read off the bits it
    sets once `f` is emptied; empty arrays draw no reset."""
    for array in f._arrays:
        array[:] = bytes(len(array))
    f._set_counts = [0] * f.num_filters
    assert f.check_and_add(item) is False
    return [int.from_bytes(array, "little").bit_length() - 1 for array in f._arrays]


def _positions(item: bytes, num_filters: int, bits_per_filter: int) -> list[int]:
    """Bit index of `item` in each sub-filter of a filter of that shape
    (a threshold of 2^-k derives exactly k sub-filters)."""
    f = StableBloomFilter(num_filters * bits_per_filter, 2.0**-num_filters, SeededRng(0))
    assert f.num_filters == num_filters
    assert f.bits_per_filter == bits_per_filter
    return _probes(f, item)


class TestHashBitIndex:
    def test_deterministic(self):
        assert _positions(b"item", 4, 1000) == _positions(b"item", 4, 1000)

    def test_filters_get_distinct_functions(self):
        assert len(set(_positions(b"item", 8, 10**6))) == 8

    @pytest.mark.parametrize("data", [b"", b"payload", bytes(range(256)) * 3])
    def test_hash128_is_unkeyed_blake2b_128(self, data):
        digest = blake2b(data, digest_size=16).digest()
        assert hash128(data) == int.from_bytes(digest, "little")

    def test_empty_input_is_h1_mod(self):
        # h1 is the first 8 digest bytes read little-endian
        h1 = int.from_bytes(blake2b(b"", digest_size=16).digest()[:8], "little")
        assert _positions(b"", 1, 64)[0] == h1 % 64
        assert _positions(b"", 1, 12289)[0] == h1 % 12289

    def test_double_hash_derivation(self):
        digest = blake2b(b"payload", digest_size=16).digest()
        h1, h2 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")
        assert _positions(b"payload", 5, 12289) == [(h1 + i * h2) % 12289 for i in range(5)]

    def test_uniformity_chi_square(self):
        rng = SeededRng(11)
        buckets = 256
        counts = [0] * buckets
        n = 100_000
        scale = 2**64
        f = StableBloomFilter(3 * buckets, 2.0**-3, SeededRng(0))
        for _ in range(n):
            item = rng.next_u64().to_bytes(8, "little")
            counts[_probes(f, item)[2]] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001


def _filter(total_bits=8192, t=0.01, seed=0):
    return StableBloomFilter(total_bits, t, SeededRng(seed))


def _frozen(f: StableBloomFilter) -> StableBloomFilter:
    """`f` with its reset step switched off, so no bit is ever cleared."""
    f._maybe_reset = lambda: None
    return f


def _tracked(f: StableBloomFilter):
    """A `check_and_add` for `f` that records, per call, the (sub-filter,
    bit) pairs its reset step cleared, read off the arrays around that
    step (the insertion after it may set a cleared bit again)."""
    cleared: list[set[tuple[int, int]]] = []
    maybe_reset = f._maybe_reset

    def diffed_reset():
        before = [bytes(a) for a in f._arrays]
        maybe_reset()
        cleared[-1].update(
            (i, 8 * j + bit)
            for i, (old, now) in enumerate(zip(before, f._arrays))
            for j in range(len(old))
            for bit in range(8)
            if (old[j] & ~now[j]) >> bit & 1
        )

    f._maybe_reset = diffed_reset

    def check(item: bytes) -> bool:
        cleared.append(set())
        return f.check_and_add(item)

    return check, cleared


class _ReferenceFilter:
    """The stable Bloom filter as its documentation states it, written for
    clarity, not speed: the oracle for a seeded run."""

    def __init__(self, total_bits: int, t: float, rng: SeededRng):
        self.t = t
        self.k = derive_num_filters(t)
        self.m = total_bits // self.k
        self.rng = rng
        self.resets = 0
        self.arrays = [bytearray(-(-self.m // 8)) for _ in range(self.k)]
        self.counts = [0] * self.k

    def _bit(self, i: int, pos: int) -> bool:
        return bool(self.arrays[i][pos >> 3] >> (pos & 7) & 1)

    def check_and_add(self, item: bytes) -> bool:
        h = hash128(item)
        h1, h2 = h & (2**64 - 1), h >> 64
        positions = [(h1 + i * h2) % self.m for i in range(self.k)]
        if all(self._bit(i, pos) for i, pos in enumerate(positions)):
            return True
        self._maybe_reset()
        for i, pos in enumerate(positions):
            if not self._bit(i, pos):
                self.arrays[i][pos >> 3] |= 1 << (pos & 7)
                self.counts[i] += 1
        return False

    def _maybe_reset(self) -> None:
        fpr = 1.0
        for count in self.counts:
            fpr *= count / self.m
        p = fpr / self.t
        if p <= 0.0 or (p < 1.0 and self.rng.next_float() >= p):
            return
        target = max(range(self.k), key=lambda i: (self.counts[i], -i))
        if self.counts[target] == 0:
            return
        pos = next((c for c in (self.rng.uniform_below(self.m) for _ in range(64))
                    if self._bit(target, c)), -1)
        if pos < 0:
            start = self.rng.uniform_below(self.m)
            pos = next((start + off) % self.m for off in range(self.m)
                       if self._bit(target, (start + off) % self.m))
        self.arrays[target][pos >> 3] &= ~(1 << (pos & 7))
        self.counts[target] -= 1
        self.resets += 1


class _ListedProbes(StableBloomFilter):
    """The filter with its probe positions built as a list first and the
    list walked twice, as `check_and_add` once was: the oracle for its
    stepping walk."""

    def _positions(self, item: bytes) -> list[int]:
        h = hash128(item)
        bpf = self.bits_per_filter
        h1, h2 = (h & (2**64 - 1)) % bpf, (h >> 64) % bpf
        return [(h1 + i * h2) % bpf for i in range(self.num_filters)]

    def check_and_add(self, item: bytes) -> bool:
        positions = self._positions(item)
        arrays = self._arrays
        if all(arrays[i][pos >> 3] & (1 << (pos & 7)) for i, pos in enumerate(positions)):
            return True
        self._maybe_reset()
        for i, pos in enumerate(positions):
            byte, mask = pos >> 3, 1 << (pos & 7)
            if not arrays[i][byte] & mask:
                arrays[i][byte] |= mask
                self._set_counts[i] += 1
        return False


class TestStableBloomFilter:
    def test_fresh_add_not_duplicate(self):
        f = _filter()
        assert f.check_and_add(b"x") is False
        assert f.set_bit_counts() == [1] * f.num_filters
        assert f.check_and_add(b"x") is True

    def test_immediate_requery_is_duplicate(self):
        f = _filter()
        f.check_and_add(b"x")
        counts = f.set_bit_counts()
        assert f.check_and_add(b"x") is True
        assert f.set_bit_counts() == counts  # duplicate did not re-insert

    def test_unseen_item_usually_absent(self):
        f = _filter()
        f.check_and_add(b"x")
        assert f.check_and_add(b"definitely-not-inserted") is False

    def test_bit_budget_constant(self):
        f = _filter(total_bits=10_000, t=0.01)
        assert f.num_filters == 7
        assert f.bits_per_filter == 10_000 // 7
        assert f.total_bits == f.bits_per_filter * f.num_filters
        before = f.total_bits
        for i in range(500):
            f.check_and_add(f"item{i}".encode())
        assert f.total_bits == before
        assert sum(len(a) * 8 for a in f._arrays) >= f.total_bits

    def test_set_counts_track_arrays(self):
        f = _filter()
        for i in range(200):
            f.check_and_add(f"item{i}".encode())
        for arr, count in zip(f._arrays, f.set_bit_counts()):
            assert sum(bin(b).count("1") for b in arr) == count

    def test_determinism_same_seed(self):
        ops = [f"op{i % 700}".encode() for i in range(3000)]
        f1, f2 = _filter(seed=9), _filter(seed=9)
        r1 = [f1.check_and_add(x) for x in ops]
        r2 = [f2.check_and_add(x) for x in ops]
        assert r1 == r2
        assert f1._arrays == f2._arrays
        assert f1.resets == f2.resets

    def test_no_false_negatives_with_resets_disabled(self):
        f = _frozen(_filter(total_bits=4096, t=0.1))
        items = [f"k{i}".encode() for i in range(1500)]
        for item in items:
            f.check_and_add(item)
        assert all(f.check_and_add(item) for item in items)
        assert f.resets == 0

    def test_no_false_negative_when_reset_missed_its_bits(self):
        # An item is reported new on re-query only if a reset cleared one of
        # its bits after it was inserted (by a call before the re-query).
        f = _filter(total_bits=512, t=0.25, seed=3)
        check, cleared = _tracked(f)
        items = [f"v{i}".encode() for i in range(400)]
        for item in items:
            check(item)
        new_again = 0
        for n, item in enumerate(items):
            if not check(item):
                new_again += 1
                positions = set(enumerate(_positions(item, f.num_filters, f.bits_per_filter)))
                assert positions & set().union(*cleared[n + 1 : -1]), item
        assert new_again > 0
        assert sum(map(len, cleared)) == f.resets

    def test_reset_log_and_counter_agree(self):
        # The arrays around each reset step are the log: every call clears
        # at most one set bit, and the cleared bits add up to `resets`.
        f = _filter(total_bits=256, t=0.3)
        check, cleared = _tracked(f)
        for i in range(500):
            check(f"z{i}".encode())
        assert all(len(bits) <= 1 for bits in cleared)
        assert sum(map(len, cleared)) == f.resets > 0
        for bits in cleared:
            for target, pos in bits:
                assert 0 <= target < f.num_filters
                assert 0 <= pos < f.bits_per_filter

    def test_resets_throttle_overload(self):
        # 3x the per-filter bit count in distinct items: without resets the
        # arrays saturate (raw FPR ~0.76 here); with them the load must
        # settle well below that. Duplicates never trigger resets, so the
        # comparison uses the same stream through a reset-free twin.
        stream = [f"stream-{i}".encode() for i in range(3_000)]
        throttled = _filter(total_bits=5120, t=0.05, seed=2)
        frozen = _frozen(_filter(total_bits=5120, t=0.05, seed=2))
        for item in stream:
            throttled.check_and_add(item)
            frozen.check_and_add(item)
        assert throttled.resets > 0
        assert throttled.current_fpr() < 0.6 < frozen.current_fpr()

    def test_fpr_bound_against_exact_oracle(self):
        f = _filter(total_bits=200_000, t=0.01, seed=6)
        oracle: set[bytes] = set()
        rng = SeededRng(60)
        false_pos = 0
        n = 10_000
        for _ in range(n):
            item = rng.next_u64().to_bytes(8, "little")
            dup = f.check_and_add(item)
            if dup and item not in oracle:
                false_pos += 1
            oracle.add(item)
        assert false_pos / n <= 0.02

    @pytest.mark.parametrize("loads, target", [((6, 7, 7), 1), ((7, 7, 7), 0), ((7, 6, 7), 0)])
    def test_reset_tie_clears_lowest_indexed(self, loads, target):
        # 8 bits per sub-filter, loaded past the threshold, so the reset
        # step always fires and picks among the most-loaded sub-filters.
        f = _filter(total_bits=24, t=0.125)
        assert (f.num_filters, f.bits_per_filter) == (3, 8)
        for i, load in enumerate(loads):
            f._arrays[i][0] = (1 << load) - 1
        f._set_counts = list(loads)
        before = [bytes(a) for a in f._arrays]
        f._maybe_reset()
        expected = list(loads)
        expected[target] -= 1
        assert f.set_bit_counts() == expected
        assert f.resets == 1
        for i, (old, now) in enumerate(zip(before, f._arrays)):
            assert (now == old) == (i != target), i
        assert bin(f._arrays[target][0]).count("1") == loads[target] - 1

    def test_seeded_run_matches_documented_formula(self):
        # The reference computes positions as (h1 + i*h2) mod m on the full
        # 64-bit halves and picks a reset's sub-filter as the highest count,
        # then the lowest index; the filter under test must end up with the
        # same bits, resets and generator state after 20k items.
        items = [f"sig{i % 15_000}:{i % 7}".encode() for i in range(20_000)]
        f = StableBloomFilter(100_000, 0.001, SeededRng(17))
        ref = _ReferenceFilter(100_000, 0.001, SeededRng(17))
        assert [f.check_and_add(x) for x in items] == [ref.check_and_add(x) for x in items]
        assert f._arrays == ref.arrays
        assert f.set_bit_counts() == ref.counts
        assert f.resets == ref.resets > 0
        assert f.rng._state == ref.rng._state

    @pytest.mark.parametrize("total_bits, t, resets", [
        (100_000, 0.001, True), (6_000, 0.01, True), (6_000, 0.01, False),
        (2_000, 0.001, True),
    ])
    def test_stepped_walk_matches_listed_probes(self, total_bits, t, resets):
        # Every step leaves the same bits, counts, resets and generator
        # state as the listed walk, on a stream with repeats. In the
        # 2,000-bit filter a few resets clear a bit that the insert has
        # already probed, so the insert must set it again.
        rng = random.Random(29)
        items = [f"inst{rng.randrange(12_000)}".encode() for _ in range(20_000)]
        f = StableBloomFilter(total_bits, t, SeededRng(31))
        ref = _ListedProbes(total_bits, t, SeededRng(31))
        if not resets:
            _frozen(f)
            _frozen(ref)
        duplicates = 0
        for item in items:
            dup = f.check_and_add(item)
            assert dup == ref.check_and_add(item), item
            assert f._arrays == ref._arrays
            assert f._set_counts == ref._set_counts
            assert (f.resets, f.rng._state) == (ref.resets, ref.rng._state)
            duplicates += dup
        assert duplicates > 1_000
        assert (f.resets > 0) == resets

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _filter(t=0.0)
        with pytest.raises(ValueError):
            _filter(total_bits=10, t=0.001)  # too few bits per filter
