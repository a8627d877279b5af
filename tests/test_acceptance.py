"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run at their stated tolerances with fixed seeds, so
the suite is deterministic. The two large-input criteria (conciseness
runtime at 1M triples, external sort of 1M lines) are the slow ones;
everything else is seconds.
"""

import json
import re
import time
import tracemalloc
from itertools import islice

import pytest
from scipy import stats

import conftest

from lodprobe import (
    MockResolver,
    ReservoirSampler,
    SeededRng,
    StableBloomFilter,
    Triple,
    estimate_cc,
    exact_global_cc,
    iri,
    literal,
    mixing_time,
    random_walk,
    sort_by_subject,
    verify_subject_contiguous,
)
from lodprobe.cli import main
from lodprobe.extsort import subject_sort_key
from lodprobe.metrics import (
    ConcisenessEstimate,
    ConcisenessExact,
    DerefEstimate,
    DerefExact,
    ExtLinksEstimate,
    ExtLinksExact,
)

from synth import (
    complete_graph,
    conciseness_stream,
    deref_fixture,
    er_graph,
    path_graph,
    run,
    write_ntriples,
)


def _report(n: int, description: str) -> None:
    # Echoed by the conftest terminal-summary hook after the run; a failed
    # criterion shows up as the test failure itself.
    line = f"[criterion {n}] PASS: {description}"
    print(line)
    conftest.acceptance_lines.append(line)


def test_criterion_1_reservoir_uniformity():
    capacity, stream_len, seeds = 100, 10_000, 250
    counts = [0] * stream_len
    items = [str(i) for i in range(stream_len)]

    start = time.perf_counter()
    for seed in range(seeds):
        sampler = ReservoirSampler(capacity, seed)
        for i, item in enumerate(items):
            sampler.add(item)
            # One repeat per four items, always of an item from the first
            # half: a repeat must not give its item another chance.
            if i % 4 == 3:
                sampler.add(items[i // 2])
        contents = sampler.contents()
        assert len(contents) == capacity
        for item in contents:
            counts[int(item)] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sampling took {elapsed:.1f}s"

    # Grand mean is exactly capacity/stream_len when every trial retains
    # exactly `capacity` items.
    expected = capacity / stream_len
    assert sum(counts) / (seeds * stream_len) == pytest.approx(expected, abs=1e-12)

    # Per-item frequency vs 3 standard errors. Testing 10^4 items means a
    # perfect sampler still exceeds 3*SE on ~0.4% of them, so the bound is
    # on the outlier fraction staying at chance level.
    se = (expected * (1 - expected) / seeds) ** 0.5
    outliers = sum(1 for c in counts if abs(c / seeds - expected) > 3 * se)
    assert outliers / stream_len <= 0.02, f"{outliers} items outside 3 SE"

    # Aggregate uniformity: chi-square over 200 position bins.
    bins = [sum(counts[i * 50 : (i + 1) * 50]) for i in range(200)]
    _, p = stats.chisquare(bins)
    assert p > 0.001, f"chi-square p={p}"

    _report(1, f"reservoir uniform over {seeds} seeds "
               f"(outliers {outliers/stream_len:.2%}, chi2 p={p:.3f}, {elapsed:.1f}s)")


def test_criterion_2_sbf_false_positive_bound():
    total_bits, threshold, n = 1_000_000, 0.01, 50_000
    rng = SeededRng(20_260_810)
    items = [rng.next_u64().to_bytes(8, "little") + f"-{i}".encode() for i in range(n)]
    assert len(set(items)) == n

    start = time.perf_counter()
    sbf = StableBloomFilter(total_bits, threshold, SeededRng(1))
    oracle: set[bytes] = set()
    false_positives = 0
    for item in items:
        if sbf.check_and_add(item) and item not in oracle:
            false_positives += 1
        oracle.add(item)
    fpr = false_positives / n
    assert fpr <= 0.02, f"measured FPR {fpr}"

    frozen = StableBloomFilter(total_bits, threshold, SeededRng(2))
    frozen._maybe_reset = lambda: None  # no bit is ever cleared
    for item in items:
        frozen.check_and_add(item)
    false_negatives = sum(0 if frozen.check_and_add(item) else 1 for item in items)
    assert false_negatives == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"filter protocol took {elapsed:.1f}s"

    _report(2, f"SBF fpr={fpr:.5f} <= 0.02, zero false negatives without resets "
               f"({elapsed:.1f}s)")


def test_criterion_3_conciseness_accuracy():
    triples, exact_value = conciseness_stream(10_000, 1_500, seed=31)
    assert len(triples) == 100_000
    assert exact_value == 0.85

    exact = run(ConcisenessExact(), triples)
    assert exact.value == 0.85  # exactly, by construction

    # Published P3-style setting: 10 filters over 100,000 bits
    # (fpr threshold 0.001 derives 10 sub-filters).
    estimate = run(
        ConcisenessEstimate(total_bits=100_000, fpr_threshold=0.001, seed=31), triples
    )
    assert estimate.parameters["num_filters"] == 10
    delta = abs(estimate.value - exact.value)
    assert delta <= 0.02, f"|estimate - exact| = {delta}"

    _report(3, f"conciseness exact=0.85, estimate delta={delta:.4f} <= 0.02")


def test_criterion_3_conciseness_runtime_at_1m_triples():
    n_instances, per_instance = 40_000, 25  # exactly 1,000,000 triples
    duplicates = 6_000

    def stream():
        return iter(conciseness_stream(
            n_instances, duplicates, seed=33, triples_per_instance=per_instance
        )[0])

    # Feed both processors in one pass of 256-triple chunks, timing only
    # their consume/finalize work, as the comparison harness does. Each
    # derives its own instances inside its own clock, so both pay for the
    # subject runs and signatures. Filter sized for the 10x-larger stream
    # (P4-style bit budget); hash cost is unchanged.
    exact_proc, est_proc = ConcisenessExact(), ConcisenessEstimate(10_000_000, 0.001, seed=33)
    clock = time.perf_counter
    exact_elapsed = est_elapsed = 0.0
    count = 0
    triples = stream()
    while chunk := list(islice(triples, 256)):
        count += len(chunk)
        t0 = clock()
        exact_proc.shared.derive(chunk)
        exact_proc.consume(chunk)
        t1 = clock()
        est_proc.shared.derive(chunk)
        est_proc.consume(chunk)
        t2 = clock()
        exact_elapsed += t1 - t0
        est_elapsed += t2 - t1
    t0 = clock()
    exact_result = exact_proc.finalize()
    t1 = clock()
    est_result = est_proc.finalize()
    est_elapsed += clock() - t1
    exact_elapsed += t1 - t0

    assert count == 1_000_000
    assert exact_result.counters["total_instances"] == n_instances
    assert abs(est_result.value - exact_result.value) <= 0.02
    ratio = est_elapsed / exact_elapsed
    assert ratio <= 0.5, (
        f"estimate {est_elapsed:.1f}s vs exact {exact_elapsed:.1f}s (ratio {ratio:.2f})"
    )

    _report(3, f"conciseness runtime at 1M triples: estimate {est_elapsed:.1f}s "
               f"= {ratio:.2f}x exact {exact_elapsed:.1f}s (<= 0.5)")


def test_criterion_4_clustering_estimator():
    # Fixed-seed G(500, 0.05): walk estimate tracks the exact coefficient.
    g = er_graph(500, 0.05, seed=42)
    exact = exact_global_cc(g)
    r = mixing_time(g.vertex_count, 1.0)
    errors = sorted(
        abs(estimate_cc(random_walk(g, r, seed=s)) - exact) for s in range(20)
    )
    median_error = (errors[9] + errors[10]) / 2
    assert median_error <= 0.1, f"median |error| = {median_error}"

    # Triangle-free graphs estimate exactly zero.
    for g0 in (path_graph(10), path_graph(3)):
        assert exact_global_cc(g0) == 0.0
        for seed in range(5):
            assert estimate_cc(random_walk(g0, 60, seed=seed)) == 0.0

    # K3 Monte-Carlo: the clamped estimator's analytic expectation at
    # r=500 is 0.98213, within the stated +-0.02 of the ideal value 1.
    k3 = complete_graph(3)
    mean = sum(estimate_cc(random_walk(k3, 500, seed=s)) for s in range(10_000)) / 10_000
    assert abs(mean - 1.0) <= 0.02, f"K3 Monte-Carlo mean {mean}"

    _report(4, f"cc estimator: G(500,0.05) median error {median_error:.3f} <= 0.1, "
               f"trees exact 0, K3 mean {mean:.4f} within 0.02 of 1")


def test_criterion_5_dereferenceability_mock():
    # 20 PLDs x 50 URIs with a scripted verdict for every URI.
    pattern = ["hash-ok", "303-ok", "direct-200", "404", "500"]

    def verdict_of(p, u):
        return pattern[(p + u) % 5]

    triples, mappings, expected = deref_fixture(20, 50, verdict_of)
    resolver_mappings = mappings

    exact = run(DerefExact(MockResolver(resolver_mappings)), triples)
    assert exact.value == pytest.approx(expected, abs=1e-12)

    # The default sample of 1,000 URIs over 20 seeds.
    max_delta = 0.0
    for seed in range(20):
        est = run(DerefEstimate(MockResolver(resolver_mappings), 1000, seed), triples)
        max_delta = max(max_delta, abs(est.value - expected))
    assert max_delta <= 0.1, f"max |estimate - exhaustive| = {max_delta}"

    # All-5xx fixture: every root down, every resource 5xx -> exactly 0.
    dead_triples, dead_mappings, dead_expected = deref_fixture(
        6, 10, lambda p, u: "500", dead_root_plds=set(range(6))
    )
    assert dead_expected == 0.0
    dead_est = run(DerefEstimate(MockResolver(dead_mappings), 1000, seed=3), dead_triples)
    dead_exact = run(DerefExact(MockResolver(dead_mappings)), dead_triples)
    assert dead_est.value == 0.0
    assert dead_exact.value == 0.0

    _report(5, f"deref mock: exact={exact.value:.4f} equals hand-computed, "
               f"estimate max delta {max_delta:.4f} <= 0.1, all-5xx fixture = 0")


def test_criterion_6_ext_links_exact_under_full_retention():
    rng = SeededRng(64)
    for trial in range(6):
        n_ext = 1 + rng.uniform_below(30)
        externals = [f"ext{rng.uniform_below(40):02d}.org" for _ in range(n_ext)]
        triples = []
        for i in range(200):
            triples.append(Triple(
                iri(f"http://base.org/s{i}"), iri("http://v.org/p"),
                iri(f"http://base.org/o{i % 37}"),
            ))
        for k, pld_name in enumerate(externals):
            triples.append(Triple(
                iri(f"http://base.org/se{k}"), iri("http://v.org/p"),
                iri(f"http://{pld_name}/r{k}"),
            ))
        distinct = len(set(externals)) + 1
        exact = run(ExtLinksExact(), triples)
        for capacity in (distinct, distinct + 3, 4 * distinct):
            est = run(ExtLinksEstimate(capacity, seed=trial), triples)
            assert est.value == exact.value, (trial, capacity)

    _report(6, "external links: estimate == exact bit-for-bit whenever "
               "capacity >= distinct object PLDs")


def test_criterion_7_compare_determinism(tmp_path):
    triples, _ = conciseness_stream(300, 60, seed=71, triples_per_instance=4)
    data = tmp_path / "d.nt"
    write_ntriples(data, triples)
    out = tmp_path / "report.json"

    def masked_run() -> str:
        code = main([
            "compare", "--input", str(data),
            "--metric", "extcon", "--metric", "cc", "--metric", "ext-links",
            "--seed", "777", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        text = re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', text)
        return re.sub(r'"speedup": [0-9.e+-]+', '"speedup": 0', text)

    first, second = masked_run(), masked_run()
    assert first == second  # byte comparison after masking timings
    assert json.loads(first)["deviations"] is not None

    _report(7, "compare run twice with one seed: reports byte-identical "
               "after masking elapsed fields")


def test_criterion_8_external_sort(tmp_path):
    # (a) oracle equivalence on a 10k-line random sample
    rng = SeededRng(88)
    sample_lines = []
    for i in range(10_000):
        s = rng.uniform_below(700)
        sample_lines.append(
            f"<http://ex.org/s{s:03d}> <http://ex.org/p{rng.uniform_below(9)}> "
            f'"v{rng.uniform_below(10_000)}" .'.encode()
        )
    sample = tmp_path / "sample.nt"
    sample.write_bytes(b"\n".join(sample_lines) + b"\n")
    sorted_sample = tmp_path / "sample-sorted.nt"
    sort_by_subject(sample, sorted_sample, memory_budget=200_000)
    oracle = sorted(sample_lines, key=lambda l: (subject_sort_key(l)[0], l))
    assert sorted_sample.read_bytes().splitlines() == oracle

    # (b) 1M lines under a 64 MB budget: contiguity + peak memory
    big = tmp_path / "big.nt"
    with open(big, "w") as fh:
        for i in range(1_000_000):
            s = (i * 48_271) % 99_991
            fh.write(
                f'<http://ex.org/subject/{s:05d}> <http://ex.org/vocab/p{i % 7}> '
                f'"payload value {i % 5000:04d}" .\n'
            )
    budget = 64 * 1024 * 1024
    out = tmp_path / "big-sorted.nt"

    tracemalloc.start()
    summary = sort_by_subject(big, out, memory_budget=budget)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    assert summary.lines == 1_000_000
    assert summary.chunks >= 2
    assert verify_subject_contiguous(out) is None
    assert 0.8 * budget <= peak <= 1.2 * budget, (
        f"peak {peak/2**20:.1f} MiB vs budget {budget/2**20:.0f} MiB"
    )

    _report(8, f"external sort: oracle-identical on 10k sample; 1M lines in "
               f"{summary.chunks} chunks, peak {peak/2**20:.1f} MiB within "
               f"64 MiB +-20%")
