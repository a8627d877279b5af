import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from scipy import integrate, stats

from lodprobe import (
    CachedResolver,
    metrics,
    MetricResult,
    MockResolver,
    SeededRng,
    SortOrderViolation,
    StableBloomFilter,
    Term,
    TermKind,
    Triple,
    blank,
    iri,
    literal,
    try_pld,
)
from lodprobe.cli import DEFAULTS
from lodprobe.metrics import (
    ClusteringMetric,
    ConcisenessEstimate,
    ConcisenessExact,
    DerefEstimate,
    DerefExact,
    ExtLinksEstimate,
    ExtLinksExact,
    SharedInstances,
    derived_chunks,
)

from synth import (
    CountingResolver,
    conciseness_stream,
    deref_fixture,
    er_graph,
    feed,
    random_triple,
    run,
)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
VOID_DATASET = "http://rdfs.org/ns/void#Dataset"
OWL_ONTOLOGY = "http://www.w3.org/2002/07/owl#Ontology"
DEREF_CAPACITY = DEFAULTS["dereferenceability"]["sample_capacity"]


def _t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


def _base(triples):
    processor = ExtLinksExact()
    feed(processor, triples)
    return processor.base_pld()


class TestDetectBaseUri:
    def test_void_dataset_declaration_wins(self):
        triples = [
            _t("http://other.org/x", "http://p.org/p", "http://other.org/y"),
            _t("http://ex.org/ds", RDF_TYPE, VOID_DATASET),
            _t("http://other.org/a", "http://p.org/p", "http://other.org/b"),
            _t("http://other.org/c", "http://p.org/p", "http://other.org/d"),
        ]
        assert _base(triples) == "ex.org"

    def test_owl_ontology_declaration(self):
        triples = [_t("http://onto.org/o", RDF_TYPE, OWL_ONTOLOGY)]
        assert _base(triples) == "onto.org"

    def test_first_declaration_wins(self):
        triples = [
            _t("http://first.org/ds", RDF_TYPE, VOID_DATASET),
            _t("http://second.org/ds", RDF_TYPE, VOID_DATASET),
        ]
        assert _base(triples) == "first.org"

    def test_frequency_fallback(self):
        triples = [
            _t(f"http://a.org/s{i}", "http://p.org/p", "http://x.org/o") for i in range(90)
        ] + [
            _t(f"http://b.org/s{i}", "http://p.org/p", "http://x.org/o") for i in range(10)
        ]
        assert _base(triples) == "a.org"

    def test_tie_breaks_lexicographically(self):
        triples = [
            _t(f"http://b.org/s{i}", "http://p.org/p", "http://x.org/o") for i in range(5)
        ] + [
            _t(f"http://a.org/s{i}", "http://p.org/p", "http://x.org/o") for i in range(5)
        ]
        assert _base(triples) == "a.org"

    def test_no_usable_subjects(self):
        assert _base([Triple(blank("b0"), iri("http://p.org/p"), literal("x"))]) is None


def _dataset_with_externals(n_internal_objects: int, external_plds: list[str]):
    """a.org-based dataset (base found by subject frequency) whose object
    URIs include the given externals."""
    triples = []
    for i in range(n_internal_objects):
        triples.append(_t(f"http://a.org/s{i}", "http://p.org/p", f"http://a.org/o{i}"))
    for k, pld_name in enumerate(external_plds):
        triples.append(_t(f"http://a.org/se{k}", "http://p.org/p", f"http://{pld_name}/r"))
    return triples


class TestExtLinks:
    def test_all_literal_objects_zero(self):
        triples = [
            Triple(iri(f"http://a.org/s{i}"), iri("http://p.org/p"), literal(f"v{i}"))
            for i in range(10)
        ]
        assert run(ExtLinksExact(), triples).value == 0.0
        assert run(ExtLinksEstimate(100, seed=1), triples).value == 0.0

    def test_single_external_among_thousand(self):
        triples = _dataset_with_externals(999, ["ext.org"])
        # Brute-force oracle: 1000 object URIs, 1 distinct external PLD.
        result = run(ExtLinksEstimate(reservoir_capacity=10, seed=3), triples)
        assert result.value == pytest.approx(1 / 1000)
        assert result.counters["total_object_uris"] == 1000

    def test_exact_construction(self):
        externals = [f"ext{k}.org" for k in range(7)]
        triples = _dataset_with_externals(93, externals)
        result = run(ExtLinksExact(), triples)
        assert result.value == pytest.approx(7 / 100)
        assert result.counters["distinct_plds"] == 8  # a.org + 7 externals
        assert result.estimated is False

    def test_full_retention_equals_exact_bitwise(self):
        rng = SeededRng(44)
        externals = [f"x{rng.uniform_below(20)}.net" for _ in range(30)]
        triples = _dataset_with_externals(200, externals)
        exact = run(ExtLinksExact(), triples)
        estimate = run(ExtLinksEstimate(reservoir_capacity=64, seed=9), triples)
        assert estimate.value == exact.value  # bit-for-bit float equality

    def test_small_reservoir_in_range_and_centred(self):
        # 41 distinct PLDs through 5 slots: exact value 40/50 = 0.8. The
        # estimate is min(1, share x 4/U / 50), U the 5th smallest of 41
        # uniform ranks, so the clamp cuts its upper tail and its mean is
        # the integral below (0.707, sd 0.22), not 0.8.
        externals = [f"e{k}.org" for k in range(40)]
        triples = _dataset_with_externals(10, externals)
        values = []
        for seed in range(20):
            result = run(ExtLinksEstimate(reservoir_capacity=5, seed=seed), triples)
            assert result.counters["plds_sampled"] == 5
            assert 0.0 <= result.value <= 1.0
            values.append(result.value)
        u = stats.beta(5, 37)

        def clamped_mean(share):
            c = share * 4 / 50
            return integrate.quad(lambda x: min(1.0, c / x) * u.pdf(x), 0, 1, points=[c])[0]

        # a.org is among the 5 sampled PLDs with probability 5/41
        expected = 5 / 41 * clamped_mean(4 / 5) + 36 / 41 * clamped_mean(1.0)
        assert abs(sum(values) / len(values) - expected) <= 3 * 0.22 / len(values) ** 0.5

    def test_estimate_within_bound_when_sample_binds(self):
        # 1,500 distinct object PLDs (a.org and 1,499 externals) through
        # 1,000 slots: the external share is scaled by the estimated
        # distinct count, so the value keeps within 3/sqrt(k) of exact.
        capacity = 1_000
        triples = _dataset_with_externals(500, [f"x{k:04d}.net" for k in range(1_499)])
        exact = run(ExtLinksExact(), triples)
        assert exact.counters["distinct_plds"] == 1_500
        for seed in range(20):
            est = run(ExtLinksEstimate(capacity, seed=seed), triples)
            assert est.counters["plds_sampled"] == capacity
            assert abs(est.value / exact.value - 1) <= 3 / capacity**0.5, seed

    def test_blank_and_literal_objects_skipped(self):
        triples = [
            _t("http://a.org/s", "http://p.org/p", "http://a.org/o"),
            Triple(iri("http://a.org/s"), iri("http://p.org/p"), blank("b0")),
            Triple(iri("http://a.org/s"), iri("http://p.org/p"), literal("x")),
        ]
        result = run(ExtLinksExact(), triples)
        assert result.counters["total_object_uris"] == 1

    def test_no_base_pld_counts_all_external(self):
        triples = [
            Triple(blank("b0"), iri("http://p.org/p"), iri("http://e1.org/x")),
            Triple(blank("b1"), iri("http://p.org/p"), iri("http://e2.org/y")),
        ]
        result = run(ExtLinksExact(), triples)
        assert result.value == pytest.approx(1.0)
        assert result.parameters["base_pld"] is None


class TestConciseness:
    def test_all_distinct_instances(self):
        triples, exact_value = conciseness_stream(4, 0, seed=1, triples_per_instance=3)
        assert exact_value == 1.0
        assert run(ConcisenessExact(), triples).value == 1.0
        assert run(ConcisenessEstimate(100_000, 0.01, seed=1), triples).value == 1.0

    def test_two_of_four_share_signature(self):
        triples, exact_value = conciseness_stream(4, 1, seed=2, triples_per_instance=3)
        assert exact_value == 0.75
        assert run(ConcisenessExact(), triples).value == 0.75
        assert run(ConcisenessEstimate(100_000, 0.01, seed=2), triples).value == 0.75

    def test_five_identical_instances(self):
        body = [("http://p.org/p", literal("same"))]
        triples = [
            Triple(iri(f"http://a.org/s{i}"), iri(p), o) for i in range(5) for p, o in body
        ]
        assert run(ConcisenessExact(), triples).value == pytest.approx(0.2)
        assert run(ConcisenessEstimate(100_000, 0.01, seed=3), triples).value == pytest.approx(0.2)

    def test_empty_dataset_vacuously_concise(self):
        assert run(ConcisenessExact(), []).value == 1.0
        result = run(ConcisenessEstimate(10_000, 0.01, seed=1), [])
        assert result.value == 1.0
        assert result.counters["zero_denominator"] == 1

    def test_statement_order_within_instance_is_irrelevant(self):
        a = [
            _t("http://a.org/s1", "http://p.org/p1", "http://a.org/o1"),
            _t("http://a.org/s1", "http://p.org/p2", "http://a.org/o2"),
            _t("http://a.org/s2", "http://p.org/p2", "http://a.org/o2"),
            _t("http://a.org/s2", "http://p.org/p1", "http://a.org/o1"),
        ]
        result = run(ConcisenessExact(), a)
        assert result.value == 0.5  # the two instances are duplicates
        assert result.counters["duplicate_instances"] == 1

    def test_repeated_statement_collapses(self):
        triples = [
            _t("http://a.org/s1", "http://p.org/p", "http://a.org/o"),
            _t("http://a.org/s1", "http://p.org/p", "http://a.org/o"),
            _t("http://a.org/s2", "http://p.org/p", "http://a.org/o"),
        ]
        assert run(ConcisenessExact(), triples).counters["duplicate_instances"] == 1

    def test_sort_order_violation(self):
        triples = [
            _t("http://a.org/s1", "http://p.org/p", "http://a.org/o1"),
            _t("http://a.org/s2", "http://p.org/p", "http://a.org/o1"),
            _t("http://a.org/s1", "http://p.org/p", "http://a.org/o2"),
        ]
        with pytest.raises(SortOrderViolation) as exc_info:
            run(ConcisenessExact(), triples)
        assert exc_info.value.triple_number == 3

    def test_subject_serialised_once_per_run(self, monkeypatch):
        # Equal but distinct subject Terms continue one run, and a subject's
        # digest is taken when its run opens, not on every triple.
        digested = []
        real = metrics.hash128
        monkeypatch.setattr(metrics, "hash128", lambda data: digested.append(data) or real(data))
        triples = [_t("http://a.org/s1", f"http://p.org/p{i}", "http://a.org/o") for i in range(4)]
        triples.append(_t("http://a.org/s2", "http://p.org/p0", "http://a.org/o"))
        assert triples[0].subject == triples[1].subject
        assert triples[0].subject is not triples[1].subject
        result = run(ConcisenessExact(), triples)
        assert result.counters["total_instances"] == 2
        assert digested == [b"<http://a.org/s1>", b"<http://a.org/s2>"]

    def test_estimate_within_tolerance_at_moderate_size(self):
        triples, exact_value = conciseness_stream(2000, 300, seed=7, triples_per_instance=5)
        assert exact_value == 0.85
        estimate = run(ConcisenessEstimate(100_000, 0.001, seed=7), triples)
        assert abs(estimate.value - exact_value) <= 0.02

    def test_exact_geq_estimate_with_resets_disabled(self):
        # False positives only inflate the duplicate count.
        triples, _ = conciseness_stream(1500, 150, seed=11, triples_per_instance=4)
        exact = run(ConcisenessExact(), triples)
        for seed in (1, 2, 3):
            est = ConcisenessEstimate(20_000, 0.01, seed)
            est._filter = StableBloomFilter(20_000, 0.01, SeededRng(seed))
            est._filter._maybe_reset = lambda: None
            assert exact.value >= run(est, triples).value

    def test_estimate_identical_across_hash_seeds(self):
        # The filter positions and the closed-subject digests come from
        # BLAKE2b, never from `hash()`, so the estimate is the same bytes
        # in processes whose string hashing differs.
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src"), str(root / "tests")]
        snippet = (
            f"import json, sys; sys.path[:0] = {paths!r}; "
            "from synth import conciseness_stream, run; "
            "from lodprobe.metrics import ConcisenessEstimate; "
            "triples, _ = conciseness_stream(3000, 400, seed=5, triples_per_instance=3); "
            "r = run(ConcisenessEstimate(8_000, 0.01, seed=9), triples); "
            "print(json.dumps([r.value, r.counters, r.parameters]))"
        )
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            child = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                cwd=str(root),
            )
            assert child.returncode == 0, child.stderr
            outputs.add(child.stdout)
        assert len(outputs) == 1, outputs
        value, counters, _ = json.loads(outputs.pop())
        assert counters["filter_resets"] > 0 and 0 < value < 1

    def test_counters_and_runs(self):
        triples, _ = conciseness_stream(50, 10, seed=4, triples_per_instance=2)
        result = run(ConcisenessExact(), triples)
        assert result.counters["total_instances"] == 50
        assert result.counters["duplicate_instances"] == 10
        assert result.counters["duplicate_instances"] <= result.counters["total_instances"]

    def test_exact_invariant_under_block_permutation(self):
        # Subject-contiguity is all the exact variant needs: permuting whole
        # instance blocks leaves the value unchanged.
        triples, _ = conciseness_stream(40, 8, seed=13, triples_per_instance=3)
        blocks: dict[str, list] = {}
        for t in triples:
            blocks.setdefault(t.subject.lexical, []).append(t)
        rng = SeededRng(14)
        keys = list(blocks)
        shuffled = []
        while keys:
            shuffled.extend(blocks[keys.pop(rng.uniform_below(len(keys)))])
        assert run(ConcisenessExact(), shuffled).value == run(ConcisenessExact(), triples).value


class TestDeref:
    def test_all_roots_5xx_yields_zero(self):
        triples, mappings, _ = deref_fixture(
            4, 5, lambda p, u: "500", dead_root_plds={0, 1, 2, 3}
        )
        result = run(DerefEstimate(MockResolver(mappings), 100, seed=1), triples)
        assert result.value == 0.0
        assert result.counters["uris_sampled"] == 21  # each URI classified, no root shortcut

    def test_dead_root_with_live_uris_matches_exact(self):
        # A PLD root that 503s says nothing about the URIs under it.
        triples, mappings, expected = deref_fixture(
            4, 5, lambda p, u: "hash-ok", dead_root_plds={0, 1, 2, 3}
        )
        exact = run(DerefExact(MockResolver(mappings)), triples)
        estimate = run(DerefEstimate(MockResolver(mappings), 100, seed=1), triples)
        assert expected == pytest.approx(20 / 21)
        assert estimate.value == exact.value == pytest.approx(expected)

    def test_all_hash_uris_ok(self):
        triples, mappings, _ = deref_fixture(3, 4, lambda p, u: "hash-ok")
        # Drop the 404 subject document so every classified URI succeeds.
        mappings["http://base.org/dataset/item"] = [
            {"status": 303, "location": "http://base.org/data"},
            {"status": 200, "content_type": "text/turtle"},
        ]
        result = run(DerefEstimate(MockResolver(mappings), 100, seed=2), triples)
        assert result.value == 1.0
        assert run(DerefExact(MockResolver(mappings)), triples).value == 1.0

    def test_exact_matches_hand_computed_ratio(self):
        verdicts = ["hash-ok", "303-ok", "direct-200", "404", "500"]
        triples, mappings, expected = deref_fixture(2, 5, lambda p, u: verdicts[u])
        result = run(DerefExact(MockResolver(mappings)), triples)
        # 2 PLDs x (2 ok of 5) + the 404 subject URI: 4/11.
        assert expected == pytest.approx(4 / 11)
        assert result.value == pytest.approx(expected)

    def test_estimate_equals_exact_with_full_capacity(self):
        verdicts = ["hash-ok", "303-ok", "404"]
        triples, mappings, expected = deref_fixture(5, 3, lambda p, u: verdicts[u % 3])
        exact = run(DerefExact(MockResolver(mappings)), triples)
        estimate = run(DerefEstimate(MockResolver(mappings), 1000, seed=5), triples)
        assert exact.value == pytest.approx(expected)
        assert estimate.value == exact.value

    def test_invariant_under_duplicate_triples(self):
        verdicts = ["hash-ok", "404"]
        triples, mappings, _ = deref_fixture(3, 2, lambda p, u: verdicts[u])
        doubled = [t for t in triples for _ in range(3)]
        base = run(DerefEstimate(MockResolver(mappings), 100, seed=6), triples)
        dup = run(DerefEstimate(MockResolver(mappings), 100, seed=6), doubled)
        assert base.value == dup.value
        assert base.counters["uris_sampled"] == dup.counters["uris_sampled"]

    def test_transport_failures_tallied(self):
        triples, mappings, _ = deref_fixture(1, 3, lambda p, u: "404")
        mappings["http://pld000.org/res0"] = [{"error": "timeout"}]
        result = run(DerefExact(MockResolver(mappings)), triples)
        assert result.counters["transport_errors"] == 1

    def test_eviction_bounds_memory(self):
        rng = SeededRng(77)
        triples = []
        for i in range(400):
            pld_name = f"p{rng.uniform_below(60):02d}.org"
            triples.append(
                _t(f"http://{pld_name}/s{i}", "http://v.org/p", f"http://{pld_name}/o{i}")
            )
        mappings = {"http://*": [{"status": 200, "content_type": "text/turtle"}]}
        processor = DerefEstimate(MockResolver({"http://": mappings["http://*"]}), 8, seed=3)
        feed(processor, triples)
        assert len(processor._uris.contents()) <= 8

    def test_estimate_unbiased_when_sample_binds(self):
        # 6,261 URIs over 201 PLDs (200 of 2-61 URIs, plus the subject's)
        # through the default 1,000 slots. Each PLD's first URIs
        # dereference and its later ones 404.
        def size(p):
            return 2 + (p * 7) % 60

        triples, mappings, _ = deref_fixture(
            200, size, lambda p, u: "hash-ok" if 5 * u < (1 + p % 3) * size(p) else "404"
        )
        resolver = CachedResolver(MockResolver(mappings))  # shared: resolve each URI once
        exact = run(DerefExact(resolver), triples).value
        errors = [
            run(DerefEstimate(resolver, DEREF_CAPACITY, seed), triples).value - exact
            for seed in range(20)
        ]
        assert max(map(abs, errors)) <= 0.1, errors
        assert abs(sum(errors) / len(errors)) <= 0.02, errors

    def test_one_large_pld_does_not_decide_the_estimate(self):
        # PLD 0 holds a third of the URIs, all dereferenceable; the other 99
        # alternate 303-ok and 404. A sample of URIs, not of PLDs, weighs
        # each URI alike.
        triples, mappings, expected = deref_fixture(
            100,
            lambda p: 1000 if p == 0 else 20,
            lambda p, u: "hash-ok" if p == 0 else ("303-ok", "404")[u % 2],
        )
        assert expected == pytest.approx(0.6676, abs=1e-4)
        resolver = CachedResolver(MockResolver(mappings))  # shared: resolve each URI once
        errors = [
            run(DerefEstimate(resolver, DEREF_CAPACITY, seed), triples).value - expected
            for seed in range(20)
        ]
        assert max(map(abs, errors)) <= 0.1, errors

    def test_empty_dataset_zero(self):
        result = run(DerefExact(MockResolver({})), [])
        assert result.value == 0.0
        assert result.counters["zero_denominator"] == 1

    def test_hash_uris_share_document_probe(self):
        mock = CountingResolver(MockResolver({
            "http://base.org/": [{"status": 200, "content_type": "text/html"}],
            "http://a.org/": [{"status": 200, "content_type": "text/html"}],
            "http://a.org/doc": [{"status": 200, "content_type": "text/turtle"}],
        }))
        triples = [
            _t("http://a.org/doc#s1", "http://v.org/p", "http://a.org/doc#s2"),
        ]
        result = run(DerefExact(mock), triples)
        assert result.value == 1.0
        assert mock.calls["http://a.org/doc"] == 1  # cache collapsed the probes


# Subjects of every kind the PLD rule treats apart: http(s) IRIs over a few
# PLDs, IRIs without a PLD (urn:, mailto:, IP hosts) and blank nodes.
_REUSE_SUBJECTS = [
    *(f"http://s{i % 4}.org/r{i}" for i in range(8)),
    "https://data.example.co.uk/x",
    "urn:isbn:0451450523",
    "mailto:someone@example.org",
    "http://192.168.0.1/thing",
    "http://[::1]/v6",
]


def _reuse_stream(seed: int, shared: bool) -> list[Triple]:
    """Subject runs of 1-6 triples whose objects, mostly fresh IRIs, churn a
    small sample between one triple of a run and the next. Subjects recur
    in later runs. `shared` gives every triple of a subject one `Term`, as
    the reader's memo does; otherwise each triple gets an equal copy."""
    rng = SeededRng(seed)
    memo: dict[tuple, object] = {}

    def term(kind, value):
        if not shared:
            return kind(value)
        return memo.setdefault((kind, value), kind(value))

    triples = []
    for run_no in range(120):
        pick = rng.uniform_below(len(_REUSE_SUBJECTS) + 3)
        if pick < len(_REUSE_SUBJECTS):
            subject = term(iri, _REUSE_SUBJECTS[pick])
        else:
            subject = term(blank, f"b{pick}")
        for j in range(1 + rng.uniform_below(6)):
            if j == 2 and run_no % 7 == 3:  # a dataset declaration inside a run
                declared = iri(VOID_DATASET if run_no % 2 else OWL_ONTOLOGY)
                triples.append(Triple(subject, iri(RDF_TYPE), declared))
                continue
            roll = rng.uniform_below(10)
            if roll < 5:
                obj = iri(f"http://o{rng.uniform_below(30)}.example.net/{rng.uniform_below(10**6)}")
            elif roll == 5:
                obj = iri(f"http://10.0.0.{rng.uniform_below(9)}/x")
            elif roll == 6:
                obj = iri(f"urn:uuid:{rng.uniform_below(100)}")
            elif roll == 7:
                obj = blank(f"o{rng.uniform_below(20)}")
            elif roll == 8:
                obj = literal(f"v{run_no}")
            else:  # a subject as object, so it is offered from both positions
                obj = term(iri, _REUSE_SUBJECTS[rng.uniform_below(len(_REUSE_SUBJECTS))])
            triples.append(Triple(subject, iri("http://v.org/p"), obj))
    return triples


def _per_term_deref_consume(proc, t: Triple) -> None:
    """The per-term loop that routed the subject anew on every triple: the
    oracle for per-subject-run reuse."""
    for term in (t.subject, t.object):
        if term.kind is not TermKind.IRI:
            continue
        if try_pld(term.lexical) is None:
            proc.uris_without_pld += 1
        else:
            proc.uris_routed += 1
            proc._uris.add(term.lexical)


def _per_term_base_offer(tracker: ExtLinksExact, t: Triple) -> None:
    """Base PLD detection deriving the subject's PLD on every triple."""
    subject_pld = try_pld(t.subject.lexical) if t.subject.kind is TermKind.IRI else None
    if (
        tracker.declared is None
        and subject_pld is not None
        and t.predicate.lexical == RDF_TYPE
        and t.object.kind is TermKind.IRI
        and t.object.lexical in (VOID_DATASET, OWL_ONTOLOGY)
    ):
        tracker.declared = subject_pld
    if subject_pld is not None:
        tracker.frequency[subject_pld] = tracker.frequency.get(subject_pld, 0) + 1


class TestSubjectReuse:
    """Deriving a subject's PLD and sample offer once per subject run leaves
    the same state, counter for counter, as deriving them on every triple."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "equal-copies"])
    @pytest.mark.parametrize("capacity", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deref_estimate_matches_per_term_loop(self, seed, capacity, shared):
        reused = DerefEstimate(MockResolver({}), capacity, seed)
        oracle = DerefEstimate(MockResolver({}), capacity, seed)
        let_go = 0  # re-offers of a run's subject after the sample let it go
        previous = None
        for t in _reuse_stream(seed, shared):
            if t.subject == previous and t.subject.lexical not in oracle._uris.held:
                let_go += try_pld(t.subject.lexical) is not None
            previous = t.subject
            feed(reused, [t])
            _per_term_deref_consume(oracle, t)
            assert reused._uris.contents() == oracle._uris.contents()
        assert let_go > 0  # the stream exercises evicted and turned-away subjects
        assert reused._uris.distinct() == oracle._uris.distinct()
        assert (reused.uris_routed, reused.uris_without_pld) == (
            oracle.uris_routed, oracle.uris_without_pld)
        assert reused.finalize() == oracle.finalize()

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "equal-copies"])
    def test_deref_exact_matches_per_term_loop(self, shared):
        reused = DerefExact(MockResolver({}))
        oracle = DerefExact(MockResolver({}))
        stream = _reuse_stream(4, shared)
        feed(reused, stream)
        for t in stream:
            _per_term_deref_consume(oracle, t)
        assert reused._uris == oracle._uris
        assert (reused.uris_routed, reused.uris_without_pld) == (
            oracle.uris_routed, oracle.uris_without_pld)
        assert reused.finalize() == oracle.finalize()

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "equal-copies"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_base_tracker_matches_per_triple_derivation(self, seed, shared):
        reused, oracle = ExtLinksExact(), ExtLinksExact()
        stream = _reuse_stream(seed, shared)
        feed(reused, stream)
        for t in stream:
            _per_term_base_offer(oracle, t)
        assert reused.frequency == oracle.frequency
        assert reused.declared == oracle.declared
        assert reused.base_pld() == oracle.base_pld()


class TestCcMetric:
    def _graph_triples(self, g):
        names = g._names
        out = []
        for v in sorted(names):
            for u in sorted({names[j] for j in g._chain(g._ids[v])}):
                if v < u:
                    out.append(_t(f"http://g.org/{v}", "http://g.org/link", f"http://g.org/{u}"))
        return out

    def test_tree_dataset_scores_one(self):
        triples = [
            _t("http://a.org/r0", "http://p.org/p", f"http://a.org/r{i}") for i in range(1, 6)
        ]
        for mode in ("exact", "estimate"):
            result = run(ClusteringMetric(mode == "estimate", seed=2), triples)
            assert result.value == 1.0

    def test_value_is_one_minus_cc(self):
        from synth import complete_graph

        triples = self._graph_triples(complete_graph(4))
        result = run(ClusteringMetric(False), triples)
        assert result.value == 0.0  # K4 has cc 1
        assert result.counters["raw_cc_millionths"] == 1_000_000

    def test_edgeless_graph_warns(self):
        triples = [
            Triple(iri("http://a.org/s"), iri("http://p.org/p"), literal("v")),
        ]
        result = run(ClusteringMetric(False), triples)
        assert result.value == 1.0
        assert result.counters["edgeless_graph"] == 1

    def test_estimate_tracks_exact_on_er_dataset(self):
        g = er_graph(300, 0.06, seed=5)
        triples = self._graph_triples(g)
        exact = run(ClusteringMetric(False), triples)
        deltas = sorted(
            abs(run(ClusteringMetric(True, seed=s), triples).value - exact.value)
            for s in range(7)
        )
        assert deltas[len(deltas) // 2] <= 0.1

    def test_counters_report_graph_shape(self):
        g = er_graph(50, 0.1, seed=6)
        result = run(ClusteringMetric(True, seed=1), self._graph_triples(g))
        # Isolated vertices never materialise: only edges create vertices.
        assert result.counters["vertices"] == g.vertex_count
        assert result.counters["edges"] == g.edge_count
        assert result.counters["walk_steps"] >= 3
        assert result.seed == 1

    def test_estimate_peak_within_exact_peak(self):
        # In the style of criterion 8: tracemalloc's peak over consume and
        # finalize, with the vertex strings pre-built and shared by both runs.
        n = 20_000
        rng = SeededRng(63)
        nodes = [Term(TermKind.IRI, f"http://g.org/v{i}", token=f"<http://g.org/v{i}>")
                 for i in range(n)]
        link = iri("http://g.org/link")
        triples = [Triple(nodes[i], link, nodes[(i + 1) % n]) for i in range(n)]
        triples += [Triple(nodes[i], link, nodes[rng.uniform_below(n)]) for i in range(n)]

        def peak(estimated: bool):
            tracemalloc.start()
            try:
                result = run(ClusteringMetric(estimated, seed=3), triples)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        estimate_peak, estimate = peak(True)
        exact_peak, exact = peak(False)
        assert estimate.counters["vertices"] == exact.counters["vertices"] == n
        assert estimate_peak <= exact_peak, (estimate_peak, exact_peak)

    def test_walk_parameter_validation(self):
        for bad in (
            {"mixing_multiplier": 0.0},
            {"mixing_multiplier": -1.0},
            {"mixing_multiplier": float("nan")},
            {"mixing_multiplier": float("inf")},
            {"min_steps": 2},
        ):
            with pytest.raises(ValueError):
                ClusteringMetric(True, **bad)
        metric = ClusteringMetric(True, mixing_multiplier=1e-9, min_steps=3)
        edge = _t("http://a.org/s", "http://p.org/p", "http://a.org/o")
        assert run(metric, [edge]).counters["walk_steps"] == 3


def _flat_stream(n: int) -> list[Triple]:
    """n triples, 5 per subject, over 20 subject PLDs; each object URI is
    new, and the object PLDs cycle through a pool of 1,000."""
    link = iri("http://v.org/link")
    subjects = [iri(f"http://s{j % 20}.org/r{j}") for j in range(n // 5)]
    return [Triple(subjects[i // 5], link, iri(f"http://o{i % 1000}.org/doc{i}"))
            for i in range(n)]


class TestFlatEstimateMemory:
    # Samples of 200 against 1,000 object PLDs and n distinct URIs: both
    # samples bind well before n triples, so past that point nothing an
    # estimate holds grows with the stream. The base-PLD table grows with
    # distinct subject PLDs, which the stream keeps at 20. The margin is
    # less than a set or dict entry for every tenth of the 16,000 extra
    # triples would cost.
    MARGIN = 16 * 1024

    @pytest.mark.parametrize("make", [
        lambda: ExtLinksEstimate(200, seed=4),
        lambda: DerefEstimate(MockResolver({"http://*": [
            {"status": 303, "location": "http://d.org/"},
            {"status": 200, "content_type": "text/turtle"},
        ]}), 200, seed=4),
    ], ids=["ext-links", "deref"])
    def test_peak_flat_between_n_and_5n(self, make):
        n = 4_000
        streams = {size: _flat_stream(size) for size in (n, 5 * n)}
        # The PLD memo is shared by the pass: warm it on every authority
        # first, so neither traced run pays for its entries.
        run(make(), streams[5 * n])

        def peak(triples):
            tracemalloc.start()
            try:
                result = run(make(), triples)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        small_peak, small = peak(streams[n])
        large_peak, large = peak(streams[5 * n])
        sampled = "plds_sampled" if "plds_sampled" in small.counters else "uris_sampled"
        assert small.counters[sampled] == large.counters[sampled] == 200
        assert abs(large_peak - small_peak) <= self.MARGIN, (small_peak, large_peak)


class TestMetricResultContract:
    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            MetricResult("m", 1.5, False, {}, {})

    def test_determinism_same_seed_same_everything(self):
        rng = SeededRng(123)
        triples = [random_triple(rng) for _ in range(500)]
        a = run(ExtLinksEstimate(10, seed=42), triples)
        b = run(ExtLinksEstimate(10, seed=42), triples)
        assert a.value == b.value
        assert a.counters == b.counters
        c = run(ClusteringMetric(True, seed=42), triples)
        d = run(ClusteringMetric(True, seed=42), triples)
        assert c.value == d.value

    def test_order_insensitive_exact_variants(self):
        rng = SeededRng(321)
        triples = [random_triple(rng) for _ in range(300)]
        reversed_triples = list(reversed(triples))
        assert run(ExtLinksExact(), triples).value == run(ExtLinksExact(), reversed_triples).value
        assert (
            run(ClusteringMetric(False), triples).value
            == run(ClusteringMetric(False), reversed_triples).value
        )


# --------------------------------------------------------------------------
# consume takes a derived chunk: how the stream is cut must not show in any
# result

# Triples per chunk of `derived_chunks`; None: the whole stream in one chunk.
_CHUNKINGS = [None, 1, 3, 256, 1000]
_FIRST = iri("http://s0.org/first")  # the first run's subject, one triple long


def _chunking_stream(seed: int) -> list[Triple]:
    """A subject-sorted stream of about 1,800 triples: IRI and blank-node
    subjects in runs of 1-8 triples, some runs sharing one subject `Term`
    and some holding equal copies; about one instance in eight repeats an
    earlier one's statements; objects are IRIs with and without a PLD,
    links back to earlier subjects, blank nodes and literals of each form;
    one run declares the dataset."""
    rng = SeededRng(seed)
    triples = [Triple(_FIRST, iri("http://v.org/p"), literal("first"))]
    subjects: list[Term] = []
    bodies: list[list[tuple[Term, Term]]] = []
    for run_no in range(400):
        if rng.uniform_below(10) == 0 and run_no != 17:
            make_subject = lambda: blank(f"b{run_no}")  # noqa: E731
        else:
            name = f"http://s{1 + rng.uniform_below(6)}.org/r{run_no:04d}"
            make_subject = lambda: iri(name)  # noqa: E731
        if bodies and rng.uniform_below(8) == 0:
            body = bodies[rng.uniform_below(len(bodies))]
        else:
            body = []
            for _ in range(1 + rng.uniform_below(8)):
                roll = rng.uniform_below(10)
                if roll < 3:
                    obj = iri(f"http://example{rng.uniform_below(40)}.net/{rng.uniform_below(50)}")
                elif roll == 3 and subjects:
                    obj = subjects[rng.uniform_below(len(subjects))]
                elif roll == 4:
                    obj = iri(f"urn:uuid:{rng.uniform_below(30)}")
                elif roll == 5:
                    obj = blank(f"o{rng.uniform_below(20)}")
                elif roll == 6:
                    obj = literal(f"v{rng.uniform_below(100)}", language_tag="en")
                elif roll == 7:
                    obj = literal(str(rng.uniform_below(100)),
                                  datatype_iri="http://www.w3.org/2001/XMLSchema#integer")
                else:
                    obj = literal(f"v{rng.uniform_below(100)}")
                body.append((iri(f"http://v.org/p{rng.uniform_below(5)}"), obj))
            bodies.append(body)
        if run_no == 17:
            body = [*body, (iri(RDF_TYPE), iri(VOID_DATASET))]
        shared = make_subject() if run_no % 2 else None
        for predicate, obj in body:
            triples.append(Triple(shared or make_subject(), predicate, obj))
        subjects.append(make_subject())
    return triples


def _chunking_resolver() -> MockResolver:
    return MockResolver({
        "http://*": [{"status": 303, "location": "http://d.org/doc"},
                     {"status": 200, "content_type": "text/turtle"}],
        "http://s2.org/*": [{"status": 404}],
        "http://example1.net/*": [{"error": "timeout"}],
    })


_VARIANTS = {
    "ext-links-estimate": lambda: ExtLinksEstimate(8, seed=5),
    "ext-links-exact": ExtLinksExact,
    "extcon-estimate": lambda: ConcisenessEstimate(20_000, 0.01, seed=5),
    "extcon-exact": ConcisenessExact,
    "deref-estimate": lambda: DerefEstimate(_chunking_resolver(), 16, seed=5),
    "deref-exact": lambda: DerefExact(_chunking_resolver()),
    "cc-estimate": lambda: ClusteringMetric(True, seed=5),
    "cc-exact": lambda: ClusteringMetric(False),
}


def _feed(processor, triples: list[Triple], size: int | None, monkeypatch) -> None:
    monkeypatch.setattr(metrics, "CHUNK_TRIPLES", size or len(triples))
    feed(processor, triples)


class TestChunking:
    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_result_independent_of_chunking(self, variant, seed, monkeypatch):
        triples = _chunking_stream(seed)
        assert len(triples) > 1000
        results = []
        for size in _CHUNKINGS:
            processor = _VARIANTS[variant]()
            _feed(processor, triples, size, monkeypatch)
            results.append(processor.finalize())
        assert all(r == results[0] for r in results[1:]), variant

    def test_stream_exercises_every_path(self):
        triples = _chunking_stream(1)
        ext = run(ExtLinksEstimate(8, seed=5), triples)
        assert ext.counters["plds_offered"] > 8 and ext.counters["objects_without_pld"] > 0
        exact = ExtLinksExact()
        feed(exact, triples)
        assert exact.declared == ext.parameters["base_pld"]
        assert run(ConcisenessExact(), triples).counters["duplicate_instances"] > 10
        deref = run(DerefExact(_chunking_resolver()), triples)
        assert deref.counters["distinct_uris"] > 16  # the estimate's sample binds
        assert deref.counters["transport_errors"] > 0 and 0 < deref.value < 1
        assert run(ClusteringMetric(False), triples).counters["edges"] > 100

    @pytest.mark.parametrize("variant", ["extcon-estimate", "extcon-exact"])
    @pytest.mark.parametrize("at", [3, 255, 256, 999])
    def test_sort_order_violation_number_independent_of_chunking(self, variant, at, monkeypatch):
        # The first subject comes back as triple `at + 1`: the first of a
        # chunk for 3-triple chunks at 3 and 256-triple chunks at 256.
        triples = _chunking_stream(1)
        triples.insert(at, Triple(_FIRST, iri("http://v.org/p"), literal("again")))
        numbers = []
        for size in _CHUNKINGS:
            with pytest.raises(SortOrderViolation) as exc_info:
                _feed(_VARIANTS[variant](), triples, size, monkeypatch)
            assert exc_info.value.subject == "<http://s0.org/first>"
            numbers.append(exc_info.value.triple_number)
        assert numbers == [at + 1] * len(_CHUNKINGS)


class TestSharedInstances:
    """Conciseness processors given one `SharedInstances` read the instances
    it derives once per chunk, and report what each reports alone."""

    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_shared_derivation_equals_standalone(self, size, monkeypatch):
        triples = _chunking_stream(2)
        digested = []
        digest = metrics.hash128
        monkeypatch.setattr(metrics, "hash128", lambda data: digested.append(data) or digest(data))
        instances = SharedInstances()
        processors = [ConcisenessEstimate(20_000, 0.01, seed=5, shared=instances),
                      ConcisenessExact(shared=instances)]
        monkeypatch.setattr(metrics, "CHUNK_TRIPLES", size)
        for chunk in derived_chunks(triples, processors):
            for processor in processors:
                processor.consume(chunk)
        shared = [processor.finalize() for processor in processors]
        assert [processor.finalize() for processor in processors] == shared
        runs = len(digested)
        alone = [run(ConcisenessEstimate(20_000, 0.01, seed=5), triples),
                 run(ConcisenessExact(), triples)]
        assert shared == alone
        assert runs == alone[1].counters["total_instances"]  # one digest for both
        assert alone[1].counters["duplicate_instances"] > 10


class TestDerivedChunksOnly:
    """A processor reads only the chunk that `derived_chunks` yielded last:
    anything else is refused before it touches any state."""

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    @pytest.mark.parametrize("given", ["equal-copy", "generator"])
    def test_consume_rejects_chunk_not_derived(self, variant, given):
        triples = _chunking_stream(1)[:300]
        processor, twin = _VARIANTS[variant](), _VARIANTS[variant]()
        for chunk in derived_chunks(triples, [processor]):
            processor.consume(chunk)
            imposter = list(chunk) if given == "equal-copy" else (t for t in chunk)
            with pytest.raises(ValueError, match="derived_chunks"):
                processor.consume(imposter)
        feed(twin, triples)
        assert processor.finalize() == twin.finalize()

    def test_second_reader_refuses_equal_copy(self):
        # Ten sorted triples, the second reader handed an equal copy of the
        # derived chunk: refused, not read as a stream that restarts at s0.
        triples = [_t(f"http://a.org/s{i // 2}", "http://a.org/p", f"http://a.org/o{i}")
                   for i in range(10)]
        instances = SharedInstances()
        first, second = ConcisenessExact(instances), ConcisenessExact(instances)
        (chunk,) = derived_chunks(triples, [first, second])
        first.consume(chunk)
        with pytest.raises(ValueError, match="derived_chunks"):
            second.consume(list(chunk))
        second.consume(chunk)
        assert first.finalize() == second.finalize() == run(ConcisenessExact(), triples)
        assert first.finalize().counters["total_instances"] == 5
