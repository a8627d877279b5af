"""The four quality metrics, each one streaming processor class in two variants.

Every metric is one processor class with `consume(chunk)` / `finalize()`,
so one pass over a dataset can feed any number of them. Each processor
runs its own loop over a chunk, so the pass makes one call per chunk, not
one per triple, and the state after a stream does not depend on how it
was cut.

A constructor takes `estimated` first: True builds the probabilistic
variant (a bottom-k sample, a stable Bloom filter or a random walk),
False the exact reference. Both variants take the metric's keyword
parameters, with the command line's defaults, and refuse a bad value
with `ValueError`; the exact variant reads none of them, builds no
sketch, and reports neither them nor a seed.

Facts that several processors read are derived once per chunk by a shared
object they hold: `SharedPlds` (the PLDs of subjects and object IRIs, for
ext-links and deref), `SharedInstances` (each subject run's instance
signature, for conciseness) and `SharedGraph` (the resource graph, for
clustering). `derived_chunks(triples, processors)` is the one loop that
cuts a stream into chunks: it derives each chunk into every shared object
of the processors, then yields it for them to consume. A processor only
reads those facts: its `consume` refuses with `ValueError` a chunk that its
shared object did not derive last. A processor built without a shared
object holds a private one, which `derived_chunks` feeds the same way.

Value conventions on empty input: conciseness 1 (vacuous uniqueness),
dereferenceability 0, external links 0, clustering metric 1: each the
conservative end of its quality dimension, flagged with a warning counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

# pld_alive is unused here; it stays bound because perfbench/tracer.py patches it.
from .deref import CachedResolver, Resolver, classify, pld_alive
from .graph import (
    ResourceGraph,
    estimate_cc,
    exact_global_cc,
    mixing_time,
    random_walk,
)
# murmur3_x64_128 is unused here; it stays bound because perfbench/tracer.py patches it.
from .murmur3 import murmur3_x64_128
# serialize_term is unused here; it stays bound because perfbench/tracer.py patches it.
from .ntriples import serialize_term
from .pld import try_pld
from .rng import derive_seed, SeededRng
from .sketches import ReservoirSampler, StableBloomFilter, check_capacity, filter_shape, hash128
from .terms import IRI, Term, Triple

# Triples per chunk, per derivation and per clock pair in the pass; larger
# saves little and holds more.
CHUNK_TRIPLES = 256

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
VOID_DATASET = "http://rdfs.org/ns/void#Dataset"
OWL_ONTOLOGY = "http://www.w3.org/2002/07/owl#Ontology"


@dataclass(frozen=True)
class MetricResult:
    """One metric's outcome: value plus everything needed to reproduce it."""

    metric: str
    value: float
    estimated: bool
    parameters: dict
    counters: dict
    elapsed_seconds: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value {self.value} outside [0, 1]")


class SortOrderViolation(RuntimeError):
    """Conciseness input was not subject-sorted; carries the triple ordinal."""

    def __init__(self, subject: str, triple_number: int):
        super().__init__(
            f"subject {subject} reappeared at triple {triple_number}; "
            f"input must be sorted by subject (run the sort command first)"
        )
        self.subject = subject
        self.triple_number = triple_number


# --------------------------------------------------------------------------
# Facts shared by the processors of one pass


def derived_chunks(triples: Iterable[Triple], processors: Iterable) -> Iterator[list]:
    """`triples` cut into lists of `CHUNK_TRIPLES`, each derived once into
    every distinct `shared` object of `processors`, then yielded for them
    to consume before the next list is cut."""
    shared = list(dict.fromkeys(p.shared for p in processors))
    it = iter(triples)
    while chunk := list(islice(it, CHUNK_TRIPLES)):
        for facts in shared:
            facts.derive(chunk)
        yield chunk


def _check_derived(shared, chunk: list) -> None:
    """Refuse `chunk` unless it is the one `shared` derived last."""
    if chunk is not shared.chunk:
        raise ValueError("consume takes only the chunk that derived_chunks yielded last")


class SharedPlds:
    """Per chunk, `subjects[i]` and `objects[i]` are the PLDs of triple i's
    subject and object, None for a term that is not an IRI or has no PLD.
    A subject's PLD is looked up once per run of triples sharing its
    `Term`; `previous_subject` is the subject just before the chunk, and
    `chunk` the chunk derived last."""

    def __init__(self):
        self.chunk: list | None = None
        self.previous_subject: Term | None = None
        self.subjects: list[str | None] = []
        self.objects: list[str | None] = []
        self._subject: Term | None = None
        self._subject_pld: str | None = None

    def derive(self, chunk: list) -> None:
        subject = self.previous_subject = self._subject
        pld = self._subject_pld
        subjects = []
        append = subjects.append
        for s, _, _ in chunk:
            if s is not subject:
                subject = s
                pld = try_pld(s.lexical) if s.kind is IRI else None
            append(pld)
        self._subject, self._subject_pld = subject, pld
        self.subjects = subjects
        self.objects = [try_pld(o.lexical) if o.kind is IRI else None for _, _, o in chunk]
        self.chunk = chunk


class SharedGraph:
    """The resource graph of the stream, fed each triple once; `chunk` is
    the chunk derived last."""

    def __init__(self):
        self.chunk: list | None = None
        self.graph = ResourceGraph()

    def derive(self, chunk: list) -> None:
        add_triple = self.graph.add_triple
        for t in chunk:
            add_triple(t)
        self.chunk = chunk


class SharedInstances:
    """Per chunk, `signatures` holds the instances the chunk closed, in
    order: each the sorted, distinct `predicate object` statements of one
    subject run, one a line. A run is the triples whose subjects are one
    `Term` or equal ones: the reader's memo may hand out equal but distinct
    Terms, so identity is only the fast path. A closed subject is kept as
    its 128-bit BLAKE2b digest; one that reappears raises
    `SortOrderViolation` with its triple ordinal. `chunk` is the chunk
    derived last."""

    def __init__(self):
        self.chunk: list | None = None
        self.signatures: list[str] = []
        self._subject: Term | None = None
        self._statements: set[str] = set()
        self._closed: set[int] = set()
        self._triples = 0

    def derive(self, chunk: list) -> None:
        subject, statements, closed = self._subject, self._statements, self._closed
        number = self._triples
        signatures = self.signatures = []
        for s, p, o in chunk:
            number += 1
            if s is not subject and s != subject:
                if subject is not None:
                    signatures.append("\n".join(sorted(statements)))
                    statements = set()
                digest = hash128(s.token.encode("utf-8"))
                if digest in closed:
                    raise SortOrderViolation(s.token, number)
                closed.add(digest)
                subject = s
            statements.add(f"{p.token} {o.token}")
        self._subject, self._statements, self._triples = subject, statements, number
        self.chunk = chunk

    def final_signatures(self) -> list[str]:
        """The open run's signature, which only the end of the stream
        closes; none before any triple."""
        if self._subject is None:
            return []
        return ["\n".join(sorted(self._statements))]


# --------------------------------------------------------------------------
# Existence of links to external data providers


class ExtLinksMetric:
    """External share of the distinct object PLDs, per object URI. Each
    object IRI's PLD goes into `plds`: the exact variant's set, or the
    estimate's bottom-k sample, whose share is scaled to the distinct count
    it estimates. That count is exact until a PLD is turned away, so with
    capacity >= distinct PLDs the estimate equals the exact value. The
    dataset's own (base) PLD is found in the same loop; both PLDs come
    from `shared`, the pass's `SharedPlds`.

    Base PLD detection: a triple typing its subject as void:Dataset or
    owl:Ontology donates the subject's PLD (the first such triple wins);
    failing that, the most frequent subject PLD wins, ties broken
    lexicographically."""

    name = "external-links"

    def __init__(self, estimated: bool, reservoir_capacity: int = 20000, seed: int = 0,
                 shared: SharedPlds | None = None):
        check_capacity(reservoir_capacity)
        self.estimated = estimated
        self.seed = seed
        self.shared = shared if shared is not None else SharedPlds()
        self._plds = (ReservoirSampler(reservoir_capacity, derive_seed(seed, "ext-links"))
                      if estimated else set())
        self.total_object_uris = 0
        self.objects_without_pld = 0
        self.declared: str | None = None
        self.frequency: dict[str, int] = {}

    def consume(self, chunk: list[Triple]) -> None:
        shared, add = self.shared, self._plds.add
        _check_derived(shared, chunk)
        frequency, declared = self.frequency, self.declared
        object_uris = without_pld = 0
        for (_, p, o), subject_pld, object_pld in zip(chunk, shared.subjects, shared.objects):
            if subject_pld is not None:
                frequency[subject_pld] = frequency.get(subject_pld, 0) + 1
                if (
                    declared is None
                    and p.lexical == RDF_TYPE
                    and o.kind is IRI
                    and o.lexical in (VOID_DATASET, OWL_ONTOLOGY)
                ):
                    declared = subject_pld
            if object_pld is not None:
                object_uris += 1
                add(object_pld)
            elif o.kind is IRI:
                without_pld += 1
        self.declared = declared
        self.total_object_uris += object_uris
        self.objects_without_pld += without_pld

    def base_pld(self) -> str | None:
        """The declared base PLD, else the most frequent subject PLD."""
        if self.declared is not None:
            return self.declared
        if not self.frequency:
            return None
        # max count first, then lexicographically smallest PLD
        return min(self.frequency, key=lambda p: (-self.frequency[p], p))

    def finalize(self) -> MetricResult:
        if self.estimated:
            plds = self._plds.contents()
            distinct = self._plds.distinct()
            parameters = {"reservoir_capacity": self._plds.capacity}
            counters = {"plds_sampled": len(plds), "plds_offered": round(distinct)}
        else:
            plds = self._plds
            distinct = len(plds)
            parameters, counters = {}, {"distinct_plds": distinct}
        base = self.base_pld()
        total = self.total_object_uris
        external = sum(1 for p in plds if p != base)
        return MetricResult(
            metric=self.name,
            value=min(1.0, external * distinct / len(plds) / total) if total else 0.0,
            estimated=self.estimated,
            parameters={**parameters, "base_pld": base},
            counters={
                **counters,
                "total_object_uris": total,
                "objects_without_pld": self.objects_without_pld,
                "zero_denominator": int(total == 0),
            },
            seed=self.seed if self.estimated else None,
        )


# --------------------------------------------------------------------------
# Extensional conciseness


class ConcisenessMetric:
    """Unique share of the instances that `shared`, the pass's
    `SharedInstances`, closes. The estimate detects a duplicate through
    the stable Bloom filter. The exact variant is the reference: the
    straightforward check that compares each signature against every
    distinct one seen so far, quadratic in instances, which is exactly why
    the estimate exists. The open run at the end of the stream is counted
    at the first `finalize`."""

    name = "extensional-conciseness"

    def __init__(self, estimated: bool, total_bits: int = 100000,
                 fpr_threshold: float = 0.001, seed: int = 0,
                 shared: SharedInstances | None = None):
        filter_shape(total_bits, fpr_threshold)
        self.estimated = estimated
        self.seed = seed
        self.shared = shared if shared is not None else SharedInstances()
        if estimated:
            self._filter = StableBloomFilter(
                total_bits, fpr_threshold, SeededRng(derive_seed(seed, "conciseness"))
            )
        else:
            self._signatures: list[str] = []
        self.total_instances = 0
        self.duplicate_instances = 0
        self._open_run_counted = False

    def consume(self, chunk: list[Triple]) -> None:
        _check_derived(self.shared, chunk)
        self._count(self.shared.signatures)

    def _count(self, signatures: list[str]) -> None:
        is_duplicate = self._in_filter if self.estimated else self._in_list
        self.duplicate_instances += sum(map(is_duplicate, signatures))
        self.total_instances += len(signatures)

    def _in_filter(self, signature: str) -> bool:
        return self._filter.check_and_add(signature.encode("utf-8"))

    def _in_list(self, signature: str) -> bool:
        for seen in self._signatures:
            if seen == signature:
                return True
        self._signatures.append(signature)
        return False

    def finalize(self) -> MetricResult:
        if not self._open_run_counted:  # before the filter's resets are read
            self._open_run_counted = True
            self._count(self.shared.final_signatures())
        if self.estimated:
            f = self._filter
            parameters = {"total_bits": f.total_bits, "num_filters": f.num_filters,
                          "fpr_threshold": f.fpr_threshold}
            counters = {"filter_resets": f.resets}
        else:
            parameters, counters = {}, {}
        total, duplicates = self.total_instances, self.duplicate_instances
        return MetricResult(
            metric=self.name,
            value=(total - duplicates) / total if total else 1.0,
            estimated=self.estimated,
            parameters=parameters,
            counters={
                **counters,
                "total_instances": total,
                "duplicate_instances": duplicates,
                "zero_denominator": int(total == 0),
            },
            seed=self.seed if self.estimated else None,
        )


# --------------------------------------------------------------------------
# Dereferenceability


class DerefMetric:
    """Dereferenceable share of the distinct subject/object IRIs that have
    a PLD, which `shared`, the pass's `SharedPlds`, tells. Each goes into
    `uris`: the exact variant's set, all of it classified, which is only
    practical against the mock or tiny datasets; or the estimate's
    bottom-k sample, whose share is an unbiased estimate of the exact
    ratio, at most `sample_capacity` classifications.

    Subjects and objects take one rule. A subject is offered once per run
    of triples sharing its `Term`: offering it again would change neither
    the set nor the sample, since an item once held, evicted or turned
    away by a bottom-k sample never enters it again. The counters still
    count every triple."""

    name = "dereferenceability"

    def __init__(self, estimated: bool, resolver: Resolver, sample_capacity: int = 1000,
                 seed: int = 0, shared: SharedPlds | None = None):
        check_capacity(sample_capacity)
        self.estimated = estimated
        self.seed = seed
        self.resolver = CachedResolver(resolver)
        self.shared = shared if shared is not None else SharedPlds()
        self._uris = (ReservoirSampler(sample_capacity, derive_seed(seed, "dereferenceability"))
                      if estimated else set())
        self.uris_routed = 0
        self.uris_without_pld = 0

    def consume(self, chunk: list[Triple]) -> None:
        shared, add = self.shared, self._uris.add
        _check_derived(shared, chunk)
        routed = without_pld = 0
        subject = shared.previous_subject
        for (s, _, o), subject_pld, object_pld in zip(chunk, shared.subjects, shared.objects):
            if s.kind is IRI:
                if subject_pld is None:
                    without_pld += 1
                else:
                    routed += 1
                    if s is not subject:
                        add(s.lexical)
            subject = s
            if object_pld is not None:
                routed += 1
                add(o.lexical)
            elif o.kind is IRI:
                without_pld += 1
        self.uris_routed += routed
        self.uris_without_pld += without_pld

    def finalize(self) -> MetricResult:
        """Classifies the held URIs: the sample in admission order, the set
        sorted."""
        if self.estimated:
            uris = self._uris.contents()
            parameters = {"sample_capacity": self._uris.capacity}
            counters = {"uris_routed": self.uris_routed, "uris_sampled": len(uris)}
        else:
            uris = sorted(self._uris)
            parameters, counters = {}, {"distinct_uris": len(uris)}
        deref_ok = transport_errors = 0
        for uri in uris:
            verdict = classify(uri, self.resolver)
            if verdict.ok:
                deref_ok += 1
            elif verdict.reason and verdict.reason.startswith("transport-error"):
                transport_errors += 1
        return MetricResult(
            metric=self.name,
            value=deref_ok / len(uris) if uris else 0.0,
            estimated=self.estimated,
            parameters=parameters,
            counters={
                **counters,
                "deref_ok": deref_ok,
                "transport_errors": transport_errors,
                "uris_without_pld": self.uris_without_pld,
                "zero_denominator": int(not uris),
            },
            seed=self.seed if self.estimated else None,
        )

# --------------------------------------------------------------------------
# Clustering coefficient of the resource network

# Caps on the walk length r = max(min_steps, mixing_multiplier * ln(n)^2):
# r stays at or under 10^6 steps for any graph below 10^13 vertices.
MAX_MIXING_MULTIPLIER = 1000.0
MAX_MIN_STEPS = 1_000_000


class ClusteringMetric:
    """Reads the resource graph that `shared`, the pass's `SharedGraph`,
    builds while streaming; the quality value is 1 - cc, so sparse
    neighbourhoods (meaningful links) score high."""

    name = "clustering-coefficient"

    def __init__(
        self,
        estimated: bool,
        mixing_multiplier: float = 1.0,
        min_steps: int = 3,
        seed: int = 0,
        shared: SharedGraph | None = None,
    ):
        if not 0 < mixing_multiplier <= MAX_MIXING_MULTIPLIER:
            raise ValueError(f"mixing_multiplier must be in (0, {MAX_MIXING_MULTIPLIER:g}]")
        if not 3 <= min_steps <= MAX_MIN_STEPS:
            raise ValueError(f"min_steps must be in [3, {MAX_MIN_STEPS}]")
        self.estimated = estimated
        self.mixing_multiplier = mixing_multiplier
        self.min_steps = min_steps
        self.seed = seed
        self.shared = shared if shared is not None else SharedGraph()

    def consume(self, chunk: list[Triple]) -> None:
        _check_derived(self.shared, chunk)  # deriving it added its triples to the graph

    def finalize(self) -> MetricResult:
        g = self.shared.graph
        edges = g.edge_count
        counters = {"vertices": g.vertex_count, "edges": edges}
        parameters: dict = {}
        if edges == 0:
            cc = 0.0
            counters["edgeless_graph"] = 1
        elif self.estimated:
            r = mixing_time(g.vertex_count, self.mixing_multiplier, self.min_steps)
            walk = random_walk(g, r, derive_seed(self.seed, "walk"))
            cc = estimate_cc(walk)
            counters["walk_steps"] = r
            parameters = {
                "mixing_multiplier": self.mixing_multiplier,
                "min_steps": self.min_steps,
            }
        else:
            cc = exact_global_cc(g)
        counters["raw_cc_millionths"] = round(cc * 1_000_000)
        return MetricResult(
            metric=self.name,
            value=1.0 - cc,
            estimated=self.estimated,
            parameters=parameters,
            counters=counters,
            seed=self.seed if self.estimated else None,
        )
