"""Synthetic dataset builders and a counting resolver shared by the module and acceptance tests."""

from __future__ import annotations

from collections import Counter
from typing import Callable

from lodprobe import SeededRng, Triple, iri, literal, serialize_triple
from lodprobe.graph import ResourceGraph
from lodprobe.metrics import derived_chunks


def feed(processor, triples) -> None:
    """Feed every triple to a metric processor, in derived chunks."""
    for chunk in derived_chunks(triples, [processor]):
        processor.consume(chunk)


def run(processor, triples):
    """Feed every triple to a metric processor, then finalize it."""
    feed(processor, triples)
    return processor.finalize()


class CountingResolver:
    """Passes each resolve to `inner` and counts, per URI, the calls it got."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: Counter[str] = Counter()

    def resolve(self, uri: str):
        self.calls[uri] += 1
        return self.inner.resolve(uri)


def conciseness_stream(
    n_instances: int,
    duplicate_count: int,
    seed: int,
    triples_per_instance: int = 10,
) -> tuple[list[Triple], float]:
    """Subject-sorted instance stream with exactly `duplicate_count` instances
    whose property/value set copies an earlier distinct instance.

    Returns (triples, exact conciseness) where the exact value is
    (n_instances - duplicate_count) / n_instances by construction.
    """
    rng = SeededRng(seed)
    n_distinct = n_instances - duplicate_count
    # Choose which instance slots are duplicates; slot 0 must be distinct.
    slots = list(range(1, n_instances))
    dup_slots = set()
    while len(dup_slots) < duplicate_count:
        dup_slots.add(slots[rng.uniform_below(len(slots))])

    contents: list[list[tuple[str, str]]] = []
    distinct_so_far: list[list[tuple[str, str]]] = []
    fresh = 0
    for i in range(n_instances):
        if i in dup_slots and distinct_so_far:
            contents.append(distinct_so_far[rng.uniform_below(len(distinct_so_far))])
        else:
            body = [
                (f"http://ex.org/vocab/p{j}", f"value {fresh}-{j}")
                for j in range(triples_per_instance)
            ]
            contents.append(body)
            distinct_so_far.append(body)
            fresh += 1
    assert fresh == n_distinct

    triples = []
    for i, body in enumerate(contents):  # subjects ascend, so already sorted
        subject = iri(f"http://ex.org/instance/{i:07d}")
        for pred, value in body:
            triples.append(Triple(subject, iri(pred), literal(value)))
    return triples, n_distinct / n_instances


def er_graph(n: int, p: float, seed: int) -> ResourceGraph:
    """Erdos-Renyi G(n, p) over vertex names v0000..; seed-deterministic."""
    rng = SeededRng(seed)
    g = ResourceGraph()
    names = [f"v{i:04d}" for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_float() < p:
                g.add_edge(names[i], names[j])
    return g


def path_graph(n: int) -> ResourceGraph:
    g = ResourceGraph()
    for i in range(n - 1):
        g.add_edge(f"v{i}", f"v{i+1}")
    return g


def complete_graph(n: int) -> ResourceGraph:
    g = ResourceGraph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(f"v{i}", f"v{j}")
    return g


def random_triple(rng: SeededRng, n_subjects: int = 50, n_objects: int = 80) -> Triple:
    """Random resource-to-resource triple (no literals)."""
    s = iri(f"http://ex.org/r{rng.uniform_below(n_subjects)}")
    p = iri(f"http://ex.org/vocab/p{rng.uniform_below(5)}")
    o = iri(f"http://ex.org/r{rng.uniform_below(n_objects)}")
    return Triple(s, p, o)


def write_ntriples(path, triples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(serialize_triple(t))
            fh.write("\n")


def deref_fixture(
    n_plds: int,
    uris_per_pld: int | Callable[[int], int],
    verdict_of,
    dead_root_plds: set[int] = frozenset(),
) -> tuple[list[Triple], dict, float]:
    """Mock-backed dereferenceability fixture with a hand-computed ratio.

    `uris_per_pld` is one count for every PLD or a function of the PLD
    index. `verdict_of(pld_index, uri_index)` returns one of "hash-ok", "303-ok",
    "direct-200", "404", "500". Returns (triples, mock mappings, expected
    exact value) where the expectation enumerates every URI's verdict.
    """
    triples = []
    mappings = {}
    ok = 0
    total = 0
    subject = iri("http://base.org/dataset/item")
    mappings["http://base.org/"] = [{"status": 200, "content_type": "text/html"}]
    mappings["http://base.org/dataset/item"] = [{"status": 404}]
    for p in range(n_plds):
        pld_name = f"pld{p:03d}.org"
        root_ok = p not in dead_root_plds
        mappings[f"http://{pld_name}/"] = [
            {"status": 200, "content_type": "text/html"} if root_ok else {"status": 503}
        ]
        for u in range(uris_per_pld(p) if callable(uris_per_pld) else uris_per_pld):
            verdict = verdict_of(p, u)
            total += 1
            if verdict == "hash-ok":
                uri = f"http://{pld_name}/doc{u}#it"
                mappings[f"http://{pld_name}/doc{u}"] = [
                    {"status": 200, "content_type": "text/turtle"}
                ]
                ok += 1
            elif verdict == "303-ok":
                uri = f"http://{pld_name}/res{u}"
                mappings[uri] = [
                    {"status": 303, "location": f"http://{pld_name}/data{u}"},
                    {"status": 200, "content_type": "application/rdf+xml"},
                ]
                ok += 1
            elif verdict == "direct-200":
                uri = f"http://{pld_name}/res{u}"
                mappings[uri] = [{"status": 200, "content_type": "text/turtle"}]
            elif verdict == "404":
                uri = f"http://{pld_name}/res{u}"
                mappings[uri] = [{"status": 404}]
            else:
                uri = f"http://{pld_name}/res{u}"
                mappings[uri] = [{"status": 500}]
            triples.append(Triple(subject, iri("http://base.org/vocab/links"), iri(uri)))
    # The subject URI is routed too and its document 404s.
    total += 1
    return triples, mappings, ok / total
