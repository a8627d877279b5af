import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from lodprobe import (
    ResourceGraph,
    SeededRng,
    TermKind,
    Triple,
    blank,
    estimate_cc,
    exact_global_cc,
    iri,
    literal,
    mixing_time,
    random_walk,
    serialize_term,
)
from lodprobe.graph import _local_cc

from synth import complete_graph, er_graph, path_graph, random_triple


def _neighbors(g: ResourceGraph, v: str) -> set[str]:
    """Vertex v's distinct neighbor names, read off its chain."""
    names = g._names
    return {names[j] for j in g._chain(g._ids[v])}


def _adjacency(g: ResourceGraph) -> dict[str, set[str]]:
    """Every vertex name, in first-seen order, to its neighbor names."""
    return {v: _neighbors(g, v) for v in g._names}


def exact_local_cc(g: ResourceGraph, v: str) -> float:
    """The local coefficient that exact_global_cc averages, by its own
    rule: the fraction of realised links among v's neighbors, 0 when
    degree <= 1. The oracle for one vertex."""
    return _local_cc(_neighbors(g, v), lambda u: _neighbors(g, u))


def _brute_force_local_cc(g: ResourceGraph, v: str) -> float:
    """Independent oracle: enumerate every neighbor pair."""
    ns = sorted(_neighbors(g, v))
    d = len(ns)
    if d <= 1:
        return 0.0
    links = sum(1 for u, w in combinations(ns, 2) if w in _neighbors(g, u))
    return links / (d * (d - 1) / 2)


def _replay_walk(adj: dict[str, set[str]], r: int, seed: int) -> tuple[float, float]:
    """Independent replay of random_walk's draw sequence over an adjacency
    in first-seen order: (phi_sum, psi_sum), summed in the walk's own
    order, from a path that must follow edges."""
    rng = SeededRng(seed)
    order = list(adj)
    path = [order[rng.uniform_below(len(order))]]
    for _ in range(r - 1):
        ns = sorted(adj[path[-1]])
        nxt = ns[rng.uniform_below(len(ns))]
        assert nxt in adj[path[-1]]
        path.append(nxt)
    phi = 0.0
    for k in range(1, r - 1):
        if path[k + 1] in adj[path[k - 1]]:
            phi += 1.0 / (len(adj[path[k]]) - 1)
    psi = 0.0
    for v in path:
        psi += 1.0 / len(adj[v])
    return phi, psi


class _SetGraph:
    """Oracle: a dict of neighbor-name sets in first-seen order."""

    def __init__(self, triples):
        self.adj: dict[str, set[str]] = {}
        for t in triples:
            if t.object.kind is TermKind.LITERAL:
                continue
            u, v = serialize_term(t.subject), serialize_term(t.object)
            if u != v:
                self.adj.setdefault(u, set()).add(v)
                self.adj.setdefault(v, set()).add(u)


def _multigraph_triples(seed: int, n: int = 3000) -> list[Triple]:
    """Random triples over IRIs and blank nodes, with one hub, repeated and
    reversed edges, self-loops and literal objects."""
    rng = SeededRng(seed)
    pool = [iri(f"http://m.org/r{i}") for i in range(150)] + [blank(f"b{i}") for i in range(50)]
    hub = iri("http://m.org/hub")
    pred = iri("http://m.org/p")
    triples: list[Triple] = []
    for _ in range(n):
        roll = rng.uniform_below(100)
        if roll < 15 and triples:  # repeat an earlier statement, either way round
            t = triples[rng.uniform_below(len(triples))]
            if t.object.kind is not TermKind.LITERAL and rng.uniform_below(2):
                t = Triple(t.object, pred, t.subject)
            triples.append(t)
            continue
        s = pool[rng.uniform_below(len(pool))]
        if roll < 40:
            o = hub
        elif roll < 45:
            o = s
        elif roll < 55:
            o = literal(f"v{rng.uniform_below(10)}")
        else:
            o = pool[rng.uniform_below(len(pool))]
        if o.kind is not TermKind.LITERAL and rng.uniform_below(2):
            s, o = o, s
        triples.append(Triple(s, pred, o))
    return triples


def _ring_plus_random_edges(n: int, seed: int) -> list[tuple[str, str]]:
    """A ring over n pre-built vertex names plus two random edges per
    vertex: 3n edge adds, a few of them self-loops or repeats."""
    rng = SeededRng(seed)
    names = [f"<http://m.org/v{i}>" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += [(names[i], names[rng.uniform_below(n)]) for i in range(n) for _ in "ab"]
    return edges


def _build_graph(edges) -> ResourceGraph:
    g = ResourceGraph()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _traced_size(build) -> tuple[int, object]:
    """Bytes `build()` leaves allocated under tracemalloc, and its result."""
    tracemalloc.start()
    try:
        built = build()
        return tracemalloc.get_traced_memory()[0], built
    finally:
        tracemalloc.stop()


class TestGraphBuild:
    def test_literal_objects_ignored(self):
        g = ResourceGraph()
        g.add_triple(Triple(iri("http://a/s"), iri("http://a/p"), literal("x")))
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_undirected_collapse(self):
        g = ResourceGraph()
        g.add_triple(Triple(iri("http://a/a"), iri("http://a/p"), iri("http://a/b")))
        g.add_triple(Triple(iri("http://a/b"), iri("http://a/q"), iri("http://a/a")))
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert _adjacency(g) == {"<http://a/a>": {"<http://a/b>"}, "<http://a/b>": {"<http://a/a>"}}

    def test_self_loops_dropped(self):
        g = ResourceGraph()
        g.add_triple(Triple(iri("http://a/a"), iri("http://a/p"), iri("http://a/a")))
        assert g.vertex_count == 0

    def test_blank_nodes_are_vertices(self):
        g = ResourceGraph()
        g.add_triple(Triple(blank("b0"), iri("http://a/p"), iri("http://a/o")))
        assert set(g._names) == {"_:b0", "<http://a/o>"}

    def test_cached_edge_count_equals_fresh_count_after_adds(self):
        # Every cc processor of a run reads one graph's count: the second
        # read is cached, and any add after it, parallel ones included,
        # makes the next read count again.
        rng = SeededRng(9)
        triples = [random_triple(rng) for _ in range(3_000)]
        g = ResourceGraph()

        def fresh_count(upto: int) -> int:
            fresh = ResourceGraph()
            for t in triples[:upto]:
                fresh.add_triple(t)
            return fresh.edge_count

        added = 0
        for upto in (1_000, 1_000, 2_000, 3_000):
            for t in triples[added:upto]:
                g.add_triple(t)
            added = upto
            assert g.edge_count == g.edge_count == fresh_count(upto)
        # only reversed copies: the same count, taken anew
        for t in triples[:500]:
            g.add_triple(Triple(t.object, t.predicate, t.subject))
        assert g.edge_count == fresh_count(3_000)
        g.add_triple(Triple(iri("http://new.org/a"), iri("http://a/p"), iri("http://new.org/b")))
        assert g.edge_count == fresh_count(3_000) + 1

    def test_against_reference_edge_set_builder(self):
        rng = SeededRng(8)
        triples = [random_triple(rng) for _ in range(10_000)]
        g = ResourceGraph()
        edges: set[frozenset] = set()
        vertices: set[str] = set()
        for t in triples:
            g.add_triple(t)
            if t.object.kind is not TermKind.LITERAL:
                u, v = f"<{t.subject.lexical}>", f"<{t.object.lexical}>"
                if u != v:
                    edges.add(frozenset((u, v)))
                    vertices.update((u, v))
        assert g.vertex_count == len(vertices)
        assert g.edge_count == len(edges)

    def test_adjacency_symmetry(self):
        rng = SeededRng(9)
        g = ResourceGraph()
        for _ in range(2000):
            g.add_triple(random_triple(rng))
        adj = _adjacency(g)
        for v, ns in adj.items():
            for u in ns:
                assert v in adj[u]
            assert len(ns) >= 1

    @pytest.mark.parametrize("seed", range(20))
    def test_multigraph_matches_set_oracle(self, seed):
        triples = _multigraph_triples(seed)
        g = ResourceGraph()
        for t in triples:
            g.add_triple(t)
        oracle = _SetGraph(triples)
        adj = _adjacency(g)
        assert list(adj) == list(oracle.adj)
        assert adj == oracle.adj
        assert g.edge_count == sum(map(len, oracle.adj.values())) // 2
        assert len(oracle.adj["<http://m.org/hub>"]) > 150
        r = 400
        walk = random_walk(g, r, seed)
        assert (walk.phi_sum, walk.psi_sum) == _replay_walk(oracle.adj, r, seed)

    def test_memory_envelope_against_set_graph(self):
        # Interned int arrays against a dict of name sets over the same
        # edges and the same vertex strings, which neither side counts.
        n = 20_000
        edges = _ring_plus_random_edges(n, seed=62)

        def build_sets():
            adj: dict[str, set[str]] = {}
            for u, v in edges:
                if u != v:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
            return adj

        graph_bytes, g = _traced_size(lambda: _build_graph(edges))
        set_bytes, adj = _traced_size(build_sets)
        assert g.vertex_count == len(adj) == n
        assert 2 * g.edge_count / n >= 4
        assert graph_bytes <= set_bytes / 2, (graph_bytes, set_bytes)

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_bytes_per_edge_add(self, n):
        # Three flat slot arrays, the intern dict and the name list, with
        # the vertex strings pre-built and not counted: one array('i') per
        # vertex cost about 60 B per edge add at both sizes.
        edges = _ring_plus_random_edges(n, seed=64)
        graph_bytes, g = _traced_size(lambda: _build_graph(edges))
        assert g.vertex_count == n
        assert graph_bytes / len(edges) <= 48, graph_bytes / len(edges)

    def test_reads_interleaved_with_adds_match_set_oracle(self):
        # Every read walks the chains as they are at that moment: adds after
        # a read, parallel, reversed or to a hub, show in the next read.
        pred = iri("http://m.org/p")
        g = ResourceGraph()
        triples: list[Triple] = []

        def add(u: str, v: str) -> None:
            t = Triple(iri(f"http://m.org/{u}"), pred, iri(f"http://m.org/{v}"))
            triples.append(t)
            g.add_triple(t)

        def check() -> None:
            oracle = _SetGraph(triples)
            assert list(_adjacency(g)) == list(oracle.adj)
            names = g._names
            for i, v in enumerate(names):
                assert _neighbors(g, v) == oracle.adj[v]
                frozen = g.frozen_neighbors(i)
                assert frozen == tuple(sorted(map(names.index, oracle.adj[v]),
                                              key=names.__getitem__))
            edges = sum(map(len, oracle.adj.values())) // 2
            assert g.edge_count == g.edge_count == edges

        for i in range(30):
            add(f"r{i}", f"r{(i + 1) % 30}")
        check()
        for i in range(0, 30, 3):
            add(f"r{i}", f"r{(i + 1) % 30}")  # parallel
            add(f"r{(i + 2) % 30}", f"r{(i + 1) % 30}")  # reversed
        check()
        for i in range(30):
            add("hub", f"r{i}")
            add(f"r{i}", "hub")
        add("hub", "hub")
        check()
        for i in range(5):
            add(f"new{i}", "hub")
            add(f"new{i}", f"r{i}")
        check()


class TestExactCc:
    def test_triangle_local(self):
        g = complete_graph(3)
        for v in g._names:
            assert exact_local_cc(g, v) == 1.0

    def test_star_center_zero(self):
        g = ResourceGraph()
        for leaf in "abcd":
            g.add_edge("center", leaf)
        assert exact_local_cc(g, "center") == 0.0

    def test_k4_minus_edge(self):
        g = ResourceGraph()
        for u, v in (("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v1", "v3")):
            g.add_edge(u, v)  # K4 minus the v2-v3 edge
        assert exact_local_cc(g, "v0") == pytest.approx(2 / 3)
        assert exact_local_cc(g, "v1") == pytest.approx(2 / 3)
        assert exact_local_cc(g, "v2") == 1.0
        assert exact_local_cc(g, "v3") == 1.0
        assert exact_global_cc(g) == pytest.approx(5 / 6)

    def test_k3_global(self):
        assert exact_global_cc(complete_graph(3)) == 1.0

    def test_tree_global_zero(self):
        g = ResourceGraph()
        for child, parent in (("b", "a"), ("c", "a"), ("d", "b"), ("e", "b"), ("f", "c")):
            g.add_edge(child, parent)
        assert exact_global_cc(g) == 0.0

    def test_er_graph_matches_brute_force(self):
        g = er_graph(200, 0.05, seed=17)
        expected = sum(_brute_force_local_cc(g, v) for v in g._names) / g.vertex_count
        assert exact_global_cc(g) == pytest.approx(expected, abs=1e-12)

    def test_local_values_in_unit_interval(self):
        g = er_graph(100, 0.1, seed=18)
        for v in g._names:
            assert 0.0 <= exact_local_cc(g, v) <= 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            exact_global_cc(ResourceGraph())

    def test_unknown_vertex_rejected(self):
        with pytest.raises(KeyError):
            exact_local_cc(complete_graph(3), "nope")


class TestMixingTime:
    def test_single_vertex_floors_to_min_steps(self):
        assert mixing_time(1, 5.0) == 3
        assert mixing_time(1, 5.0, min_steps=10) == 10

    def test_closed_form(self):
        n = round(math.e**2)  # ln(n)^2 ~ 4 (n is an integer, so approximately)
        assert mixing_time(n, 1.0) == max(3, math.ceil(math.log(n) ** 2))
        assert mixing_time(1000, 1.0) == math.ceil(math.log(1000) ** 2)

    def test_multiplier_sweep_monotone(self):
        values = [mixing_time(10_000, m) for m in (0.1, 0.5, 0.7, 1.0)]
        assert values == sorted(values)
        assert values[0] >= 3

    def test_invalid_vertex_count(self):
        with pytest.raises(ValueError):
            mixing_time(0, 1.0)


class TestRandomWalk:
    def test_path_respects_edges(self):
        g = er_graph(60, 0.08, seed=21)
        walk = random_walk(g, 500, seed=4)
        assert walk.steps == 500
        assert (walk.phi_sum, walk.psi_sum) == _replay_walk(_adjacency(g), 500, seed=4)

    def test_deterministic_for_seed(self):
        g = er_graph(40, 0.1, seed=22)
        w1 = random_walk(g, 100, seed=9)
        w2 = random_walk(g, 100, seed=9)
        assert w1 == w2
        w3 = random_walk(g, 100, seed=10)
        assert (w3.phi_sum, w3.psi_sum) != (w1.phi_sum, w1.psi_sum)

    def test_deterministic_across_processes(self):
        # Hash randomisation must not leak into walk results: neighbor
        # order comes from sets, which iterate differently per process.
        import subprocess
        import sys

        # The child imports the checkout under test, not an installed
        # lodprobe: its src and tests directories go first on sys.path.
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src"), str(root / "tests")]
        snippet = (
            f"import sys; sys.path[:0] = {paths!r}; "
            "from synth import er_graph; "
            "from lodprobe import random_walk; "
            "w = random_walk(er_graph(60, 0.08, seed=3), 200, seed=5); "
            "print(w.phi_sum, w.psi_sum)"
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
        (output,) = outputs
        assert len(output.splitlines()) == 1 and output.strip(), output

    def test_path_graph_has_zero_phi(self):
        g = path_graph(5)
        for seed in range(20):
            walk = random_walk(g, 50, seed=seed)
            assert walk.phi_sum == 0.0
            assert walk.psi_sum > 0

    def test_k3_accumulators_match_hand_replay(self):
        g = complete_graph(3)
        r, seed = 12, 31
        walk = random_walk(g, r, seed)
        assert (walk.phi_sum, walk.psi_sum) == _replay_walk(_adjacency(g), r, seed)

    def test_requires_edges_and_min_length(self):
        with pytest.raises(ValueError):
            random_walk(ResourceGraph(), 10, seed=0)
        with pytest.raises(ValueError):
            random_walk(complete_graph(3), 2, seed=0)

    def test_walk_memory_envelope(self):
        # The walk reads the graph in place: it holds only the neighbor
        # tuples and sets of the vertices it visits, never a per-vertex
        # structure (20,000 pointers alone would be 160 KB), and keeps
        # nothing once it returns.
        n, r = 20_000, 121
        rng = SeededRng(61)
        names = [f"v{i}" for i in range(n)]
        g = ResourceGraph()
        for i in range(n):
            g.add_edge(names[i], names[(i + 1) % n])
            g.add_edge(names[i], names[rng.uniform_below(n)])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            walk = random_walk(g, r, seed=5)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walk.steps == r
        assert peak - before <= 64 * 1024
        assert after - before <= 64 * 1024

    def test_degree_one_contributes_zero_phi(self):
        # Star graph: interior steps alternate centre/leaf; leaves have d=1,
        # the centre's neighbors are never adjacent, so phi stays 0.
        g = ResourceGraph()
        for leaf in range(5):
            g.add_edge("hub", f"leaf{leaf}")
        for seed in range(10):
            assert random_walk(g, 40, seed=seed).phi_sum == 0.0


class TestEstimateCc:
    def test_path_graph_estimates_zero(self):
        g = path_graph(6)
        assert estimate_cc(random_walk(g, 100, seed=1)) == 0.0

    def test_k3_monte_carlo_mean_near_one(self):
        g = complete_graph(3)
        total = 0.0
        trials = 800
        for seed in range(trials):
            total += estimate_cc(random_walk(g, 500, seed=seed))
        # Exact expectation of the clamped estimator at r=500 is 0.98213.
        assert total / trials == pytest.approx(0.982, abs=0.01)

    def test_er_graph_tracks_exact_value(self):
        g = er_graph(200, 0.08, seed=25)
        exact = exact_global_cc(g)
        errors = sorted(
            abs(estimate_cc(random_walk(g, 2000, seed=s)) - exact) for s in range(9)
        )
        assert errors[len(errors) // 2] < 0.05  # median over seeds

    def test_degenerate_walks_rejected(self):
        from lodprobe.graph import WalkAccumulators

        with pytest.raises(ValueError):
            estimate_cc(WalkAccumulators(2, 0.0, 1.0))
        with pytest.raises(ValueError):
            estimate_cc(WalkAccumulators(5, 1.0, 0.0))

    def test_clamped_to_unit_interval(self):
        g = complete_graph(3)
        for seed in range(50):
            assert 0.0 <= estimate_cc(random_walk(g, 10, seed=seed)) <= 1.0
