"""Undirected resource graph with exact and walk-based clustering measures.

Vertices are the serialized subject/object terms of non-literal triples;
the predicate contributes the edge. Self-description loops are dropped, so
every vertex exists only because some edge created it. Each vertex is
interned once to an int id in first-seen order. Edges live in three flat
int arrays: an edge appends one slot per end, and each slot links back to
the previous slot of its vertex, so a vertex's neighbors are one chain
through the arrays. No duplicate is checked for, so a hub never pays
O(degree) per edge: parallel and reversed edges stay in the chains and
collapse into a neighbor set only when one is read. The exact
coefficient averages the local triangle density over all vertices; the
estimator reproduces that average from a single random walk, trading
accuracy for walk length.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

# serialize_term is unused here; it stays bound because perfbench/tracer.py patches it.
from .ntriples import serialize_term
from .rng import SeededRng
from .terms import LITERAL, Triple


class ResourceGraph:
    """Symmetric adjacency over resource identifiers, interned to ids.

    `_ids` maps a vertex name to its id and `_names[id]` is that name.
    Every edge added takes two consecutive slots k (even) and k + 1, one
    per end: `_to[k]` is the vertex at the other end of slot k, and
    `_next[k]` is the previous slot of the same vertex, -1 after its
    first. `_head[id]` is the vertex's latest slot; every vertex has one,
    since an edge created it. Slot numbers are C ints, so one graph holds
    at most 2**31 - 1 edge ends, about 1.07 billion edge adds.
    `_edges` is the last distinct-edge count with the slot count it was
    taken at, so adding an edge stores nothing beyond its slots.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._head = array("i")
        self._to = array("i")
        self._next = array("i")
        self._edges = (0, 0)

    def add_triple(self, t: Triple) -> None:
        """Add the edge a triple describes; literal objects add nothing."""
        if t.object.kind is LITERAL:
            return
        self.add_edge(t.subject.token, t.object.token)

    def add_edge(self, u: str, v: str) -> None:
        if u == v:
            return
        ids = self._ids
        iu = ids.get(u)
        if iu is None:
            iu = self._intern(u)
        iv = ids.get(v)
        if iv is None:
            iv = self._intern(v)
        head, to, nxt = self._head, self._to, self._next
        k = len(to)
        to.append(iv)
        to.append(iu)
        nxt.append(head[iu])
        nxt.append(head[iv])
        head[iu] = k
        head[iv] = k + 1

    def _intern(self, v: str) -> int:
        i = self._ids[v] = len(self._names)
        self._names.append(v)
        self._head.append(-1)
        return i

    def _chain(self, i: int) -> list[int]:
        """Vertex i's neighbor ids, one per edge added, newest first."""
        to, nxt = self._to, self._next
        out = []
        k = self._head[i]
        while k >= 0:
            out.append(to[k])
            k = nxt[k]
        return out

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        """Distinct edges. Walks every chain in turn, once per number of
        edges added: a second read with no edge added since is free."""
        to, nxt = self._to, self._next
        slots, edges = self._edges
        if slots == len(to):
            return edges
        ends = 0
        for k in self._head:
            if nxt[k] < 0:  # a one-slot chain is one neighbor
                ends += 1
                continue
            distinct = set()
            add = distinct.add
            while k >= 0:
                add(to[k])
                k = nxt[k]
            ends += len(distinct)
        self._edges = (len(to), ends // 2)
        return ends // 2

    def frozen_neighbors(self, i: int) -> tuple[int, ...]:
        """Vertex i's distinct neighbor ids, as an indexable tuple for walkers.

        Sorted by the neighbors' serialized names, so a seeded walk picks the
        same neighbors in every process and whatever order edges came in.
        """
        return tuple(sorted(set(self._chain(i)), key=self._names.__getitem__))


def _local_cc(nv: set, neighbor_set) -> float:
    d = len(nv)
    if d <= 1:
        return 0.0
    links = sum(len(nv & neighbor_set(u)) for u in nv) // 2
    return links / (d * (d - 1) / 2)


def exact_global_cc(g: ResourceGraph) -> float:
    """Arithmetic mean of the local coefficients over all vertices."""
    if g.vertex_count == 0:
        raise ValueError("clustering coefficient of an empty graph")
    # Every set holds the one int object per id, not a boxed copy per edge end.
    ids = list(range(g.vertex_count))
    sets = [set(map(ids.__getitem__, g._chain(i))) for i in ids]
    return sum(_local_cc(nv, sets.__getitem__) for nv in sets) / g.vertex_count


def mixing_time(vertex_count: int, m: float, min_steps: int = 3) -> int:
    """Walk length m*ln(n)^2, floored at min_steps.

    Natural log: any base change is a constant factor the caller's m
    absorbs. The floor keeps the estimator's r-2 divisor positive on tiny
    graphs.
    """
    if vertex_count < 1:
        raise ValueError("vertex_count must be >= 1")
    return max(min_steps, math.ceil(m * math.log(vertex_count) ** 2))


@dataclass(frozen=True, slots=True)
class WalkAccumulators:
    """A finished walk: its length plus the two running sums the estimate needs.

    phi_sum collects, for every interior step, whether the walk's
    predecessor and successor are themselves adjacent, weighted by
    1/(degree-1); psi_sum collects 1/degree over every step.
    """

    steps: int
    phi_sum: float
    psi_sum: float


def random_walk(g: ResourceGraph, r: int, seed: int) -> WalkAccumulators:
    """Uniform-start, uniform-neighbor walk of exactly r steps.

    The graph is undirected, so a dead end is never terminal: the walker
    can always step back the way it came. Only the visited vertices'
    neighbor sets are built and sorted, each once, however often the walk
    returns.
    """
    if g.vertex_count == 0:  # every vertex was created by an edge
        raise ValueError("random walk requires a graph with at least one edge")
    if r < 3:
        raise ValueError("walk length must be >= 3")
    rng = SeededRng(seed)
    below = rng.uniform_below
    visited: dict[int, tuple[tuple[int, ...], set[int]]] = {}

    def visit(i: int) -> tuple[tuple[int, ...], set[int]]:
        pair = visited.get(i)
        if pair is None:
            ns = g.frozen_neighbors(i)
            pair = visited[i] = (ns, set(ns))
        return pair

    # Ids are first-seen order, the same in every process.
    current = below(g.vertex_count)
    psi_sum = 0.0
    phi_sum = 0.0
    # The interior term at position k needs the successor, so each new step
    # settles the contribution of the vertex it just left behind.
    prev_set = None
    for _ in range(r - 1):
        ns, ns_set = visit(current)
        d = len(ns)
        psi_sum += 1.0 / d
        nxt = ns[below(d)]
        if prev_set is not None and d > 1 and nxt in prev_set:
            phi_sum += 1.0 / (d - 1)
        prev_set = ns_set
        current = nxt
    psi_sum += 1.0 / len(visit(current)[0])
    return WalkAccumulators(r, phi_sum, psi_sum)


def estimate_cc(w: WalkAccumulators) -> float:
    """Walk-based estimate of the average local coefficient, clamped to [0,1]."""
    if w.steps < 3:
        raise ValueError("estimate requires a walk of at least 3 steps")
    if w.psi_sum <= 0:
        raise ValueError("degenerate walk: psi_sum must be positive")
    phi = w.phi_sum / (w.steps - 2)
    psi = w.psi_sum / w.steps
    return min(1.0, max(0.0, phi / psi))
