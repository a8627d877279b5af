"""Undirected resource graph with exact and walk-based clustering measures.

Vertices are the serialized subject/object terms of non-literal triples;
the predicate contributes the edge. Parallel edges collapse into neighbor
sets and self-description loops are dropped, so every vertex exists only
because some edge created it. The exact coefficient averages the local
triangle density over all vertices; the estimator reproduces that average
from a single random walk, trading accuracy for walk length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .ntriples import serialize_term
from .rng import SeededRng
from .terms import TermKind, Triple


class ResourceGraph:
    """Symmetric adjacency over resource identifiers."""

    def __init__(self):
        self._adj: dict[str, set[str]] = {}
        self._edge_count = 0

    def add_triple(self, t: Triple) -> None:
        """Add the edge a triple describes; literal objects add nothing."""
        if t.object.kind is TermKind.LITERAL:
            return
        self.add_edge(serialize_term(t.subject), serialize_term(t.object))

    def add_edge(self, u: str, v: str) -> None:
        if u == v:
            return
        adj = self._adj
        nu = adj.setdefault(u, set())
        if v in nu:
            return
        nu.add(v)
        adj.setdefault(v, set()).add(u)
        self._edge_count += 1

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self):
        return self._adj.keys()

    def neighbors(self, v: str) -> set[str]:
        return self._adj[v]

    def frozen_neighbors(self, v: str) -> tuple[str, ...]:
        """v's neighbors as an indexable tuple for walkers.

        Sorted so a seeded walk picks the same neighbors in every process:
        raw set order varies with string-hash randomisation.
        """
        return tuple(sorted(self._adj[v]))


def exact_local_cc(g: ResourceGraph, v: str) -> float:
    """Fraction of realised links among v's neighbors; 0 when degree <= 1."""
    nv = g.neighbors(v)
    d = len(nv)
    if d <= 1:
        return 0.0
    links = sum(len(nv & g.neighbors(u)) for u in nv) // 2
    return links / (d * (d - 1) / 2)


def exact_global_cc(g: ResourceGraph) -> float:
    """Arithmetic mean of the local coefficients over all vertices."""
    if g.vertex_count == 0:
        raise ValueError("clustering coefficient of an empty graph")
    return sum(exact_local_cc(g, v) for v in g.vertices()) / g.vertex_count


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
    neighbor sets are sorted, each once, however often the walk returns.
    """
    if g.edge_count == 0:
        raise ValueError("random walk requires a graph with at least one edge")
    if r < 3:
        raise ValueError("walk length must be >= 3")
    rng = SeededRng(seed)
    below = rng.uniform_below
    adj = g._adj
    visited: dict[str, tuple[str, ...]] = {}
    # Insertion order is first-seen order, the same in every process.
    current = next(islice(adj, below(len(adj)), None))
    psi_sum = 1.0 / len(adj[current])
    phi_sum = 0.0
    # The interior term at position k needs the successor, so each new step
    # settles the contribution of the vertex it just left behind.
    prev = None
    for _ in range(r - 1):
        ns = visited.get(current)
        if ns is None:
            ns = visited[current] = g.frozen_neighbors(current)
        nxt = ns[below(len(ns))]
        d = len(ns)
        if prev is not None and d > 1 and nxt in adj[prev]:
            phi_sum += 1.0 / (d - 1)
        psi_sum += 1.0 / len(adj[nxt])
        prev = current
        current = nxt
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
