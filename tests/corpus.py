"""Shared graph corpus: 500 seeded G(n, p) samples plus named graphs.

The same fixed corpus feeds the unit suites and the acceptance suite so
every claim is exercised on identical inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

import oddminors.minors as minors
from oddminors import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    find_expansion,
    find_odd_expansion,
    gnp,
    petersen,
)
from oracles import count_calls

_PS = (0.1, 0.3, 0.5, 0.8)
# Seeded G(n, p) with n <= 9 for the differential tests of the search.
SEARCH_GRAPHS = [
    (f"gnp({n},{p},seed={7000 + 10 * n + k})", gnp(n, p, 7000 + 10 * n + k))
    for n in range(2, 10)
    for k, p in enumerate((0.3, 0.5, 0.7))
]


def gnp_corpus() -> list[tuple[str, Graph]]:
    out = []
    for i in range(500):
        n = (i % 40) + 1
        p = _PS[(i // 40) % 4]
        seed = 9000 + i
        out.append((f"gnp({n},{p},seed={seed})", gnp(n, p, seed)))
    return out


def named_corpus() -> list[tuple[str, Graph]]:
    out = [(f"K{t}", complete(t)) for t in range(1, 7)]
    out += [(f"C{n}", cycle(n)) for n in range(3, 13)]
    out.append(("petersen", petersen()))
    out += [
        (f"K{a},{b}", complete_bipartite(a, b))
        for a in range(1, 5)
        for b in range(a, 5)
    ]
    return out


def corpus() -> list[tuple[str, Graph]]:
    return gnp_corpus() + named_corpus()


def small_corpus(max_n: int) -> list[tuple[str, Graph]]:
    return [(name, g) for name, g in corpus() if g.n <= max_n]


def search_node_totals() -> tuple[int, int]:
    """Nodes the expansion search visits, plain and odd, summed over
    small_corpus(8) + SEARCH_GRAPHS at t = 3, 4, 5, counted by count_calls."""
    graphs = [g for _, g in small_corpus(8) + SEARCH_GRAPHS]
    return tuple(
        sum(count_calls(lambda: finder(g, t), minors)[1] for g in graphs for t in (3, 4, 5))
        for finder in (find_expansion, find_odd_expansion)
    )


def partial_k_tree(n: int, k: int, seed: int) -> Graph:
    """A seeded partial k-tree on n > k vertices, so of treewidth <= k and
    without a K_{k+2} minor: a k-tree grown from K_{k+1}, each new vertex
    joined to a k-clique already built, each edge kept with probability 0.9,
    and the vertices renamed at random."""
    rng = random.Random(seed)
    edges = list(combinations(range(k + 1), 2))
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [tuple(w for w in base if w != u) + (v,) for u in base]
    name = rng.sample(range(n), n)
    return Graph(n, [(name[u], name[v]) for u, v in edges if rng.random() < 0.9])


def all_graphs_on_5() -> list[Graph]:
    """All 1024 labeled graphs on 5 vertices, by edge-subset bitmask."""
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    return [
        Graph(5, [e for k, e in enumerate(pairs) if mask >> k & 1])
        for mask in range(1 << len(pairs))
    ]
