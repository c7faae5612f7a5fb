"""Independent brute-force oracles.

Everything here recomputes from first principles with its own adjacency
handling — no imports from the package's algorithm internals — so a bug
in the library cannot hide itself in the tests.
"""

from __future__ import annotations

from itertools import combinations, product

from oddminors import BcpPartition, Graph, TwoSides, VerificationReport


def _adj(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_chromatic_number(g: Graph) -> int:
    """Least k admitting a proper coloring, by trying all k^n assignments."""
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    for k in range(2, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in g.edges):
                return k
    raise AssertionError("n colors always suffice")


def brute_is_bipartite(g: Graph) -> bool:
    """Try all 2^n two-colorings."""
    for colors in product((0, 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def _connected(edges: list[tuple[int, int]], vertices: frozenset[int]) -> bool:
    if not vertices:
        return False
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        if u in vertices and v in vertices:
            adj[u].append(v)
            adj[v].append(u)
    start = min(vertices)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(vertices)


def _induced_edges(g: Graph, vertices: frozenset[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in sorted(g.edges) if u in vertices and v in vertices]


def is_connected_bipartite(g: Graph, vertices: frozenset[int]) -> bool:
    inner = _induced_edges(g, vertices)
    if not _connected(inner, vertices):
        return False
    index = {v: k for k, v in enumerate(sorted(vertices))}
    return brute_is_bipartite(
        Graph(len(vertices), [(index[u], index[v]) for u, v in inner])
    )


def is_maximal_bipartite_connected(
    g: Graph, part: frozenset[int], available: frozenset[int]
) -> bool:
    """No strict superset of `part` inside `available` is connected bipartite.

    `available` is the vertex pool the part was extracted from (everything
    not claimed by earlier parts).  Enumerates every superset.
    """
    extra = sorted(available - part)
    for r in range(1, len(extra) + 1):
        for add in combinations(extra, r):
            if is_connected_bipartite(g, part | frozenset(add)):
                return False
    return True


def _valid_branch_classes(g: Graph, assignment: tuple[int, ...], t: int) -> list[frozenset[int]] | None:
    classes = [
        frozenset(v for v in range(g.n) if assignment[v] == k) for k in range(1, t + 1)
    ]
    if not all(cls and _connected(_induced_edges(g, cls), cls) for cls in classes):
        return None
    for a, b in combinations(classes, 2):
        if not any(g.has_edge(u, v) for u in a for v in b):
            return None
    return classes


def naive_find_branch_sets(g: Graph, t: int) -> tuple[int, ...] | None:
    """First vertex→{0..t} map (lex order) that is a valid K_t branch-set map.

    Plain itertools.product enumeration, no pruning; the reference the
    pruned searcher must agree with.
    """
    for assignment in product(range(t + 1), repeat=g.n):
        if _valid_branch_classes(g, assignment, t) is not None:
            return assignment
    return None


def _spanning_trees(g: Graph, vertices: frozenset[int]) -> list[list[tuple[int, int]]]:
    """Every spanning tree of g[vertices], as edge lists."""
    inner = _induced_edges(g, vertices)
    need = len(vertices) - 1
    return [
        list(subset)
        for subset in combinations(inner, need)
        if _connected(list(subset), vertices)
    ]


def _tree_coloring(cls: frozenset[int], tree: list[tuple[int, int]]) -> dict[int, int]:
    adj: dict[int, list[int]] = {v: [] for v in cls}
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    root = min(cls)
    color = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
    return color


def has_odd_expansion_naive(g: Graph, t: int) -> bool:
    """Exhaustive odd K_t-expansion test, free of the library's shortcuts.

    Searches every branch-set map, every combination of spanning trees
    (all spanning trees per class, not just breadth-first ones), every
    flip of each tree's 2-coloring, and accepts if some cross edge of
    every class pair comes out monochromatic (the connector is free to
    pick).  Exponential everywhere — intended for n ≤ 5.
    """
    for assignment in product(range(t + 1), repeat=g.n):
        classes = _valid_branch_classes(g, assignment, t)
        if classes is not None and _odd_signable(g, classes):
            return True
    return False


def _odd_signable(g: Graph, classes: list[frozenset[int]]) -> bool:
    home = {v: k for k, cls in enumerate(classes) for v in cls}
    cross: list[tuple[int, int, list[tuple[int, int]]]] = []
    for (ia, a), (ib, b) in combinations(enumerate(classes), 2):
        edges = [
            (u, v)
            for u, v in g.edges
            if (u in a and v in b) or (u in b and v in a)
        ]
        cross.append((ia, ib, edges))
    for choice in product(*(_spanning_trees(g, cls) for cls in classes)):
        color: dict[int, int] = {}
        for cls, tree in zip(classes, choice):
            color.update(_tree_coloring(cls, tree))
        for flips in product((0, 1), repeat=len(classes)):
            if all(
                any(
                    color[u] ^ flips[home[u]] == color[v] ^ flips[home[v]]
                    for u, v in edges
                )
                for _, _, edges in cross
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# Frozen copies of the first partition implementation: an ascending rescan
# after every absorption, and a verifier that scans every edge once per part.
# The two public bodies are verbatim, and so are the helpers they call, less
# a range check their filtered input cannot trip, so the current code can be
# held to their exact output, failure messages and their order included.


def frozen_compute_partition(g: Graph) -> BcpPartition:
    unused = set(range(g.n))
    parts: list[TwoSides] = []
    while unused:
        seed = min(unused)
        side: dict[int, int] = {seed: 0}
        unused.remove(seed)
        grown = True
        while grown:
            grown = False
            for v in sorted(unused):
                sides_seen = {side[w] for w in g.neighbors(v) if w in side}
                if len(sides_seen) != 1:
                    continue
                side[v] = 1 - sides_seen.pop()
                unused.remove(v)
                grown = True
                break
        side_a = frozenset(v for v, s in side.items() if s == 0)
        side_b = frozenset(v for v, s in side.items() if s == 1)
        parts.append(TwoSides(side_a, side_b))
    return BcpPartition(tuple(parts))


def frozen_verify_partition(g: Graph, p: BcpPartition) -> VerificationReport:
    failures: list[str] = []
    seen: dict[int, int] = {}
    for i, part in enumerate(p.parts):
        members = part.members
        if not members:
            failures.append(f"part {i} is empty")
            continue
        for v in sorted(members):
            if not (0 <= v < g.n):
                failures.append(f"part {i}: vertex {v} out of range")
            elif v in seen:
                failures.append(f"vertex {v} appears in parts {seen[v]} and {i}")
            else:
                seen[v] = i
        if part.side_a & part.side_b:
            failures.append(f"part {i}: sides overlap")
        comps = _frozen_connected_components(g, members & frozenset(range(g.n)))
        if len(comps) != 1:
            failures.append(f"part {i}: induces {len(comps)} components, expected 1")
        for u, v in g.edges:
            if u in members and v in members:
                same_a = u in part.side_a and v in part.side_a
                same_b = u in part.side_b and v in part.side_b
                if same_a or same_b:
                    failures.append(
                        f"part {i}: edge ({u}, {v}) joins two vertices on one side"
                    )
        if members and min(members) not in part.side_a:
            failures.append(f"part {i}: lowest vertex not on side A")

    missing = set(range(g.n)) - set(seen)
    if missing:
        failures.append(f"uncovered vertices: {sorted(missing)}")

    if not failures:
        for i, j in _frozen_adjacent_part_pairs(g, p):
            if _frozen_find_witness_triple(g, p, i, j) is None:
                failures.append(
                    f"parts ({i}, {j}) are joined by an edge but admit no witness triple"
                )
    return VerificationReport(tuple(failures))


def frozen_witnesses(g: Graph, p: BcpPartition) -> dict[tuple[int, int], tuple[int, int, int] | None]:
    """Each pair of parts joined by an edge, in ascending order, mapped to
    its least witness triple, as the first ``build_quotient`` found them."""
    return {
        (i, j): _frozen_find_witness_triple(g, p, i, j)
        for i, j in _frozen_adjacent_part_pairs(g, p)
    }


def _frozen_adjacent_part_pairs(g: Graph, p: BcpPartition) -> list[tuple[int, int]]:
    pairs = set()
    part_of = p.part_of
    for u, v in g.edges:
        i, j = part_of.get(u), part_of.get(v)
        if i is None or j is None or i == j:
            continue
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def _frozen_find_witness_triple(
    g: Graph, p: BcpPartition, i: int, j: int
) -> tuple[int, int, int] | None:
    low = p.parts[i]
    for v in sorted(p.members(j)):
        in_a = sorted(w for w in g.neighbors(v) if w in low.side_a)
        in_b = sorted(w for w in g.neighbors(v) if w in low.side_b)
        if in_a and in_b:
            return in_a[0], in_b[0], v
    return None


def _frozen_connected_components(g: Graph, subset) -> list[frozenset[int]]:
    members = set(subset)
    out: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in sorted(members):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.neighbors(x):
                if y in members and y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out
