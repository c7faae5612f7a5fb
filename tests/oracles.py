"""Independent brute-force oracles.

Everything here recomputes from first principles with its own adjacency
handling — no imports from the package's algorithm internals — so a bug
in the library cannot hide itself in the tests.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from itertools import combinations, product

from oddminors import (
    BcpPartition,
    BudgetExceeded,
    ContractViolation,
    ExpansionCertificate,
    ExpansionTree,
    Graph,
    OddExpansionCertificate,
    ParseError,
    StructureError,
    TwoSides,
    VerificationReport,
)

Edge = tuple[int, int]


def _adj(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.sorted_edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_chromatic_number(g: Graph) -> int:
    """Least k admitting a proper coloring, by trying all k^n assignments."""
    if g.n == 0:
        return 0
    edges = g.sorted_edges()
    if not edges:
        return 1
    for k in range(2, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def colorable(g: Graph, k: int) -> bool:
    """Whether g has a proper k-coloring, by backtracking in id order; a
    vertex takes at most one color more than those already in use."""
    adj = _adj(g)
    colors: list[int] = []

    def extend(v: int, used: int) -> bool:
        if v == g.n:
            return True
        for c in range(min(used + 1, k)):
            if all(colors[u] != c for u in adj[v] if u < v):
                colors.append(c)
                if extend(v + 1, max(used, c + 1)):
                    return True
                colors.pop()
        return False

    return extend(0, 0)


def brute_is_bipartite(g: Graph) -> bool:
    """Try all 2^n two-colorings."""
    edges = g.sorted_edges()
    for colors in product((0, 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in edges):
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
    return [(u, v) for u, v in g.sorted_edges() if u in vertices and v in vertices]


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
            for u, v in g.sorted_edges()
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


def has_odd_expansion_by_coloring(g: Graph, t: int) -> bool:
    """Odd K_t-expansion test over global 2-colorings, which scales past n = 5.

    g has an odd K_t-expansion exactly when some {0,1}-coloring c of all its
    vertices admits t disjoint vertex sets, each connected through its
    c-bichromatic edges, with a c-monochromatic edge between every two.
    Given an odd certificate, extend its parity to the other vertices: each
    tree joins its vertex set through bichromatic edges, and each connector
    is monochromatic.  Conversely, a spanning tree of each set's bichromatic
    edges, one monochromatic edge per pair, and c on the sets make an odd
    certificate.  A global flip changes nothing, so vertex 0 takes color 0:
    2^(n-1) colorings.  For each, the sets connected in its bichromatic
    graph are listed (none larger than n - t + 1, since t - 1 others need a
    vertex each), and t of them, pairwise disjoint and pairwise joined by a
    monochromatic edge, are sought in list order.  No branch-set map,
    spanning tree or flip is enumerated, and nothing of the library's
    search is used.
    """
    n = g.n
    if t > n:
        return False
    adj = [0] * n
    for u, v in g.sorted_edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1

    def union(rows: list[int], s: int) -> int:
        out = 0
        for v in range(n):
            if s >> v & 1:
                out |= rows[v]
        return out

    for ones in range(0, 1 << n, 2):  # the vertices colored 1
        bi = [a & (full ^ ones if ones >> v & 1 else ones) for v, a in enumerate(adj)]
        mono = [a ^ b for a, b in zip(adj, bi)]
        sets = []  # (a set connected in the bichromatic graph, its monochromatic neighbours)
        for s in range(1, full + 1):
            if s.bit_count() > n - t + 1:
                continue
            reached = frontier = s & -s
            while frontier:
                frontier = union(bi, frontier) & s & ~reached
                reached |= frontier
            if reached == s:
                sets.append((s, union(mono, s)))

        def extend(start: int, used: int, picked: list[int]) -> bool:
            if len(picked) == t:
                return True
            for j in range(start, len(sets)):
                x, joined = sets[j]
                if not x & used and all(joined & p for p in picked):
                    if extend(j + 1, used | x, picked + [x]):
                        return True
            return False

        if extend(0, 0, []):
            return True
    return False


def two_core(g: Graph) -> frozenset[int]:
    """The 2-core of g: what is left once vertices of degree <= 1 are
    deleted, round after round."""
    adj = _adj(g)
    core = set(range(g.n))
    while low := {v for v in core if len(adj[v] & core) <= 1}:
        core -= low
    return frozenset(core)


def count_calls(run: Callable[[], object], module, name: str = "search") -> tuple[object, int]:
    """run()'s result and how many calls it made to functions called `name`
    defined in `module`, counted by a profiler hook, not by the code itself."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == name and code.co_filename == module.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


# ---------------------------------------------------------------------------
# Frozen copies of the first partition implementation: an ascending rescan
# after every absorption, and a verifier that scans every edge once per part.
# The two public bodies are verbatim, and so are the helpers they call, less
# a range check their filtered input cannot trip, so the current code can be
# held to their exact output, failure messages and their order included.
# They build and read frozenset sides; ``frozenset_sides`` gives them that
# view of a partition whose sides are the package's ascending tuples.


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
    part_of = {v: i for i, part in enumerate(p.parts) for v in part.members}
    for u, v in g.sorted_edges():
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

# ---------------------------------------------------------------------------
# Frozen copy of the first expansion search: lexicographic branch-set maps,
# pruned by a connectivity test of every open class at every node.  The body
# is verbatim, except that a leaf's class masks go to the `certify` argument
# in place of the package's private certificate builder, so a test can record
# every valid map the search reaches, or build the certificate the package
# would.

# The assignment budget the first search took as a parameter, at its default.
FROZEN_MAX_ASSIGNMENTS = 100_000_000


def frozen_search(g: Graph, t: int, max_assignments: int, odd: bool, certify):
    if t < 1:
        raise ContractViolation(f"t must be a positive integer, got {t}")
    n = g.n
    total = (t + 1) ** n
    if total > max_assignments:
        raise BudgetExceeded(
            f"(t+1)^n = {total} assignments exceeds the budget of {max_assignments}"
        )
    if t > n:
        return None

    adj = [0] * n
    for u, v in g.sorted_edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # suffix_mask[i] / suffix_nbr[i]: vertices >= i and their neighborhoods.
    suffix_mask = [0] * (n + 1)
    suffix_nbr = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_mask[i] = suffix_mask[i + 1] | (1 << i)
        suffix_nbr[i] = suffix_nbr[i + 1] | adj[i]

    cmask = [0] * (t + 1)
    cnbr = [0] * (t + 1)

    def connected(mask: int, allowed: int) -> bool:
        # All bits of `mask` in one component of g[mask | allowed]?
        if mask == 0:
            return True
        whole = mask | allowed
        reached = mask & -mask
        frontier = reached
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & whole & ~reached
            reached |= frontier
        return not (mask & ~reached)

    def feasible(i: int, used: int) -> bool:
        # Called with vertices 0..i assigned; suffix starts at i + 1.
        if t - used > n - i - 1:
            return False
        smask, snbr = suffix_mask[i + 1], suffix_nbr[i + 1]
        for k in range(1, used + 1):
            if not connected(cmask[k], smask):
                return False
        for a in range(1, used + 1):
            for b in range(a + 1, used + 1):
                if not ((cnbr[a] | snbr) & (cmask[b] | smask)):
                    return False
        return True

    def at_leaf():
        classes = [cmask[k] for k in range(1, t + 1)]
        for mask in classes:
            if not connected(mask, 0):
                return None
        for a in range(t):
            for b in range(a + 1, t):
                if not (cnbr[a + 1] & classes[b]):
                    return None
        return certify(g, classes, odd)

    def search(i: int, used: int):
        if i == n:
            return at_leaf() if used == t else None
        bit = 1 << i
        for val in range(0, min(t, used + 1) + 1):
            if val == 0:
                if feasible(i, used):
                    out = search(i + 1, used)
                    if out is not None:
                        return out
                continue
            saved_mask, saved_nbr = cmask[val], cnbr[val]
            cmask[val] |= bit
            cnbr[val] |= adj[i]
            new_used = max(used, val)
            if feasible(i, new_used):
                out = search(i + 1, new_used)
                if out is not None:
                    return out
            cmask[val], cnbr[val] = saved_mask, saved_nbr
        return None

    return search(0, 0)


# ---------------------------------------------------------------------------
# The first certificate builder for a branch-set map: each connector fixed to
# the least cross edge of its pair, then the 2^t flip vectors of the trees'
# breadth-first colorings tried in order.  Verbatim, with the helpers it
# calls, less the disconnection check a valid map cannot trip.


def frozen_certify(g: Graph, class_masks: list[int], odd: bool):
    t = len(class_masks)
    classes = [frozenset(_frozen_bits(m)) for m in class_masks]
    trees = tuple(
        ExpansionTree(cls, frozenset(_frozen_bfs_tree_edges(g, cls))) for cls in classes
    )
    connectors: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(t):
        for b in range(a + 1, t):
            connectors[(a, b)] = min(
                (u, w) if u < w else (w, u)
                for u in classes[a]
                for w in g.neighbors(u)
                if w in classes[b]
            )
    base = ExpansionCertificate(trees, connectors)
    if not odd:
        return base
    # Canonical coloring per tree; flips are the only remaining freedom.
    canon = [_frozen_two_color_tree(tree.edges, min(tree.vertices)) for tree in trees]
    home = {v: s for s, cls in enumerate(classes) for v in cls}
    for flips in product((0, 1), repeat=t):
        ok = True
        for (a, b), (u, v) in connectors.items():
            cu = canon[home[u]][u] if not flips[home[u]] else 3 - canon[home[u]][u]
            cv = canon[home[v]][v] if not flips[home[v]] else 3 - canon[home[v]][v]
            if cu != cv:
                ok = False
                break
        if ok:
            parity = {
                v: (canon[s][v] if not flips[s] else 3 - canon[s][v])
                for s, cls in enumerate(classes)
                for v in cls
            }
            return OddExpansionCertificate(base, parity)
    return None


def _frozen_bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _frozen_bfs_tree_edges(g: Graph, vertices: frozenset[int]) -> tuple[tuple[int, int], ...]:
    if not vertices:
        return ()
    root = min(vertices)
    seen = {root}
    queue = [root]
    edges: list[tuple[int, int]] = []
    while queue:
        u = queue.pop(0)
        for w in g.neighbors(u):
            if w in vertices and w not in seen:
                seen.add(w)
                queue.append(w)
                edges.append((u, w) if u < w else (w, u))
    return tuple(edges)


def _frozen_two_color_tree(edges: frozenset[tuple[int, int]], root: int) -> dict[int, int]:
    adj: dict[int, list[int]] = {root: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color = {root: 1}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = 3 - color[u]
                stack.append(w)
    return color


# ---------------------------------------------------------------------------
# Frozen copies of the graph constructor and the two graph parsers as they
# were before adjacency was built from per-vertex lists and parsed edges
# streamed into the constructor: per-vertex sets, and a full edge list per
# parse.  ``FrozenGraph`` is a ``Graph`` whose ``__init__`` is the old body,
# verbatim up to its sorted neighbour tuples, which it stores through
# ``Graph.__init__`` as their ascending pairs, so ``==``, ``hash`` and every
# accessor compare directly; the parser bodies are verbatim but for their
# names and the type they build.


class FrozenGraph(Graph):
    __slots__ = ("edges",)  # the old constructor's edge set, which the frozen verifier reads

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise StructureError(f"vertex count must be non-negative, got {n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise StructureError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise StructureError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: frozenset[Edge] = frozenset(normalized)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in normalized:
            adj[u].add(v)
            adj[v].add(u)
        sorted_adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        Graph.__init__(self, n, ((u, v) for u, out in enumerate(sorted_adj) for v in out if u < v))


class SortedView(Graph):
    """A graph's adjacency, with ``edges`` a list in ``sorted_edges()`` order.

    The frozen verifier above reads a graph's ``edges``, which ``Graph`` does
    not have, and names same-side edges in the order they iterate.  Run on
    this view of ``g``, it names them in sorted order, the order
    ``verify_partition`` uses.
    """

    __slots__ = ("edges",)  # the edge view the frozen verifier reads

    def __init__(self, g: Graph) -> None:
        self.edges = g.sorted_edges()
        Graph.__init__(self, g.n, self.edges)


def frozenset_sides(p: BcpPartition) -> BcpPartition:
    """``p`` with each side a frozenset of the same ids.

    The frozen partition copies above take the sides they build and read
    for frozensets: the verifier intersects a part's two sides with ``&``,
    which tuples lack.  Run on this view of ``p``, it reads the ids ``p``
    holds; and the frozen ``compute_partition``'s output equals the view of
    the package's.
    """
    return BcpPartition(tuple(TwoSides(frozenset(part.side_a), frozenset(part.side_b)) for part in p.parts))


def frozen_parse_edge_list(text: str) -> FrozenGraph:
    """Parse the edge-list format: first line ``n``, then ``u v`` lines.

    ``#`` starts a comment that runs to the end of the line; blank lines
    are skipped.
    """
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {line!r}")
            n = _frozen_parse_int(parts[0], lineno)
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be non-negative")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        u = _frozen_parse_int(parts[0], lineno)
        v = _frozen_parse_int(parts[1], lineno)
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex id out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise ParseError("line 1: missing vertex count")
    return FrozenGraph(n, edges)


def frozen_parse_dimacs(text: str) -> FrozenGraph:
    """Parse the DIMACS ``.col`` subset: ``p edge n m`` header, 1-based ``e`` lines."""
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge n m', got {line!r}")
            n = _frozen_parse_int(parts[2], lineno)
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be non-negative")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'p edge' header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v', got {line!r}")
            u = _frozen_parse_int(parts[1], lineno) - 1
            v = _frozen_parse_int(parts[2], lineno) - 1
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: vertex id out of range for n={n}")
            edges.append((u, v))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'p edge n m' header")
    return FrozenGraph(n, edges)


def _frozen_parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected integer, got {token!r}") from None


# ---------------------------------------------------------------------------
# Frozen copies of the line splitter, format detection and certificate
# parser as they were before the splitter folded into the parsers' reader,
# detection became one ``lstrip``, and the certificate parser lost its
# section machine.  ``_frozen_lines`` and ``frozen_detect_format`` are
# verbatim but for their names; the parser body is verbatim, with the
# reader's error rule written out around its loop, except its tree line,
# which follows the later id-field rule: an empty token is malformed, and a
# vertex or edge may not repeat within its field.


def _frozen_lines(text: str, comment: str | None):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if comment == "#" else raw).strip()
        if line and not (comment == "c" and line[0] == "c"):
            yield lineno, line


def frozen_detect_format(text: str) -> str:
    for _, line in _frozen_lines(text, None):
        return "dimacs" if line.startswith(("p", "c")) else "edge-list"
    return "edge-list"


def frozen_parse_certificate(text: str) -> ExpansionCertificate | OddExpansionCertificate:
    trees: list[ExpansionTree] = []
    connectors: dict[tuple[int, int], tuple[int, int]] = {}
    parity: dict[int, int] = {}
    expected = None  # number of trees, once the header is seen
    section = "header"
    lineno = 0
    try:
        for lineno, line in _frozen_lines(text, "#"):
            if section == "header":
                head, count = line.split()
                if head != "trees":
                    raise ValueError
                expected = int(count)
                if expected < 1:
                    raise ValueError
                section = "trees"
            elif line.startswith("T "):
                if section != "trees":
                    raise ValueError
                head, rest = line.split(":", 1)
                if int(head.split()[1]) != len(trees) + 1:
                    raise ParseError(f"line {lineno}: tree labels must be 1,2,... in order")
                vpart, _, epart = rest.partition("/")
                vids = [int(x) for x in vpart.split(",")] if vpart.strip() else []
                for i, v in enumerate(vids):
                    if v in vids[:i]:
                        raise ParseError(f"line {lineno}: vertex {v} repeated")
                edges = []
                for item in epart.split(",") if epart.strip() else ():
                    u, v = sorted(int(x) for x in item.split("-"))
                    edges.append((u, v))
                for i, (u, v) in enumerate(edges):
                    if (u, v) in edges[:i]:
                        raise ParseError(f"line {lineno}: edge {u}-{v} repeated")
                trees.append(ExpansionTree(frozenset(vids), frozenset(edges)))
            elif line.startswith("conn "):
                if section == "trees" and len(trees) == expected:
                    section = "conn"
                if section != "conn":
                    raise ValueError
                pair_part, edge_part = line[len("conn "):].split(":")
                a, b = (int(x) for x in pair_part.split())
                u, v = (int(x) for x in edge_part.split())
                if not 1 <= a < b:
                    raise ParseError(f"line {lineno}: connector labels must satisfy s < s'")
                if (a - 1, b - 1) in connectors:
                    raise ParseError(f"line {lineno}: duplicate connector for pair ({a}, {b})")
                connectors[(a - 1, b - 1)] = (u, v) if u < v else (v, u)
            elif line.startswith("parity "):
                if section in ("trees", "conn") and len(trees) == expected:
                    section = "parity"
                if section != "parity":
                    raise ValueError
                vpart, cpart = line[len("parity "):].split(":")
                v, c = int(vpart), int(cpart)
                if c not in (1, 2):
                    raise ParseError(f"line {lineno}: parity color must be 1 or 2")
                if v in parity:
                    raise ParseError(f"line {lineno}: duplicate parity line for vertex {v}")
                parity[v] = c
            else:
                raise ValueError
    except (ValueError, IndexError) as exc:
        if type(exc) not in (ValueError, IndexError):
            raise
        raw = text.splitlines()[lineno - 1]
        raise ParseError(f"line {lineno}: cannot parse certificate line {raw!r}") from None
    if expected is None:
        raise ParseError("certificate is empty")
    if len(trees) != expected:
        raise ParseError(f"expected {expected} trees, found {len(trees)}")
    base = ExpansionCertificate(tuple(trees), connectors)
    return OddExpansionCertificate(base, parity) if parity else base
