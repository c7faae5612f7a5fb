"""K_t-expansion certificates: brute-force finders and trusted verifiers.

A K_t-expansion is t vertex-disjoint trees plus one chosen connecting edge
per tree pair.  The odd variant additionally carries a 2-coloring under
which every tree edge is bichromatic and every connector monochromatic.
Finders are exhaustive within a hard budget of search nodes, on graphs
whose 2-core (for t >= 3) has at most MAX_ASSIGNMENTS branch-set maps;
verifiers check a certificate clause by clause and never trust the finder.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, product

from ._record import Record, VerificationReport
from .errors import (
    DEFAULT_MAX_NODES,
    BudgetExceeded,
    ContractViolation,
    ParseError,
    StructureError,
)
from .graph import Graph, _distinct, _parse_ids, _Reader

# The search refuses (t+1)^c branch-set maps of its c vertices above this,
# before it visits a node; it covers c=10 at t=5 (6^10 ~ 60.5M) and keeps
# the recursive search at most 27 calls deep (c <= 26).
MAX_ASSIGNMENTS = 100_000_000


class ExpansionTree(Record):
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]


class ExpansionCertificate(Record):
    """Trees indexed 0..t-1; connectors keyed by (s, s') with s < s'."""

    trees: tuple[ExpansionTree, ...]
    connectors: dict[tuple[int, int], tuple[int, int]]


class OddExpansionCertificate(Record):
    """Expansion plus a {1,2}-coloring of the tree vertices."""

    base: ExpansionCertificate
    parity: dict[int, int]


def _bfs(neighbors, root: int, inside) -> dict[int, int]:
    """Breadth-first search from ``root`` through the vertices in ``inside``.

    ``neighbors(v)`` lists the neighbors of v.  Returns the parent of every
    vertex reached, the root being its own parent, keyed in the order the
    search reaches them: each parent comes before its children.
    """
    parent = {root: root}
    queue = [root]
    for u in queue:
        for w in neighbors(u):
            if w in inside and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def _tree_edges(parent: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The edges of a ``_bfs`` tree, in the order the search reached their children."""
    return tuple((u, v) if u < v else (v, u) for v, u in parent.items() if u != v)


def _depth_parity(parent: dict[int, int]) -> dict[int, int]:
    """Color 1 at even depth and 2 at odd depth of a ``_bfs`` tree."""
    color: dict[int, int] = {}
    for v, u in parent.items():
        color[v] = 3 - color[u] if u != v else 1
    return color


def bfs_tree_edges(g: Graph, vertices: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Breadth-first spanning tree of g[vertices], rooted at the lowest id."""
    if not vertices:
        return ()
    parent = _bfs(g.neighbors, min(vertices), vertices)
    if len(parent) != len(vertices):
        raise StructureError(f"vertex set {sorted(vertices)} induces a disconnected subgraph")
    return _tree_edges(parent)


def two_color_tree(edges: frozenset[tuple[int, int]], root: int) -> dict[int, int]:
    """Proper {1,2}-coloring of a tree given by its edges; root gets 1.

    Only the vertices that the edges join to the root get a color.
    """
    adj: dict[int, list[int]] = {root: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return _depth_parity(_bfs(adj.__getitem__, root, adj))


def _tree_violation(g: Graph, s: int, tree: ExpansionTree, claimed: dict[int, int]) -> str | None:
    """First violated clause for tree s (1-based label), or None."""
    if not tree.vertices:
        return f"tree {s} is empty"
    for v in sorted(tree.vertices):
        if not 0 <= v < g.n:
            return f"tree {s} contains out-of-range vertex {v}"
    for v in sorted(tree.vertices):
        if v in claimed:
            return f"tree {s} shares vertex {v} with tree {claimed[v]}"
    for u, v in sorted(tree.edges):
        if u not in tree.vertices or v not in tree.vertices:
            return f"tree {s} edge ({u}, {v}) leaves its vertex set"
        if not g.has_edge(u, v):
            return f"tree {s} edge ({u}, {v}) is not an edge of the graph"
    if len(tree.edges) != len(tree.vertices) - 1:
        return (
            f"tree {s} has {len(tree.edges)} edges for {len(tree.vertices)} vertices, "
            "not a spanning tree"
        )
    # With |E| = |V|-1, connectivity alone rules out cycles.  The coloring
    # reaches exactly the vertices connected to the root.
    if len(two_color_tree(tree.edges, min(tree.vertices))) != len(tree.vertices):
        return f"tree {s} is not connected by its edges"
    return None


def verify_expansion(g: Graph, cert: ExpansionCertificate) -> VerificationReport:
    """Check every K_t-expansion clause; first violated clause per tree/pair."""
    failures: list[str] = []
    trees = cert.trees
    t = len(trees)
    if t == 0:
        return VerificationReport(("certificate has no trees",))
    claimed: dict[int, int] = {}
    for s, tree in enumerate(trees, start=1):
        msg = _tree_violation(g, s, tree, claimed)
        if msg is not None:
            failures.append(msg)
        for v in tree.vertices:
            if 0 <= v < g.n and v not in claimed:
                claimed[v] = s
    for a in range(t):
        for b in range(a + 1, t):
            if (a, b) not in cert.connectors:
                failures.append(f"pair ({a + 1}, {b + 1}) has no connector")
                continue
            u, v = cert.connectors[(a, b)]
            if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
                failures.append(
                    f"connector for pair ({a + 1}, {b + 1}) uses non-edge ({u}, {v})"
                )
                continue
            va, vb = trees[a].vertices, trees[b].vertices
            if not ((u in va and v in vb) or (v in va and u in vb)):
                failures.append(
                    f"connector for pair ({a + 1}, {b + 1}) edge ({u}, {v}) "
                    f"does not join tree {a + 1} to tree {b + 1}"
                )
    valid_pairs = {(a, b) for a in range(t) for b in range(a + 1, t)}
    for a, b in sorted(set(cert.connectors) - valid_pairs):
        failures.append(
            f"connector for pair ({a + 1}, {b + 1}) does not match any tree pair"
        )
    return VerificationReport(tuple(failures))


def verify_odd_expansion(g: Graph, cert: OddExpansionCertificate) -> VerificationReport:
    """verify_expansion plus both parity clauses of the odd definition."""
    failures = list(verify_expansion(g, cert.base).failures)
    parity = cert.parity
    tree_vertices: set[int] = set()
    for tree in cert.base.trees:
        tree_vertices |= tree.vertices
    for v in sorted(tree_vertices):
        if v not in parity:
            failures.append(f"tree vertex {v} has no parity color")
        elif parity[v] not in (1, 2):
            failures.append(f"parity color of vertex {v} is {parity[v]}, not 1 or 2")
    for v in sorted(set(parity) - tree_vertices):
        failures.append(f"parity assigns a color to non-tree vertex {v}")
    for s, tree in enumerate(cert.base.trees, start=1):
        for u, v in sorted(tree.edges):
            if parity.get(u) in (1, 2) and parity.get(u) == parity.get(v):
                failures.append(
                    f"tree {s} edge ({u}, {v}) is monochromatic (color {parity[u]})"
                )
                break
    for (a, b), (u, v) in sorted(cert.base.connectors.items()):
        cu, cv = parity.get(u), parity.get(v)
        if cu in (1, 2) and cv in (1, 2) and cu != cv:
            failures.append(
                f"connector for pair ({a + 1}, {b + 1}) edge ({u}, {v}) "
                f"is bichromatic (colors {cu}, {cv})"
            )
    return VerificationReport(tuple(failures))


def find_expansion(
    g: Graph, t: int, *, max_nodes: int = DEFAULT_MAX_NODES
) -> ExpansionCertificate | None:
    """Exhaustive K_t-expansion search; None when no branch-set map works.

    Enumerates vertex → {unused, 1..t} maps in lexicographic order and
    returns the certificate of the first map whose classes are nonempty,
    connected, and pairwise joined by an edge; each connector is the least
    edge between its two trees.

    Vertices are assigned in id order, classes open in label order (maps
    that only relabel classes are skipped), and each open class k carries
    its reach R_k: the component of g[C_k ∪ unassigned] that holds C_k.
    Any completion of C_k is connected, holds C_k and lies in
    C_k ∪ unassigned, so it lies in R_k.  Hence a subtree is cut, with no
    valid map lost, when C_k is not inside one component (vertex i may then
    only join k itself), when no edge joins R_a to R_b, when fewer than t
    classes are open and some R_a has no edge into the unassigned vertices
    (where every later class lies), or when too few vertices remain for
    the classes still to open.  Assigning i to k needs i ∈ R_k and leaves
    R_k as it is; only the reaches holding i are recomputed, once per
    node.  For t >= 3 a subtree is also cut when the vertices it may still
    use induce treewidth <= t - 2, so no K_t minor (Bodlaender, TCS 1998:
    minors never raise treewidth, and tw(K_t) = t - 1).  The peel shows it,
    memoized per vertex set: each vertex of degree <= t - 2 it deletes,
    its neighbours made a clique, is an elimination step of width <= t - 2,
    and fewer than t vertices left have width <= t - 2.  Classes take only
    2-core vertices: an edge touching another vertex is a bridge, which no
    third class adjacent to both ends can cross, so such a vertex carries
    no cross edge and dropping it gives an earlier valid map.  The outcome
    matches plain enumeration, so None is exact: no K_t-expansion exists.
    The same holds for find_odd_expansion.

    The search visits at most max_nodes nodes; one more raises
    BudgetExceeded.  On c searched vertices (the 2-core for t >= 3), t > c
    answers None at once and (t+1)^c > MAX_ASSIGNMENTS raises BudgetExceeded.
    """
    return _search(g, t, max_nodes, odd=False)


def find_odd_expansion(
    g: Graph, t: int, *, max_nodes: int = DEFAULT_MAX_NODES
) -> OddExpansionCertificate | None:
    """Exhaustive odd K_t-expansion search over branch-set maps.

    Runs the search of find_expansion and decides each valid branch-set map
    exactly.  A map admits an odd K_t-expansion exactly when some {1,2}-
    coloring of its classes connects each class through its bichromatic
    edges and some cross edge of every class pair is monochromatic; any
    spanning tree of a class's bichromatic edges is then its tree.  Each
    class's colorings are listed up to a flip, 1 on its least vertex: its
    breadth-first depth parity, then, only if the class is not bipartite,
    the rest in binary order.  Their combinations are tried in product
    order.  For each, flips come first: a pair whose cross edges all ask
    for the same relative flip forces it, and a pair that offers both
    constrains nothing.  A parity union-find solves the forced equations;
    then, pair by pair, each connector is the least cross edge that stays
    consistent with the equations taken so far.  The first map and coloring
    that admit a solution yield the certificate, each tree being the
    breadth-first tree of its class's bichromatic edges.  The 2-core cut
    holds too: a simple path between two 2-core vertices stays in the
    2-core, so a class cut to it stays connected through the same
    bichromatic edges, and the cut map is earlier.  The size limit is
    find_expansion's; each class coloring and combination tried is a node.

    Parity cut: three trees of an odd model and their monochromatic
    connectors close a cycle of an even number of bichromatic tree edges
    and three monochromatic ones.  Deleting t - 3 vertices leaves three
    trees whole, so a graph that some t - 3 deleted vertices make bipartite
    holds no odd K_t.  Such cycles run through 2-core vertices of the
    classes, so a subtree is cut, with no certificate lost, when deleting
    some t - 3 of the 2-core vertices it may still use leaves the rest
    bipartite (each deletion set tried once, memoized with the peel).  Such
    a cycle lies in its three classes, and each completion of class k lies
    in its reach R_k, so a child is also cut when some three of its classes
    have reaches whose union R_a | R_b | R_c induces a bipartite graph (each
    union tested once).  So None is exact; given at entry, it also carries
    evidence: the peel, or a deleted set and a 2-coloring of the rest.
    """
    return _search(g, t, max_nodes, odd=True)


def _search(g: Graph, t: int, max_nodes: int, odd: bool):
    if t < 1:
        raise ContractViolation(f"t must be a positive integer, got {t}")
    # For t >= 3 no cross edge of a valid map leaves the 2-core, so classes
    # take its vertices only: the search runs on them, vertex j being ids[j].
    ids = range(g.n)
    if t >= 3:  # the 2-core: delete vertices of degree <= 1, round after round
        degree = [g.degree(v) for v in ids]
        low = [v for v in ids if degree[v] <= 1]
        for v in low:
            for w in g.neighbors(v):
                degree[w] -= 1
                if degree[w] == 1:
                    low.append(w)
        ids = [v for v in ids if degree[v] > 1]
    n = len(ids)
    if t > n:
        return None
    if (t + 1) ** n > MAX_ASSIGNMENTS:
        raise BudgetExceeded(
            f"(t+1)^n = {t + 1}^{n} assignments exceeds the limit of {MAX_ASSIGNMENTS}"
        )

    index = {v: j for j, v in enumerate(ids)}
    adj = [sum(1 << index[w] for w in g.neighbors(v) if w in index) for v in ids]

    def peel(mask: int, k: int) -> int:
        # What is left of g[mask] once each vertex of degree <= k is deleted
        # and its neighbours are joined into a clique, until none is left.
        nbr = adj[:]
        todo = [v for v in range(n) if mask >> v & 1]
        while todo:
            v = todo.pop()
            near = nbr[v] & mask
            if not mask >> v & 1 or near.bit_count() > k:
                continue
            mask ^= 1 << v
            around = [w for w in range(n) if near >> w & 1]
            for w in around:
                nbr[w] |= near ^ 1 << w
            todo += around
        return mask

    @cache
    def live(mask: int) -> bool:
        # False when the peel shows g[mask] has treewidth <= t - 2, so no
        # K_t minor.  For t <= 2 the peel would drop K_1 and K_2.  An odd
        # search also calls mask dead when some t - 3 of its vertices leave
        # g[mask] bipartite once deleted (see find_odd_expansion).
        return t < 3 or peel(mask, t - 2).bit_count() >= t and not (odd and any(
            _bipartite(adj, mask ^ sum(cut))
            for cut in combinations([1 << v for v in range(n) if mask >> v & 1], t - 3)
        ))

    full = (1 << n) - 1

    # Each open class is a triple (C_k, R_k, N(R_k)): its vertices, its
    # reach R_k (the component of g[C_k | suffix] holding C_k) and the union
    # of the neighbourhoods of R_k's vertices.  Every completion of C_k is
    # a connected set inside C_k | suffix, so it lies inside R_k.
    @cache
    def component(start: int, allowed: int) -> tuple[int, int]:
        # The component of g[allowed] holding the single bit `start`, and
        # the union of its vertices' neighbourhoods.
        reached = frontier = start
        nbr = 0
        while frontier:
            nxt = _spread(adj, frontier)
            nbr |= nxt
            frontier = nxt & allowed & ~reached
            reached |= frontier
        return reached, nbr

    bipartite = cache(partial(_bipartite, adj))  # by vertex mask

    def feasible(i: int, classes: list[tuple[int, int, int]]) -> bool:
        # Called with vertices 0..i assigned; the suffix starts at i + 1.
        used = len(classes)
        if t - used > n - i - 1:
            return False
        if used < t:
            # A class still to open lies in the suffix and must touch R_a.
            rest = full >> (i + 1) << (i + 1)
            for _, _, na in classes:
                if not na & rest:
                    return False
        # An edge joins R_a to R_b exactly when N(R_a) meets R_b.
        for a in range(used - 1):
            na = classes[a][2]
            for b in range(a + 1, used):
                if not na & classes[b][1]:
                    return False
        # The trees of three classes of an odd model close an odd cycle in R_a | R_b | R_c.
        return not odd or not any(bipartite(x[1] | y[1] | z[1]) for x, y, z in combinations(classes, 3))

    nodes = 0

    def spend() -> None:
        # One node: a search call, or a class coloring or combination of them that an odd leaf tries.
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"expansion search exceeded {max_nodes} search nodes")

    colorings = cache(partial(_class_colorings, g, spend))  # each class's list, by mask

    def search(i: int, mask: int, classes: list[tuple[int, int, int]]):
        # mask: the vertices not left unused, which hold every completion.
        spend()
        if i == n:
            # feasible() at i = n - 1 saw an empty suffix: every class is
            # connected, all t are open and every pair is joined.
            masks = [sum(1 << v for j, v in enumerate(ids) if c >> j & 1) for c, _, _ in classes]
            return _certify(g, masks, odd, spend, colorings)
        bit = 1 << i
        # i leaves the suffix, so only the reaches holding i can change; each
        # is recomputed once here, whatever i is assigned to.
        cut = classes[:]
        holders = []
        broken = []
        for k, (c, r, _) in enumerate(classes):
            if r & bit:
                reached, nbr = component(c & -c, r ^ bit)
                cut[k] = c, reached, nbr
                if c & ~reached:
                    broken.append(k)
                holders.append(k)
        used = len(classes)
        if broken:
            # A class that falls apart without i can only continue by taking
            # i, and i can mend only one class.
            options = broken if len(broken) == 1 else ()
        else:
            # -1 leaves i unused, k < used adds it to class k, used opens a class.
            options = [-1, *holders]
            if used < t:
                options.append(used)
        for k in options:
            if k < 0:
                child = cut
            elif k < used:
                # R_k holds i, so it is also the reach of C_k + i.
                c, r, nbr = classes[k]
                child = cut[:]
                child[k] = c | bit, r, nbr
            else:
                child = [*cut, (bit, *component(bit, full >> i << i))]
            if feasible(i, child) and (k >= 0 or live(mask & ~bit)):
                out = search(i + 1, mask if k >= 0 else mask & ~bit, child)
                if out is not None:
                    return out
        return None

    return search(0, full, []) if live(full) else None


def _bipartite(adj: list[int], mask: int) -> bool:
    """Whether g[mask] has no odd cycle: no edge joins two vertices of one
    breadth-first layer, searched from the least vertex of each component."""
    while mask:
        layer = mask & -mask
        while layer:
            mask &= ~layer
            near = _spread(adj, layer)
            if near & layer:
                return False
            layer = near & mask
    return True


def _spread(adj: list[int], bits: int) -> int:
    """The union of the neighbourhoods adj[v] of the vertices v in bits."""
    out = 0
    while bits:
        b = bits & -bits
        bits ^= b
        out |= adj[b.bit_length() - 1]
    return out


def _flip_solver(t: int):
    """A parity union-find over t trees: find(s) gives s's root, the least
    tree of its component, which stays unflipped, and flip[s] ^ flip[root];
    join(a, b, x) adds flip[a] ^ flip[b] == x, False if that contradicts."""
    root = list(range(t))
    rel = [0] * t

    def find(s: int) -> tuple[int, int]:
        p = 0
        while root[s] != s:
            p ^= rel[s]
            s = root[s]
        return s, p

    def join(a: int, b: int, x: int) -> bool:
        ra, pa = find(a)
        rb, pb = find(b)
        x ^= pa ^ pb
        if ra == rb:
            return not x
        root[max(ra, rb)] = min(ra, rb)
        rel[max(ra, rb)] = x
        return True

    return find, join


def _class_colorings(g: Graph, spend, mask: int) -> list[dict[int, int]]:
    """The {1,2}-colorings of the class cls with bitmask ``mask``, 1 on its
    least vertex, whose bichromatic edges connect it: its breadth-first depth
    parity, then, only if cls is not bipartite (a bipartite class has no
    other), the rest in binary order; each one tried calls ``spend()`` first."""
    cls = frozenset(v for v in range(g.n) if mask >> v & 1)
    low, *rest = sorted(cls)
    spend()
    out = [_depth_parity(_bfs(g.neighbors, low, cls))]
    if any(out[0][u] == out[0][w] for u in cls for w in g.neighbors(u) if w in cls):
        for bits in product((1, 2), repeat=len(rest)):
            spend()
            color = {low: 1, **dict(zip(rest, bits))}
            if color != out[0] and len(_bfs(_bichromatic(g, color), low, cls)) == len(cls):
                out.append(color)
    return out


def _bichromatic(g: Graph, color: dict[int, int]):
    """Neighbours through the bichromatic edges among the colored vertices."""
    return lambda u: [w for w in g.neighbors(u) if w in color and color[w] != color[u]]


def _certify(g: Graph, class_masks: list[int], odd: bool, spend=lambda: None, colorings=None):
    t = len(class_masks)
    classes = [frozenset(v for v in range(g.n) if m >> v & 1) for m in class_masks]
    # Every edge between the two trees of a pair, least first.
    cross = {
        (a, b): sorted(
            (u, w) if u < w else (w, u)
            for u in classes[a]
            for w in g.neighbors(u)
            if w in classes[b]
        )
        for a in range(t)
        for b in range(a + 1, t)
    }

    def trees(neighbors) -> tuple[ExpansionTree, ...]:
        # Each class is connected through `neighbors`, so its search reaches all of it.
        return tuple(
            ExpansionTree(cls, frozenset(_tree_edges(_bfs(neighbors, min(cls), cls))))
            for cls in classes
        )

    if not odd:
        return ExpansionCertificate(trees(g.neighbors), {pair: edges[0] for pair, edges in cross.items()})
    colorings = colorings or partial(_class_colorings, g, spend)  # a class's list, by mask
    for colors in product(*map(colorings, class_masks)):
        spend()
        color = {v: c for col in colors for v, c in col.items()}
        # A cross edge (u, v) of pair (a, b) is monochromatic exactly when
        # flip[a] ^ flip[b] == [color(u) != color(v)].  A pair whose cross
        # edges all ask for the same relative flip forces it.
        find, join = _flip_solver(t)
        wants = ({color[u] != color[v] for u, v in edges} for edges in cross.values())
        if not all(len(x) > 1 or join(a, b, x.pop()) for (a, b), x in zip(cross, wants)):
            continue
        # Every other pair allows both relative flips, so whatever the pairs
        # before it chose, it still has a cross edge that can be monochromatic:
        # each pair in turn takes the least cross edge consistent with the rest.
        connectors = {
            (a, b): next((u, v) for u, v in edges if join(a, b, color[u] != color[v]))
            for (a, b), edges in cross.items()
        }
        flips = [find(s)[1] for s in range(t)]
        parity = {
            v: 3 - color[v] if flips[s] else color[v] for s, cls in enumerate(classes) for v in cls
        }
        base = ExpansionCertificate(trees(_bichromatic(g, color)), connectors)
        return OddExpansionCertificate(base, parity)
    return None


def render_certificate(cert: ExpansionCertificate | OddExpansionCertificate) -> str:
    """Structured text form; see the grammar in the README."""
    base = cert.base if isinstance(cert, OddExpansionCertificate) else cert
    lines = [f"trees {len(base.trees)}"]
    for s, tree in enumerate(base.trees, start=1):
        verts = ",".join(str(v) for v in sorted(tree.vertices))
        edges = ",".join(f"{u}-{v}" for u, v in sorted(tree.edges))
        lines.append(f"T {s}: {verts} / {edges}".rstrip())
    for a, b in sorted(base.connectors):
        u, v = base.connectors[(a, b)]
        lines.append(f"conn {a + 1} {b + 1} : {u} {v}")
    if isinstance(cert, OddExpansionCertificate):
        for v in sorted(cert.parity):
            lines.append(f"parity {v} : {cert.parity[v]}")
    return "\n".join(lines) + "\n"


def _tree_edge(token: str) -> tuple[int, int]:
    u, v = (int(x) for x in token.split("-"))
    return (u, v) if u < v else (v, u)


def parse_certificate(text: str) -> ExpansionCertificate | OddExpansionCertificate:
    """Inverse of render_certificate; parity lines make the result odd."""
    trees: list[ExpansionTree] = []
    connectors: dict[tuple[int, int], tuple[int, int]] = {}
    parity: dict[int, int] = {}
    expected = None  # number of trees, once the header is seen
    rank = 1  # last line's kind (1 T, 2 conn, 3 parity); conn and parity need all trees
    with _Reader(text, "#", "cannot parse certificate line {raw!r}") as lines:
        for line in lines:
            if expected is None:
                head, count = line.split()
                expected = int(count)
                if head != "trees" or expected < 1:
                    raise ValueError
                continue
            kind = ("T", "conn", "parity").index(line.split(" ", 1)[0]) + 1
            if kind < rank or kind > 1 and len(trees) != expected:
                raise ValueError
            rank = kind
            if kind == 1:
                head, rest = line.split(":", 1)
                if int(head.split()[1]) != len(trees) + 1:
                    raise ParseError("tree labels must be 1,2,... in order")
                vpart, _, epart = rest.partition("/")
                verts = _distinct(_parse_ids(vpart.strip()), "vertex {} repeated")
                edges = _distinct(_parse_ids(epart.strip(), _tree_edge), "edge {0[0]}-{0[1]} repeated")
                trees.append(ExpansionTree(verts, edges))
            elif kind == 2:
                pair_part, edge_part = line[len("conn "):].split(":")
                a, b = (int(x) for x in pair_part.split())
                u, v = (int(x) for x in edge_part.split())
                if not 1 <= a < b:
                    raise ParseError("connector labels must satisfy s < s'")
                if (a - 1, b - 1) in connectors:
                    raise ParseError(f"duplicate connector for pair ({a}, {b})")
                connectors[(a - 1, b - 1)] = (u, v) if u < v else (v, u)
            else:
                vpart, cpart = line[len("parity "):].split(":")
                v, c = int(vpart), int(cpart)
                if c not in (1, 2):
                    raise ParseError("parity color must be 1 or 2")
                if v in parity:
                    raise ParseError(f"duplicate parity line for vertex {v}")
                parity[v] = c
    if expected is None:
        raise ParseError("certificate is empty")
    if len(trees) != expected:
        raise ParseError(f"expected {expected} trees, found {len(trees)}")
    base = ExpansionCertificate(tuple(trees), connectors)
    return OddExpansionCertificate(base, parity) if parity else base
