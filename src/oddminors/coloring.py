"""Proper colorings: exact (branch and bound), greedy, and composed.

The composed coloring is the point of the whole pipeline: color the
quotient, give every vertex the pair (part color, side bit), flatten, and
the result is proper on the original graph with at most twice the
quotient's palette.
"""

from __future__ import annotations

from ._record import Record, VerificationReport
from .errors import DEFAULT_MAX_NODES, BudgetExceeded, ContractViolation, ParseError
from .graph import Graph, _Reader
from .quotient import QuotientGraph


class Coloring(Record):
    """Color per vertex, indexed by vertex id; colors are 0-based."""

    colors: tuple[int, ...]

    @property
    def palette(self) -> int:
        return len(set(self.colors))


def verify_coloring(g: Graph, c: Coloring) -> VerificationReport:
    """PASS iff every vertex is colored and every edge is bichromatic."""
    failures: list[str] = []
    if len(c.colors) != g.n:
        failures.append(f"coloring covers {len(c.colors)} vertices, graph has {g.n}")
        return VerificationReport(tuple(failures))
    for u, v in g.sorted_edges():
        if c.colors[u] == c.colors[v]:
            failures.append(f"edge ({u}, {v}) is monochromatic (color {c.colors[u]})")
    return VerificationReport(tuple(failures))


def color_heuristic(g: Graph) -> Coloring:
    """Saturation-degree greedy.

    Pick the uncolored vertex with the most distinct neighbor colors,
    break ties by higher degree then lower id, and give it the least
    color absent from its neighborhood.
    """
    colors, neighbor_colors, pick, down, _ = _dsatur(g)
    for _ in range(g.n):
        v = pick()
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        down(v, c)
    return Coloring(tuple(colors))


def _dsatur(g: Graph):
    """A partial coloring that keeps the DSATUR choice up to date.

    pick() returns the uncolored vertex with the most distinct neighbor
    colors, ties broken by higher degree then lower id, or -1 once every
    vertex is colored; down(v, c) colors v and returns the neighbors that
    gained color c, and up(v, c, touched) undoes it.  Each vertex keeps
    one integer key, saturation * n plus its tie rank, and a colored
    vertex's key is pushed below zero, so a choice is one max over n ints
    rather than a scan that rebuilds every sort key.  Colored neighbors
    are updated too (their keys stay negative); that stays exact because
    down and up calls nest.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    key = [0] * n
    for rank, v in enumerate(sorted(range(n), key=lambda v: (-len(adj[v]), v))):
        key[v] = n - 1 - rank
    colored = n * (n + 1)  # above every key: saturation and rank are < n

    def pick() -> int:
        top = max(key)
        return key.index(top) if top >= 0 else -1

    def down(v: int, c: int) -> list[int]:
        colors[v] = c
        key[v] -= colored
        touched = [w for w in adj[v] if c not in neighbor_colors[w]]
        for w in touched:
            neighbor_colors[w].add(c)
            key[w] += n
        return touched

    def up(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        key[v] += colored
        for w in touched:
            neighbor_colors[w].remove(c)
            key[w] -= n

    return colors, neighbor_colors, pick, down, up


def color_exact(g: Graph, *, max_nodes: int = DEFAULT_MAX_NODES) -> Coloring:
    """Minimum proper coloring by DSATUR branch and bound.

    A greedy clique seeds the lower bound (its vertices are pre-colored,
    which is sound up to color renaming); the saturation greedy seeds the
    upper bound.  Branching order is fixed, so the returned coloring is
    deterministic; the search ends at the first coloring with as many colors
    as the clique, which no coloring can beat.  The budget counts work, not
    size: the search visits at most max_nodes nodes, and one more raises
    BudgetExceeded; it never degrades to a heuristic answer.
    """
    greedy = color_heuristic(g)
    best_k = greedy.palette
    best = list(greedy.colors)
    clique = _greedy_clique(g)
    if len(clique) == best_k:
        return greedy

    colors, neighbor_colors, pick, down, up = _dsatur(g)
    for rank, v in enumerate(clique):
        down(v, rank)
    start_k = len(clique)
    nodes = 0

    def search(used: int) -> bool:
        """True once ``best`` uses as many colors as the clique: a proven optimum."""
        nonlocal best_k, best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(f"exact coloring exceeded {max_nodes} search nodes")
        v = pick()
        if v == -1:
            if used < best_k:
                best_k = used
                best = colors[:]
            return best_k == start_k
        for c in range(used):
            if c in neighbor_colors[v]:
                continue
            touched = down(v, c)
            if search(used):
                return True
            up(v, c, touched)
        # One fresh color; higher ones are symmetric to it.
        if used + 1 < best_k:
            touched = down(v, used)
            if search(used + 1):
                return True
            up(v, used, touched)
        return False

    search(start_k)
    return Coloring(tuple(best))


def _greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique, largest found over all start vertices."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []
    for start in order:
        clique = [start]
        candidates = set(g.neighbors(start))
        while candidates:
            v = min(candidates, key=lambda u: (-g.degree(u), u))
            clique.append(v)
            candidates &= set(g.neighbors(v))
        if len(clique) > len(best):
            best = clique
    return best


def compose_coloring(q: QuotientGraph, c_h: Coloring) -> Coloring:
    """Flatten (part color, side bit) into one coloring of the base graph.

    Vertex x in part i gets 2 * c_h(i) + side(x), then used colors are
    renumbered densely.  Proper whenever c_h is proper on q.h: edges
    inside a part cross sides, edges between parts cross part colors.
    """
    report = verify_coloring(q.h, c_h)
    if not report.passed:
        raise ContractViolation(
            "quotient coloring is not proper: " + "; ".join(report.failures)
        )
    parts = q.partition.parts
    raw: list[int] = [-1] * sum(len(part.side_a) + len(part.side_b) for part in parts)
    for color, part in zip(c_h.colors, parts):
        for bit, side in enumerate((part.side_a, part.side_b)):
            for v in side:
                raw[v] = 2 * color + bit
    rank = {c: k for k, c in enumerate(sorted(set(raw)))}
    return Coloring(tuple(rank[c] for c in raw))


def render_coloring(c: Coloring) -> str:
    lines = [f"palette {c.palette}"]
    lines.extend(f"{v} {col}" for v, col in enumerate(c.colors))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    """Inverse of render_coloring; vertex lines must be 0,1,... in order."""
    header = None
    colors: list[int] = []
    with _Reader(text, "#", "expected 'palette k', got {raw!r}") as lines:
        for line in lines:
            fields = line.split()
            if header is None:
                word, count = fields
                if word != "palette":
                    raise ValueError
                header = int(count)
                lines.detail = "cannot parse color line {raw!r}"  # for every later line
                continue
            v, c = (int(x) for x in fields)
            if v != len(colors):
                raise ParseError(f"expected vertex {len(colors)}, got {v}")
            colors.append(c)
    if header is None:
        raise ParseError("coloring is empty")
    out = Coloring(tuple(colors))
    if out.palette != header:
        raise ParseError(f"header claims palette {header}, lines use {out.palette}")
    return out
