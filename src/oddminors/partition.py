"""Bipartite-connected partitions.

``compute_partition`` splits the vertex set into parts, each inducing a
connected bipartite subgraph, by repeatedly extracting an inclusion-wise
maximal such set from the unused vertices.  Between any two parts joined
by an edge there is then a witness triple: two vertices on opposite sides
of the lower part with a common neighbor in the higher one.  That triple
is what later turns a clique expansion of the quotient into an odd one.
"""

from __future__ import annotations

from ._record import Record, VerificationReport
from .errors import ParseError
from .graph import Graph, TwoSides, _distinct, _parse_ids, _Reader


class BcpPartition(Record):
    """Ordered parts, each stored with its canonical bipartition."""

    parts: tuple[TwoSides, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def members(self, i: int) -> frozenset[int]:
        """The vertices of part i as a set, built on each call from its two sides."""
        return self.parts[i].members


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

    n, neighbors = g.n, g.neighbors
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
            for w in neighbors(v):
                if unused[w]:
                    if not seen[w]:
                        touched.append(w)
                        heappush(heap, w)
                    seen[w] |= bit
        for v in touched:
            seen[v] = 0
        parts.append(TwoSides(tuple(sorted(sides[0])), tuple(sorted(sides[1]))))
        while seed < n and not unused[seed]:
            seed += 1
    return BcpPartition(tuple(parts))


def verify_partition(g: Graph, p: BcpPartition) -> VerificationReport:
    """Re-check both defining properties of the partition against g directly.

    Checked independently of how ``p`` was built: coverage and disjointness,
    per-part connectivity and proper canonical bipartition, and for every
    pair of parts joined by an edge the existence of a witness triple
    (u1, u2 on opposite sides of the lower part, common neighbor v in the
    higher part).

    One pass over the parts checks each in turn, clause by clause in the
    order they are reported.  Membership is read from two flat per-vertex
    arrays that a part fills as its ids are read: the last part holding
    each vertex, and its side bits there.  A vertex on both sides, or held
    by an earlier part, shows up while filling them.  One traversal per
    part then reads each member's neighbors once: it counts the part's
    components, names its same-side edges, in sorted order, and finds the
    witness triples with each earlier part.  Beyond the failures and the
    triples it allocates O(n) words, and no set of members per part, in
    O((n + m) log n) time.
    """
    return VerificationReport(_check_partition(g, p)[0])


_A, _B, _SEEN = 1, 2, 4  # side bits, and the bit a part's traversal sets on each vertex it reaches


def _check_partition(g: Graph, p: BcpPartition) -> tuple[
        tuple[str, ...], dict[tuple[int, int], tuple[int, int, int] | None]]:
    """The failures ``verify_partition`` reports, and the witness map.

    Once every clause holds, the witness map sends each pair (j, i), j < i,
    of parts joined by an edge, in ascending order, to its least witness
    triple, or None if it has none; otherwise the map is empty.  A witness
    triple of (j, i) is (u1, u2, v): u1 on side A and u2 on side B of part
    j, and v in part i adjacent to both.  The least is by (v, u1, u2), which
    no order of traversal changes.  Part i's traversal reads each run once:
    v's first neighbor on each side of an earlier part j is its least there,
    since runs ascend, and (j, i) keeps the triple of the least such v.
    """
    n, neighbors = g.n, g.neighbors
    part_of = [-1] * n  # in-range vertex -> the last part so far holding it
    side = bytearray(n)  # its side bits there, and _SEEN once that part's traversal reached it
    first: dict[int, int] = {}  # vertex held by two parts -> the first of them
    failures: list[str] = []
    triples: dict[tuple[int, int], tuple[int, int, int] | None] = {}
    for i, part in enumerate(p.parts):
        side_a, side_b = part.side_a, part.side_b
        if not side_a and not side_b:
            failures.append(f"part {i} is empty")
            continue
        overlap = False
        outside: dict[int, int] = {}  # out-of-range id -> the first side bit holding it
        repeated: list[int] = []  # in-range ids an earlier part holds
        bit = _A
        for ids in (side_a, side_b):
            for v in ids:
                if not (0 <= v < n):
                    overlap |= outside.setdefault(v, bit) != bit
                    continue
                j = part_of[v]
                if j == i:
                    overlap |= side[v] != bit
                    side[v] |= bit
                    continue
                if j >= 0:
                    first.setdefault(v, j)
                    repeated.append(v)
                part_of[v] = i
                side[v] = bit
            bit = _B
        for v in sorted([*outside, *repeated]):
            if v in outside:
                failures.append(f"part {i}: vertex {v} out of range")
            else:
                failures.append(f"vertex {v} appears in parts {first[v]} and {i}")
        if overlap:
            failures.append(f"part {i}: sides overlap")
        comps = 0
        same = []
        for ids in (side_a, side_b):
            for root in ids:
                if not (0 <= root < n) or side[root] >= _SEEN:
                    continue
                comps += 1
                side[root] |= _SEEN
                stack = [root]
                while stack:
                    u = stack.pop()
                    bits = side[u] & (_A | _B)
                    near = None  # earlier part -> u's least neighbor on its side A, and on its side B
                    for w in neighbors(u):
                        j = part_of[w]
                        if j == i:
                            s = side[w]
                            if s & bits and u < w:
                                same.append((u, w))
                            if s < _SEEN:  # _SEEN is the highest bit
                                side[w] = s | _SEEN
                                stack.append(w)
                        elif j >= 0:  # an earlier part: no later one is filled in yet
                            triples.setdefault((j, i), None)
                            if near is None:
                                near = ({}, {})
                            near[(side[w] & _B) > 0].setdefault(j, w)
                    if near is not None:
                        for j, u1 in near[0].items():
                            kept = triples[(j, i)]
                            u2 = near[1].get(j)
                            if u2 is not None and (kept is None or u < kept[2]):
                                triples[(j, i)] = (u1, u2, u)
        if comps != 1:
            failures.append(f"part {i}: induces {comps} components, expected 1")
        failures.extend(f"part {i}: edge ({u}, {v}) joins two vertices on one side" for u, v in sorted(same))
        if not side_a or (side_b and min(side_b) < min(side_a)):
            failures.append(f"part {i}: lowest vertex not on side A")

    if -1 in part_of:
        failures.append(f"uncovered vertices: {[v for v in range(n) if part_of[v] < 0]}")
    if failures:
        return tuple(failures), {}
    triples = dict(sorted(triples.items()))
    failures.extend(
        f"parts ({j}, {i}) are joined by an edge but admit no witness triple"
        for (j, i), triple in triples.items()
        if triple is None
    )
    return tuple(failures), triples


# ---------------------------------------------------------------------------
# Serialization: one line per part, "i: A=<ids> B=<ids>", ids comma-separated.


def render_partition(p: BcpPartition) -> str:
    return "".join(
        f"{i}: A={','.join(map(str, part.side_a))} B={','.join(map(str, part.side_b))}\n"
        for i, part in enumerate(p.parts)
    )


def parse_partition(text: str) -> BcpPartition:
    """Inverse of ``render_partition``.  Each side is read into ascending
    order (``A=2,0`` gives ``(0, 2)``).  An id may not repeat within a side
    field; one id on both sides of a part parses, and fails verification."""
    parts: list[TwoSides] = []
    with _Reader(text, "#", "expected 'i: A=<ids> B=<ids>'") as lines:
        for line in lines:
            head, rest = line.split(":", 1)
            idx = int(head)
            a_field, b_field = rest.split()
            if not a_field.startswith("A=") or not b_field.startswith("B="):
                raise ValueError
            ids_a = _parse_ids(a_field[2:])
            ids_b = _parse_ids(b_field[2:])
            if idx != len(parts):
                raise ParseError(f"part index {idx} out of order")
            side_a = _distinct(ids_a, "vertex {} repeated on side A")
            side_b = _distinct(ids_b, "vertex {} repeated on side B")
            parts.append(TwoSides(side_a, side_b))
    return BcpPartition(tuple(parts))
