"""Quotient graph over a bipartite-connected partition.

Contracting every part of the partition to a single vertex gives a graph
on part indices; each of its edges carries one witness triple, the handle
the lifting step later grabs to pick a monochromatic connecting edge.
"""

from __future__ import annotations

from ._record import Record, VerificationReport
from .errors import ParseError, StructureError
from .graph import Graph, _graph_items, _Reader, render_edge_list
from .partition import BcpPartition, _check_partition


class WitnessTriple(Record):
    """Vertices u1, u2 on sides A and B of the lower-indexed part, plus a
    common neighbor v in the higher-indexed part; u1v and u2v are edges."""

    u1: int
    u2: int
    v: int


class QuotientGraph(Record):
    h: Graph
    witnesses: dict[tuple[int, int], WitnessTriple]
    partition: BcpPartition


def build_quotient(g: Graph, p: BcpPartition) -> QuotientGraph:
    """Contract each part to a vertex and record one witness per edge.

    The partition is re-verified first; the stored witness for edge (i, j)
    is the least triple by (v, u1, u2) with u1 on side A of part i.
    """
    failures, triples = _check_partition(g, p)
    if failures:
        raise StructureError("partition fails verification: " + "; ".join(failures))
    witnesses = {pair: WitnessTriple(*triple) for pair, triple in triples.items()}
    return QuotientGraph(Graph(len(p), witnesses.keys()), witnesses, p)


def verify_quotient(g: Graph, q: QuotientGraph) -> VerificationReport:
    """PASS iff q.partition is valid for g, q.h is the contraction of g
    along it, and every edge of q.h carries a valid witness triple.

    An invalid partition fails alone, with the failures ``verify_partition``
    names.  The contraction identifies each part to one vertex and drops
    loops and parallel edges: its edges are the part pairs that the
    partition check finds joined in g.  A witness (u1, u2, v) for edge
    (i, j) needs u1 on side A and u2 on side B of part i, and v a common
    neighbor of both inside part j.
    """
    p = q.partition
    invalid, joined = _check_partition(g, p)
    if invalid:
        return VerificationReport(invalid)
    failures: list[str] = []
    h_edges = q.h.sorted_edges()
    if q.h.n != len(p):
        failures.append(f"h has {q.h.n} vertices but the partition has {len(p)} parts")
    else:
        failures += [f"contraction edge {e} missing from h" for e in joined if not q.h.has_edge(*e)]
        failures += [f"h edge {e} not present in the contraction" for e in h_edges if e not in joined]
    for (i, j), w in sorted(q.witnesses.items()):
        if not (0 <= i < len(p) and 0 <= j < len(p)) or i >= j:
            failures.append(f"witness for ({i}, {j}): not an ordered part pair")
            continue
        part_i, part_j = p.parts[i], p.parts[j]
        if w.u1 not in part_i.side_a:
            failures.append(f"witness for ({i}, {j}): {w.u1} not on side A of part {i}")
        elif w.u2 not in part_i.side_b:
            failures.append(f"witness for ({i}, {j}): {w.u2} not on side B of part {i}")
        elif w.v not in part_j.members:
            failures.append(f"witness for ({i}, {j}): {w.v} not in part {j}")
        elif not (g.has_edge(w.u1, w.v) and g.has_edge(w.u2, w.v)):
            failures.append(
                f"witness for ({i}, {j}): {w.v} is not a common neighbor "
                f"of {w.u1} and {w.u2}"
            )
    for i, j in h_edges:
        if (i, j) not in q.witnesses:
            failures.append(f"quotient edge ({i}, {j}) has no witness")
    return VerificationReport(tuple(failures))


def render_quotient(q: QuotientGraph) -> str:
    """h in edge-list format, then one "w i j : u1 u2 v" line per edge."""
    lines = [f"w {i} {j} : {w.u1} {w.u2} {w.v}\n" for (i, j), w in sorted(q.witnesses.items())]
    return render_edge_list(q.h) + "".join(lines)


def parse_quotient(text: str) -> tuple[Graph, dict[tuple[int, int], WitnessTriple]]:
    """Inverse of render_quotient, minus the partition (not serialized).

    Witness lines are read first, then the edge lines, under their own numbers.
    """
    witnesses: dict[tuple[int, int], WitnessTriple] = {}
    with _Reader(text, "#", "cannot parse witness {raw!r}") as lines:
        for line in lines:
            if not line.startswith("w "):
                if witnesses:
                    raise ParseError("edge line after witness lines")
                continue
            pair_part, triple_part = line[2:].split(":")
            i, j = (int(x) for x in pair_part.split())
            u1, u2, v = (int(x) for x in triple_part.split())
            if (i, j) in witnesses:
                raise ParseError(f"duplicate witness for edge ({i}, {j})")
            witnesses[(i, j)] = WitnessTriple(u1, u2, v)
    with _Reader(text, "#") as lines:
        items = _graph_items(line for line in lines if not line.startswith("w "))
        h = Graph(next(items), items)
    edges = h.sorted_edges()
    missing = [e for e in edges if e not in witnesses]
    extra = sorted(set(witnesses).difference(edges))
    if missing:
        raise ParseError(f"edges without witnesses: {missing}")
    if extra:
        raise ParseError(f"witnesses without edges: {extra}")
    return h, witnesses
