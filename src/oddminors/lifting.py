"""Lift a K_t-expansion of the quotient to an odd K_t-expansion of G.

Each quotient tree blows up into a tree of G that spans every part it
touches; 2-coloring that tree makes each part's sides two color classes,
so the stored witness triple of every quotient connector hands us a
monochromatic connecting edge.  The lift verifies its own certificate: a
failure is a bug by construction and raises instead of returning it.
"""

from __future__ import annotations

from ._record import Record
from .coloring import Coloring, color_exact, compose_coloring, verify_coloring
from .errors import DEFAULT_MAX_NODES, ContractViolation, InvariantViolation
from .graph import Graph
from .minors import (
    ExpansionCertificate,
    ExpansionTree,
    OddExpansionCertificate,
    bfs_tree_edges,
    find_expansion,
    render_certificate,
    two_color_tree,
    verify_expansion,
    verify_odd_expansion,
)
from .partition import compute_partition, render_partition
from .quotient import QuotientGraph, build_quotient


def lift_expansion(g: Graph, q: QuotientGraph, cert_h: ExpansionCertificate) -> OddExpansionCertificate:
    """Blow up a quotient expansion into an odd expansion of g.

    Per tree: the union of its parts, spanned by a breadth-first tree of
    each part joined by the least G-edge per quotient tree edge, 2-colored
    from the least vertex of its least part (color 1).  Per pair: the
    witness triple (u1, u2, v) of the quotient connector has u1, u2 on
    opposite sides of one part, hence opposite colors, so exactly one of
    u1·v, u2·v is monochromatic — that edge is the connector.  A result
    that fails ``verify_odd_expansion`` raises InvariantViolation.
    """
    report = verify_expansion(q.h, cert_h)
    if not report.passed:
        raise ContractViolation(
            "quotient certificate fails verification: " + "; ".join(report.failures)
        )
    members = q.partition.members
    trees: list[ExpansionTree] = []
    color: dict[int, int] = {}
    for h_tree in cert_h.trees:
        parts = sorted(h_tree.vertices)
        vertices: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for i in parts:
            vertices |= members(i)
            edges.update(bfs_tree_edges(g, members(i)))
        for i, j in sorted(h_tree.edges):
            xj = members(j)
            edges.add(min((u, w) if u < w else (w, u)
                          for u in members(i) for w in g.neighbors(u) if w in xj))
        tree = ExpansionTree(frozenset(vertices), frozenset(edges))
        color.update(two_color_tree(tree.edges, min(members(parts[0]))))
        trees.append(tree)
    connectors: dict[tuple[int, int], tuple[int, int]] = {}
    for (a, b), (i, j) in cert_h.connectors.items():
        w = q.witnesses[(i, j) if i < j else (j, i)]
        u = w.u1 if color[w.u1] == color[w.v] else w.u2
        connectors[(a, b)] = (u, w.v) if u < w.v else (w.v, u)
    cert = OddExpansionCertificate(ExpansionCertificate(tuple(trees), connectors), color)
    if not verify_odd_expansion(g, cert).passed:
        raise InvariantViolation("lifted certificate fails verification")
    return cert


class ReductionReport(Record):
    """Outcome of the full pipeline on one graph for one t."""

    g: Graph
    t: int
    quotient: QuotientGraph
    certificate: OddExpansionCertificate | None
    chi_h: int | None
    composed: Coloring | None

    def render(self) -> str:
        q = self.quotient
        out = [
            f"graph: {self.g.n} vertices, {self.g.m} edges",
            f"partition: {len(q.partition)} parts",
        ]
        if len(q.partition):
            out.append(render_partition(q.partition).rstrip("\n"))
        out.append(f"quotient: {q.h.n} vertices, {q.h.m} edges")
        if self.certificate is not None:
            out.append(f"K{self.t}-expansion in quotient: found")
            out.append(f"lifted odd K{self.t}-expansion:")
            out.append(render_certificate(self.certificate).rstrip("\n"))
            out.append("verification: PASS")
        else:
            out.append(f"K{self.t}-expansion in quotient: not found")
            out.append(f"quotient is K{self.t}-expansion-free")
            out.append(f"chi(quotient) = {self.chi_h}")
            bound = 2 * self.chi_h
            out.append(
                f"composed coloring: palette {self.composed.palette} <= {bound} "
                "= 2*chi(quotient)"
            )
        return "\n".join(out) + "\n"


def reduction_report(g: Graph, t: int, *, max_nodes: int = DEFAULT_MAX_NODES) -> ReductionReport:
    """Run partition → quotient → search, then lift or color.

    A quotient K_t-expansion lifts to a verified odd K_t-expansion of g;
    otherwise the quotient is exactly colored and the composed coloring
    exhibits the factor-two bound.  max_nodes bounds the search and the
    coloring each; budget overruns propagate as errors.
    """
    q = build_quotient(g, compute_partition(g))
    cert_h = find_expansion(q.h, t, max_nodes=max_nodes)
    if cert_h is not None:
        return ReductionReport(g, t, q, lift_expansion(g, q, cert_h), None, None)
    c_h = color_exact(q.h, max_nodes=max_nodes)
    composed = compose_coloring(q, c_h)
    if not verify_coloring(g, composed).passed:
        raise InvariantViolation("composed coloring is not proper")
    return ReductionReport(g, t, q, None, c_h.palette, composed)
