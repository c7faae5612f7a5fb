"""Lift a K_t-expansion of the quotient to an odd K_t-expansion of G.

Each quotient tree blows up into a tree of G that spans every part it
touches; 2-coloring that tree makes each part's sides two color classes,
so the stored witness triple of every quotient connector hands us a
monochromatic connecting edge.  Failure to find one is a bug by
construction and aborts loudly instead of returning a bad certificate.
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
from .partition import BcpPartition, compute_partition, render_partition
from .quotient import QuotientGraph, build_quotient


class LiftedTree(Record):
    """One blown-up tree: spans G[X_i] for every part i of its quotient tree."""

    label: int
    parts: tuple[int, ...]
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    coloring: dict[int, int]


def lift_tree(g: Graph, q: QuotientGraph, label: int, h_tree: ExpansionTree) -> LiftedTree:
    parts = tuple(sorted(h_tree.vertices))
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for i in parts:
        members = frozenset(q.partition.members(i))
        vertices |= members
        edges.update(bfs_tree_edges(g, members))
    for i, j in sorted(h_tree.edges):
        xi = q.partition.members(i)
        xj = set(q.partition.members(j))
        edges.add(
            min(
                (u, w) if u < w else (w, u)
                for u in xi
                for w in g.neighbors(u)
                if w in xj
            )
        )
    root = min(q.partition.members(parts[0]))
    coloring = two_color_tree(frozenset(edges), root)
    return LiftedTree(label, parts, frozenset(vertices), frozenset(edges), coloring)


def lift_expansion(
    g: Graph, q: QuotientGraph, cert_h: ExpansionCertificate
) -> OddExpansionCertificate:
    """Blow up a quotient expansion into an odd expansion of g.

    Per tree: breadth-first spanning tree of each touched part, joined by
    the least G-edge per quotient tree edge, 2-colored from the root
    (color 1).  Per pair: the witness triple (u1, u2, v) of the quotient
    connector has u1, u2 on opposite sides of one part, hence opposite
    colors, so exactly one of u1·v, u2·v is monochromatic — that edge is
    the connector.
    """
    report = verify_expansion(q.h, cert_h)
    if not report.passed:
        raise ContractViolation(
            "quotient certificate fails verification: " + "; ".join(report.failures)
        )
    lifted = [lift_tree(g, q, s, tree) for s, tree in enumerate(cert_h.trees)]
    color: dict[int, int] = {}
    for tree in lifted:
        color.update(tree.coloring)
    part_home = {i: tree.label for tree in lifted for i in tree.parts}
    connectors: dict[tuple[int, int], tuple[int, int]] = {}
    for (a, b), (i, j) in cert_h.connectors.items():
        w = q.witnesses[(i, j) if i < j else (j, i)]
        if i > j:
            i, j = j, i
        if {part_home[i], part_home[j]} != {a, b}:
            raise ContractViolation(
                f"connector parts ({i}, {j}) do not lie in trees ({a}, {b})"
            )
        if color[w.u1] == color[w.v]:
            u = w.u1
        elif color[w.u2] == color[w.v]:
            u = w.u2
        else:
            # The witness sides force one match; reaching this is a bug.
            raise InvariantViolation(
                f"no monochromatic connector for pair ({a}, {b}): witness "
                f"({w.u1}, {w.u2}, {w.v}) has colors "
                f"({color[w.u1]}, {color[w.u2]}, {color[w.v]})"
            )
        connectors[(a, b)] = (u, w.v) if u < w.v else (w.v, u)
    base = ExpansionCertificate(
        tuple(ExpansionTree(tr.vertices, tr.edges) for tr in lifted), connectors
    )
    return OddExpansionCertificate(base, color)


class ReductionReport(Record):
    """Outcome of the full pipeline on one graph for one t."""

    g: Graph
    t: int
    partition: BcpPartition
    quotient: QuotientGraph
    certificate: OddExpansionCertificate | None
    verification_passed: bool | None
    chi_h: int | None
    composed: Coloring | None

    def render(self) -> str:
        q = self.quotient
        out = [
            f"graph: {self.g.n} vertices, {self.g.m} edges",
            f"partition: {len(self.partition)} parts",
        ]
        if len(self.partition):
            out.append(render_partition(self.partition).rstrip("\n"))
        out.append(f"quotient: {q.h.n} vertices, {q.h.m} edges")
        if self.certificate is not None:
            out.append(f"K{self.t}-expansion in quotient: found")
            out.append(f"lifted odd K{self.t}-expansion:")
            out.append(render_certificate(self.certificate).rstrip("\n"))
            out.append(
                "verification: " + ("PASS" if self.verification_passed else "FAIL")
            )
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
    p = compute_partition(g)
    q = build_quotient(g, p)
    cert_h = find_expansion(q.h, t, max_nodes=max_nodes)
    if cert_h is not None:
        cert = lift_expansion(g, q, cert_h)
        passed = verify_odd_expansion(g, cert).passed
        return ReductionReport(g, t, p, q, cert, passed, None, None)
    c_h = color_exact(q.h, max_nodes=max_nodes)
    composed = compose_coloring(q, c_h)
    if not verify_coloring(g, composed).passed:
        raise InvariantViolation("composed coloring is not proper")
    return ReductionReport(g, t, p, q, None, None, c_h.palette, composed)
