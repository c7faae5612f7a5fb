"""Lifting quotient expansions back to odd expansions of the base graph."""

from collections import Counter

import pytest

import oddminors.lifting as lifting
from corpus import small_corpus
from oddminors import (
    BcpPartition,
    BudgetExceeded,
    Coloring,
    ContractViolation,
    ExpansionCertificate,
    ExpansionTree,
    Graph,
    InvariantViolation,
    OddExpansionCertificate,
    QuotientGraph,
    StructureError,
    TwoSides,
    WitnessTriple,
    build_quotient,
    complete,
    compute_partition,
    cycle,
    find_expansion,
    find_odd_expansion,
    gnp,
    lift_expansion,
    reduction_report,
    render_edge_list,
    verify_coloring,
    verify_odd_expansion,
)
from oddminors.cli import run


def pipeline(g):
    p = compute_partition(g)
    return build_quotient(g, p)


class TestLiftTree:
    """Each lifted tree is the union of its parts: a breadth-first tree per
    part, joined by the least G-edge per quotient tree edge, 2-colored from
    the least vertex of its least part."""

    def test_c5_tree_spans_first_part(self):
        g = cycle(5)
        q = pipeline(g)  # parts {0,1,2,3}, {4}
        cert_h = ExpansionCertificate(
            (ExpansionTree(frozenset({0}), frozenset()), ExpansionTree(frozenset({1}), frozenset())),
            {(0, 1): (0, 1)},
        )
        cert = lift_expansion(g, q, cert_h)
        first = cert.base.trees[0]
        assert first.vertices == frozenset({0, 1, 2, 3})
        assert first.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert {v: cert.parity[v] for v in first.vertices} == {0: 1, 1: 2, 2: 1, 3: 2}

    def test_two_part_tree_uses_least_cross_edge(self):
        g = complete(5)
        q = pipeline(g)  # parts {0,1}, {2,3}, {4}
        h_tree = ExpansionTree(frozenset({0, 1}), frozenset({(0, 1)}))
        cert = lift_expansion(g, q, ExpansionCertificate((h_tree,), {}))
        (lifted,) = cert.base.trees
        assert lifted.vertices == frozenset({0, 1, 2, 3})
        assert lifted.vertices == q.partition.members(0) | q.partition.members(1)
        assert (0, 2) in lifted.edges
        assert cert.parity[0] == 1


class TestLiftExpansion:
    def test_k5(self):
        g = complete(5)
        q = pipeline(g)
        cert_h = find_expansion(q.h, 3)
        cert = lift_expansion(g, q, cert_h)
        assert [t.vertices for t in cert.base.trees] == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
        ]
        assert cert.base.connectors == {(0, 1): (0, 2), (0, 2): (0, 4), (1, 2): (2, 4)}
        assert verify_odd_expansion(g, cert).passed

    def test_c5(self):
        g = cycle(5)
        q = pipeline(g)
        cert = lift_expansion(g, q, find_expansion(q.h, 2))
        t1, t2 = cert.base.trees
        assert t1.vertices == frozenset({0, 1, 2, 3})
        assert t2.vertices == frozenset({4})
        assert cert.base.connectors == {(0, 1): (0, 4)}
        assert cert.parity[0] == cert.parity[4] == 1
        assert verify_odd_expansion(g, cert).passed

    def test_rejects_invalid_quotient_certificate(self):
        g = complete(5)
        q = pipeline(g)
        bogus = ExpansionCertificate(
            (ExpansionTree(frozenset({0}), frozenset()),
             ExpansionTree(frozenset({0}), frozenset())),
            {(0, 1): (0, 1)},
        )
        with pytest.raises(ContractViolation, match="fails verification"):
            lift_expansion(g, q, bogus)

    def test_disconnected_part_raises(self):
        # A hand-built quotient whose part {0, 1, 3} is not connected in g:
        # the part's breadth-first tree cannot span it.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        parts = (TwoSides((0, 3), (1,)), TwoSides((2,), ()))
        q = QuotientGraph(Graph(2, [(0, 1)]), {}, BcpPartition(parts))
        cert_h = ExpansionCertificate((ExpansionTree(frozenset({0}), frozenset()),), {})
        with pytest.raises(StructureError, match="induces a disconnected subgraph"):
            lift_expansion(g, q, cert_h)

    def test_doctored_witness_trips_invariant(self):
        g = cycle(5)
        q = pipeline(g)
        # u1 = u2 kills the opposite-sides guarantee: 3 is colored 2,
        # its neighbor 4 is colored 1, so neither edge is monochromatic and
        # the lift's own verification refuses the bichromatic connector.
        q.witnesses[(0, 1)] = WitnessTriple(3, 3, 4)
        with pytest.raises(InvariantViolation, match="lifted certificate fails verification"):
            lift_expansion(g, q, find_expansion(q.h, 2))

    def test_recolored_unwitnessed_vertex_is_refused(self, monkeypatch):
        # In K6's lifted K3-expansion no witness names vertex 5, so only
        # the final verification sees its flipped color; neither the
        # library nor the lift command returns the bad certificate.
        g = complete(6)
        q = pipeline(g)
        assert 5 not in {x for w in q.witnesses.values() for x in (w.u1, w.u2, w.v)}
        real = lifting.two_color_tree

        def flip_5(edges, root):
            color = real(edges, root)
            if 5 in color:
                color[5] = 3 - color[5]
            return color

        monkeypatch.setattr(lifting, "two_color_tree", flip_5)
        with pytest.raises(InvariantViolation, match="lifted certificate fails verification"):
            lift_expansion(g, q, find_expansion(q.h, 3))
        with pytest.raises(InvariantViolation, match="lifted certificate fails verification"):
            run(["lift", "-t", "3"], render_edge_list(g))

    @pytest.mark.parametrize("name,g", small_corpus(9))
    def test_lifts_verify_on_corpus(self, name, g):
        q = pipeline(g)
        for t in (2, 3, 4):
            cert_h = find_expansion(q.h, t)
            if cert_h is None:
                continue
            cert = lift_expansion(g, q, cert_h)
            assert verify_odd_expansion(g, cert).passed, (name, t)

    def test_lift_soundness_on_seeded_graphs(self):
        # Whenever the quotient holds a K_t-expansion, g holds an odd one: the
        # odd search finds one too, and the lift of the quotient's verifies.
        lifted = Counter()
        for i in range(2000):
            n, p = 7 + i % 4, 0.25 + 0.35 * (i * 37 % 100) / 99
            g = gnp(n, p, 5000 + i)
            q = pipeline(g)
            for t in (3, 4, 5):
                cert_h = find_expansion(q.h, t)
                if cert_h is not None:
                    assert find_odd_expansion(g, t) is not None, (n, p, i, t)
                    assert verify_odd_expansion(g, lift_expansion(g, q, cert_h)).passed, (n, p, i, t)
                    lifted[t] += 1
        assert lifted[3] >= 200 and lifted[4] >= 1, lifted

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_trees_absorb_whole_parts(self, name, g):
        # A lifted tree contains either all of a part or none of it, and
        # within a part the two sides get the two colors.
        q = pipeline(g)
        cert_h = find_expansion(q.h, 2)
        if cert_h is None:
            return
        cert = lift_expansion(g, q, cert_h)
        for tree in cert.base.trees:
            for i, part in enumerate(q.partition.parts):
                hit = tree.vertices & part.members
                assert hit in (frozenset(), part.members), (name, i)
                if hit:
                    a_colors = {cert.parity[v] for v in part.side_a}
                    b_colors = {cert.parity[v] for v in part.side_b}
                    assert len(a_colors) <= 1 and len(b_colors) <= 1
                    if part.side_a and part.side_b:
                        assert a_colors != b_colors, (name, i)


class TestReductionReport:
    def test_found_branch(self):
        rep = reduction_report(complete(5), 3)
        assert rep.certificate is not None
        assert verify_odd_expansion(rep.g, rep.certificate).passed
        assert rep.chi_h is None and rep.composed is None
        text = rep.render()
        assert "K3-expansion in quotient: found" in text
        assert "lifted odd K3-expansion:" in text
        assert "verification: PASS" in text

    def test_failed_lift_raises(self, monkeypatch):
        # A lift whose certificate fails verification is a bug, reported
        # like an improper composed coloring, never rendered.
        real = lifting.two_color_tree

        def flipped(edges, root):
            color = real(edges, root)
            color[root] = 3 - color[root]
            return color

        monkeypatch.setattr(lifting, "two_color_tree", flipped)
        with pytest.raises(InvariantViolation, match="lifted certificate fails verification"):
            reduction_report(complete(5), 3)

    def test_not_found_branch(self):
        rep = reduction_report(cycle(4), 3)
        assert rep.certificate is None
        assert rep.chi_h == 1
        assert rep.composed.palette == 2
        assert verify_coloring(rep.g, rep.composed).passed
        text = rep.render()
        assert "K3-expansion in quotient: not found" in text
        assert "quotient is K3-expansion-free" in text
        assert "chi(quotient) = 1" in text
        assert "palette 2 <= 2 = 2*chi(quotient)" in text

    def test_empty_graph(self):
        rep = reduction_report(Graph(0, []), 2)
        assert rep.certificate is None
        assert rep.composed.palette == 0
        assert "partition: 0 parts" in rep.render()

    def test_quotient_palette_above_t_minus_1_raises(self, monkeypatch):
        # Two disjoint edges contract to two quotient vertices and no edge, so
        # no K2 is found; a colorer that gives them two colors contradicts
        # the proven case t = 2 of Hadwiger's conjecture.
        g = Graph(4, [(0, 1), (2, 3)])
        assert reduction_report(g, 2).chi_h == 1
        monkeypatch.setattr(lifting, "color_exact", lambda h, max_nodes: Coloring(tuple(range(h.n))))
        with pytest.raises(InvariantViolation, match=r"chi\(quotient\) = 2 > t - 1"):
            reduction_report(g, 2)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            reduction_report(complete(5), 3, max_nodes=1)

    def test_misspelled_budget_is_an_error(self):
        # max_nodes is the only budget; the two removed ones are unknown too.
        for name in ("max_node", "max_vertices", "max_assignments"):
            with pytest.raises(TypeError):
                reduction_report(complete(5), 3, **{name: 1})

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_dichotomy_on_corpus(self, name, g):
        rep = reduction_report(g, 3)
        if rep.certificate is not None:
            assert verify_odd_expansion(rep.g, rep.certificate).passed, name
        else:
            assert rep.composed.palette <= 2 * rep.chi_h, name
