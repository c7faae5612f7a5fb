"""Expansion finders (with their pruning) and the independent verifiers."""

import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddminors.minors as minors
from corpus import SEARCH_GRAPHS, all_graphs_on_5, partial_k_tree, search_node_totals, small_corpus
from oddminors import (
    BudgetExceeded,
    ContractViolation,
    ExpansionCertificate,
    ExpansionTree,
    Graph,
    OddExpansionCertificate,
    ParseError,
    complete,
    complete_bipartite,
    cycle,
    find_expansion,
    find_odd_expansion,
    gnp,
    parse_certificate,
    petersen,
    render_certificate,
    verify_expansion,
    verify_odd_expansion,
)
from oddminors.errors import DEFAULT_MAX_NODES
from oracles import (
    FROZEN_MAX_ASSIGNMENTS,
    brute_is_bipartite,
    colorable,
    count_calls,
    frozen_certify,
    frozen_search,
    has_odd_expansion_naive,
    naive_find_branch_sets,
    two_core,
)

BUDGET = FROZEN_MAX_ASSIGNMENTS
NON_LEAST_CONNECTOR_K4 = Graph(
    6, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)]
)
OCTAHEDRON = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2])
# Holds a K4 but no odd K4; no t - 3 = 1 deleted vertex makes it bipartite,
# so the odd search has to run (42 search calls) to say so.
PLAIN_BUT_NO_ODD_K4 = Graph(
    7, [(0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)]
)
# K4 on {3, 4, 5, 6} and the triangle {0, 1, 2}, with 0 joined to 3 and 4
# and 1 to 5 and 6.  Its only odd K5 maps need a class {0, 1, 2} colored
# other than by the depth parity of its breadth-first tree.
K4_AND_TRIANGLE = Graph(7, [
    (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    (0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6),
])
# The other 7-vertex graph, up to isomorphism, with such an odd K5.
K4_AND_TRIANGLE_PLUS_TWO = Graph(7, [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
    (4, 5), (4, 6), (5, 6),
])


def in_search_family(g, class_masks):
    """Whether the search visits this valid map at all: for t >= 3 every
    class keeps to the 2-core."""
    if len(class_masks) < 3:
        return True
    core = two_core(g)
    return all(v in core for mask in class_masks for v in range(g.n) if mask >> v & 1)


def recorder():
    """A stand-in certificate builder that logs each leaf's class masks
    (and ignores the search's budget and coloring lists)."""
    leaves = []

    def record(g, class_masks, odd, *budget):
        leaves.append(tuple(class_masks))
        return None

    return leaves, record


def tree(vertices, edges=()):
    return ExpansionTree(frozenset(vertices), frozenset(edges))


def k3_singletons():
    return ExpansionCertificate(
        (tree({0}), tree({1}), tree({2})),
        {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 2)},
    )


class TestVerifyExpansion:
    def test_k3_is_its_own_expansion(self):
        assert verify_expansion(complete(3), k3_singletons()).passed

    @pytest.mark.parametrize(
        "trees,connectors,failure",
        [
            ((), {}, "certificate has no trees"),
            ((tree({0}), tree(())), {(0, 1): (0, 1)}, "tree 2 is empty"),
            ((tree({0, 5}, {(0, 5)}),), {}, "tree 1 contains out-of-range vertex 5"),
            ((tree({0, 1}, {(0, 1), (1, 2)}),), {}, "tree 1 edge (1, 2) leaves its vertex set"),
            (
                (tree({0}), tree({1})),
                {(0, 1): (0, 1), (0, 2): (0, 2)},
                "connector for pair (1, 3) does not match any tree pair",
            ),
        ],
    )
    def test_names_each_clause(self, trees, connectors, failure):
        report = verify_expansion(complete(3), ExpansionCertificate(trees, connectors))
        assert failure in report.failures

    def test_connector_must_join_its_trees(self):
        cert = k3_singletons()
        cert.connectors[(0, 1)] = (0, 2)
        report = verify_expansion(complete(3), cert)
        assert any("does not join tree 1 to tree 2" in f for f in report.failures)

    def test_c5_two_path_trees(self):
        cert = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({2, 3}, {(2, 3)})),
            {(0, 1): (1, 2)},
        )
        assert verify_expansion(cycle(5), cert).passed

    def test_flags_overlapping_trees(self):
        cert = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({1, 2}, {(1, 2)})), {(0, 1): (1, 2)}
        )
        report = verify_expansion(complete(3), cert)
        assert any("shares vertex 1" in f for f in report.failures)

    def test_flags_non_tree_edge_count(self):
        cert = ExpansionCertificate((tree({0, 1, 2}, {(0, 1)}),), {})
        report = verify_expansion(complete(3), cert)
        assert any("not a spanning tree" in f for f in report.failures)

    def test_flags_disconnected_tree(self):
        # Right edge count, but a triangle plus an isolated vertex.
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        cert = ExpansionCertificate(
            (tree({0, 1, 2, 3}, {(0, 1), (1, 2), (0, 2)}),), {}
        )
        report = verify_expansion(g, cert)
        assert any("not connected by its edges" in f for f in report.failures)

    def test_flags_missing_connector(self):
        cert = ExpansionCertificate((tree({0}), tree({1})), {})
        report = verify_expansion(complete(2), cert)
        assert any("has no connector" in f for f in report.failures)

    def test_flags_non_edge_connector(self):
        cert = ExpansionCertificate(
            (tree({0}), tree({2})), {(0, 1): (0, 2)}
        )
        report = verify_expansion(Graph(3, [(0, 1), (1, 2)]), cert)
        assert any("non-edge" in f for f in report.failures)

    def test_flags_tree_edge_outside_graph(self):
        cert = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({2})),
            {(0, 1): (1, 2)},
        )
        report = verify_expansion(Graph(3, [(1, 2), (0, 2)]), cert)
        assert any("not an edge of the graph" in f for f in report.failures)


class TestVerifyOddExpansion:
    def test_k4_singletons_all_one_color(self):
        base = ExpansionCertificate(
            tuple(tree({v}) for v in range(4)),
            {(a, b): (a, b) for a in range(4) for b in range(a + 1, 4)},
        )
        cert = OddExpansionCertificate(base, {v: 1 for v in range(4)})
        assert verify_odd_expansion(complete(4), cert).passed

    def test_bichromatic_connector_fails(self):
        base = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({2, 3}, {(2, 3)})),
            {(0, 1): (1, 2)},
        )
        cert = OddExpansionCertificate(base, {0: 1, 1: 2, 2: 1, 3: 2})
        report = verify_odd_expansion(cycle(5), cert)
        assert any("bichromatic" in f for f in report.failures)

    def test_c5_odd_k2_via_the_other_connector(self):
        base = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({3, 4}, {(3, 4)})),
            {(0, 1): (0, 4)},
        )
        cert = OddExpansionCertificate(base, {0: 1, 1: 2, 4: 1, 3: 2})
        assert verify_odd_expansion(cycle(5), cert).passed

    def test_monochromatic_tree_edge_fails(self):
        base = ExpansionCertificate(
            (tree({0, 1}, {(0, 1)}), tree({2})), {(0, 1): (1, 2)}
        )
        cert = OddExpansionCertificate(base, {0: 1, 1: 1, 2: 1})
        report = verify_odd_expansion(complete(3), cert)
        assert any("monochromatic" in f for f in report.failures)

    def test_missing_and_alien_parities_flagged(self):
        base = ExpansionCertificate((tree({0}), tree({1})), {(0, 1): (0, 1)})
        cert = OddExpansionCertificate(base, {0: 1, 2: 1})
        report = verify_odd_expansion(complete(3), cert)
        assert any("no parity" in f for f in report.failures)
        assert any("non-tree vertex 2" in f for f in report.failures)

    def test_parity_color_outside_1_and_2_flagged(self):
        cert = OddExpansionCertificate(k3_singletons(), {0: 1, 1: 1, 2: 3})
        report = verify_odd_expansion(complete(3), cert)
        assert report.failures == ("parity color of vertex 2 is 3, not 1 or 2",)


class TestFindExpansion:
    def test_k4_is_four_singletons(self):
        cert = find_expansion(complete(4), 4)
        assert [t.vertices for t in cert.trees] == [frozenset({v}) for v in range(4)]

    def test_c5_has_a_k3_minor(self):
        cert = find_expansion(cycle(5), 3)
        assert cert is not None
        assert verify_expansion(cycle(5), cert).passed
        # lexicographically first branch-set map: (1,1,1,2,3)
        assert [t.vertices for t in cert.trees] == [
            frozenset({0, 1, 2}),
            frozenset({3}),
            frozenset({4}),
        ]

    def test_trees_have_no_k3_minor(self):
        path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert find_expansion(path, 3) is None
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert find_expansion(star, 3) is None

    def test_t_larger_than_n(self):
        assert find_expansion(complete(4), 5) is None
        # Answered before the (t+1)^n size limit, which these pairs exceed.
        for finder, g, t in ((find_expansion, cycle(5), 100), (find_odd_expansion, petersen(), 11)):
            assert (t + 1) ** g.n > minors.MAX_ASSIGNMENTS
            assert finder(g, t) is None

    def test_t_must_be_positive(self):
        with pytest.raises(ContractViolation):
            find_expansion(complete(3), 0)

    def test_single_tree(self):
        cert = find_expansion(complete(1), 1)
        assert cert.trees[0].vertices == frozenset({0})
        assert cert.connectors == {}

    def test_budget_boundary(self, monkeypatch):
        # The (t+1)^n size limit is the constant MAX_ASSIGNMENTS: 4^13 maps
        # are inside it and 4^14 are not.
        assert find_expansion(cycle(13), 3) is not None
        with pytest.raises(BudgetExceeded, match="assignments"):
            find_expansion(cycle(14), 3)
        monkeypatch.setattr(minors, "MAX_ASSIGNMENTS", 4**9 - 1)
        with pytest.raises(BudgetExceeded):
            find_expansion(cycle(9), 3)
        monkeypatch.setattr(minors, "MAX_ASSIGNMENTS", 4**9)
        assert find_expansion(cycle(9), 3) is not None

    @pytest.mark.parametrize(
        "finder,g,t,searches,nodes",
        [
            (find_expansion, petersen(), 4, 25, 25),  # found
            # Restated (31 and 42/64 before) when the peel came to eliminate
            # every vertex of degree <= t - 2 and the search to skip the
            # vertices outside the 2-core.
            (find_expansion, OCTAHEDRON, 5, 20, 20),  # not found
            (find_odd_expansion, petersen(), 4, 25, 30),  # found
            (find_odd_expansion, PLAIN_BUT_NO_ODD_K4, 4, 29, 51),  # not found
        ],
    )
    def test_node_cap_counts_search_calls(self, finder, g, t, searches, nodes):
        # A node is a search call; the odd search's leaves also spend one per
        # class coloring they try and one per combination of them.
        assert count_calls(lambda: finder(g, t), minors)[1] == searches
        answer, k = count_calls(lambda: finder(g, t), minors, "spend")
        assert k == nodes
        assert finder(g, t, max_nodes=k) == answer
        with pytest.raises(BudgetExceeded, match=f"exceeded {k - 1} search nodes"):
            finder(g, t, max_nodes=k - 1)

    def test_odd_leaf_colorings_count_against_the_cap(self):
        # The odd K5 of K4_AND_TRIANGLE takes 8 search calls, and its leaves
        # try 11 class colorings and combinations: 8 nodes do not suffice.
        answer, k = count_calls(lambda: find_odd_expansion(K4_AND_TRIANGLE, 5), minors)
        assert k == 8 and verify_odd_expansion(K4_AND_TRIANGLE, answer).passed
        with pytest.raises(BudgetExceeded, match="exceeded 8 search nodes"):
            find_odd_expansion(K4_AND_TRIANGLE, 5, max_nodes=8)
        assert find_odd_expansion(K4_AND_TRIANGLE, 5, max_nodes=19) == answer
        with pytest.raises(BudgetExceeded, match="exceeded 18 search nodes"):
            find_odd_expansion(K4_AND_TRIANGLE, 5, max_nodes=18)

    def test_class_colorings_built_once_per_class(self):
        # The 81 leaves of this search hold 324 classes, 32 of them distinct;
        # each distinct class has its colorings listed once.
        g = gnp(10, 0.4, 1226)
        answer, calls = count_calls(lambda: find_odd_expansion(g, 4), minors, "_class_colorings")
        assert calls == 32 and verify_odd_expansion(g, answer).passed

    def test_memo_tables_live_for_one_search(self):
        # Each search builds its own peel verdicts and coloring lists, and
        # spends its own budget on them: two identical searches do twice
        # the work of one.
        g = gnp(10, 0.4, 1226)
        for name in ("peel", "_class_colorings", "spend"):
            once = count_calls(lambda: find_odd_expansion(g, 4), minors, name)[1]
            twice = count_calls(lambda: [find_odd_expansion(g, 4) for _ in range(2)], minors, name)[1]
            assert once > 0 and twice == 2 * once, name

    def test_three_class_cut_spares_certify(self):
        # 428 maps reached _certify before the three-class cut, and 427
        # were rejected; most held three classes whose reaches induce a
        # bipartite graph.
        g = gnp(10, 0.4, 1521)
        answer, leaves = count_calls(lambda: find_odd_expansion(g, 4), minors, "_certify")
        assert leaves <= 100 and verify_odd_expansion(g, answer).passed

    def test_peel_bound_cuts_a_search_that_finds(self):
        # A K4 whose search took 22,642 nodes before the peel bound.
        g = gnp(11, 0.35, 254)
        answer, k = count_calls(lambda: find_expansion(g, 4), minors)
        assert verify_expansion(g, answer).passed and k <= 100

    def test_node_totals_on_the_search_corpus(self):
        """The search's work on a fixed set, pinned: a change to the pruning
        that moves either total restates both numbers here and in CHANGES.md."""
        # (3882, 1213) before the width-(t - 2) elimination peel and the
        # search on the 2-core alone, which dropped only peeled subtrees and
        # the nodes of vertices outside the 2-core.
        assert search_node_totals() == (1739, 1119)

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_not_found_below_k5_takes_no_node(self, name, g):
        # Forests are the graphs without K3 minors, and the peel deletes
        # each K4-minor-free graph whole.  The oracle is the plain product
        # enumeration up to 6 vertices, and above that the frozen first
        # search, where the product takes a second or more per graph.
        for t in (3, 4):
            answer, k = count_calls(lambda: find_expansion(g, t), minors)
            if answer is None:
                assert k == 0, (name, t)
                if g.n <= 6:
                    assert naive_find_branch_sets(g, t) is None, (name, t)
                else:
                    assert frozen_search(g, t, BUDGET, False, frozen_certify) is None, (name, t)

    @pytest.mark.parametrize("k,t,n", [(3, 5, 9), (3, 5, 10), (4, 6, 9)])
    def test_partial_k_trees_take_no_node(self, k, t, n):
        # A partial k-tree has treewidth <= k, so no K_{k+2} minor, and its
        # elimination order peels it whole before the first node.
        for seed in range(5):
            g = partial_k_tree(n, k, 100 * n + seed)
            for finder in (find_expansion, find_odd_expansion):
                assert count_calls(lambda: finder(g, t), minors) == (None, 0), (g.sorted_edges(), t)

    @pytest.mark.parametrize("name,g", small_corpus(6))
    def test_agrees_with_naive_lex_first(self, name, g):
        for t in (1, 2, 3):
            cert = find_expansion(g, t)
            naive = naive_find_branch_sets(g, t)
            if cert is None:
                assert naive is None, (name, t)
                continue
            got = [0] * g.n
            for k, tr in enumerate(cert.trees, start=1):
                for v in tr.vertices:
                    got[v] = k
            assert tuple(got) == naive, (name, t)

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_found_certificates_verify(self, name, g):
        for t in (2, 3, 4):
            cert = find_expansion(g, t)
            if cert is not None:
                assert verify_expansion(g, cert).passed, (name, t)

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_monotone_in_t(self, name, g):
        for t in (3, 4):
            if find_expansion(g, t) is not None:
                assert find_expansion(g, t - 1) is not None, (name, t)


def relabelled(g, order):
    """g with the vertex order[j] renamed j."""
    new = {v: j for j, v in enumerate(order)}
    return Graph(g.n, [(new[u], new[v]) for u, v in g.sorted_edges()])


class TestTheoremOracles:
    """Proven cases of Hadwiger's conjecture and its odd form as oracles.

    A graph with chromatic number at least t has a K_t minor for t <= 6
    (Dirac for t <= 4, the Four Colour Theorem with Wagner for t = 5,
    Robertson, Seymour and Thomas for t = 6), and so does a graph on
    n >= t - 1 vertices with more than (t-2)n - C(t-1, 2) edges, for
    t <= 7 (Mader).  The odd form is proven for t <= 4 only (Catlin):
    chromatic number at least t gives an odd K_t.  And the paper's bound
    with f(t) = t - 1, proven for t <= 6: a graph with no odd K_t is
    2(t - 1)-colorable.
    """

    def test_chromatic_and_edge_bounds_force_a_minor(self):
        checks = [0, 0, 0, 0]
        for n in range(7, 11):
            for p in (0.3, 0.4, 0.5, 0.6):
                for seed in range(10):
                    g = gnp(n, p, 1000 * n + int(100 * p) + seed)
                    for t in range(3, 8):
                        if (t + 1) ** n > minors.MAX_ASSIGNMENTS:
                            continue
                        chromatic = t <= 6 and not colorable(g, t - 1)
                        mader = g.m > (t - 2) * n - comb(t - 1, 2)
                        if chromatic or mader:
                            assert find_expansion(g, t) is not None, (g.sorted_edges(), t)
                        checks[0] += chromatic
                        checks[1] += mader
                        checks[2] += t <= 4 and chromatic
                        if t <= 6 and find_odd_expansion(g, t) is None:
                            assert not (t <= 4 and chromatic), (g.sorted_edges(), t)
                            assert colorable(g, 2 * (t - 1)), (g.sorted_edges(), t)
                            checks[3] += 1
        # 232 chromatic, 246 Mader, 224 Catlin and 291 odd NOT FOUND checks.
        assert min(checks) >= 200, checks


class TestRelabelling:
    """Neither search's answer depends on the vertex labels.

    Only existence is compared: the certificate is the first valid map in
    id order, which a relabelling moves.
    """

    def test_reversed_and_degree_orders_keep_the_answer(self):
        found = [0, 0]
        for n in range(7, 11):
            for p in (0.25, 0.35, 0.45):
                for seed in range(17):
                    g = gnp(n, p, 3000 + 100 * n + int(100 * p) + seed)
                    orders = (
                        range(n - 1, -1, -1),
                        sorted(range(n), key=lambda v: (-g.degree(v), v)),
                    )
                    for t in (3, 4, 5):
                        for k, finder in enumerate((find_expansion, find_odd_expansion)):
                            want = finder(g, t) is not None
                            found[k] += want
                            for order in orders:
                                got = finder(relabelled(g, order), t) is not None
                                assert got == want, (finder.__name__, g.sorted_edges(), t, list(order))
        # Both answers occur: of 612 graph and t pairs, 309 hold a K_t and
        # 261 an odd one.
        assert found == [309, 261]


class TestSearchAgainstFrozen:
    """The pruned search against a frozen copy of the first one.

    With a certificate builder that accepts nothing, both searches run to
    the end.  The frozen one reaches every valid branch-set map; the pruned
    one reaches those of in_search_family, in the same order, and each
    earlier map of the frozen sequence stands for every map it drops.
    """

    @pytest.mark.parametrize("name,g", small_corpus(8) + SEARCH_GRAPHS)
    def test_same_valid_maps_in_the_same_order(self, name, g, monkeypatch):
        for t in (2, 3, 4, 5):
            new, record = recorder()
            monkeypatch.setattr(minors, "_certify", record)
            assert find_expansion(g, t) is None
            old, record_frozen = recorder()
            assert frozen_search(g, t, BUDGET, False, record_frozen) is None
            assert new == [m for m in old if in_search_family(g, m)], (name, t)

    @pytest.mark.parametrize("name,g", small_corpus(8) + SEARCH_GRAPHS)
    def test_odd_search_certifies_only_the_maps_it_accepts(self, name, g, monkeypatch):
        # The odd search skips the subtrees that the parity cut proves hold
        # no odd model, so it offers _certify an in-family subsequence of
        # the frozen maps, dropping only maps that _certify rejects.
        certify = minors._certify
        for t in (3, 4, 5):
            new, record = recorder()
            monkeypatch.setattr(minors, "_certify", record)
            assert find_odd_expansion(g, t) is None
            old, record_frozen = recorder()
            frozen_search(g, t, BUDGET, True, record_frozen)
            family = [m for m in old if in_search_family(g, m)]
            accepted = {m for m in family if certify(g, list(m), True) is not None}
            rest = iter(family)
            assert all(m in rest for m in new), (name, t)
            today = [m for m in family if m in accepted]
            assert [m for m in new if m in accepted] == today, (name, t)
            assert accepted.isdisjoint(set(family) - set(new)), (name, t)

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_same_certificates(self, name, g):
        for t in (2, 3, 4, 5):
            assert find_expansion(g, t) == frozen_search(
                g, t, BUDGET, False, minors._certify
            ), (name, t)
            assert find_odd_expansion(g, t) == frozen_search(
                g, t, BUDGET, True, minors._certify
            ), (name, t)

    def test_pendant_vertex_leaves_the_odd_certificate_as_it_is(self):
        # No model uses a vertex outside the 2-core, and each map is decided
        # over every class coloring, so a pendant vertex 0 on vertex 3 of
        # K4_AND_TRIANGLE shifted by one only shifts its certificate.  So does
        # the 20-vertex pendant path 3-0-8-9-...-26, though 6^27 maps of all
        # 27 vertices exceed the size limit: the search runs on the 2-core.
        def shift(cert):
            return ExpansionCertificate(
                tuple(tree({v + 1 for v in tr.vertices}, {(u + 1, v + 1) for u, v in tr.edges})
                      for tr in cert.trees),
                {pair: (u + 1, v + 1) for pair, (u, v) in cert.connectors.items()},
            )

        base = find_odd_expansion(K4_AND_TRIANGLE, 5)
        assert base is not None
        shifted = OddExpansionCertificate(shift(base.base), {v + 1: c for v, c in base.parity.items()})
        plain = shift(find_expansion(K4_AND_TRIANGLE, 5))
        edges = [(u + 1, v + 1) for u, v in K4_AND_TRIANGLE.sorted_edges()] + [(0, 3)]
        path = [(0, 8)] + [(v, v + 1) for v in range(8, 26)]
        for g in (Graph(8, edges), Graph(27, edges + path)):
            assert find_odd_expansion(g, 5) == shifted
            assert verify_odd_expansion(g, shifted).passed
            assert find_expansion(g, 5) == plain
            assert verify_expansion(g, plain).passed

    def test_same_guards(self):
        # Both refuse a graph over the size limit: 4^14 maps at t = 3.
        assert BUDGET == minors.MAX_ASSIGNMENTS
        for search in (
            lambda g, t, odd: minors._search(g, t, DEFAULT_MAX_NODES, odd),
            lambda g, t, odd: frozen_search(g, t, BUDGET, odd, frozen_certify),
        ):
            with pytest.raises(ContractViolation):
                search(complete(3), 0, False)
            with pytest.raises(BudgetExceeded):
                search(cycle(14), 3, False)
            assert search(complete(4), 5, True) is None


class TestCertify:
    """The certificate built for one valid branch-set map."""

    @pytest.mark.parametrize("name,g", small_corpus(6) + SEARCH_GRAPHS[:15])
    def test_keeps_every_certificate_of_the_least_edge_rule(self, name, g):
        # The first builder fixed each connector to the least cross edge and
        # then tried the flips; wherever that worked, the answer is the same,
        # and every map it refused that still yields a certificate verifies.
        for t in (2, 3, 4):
            maps, record = recorder()
            frozen_search(g, t, BUDGET, True, record)
            for masks in maps:
                old = frozen_certify(g, list(masks), True)
                new = minors._certify(g, list(masks), True)
                if old is not None:
                    assert new == old, (name, t, masks)
                elif new is not None:
                    assert verify_odd_expansion(g, new).passed, (name, t, masks)

    def test_connector_need_not_be_the_least_cross_edge(self):
        masks = [0b100101, 0b10, 0b1000, 0b10000]  # {0,2,5} {1} {3} {4}
        assert frozen_certify(NON_LEAST_CONNECTOR_K4, masks, True) is None
        cert = minors._certify(NON_LEAST_CONNECTOR_K4, masks, True)
        assert verify_odd_expansion(NON_LEAST_CONNECTOR_K4, cert).passed
        assert cert.base.connectors[(0, 3)] == (4, 5)

    def test_contradictory_pairs_give_none(self):
        # C6 split into the paths 0-1, 2-3 and 4-5: each pair has one cross
        # edge, and the three relative flips it asks for sum to 1 mod 2.
        masks = [0b000011, 0b001100, 0b110000]
        assert minors._certify(cycle(6), masks, True) is None
        assert frozen_certify(cycle(6), masks, True) is None


class TestFindOddExpansion:
    def test_k4(self):
        cert = find_odd_expansion(complete(4), 4)
        assert cert is not None
        assert set(cert.parity.values()) == {1}
        assert verify_odd_expansion(complete(4), cert).passed

    def test_c4_is_bipartite_hence_none(self):
        assert find_odd_expansion(cycle(4), 3) is None

    def test_c5(self):
        cert = find_odd_expansion(cycle(5), 3)
        assert cert is not None
        assert verify_odd_expansion(cycle(5), cert).passed

    def test_big_bipartite_has_plain_but_no_odd_k4(self):
        g = complete_bipartite(4, 4)
        assert find_expansion(g, 4) is not None
        assert find_odd_expansion(g, 4) is None

    @pytest.mark.parametrize("a,b", [(5, 5), (4, 6)])
    @pytest.mark.parametrize("t", [3, 4])
    def test_bipartite_graph_takes_no_node(self, a, b, t):
        # A bipartite graph is its own witness: t - 3 deletions are not needed.
        g = complete_bipartite(a, b)
        assert count_calls(lambda: find_odd_expansion(g, t), minors) == (None, 0)

    def test_one_apex_over_a_bipartite_graph_takes_no_node(self):
        # K3,3 plus a vertex joined to all six: deleting t - 3 = 1 vertex,
        # the apex, leaves it bipartite.  The plain search finds a K4.
        g = Graph(7, [(u, 3 + v) for u in range(3) for v in range(3)] + [(v, 6) for v in range(6)])
        assert find_expansion(g, 4) is not None
        assert count_calls(lambda: find_odd_expansion(g, 4), minors) == (None, 0)

    def test_parity_cut_agrees_with_spanning_tree_oracle(self):
        """Whenever the parity cut answers at the root, no odd K_t exists.

        Three trees of an odd K_t model and their three monochromatic
        connectors close a cycle with an even number of bichromatic tree
        edges and three monochromatic ones, so an odd cycle; deleting t - 3
        vertices leaves three trees whole, so no graph that such a deletion
        makes bipartite holds an odd K_t.  The cut fired at the root when
        the plain search visits a node and the odd one none.  Checked on
        every graph on 5 vertices, one per isomorphism class for the
        oracle, and on bipartite graphs of 4-5 vertices with t - 3 apex
        vertices joined to every other vertex.
        """

        def canonical(g):
            return min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.sorted_edges()))
                for p in permutations(range(g.n))
            )

        checks = {}
        for t in (3, 4, 5):
            for g in all_graphs_on_5():
                if (
                    count_calls(lambda: find_expansion(g, t), minors)[1] > 0
                    and count_calls(lambda: find_odd_expansion(g, t), minors)[1] == 0
                ):
                    checks.setdefault((t, canonical(g)), g)
        rng = random.Random(29)
        for t, size in ((3, 4), (3, 5), (4, 4), (4, 5), (5, 4)):
            for _ in range(2):
                side = rng.sample(range(size), size)  # even and odd are the sides
                n = size + t - 3
                g = Graph(n, [
                    (u, v) for v in range(n) for u in range(v)
                    if v >= size or (side[u] ^ side[v]) & 1 and rng.random() < 0.8
                ])
                assert count_calls(lambda: find_odd_expansion(g, t), minors) == (None, 0)
                checks[t, canonical(g)] = g
        for (t, _), g in checks.items():
            assert not has_odd_expansion_naive(g, t), (g.sorted_edges(), t)

    @pytest.mark.parametrize("g", [K4_AND_TRIANGLE, K4_AND_TRIANGLE_PLUS_TWO])
    def test_odd_k5_outside_the_breadth_first_colorings(self, g):
        # Colored by the depth parity of each class's breadth-first tree
        # only, no map of these graphs admits an odd K5; another coloring
        # of a class that is not bipartite does.
        cert = find_odd_expansion(g, 5)
        assert cert is not None and verify_odd_expansion(g, cert).passed
        assert has_odd_expansion_naive(g, 5)

    @pytest.mark.parametrize("name,g", small_corpus(7))
    def test_odd_k3_iff_non_bipartite(self, name, g):
        found = find_odd_expansion(g, 3) is not None
        assert found == (not brute_is_bipartite(g)), name

    @pytest.mark.parametrize("name,g", small_corpus(7))
    def test_odd_implies_ordinary(self, name, g):
        for t in (2, 3, 4):
            if find_odd_expansion(g, t) is not None:
                assert find_expansion(g, t) is not None, (name, t)

    @pytest.mark.parametrize("mask_step", [17])
    def test_agrees_with_spanning_tree_oracle(self, mask_step):
        # The oracle enumerates all spanning trees, not just breadth-first
        # ones; on five vertices the two searches must coincide.
        for g in all_graphs_on_5()[::mask_step]:
            for t in (2, 3):
                got = find_odd_expansion(g, t) is not None
                assert got == has_odd_expansion_naive(g, t), (g.sorted_edges(), t)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_agrees_with_spanning_tree_oracle_on_six_vertices(self, p):
        for seed in range(20):
            g = gnp(6, p, 8000 + seed)
            for t in (3, 4):
                got = find_odd_expansion(g, t) is not None
                assert got == has_odd_expansion_naive(g, t), (g.sorted_edges(), t)

    def test_finds_an_odd_k4_needing_a_non_least_connector(self):
        # No flip vector makes the least cross edges of this map all
        # monochromatic: a finder that fixes connectors first answers None.
        cert = find_odd_expansion(NON_LEAST_CONNECTOR_K4, 4)
        assert cert is not None
        assert verify_odd_expansion(NON_LEAST_CONNECTOR_K4, cert).passed
        assert [sorted(tr.vertices) for tr in cert.base.trees] == [[0, 2, 5], [1], [3], [4]]
        assert has_odd_expansion_naive(NON_LEAST_CONNECTOR_K4, 4)

    @pytest.mark.parametrize("name,g", small_corpus(8))
    def test_found_certificates_verify(self, name, g):
        for t in (2, 3):
            cert = find_odd_expansion(g, t)
            if cert is not None:
                assert verify_odd_expansion(g, cert).passed, (name, t)


class TestCertificateFormat:
    def test_exact_bytes(self):
        cert = find_expansion(cycle(5), 3)
        assert render_certificate(cert) == (
            "trees 3\n"
            "T 1: 0,1,2 / 0-1,1-2\n"
            "T 2: 3 /\n"
            "T 3: 4 /\n"
            "conn 1 2 : 2 3\n"
            "conn 1 3 : 0 4\n"
            "conn 2 3 : 3 4\n"
        )

    def test_round_trip_plain(self):
        for g, t in ((cycle(5), 3), (complete(5), 4), (complete(1), 1)):
            cert = find_expansion(g, t)
            parsed = parse_certificate(render_certificate(cert))
            assert parsed == cert

    def test_round_trip_odd(self):
        for g, t in ((cycle(5), 3), (complete(4), 4), (cycle(7), 2)):
            cert = find_odd_expansion(g, t)
            parsed = parse_certificate(render_certificate(cert))
            assert parsed == cert

    @given(st.data(), st.integers(min_value=1, max_value=4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, data, t, odd):
        n = data.draw(st.integers(min_value=1, max_value=7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ())
        cert = (find_odd_expansion if odd else find_expansion)(g, t)
        if cert is not None:
            assert parse_certificate(render_certificate(cert)) == cert

    def test_comments_and_blanks_tolerated(self):
        text = "# header\ntrees 2\n\nT 1: 0 /\nT 2: 1 /\nconn 1 2 : 0 1\n"
        cert = parse_certificate(text)
        assert len(cert.trees) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "trees 0\n",
            "trees 2\nT 1: 0 /\n",  # missing tree
            "trees 1\nT 2: 0 /\n",  # label out of order
            "trees 2\nT 1: 0 /\nT 2: 1 /\nconn 2 1 : 0 1\n",  # s >= s'
            "trees 2\nT 1: 0 /\nT 2: 1 /\nconn 1 2 : 0 1\nconn 1 2 : 0 1\n",
            "trees 1\nT 1: 0 /\nparity 0 : 3\n",
            "trees 1\nT 1: 0 /\nparity 0 : 1\nparity 0 : 2\n",
            "trees 1\nT 1: 0 /\nparity 0 : 1\nconn 1 2 : 0 1\n",  # section order
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_certificate(text)

    @pytest.mark.parametrize(
        "tree,message",
        [
            ("T 1: 0,,1 / 0-1", "cannot parse certificate line 'T 1: 0,,1 / 0-1'"),
            ("T 1: 0,1, / 0-1", "cannot parse certificate line 'T 1: 0,1, / 0-1'"),
            ("T 1: 0,1 / 0-1,,", "cannot parse certificate line 'T 1: 0,1 / 0-1,,'"),
            ("T 1: 0,1 / ,0-1", "cannot parse certificate line 'T 1: 0,1 / ,0-1'"),
            ("T 1: 0,0 /", "vertex 0 repeated"),
            ("T 1: 0,1,2,1 / 0-1", "vertex 1 repeated"),
            ("T 1: 0,1 / 0-1,0-1", "edge 0-1 repeated"),
            ("T 1: 0,1 / 0-1,1-0", "edge 0-1 repeated"),
        ],
    )
    def test_tree_fields_follow_the_id_rule(self, tree, message):
        # An empty token is malformed, and no vertex or edge repeats in its field.
        with pytest.raises(ParseError) as info:
            parse_certificate(f"# two trees\ntrees 2\n{tree}\nT 2: 3 /\n")
        assert str(info.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        "tree,vertices,edges",
        [
            ("T 1: /", set(), set()),
            ("T 1: 0 /", {0}, set()),
            ("T 1: 0", {0}, set()),
            ("T 1:  0 , 1  /  1 - 0 ", {0, 1}, {(0, 1)}),
        ],
    )
    def test_empty_and_spaced_tree_fields_parse(self, tree, vertices, edges):
        # A field that is empty as a whole is no token; spaces around a token are allowed.
        tree_read = parse_certificate(f"trees 1\n{tree}\n").trees[0]
        assert (tree_read.vertices, tree_read.edges) == (vertices, edges)
