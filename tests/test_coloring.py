"""Exact and greedy coloring, the doubled composition, and the format."""

import pytest
from hypothesis import given

import oddminors.coloring as coloring
from corpus import small_corpus
from oddminors import (
    BudgetExceeded,
    Coloring,
    ContractViolation,
    Graph,
    ParseError,
    build_quotient,
    color_exact,
    color_heuristic,
    complete,
    compose_coloring,
    compute_partition,
    cycle,
    gnp,
    parse_coloring,
    petersen,
    render_coloring,
    verify_coloring,
)
from oracles import brute_chromatic_number, count_calls
from test_partition import graphs


class TestColorExact:
    @pytest.mark.parametrize(
        "g,chi",
        [
            (complete(4), 4),
            (cycle(5), 3),
            (cycle(6), 2),
            (petersen(), 3),
            (Graph(5), 1),
            (Graph(0), 0),
        ],
    )
    def test_known_chromatic_numbers(self, g, chi):
        c = color_exact(g)
        assert c.palette == chi
        assert verify_coloring(g, c).passed

    @pytest.mark.parametrize("name,g", small_corpus(7))
    def test_agrees_with_brute_force(self, name, g):
        assert color_exact(g).palette == brute_chromatic_number(g), name

    @pytest.mark.parametrize("name,g", small_corpus(12))
    def test_proper_and_deterministic(self, name, g):
        c1, c2 = color_exact(g), color_exact(g)
        assert c1 == c2, name
        assert verify_coloring(g, c1).passed, name

    def test_vertex_budget(self):
        # There is no vertex budget: graph size alone never refuses.
        assert color_exact(Graph(17)).palette == 1
        assert color_exact(cycle(40), max_nodes=0).palette == 2

    @pytest.mark.parametrize("g", [petersen(), gnp(40, 0.2, 0)])
    def test_node_cap_counts_search_calls(self, g):
        answer, k = count_calls(lambda: color_exact(g), coloring)
        assert k > 1
        assert color_exact(g, max_nodes=k) == answer
        with pytest.raises(BudgetExceeded, match=f"exceeded {k - 1} search nodes"):
            color_exact(g, max_nodes=k - 1)

    def test_node_budget(self):
        # Petersen needs actual branching: the clique bound is 2, chi is 3.
        # (Saturation pruning proves chi > 2 in three nodes, so cap at two.)
        with pytest.raises(BudgetExceeded, match="nodes"):
            color_exact(petersen(), max_nodes=2)

    def test_budget_is_a_hard_cap_not_a_fallback(self):
        g = petersen()
        color_exact(g, max_nodes=3_000_000)  # sanity: passes with room


class TestColorHeuristic:
    def test_edgeless(self):
        assert color_heuristic(Graph(5)).palette == 1

    def test_clique(self):
        assert color_heuristic(complete(4)).palette == 4

    def test_c5_tie_break_trace(self):
        # 0 starts (degree tie, lowest id), neighbors saturate, the greedy
        # walks the cycle and ends up spending a third color.
        assert color_heuristic(cycle(5)).colors == (0, 1, 0, 1, 2)

    @pytest.mark.parametrize("name,g", small_corpus(12))
    def test_never_beats_exact_and_stays_proper(self, name, g):
        c = color_heuristic(g)
        assert verify_coloring(g, c).passed, name
        assert c.palette >= color_exact(g).palette, name


class TestComposeColoring:
    def test_c5_pipeline(self):
        g = cycle(5)
        q = build_quotient(g, compute_partition(g))
        c_h = color_exact(q.h)
        assert c_h.palette == 2
        composed = compose_coloring(q, c_h)
        assert verify_coloring(g, composed).passed
        assert composed.palette <= 4

    def test_edgeless_compacts_to_one_color(self):
        g = Graph(3)
        q = build_quotient(g, compute_partition(g))
        composed = compose_coloring(q, color_exact(q.h))
        assert composed.colors == (0, 0, 0)

    def test_k5_pipeline_uses_five_or_six(self):
        g = complete(5)
        q = build_quotient(g, compute_partition(g))
        composed = compose_coloring(q, color_exact(q.h))
        assert verify_coloring(g, composed).passed
        assert 5 <= composed.palette <= 6

    def test_rejects_improper_quotient_coloring(self):
        g = complete(5)
        q = build_quotient(g, compute_partition(g))
        with pytest.raises(ContractViolation):
            compose_coloring(q, Coloring((0, 0, 0)))

    def test_colors_are_compacted(self):
        for name, g in small_corpus(10):
            q = build_quotient(g, compute_partition(g))
            composed = compose_coloring(q, color_exact(q.h))
            assert set(composed.colors) == set(range(composed.palette)), name

    @pytest.mark.parametrize("name,g", small_corpus(14))
    def test_factor_two_bound(self, name, g):
        q = build_quotient(g, compute_partition(g))
        c_h = color_exact(q.h)
        assert compose_coloring(q, c_h).palette <= 2 * c_h.palette, name


class TestVerifyColoring:
    def test_flags_monochromatic_edge(self):
        report = verify_coloring(complete(3), Coloring((0, 0, 1)))
        assert not report.passed
        assert "monochromatic" in report.failures[0]

    def test_flags_wrong_length(self):
        report = verify_coloring(complete(3), Coloring((0, 1)))
        assert any("covers" in f for f in report.failures)


class TestSerialization:
    def test_render_shape(self):
        text = render_coloring(color_exact(cycle(5)))
        assert text == "palette 3\n0 0\n1 1\n2 0\n3 1\n4 2\n"

    @pytest.mark.parametrize("g", [cycle(5), complete(6), Graph(4), petersen()])
    def test_round_trip(self, g):
        c = color_exact(g)
        assert parse_coloring(render_coloring(c)) == c

    @given(graphs())
    def test_round_trip_heuristic_and_composed(self, g):
        q = build_quotient(g, compute_partition(g))
        for c in (color_heuristic(g), compose_coloring(q, color_exact(q.h))):
            assert parse_coloring(render_coloring(c)) == c

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_coloring("")
        with pytest.raises(ParseError):
            parse_coloring("palette 2\n0 0\n2 1\n")  # skipped vertex 1
        with pytest.raises(ParseError):
            parse_coloring("palette 3\n0 0\n1 1\n")  # header lies

    # Each message exactly; an error about the whole text has no line number.
    PARSE_ERRORS = [
        ("palette 1\n# c\n0 0\n2 0\n", "line 4: expected vertex 1, got 2"),
        ("palette 1\n\n0 x\n", "line 3: cannot parse color line '0 x'"),
        ("colors 2\n0 0\n", "line 1: expected 'palette k', got 'colors 2'"),
        ("palette 2 3\n", "line 1: expected 'palette k', got 'palette 2 3'"),
        ("# only\n", "coloring is empty"),
        ("palette 3\n0 0\n1 1\n", "header claims palette 3, lines use 2"),
    ]

    @pytest.mark.parametrize("text,message", PARSE_ERRORS)
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_coloring(text)
        assert str(exc.value) == message
