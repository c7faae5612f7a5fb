"""Quotient construction, contraction checking, witness storage, format."""

import pytest
from hypothesis import given, settings

from corpus import small_corpus
from oddminors import (
    BcpPartition,
    Graph,
    ParseError,
    QuotientGraph,
    StructureError,
    TwoSides,
    WitnessTriple,
    build_quotient,
    complete,
    compute_partition,
    cycle,
    parse_partition,
    parse_quotient,
    render_quotient,
    verify_partition,
    verify_quotient,
)
from test_partition import graphs, sides


def quotient_of(g):
    return build_quotient(g, compute_partition(g))


class TestBuildQuotient:
    def test_c5_contracts_to_k2(self):
        q = quotient_of(cycle(5))
        assert q.h == Graph(2, [(0, 1)])
        assert q.witnesses[(0, 1)] == WitnessTriple(0, 3, 4)

    def test_k5_contracts_to_k3(self):
        q = quotient_of(complete(5))
        assert q.h == complete(3)
        assert q.witnesses[(0, 1)] == WitnessTriple(0, 1, 2)
        assert q.witnesses[(0, 2)] == WitnessTriple(0, 1, 4)
        assert q.witnesses[(1, 2)] == WitnessTriple(2, 3, 4)

    def test_bipartite_graph_is_one_part(self):
        q = quotient_of(cycle(6))
        assert q.h == Graph(1)
        assert q.witnesses == {}

    def test_rejects_invalid_partition(self):
        bad = BcpPartition((TwoSides(frozenset({0}), frozenset()),))
        with pytest.raises(StructureError):
            build_quotient(complete(3), bad)

    @pytest.mark.parametrize("name,g", small_corpus(12))
    def test_corpus_contraction_check(self, name, g):
        q = quotient_of(g)
        assert verify_quotient(g, q).passed, name


class TestContractionCheck:
    def test_detects_missing_edge(self):
        q = quotient_of(complete(5))
        doctored = type(q)(Graph(3, [(0, 1)]), q.witnesses, q.partition)
        report = verify_quotient(complete(5), doctored)
        assert any("missing" in f for f in report.failures)

    def test_detects_extra_edge(self):
        q = quotient_of(cycle(6))
        doctored = type(q)(Graph(1), q.witnesses, q.partition)
        assert verify_quotient(cycle(6), doctored).passed
        bigger = type(q)(Graph(2, [(0, 1)]), q.witnesses, q.partition)
        report = verify_quotient(cycle(6), bigger)
        assert not report.passed

    def test_edges_outside_the_partition_named_in_sorted_order(self):
        # A partition that misses vertices fails as verify_partition names
        # it, before any edge of the contraction is looked at.
        c5 = [(2, 3), (3, 4), (0, 1), (4, 0), (1, 2)]
        g = Graph(7, c5 + [(6, 1), (5, 6), (0, 5), (2, 6)])
        q = quotient_of(Graph(5, c5))
        assert verify_quotient(g, q).failures == ("uncovered vertices: [5, 6]",)

    def test_contraction_edges_named_in_sorted_order(self):
        q = quotient_of(complete(5))
        doctored = type(q)(Graph(3), {}, q.partition)
        assert verify_quotient(complete(5), doctored).failures == tuple(
            f"contraction edge {e} missing from h" for e in [(0, 1), (0, 2), (1, 2)]
        )

    @pytest.mark.parametrize(
        "g,part,failure",
        [
            (complete(3), sides([0, 1], [2]), "part 0: edge (0, 1) joins two vertices on one side"),
            (Graph(4, [(0, 1), (2, 3)]), sides([0, 2], [1, 3]), "part 0: induces 2 components, expected 1"),
        ],
        ids=["same-side-edge", "disconnected-part"],
    )
    def test_invalid_partition_fails_as_verify_partition_names_it(self, g, part, failure):
        # One part and no quotient edge: only the partition is wrong.
        p = BcpPartition((part,))
        report = verify_quotient(g, QuotientGraph(Graph(1), {}, p))
        assert failure in report.failures
        assert report == verify_partition(g, p)


class TestVerifyQuotient:
    def test_flags_wrong_side(self):
        q = quotient_of(cycle(5))
        # u1 must come from side A = {0, 2}; 1 sits on side B
        doctored = dict(q.witnesses)
        doctored[(0, 1)] = WitnessTriple(1, 3, 4)
        report = verify_quotient(cycle(5), type(q)(q.h, doctored, q.partition))
        assert any("side A" in f for f in report.failures)

    def test_flags_non_common_neighbor(self):
        q = quotient_of(complete(5))
        doctored = dict(q.witnesses)
        doctored[(0, 1)] = WitnessTriple(0, 1, 4)  # 4 is in part 2, not 1
        report = verify_quotient(complete(5), type(q)(q.h, doctored, q.partition))
        assert not report.passed

    def test_flags_missing_witness(self):
        q = quotient_of(complete(5))
        partial = {k: v for k, v in q.witnesses.items() if k != (1, 2)}
        report = verify_quotient(complete(5), type(q)(q.h, partial, q.partition))
        assert any("no witness" in f for f in report.failures)


class TestSerialization:
    def test_render_shape(self):
        assert render_quotient(quotient_of(cycle(5))) == "2\n0 1\nw 0 1 : 0 3 4\n"

    @pytest.mark.parametrize("g", [cycle(5), complete(5), complete(6), cycle(6)])
    def test_round_trip(self, g):
        q = quotient_of(g)
        h, witnesses = parse_quotient(render_quotient(q))
        assert h == q.h
        assert witnesses == q.witnesses

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, g):
        q = quotient_of(g)
        h, witnesses = parse_quotient(render_quotient(q))
        assert (h, witnesses) == (q.h, q.witnesses)
        assert verify_quotient(g, QuotientGraph(h, witnesses, compute_partition(g))).passed

    def test_user_partition_quotient_verifies_against_that_partition(self):
        # The README repro graph: contracted along a partition other than
        # the greedy one, the quotient is checked against the partition it
        # was built from.
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
        p = parse_partition("0: A=0 B=2\n1: A=1 B=3\n")
        assert p != compute_partition(g)
        h, witnesses = parse_quotient(render_quotient(build_quotient(g, p)))
        assert verify_quotient(g, QuotientGraph(h, witnesses, p)).passed

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\n")  # edge without witness
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\nw 0 1 : 0 3 4\nw 0 1 : 0 3 4\n")
        with pytest.raises(ParseError):
            parse_quotient("2\nw 0 1 : 0 3 4\n")  # witness without edge
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\nw 0 1 : banana\n")

    # Each message exactly.  Witness lines are read before the edge lines,
    # and an error about the whole text has no line number, except for the
    # edge list's missing vertex count, which is on line 1.
    PARSE_ERRORS = [
        ("2\n0 1\nw 0 1 : 0 1 2\n\n1 0\n", "line 5: edge line after witness lines"),
        ("2\n0 1\n# c\nw 0 1 : 0 1 2\nw 0 1 : 0 1 3\n", "line 5: duplicate witness for edge (0, 1)"),
        ("2\n0 1\nw 0 1 : 0 x 2\n", "line 3: cannot parse witness 'w 0 1 : 0 x 2'"),
        ("2\n0 1\n0 2\nw 0 1 : 0 1 2\n", "line 3: vertex id out of range for n=2"),
        ("w 0 1 : 0 1 2\n", "line 1: missing vertex count"),
        ("2\n0 1\n", "edges without witnesses: [(0, 1)]"),
        ("2\nw 0 1 : 0 3 4\n", "witnesses without edges: [(0, 1)]"),
    ]

    @pytest.mark.parametrize("text,message", PARSE_ERRORS)
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_quotient(text)
        assert str(exc.value) == message
