"""Quotient construction, contraction checking, witness storage, format."""

import pytest

from corpus import small_corpus
from oddminors import (
    BcpPartition,
    Graph,
    ParseError,
    StructureError,
    TwoSides,
    WitnessTriple,
    build_quotient,
    complete,
    compute_partition,
    contraction_check,
    cycle,
    parse_quotient,
    render_quotient,
    verify_quotient,
)


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
        assert contraction_check(g, q).passed, name
        assert verify_quotient(g, q).passed, name


class TestContractionCheck:
    def test_detects_missing_edge(self):
        q = quotient_of(complete(5))
        doctored = type(q)(Graph(3, [(0, 1)]), q.witnesses, q.partition)
        report = contraction_check(complete(5), doctored)
        assert any("missing" in f for f in report.failures)

    def test_detects_extra_edge(self):
        q = quotient_of(cycle(6))
        doctored = type(q)(Graph(1), q.witnesses, q.partition)
        assert contraction_check(cycle(6), doctored).passed
        bigger = type(q)(Graph(2, [(0, 1)]), q.witnesses, q.partition)
        report = contraction_check(cycle(6), bigger)
        assert not report.passed

    def test_edges_outside_the_partition_named_in_sorted_order(self):
        # The edges with an endpoint the partition lacks are named in sorted
        # order, not in the order they arrived in.
        c5 = [(2, 3), (3, 4), (0, 1), (4, 0), (1, 2)]
        g = Graph(7, c5 + [(6, 1), (5, 6), (0, 5), (2, 6)])
        q = quotient_of(Graph(5, c5))
        outside = [(0, 5), (1, 6), (2, 6), (5, 6)]
        assert contraction_check(g, q).failures == tuple(
            f"edge ({u}, {v}) has an endpoint outside the partition" for u, v in outside
        )


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

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\n")  # edge without witness
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\nw 0 1 : 0 3 4\nw 0 1 : 0 3 4\n")
        with pytest.raises(ParseError):
            parse_quotient("2\nw 0 1 : 0 3 4\n")  # witness without edge
        with pytest.raises(ParseError):
            parse_quotient("2\n0 1\nw 0 1 : banana\n")
