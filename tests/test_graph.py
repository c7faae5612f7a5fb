"""Graph type, parsers/renderers, generators, and the seeded PRNG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import (
    Graph,
    OddCycleWitness,
    ParseError,
    StructureError,
    TwoSides,
    bipartition_of,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    generate,
    gnp,
    parse_graph,
    petersen,
    render_dimacs,
    render_edge_list,
)
from oddminors.graph import SplitMix64, detect_format, parse_dimacs, parse_edge_list

MASK = (1 << 64) - 1


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, edges)


class TestGraph:
    def test_normalizes_and_dedupes(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]
        assert g.m == 2

    def test_neighbors_ascending(self):
        g = Graph(4, [(3, 1), (1, 0), (1, 2)])
        assert g.neighbors(1) == (0, 2, 3)
        assert g.degree(1) == 3
        assert g.has_edge(1, 3) and not g.has_edge(0, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(StructureError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(StructureError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(StructureError):
            Graph(-1)

    def test_equality_and_hash(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(0, 1)]))


class TestParsing:
    def test_edge_list(self):
        g = parse_edge_list("# a triangle\n3\n0 1\n\n1 2\n0 2\n")
        assert g == complete(3)

    def test_edge_list_trailing_comments(self):
        g = parse_edge_list("3  # vertices\n0 1 # note\n1 2\n0 2#\n")
        assert g == complete(3)

    def test_edge_list_errors(self):
        with pytest.raises(ParseError):
            parse_edge_list("")
        with pytest.raises(ParseError):
            parse_edge_list("two\n")
        with pytest.raises(ParseError):
            parse_edge_list("2\n0 1 2\n")
        with pytest.raises(ParseError):
            parse_edge_list("2\n0 5\n")

    def test_dimacs_remaps_to_zero_based(self):
        g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_dimacs_errors(self):
        with pytest.raises(ParseError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(ParseError):
            parse_dimacs("p edge 3 1\ne 0 1\n")

    def test_detect_format(self):
        assert detect_format("p edge 2 1\ne 1 2\n") == "dimacs"
        assert detect_format("c foo\np edge 2 0\n") == "dimacs"
        assert detect_format("2\n0 1\n") == "edge-list"

    def test_parse_graph_auto(self):
        assert parse_graph("p edge 2 1\ne 1 2\n") == Graph(2, [(0, 1)])
        assert parse_graph("2\n0 1\n") == Graph(2, [(0, 1)])

    @given(graphs())
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(render_edge_list(g)) == g

    @given(graphs())
    def test_dimacs_round_trip(self, g):
        assert parse_dimacs(render_dimacs(g)) == g


class TestGenerators:
    def test_complete(self):
        assert complete(4).m == 6
        assert complete(1).m == 0

    def test_cycle(self):
        g = cycle(5)
        assert g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(StructureError):
            cycle(2)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # girth 5: no two adjacent vertices share a neighbor, and
        # non-adjacent vertices share at most one
        for u in range(10):
            for v in range(u + 1, 10):
                common = set(g.neighbors(u)) & set(g.neighbors(v))
                assert len(common) <= (0 if g.has_edge(u, v) else 1)

    def test_generate_specs(self):
        assert generate("complete 4") == complete(4)
        assert generate("cycle 6") == cycle(6)
        assert generate("complete-bipartite 2 3") == complete_bipartite(2, 3)
        assert generate("petersen") == petersen()
        assert generate("gnp 8 0.5", seed=3) == gnp(8, 0.5, 3)

    def test_generate_rejects_garbage(self):
        with pytest.raises(ParseError):
            generate("torus 3")
        with pytest.raises(ParseError):
            generate("cycle")


def _splitmix_reference(seed, count):
    """Same constants, written out independently of the class."""
    out = []
    x = seed & MASK
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestRandom:
    @pytest.mark.parametrize("seed", [0, 1, 42, MASK])
    def test_splitmix_matches_reference(self, seed):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(5)] == _splitmix_reference(seed, 5)

    def test_unit_draws_are_unit_interval(self):
        rng = SplitMix64(7)
        draws = [rng.unit() for _ in range(100)]
        assert all(0.0 <= x < 1.0 for x in draws)

    def test_gnp_extremes(self):
        assert gnp(10, 0.0, 5).m == 0
        assert gnp(6, 1.0, 5) == complete(6)

    def test_gnp_deterministic(self):
        assert gnp(12, 0.3, 99) == gnp(12, 0.3, 99)
        assert gnp(12, 0.3, 99) != gnp(12, 0.3, 100)

    def test_gnp_consumes_one_draw_per_pair_in_lex_order(self):
        n, p, seed = 7, 0.4, 11
        draws = iter(_splitmix_reference(seed, n * (n - 1) // 2))
        expected = []
        for u in range(n):
            for v in range(u + 1, n):
                if (next(draws) >> 11) * 2.0**-53 < p:
                    expected.append((u, v))
        assert gnp(n, p, seed).sorted_edges() == expected


class TestBipartition:
    def test_even_cycle_is_bipartite(self):
        sides = bipartition_of(cycle(6), range(6))
        assert isinstance(sides, TwoSides)
        assert sides.side_a == frozenset({0, 2, 4})

    def test_min_vertex_lands_on_side_a(self):
        sides = bipartition_of(Graph(4, [(2, 3)]), [2, 3])
        assert sides.side_a == frozenset({2})

    def test_odd_cycle_yields_walk(self):
        g = cycle(5)
        witness = bipartition_of(g, range(5))
        assert isinstance(witness, OddCycleWitness)
        walk = witness.walk
        assert walk[0] == walk[-1]
        assert len(walk) % 2 == 0  # closed walk with odd edge count
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)

    def test_disconnected_subset_rejected(self):
        with pytest.raises(StructureError):
            bipartition_of(Graph(4, [(0, 1), (2, 3)]), range(4))

    @given(graphs(max_n=8))
    @settings(max_examples=60)
    def test_matches_two_coloring_oracle(self, g):
        from oracles import brute_is_bipartite

        for comp in connected_components(g, range(g.n)):
            result = bipartition_of(g, comp)
            inner = [(u, v) for u, v in g.edges if u in comp and v in comp]
            relabel = {v: k for k, v in enumerate(sorted(comp))}
            bip = brute_is_bipartite(
                Graph(len(comp), [(relabel[u], relabel[v]) for u, v in inner])
            )
            if bip:
                assert isinstance(result, TwoSides)
                for u, v in inner:
                    assert (u in result.side_a) != (v in result.side_a)
            else:
                assert isinstance(result, OddCycleWitness)


class TestComponents:
    def test_components_ordered_by_min_vertex(self):
        g = Graph(6, [(4, 5), (0, 1), (2, 1)])
        comps = connected_components(g, range(6))
        assert comps == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5})]

    def test_subset_restriction(self):
        g = cycle(6)
        comps = connected_components(g, [0, 1, 3])
        assert comps == [frozenset({0, 1}), frozenset({3})]
