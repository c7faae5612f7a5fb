"""Bipartite-connected partition: greedy extraction, verification, format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus, small_corpus
from oddminors import (
    BcpPartition,
    Graph,
    ParseError,
    StructureError,
    TwoSides,
    build_quotient,
    complete,
    compute_partition,
    cycle,
    parse_partition,
    render_partition,
    verify_partition,
)
from oracles import (
    SortedView,
    frozen_compute_partition,
    frozen_verify_partition,
    frozen_witnesses,
    is_maximal_bipartite_connected,
)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


def sides(a, b):
    return TwoSides(frozenset(a), frozenset(b))


def sparse_graph(n, m, seed):
    """G(n, m): m distinct uniform edges, at most all pairs."""
    rng = random.Random(seed)
    m = min(m, n * (n - 1) // 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def part_map(p):
    """Vertex id -> the index of the (last) part holding it."""
    return {v: i for i, part in enumerate(p.parts) for v in part.members}


def corruptions(g, p, seed):
    """One broken copy of p per kind of damage, by name."""
    rng = random.Random(seed)
    parts = [(set(part.side_a), set(part.side_b)) for part in p.parts]
    v = rng.randrange(g.n)
    home = part_map(p)[v]
    other = rng.choice([i for i in range(len(parts)) if i != home] or [home])
    out = {}

    def copy():
        return [(set(a), set(b)) for a, b in parts]

    moved = copy()
    moved[home][0].discard(v)
    moved[home][1].discard(v)
    moved[other][rng.randrange(2)].add(v)
    out["moved"] = moved

    duplicated = copy()
    duplicated[other][rng.randrange(2)].add(v)
    out["duplicated"] = duplicated

    out_of_range = copy()
    out_of_range[home][rng.randrange(2)].add(rng.choice([g.n, g.n + 5, -1]))
    out["out_of_range"] = out_of_range

    out["swapped"] = [(b, a) if i == home else (a, b) for i, (a, b) in enumerate(parts)]
    out["dropped"] = parts[:home] + parts[home + 1 :]

    a, b = parts[home]
    cut = set(sorted(a | b)[len(a | b) // 2 :])
    out["split"] = parts[:home] + [(a - cut, b - cut), (a & cut, b & cut)] + parts[home + 1 :]
    return {
        kind: BcpPartition(tuple(sides(a, b) for a, b in broken))
        for kind, broken in out.items()
    }


def assert_same_as_frozen(g):
    # The frozen verifier reads a view of g whose edges iterate in sorted
    # order, the order in which verify_partition names same-side edges.
    p = compute_partition(g)
    assert p == frozen_compute_partition(g)
    assert verify_partition(g, p) == frozen_verify_partition(SortedView(g), p)
    q = build_quotient(g, p)
    assert {e: (w.u1, w.u2, w.v) for e, w in q.witnesses.items()} == frozen_witnesses(g, p)
    if g.n:
        for kind, broken in corruptions(g, p, g.n + g.m).items():
            new, old = verify_partition(g, broken), frozen_verify_partition(SortedView(g), broken)
            assert new == old, kind


def more_corruptions(g, p, seed):
    """Further broken copies of p, by name, for the kinds of damage that
    take the verifier's less common paths.  A kind the partition cannot
    show (no part with an inner edge, say) is left out."""
    rng = random.Random(seed)
    parts = [(set(part.side_a), set(part.side_b)) for part in p.parts]
    part_of = part_map(p)
    giant = max(range(len(parts)), key=lambda i: len(parts[i][0]) + len(parts[i][1]))
    out = {"empty_appended": parts + [(set(), set())]}

    def copy():
        return [(set(a), set(b)) for a, b in parts]

    def move(broken, i, v):
        a, b = broken[i]
        src, dst = (a, b) if v in a else (b, a)
        src.remove(v)
        dst.add(v)

    a, b = parts[giant]
    inner = sorted(v for v in a | b if any(w in a | b for w in g.neighbors(v)))
    if inner:
        # Moving a vertex across puts it on one side with its part-neighbors.
        broken = copy()
        move(broken, giant, rng.choice([v for v in inner if v != min(a | b)] or inner))
        out["same_side_in_giant"] = broken
        broken = copy()
        move(broken, giant, min(a | b))
        out["least_on_side_b"] = broken
    broken = copy()
    v = rng.randrange(g.n)
    home = part_of[v]
    broken[home][1 - (v in parts[home][1])].add(v)
    out["overlap"] = broken

    # A vertex in two parts, on one side with a part-neighbor in each.
    for x in rng.sample(range(g.n), g.n):
        home = part_of[x]
        mates = [w for w in g.neighbors(x) if part_of[w] == home]
        others = [w for w in g.neighbors(x) if part_of[w] != home]
        if mates and others:
            broken = copy()
            move(broken, home, x)
            z = rng.choice(others)
            there = part_of[z]
            broken[there][z in parts[there][1]].add(x)
            out["repeated_same_side"] = broken
            break
    return {
        kind: BcpPartition(tuple(sides(a, b) for a, b in broken))
        for kind, broken in out.items()
    }


def assert_more_corruptions_as_frozen(g):
    p = compute_partition(g)
    for kind, broken in more_corruptions(g, p, g.n + g.m).items():
        new = verify_partition(g, broken)
        assert new == frozen_verify_partition(SortedView(g), broken), kind
        assert not new.passed, kind
        with pytest.raises(StructureError, match="partition fails verification"):
            build_quotient(g, broken)


class TestComputePartition:
    def test_c5_absorbs_greedily_from_lowest_id(self):
        # seed {0}; 1 and 3 join side B via vertex 0, then 2 joins side A
        # through 1 and 3; vertex 4 would sit adjacent to both sides.
        p = compute_partition(cycle(5))
        assert [part.members for part in p.parts] == [
            frozenset({0, 1, 2, 3}),
            frozenset({4}),
        ]
        assert p.parts[0].side_a == frozenset({0, 2})
        assert p.parts[0].side_b == frozenset({1, 3})

    def test_k5_extracts_edges_then_leftover(self):
        p = compute_partition(complete(5))
        assert [part.members for part in p.parts] == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
        ]

    def test_even_cycle_is_one_part(self):
        p = compute_partition(cycle(8))
        assert len(p) == 1
        assert p.parts[0].side_a == frozenset({0, 2, 4, 6})

    def test_edgeless_gives_singletons(self):
        p = compute_partition(Graph(4))
        assert [part.members for part in p.parts] == [
            frozenset({v}) for v in range(4)
        ]

    def test_empty_graph(self):
        assert len(compute_partition(Graph(0))) == 0

    def test_deterministic(self):
        g = complete(6)
        assert compute_partition(g) == compute_partition(g)

    @pytest.mark.parametrize("name,g", small_corpus(13))
    def test_corpus_passes_verification(self, name, g):
        report = verify_partition(g, compute_partition(g))
        assert report.passed, (name, report.failures)

    @pytest.mark.parametrize("name,g", small_corpus(7))
    def test_parts_are_maximal(self, name, g):
        p = compute_partition(g)
        available = frozenset(range(g.n))
        for i in range(len(p)):
            part = p.members(i)
            assert is_maximal_bipartite_connected(g, part, available), (name, i)
            available -= part

    @given(graphs())
    @settings(max_examples=80)
    def test_random_graphs_pass_verification(self, g):
        assert verify_partition(g, compute_partition(g)).passed


class TestAgainstFrozenCopy:
    """Equal output to the first implementation kept in tests/oracles.py."""

    @pytest.mark.parametrize("name,g", corpus())
    def test_corpus(self, name, g):
        assert_same_as_frozen(g)

    @given(graphs(max_n=12))
    @settings(max_examples=60)
    def test_random_graphs(self, g):
        assert_same_as_frozen(g)

    @pytest.mark.parametrize("n", [10, 50, 150, 400])
    def test_sparse_graphs(self, n):
        for seed in range(3):
            assert_same_as_frozen(sparse_graph(n, n, seed))

    def test_each_corruption_fails(self):
        g = complete(5)
        for kind, broken in corruptions(g, compute_partition(g), 1).items():
            assert not verify_partition(g, broken).passed, kind


class TestMoreCorruptionsAgainstFrozenCopy:
    """Equal failure reports to the frozen verifier (run on a sorted view of
    g, as in ``assert_same_as_frozen``) on the damage kinds of
    ``more_corruptions``: a same-side edge inside the largest part, an
    appended empty part, a least vertex on side B, a vertex on both sides
    of its part, and a vertex held by two parts with a same-side edge in
    each."""

    @pytest.mark.parametrize("name,g", corpus())
    def test_corpus(self, name, g):
        if g.n:
            assert_more_corruptions_as_frozen(g)

    @given(graphs(max_n=12))
    @settings(max_examples=60)
    def test_random_graphs(self, g):
        if g.n:
            assert_more_corruptions_as_frozen(g)

    @pytest.mark.parametrize("n", [10, 50, 150, 400])
    def test_sparse_graphs(self, n):
        for seed in range(3):
            assert_more_corruptions_as_frozen(sparse_graph(n, n, seed))

    def test_every_kind_is_drawn(self):
        g = sparse_graph(150, 150, 0)
        kinds = more_corruptions(g, compute_partition(g), 1)
        assert set(kinds) == {
            "empty_appended", "same_side_in_giant", "least_on_side_b", "overlap",
            "repeated_same_side",
        }

    def test_repeated_vertex_reports_both_parts(self):
        # Vertex 1 sits on side A with its neighbor 0 in part 0, and on side
        # B with its neighbor 2 in part 1.
        g = Graph(3, [(0, 1), (1, 2)])
        broken = BcpPartition((sides([0, 1], []), sides([], [1, 2])))
        report = verify_partition(g, broken)
        assert report == frozen_verify_partition(SortedView(g), broken)
        assert "part 0: edge (0, 1) joins two vertices on one side" in report.failures
        assert "part 1: edge (1, 2) joins two vertices on one side" in report.failures


@st.composite
def part_lists(draw):
    """A graph on at most 8 vertices and a list of parts for it.

    Up to four drawn parts, each side a set of ids in -2..n+1, so that
    repeats, overlaps, out-of-range ids and empty parts come in any mix;
    half the time they take the place of some of the greedy partition's
    own last parts, which with none drawn or replaced is valid."""
    g = draw(graphs(max_n=8))
    ids = st.frozensets(st.integers(min_value=-2, max_value=g.n + 1))
    drawn = draw(st.lists(st.builds(TwoSides, ids, ids), max_size=4))
    own = list(compute_partition(g).parts) if draw(st.booleans()) else []
    kept = draw(st.integers(min_value=0, max_value=len(own)))
    return g, BcpPartition(tuple(own[:kept] + drawn))


class TestArbitraryPartLists:
    @given(part_lists())
    @settings(max_examples=500)
    def test_same_report_as_frozen(self, case):
        g, p = case
        report = verify_partition(g, p)
        assert report == frozen_verify_partition(SortedView(g), p)
        if report.passed:
            assert build_quotient(g, p).partition is p
        else:
            with pytest.raises(StructureError, match="partition fails verification"):
                build_quotient(g, p)


def test_scale_guard():
    # Sized so that the quadratic frozen copies in tests/oracles.py would
    # take about a minute (extrapolated from n = 3000).
    g = sparse_graph(20000, 20000, 0)
    p = compute_partition(g)
    assert verify_partition(g, p).passed
    assert build_quotient(g, p).h.n == len(p)


class TestVerifyPartition:
    def test_rejects_vertex_in_two_parts(self):
        p = BcpPartition((sides([0], [1]), sides([1], [2])))
        report = verify_partition(complete(3), p)
        assert not report.passed
        assert any("appears in parts" in f for f in report.failures)

    def test_rejects_missing_vertex(self):
        p = BcpPartition((sides([0], [1]),))
        report = verify_partition(complete(3), p)
        assert any("uncovered" in f for f in report.failures)

    def test_rejects_intra_side_edge(self):
        p = BcpPartition((sides([0, 1], [2]),))
        report = verify_partition(complete(3), p)
        assert any("on one side" in f for f in report.failures)

    def test_rejects_disconnected_part(self):
        g = Graph(4, [(0, 1), (2, 3)])
        p = BcpPartition((sides([0, 2], [1, 3]),))
        report = verify_partition(g, p)
        assert any("components" in f for f in report.failures)

    def test_rejects_min_vertex_on_side_b(self):
        p = BcpPartition((sides([1], [0]),))
        report = verify_partition(Graph(2, [(0, 1)]), p)
        assert any("side A" in f for f in report.failures)

    def test_rejects_adjacent_pair_without_witness(self):
        # Singleton parts on a path: no part has vertices on both sides,
        # so no adjacent pair can produce a witness triple.
        g = Graph(3, [(0, 1), (1, 2)])
        p = BcpPartition((sides([0], []), sides([1], []), sides([2], [])))
        report = verify_partition(g, p)
        assert any("witness" in f for f in report.failures)

    def test_accepts_the_computed_partition(self):
        g = cycle(5)
        assert verify_partition(g, compute_partition(g)).passed


class TestWitnessTriples:
    """The stored witness of a quotient edge is its least triple by (v, u1, u2)."""

    @staticmethod
    def witness(g, pair):
        w = build_quotient(g, compute_partition(g)).witnesses[pair]
        return w.u1, w.u2, w.v

    def test_c5_witness_is_least_by_common_neighbor(self):
        assert self.witness(cycle(5), (0, 1)) == (0, 3, 4)

    def test_k5_witnesses(self):
        g = complete(5)
        assert self.witness(g, (0, 1)) == (0, 1, 2)
        assert self.witness(g, (1, 2)) == (2, 3, 4)

    def test_singleton_lower_part_has_no_witness(self):
        g = Graph(3, [(0, 1), (1, 2)])
        p = BcpPartition((sides([0], []), sides([1], []), sides([2], [])))
        assert "parts (0, 1) are joined by an edge but admit no witness triple" in (
            verify_partition(g, p).failures
        )


class TestSerialization:
    def test_render_shape(self):
        p = compute_partition(cycle(5))
        assert render_partition(p) == "0: A=0,2 B=1,3\n1: A=4 B=\n"

    def test_round_trip(self):
        for g in (cycle(5), complete(6), Graph(3), cycle(8)):
            p = compute_partition(g)
            assert parse_partition(render_partition(p)) == p

    @given(graphs())
    @settings(max_examples=40)
    def test_round_trip_random(self, g):
        p = compute_partition(g)
        assert parse_partition(render_partition(p)) == p

    def test_trailing_comments(self):
        text = "# two parts\n0: A=0,2 B=1  # note\n1: A=3 B=#\n"
        assert parse_partition(text) == BcpPartition((sides([0, 2], [1]), sides([3], [])))

    def test_repeated_id_within_a_side_is_rejected(self):
        for text, message in (
            ("0: A=0,0,2 B=1\n", "line 1: vertex 0 repeated on side A"),
            ("0: A=0 B=1\n# next\n1: A=2 B=3,4,3\n", "line 3: vertex 3 repeated on side B"),
        ):
            with pytest.raises(ParseError) as exc:
                parse_partition(text)
            assert str(exc.value) == message

    def test_id_on_both_sides_parses_and_fails_verification(self):
        p = parse_partition("0: A=0 B=0\n")
        assert p == BcpPartition((sides([0], [0]),))
        assert verify_partition(Graph(1), p).failures == ("part 0: sides overlap",)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_partition("0: A=1 B=2 C=3\n")
        with pytest.raises(ParseError):
            parse_partition("1: A=0 B=\n")  # indices must start at 0
        with pytest.raises(ParseError):
            parse_partition("0: A=x B=\n")

    # Each message exactly, its line number counted over comment and blank lines.
    PARSE_ERRORS = [
        ("0: A=0 B=\n# gap\n\n2: A=1 B=\n", "line 4: part index 2 out of order"),
        ("0: A=1 B=2 C=3\n", "line 1: expected 'i: A=<ids> B=<ids>'"),
        ("0 A=0 B=1\n", "line 1: expected 'i: A=<ids> B=<ids>'"),
        ("0: B=0 A=1\n", "line 1: expected 'i: A=<ids> B=<ids>'"),
        ("0: A=0,,1 B=\n", "line 1: expected 'i: A=<ids> B=<ids>'"),
    ]

    @pytest.mark.parametrize("text,message", PARSE_ERRORS)
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_partition(text)
        assert str(exc.value) == message


class TestPartOf:
    def test_maps_every_vertex(self):
        g = complete(5)
        p = compute_partition(g)
        assert p.members(1) == frozenset({2, 3})
