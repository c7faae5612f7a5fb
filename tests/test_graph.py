"""Graph type, parsers/renderers, generators, and the seeded PRNG."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddminors import (
    BcpPartition,
    Graph,
    ParseError,
    StructureError,
    TwoSides,
    complete,
    complete_bipartite,
    compute_partition,
    cycle,
    generate,
    gnp,
    parse_certificate,
    parse_coloring,
    parse_graph,
    parse_partition,
    parse_quotient,
    petersen,
    render_dimacs,
    render_edge_list,
    verify_partition,
)
from corpus import small_corpus
from oddminors.graph import _Reader, splitmix64
from oracles import (
    FrozenGraph,
    SortedView,
    frozen_detect_format,
    frozen_parse_certificate,
    frozen_parse_dimacs,
    frozen_parse_edge_list,
    frozen_verify_partition,
    frozenset_sides,
)

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
        assert tuple(g.neighbors(1)) == (0, 2, 3)
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

    def test_unordered_stream_equals_sorted_stream(self):
        # Pairs out of order take the path that sorts and de-duplicates each
        # run, which rebuilds the flat runs and their offsets.
        for n, seed in ((2, 0), (12, 1), (300, 2), (3000, 3)):
            edges = messy_edges(n, n, seed)
            g, want = Graph(n, edges), Graph(n, sorted({(min(e), max(e)) for e in edges}))
            assert g._runs == want._runs and list(g._ends) == list(want._ends)
            assert g == want and hash(g) == hash(want)
            assert g.sorted_edges() == want.sorted_edges() and g.m == want.m

    def test_unordered_stream_above_two_bytes_copies_and_pickles(self):
        # Ids and offsets above 2^16 fill the packed runs and offsets whole:
        # the rebuilt graph, its copies and its pickle equal the ordered build.
        n = 80_000
        edges = messy_edges(n, 40_000, 4)
        g, want = Graph(n, edges), Graph(n, sorted({(min(e), max(e)) for e in edges}))
        assert max(g._runs) >= 2**16 and g._ends[n] == 2 * g.m > 2**16
        assert g._runs == want._runs and g._ends == want._ends
        for other in (g, copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(other) is Graph and other == want and hash(other) == hash(want)
        assert g.sorted_edges() == want.sorted_edges()
        assert all(g.neighbors(v) == want.neighbors(v) for v in range(0, n, 97))


class TestParsing:
    """parse_graph reads DIMACS when the first non-whitespace character is
    ``p`` or ``c``, and an edge list otherwise."""

    def test_edge_list(self):
        g = parse_graph("# a triangle\n3\n0 1\n\n1 2\n0 2\n")
        assert g == complete(3)

    def test_edge_list_trailing_comments(self):
        g = parse_graph("3  # vertices\n0 1 # note\n1 2\n0 2#\n")
        assert g == complete(3)

    def test_edge_list_errors(self):
        with pytest.raises(ParseError):
            parse_graph("")
        with pytest.raises(ParseError):
            parse_graph("two\n")
        with pytest.raises(ParseError):
            parse_graph("2\n0 1 2\n")
        with pytest.raises(ParseError):
            parse_graph("2\n0 5\n")

    def test_dimacs_remaps_to_zero_based(self):
        g = parse_graph("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_dimacs_errors(self):
        with pytest.raises(ParseError):
            parse_graph("c x\ne 1 2\n")
        with pytest.raises(ParseError):
            parse_graph("p edge 3 1\ne 0 1\n")

    def test_parse_graph_auto(self):
        assert parse_graph("p edge 2 1\ne 1 2\n") == Graph(2, [(0, 1)])
        assert parse_graph("c foo\np edge 2 0\n") == Graph(2)
        assert parse_graph("2\n0 1\n") == Graph(2, [(0, 1)])

    @given(graphs())
    def test_edge_list_round_trip(self, g):
        assert parse_graph(render_edge_list(g)) == g

    @given(graphs())
    def test_dimacs_round_trip(self, g):
        assert parse_graph(render_dimacs(g)) == g

    @given(graphs(), st.data())
    def test_detected_round_trip_after_blank_and_comment_lines(self, g, data):
        blank = st.text(" \t\x0b\x0c\r", max_size=3)
        for render, comment in ((render_edge_list, "#"), (render_dimacs, "c")):
            note = st.builds(lambda pad, rest: pad + comment + rest, blank, st.text(" #abc01", max_size=6))
            line = st.one_of(blank, note)
            prefix = "".join(f"{text}\n" for text in data.draw(st.lists(line, max_size=4)))
            assert parse_graph(prefix + render(g)) == g


def reader_pairs(text, comment):
    """What ``_Reader(text, comment)`` yields, each line with its number."""
    reader = _Reader(text, comment)
    return [(reader.lineno, line) for line in reader]


def numbered_lines(text, comment):
    """The reader's rule on ``text.splitlines()``, numbered from 1."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if comment == "#" else raw).strip()
        if line and (comment == "#" or line[0] != "c"):
            out.append((lineno, line))
    return out


SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]


class TestReaderChunks:
    """_Reader walks its text in chunks of about 4 KB, each ending just past
    a newline, and yields the lines and numbers of ``str.splitlines``."""

    @given(
        st.lists(st.tuples(st.integers(min_value=0, max_value=900),
                           st.sampled_from(["1 2", "c x", "# y", " ", "p edge", "7"]),
                           st.sampled_from(SEPARATORS)), max_size=40),
        st.integers(min_value=4080, max_value=4110),
        st.sampled_from(SEPARATORS),
    )
    @settings(max_examples=150)
    def test_lines_and_numbers_are_those_of_splitlines(self, lines, cut, sep):
        # The lead puts `sep` (a \r\n among them) at or near the 4 KB point.
        text = "1" * cut + sep + "".join((word * size)[:size] + end for size, word, end in lines)
        for comment in ("#", "c"):
            assert reader_pairs(text, comment) == numbered_lines(text, comment)

    @pytest.mark.parametrize("cut", range(4093, 4100))
    def test_crlf_at_the_chunk_boundary(self, cut):
        text = "x" * cut + "\r\n" + "y\r\n" * 3000 + "z"
        pairs = reader_pairs(text, "#")
        assert pairs == numbered_lines(text, "#")
        assert pairs[:2] == [(1, "x" * cut), (2, "y")]

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_error_in_the_third_chunk_names_its_line(self, end):
        lines = ["3000"] + [f"{i} {i + 1}" for i in range(2999)]
        bad = next(i for i in range(len(lines)) if len(end.join(lines[:i])) > 2 * 4096 + 100)
        lines[bad] = "5 x"
        text = end.join(lines) + end
        assert len(text) > 3 * 4096
        with pytest.raises(ParseError, match=rf"^line {bad + 1}: expected integer, got 'x'$"):
            parse_graph(text)


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

    @pytest.mark.parametrize(
        "make,error,message",
        [
            (lambda: complete(0), StructureError, "complete graph needs at least one vertex"),
            (
                lambda: complete_bipartite(0, 3),
                StructureError,
                "both sides of a complete bipartite graph must be non-empty",
            ),
            (lambda: gnp(0, 0.5), StructureError, "gnp needs at least one vertex"),
            (lambda: gnp(3, 1.5), StructureError, "edge probability must lie in [0, 1]"),
            (lambda: generate(""), ParseError, "empty generator spec"),
        ],
    )
    def test_refusals_name_their_reason(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == message

    def test_generate_rejects_garbage(self):
        with pytest.raises(ParseError):
            generate("torus 3")
        with pytest.raises(ParseError):
            generate("cycle")


def _splitmix_reference(seed, count):
    """Same constants, written out independently of ``splitmix64``."""
    out = []
    x = seed & MASK
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


SEEDS = [0, 1, 42, MASK, -1]


class TestRandom:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_splitmix_matches_reference(self, seed):
        draws = splitmix64(seed)
        assert [next(draws) for _ in range(5)] == _splitmix_reference(seed, 5)

    def test_gnp_extremes(self):
        assert gnp(10, 0.0, 5).m == 0
        assert gnp(6, 1.0, 5) == complete(6)

    def test_gnp_deterministic(self):
        assert gnp(12, 0.3, 99) == gnp(12, 0.3, 99)
        assert gnp(12, 0.3, 99) != gnp(12, 0.3, 100)

    def test_gnp_consumes_one_draw_per_pair_in_lex_order(self):
        # Each draw's top 53 bits, mapped to [0, 1), against p.
        n, p = 7, 0.4
        for seed in SEEDS:
            draws = iter(_splitmix_reference(seed, n * (n - 1) // 2))
            expected = []
            for u in range(n):
                for v in range(u + 1, n):
                    if (next(draws) >> 11) * 2.0**-53 < p:
                        expected.append((u, v))
            assert gnp(n, p, seed).sorted_edges() == expected, seed


# Each streaming generator, its arguments, and the pairs, in order, that it hands ``Graph``.
STREAMED = [
    (complete, (6,), [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    (cycle, (7,), [(i, (i + 1) % 7) for i in range(7)]),
    (complete_bipartite, (3, 4), [(i, 3 + j) for i in range(3) for j in range(4)]),
    (gnp, (9, 0.4, 5), gnp(9, 0.4, 5).sorted_edges()),
]

SMALL = [
    *((complete, (t,)) for t in range(1, 7)),
    *((cycle, (n,)) for n in range(3, 9)),
    *((complete_bipartite, (a, b)) for a in range(1, 4) for b in range(1, 4)),
    *((gnp, (n, p, seed)) for n in (1, 2, 5, 9) for p in (0.0, 0.3, 1.0) for seed in (0, 7)),
]


def call_id(make, args):
    return f"{make.__name__}{args}"


def record_graph_calls(monkeypatch):
    """Patch ``Graph.__init__`` to log each call's ``(n, edges argument, pairs)``."""
    calls = []
    real = Graph.__init__

    def recorder(self, n, edges=()):
        pairs = list(edges)
        calls.append((n, edges, pairs))
        real(self, n, pairs)

    monkeypatch.setattr(Graph, "__init__", recorder)
    return calls


class TestStreamingGenerators:
    @pytest.mark.parametrize("make,args,pairs", STREAMED, ids=[call_id(*c[:2]) for c in STREAMED])
    def test_hands_graph_an_iterator_not_a_list(self, monkeypatch, make, args, pairs):
        calls = record_graph_calls(monkeypatch)
        make(*args)
        [(_, edges, streamed)] = calls
        assert iter(edges) is edges  # an iterator: no list or tuple is its own iterator
        assert streamed == pairs

    @pytest.mark.parametrize("make,args", SMALL, ids=[call_id(*c) for c in SMALL])
    def test_equals_frozen_graph_of_its_pairs(self, monkeypatch, make, args):
        with monkeypatch.context() as m:
            calls = record_graph_calls(m)
            make(*args)
        [(n, _, pairs)] = calls
        assert_same_graph(make(*args), FrozenGraph(n, pairs))


# ---------------------------------------------------------------------------
# The constructor and the parsers against their frozen copies in
# tests/oracles.py: same adjacency, same edge set, same equality and hash,
# and the same error text for bad input.


def assert_same_graph(new, old):
    assert type(new) is Graph and type(old) is FrozenGraph
    assert new.n == old.n and new.m == old.m == len(old.edges)
    assert [new.neighbors(v) for v in range(new.n)] == [old.neighbors(v) for v in range(old.n)]
    assert new.sorted_edges() == old.sorted_edges() == sorted(old.edges)
    if new.n <= 12:
        ids = range(-1, new.n + 1)
        assert [new.has_edge(u, v) for u in ids for v in ids] == [
            (min(u, v), max(u, v)) in old.edges for u in ids for v in ids
        ]
    assert new == old and old == new
    assert hash(new) == hash(old)


def edge_list_text(n, edges):
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def dimacs_text(n, edges):
    return "".join([f"p edge {n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])


def assert_same_everywhere(n, edges):
    """The constructor, and parse_graph on both formats, agree with the frozen copies on one input."""
    assert_same_graph(Graph(n, edges), FrozenGraph(n, edges))
    text = edge_list_text(n, edges)
    assert_same_graph(parse_graph(text), frozen_parse_edge_list(text))
    text = dimacs_text(n, edges)
    assert_same_graph(parse_graph(text), frozen_parse_dimacs(text))


def messy_edges(n, m, seed):
    """m uniform edges of G(n, m) in shuffled order, each reversed with
    probability 1/2, plus about m/10 repeats."""
    rng = random.Random(seed)
    edges = set()
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    out = sorted(edges)
    out += rng.sample(out, len(out) // 10)
    rng.shuffle(out)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in out]


@st.composite
def edge_inputs(draw, max_n=12):
    """(n, edges) with duplicates, reversed pairs and isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return n, []
    ends = st.integers(min_value=0, max_value=n - 1)
    pairs = st.tuples(ends, ends).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=3 * n))


GOLDEN_ERRORS = [
    ('edge-list', '', 'line 1: missing vertex count'),
    ('edge-list', '# only a comment\n\n', 'line 1: missing vertex count'),
    ('edge-list', 'two\n', "line 1: expected integer, got 'two'"),
    ('edge-list', '3 4\n', "line 1: expected vertex count, got '3 4'"),
    ('edge-list', '-1\n', 'line 1: vertex count must be non-negative'),
    ('edge-list', '2\n0 1 2\n', "line 2: expected 'u v', got '0 1 2'"),
    ('edge-list', '\n# c\n3\n0 x\n', "line 4: expected integer, got 'x'"),
    ('edge-list', '3\n1 1\n', 'line 2: self-loop at vertex 1'),
    ('edge-list', '2\n0 5\n', 'line 2: vertex id out of range for n=2'),
    ('edge-list', '3\n0 1\n\n2 -1\n', 'line 4: vertex id out of range for n=3'),
    ('edge-list', '3\n0 1 # ok\n1\n', "line 3: expected 'u v', got '1'"),
    ('edge-list', '3\n0 1\n0 1.5\n', "line 3: expected integer, got '1.5'"),
    ('edge-list', '3\r\n0 1\r\n1 x\r\n', "line 3: expected integer, got 'x'"),
    ('edge-list', '3\n0 1\x0c1 x\n', "line 3: expected integer, got 'x'"),
    ('edge-list', '3\n0 1\n1 2\n2 0\n0 3\n', 'line 5: vertex id out of range for n=3'),
    ('edge-list', '3\n0 1\n0 1\n1 2 # x\n2 2\n', 'line 5: self-loop at vertex 2'),
    ('dimacs', 'c x\n', "missing 'p edge n m' header"),
    ('dimacs', 'c hi\n', "missing 'p edge n m' header"),
    ('dimacs', 'c x\ne 1 2\n', "line 2: edge before 'p edge' header"),
    ('dimacs', 'p edge 3 1\ne 0 1\n', 'line 2: vertex id out of range for n=3'),
    ('dimacs', 'p edge 3 1\np edge 3 1\n', 'line 2: duplicate problem line'),
    ('dimacs', 'p col 3 1\n', "line 1: expected 'p edge n m', got 'p col 3 1'"),
    ('dimacs', 'p edge 3\n', "line 1: expected 'p edge n m', got 'p edge 3'"),
    ('dimacs', 'p edge x 1\n', "line 1: expected integer, got 'x'"),
    ('dimacs', 'p edge -2 0\n', 'line 1: vertex count must be non-negative'),
    ('dimacs', 'p edge 3 xyz\n', "line 1: expected integer, got 'xyz'"),
    ('dimacs', 'p edge 3 -5\n', 'line 1: edge count must be non-negative'),
    ('dimacs', 'p edge 3 1.5\ne 1 2\n', "line 1: expected integer, got '1.5'"),
    ('dimacs', 'p edge x -5\n', "line 1: expected integer, got 'x'"),
    ('dimacs', 'p edge 3 1\ne 1\n', "line 2: expected 'e u v', got 'e 1'"),
    ('dimacs', 'p edge 3 1\ne 2 2\n', 'line 2: self-loop at vertex 2'),
    ('dimacs', 'p edge 3 1\nx 1 2\n', "line 2: unrecognized line 'x 1 2'"),
    ('dimacs', 'p edge 3 1\ne 1 4\n', 'line 2: vertex id out of range for n=3'),
    ('dimacs', 'c a\n\np edge 2 1\ne 1 y\n', "line 4: expected integer, got 'y'"),
    ('dimacs', 'p edge 3 2\ne 1 2\ne 2 1\ne 3 3\n', 'line 4: self-loop at vertex 3'),
    ('dimacs', 'p edge 3 1\ne 1 2\nc tail\n# note\n', "line 4: unrecognized line '# note'"),
]


# The token alphabet of the parse fuzz tests.  Texts with a digit run longer
# than three are left out: a parsed vertex count allocates per vertex.
FUZZ_TOKENS = [
    *"0123456789", "-", " ", "\n", "\r", "\x0c", "#", ":", "=", ",", "/",
    "A=", "B=", "T", "conn", "parity", "palette", "trees", "w", "p", "e", "c",
]
FUZZ_ARTIFACTS = [
    "5\n0 1\n0 4 # note\n1 2\n2 3\n3 4\n",
    "c C5\np edge 5 5\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n",
    "0: A=0,2 B=1,3\n1: A=4 B=\n",
    "2\n0 1\nw 0 1 : 0 3 4\n",
    "palette 3\n0 0\n1 1\n2 0\n3 1\n4 2\n",
    "trees 3\nT 1: 0,1,2 / 0-1,1-2\nT 2: 3 /\nT 3: 4 /\n"
    "conn 1 2 : 2 3\nconn 1 3 : 0 4\nconn 2 3 : 3 4\nparity 0 : 1\nparity 1 : 2\n",
]
PARSERS = {
    "graph": parse_graph,
    "partition": parse_partition,
    "coloring": parse_coloring,
    "quotient": parse_quotient,
    "certificate": parse_certificate,
}
_LONG_NUMBER = re.compile(r"\d{4}")
token_texts = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map("".join)


@st.composite
def near_artifacts(draw, artifacts=FUZZ_ARTIFACTS):
    """A valid artifact with up to three short spans replaced by tokens."""
    text = draw(st.sampled_from(artifacts))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 3)))
        text = text[:i] + draw(st.sampled_from(FUZZ_TOKENS + [""])) + text[j:]
    return text


class TestParsersFailOnlyWithParseError:
    """Every parser either parses a text or raises ParseError.

    A ``line N:`` prefix names a line of the text (line 1 also for a text
    with no lines, where the vertex count is missing), and a line quoted at
    the end of the message is on line N.
    """

    @staticmethod
    def check(text):
        lines = text.splitlines()
        for name, parse in PARSERS.items():
            try:
                parse(text)
            except ParseError as exc:
                message = str(exc)
                at = re.match(r"line (\d+): ", message)
                if at is None:
                    continue
                lineno = int(at.group(1))
                assert 1 <= lineno <= max(1, len(lines)), (name, message)
                # The line, field or token quoted at the end: "got '...'",
                # "line '...'", "witness '...'" or int()'s "base 10: '...'".
                quoted = re.search(r"(?:got|line|witness|10:) '([^']*)'$", message)
                if quoted:
                    assert quoted.group(1) in lines[lineno - 1], (name, message)

    @given(token_texts.filter(lambda t: not _LONG_NUMBER.search(t)))
    @settings(max_examples=400)
    def test_token_texts(self, text):
        self.check(text)

    @given(near_artifacts().filter(lambda t: not _LONG_NUMBER.search(t)))
    @settings(max_examples=400)
    def test_near_artifacts(self, text):
        self.check(text)


@st.composite
def sometimes_shuffled(draw, texts):
    """A drawn text with up to two pairs of its lines swapped."""
    lines = draw(texts).split("\n")
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i, j = (draw(st.integers(min_value=0, max_value=len(lines) - 1)) for _ in range(2))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its result, or its ParseError message."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


class TestAgainstFrozenLineRules:
    """The graph and certificate parsers against their frozen copies, which
    split the text into lines themselves."""

    @given(st.one_of(
        st.lists(st.sampled_from(FUZZ_TOKENS + [
            "\t", "\x0b", "\x1c", "\x1f", "\x85", "\u2028", "\xa0", "\r\n",
        ]), max_size=40).map("".join),
        near_artifacts(FUZZ_ARTIFACTS[:2]),
    ).filter(lambda t: not _LONG_NUMBER.search(t)))
    @settings(max_examples=400)
    def test_parse_graph(self, text):
        # The frozen parser of the format that the frozen detection picks.
        frozen = frozen_parse_dimacs if frozen_detect_format(text) == "dimacs" else frozen_parse_edge_list
        assert outcome(parse_graph, text) == outcome(frozen, text)

    @given(sometimes_shuffled(st.one_of(
        st.just(FUZZ_ARTIFACTS[-1]), near_artifacts(FUZZ_ARTIFACTS[-1:]), near_artifacts(), token_texts,
    )))
    @settings(max_examples=400)
    def test_parse_certificate(self, text):
        assert outcome(parse_certificate, text) == outcome(frozen_parse_certificate, text)


class TestAgainstFrozenGraph:
    @pytest.mark.parametrize("name,g", small_corpus(40))
    def test_corpus(self, name, g):
        edges = g.sorted_edges()
        assert_same_everywhere(g.n, edges)
        assert_same_everywhere(g.n, [(v, u) for u, v in reversed(edges)] + edges[:3])

    @given(edge_inputs())
    @settings(max_examples=200)
    def test_random_edge_lists(self, case):
        assert_same_everywhere(*case)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 3000])
    def test_seeded_sparse(self, n):
        for seed in range(2):
            assert_same_everywhere(n, messy_edges(n, n, seed))

    def test_isolated_vertices_have_empty_neighbors(self):
        g = Graph(5, [(3, 1)])
        assert [tuple(g.neighbors(v)) for v in range(5)] == [(), (3,), (), (1,), ()]
        assert_same_graph(g, FrozenGraph(5, [(3, 1)]))

    def test_same_side_edges_named_in_sorted_order(self):
        # verify_partition names the same-side edges of a part in sorted
        # order, whatever order the edges arrived in: here shuffled, reversed
        # and repeated.  The frozen verifier, run on the graph those edges
        # build in the old way, names them in set order, which is often not
        # the sorted one.
        unsorted = 0
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randrange(8, 60)
            edges = messy_edges(n, 2 * n, seed)
            g = Graph(n, edges)
            parts = list(compute_partition(g).parts)
            inner = [
                i for i, part in enumerate(parts)
                if sum(len(set(g.neighbors(v)) & part.members) for v in part.members) >= 4
            ]
            for i in rng.sample(inner, rng.randint(1, len(inner))):
                parts[i] = TwoSides(tuple(sorted(parts[i].members)), ())
            broken = BcpPartition(tuple(parts))
            report = verify_partition(g, broken)
            assert report == frozen_verify_partition(SortedView(g), frozenset_sides(broken)), seed
            named = [f for f in report.failures if f.endswith("joins two vertices on one side")]
            assert len(named) >= 2, seed
            assert named == sorted(named, key=lambda f: [int(x) for x in re.findall(r"\d+", f)]), seed
            unsorted += report != frozen_verify_partition(FrozenGraph(n, edges), frozenset_sides(broken))
        assert unsorted >= 5

    def test_constructor_errors_unchanged(self):
        for n, edges in ((-1, []), (3, [(0, 1), (2, 2)]), (3, [(0, 1), (1, 3)]), (2, [(-1, 0)])):
            with pytest.raises(StructureError) as new:
                Graph(n, edges)
            with pytest.raises(StructureError) as old:
                FrozenGraph(n, edges)
            assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("fmt,text,message", GOLDEN_ERRORS)
    def test_golden_parse_errors(self, fmt, text, message):
        # Each text is read as fmt, and parse_graph gives the frozen parser's error.
        assert frozen_detect_format(text) == fmt
        frozen = {"edge-list": frozen_parse_edge_list, "dimacs": frozen_parse_dimacs}[fmt]
        for f in (parse_graph, frozen):
            with pytest.raises(ParseError) as exc:
                f(text)
            assert str(exc.value) == message
