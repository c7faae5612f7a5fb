"""Simple undirected graphs with dense 0-based vertex ids.

Everything downstream (partitions, quotients, coloring, minor search)
consumes this representation.  Graphs are immutable after construction;
adjacency iteration is always in ascending vertex id, which makes every
greedy algorithm in the package fully deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import pairwise
from operator import eq

from ._record import Record
from .errors import ParseError, StructureError

Edge = tuple[int, int]


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are normalized as ``(u, v)`` with ``u < v``.  Self-loops and
    out-of-range endpoints are rejected; duplicate edges collapse.
    Instances are immutable: do not mutate the adjacency.

    What is stored: the adjacency as compressed sparse rows, no tuple or int
    object per vertex or edge.  ``neighbors(v)``, v's neighbors in ascending
    id order, is the run ``_runs[_ends[v]:_ends[v + 1]]`` itself, no copy:
    unhashable, and equal only to memoryviews.  ``_runs`` is a counting sort
    of the 2m normalized endpoints and ``_ends`` the n + 1 offsets, read-only
    ``"I"`` memoryviews over bytearrays; the degree counts, summed in place,
    become ``_ends``.  Pairs in strictly increasing order (as the renderers,
    ``gnp`` and ``build_quotient`` write them) leave every run sorted and
    distinct; any other order is sorted and de-duplicated first.

    The adjacency is the graph's one edge order: ``sorted_edges`` lists it,
    and ``m``, ``has_edge``, ``==``, ``hash`` and pickling read it.
    """

    __slots__ = ("n", "_runs", "_ends")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise StructureError(f"vertex count must be non-negative, got {n}")
        pairs: list[int] = []
        add = pairs.append
        ordered = True  # each normalized pair so far above the one before it
        pu = pv = -1
        for u, v in edges:
            if u == v:
                raise StructureError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise StructureError(f"edge ({u}, {v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if u < pu or u == pu and v <= pv:
                ordered = False
            pu, pv = u, v
            add(u)
            add(v)
        if not ordered:  # sorted and distinct, the pairs fill every run sorted and distinct
            it = iter(pairs)
            pairs = [x for pair in sorted(set(zip(it, it))) for x in pair]
        at = memoryview(bytearray(4 * n + 4)).cast("I")  # per vertex: its degree, then its run's end, then its start
        for x in pairs:
            at[x] += 1
        end = 0  # at[n] ends as 2m, so vertex x's run is runs[at[x]:at[x + 1]] once filled
        for x, degree in enumerate(at):
            at[x] = end = end + degree
        runs = memoryview(bytearray(4 * len(pairs))).cast("I")
        it = reversed(pairs)
        for v, u in zip(it, it):  # last pair first, so each run fills downward in order
            at[u] = i = at[u] - 1
            runs[i] = v
            at[v] = i = at[v] - 1
            runs[i] = u
        self.n, self._runs, self._ends = n, runs.toreadonly(), at.toreadonly()

    def neighbors(self, v: int) -> memoryview:
        """Neighbors of ``v`` in ascending id order: its run as stored, no copy."""
        return self._runs[self._ends[v]:self._ends[v + 1]]

    def degree(self, v: int) -> int:
        return self._ends[v + 1] - self._ends[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._runs[self._ends[u]:self._ends[u + 1]]

    @property
    def m(self) -> int:
        return len(self._runs) // 2

    def sorted_edges(self) -> list[Edge]:
        return [(u, v) for u, (s, e) in enumerate(pairwise(self._ends)) for v in self._runs[s:e] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._ends == other._ends and self._runs == other._runs

    def __hash__(self) -> int:
        return hash((self.n, self._runs.tobytes()))

    def __reduce__(self):
        return Graph, (self.n, self.sorted_edges())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class TwoSides(Record):
    """The two sides of the unique bipartition of a connected subgraph.

    Each side is a tuple of vertex ids in ascending order; the one empty
    side is ``()``.  Canonical orientation: the lowest vertex id of the
    subset is in ``side_a``.  No edge runs inside either side.
    """

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    @property
    def members(self) -> frozenset[int]:
        """Both sides as one set, built on each call."""
        return frozenset(self.side_a).union(self.side_b)


# ---------------------------------------------------------------------------
# Parsing and rendering


class _Reader:
    """One parse's pass over the lines of ``text``, and its error rule.

    Iterating yields each line with more than a comment, stripped, numbered
    as ``str.splitlines`` splits, so a form feed ends a line too, from one
    chunk of about 4 KB ending just past a ``"\n"`` at a time.  With
    ``comment`` ``"#"`` a ``#`` starts a comment that runs to the end of its
    line; with ``"c"`` (DIMACS) so does a ``c`` that starts a line.  Used as
    a context manager around that loop, it alone numbers errors.  Raised in
    the body while a line is current (none is before the first or after the
    last), a ParseError leaves as ``line N: <message>``, and a ValueError or
    IndexError (a failed ``int()``, a wrong unpack arity) as ``line N:
    <detail>``, line N as written put in for ``{raw!r}``; a reader without a
    ``detail`` gives the ValueError's own message.
    """

    __slots__ = ("text", "comment", "detail", "lineno")

    def __init__(self, text: str, comment: str, detail: str = "") -> None:
        self.text, self.comment, self.detail = text, comment, detail
        self.lineno = 0

    def __iter__(self) -> Iterator[str]:
        hashes, text = self.comment == "#", self.text
        lineno = end = 0
        while end < len(text):  # a "\n" always ends a line, so the chunks' lines are the text's
            start, end = end, text.find("\n", end + 4096) + 1 or len(text)
            for lineno, raw in enumerate(text[start:end].splitlines(), lineno + 1):
                line = (raw.split("#", 1)[0] if hashes and "#" in raw else raw).strip()
                if line and (hashes or line[0] != "c"):
                    self.lineno = lineno
                    yield line
        self.lineno = 0

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind in (ParseError, ValueError, IndexError) and self.lineno:
            if kind is not ParseError and self.detail:
                exc = self.detail.format(raw=self.text.splitlines()[self.lineno - 1])
            raise ParseError(f"line {self.lineno}: {exc}") from None


def _parse_ids(field: str, parse: Callable[[str], object] = int) -> list:
    """Each comma-separated token of ``field`` through ``parse``; none for an empty field.

    With ``_distinct``, the id-field rule of the partition and certificate
    formats: an empty token fails ``parse`` (a ValueError the ``_Reader``
    reports), and no item may repeat within one field.
    """
    return [parse(tok) for tok in field.split(",")] if field else []


def _distinct(items: list, repeated: str) -> tuple:
    """``items`` as an ascending tuple; a repeat is ``ParseError(repeated)``,
    the first item that repeats an earlier one put in for ``{}``."""
    out = tuple(sorted(items))
    if any(map(eq, out, out[1:])):
        seen = set()
        for x in items:
            if x in seen:
                raise ParseError(repeated.format(x))
            seen.add(x)
    return out


def parse_graph(text: str) -> Graph:
    """Parse a graph: DIMACS (``c`` comment lines) when the text's first
    non-whitespace character is ``p`` or ``c``, else an edge list (``#``
    comments).  Edges stream into ``Graph`` as they are read."""
    dimacs = text.lstrip().startswith(("p", "c"))
    with _Reader(text, "c" if dimacs else "#") as lines:
        items = _graph_items(lines, dimacs)
        return Graph(next(items), items)


def _graph_items(lines: Iterable[str], dimacs: bool = False) -> Iterator:
    """The vertex count, then each validated 0-based edge, of edge-list or DIMACS lines.

    Both formats give the vertex count on their first line and one edge on
    each line after it: ``n`` then ``u v``, or ``p edge n m`` then ``e u v``
    with ids from 1.  Ids are checked, and quoted, as written.
    """
    lines = iter(lines)
    line = next(lines, None)
    if line is None:
        raise ParseError("missing 'p edge n m' header" if dimacs else "line 1: missing vertex count")
    parts = line.split()
    if dimacs and (len(parts) != 4 or parts[:2] != ["p", "edge"]):
        raise _misfit(line, "p", "'p edge n m'")
    if not dimacs and len(parts) != 1:
        raise _misfit(line, "", "vertex count")
    n = _int(parts[2] if dimacs else parts[0])
    if n < 0:
        raise ParseError("vertex count must be non-negative")
    if dimacs and _int(parts[3]) < 0:  # read, not matched to the edge lines: duplicates collapse
        raise ParseError("edge count must be non-negative")
    yield check_order(n)
    lo = int(dimacs)  # the least vertex id as written, and where u stands on an edge line
    # ids[u] is written id u counted from 0: one int object per id, shared by all its
    # edges while ``Graph`` gathers them, which lowers a parse's peak below a fresh int per endpoint.
    ids, hi, width = list(range(-lo, n)), n + lo, 2 + lo
    for line in lines:
        parts = line.split()
        if len(parts) != width or lo and parts[0] != "e":
            raise _misfit(line, "e" if dimacs else "", "'e u v'" if dimacs else "'u v'")
        u, v = _int(parts[lo]), _int(parts[lo + 1])
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        if not (lo <= u < hi and lo <= v < hi):
            raise ParseError(f"vertex id out of range for n={n}")
        yield ids[u], ids[v]


def _misfit(line: str, word: str, form: str) -> ParseError:
    """The error for a graph line not of the ``form`` its place asks for; a
    DIMACS line whose first word is not ``word`` stands out of place."""
    first = line.split()[0] if word else ""
    if first == word:
        return ParseError(f"expected {form}, got {line!r}")
    wrong = {"p": "duplicate problem line", "e": "edge before 'p edge' header"}
    return ParseError(wrong.get(first, f"unrecognized line {line!r}"))


def render_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def render_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def complete(t: int) -> Graph:
    if t < 1:
        raise StructureError("complete graph needs at least one vertex")
    return Graph(t, ((i, j) for i in range(t) for j in range(i + 1, t)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise StructureError("cycle needs at least three vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise StructureError("both sides of a complete bipartite graph must be non-empty")
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream of 64-bit outputs: fixed, tiny, reproducible across runs and languages.

    state' = state + 0x9E3779B97F4A7C15;  output mixes with the constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) with a SplitMix64 stream.

    One draw is consumed per unordered pair (u, v), u < v, in lexicographic
    order, its top 53 bits mapped to [0, 1), so the same (n, seed) prefix
    yields nested edge decisions for any p.
    """
    if n < 1:
        raise StructureError("gnp needs at least one vertex")
    if not (0.0 <= p <= 1.0):
        raise StructureError("edge probability must lie in [0, 1]")
    draws = splitmix64(seed)
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)
                     if (next(draws) >> 11) * 2.0**-53 < p))


def generate(spec: str, seed: int = 0) -> Graph:
    """Build a named graph from a textual spec like ``"cycle 5"`` or ``"gnp 10 0.3"``."""
    tokens = spec.split()
    if not tokens:
        raise ParseError("empty generator spec")
    kind, args = tokens[0], tokens[1:]
    try:
        if (kind, len(args)) in (("complete", 1), ("gnp", 2)):
            n = check_order(int(args[0]))
            check_pairs(max(n, 0) * (n - 1) // 2)
            return complete(n) if kind == "complete" else gnp(n, float(args[1]), seed)
        if kind == "cycle" and len(args) == 1:
            return cycle(check_order(int(args[0])))
        if kind == "complete-bipartite" and len(args) == 2:
            a, b = int(args[0]), int(args[1])
            check_order(a + b)
            check_pairs(max(a, 0) * max(b, 0))
            return complete_bipartite(a, b)
        if kind == "petersen" and not args:
            return petersen()
    except ValueError as exc:
        raise ParseError(f"bad generator spec {spec!r}: {exc}") from None
    raise ParseError(
        f"unknown generator spec {spec!r}; expected one of: complete t, cycle n, "
        "complete-bipartite a b, gnp n p, petersen"
    )


# The largest vertex count a graph file, generator spec or bench grid may ask
# for, and the most seeds a bench grid may name.  The parsers and ``Graph``
# allocate per vertex before any edge is read or generated, so a larger count
# is refused as malformed input, not left to fail as an allocation or to run
# for ever.
MAX_VERTICES = 10**7


def check_order(n: int) -> int:
    """``n`` when it is at most ``MAX_VERTICES``; else a ValueError naming the ceiling.

    Each caller turns the ValueError into a ``ParseError`` (exit 2): a
    ``_Reader`` body, ``generate`` and the CLI's ``bench`` grid.
    """
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    return n


# The most vertex pairs a generator may walk, checked before any is walked or
# draw taken: n(n-1)/2 for ``complete`` and ``gnp``, a*b for ``complete-bipartite``.
# No edge list is built, but each edge a generator streams lands in ``Graph``'s arrays.
MAX_PAIRS = 10**7


def check_pairs(pairs: int) -> None:
    """A ValueError naming the ceiling when ``pairs`` exceeds ``MAX_PAIRS``; callers as ``check_order``."""
    if pairs > MAX_PAIRS:
        raise ValueError(f"vertex pair count {pairs} exceeds {MAX_PAIRS}")


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected integer, got {token!r}") from None
