"""Structural memory layout of parsed and computed objects.

No byte counts: these hold on every supported Python.  Records keep their
fields in slots, every partition side is a tuple of ids in ascending order
and every empty one is the shared ``()``, and a graph, parsed or built,
holds only its adjacency, which serves every partition stage: one packed
read-only buffer of neighbor ids and one of offsets, with no tuple per
vertex and no int object but its vertex count.
"""

import copy
import gc
import pickle
import random

import pytest

from oddminors import (
    BcpPartition,
    ExpansionTree,
    Graph,
    TwoSides,
    WitnessTriple,
    build_quotient,
    complete,
    compute_partition,
    find_expansion,
    parse_graph,
    parse_partition,
    render_dimacs,
    render_edge_list,
    render_partition,
    verify_partition,
)


def sparse_graph(n: int, m: int, seed: int) -> Graph:
    """G(n, m): m distinct uniform edges, drawn in a seeded order."""
    rng = random.Random(seed)
    chosen: dict[tuple[int, int], None] = {}
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen[(u, v) if u < v else (v, u)] = None
    return Graph(n, chosen)


@pytest.fixture(scope="module")
def g3000() -> Graph:
    return sparse_graph(3000, 3000, seed=7)


def test_records_have_no_dict(g3000):
    p = compute_partition(g3000)
    q = build_quotient(g3000, p)
    cert = find_expansion(complete(4), 4)
    records = [p, *p.parts, *q.witnesses.values(), *cert.trees]
    assert {type(r) for r in records} == {BcpPartition, TwoSides, WitnessTriple, ExpansionTree}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(TypeError):
            vars(record)


def test_every_empty_side_is_one_object(g3000):
    computed = compute_partition(g3000)
    parsed = parse_partition(render_partition(computed) + f"{len(computed)}: A= B=\n")
    assert parsed.parts[:-1] == computed.parts
    empty = [side for p in (computed, parsed) for part in p.parts
             for side in (part.side_a, part.side_b) if not side]
    assert len(empty) > 100  # most parts of a sparse graph are lone vertices
    assert len({id(side) for side in empty}) == 1


def test_sides_are_ascending_tuples(g3000):
    computed = compute_partition(g3000)
    parsed = parse_partition(render_partition(computed))
    assert parsed == computed
    empty = tuple()  # the one empty tuple object
    for p in (computed, parsed):
        sides = [side for part in p.parts for side in (part.side_a, part.side_b)]
        assert {type(side) for side in sides} == {tuple}
        assert all(list(side) == sorted(set(side)) for side in sides)
        assert all(side is empty for side in sides if not side)


def packed(view) -> bool:
    """``view`` is a read-only memoryview of C unsigned ints over the whole of a bytearray."""
    return (type(view) is memoryview and view.readonly and view.format == "I"
            and type(view.obj) is bytearray and view.nbytes == len(view.obj))


@pytest.mark.parametrize("render", [render_edge_list, render_dimacs], ids=["edge-list", "dimacs"])
def test_parsed_graph_holds_no_int_per_id(g3000, render):
    g = parse_graph(render(g3000))
    assert g == g3000
    held = [x for x in gc.get_referents(g) if x is not Graph]
    assert [x for x in held if type(x) is int] == [g.n]  # the vertex count, no id
    assert len(held) == 3 and all(packed(x) for x in held if type(x) is not int)


def test_graph_holds_one_packed_buffer_of_neighbor_ids(g3000):
    g = parse_graph(render_edge_list(g3000))
    assert packed(g._runs) and len(g._runs) == 2 * g.m
    assert g._runs.tolist() == [w for v in range(g.n) for w in g.neighbors(v)]
    assert packed(g._ends) and len(g._ends) == g.n + 1
    empty = tuple()  # the one empty tuple object
    isolated = [v for v in range(g.n) if not g.degree(v)]
    assert len(isolated) > 100  # about e^-2 of the vertices of G(n, m = n)
    assert all(g.neighbors(v) is empty for v in isolated)


def test_graph_copies_and_pickles(g3000):
    for g in (g3000, Graph(0), Graph(5, [(3, 1)])):
        for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(other) is Graph and other == g and hash(other) == hash(g)
            assert other.sorted_edges() == g.sorted_edges()


def test_partition_stages_leave_the_edge_set_unbuilt(g3000):
    g = parse_graph(render_edge_list(g3000))
    p = compute_partition(g)
    assert verify_partition(g, p).passed
    assert build_quotient(g, p).partition is p
    assert verify_partition(g, parse_partition(render_partition(p))).passed
    assert Graph.__slots__ == ("n", "_runs", "_ends")  # the adjacency, and nothing built from it
    held = [x for x in gc.get_referents(g) if x is not Graph]
    assert sorted(map(type, held), key=str) == [int, memoryview, memoryview]


def test_records_copy_and_pickle(g3000):
    p = compute_partition(g3000)
    q = build_quotient(g3000, p)
    for record in (p, p.parts[0], next(iter(q.witnesses.values())), q):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
