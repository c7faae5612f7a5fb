"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance here is zero: a single violation fails the test.
"""

import random

import pytest

from corpus import all_graphs_on_5, corpus, small_corpus
from oddminors import (
    build_quotient,
    color_exact,
    compose_coloring,
    compute_partition,
    find_expansion,
    find_odd_expansion,
    lift_expansion,
    verify_coloring,
    verify_odd_expansion,
    verify_partition,
)
from oddminors.cli import run
from oracles import brute_is_bipartite, is_maximal_bipartite_connected


def report(n, violations, detail):
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {n}: {status} — {detail}")
    assert not violations, violations[:5]


def test_criterion_1_partition_corpus():
    violations = []
    graphs = corpus()
    for name, g in graphs:
        if not verify_partition(g, compute_partition(g)).passed:
            violations.append(name)
    report(1, violations, f"{len(graphs)} corpus partitions verified, 0 failures")


def test_criterion_2_maximality_oracle():
    violations = []
    checked = 0
    for name, g in small_corpus(9):
        p = compute_partition(g)
        available = set(range(g.n))
        for i in range(len(p)):
            part = p.members(i)
            checked += 1
            if not is_maximal_bipartite_connected(g, part, frozenset(available)):
                violations.append((name, i))
            available -= part
    report(2, violations, f"{checked} parts maximal at extraction, 0 violations")


def test_criterion_3_factor_two_bound_exact():
    violations = []
    checked = 0
    for name, g in small_corpus(12):
        q = build_quotient(g, compute_partition(g))
        chi_g = color_exact(g).palette
        chi_h = color_exact(q.h).palette
        checked += 1
        if chi_g > 2 * chi_h:
            violations.append((name, chi_g, chi_h))
    report(3, violations, f"chi(G) <= 2*chi(H) exact on {checked} graphs (n <= 12)")


def test_criterion_4_composition_properness():
    # Parts can number up to n = 40; the exact colorer's budget counts
    # search nodes, not vertices, so the default covers every quotient here.
    violations = []
    graphs = corpus()
    for name, g in graphs:
        q = build_quotient(g, compute_partition(g))
        c_h = color_exact(q.h)
        c = compose_coloring(q, c_h)
        if not verify_coloring(g, c).passed or c.palette > 2 * c_h.palette:
            violations.append(name)
    report(4, violations, f"composed colorings proper on {len(graphs)} graphs")


def test_criterion_5_lifting_soundness():
    violations = []
    lifts = 0
    for name, g in small_corpus(9):
        q = build_quotient(g, compute_partition(g))
        for t in (2, 3, 4):
            cert_h = find_expansion(q.h, t)
            if cert_h is None:
                continue
            cert = lift_expansion(g, q, cert_h)
            lifts += 1
            if not verify_odd_expansion(g, cert).passed:
                violations.append((name, t))
    report(5, violations, f"{lifts} quotient expansions lifted and verified")


def test_criterion_6_odd_k3_characterization():
    violations = []
    graphs = all_graphs_on_5()
    for g in graphs:
        found = find_odd_expansion(g, 3) is not None
        if found != (not brute_is_bipartite(g)):
            violations.append(g.sorted_edges())
    report(6, violations, f"odd-K3 iff odd cycle on all {len(graphs)} graphs on 5 vertices")


def test_criterion_7_k4_free_instance():
    # Classical f(4) = 3: quotients with no K4-expansion are 3-colorable,
    # so composed palettes stay within 6 = 2*f(4).
    violations = []
    qualifying = 0
    for name, g in small_corpus(9):
        q = build_quotient(g, compute_partition(g))
        if find_expansion(q.h, 4) is not None:
            continue
        if find_odd_expansion(g, 4) is not None:
            continue
        qualifying += 1
        c_h = color_exact(q.h)
        if c_h.palette > 3 or compose_coloring(q, c_h).palette > 6:
            violations.append(name)
    report(7, violations, f"{qualifying} K4-expansion-free quotients within 2*f(4)")


def test_criterion_8_cli_determinism():
    rng = random.Random(2026)
    violations = []
    for k in range(20):
        n = rng.randint(3, 8)
        p = rng.choice(("0.2", "0.5", "0.8"))
        seed = rng.randint(0, 999)
        graph_text = run(["gen", "gnp", str(n), p, "--seed", str(seed)])[1]
        argv = rng.choice(
            (
                ["gen", "gnp", str(n), p, "--seed", str(seed)],
                ["partition"],
                ["quotient"],
                ["color"],
                ["color", "--mode", "heuristic"],
                ["find-minor", "-t", str(rng.randint(1, 4))],
                ["find-odd-minor", "-t", str(rng.randint(1, 4))],
                ["report", "-t", str(rng.randint(2, 4))],
                ["bench", "--n", "4,5", "--p", p, "--seeds", f"{seed}..{seed + 2}"],
            )
        )
        outcomes = {run(argv, stdin_text=graph_text) for _ in range(3)}
        if len(outcomes) != 1:
            violations.append((k, argv))
    report(8, violations, "20 random invocations, 3 runs each, byte-identical")


def test_criterion_9_asymptotics_out_of_scope():
    print(
        "criterion 9: SKIP — the O(t log log t) bounds are asymptotic "
        "statements, represented at desk scale only by criteria 3 and 7"
    )
    pytest.skip("asymptotic bounds are out of scope by design")
