"""Seeded request pools for the three benchmark workloads.

Every input graph is drawn here from a stdlib ``random.Random`` seeded by
the workload name and the run seed, so one seed always gives the same
requests.  The program under test only ever sees the rendered graph text
(and, for ``verify --partition``, a partition file written at set-up).

A pool is a list of blocks of distinct requests.  Blocks are stratified:
each covers the workload's fixed (command, size, density) cells once and
only the edges are random, so two seeds give the same mix of work.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Request:
    """One program invocation: ``oddminors <argv>`` with ``stdin_path`` as stdin."""

    rid: int
    kind: str
    argv: list[str]
    stdin_path: Path | None = None
    n: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)
    partition_path: Path | None = None
    t: int = 0
    grid: tuple[list[int], list[float], list[int]] | None = None


def render_graph(n: int, edges: list[tuple[int, int]]) -> str:
    """Edge-list text: vertex count, then one ``u v`` line per edge."""
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """m distinct uniform edges: average degree 2m/n, O(n + m) to draw."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return sorted(chosen)


def greedy_partition(n: int, edges: list[tuple[int, int]]) -> str:
    """The maximal bipartite-connected partition, rendered in the partition format.

    Same greedy rule as the README states for ``compute_partition`` (seed
    at the lowest unused vertex, absorb the least vertex whose neighbors in
    the part sit on one side), kept independent of the program so set-up
    does not run the code under test.  A heap of candidates makes it
    O((n + m) log n).
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    unused = [True] * n
    side = [0] * n
    seen = [0] * n  # bit s set: the vertex has a neighbor on side s of the current part
    stamp = [-1] * n
    lines = []
    seed = 0
    part = 0
    while seed < n:
        members: list[int] = []
        heap: list[int] = []

        def absorb(v: int, s: int) -> None:
            unused[v] = False
            side[v] = s
            members.append(v)
            for w in adj[v]:
                if unused[w]:
                    if stamp[w] != part:
                        stamp[w] = part
                        seen[w] = 0
                    seen[w] |= 1 << s
                    if seen[w] != 3:
                        heapq.heappush(heap, w)

        absorb(seed, 0)
        while heap:
            v = heapq.heappop(heap)
            if unused[v] and seen[v] != 3:
                absorb(v, 1 if seen[v] == 1 else 0)
        a = ",".join(str(v) for v in sorted(v for v in members if side[v] == 0))
        b = ",".join(str(v) for v in sorted(v for v in members if side[v] == 1))
        lines.append(f"{part}: A={a} B={b}\n")
        part += 1
        while seed < n and not unused[seed]:
            seed += 1
    return "".join(lines)


# sparse_bcp: G(n, m = n), average degree 2, one fresh graph per request.
# The size is set per command so that every request costs about the same
# (about 0.4 s per process on the reference host): compute_partition grows
# faster than linearly in n, so partition and quotient run at n = 1200, and
# the cheaper verify_partition at n = 3000.  With one dense cost population
# of many requests, the median and the tail percentile are quantiles of that
# population, not order statistics of a few slow requests, which host-speed
# swings of 30-70% over seconds made move from run to run.
SPARSE_CELLS = (("partition", 1200), ("quotient", 1200), ("verify", 3000))

# minor_search: (t, n) pairs with (t+1)^n inside the default assignment
# budget of 1e8, so no request is refused.  The tail percentile is about the
# 11th slowest request of a run, so it is only as steady as the upper end of
# the per-instance cost: cells whose single instances take 10-100x their
# cell's median there (find-minor and find-odd-minor at (5, 10), and
# find-odd-minor at n = 10 and 11) made it swing from seed to seed, and are
# left out.  What remains still mixes early-exit FOUND with exhaustive
# NOT FOUND answers, which form the tail.
MINOR_TN = ((4, 9), (4, 10), (4, 11), (5, 9))
MINOR_PS = (0.3, 0.4, 0.5)
MINOR_ODD_MAX_N = 9

# report_pipeline: (t, n, p).  Quotients of these graphs stay within the
# default search budget (at most 13 parts at t=3, 11 at t=4) and the exact
# colouring budget (16 parts); sparser G(n, p) at n >= 60 yields larger
# quotients, which the budget refuses with exit 3.
REPORT_CELLS = ((3, 40, 0.2), (3, 60, 0.2), (3, 80, 0.18), (3, 100, 0.2), (4, 40, 0.2))
REPORT_DRAWS = 2
BENCH_GRID = ([10, 14], [0.3, 0.5])

# Per workload: seconds one block takes on the reference host (2-core VM,
# Python 3.11), which fixes how many blocks a run of --seconds sends, and
# how many leading blocks the traced run replays.
BLOCK_SECONDS = {"sparse_bcp": 1.2, "minor_search": 3.2, "report_pipeline": 1.8}
TRACED_BLOCKS = {"sparse_bcp": 3, "minor_search": 2, "report_pipeline": 6}

WORKLOADS = tuple(BLOCK_SECONDS)


def build_pool(workload: str, seed: int, work: Path, seconds: float) -> tuple[list[Request], int]:
    """Draw the requests of one run and write every file they read.

    The pool is a sequence of blocks; each block covers every cell of the
    workload once with freshly drawn graphs.  The block count is fixed by
    ``seconds`` alone, so one seed always gives the same requests and the
    latency percentiles sit at the same ranks whatever the host's speed.
    Returns the pool and its block size.
    """
    rng = random.Random(f"{workload}/{seed}")
    pool: list[Request] = []

    def graph_file(n: int, edges: list[tuple[int, int]]) -> Path:
        path = work / f"g{len(pool)}.txt"
        path.write_text(render_graph(n, edges))
        return path

    blocks = max(TRACED_BLOCKS[workload], round(seconds / BLOCK_SECONDS[workload]))
    for _ in range(blocks):
        block_start = len(pool)
        if workload == "sparse_bcp":
            for kind, n in SPARSE_CELLS:
                edges = gnm_edges(n, n, rng)
                gpath = graph_file(n, edges)
                ppath = None
                if kind != "partition":  # verify reads it; the quotient check needs it
                    ppath = work / f"p{len(pool)}.txt"
                    ppath.write_text(greedy_partition(n, edges))
                argv = ["verify", "--partition", str(ppath)] if kind == "verify" else [kind]
                pool.append(Request(len(pool), kind, argv, gpath, n, edges, ppath))
        elif workload == "minor_search":
            for t, n in MINOR_TN:
                for p in MINOR_PS:
                    for kind in ("find-minor", "find-odd-minor"):
                        if kind == "find-odd-minor" and n > MINOR_ODD_MAX_N:
                            continue
                        edges = gnp_edges(n, p, rng)
                        gpath = graph_file(n, edges)
                        pool.append(Request(len(pool), kind, [kind, "-t", str(t)], gpath, n, edges, t=t))
        else:
            for _ in range(REPORT_DRAWS):
                for t, n, p in REPORT_CELLS:
                    edges = gnp_edges(n, p, rng)
                    gpath = graph_file(n, edges)
                    pool.append(Request(len(pool), "report", ["report", "-t", str(t)], gpath, n, edges, t=t))
            first = rng.randrange(1, 1_000_000)
            ns, ps = BENCH_GRID
            argv = ["bench", "--n", ",".join(map(str, ns)), "--p", ",".join(map(str, ps)),
                    "--seeds", f"{first}..{first + 1}"]
            pool.append(Request(len(pool), "bench", argv, grid=(ns, ps, [first, first + 1])))
        block_size = len(pool) - block_start
    return pool, block_size
