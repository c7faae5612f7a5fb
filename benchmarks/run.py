"""Process-level benchmark of the oddminors command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sparse_bcp --seed 1 --seconds 30 --trace 0

One run of a workload:

1. Set-up, repeated ``SETUP_REPEATS`` times and reported as the median
   ``setup_s``: draw the seeded request pool, write its input files, and
   run one untimed warm-up process (which also compiles the bytecode).
2. A closed loop with one client: one ``python -m oddminors.cli`` process
   per request, one request at a time, over the whole pool.  The pool has
   a fixed number of blocks for a given ``--seconds`` (about that long on
   the reference host), so every run of a seed sends the same requests.
   Each process is timed from spawn to exit; its peak RSS comes from
   ``wait4``.  Every ``PROBE_EVERY`` requests an untimed pair of probes
   (``python -c pass`` and ``python -c "import oddminors.cli"``) tracks
   the host's speed.
3. Answer checks, outside the timed region (see ``checks.py``).
4. With ``--trace 1``, one in-process pass over the leading
   ``TRACED_BLOCKS`` blocks through ``oddminors.cli.run``, untraced and
   traced per request in alternating order, gives the per-layer metrics
   (see ``tracing.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, prefixed ``record:``,
holds the full run record, which is also written to ``benchmarks/out``.
Exit code 1 means an answer check failed, 2 that the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROBE_EVERY = 16
REQUEST_TIMEOUT_S = 60.0
WARMUP_GRAPH = "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "graph.parse_s": "s", "graph.gnp_s": "s", "graph.vertices": "count", "graph.edges": "count",
    "partition.compute_s": "s", "partition.compute_calls": "count", "partition.parts": "count",
    "partition.verify_s": "s", "partition.verify_calls": "count",
    "quotient.build_s": "s", "quotient.witness_s": "s", "quotient.witness_calls": "count",
    "quotient.h_vertices": "count", "quotient.h_edges": "count",
    "coloring.exact_s": "s", "coloring.exact_calls": "count", "coloring.heuristic_s": "s",
    "coloring.compose_s": "s", "coloring.verify_s": "s", "coloring.budget_exceeded": "count",
    "minors.find_s": "s", "minors.find_odd_s": "s", "minors.search_calls": "count",
    "minors.found_ratio": "ratio", "minors.budget_exceeded": "count", "minors.verify_s": "s",
    "minors.tree_bfs_s": "s",
    "lifting.lift_s": "s", "lifting.report_s": "s", "lifting.lifted_trees": "count",
    "cli.interpreter_floor_s": "s", "cli.import_s": "s", "cli.process_overhead_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    """The caller's environment without budget or interpreter overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("ODDMINORS_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """Runs child processes through ``spawner.py`` (see there for why)."""

    def __init__(self, env: dict[str, str], work: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        self._out = work / "stdout.bin"
        self._err = work / "stderr.txt"

    def run(self, argv: list[str], stdin_path: Path | None):
        """Run one process to completion: (seconds, exit code, stdout bytes, stderr text, max RSS KiB)."""
        job = [argv, stdin_path and str(stdin_path), str(self._out), str(self._err), REQUEST_TIMEOUT_S]
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher exited")
        secs, code, rss = json.loads(reply)
        err = self._err.read_text(errors="replace") if code != 0 else ""
        return secs, code, self._out.read_bytes(), err, rss

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least 10 samples beyond it: (pct, value, beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "oddminors" / "cli.py").is_file():
        print(f"error: no oddminors sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    (HERE / "work").mkdir(exist_ok=True)
    launcher = Launcher(child_env(), HERE / "work")
    try:
        return run_workload(args, launcher)
    finally:
        launcher.close()


def run_workload(args: argparse.Namespace, launcher: Launcher) -> int:
    from workloads import TRACED_BLOCKS, build_pool

    work = HERE / "work" / args.workload
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cli = [sys.executable, "-m", "oddminors.cli"]

    # 1. Set-up.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        pool, block = build_pool(args.workload, args.seed, work, args.seconds)
        warm_input = work / "warmup.txt"
        warm_input.write_text(WARMUP_GRAPH)
        _, code, _, err, _ = launcher.run(cli + ["report", "-t", "3"], warm_input)
        if code != 0:
            print(f"error: warm-up process exited {code}: {err.strip()}", file=sys.stderr)
            return 2
        setup_times.append(time.perf_counter() - t0)

    # 2. Closed loop, one client, every request of the pool once.
    samples = []  # (request, seconds, exit code, stdout, stderr, max RSS KiB)
    probes: dict[str, list[float]] = {"floor": [], "import": []}
    probe_cmds = {"floor": [sys.executable, "-c", "pass"], "import": [sys.executable, "-c", "import oddminors.cli"]}
    probe_time = 0.0
    loop_start = time.perf_counter()
    for req in pool:
        if len(samples) % PROBE_EVERY == 0:
            p0 = time.perf_counter()
            for key, cmd in probe_cmds.items():
                secs, code, _, err, _ = launcher.run(cmd, None)
                if code != 0:
                    print(f"error: {key} probe exited {code}: {err.strip()}", file=sys.stderr)
                    return 2
                probes[key].append(secs)
            probe_time += time.perf_counter() - p0
        samples.append((req, *launcher.run(cli + req.argv, req.stdin_path)))
    loop_wall = time.perf_counter() - loop_start - probe_time

    # 3. Answer checks.
    from checks import check

    outputs: dict[int, tuple[int, bytes]] = {}
    outcomes: Counter = Counter()
    problems = []
    for req, _, code, out, err, _ in samples:
        outputs[req.rid] = (code, out)
        outcome, problem = check(req, code, out.decode(), err)
        outcomes[outcome] += 1
        if problem is not None:
            problems.append({"request": req.rid, "argv": req.argv, "outcome": outcome, "cause": problem})
    failed = outcomes["refused"] + outcomes["error"]
    correct = outcomes["error"] == 0
    digest = hashlib.sha256(b"".join(out for _, out in outputs.values())).hexdigest()

    latencies = [s[1] for s in samples]
    pct, tail, beyond = tail_percentile(latencies)
    e2e = {
        "jobs_per_s": len(samples) / loop_wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": max(s[5] for s in samples) / 1024,
        "setup_s": statistics.median(setup_times),
    }
    floor = statistics.median(probes["floor"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process per request",
        "block_requests": block,
        "blocks": len(pool) // block,
        "loop_wall_s": loop_wall,
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
        "outcomes": dict(outcomes),
        "problems": problems,
        "stdout_sha256": digest,
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "setup_runs_s": setup_times,
        "probe_floor_s": probes["floor"],
        "probe_import_s": probes["import"],
        "cli.interpreter_floor_s": floor,
        "cli.import_s": statistics.median(probes["import"]) - floor,
        "metrics": e2e,
    }

    if args.trace:
        traced = pool[:block * TRACED_BLOCKS[args.workload]]
        metrics, correct = traced_replay(traced, samples, outputs, record, correct, out_dir, args)
    else:
        metrics = e2e
    units = {**E2E_UNITS, **PER_LAYER_UNITS}

    record["correct"] = correct
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def traced_replay(requests, samples, outputs, record, correct, out_dir, args):
    """Run ``requests`` in process, untraced and traced; returns (per-layer metrics, correct)."""
    from oddminors import cli
    from tracing import Tracer

    tracer = Tracer()
    plain: dict[int, float] = {}
    traced: dict[int, float] = {}
    for i, req in enumerate(requests):
        text = req.stdin_path.read_text() if req.stdin_path else ""
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.rid = req.rid
                tracer.install()
            t0 = time.perf_counter()
            code, out, _ = cli.run(req.argv, text)
            secs = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall()
            (traced if with_trace else plain)[req.rid] = secs
            if (code, out.encode()) != outputs[req.rid]:
                correct = False
                record["problems"].append({"request": req.rid, "argv": req.argv, "outcome": "error",
                                           "cause": "in-process output differs from the process output"})
    process = {req.rid: secs for req, secs, *_ in samples}
    overhead = statistics.median(process[rid] - plain[rid] for rid in plain)

    metrics = tracer.metrics()
    metrics["cli.interpreter_floor_s"] = record["cli.interpreter_floor_s"]
    metrics["cli.import_s"] = record["cli.import_s"]
    metrics["cli.process_overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = sum(traced.values()) / sum(plain.values())

    layers = tracer.layer_self_times()
    per_request = {name: secs / len(requests) for name, secs in layers.items()}
    record["traced_run"] = {
        "untraced_s": sum(plain.values()),
        "traced_s": sum(traced.values()),
        "layer_self_s": layers,
        "layer_self_sum_s": sum(layers.values()),
        "per_request_s": per_request,
        "dominant_layer": max(per_request, key=per_request.get),
        "startup_share": overhead / (overhead + sum(per_request.values())),
        "spans": len(tracer.spans),
        "spans_file": f"spans-{args.workload}-seed{args.seed}.tsv",
    }
    record["per_layer"] = metrics
    tracer.write(out_dir / record["traced_run"]["spans_file"])
    return {name: metrics[name] for name in PER_LAYER_UNITS}, correct


if __name__ == "__main__":
    sys.exit(main())
