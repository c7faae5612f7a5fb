"""Answer checks, run outside the timed region.

Each check takes a request and the exit code, stdout and stderr of one run
of it, and returns ``(outcome, problem)``.  The outcome is one of ``ok``
(a checked non-search answer), ``found`` (a certificate that verified),
``not_found`` (a NOT FOUND answer: counted, but not a verified result,
since no oracle runs here), ``refused`` (a budget refusal, exit 3) or
``error``.  ``problem`` is None for ``ok``, ``found`` and ``not_found``,
and says what went wrong otherwise.

Certificates, partitions and quotients are re-checked with the program's
own clause-by-clause verifiers, imported from ``src`` of the checkout.
"""

from __future__ import annotations

import csv
import io

from oddminors.graph import Graph
from oddminors.minors import (
    OddExpansionCertificate,
    parse_certificate,
    verify_expansion,
    verify_odd_expansion,
)
from oddminors.partition import parse_partition, verify_partition
from oddminors.quotient import QuotientGraph, parse_quotient, verify_quotient

from workloads import Request

BENCH_COLUMNS = [
    "n", "p", "seed", "parts", "chi_H", "composed_palette",
    "chi_G_exact_if_within_budget", "ratio",
]


def check(req: Request, code: int, out: str, err: str) -> tuple[str, str | None]:
    if code == 3:
        return "refused", "budget refused: " + (err.strip() or "exit 3")
    try:
        return _CHECKS[req.kind](req, code, out)
    except Exception as exc:  # any malformed output is a failed check, not a crash
        return "error", f"unparseable output: {type(exc).__name__}: {exc}"


def _graph(req: Request) -> Graph:
    return Graph(req.n, req.edges)


def _exit(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}, expected 0"


def _check_partition(req: Request, code: int, out: str) -> tuple[str, str | None]:
    body, _, last = out.rstrip("\n").rpartition("\n")
    problem = _exit(code) or (None if last == "PASS" else f"last line {last!r}, expected PASS")
    if problem is None:
        report = verify_partition(_graph(req), parse_partition(body))
        if not report.passed:
            problem = "partition fails verify_partition: " + report.failures[0]
    return ("error", problem) if problem else ("ok", None)


def _check_quotient(req: Request, code: int, out: str) -> tuple[str, str | None]:
    problem = _exit(code)
    if problem is None:
        h, witnesses = parse_quotient(out)
        partition = parse_partition(req.partition_path.read_text())
        report = verify_quotient(_graph(req), QuotientGraph(h, witnesses, partition))
        if not report.passed:
            problem = "quotient fails verify_quotient: " + report.failures[0]
    return ("error", problem) if problem else ("ok", None)


def _check_verify(req: Request, code: int, out: str) -> tuple[str, str | None]:
    problem = _exit(code) or (None if out == "PASS\n" else f"output {out[:60]!r}, expected PASS")
    return ("error", problem) if problem else ("ok", None)


def _check_search(req: Request, code: int, out: str) -> tuple[str, str | None]:
    if code == 1 and out == "NOT FOUND\n":
        return "not_found", None
    problem = _exit(code)
    if problem is None:
        cert = parse_certificate(out)
        odd = req.kind == "find-odd-minor"
        base = cert.base if isinstance(cert, OddExpansionCertificate) else cert
        if odd != isinstance(cert, OddExpansionCertificate):
            problem = "certificate is not of the requested kind"
        elif len(base.trees) != req.t:
            problem = f"certificate has {len(base.trees)} trees, expected {req.t}"
        else:
            verify = verify_odd_expansion if odd else verify_expansion
            report = verify(_graph(req), cert)
            if not report.passed:
                problem = "certificate fails verification: " + report.failures[0]
    return ("error", problem) if problem else ("found", None)


def _check_report(req: Request, code: int, out: str) -> tuple[str, str | None]:
    problem = _exit(code)
    lines = out.splitlines()
    if problem is None:
        head = f"graph: {req.n} vertices, {len(req.edges)} edges"
        if not lines or lines[0] != head:
            problem = f"first line {lines[:1]!r}, expected {head!r}"
    if problem is None and "verification: PASS" not in lines:
        chi = [ln for ln in lines if ln.startswith("chi(quotient) = ")]
        composed = [ln for ln in lines if ln.startswith("composed coloring: palette ")]
        if len(chi) != 1 or len(composed) != 1:
            problem = "neither 'verification: PASS' nor a composed colouring line"
        else:
            k = int(chi[0].split("=")[1])
            palette = int(composed[0].split()[3])
            if palette > 2 * k:
                problem = f"composed palette {palette} exceeds 2*chi(quotient) = {2 * k}"
    return ("error", problem) if problem else ("ok", None)


def _check_bench(req: Request, code: int, out: str) -> tuple[str, str | None]:
    problem = _exit(code)
    if problem is not None:
        return "error", problem
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != BENCH_COLUMNS:
        return "error", f"header {rows[:1]!r}"
    ns, ps, seeds = req.grid
    expected = [(n, p, s) for n in ns for p in ps for s in seeds]
    if len(rows) - 1 != len(expected):
        return "error", f"{len(rows) - 1} rows, expected {len(expected)}"
    for row, (n, p, s) in zip(rows[1:], expected):
        if len(row) != len(BENCH_COLUMNS):
            return "error", f"row {row!r} has {len(row)} fields"
        if (int(row[0]), float(row[1]), int(row[2])) != (n, p, s):
            return "error", f"row {row!r} is out of grid order"
        if "" in row[3:]:
            return "refused", f"budget blanked cells in row {row!r}"
        parts, chi_h, composed, chi_g = (int(x) for x in row[3:7])
        if not (1 <= parts <= n and 1 <= chi_h and chi_h <= composed <= 2 * chi_h and chi_g <= composed):
            return "error", f"row {row!r} breaks chi_H <= composed <= 2*chi_H"
        if row[7] != f"{composed / chi_h:.4f}":
            return "error", f"row {row!r} has a wrong ratio"
    return "ok", None


_CHECKS = {
    "partition": _check_partition,
    "quotient": _check_quotient,
    "verify": _check_verify,
    "find-minor": _check_search,
    "find-odd-minor": _check_search,
    "report": _check_report,
    "bench": _check_bench,
}
