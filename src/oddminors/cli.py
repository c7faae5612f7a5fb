"""Command-line front end.

Subcommands mirror the library: generate graphs, run the partition /
quotient / coloring pipeline, search for (odd) K_t-expansions, verify
serialized artifacts, lift quotient expansions, and sweep a G(n, p) grid
into CSV.  Graphs come from stdin or --input; everything else is flags.

Exit codes: 0 success or PASS, 1 FAIL or NOT FOUND (or output that could not
be written), 2 usage or malformed input, 3 search/coloring budget exceeded.

``run`` is the library entry point: argv and stdin text in, the exit code and
the stdout and stderr texts back.  Each command returns its output, so ``run``
writes to neither stream and several threads may call it at once.  ``main``
does the same on the real streams and returns the code.  ``entry`` is what
``python -m oddminors.cli`` and the ``oddminors`` console script run:
``main``, then, once the output is flushed, ``os._exit`` with its code, so the
process skips the interpreter's teardown (final GC passes and module
clean-up), which is a sizeable share of a short request.  An exception that
escapes ``main`` still takes the normal interpreter exit.

Each command imports the layers it runs inside its own branch, so
``python -m oddminors.cli`` loads only those (``find-minor`` loads ``graph``
and ``minors``).  A library import of ``oddminors.cli`` binds every layer, and
so does the ``oddminors`` console script, whose entry point imports this module
as a library; the benchmark runs ``python -m`` and does not measure it.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from types import SimpleNamespace

from .errors import DEFAULT_MAX_NODES, BudgetExceeded, ContractViolation, ParseError, StructureError
from .graph import Graph, check_order, check_pairs, generate, gnp, parse_graph, render_dimacs, render_edge_list

if __name__ != "__main__":  # library callers (tests, the benchmark's tracer) see every layer loaded
    from . import coloring as _coloring, lifting

# A flag is (option strings, type, default, help).  The type is int, str or a
# tuple of allowed values.  Option strings without a leading dash name the
# positional words, as in ``gen``'s spec.
_GRAPH = ((("-i", "--input"), str, None, "read the graph from this file, not stdin"),)
_T = (("-t",), int, None, "clique size t")
_CERT = (("--cert",), str, None, "expansion certificate file (verify also takes odd ones)")
_MAX_NODES = (("--max-nodes",), int, DEFAULT_MAX_NODES, "search-node cap for exact coloring and expansion search")
# The least value of each bounded int flag; a lower one is a usage error.
_LEAST = {"-t": 1, "--max-nodes": 0}

# command -> (help, flags, required flags, flags of which exactly one is given)
COMMANDS = {
    "gen": ("emit a generated graph", (
        (("spec",), str, None, "complete T | cycle N | complete-bipartite A B | gnp N P | petersen"),
        (("--seed",), int, 0, "seed for gnp"),
        (("--format",), ("edge-list", "dimacs"), "edge-list", "output graph format"),
    ), ("spec",), ()),
    "partition": ("bipartite-connected partition plus verification", _GRAPH, (), ()),
    "quotient": ("quotient graph with witness triples", _GRAPH, (), ()),
    "color": ("color the graph", _GRAPH + (
        (("--mode",), ("exact", "heuristic", "composed"), "composed", "coloring method"),
        _MAX_NODES,
    ), (), ()),
    "find-minor": ("search for a K_t-expansion", _GRAPH + (_T, _MAX_NODES), ("-t",), ()),
    "find-odd-minor": ("search for an odd K_t-expansion", _GRAPH + (_T, _MAX_NODES), ("-t",), ()),
    "verify": ("check a serialized artifact against the graph", _GRAPH + (
        _CERT,
        (("--coloring",), str, None, "coloring file"),
        (("--partition",), str, None, "partition file"),
        (("--quotient",), str, None, "quotient file"),
    ), (), ("--cert", "--coloring", "--partition", "--quotient")),
    "lift": ("lift a quotient expansion to an odd expansion",
             _GRAPH + (_T, _CERT, _MAX_NODES), (), ("-t", "--cert")),
    "report": ("full pipeline narrative for one t", _GRAPH + (_T, _MAX_NODES), ("-t",), ()),
    "bench": ("G(n, p) sweep to CSV", (
        (("--n",), str, None, "comma list of vertex counts, e.g. 5,8"),
        (("--p",), str, None, "comma list of edge probabilities"),
        (("--seeds",), str, None, "comma list or range, e.g. 1,2,3 or 1..3"),
        _MAX_NODES,
    ), ("--n", "--p", "--seeds"), ()),
}


def _usage(command: str, message: str) -> ParseError:
    return ParseError(f"oddminors {command}: {message} (see 'oddminors {command} -h')")


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: oddminors <command> [flags]", "", "Odd-minor reduction toolkit.", "", "commands:"]
        lines += [f"  {name:<16}{spec[0]}" for name, spec in COMMANDS.items()]
        lines += ["", "'oddminors <command> -h' lists the flags of one command."]
        return "\n".join(lines) + "\n"
    summary, flags, required, one_of = COMMANDS[command]
    lines = [f"usage: oddminors {command} [flags]", "", summary, ""]
    for options, kind, default, text in flags:
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "N" if kind is int else "VALUE"
        name = options[0] + " ..." if options[0][0] != "-" else f"{', '.join(options)} {metavar}"
        note = " (required)" if options[-1] in required else ""
        note += "" if default is None else f" (default: {default})"
        lines += [f"  {name}", f"      {text}{note}"]
    if one_of:
        lines += ["", f"exactly one of {', '.join(one_of)} is required"]
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace:
    """Parse argv, which asks for no help, against ``COMMANDS``."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        given = "no command given" if command is None else f"unknown command {command!r}"
        raise ParseError(f"oddminors: {given}; choose from {', '.join(COMMANDS)}")
    tokens = iter(argv[1:])
    _, flags, required, one_of = COMMANDS[command]
    by_option = {option: flag for flag in flags for option in flag[0]}
    values = {flag[0][-1]: flag[2] for flag in flags}
    words = []
    for token in tokens:
        if token[:1] != "-" or token == "-":
            words.append(token)
            continue
        option, eq, value = token.partition("=")
        if option not in by_option and token[:2] in by_option and token[1] != "-":
            option, eq, value = token[:2], "=", token[2:]  # -t4
        if option not in by_option:
            raise _usage(command, f"unrecognized argument {token!r}")
        options, kind, _, _ = by_option[option]
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _usage(command, f"{option} expects a value")
        if isinstance(kind, tuple) and value not in kind:
            raise _usage(command, f"{option}: invalid choice {value!r}, choose from {', '.join(kind)}")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _usage(command, f"{option}: invalid int value {value!r}") from None
            least = _LEAST.get(options[-1])
            if least is not None and value < least:
                raise _usage(command, f"{option} must be at least {least}, got {value}")
        values[options[-1]] = value
    if words:
        positional = next((name for name in values if name[0] != "-"), None)
        if positional is None:
            raise _usage(command, f"unrecognized argument {words[0]!r}")
        values[positional] = words
    for name in required:
        if values[name] is None:
            raise _usage(command, f"{name} is required")
    if one_of and sum(values[name] is not None for name in one_of) != 1:
        raise _usage(command, f"give exactly one of {', '.join(one_of)}")
    return SimpleNamespace(command=command, **{k.lstrip("-").replace("-", "_"): v for k, v in values.items()})


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _comma_list(flag: str, spec: str, kind: type, noun: str) -> list:
    """The comma-separated ``kind`` values of ``spec``, or a ValueError naming ``flag``."""
    try:
        return [kind(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of {noun}, got {spec!r}") from None


def _seed_list(spec: str) -> range | list[int]:
    """The ``--seeds`` values: ``LO..HI`` as a range, never listed, or a comma list."""
    lo, dots, hi = spec.partition("..")
    try:
        return range(int(lo), int(hi) + 1) if dots else [int(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(f"--seeds must be LO..HI or a comma list of integers, got {spec!r}") from None


def _dispatch(argv: list[str], read_stdin: Callable[[], str]) -> tuple[int, str]:
    """Run one command: its exit code and its stdout text."""
    if "-h" in argv or "--help" in argv:
        return 0, _help(argv[0] if argv[0] in COMMANDS else None)
    args = _parse(argv)

    if args.command == "gen":
        g = generate(" ".join(args.spec), args.seed)
        render = render_dimacs if args.format == "dimacs" else render_edge_list
        return 0, render(g)

    if args.command == "bench":
        return 0, _bench(args)

    g = parse_graph(read_stdin() if args.input is None else _read(args.input))

    if args.command == "partition":
        from .partition import compute_partition, render_partition, verify_partition
        p = compute_partition(g)
        report = verify_partition(g, p)
        return 0 if report.passed else 1, render_partition(p) + report.render()

    if args.command == "quotient":
        from .partition import compute_partition
        from .quotient import build_quotient, render_quotient
        return 0, render_quotient(build_quotient(g, compute_partition(g)))

    if args.command == "color":
        from .coloring import color_exact, color_heuristic, compose_coloring, render_coloring
        if args.mode == "exact":
            c = color_exact(g, max_nodes=args.max_nodes)
        elif args.mode == "heuristic":
            c = color_heuristic(g)
        else:
            from .partition import compute_partition
            from .quotient import build_quotient
            q = build_quotient(g, compute_partition(g))
            c_h = color_exact(q.h, max_nodes=args.max_nodes)
            c = compose_coloring(q, c_h)
        return 0, render_coloring(c)

    if args.command in ("find-minor", "find-odd-minor"):
        from .minors import find_expansion, find_odd_expansion, render_certificate
        finder = find_expansion if args.command == "find-minor" else find_odd_expansion
        cert = finder(g, args.t, max_nodes=args.max_nodes)
        if cert is None:
            return 1, "NOT FOUND\n"
        return 0, render_certificate(cert)

    if args.command == "verify":
        report = _verify(g, args)
        return 0 if report.passed else 1, report.render()

    if args.command == "lift":
        from .lifting import lift_expansion
        from .minors import OddExpansionCertificate, find_expansion, parse_certificate, render_certificate
        from .partition import compute_partition
        from .quotient import build_quotient
        q = build_quotient(g, compute_partition(g))
        if args.cert:
            cert_h = parse_certificate(_read(args.cert))
            if isinstance(cert_h, OddExpansionCertificate):
                raise ParseError("lift expects a plain expansion certificate for the quotient")
        else:
            cert_h = find_expansion(q.h, args.t, max_nodes=args.max_nodes)
            if cert_h is None:
                return 1, "NOT FOUND\n"
        return 0, render_certificate(lift_expansion(g, q, cert_h))

    if args.command == "report":
        from .lifting import reduction_report
        return 0, reduction_report(g, args.t, max_nodes=args.max_nodes).render()

    raise AssertionError(f"unhandled command {args.command}")


def _verify(g: Graph, args: SimpleNamespace):
    if args.cert:
        from .minors import OddExpansionCertificate, parse_certificate, verify_expansion, verify_odd_expansion
        cert = parse_certificate(_read(args.cert))
        if isinstance(cert, OddExpansionCertificate):
            return verify_odd_expansion(g, cert)
        return verify_expansion(g, cert)
    if args.coloring:
        from .coloring import parse_coloring, verify_coloring
        return verify_coloring(g, parse_coloring(_read(args.coloring)))
    if args.partition:
        from .partition import parse_partition, verify_partition
        return verify_partition(g, parse_partition(_read(args.partition)))
    from .partition import compute_partition
    from .quotient import QuotientGraph, parse_quotient, verify_quotient
    h, witnesses = parse_quotient(_read(args.quotient))
    return verify_quotient(g, QuotientGraph(h, witnesses, compute_partition(g)))


# bench holds every row until it returns; about 9,000 rows/s at n = 3.
MAX_BENCH_ROWS = 10**6
BENCH_COLUMNS = (
    "n", "p", "seed", "parts", "chi_H", "composed_palette",
    "chi_G_exact_if_within_budget", "ratio",
)


def _bench(args: SimpleNamespace) -> str:
    try:
        ns = [check_order(n) for n in _comma_list("--n", args.n, int, "integers")]
        for n in ns:
            check_pairs(max(n, 0) * (n - 1) // 2)
        ps = _comma_list("--p", args.p, float, "numbers")
        seeds = _seed_list(args.seeds)
    except ValueError as exc:
        raise ParseError(f"bad bench grid: {exc}") from None
    # A range's bounds give its length, which len() cannot report past 2**63.
    count = max(seeds.stop - seeds.start, 0) if isinstance(seeds, range) else len(seeds)
    if len(ns) * len(ps) * count > MAX_BENCH_ROWS:
        raise ParseError(f"bad bench grid: {len(ns) * len(ps) * count} rows exceed {MAX_BENCH_ROWS}")
    if not seeds:  # --n and --p list at least one value each
        raise ParseError("bench grid must be non-empty")
    if min(ns) < 1 or not all(0 <= p <= 1 for p in ps):
        raise ParseError("bench grid needs every n >= 1 and every p in [0, 1]")
    from .coloring import color_exact, compose_coloring
    from .partition import compute_partition
    from .quotient import build_quotient
    rows = [",".join(BENCH_COLUMNS)]
    for n in ns:
        for p in ps:
            for seed in seeds:
                g = gnp(n, p, seed)
                part = compute_partition(g)
                q = build_quotient(g, part)
                try:
                    c_h = color_exact(q.h, max_nodes=args.max_nodes)
                    chi_h = c_h.palette
                    composed = compose_coloring(q, c_h).palette
                except BudgetExceeded:
                    chi_h = composed = None
                try:
                    chi_g = color_exact(g, max_nodes=args.max_nodes).palette
                except BudgetExceeded:
                    chi_g = None
                ratio = "" if not chi_h else f"{composed / chi_h:.4f}"
                row = (n, p, seed, len(part), chi_h, composed, chi_g, ratio)
                rows.append(",".join("" if x is None else str(x) for x in row))
    return "\n".join(rows) + "\n"


def run(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Pure entry point: argv plus stdin text in, (exit code, out, err) back."""
    return _run(argv, lambda: stdin_text)


def _run(argv: list[str], read_stdin: Callable[[], str]) -> tuple[int, str, str]:
    try:
        return *_dispatch(argv, read_stdin), ""
    except ParseError as exc:
        return 2, "", f"error: {exc}\n"
    except (StructureError, ContractViolation) as exc:
        return 1, "", f"error: {exc}\n"
    except BudgetExceeded as exc:
        return 3, "", f"error: {exc}\n"


def main() -> int:
    # stdin is read only once the parsed command asks for a graph without -i.
    code, out, err = _run(sys.argv[1:], sys.stdin.read)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk: buffered or not, one rule
        code, err = 1, f"{err}error: cannot write output: {exc.strerror or exc}\n"
    sys.stderr.write(err)
    return code


def entry() -> None:
    """Run ``main`` and end the process with its code, without interpreter teardown.

    Never returns.  ``main`` has flushed stdout (or reported why it could
    not); stderr is flushed here.  ``os._exit`` then skips the final GC passes, module
    clean-up and the exit-time flush, which would retry stdout after a failed
    write.  Nothing in the package registers exit-time work.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
