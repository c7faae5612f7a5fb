"""Command-line surface: output bytes, exit codes, budgets, file handling."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import threading

import pytest
from corpus import corpus

import oddminors
from oddminors import cli
from oddminors.cli import BENCH_COLUMNS, COMMANDS, run
from oddminors.errors import DEFAULT_MAX_NODES
from oddminors.graph import MAX_PAIRS, MAX_VERTICES, check_pairs, render_edge_list

C5 = "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
C5_DIMACS = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
K4 = "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PATH4 = "4\n0 1\n1 2\n2 3\n"


class TestGen:
    def test_cycle_edge_list(self):
        code, out, err = run(["gen", "cycle", "5"])
        assert (code, out, err) == (0, C5, "")

    def test_dimacs_format(self):
        code, out, _ = run(["gen", "cycle", "4", "--format", "dimacs"])
        assert code == 0
        assert out == "p edge 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"

    def test_gnp_seeded(self):
        code, out, _ = run(["gen", "gnp", "6", "0.5", "--seed", "7"])
        assert code == 0
        assert out == "6\n0 1\n0 2\n0 5\n1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n"

    def test_unknown_generator(self):
        code, out, err = run(["gen", "moebius", "7"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "spec,count",
        [
            ("cycle 100000000000000000000", 10**20),
            ("complete 100000000000000000000", 10**20),
            ("complete-bipartite 100000000000000000000 1", 10**20 + 1),
            ("complete-bipartite 6000000 6000000", 12 * 10**6),
            ("gnp 100000000000000000000 0.5", 10**20),
            (f"cycle {MAX_VERTICES + 1}", MAX_VERTICES + 1),
            ("complete 4473", 4473 * 4472 // 2),
            ("complete 20000", 20000 * 19999 // 2),
            (f"complete {MAX_VERTICES}", MAX_VERTICES * (MAX_VERTICES - 1) // 2),
            ("gnp 4473 0.001", 4473 * 4472 // 2),
            ("complete-bipartite 3163 3162", 3163 * 3162),
        ],
    )
    def test_size_above_the_ceiling(self, spec, count):
        # Each generator builds its edge list before Graph sees n; a vertex
        # count above its ceiling, or within it but with more vertex pairs to
        # walk than theirs, exits 2 at once instead of running for ever.
        code, out, err = run(["gen", *spec.split()])
        assert (code, out) == (2, "")
        kind, *sizes = spec.split()
        vertices = sum(map(int, sizes)) if kind == "complete-bipartite" else int(sizes[0])
        detail = (
            f"vertex count {count} exceeds {MAX_VERTICES}" if vertices > MAX_VERTICES
            else f"vertex pair count {count} exceeds {MAX_PAIRS}"
        )
        assert err == f"error: bad generator spec {spec!r}: {detail}\n"

    def test_pair_ceiling_is_inclusive(self):
        check_pairs(MAX_PAIRS)
        with pytest.raises(ValueError, match=f"vertex pair count {MAX_PAIRS + 1} exceeds {MAX_PAIRS}"):
            check_pairs(MAX_PAIRS + 1)


# Each command that reads a graph, with the flags it needs to run on C5.
GRAPH_COMMAND_ARGVS = [
    ["partition"],
    ["quotient"],
    ["color"],
    ["find-minor", "-t", "3"],
    ["find-odd-minor", "-t", "3"],
    ["verify", "--partition", "{p}"],
    ["lift", "-t", "2"],
    ["report", "-t", "3"],
]
GRAPH_COMMANDS = [argv[0] for argv in GRAPH_COMMAND_ARGVS]


class TestGraphInput:
    def test_stdin_and_file_agree(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(C5)
        from_stdin = run(["partition"], stdin_text=C5)
        from_file = run(["partition", "-i", str(path)])
        assert from_stdin == from_file

    def test_dimacs_autodetected(self, tmp_path):
        code, out, _ = run(["partition"], stdin_text=C5_DIMACS)
        assert code == 0
        assert "0: A=0,2 B=1,3" in out
        # Every graph-reading command detects DIMACS on stdin by its first line.
        part = tmp_path / "p.txt"
        part.write_text("0: A=0,2 B=1,3\n1: A=4 B=\n")
        for argv in GRAPH_COMMAND_ARGVS:
            argv = [arg.format(p=part) for arg in argv]
            expected = run(argv, stdin_text=C5)
            assert expected[0] == 0 and run(argv, stdin_text=C5_DIMACS) == expected, argv

    @pytest.mark.parametrize("command", GRAPH_COMMANDS)
    def test_input_format_flag_is_gone(self, command):
        # The first line that is not blank decides the input format; there is
        # no flag to force one.
        code, out, err = run([command, "--format", "dimacs"], stdin_text=C5_DIMACS)
        assert (code, out) == (2, "")
        assert "unrecognized argument '--format'" in err

    def test_graph_commands_are_those_with_input(self):
        assert GRAPH_COMMANDS == [c for c, spec in COMMANDS.items() if any("-i" in f[0] for f in spec[1])]

    def test_trailing_comment_in_graph(self):
        code, out, _ = run(["partition"], stdin_text="3\n0 1 # note\n1 2\n")
        assert (code, out) == (0, "0: A=0,2 B=1\nPASS\n")

    def test_trailing_comment_in_partition(self, tmp_path):
        art = tmp_path / "p.txt"
        art.write_text("0: A=0,2 B=1  # note\n")
        code, out, _ = run(["verify", "--partition", str(art)], stdin_text="3\n0 1\n1 2\n")
        assert (code, out) == (0, "PASS\n")

    def test_repeated_id_in_partition_line(self, tmp_path):
        art = tmp_path / "p.txt"
        art.write_text("0: A=0,0,2 B=1\n")
        code, out, err = run(["verify", "--partition", str(art)], stdin_text="3\n0 1\n1 2\n")
        assert (code, out) == (2, "")
        assert "line 1: vertex 0 repeated on side A" in err

    def test_id_on_both_sides_is_a_verify_failure(self, tmp_path):
        art = tmp_path / "p.txt"
        art.write_text("0: A=0,2 B=1,0\n")
        code, out, _ = run(["verify", "--partition", str(art)], stdin_text="3\n0 1\n1 2\n")
        assert code == 1
        assert out.startswith("FAIL") and "part 0: sides overlap" in out

    def test_garbage_graph(self):
        code, _, err = run(["partition"], stdin_text="5\n0 one\n")
        assert code == 2
        assert "error:" in err

    def test_missing_input_file(self):
        code, _, err = run(["partition", "-i", "/nonexistent/g.txt"])
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv,text,lineno,count",
        [
            (["partition"], "100000000000000000000\n", 1, 10**20),
            (["partition"], "3000000000\n0 1\n", 1, 3 * 10**9),
            (["partition"], f"# big\n{MAX_VERTICES + 1}\n", 2, MAX_VERTICES + 1),
            (["partition"], "c big\np edge 3000000000 0\n", 2, 3 * 10**9),
            (["verify", "--quotient", "{q}"], "3\n0 1\n", 1, 10**20),
        ],
        ids=["edge-list-20-digits", "edge-list-3e9", "edge-list-ceiling-plus-1", "dimacs", "quotient"],
    )
    def test_vertex_count_above_the_ceiling(self, tmp_path, argv, text, lineno, count):
        # The parsers allocate per vertex from the header; a count above
        # the ceiling exits 2 before any allocation instead of failing with
        # an OverflowError or MemoryError traceback.
        q = tmp_path / "q.txt"
        q.write_text("100000000000000000000\n")
        argv = [arg.format(q=q) for arg in argv]
        code, out, err = run(argv, stdin_text=text)
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}: vertex count {count} exceeds {MAX_VERTICES}\n"


class TestPipelineCommands:
    def test_partition_output(self):
        code, out, _ = run(["partition"], stdin_text=C5)
        assert code == 0
        assert out == "0: A=0,2 B=1,3\n1: A=4 B=\nPASS\n"

    def test_quotient_output(self):
        code, out, _ = run(["quotient"], stdin_text=C5)
        assert code == 0
        assert out == "2\n0 1\nw 0 1 : 0 3 4\n"

    def test_color_exact(self):
        code, out, _ = run(["color", "--mode", "exact"], stdin_text=K4)
        assert code == 0
        assert out.startswith("palette 4\n")

    def test_color_heuristic(self):
        code, out, _ = run(["color", "--mode", "heuristic"], stdin_text=C5)
        assert code == 0
        assert out == "palette 3\n0 0\n1 1\n2 0\n3 1\n4 2\n"

    def test_color_composed_is_default(self):
        explicit = run(["color", "--mode", "composed"], stdin_text=C5)
        default = run(["color"], stdin_text=C5)
        assert explicit == default
        assert default[1].startswith("palette ")

    def test_color_bad_mode(self):
        code, _, _ = run(["color", "--mode", "magic"], stdin_text=C5)
        assert code == 2

    def test_find_minor_certificate(self):
        code, out, _ = run(["find-minor", "-t", "3"], stdin_text=C5)
        assert code == 0
        assert out == (
            "trees 3\n"
            "T 1: 0,1,2 / 0-1,1-2\n"
            "T 2: 3 /\n"
            "T 3: 4 /\n"
            "conn 1 2 : 2 3\n"
            "conn 1 3 : 0 4\n"
            "conn 2 3 : 3 4\n"
        )

    def test_find_minor_not_found(self):
        code, out, _ = run(["find-minor", "-t", "3"], stdin_text=PATH4)
        assert code == 1
        assert out == "NOT FOUND\n"

    @pytest.mark.parametrize(
        "command,spec,t",
        [("find-minor", ["cycle", "5"], "100"), ("find-odd-minor", ["petersen"], "11")],
    )
    def test_t_above_n_is_not_found_not_over_budget(self, command, spec, t):
        # (t+1)^n is over the size limit, but t > n answers first.
        graph = run(["gen", *spec])[1]
        assert run([command, "-t", t], stdin_text=graph) == (1, "NOT FOUND\n", "")

    def test_find_odd_minor_bipartite(self):
        code, out, _ = run(["find-odd-minor", "-t", "3"], stdin_text="4\n0 1\n1 2\n2 3\n0 3\n")
        assert code == 1
        assert out == "NOT FOUND\n"

    def test_find_odd_minor_certificate_verifies(self, tmp_path):
        code, out, _ = run(["find-odd-minor", "-t", "3"], stdin_text=C5)
        assert code == 0
        assert "parity" in out
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out, _ = run(["verify", "--cert", str(cert)], stdin_text=C5)
        assert (code, out) == (0, "PASS\n")

    def test_find_odd_minor_with_a_non_least_connector(self, tmp_path):
        # In the odd K4 {0,2,5} {1} {3} {4}, pairs (1, 2), (2, 3) and (2, 4)
        # force all four trees to the same flip, under which the least cross
        # edge 2-4 of pair (1, 4) is bichromatic: the connector must be 4-5.
        graph = "6\n0 1\n0 2\n0 3\n1 3\n1 4\n2 3\n2 4\n2 5\n3 4\n4 5\n"
        code, out, _ = run(["find-odd-minor", "-t", "4"], stdin_text=graph)
        assert code == 0
        assert "T 1: 0,2,5 / 0-2,2-5\n" in out
        assert "conn 1 4 : 4 5\n" in out
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out, _ = run(["verify", "--cert", str(cert)], stdin_text=graph)
        assert (code, out) == (0, "PASS\n")

    def test_find_odd_minor_beyond_the_breadth_first_colorings(self, tmp_path):
        # K4 on {3,4,5,6} and the triangle {0,1,2}, 0 joined to 3 and 4 and
        # 1 to 5 and 6: its odd K5 needs a class {0,1,2} colored other than
        # by breadth-first depth parity.
        graph = "7\n3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n0 1\n0 2\n1 2\n0 3\n0 4\n1 5\n1 6\n"
        code, out, _ = run(["find-odd-minor", "-t", "5"], stdin_text=graph)
        assert code == 0
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out, _ = run(["verify", "--cert", str(cert)], stdin_text=graph)
        assert (code, out) == (0, "PASS\n")

    def test_lift_by_search(self):
        code, out, _ = run(["lift", "-t", "2"], stdin_text=C5)
        assert code == 0
        assert "parity 0 : 1" in out

    def test_lift_not_found(self):
        code, out, _ = run(["lift", "-t", "5"], stdin_text=C5)
        assert (code, out) == (1, "NOT FOUND\n")

    def test_lift_from_certificate_file(self, tmp_path):
        quotient_cert = tmp_path / "qcert.txt"
        quotient_cert.write_text(
            "trees 2\nT 1: 0 /\nT 2: 1 /\nconn 1 2 : 0 1\n"
        )
        code, out, _ = run(["lift", "--cert", str(quotient_cert)], stdin_text=C5)
        assert code == 0
        lifted = tmp_path / "lifted.txt"
        lifted.write_text(out)
        code, out, _ = run(["verify", "--cert", str(lifted)], stdin_text=C5)
        assert (code, out) == (0, "PASS\n")

    def test_lift_of_a_failing_quotient_certificate_exits_1(self, tmp_path):
        # The quotient of this graph has 3 vertices, so tree 2's vertex 5 is
        # out of range: a certificate that fails its verifier is a structure
        # error (exit 1), with one error line and nothing on stdout.
        graph = run(["gen", "gnp", "12", "0.5", "--seed", "3"])[1]
        quotient_cert = tmp_path / "qcert.txt"
        quotient_cert.write_text("trees 2\nT 1: 0 /\nT 2: 5 /\nconn 1 2 : 0 5\n")
        code, out, err = run(["lift", "--cert", str(quotient_cert)], stdin_text=graph)
        assert (code, out) == (1, "")
        assert err.startswith("error: quotient certificate fails verification:")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_lift_rejects_odd_certificate(self, tmp_path):
        odd = tmp_path / "odd.txt"
        odd.write_text(run(["find-odd-minor", "-t", "2"], stdin_text=C5)[1])
        code, _, err = run(["lift", "--cert", str(odd)], stdin_text=C5)
        assert code == 2
        assert "plain expansion certificate" in err

    def test_report_found(self):
        code, out, _ = run(["report", "-t", "2"], stdin_text=C5)
        assert code == 0
        assert "K2-expansion in quotient: found" in out
        assert "verification: PASS" in out

    def test_report_not_found(self):
        code, out, _ = run(["report", "-t", "3"], stdin_text="4\n0 1\n1 2\n2 3\n0 3\n")
        assert code == 0
        assert "quotient is K3-expansion-free" in out
        assert "chi(quotient) = 1" in out


class TestVerifySubcommand:
    def test_partition_round_trip(self, tmp_path):
        art = tmp_path / "p.txt"
        art.write_text(run(["partition"], stdin_text=C5)[1].removesuffix("PASS\n"))
        code, out, _ = run(["verify", "--partition", str(art)], stdin_text=C5)
        assert (code, out) == (0, "PASS\n")

    def test_quotient_round_trip(self, tmp_path):
        art = tmp_path / "q.txt"
        art.write_text(run(["quotient"], stdin_text=C5)[1])
        code, out, _ = run(["verify", "--quotient", str(art)], stdin_text=C5)
        assert (code, out) == (0, "PASS\n")

    def test_coloring_round_trip(self, tmp_path):
        art = tmp_path / "c.txt"
        art.write_text(run(["color"], stdin_text=C5)[1])
        code, out, _ = run(["verify", "--coloring", str(art)], stdin_text=C5)
        assert (code, out) == (0, "PASS\n")

    def test_corrupted_coloring_fails(self, tmp_path):
        art = tmp_path / "c.txt"
        art.write_text("palette 1\n0 0\n1 0\n2 0\n3 0\n4 0\n")
        code, out, _ = run(["verify", "--coloring", str(art)], stdin_text=C5)
        assert code == 1
        assert out.startswith("FAIL")

    def test_corrupted_certificate_fails(self, tmp_path):
        art = tmp_path / "cert.txt"
        art.write_text("trees 2\nT 1: 0 /\nT 2: 2 /\nconn 1 2 : 0 2\n")
        code, out, _ = run(["verify", "--cert", str(art)], stdin_text=C5)
        assert code == 1
        assert "non-edge" in out

    def test_exactly_one_artifact_required(self, tmp_path):
        code, _, _ = run(["verify"], stdin_text=C5)
        assert code == 2
        a = tmp_path / "a.txt"
        a.write_text(run(["color"], stdin_text=C5)[1])
        code, _, _ = run(
            ["verify", "--coloring", str(a), "--partition", str(a)], stdin_text=C5
        )
        assert code == 2


class TestArtifactsPassOwnVerify:
    """Every artifact the CLI writes passes the CLI's own ``verify``.

    A NOT FOUND or a budget refusal writes no artifact and is skipped.  The
    colorings get a small node budget, which refuses only a few of the
    corpus graphs and keeps the exact coloring of the rest short.
    """

    # (command, verify flag): the flag reads the command's stdout
    WRITERS = [
        (["partition"], "--partition"),
        (["quotient"], "--quotient"),
        (["color", "--mode", "exact", "--max-nodes", "20000"], "--coloring"),
        (["color", "--mode", "heuristic"], "--coloring"),
        (["color", "--mode", "composed", "--max-nodes", "20000"], "--coloring"),
        (["find-minor", "-t", "4"], "--cert"),
        (["find-odd-minor", "-t", "4"], "--cert"),
        (["lift", "-t", "2"], "--cert"),
        (["lift", "-t", "3"], "--cert"),
    ]

    @pytest.mark.parametrize("argv,flag", WRITERS, ids=[" ".join(argv[:3]) for argv, _ in WRITERS])
    def test_corpus(self, tmp_path, argv, flag):
        art = tmp_path / "artifact.txt"
        written = 0
        for name, g in corpus():
            text = render_edge_list(g)
            code, out, _ = run(argv, stdin_text=text)
            if code != 0:
                continue
            art.write_text(out.removesuffix("PASS\n") if flag == "--partition" else out)
            assert run(["verify", flag, str(art)], stdin_text=text) == (0, "PASS\n", ""), name
            written += 1
        assert written >= 30

    # The README repro of a quotient contracted along a user partition.
    REPRO = "4\n0 1\n0 2\n1 2\n1 3\n"

    @pytest.mark.parametrize("command", ["quotient", "color"])
    def test_partition_flag_is_gone(self, tmp_path, command):
        part = tmp_path / "p.txt"
        part.write_text("0: A=0 B=2\n1: A=1 B=3\n")
        code, out, err = run([command, "--partition", str(part)], stdin_text=self.REPRO)
        assert (code, out) == (2, "")
        assert "unrecognized argument '--partition'" in err

    def test_repro_quotient_passes_verify(self, tmp_path):
        art = tmp_path / "q.txt"
        code, out, _ = run(["quotient"], stdin_text=self.REPRO)
        assert code == 0
        art.write_text(out)
        assert run(["verify", "--quotient", str(art)], stdin_text=self.REPRO) == (0, "PASS\n", "")


class TestMalformedArtifacts:
    """Malformed artifact lines exit 2 with an error naming the line."""

    def _verify(self, tmp_path, flag, artifact):
        art = tmp_path / "artifact.txt"
        art.write_text(artifact)
        return run(["verify", flag, str(art)], stdin_text=C5)

    def test_non_integer_palette(self, tmp_path):
        result = self._verify(tmp_path, "--coloring", "palette x\n0 0\n")
        assert result == (2, "", "error: line 1: expected 'palette k', got 'palette x'\n")

    def test_tree_line_without_label(self, tmp_path):
        result = self._verify(tmp_path, "--cert", "trees 1\nT : 0 /\n")
        assert result == (2, "", "error: line 2: cannot parse certificate line 'T : 0 /'\n")

    @pytest.mark.parametrize(
        "artifact,lineno,raw",
        [
            ("trees x\n", 1, "trees x"),
            ("trees 1\nT 1: 0 / 0-x\n", 2, "T 1: 0 / 0-x"),
            ("trees\n", 1, "trees"),
        ],
        ids=["non-integer-count", "non-integer-endpoint", "missing-count"],
    )
    def test_certificate_field_errors_have_one_wording(self, tmp_path, artifact, lineno, raw):
        result = self._verify(tmp_path, "--cert", artifact)
        assert result == (2, "", f"error: line {lineno}: cannot parse certificate line {raw!r}\n")

    def test_quotient_edge_error_names_its_own_line(self, tmp_path):
        result = self._verify(tmp_path, "--quotient", "# hdr\n\n2\n0 1 7\nw 0 1 : 0 1 2\n")
        assert result == (2, "", "error: line 4: expected 'u v', got '0 1 7'\n")

    @pytest.mark.parametrize(
        "tree,detail",
        [
            ("T 1: 0,,1 / 0-1,,", "cannot parse certificate line 'T 1: 0,,1 / 0-1,,'"),
            ("T 1: 0,0 /", "vertex 0 repeated"),
            ("T 1: 0,1 / 0-1,1-0", "edge 0-1 repeated"),
        ],
        ids=["empty-token", "repeated-vertex", "repeated-edge"],
    )
    def test_certificate_id_fields(self, tmp_path, tree, detail):
        # The triangle holds each tree; without the id rule these certificates PASS.
        art = tmp_path / "cert.txt"
        art.write_text(f"trees 1\n{tree}\n")
        result = run(["verify", "--cert", str(art)], stdin_text="3\n0 1\n0 2\n1 2\n")
        assert result == (2, "", f"error: line 2: {detail}\n")


class TestGoldenStdout:
    """Byte-identical output on a fixed corpus slice, pinned by sha256.

    The digests were captured before the line-format layer and the BFS
    kernel were rewritten.  Each command's stream is the concatenation, over
    every third graph of ``tests/corpus.py``, of the graph's name, the exit
    code and stdout.  The ``verify`` streams read back the artifacts the
    other commands wrote, so they cover every parser; they also take stderr,
    which pins the errors for artifacts that are not certificates (NOT FOUND,
    a budget refusal).
    """

    COMMANDS = {
        "partition": ["partition"],
        "quotient": ["quotient"],
        "color": ["color"],
        "find-minor": ["find-minor", "-t", "4"],
        "find-odd-minor": ["find-odd-minor", "-t", "4"],
        "report": ["report", "-t", "3"],
    }
    # verify flag -> the command whose stdout is its artifact
    ARTIFACTS = {
        "--partition": "partition",
        "--quotient": "quotient",
        "--coloring": "color",
        "--cert": "find-odd-minor",
    }
    DIGESTS = {
        "partition": "8066ad25cab465ec72b7e72f938cf4ec3f66f988c624e9589a4842a336c142b9",
        "quotient": "9b425375654ed70cffadd8f3c606113f701434106773815d9331f7ff94713812",
        "color": "abd93c7ecacdd59f7aaa5df1501d0105bd7108cf54d4cdb8004172deb4ad5b49",
        # Restated when the size limit came to read the 2-core: of the 238
        # requests of these two streams that exited 3, 34 answer (26 NOT
        # FOUND, 8 FOUND), and no other request changed its stdout.
        "find-minor": "36930c98c040db4634422bf29c408c3a3ab487bf4378267e50db9b5c4e33a99c",
        "find-odd-minor": "2ee2d8347393887e78da8c4afebfc0dab74d00a07b164bb0225c794ae5d21f31",
        "report": "623004446d9eac8ff04d064139fdb77ecc1485cca03253864ef9e932656f1691",
        # Every artifact the CLI wrote passes, so these three streams agree.
        "verify --partition": "acb9205dfa3122839e8d83f39a6a03a11ba807b0691b18fe876240070b88bad1",
        "verify --quotient": "acb9205dfa3122839e8d83f39a6a03a11ba807b0691b18fe876240070b88bad1",
        "verify --coloring": "acb9205dfa3122839e8d83f39a6a03a11ba807b0691b18fe876240070b88bad1",
        "verify --cert": "f141ee2d1034af030ca38271ace74c2306e1966abcdd4dcf26eafed0f5cd4f91",
    }

    def test_stdout_digests(self, tmp_path):
        keys = [*self.COMMANDS, *(f"verify {flag}" for flag in self.ARTIFACTS)]
        digests = {key: hashlib.sha256() for key in keys}
        art = tmp_path / "artifact.txt"
        for name, g in corpus()[::3]:
            text = render_edge_list(g)
            outs = {}
            for key, argv in self.COMMANDS.items():
                code, out, _ = run(argv, stdin_text=text)
                outs[key] = out
                digests[key].update(f"{name}\n{code}\n{out}".encode())
            for flag, key in self.ARTIFACTS.items():
                artifact = outs[key]
                if key == "partition":  # drop the PASS / FAIL report line
                    artifact = artifact[: artifact.rindex("\n", 0, len(artifact) - 1) + 1]
                art.write_text(artifact)
                code, out, err = run(["verify", flag, str(art)], stdin_text=text)
                digests[f"verify {flag}"].update(f"{name}\n{code}\n{out}{err}".encode())
        assert {key: h.hexdigest() for key, h in digests.items()} == self.DIGESTS


class TestBudgets:
    BUDGETED = ("color", "find-minor", "find-odd-minor", "lift", "report", "bench")

    def test_flag_trips_budget(self):
        code, out, err = run(["find-minor", "-t", "3", "--max-nodes", "1"], stdin_text=C5)
        assert code == 3
        assert out == ""
        assert "error:" in err

    def test_parity_cut_answers_before_the_first_node(self):
        # K5,5 is bipartite, so the odd search has no node to count.
        graph = run(["gen", "complete-bipartite", "5", "5"])[1]
        argv = ["find-odd-minor", "-t", "3", "--max-nodes", "1"]
        assert run(argv, stdin_text=graph) == (1, "NOT FOUND\n", "")

    def test_size_limit_refusal_gives_the_power(self):
        # 4^7200 has more digits than Python converts to text by default, so
        # the refusal names the power and never the integer.
        code, out, err = run(["find-minor", "-t", "3"], stdin_text=run(["gen", "cycle", "7200"])[1])
        assert (code, out) == (3, "")
        assert err == "error: (t+1)^n = 4^7200 assignments exceeds the limit of 100000000\n"

    @pytest.mark.parametrize("command,t", [("find-minor", "2"), ("find-odd-minor", "1")])
    def test_k1_and_k2_answer_past_the_size_limit(self, command, t, tmp_path):
        # No search runs at t <= 2, so C30 answers, though 3^30 and 2^30 maps
        # of its 2-core exceed the limit, and --max-nodes 0 does not refuse it.
        graph = run(["gen", "cycle", "30"])[1]
        code, out, err = run([command, "-t", t, "--max-nodes", "0"], stdin_text=graph)
        assert (code, err) == (0, "")
        assert out.startswith({"2": "trees 2\nT 1: 28 /\nT 2: 29 /\n", "1": "trees 1\nT 1: 29 /\n"}[t])
        (tmp_path / "cert.txt").write_text(out)
        assert run(["verify", "--cert", str(tmp_path / "cert.txt")], stdin_text=graph) == (0, "PASS\n", "")

    @pytest.mark.parametrize("command", ["find-minor", "find-odd-minor"])
    def test_size_limit_reads_the_2_core(self, command, tmp_path):
        # A triangle with a 20-vertex pendant path: 4^23 maps of all its
        # vertices exceed the limit, but the search runs on its 2-core, the
        # triangle.
        graph = "23\n0 1\n0 2\n1 2\n" + "".join(f"{v} {v + 1}\n" for v in range(2, 22))
        code, out, err = run([command, "-t", "3"], stdin_text=graph)
        assert (code, err) == (0, "")
        assert out.startswith("trees 3\nT 1: 0 /\nT 2: 1 /\nT 3: 2 /\n")
        (tmp_path / "cert.txt").write_text(out)
        assert run(["verify", "--cert", str(tmp_path / "cert.txt")], stdin_text=graph) == (0, "PASS\n", "")

    def test_environment_sets_no_budget(self, monkeypatch):
        argvs = (["find-minor", "-t", "3"], ["color", "--mode", "exact"])
        for name in ("ODDMINORS_MAX_ASSIGNMENTS", "ODDMINORS_MAX_NODES"):
            monkeypatch.delenv(name, raising=False)
        clean = [run(argv, stdin_text=C5) for argv in argvs]
        monkeypatch.setenv("ODDMINORS_MAX_ASSIGNMENTS", "1")
        monkeypatch.setenv("ODDMINORS_MAX_NODES", "1")
        assert [run(argv, stdin_text=C5) for argv in argvs] == clean

    @pytest.mark.parametrize("flag,default", [("--max-nodes", DEFAULT_MAX_NODES)])
    def test_help_shows_budget_default(self, flag, default):
        # --max-nodes is the one budget flag, on every command that searches.
        for command, (_, flags, _, _) in COMMANDS.items():
            out = run([command, "-h"])[1]
            lines = out.splitlines()
            budgets = [line.split()[0] for line in lines if line.startswith("  --max-")]
            assert budgets == ([flag] if command in self.BUDGETED else []), command
            if budgets:
                text = lines[lines.index(f"  {flag} N") + 1]
                assert text.endswith(f"(default: {default})")

    @pytest.mark.parametrize("flag", ["--max-vertices", "--max-assignments"])
    def test_removed_budget_flag_is_unrecognized(self, flag):
        code, out, err = run(["report", "-t", "3", flag, "5"], stdin_text=C5)
        assert (code, out) == (2, "")
        assert f"unrecognized argument '{flag}'" in err

    def test_exact_coloring_vertex_budget(self, tmp_path):
        # Size alone no longer refuses: both graphs have 40 vertices, and the
        # node budget covers their search.
        for spec in (["cycle", "40"], ["gnp", "40", "0.2"]):
            graph = run(["gen", *spec])[1]
            code, out, err = run(["color", "--mode", "exact"], stdin_text=graph)
            assert (code, err) == (0, ""), spec
            art = tmp_path / "c.txt"
            art.write_text(out)
            assert run(["verify", "--coloring", str(art)], stdin_text=graph) == (0, "PASS\n", ""), spec

    def test_exact_coloring_of_a_long_odd_cycle(self):
        # The search is as deep as C1501 is long; only --max-nodes bounds it.
        code, out, err = run(["color", "--mode", "exact"], stdin_text=run(["gen", "cycle", "1501"])[1])
        assert (code, err) == (0, "")
        assert out.startswith("palette 3\n")

    @pytest.mark.parametrize(
        "spec", [["gnp", "25", "0.1", "--seed", "9184"], ["gnp", "36", "0.3", "--seed", "9235"]], ids=" ".join
    )
    def test_exact_coloring_stops_at_the_clique_bound(self, spec):
        # A coloring with as many colors as the greedy clique is optimal, so
        # the search ends there: a small budget gives the default's answer.
        graph = run(["gen", *spec])[1]
        small = run(["color", "--mode", "exact", "--max-nodes", "1000"], stdin_text=graph)
        assert small[0] == 0
        assert small == run(["color", "--mode", "exact"], stdin_text=graph)


class TestBench:
    def test_grid_shape_and_ratio(self):
        code, out, err = run(
            ["bench", "--n", "4,5", "--p", "0.5", "--seeds", "1..2"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(BENCH_COLUMNS)
        assert len(rows) == 1 + 4
        for n, p, seed, parts, chi_h, composed, chi_g, ratio in rows[1:]:
            assert int(parts) >= 1
            assert int(composed) <= 2 * int(chi_h)
            assert int(chi_g) <= int(composed)
            assert ratio == f"{int(composed) / int(chi_h):.4f}"

    def test_seed_list_forms_agree(self):
        ranged = run(["bench", "--n", "4", "--p", "0.3", "--seeds", "1..3"])
        listed = run(["bench", "--n", "4", "--p", "0.3", "--seeds", "1,2,3"])
        assert ranged == listed

    def test_budget_blanks_not_errors(self):
        # Five search nodes cover both quotients (11 and 4 parts) and the
        # sparse graph, whose greedy coloring meets its clique bound; the
        # dense graph's chi(G) needs more, so only that cell blanks out.
        # Exit stays 0.
        code, out, _ = run(
            ["bench", "--n", "18", "--p", "0.05,0.5", "--seeds", "2",
             "--max-nodes", "5"]
        )
        assert code == 0
        sparse, dense = list(csv.reader(io.StringIO(out)))[1:]
        assert "" not in sparse
        assert dense[4] != "" and dense[7] != "" and dense[6] == ""

    def test_quotient_overrun_blanks_its_cells(self, monkeypatch):
        # Force the quotient's exact coloring over budget (every quotient
        # here has fewer vertices than its 18-vertex graph): chi_H,
        # composed and ratio blank out, chi(G) is still tried under the
        # same node budget, the row still prints and exit stays 0.
        real = cli._coloring.color_exact

        def quotient_overruns(g, *, max_nodes):
            if g.n < 18:
                raise cli.BudgetExceeded("forced quotient overrun")
            return real(g, max_nodes=max_nodes)

        monkeypatch.setattr(cli._coloring, "color_exact", quotient_overruns)
        code, out, _ = run(
            ["bench", "--n", "18", "--p", "0.05,0.5", "--seeds", "2",
             "--max-nodes", "5"]
        )
        assert code == 0
        sparse, dense = list(csv.reader(io.StringIO(out)))[1:]
        assert sparse[:3] == ["18", "0.05", "2"] and sparse[3] != ""
        assert sparse[4:6] == ["", ""] and sparse[6] != "" and sparse[7] == ""
        assert dense[3] != "" and dense[4:] == ["", "", "", ""]

    def test_rows_match_a_csv_writer_rendering(self):
        code, out, _ = run(
            ["bench", "--n", "6,18", "--p", "0.05,0.5", "--seeds", "1..2", "--max-nodes", "5"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert any("" in row for row in rows[1:])
        rendered = io.StringIO()
        csv.writer(rendered, lineterminator="\n").writerows(rows)
        assert out == rendered.getvalue()

    @pytest.mark.parametrize(
        "n,p",
        [("4", "1.5"), ("0", "0.5"), ("100000000000000000000", "0.5"), ("4473", "0.5"), ("5,20000", "0.0001")],
    )
    def test_out_of_range_grid_rejected(self, n, p):
        code, out, err = run(["bench", "--n", n, "--p", p, "--seeds", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_seed_range_past_the_ceiling_rejected_before_it_is_built(self):
        # A trillion-seed range is refused by its length; it once ran out of
        # memory building the list.
        code, out, err = run(["bench", "--n", "3", "--p", "0.5", "--seeds", "1..1000000000000"])
        assert (code, out) == (2, "")
        assert err == "error: bad bench grid: 1000000000000 rows exceed 1000000\n"

    @pytest.mark.parametrize(
        "n,p,seeds,rows",
        [
            ("3", "0.5", "1..10000000", 10**7),  # once ran for minutes
            ("3,4", "0.1,0.2", "1..250001", 1000004),
            ("3", "0.5", "-1.." + "9" * 30, 10**30 + 1),
        ],
    )
    def test_grid_past_the_row_ceiling_rejected_before_a_graph(self, monkeypatch, n, p, seeds, rows):
        def no_graph(*args):
            raise AssertionError("bench built a graph")

        monkeypatch.setattr(cli, "gnp", no_graph)
        code, out, err = run(["bench", "--n", n, "--p", p, "--seeds", seeds])
        assert (code, out) == (2, "")
        assert err == f"error: bad bench grid: {rows} rows exceed 1000000\n"

    def test_grid_at_the_row_ceiling_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def first_graph(*args):
            raise Built

        monkeypatch.setattr(cli, "gnp", first_graph)
        with pytest.raises(Built):
            run(["bench", "--n", "3,4", "--p", "0.1,0.2", "--seeds", "1..250000"])

    @pytest.mark.parametrize("seeds", ["1..2..3", "1..", "..2", "1,,2", "1,x", ""])
    def test_seed_spec_names_its_forms(self, seeds):
        code, out, err = run(["bench", "--n", "3", "--p", "0.5", "--seeds", seeds])
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad bench grid: --seeds must be LO..HI or a comma list of integers, got {seeds!r}\n"
        )

    @pytest.mark.parametrize(
        "n,p,text",
        [
            ("5,a", "0.5", "--n must be a comma list of integers, got '5,a'"),
            ("4.5", "0.5", "--n must be a comma list of integers, got '4.5'"),
            ("5", "x", "--p must be a comma list of numbers, got 'x'"),
            ("5", "0.5,", "--p must be a comma list of numbers, got '0.5,'"),
            ("100000000000000000000", "0.5", "vertex count 100000000000000000000 exceeds 10000000"),
        ],
    )
    def test_grid_axes_name_their_forms(self, n, p, text):
        assert run(["bench", "--n", n, "--p", p, "--seeds", "1"]) == (2, "", f"error: bad bench grid: {text}\n")

    def test_empty_grid_rejected(self):
        assert run(["bench", "--n", "", "--p", "0.5", "--seeds", "1"]) == (
            2, "", "error: bad bench grid: --n must be a comma list of integers, got ''\n"
        )

    def test_empty_seed_range_rejected(self):
        assert run(["bench", "--n", "3", "--p", "0.5", "--seeds", "5..1"]) == (
            2, "", "error: bench grid must be non-empty\n"
        )


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_missing_required_t(self):
        code, _, _ = run(["find-minor"], stdin_text=C5)
        assert code == 2

    def test_runs_are_deterministic(self):
        for argv in (["report", "-t", "2"], ["bench", "--n", "5", "--p", "0.5", "--seeds", "3"]):
            first = run(argv, stdin_text=C5)
            second = run(argv, stdin_text=C5)
            assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            [],
            ["partition", "--frobnicate"],
            ["partition", "stray"],
            ["find-minor"],
            ["find-minor", "-t"],
            ["find-minor", "-t", "x"],
            ["report", "-tx"],
            ["partition", "--format", "csv"],
            ["gen", "cycle", "5", "--format=auto"],
            ["color", "--mode", "magic"],
            ["verify"],
            ["verify", "--coloring", "a.txt", "--partition", "a.txt"],
            ["lift", "-t", "2", "--cert", "c.txt"],
            ["lift"],
            ["gen"],
            ["gen", "--seed", "7"],
            ["bench", "--n", "4", "--p", "0.5"],
            ["report", "--inp", "g.txt", "-t", "3"],
            ["find-minor", "-t", "0"],
            ["find-odd-minor", "-t", "-2"],
            ["lift", "-t", "0"],
            ["report", "-t", "0"],
            ["color", "--mode", "exact", "--max-nodes", "-1"],
            ["report", "-t", "3", "--max-nodes", "-1"],
            ["find-minor", "-t", "3", "--max-nodes", "-5"],
            ["bench", "--n", "4", "--p", "0.5", "--seeds", "1", "--max-nodes=-1"],
        ],
    )
    def test_usage_errors(self, argv):
        code, out, err = run(argv, stdin_text=C5)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_seed_may_be_negative(self):
        code, out, _ = run(["gen", "gnp", "6", "0.5", "--seed", "-3"])
        assert code == 0
        assert out == render_edge_list(oddminors.gnp(6, 0.5, -3))

    def test_top_level_help_lists_every_command(self):
        for flag in ("-h", "--help"):
            code, out, err = run([flag])
            assert (code, err) == (0, "")
            assert out.startswith("usage: oddminors")
            for command, (summary, *_rest) in COMMANDS.items():
                assert f"  {command}" in out and summary in out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_help_lists_its_flags(self, command):
        code, out, err = run([command, "-h"], stdin_text=C5)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: oddminors {command}")
        for options, _kind, _default, text in COMMANDS[command][1]:
            assert all(option in out for option in options)
            assert text in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "-t", "3", "--max-nodes", "100000"],
            ["report", "-t3", "--max-nodes=100000"],
            ["report", "--max-nodes=100000", "-t=3"],
            ["report", "--max-nodes", "100000", "-t", "3"],
        ],
    )
    def test_flag_forms_agree(self, argv):
        assert run(argv, stdin_text=C5) == run(["report", "-t", "3"], stdin_text=C5)


# One request per exit code 0, 1, 2 and 3, as (argv, stdin text).
EXIT_CASES = [
    (["partition"], C5),
    (["find-minor", "-t", "4"], C5),
    (["partition"], "5\n0 one\n"),
    (["find-minor", "-t", "3", "--max-nodes", "1"], C5),
]
EXIT_IDS = ["exit-0", "exit-1", "exit-2", "exit-3"]


class _UnreadableStdin:
    def read(self):
        raise AssertionError("stdin must not be read")


class TestMainStdin:
    """main() reads stdin only when the parsed command wants a graph from it."""

    def _main(self, monkeypatch, capsys, *argv, stdin=None):
        monkeypatch.setattr(sys, "argv", ["oddminors", *argv])
        monkeypatch.setattr(sys, "stdin", stdin or _UnreadableStdin())
        code = cli.main()
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("form", ["--input={}", "-i{}", "-i {}", "--input {}"])
    def test_input_flag_skips_stdin(self, monkeypatch, capsys, tmp_path, form):
        path = tmp_path / "g.txt"
        path.write_text(C5)
        argv = form.format(path).split(" ")
        code, out, _ = self._main(monkeypatch, capsys, "partition", *argv)
        assert (code, out) == (0, "0: A=0,2 B=1,3\n1: A=4 B=\nPASS\n")

    @pytest.mark.parametrize(
        "argv,expected",
        [(["partition", "--inp", "g.txt"], 2), (["frobnicate"], 2), (["gen", "cycle", "3"], 0), (["partition", "-h"], 0)],
    )
    def test_no_graph_wanted_skips_stdin(self, monkeypatch, capsys, argv, expected):
        assert self._main(monkeypatch, capsys, *argv)[0] == expected

    def test_graph_read_from_stdin(self, monkeypatch, capsys):
        code, out, _ = self._main(monkeypatch, capsys, "partition", stdin=io.StringIO(C5))
        assert (code, out) == (0, "0: A=0,2 B=1,3\n1: A=4 B=\nPASS\n")

    @pytest.mark.parametrize("argv,text", EXIT_CASES, ids=EXIT_IDS)
    def test_returns_the_code_of_run(self, monkeypatch, capsys, argv, text):
        # In process, main() returns its code; only entry() ends the process.
        assert self._main(monkeypatch, capsys, *argv, stdin=io.StringIO(text)) == run(argv, text)


class TestRunIsPure:
    """``run`` returns its output and touches neither process stream, so
    threads may call it at once."""

    # Eight requests, each with its own graph and its own output.
    REQUESTS = [
        (["partition"], render_edge_list(oddminors.gnp(40 + 5 * i, 0.3, i))) for i in range(8)
    ]
    ROUNDS = 15

    @pytest.fixture(autouse=True)
    def _switch_often(self):
        # Threads take turns far more often than by default, so calls overlap.
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(before)

    def _in_threads(self, requests):
        """Each (argv, text) request run ``ROUNDS`` times in its own thread; each thread's results."""
        start = threading.Barrier(len(requests))
        results = [None] * len(requests)

        def work(i, argv, text):
            start.wait()
            results[i] = [run(argv, text) for _ in range(self.ROUNDS)]

        threads = [threading.Thread(target=work, args=(i, *request)) for i, request in enumerate(requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def test_concurrent_calls_get_their_serial_results(self):
        serial = [run(argv, text) for argv, text in self.REQUESTS]
        assert len(set(serial)) == len(serial) and all(code == 0 for code, _, _ in serial)
        for got, expected in zip(self._in_threads(self.REQUESTS), serial):
            assert got == [expected] * self.ROUNDS

    def test_streams_unchanged_after_concurrent_usage_errors(self):
        before = sys.stdout, sys.stderr
        requests = self.REQUESTS[:4] + [(["frobnicate"], ""), (["find-minor"], C5), (["-h"], ""), (["gen"], "")]
        results = self._in_threads(requests)
        assert sys.stdout is before[0] and sys.stderr is before[1]
        for got, (argv, text) in zip(results, requests):
            assert got == [run(argv, text)] * self.ROUNDS

    def test_process_streams_see_no_output_and_lose_none(self, capsys):
        for argv, text in EXIT_CASES + [(["-h"], ""), (["bench", "--n", "4", "--p", "0.5", "--seeds", "1"], "")]:
            run(argv, text)
        assert capsys.readouterr() == ("", "")

        def read_stdin():  # something else writes to the process streams during a call
            print("note")
            print("warning", file=sys.stderr)
            return C5

        assert cli._run(["partition"], read_stdin) == run(["partition"], C5)
        assert capsys.readouterr() == ("note\n", "warning\n")


def _python(*args, unbuffered=False, **kwargs):
    """Run the interpreter on ``args``, text mode, with this checkout's package importable.

    Standard streams are block-buffered unless ``unbuffered``, whatever
    PYTHONUNBUFFERED the caller has.  stdout and stderr are captured unless
    given.
    """
    src = os.path.dirname(os.path.dirname(oddminors.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


class TestProcessExit:
    """``python -m oddminors.cli`` ends through ``entry``: the same streams and
    code as ``run``, all of the output, and one error line for a closed stdout."""

    CLI = ("-m", "oddminors.cli")
    BIG = ["gen", "gnp", "400", "0.5", "--seed", "1"]  # about 297 KB of edge list
    BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])

    @BUFFERING
    @pytest.mark.parametrize("argv,text", EXIT_CASES, ids=EXIT_IDS)
    def test_same_result_as_run(self, argv, text, unbuffered):
        proc = _python(*self.CLI, *argv, input=text, unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv, text)

    @BUFFERING
    def test_large_output_arrives_whole(self, tmp_path, unbuffered):
        code, expected, _ = run(self.BIG)
        assert code == 0 and len(expected) > 64 * 1024
        piped = _python(*self.CLI, *self.BIG, unbuffered=unbuffered)
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, "")
        path = tmp_path / "out.txt"
        with open(path, "w") as fh:
            to_file = _python(*self.CLI, *self.BIG, stdout=fh, unbuffered=unbuffered)
        assert (to_file.returncode, to_file.stderr) == (0, "")
        assert path.read_text() == expected

    @BUFFERING
    @pytest.mark.parametrize("argv", [["gen", "cycle", "5"], BIG], ids=["small", "large"])
    def test_closed_stdout_is_one_error_line(self, argv, unbuffered):
        # The reader has exited before the process writes: the write (or,
        # for output held in the buffer, the flush) fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python(*self.CLI, *argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write output: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


class TestStartup:
    HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "csv", "ast", "dis", "typing"}
    LAYERS = ("graph", "partition", "quotient", "coloring", "minors", "lifting")

    def _modules(self, statement):
        result = _python("-c", f"{statement}\nimport sys\nprint(' '.join(sys.modules))")
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    def test_cli_import_loads_no_heavy_stdlib_modules(self):
        floor = self._modules("pass")
        loaded = self._modules("import oddminors.cli")
        assert (loaded - floor) & self.HEAVY == set()
        assert {f"oddminors.{layer}" for layer in self.LAYERS} <= loaded

    def _extensions(self, statement):
        """Names of the loaded modules that are shared libraries."""
        result = _python("-c", (
            f"{statement}\nimport sys\nprint(' '.join(name for name, m in list(sys.modules.items())"
            " if str(getattr(m, '__file__', '')).endswith(('.so', '.pyd'))))"
        ))
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    def test_cli_import_loads_no_extension_modules(self):
        # Every shared library a process loads raises its peak RSS; the
        # pipeline's memory figures assume the CLI adds none at import.
        assert self._extensions("import oddminors.cli") <= self._extensions("pass")

    def test_heapq_loads_only_to_compute_a_partition(self):
        if "_heapq" in self._modules("pass"):
            pytest.skip("this interpreter loads _heapq at startup")
        statement = (
            "import sys\n"
            "import oddminors.cli\n"
            "from oddminors import compute_partition, parse_graph, parse_partition, verify_partition\n"
            "g = parse_graph('5\\n0 1\\n0 4\\n1 2\\n2 3\\n3 4\\n')\n"
            "assert verify_partition(g, parse_partition('0: A=0,2 B=1,3\\n1: A=4 B=\\n')).passed\n"
            "assert '_heapq' not in sys.modules\n"
            "compute_partition(g)\n"
            "assert '_heapq' in sys.modules"
        )
        self._modules(statement)

    def test_help_runs_without_docstrings(self):
        result = _python("-OO", "-m", "oddminors.cli", "-h")
        assert (result.returncode, result.stderr) == (0, "")
        assert "find-odd-minor" in result.stdout

    # What ``python -m oddminors.cli`` loads per command: each branch imports
    # only the layers it runs, where a library import binds them all.
    COMMAND_LAYERS = {
        "find-minor -t 3": {"graph", "minors"},
        "find-odd-minor -t 3": {"graph", "minors"},
        "partition": {"graph", "partition"},
        "verify --partition p.txt": {"graph", "partition"},
        "quotient": {"graph", "partition", "quotient"},
        "color --mode exact": {"graph", "coloring"},
        "verify --coloring c.txt": {"graph", "coloring"},
        "report -t 3": set(LAYERS),
        "lift -t 2": set(LAYERS),
        "gen cycle 5": {"graph"},
        "-h": {"graph"},
    }

    @pytest.mark.parametrize("command", COMMAND_LAYERS)
    def test_process_imports_only_its_commands_layers(self, command, tmp_path):
        (tmp_path / "p.txt").write_text(run(["partition"], C5)[1].removesuffix("PASS\n"))
        (tmp_path / "c.txt").write_text(run(["color", "--mode", "exact"], C5)[1])
        # -X importtime writes each import to stderr as it happens, so the
        # lines are there even though the process ends through os._exit.
        result = _python("-X", "importtime", "-m", "oddminors.cli", *command.split(), input=C5, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        loaded = {
            line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time:")
        }
        assert {layer for layer in self.LAYERS if f"oddminors.{layer}" in loaded} == self.COMMAND_LAYERS[command]
