"""The record contract every result type keeps: construction, equality,
hashing, repr and immutability; and the package's public names."""

import os
import subprocess
import sys
from types import ModuleType

import pytest

import oddminors
from oddminors import (
    BcpPartition,
    Coloring,
    ExpansionCertificate,
    ExpansionTree,
    Graph,
    OddExpansionCertificate,
    QuotientGraph,
    ReductionReport,
    TwoSides,
    VerificationReport,
    WitnessTriple,
)

SIDES = TwoSides((0, 2), (1,))
PARTITION = BcpPartition((SIDES,))
TREE = ExpansionTree(frozenset({0, 1}), frozenset({(0, 1)}))
CERT = ExpansionCertificate((TREE,), {})
QUOTIENT = QuotientGraph(Graph(1), {}, PARTITION)

# (class, field values in declaration order, hashable)
SAMPLES = [
    (VerificationReport, {"failures": ("edge 0-1 is monochromatic",)}, True),
    (Coloring, {"colors": (0, 1, 0)}, True),
    (TwoSides, {"side_a": (0, 2), "side_b": (1,)}, True),
    (BcpPartition, {"parts": (SIDES,)}, True),
    (WitnessTriple, {"u1": 0, "u2": 2, "v": 1}, True),
    (ExpansionTree, {"vertices": frozenset({0, 1}), "edges": frozenset({(0, 1)})}, True),
    (ExpansionCertificate, {"trees": (TREE,), "connectors": {}}, False),
    (OddExpansionCertificate, {"base": CERT, "parity": {0: 1, 1: 2}}, False),
    (QuotientGraph, {"h": Graph(1), "witnesses": {}, "partition": PARTITION}, False),
    (
        ReductionReport,
        {
            "g": Graph(1), "t": 2, "quotient": QUOTIENT, "certificate": None,
            "chi_h": 1, "composed": Coloring((0,)),
        },
        False,
    ),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls,fields,hashable", SAMPLES, ids=IDS)
class TestRecordContract:
    def test_construction_is_positional_only(self, cls, fields, hashable):
        # A record takes its fields by position only; a keyword is a TypeError.
        record = cls(*fields.values())
        assert record._fields == tuple(fields)
        for name, value in fields.items():
            assert getattr(record, name) is value
        with pytest.raises(TypeError):
            cls(**fields)

    def test_equality_is_per_class(self, cls, fields, hashable):
        record = cls(*fields.values())
        assert record == cls(*fields.values())
        assert not record != cls(*fields.values())
        other_cls, other_fields, _ = SAMPLES[(IDS.index(cls.__name__) + 1) % len(SAMPLES)]
        assert record != other_cls(*other_fields.values())
        assert record != tuple(fields.values())

    def test_equality_follows_the_fields(self, cls, fields, hashable):
        first = next(iter(fields))
        changed = dict(fields, **{first: "something else"})
        assert cls(*fields.values()) != cls(*changed.values())

    def test_hash_is_over_the_fields(self, cls, fields, hashable):
        record = cls(*fields.values())
        if hashable:
            assert hash(record) == hash(cls(*fields.values())) == hash(tuple(fields.values()))
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_repr(self, cls, fields, hashable):
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(*fields.values())) == f"{cls.__name__}({body})"

    def test_assignment_and_deletion_raise(self, cls, fields, hashable):
        record = cls(*fields.values())
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is fields[name]

    def test_bad_arguments_raise_type_error(self, cls, fields, hashable):
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        with pytest.raises(TypeError):
            cls(*fields.values(), not_a_field=1)
        with pytest.raises(TypeError, match=f"takes {len(fields)} arguments but 0 were given"):
            cls()


def test_repr_text():
    assert repr(WitnessTriple(0, 2, 1)) == "WitnessTriple(u1=0, u2=2, v=1)"
    assert repr(VerificationReport(())) == "VerificationReport(failures=())"
    assert repr(Coloring((0, 1))) == "Coloring(colors=(0, 1))"


def test_verification_report_default():
    # No default: the empty report is built from its empty failures tuple.
    assert VerificationReport(()) == VerificationReport(())
    assert VerificationReport(()).passed
    assert VerificationReport(()).render() == "PASS\n"
    with pytest.raises(TypeError):
        VerificationReport()


PUBLIC_NAMES = {
    "BcpPartition", "BudgetExceeded", "Coloring", "ContractViolation",
    "ExpansionCertificate", "ExpansionTree", "Graph", "InvariantViolation",
    "OddExpansionCertificate", "ParseError", "QuotientGraph", "ReductionReport",
    "StructureError", "TwoSides", "VerificationReport", "WitnessTriple",
    "build_quotient", "color_exact", "color_heuristic", "complete",
    "complete_bipartite", "compose_coloring", "compute_partition", "cycle",
    "find_expansion", "find_odd_expansion", "generate", "gnp", "lift_expansion",
    "parse_certificate", "parse_coloring", "parse_graph", "parse_partition",
    "parse_quotient", "petersen", "reduction_report", "render_certificate",
    "render_coloring", "render_dimacs", "render_edge_list", "render_partition",
    "render_quotient", "verify_coloring", "verify_expansion",
    "verify_odd_expansion", "verify_partition", "verify_quotient",
}


def test_public_names():
    # Submodules appear in dir() once anything imports them; they are not
    # names the package itself exports.
    public = {
        name for name in dir(oddminors)
        if not name.startswith("_") and not isinstance(getattr(oddminors, name), ModuleType)
    }
    assert public == PUBLIC_NAMES


class TestLazyPackage:
    """Each public name loads the submodule that defines it on first use."""

    def test_import_loads_no_submodule(self):
        src = os.path.dirname(os.path.dirname(oddminors.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, oddminors\nprint(' '.join(sys.modules))"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "oddminors" in result.stdout.split()
        assert [name for name in result.stdout.split() if name.startswith("oddminors.")] == []

    def test_names_are_their_defining_submodules_objects(self):
        import oddminors.minors

        assert oddminors.find_expansion is oddminors.minors.find_expansion
        for name in PUBLIC_NAMES:
            value = getattr(oddminors, name)
            assert value.__module__.startswith("oddminors.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'oddminors' has no attribute 'no_such_name'"):
            oddminors.no_such_name

    def test_star_import_binds_exactly_the_public_names(self):
        namespace = {}
        exec("from oddminors import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
        assert set(oddminors.__all__) == PUBLIC_NAMES
