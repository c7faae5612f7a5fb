"""Odd-minor reduction toolkit.

Partition a graph into connected bipartite parts, contract the parts into
a quotient, and either double a quotient coloring into a coloring of the
original graph or lift a quotient K_t-expansion to an odd K_t-expansion.
Brute-force searchers and clause-by-clause verifiers keep every step
checkable at desk scale.

Each public name loads its submodule on first use (PEP 562), so a process
imports only the layers it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "_record": ("VerificationReport",),
    "coloring": (
        "Coloring", "color_exact", "color_heuristic", "compose_coloring", "parse_coloring",
        "render_coloring", "verify_coloring",
    ),
    "errors": ("BudgetExceeded", "ContractViolation", "InvariantViolation", "ParseError", "StructureError"),
    "graph": (
        "Graph", "TwoSides", "complete", "complete_bipartite", "cycle", "generate", "gnp", "parse_graph",
        "petersen", "render_dimacs", "render_edge_list",
    ),
    "lifting": ("ReductionReport", "lift_expansion", "reduction_report"),
    "minors": (
        "ExpansionCertificate", "ExpansionTree", "OddExpansionCertificate", "find_expansion",
        "find_odd_expansion", "parse_certificate", "render_certificate", "verify_expansion",
        "verify_odd_expansion",
    ),
    "partition": ("BcpPartition", "compute_partition", "parse_partition", "render_partition", "verify_partition"),
    "quotient": (
        "QuotientGraph", "WitnessTriple", "build_quotient", "parse_quotient", "render_quotient",
        "verify_quotient",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
