"""Odd-minor reduction toolkit.

Partition a graph into connected bipartite parts, contract the parts into
a quotient, and either double a quotient coloring into a coloring of the
original graph or lift a quotient K_t-expansion to an odd K_t-expansion.
Brute-force searchers and clause-by-clause verifiers keep every step
checkable at desk scale.
"""

from ._record import VerificationReport
from .coloring import (
    Coloring,
    color_exact,
    color_heuristic,
    compose_coloring,
    parse_coloring,
    render_coloring,
    verify_coloring,
)
from .errors import (
    BudgetExceeded,
    ContractViolation,
    InvariantViolation,
    ParseError,
    StructureError,
)
from .graph import (
    Graph,
    TwoSides,
    complete,
    complete_bipartite,
    cycle,
    generate,
    gnp,
    parse_graph,
    petersen,
    render_dimacs,
    render_edge_list,
)
from .lifting import ReductionReport, lift_expansion, reduction_report
from .minors import (
    ExpansionCertificate,
    ExpansionTree,
    OddExpansionCertificate,
    find_expansion,
    find_odd_expansion,
    parse_certificate,
    render_certificate,
    verify_expansion,
    verify_odd_expansion,
)
from .partition import (
    BcpPartition,
    compute_partition,
    parse_partition,
    render_partition,
    verify_partition,
)
from .quotient import (
    QuotientGraph,
    WitnessTriple,
    build_quotient,
    parse_quotient,
    render_quotient,
    verify_quotient,
)

__version__ = "0.1.0"
