"""Exception taxonomy shared across the package."""


class ParseError(ValueError):
    """Malformed input text; message carries the 1-based line number."""


class StructureError(ValueError):
    """A structural precondition on a graph or partition does not hold."""


class ContractViolation(ValueError):
    """A caller-supplied object fails the contract an operation requires."""


# Search nodes either exhaustive search (exact coloring, expansion search)
# may visit before it raises BudgetExceeded.
DEFAULT_MAX_NODES = 2_000_000


class BudgetExceeded(RuntimeError):
    """A search or coloring budget was hit; no partial answer is returned."""


class InvariantViolation(RuntimeError):
    """An internal invariant proven impossible to break was broken.

    Raised only on bugs upstream; never caught inside the package.
    """
