"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI for
its single-line stderr diagnostics.
"""


class TreeAlgebraError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class SchemaError(TreeAlgebraError):
    """Invalid feature schema, or mismatched schemas between objects."""

    code = "SCHEMA"


class DomainError(TreeAlgebraError):
    """A point lies outside the domain or has the wrong arity."""

    code = "DOMAIN"


class UnknownNodeError(TreeAlgebraError):
    """A node id does not exist in the tree."""

    code = "UNKNOWN_NODE"


class LeafKindError(TreeAlgebraError):
    """Leaf value kinds are mixed or unsupported for an operation."""

    code = "LEAF_KIND"


class ValidationError(TreeAlgebraError):
    """A tree or forest violates structural invariants.

    ``violations`` holds one human-readable string per violated invariant.
    """

    code = "VALIDATION"

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(TreeAlgebraError):
    """A file could not be parsed."""

    code = "PARSE"


class UnsupportedGeometryError(TreeAlgebraError):
    """The operation would require exact integration over a polyhedron."""

    code = "UNSUPPORTED_GEOMETRY"


class BudgetExceededError(TreeAlgebraError):
    """Tree combination aborted because the output grew past the node budget."""

    code = "BUDGET_EXCEEDED"


class DegenerateCorrelationError(TreeAlgebraError):
    """Correlation is undefined because one tree has zero variance."""

    code = "DEGENERATE_CORRELATION"

