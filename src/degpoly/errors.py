"""Exception hierarchy for the degpoly package.

Every error raised on purpose by the library derives from DegpolyError, so
callers (and the CLI) can catch one base class and map it to a data-error
exit code.
"""


class DegpolyError(Exception):
    """Base class for all degpoly errors."""


class ZeroOperandError(DegpolyError):
    """An operation that is undefined on the zero polynomial received one."""


class DegreeBoundError(DegpolyError):
    """Exponent reflection requested with a bound below the polynomial degree."""


class NegativeCoefficientError(DegpolyError):
    """Polynomial subtraction would produce a negative coefficient."""


class PolyParseError(DegpolyError):
    """Malformed polynomial text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeValueError(PolyParseError):
    """Polynomial text contains a sign; only nonnegative terms are allowed."""


class SelfLoopError(DegpolyError):
    """An edge list contains an edge from a vertex to itself."""


class EmptyInputError(DegpolyError):
    """An input that must describe at least one item was empty."""


class EdgeListFormatError(DegpolyError):
    """An edge-list line is neither a vertex nor an edge."""


class BadParamsError(DegpolyError):
    """Parameters violate their bounds: a graph family's parameters, a
    worker count below one, or a classification order below one."""


class BadVertexError(DegpolyError):
    """A vertex reference does not exist in the graph."""


class TooLargeError(DegpolyError):
    """An exhaustive operation was asked to exceed its configured size bound."""


class IsolatedVertexError(DegpolyError):
    """A degree-polynomial sequence was requested for a graph with isolated
    vertices; ``vertices`` lists the offending labels."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        names = ", ".join(str(v) for v in self.vertices)
        super().__init__(f"graph has isolated vertices: {names}")


class InconsistentInputsError(DegpolyError):
    """Closed-form operation inputs disagree (e.g. a polynomial whose
    coefficient sum does not match the stated degree or order)."""


class ZeroEntryError(DegpolyError):
    """A polynomial sequence operation received a zero entry."""


class NotSortedError(DegpolyError):
    """A degree sequence argument was not non-increasing."""


class WitnessVerificationError(DegpolyError):
    """A graph the realizability search accepted does not have the target
    sequence when re-derived; this is an internal invariant failure."""
