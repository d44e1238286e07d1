"""Exception hierarchy shared across the package."""


class CorrGeoError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(CorrGeoError):
    """Argument violates a documented precondition (shape, finiteness, range)."""


class SingularSylvester(InvalidInput):
    """Coefficient matrix of the Sylvester system is numerically singular."""


class AntipodalLogarithm(CorrGeoError):
    """Logarithm requested at or within the guard band of the cut locus."""

    def __init__(self, msg, rows=()):
        super().__init__(msg)
        self.rows = tuple(rows)


class AlignmentStagnation(CorrGeoError):
    """Rotation search failed (SolverReport.failed); report is its record."""

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


class RankExceedsK(CorrGeoError):
    """Detected matrix rank is larger than the requested factorization width."""


class InvalidCorrelation(CorrGeoError):
    """Matrix fails a correlation-matrix invariant (named in the message)."""

    def __init__(self, msg, violations=()):
        super().__init__(msg)
        self.violations = tuple(violations)


class ParseError(CorrGeoError):
    """File content could not be parsed; message carries row/column location."""


class EmptyFile(ParseError):
    """File has a header but no data rows, or no content at all."""


class DegenerateInput(CorrGeoError):
    """Input is structurally valid but carries no usable information."""
