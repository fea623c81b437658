"""Exception types shared across the package."""


class RobustScatterError(Exception):
    """Base class for package errors; carries a machine-readable code."""

    code = "error"


class CsvFormatError(RobustScatterError, ValueError):
    """Malformed dataset CSV. Message pinpoints line and column (1-based)."""

    code = "csv_format"

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ExistenceError(RobustScatterError, ValueError):
    """Estimator preconditions violated (n <= p, zero sample, invalid u or alpha)."""

    code = "existence"


class ConvergenceError(RobustScatterError, RuntimeError):
    """A computation that must converge did not (reported with diagnostics)."""

    code = "non_convergence"


class InfeasibleError(RobustScatterError, RuntimeError):
    """Linear program has no feasible point at the given parameters."""

    code = "infeasible"
