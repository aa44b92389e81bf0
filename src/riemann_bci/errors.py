"""Exception hierarchy shared across the package."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class NotPositiveDefiniteError(ContractError):
    """Matrix failed the symmetric positive-definite check."""


class FileFormatError(ContractError):
    """An on-disk document is malformed; the message names the bad field."""


class NumericError(RuntimeError):
    """A numerical routine failed to produce a usable result."""


class EigenSolverError(NumericError):
    """The symmetric eigensolver did not converge."""

    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"eigensolver failed to converge on a {dim}x{dim} matrix")


class MeanConvergenceError(NumericError):
    """The geometric-mean Newton solver hit its cap on trial steps without
    reaching the residual tolerance."""

    def __init__(self, residual: float, iterations: int, context: str = ""):
        self.residual = residual
        self.iterations = iterations
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"geometric mean did not converge after {iterations} iterations, "
            f"last residual norm {residual:.3e}{suffix}"
        )
