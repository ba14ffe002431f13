"""Exception types shared across the package."""


class LindynError(Exception):
    """Base class for all package errors."""


class ParseError(LindynError):
    """Malformed scalar expression or input file."""


class NotAbelian(LindynError):
    """A pair of generators fails to commute."""

    def __init__(self, i, j, residual):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(f"generators {i} and {j} do not commute (residual {residual})")


class NotInvariant(LindynError):
    """An operator maps a vector outside the subspace it was restricted to."""

    def __init__(self, vector_index, residual):
        self.vector_index = vector_index
        self.residual = residual
        super().__init__(
            f"basis vector {vector_index} leaves the subspace (residual {residual})"
        )


class DoubleOverflow(LindynError, OverflowError):
    """An exact value lies past the double range where a double is needed."""


class InvarianceViolation(LindynError):
    """A subspace that must be invariant by construction is not."""


class ClusterAmbiguity(LindynError):
    """Double-precision eigenvalue clusters cannot be separated reliably."""


class SpectrumNotCertified(LindynError):
    """No exact spectrum splits a block above 53 bits, where no numeric split runs."""


class NoCommonEigenvector(LindynError):
    """Commuting nilpotent parts have trivial joint kernel; tolerance too tight."""


class UnmatchedConjugate(LindynError):
    """A complex block over a real field has no conjugate partner block."""


class PointNotInU(LindynError):
    """A dynamical check was requested at a point inside an invariant subspace."""


class NotConvergent(LindynError):
    """The supplied sequence of group elements does not move u toward a limit."""


class FirstCoordinateZero(LindynError):
    """Base point has first coordinate 0; the restriction recursion needs u1 != 0."""


class NoProgress(LindynError):
    """Integer approximation stalled short of the requested residual."""

    def __init__(self, best_residual):
        self.best_residual = best_residual
        super().__init__(f"approximation stalled at residual {best_residual}")
