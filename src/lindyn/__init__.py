"""Invariant-structure and orbit-closure analysis for abelian matrix groups."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ClusterAmbiguity,
    FirstCoordinateZero,
    InvarianceViolation,
    LindynError,
    NoCommonEigenvector,
    NoProgress,
    NotAbelian,
    NotConvergent,
    NotInvariant,
    ParseError,
    PointNotInU,
    SpectrumNotCertified,
    UnmatchedConjugate,
)
from .groups import GeneratorSet  # noqa: F401
from .linalg import Matrix, Subspace, as_vector  # noqa: F401
from .numeric import NumericContext  # noqa: F401
from .scalars import Scalar, parse_scalar  # noqa: F401
