"""Generator sets for abelian subgroups of GL(n, K).

Every program input is exact: the CLI builds ``Matrix`` generators.  Numeric
(``np.ndarray``) generators are accepted by construction, ``radicands`` and
``check_abelian``, which is what the spectral refinement and the invariant
family read of a group, because the test suite's naive invariant tree
recurses through numeric restrictions.  ``validate``, ``commutator_residual``
and ``word`` take exact generators only; the residual is exact, so it reads 0
for every group that ``validate`` accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotAbelian
from .linalg import Matrix
from .numeric import NumericContext, max_abs, to_numeric

REAL = "real"
COMPLEX = "complex"


@dataclass
class GeneratorSet:
    """A finite generating family, verified abelian.

    The generators are exact ``Matrix`` objects, or numeric arrays for the
    refinement alone (see the module docstring).
    """

    field: str
    dimension: int
    generators: list
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not self.generators:
            raise ValueError("a group needs at least one generator")
        if not self.names:
            self.names = [f"g{k}" for k in range(len(self.generators))]
        for i, name in enumerate(self.names):
            if name in self.names[:i]:
                raise ValueError(f"duplicate generator name {name!r}")
        n = self.dimension
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        for g in self.generators:
            shape = (g.rows, g.cols) if isinstance(g, Matrix) else g.shape
            if shape != (n, n):
                raise ValueError(f"generator has shape {shape}, expected {(n, n)}")

    @property
    def exact(self) -> bool:
        return all(isinstance(g, Matrix) for g in self.generators)

    def radicands(self) -> set[int]:
        rads: set[int] = set()
        for g in self.generators:
            if isinstance(g, Matrix):
                for row in g.entries():
                    for e in row:
                        rads |= e.radicands()
        return rads

    def validate(self, ctx: NumericContext) -> None:
        """Check realness, invertibility and commutativity of exact generators; raise on failure."""
        for name, g in zip(self.names, self.generators):
            if self.field == REAL and not g.is_real():
                raise ValueError(f"generator {name} has complex entries in a real group")
            if g.det().is_zero():
                raise ValueError(f"generator {name} is singular")
        self.check_abelian(ctx)

    def check_abelian(self, ctx: NumericContext) -> None:
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if isinstance(gens[i], Matrix) and isinstance(gens[j], Matrix):
                    comm = gens[i] * gens[j] - gens[j] * gens[i]
                    if not comm.is_zero():
                        raise NotAbelian(self.names[i], self.names[j], comm.max_abs())
                else:
                    a = to_numeric(gens[i])
                    b = to_numeric(gens[j])
                    resid = max_abs(a @ b - b @ a)
                    scale = max(max_abs(a) * max_abs(b), 1.0)
                    if resid > ctx.eps * scale:
                        raise NotAbelian(self.names[i], self.names[j], resid)

    def commutator_residual(self, ctx: NumericContext) -> float:
        """Largest |entry| of the exact commutators g_i g_j - g_j g_i of exact generators.

        These are the products and the ``max_abs`` that ``check_abelian``
        reports in ``NotAbelian``, so the residual is 0.0 for every group that
        passes ``validate``, at every precision.  ``ctx`` is unused:
        benchmark/work.py passes it positionally.
        """
        pairs = itertools.combinations(self.generators, 2)
        return max(((a * b - b * a).max_abs() for a, b in pairs), default=0.0)

    def word(self, exponents: Sequence[int]) -> Matrix:
        """Product of exact generators raised to the given exponents."""
        if len(exponents) != len(self.generators):
            raise ValueError("exponent tuple length mismatch")
        acc = None
        for g, k in zip(self.generators, exponents):
            if k:
                acc = g.power(k) if acc is None else acc * g.power(k)
        return Matrix.identity(self.dimension) if acc is None else acc
