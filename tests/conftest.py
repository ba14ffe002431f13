"""Shared builders for fixtures and randomized families used across the suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import mpmath
import numpy as np
import pytest

from lindyn.cli import FIXTURES, load_input
from lindyn.density import IntegerSpan, relation_basis
from lindyn.groups import GeneratorSet
from lindyn.invariants import nilpotent_span
from lindyn.linalg import Matrix, Vector, as_vector
from lindyn.scalars import Scalar


def lindyn_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    subprocesses that may run in another working directory."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def mp_evaluate(x: Scalar, prec: int) -> mpmath.mpc:
    """``Scalar.evaluate`` as written on mpmath 1.3.0: the oracle of the
    integer evaluation, whose parts must equal this one's at every bit."""
    guard = 16 + max((abs(c.numerator).bit_length() for c in x.terms.values()), default=0)
    with mpmath.workprec(prec + guard):
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for (d, imag), c in x.terms.items():
            v = mpmath.mpf(c.numerator) / c.denominator
            if d > 1:
                v *= mpmath.sqrt(d)
            if imag:
                im += v
            else:
                re += v
        return mpmath.mpc(re, im)


def mp_value(parts: tuple[Fraction, Fraction]) -> mpmath.mpc:
    """Dyadic real and imaginary parts, as ``Scalar.evaluate`` and
    ``polynomial_roots`` return them, as an mpc of the same value."""
    bits = max(53, *(q.numerator.bit_length() for q in parts))
    with mpmath.workprec(bits):
        return mpmath.mpc(*(mpmath.mpf(q.numerator) / q.denominator for q in parts))


# the committed fixtures/*.json, the files users run
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def fixture_by_name(name: str) -> tuple[GeneratorSet, dict[str, Vector]]:
    """The committed fixtures/<name>.json: its group and its named points."""
    G, points = load_input(str(FIXTURES / f"{name}.json"))
    return G, {key: as_vector(coords) for key, coords in points.items()}


def group_from_strings(field: str, rows_per_generator: Sequence[Sequence[Sequence[str]]],
                       names: Sequence[str] | None = None) -> GeneratorSet:
    gens = [Matrix.from_rows(rows) for rows in rows_per_generator]
    return GeneratorSet(field, gens[0].rows, gens, list(names or []))


def random_scalar(rng: random.Random, radicands=(2, 3), max_num=5, allow_imag=True) -> Scalar:
    terms = {}
    for d in (1,) + tuple(radicands):
        for imag in (False, True) if allow_imag else (False,):
            if rng.random() < 0.5:
                num = rng.randint(-max_num, max_num)
                den = rng.randint(1, 4)
                if num:
                    terms[(d, imag)] = Fraction(num, den)
    return Scalar(terms)


def random_integer_matrix(rng: random.Random, n: int, lo=-2, hi=2) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_commuting_family(rng: random.Random, n: int, n_gens: int = 2) -> GeneratorSet:
    """Invertible polynomials in one random integer matrix: exact and abelian."""
    while True:
        R = random_integer_matrix(rng, n)
        gens = []
        ok = True
        for _ in range(n_gens):
            for _attempt in range(8):
                coeffs = [rng.randint(-2, 2) for _ in range(3)]
                coeffs[0] += rng.randint(1, 3)  # bias away from singular
                M = Matrix.identity(n).scale(coeffs[0])
                P = R
                for c in coeffs[1:]:
                    if c:
                        M = M + P.scale(c)
                    P = P * R
                if not M.det().is_zero():
                    gens.append(M)
                    break
            else:
                ok = False
                break
        if ok:
            return GeneratorSet("real", n, gens, [f"g{k}" for k in range(n_gens)])


def random_sform_family(
    rng: random.Random, n: int, n_gens: int = 2, want_rank: int | None = None
) -> GeneratorSet:
    """Commuting unitriangular family (polynomials in one shear), exact."""
    for _ in range(200):
        N_rows = [[0] * n for _ in range(n)]
        for i in range(1, n):
            for j in range(i):
                N_rows[i][j] = rng.randint(-2, 2)
            if N_rows[i][i - 1] == 0:
                N_rows[i][i - 1] = rng.choice([-1, 1])
        N = Matrix.from_rows(N_rows)
        gens = []
        for _k in range(n_gens):
            c1 = rng.randint(-2, 2)
            c2 = rng.randint(-2, 2)
            if c1 == 0 and c2 == 0:
                c1 = 1
            M = Matrix.identity(n) + N.scale(c1)
            if c2:
                M = M + (N * N).scale(c2)
            gens.append(M)
        G = GeneratorSet("real", n, gens, [f"g{k}" for k in range(n_gens)])
        if want_rank is None:
            return G
        if nilpotent_span(G).rank == want_rank:
            return G
    raise RuntimeError("could not build an S-form family with the requested rank")


def random_lastrow_group(rng: random.Random, n: int):
    """Two commuting shears acting on the last coordinate, with a radical rate.

    Returns (group, base point, increment values) where the increments are
    rationally independent, so integer words approximate any real target.
    """
    d = rng.choice([2, 3, 5])
    j1 = rng.randrange(0, n - 1)
    j2 = rng.randrange(0, n - 1)
    q1 = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    q2 = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    a = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    b = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    a[n - 1][j1] = f"{q1}*sqrt({d})"
    b[n - 1][j1] = f"{q2}"
    if j2 != j1:
        b[n - 1][j2] = "1"
    G = group_from_strings("real", [a, b], ["A", "B"])
    base = [Scalar.one()] * (n - 1) + [Scalar.zero()]
    values = []
    for g in G.generators:
        inc = Scalar.zero()
        for j in range(n - 1):
            inc = inc + g[n - 1, j] * base[j]
        values.append(inc)
    return G, tuple(base), values


class RowEchelonOracle:
    """Reduced row-echelon basis of a span, grown one vector at a time by a
    Scalar Gauss-Jordan: the oracle for the pivots and reduced bases of
    ``linalg``'s fraction-free elimination."""

    def __init__(self):
        self._rows: list[list[Scalar]] = []
        self._pivots: list[int] = []

    def insert(self, v: Sequence[Scalar]) -> bool:
        """Add v to the span; False (and nothing kept) when v already lies in it."""
        row = list(v)
        for p, prow in zip(self._pivots, self._rows):
            f = row[p]
            if f:
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = row[lead].inverse()
        row = [a * inv for a in row]
        for idx, other in enumerate(self._rows):
            f = other[lead]
            if f:
                self._rows[idx] = [a - f * b if b else a for a, b in zip(other, row)]
        self._rows.append(row)
        self._pivots.append(lead)
        return True

    def basis(self) -> list[Vector]:
        """The reduced rows in order of their pivot columns."""
        order = sorted(range(len(self._rows)), key=self._pivots.__getitem__)
        return [tuple(self._rows[idx]) for idx in order]


def integer_relations(values: Sequence[Scalar]) -> list[list[int]]:
    """Basis of the integer relations among real scalars; empty iff they are
    rationally independent."""
    return relation_basis(IntegerSpan.of([(v,) for v in values], 1))


# ---------------------------------------------------------------------------
# determinant-criterion brute force: the d = 2, k = 3 oracle for dense_in


def determinant_cofactors(span: IntegerSpan) -> list[Scalar]:
    """Cofactors c with det([x-row; y-row; s]) = sum s_i c_i, for d=2, k=3."""
    if span.dim != 2 or span.count != 3:
        raise ValueError("determinant criterion needs three vectors in R^2")
    (x1, y1), (x2, y2), (x3, y3) = span.vectors
    return [
        x2 * y3 - x3 * y2,
        x3 * y1 - x1 * y3,
        x1 * y2 - x2 * y1,
    ]


def determinant_zero_search(span: IntegerSpan, bound: int = 50) -> list[tuple[int, int, int]]:
    """All integer s with |s_i| <= bound and det = 0 exactly, 0 excluded.

    Numeric prefilter over the full box, candidates verified exactly.
    """
    cof = determinant_cofactors(span)
    c = np.array([x.to_complex().real for x in cof])
    rng = np.arange(-bound, bound + 1)
    S1, S2, S3 = np.meshgrid(rng, rng, rng, indexing="ij")
    vals = S1 * c[0] + S2 * c[1] + S3 * c[2]
    tol = 1e-7 * max(1.0, float(np.max(np.abs(c)))) * bound
    idx = np.argwhere(np.abs(vals) <= tol)
    out = []
    for i, j, k in idx:
        s = (int(rng[i]), int(rng[j]), int(rng[k]))
        if s == (0, 0, 0):
            continue
        total = Scalar.zero()
        for si, ci in zip(s, cof):
            total = total + ci * Scalar.from_int(si)
        if total.is_zero():
            out.append(s)
    return out


@pytest.fixture
def rng():
    return random.Random(20240801)
