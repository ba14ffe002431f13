"""Seeded input generators for the benchmark workloads.

Every generator is plain Python over integers and fractions; nothing here
imports lindyn, so a change to the program cannot change the inputs it is
measured on.  Each workload becomes a list of analyze-input documents (the
CLI's JSON format) plus a list of items.  An item names the document it runs
on, what to run, and the facts its result is checked against.
"""

from __future__ import annotations

import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# small exact helpers


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def det(M) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in M]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return out


# Elements of Q(sqrt(2), sqrt(3), i) that the generators need are Q-linear
# combinations of these basis expressions: conjugating by an integer matrix
# only adds and scales entries, it never multiplies two radicals.
BASIS = ("1", "sqrt(2)", "sqrt(3)", "i")


def lin(**coeffs) -> dict[str, Fraction]:
    names = {"one": "1", "s2": "sqrt(2)", "s3": "sqrt(3)", "i": "i"}
    return {names[k]: Fraction(v) for k, v in coeffs.items() if v}


def lin_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
        if not out[k]:
            del out[k]
    return out


def lin_scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items()} if c else {}


def lin_str(a: dict) -> str:
    """An expression the scalar parser accepts, e.g. '3 - 2*sqrt(2) + i'."""
    parts = []
    for k in BASIS:
        c = a.get(k)
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if k == "1" else (k if mag == 1 else f"{mag}*{k}")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def doc(field: str, gens: list[list[list[str]]], points: dict[str, list[str]] | None = None,
        names: list[str] | None = None) -> dict:
    names = names or [f"g{k}" for k in range(len(gens))]
    return {
        "field": field,
        "dimension": len(gens[0]),
        "generators": [{"name": nm, "rows": rows} for nm, rows in zip(names, gens)],
        "points": points or {},
    }


def str_rows(M) -> list[list[str]]:
    return [[str(x) for x in row] for row in M]


# ---------------------------------------------------------------------------
# the four documented fixtures (same documents as fixtures/*.json)


def _last_row(n: int, rows: list[list[str]]) -> list[list[list[str]]]:
    gens = []
    for entries in rows:
        mat = str_rows(identity(n))
        mat[n - 1] = list(entries)
        gens.append(mat)
    return gens


def fixture_docs() -> dict[str, dict]:
    radical4 = _last_row(4, [["sqrt(2)-1", "1", "0", "1"], ["1", "0", "0", "1"]])
    return {
        "shear3": doc("real", _last_row(3, [["1", "0", "1"], ["0", "1", "1"]]),
                      {"closed": ["1", "1", "0"], "dense_line": ["1", "sqrt(2)", "0"],
                       "hyperplane": ["0", "1", "0"]}, ["A", "B"]),
        "shear4": doc("real", _last_row(4, [["1", "0", "0", "1"], ["0", "1", "0", "1"]]),
                      {"closed": ["1", "1", "1/2", "1/3"],
                       "dense_line": ["1", "sqrt(2)", "0", "0"]}, ["A", "B"]),
        "cshear5": doc("complex", _last_row(5, [["1", "0", "0", "0", "1"],
                                                ["0", "1", "0", "0", "1"],
                                                ["0", "0", "1", "0", "1"]]),
                       {"closed": ["1+i", "2+i", "1+2*i", "0", "0"],
                        "dense_plane": ["1+i", "sqrt(3)+i*sqrt(2)", "sqrt(2)+i", "0", "0"]},
                       ["A", "B", "C"]),
        "radical4": doc("real", radical4,
                        {"base": ["1", "1", "0", "0"], "limit": ["1", "1", "0", "sqrt(3)"]},
                        ["A", "B"]),
    }


# Documented closure verdicts of the fixture points: (kind, hull dimension).
# The closed points have rational increments (a lattice), the others have
# rationally independent radical increments (dense in a line or plane).
FIXTURE_VERDICTS = {
    ("shear3", "closed"): ("DISCRETE", 1),
    ("shear3", "dense_line"): ("DENSE_IN_AFFINE", 1),
    ("shear3", "hyperplane"): ("DISCRETE", 1),
    ("shear4", "closed"): ("DISCRETE", 1),
    ("shear4", "dense_line"): ("DENSE_IN_AFFINE", 1),
    ("cshear5", "closed"): ("DISCRETE", 2),
    ("cshear5", "dense_plane"): ("DENSE_IN_AFFINE", 2),
    ("radical4", "base"): ("DENSE_IN_AFFINE", 1),
    ("radical4", "limit"): ("DENSE_IN_AFFINE", 1),
}

# Structure facts of the fixtures: every one is a unipotent shear group with
# a single hyperplane and a full chain of invariant subspaces.
FIXTURE_DEPTHS = {"shear3": 3, "shear4": 4, "cshear5": 5, "radical4": 4}


# ---------------------------------------------------------------------------
# rational families


def sform_family(rng: random.Random, n: int) -> list[list[list[int]]]:
    """Two commuting unitriangular generators: polynomials in one shear N."""
    N = [[0] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i):
            N[i][j] = rng.randint(-2, 2)
        if N[i][i - 1] == 0:
            N[i][i - 1] = rng.choice([-1, 1])
    N2 = matmul(N, N)
    gens = []
    for _ in range(2):
        c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
        if c1 == 0 and c2 == 0:
            c1 = 1
        gens.append([[(i == j) + c1 * N[i][j] + c2 * N2[i][j] for j in range(n)]
                     for i in range(n)])
    return gens


def diagonal_family(rng: random.Random, n: int) -> list[list[list[int]]]:
    """Two diagonal generators; the first has n distinct eigenvalues.

    The seed permutes fixed eigenvalue lists, so the exact arithmetic, and
    with it the time, is the same for every seed.
    """
    first = rng.sample([2, -3, 5, -7, 11, -13][:n], n)
    second = rng.sample([1, 2, -1, 3, -2, 1][:n], n)
    return [[[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for d in (first, second)]


def integer_point(rng: random.Random, n: int) -> list[str]:
    return [str(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(n)]


def random_signs(rng: random.Random, n: int) -> list[int]:
    return [rng.choice([-1, 1]) for _ in range(n)]


def sign_conjugate(M, signs: list[int]):
    """D M D for D = diag(signs): the same exact arithmetic up to signs."""
    return [[signs[i] * signs[j] * x for j, x in enumerate(row)] for i, row in enumerate(M)]


# ---------------------------------------------------------------------------
# radical families


REAL_EIGEN = [lin(one=1), lin(one=2), lin(one=-1), lin(one=3), lin(s2=1), lin(one=1, s2=1)]
COMPLEX_EIGEN = [lin(i=1), lin(one=1, i=1), lin(i=2), lin(s3=1, i=1)]


def unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant 1 and its integer inverse."""
    P, Pinv = identity(n), identity(n)
    for _ in range(n + 2):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1, 2])
        E, Einv = identity(n), identity(n)
        E[i][j], Einv[i][j] = c, -c
        P, Pinv = matmul(P, E), matmul(Einv, Pinv)
    return P, Pinv


def _conjugate(P, J, Pinv) -> list[list[str]]:
    """P J P^-1 for integer P and entries of J in the linear basis."""
    n = len(P)
    JP = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                acc = lin_add(acc, lin_scale(J[i][k], Pinv[k][j]))
            JP[i][j] = acc
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = lin_add(acc, lin_scale(JP[k][j], P[i][k]))
            row.append(lin_str(acc))
        out.append(row)
    return out


def jordan_family(rng: random.Random, n: int, field: str,
                  signs: list[int] | None = None) -> tuple[list[list[list[str]]], int]:
    """Two commuting generators conjugated from block-diagonal Jordan data.

    On each block the first generator is lam*I + N and the second mu*I + c*N
    for the block's nilpotent shift N, so the two commute.  Over the real
    field a block may instead be a 2x2 rotation-scaling block a*I + b*R of a
    conjugate pair.  ``signs``, when given, conjugate the pair by
    diag(signs).  Returns the generators and the number of conjugate pairs.
    """
    sizes, pairs = [], 0
    left = n
    while left:
        if field == "real" and left >= 2 and pairs == 0 and rng.random() < 0.5:
            sizes.append(("pair", 2))
            pairs += 1
            left -= 2
            continue
        s = rng.randint(1, min(3, left))
        sizes.append(("jordan", s))
        left -= s
    pool = REAL_EIGEN if field == "real" else REAL_EIGEN + COMPLEX_EIGEN
    JA = [[{} for _ in range(n)] for _ in range(n)]
    JB = [[{} for _ in range(n)] for _ in range(n)]
    off = 0
    for kind, s in sizes:
        if kind == "pair":
            for J in (JA, JB):
                z = rng.choice(COMPLEX_EIGEN)
                a = {k: v for k, v in z.items() if k != "i"}
                b = z.get("i", Fraction(0))
                J[off][off], J[off + 1][off + 1] = a, a
                J[off][off + 1], J[off + 1][off] = lin(one=-b), lin(one=b)
        else:
            lam, mu, c = rng.choice(pool), rng.choice(pool), rng.choice([0, 1, 2])
            for k in range(s):
                JA[off + k][off + k], JB[off + k][off + k] = lam, mu
                if k:
                    JA[off + k][off + k - 1] = lin(one=1)
                    JB[off + k][off + k - 1] = lin(one=c)
        off += s
    P, Pinv = unimodular(rng, n)
    if signs is not None:
        P = [[signs[i] * x for x in row] for i, row in enumerate(P)]
        Pinv = [[x * signs[j] for j, x in enumerate(row)] for row in Pinv]
    return [_conjugate(P, JA, Pinv), _conjugate(P, JB, Pinv)], pairs


def random_commuting_family(rng: random.Random, n: int, n_gens: int = 2) -> list[list[list[int]]]:
    """Invertible polynomials in one random integer matrix.

    Draws from ``rng`` in the same order as the test-suite helper of the
    same name, so equal seeds give equal families.
    """
    while True:
        R = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gens = []
        ok = True
        for _ in range(n_gens):
            for _attempt in range(8):
                coeffs = [rng.randint(-2, 2) for _ in range(3)]
                coeffs[0] += rng.randint(1, 3)
                M = [[coeffs[0] * (i == j) for j in range(n)] for i in range(n)]
                P = R
                for c in coeffs[1:]:
                    if c:
                        M = [[M[i][j] + c * P[i][j] for j in range(n)] for i in range(n)]
                    P = matmul(P, R)
                if det(M) != 0:
                    gens.append(M)
                    break
            else:
                ok = False
                break
        if ok:
            return gens


# The first ten families of random.Random(2) with n in [3, 6].  At the CLI
# default of 128 bits nine of them fail (all pass at 53 bits).  They are the
# same whatever the run seed: whether a random family passes varies from draw
# to draw, and a seeded draw would make ok_frac depend on the seed instead
# of on the program.
DEFECT_SEED = 2
DEFECT_COUNT = 10
# Tree depth of the families that pass at the seed commit, by index.
DEFECT_DEPTHS = {9: 2}


def defect_families() -> list[list[list[list[int]]]]:
    rng = random.Random(DEFECT_SEED)
    out = []
    for _ in range(DEFECT_COUNT):
        n = rng.randint(3, 6)
        out.append(random_commuting_family(rng, n))
    return out


# ---------------------------------------------------------------------------
# orbit groups


def lastrow_shear(rng: random.Random, n: int) -> tuple[list[list[list[str]]], list[str]]:
    """Two last-row shears with a radical rate, and the base point (1,..,1,0).

    Draws from ``rng`` like the test-suite helper ``random_lastrow_group``.
    """
    d = rng.choice([2, 3, 5])
    j1, j2 = rng.randrange(0, n - 1), rng.randrange(0, n - 1)
    q1 = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    q2 = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    a, b = str_rows(identity(n)), str_rows(identity(n))
    a[n - 1][j1] = f"{q1}*sqrt({d})"
    b[n - 1][j1] = f"{q2}"
    if j2 != j1:
        b[n - 1][j2] = "1"
    base = ["1"] * (n - 1) + ["0"]
    return [a, b], base


# ---------------------------------------------------------------------------
# workloads


# How the run seed enters the structure workloads.  The time of an exact
# analysis depends strongly on the family drawn: two random S-form or Jordan
# families of one size differ by up to 2x.  So each family is drawn once, from
# its name, and the seed conjugates it by a random sign matrix D (D A D, the
# same eigenstructure and the same arithmetic up to signs), permutes the
# diagonal groups and draws the points.  Every seed then gives other inputs
# of the same cost, and run-to-run differences are the program's, not the
# draw's.


def structure_rational(seed: int) -> tuple[dict[str, dict], list[dict]]:
    rng = random.Random(f"structure-rational:{seed}")
    docs, items = {}, []
    fx = fixture_docs()
    for name in ("shear3", "shear4"):
        docs[name] = fx[name]
        items.append({"id": name, "doc": name, "run": "structure",
                      "depth": FIXTURE_DEPTHS[name]})
    for n in range(5, 11):
        key = f"sform{n}"
        signs = random_signs(rng, n)
        gens = [sign_conjugate(g, signs) for g in sform_family(random.Random(key), n)]
        docs[key] = doc("real", [str_rows(g) for g in gens], {"p0": integer_point(rng, n)})
        # a single hyperplane whose restrictions stay S-form: a full chain
        items.append({"id": key, "doc": key, "run": "structure", "depth": n})
    for n in range(3, 7):
        key = f"diag{n}"
        docs[key] = doc("real", [str_rows(g) for g in diagonal_family(rng, n)],
                        {"p0": integer_point(rng, n)})
        # n coordinate hyperplanes at every level: n! leaves at depth n
        items.append({"id": key, "doc": key, "run": "structure", "depth": n})
    return docs, items


# Jordan families per field and dimension, each drawn once from its name.
JORDAN_PER_SIZE = 2


def structure_radical(seed: int) -> tuple[dict[str, dict], list[dict]]:
    rng = random.Random(f"structure-radical:{seed}")
    docs, items = {}, []
    fx = fixture_docs()
    for name in ("radical4", "cshear5"):
        docs[name] = fx[name]
        items.append({"id": name, "doc": name, "run": "structure",
                      "depth": FIXTURE_DEPTHS[name]})
    for field in ("real", "complex"):
        for n in range(3, 6):
            for k in range(JORDAN_PER_SIZE):
                key = f"jordan-{field}{n}-{k}"
                gens, pairs = jordan_family(random.Random(key), n, field, random_signs(rng, n))
                docs[key] = doc(field, gens, {"p0": integer_point(rng, n)})
                # a conjugate pair leaves a codimension-2 step in every chain
                items.append({"id": key, "doc": key, "run": "structure", "depth": n - pairs})
    for k, gens in enumerate(defect_families()):
        key = f"randpoly{k}"
        docs[key] = doc("real", [str_rows(g) for g in gens])
        items.append({"id": key, "doc": key, "run": "structure",
                      "depth": DEFECT_DEPTHS.get(k)})
    return docs, items


# Fixture points whose stabilized classification is measured.  The cshear5
# dense-plane point is measured by its documented K=200 claim below instead:
# stabilizing it as well would add about 15 s to every run of this workload.
ORBIT_POINTS = [("shear3", "closed"), ("shear3", "dense_line"), ("shear3", "hyperplane"),
                ("shear4", "closed"), ("shear4", "dense_line"), ("cshear5", "closed"),
                ("radical4", "base"), ("radical4", "limit")]

# Random last-row shears with a radical rate, drawn like the test suite's
# random_lastrow_group.  The sampled verdict at the CLI default box is wrong
# (DISCRETE) or INCONCLUSIVE on about 60% of such draws, so like the random
# polynomial families they come from a fixed seed, not the run seed.
SHEAR_SEED = 0
SHEAR_COUNT = 6

# The documented dense claims at their documented boxes.
DENSE_CLAIMS = [("shear3", "dense_line", 1000), ("shear4", "dense_line", 1000),
                ("cshear5", "dense_plane", 200)]


def orbit(seed: int) -> tuple[dict[str, dict], list[dict]]:
    docs = fixture_docs()
    items = []
    for name, point in ORBIT_POINTS:
        kind, hull = FIXTURE_VERDICTS[(name, point)]
        items.append({"id": f"{name}.{point}", "doc": name, "run": "orbit",
                      "point": point, "kind": kind, "hull_dim": hull})
    for name, point, K in DENSE_CLAIMS:
        kind, hull = FIXTURE_VERDICTS[(name, point)]
        items.append({"id": f"{name}.{point}@K{K}", "doc": name, "run": "dense",
                      "point": point, "K": K, "kind": kind, "hull_dim": hull})
    shear_rng = random.Random(SHEAR_SEED)
    for k in range(SHEAR_COUNT):
        key = f"lastrow{k}"
        gens, base = lastrow_shear(shear_rng, shear_rng.randint(3, 5))
        docs[key] = doc("real", gens, {"base": base}, ["A", "B"])
        # expected verdict comes from the exact density of the increments
        items.append({"id": key, "doc": key, "run": "orbit", "point": "base",
                      "kind": None, "hull_dim": None})
    rng = random.Random(f"orbit:{seed}")
    for k in range(2):
        key = f"closed{k}"
        n = rng.randint(3, 4)
        coords = [str(rng.choice([1, 2, 3]) * rng.choice([-1, 1])) + "/" + str(rng.randint(1, 3))
                  for _ in range(n - 1)]
        docs[key] = dict(docs[f"shear{n}"], points={"p": coords + ["0"]})
        # rational increments: a lattice, so the exact verdict is CLOSED
        items.append({"id": key, "doc": key, "run": "orbit", "point": "p",
                      "kind": None, "hull_dim": None})
    return docs, items


WORKLOADS = {
    "structure-rational": structure_rational,
    "structure-radical": structure_radical,
    "orbit": orbit,
}
