"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import (
    FIXTURE_NAMES,
    determinant_zero_search,
    fixture_by_name,
    integer_relations,
    random_commuting_family,
    random_lastrow_group,
    random_scalar,
    random_sform_family,
)
from lindyn.cli import FIXTURES, main
from lindyn.density import CLOSED, DENSE, IntegerSpan, dense_in
from lindyn.dynamics import (
    DENSE_IN_AFFINE,
    DISCRETE,
    ClosureConfig,
    approximate_target,
    classify_closure,
    enumerate_orbit,
    inverse_recurrence_check,
)
from lindyn.errors import NoProgress
from lindyn.groups import GeneratorSet
from lindyn.invariants import (
    bounded_restriction_witness,
    invariant_family,
    invariant_tree,
    membership,
    nilpotent_span,
)
from lindyn.linalg import Matrix, as_vector, kernel, rank
from lindyn.numeric import NumericContext, nrank, to_numeric
from lindyn.scalars import Scalar

CTX = NumericContext()
CFG = ClosureConfig()


def emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1InvariantFamilies:
    def test_analyze_conformance(self, tmp_path):
        ok = True
        details = []
        for name in FIXTURE_NAMES:
            inp = FIXTURES / f"{name}.json"
            out = tmp_path / f"{name}-report.json"
            t0 = time.time()
            code = main(["analyze", str(inp), "--output", str(out)])
            elapsed = time.time() - t0
            assert code == 0
            rep = json.loads(out.read_text())
            n = rep["input"]["dimension"]
            fam = rep["invariant_family"]
            dims_ok = all(
                s["dimension"] in (n - 1, n - 2) for s in fam["subspaces"]
            )
            residuals_ok = all(
                float(s["invariance_residual"]) == 0.0 for s in fam["subspaces"]
            )
            this_ok = fam["count"] <= n and dims_ok and residuals_ok and elapsed < 1.0
            ok = ok and this_ok
            details.append(f"{name}: r={fam['count']} {elapsed:.2f}s")
        # the three-dimensional shear family has exactly one hyperplane x1 = 0
        rep = json.loads((tmp_path / "shear3-report.json").read_text())
        sub = rep["invariant_family"]["subspaces"]
        exact_h1 = (
            len(sub) == 1
            and [e["exact"] for e in sub[0]["functionals"][0]] == ["1", "0", "0"]
        )
        ok = ok and exact_h1
        emit("1 invariant-families", ok, "; ".join(details) + f"; H1={{x1=0}}: {exact_h1}")
        assert ok


class TestCriterion2ClosureVerdicts:
    def test_discrete_and_dense_line(self):
        G = fixture_by_name("shear3")[0]
        c1 = enumerate_orbit(G, as_vector([1, 1, 0]), 100, CFG)
        v1 = classify_closure(c1, CFG)
        c2 = enumerate_orbit(G, as_vector(["1", "sqrt(2)", "0"]), 1000, CFG)
        v2 = classify_closure(c2, CFG)
        ok = (
            v1.kind == DISCRETE
            and v2.kind == DENSE_IN_AFFINE
            and v2.hull_dim == 1
            and v2.gap is not None
            and v2.gap < 0.01
        )
        emit(
            "2 closure-verdicts",
            ok,
            f"rational base {v1.kind}; radical base {v2.kind}({v2.hull_dim}) "
            f"max gap {v2.gap:.2e} < 0.01 at K=1000",
        )
        assert ok


class TestCriterion3ExactDensity:
    def test_exact_criterion_and_brute_force(self, rng):
        one, s2, s3 = Scalar.one(), Scalar.sqrt_int(2), Scalar.sqrt_int(3)
        sp = IntegerSpan.of([(one, one), (s3, s2), (s2, one)], 2)
        v = dense_in(sp)
        radical_ok = v.kind == DENSE and v.relations == []
        rational = IntegerSpan.of(
            [(one, one), (Scalar.from_int(2), one), (one, Scalar.from_int(3))], 2
        )
        rational_ok = dense_in(rational).kind == CLOSED

        agree = 0
        for _ in range(20):
            vecs = []
            for _ in range(3):
                a = rng.choice([one, s2, s3, one + s2, Scalar.from_int(rng.randint(1, 3))])
                b = rng.choice([one, s2, s3, one - s2, Scalar.from_int(rng.randint(1, 3))])
                vecs.append((a, b))
            inst = IntegerSpan.of(vecs, 2)
            zeros = determinant_zero_search(inst, 50)
            verdict = dense_in(inst)
            if (verdict.kind == DENSE) == (zeros == []):
                agree += 1
        ok = radical_ok and rational_ok and agree == 20
        emit(
            "3 exact-density",
            ok,
            f"radical rows DENSE with empty relation basis: {radical_ok}; "
            f"rational rows CLOSED: {rational_ok}; brute-force agreement 20/20: {agree == 20}",
        )
        assert ok


class TestCriterion4RadicalShearPipeline:
    def test_full_reproduction(self):
        t0 = time.time()
        G, points = fixture_by_name("radical4")
        u = points["base"]
        v = points["limit"]
        s2, s3, one = Scalar.sqrt_int(2), Scalar.sqrt_int(3), Scalar.one()
        ap = approximate_target([s2, one], s3, 10**4)
        approx_ok = ap.achieved < 1e-4
        norms = [G.word(w).max_abs() for w in ap.tuples]
        unbounded_ok = max(norms) > 1e3
        witness = bounded_restriction_witness(G, u, ap.tuples)
        bound_ok = witness.bound <= 1 + math.sqrt(3) + 1e-3
        fam = invariant_family(G, CTX)
        rep = inverse_recurrence_check(G, fam, u, v, ap.tuples, CTX)
        recur_ok = rep.tends_to_zero and rep.final_error < 1e-3
        elapsed = time.time() - t0
        ok = approx_ok and unbounded_ok and bound_ok and recur_ok and elapsed < 10.0
        emit(
            "4 radical-shear-pipeline",
            ok,
            f"residual {ap.achieved:.2e} < 1e-4; max entry {max(norms):.0f} > 1e3; "
            f"restricted bound {witness.bound:.4f} <= {1 + math.sqrt(3) + 1e-3:.4f}; "
            f"tail error {rep.final_error:.2e} < 1e-3; {elapsed:.1f}s < 10s",
        )
        assert ok


class TestCriterion5PropertySuites:
    def test_a_b_random_families(self):
        rng = random.Random(501)
        count_ok = 0
        depth_ok = 0
        total = 100
        for _ in range(total):
            n = rng.randint(2, 6)
            G = random_commuting_family(rng, n)
            fam = invariant_family(G, CTX)
            good = fam.count <= n and all(
                s.dim in (n - 1, n - 2) for s in fam.subspaces
            )
            good = good and all(
                (s.invariance_residual == 0.0 if s.exact else s.invariance_residual <= 1e3 * CTX.eps)
                for s in fam.subspaces
            )
            if good:
                count_ok += 1
            tree = invariant_tree(G, CTX)
            if tree.depth <= n:
                depth_ok += 1
        ok = count_ok == total and depth_ok == total
        emit(
            "5ab invariant-families",
            ok,
            f"{count_ok}/{total} families pass residual+count bounds; "
            f"{depth_ok}/{total} trees within depth n",
        )
        assert ok

    def test_c_rank_projection(self):
        rng = random.Random(502)
        done = 0
        good = 0
        while done < 50:
            n = rng.randint(3, 6)
            try:
                G = random_sform_family(rng, n, want_rank=n - 1)
            except RuntimeError:
                continue
            done += 1
            lead = GeneratorSet(
                "real",
                n - 1,
                [g.submatrix(range(n - 1), range(n - 1)) for g in G.generators],
                list(G.names),
            )
            if nilpotent_span(lead).rank == n - 2:
                good += 1
        ok = good == 50
        emit("5c rank-projection", ok, f"{good}/50 projected families drop exactly one rank unit")
        assert ok

    def test_d_recurrence_on_random_sequences(self):
        rng = random.Random(503)
        done = 0
        good = 0
        attempts = 0
        while done < 25 and attempts < 200:
            attempts += 1
            n = rng.randint(3, 5)
            G, base, values = random_lastrow_group(rng, n)
            if integer_relations(values):
                continue
            d = rng.choice([7, 11, 13])
            target = Scalar.sqrt_int(d) * Scalar.from_fraction(f"{rng.randint(1, 3)}/2")
            try:
                ap = approximate_target(values, target, 10**4, min_residual=1e-4)
            except NoProgress:
                continue
            fam = invariant_family(G, CTX)
            v = list(base)
            v[-1] = base[-1] + target
            if not (membership(fam, base, CTX).in_U and membership(fam, tuple(v), CTX).in_U):
                continue
            rep = inverse_recurrence_check(G, fam, base, tuple(v), ap.tuples, CTX)
            done += 1
            if rep.tends_to_zero and rep.final_error < 1e-3:
                good += 1
        ok = done == 25 and good == 25
        emit("5d inverse-recurrence", ok, f"{good}/{done} generated sequences return home below 1e-3")
        assert ok


class TestCriterion6ExactSoundness:
    def test_field_axioms_thousand_triples(self):
        rng = random.Random(601)
        good = 0
        for _ in range(1000):
            a = random_scalar(rng)
            b = random_scalar(rng)
            c = random_scalar(rng)
            axioms = (
                (a + b) * c == a * c + b * c
                and (a * b) * c == a * (b * c)
                and a * b == b * a
            )
            if axioms and not a.is_zero():
                axioms = a * a.inverse() == Scalar.one()
            if axioms:
                good += 1
        ok = good == 1000
        emit("6 field-axioms", ok, f"{good}/1000 random triples satisfy the axioms")
        assert ok

    def test_rank_nullity_two_hundred(self):
        rng = random.Random(602)
        good = 0
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = Matrix.from_rows(
                [
                    [random_scalar(rng, radicands=(2,), max_num=3) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            if rank(M) + kernel(M).dim == cols:
                good += 1
        ok = good == 200
        emit("6 rank-nullity", ok, f"{good}/200 random matrices satisfy rank + nullity = cols")
        assert ok

    def test_exact_vs_numeric_rank_on_fixtures(self):
        checked = 0
        agree = 0
        for name in FIXTURE_NAMES:
            G, points = fixture_by_name(name)
            for g in G.generators:
                checked += 1
                if rank(g) == nrank(to_numeric(g), CTX):
                    agree += 1
            for p in points.values():
                M = Matrix.from_cols([list(p)])
                checked += 1
                if rank(M) == nrank(to_numeric(M), CTX):
                    agree += 1
        ok = agree == checked
        emit("6 rank-agreement", ok, f"{agree}/{checked} fixture matrices agree across backends")
        assert ok


class TestVerifyExamplesGate:
    def test_full_strength_claims(self, capsys):
        code = main(["verify-examples"])
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
        ok = code == 0 and all(l.startswith("PASS") for l in lines)
        with capsys.disabled():
            emit("verify-examples", ok, f"{len(lines)} claims, exit code {code}")
        assert ok, out
