import itertools
import math
import random

import pytest

from conftest import (
    FIXTURE_NAMES,
    fixture_by_name,
    group_from_strings,
    random_commuting_family,
    random_lastrow_group,
    random_scalar,
    random_sform_family,
)
from lindyn import invariants, spectral
from lindyn.errors import (
    FirstCoordinateZero,
    InvarianceViolation,
    NotAbelian,
    NotConvergent,
    NotInvariant,
)
from lindyn.groups import GeneratorSet
from lindyn.invariants import (
    bounded_restriction_witness,
    invariant_family,
    invariant_hull,
    invariant_tree,
    membership,
    nilpotent_span,
    s_form_diagonal,
)
from lindyn.linalg import Matrix, Subspace, as_vector, restrict, solve
from lindyn.numeric import NumericContext, NumSubspace, max_abs, nsolve_cols, to_numeric
from lindyn.report import render_tree
from lindyn.scalars import Scalar

CTX = NumericContext()


def naive_tree(G, ctx, budget, case=None):
    """Reference recursion: a fresh family at every node of every chain."""
    n = G.dimension
    if n == 0:
        return chain_node(0, case, 0, [])
    if budget <= 0:
        raise InvarianceViolation("invariant tree exceeded its depth budget")
    fam = invariant_family(G, ctx)
    children = []
    for sub in fam.subspaces:
        if sub.dim == 0:
            children.append(chain_node(0, sub.case, 0, []))
            continue
        if sub.exact and G.exact:
            gens = [restrict(g, sub.subspace.basis) for g in G.generators]
        else:
            basis = to_numeric(sub.subspace.basis)
            gens = [nsolve_cols(basis, to_numeric(g) @ basis)[0] for g in G.generators]
        restricted = GeneratorSet(G.field, sub.dim, gens, list(G.names))
        children.append(naive_tree(restricted, ctx, budget - 1, sub.case))
    return chain_node(n, case, fam.count, children)


def chain_node(dimension, case, family_size, children):
    """A node as reached along one chain, with the case of its last edge."""
    return {"dimension": dimension, "case": case, "family_size": family_size,
            "children": children}


def expand_chains(nodes, index=0, case=None):
    """Every chain of a rendered lattice, from node ``index`` down."""
    node = nodes[index]
    children = [expand_chains(nodes, c["node"], c["case"]) for c in node["children"]]
    return chain_node(node["dimension"], case, node["family_size"], children)


def chain_height(node):
    return 1 + max(map(chain_height, node["children"])) if node["children"] else 0


def assert_tree_matches_naive(G, ctx=CTX):
    tree = invariant_tree(G, ctx)
    expected = naive_tree(G, ctx, G.dimension)
    assert expand_chains(render_tree(tree.root)) == expected
    assert tree.depth == chain_height(expected)
    return tree


def diagonal_group(n):
    """Two diagonal generators, the first with distinct eigenvalues."""
    first = [[str(i + 2) if i == j else "0" for j in range(n)] for i in range(n)]
    second = [[str(i % 2 + 1) if i == j else "0" for j in range(n)] for i in range(n)]
    return group_from_strings("real", [first, second])


def shear3():
    return fixture_by_name("shear3")[0]


def radical4():
    return fixture_by_name("radical4")[0]


class TestNilpotentSpan:
    def test_shear3(self):
        fam = nilpotent_span(shear3())
        assert fam.rank == 1
        # oracle by direct entry reading: (A-I)e1 = e3, (B-I)e2 = e3
        v = fam.chosen_vectors()[0]
        assert [str(x) for x in v] == ["0", "0", "1"]
        assert len(fam.vectors) == 4

    def test_radical4(self):
        fam = nilpotent_span(radical4())
        assert fam.rank == 1
        assert fam.span.contains(as_vector([0, 0, 0, 1]))

    def test_homothety(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "2"]]])
        fam = nilpotent_span(G)
        assert fam.rank == 0 and fam.span.dim == 0

    def test_first_coordinate_zero_invariant(self, rng):
        for _ in range(10):
            G = random_sform_family(rng, rng.randint(2, 5))
            for _, _, v in nilpotent_span(G).vectors:
                assert v[0].is_zero()

    def test_word_closure(self, rng):
        # directions generated by random words stay inside the generator span:
        # no column of W - mu_W I escapes span(F) for a word W
        for _ in range(10):
            G = random_sform_family(rng, rng.randint(2, 5))
            fam = nilpotent_span(G)
            n = G.dimension
            words = [tuple(rng.randint(-3, 3) for _ in G.generators) for _ in range(10)]
            bad = 0
            for word in words:
                W = G.word(word)
                N = W - Matrix.identity(n).scale(s_form_diagonal(W))
                for i in range(n - 1):
                    vec = N.col(i)
                    if not all(x.is_zero() for x in vec) and not fam.span.contains(vec):
                        bad += 1
            assert bad == 0


class TestInvariantHull:
    def test_radical4_hull(self):
        G = radical4()
        hull = invariant_hull(G, as_vector([1, 1, 0, 0]))
        assert hull.dim == 2
        assert hull.contains(as_vector([0, 0, 0, 1]))
        assert hull.contains(as_vector([1, 1, 0, 0]))

    def test_homothety_hull_is_line(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "2"]]])
        hull = invariant_hull(G, as_vector([1, 1]))
        assert hull.dim == 1

    def test_shear3_hull(self):
        hull = invariant_hull(shear3(), as_vector([1, 1, 0]))
        assert hull.dim == 2
        assert hull.contains(as_vector([0, 0, 1]))


class TestInvariantFamily:
    def test_shear3_single_hyperplane(self):
        fam = invariant_family(shear3(), CTX)
        assert fam.count == 1
        sub = fam.subspaces[0]
        assert sub.dim == 2 and sub.case == "real-hyperplane"
        fn = sub.functionals
        assert [[str(x) for x in row] for row in fn.entries()] == [["1", "0", "0"]]
        assert sub.invariance_residual == 0.0

    def test_diag_two_hyperplanes(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "3"]]])
        fam = invariant_family(G, CTX)
        fns = sorted(
            [[str(x) for x in row] for row in s.functionals.entries()][0]
            for s in fam.subspaces
        )
        assert fns == [["0", "1"], ["1", "0"]]

    def test_rotation_codim2(self):
        R = Matrix.from_rows([["1/2", "-1/2*sqrt(3)"], ["1/2*sqrt(3)", "1/2"]])
        G = GeneratorSet("real", 2, [R], ["R"])
        fam = invariant_family(G, CTX)
        assert fam.count == 1
        assert fam.subspaces[0].dim == 0
        assert fam.subspaces[0].case == "real-conjugate-pair"

    def test_n1_zero_subspace(self):
        G = group_from_strings("real", [[["2"]]])
        fam = invariant_family(G, CTX)
        assert fam.count == 1 and fam.subspaces[0].dim == 0

    def test_invariance_under_every_generator(self, rng):
        for _ in range(8):
            G = random_commuting_family(rng, rng.randint(2, 4))
            fam = invariant_family(G, CTX)
            n = G.dimension
            assert fam.count <= n
            for s in fam.subspaces:
                assert s.dim in (n - 1, n - 2)
                if s.exact:
                    for g in G.generators:
                        if s.dim:
                            restrict(g, s.subspace.basis)  # raises if not invariant
                else:
                    for g in G.generators:
                        gn = to_numeric(g)
                        _, resid = nsolve_cols(s.subspace.basis, gn @ s.subspace.basis)
                        scale = max(1.0, max_abs(gn)) * max(1.0, max_abs(s.subspace.basis))
                        assert resid <= 1e3 * CTX.eps * scale


class TestInvarianceByFunctionals:
    """An exact H = span(B) = ker F is checked by F g B = 0, not restricted."""

    # P = [e_0 | b_1 | b_2] is unimodular; H is spanned by b_1, b_2, whose
    # matrix has no private row, and F is row 0 of P^-1
    P = Matrix.from_rows([[1, 1, 1], [0, 1, 2], [0, 1, 3]])
    B = P.submatrix(range(3), [1, 2])
    F = P.inverse().submatrix([0], range(3))

    def conjugated(self, rows):
        return self.P * Matrix.from_rows(rows) * self.P.inverse()

    def test_invariant_subspace_restricts_nothing(self, monkeypatch):
        def no_restrict(A, basis):
            raise AssertionError("restrict called")

        monkeypatch.setattr(invariants, "restrict", no_restrict)
        g = self.conjugated([[2, 0, 0], [1, 3, 0], [4, 1, 5]])
        G = GeneratorSet("real", 3, [g, g * g], ["a", "b"])
        assert invariants._invariance_residual(G, Subspace(3, self.B), self.F, CTX) == 0.0

    def test_non_invariant_subspace_raises_like_restrict(self):
        # the first two keep H (the second maps b_1 to 3 b_1 + b_2), the
        # third maps b_1 to e_0 + 3 b_1, out of H
        keeping = [self.conjugated([[2, 0, 0], [0, 3, 0], [0, 0, 5]]),
                   self.conjugated([[2, 0, 0], [0, 3, 0], [0, 1, 5]])]
        leaving = self.conjugated([[2, 1, 0], [0, 3, 0], [0, 0, 5]])
        G = GeneratorSet("real", 3, keeping + [leaving], ["a", "b", "c"])
        with pytest.raises(NotInvariant) as got:
            invariants._invariance_residual(G, Subspace(3, self.B), self.F, CTX)
        with pytest.raises(NotInvariant) as expected:
            restrict(leaving, self.B)
        assert (got.value.vector_index, got.value.residual) == (
            expected.value.vector_index, expected.value.residual)
        assert got.value.vector_index == 0


class TestConjugatePairFamilies:
    def test_two_pairs_give_two_codim2(self):
        A = Matrix.from_rows(
            [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-2"], ["0", "0", "2", "0"]]
        )
        B = Matrix.from_rows(
            [["0", "-2", "0", "0"], ["2", "0", "0", "0"], ["0", "0", "0", "-3"], ["0", "0", "3", "0"]]
        )
        G = GeneratorSet("real", 4, [A, B], ["A", "B"])
        fam = invariant_family(G, CTX)
        assert [(s.case, s.dim) for s in fam.subspaces] == [
            ("real-conjugate-pair", 2),
            ("real-conjugate-pair", 2),
        ]
        assert all(s.exact and s.invariance_residual == 0.0 for s in fam.subspaces)
        assert membership(fam, as_vector([1, 0, 1, 0]), CTX).in_U
        assert membership(fam, as_vector([0, 0, 1, 0]), CTX).containing == [1]

    def test_mixed_real_and_pair(self):
        M = Matrix.from_rows(
            [["2", "0", "0"], ["0", "1/2", "-1/2*sqrt(3)"], ["0", "1/2*sqrt(3)", "1/2"]]
        )
        G = GeneratorSet("real", 3, [M], ["M"])
        fam = invariant_family(G, CTX)
        cases = sorted((s.case, s.dim) for s in fam.subspaces)
        assert cases == [("real-conjugate-pair", 1), ("real-hyperplane", 2)]

    def test_numeric_pair_outside_field(self):
        # eigenvalues (1 +- i sqrt(11))/2 are not recognized over the entry
        # radicands, so the pair machinery runs on the numeric backend
        C = Matrix.from_rows([["0", "-3", "0"], ["1", "1", "0"], ["0", "0", "2"]])
        G = GeneratorSet("real", 3, [C], ["C"])
        fam = invariant_family(G, CTX)
        cases = sorted((s.case, s.dim, s.exact) for s in fam.subspaces)
        assert cases == [("real-conjugate-pair", 1, False), ("real-hyperplane", 2, False)]
        assert assert_tree_matches_naive(G).depth <= 3


class TestMembership:
    def test_points(self):
        fam = invariant_family(shear3(), CTX)
        assert membership(fam, as_vector([1, 1, 0]), CTX).in_U
        assert membership(fam, as_vector([0, 5, 2]), CTX).containing == [0]
        zero = membership(fam, as_vector([0, 0, 0]), CTX)
        assert zero.containing == [0]

    def test_zero_in_every_subspace(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "3"]]])
        fam = invariant_family(G, CTX)
        zero = membership(fam, as_vector([0, 0]), CTX)
        assert zero.containing == [0, 1]


class TestInvariantTree:
    def test_shear3_depth(self):
        tree = invariant_tree(shear3(), CTX)
        assert tree.depth <= 3
        assert tree.root.dimension == 3

    def test_homothety_plane(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "2"]]])
        tree = invariant_tree(G, CTX)
        assert tree.depth == 2  # plane -> line -> origin

    def test_n1(self):
        G = group_from_strings("real", [[["3"]]])
        assert invariant_tree(G, CTX).depth == 1

    def test_depth_bounded_random(self, rng):
        for _ in range(6):
            G = random_commuting_family(rng, rng.randint(2, 4))
            tree = assert_tree_matches_naive(G)
            assert tree.depth <= G.dimension
            stack = [tree.root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert child.dimension < node.dimension
                    stack.append(child)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_trees_match_naive(self, name):
        assert_tree_matches_naive(fixture_by_name(name)[0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_diagonal_trees_match_naive(self, n):
        assert assert_tree_matches_naive(diagonal_group(n)).depth == n

    @pytest.mark.parametrize("n, numeric", [(5, False), (6, False), (4, True)])
    def test_one_family_per_distinct_subspace(self, n, numeric, monkeypatch):
        # n distinct real eigenvalues: 2^n - 1 nonzero invariant subspaces,
        # against n!-many chain nodes, and the root's family describes them
        # all, so the whole tree costs one family and one refinement.  The
        # numeric group has eigenvalues +-sqrt(2), +-sqrt(3) outside its
        # entries' field.
        if numeric:
            G = group_from_strings("real", [[
                ["0", "2", "0", "0"], ["1", "0", "0", "0"],
                ["0", "0", "0", "3"], ["0", "0", "1", "0"],
            ]])
        else:
            G = diagonal_group(n)
        calls = []

        def counted(name):
            original = getattr(invariants, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(invariants, name, wrapper)

        counted("invariant_family")
        counted("simultaneous_refinement")
        tree = invariant_tree(G, CTX)
        assert sorted(calls) == ["invariant_family", "simultaneous_refinement"]
        assert tree.depth == n
        assert all(s.exact != numeric for s in tree.family.subspaces)

    def test_diagonal_ten(self):
        # one node object per subset of the ten eigenlines, C(10, k) of
        # dimension k, and one edge per eigenline in each nonzero subset
        tree = invariant_tree(diagonal_group(10), CTX)
        assert tree.depth == 10
        reached, edges, stack = {id(tree.root): tree.root}, 0, [tree.root]
        while stack:
            node = stack.pop()
            assert len(node.cases) == len(node.children)
            edges += len(node.children)
            for child in node.children:
                if id(child) not in reached:
                    reached[id(child)] = child
                    stack.append(child)
        assert len(reached) == 2**10
        assert edges == 10 * 2**9
        dims = [node.dimension for node in reached.values()]
        assert [dims.count(k) for k in range(11)] == [math.comb(10, k) for k in range(11)]

    def test_restrictions_computed_once(self, monkeypatch):
        # every generator is restricted to each block basis at most once, and
        # nothing is restricted below the root: each restricted matrix is one
        # of the root's generators, on a basis of the ambient space.  The
        # invariance check of the family restricts nothing while it passes.
        # Distinct bases can give equal local matrices, so a generator is
        # keyed by identity and held, which keeps its id from being reused
        held = []
        restrict = invariants.restrict

        def counting(calls):
            def counted(A, basis):
                calls.append((id(A), basis))
                held.append(A)
                return restrict(A, basis)
            return counted

        block_calls, family_calls = [], []
        monkeypatch.setattr(spectral, "restrict", counting(block_calls))
        monkeypatch.setattr(invariants, "restrict", counting(family_calls))
        for G in (diagonal_group(4), shear3(), radical4()):
            block_calls.clear()
            invariant_tree(G, CTX)
            roots = {id(g) for g in G.generators}
            assert block_calls and len(block_calls) == len(set(block_calls))
            assert all(a in roots and basis.rows == G.dimension for a, basis in block_calls)
            assert not family_calls

    def test_tree_carries_root_family(self):
        tree = invariant_tree(radical4(), CTX)
        assert tree.family.count == tree.root.family_size
        assert [s.dim for s in tree.family.subspaces] == [
            s.dim for s in invariant_family(radical4(), CTX).subspaces
        ]


class TestBoundedRestrictionWitness:
    def approach_words(self):
        from lindyn.dynamics import approximate_target

        ap = approximate_target(
            [Scalar.sqrt_int(2), Scalar.one()], Scalar.sqrt_int(3), 10**4
        )
        return ap.tuples

    def test_radical4_case(self):
        G = radical4()
        u = as_vector([1, 1, 0, 0])
        words = self.approach_words()
        w = bounded_restriction_witness(G, u, words)
        assert w.case_trace == ["recurse-hull(rank=1)", "full-rank"]
        assert [str(x) for x in w.basis.col(0)] == ["1", "1", "0", "0"]
        assert [str(x) for x in w.basis.col(1)] == ["0", "0", "0", "1"]
        assert w.bound <= 1 + math.sqrt(3) + 1e-3
        # the full matrices blow up while the restriction stays bounded
        assert max(G.word(word).max_abs() for word in words) > 1e3

    def test_constant_identity_sequence(self):
        G = group_from_strings("real", [[["1", "0"], ["0", "1"]]])
        w = bounded_restriction_witness(G, as_vector([1, 0]), [(0,)] * 4)
        assert w.bound == 1.0
        assert w.case_trace == ["homothety"]

    def test_first_coordinate_zero_rejected(self):
        G = radical4()
        with pytest.raises(FirstCoordinateZero):
            bounded_restriction_witness(G, as_vector([0, 1, 0, 0]), [(0, 0)])

    def test_divergent_sequence_rejected(self):
        G = radical4()
        words = [(m, 0) for m in range(1, 9)]  # k*sqrt(2) runs away
        with pytest.raises(NotConvergent):
            bounded_restriction_witness(G, as_vector([1, 1, 0, 0]), words)

    def test_full_rank_case_direct(self, rng):
        # a family with full nilpotent rank exercises the terminal case
        G = random_sform_family(rng, 3, want_rank=2)
        u = as_vector([1, 0, 0])
        w = bounded_restriction_witness(G, u, [(0, 0)] * 4)
        assert w.case_trace == ["full-rank"]
        assert w.subspace.dim == 3


class TestStructureProperties:
    def test_rank_projection_drop(self, rng):
        # families with full nilpotent rank lose exactly one rank unit when
        # the last coordinate is projected away
        found = 0
        for _ in range(12):
            n = rng.randint(3, 5)
            try:
                G = random_sform_family(rng, n, want_rank=n - 1)
            except RuntimeError:
                continue
            found += 1
            lead = GeneratorSet(
                "real",
                n - 1,
                [g.submatrix(range(n - 1), range(n - 1)) for g in G.generators],
                list(G.names),
            )
            assert nilpotent_span(lead).rank == n - 2
        assert found >= 5


class TestCommutatorResidual:
    def test_exact_commutators(self):
        # the residual is read off the exact commutators: 0.0 at every
        # precision on commuting families, and on sparse radical matrices whose
        # commutators do not vanish the largest max_abs() among them, the value
        # that check_abelian reports in NotAbelian for that pair
        rng = random.Random(31)
        for _ in range(4):
            G = random_commuting_family(rng, rng.randint(2, 5), 3)
            for precision in (53, 64, 128, 256):
                assert G.commutator_residual(NumericContext(precision=precision)) == 0.0
        nonzero = 0
        for _ in range(8):
            n = rng.randint(1, 6)
            gens = [Matrix([[random_scalar(rng) if rng.random() < 0.4 else Scalar.zero()
                             for _ in range(n)] for _ in range(n)]) for _ in range(3)]
            residuals = []
            for a, b in itertools.combinations(gens, 2):
                comm = a * b - b * a
                residuals.append(comm.max_abs())
                if not comm.is_zero():
                    with pytest.raises(NotAbelian) as raised:
                        GeneratorSet("complex", n, [a, b]).check_abelian(CTX)
                    assert raised.value.residual == residuals[-1]
                else:
                    GeneratorSet("complex", n, [a, b]).check_abelian(CTX)
            G = GeneratorSet("complex", n, gens)
            for precision in (53, 64, 128, 256):
                assert G.commutator_residual(NumericContext(precision=precision)) == max(residuals)
            nonzero += max(residuals) != 0
        assert nonzero >= 6
