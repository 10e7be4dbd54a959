"""Free pre-Lie algebra on rooted trees: enumeration against an
independent counting oracle, the defining identity without truncation,
the evaluation homomorphism, and the cocycle pullback check.
"""

import itertools
import random
from fractions import Fraction

import pytest

from preliecoh.algebra import PreLieAlgebra, Representation
from preliecoh.cochain import Cochain, CochainBasis, coboundary, cohomology
from preliecoh.errors import NeedsHigherTruncation, ShapeError, TruncationMismatch
from preliecoh.linalg import vector
from preliecoh.trees import (
    MAX_TREE_DEPTH,
    LabeledRootedTree,
    TreeEvaluator,
    TreePoly,
    check_cocycle_pullback,
    enumerate_trees,
    evaluate,
    format_tree,
    graft_product,
    parse_tree,
    tree,
    tree_counts_oracle,
)

F = Fraction


def sparse_algebra(dim, entries):
    prod = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in entries.items():
        prod[i][j][k] = F(c)
    return PreLieAlgebra(dim, tuple(tuple(tuple(r) for r in p) for p in prod))


LMULT2 = sparse_algebra(2, {(0, 1, 1): 1})
AFFINE2 = sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1})
IDEM1 = sparse_algebra(1, {(0, 0, 0): 1})
ABELIAN2 = PreLieAlgebra.zero_product(2)

CATALOG = [ABELIAN2, IDEM1, LMULT2, AFFINE2]


def poly(t, d):
    return TreePoly.of_tree(t, d)


def test_children_are_canonical():
    a, b = tree(0), tree(1)
    assert tree(2, a, b) == tree(2, b, a)
    assert hash(tree(2, a, b)) == hash(tree(2, b, a))
    assert tree(2, a, b).degree == 3


def test_single_label_counts_frozen():
    # 1, 1, 2, 4: frozen by hand before the enumerator existed
    assert [len(enumerate_trees(1, d)) for d in (1, 2, 3, 4)] == [1, 1, 2, 4]


def test_counts_match_independent_oracle():
    for labels in (1, 2):
        oracle = tree_counts_oracle(labels, 5)
        for d in range(1, 6):
            assert len(enumerate_trees(labels, d)) == oracle[d]


def test_grafting_leaf_onto_leaf():
    a, b = tree(0), tree(1)
    p = graft_product(poly(a, 2), poly(b, 2))
    assert p.terms == ((tree(1, a), F(1)),)
    assert not p.truncated


def test_corolla_identity_frozen():
    # (a*b)*c - a*(b*c) = -c(a,b)
    a, b, c = tree(0), tree(1), tree(2)
    d = 3
    lhs = graft_product(graft_product(poly(a, d), poly(b, d)), poly(c, d))
    rhs = graft_product(poly(a, d), graft_product(poly(b, d), poly(c, d)))
    diff = lhs.sub(rhs)
    assert diff.terms == ((tree(2, a, b), F(-1)),)


def test_graft_multiplicity():
    # grafting a into b(c,c) hits the root once and each c once; the two
    # c-graftings coincide, so that tree carries coefficient 2
    a, c = tree(0), tree(2)
    t = tree(1, c, c)
    p = graft_product(poly(a, 4), poly(t, 4))
    assert p.coefficient(tree(1, c, c, a)) == F(1)
    assert p.coefficient(tree(1, c, tree(2, a))) == F(2)


def test_left_symmetry_up_to_degree_five():
    d = 5
    basis = [t for deg in (1, 2, 3) for t in enumerate_trees(1, deg)]
    for s, t, u in itertools.product(basis, repeat=3):
        if s.degree + t.degree + u.degree > d:
            continue
        ps, pt, pu = poly(s, d), poly(t, d), poly(u, d)
        lhs = graft_product(graft_product(ps, pt), pu).sub(
            graft_product(ps, graft_product(pt, pu))
        )
        rhs = graft_product(graft_product(pt, ps), pu).sub(
            graft_product(pt, graft_product(ps, pu))
        )
        assert lhs.terms == rhs.terms


def test_truncation_flag_and_guards():
    a = tree(0)
    p = poly(a, 1)
    prod = graft_product(p, p)  # degree 2 > cutoff 1
    assert prod.truncated
    assert prod.is_zero()
    with pytest.raises(TruncationMismatch):
        graft_product(poly(a, 2), poly(a, 3))
    with pytest.raises(NeedsHigherTruncation):
        evaluate(prod, IDEM1, {0: vector([1])})


def test_format_parse_roundtrip():
    t = tree(1, tree(0, tree(2)), tree(2))
    s = format_tree(t)
    assert s == "b(c,a(c))"
    assert parse_tree(s) == t
    assert parse_tree("b(a(c), c)") == t
    assert parse_tree("x1(x0(x2),x2)") == t
    with pytest.raises(ShapeError):
        parse_tree("a(b")
    with pytest.raises(ShapeError):
        parse_tree("a)b")


def test_parse_nesting_bound():
    def chain(depth):
        return "a(" * depth + "b" + ")" * depth

    deepest = parse_tree(chain(MAX_TREE_DEPTH))
    assert deepest.degree == MAX_TREE_DEPTH + 1
    assert format_tree(deepest) == chain(MAX_TREE_DEPTH)
    product = graft_product(
        TreePoly.of_tree(deepest, 2 * deepest.degree), TreePoly.of_tree(deepest, 2 * deepest.degree)
    )
    assert len(product.terms) == deepest.degree
    with pytest.raises(ShapeError, match="nesting deeper than"):
        parse_tree(chain(MAX_TREE_DEPTH + 1))


def test_evaluate_single_trees():
    # E(b(a)) = E(a) * E(b) by the defining chain
    ev = TreeEvaluator(AFFINE2, {0: vector([1, 0]), 1: vector([0, 1])})
    assert ev.eval_tree(tree(1, tree(0))) == AFFINE2.multiply(vector([1, 0]), vector([0, 1]))


def test_evaluation_is_a_homomorphism():
    rng = random.Random(31)
    d = 4
    for algebra in CATALOG:
        assigns = [
            {i: algebra.basis_vector(i) for i in range(algebra.dim)},
            {
                i: vector([F(rng.randint(-2, 2)) for _ in range(algebra.dim)])
                for i in range(algebra.dim)
            },
        ]
        basis = [
            t
            for deg in (1, 2, 3)
            for t in enumerate_trees(algebra.dim, deg)
        ]
        for assign in assigns:
            ev = TreeEvaluator(algebra, assign)
            for s, t in itertools.product(basis, repeat=2):
                if s.degree + t.degree > d:
                    continue
                prod = graft_product(poly(s, d), poly(t, d))
                lhs = ev.eval_poly(prod)
                rhs = algebra.multiply(ev.eval_tree(s), ev.eval_tree(t))
                assert lhs == rhs


def test_corolla_evaluation_frozen():
    # E(c(a,b)) = E(a)*(E(b)*E(c)) - (E(a)*E(b))*E(c) up to sign:
    # from the frozen corolla identity, E(c(a,b)) = -((a*b)*c - a*(b*c))
    ev = TreeEvaluator(AFFINE2, {0: vector([1, 0]), 1: vector([1, 1]), 2: vector([0, 1])})
    ea, eb, ec = vector([1, 0]), vector([1, 1]), vector([0, 1])
    m = AFFINE2.multiply
    expected = tuple(
        x - y
        for x, y in zip(m(ea, m(eb, ec)), m(m(ea, eb), ec))
    )
    assert ev.eval_tree(tree(2, tree(0), tree(1))) == expected


def test_cocycle_pullback_passes_for_representatives():
    for rep in (
        Representation.trivial(ABELIAN2, 1),
        Representation.trivial(LMULT2, 1),
        Representation.regular(LMULT2),
    ):
        h3 = cohomology(rep, 3)
        assign = {i: rep.algebra.basis_vector(i) for i in range(rep.algebra.dim)}
        for theta in h3.representatives:
            assert check_cocycle_pullback(theta, rep, assign, 4) is None


def test_cocycle_pullback_rejects_non_cocycle():
    # over a 2-dim algebra every 3-cochain is closed (no 4-cochains), so
    # the negative needs dim 3: abelian3 acting on Q through the weight
    # (1,0,0); a generic 3-cochain then has nonzero coboundary
    from preliecoh.algebra import check_representation

    a3 = PreLieAlgebra.zero_product(3)
    left = (((F(1),),), ((F(0),),), ((F(0),),))
    right = (((F(0),), (F(0),), (F(0),)),)
    rep = Representation(a3, 1, left, right)
    assert check_representation(rep) is None
    rng = random.Random(32)
    basis = CochainBasis(3, 3)
    found = None
    for _ in range(30):
        vals = tuple((F(rng.randint(-3, 3)),) for _ in range(len(basis)))
        cand = Cochain(3, 3, 1, vals)
        if not coboundary(rep, cand).is_zero():
            found = cand
            break
    assert found is not None
    assign = {i: a3.basis_vector(i) for i in range(3)}
    bad = check_cocycle_pullback(found, rep, assign, 4)
    assert bad is not None
    assert bad.axiom == "pullback-coboundary"
