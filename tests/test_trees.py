"""Free pre-Lie algebra on rooted trees: enumeration against an
independent counting oracle, the defining identity without truncation,
the evaluation homomorphism, and the cocycle pullback check.
"""

import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from preliecoh.algebra import PreLieAlgebra, Representation, Violation
from preliecoh.catalog import representation_pairs
from preliecoh.cochain import Cochain, CochainBasis, coboundary, cohomology
from preliecoh.errors import NeedsHigherTruncation, ShapeError, TruncationMismatch
from preliecoh.linalg import vec_add, vec_scale, vec_sub, vector, zero_vector
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
    _free_family,
    _free_plan,
    _node_values,
)

from test_cochain import scaled

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
# the left unit scaled by 1/2 puts denominators into both actions
HALF_UNIT = sparse_algebra(3, {(0, j, j): F(1, 2) for j in range(3)})
# e1 * e2 = e3 / 2: E reaches e3 only through a degree-2 tree
N3 = sparse_algebra(3, {(0, 1, 2): F(1, 2)})
EXTRA_PAIRS = [
    ("half-unit/regular", Representation.regular(HALF_UNIT)),
    ("half-unit/trivial1", Representation.trivial(HALF_UNIT, 1)),
    ("n3/regular", Representation.regular(N3)),
    ("n3/trivial1", Representation.trivial(N3, 1)),
]


def pullback_totals_oracle(theta, rep, assign, max_degree):
    """The Fraction reference for the coboundary of the pullback: yields
    (quadruple, value) for every quadruple of basis trees within the
    cutoff, in lexicographic order of indices. Every term is evaluated
    with Cochain.evaluate and the module actions on rational vectors, and
    pullbacks are cached by the tuple of argument vectors."""
    if theta.arity != 3:
        raise ShapeError("need a 3-cochain")
    a = rep.algebra
    if theta.algebra_dim != a.dim or theta.carrier_dim != rep.carrier_dim:
        raise ShapeError("cochain does not match the representation")
    if not assign:
        raise ShapeError("no image assigned to any label")
    num_labels = max(assign.keys()) + 1
    evaluator = TreeEvaluator(a, assign)
    trees = []
    for d in range(1, max(max_degree - 3, 1) + 1):
        trees.extend(enumerate_trees(num_labels, d))

    free_degree = max_degree + 1
    polys = [TreePoly.of_tree(t, free_degree) for t in trees]
    indices = [
        (i1, i2, i3, i4)
        for i1, i2, i3, i4 in itertools.product(range(len(trees)), repeat=4)
        if trees[i1].degree + trees[i2].degree + trees[i3].degree + trees[i4].degree
        <= max_degree
    ]
    singles = [evaluator.eval_poly(p) for p in polys]
    product_cache = {}

    def product_vec(i, j):
        key = (i, j)
        if key not in product_cache:
            product_cache[key] = evaluator.eval_poly(graft_product(polys[i], polys[j]))
        return product_cache[key]

    theta_cache = {}

    def pullback(v1, v2, v3):
        key = (v1, v2, v3)
        if key not in theta_cache:
            theta_cache[key] = theta.evaluate([v1, v2, v3])
        return theta_cache[key]

    for quad in indices:
        vecs = [singles[q] for q in quad]
        total = zero_vector(rep.carrier_dim)
        for i in (1, 2, 3):
            sign = F(1) if i % 2 == 1 else F(-1)
            rest = [vecs[t] for t in range(4) if t != i - 1]
            term = rep.act_left(vecs[i - 1], pullback(rest[0], rest[1], rest[2]))
            total = vec_add(total, vec_scale(sign, term))
            shuffled = [vecs[t] for t in range(3) if t != i - 1] + [vecs[i - 1]]
            term = rep.act_right(pullback(shuffled[0], shuffled[1], shuffled[2]), vecs[3])
            total = vec_add(total, vec_scale(sign, term))
            head = [vecs[t] for t in range(3) if t != i - 1]
            prod = product_vec(quad[i - 1], quad[3])
            term = pullback(head[0], head[1], prod)
            total = vec_sub(total, vec_scale(sign, term))
        for i in (1, 2, 3):
            for j in range(i + 1, 4):
                sign = F(1) if (i + j) % 2 == 0 else F(-1)
                br = vec_sub(
                    product_vec(quad[i - 1], quad[j - 1]),
                    product_vec(quad[j - 1], quad[i - 1]),
                )
                rest = [vecs[t] for t in range(4) if t not in (i - 1, j - 1)]
                term = pullback(br, rest[0], rest[1])
                total = vec_add(total, vec_scale(sign, term))
        yield quad, total


def check_cocycle_pullback_oracle(theta, rep, assign, max_degree):
    """The Fraction reference for check_cocycle_pullback: the first
    quadruple of pullback_totals_oracle with a nonzero value."""
    zero = zero_vector(rep.carrier_dim)
    for quad, total in pullback_totals_oracle(theta, rep, assign, max_degree):
        if total != zero:
            return Violation("pullback-coboundary", quad, total, zero)
    return None


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
    coefficients = dict(p.terms)
    assert coefficients[tree(1, c, c, a)] == F(1)
    assert coefficients[tree(1, c, tree(2, a))] == F(2)


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
        cand = Cochain.from_coordinates(3, 3, 1, [F(rng.randint(-3, 3)) for _ in range(len(basis))])
        if not coboundary(rep, cand).is_zero():
            found = cand
            break
    assert found is not None
    assign = {i: a3.basis_vector(i) for i in range(3)}
    bad = check_cocycle_pullback(found, rep, assign, 4)
    assert bad is not None
    assert bad.axiom == "pullback-coboundary"


# --- the integer pullback against the Fraction oracle -------------------------


def rational_assign(rng, dim, labels=None):
    labels = dim if labels is None else labels
    values = [F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3, 2)]
    return {a: tuple(rng.choice(values) for _ in range(dim)) for a in range(labels)}


def random_cochain(rng, rep):
    a, v = rep.algebra.dim, rep.carrier_dim
    values = [F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3)]
    n = len(CochainBasis(3, a))
    return Cochain.from_coordinates(3, a, v, [rng.choice(values) for _ in range(n * v)])


def test_pullback_equals_oracle_on_catalog_representatives():
    rng = random.Random(33)
    for name, rep in representation_pairs():
        reps = cohomology(rep, 3).representatives
        if not reps:
            continue
        a = rep.algebra
        assigns = [{i: a.basis_vector(i) for i in range(a.dim)}, rational_assign(rng, a.dim)]
        # the oracle sees one seeded rational combination of all representatives
        combo = Cochain.zero(3, a.dim, rep.carrier_dim)
        for theta in reps:
            combo = combo.add(scaled(theta, F(rng.randint(-3, 3), rng.randint(1, 3))))
        for assign in assigns:
            for degree in (4, 5):
                for theta in reps:
                    assert check_cocycle_pullback(theta, rep, assign, degree) is None, name
                if degree == 5 and a.dim > 2:
                    continue  # the oracle takes 0.5-2 s per call there
                want = check_cocycle_pullback_oracle(combo, rep, assign, degree)
                assert want is None, name
                assert check_cocycle_pullback(combo, rep, assign, degree) == want, name


def test_pullback_equals_oracle_on_perturbed_cochains():
    # generic 3-cochains on the dim-3 catalog representations are not
    # closed: the first failing quadruple and its value must agree
    rng = random.Random(34)
    violations = 0
    # the left unit scaled by 1/2 puts denominators into both actions
    half_unit = sparse_algebra(3, {(0, j, j): F(1, 2) for j in range(3)})
    pairs = representation_pairs() + [("half-unit/regular", Representation.regular(half_unit))]
    for name, rep in pairs:
        a = rep.algebra
        if a.dim != 3:
            continue
        for _ in range(2):
            theta = random_cochain(rng, rep)
            if coboundary(rep, theta).is_zero():
                continue
            for assign in ({i: a.basis_vector(i) for i in range(3)}, rational_assign(rng, 3)):
                for degree in (4, 5):
                    want = check_cocycle_pullback_oracle(theta, rep, assign, degree)
                    assert check_cocycle_pullback(theta, rep, assign, degree) == want, name
                    violations += want is not None
    assert violations >= 20


def test_pullback_equals_oracle_past_degree_one():
    # e1 * e2 = e3 / 2 with two labels on e1, e2 (or on rational vectors):
    # E reaches e3 only through a degree-2 tree, so for some unit
    # cochains the first failing quadruple contains one
    n3 = sparse_algebra(3, {(0, 1, 2): F(1, 2)})
    rng = random.Random(35)
    deep = 0
    for rep in (Representation.regular(n3), Representation.trivial(n3, 1)):
        v = rep.carrier_dim
        positions = len(CochainBasis(3, 3)) * v
        for assign in (
            {0: n3.basis_vector(0), 1: n3.basis_vector(1)},
            rational_assign(rng, 3, labels=2),
        ):
            for p in rng.sample(range(positions), 8):
                coords = [F(0)] * positions
                coords[p] = F(1)
                theta = Cochain.from_coordinates(3, 3, v, coords)
                want = check_cocycle_pullback_oracle(theta, rep, assign, 5)
                assert check_cocycle_pullback(theta, rep, assign, 5) == want, (v, p)
                deep += want is not None and max(want.indices) >= 2
    assert deep >= 3


def test_pullback_equals_oracle_on_errors():
    rep = Representation.regular(LMULT2)
    theta = Cochain.zero(3, 2, 2)
    assign = {0: LMULT2.basis_vector(0), 1: LMULT2.basis_vector(1)}
    cases = [
        (Cochain.zero(2, 2, 2), rep, assign, "need a 3-cochain"),
        (Cochain.zero(3, 2, 1), rep, assign, "does not match"),
        (Cochain.zero(3, 1, 2), rep, assign, "does not match"),
        (theta, rep, {0: assign[0], 2: assign[1]}, "no image assigned to label 1"),
        (theta, rep, {0: assign[0], 1: (F(1),)}, "wrong dimension"),
        (theta, rep, {}, "no image assigned to any label"),
    ]
    for check in (check_cocycle_pullback, check_cocycle_pullback_oracle):
        for theta_, rep_, assign_, message in cases:
            with pytest.raises(ShapeError, match=message):
                check(theta_, rep_, assign_, 5)


def test_free_plan_values_equal_the_fraction_evaluator():
    # every node of the integer program, every basis tree and every pair
    # product, divided by its scale, is TreeEvaluator's Fraction value
    rng = random.Random(36)
    half_unit = sparse_algebra(3, {(0, j, j): F(1, 2) for j in range(3)})
    n3 = sparse_algebra(3, {(0, 1, 2): F(1, 2)})
    algebras = list({rep.algebra: None for _, rep in representation_pairs()}) + [half_unit, n3]
    for algebra in algebras:
        d = algebra.dim
        for labels in (1, 2, 3):
            basis = {i: algebra.basis_vector(i % d) for i in range(labels)}
            for assign in (basis, rational_assign(rng, d, labels)):
                ev = TreeEvaluator(algebra, assign)
                images = [assign[i] for i in range(labels)]
                for degree in (4, 5, 6):
                    plan = _free_plan(labels, degree)
                    values, scales = _node_values(plan, algebra, images)
                    for t, value, scale in zip(plan.nodes, values, scales):
                        want = ev.eval_poly(poly(t, t.degree))
                        assert tuple(F(x, scale) for x in value) == want, format_tree(t)
                    den, singles = _free_family(values, scales, plan.singles, d)
                    for t, value in zip(plan.trees, singles):
                        assert tuple(F(x, den) for x in value) == ev.eval_tree(t)
                    den, products = _free_family(values, scales, plan.products, d)
                    for (i, j), value in zip(plan.pairs, products):
                        s, t = plan.trees[i], plan.trees[j]
                        want = ev.eval_poly(graft_product(poly(s, degree), poly(t, degree)))
                        assert tuple(F(x, den) for x in value) == want


def test_free_side_is_planned_once_per_degree_bound(monkeypatch):
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr("preliecoh.trees.graft_product", counted(graft_product))
    monkeypatch.setattr("preliecoh.trees.enumerate_trees", counted(enumerate_trees))
    _free_plan.cache_clear()
    rng = random.Random(37)
    first = Representation.regular(LMULT2)
    check_cocycle_pullback(random_cochain(rng, first), first, rational_assign(rng, 2), 6)
    assert calls["graft_product"] > 0 and calls["enumerate_trees"] > 0
    calls.clear()
    # another algebra, cochain and assignment with the same labels and degree
    second = Representation.trivial(AFFINE2, 2)
    basis = {i: AFFINE2.basis_vector(i) for i in range(2)}
    check_cocycle_pullback(random_cochain(rng, second), second, basis, 6)
    assert not calls


def pullback_cases():
    """Seeded (theta, rep, assign, degree): two closed and two random
    cochains on every catalog pair and on HALF_UNIT and N3, with 1-3
    labels sent to basis vectors or to rational vectors, at degrees 3-5."""
    rng = random.Random(38)
    values = [F(0), F(1), F(-2), F(1, 2), F(-1, 3)]
    for _, rep in representation_pairs() + EXTRA_PAIRS:
        a, v = rep.algebra, rep.carrier_dim
        twos = len(CochainBasis(2, a.dim)) * v
        thetas = [
            coboundary(rep, Cochain.from_coordinates(2, a.dim, v, [rng.choice(values) for _ in range(twos)]))
            for _ in range(2)
        ]
        thetas += [random_cochain(rng, rep) for _ in range(2)]
        for theta in thetas:
            for labels in (1, 2, 3):
                basis = {i: a.basis_vector(i % a.dim) for i in range(labels)}
                for assign in (basis, rational_assign(rng, a.dim, labels)):
                    for degree in (3, 4, 5):
                        yield theta, rep, assign, degree


# sha256 over the reprs of check_cocycle_pullback on pullback_cases, one
# line each, recorded from the pullback that visited every quadruple
PULLBACK_DIGEST = "97c5dbd16d44f7648c55691d69917e76e0b997a7938282be3fcf3f72a2f74d27"


def test_pullback_results_equal_the_recorded_ones():
    h = hashlib.sha256()
    calls = violations = 0
    for theta, rep, assign, degree in pullback_cases():
        result = check_cocycle_pullback(theta, rep, assign, degree)
        h.update(repr(result).encode() + b"\n")
        calls += 1
        violations += result is not None
    assert (calls, violations) == (1656, 56)
    assert h.hexdigest() == PULLBACK_DIGEST


def test_pullback_coboundary_is_alternating_in_its_first_three_trees():
    # check_cocycle_pullback visits only i1 < i2 < i3; this is the property
    # that allows it, read off the oracle, which evaluates every quadruple
    rng = random.Random(39)
    pairs = [(name, rep) for name, rep in representation_pairs() if rep.algebra.dim == 3] + EXTRA_PAIRS
    inversions = {p: sum(p[i] > p[j] for i, j in ((0, 1), (0, 2), (1, 2))) for p in itertools.permutations(range(3))}
    signs = {p: (-1) ** k for p, k in inversions.items()}
    checked = nonzero = 0
    for name, rep in pairs:
        theta = random_cochain(rng, rep)
        if coboundary(rep, theta).is_zero():
            continue  # every quadruple would read zero
        basis = {i: rep.algebra.basis_vector(i) for i in range(3)}
        for assign, degree in ((basis, 4), (rational_assign(rng, 3), 5)):
            totals = dict(pullback_totals_oracle(theta, rep, assign, degree))
            for quad, total in totals.items():
                if len(set(quad[:3])) < 3:
                    assert not any(total), (name, quad)
                for p, sign in signs.items():
                    permuted = (quad[p[0]], quad[p[1]], quad[p[2]], quad[3])
                    assert totals[permuted] == tuple(sign * x for x in total), (name, quad, p)
                    checked += 1
                    nonzero += any(total)
    assert checked > 50000 and nonzero > 5000
