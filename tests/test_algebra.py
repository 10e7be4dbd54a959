"""Core structure checkers: worked examples frozen by hand, an
independent brute-force oracle for violation witnesses, and randomized
closure properties.
"""

import contextlib
import importlib
import itertools
import pkgutil
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh.algebra import (
    ActionData,
    AlgebraMorphism,
    PreLieAlgebra,
    Representation,
    Violation,
    check_action,
    check_lie,
    check_morphism,
    check_prelie,
    check_representation,
    subadjacent_lie,
    zero_tensor3,
)
from preliecoh.algebra import LieAlgebra, Tensor3, bilinear, compose, minus_transposed, sparse_tensor, tensor3
import preliecoh
from preliecoh import algebra, xmodules
from preliecoh.catalog import ALGEBRAS, BAD_ALGEBRA, fixture_documents, representation_pairs
from preliecoh.documents import document_from_obj, verify_document
from preliecoh.functors import DendriformAlgebra, LieCrossedModule, check_dendriform, check_lie_crossed_module
from preliecoh.errors import NotAnIdeal, ShapeError
from preliecoh.linalg import MatrixQ, SubspaceBasis, rank_kernel_image, solve_particular, sparse_row, standard_basis_vector, vec_add, vec_sub, vector, zero_vector
from preliecoh.xmodules import CrossedModule, check_crossed_module, ideal_inclusion_xmod

from test_linalg import col

F = Fraction


def dense(t):
    """The nested tuples t[i][j][k] of a Tensor3, zeros included."""
    d1, d2, _ = t.shape
    return tuple(tuple(t.vector(i, j) for j in range(d2)) for i in range(d1))


# --- dense oracles for the sparse checkers ---------------------------------
# The checkers as first written: every identity is evaluated with
# `bilinear` on standard basis vectors, zeros included.


def check_prelie_dense(a):
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        ij_k = a.multiply(a.basis_product(i, j), a.basis_vector(k))
        i_jk = a.multiply(a.basis_vector(i), a.basis_product(j, k))
        ji_k = a.multiply(a.basis_product(j, i), a.basis_vector(k))
        j_ik = a.multiply(a.basis_vector(j), a.basis_product(i, k))
        lhs = vec_sub(ij_k, i_jk)
        rhs = vec_sub(ji_k, j_ik)
        if lhs != rhs:
            return Violation("left-symmetry", (i, j, k), lhs, rhs)
    return None


def check_lie_dense(l):
    for i, j in itertools.product(range(l.dim), repeat=2):
        lhs = l.basis_bracket(i, j)
        rhs = tuple(-c for c in l.basis_bracket(j, i))
        if lhs != rhs:
            return Violation("antisymmetry", (i, j), lhs, rhs)
    for i, j, k in itertools.product(range(l.dim), repeat=3):
        s = bilinear(l.bracket, l.basis_bracket(i, j), l.basis_vector(k))
        s = vec_add(s, bilinear(l.bracket, l.basis_bracket(j, k), l.basis_vector(i)))
        s = vec_add(s, bilinear(l.bracket, l.basis_bracket(k, i), l.basis_vector(j)))
        if any(s):
            return Violation("jacobi", (i, j, k), s, zero_vector(l.dim))
    return None


def check_representation_dense(rep):
    a = rep.algebra
    v = rep.carrier_dim
    lie = subadjacent_lie(a)
    for i, j, u in itertools.product(range(a.dim), range(a.dim), range(v)):
        lhs = bilinear(rep.left, lie.basis_bracket(i, j), standard_basis_vector(v, u))
        rhs = vec_sub(
            rep.act_left(a.basis_vector(i), rep.left.vector(j, u)),
            rep.act_left(a.basis_vector(j), rep.left.vector(i, u)),
        )
        if lhs != rhs:
            return Violation("left-action-lie-module", (i, j, u), lhs, rhs)
    for i, u, j in itertools.product(range(a.dim), range(v), range(a.dim)):
        lhs = vec_sub(
            rep.act_right(rep.left.vector(i, u), a.basis_vector(j)),
            rep.act_left(a.basis_vector(i), rep.right.vector(u, j)),
        )
        rhs = vec_sub(
            rep.act_right(rep.right.vector(u, i), a.basis_vector(j)),
            rep.act_right(standard_basis_vector(v, u), a.basis_product(i, j)),
        )
        if lhs != rhs:
            return Violation("mixed-identity", (i, u, j), lhs, rhs)
    return None


def check_morphism_dense(f):
    for i, j in itertools.product(range(f.source.dim), repeat=2):
        lhs = f.apply(f.source.basis_product(i, j))
        rhs = f.target.multiply(col(f.matrix, i), col(f.matrix, j))
        if lhs != rhs:
            return Violation("morphism", (i, j), lhs, rhs)
    return None


def check_action_dense(act):
    bad = check_representation_dense(act.representation())
    if bad is not None:
        return bad
    n, m = act.acting.dim, act.module.dim
    mod = act.module
    for x, u, v in itertools.product(range(n), range(m), range(m)):
        ev = act.left.vector(x, u)
        lhs = vec_sub(
            mod.multiply(ev, mod.basis_vector(v)),
            act.act_left(act.acting.basis_vector(x), mod.basis_product(u, v)),
        )
        rhs = vec_sub(
            mod.multiply(act.right.vector(u, x), mod.basis_vector(v)),
            bilinear(mod.product, mod.basis_vector(u), act.left.vector(x, v)),
        )
        if lhs != rhs:
            return Violation("action-left-compat", (x, u, v), lhs, rhs)
    for u, v, x in itertools.product(range(m), range(m), range(n)):
        ex = act.acting.basis_vector(x)
        lhs = vec_sub(
            act.act_right(mod.basis_product(u, v), ex),
            mod.multiply(mod.basis_vector(u), act.right.vector(v, x)),
        )
        rhs = vec_sub(
            act.act_right(mod.basis_product(v, u), ex),
            mod.multiply(mod.basis_vector(v), act.right.vector(u, x)),
        )
        if lhs != rhs:
            return Violation("action-right-compat", (u, v, x), lhs, rhs)
    return None


def first_prelie_violation_bruteforce(dim, product):
    """Independent oracle: scan triples in lex order with a fully spelled
    out evaluation of the defining identity; no shared code paths with
    check_prelie beyond the tensor container."""
    def mul(x, y):
        out = [F(0)] * dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    out[k] += x[i] * y[j] * product[i][j][k]
        return tuple(out)

    e = [standard_basis_vector(dim, t) for t in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = vec_sub(mul(mul(e[i], e[j]), e[k]), mul(e[i], mul(e[j], e[k])))
                rhs = vec_sub(mul(mul(e[j], e[i]), e[k]), mul(e[j], mul(e[i], e[k])))
                if lhs != rhs:
                    return (i, j, k)
    return None


def sparse_algebra(dim, entries, labels=None):
    """entries: {(i, j, k): coeff} 0-based."""
    prod = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in entries.items():
        prod[i][j][k] = F(c)
    return PreLieAlgebra(dim, tuple(tuple(tuple(r) for r in p) for p in prod), labels)


# catalog-style algebras used across the suite
def abelian(n):
    return PreLieAlgebra.zero_product(n)


def idem1():
    # e1*e1 = e1
    return sparse_algebra(1, {(0, 0, 0): 1})


def lmult2():
    # e1*e2 = e2
    return sparse_algebra(2, {(0, 1, 1): 1})


def affine2():
    # e1*e1 = e1, e1*e2 = e2
    return sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1})


def bad2():
    # e1*e1 = e2, e2*e1 = e1: not pre-Lie
    return sparse_algebra(2, {(0, 0, 1): 1, (1, 0, 0): 1})


POSITIVE = [abelian(1), abelian(2), abelian(3), idem1(), lmult2(), affine2()]


def test_positive_algebras_pass():
    for a in POSITIVE:
        assert check_prelie(a) is None


def test_violation_witness_matches_bruteforce_oracle():
    a = bad2()
    bad = check_prelie(a)
    assert bad is not None
    # frozen from the hand-run oracle: first failing triple in lex order
    # is (0, 1, 0), i.e. (1, 2, 1) in 1-based reporting
    assert first_prelie_violation_bruteforce(a.dim, dense(a.product)) == (0, 1, 0)
    assert bad.indices == (0, 1, 0)
    assert bad.axiom == "left-symmetry"


def test_violation_str_is_one_based():
    bad = check_prelie(bad2())
    assert "(1, 2, 1)" in str(bad)


def test_shape_error_on_malformed_tensor():
    with pytest.raises(ShapeError):
        PreLieAlgebra(2, ((vector([1, 0]),),))


def test_subadjacent_lie_of_lmult2():
    # [e1,e2] = e2, all other brackets determined by antisymmetry
    lie = subadjacent_lie(lmult2())
    assert lie.basis_bracket(0, 1) == vector([0, 1])
    assert lie.basis_bracket(1, 0) == vector([0, -1])
    assert check_lie(lie) is None


def test_subadjacent_lie_always_lie():
    for a in POSITIVE:
        assert check_lie(subadjacent_lie(a)) is None


def test_regular_representation_passes():
    for a in POSITIVE:
        assert check_representation(Representation.regular(a)) is None


def test_trivial_representation_passes():
    for a in POSITIVE:
        for v in (1, 2):
            assert check_representation(Representation.trivial(a, v)) is None


def test_representation_negative():
    # only the left action on lmult2's trivial module perturbed
    a = lmult2()
    left = [[[F(0)] * 1 for _ in range(1)] for _ in range(2)]
    left[1][0][0] = F(1)  # e2 acts nontrivially: breaks the Lie-module law
    rep = Representation(a, 1, tuple(tuple(tuple(r) for r in p) for p in left),
                         zero_tensor3(1, 2, 1))
    bad = check_representation(rep)
    assert bad is not None
    assert bad.axiom == "left-action-lie-module"


def test_action_of_algebra_on_itself():
    for a in POSITIVE:
        act = ActionData(a, a, a.product, a.product)
        assert check_action(act) is None


def test_zero_module_product_is_plain_representation():
    # an action on a zero-product module is exactly a representation
    a = affine2()
    act = ActionData(a, PreLieAlgebra.zero_product(2), a.product, a.product)
    assert check_action(act) is None


def test_action_negative_left_action_dropped():
    # self-action with the left action zeroed: the representation axioms
    # survive but the first module-compatibility identity does not
    a = affine2()
    act = ActionData(a, a, zero_tensor3(2, 2, 2), a.product)
    assert check_representation(act.representation()) is None
    bad = check_action(act)
    assert bad is not None
    assert bad.axiom == "action-left-compat"
    assert bad.indices == (0, 0, 0)


def test_morphism_identity_and_negative():
    a = lmult2()
    ident = AlgebraMorphism(a, a, MatrixQ.identity(2))
    assert check_morphism(ident) is None
    swap = AlgebraMorphism(a, a, MatrixQ.from_rows([[0, 1], [1, 0]]))
    bad = check_morphism(swap)
    assert bad is not None
    assert bad.axiom == "morphism"


def ideal_subalgebra(a, sub):
    """The ideal span(sub) as an algebra in its own basis, plus the
    inclusion matrix, read off its inclusion crossed module."""
    x = ideal_inclusion_xmod(a, sub)
    return x.m_algebra, x.mu.matrix


def test_ideal_check_and_restriction():
    a = lmult2()
    sub = SubspaceBasis.from_vectors(2, (vector([0, 1]),))
    ideal, incl = ideal_subalgebra(a, sub)
    assert ideal.dim == 1
    assert ideal.product.is_zero()
    assert incl == MatrixQ.from_rows([[0], [1]])


def test_not_an_ideal():
    a = lmult2()
    sub = SubspaceBasis.from_vectors(2, (vector([1, 0]),))  # e1*e2=e2 escapes span(e1)
    bad = check_two_sided_ideal_dense(a, sub)
    assert bad is not None
    with pytest.raises(NotAnIdeal) as exc:
        ideal_subalgebra(a, sub)
    assert str(exc.value) == str(bad)


# --- randomized properties --------------------------------------------------

fracs = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def random_prelie(draw):
    """Transport a known pre-Lie structure through a random invertible
    (unitriangular times nonzero diagonal) basis change; the axiom is
    basis-independent so the result must still pass."""
    from preliecoh.linalg import invert

    base = draw(st.sampled_from(POSITIVE))
    d = base.dim
    diag = [draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(3)])) for _ in range(d)]
    rows = [
        [diag[i] if i == j else (draw(fracs) if j > i else F(0)) for j in range(d)]
        for i in range(d)
    ]
    m = MatrixQ.from_rows(rows)
    minv = invert(m)
    prod = []
    for i in range(d):
        row = []
        for j in range(d):
            # (m e_i) * (m e_j) expressed back through m^{-1}
            p = base.multiply(col(m, i), col(m, j))
            row.append(minv.mul_vec(p))
        prod.append(tuple(row))
    return PreLieAlgebra(d, tuple(prod))


@settings(max_examples=40, deadline=None)
@given(random_prelie())
def test_transported_structures_stay_prelie(a):
    assert check_prelie(a) is None
    assert check_lie(subadjacent_lie(a)) is None
    assert check_representation(Representation.regular(a)) is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POSITIVE), st.data())
def test_checker_agrees_with_bruteforce_on_perturbations(a, data):
    entries = [list(map(list, p)) for p in dense(a.product)]
    i = data.draw(st.integers(0, a.dim - 1))
    j = data.draw(st.integers(0, a.dim - 1))
    k = data.draw(st.integers(0, a.dim - 1))
    entries[i][j][k] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
    cand = PreLieAlgebra(a.dim, tuple(tuple(tuple(r) for r in p) for p in entries))
    bad = check_prelie(cand)
    oracle = first_prelie_violation_bruteforce(cand.dim, dense(cand.product))
    if bad is None:
        assert oracle is None
    else:
        assert oracle == bad.indices


# --- sparse checkers against the dense oracles ------------------------------

small = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(2), F(1, 3), F(-2, 5)])


def random_tensor(data, d1, d2, d3):
    return tuple(
        tuple(tuple(data.draw(small) for _ in range(d3)) for _ in range(d2)) for _ in range(d1)
    )


def random_matrix(data, rows, cols):
    return MatrixQ.from_rows([[data.draw(small) for _ in range(cols)] for _ in range(rows)], cols)


def perturbed_matrix(data, m):
    """m with one entry changed, or unchanged half of the time."""
    if m.rows and m.cols and data.draw(st.booleans()):
        i = data.draw(st.integers(0, m.rows - 1))
        j = data.draw(st.integers(0, m.cols - 1))
        step = data.draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
        return m + MatrixQ.from_entries(m.rows, m.cols, {(i, j): step})
    return m


def perturbed(data, t):
    """t with one entry changed, or unchanged half of the time."""
    cells = [list(map(list, plane)) for plane in dense(t)]
    if cells and cells[0] and cells[0][0] and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(cells) - 1))
        j = data.draw(st.integers(0, len(cells[0]) - 1))
        k = data.draw(st.integers(0, len(cells[0][0]) - 1))
        cells[i][j][k] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2)]))
    return tuple(tuple(tuple(row) for row in plane) for plane in cells)


def test_sparse_checkers_equal_dense_oracles_on_catalog():
    for a in [*ALGEBRAS.values(), BAD_ALGEBRA, bad2()]:
        assert check_prelie(a) == check_prelie_dense(a)
    for _, rep in representation_pairs():
        assert check_representation(rep) == check_representation_dense(rep)
    payloads = [doc.payload for doc in fixture_documents().values()]
    for p in payloads:
        if isinstance(p, PreLieAlgebra):
            assert check_prelie(p) == check_prelie_dense(p)
        elif isinstance(p, Representation):
            assert check_representation(p) == check_representation_dense(p)
        elif hasattr(p, "action") and isinstance(p.action, ActionData):
            assert check_action(p.action) == check_action_dense(p.action)
            rep = getattr(p, "v_rep", None)
            if rep is not None:
                assert check_representation(rep) == check_representation_dense(rep)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_prelie_checker_equals_dense_oracle(data):
    d = data.draw(st.integers(1, 3))
    base = data.draw(st.sampled_from([a for a in POSITIVE if a.dim == d] + [None]))
    product = random_tensor(data, d, d, d) if base is None else perturbed(data, base.product)
    a = PreLieAlgebra(d, product)
    assert check_prelie(a) == check_prelie_dense(a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POSITIVE), st.integers(1, 2), st.data())
def test_sparse_representation_checker_equals_dense_oracle(a, v, data):
    d = a.dim
    if data.draw(st.booleans()):
        regular = Representation.regular(a)
        v, left, right = d, perturbed(data, regular.left), perturbed(data, regular.right)
    else:
        left, right = random_tensor(data, d, v, v), random_tensor(data, v, d, v)
    rep = Representation(a, v, left, right)
    assert check_representation(rep) == check_representation_dense(rep)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POSITIVE), st.data())
def test_sparse_action_checker_equals_dense_oracle(a, data):
    how = data.draw(st.sampled_from(["module", "all", "random"]))
    if how == "module":
        module = PreLieAlgebra(a.dim, perturbed(data, a.product))
        left, right = a.product, a.product
    elif how == "all":
        module = PreLieAlgebra(a.dim, perturbed(data, a.product))
        left, right = perturbed(data, a.product), perturbed(data, a.product)
    else:
        module = data.draw(st.sampled_from(POSITIVE))
        n, m = a.dim, module.dim
        left, right = random_tensor(data, n, m, m), random_tensor(data, m, n, m)
    act = ActionData(a, module, left, right)
    assert check_action(act) == check_action_dense(act)


def test_sparse_action_checker_right_compat_witness():
    # module e3 * e1 = e2 over abelian3 acting by m_2 . e_1 = -m_1 only:
    # both representation laws and the left identity hold, the right one fails
    module = sparse_algebra(3, {(2, 0, 1): 1})
    right = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    right[1][0][0] = F(-1)
    right = tuple(tuple(tuple(row) for row in plane) for plane in right)
    act = ActionData(abelian(3), module, zero_tensor3(3, 3, 3), right)
    bad = check_action(act)
    assert bad == check_action_dense(act)
    assert (bad.axiom, bad.indices) == ("action-right-compat", (0, 2, 0))


def test_tensor3_keeps_shape_checks_and_input_types():
    t = tensor3([[[1, "1/2"]], [[F(2), F(-1, 3)]]], 2, 1, 2)
    assert dense(t) == (((F(1), F(1, 2)),), ((F(2), F(-1, 3)),))
    assert all(type(x) is F for _, _, _, x in t.entries())
    assert tensor3(t, 2, 1, 2) is t
    assert tensor3((((F(1), F(0)),),), 1, 1, 2).pairs == (((0, 0), ((0, F(1)),)),)
    assert dense(tensor3([[(F(1), 2)]], 1, 1, 2)) == (((F(1), F(2)),),)
    assert dense(tensor3([[[]]], 1, 1, 0)) == (((),),)
    for bad, dims in [
        ([[[1, 2]]], (2, 1, 2)),
        ([[[1, 2]]], (1, 2, 2)),
        ([[[1, 2, 3]]], (1, 1, 2)),
        ([[(F(1),)]], (1, 1, 2)),
        ([[[1.5, 2]]], (1, 1, 2)),
        ([[[True, 2]]], (1, 1, 2)),
        (t, (1, 2, 2)),
    ]:
        with pytest.raises(ShapeError):
            tensor3(bad, *dims)
    for entries in [{(1, 0, 0): 1}, {(0, 0, 2): 1}, {(0, 0, 0): 0.5}]:
        with pytest.raises(ShapeError):
            sparse_tensor(1, 1, 2, entries)


def test_tensor_equality_is_canonical():
    # nested lists with explicit zeros, entries and the document reader
    nested = tensor3([[[0, 0], [0, "-1/2"]], [[0, 0], [0, 0]]], 2, 2, 2)
    entries = sparse_tensor(2, 2, 2, {(0, 1, 1): F(-1, 2), (1, 0, 0): 0})
    doc = {"kind": "prelie", "dim": 2, "product": [[1, 2, 2, "-1/2"]]}
    read = document_from_obj(doc).payload.product
    assert nested == entries == read
    assert hash(nested) == hash(entries) == hash(read)
    assert nested.pairs == entries.pairs == read.pairs == (((0, 1), ((1, F(-1, 2)),)),)
    assert read.row(0, 1) == ((1, F(-1, 2)),) and read.row(1, 0) == read.row(0, 0) == ()
    assert list(read.entries()) == [(0, 1, 1, F(-1, 2))]
    assert zero_tensor3(2, 2, 2) == tensor3([[[0, 0]] * 2] * 2, 2, 2, 2)
    assert zero_tensor3(2, 2, 2).is_zero() and not read.is_zero()
    assert isinstance(read, Tensor3) and read != zero_tensor3(2, 2, 2)


# --- check_lie against its dense oracle --------------------------------------


def test_sparse_lie_checker_equals_dense_oracle_on_catalog():
    lies = [subadjacent_lie(a) for a in [*ALGEBRAS.values(), BAD_ALGEBRA, *POSITIVE]]
    for doc in fixture_documents().values():
        p = doc.payload
        parts = (p, getattr(p, "m", None), getattr(p, "n", None))
        lies.extend(x for x in parts if isinstance(x, LieAlgebra))
    for l in lies:
        assert check_lie(l) == check_lie_dense(l)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_lie_checker_equals_dense_oracle(data):
    d = data.draw(st.integers(1, 3))
    how = data.draw(st.sampled_from(["random", "commutator", "perturbed"]))
    if how == "random":
        bracket = random_tensor(data, d, d, d)
    else:
        # commutators are antisymmetric; those of pre-Lie products are Lie
        if how == "commutator":
            product = random_tensor(data, d, d, d)
        else:
            product = data.draw(st.sampled_from([a for a in POSITIVE if a.dim == d])).product
        bracket = subadjacent_lie(PreLieAlgebra(d, product)).bracket
        if how == "perturbed":
            bracket = perturbed(data, bracket)
    l = LieAlgebra(d, bracket)
    assert check_lie(l) == check_lie_dense(l)


# --- the integer engine against the fraction engine -------------------------


def fraction_first_failure(families, n):
    """algebra._first_failure as it was before the integer engine, kept as
    its oracle: every index tuple is visited, zero coefficient rows
    included, and both sides are summed in fractions. An identity may
    name the order of the indices its witness reports."""

    def side(terms, idx):
        out = [F(0)] * n
        for sign, coeffs, (a, b), rows, c in terms:
            i = 0 if c is None else idx[c]
            for w, x in coeffs.row(idx[a], idx[b]):
                for k, y in rows.row(i, w):
                    out[k] += sign * x * y
        return tuple(out)

    for shape, identities in families:
        for idx in itertools.product(*map(range, shape)):
            for axiom, lhs, rhs, *order in identities:
                left, right = side(lhs, idx), side(rhs, idx)
                if left != right:
                    indices = tuple(idx[p] for p in order[0]) if order else idx
                    return Violation(axiom, indices, left, right)
    return None


def engine_modules():
    """Every library module that binds _first_failure."""
    modules = (importlib.import_module(f"preliecoh.{m.name}") for m in pkgutil.iter_modules(preliecoh.__path__))
    return [m for m in modules if "_first_failure" in vars(m)]


@contextlib.contextmanager
def fraction_engine():
    """Run every checker on the oracle instead of the integer engine."""
    modules = engine_modules()
    saved = algebra._first_failure
    for module in modules:
        module._first_failure = fraction_first_failure
    try:
        yield
    finally:
        for module in modules:
            module._first_failure = saved


def on_both_engines(check, *args):
    got = check(*args)
    with fraction_engine():
        want = check(*args)
    assert got == want
    return got


def test_integer_engine_equals_fraction_engine_on_fixtures():
    for doc in fixture_documents().values():
        on_both_engines(verify_document, doc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_engine_equals_fraction_engine(data):
    # `small` mixes denominators 1, 2, 3 and 5, so the common denominator
    # of the tensors a checker reads differs from that of any one of them
    d = data.draw(st.integers(1, 3))
    a = PreLieAlgebra(d, random_tensor(data, d, d, d))
    lie = subadjacent_lie(data.draw(st.sampled_from([x for x in POSITIVE if x.dim == d])))
    on_both_engines(check_prelie, a)
    on_both_engines(check_lie, LieAlgebra(d, random_tensor(data, d, d, d)))
    on_both_engines(check_lie, LieAlgebra(d, perturbed(data, lie.bracket)))
    v = data.draw(st.integers(1, 2))
    rep = Representation(a, v, random_tensor(data, d, v, v), random_tensor(data, v, d, v))
    on_both_engines(check_representation, rep)
    module = data.draw(st.sampled_from(POSITIVE))
    m = module.dim
    act = ActionData(abelian(d), module, random_tensor(data, d, m, m), random_tensor(data, m, d, m))
    on_both_engines(check_action, act)
    on_both_engines(check_dendriform, DendriformAlgebra(d, random_tensor(data, d, d, d), random_tensor(data, d, d, d)))
    # Lie brackets and a zero mu, so the action families are reached
    m_lie = subadjacent_lie(module)
    xmod = LieCrossedModule(m_lie, lie, MatrixQ.zero(d, m), random_tensor(data, d, m, m))
    on_both_engines(check_lie_crossed_module, xmod)


def test_integer_engine_witness_has_the_fraction_sides():
    # e1 * e1 = 1/3 e2 and e2 * e1 = -2/5 e1, so D = 15; by hand, at
    # (e1, e2, e1): (e1 e2) e1 - e1 (e2 e1) = 0 + 2/5 e1 e1 = 2/15 e2 and
    # (e2 e1) e1 - e2 (e1 e1) = -2/5 e1 e1 - 0 = -2/15 e2
    a = sparse_algebra(2, {(0, 0, 1): F(1, 3), (1, 0, 0): F(-2, 5)})
    want = Violation("left-symmetry", (0, 1, 0), (F(0), F(2, 15)), (F(0), F(-2, 15)))
    assert on_both_engines(check_prelie, a) == want == check_prelie_dense(a)


@contextlib.contextmanager
def joined():
    """Record the sparse join of every engine call: the first indices of
    the slices it can build, and the index tuples each built slice adds
    into (repeats included)."""
    slices, tuples = set(), []
    keyed = algebra._Join.keyed

    def spy(self, term, arity):
        by_x0, visit = keyed(self, term, arity)
        slices.update(by_x0)

        def recorded(diff, pairs):
            visit(diff, pairs)
            tuples.extend(diff)

        return by_x0, recorded

    with mock.patch.object(algebra._Join, "keyed", spy):
        yield slices, tuples


def test_zero_products_build_no_slice():
    with joined() as (slices, tuples):
        assert check_prelie(abelian(60)) is None
        assert check_lie(LieAlgebra(60, zero_tensor3(60, 60, 60))) is None
    assert slices == set() and tuples == []
    # one nonzero pair (1, 2): every tuple the join reaches contains 1 and 2;
    # e_1 e_2 = e_0 has only zero products, and e_1 e_2 = e_1 reaches
    # (1, 2, 2), where left-symmetry fails, before its slice 2 is built
    for entries, reached in (({(1, 2, 0): 1}, set()), ({(1, 2, 1): 1}, {(1, 2, 2)})):
        a = sparse_algebra(3, entries)
        with joined() as (slices, tuples):
            assert check_prelie(a) == check_prelie_dense(a)
        assert slices and set(tuples) == reached
        assert all(1 in idx and 2 in idx for idx in tuples)


def test_a_failure_in_the_first_slice_builds_no_later_slice():
    # e_i e_j = e_0 for every pair: (e_i e_j) e_k = e_0 e_k = e_0 for all
    # (i, j, k), and left-symmetry holds; e_0 e_0 = e_1 as well breaks it
    # first at (0, 1, 0), and every first index still has products
    a = sparse_algebra(3, {**{(i, j, 0): 1 for i in range(3) for j in range(3)}, (0, 0, 1): 1})
    with joined() as (slices, tuples):
        bad = check_prelie(a)
    assert bad == check_prelie_dense(a) and bad.indices == (0, 1, 0)
    assert slices == {0, 1, 2} and tuples and {idx[0] for idx in tuples} == {0}


def test_equivariance_left_reports_its_witness_in_its_own_order():
    # mu = id on a 2-dimensional space, zero products and right action:
    # mu(e_1 . m_0) = e_0 but e_1 * mu(m_0) = 0, first at (u, i) = (0, 1)
    n_alg = m_alg = abelian(2)
    left = sparse_tensor(2, 2, 2, {(1, 0, 0): 1})
    x = CrossedModule(AlgebraMorphism(m_alg, n_alg, MatrixQ.identity(2)), ActionData(n_alg, m_alg, left, zero_tensor3(2, 2, 2)))
    with mock.patch.multiple(xmodules, check_action=lambda act: None):
        bad = on_both_engines(check_crossed_module, x)
    assert bad == Violation("equivariance-left", (1, 0), (F(1), F(0)), (F(0), F(0)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sliced_join_equals_fraction_engine_where_many_tuples_fail(data):
    # random tensors fail at many tuples of either family or of both, and
    # a zero tensor lets an earlier family or identity pass
    d, v = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def maybe(*shape):
        return random_tensor(data, *shape) if data.draw(st.booleans()) else zero_tensor3(*shape)

    a = PreLieAlgebra(d, random_tensor(data, d, d, d))
    on_both_engines(check_representation, Representation(a, v, maybe(d, v, v), maybe(v, d, v)))
    t = tensor3(random_tensor(data, d, d, d), d, d, d)
    on_both_engines(check_lie, LieAlgebra(d, data.draw(st.sampled_from([t, minus_transposed(t, t)]))))
    m_alg, n_alg = PreLieAlgebra(v, maybe(v, v, v)), PreLieAlgebra(d, maybe(d, d, d))
    action = ActionData(n_alg, m_alg, maybe(d, v, v), maybe(v, d, v))
    x = CrossedModule(AlgebraMorphism(m_alg, n_alg, random_matrix(data, d, v)), action)
    # equivariance-right, equivariance-left (witness order (1, 0)) and the
    # Peiffer identities, past the checks that run before them
    with mock.patch.multiple(xmodules, check_prelie=lambda a: None, check_morphism=lambda f: None, check_action=lambda act: None):
        on_both_engines(check_crossed_module, x)


def test_fraction_engine_patches_every_module_that_binds_the_engine():
    names = {m.__name__ for m in engine_modules()}
    assert {"preliecoh.algebra", "preliecoh.functors", "preliecoh.xmodules"} <= names
    with fraction_engine():
        assert all(m._first_failure is fraction_first_failure for m in engine_modules())
    assert all(m._first_failure is algebra._first_failure for m in engine_modules())


# --- maps fed into the engine ------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_equals_bilinear_on_columns(data):
    d1, d2, d3, p, q = (data.draw(st.integers(0, 3)) for _ in range(5))
    t = tensor3(random_tensor(data, d1, d2, d3), d1, d2, d3)
    f, g = random_matrix(data, d1, p), random_matrix(data, d2, q)
    want = tuple(tuple(bilinear(t, col(f, i), col(g, j)) for j in range(q)) for i in range(p))
    assert dense(compose(t, f, g)) == want
    assert compose(t, f) == compose(t, f, MatrixQ.identity(d2))
    assert compose(t, g=g) == compose(t, MatrixQ.identity(d1), g)
    assert compose(t) == t
    h = random_matrix(data, data.draw(st.integers(0, 3)), d3)
    want = tuple(tuple(h.mul_vec(v) for v in plane) for plane in want)
    assert dense(compose(t, f, g, h)) == want
    assert compose(t, f, g, h) == compose(compose(t, f, g), h=h)
    assert compose(t, h=MatrixQ.identity(d3)) == t
    with pytest.raises(ShapeError):
        compose(t, MatrixQ.zero(d1 + 1, p))
    with pytest.raises(ShapeError):
        compose(t, h=MatrixQ.zero(1, d3 + 1))


def test_compose_reads_none_maps_as_explicit_identities_on_catalog_tensors(monkeypatch):
    tensors = [a.product for a in [*ALGEBRAS.values(), BAD_ALGEBRA]]
    tensors += [t for _, rep in representation_pairs() for t in (rep.left, rep.right)]
    tensors += [subadjacent_lie(a).bracket for a in ALGEBRAS.values()]
    explicit = [(t, *(MatrixQ.identity(d) for d in t.shape)) for t in tensors]
    # a None map is read as unit rows: compose builds no identity matrix
    monkeypatch.setattr(MatrixQ, "identity", None)
    for t, f, g, h in explicit:
        want = compose(t, f, g, h)
        assert compose(t) == want == t
        assert compose(t, f) == compose(t, g=g) == compose(t, h=h) == want
        assert compose(t, f, g) == compose(t, f, h=h) == compose(t, g=g, h=h) == want


def morphisms():
    """Morphisms of the catalog, and maps between the positive algebras."""
    out = []
    for doc in fixture_documents().values():
        p = doc.payload
        out.extend(getattr(p, name) for name in ("mu", "pi") if isinstance(getattr(p, name, None), AlgebraMorphism))
    for a in POSITIVE:
        out.append(AlgebraMorphism(a, a, MatrixQ.identity(a.dim)))
        out.append(AlgebraMorphism(a, lmult2(), MatrixQ.zero(2, a.dim)))
    out.append(AlgebraMorphism(lmult2(), lmult2(), MatrixQ.from_rows([[0, 1], [1, 0]])))
    return out


def test_morphism_checker_equals_dense_oracle_on_catalog():
    found = [on_both_engines(check_morphism, f) for f in morphisms()]
    assert found == [check_morphism_dense(f) for f in morphisms()]
    assert any(bad is not None for bad in found) and any(bad is None for bad in found)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(morphisms()), st.data())
def test_morphism_checker_equals_dense_oracle(base, data):
    source, target = base.source, base.target
    how = data.draw(st.sampled_from(["matrix", "source", "random"]))
    matrix = perturbed_matrix(data, base.matrix)
    if how == "source":
        source = PreLieAlgebra(source.dim, perturbed(data, source.product))
    elif how == "random":
        matrix = random_matrix(data, target.dim, source.dim)
    f = AlgebraMorphism(source, target, matrix)
    assert on_both_engines(check_morphism, f) == check_morphism_dense(f)


# --- ideals against the solving oracles ----------------------------------------
# The ideal test and the ideal's product as first written: one
# elimination per product of a basis vector with a generator.


def in_span_dense(sub, v):
    if not sub.vectors:
        return not any(v)
    return solve_particular(sub.as_column_matrix(), sparse_row(v)) is not None


def check_two_sided_ideal_dense(a, sub):
    for i in range(a.dim):
        for t, r in enumerate(sub.vectors):
            left = a.multiply(a.basis_vector(i), r)
            if not in_span_dense(sub, left):
                return Violation("ideal-left", (i, t), left, zero_vector(a.dim))
            right = a.multiply(r, a.basis_vector(i))
            if not in_span_dense(sub, right):
                return Violation("ideal-right", (t, i), right, zero_vector(a.dim))
    return None


def ideal_subalgebra_dense(a, sub):
    bad = check_two_sided_ideal_dense(a, sub)
    if bad is not None:
        raise NotAnIdeal(str(bad))
    incl = sub.as_column_matrix()
    prod = tuple(
        tuple(solve_particular(incl, sparse_row(a.multiply(sub.vectors[i], sub.vectors[j]))) for j in range(sub.dim))
        for i in range(sub.dim)
    )
    return PreLieAlgebra(sub.dim, prod), incl


def ideal_outcome(make, a, sub):
    try:
        return make(a, sub)
    except NotAnIdeal as exc:
        return str(exc)


def assert_ideal_matches_oracle(a, sub):
    """The algebra and inclusion, or the NotAnIdeal message, which
    carries the ideal test's first witness; returns the outcome."""
    got = ideal_outcome(ideal_subalgebra, a, sub)
    assert got == ideal_outcome(ideal_subalgebra_dense, a, sub)
    return got


def catalog_subspaces():
    """(algebra, subspace) pairs: the kernels and images of the catalog
    morphisms in their source and target, and every coordinate line."""
    out = []
    for doc in fixture_documents().values():
        for name in ("mu", "pi"):
            f = getattr(doc.payload, name, None)
            if isinstance(f, AlgebraMorphism):
                _, kernel, image = rank_kernel_image(f.matrix)
                out += [(f.source, kernel), (f.target, image)]
    for a in [*ALGEBRAS.values(), *POSITIVE]:
        out += [(a, SubspaceBasis.from_vectors(a.dim, (standard_basis_vector(a.dim, i),))) for i in range(a.dim)]
    return out


def test_ideals_equal_solving_oracle_on_catalog():
    found = [isinstance(assert_ideal_matches_oracle(a, sub), str) for a, sub in catalog_subspaces()]
    assert any(found) and not all(found)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ideals_equal_solving_oracle(data):
    # random generators, dependent ones included, in perturbed algebras
    a = data.draw(st.sampled_from([*ALGEBRAS.values(), *POSITIVE]))
    a = PreLieAlgebra(a.dim, perturbed(data, a.product))
    gens = random_matrix(data, a.dim, data.draw(st.integers(0, a.dim)))
    assert_ideal_matches_oracle(a, SubspaceBasis.from_vectors(a.dim, tuple(col(gens, j) for j in range(gens.cols))))
