"""Conversions between crossed-module flavors.

Each functor is exercised on small worked examples whose outputs are
known by hand, on inputs that fail the source axioms (InvalidInput),
and, for the two functors whose sources leave some compatibilities
unstated, on inputs that pass every encoded axiom yet convert to a
broken crossed module (OutputCheckFailed).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh.algebra import (
    AlgebraMorphism,
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    Violation,
    bilinear,
    sparse_tensor,
    subadjacent_lie,
)
from preliecoh.catalog import fixture_documents
from preliecoh.errors import InvalidInput, OutputCheckFailed, ShapeError
from preliecoh.functors import (
    DendriformAlgebra,
    DendriformCrossedModule,
    LieCrossedModule,
    RotaBaxterLieCrossedModule,
    check_dendriform,
    check_dendriform_xmod,
    check_lie_crossed_module,
    check_rb_lie_xmod,
    check_rota_baxter,
    dendriform_to_prelie_xmod,
    prelie_to_lie_xmod,
    rblie_to_prelie_xmod,
)
from preliecoh.linalg import MatrixQ, standard_basis_vector, vec_add, vec_sub, vector, zero_vector
from preliecoh.xmodules import CrossedModule, identity_xmod, trivial_module_xmod

from test_linalg import col
from test_algebra import (
    check_lie_dense,
    on_both_engines,
    perturbed,
    perturbed_matrix,
    random_matrix,
    random_tensor,
)

F = Fraction


def sparse_algebra(dim, entries):
    return PreLieAlgebra(dim, sparse_tensor(dim, dim, dim, entries))


IDEM1 = sparse_algebra(1, {(0, 0, 0): 1})
LMULT2 = sparse_algebra(2, {(0, 1, 1): 1})
AFFINE2 = sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1})

# [e1, e2] = e2
SOLV2 = LieAlgebra(2, sparse_tensor(2, 2, 2, {(0, 1, 1): 1, (1, 0, 1): -1}))


def zero_dendriform(dim):
    z = sparse_tensor(dim, dim, dim, {})
    return DendriformAlgebra(dim, z, z)


# --- pre-Lie crossed module -> Lie crossed module ----------------------------


def test_prelie_to_lie_on_abelian_identity():
    out = prelie_to_lie_xmod(identity_xmod(PreLieAlgebra.zero_product(2)))
    assert out.mu == MatrixQ.identity(2)
    for i, j in itertools.product(range(2), repeat=2):
        assert out.n.basis_bracket(i, j) == zero_vector(2)
        assert out.action.vector(i, j) == zero_vector(2)


def test_prelie_to_lie_on_lmult2_identity():
    out = prelie_to_lie_xmod(identity_xmod(LMULT2))
    assert out.n.basis_bracket(0, 1) == vector([0, 1])
    assert out.n.basis_bracket(1, 0) == vector([0, -1])
    assert out.m.bracket == out.n.bracket
    # e1 |> e2 = e1.e2 - e2.e1 = e2, e2 |> e1 = -e2, diagonals vanish
    assert out.action.vector(0, 1) == vector([0, 1])
    assert out.action.vector(1, 0) == vector([0, -1])
    assert out.action.vector(0, 0) == zero_vector(2)
    assert out.action.vector(1, 1) == zero_vector(2)


def test_prelie_to_lie_on_trivial_module():
    rep = Representation.regular(AFFINE2)
    out = prelie_to_lie_xmod(trivial_module_xmod(rep))
    assert out.mu.is_zero()
    for i, u in itertools.product(range(2), repeat=2):
        expect = tuple(
            a - b for a, b in zip(rep.left.vector(i, u), rep.right.vector(u, i))
        )
        assert out.action.vector(i, u) == expect


def test_prelie_to_lie_across_catalog():
    for g in (PreLieAlgebra.zero_product(3), IDEM1, LMULT2, AFFINE2):
        out = prelie_to_lie_xmod(identity_xmod(g))
        assert out.n.bracket == subadjacent_lie(g).bracket
        assert check_lie_crossed_module(out) is None


def test_prelie_to_lie_rejects_broken_input():
    base = identity_xmod(LMULT2)
    broken = CrossedModule(
        AlgebraMorphism(LMULT2, LMULT2, MatrixQ.zero(2, 2)), base.action
    )
    with pytest.raises(InvalidInput, match="peiffer-left"):
        prelie_to_lie_xmod(broken)


def test_lie_xmod_checker_flags_dropped_action():
    good = prelie_to_lie_xmod(identity_xmod(LMULT2))
    zeroed = LieCrossedModule(
        good.m, good.n, good.mu, sparse_tensor(2, 2, 2, {})
    )
    bad = check_lie_crossed_module(zeroed)
    assert bad is not None
    assert bad.axiom == "lie-equivariance"
    assert bad.indices == (0, 1)


def test_lie_xmod_shape_guard():
    with pytest.raises(ShapeError):
        LieCrossedModule(SOLV2, SOLV2, MatrixQ.zero(1, 2), sparse_tensor(2, 2, 2, {}))


# --- Rota-Baxter Lie crossed module -> pre-Lie crossed module -----------------


def rb_solv2(t_matrix):
    return RotaBaxterLieCrossedModule(
        m=SOLV2,
        n=SOLV2,
        t_m=t_matrix,
        t_n=t_matrix,
        mu=MatrixQ.identity(2),
        rho=SOLV2.bracket,
    )


def test_rb_zero_operator_gives_zero_products():
    out = rblie_to_prelie_xmod(rb_solv2(MatrixQ.zero(2, 2)))
    assert out.m_algebra.product == PreLieAlgebra.zero_product(2).product
    assert out.n_algebra.product == PreLieAlgebra.zero_product(2).product
    for i, u in itertools.product(range(2), repeat=2):
        assert out.action.left.vector(i, u) == zero_vector(2)
        assert out.action.right.vector(u, i) == zero_vector(2)


def test_rb_abelian_arbitrary_operator():
    abelian = LieAlgebra(2, sparse_tensor(2, 2, 2, {}))
    x = RotaBaxterLieCrossedModule(
        m=abelian,
        n=abelian,
        t_m=MatrixQ.from_rows([[1, 2], [0, 3]]),
        t_n=MatrixQ.from_rows([[1, 2], [0, 3]]),
        mu=MatrixQ.identity(2),
        rho=sparse_tensor(2, 2, 2, {}),
    )
    out = rblie_to_prelie_xmod(x)
    assert out.m_algebra.product == PreLieAlgebra.zero_product(2).product
    assert out.n_algebra.product == PreLieAlgebra.zero_product(2).product


def test_rb_projection_recovers_left_multiplication_algebra():
    # T = projection onto e1, rho = ad: the output is the identity
    # crossed module on the algebra with e1.e2 = e2.
    out = rblie_to_prelie_xmod(rb_solv2(MatrixQ.from_rows([[1, 0], [0, 0]])))
    expect = identity_xmod(LMULT2)
    assert out.n_algebra.product == LMULT2.product
    assert out.m_algebra.product == LMULT2.product
    assert out.mu.matrix == MatrixQ.identity(2)
    assert out.action.left == expect.action.left
    assert out.action.right == expect.action.right


def test_rb_identity_operator_fails_rb_axiom():
    bad = check_rb_lie_xmod(rb_solv2(MatrixQ.identity(2)))
    assert bad is not None
    assert bad.axiom == "rota-baxter-m"
    with pytest.raises(InvalidInput, match="rota-baxter"):
        rblie_to_prelie_xmod(rb_solv2(MatrixQ.identity(2)))


def test_rb_mismatched_operators_rejected():
    abelian = LieAlgebra(2, sparse_tensor(2, 2, 2, {}))
    x = RotaBaxterLieCrossedModule(
        m=abelian,
        n=abelian,
        t_m=MatrixQ.zero(2, 2),
        t_n=MatrixQ.identity(2),
        mu=MatrixQ.identity(2),
        rho=sparse_tensor(2, 2, 2, {}),
    )
    bad = check_rb_lie_xmod(x)
    assert bad is not None and bad.axiom == "t-intertwined"


def test_rb_peiffer_failure_detected():
    # mu = 0 with rho = 0 satisfies equivariance but not the Peiffer
    # identity on a nonabelian module.
    x = RotaBaxterLieCrossedModule(
        m=SOLV2,
        n=SOLV2,
        t_m=MatrixQ.zero(2, 2),
        t_n=MatrixQ.zero(2, 2),
        mu=MatrixQ.zero(2, 2),
        rho=sparse_tensor(2, 2, 2, {}),
    )
    bad = check_rb_lie_xmod(x)
    assert bad is not None and bad.axiom == "lie-peiffer"
    assert bad.indices == (0, 1)


def test_rb_output_certification_catches_incompatible_rho():
    # All encoded axioms hold (abelian algebras, mu = 0), but rho and
    # the operators interact badly: the converted module violates the
    # mixed representation identity.
    m = LieAlgebra(2, sparse_tensor(2, 2, 2, {}))
    n = LieAlgebra(1, sparse_tensor(1, 1, 1, {}))
    x = RotaBaxterLieCrossedModule(
        m=m,
        n=n,
        t_m=MatrixQ.from_rows([[0, 1], [0, 0]]),
        t_n=MatrixQ.identity(1),
        mu=MatrixQ.zero(1, 2),
        rho=sparse_tensor(1, 2, 2, {(0, 0, 0): 1}),
    )
    assert check_rb_lie_xmod(x) is None
    with pytest.raises(OutputCheckFailed, match="mixed-identity"):
        rblie_to_prelie_xmod(x)


# --- dendriform crossed module -> pre-Lie crossed module ----------------------


def identity_dendriform_xmod(a):
    mixed = a.succ
    mixed_prec = a.prec
    return DendriformCrossedModule(
        m=a,
        n=a,
        mu=MatrixQ.identity(a.dim),
        succ_nm=mixed,
        prec_mn=mixed_prec,
        succ_mn=mixed,
        prec_nm=mixed_prec,
    )


def test_dendriform_zero_products_convert_to_zero():
    out = dendriform_to_prelie_xmod(identity_dendriform_xmod(zero_dendriform(2)))
    assert out.n_algebra.product == PreLieAlgebra.zero_product(2).product
    assert out.m_algebra.product == PreLieAlgebra.zero_product(2).product


def test_dendriform_one_dim_idempotent():
    a = DendriformAlgebra(
        1, sparse_tensor(1, 1, 1, {(0, 0, 0): 1}), sparse_tensor(1, 1, 1, {})
    )
    out = dendriform_to_prelie_xmod(identity_dendriform_xmod(a))
    expect = identity_xmod(IDEM1)
    assert out.n_algebra.product == IDEM1.product
    assert out.m_algebra.product == IDEM1.product
    assert out.action.left == expect.action.left
    assert out.action.right == expect.action.right


def test_dendriform_nilpotent_ideal_fixture():
    # e1 > e1 = e2 on the base, module = the ideal spanned by e2 with
    # zero products and zero mixed actions.
    n = DendriformAlgebra(
        2, sparse_tensor(2, 2, 2, {(0, 0, 1): 1}), sparse_tensor(2, 2, 2, {})
    )
    m = zero_dendriform(1)
    x = DendriformCrossedModule(
        m=m,
        n=n,
        mu=MatrixQ.from_rows([[0], [1]]),
        succ_nm=sparse_tensor(2, 1, 1, {}),
        prec_mn=sparse_tensor(1, 2, 1, {}),
        succ_mn=sparse_tensor(1, 2, 1, {}),
        prec_nm=sparse_tensor(2, 1, 1, {}),
    )
    out = dendriform_to_prelie_xmod(x)
    assert out.n_algebra.basis_product(0, 0) == vector([0, 1])
    total = sum(
        1
        for i, j in itertools.product(range(2), repeat=2)
        if out.n_algebra.basis_product(i, j) != zero_vector(2)
    )
    assert total == 1
    assert out.m_algebra.product == PreLieAlgebra.zero_product(1).product


def test_dendriform_axiom_violation_rejected():
    # e1 > e2 = e2 alone breaks x>(y>z) = (x<y + x>y)>z at (e1,e1,e2).
    bad_table = DendriformAlgebra(
        2, sparse_tensor(2, 2, 2, {(0, 1, 1): 1}), sparse_tensor(2, 2, 2, {})
    )
    bad = check_dendriform(bad_table)
    assert bad is not None
    assert bad.axiom == "dendriform-3"
    assert bad.indices == (0, 0, 1)
    with pytest.raises(InvalidInput, match="dendriform-3"):
        dendriform_to_prelie_xmod(identity_dendriform_xmod(bad_table))


def test_dendriform_mu_must_preserve_products():
    a = DendriformAlgebra(
        1, sparse_tensor(1, 1, 1, {(0, 0, 0): 1}), sparse_tensor(1, 1, 1, {})
    )
    x = identity_dendriform_xmod(a)
    # doubling is not multiplicative on an idempotent
    broken = DendriformCrossedModule(
        m=a,
        n=a,
        mu=MatrixQ.from_rows([[2]]),
        succ_nm=x.succ_nm,
        prec_mn=x.prec_mn,
        succ_mn=x.succ_mn,
        prec_nm=x.prec_nm,
    )
    bad = check_dendriform_xmod(broken)
    assert bad is not None and bad.axiom == "mu-preserves-succ"


def test_dendriform_output_certification_catches_bad_actions():
    # Both algebras and mu are fine (everything zero), but the mixed
    # tensors are incompatible: conversion fails the output check.
    n = zero_dendriform(1)
    m = zero_dendriform(2)
    x = DendriformCrossedModule(
        m=m,
        n=n,
        mu=MatrixQ.zero(1, 2),
        succ_nm=sparse_tensor(1, 2, 2, {(0, 0, 0): 1}),
        prec_mn=sparse_tensor(2, 1, 2, {}),
        succ_mn=sparse_tensor(2, 1, 2, {(1, 0, 0): 1}),
        prec_nm=sparse_tensor(1, 2, 2, {}),
    )
    assert check_dendriform_xmod(x) is None
    with pytest.raises(OutputCheckFailed, match="mixed-identity"):
        dendriform_to_prelie_xmod(x)


# --- dense oracles for the sparse checkers ---------------------------------
# The checkers as first written: every identity is evaluated with
# `bilinear` on standard basis vectors, zeros included.


def check_lie_crossed_module_dense(x):
    for lie in (x.m, x.n):
        bad = check_lie_dense(lie)
        if bad is not None:
            return bad
    m, n = x.m, x.n
    for u, v in itertools.product(range(m.dim), repeat=2):
        lhs = x.mu.mul_vec(m.basis_bracket(u, v))
        rhs = bilinear(n.bracket, col(x.mu, u), col(x.mu, v))
        if lhs != rhs:
            return Violation("lie-morphism", (u, v), lhs, rhs)
    for i, j, u in itertools.product(range(n.dim), range(n.dim), range(m.dim)):
        lhs = bilinear(x.action, n.basis_bracket(i, j), m.basis_vector(u))
        rhs = vec_sub(
            bilinear(x.action, n.basis_vector(i), x.action.vector(j, u)),
            bilinear(x.action, n.basis_vector(j), x.action.vector(i, u)),
        )
        if lhs != rhs:
            return Violation("lie-action", (i, j, u), lhs, rhs)
    for i, u, v in itertools.product(range(n.dim), range(m.dim), range(m.dim)):
        lhs = bilinear(x.action, n.basis_vector(i), m.basis_bracket(u, v))
        rhs = vec_add(
            bilinear(m.bracket, x.action.vector(i, u), m.basis_vector(v)),
            bilinear(m.bracket, m.basis_vector(u), x.action.vector(i, v)),
        )
        if lhs != rhs:
            return Violation("derivation", (i, u, v), lhs, rhs)
    for i, u in itertools.product(range(n.dim), range(m.dim)):
        lhs = x.mu.mul_vec(x.action.vector(i, u))
        rhs = bilinear(n.bracket, n.basis_vector(i), col(x.mu, u))
        if lhs != rhs:
            return Violation("lie-equivariance", (i, u), lhs, rhs)
    for u, v in itertools.product(range(m.dim), repeat=2):
        lhs = bilinear(x.action, col(x.mu, u), m.basis_vector(v))
        rhs = m.basis_bracket(u, v)
        if lhs != rhs:
            return Violation("lie-peiffer", (u, v), lhs, rhs)
    return None


def check_dendriform_dense(a):
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        ei, ej, ek = (standard_basis_vector(a.dim, t) for t in (i, j, k))
        lhs = bilinear(a.prec, bilinear(a.prec, ei, ej), ek)
        rhs = bilinear(a.prec, ei, vec_add(bilinear(a.prec, ej, ek), bilinear(a.succ, ej, ek)))
        if lhs != rhs:
            return Violation("dendriform-1", (i, j, k), lhs, rhs)
        lhs = bilinear(a.prec, bilinear(a.succ, ei, ej), ek)
        rhs = bilinear(a.succ, ei, bilinear(a.prec, ej, ek))
        if lhs != rhs:
            return Violation("dendriform-2", (i, j, k), lhs, rhs)
        lhs = bilinear(a.succ, ei, bilinear(a.succ, ej, ek))
        rhs = bilinear(a.succ, vec_add(bilinear(a.prec, ei, ej), bilinear(a.succ, ei, ej)), ek)
        if lhs != rhs:
            return Violation("dendriform-3", (i, j, k), lhs, rhs)
    return None


def check_rota_baxter_dense(lie, t):
    for i, j in itertools.product(range(lie.dim), repeat=2):
        lhs = bilinear(lie.bracket, col(t, i), col(t, j))
        inner = vec_add(
            bilinear(lie.bracket, col(t, i), lie.basis_vector(j)),
            bilinear(lie.bracket, lie.basis_vector(i), col(t, j)),
        )
        rhs = t.mul_vec(inner)
        if lhs != rhs:
            return Violation("rota-baxter", (i, j), lhs, rhs)
    return None


def check_dendriform_xmod_dense(x):
    for a in (x.m, x.n):
        bad = check_dendriform_dense(a)
        if bad is not None:
            return bad
    for u, v in itertools.product(range(x.m.dim), repeat=2):
        lhs = x.mu.mul_vec(x.m.succ.vector(u, v))
        rhs = bilinear(x.n.succ, col(x.mu, u), col(x.mu, v))
        if lhs != rhs:
            return Violation("mu-preserves-succ", (u, v), lhs, rhs)
        lhs = x.mu.mul_vec(x.m.prec.vector(u, v))
        rhs = bilinear(x.n.prec, col(x.mu, u), col(x.mu, v))
        if lhs != rhs:
            return Violation("mu-preserves-prec", (u, v), lhs, rhs)
    return None


# --- sparse checkers against the dense oracles ------------------------------

# dendriform algebras that pass: zero, e1 > e1 = e1, e1 > e1 = e2
DENDRIFORMS = [
    zero_dendriform(1),
    zero_dendriform(2),
    DendriformAlgebra(1, sparse_tensor(1, 1, 1, {(0, 0, 0): 1}), sparse_tensor(1, 1, 1, {})),
    DendriformAlgebra(2, sparse_tensor(2, 2, 2, {(0, 0, 1): 1}), sparse_tensor(2, 2, 2, {})),
]


def lie_xmods():
    """Lie crossed modules that pass: converted catalog crossed modules."""
    out = []
    for g in (PreLieAlgebra.zero_product(2), IDEM1, LMULT2, AFFINE2):
        out.append(prelie_to_lie_xmod(identity_xmod(g)))
        out.append(prelie_to_lie_xmod(trivial_module_xmod(Representation.regular(g))))
    return out


def test_sparse_functor_checkers_equal_dense_oracles_on_catalog():
    xmods = lie_xmods()
    dendriforms = list(DENDRIFORMS)
    for doc in fixture_documents().values():
        p = doc.payload
        if isinstance(p, LieCrossedModule):
            xmods.append(p)
        elif isinstance(p, RotaBaxterLieCrossedModule):
            xmods.append(p.lie_crossed_module())
        elif isinstance(p, DendriformCrossedModule):
            dendriforms.extend((p.m, p.n))
    for x in xmods:
        assert check_lie_crossed_module(x) == check_lie_crossed_module_dense(x)
    for a in dendriforms:
        assert check_dendriform(a) == check_dendriform_dense(a)
    assert any(check_dendriform(a) is not None for a in dendriforms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_dendriform_checker_equals_dense_oracle(data):
    if data.draw(st.booleans()):
        base = data.draw(st.sampled_from(DENDRIFORMS))
        d, succ, prec = base.dim, perturbed(data, base.succ), perturbed(data, base.prec)
    else:
        d = data.draw(st.integers(1, 3))
        succ, prec = random_tensor(data, d, d, d), random_tensor(data, d, d, d)
    a = DendriformAlgebra(d, succ, prec)
    assert check_dendriform(a) == check_dendriform_dense(a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(lie_xmods()), st.data())
def test_sparse_lie_xmod_checker_equals_dense_oracle(base, data):
    m, n = base.m.dim, base.n.dim
    how = data.draw(st.sampled_from(["action", "bracket", "mu", "random"]))
    mu, m_lie, action = base.mu, base.m, perturbed(data, base.action)
    if how == "bracket":
        m_lie = LieAlgebra(m, perturbed(data, base.m.bracket))
    elif how == "mu":
        mu = perturbed_matrix(data, mu)
    elif how == "random":
        # mu = 0 passes the morphism identity, so the action laws are reached
        mu, action = MatrixQ.zero(n, m), random_tensor(data, n, m, m)
    x = LieCrossedModule(m_lie, base.n, mu, action)
    assert on_both_engines(check_lie_crossed_module, x) == check_lie_crossed_module_dense(x)


def rota_baxter_pairs():
    """(Lie algebra, operator) pairs of the catalog and of rb_solv2."""
    out = []
    for doc in fixture_documents().values():
        p = doc.payload
        if isinstance(p, RotaBaxterLieCrossedModule):
            out += [(p.m, p.t_m), (p.n, p.t_n)]
    for t in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [0, 0]]):
        out.append((SOLV2, MatrixQ.from_rows(t)))
    return out


def test_rota_baxter_checker_equals_dense_oracle_on_catalog():
    found = [on_both_engines(check_rota_baxter, lie, t) for lie, t in rota_baxter_pairs()]
    assert found == [check_rota_baxter_dense(lie, t) for lie, t in rota_baxter_pairs()]
    assert any(bad is not None for bad in found) and any(bad is None for bad in found)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(rota_baxter_pairs()), st.data())
def test_rota_baxter_checker_equals_dense_oracle(base, data):
    lie, t = base
    how = data.draw(st.sampled_from(["operator", "bracket", "random"]))
    if how == "bracket":
        lie = LieAlgebra(lie.dim, perturbed(data, lie.bracket))
    elif how == "random":
        t = random_matrix(data, lie.dim, lie.dim)
    t = perturbed_matrix(data, t)
    assert on_both_engines(check_rota_baxter, lie, t) == check_rota_baxter_dense(lie, t)


def dendriform_xmods():
    out = [identity_dendriform_xmod(a) for a in DENDRIFORMS]
    out += [doc.payload for doc in fixture_documents().values() if isinstance(doc.payload, DendriformCrossedModule)]
    return out


def test_dendriform_xmod_checker_equals_dense_oracle_on_catalog():
    for x in dendriform_xmods():
        assert on_both_engines(check_dendriform_xmod, x) == check_dendriform_xmod_dense(x)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(dendriform_xmods()), st.data())
def test_dendriform_xmod_checker_equals_dense_oracle(base, data):
    m, n, mu = base.m, base.n, base.mu
    how = data.draw(st.sampled_from(["mu", "m", "n"]))
    if how == "mu":
        mu = perturbed_matrix(data, mu)
    elif how == "m":
        m = DendriformAlgebra(m.dim, perturbed(data, m.succ), perturbed(data, m.prec))
    else:
        n = DendriformAlgebra(n.dim, perturbed(data, n.succ), perturbed(data, n.prec))
    x = DendriformCrossedModule(m, n, mu, base.succ_nm, base.prec_mn, base.succ_mn, base.prec_nm)
    assert on_both_engines(check_dendriform_xmod, x) == check_dendriform_xmod_dense(x)
