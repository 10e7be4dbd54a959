"""Crossed modules, extensions, and the extension-to-cocycle map.

The three stock crossed modules (identity on an algebra, ideal
inclusion, module over the zero map) are checked against the axioms;
extensions built by hand are fed through the cocycle realization and
its section-independence properties.
"""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh.algebra import (
    ActionData,
    AlgebraMorphism,
    PreLieAlgebra,
    Representation,
    Violation,
    check_representation,
    sparse_tensor,
)
from preliecoh import xmodules
from preliecoh.catalog import equivalence_witnesses, extensions, fixture_documents
from preliecoh.cochain import Cochain, CochainBasis, coboundary, cohomology
from preliecoh.errors import (
    InvalidExtension,
    NotACocycle,
    NotAnIdeal,
    ShapeError,
)
from preliecoh.linalg import MatrixQ, SubspaceBasis, vector, zero_vector
from preliecoh.xmodules import (
    AbelianExtension,
    CrossedModule,
    CrossedModuleExtension,
    EquivalenceWitness,
    abelian_extension_from_2cocycle,
    canonical_extension,
    check_crossed_module,
    check_equivalence_witness,
    check_extension,
    double_extension,
    ideal_inclusion_xmod,
    identity_xmod,
    induced_representation,
    kernel_xmod,
    random_mu_section,
    random_pi_section,
    semidirect_product,
    t_map,
    trivial_extension,
    trivial_module_xmod,
)

from test_algebra import (
    check_action_dense,
    check_morphism_dense,
    check_prelie_dense,
    on_both_engines,
    perturbed,
    perturbed_matrix,
)

F = Fraction


def sparse_algebra(dim, entries):
    prod = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in entries.items():
        prod[i][j][k] = F(c)
    return PreLieAlgebra(dim, tuple(tuple(tuple(r) for r in p) for p in prod))


IDEM1 = sparse_algebra(1, {(0, 0, 0): 1})
LMULT2 = sparse_algebra(2, {(0, 1, 1): 1})
AFFINE2 = sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1})

EXTENSIONS = [
    trivial_extension(Representation.trivial(LMULT2, 1)),
    trivial_extension(Representation.regular(LMULT2)),
    trivial_extension(Representation.trivial(AFFINE2, 2)),
    double_extension(Representation.trivial(LMULT2, 1)),
    double_extension(Representation.regular(LMULT2)),
    double_extension(Representation.regular(IDEM1)),
]


# --- the three stock crossed modules ----------------------------------------


def test_identity_crossed_module():
    for a in (IDEM1, LMULT2, AFFINE2):
        assert check_crossed_module(identity_xmod(a)) is None


def test_ideal_inclusion_crossed_module():
    sub = SubspaceBasis(2, (vector([0, 1]),))
    x = ideal_inclusion_xmod(LMULT2, sub)
    assert check_crossed_module(x) is None
    assert x.m_algebra.dim == 1
    with pytest.raises(NotAnIdeal):
        ideal_inclusion_xmod(LMULT2, SubspaceBasis(2, (vector([1, 0]),)))


def test_kernel_crossed_module():
    f = AlgebraMorphism(AFFINE2, IDEM1, MatrixQ.from_rows([[1, 0]]))
    x = kernel_xmod(f)
    assert check_crossed_module(x) is None
    assert x.m_algebra.dim == 1
    assert x.mu.matrix == MatrixQ.from_rows([[0], [1]])


def test_trivial_module_crossed_module():
    for rep in (
        Representation.trivial(LMULT2, 2),
        Representation.regular(LMULT2),
        Representation.regular(AFFINE2),
    ):
        x = trivial_module_xmod(rep)
        assert check_crossed_module(x) is None
        assert x.mu.matrix.is_zero()


def test_crossed_module_negative_perturbed_action():
    base = identity_xmod(LMULT2)
    left = {(i, u, k): c for i, u, k, c in base.action.left.entries()}
    left[1, 0, 0] = left.get((1, 0, 0), 0) + F(1)
    act = ActionData(LMULT2, LMULT2, sparse_tensor(2, 2, 2, left), base.action.right)
    bad = check_crossed_module(CrossedModule(base.mu, act))
    assert bad is not None


def test_crossed_module_negative_perturbed_mu():
    base = identity_xmod(LMULT2)
    mu = AlgebraMorphism(LMULT2, LMULT2, MatrixQ.from_rows([[1, 1], [0, 1]]))
    bad = check_crossed_module(CrossedModule(mu, base.action))
    assert bad is not None
    assert bad.axiom in (
        "morphism",
        "equivariance-left",
        "equivariance-right",
        "peiffer-left",
        "peiffer-right",
    )


# --- extensions --------------------------------------------------------------


def test_stock_extensions_pass():
    for e in EXTENSIONS:
        assert check_extension(e) is None


def test_extension_negative_zero_pi():
    e = trivial_extension(Representation.trivial(LMULT2, 1))
    bad_pi = AlgebraMorphism(e.n_algebra, e.g_algebra, MatrixQ.zero(2, 2))
    broken = CrossedModuleExtension(e.v_rep, e.i, e.mu, bad_pi, e.action)
    bad = check_extension(broken)
    assert bad is not None
    assert bad.axiom == "pi-surjective"


def test_extension_negative_wrong_module():
    e = double_extension(Representation.trivial(LMULT2, 1))
    wrong = Representation(
        e.v_rep.algebra,
        1,
        (((F(1),),), ((F(0),),)),
        (((F(0),), (F(0),)),),
    )
    broken = CrossedModuleExtension(wrong, e.i, e.mu, e.pi, e.action)
    bad = check_extension(broken)
    assert bad is not None
    assert bad.axiom == "induced-representation"


def test_canonical_extension_of_trivial_module_xmod():
    rep = Representation.regular(LMULT2)
    e = canonical_extension(trivial_module_xmod(rep))
    assert check_extension(e) is None
    assert e.v_dim == 2
    assert e.g_algebra.dim == 2
    # the recovered module is the one we started from
    assert e.v_rep.left == rep.left
    assert e.v_rep.right == rep.right


def test_canonical_extension_of_kernel_xmod():
    f = AlgebraMorphism(AFFINE2, IDEM1, MatrixQ.from_rows([[1, 0]]))
    e = canonical_extension(kernel_xmod(f))
    assert check_extension(e) is None
    assert e.v_dim == 0
    assert e.g_algebra.dim == 1


def test_canonical_extension_degenerate_identity():
    e = canonical_extension(identity_xmod(LMULT2))
    assert check_extension(e) is None
    assert e.v_dim == 0
    assert e.g_algebra.dim == 0
    res = t_map(e)
    assert res.class_coordinates == ()


def test_induced_representation_section_independent():
    rng = random.Random(21)
    for e in EXTENSIONS:
        base = induced_representation(e)
        assert check_representation(base) is None
        for _ in range(10):
            rho = random_pi_section(e, rng)
            again = induced_representation(e, rho)
            assert again.left == base.left
            assert again.right == base.right


def test_induced_representation_rejects_non_section():
    e = double_extension(Representation.trivial(LMULT2, 1))
    with pytest.raises(InvalidExtension):
        induced_representation(e, MatrixQ.zero(e.n_algebra.dim, e.g_algebra.dim))


# --- the cocycle realization --------------------------------------------------


def test_t_map_trivial_and_double_give_zero_class():
    for e in EXTENSIONS:
        res = t_map(e)
        assert res.is_trivial_class
        # external re-checks of the invariants the run asserts internally
        for val in res.theta_m:
            assert e.mu.apply(val) == zero_vector(e.n_algebra.dim)
        assert coboundary(e.v_rep, res.theta).is_zero()


def test_t_map_random_sections_cohomologous():
    rng = random.Random(22)
    for e in EXTENSIONS[:3] + EXTENSIONS[3:4]:
        h3 = cohomology(e.v_rep, 3)
        base = t_map(e, h3=h3)
        for _ in range(6):
            rho = random_pi_section(e, rng)
            sigma = random_mu_section(e, rng)
            res = t_map(e, rho=rho, sigma=sigma, h3=h3)
            assert res.class_coordinates == base.class_coordinates


def test_t_map_rejects_bad_sections():
    e = double_extension(Representation.trivial(LMULT2, 1))
    with pytest.raises(InvalidExtension):
        t_map(e, rho=MatrixQ.zero(e.n_algebra.dim, e.g_algebra.dim))
    with pytest.raises(InvalidExtension):
        t_map(e, sigma=MatrixQ.zero(e.m_algebra.dim, e.n_algebra.dim))


# --- equivalences -------------------------------------------------------------


def test_identity_witness():
    e = double_extension(Representation.regular(LMULT2))
    w = EquivalenceWitness(e, e, MatrixQ.identity(e.m_algebra.dim), MatrixQ.identity(e.n_algebra.dim))
    assert check_equivalence_witness(w) is None


def test_embedding_witness_trivial_into_double():
    rep = Representation.regular(LMULT2)
    src = trivial_extension(rep)
    dst = double_extension(rep)
    w = EquivalenceWitness(src, dst, dst.i, dst.pi.matrix.transpose())
    assert check_equivalence_witness(w) is None
    # connected extensions carry the same class
    assert t_map(src).class_coordinates == t_map(dst).class_coordinates


def test_witness_negative_swapped_copies():
    rep = Representation.trivial(LMULT2, 1)
    src = trivial_extension(rep)
    dst = double_extension(rep)
    swapped = MatrixQ.from_rows([[F(1)], [F(0)]])  # lands in the first copy
    w = EquivalenceWitness(src, dst, swapped, dst.pi.matrix.transpose())
    bad = check_equivalence_witness(w)
    assert bad is not None
    assert bad.axiom == "square-i"


def test_witness_negative_different_modules():
    w = EquivalenceWitness(
        trivial_extension(Representation.trivial(LMULT2, 1)),
        trivial_extension(Representation.regular(LMULT2)),
        MatrixQ.zero(2, 1),
        MatrixQ.identity(2),
    )
    bad = check_equivalence_witness(w)
    assert bad is not None
    assert bad.axiom == "same-module"


# --- degree-2 cross-check ------------------------------------------------------


def test_semidirect_product_is_prelie():
    from preliecoh.algebra import check_prelie

    for rep in (Representation.trivial(LMULT2, 2), Representation.regular(AFFINE2)):
        assert check_prelie(semidirect_product(rep)) is None


def test_abelian_extension_from_closed_2cochain():
    rep = Representation.trivial(PreLieAlgebra.zero_product(2), 1)
    h2 = cohomology(rep, 2)
    omega = h2.representatives[0]
    ext = abelian_extension_from_2cocycle(rep, omega)
    assert ext.algebra.dim == 3
    assert ext.project_g @ ext.include_v == MatrixQ.zero(2, 1)


def test_abelian_extension_rejects_non_cocycle():
    rep = Representation.regular(LMULT2)
    rng = random.Random(23)
    basis = CochainBasis(2, 2)
    found = None
    for _ in range(20):
        vals = tuple(
            tuple(F(rng.randint(-3, 3)) for _ in range(2)) for _ in range(len(basis))
        )
        cand = Cochain(2, 2, 2, vals)
        if not coboundary(rep, cand).is_zero():
            found = cand
            break
    assert found is not None
    with pytest.raises(NotACocycle):
        abelian_extension_from_2cocycle(rep, found)


# --- dense oracles for the engine checkers ----------------------------------
# The checks as first written: every identity is evaluated on every basis
# tuple, through MatrixQ.col and mul_vec and bilinear products.


def check_crossed_module_dense(x):
    for a in (x.m_algebra, x.n_algebra):
        bad = check_prelie_dense(a)
        if bad is not None:
            return bad
    bad = check_morphism_dense(x.mu)
    if bad is not None:
        return bad
    bad = check_action_dense(x.action)
    if bad is not None:
        return bad
    m, n = x.m_algebra, x.n_algebra
    mu = x.mu
    act = x.action
    for u, i in itertools.product(range(m.dim), range(n.dim)):
        lhs = mu.apply(act.right.vector(u, i))
        rhs = n.multiply(mu.matrix.col(u), n.basis_vector(i))
        if lhs != rhs:
            return Violation("equivariance-right", (u, i), lhs, rhs)
        lhs = mu.apply(act.left.vector(i, u))
        rhs = n.multiply(n.basis_vector(i), mu.matrix.col(u))
        if lhs != rhs:
            return Violation("equivariance-left", (i, u), lhs, rhs)
    for u, v in itertools.product(range(m.dim), repeat=2):
        prod = m.basis_product(u, v)
        lhs = act.act_left(mu.matrix.col(u), m.basis_vector(v))
        if lhs != prod:
            return Violation("peiffer-left", (u, v), lhs, prod)
        lhs = act.act_right(m.basis_vector(u), mu.matrix.col(v))
        if lhs != prod:
            return Violation("peiffer-right", (u, v), lhs, prod)
    return None


def i_image_central_dense(e):
    """The i-image-central step of check_extension."""
    for u, w in itertools.product(range(e.v_dim), repeat=2):
        p = e.m_algebra.multiply(e.i.col(u), e.i.col(w))
        if any(p):
            return Violation("i-image-central", (u, w), p, zero_vector(e.m_algebra.dim))
    return None


def check_equivalence_witness_dense(w):
    if w.src.v_rep != w.dst.v_rep:
        return Violation("same-module", (), (), ())
    bad = check_morphism_dense(AlgebraMorphism(w.src.m_algebra, w.dst.m_algebra, w.r))
    if bad is not None:
        return Violation("r-morphism", bad.indices, bad.lhs, bad.rhs)
    bad = check_morphism_dense(AlgebraMorphism(w.src.n_algebra, w.dst.n_algebra, w.s))
    if bad is not None:
        return Violation("s-morphism", bad.indices, bad.lhs, bad.rhs)
    if w.r @ w.src.i != w.dst.i:
        return Violation("square-i", (), (), ())
    if w.dst.mu.matrix @ w.r != w.s @ w.src.mu.matrix:
        return Violation("square-mu", (), (), ())
    if w.dst.pi.matrix @ w.s != w.src.pi.matrix:
        return Violation("square-pi", (), (), ())
    for a in range(w.src.n_algebra.dim):
        for u in range(w.src.m_algebra.dim):
            lhs = w.r.mul_vec(w.src.action.left.vector(a, u))
            rhs = w.dst.action.act_left(w.s.col(a), w.r.col(u))
            if lhs != rhs:
                return Violation("action-left-respected", (a, u), lhs, rhs)
            lhs = w.r.mul_vec(w.src.action.right.vector(u, a))
            rhs = w.dst.action.act_right(w.r.col(u), w.s.col(a))
            if lhs != rhs:
                return Violation("action-right-respected", (u, a), lhs, rhs)
    return None


# --- engine checkers against the dense oracles ------------------------------


def all_extensions():
    return [*EXTENSIONS, *extensions().values()] + [
        doc.payload for doc in fixture_documents().values() if isinstance(doc.payload, CrossedModuleExtension)
    ]


def crossed_modules():
    """Crossed modules of the catalog and of the stock constructions."""
    out = [e.crossed_module() for e in all_extensions()]
    out += [doc.payload for doc in fixture_documents().values() if isinstance(doc.payload, CrossedModule)]
    for a in (IDEM1, LMULT2, AFFINE2):
        out.append(identity_xmod(a))
        out.append(trivial_module_xmod(Representation.regular(a)))
    out.append(ideal_inclusion_xmod(LMULT2, SubspaceBasis(2, (vector([0, 1]),))))
    return out


def witnesses():
    out = [w for _, w in equivalence_witnesses()]
    for e in all_extensions():
        out.append(EquivalenceWitness(e, e, MatrixQ.identity(e.m_algebra.dim), MatrixQ.identity(e.n_algebra.dim)))
    return out


def test_crossed_module_checker_equals_dense_oracle_on_catalog():
    for x in crossed_modules():
        assert on_both_engines(check_crossed_module, x) == check_crossed_module_dense(x)
    for w in witnesses():
        assert on_both_engines(check_equivalence_witness, w) == check_equivalence_witness_dense(w)
    assert any(check_crossed_module(x) is not None for x in crossed_modules())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(crossed_modules()), st.data())
def test_crossed_module_checker_equals_dense_oracle(base, data):
    how = data.draw(st.sampled_from(["mu", "left", "right", "all"]))
    mu, left, right = base.mu.matrix, base.action.left, base.action.right
    if how in ("mu", "all"):
        mu = perturbed_matrix(data, mu)
    if how in ("left", "all"):
        left = perturbed(data, left)
    if how in ("right", "all"):
        right = perturbed(data, right)
    m, n = base.m_algebra, base.n_algebra
    x = CrossedModule(AlgebraMorphism(m, n, mu), ActionData(n, m, left, right))
    assert on_both_engines(check_crossed_module, x) == check_crossed_module_dense(x)


def test_crossed_module_equivariance_left_witness_reports_i_before_u():
    # zero algebras, mu = id, right action 0 and commuting diagonal left
    # operators e_1 . m_2 = m_2, e_2 . m_1 = m_1: the action laws hold, and
    # the first failing (u, i) in scan order is (1, 2), reported as (2, 1)
    zero = PreLieAlgebra.zero_product(2)
    act = ActionData(zero, zero, sparse_tensor(2, 2, 2, {(0, 1, 1): 1, (1, 0, 0): 1}), sparse_tensor(2, 2, 2, {}))
    x = CrossedModule(AlgebraMorphism(zero, zero, MatrixQ.identity(2)), act)
    bad = on_both_engines(check_crossed_module, x)
    assert bad == check_crossed_module_dense(x)
    assert bad == Violation("equivariance-left", (1, 0), (F(1), F(0)), (F(0), F(0)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(witnesses()), st.data())
def test_equivalence_witness_checker_equals_dense_oracle(base, data):
    how = data.draw(st.sampled_from(["maps", "actions"]))
    r, s, dst = base.r, base.s, base.dst
    if how == "maps":
        r, s = perturbed_matrix(data, r), perturbed_matrix(data, s)
    else:
        # r and s still pass every square, so the action laws are reached
        left, right = perturbed(data, dst.action.left), perturbed(data, dst.action.right)
        action = ActionData(dst.n_algebra, dst.m_algebra, left, right)
        dst = CrossedModuleExtension(dst.v_rep, dst.i, dst.mu, dst.pi, action)
    w = EquivalenceWitness(base.src, dst, r, s)
    assert on_both_engines(check_equivalence_witness, w) == check_equivalence_witness_dense(w)


def test_equivalence_witness_action_right_witness_reports_u_before_a():
    # dst differs from src only in m_2 . e_1 and m_1 . e_2; the scan over
    # (a, u) meets m_2 . e_1 first, at (1, 2), and reports it as (2, 1)
    e = trivial_extension(Representation.regular(LMULT2))
    cells = {(u, a, k): c for u, a, k, c in e.action.right.entries()}
    for key in [(1, 0, 0), (0, 1, 0)]:
        cells[key] = cells.get(key, 0) + 1
    action = ActionData(e.n_algebra, e.m_algebra, e.action.left, sparse_tensor(2, 2, 2, cells))
    dst = CrossedModuleExtension(e.v_rep, e.i, e.mu, e.pi, action)
    w = EquivalenceWitness(e, dst, MatrixQ.identity(2), MatrixQ.identity(2))
    bad = on_both_engines(check_equivalence_witness, w)
    assert bad == check_equivalence_witness_dense(w)
    assert bad == Violation("action-right-respected", (1, 0), (F(0), F(0)), (F(1), F(0)))


@contextlib.contextmanager
def crossed_module_unchecked():
    """check_extension with its crossed-module step passing. The Peiffer
    identity makes im i = ker mu central, so only an extension whose
    crossed module is not checked can reach a failing i-image-central."""
    saved = xmodules.check_crossed_module
    xmodules.check_crossed_module = lambda x: None
    try:
        yield
    finally:
        xmodules.check_crossed_module = saved


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([e for e in all_extensions() if check_extension(e) is None]), st.data())
def test_i_image_central_equals_dense_oracle(base, data):
    m = PreLieAlgebra(base.m_algebra.dim, perturbed(data, base.m_algebra.product))
    mu = AlgebraMorphism(m, base.n_algebra, base.mu.matrix)
    action = ActionData(base.n_algebra, m, base.action.left, base.action.right)
    e = CrossedModuleExtension(base.v_rep, base.i, mu, base.pi, action)
    want = i_image_central_dense(e)
    with crossed_module_unchecked():
        bad = on_both_engines(check_extension, e)
    # only m changed, so every step before i-image-central passes
    if want is not None:
        assert bad == want
    else:
        assert bad is None or bad.axiom != "i-image-central"


def test_i_image_central_witness():
    # V = m = Q with e1 e1 = e1: i = id squares to nonzero
    e = trivial_extension(Representation.trivial(IDEM1, 1))
    idem = PreLieAlgebra(1, IDEM1.product)
    action = ActionData(e.n_algebra, idem, e.action.left, e.action.right)
    e = CrossedModuleExtension(e.v_rep, e.i, AlgebraMorphism(idem, e.n_algebra, e.mu.matrix), e.pi, action)
    want = Violation("i-image-central", (0, 0), (F(1),), (F(0),))
    assert i_image_central_dense(e) == want
    with crossed_module_unchecked():
        assert on_both_engines(check_extension, e) == want
    assert check_extension(e).axiom != "i-image-central"
