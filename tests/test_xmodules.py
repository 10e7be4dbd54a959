"""Crossed modules, extensions, and the extension-to-cocycle map.

The three stock crossed modules (identity on an algebra, ideal
inclusion, module over the zero map) are checked against the axioms;
extensions built by hand are fed through the cocycle realization and
its section-independence properties.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh import xmodules
from preliecoh.algebra import (
    ActionData,
    AlgebraMorphism,
    PreLieAlgebra,
    Representation,
    Violation,
    check_prelie,
    check_representation,
    compose,
    sparse_tensor,
)
from preliecoh.catalog import equivalence_witnesses, extensions, fixture_documents, representation_pairs
from preliecoh.cochain import Cochain, CochainBasis, coboundary, cohomology
from preliecoh.errors import (
    InternalAssertionFailed,
    InvalidExtension,
    NotACocycle,
    NotAnIdeal,
    OutputCheckFailed,
    PreLieError,
    ShapeError,
)
from preliecoh.linalg import (
    MatrixQ,
    QuotientMap,
    SubspaceBasis,
    is_zero_vector,
    rank_kernel_image,
    right_inverse_on_image,
    solve_particular,
    sparse_row,
    standard_basis_vector,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from preliecoh.xmodules import (
    CrossedModule,
    CrossedModuleExtension,
    EquivalenceWitness,
    ThreeCocycleResult,
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

from test_cochain import nonclosed_unit
from test_linalg import col, lift
from test_algebra import (
    check_action_dense,
    check_morphism_dense,
    check_prelie_dense,
    ideal_subalgebra_dense,
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
    sub = SubspaceBasis.from_vectors(2, (vector([0, 1]),))
    x = ideal_inclusion_xmod(LMULT2, sub)
    assert check_crossed_module(x) is None
    assert x.m_algebra.dim == 1
    with pytest.raises(NotAnIdeal):
        ideal_inclusion_xmod(LMULT2, SubspaceBasis.from_vectors(2, (vector([1, 0]),)))


def test_each_map_is_factored_once(monkeypatch, capsys):
    """An extension factors pi, mu and i once however many steps read
    their sections, check_extension included, and an ideal inclusion
    factors its inclusion once and tests its span once: two products,
    their coordinates, the coordinates mapped back, and the ideal's
    product are 7 compose calls. Every pass enters the elimination at its
    one integer entry, `_echelon`, with integer rows."""
    from preliecoh import algebra, cli, linalg
    from preliecoh.catalog import fixture_path

    factored, composed, passes = [], [], []
    original, echelon = xmodules.right_inverse_on_image, linalg._echelon

    def counting_echelon(rows):
        rows = list(rows)
        passes.append([dict(row) for row in rows])
        return echelon(rows)

    monkeypatch.setattr(xmodules, "right_inverse_on_image", lambda m: factored.append(m) or original(m))
    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    argv = ["tmap", str(fixture_path("ext_dbl_regular")), "--sections", "random", "--seed", "7"]
    assert cli.main(argv) == 0
    assert "classes agree: PASS" in capsys.readouterr().out
    assert len(factored) == len(set(factored)) == 3
    # 3 per section, 2 for the h3 kernel and quotient, and solve_particular's
    # 1; it was 18 when check_extension ranked each map with rank_of and
    # class_coordinates solved against the reduced representatives
    assert len(passes) == 12
    assert all(type(x) is int for rows in passes for row in rows for x in row.values())
    factored.clear()
    for module in (algebra, xmodules):
        monkeypatch.setattr(module, "compose", lambda *a, _c=module.compose, **k: composed.append(a) or _c(*a, **k))
    ideal_inclusion_xmod(LMULT2, SubspaceBasis.from_vectors(2, (vector([0, 1]),)))
    assert (len(factored), len(composed)) == (1, 7)


def test_default_sections_refuse_a_pi_that_is_not_onto():
    e = fixture_documents()["ext_bad_pi"].payload
    for read in (lambda: e.pi_section, lambda: t_map(e), lambda: induced_representation(e)):
        with pytest.raises(InvalidExtension, match="^pi is not surjective$"):
            read()


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


def test_t_map_raises_on_a_non_closed_theta(monkeypatch):
    # t_map tests closedness only by classifying theta; a theta with a
    # nonzero coboundary must still stop it
    rep = dict(representation_pairs())["affine3/trivial1"]
    e = double_extension(rep)
    unit = nonclosed_unit(rep, 3)
    built = xmodules.Cochain
    monkeypatch.setattr(xmodules, "Cochain", lambda *args: built(*args).add(unit))
    with pytest.raises(InternalAssertionFailed, match="realized 3-cochain is not closed"):
        t_map(e)
    with pytest.raises(InternalAssertionFailed, match="realized 3-cochain is not closed"):
        t_map(e, h3=cohomology(rep, 3))


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


@dataclass(frozen=True)
class AbelianExtension:
    """g (+) V with product twisted by a 2-cocycle; the classical
    degree-2 picture, kept as a cross-check for the machinery."""

    algebra: PreLieAlgebra
    include_v: MatrixQ
    project_g: MatrixQ


def abelian_extension_from_2cocycle(rep, omega):
    """(x,u)*(y,w) = (x*y, x.w + u.y + omega(x,y)); pre-Lie exactly when
    omega is closed, so a non-cocycle raises NotACocycle."""
    if omega.arity != 2:
        raise ShapeError("need a 2-cochain")
    g = rep.algebra
    if omega.algebra_dim != g.dim or omega.carrier_dim != rep.carrier_dim:
        raise ShapeError("cochain does not match the representation")
    if not coboundary(rep, omega).is_zero():
        raise NotACocycle("the twisting 2-cochain is not closed")
    d, v = g.dim, rep.carrier_dim
    cells = {(a, b, k): c for a, b, k, c in semidirect_product(rep).product.entries()}
    for x, y in itertools.product(range(d), repeat=2):
        for k, c in enumerate(omega.value_at((x, y))):
            cells[x, y, d + k] = c
    algebra = PreLieAlgebra(d + v, sparse_tensor(d + v, d + v, d + v, cells))
    bad = check_prelie(algebra)
    if bad is not None:
        raise OutputCheckFailed(f"twisted product is not pre-Lie: {bad}")
    include_v = MatrixQ.from_entries(d + v, v, {(d + c, c): 1 for c in range(v)})
    project_g = MatrixQ.from_entries(d, d + v, {(r, r): 1 for r in range(d)})
    return AbelianExtension(algebra, include_v, project_g)


def test_semidirect_product_is_prelie():
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
        cand = Cochain.from_coordinates(2, 2, 2, [F(rng.randint(-3, 3)) for _ in range(len(basis) * 2)])
        if not coboundary(rep, cand).is_zero():
            found = cand
            break
    assert found is not None
    with pytest.raises(NotACocycle):
        abelian_extension_from_2cocycle(rep, found)


# --- dense oracles for the engine checkers ----------------------------------
# The checks as first written: every identity is evaluated on every basis
# tuple, through matrix columns and mul_vec and bilinear products.


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
        rhs = n.multiply(col(mu.matrix, u), n.basis_vector(i))
        if lhs != rhs:
            return Violation("equivariance-right", (u, i), lhs, rhs)
        lhs = mu.apply(act.left.vector(i, u))
        rhs = n.multiply(n.basis_vector(i), col(mu.matrix, u))
        if lhs != rhs:
            return Violation("equivariance-left", (i, u), lhs, rhs)
    for u, v in itertools.product(range(m.dim), repeat=2):
        prod = m.basis_product(u, v)
        lhs = act.act_left(col(mu.matrix, u), m.basis_vector(v))
        if lhs != prod:
            return Violation("peiffer-left", (u, v), lhs, prod)
        lhs = act.act_right(m.basis_vector(u), col(mu.matrix, v))
        if lhs != prod:
            return Violation("peiffer-right", (u, v), lhs, prod)
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
            rhs = w.dst.action.act_left(col(w.s, a), col(w.r, u))
            if lhs != rhs:
                return Violation("action-left-respected", (a, u), lhs, rhs)
            lhs = w.r.mul_vec(w.src.action.right.vector(u, a))
            rhs = w.dst.action.act_right(col(w.r, u), col(w.s, a))
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
    out.append(ideal_inclusion_xmod(LMULT2, SubspaceBasis.from_vectors(2, (vector([0, 1]),))))
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


# --- dense oracles for t_map and the induced actions ---------------------------
# The constructions as first written: dense alpha/beta tables and one
# elimination per value read against a basis.


def induced_action_dense(act_left, act_right, xs, us, onto, error):
    def coords(w):
        c = solve_particular(onto, sparse_row(w))
        if c is None:
            raise error
        return c

    left = tuple(tuple(coords(act_left(x, u)) for u in us) for x in xs)
    right = tuple(tuple(coords(act_right(u, x)) for x in xs) for u in us)
    return left, right


def ideal_inclusion_xmod_dense(n, sub):
    ideal, incl_cols = ideal_subalgebra_dense(n, sub)
    basis = [n.basis_vector(i) for i in range(n.dim)]
    left, right = induced_action_dense(
        n.multiply, n.multiply, basis, sub.vectors, incl_cols, InternalAssertionFailed("ideal action left the subspace")
    )
    return CrossedModule(AlgebraMorphism(ideal, n, incl_cols), ActionData(n, ideal, left, right))


def induced_representation_dense(e, section=None):
    g = e.g_algebra
    rho = e.pi_section if section is None else section
    if e.pi.matrix @ rho != MatrixQ.identity(g.dim):
        raise InvalidExtension("section is not a right inverse of pi")
    left, right = induced_action_dense(
        e.action.act_left,
        e.action.act_right,
        [col(rho, x) for x in range(g.dim)],
        [col(e.i, u) for u in range(e.v_dim)],
        e.i,
        InvalidExtension("induced action escapes the image of i"),
    )
    return Representation(g, e.v_dim, left, right)


def canonical_extension_dense(x):
    """canonical_extension without its input and output checks."""
    n = x.n_algebra
    _, kernel, image = rank_kernel_image(x.mu.matrix)
    i = kernel.as_column_matrix()
    quot = QuotientMap.build(n.dim, image)
    g_dim = quot.dim
    prod = []
    for a in range(g_dim):
        lift_a = lift(quot, standard_basis_vector(g_dim, a))
        prod.append(
            tuple(
                quot.reduce(n.multiply(lift_a, lift(quot, standard_basis_vector(g_dim, b))))
                for b in range(g_dim)
            )
        )
    g = PreLieAlgebra(g_dim, tuple(prod))
    pi = AlgebraMorphism(n, g, quot.reduce_matrix())
    rho = right_inverse_on_image(pi.matrix)
    left, right = induced_action_dense(
        x.action.act_left,
        x.action.act_right,
        [col(rho, xx) for xx in range(g_dim)],
        kernel.vectors,
        i,
        InternalAssertionFailed("induced action escaped ker mu"),
    )
    v_rep = Representation(g, kernel.dim, left, right)
    return CrossedModuleExtension(v_rep, i, x.mu, pi, x.action)


def t_map_dense(e, rho=None, sigma=None, h3=None):
    g = e.g_algebra
    n = e.n_algebra
    rho = e.pi_section if rho is None else rho
    if e.pi.matrix @ rho != MatrixQ.identity(g.dim):
        raise InvalidExtension("rho is not a right inverse of pi")
    sigma = e.mu_section if sigma is None else sigma
    if e.mu.matrix @ (sigma @ e.mu.matrix) != e.mu.matrix:
        raise InvalidExtension("sigma is not a right inverse of mu on its image")
    d = g.dim
    alpha = [
        [vec_sub(n.multiply(col(rho, x), col(rho, y)), rho.mul_vec(g.basis_product(x, y))) for y in range(d)]
        for x in range(d)
    ]
    beta = [[sigma.mul_vec(alpha[x][y]) for y in range(d)] for x in range(d)]
    for x, y in itertools.product(range(d), repeat=2):
        if e.mu.apply(beta[x][y]) != alpha[x][y]:
            raise InternalAssertionFailed("curvature not in the image of mu")

    def beta_lin_second(x, w):
        out = zero_vector(e.m_algebra.dim)
        for k, c in enumerate(w):
            if c != 0:
                out = vec_add(out, vec_scale(c, beta[x][k]))
        return out

    def beta_lin_first(w, z):
        out = zero_vector(e.m_algebra.dim)
        for k, c in enumerate(w):
            if c != 0:
                out = vec_add(out, vec_scale(c, beta[k][z]))
        return out

    act = e.action
    values_m = []
    values_v = []
    for (x, y), z in CochainBasis(3, d).tuples:
        val = act.act_left(col(rho, x), beta[y][z])
        val = vec_sub(val, act.act_left(col(rho, y), beta[x][z]))
        val = vec_add(val, act.act_right(beta[y][x], col(rho, z)))
        val = vec_sub(val, act.act_right(beta[x][y], col(rho, z)))
        val = vec_sub(val, beta_lin_second(y, g.basis_product(x, z)))
        val = vec_add(val, beta_lin_second(x, g.basis_product(y, z)))
        br = vec_sub(g.basis_product(x, y), g.basis_product(y, x))
        val = vec_sub(val, beta_lin_first(br, z))
        if not is_zero_vector(e.mu.apply(val)):
            raise InternalAssertionFailed("cocycle values not killed by mu")
        coords = solve_particular(e.i, sparse_row(val))
        if coords is None:
            raise InternalAssertionFailed("cocycle values not in the image of i")
        values_m.append(val)
        values_v.append(coords)
    theta = Cochain.from_coordinates(3, d, e.v_dim, [c for value in values_v for c in value])
    if not coboundary(e.v_rep, theta).is_zero():
        raise InternalAssertionFailed("realized 3-cochain is not closed")
    if h3 is None:
        h3 = cohomology(e.v_rep, 3)
    return ThreeCocycleResult(theta, tuple(values_m), h3.class_coordinates(theta), h3, rho, sigma)


# --- engine constructions against the dense oracles ---------------------------


def heisenberg_xmod():
    """m = Q^3 with e1 e2 = e3, mapped onto the first two coordinates of
    the zero algebra Q^3, which acts on m by the products of the lifts:
    e3 annihilates m, so ker mu = span(e3) sits in a nonzero product."""
    m = PreLieAlgebra(3, sparse_tensor(3, 3, 3, {(0, 1, 2): 1}))
    n = PreLieAlgebra.zero_product(3)
    mu = AlgebraMorphism(m, n, MatrixQ.from_entries(3, 3, {(0, 0): 1, (1, 1): 1}))
    return CrossedModule(mu, ActionData(n, m, m.product, m.product))


def oracle_extensions():
    """The catalog extensions, the double and trivial extensions of every
    catalog representation, and the extension of heisenberg_xmod."""
    out = [*all_extensions(), canonical_extension(heisenberg_xmod())]
    for _, rep in representation_pairs():
        out += [double_extension(rep), trivial_extension(rep)]
    return out


def valid_extensions():
    return [e for e in oracle_extensions() if check_extension(e) is None]


def outcome(make, *args):
    """What make(*args) returns, or the type and message of the library
    error it raises."""
    try:
        return make(*args)
    except PreLieError as exc:
        return type(exc), str(exc)


def assert_t_map_matches_oracle(e, rho=None, sigma=None):
    h3 = cohomology(e.v_rep, 3)
    got, want = t_map(e, rho, sigma, h3), t_map_dense(e, rho, sigma, h3)
    assert got.theta == want.theta
    assert got.theta_m == want.theta_m
    assert got.class_coordinates == want.class_coordinates
    assert (got.rho, got.sigma) == (want.rho, want.sigma)
    return got


def test_t_map_and_induced_actions_equal_dense_oracles_on_catalog():
    rng = random.Random(31)
    nonzero = 0
    for e in valid_extensions():
        assert_t_map_matches_oracle(e)
        rho, sigma = random_pi_section(e, rng), random_mu_section(e, rng)
        got = assert_t_map_matches_oracle(e, rho, sigma)
        nonzero += any(map(any, got.theta_m))
    for e in oracle_extensions():
        assert outcome(induced_representation, e) == outcome(induced_representation_dense, e)
        x = e.crossed_module()
        if check_crossed_module(x) is None:
            assert canonical_extension(x) == canonical_extension_dense(x)
    # every class here is zero, but random sections make some theta nonzero
    assert nonzero > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(valid_extensions()), st.integers(0, 2**32 - 1))
def test_t_map_and_induced_actions_equal_dense_oracles_on_random_sections(e, seed):
    rng = random.Random(seed)
    rho, sigma = random_pi_section(e, rng), random_mu_section(e, rng)
    assert_t_map_matches_oracle(e, rho, sigma)
    assert induced_representation(e, rho) == induced_representation_dense(e, rho)


def test_induced_action_escape_raises_like_the_oracle():
    e = double_extension(Representation.regular(LMULT2))
    not_a_section = MatrixQ.zero(e.n_algebra.dim, e.g_algebra.dim)
    want = (InvalidExtension, "section is not a right inverse of pi")
    assert outcome(induced_representation, e, not_a_section) == want
    assert outcome(induced_representation_dense, e, not_a_section) == want
    # i onto span(v_2 of the first copy, v_1 of the second): the second
    # copy's v_1 . e_2 = v_1 e_2 = v_2 leaves it
    mixed = MatrixQ.from_entries(4, 2, {(1, 0): 1, (2, 1): 1})
    shifted = CrossedModuleExtension(e.v_rep, mixed, e.mu, e.pi, e.action)
    want = (InvalidExtension, "induced action escapes the image of i")
    assert outcome(induced_representation, shifted) == outcome(induced_representation_dense, shifted) == want


def ideal_pairs():
    """(algebra, subspace) pairs from the catalog: the kernels of its
    morphisms, and every coordinate line of the stock algebras."""
    out = []
    for e in oracle_extensions():
        for f in (e.mu, e.pi):
            out.append((f.source, rank_kernel_image(f.matrix)[1]))
    for a in (IDEM1, LMULT2, AFFINE2):
        out += [(a, SubspaceBasis.from_vectors(a.dim, (standard_basis_vector(a.dim, i),))) for i in range(a.dim)]
    return out


def test_ideal_inclusion_xmod_equals_dense_oracle():
    found = []
    for n, sub in ideal_pairs():
        got = outcome(ideal_inclusion_xmod, n, sub)
        assert got == outcome(ideal_inclusion_xmod_dense, n, sub)
        found.append(isinstance(got, CrossedModule))
    assert any(found) and not all(found)


# --- the Peiffer guarantee that replaced the i-image-central step ------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(valid_extensions()), st.data())
def test_crossed_module_and_exactness_make_im_i_square_zero(base, data):
    # Peiffer: for u, v in im i = ker mu, u v = mu(u) . v = 0, so once the
    # crossed module and mu i = 0 hold, i(V) i(V) = 0 needs no check
    how = data.draw(st.sampled_from(["product", "action", "mu", "i"]))
    m, n, i, mu = base.m_algebra, base.n_algebra, base.i, base.mu.matrix
    left, right = base.action.left, base.action.right
    if how == "product":
        m = PreLieAlgebra(m.dim, perturbed(data, m.product))
    elif how == "action":
        left, right = perturbed(data, left), perturbed(data, right)
    elif how == "mu":
        mu = perturbed_matrix(data, mu)
    else:
        i = perturbed_matrix(data, i)
    x = CrossedModule(AlgebraMorphism(m, n, mu), ActionData(n, m, left, right))
    if check_crossed_module(x) is None and (mu @ i).is_zero():
        assert compose(m.product, i, i).is_zero()
