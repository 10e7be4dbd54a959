"""Crossed modules, extensions, and the extension-to-cocycle map.

The three stock crossed modules (identity on an algebra, ideal
inclusion, module over the zero map) are checked against the axioms;
extensions built by hand are fed through the cocycle realization and
its section-independence properties.
"""

import itertools
import random
from fractions import Fraction

import pytest

from preliecoh.algebra import (
    ActionData,
    AlgebraMorphism,
    PreLieAlgebra,
    Representation,
    check_representation,
    sparse_tensor,
)
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
