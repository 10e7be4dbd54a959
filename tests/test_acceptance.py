"""Acceptance gate: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get a single
pass/fail line per criterion. Each test sweeps the whole fixture
catalog; nothing here is mocked or tolerance-based, all arithmetic
is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from preliecoh.algebra import Representation
from preliecoh.catalog import (
    ALGEBRAS,
    DENDR_IDEM1,
    DENDR_NILP2,
    dendr_action_mismatch,
    dendr_nilp_xmod,
    dendriform_self_xmod,
    equivalence_witnesses,
    extensions,
    fixture_path,
    load_fixture,
    rb_fixture,
    rb_rho_mismatch,
    representation_pairs,
)
from preliecoh.cochain import (
    are_cohomologous,
    coboundary,
    coboundary_matrix,
    cohomology,
    hom_module,
    lie_coboundary_matrix,
    lie_cohomology_dimension,
)
from preliecoh.errors import InvalidInput, OutputCheckFailed
from preliecoh.functors import (
    check_dendriform_xmod,
    check_lie_crossed_module,
    check_rb_lie_xmod,
    dendriform_to_prelie_xmod,
    prelie_to_lie_xmod,
    rblie_to_prelie_xmod,
)
from preliecoh.linalg import MatrixQ, SubspaceBasis, is_zero_vector, rank_kernel_image, vec_add
from preliecoh.trees import (
    TreePoly,
    check_cocycle_pullback,
    enumerate_trees,
    evaluate,
    graft_product,
    tree_counts_oracle,
)
from preliecoh.xmodules import (
    canonical_extension,
    check_crossed_module,
    check_equivalence_witness,
    check_extension,
    ideal_inclusion_xmod,
    identity_xmod,
    induced_representation,
    kernel_xmod,
    random_mu_section,
    random_pi_section,
    t_map,
    trivial_module_xmod,
)

from test_cochain import d1_oracle, d2_oracle, random_cochain
from test_linalg import col, from_cols

PAIRS = representation_pairs()
SMALL_PAIRS = [(n, r) for n, r in PAIRS if r.algebra.dim <= 3 and r.carrier_dim <= 2]


def test_criterion_01_differential_squared_on_random_cochains():
    assert len(SMALL_PAIRS) >= 10
    for name, rep in SMALL_PAIRS:
        for arity in (1, 2, 3):
            rng = random.Random(f"dd:{name}:{arity}")
            for _ in range(50):
                f = random_cochain(rep, arity, rng)
                assert coboundary(rep, coboundary(rep, f)).is_zero(), (name, arity)


def test_criterion_02_low_degree_closed_forms_agree():
    for name, rep in PAIRS:
        rng = random.Random(f"closed:{name}")
        for _ in range(3):
            f1 = random_cochain(rep, 1, rng)
            df1 = coboundary(rep, f1)
            for (x, y), val in d1_oracle(rep, f1):
                assert df1.value_at((x, y)) == val, name
            f2 = random_cochain(rep, 2, rng)
            df2 = coboundary(rep, f2)
            for (x, y, z), val in d2_oracle(rep, f2):
                assert df2.value_at((x, y, z)) == val, name


def test_criterion_03_abelian_dimension_law():
    for m in (1, 2, 3, 4):
        for v in (1, 2):
            rep = Representation.trivial(ALGEBRAS[f"abelian{m}"], v)
            for k in (1, 2, 3, 4):
                expected = math.comb(m, k - 1) * m * v
                assert cohomology(rep, k).dimension == expected, (m, v, k)


def test_criterion_04_lie_cohomology_correspondence():
    for name, rep in PAIRS:
        mod = hom_module(rep)
        for n in (1, 2, 3):
            pre_dim = cohomology(rep, n).dimension
            lie_dim = lie_cohomology_dimension(mod, n - 1)
            assert pre_dim == lie_dim, (name, n)
            # phi is the identity in these coordinates, so it intertwines
            # the differentials exactly when the two matrices agree
            assert coboundary_matrix(rep, n) == lie_coboundary_matrix(mod, n - 1), (name, n)


def test_criterion_05_tmap_yields_genuine_relative_cocycles():
    for name, e in extensions().items():
        result = t_map(e)
        assert all(is_zero_vector(e.mu.apply(v)) for v in result.theta_m), name
        assert coboundary(e.v_rep, result.theta).is_zero(), name
        # split constructions carry the zero class
        assert result.is_trivial_class, name


def test_criterion_06_class_is_independent_of_sections():
    for name, e in extensions().items():
        base = t_map(e)
        rng = random.Random(f"sections:{name}")
        for _ in range(20):
            perturbed = t_map(
                e,
                rho=random_pi_section(e, rng),
                sigma=random_mu_section(e, rng),
                h3=base.h3,
            )
            assert perturbed.class_coordinates == base.class_coordinates, name
            assert are_cohomologous(e.v_rep, base.theta, perturbed.theta) is not None
    for name, w in equivalence_witnesses():
        assert check_equivalence_witness(w) is None, name
        first = t_map(w.src)
        second = t_map(w.dst, h3=first.h3)
        assert first.class_coordinates == second.class_coordinates, name


def _shifted_pi_section(e) -> MatrixQ:
    """A second deterministic section: add a kernel vector to one column."""
    kernel = rank_kernel_image(e.pi.matrix)[1]
    rho = e.pi_section
    cols = [col(rho, j) for j in range(e.g_algebra.dim)]
    if kernel.dim:
        cols[0] = vec_add(cols[0], kernel.vectors[0])
    return from_cols(cols, rows=e.n_algebra.dim)


def test_criterion_07_worked_constructions_conform():
    for name, algebra in ALGEBRAS.items():
        assert check_crossed_module(identity_xmod(algebra)) is None, name
    lmult2, affine3 = ALGEBRAS["lmult2"], ALGEBRAS["affine3"]
    one = Fraction(1)
    zero = Fraction(0)
    ideal_cases = [
        (lmult2, SubspaceBasis.from_vectors(2, ((zero, one),))),
        (affine3, SubspaceBasis.from_vectors(3, ((zero, one, zero), (zero, zero, one)))),
    ]
    for algebra, sub in ideal_cases:
        assert check_crossed_module(ideal_inclusion_xmod(algebra, sub)) is None
    exts = extensions()
    for name in ("ext_dbl", "ext_dbl_regular"):
        pi = exts[name].pi
        assert check_crossed_module(kernel_xmod(pi)) is None, name
    xmods = [identity_xmod(a) for a in ALGEBRAS.values()]
    for name, rep in PAIRS:
        x = trivial_module_xmod(rep)
        assert check_crossed_module(x) is None, name
        xmods.append(x)
    for x in xmods:
        assert check_extension(canonical_extension(x)) is None
    for name, e in exts.items():
        reference = induced_representation(e)
        assert reference == e.v_rep, name
        assert induced_representation(e, _shifted_pi_section(e)) == reference, name
        rng = random.Random(f"induced:{name}")
        for _ in range(10):
            section = random_pi_section(e, rng)
            assert induced_representation(e, section) == reference, name


def test_criterion_08_functor_conversions_certify_their_outputs():
    prelie_inputs = [identity_xmod(a) for a in ALGEBRAS.values()]
    prelie_inputs += [trivial_module_xmod(rep) for _, rep in PAIRS]
    for x in prelie_inputs:
        assert check_lie_crossed_module(prelie_to_lie_xmod(x)) is None
    rb_inputs = [
        rb_fixture(MatrixQ.zero(2, 2)),
        rb_fixture(MatrixQ.from_rows([[1, 0], [0, 0]])),
    ]
    for x in rb_inputs:
        assert check_rb_lie_xmod(x) is None
        assert check_crossed_module(rblie_to_prelie_xmod(x)) is None
    dendr_inputs = [
        dendriform_self_xmod(DENDR_IDEM1),
        dendriform_self_xmod(DENDR_NILP2),
        dendr_nilp_xmod(),
    ]
    for x in dendr_inputs:
        assert check_dendriform_xmod(x) is None
        assert check_crossed_module(dendriform_to_prelie_xmod(x)) is None
    # axiom-violating inputs are rejected loudly
    for name in ("xmod_bad_peiffer",):
        with pytest.raises(InvalidInput):
            prelie_to_lie_xmod(load_fixture(name).payload)
    with pytest.raises(InvalidInput):
        rblie_to_prelie_xmod(load_fixture("rb_bad_t").payload)
    with pytest.raises(InvalidInput):
        dendriform_to_prelie_xmod(load_fixture("dendr_bad_axiom3").payload)
    # inputs passing every encoded axiom but breaking the conclusion are
    # caught by the a-posteriori output check
    with pytest.raises(OutputCheckFailed):
        rblie_to_prelie_xmod(rb_rho_mismatch())
    with pytest.raises(OutputCheckFailed):
        dendriform_to_prelie_xmod(dendr_action_mismatch())


def test_criterion_09_free_prelie_on_rooted_trees():
    # left-symmetry of grafting, single label, no truncation
    limit = 5
    basis = [t for d in (1, 2, 3) for t in enumerate_trees(1, d)]
    polys = {t: TreePoly.of_tree(t, limit) for t in basis}
    for x, y, z in itertools.product(basis, repeat=3):
        if x.degree + y.degree + z.degree > limit:
            continue
        px, py, pz = polys[x], polys[y], polys[z]
        lhs = graft_product(graft_product(px, py), pz).sub(
            graft_product(px, graft_product(py, pz))
        )
        rhs = graft_product(graft_product(py, px), pz).sub(
            graft_product(py, graft_product(px, pz))
        )
        assert lhs.sub(rhs).is_zero(), (x, y, z)
        assert not lhs.truncated and not rhs.truncated

    # evaluation is a pre-Lie homomorphism into every catalog algebra
    two_label_basis = [t for d in (1, 2, 3) for t in enumerate_trees(2, d)]
    for name, algebra in ALGEBRAS.items():
        d = algebra.dim
        assign = {
            0: algebra.basis_vector(0),
            1: tuple(Fraction(i + 1, 2) for i in range(d)),
        }
        for x, y in itertools.product(two_label_basis, repeat=2):
            total = x.degree + y.degree
            if total > 4:
                continue
            product = graft_product(
                TreePoly.of_tree(x, total), TreePoly.of_tree(y, total)
            )
            lhs = evaluate(product, algebra, assign)
            rhs = algebra.multiply(
                evaluate(TreePoly.of_tree(x, total), algebra, assign),
                evaluate(TreePoly.of_tree(y, total), algebra, assign),
            )
            assert lhs == rhs, (name, x, y)

    # enumeration counts against the independent oracle
    assert tree_counts_oracle(1, 4)[1:] == [1, 1, 2, 4]
    for degree, count in zip((1, 2, 3, 4), (1, 1, 2, 4)):
        assert len(enumerate_trees(1, degree)) == count

    # every catalog 3-cohomology representative pulls back to a cocycle
    for name, rep in PAIRS:
        assign = {i: rep.algebra.basis_vector(i) for i in range(rep.algebra.dim)}
        for theta in cohomology(rep, 3).representatives:
            assert check_cocycle_pullback(theta, rep, assign, 4) is None, name


def test_criterion_10_cli_golden_transcripts_and_exit_codes():
    from test_cli import GOLDEN_CASES, GOLDEN_DIR, run_cli

    for name, (expected_code, argv) in GOLDEN_CASES.items():
        golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        for _ in range(2):
            code, out, _ = run_cli(*argv)
            assert code == expected_code, name
            assert out.encode("utf-8") == golden, name
    negatives = [
        (("convert", fixture_path("rb_rho_mismatch")), 3),
        (("convert", fixture_path("dendr_action_mismatch")), 3),
        (("convert", fixture_path("xmod_bad_peiffer")), 2),
        (("tmap", fixture_path("ext_bad_pi")), 2),
        (("validate", "/no/such/file.json"), 1),
        (
            (
                "cohomologous",
                fixture_path("rep_lmult2_trivial1"),
                fixture_path("cochain2_class"),
                fixture_path("cochain2_nonclosed"),
            ),
            2,
        ),
    ]
    for argv, expected in negatives:
        code, _, err = run_cli(*argv)
        assert code == expected, argv
        assert err.startswith("error:"), argv
