"""Cochain complex tests.

The degree-1 and degree-2 differentials are re-implemented here directly
from their closed forms and compared entrywise against the general-arity
code; cohomology dimensions for the abelian case follow a counting
formula proved independently of any row reduction.
"""

import functools
import hashlib
import itertools
import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preliecoh.algebra import PreLieAlgebra, Representation, check_prelie, sparse_tensor, subadjacent_lie
from preliecoh.catalog import representation_pairs
from preliecoh.cochain import (
    Cochain,
    CochainBasis,
    CochainComplex,
    LieModule,
    are_cohomologous,
    coboundary,
    coboundary_matrix,
    cohomology,
    cohomology_dimension,
    hom_module,
    increasing_tuples,
    lie_coboundary_matrix,
    lie_cohomology_dimension,
    sort_with_sign,
    tuple_rank,
)
from preliecoh.errors import ArityMismatch, DimensionMismatch, NotACocycle, ShapeError
from preliecoh.linalg import (
    ONE,
    MatrixQ,
    QuotientMap,
    SubspaceBasis,
    _rref,
    invert,
    rank_kernel_image,
    rank_of,
    solve_particular,
    sparse_row,
    standard_basis_vector,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from preliecoh.xmodules import semidirect_product
from test_linalg import (
    DenseQuotient,
    col,
    dense_rank_kernel_image,
    dense_rref_rows,
    from_cols,
    greedy_independent,
    quotient_rref,
)

F = Fraction


def check_lie_module(mod):
    """[x,y].w = x.(y.w) - y.(x.w) on every basis tuple."""
    lie = mod.algebra
    for i, j, a in itertools.product(range(lie.dim), range(lie.dim), range(mod.dim)):
        lhs = mod.act(lie.basis_bracket(i, j), standard_basis_vector(mod.dim, a))
        rhs = vec_sub(
            mod.act(lie.basis_vector(i), mod.action.vector(j, a)),
            mod.act(lie.basis_vector(j), mod.action.vector(i, a)),
        )
        if lhs != rhs:
            return False
    return True


# The tests' own Lie side of the comparison map: Lie cochains and the
# relabelling phi, independent of the matrices of hom_module's complex.


@dataclass(frozen=True)
class LieCochain:
    """Alternating k-cochain on a Lie algebra with module values; k >= 0.

    Values are indexed by strictly increasing k-tuples in lex order;
    the degree-0 space is the module itself (one value at the empty tuple).
    """

    arity: int
    algebra_dim: int
    module_dim: int
    values: tuple

    def __post_init__(self):
        want = math.comb(self.algebra_dim, self.arity)
        if len(self.values) != want:
            raise ShapeError(f"arity-{self.arity} Lie cochain needs {want} values")
        for v in self.values:
            if len(v) != self.module_dim:
                raise ShapeError("Lie cochain value has wrong module dimension")

    @classmethod
    def from_coordinates(cls, arity, algebra_dim, module_dim, coords):
        tuples = increasing_tuples(algebra_dim, arity)
        if len(coords) != len(tuples) * module_dim:
            raise ShapeError("coordinate vector has wrong length")
        values = tuple(
            tuple(coords[p * module_dim + b] for b in range(module_dim))
            for p in range(len(tuples))
        )
        return cls(arity, algebra_dim, module_dim, values)

    def to_coordinates(self):
        return tuple(c for v in self.values for c in v)

    def value_at(self, args):
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        key, sign = sort_with_sign(args)
        if sign == 0:
            return zero_vector(self.module_dim)
        v = self.values[tuple_rank(key, self.algebra_dim)]
        return v if sign == 1 else vec_scale(Fraction(-1), v)


def phi_map(f):
    """Relabel f in C^n(g,V) as an (n-1)-cochain valued in Hom(g,V):
    (phi f)(x_1..x_{n-1}) is the map x_n -> f(x_1..x_n)."""
    a_dim = f.algebra_dim
    v = f.carrier_dim
    w_dim = a_dim * v
    values = []
    for prefix in increasing_tuples(a_dim, f.arity - 1):
        w = [F(0)] * w_dim
        for j in range(a_dim):
            val = f.value_at(prefix + (j,))
            for b in range(v):
                w[j * v + b] = val[b]
        values.append(tuple(w))
    return LieCochain(f.arity - 1, a_dim, w_dim, tuple(values))


def phi_inverse(f, carrier_dim):
    """Inverse of phi_map; module_dim must factor as algebra_dim * carrier."""
    a_dim = f.algebra_dim
    if f.module_dim != a_dim * carrier_dim:
        raise DimensionMismatch("module dimension does not factor through Hom(g,V)")
    coords = []
    for prefix, last in CochainBasis(f.arity + 1, a_dim).tuples:
        w = f.value_at(prefix)
        coords.extend(w[last * carrier_dim + b] for b in range(carrier_dim))
    return Cochain.from_coordinates(f.arity + 1, a_dim, carrier_dim, coords)


def sparse_algebra(dim, entries):
    prod = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in entries.items():
        prod[i][j][k] = F(c)
    return PreLieAlgebra(dim, tuple(tuple(tuple(r) for r in p) for p in prod))


ABELIAN2 = PreLieAlgebra.zero_product(2)
IDEM1 = sparse_algebra(1, {(0, 0, 0): 1})
LMULT2 = sparse_algebra(2, {(0, 1, 1): 1})
AFFINE2 = sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1})
ABELIAN3 = PreLieAlgebra.zero_product(3)

PAIRS = [
    Representation.trivial(ABELIAN2, 1),
    Representation.trivial(ABELIAN3, 2),
    Representation.trivial(IDEM1, 1),
    Representation.regular(IDEM1),
    Representation.trivial(LMULT2, 1),
    Representation.trivial(LMULT2, 2),
    Representation.regular(LMULT2),
    Representation.trivial(AFFINE2, 1),
    Representation.regular(AFFINE2),
]


def random_cochain(rep, n, rng):
    basis = CochainBasis(n, rep.algebra.dim)
    coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(len(basis) * rep.carrier_dim)]
    return Cochain.from_coordinates(n, rep.algebra.dim, rep.carrier_dim, coords)


def scaled(f, c):
    """c times the cochain f."""
    return Cochain(f.arity, f.algebra_dim, f.carrier_dim, tuple((k, c * x) for k, x in f.row if c))


def nonclosed_unit(rep, n):
    """The first unit n-cochain whose coboundary is nonzero."""
    d, v = rep.algebra.dim, rep.carrier_dim
    for k in range(len(CochainBasis(n, d)) * v):
        unit = Cochain(n, d, v, ((k, F(1)),))
        if not coboundary(rep, unit).is_zero():
            return unit
    raise ValueError("every unit cochain is closed")


# --- oracles written before the implementation ------------------------------


def d1_oracle(rep, f):
    """(df)(x,y) = x.f(y) + f(x).y - f(x*y), straight from the closed form."""
    a = rep.algebra
    out = []
    for x, y in ((x, y) for x in range(a.dim) for y in range(a.dim)):
        val = rep.act_left(a.basis_vector(x), f.value_at((y,)))
        val = vec_add(val, rep.act_right(f.value_at((x,)), a.basis_vector(y)))
        val = vec_sub(val, f.evaluate([a.basis_product(x, y)]))
        out.append(((x, y), val))
    return out


def d2_oracle(rep, f):
    """(df)(x,y,z) = x.f(y,z) - y.f(x,z) + f(y,x).z - f(x,y).z
    - f(y, x*z) + f(x, y*z) - f([x,y], z)."""
    a = rep.algebra
    out = []
    for x, y, z in itertools.product(range(a.dim), repeat=3):
        ex, ey, ez = (a.basis_vector(t) for t in (x, y, z))
        val = rep.act_left(ex, f.value_at((y, z)))
        val = vec_sub(val, rep.act_left(ey, f.value_at((x, z))))
        val = vec_add(val, rep.act_right(f.value_at((y, x)), ez))
        val = vec_sub(val, rep.act_right(f.value_at((x, y)), ez))
        val = vec_sub(val, f.evaluate([ey, a.basis_product(x, z)]))
        val = vec_add(val, f.evaluate([ex, a.basis_product(y, z)]))
        br = vec_sub(a.basis_product(x, y), a.basis_product(y, x))
        val = vec_sub(val, f.evaluate([br, ez]))
        out.append(((x, y, z), val))
    return out


def test_sort_with_sign_against_permutation_parity():
    for n in (1, 2, 3, 4):
        for perm in itertools.permutations(range(n)):
            key, sign = sort_with_sign(perm)
            assert key == tuple(range(n))
            inversions = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            assert sign == (-1) ** inversions
    assert sort_with_sign((1, 1)) == ((1, 1), 0)


def test_degree_one_matches_closed_form():
    rng = random.Random(11)
    for rep in PAIRS:
        for _ in range(5):
            f = random_cochain(rep, 1, rng)
            df = coboundary(rep, f)
            for (x, y), val in d1_oracle(rep, f):
                assert df.value_at((x, y)) == val


def test_degree_two_matches_closed_form():
    rng = random.Random(12)
    for rep in PAIRS:
        for _ in range(5):
            f = random_cochain(rep, 2, rng)
            df = coboundary(rep, f)
            for (x, y, z), val in d2_oracle(rep, f):
                assert df.value_at((x, y, z)) == val


def test_d_squared_zero_on_random_cochains():
    rng = random.Random(13)
    for rep in PAIRS:
        for n in (1, 2, 3):
            f = random_cochain(rep, n, rng)
            assert coboundary(rep, coboundary(rep, f)).is_zero()


def test_d_squared_zero_as_matrices():
    for rep in PAIRS:
        for n in (1, 2):
            d_next = coboundary_matrix(rep, n + 1)
            d_n = coboundary_matrix(rep, n)
            assert (d_next @ d_n).is_zero()


def test_abelian_dimension_formula():
    for m in (1, 2, 3, 4):
        for v in (1, 2):
            rep = Representation.trivial(PreLieAlgebra.zero_product(m), v)
            for k in (1, 2, 3, 4):
                expected = math.comb(m, k - 1) * m * v
                assert cohomology(rep, k).dimension == expected


def test_h1_frozen_values():
    # hand computations: ker d_1 for a trivial module is the annihilator
    # of the span of all products; for the regular module of LMULT2 the
    # kernel is the maps e1 -> 0, e2 -> c*e2
    assert cohomology(Representation.trivial(LMULT2, 1), 1).dimension == 1
    assert cohomology(Representation.trivial(IDEM1, 1), 1).dimension == 0
    assert cohomology(Representation.regular(LMULT2), 1).dimension == 1


def test_representatives_are_cocycles_and_independent():
    for rep in PAIRS:
        for n in (1, 2, 3):
            h = cohomology(rep, n)
            assert len(h.representatives) == h.dimension
            for z in h.representatives:
                assert coboundary(rep, z).is_zero()
            for t, z in enumerate(h.representatives):
                coords = h.class_coordinates(z)
                assert coords == tuple(
                    F(1) if s == t else F(0) for s in range(h.dimension)
                )


def test_class_coordinates_kill_coboundaries():
    rng = random.Random(14)
    for rep in PAIRS:
        h = cohomology(rep, 2)
        b = random_cochain(rep, 1, rng)
        db = coboundary(rep, b)
        assert h.class_coordinates(db) == zero_vector(h.dimension)


def test_class_coordinates_scale_the_kernel_once(monkeypatch):
    import preliecoh.cochain as cochain

    rep = Representation.trivial(ABELIAN2, 1)
    h = cohomology(rep, 2)
    assert h.dimension > 1
    scalings = []
    original = cochain.integer_rows

    def counting(rows):
        rows = list(rows)
        if rows == list(h.kernel.rows):
            scalings.append(rows)
        return original(rows)

    monkeypatch.setattr(cochain, "integer_rows", counting)
    assert h.class_coordinates(h.representatives[0]) == (F(1), *[F(0)] * (h.dimension - 1))
    assert h.class_coordinates(h.representatives[1]) == (F(0), F(1), *[F(0)] * (h.dimension - 2))
    assert len(scalings) == 1


def test_are_cohomologous_positive_and_negative():
    rng = random.Random(15)
    rep = Representation.trivial(ABELIAN2, 1)
    h = cohomology(rep, 2)
    assert h.dimension > 0
    z = h.representatives[0]
    b = random_cochain(rep, 1, rng)
    shifted = z.add(coboundary(rep, b))
    prim = are_cohomologous(rep, shifted, z)
    assert prim is not None
    assert coboundary(rep, prim).to_coordinates() == shifted.sub(z).to_coordinates()
    other = scaled(z, F(2))
    assert are_cohomologous(rep, other, z) is None


CATALOG_PAIRS = representation_pairs()


@functools.cache
def catalog_space(index, n):
    """cohomology of catalog pair `index` in degree n, computed once."""
    return cohomology(CATALOG_PAIRS[index][1], n)


def sparse_cochains(rep, n):
    """Cochains of C^n with at most four nonzero coordinates."""
    size = len(CochainBasis(n, rep.algebra.dim)) * rep.carrier_dim
    if not size:
        return st.just(Cochain.zero(n, rep.algebra.dim, rep.carrier_dim))
    coords = st.dictionaries(st.integers(0, size - 1), st.fractions(-3, 3, max_denominator=3).filter(bool), max_size=4)
    return coords.map(lambda c: Cochain(n, rep.algebra.dim, rep.carrier_dim, tuple(sorted(c.items()))))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(CATALOG_PAIRS) - 1), st.integers(1, 3), st.data())
def test_class_coordinates_raise_exactly_on_non_cocycles(index, n, data):
    # class_coordinates is the closedness test of t_map and of the tmap
    # command: NotACocycle exactly when the reference coboundary is nonzero.
    # z is a combination of the representatives plus a coboundary, plus a
    # random sparse cochain half of the time
    name, rep = CATALOG_PAIRS[index]
    h = catalog_space(index, n)
    d, v = rep.algebra.dim, rep.carrier_dim
    coefficients = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=h.dimension, max_size=h.dimension))
    z = Cochain.zero(n, d, v)
    for c, r in zip(coefficients, h.representatives):
        z = z.add(scaled(r, c))
    if n > 1:
        z = z.add(coboundary(rep, data.draw(sparse_cochains(rep, n - 1))))
    noise = data.draw(st.one_of(st.none(), sparse_cochains(rep, n)))
    if noise is None:
        assert h.class_coordinates(z) == tuple(coefficients), (name, n)
        return
    z = z.add(noise)
    if coboundary(rep, z).is_zero():
        h.class_coordinates(z)
    else:
        with pytest.raises(NotACocycle):
            h.class_coordinates(z)


def test_are_cohomologous_guards():
    rep = Representation.trivial(ABELIAN2, 1)
    z2 = Cochain.zero(2, 2, 1)
    z3 = Cochain.zero(3, 2, 1)
    with pytest.raises(ArityMismatch):
        are_cohomologous(rep, z2, z3)
    with pytest.raises(ArityMismatch):
        are_cohomologous(rep, Cochain.zero(1, 2, 1), Cochain.zero(1, 2, 1))
    rep2 = Representation.regular(LMULT2)
    h2 = cohomology(rep2, 2)
    nonclosed = random_cochain(rep2, 2, random.Random(16))
    if not coboundary(rep2, nonclosed).is_zero():
        with pytest.raises(NotACocycle):
            are_cohomologous(rep2, nonclosed, Cochain.zero(2, 2, 2))


# --- the Lie side and the comparison map ------------------------------------


def test_hom_module_is_a_lie_module():
    for rep in PAIRS:
        assert check_lie_module(hom_module(rep))


def test_phi_is_a_bijective_relabeling():
    rng = random.Random(17)
    for rep in PAIRS:
        for n in (1, 2, 3):
            f = random_cochain(rep, n, rng)
            g = phi_map(f)
            assert g.arity == n - 1
            back = phi_inverse(g, rep.carrier_dim)
            assert back.to_coordinates() == f.to_coordinates()
            assert g.to_coordinates() == f.to_coordinates()


def test_phi_intertwines_the_differentials():
    for rep in PAIRS:
        mod = hom_module(rep)
        for n in (1, 2, 3):
            assert coboundary_matrix(rep, n) == lie_coboundary_matrix(mod, n - 1)


def test_dimension_comparison_both_paths():
    for rep in PAIRS:
        mod = hom_module(rep)
        for n in (1, 2, 3):
            assert cohomology(rep, n).dimension == lie_cohomology_dimension(mod, n - 1)


def test_lie_d_squared_zero():
    for rep in PAIRS[:4]:
        mod = hom_module(rep)
        for k in (0, 1):
            assert (lie_coboundary_matrix(mod, k + 1) @ lie_coboundary_matrix(mod, k)).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(1, 3), st.randoms(use_true_random=False))
def test_coboundary_is_linear(rep, n, rng):
    f = random_cochain(rep, n, rng)
    g = random_cochain(rep, n, rng)
    lhs = coboundary(rep, f.add(scaled(g, F(3, 2))))
    rhs = coboundary(rep, f).add(scaled(coboundary(rep, g), F(3, 2)))
    assert lhs.to_coordinates() == rhs.to_coordinates()


def test_alternating_storage():
    rng = random.Random(18)
    f = random_cochain(Representation.trivial(ABELIAN3, 2), 3, rng)
    assert f.value_at((1, 0, 2)) == vec_scale(F(-1), f.value_at((0, 1, 2)))
    assert f.value_at((1, 1, 2)) == zero_vector(2)


# --- sparse assembly against the reference formulas ---------------------------


# The reference formula of lie_coboundary_matrix.
def lie_coboundary(mod: LieModule, f: LieCochain) -> LieCochain:
    """Chevalley-Eilenberg differential d: C^k -> C^{k+1}, term by term
    in Fraction arithmetic; a term whose f value is zero is skipped."""
    lie = mod.algebra
    if f.algebra_dim != lie.dim or f.module_dim != mod.dim:
        raise DimensionMismatch("cochain does not match the module")
    k = f.arity
    values = []
    for args in increasing_tuples(lie.dim, k + 1):
        total = zero_vector(mod.dim)
        for i in range(1, k + 2):
            sign = ONE if i % 2 == 1 else -ONE
            val = f.value_at(args[: i - 1] + args[i:])
            if any(val):
                term = mod.act(lie.basis_vector(args[i - 1]), val)
                total = vec_add(total, vec_scale(sign, term))
        for i in range(1, k + 2):
            for j in range(i + 1, k + 2):
                sign = ONE if (i + j) % 2 == 0 else -ONE
                br = lie.basis_bracket(args[i - 1], args[j - 1])
                rest = tuple(args[t] for t in range(k + 1) if t not in (i - 1, j - 1))
                for t, c in enumerate(br):
                    if c != 0:
                        val = f.value_at((t,) + rest)
                        if any(val):
                            total = vec_add(total, vec_scale(sign * c, val))
        values.append(total)
    return LieCochain(k + 1, lie.dim, mod.dim, tuple(values))


def left_unit(dim):
    """e_1 * e_j = e_j: the left-unit family lu_dim."""
    return sparse_algebra(dim, {(0, j, j): 1 for j in range(dim)})


def transported(algebra, p):
    """The same algebra in the basis given by the columns of p."""
    p_inv = invert(p)
    d = algebra.dim
    cols = [col(p, i) for i in range(d)]
    prod = tuple(
        tuple(p_inv.mul_vec(algebra.multiply(cols[i], cols[j])) for j in range(d))
        for i in range(d)
    )
    return PreLieAlgebra(d, prod)


# lu2 extended by its regular module, in a basis where all 64 structure
# constants are nonzero
DENSE_BASIS = MatrixQ.from_rows(
    [[1, F(1, 2), 2, 0], [F(-2, 3), 1, 1, 1], [3, F(1, 3), 1, F(1, 2)], [1, 0, F(2, 3), 1]]
)
DENSE_REGULAR = Representation.regular(
    transported(semidirect_product(Representation.regular(left_unit(2))), DENSE_BASIS)
)

# catalog pairs (abelian trivial among them), lu2-lu5 regular, and one
# representation with no zero structure constants
SPARSE_CASES = (
    [(name, rep) for name, rep in representation_pairs() if rep.algebra.dim <= 3]
    + [(f"lu{d}/regular", Representation.regular(left_unit(d))) for d in (2, 3, 4, 5)]
    + [("dense4/regular", DENSE_REGULAR)]
)


def unit_vectors(size):
    for p in range(size):
        coords = [F(0)] * size
        coords[p] = F(1)
        yield p, coords


def test_tuple_rank_is_the_lexicographic_position():
    for dim in range(7):
        for m in range(dim + 1):
            for pos, t in enumerate(increasing_tuples(dim, m)):
                assert tuple_rank(t, dim) == pos
    with pytest.raises(ShapeError):
        tuple_rank((-1, 2), 3)
    with pytest.raises(ShapeError):
        tuple_rank((0, 3), 3)


def test_dense_case_is_a_dense_prelie_algebra():
    assert check_prelie(DENSE_REGULAR.algebra) is None
    a = DENSE_REGULAR.algebra
    assert all(c != 0 for i in range(a.dim) for j in range(a.dim) for c in a.basis_product(i, j))


def test_sparse_coboundary_matrix_matches_reference_columns():
    for name, rep in SPARSE_CASES:
        d, v = rep.algebra.dim, rep.carrier_dim
        for n in (1, 2, 3, 4):
            m = coboundary_matrix(rep, n)
            assert (m.rows, m.cols) == (len(CochainBasis(n + 1, d)) * v, len(CochainBasis(n, d)) * v)
            for p, unit in unit_vectors(m.cols):
                f = Cochain.from_coordinates(n, d, v, unit)
                assert col(m, p) == coboundary(rep, f).to_coordinates(), (name, n, p)


def test_sparse_lie_matrix_and_phi_match_reference_columns():
    for name, rep in SPARSE_CASES:
        d, v = rep.algebra.dim, rep.carrier_dim
        mod = hom_module(rep)
        for n in (1, 2, 3, 4):
            m = lie_coboundary_matrix(mod, n - 1)
            assert m.cols == math.comb(d, n - 1) * mod.dim
            for p, unit in unit_vectors(m.cols):
                f = LieCochain.from_coordinates(n - 1, d, mod.dim, unit)
                assert col(m, p) == lie_coboundary(mod, f).to_coordinates(), (name, n, p)
            for p, unit in unit_vectors(len(CochainBasis(n, d)) * v):
                f = Cochain.from_coordinates(n, d, v, unit)
                assert phi_map(f).to_coordinates() == tuple(unit), (name, n, p)


# Units of the product, left and right constants in the mixed-denominator
# cases: every entry is a small integer times its tensor's unit.
UNITS = (F(1, 3), F(-2, 5), F(7, 6))


def tensor_shapes(d, v):
    """Shapes of the product, left and right tensors of a representation."""
    return (d, d, d), (d, v, v), (v, d, v)


@st.composite
def mixed_denominator_cases(draw):
    """(d, v, cells): algebra and carrier dims 1-3 and, for the product,
    left and right tensors, a sparse {index: integer} dict of each."""
    d, v = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = tuple(
        draw(st.dictionaries(st.tuples(*(st.integers(0, s - 1) for s in shape)), st.integers(-3, 3), max_size=8))
        for shape in tensor_shapes(d, v)
    )
    return d, v, cells


@settings(max_examples=60, deadline=None)
@given(mixed_denominator_cases(), st.integers(1, 3))
@example((2, 2, ({}, {}, {})), 2)
@example((2, 1, ({(0, 1, 1): 1}, {}, {})), 2)
@example((2, 2, ({}, {(1, 0, 1): -1}, {})), 1)
@example((3, 1, ({}, {}, {(0, 2, 0): 2})), 3)
def test_mixed_denominator_matrices_match_reference_columns(case, n):
    # the constructors check shapes only and both sides are linear in the
    # tensors, so the tensors need not satisfy any axiom
    d, v, cells = case
    prod, left, right = (
        sparse_tensor(*shape, {idx: c * unit for idx, c in cell.items()})
        for shape, cell, unit in zip(tensor_shapes(d, v), cells, UNITS)
    )
    rep = Representation(PreLieAlgebra(d, prod), v, left, right)
    m = coboundary_matrix(rep, n)
    for p, unit in unit_vectors(m.cols):
        f = Cochain.from_coordinates(n, d, v, unit)
        assert col(m, p) == coboundary(rep, f).to_coordinates(), p
    mod = hom_module(rep)
    m = lie_coboundary_matrix(mod, n - 1)
    for p, unit in unit_vectors(m.cols):
        f = LieCochain.from_coordinates(n - 1, d, mod.dim, unit)
        assert col(m, p) == lie_coboundary(mod, f).to_coordinates(), p


def differentials_digest(matrices):
    """sha256 over the shape and the stored nonzeros of each matrix; the
    repr spells out every Fraction, so a changed value or type shows."""
    h = hashlib.sha256()
    for m in matrices:
        h.update(repr((m.rows, m.cols, m.nonzeros)).encode())
    return h.hexdigest()


# differentials_digest of d_1..d_4 per case, recorded from the Fraction
# assembly; phi makes the Lie matrices L_0..L_3 of hom_module the same
# matrices, so they hash the same
DIFFERENTIAL_DIGESTS = {
    "abelian1/trivial1": "eacd1d8ea5a1d7d3e05f331c540566b8b80857d1926bec88c72244cf5019eeb9",
    "abelian1/trivial2": "3674b0bbc4382840bee578ae5f03b3b851e5cc8138f71c298f5aa01273a7c30a",
    "abelian2/trivial1": "4f0d48cd2409dc5194064b8f15fc4cb58d40eac31d0729f9b9bc7b2536df339a",
    "abelian2/trivial2": "7c52e9ca3ce273a2b936ddea41c7a95182202768e8cf444ddf1c9a23b0c56536",
    "abelian3/trivial1": "c2b235520d19b7308b2c46379b2a83124898a2b106d40bc36ff4373349bede61",
    "abelian3/trivial2": "8dcc6e7beec0e10cad5a0474cc20009c84762407b7bcce4252cd2e324b08b070",
    "abelian4/trivial1": "a14c06472a36e378cee01972e7f325772b28a9fa3757bb6fc48fb0ee7038a82d",
    "abelian4/trivial2": "cf01f6d503a2ae63abd16ab5203b4a498f3a070dbb91ad24c4e183fc09172b27",
    "abelian3/weight100": "7031e50946e22895b851ddca505ccf69b6f8560d783c4b39ee55e0a973a106dd",
    "idem1/trivial1": "d0d7fc220022ca1cbbe07c3c05cd5bcdf355ff20b6d46303a026a6adcde8ad21",
    "idem1/regular": "24295106a535ec3392c09db174f5b455d9066058f739203cc54dd99a9177bca9",
    "lmult2/trivial1": "00956646055aab99981a42b26f35a720e93fcfde40927dd4256b2703ded86dcf",
    "lmult2/regular": "f9392113e3232ce98017361075d9907232941e101d9dfdb2b39ffe56e6cfe691",
    "affine2/trivial1": "301417a5a5541b3dbd389e6f2e83e1a1f211866e83a648241e1835f46598becd",
    "affine2/regular": "0b41bf28f1b48823dd00695aa7f7b1daba7d50d456d7d31d9865472df8e22c36",
    "affine3/trivial1": "e70476218c9034bf5b7705b55aaeff3e52b6201574e5cef353cf665e1aa996f3",
    "affine3/regular": "50cd6debcb326a72ebc3e44297c735aec65d4c7aaa7bbb4817ae9c7f44c8b955",
    "lmult2/trivial2": "ab7b460c2240f634daa66a97af9124aabf73852e02fad3a6c37776684ea6ccb4",
    "affine3/trivial2": "71e7eebe0f2eeb13bbdf6c4fd691ec2e1ab7e1e37969c3167d99d104df1a2b4f",
    "dense4/regular": "d6e5d25079889ed7ed0d58d1279110d7218863f61ce74620e8ff1744dd2edd2e",
}


def test_catalog_differentials_equal_the_recorded_ones():
    cases = representation_pairs() + [("dense4/regular", DENSE_REGULAR)]
    assert [name for name, _ in cases] == list(DIFFERENTIAL_DIGESTS)
    for name, rep in cases:
        mod = hom_module(rep)
        assert differentials_digest(coboundary_matrix(rep, n) for n in (1, 2, 3, 4)) == DIFFERENTIAL_DIGESTS[name], name
        assert differentials_digest(lie_coboundary_matrix(mod, k) for k in (0, 1, 2, 3)) == DIFFERENTIAL_DIGESTS[name], name


def seeded_cocycle(cx, h, rng):
    """A combination of h's representatives with seeded coefficients, plus
    the coboundary of a seeded cochain, through the complex's d_{n-1}."""
    rep, n = cx.rep, h.arity
    d, v = rep.algebra.dim, rep.carrier_dim
    z = Cochain.zero(n, d, v)
    for r in h.representatives:
        z = z.add(scaled(r, F(rng.randint(-3, 3), rng.randint(1, 3))))
    if n > 1:
        b = random_cochain(rep, n - 1, rng).to_coordinates()
        z = z.add(Cochain(n, d, v, sparse_row(cx.d(n - 1).mul_vec(b))))
    return z


def cohomology_answers():
    """One line per answer of cohomology on every catalog representation
    (degrees 1-3) and on DENSE_REGULAR (degrees 1-2): the dimension and
    representatives, the class coordinates of each representative and of
    seeded combinations of them plus a coboundary, and the NotACocycle
    text of one such combination plus a unit cochain that is not closed."""
    rng = random.Random(24)
    cases = [(name, rep, (1, 2, 3)) for name, rep in representation_pairs()]
    cases.append(("dense4/regular", DENSE_REGULAR, (1, 2)))
    for name, rep, degrees in cases:
        cx = CochainComplex(rep)
        d, v = rep.algebra.dim, rep.carrier_dim
        for n in degrees:
            h = cohomology(cx, n)
            yield repr((name, n, h.dimension, h.representatives))
            for r in h.representatives:
                yield repr(h.class_coordinates(r))
            for _ in range(3):
                z = seeded_cocycle(cx, h, rng)
                yield repr(h.class_coordinates(z))
            unclosed = next((k for k, c in enumerate(cx.d(n).transpose().nonzeros) if c), None)
            if unclosed is not None:
                with pytest.raises(NotACocycle) as caught:
                    h.class_coordinates(z.add(Cochain(n, d, v, ((unclosed, F(1, 2)),))))
                yield str(caught.value)


# sha256 over cohomology_answers, recorded from the cohomology that built a
# quotient of all of C^n, reduced every kernel row and scanned them greedily
COHOMOLOGY_DIGEST = "fd655840235fd4d03664254e651d7e178df857d59d1d9739e2eddf6ffa97685c"


def test_cohomology_answers_equal_the_recorded_ones():
    h = hashlib.sha256()
    lines = 0
    for line in cohomology_answers():
        h.update(line.encode() + b"\n")
        lines += 1
    assert lines == 528
    assert h.hexdigest() == COHOMOLOGY_DIGEST


def test_cochain_complex_builds_each_differential_once(monkeypatch):
    import preliecoh.cochain as cochain

    built = []
    original = cochain.coboundary_matrix

    def counting(rep, n):
        built.append(n)
        return original(rep, n)

    references = []
    monkeypatch.setattr(cochain, "coboundary_matrix", counting)
    monkeypatch.setattr(cochain, "coboundary", lambda rep, f: references.append(f))
    rep = Representation.regular(LMULT2)
    cx = CochainComplex(rep)
    spaces = [cohomology(cx, n) for n in (1, 2, 3)]
    z = spaces[1].representatives[0]
    assert are_cohomologous(cx, z, z) is not None
    assert sorted(built) == [1, 2, 3]
    # closedness is tested with the complex's d_2, not the reference formula
    assert references == []
    monkeypatch.setattr(cochain, "coboundary_matrix", original)
    rng = random.Random(16)
    for n, h in zip((1, 2, 3), spaces):
        fresh = cohomology(rep, n)
        assert h.representatives == fresh.representatives
        z = seeded_cocycle(cx, h, rng)
        assert h.class_coordinates(z) == fresh.class_coordinates(z)


def test_assembling_lu7_d3_stores_only_nonzeros():
    # 1455 nonzeros of 1715 x 1029; a dense layout peaks near 30 MB
    rep = Representation.regular(left_unit(7))
    tracemalloc.start()
    try:
        m = coboundary_matrix(rep, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (m.rows, m.cols) == (1715, 1029)
    assert peak < 2_000_000, peak


def test_assembling_a_zero_d3_allocates_nothing_per_empty_row():
    # a dict per row of the accumulator costs about 120 bytes a row
    rep = Representation.trivial(PreLieAlgebra.zero_product(12), 1)
    tracemalloc.start()
    try:
        m = coboundary_matrix(rep, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.rows == 2640 and m.is_zero()
    assert peak < 40 * m.rows, peak


def cn_quotient(cx, n):
    """The QuotientMap of all of C^n by im d_{n-1}."""
    space_dim = cx.eliminated(n)[1].ambient_dim
    return QuotientMap.build(space_dim, SubspaceBasis(space_dim, ()) if n == 1 else cx.eliminated(n - 1)[2])


def cn_cohomology(cx, n):
    """cohomology as it was before kernel coordinates: every kernel row of
    d_n reduced by cn_quotient and scanned by greedy_independent, kept as
    the oracle of the representatives and class coordinates. Returns (the
    quotient, the representatives, the reduced representatives as
    columns)."""
    rep = cx.rep
    kernel = cx.eliminated(n)[1]
    quot = cn_quotient(cx, n)
    candidates = [quot.reduce_row(row) for row in kernel.rows]
    kept = greedy_independent(candidates)
    reps = tuple(Cochain(n, rep.algebra.dim, rep.carrier_dim, kernel.rows[i]) for i in kept)
    reduced = MatrixQ(len(kept), quot.dim, tuple(candidates[i] for i in kept)).transpose()
    return quot, reps, reduced


def cn_class_coordinates(quot, reduced, z):
    """class_coordinates on the quotient of all of C^n: the reduction of z
    solved against the reduced representatives."""
    coords = solve_particular(reduced, quot.reduce_row(z.row))
    if coords is None:
        raise NotACocycle("vector does not reduce into the span of the representatives")
    return coords


def rank_rule_representatives(rep, n):
    """Representative choice by a full rank_of of the growing trial matrix
    for every kernel vector reduced into cn_quotient: the rule the
    incremental selection replaced. Returns (the representatives as dense
    vectors, the quotient, the reduced representatives as columns)."""
    quot = cn_quotient(CochainComplex(rep), n)
    _, kernel, _ = rank_kernel_image(coboundary_matrix(rep, n))
    reps, reduced = [], []
    for v in kernel.vectors:
        cand = quot.reduce(v)
        if rank_of(from_cols(reduced + [cand], rows=quot.dim)) == len(reduced) + 1:
            reps.append(v)
            reduced.append(cand)
    return reps, quot, from_cols(reduced, rows=quot.dim)


ORACLE_CASES = CATALOG_PAIRS + [("dense4/regular", DENSE_REGULAR)]


@functools.cache
def oracle_spaces(index, n):
    """cohomology of ORACLE_CASES[index] in degree n, and cn_cohomology."""
    cx = CochainComplex(ORACLE_CASES[index][1])
    return cohomology(cx, n), cn_cohomology(cx, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(ORACLE_CASES) - 1), st.integers(1, 3), st.data())
def test_kernel_coordinates_equal_the_cn_quotient_oracle(index, n, data):
    # a combination of the representatives plus a coboundary, plus a random
    # sparse cochain half of the time: both paths give the same
    # coordinates, or both raise the same NotACocycle
    name, rep = ORACLE_CASES[index]
    h, (quot, reps, reduced) = oracle_spaces(index, n)
    assert h.representatives == reps, (name, n)
    coefficients = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=h.dimension, max_size=h.dimension))
    z = Cochain.zero(n, rep.algebra.dim, rep.carrier_dim)
    for c, r in zip(coefficients, reps):
        z = z.add(scaled(r, c))
    if n > 1:
        z = z.add(coboundary(rep, data.draw(sparse_cochains(rep, n - 1))))
    noise = data.draw(st.one_of(st.none(), sparse_cochains(rep, n)))
    if noise is not None:
        z = z.add(noise)
    try:
        want = cn_class_coordinates(quot, reduced, z)
    except NotACocycle as exc:
        with pytest.raises(NotACocycle) as caught:
            h.class_coordinates(z)
        assert str(caught.value) == str(exc)
    else:
        assert h.class_coordinates(z) == want, (name, n)


def test_incremental_selection_picks_the_rank_rule_representatives():
    rng = random.Random(17)
    cases = [rep for _, rep in representation_pairs()]
    cases += [Representation.regular(left_unit(d)) for d in (2, 3, 4)]
    for rep in cases:
        cx = CochainComplex(rep)
        for n in (1, 2, 3):
            h = cohomology(cx, n)
            reps, quot, reduced = rank_rule_representatives(rep, n)
            assert [r.to_coordinates() for r in h.representatives] == reps
            z = seeded_cocycle(cx, h, rng)
            assert h.class_coordinates(z) == cn_class_coordinates(quot, reduced, z)


def dense_cohomology(rep, n):
    """cohomology as it was before kernels, images and representatives were
    built from Rows, on the dense oracles of test_linalg: (kernel vectors,
    image vectors, quotient, representatives, reduced_reps). The rref under
    them is the engine's, which the test above holds to dense_rref."""
    a_dim, v_dim = rep.algebra.dim, rep.carrier_dim
    d = coboundary_matrix(rep, n)
    _, kernel, _ = dense_rank_kernel_image(d)
    image = dense_rank_kernel_image(coboundary_matrix(rep, n - 1))[2] if n > 1 else ()
    quot = DenseQuotient(d.cols, image)
    candidates = [quot.reduce(v) for v in kernel]
    kept = greedy_independent(map(sparse_row, candidates))
    reps = tuple(Cochain.from_coordinates(n, a_dim, v_dim, kernel[i]) for i in kept)
    reduced_reps = from_cols([candidates[i] for i in kept], rows=quot.dim)
    return kernel, image, quot, reps, reduced_reps


def test_rref_of_every_catalog_differential_equals_the_dense_oracle():
    for name, rep in representation_pairs() + [("dense4/regular", DENSE_REGULAR)]:
        for n in (1, 2, 3, 4):
            rows = coboundary_matrix(rep, n).integer[1]
            assert _rref(rows) == dense_rref_rows(rows), (name, n)


def test_sparse_cohomology_equals_the_dense_oracles_on_the_catalog():
    rng = random.Random(12)
    cases = representation_pairs() + [("dense4/regular", DENSE_REGULAR)]
    cases += [(f"lu{d}/regular", Representation.regular(left_unit(d))) for d in (2, 3, 4)]
    for name, rep in cases:
        cx = CochainComplex(rep)
        for n in (1, 2, 3):
            h = cohomology(cx, n)
            kernel, image, quot, reps, reduced_reps = dense_cohomology(rep, n)
            assert cx.eliminated(n)[1].vectors == kernel, (name, n)
            if n > 1:
                assert cx.eliminated(n - 1)[2].vectors == image, (name, n)
            q, cn_reps, cn_reduced = cn_cohomology(cx, n)
            assert (quotient_rref(q), q.pivots, q.complement) == (quot.sub_rref, quot.pivots, quot.complement), (name, n)
            assert h.representatives == cn_reps == reps, (name, n)
            assert cn_reduced == reduced_reps, (name, n)
            # a random cocycle: a combination of the representatives plus a
            # coboundary
            z = Cochain.zero(n, rep.algebra.dim, rep.carrier_dim)
            for r in reps:
                z = z.add(scaled(r, F(rng.randint(-3, 3), rng.randint(1, 3))))
            if n > 1:
                z = z.add(coboundary(rep, random_cochain(rep, n - 1, rng)))
            for c in (*reps, z):
                want = solve_particular(reduced_reps, sparse_row(quot.reduce(c.to_coordinates())))
                assert h.class_coordinates(c) == cn_class_coordinates(q, cn_reduced, c) == want, (name, n)


def test_representatives_built_from_rows_equal_the_coordinate_build():
    rng = random.Random(5)
    for n, d, v in [(1, 1, 1), (2, 3, 2), (3, 4, 3)]:
        size = len(CochainBasis(n, d)) * v
        for _ in range(5):
            coords = [F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else F(0) for _ in range(size)]
            f = Cochain(n, d, v, sparse_row(coords))
            assert f == Cochain.from_coordinates(n, d, v, coords)
            assert f.to_coordinates() == tuple(coords)
        assert Cochain(n, d, v, ()) == Cochain.zero(n, d, v)
        with pytest.raises(ShapeError):
            Cochain(n, d, v, ((size, F(1)),))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
def test_cochain_readers_equal_the_dense_values(n, d, v, data):
    # every reader of the Row against the dense table of V-vectors, one
    # per CochainBasis position
    basis = CochainBasis(n, d)
    entry = st.one_of(st.just(F(0)), st.just(F(0)), st.fractions(-3, 3, max_denominator=3))
    coords = [data.draw(st.lists(entry, min_size=len(basis) * v, max_size=len(basis) * v)) for _ in range(2)]
    f, g = (Cochain.from_coordinates(n, d, v, c) for c in coords)
    table = [tuple(coords[0][p * v : (p + 1) * v]) for p in range(len(basis))]
    for p, (prefix, last) in enumerate(basis.tuples):
        assert basis.args(p) == prefix + (last,)
        assert f.value_at(prefix + (last,)) == table[p]
        if n > 2:  # swapping two leading arguments negates the value
            swapped = (prefix[1], prefix[0], *prefix[2:], last)
            assert f.value_at(swapped) == vec_scale(F(-1), table[p])
    if n > 2:
        assert f.value_at((0, 0) + (0,) * (n - 2)) == zero_vector(v)
    want = [
        (prefix + (last,), sparse_row(value))
        for (prefix, last), value in zip(basis.tuples, table)
        if any(value)
    ]
    assert list(f.nonzero_values()) == want
    assert f.add(g).to_coordinates() == tuple(x + y for x, y in zip(*coords))
    assert f.sub(g).to_coordinates() == tuple(x - y for x, y in zip(*coords))
    assert f.is_zero() == (not any(coords[0]))
    twin = Cochain.from_coordinates(n, d, v, list(coords[0]))
    assert f == twin and hash(f) == hash(twin)
    assert f.sub(f) == Cochain.zero(n, d, v)


def test_cochain_complex_eliminates_each_differential_once(monkeypatch):
    import preliecoh.cochain as cochain

    eliminated = []
    original = cochain.rank_kernel_image

    def counting(m):
        eliminated.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(cochain, "rank_kernel_image", counting)
    cx = CochainComplex(Representation.regular(LMULT2))
    for n in (1, 2, 3):
        cohomology(cx, n)
    assert eliminated == [(cx.d(n).rows, cx.d(n).cols) for n in (1, 2, 3)]


# abelian and left-unit algebras of dims 2-5 with their trivial 1-dim and
# regular representations, and every catalog representation
RANK_CASES = representation_pairs() + [
    (f"{family}{d}/{kind}", make(algebra(d)))
    for family, algebra in (("ab", PreLieAlgebra.zero_product), ("lu", left_unit))
    for d in (2, 3, 4, 5)
    for kind, make in (("trivial", lambda a: Representation.trivial(a, 1)), ("regular", Representation.regular))
]


@pytest.mark.parametrize("rep", [rep for _, rep in RANK_CASES], ids=[name for name, _ in RANK_CASES])
def test_cohomology_dimension_from_ranks_matches_cohomology(rep, monkeypatch):
    import preliecoh.cochain as cochain

    degrees = (1, 2, 3, 4)
    ranks_first = CochainComplex(rep)
    dims = [cohomology_dimension(ranks_first, n) for n in degrees]
    assert dims == [cohomology(ranks_first, n).dimension for n in degrees]
    spaces_first = CochainComplex(rep)
    assert [cohomology(spaces_first, n).dimension for n in degrees] == dims

    def no_rank_of(m):
        raise AssertionError("rank of an eliminated d_n computed again")

    # every rank is read off the cached eliminations
    monkeypatch.setattr(cochain, "rank_of", no_rank_of)
    assert [cohomology_dimension(spaces_first, n) for n in degrees] == dims


def test_cohomology_dimension_rejects_degree_zero():
    with pytest.raises(ShapeError):
        cohomology_dimension(Representation.regular(LMULT2), 0)
