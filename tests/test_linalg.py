"""Foundation tests: frozen worked examples plus randomized properties.

The frozen expected values below were computed by hand (row reduction on
paper) before the implementation existed and must never be edited to
match the code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh.errors import BadBasis, DimensionMismatch
from preliecoh.linalg import (
    MatrixQ,
    QuotientMap,
    SubspaceBasis,
    invert,
    quotient_reduce,
    rank_kernel_image,
    rank_of,
    right_inverse_on_image,
    solve_particular,
    vector,
    zero_vector,
)

F = Fraction


def mat(rows):
    return MatrixQ.from_rows(rows)


# --- frozen examples -------------------------------------------------------


def test_rank_kernel_image_rank_one():
    rank, ker, img = rank_kernel_image(mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert ker.vectors == (vector([-2, 1]),)
    assert img.vectors == (vector([1, 2]),)


def test_rank_kernel_image_zero_matrix():
    rank, ker, img = rank_kernel_image(MatrixQ.zero(2, 2))
    assert rank == 0
    assert ker.vectors == (vector([1, 0]), vector([0, 1]))
    assert img.vectors == ()


def test_rank_kernel_image_identity():
    rank, ker, img = rank_kernel_image(MatrixQ.identity(3))
    assert rank == 3
    assert ker.vectors == ()
    assert img.vectors == tuple(MatrixQ.identity(3).col(j) for j in range(3))


def test_solve_identity():
    x = solve_particular(MatrixQ.identity(2), vector([3, 5]))
    assert x == vector([3, 5])


def test_solve_inconsistent_returns_none():
    assert solve_particular(mat([[1, 2], [2, 4]]), vector([1, 0])) is None


def test_solve_free_variables_zero():
    x = solve_particular(mat([[1, 2], [2, 4]]), vector([1, 2]))
    assert x == vector([1, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_particular(MatrixQ.identity(2), vector([1, 2, 3]))


def test_right_inverse_identity():
    assert right_inverse_on_image(MatrixQ.identity(3)) == MatrixQ.identity(3)


def test_right_inverse_row_matrix():
    m = mat([[1, 0]])
    s = right_inverse_on_image(m)
    assert s == MatrixQ.from_rows([[1], [0]])
    assert m @ s == MatrixQ.identity(1)


def test_right_inverse_zero_matrix():
    m = MatrixQ.zero(2, 3)
    assert right_inverse_on_image(m) == MatrixQ.zero(3, 2)


def test_quotient_reduce_plane_mod_axis():
    sub = SubspaceBasis(2, (vector([1, 0]),))
    assert quotient_reduce(2, sub, vector([3, 7])) == vector([7])


def test_quotient_reduce_skew_line():
    # span{(1,1)} in Q^2: pivot coordinate 0, complement (1,)
    sub = SubspaceBasis(2, (vector([1, 1]),))
    assert quotient_reduce(2, sub, vector([3, 7])) == vector([4])


def test_quotient_rejects_dependent_spanning_set():
    sub = SubspaceBasis(2, (vector([1, 0]), vector([2, 0])))
    with pytest.raises(BadBasis):
        QuotientMap.build(2, sub)


def test_quotient_lift_then_reduce_is_identity():
    q = QuotientMap.build(3, SubspaceBasis(3, (vector([1, 2, 3]),)))
    coords = vector([5, -1])
    assert q.reduce(q.lift(coords)) == coords


def test_invert_singular_raises():
    with pytest.raises(BadBasis):
        invert(mat([[1, 2], [2, 4]]))


# --- randomized properties --------------------------------------------------

fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(fracs, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(MatrixQ.from_rows)
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_matmul_equals_triple_sum(r, k, c, data):
    # half the entries zero, so the zero-skipping product is exercised
    entries = st.one_of(st.just(F(0)), fracs)
    a = MatrixQ(r, k, tuple(data.draw(st.lists(entries, min_size=r * k, max_size=r * k))))
    b = MatrixQ(k, c, tuple(data.draw(st.lists(entries, min_size=k * c, max_size=k * c))))
    want = tuple(
        sum((a.at(i, t) * b.at(t, j) for t in range(k)), F(0))
        for i in range(r)
        for j in range(c)
    )
    assert (a @ b).entries == want


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank_of(m) == rank_of(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_and_image_shapes(m):
    rank, ker, img = rank_kernel_image(m)
    assert rank + ker.dim == m.cols
    assert img.dim == rank
    for v in ker.vectors:
        assert m.mul_vec(v) == zero_vector(m.rows)
    if img.vectors:
        assert rank_of(img.as_column_matrix()) == rank


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_right_inverse_property(m):
    s = right_inverse_on_image(m)
    assert (s.rows, s.cols) == (m.cols, m.rows)
    assert m @ s @ m == m


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_consistency(m, data):
    x0 = data.draw(st.lists(fracs, min_size=m.cols, max_size=m.cols))
    b = m.mul_vec(tuple(x0))
    x = solve_particular(m, b)
    assert x is not None
    assert m.mul_vec(x) == b


@settings(max_examples=60, deadline=None)
@given(matrices(3), st.data())
def test_quotient_kills_subspace_and_is_linear(m, data):
    _, _, img = rank_kernel_image(m)
    q = QuotientMap.build(m.rows, img)
    for v in img.vectors:
        assert q.reduce(v) == zero_vector(q.dim)
    u = tuple(data.draw(st.lists(fracs, min_size=m.rows, max_size=m.rows)))
    w = tuple(data.draw(st.lists(fracs, min_size=m.rows, max_size=m.rows)))
    lhs = q.reduce(tuple(a + b for a, b in zip(u, w)))
    rhs = tuple(a + b for a, b in zip(q.reduce(u), q.reduce(w)))
    assert lhs == rhs
    red = q.reduce_matrix()
    assert red.mul_vec(u) == q.reduce(u)
