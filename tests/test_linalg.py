"""Foundation tests: frozen worked examples plus randomized properties.

The frozen expected values below were computed by hand (row reduction on
paper) before the implementation existed and must never be edited to
match the code.
"""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preliecoh import linalg
from preliecoh.errors import BadBasis, DimensionMismatch
from preliecoh.linalg import (
    MatrixQ,
    QuotientMap,
    SubspaceBasis,
    _rref,
    greedy_independent,
    invert,
    rank_kernel_image,
    rank_of,
    right_inverse_on_image,
    solve_particular,
    vector,
    zero_vector,
)

F = Fraction


def quotient_reduce(ambient_dim, sub, v):
    """Coordinates of v in Q^ambient_dim / span(sub); see QuotientMap."""
    return QuotientMap.build(ambient_dim, sub).reduce(v)


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


# --- the integer engine against the dense oracle ----------------------------


def dense_rref(rows):
    """Reduce rows in place to reduced row echelon form; return pivot columns.

    The dense Fraction Gauss-Jordan elimination the library used before
    its integer engine, kept as the oracle: columns left to right, within
    a column the first row (top-down) with a nonzero entry.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


@contextlib.contextmanager
def dense_engine():
    """Run the linalg functions on the oracle instead of the engine."""
    saved = linalg._rref
    linalg._rref = dense_rref
    try:
        yield
    finally:
        linalg._rref = saved


sparse_fracs = st.one_of(st.just(F(0)), fracs)


def rows_of(r, c):
    return st.lists(st.lists(sparse_fracs, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def rational_rows(draw, max_dim=6):
    """Rows of a rational matrix: plain, rank-deficient, with zero rows,
    or augmented by an identity block."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rows = draw(rows_of(r, c))
    kind = draw(st.sampled_from(["plain", "low_rank", "zero_rows", "augmented"]))
    if kind == "low_rank":
        k = draw(st.integers(0, min(r, c)))
        a, b = draw(rows_of(r, k)), draw(rows_of(k, c))
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(c)] for i in range(r)]
    elif kind == "zero_rows":
        rows = [row if draw(st.booleans()) else [F(0)] * c for row in rows]
    elif kind == "augmented":
        rows = [row + [F(int(i == j)) for j in range(r)] for i, row in enumerate(rows)]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_rows())
@example([])
@example([[], []])
@example([[F(0), F(2), F(-3, 4)]])
@example([[F(1, 2)], [F(0)], [F(-5)]])
@example([[F(0)] * 3] * 3)
def test_rref_equals_dense_oracle(rows):
    got = [list(r) for r in rows]
    want = [list(r) for r in rows]
    assert _rref(got) == dense_rref(want)
    assert got == want


def outcome(fn, *args):
    try:
        return fn(*args)
    except BadBasis:
        return BadBasis


@settings(max_examples=150, deadline=None)
@given(rational_rows(5), st.data())
def test_linalg_results_equal_oracle_built_results(rows, data):
    cols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    m = MatrixQ.from_rows(rows) if rows else MatrixQ.zero(0, cols)
    b = tuple(data.draw(st.lists(sparse_fracs, min_size=m.rows, max_size=m.rows)))
    x0 = tuple(data.draw(st.lists(sparse_fracs, min_size=m.cols, max_size=m.cols)))
    u = tuple(data.draw(st.lists(sparse_fracs, min_size=m.rows, max_size=m.rows)))

    def results():
        _, _, img = rank_kernel_image(m)
        q = QuotientMap.build(m.rows, img)
        return (
            rank_kernel_image(m),
            solve_particular(m, b),
            solve_particular(m, m.mul_vec(x0)),
            outcome(invert, m) if m.rows == m.cols else None,
            right_inverse_on_image(m),
            (q.sub_rref, q.pivots, q.complement, q.reduce(u), q.reduce_matrix()),
        )

    got = results()
    with dense_engine():
        want = results()
    assert got == want
    assert rank_of(m) == len(dense_rref(m.row_list()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(sparse_fracs, min_size=c, max_size=c), max_size=6)))
def test_greedy_independent_equals_rank_rule(vectors):
    kept = []
    for i, v in enumerate(vectors):
        trial = MatrixQ.from_cols([vectors[j] for j in kept] + [v])
        if rank_of(trial) == len(kept) + 1:
            kept.append(i)
    assert greedy_independent(vectors) == kept
