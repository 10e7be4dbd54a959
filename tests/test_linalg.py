"""Foundation tests: frozen worked examples plus randomized properties.

The frozen expected values below were computed by hand (row reduction on
paper) before the implementation existed and must never be edited to
match the code.
"""

import contextlib
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preliecoh import linalg
from preliecoh.algebra import Representation
from preliecoh.catalog import ALGEBRAS, BAD_ALGEBRA, sparse_algebra
from preliecoh.cochain import Cochain, coboundary, coboundary_matrix
from preliecoh.documents import document_from_obj
from preliecoh.errors import BadBasis, DimensionMismatch, ShapeError
from preliecoh.linalg import (
    MatrixQ,
    QuotientMap,
    SubspaceBasis,
    _rref,
    dense_vector,
    in_kernel,
    integer_rows,
    invert,
    is_zero_vector,
    rank_kernel_image,
    rank_of,
    right_inverse_on_image,
    solve_particular,
    sparse_row,
    standard_basis_vector,
    vector,
    zero_vector,
)

F = Fraction


def _scaled(rows):
    """Each Row times the lcm of its denominators, as an IntRow: rows of
    Fractions for `_rref`, each scaled on its own rather than over one
    common denominator as `integer_rows` does. Any rational values are
    read, so a row of ints keeps its values."""
    for row in rows:
        den = lcm(*(x.denominator for _, x in row))
        yield tuple([(j, x.numerator * (den // x.denominator)) for j, x in row])


def quotient_reduce(ambient_dim, sub, v):
    """Coordinates of v in Q^ambient_dim / span(sub); see QuotientMap."""
    return QuotientMap.build(ambient_dim, sub).reduce(v)


def mat(rows):
    return MatrixQ.from_rows(rows)


# Dense views of matrices and quotients that only the tests read.


def col(m, j):
    """Column j of m as a dense vector."""
    return tuple(m.at(i, j) for i in range(m.rows))


def from_cols(cols, rows=None):
    """The matrix whose columns are the dense vectors cols; rows states
    their length when there are none."""
    return MatrixQ.from_rows(cols, rows).transpose()


def dense_entries(m):
    """All rows * cols entries of m, row-major."""
    return tuple(x for i in range(m.rows) for x in m.row(i))


def lift(q, coords):
    """The vector with coords at the complement positions of the quotient
    q and zero at its pivots: a section of q.reduce."""
    if len(coords) != q.dim:
        raise DimensionMismatch("coordinate length differs from quotient dimension")
    w = [F(0)] * q.ambient_dim
    for c, j in zip(coords, q.complement):
        w[j] = c
    return tuple(w)


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
    assert img.vectors == tuple(col(MatrixQ.identity(3), j) for j in range(3))


def test_solve_identity():
    x = solve_particular(MatrixQ.identity(2), sparse_row(vector([3, 5])))
    assert x == vector([3, 5])


def test_solve_inconsistent_returns_none():
    assert solve_particular(mat([[1, 2], [2, 4]]), sparse_row(vector([1, 0]))) is None


def test_solve_free_variables_zero():
    x = solve_particular(mat([[1, 2], [2, 4]]), sparse_row(vector([1, 2])))
    assert x == vector([1, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_particular(MatrixQ.identity(2), sparse_row(vector([1, 2, 3])))


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
    sub = SubspaceBasis.from_vectors(2, (vector([1, 0]),))
    assert quotient_reduce(2, sub, vector([3, 7])) == vector([7])


def test_quotient_reduce_skew_line():
    # span{(1,1)} in Q^2: pivot coordinate 0, complement (1,)
    sub = SubspaceBasis.from_vectors(2, (vector([1, 1]),))
    assert quotient_reduce(2, sub, vector([3, 7])) == vector([4])


def test_quotient_rejects_dependent_spanning_set():
    sub = SubspaceBasis.from_vectors(2, (vector([1, 0]), vector([2, 0])))
    with pytest.raises(BadBasis):
        QuotientMap.build(2, sub)


def test_quotient_lift_then_reduce_is_identity():
    q = QuotientMap.build(3, SubspaceBasis.from_vectors(3, (vector([1, 2, 3]),)))
    coords = vector([5, -1])
    assert q.reduce(lift(q, coords)) == coords


def test_invert_singular_raises():
    with pytest.raises(BadBasis):
        invert(mat([[1, 2], [2, 4]]))


def test_stated_and_ragged_shapes_are_checked():
    # (constructor, vectors, stated size) -> (rows, cols), or ShapeError
    table = [
        (MatrixQ.from_rows, [[1, 2], [3, 4]], None, (2, 2)),
        (MatrixQ.from_rows, [[1, 2]], 2, (1, 2)),
        (MatrixQ.from_rows, [], 3, (0, 3)),
        (MatrixQ.from_rows, [[1, 2], [3]], None, ShapeError),
        (MatrixQ.from_rows, [[1, 2]], 5, ShapeError),
        (from_cols, [[1, 2], [3, 4], [5, 6]], None, (2, 3)),
        (from_cols, [[1, 2]], 2, (2, 1)),
        (from_cols, [], 3, (3, 0)),
        (from_cols, [[]], None, (0, 1)),
        (from_cols, [[1, 2], [3]], None, ShapeError),
        (from_cols, [[1], [2, 3]], None, ShapeError),
        (from_cols, [[1, 2]], 3, ShapeError),
    ]
    for build, vectors, size, want in table:
        if want is ShapeError:
            with pytest.raises(ShapeError):
                build(vectors, size)
        else:
            m = build(vectors, size)
            assert (m.rows, m.cols) == want, (build, vectors, size)


def test_equal_matrices_compare_and_hash_equal_however_built():
    dense = [[F(0), F(1, 2), F(0)], [F(0), F(0), F(0)], [F(-3), F(0), F(1)]]
    twin = MatrixQ.from_rows(dense)
    xmod = document_from_obj(
        {
            "kind": "crossed_module",
            "m": {"dim": 3, "product": []},
            "n": {"dim": 3, "product": []},
            "mu": [[1, 2, "1/2"], [2, 3, "0"], [3, 1, -3], [3, 3, "2/2"]],
            "left": [],
            "right": [],
        }
    ).payload
    built = [
        MatrixQ.from_rows([[0, "1/2", 0], [0, "0/5", 0], [-3, 0, 1]]),
        from_cols([[0, 0, -3], ["1/2", 0, 0], [0, 0, 1]]),
        MatrixQ.from_entries(3, 3, {(0, 1): F(1, 2), (1, 2): 0, (2, 0): -3, (2, 2): 1}),
        xmod.mu.matrix,
        twin.transpose().transpose(),
        twin + MatrixQ.zero(3, 3),
        MatrixQ.identity(3) @ twin,
    ]
    for m in built:
        assert m == twin and hash(m) == hash(twin)
        assert dense_entries(m) == tuple(x for row in dense for x in row)
    # an assembled differential against its dense twin from the reference
    rep = Representation.regular(sparse_algebra(2, {(0, 1, 1): 1}))
    d2 = coboundary_matrix(rep, 2)
    units = [standard_basis_vector(d2.cols, j) for j in range(d2.cols)]
    reference = from_cols(
        [coboundary(rep, Cochain.from_coordinates(2, 2, 2, u)).to_coordinates() for u in units]
    )
    assert d2 == reference and hash(d2) == hash(reference)


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

    def drawn(nrows, ncols):
        rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        return rows, MatrixQ.from_rows(rows, ncols)

    (a_rows, a), (b_rows, b), (a2_rows, a2) = drawn(r, k), drawn(k, c), drawn(r, k)
    want = tuple(
        sum((a_rows[i][t] * b_rows[t][j] for t in range(k)), F(0))
        for i in range(r)
        for j in range(c)
    )
    assert dense_entries(a @ b) == want
    assert dense_entries(a) == tuple(x for row in a_rows for x in row)
    assert dense_entries(a.transpose()) == tuple(a_rows[i][t] for t in range(k) for i in range(r))
    assert dense_entries(a + a2) == tuple(x + y for ra, rb in zip(a_rows, a2_rows) for x, y in zip(ra, rb))
    v = tuple(data.draw(st.lists(entries, min_size=k, max_size=k)))
    assert a.mul_vec(v) == tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in a_rows)


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


def right_inverse_oracle(m):
    """right_inverse_on_image as first written, kept as its oracle: the
    image columns m[:, P] and the unit vectors at the coordinates off
    their pivot rows are the columns of an invertible m.rows x m.rows
    matrix b, and s = c^T inv(b) for the c that maps them to the unit
    vectors at P and to 0."""
    col_pivots = dense_rref(row_list(m))
    columns = m.transpose().nonzeros
    image = tuple(columns[p] for p in col_pivots)
    row_pivots = set(dense_rref([list(dense_vector(c, m.rows)) for c in image]))
    complement = [j for j in range(m.rows) if j not in row_pivots]
    b = MatrixQ(m.rows, m.rows, image + tuple(((j, F(1)),) for j in complement)).transpose()
    c = MatrixQ(m.rows, m.cols, tuple(((p, F(1)),) for p in col_pivots) + ((),) * len(complement))
    return c.transpose() @ invert(b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 6), st.data())
def test_right_inverse_equals_oracle(r, k, c, data):
    # an r x k times a k x c product, half the entries zero: rank at most k
    entries = st.one_of(st.just(F(0)), fracs)

    def drawn(nrows, ncols):
        rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        return MatrixQ.from_rows(rows, ncols)

    m = drawn(r, k) @ drawn(k, c)
    assert right_inverse_on_image(m) == right_inverse_oracle(m)
    assert right_inverse_on_image(m.transpose()) == right_inverse_oracle(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_consistency(m, data):
    x0 = data.draw(st.lists(fracs, min_size=m.cols, max_size=m.cols))
    b = m.mul_vec(tuple(x0))
    x = solve_particular(m, sparse_row(b))
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


def dense_rref_fractions(rows):
    """dense_rref on sparse rows: (pivot column, reduced Row) pairs."""
    rows = list(rows)
    ncols = 1 + max((j for row in rows for j, _ in row), default=-1)
    dense = [list(dense_vector(row, ncols)) for row in rows]
    pivots = dense_rref(dense)
    return [(c, sparse_row(dense[t])) for t, c in enumerate(pivots)]


def dense_rref_rows(rows):
    """dense_rref behind the signature of linalg._rref: sparse rows of
    integers (or Fractions) in, (pivot column, {column: integer}) pairs
    out, each reduced row scaled by the lcm of its denominators."""
    rows = [tuple((j, F(x)) for j, x in row) for row in rows]
    return [(c, dict(integer_rows([row])[1][0])) for c, row in dense_rref_fractions(rows)]


def fraction_view(echelon):
    """The integer echelon of linalg._rref as (pivot column, reduced Row)
    pairs: each row divided by its pivot entry."""
    return [(c, tuple((j, F(r[j], r[c])) for j in sorted(r))) for c, r in echelon]


def quotient_rref(q):
    """The reduced rows of the subspace of the QuotientMap q, read off
    (pivots, reduce_matrix()): the row of pivot p is 1 at p and minus
    column p of reduce_matrix() at the complement positions."""
    cols = q.reduce_matrix().transpose().nonzeros
    return tuple(tuple(sorted([(p, F(1)), *((q.complement[t], -x) for t, x in cols[p])])) for p in q.pivots)


def row_list(m):
    """The rows of m as dense lists."""
    return [list(m.row(i)) for i in range(m.rows)]


@contextlib.contextmanager
def dense_engine():
    """Run the linalg functions on the oracle instead of the engine."""
    saved = linalg._rref
    linalg._rref = dense_rref_rows
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
    sparse = [sparse_row(r) for r in rows]
    assert _rref(_scaled(sparse)) == dense_rref_rows(sparse)
    assert fraction_view(_rref(_scaled(sparse))) == dense_rref_fractions(sparse)


@settings(max_examples=200, deadline=None)
@given(rational_rows(), st.data())
def test_echelon_is_canonical(rows, data):
    sparse = [sparse_row(r) for r in rows]
    echelon = _rref(_scaled(sparse))
    pivots = [c for c, _ in echelon]
    assert pivots == sorted(set(pivots))
    for c, r in echelon:
        assert all(type(x) is int and x for x in r.values())
        assert min(r) == c and r[c] > 0 and gcd(*r.values()) == 1
        assert not any(j in r for j in pivots if j != c)
    # the same rows permuted and each rescaled by a nonzero rational
    order = data.draw(st.permutations(range(len(rows))))
    nonzero = st.builds(F, st.integers(-30, 30).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 12]))
    factors = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    assert _rref(_scaled(sparse_row([x * f for x in rows[i]]) for i, f in zip(order, factors))) == echelon


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
            solve_particular(m, sparse_row(b)),
            solve_particular(m, sparse_row(m.mul_vec(x0))),
            outcome(invert, m) if m.rows == m.cols else None,
            right_inverse_on_image(m),
            (quotient_rref(q), q.pivots, q.complement, q.reduce(u), q.reduce_matrix()),
        )

    got = results()
    with dense_engine():
        want = results()
    assert got == want
    assert rank_of(m) == len(dense_rref(row_list(m)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(sparse_fracs, min_size=c, max_size=c), max_size=6)))
def test_greedy_independent_equals_rank_rule(vectors):
    assert greedy_independent(map(sparse_row, vectors)) == rank_rule_independent(vectors)


def rank_rule_independent(vectors):
    """Indices a left-to-right scan keeps by a full rank_of of the growing
    matrix for every vector: the rule greedy_independent replaced."""
    kept = []
    for i, v in enumerate(vectors):
        trial = from_cols([vectors[j] for j in kept] + [v])
        if rank_of(trial) == len(kept) + 1:
            kept.append(i)
    return kept


# --- pattern back substitution ------------------------------------------------


@st.composite
def staircase_rows(draw, max_dim=8):
    """Rows in echelon form with arbitrary entries right of each pivot, so
    a row holds many later pivot columns and every clear of the back
    substitution fills in; columns past the pivots stay free."""
    c = draw(st.integers(1, max_dim))
    pivots = sorted(draw(st.sets(st.integers(0, c - 1), min_size=1)))
    rows = []
    for p in pivots:
        rest = draw(st.lists(sparse_fracs, min_size=c - p - 1, max_size=c - p - 1))
        rows.append([F(0)] * p + [draw(fracs.filter(bool))] + rest)
    return draw(st.permutations(rows))


def full_upper_rows(n):
    """Every row holds every later pivot column, and one free column."""
    return [[F(0)] * i + [F(j - i + 1, 1 + (i + j) % 3) for j in range(i, n)] + [F(i + 1)] for i in range(n)]


def first_row_full(n):
    """The first row holds all pivot columns, the rest only their own."""
    return [[F(1)] * (n + 1)] + [[F(int(i == j)) for j in range(n)] + [F(i)] for i in range(1, n)]


@settings(max_examples=150, deadline=None)
@given(staircase_rows())
@example(full_upper_rows(30))
@example(first_row_full(30))
def test_pattern_back_substitution_equals_dense_oracle(rows):
    sparse = [sparse_row(r) for r in rows]
    assert _rref(_scaled(sparse)) == dense_rref_rows(sparse)


# --- sparse subspaces against the dense path they replaced -------------------


def dense_rank_kernel_image(m):
    """rank_kernel_image as it was before subspaces were stored as Rows,
    kept as its oracle: (rank, kernel vectors, image vectors), every
    vector dense. Inside dense_engine() it runs on dense_rref."""
    echelon = fraction_view(linalg._rref(m.integer[1]))
    pivots = [c for c, _ in echelon]
    at_pivots = {}
    for p, row in echelon:
        for j, x in row:
            if j != p:
                at_pivots.setdefault(j, []).append((p, -x))
    pivot_set = set(pivots)
    kernel = []
    for j in range(m.cols):
        if j not in pivot_set:
            v = [F(0)] * m.cols
            v[j] = F(1)
            for p, x in at_pivots.get(j, ()):
                v[p] = x
            kernel.append(tuple(v))
    columns = m.transpose().nonzeros
    image = tuple(dense_vector(columns[p], m.rows) for p in pivots)
    return len(pivots), tuple(kernel), image


class DenseQuotient:
    """QuotientMap.build, reduce and reduce_matrix as they were on dense
    vectors, kept as their oracle. Inside dense_engine() it runs on
    dense_rref."""

    def __init__(self, ambient_dim, vectors):
        echelon = fraction_view(linalg._rref(_scaled(map(sparse_row, vectors))))
        if len(echelon) != len(vectors):
            raise BadBasis("subspace vectors are linearly dependent")
        self.ambient_dim = ambient_dim
        self.sub_rref = tuple(row for _, row in echelon)
        self.pivots = tuple(c for c, _ in echelon)
        self.complement = tuple(j for j in range(ambient_dim) if j not in self.pivots)
        self.den, scaled = integer_rows(self.sub_rref)
        self.pivot_rows = {p: tuple((j, x) for j, x in row if j != p) for p, row in zip(self.pivots, scaled)}
        self.position = {j: t for t, j in enumerate(self.complement)}

    @property
    def dim(self):
        return len(self.complement)

    def reduce(self, v):
        assert len(v) == self.ambient_dim
        den_v, (w,) = integer_rows([sparse_row(v)])
        acc = {}
        for j, x in w:
            row = self.pivot_rows.get(j)
            if row is None:
                acc[j] = acc.get(j, 0) + x * self.den
            else:
                for k, y in row:
                    acc[k] = acc.get(k, 0) - x * y
        out = [F(0)] * self.dim
        for j, x in acc.items():
            if x:
                out[self.position[j]] = F(x, den_v * self.den)
        return tuple(out)

    def reduce_matrix(self):
        cols = [self.reduce(standard_basis_vector(self.ambient_dim, j)) for j in range(self.ambient_dim)]
        return from_cols(cols, rows=self.dim)


def greedy_independent(rows):
    """Indices of the rows a left-to-right scan keeps when it keeps each
    row independent of those kept before it, each row reduced once against
    an echelon of the kept ones. cohomology chose its representatives this
    way before it classified in kernel coordinates; kept as the oracle of
    that choice."""
    echelon = {}
    kept = []
    for i, row in enumerate(rows):
        r = dict(integer_rows([row])[1][0])
        while r:
            c = min(r)
            if c not in echelon:
                echelon[c] = r
                kept.append(i)
                break
            linalg._clear(r, echelon[c], c)
    return kept


@settings(max_examples=150, deadline=None)
@given(rational_rows(6), st.data())
def test_sparse_subspaces_equal_the_dense_oracles(rows, data):
    cols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    m = MatrixQ.from_rows(rows) if rows else MatrixQ.zero(0, cols)
    rank, ker, img = rank_kernel_image(m)
    with dense_engine():
        assert (rank, ker.vectors, img.vectors) == dense_rank_kernel_image(m)
        dq = DenseQuotient(m.rows, img.vectors)
    assert ker == SubspaceBasis.from_vectors(m.cols, ker.vectors)
    assert img == SubspaceBasis.from_vectors(m.rows, img.vectors)
    assert img.as_column_matrix() == from_cols(img.vectors, rows=m.rows)
    q = QuotientMap.build(m.rows, img)
    assert (quotient_rref(q), q.pivots, q.complement) == (dq.sub_rref, dq.pivots, dq.complement)
    assert q.reduce_matrix() == dq.reduce_matrix()
    drawn = [tuple(data.draw(st.lists(mixed_fracs, min_size=m.rows, max_size=m.rows))) for _ in range(2)]
    for u in [*drawn, *img.vectors, *row_list(m.transpose())]:
        assert q.reduce(u) == dq.reduce(u)
        assert q.reduce_row(sparse_row(u)) == sparse_row(dq.reduce(u))
    # rows and columns of m, then kernel vectors: dependent runs included
    vectors = [*map(tuple, row_list(m)), *map(tuple, row_list(m.transpose())), *ker.vectors]
    for length in {len(v) for v in vectors}:
        same = [v for v in vectors if len(v) == length]
        assert greedy_independent(map(sparse_row, same)) == rank_rule_independent(same)


def test_kernel_of_a_wide_zero_matrix_stays_sparse():
    # a dense kernel basis would hold 200_000 ** 2 = 4 * 10 ** 10 entries
    rank, ker, img = rank_kernel_image(MatrixQ.zero(1, 200_000))
    assert rank == 0 and img.dim == 0 and img.ambient_dim == 1
    assert ker.dim == ker.ambient_dim == 200_000
    assert all(row == ((j, 1),) for j, row in enumerate(ker.rows))


def test_subspace_rows_are_checked_against_the_ambient_dimension():
    assert SubspaceBasis(3, (((0, F(1)), (2, F(-1))), ())).vectors == (vector([1, 0, -1]), vector([0, 0, 0]))
    for bad in [((3, F(1)),), ((-1, F(1)),)]:
        with pytest.raises(ShapeError):
            SubspaceBasis(3, (bad,))
    with pytest.raises(ShapeError):
        SubspaceBasis.from_vectors(3, [vector([1, 2])])
    q = QuotientMap.build(3, SubspaceBasis.from_vectors(3, [vector([1, 2, 3])]))
    assert q.reduce_row(((0, F(1)), (2, F(1, 2)))) == ((0, F(-2)), (1, F(-5, 2)))
    with pytest.raises(DimensionMismatch):
        q.reduce_row(((3, F(1)),))


# --- the integer quotient and closedness test against fraction oracles ------


def fraction_reduce(rref, complement, v):
    """QuotientMap.reduce as it was before the integer engine, kept as its
    oracle: each pivot coordinate is cleared in fractions, one (pivot,
    reduced Row) pair of rref at a time."""
    w = list(v)
    for p, row in rref:
        coeff = w[p]
        if coeff != 0:
            for j, b in row:
                w[j] -= coeff * b
    return tuple(w[j] for j in complement)


def fraction_in_kernel(m, vectors):
    """The closedness test as it was: m v in fractions, compared with zero."""
    return all(is_zero_vector(m.mul_vec(v)) for v in vectors)


# denominators 1, 2, 3, 5, 7 and 12 mixed within one vector
denominators = st.sampled_from([1, 2, 3, 5, 7, 12])
mixed_fracs = st.one_of(st.just(F(0)), st.builds(F, st.integers(-30, 30), denominators))
nonzero_fracs = st.builds(F, st.integers(1, 30) | st.integers(-30, -1), denominators)


@settings(max_examples=100, deadline=None)
@given(rational_rows(5), st.data())
def test_integer_quotient_and_closedness_equal_fraction_oracles(rows, data):
    # each row times its own factor, so the rows' denominators differ
    factors = data.draw(st.lists(nonzero_fracs, min_size=len(rows), max_size=len(rows)))
    rows = [[x * f for x in row] for row, f in zip(rows, factors)]
    cols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    m = MatrixQ.from_rows(rows) if rows else MatrixQ.zero(0, cols)
    _, ker, img = rank_kernel_image(m)
    q = QuotientMap.build(m.rows, img)
    rref = fraction_view(_rref(_scaled(img.rows)))
    assert tuple(p for p, _ in rref) == q.pivots
    assert type(q.den) is int and all(type(x) is int for row in q.pivot_rows.values() for _, x in row)
    vectors = [tuple(data.draw(st.lists(mixed_fracs, min_size=m.rows, max_size=m.rows))) for _ in range(3)]
    for u in [*vectors, *img.vectors]:
        assert q.reduce(u) == fraction_reduce(rref, q.complement, u)
    units = [standard_basis_vector(m.rows, j) for j in range(m.rows)]
    assert q.reduce_matrix() == from_cols([fraction_reduce(rref, q.complement, e) for e in units], rows=q.dim)
    # kernel vectors, their mixed-denominator multiples and arbitrary vectors
    scale = data.draw(mixed_fracs)
    tests = [*ker.vectors, *(tuple(scale * x for x in k) for k in ker.vectors)]
    tests += [tuple(data.draw(st.lists(mixed_fracs, min_size=m.cols, max_size=m.cols))) for _ in range(2)]
    for v in tests:
        assert in_kernel(m, [sparse_row(v)]) == fraction_in_kernel(m, [v])
    assert in_kernel(m, map(sparse_row, tests)) == fraction_in_kernel(m, tests)
    assert in_kernel(m, ker.rows)


def test_in_kernel_checks_lengths_and_scaling():
    m = mat([[F(1, 3), F(-2, 5)], [F(2, 3), F(-4, 5)]])
    assert in_kernel(m, map(sparse_row, [vector(["6/5", 1]), vector(["-18/7", "-15/7"]), zero_vector(2)]))
    assert not in_kernel(m, map(sparse_row, [vector(["6/5", 1]), vector([1, 1])]))
    assert in_kernel(m, [])
    with pytest.raises(DimensionMismatch):
        in_kernel(m, [sparse_row(vector([1, 2, 3]))])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.data())
def test_entry_and_column_reads_equal_the_dense_rows(r, c, data):
    entries = st.one_of(st.just(F(0)), fracs)
    rows = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    m = MatrixQ.from_rows(rows, c)
    assert all(m.at(i, j) == rows[i][j] and type(m.at(i, j)) is F for i in range(r) for j in range(c))
    assert all(col(m, j) == tuple(row[j] for row in rows) for j in range(c))
    assert all(col(m, j) == dense_vector(m.transpose().nonzeros[j], r) for j in range(c))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), fracs), max_size=4), max_size=4))
def test_integer_rows_share_one_denominator(rows):
    den, scaled = integer_rows(rows)
    assert all(den % x.denominator == 0 for row in rows for _, x in row)
    assert [[(j, F(x, den)) for j, x in row] for row in scaled] == [list(row) for row in rows]
    assert den == lcm(*(x.denominator for row in rows for _, x in row))


# --- one MatrixQ built from its Rows and from its integer rows ---------------


def fraction_product(a, b):
    """a @ b summed in Fractions, one dict per output row: the oracle of
    MatrixQ.__matmul__."""
    rows = []
    for row in a.nonzeros:
        acc = {}
        for k, x in row:
            for j, y in b.nonzeros[k]:
                acc[j] = acc.get(j, F(0)) + x * y
        rows.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return MatrixQ(a.rows, b.cols, tuple(rows))


@st.composite
def both_views(draw, r, c):
    """One matrix built twice: from its Rows, and from integer rows over a
    denominator that may carry a factor common to every entry. Entries
    have mixed denominators, and some rows are empty."""
    rows = [
        row if draw(st.booleans()) else [F(0)] * c
        for row in draw(st.lists(st.lists(mixed_fracs, min_size=c, max_size=c), min_size=r, max_size=r))
    ]
    sparse = tuple(map(sparse_row, rows))
    den, scaled = integer_rows(sparse)
    k = draw(st.sampled_from([1, 2, 6]))
    integer = (den * k, tuple(tuple((j, x * k) for j, x in row) for row in scaled))
    return MatrixQ(r, c, sparse), MatrixQ(r, c, integer=integer)


def integer_built(m):
    """A copy of m built from the integer rows of m, so that a reader of
    its Rows must form them."""
    return MatrixQ(m.rows, m.cols, integer=m.integer)


def fraction_built(m):
    """A copy of m built from the Rows of m, so that its integer rows are
    scaled from them."""
    return MatrixQ(m.rows, m.cols, m.nonzeros)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 4), st.data())
def test_integer_built_matrices_equal_fraction_built_ones(r, c, k, data):
    f, i = data.draw(both_views(r, c))
    # every read below runs on a fresh copy, so none of them reads Rows
    # that another one formed; the eliminations are also held to the
    # dense oracle
    assert integer_built(i).is_zero() == fraction_built(f).is_zero() == (not any(f.nonzeros))
    assert rank_of(integer_built(i)) == rank_of(fraction_built(f)) == len(dense_rref(row_list(f)))
    with dense_engine():
        want = rank_kernel_image(fraction_built(f))
    assert rank_kernel_image(integer_built(i)) == rank_kernel_image(fraction_built(f)) == want
    t = integer_built(i).transpose()
    assert t == fraction_built(f).transpose()
    _, ker, _ = want
    vectors = [*ker.rows, *(sparse_row(data.draw(st.lists(mixed_fracs, min_size=c, max_size=c))) for _ in range(2))]
    for v in vectors:
        vanishes = is_zero_vector(f.mul_vec(dense_vector(v, c)))
        assert in_kernel(integer_built(i), [v]) == in_kernel(fraction_built(f), [v]) == vanishes
    b = sparse_row(data.draw(st.lists(mixed_fracs, min_size=r, max_size=r)))
    with dense_engine():
        want = solve_particular(fraction_built(f), b)
    assert solve_particular(integer_built(i), b) == solve_particular(fraction_built(f), b) == want
    g, j = data.draw(both_views(c, k))
    want = fraction_product(f, g)
    for product in (integer_built(i) @ integer_built(j), integer_built(i) @ g, f @ integer_built(j), f @ g):
        assert product == want and product.is_zero() == want.is_zero()
    # equality, hashing and repr are those of the Rows, and reading the
    # Rows of an integer-built matrix gives back the same Rows
    assert i == f and hash(i) == hash(f) and repr(i) == repr(f)
    assert i.nonzeros == f.nonzeros and all(type(x) is F for row in i.nonzeros for _, x in row)


def test_the_square_of_a_non_prelie_coboundary_equals_the_fraction_product():
    # BAD_ALGEBRA is not pre-Lie, so d_2 d_1 of its regular "representation"
    # is not zero: the integer product must sum to the same nonzero rows
    rep = Representation.regular(BAD_ALGEBRA)
    d1, d2 = coboundary_matrix(rep, 1), coboundary_matrix(rep, 2)
    dd = d2 @ d1
    assert not dd.is_zero()
    assert dd == fraction_product(d2, d1)
    assert sum(1 for row in dd.nonzeros if row) == 3


@pytest.mark.parametrize("read", [(), (1,), (2,), (1, 2)], ids=["none", "d1", "d2", "both"])
@pytest.mark.parametrize("name", ["bad", "affine3"])
def test_products_and_transposes_sum_in_integers_whichever_rows_were_read(monkeypatch, read, name):
    # d_2 d_1 of BAD_ALGEBRA's regular "representation" is not zero, that
    # of affine3 is; reading a factor's Rows first must not change the
    # arithmetic of d_2 @ d_1, d_1.transpose() or is_zero
    rep = Representation.regular(BAD_ALGEBRA if name == "bad" else ALGEBRAS[name])
    seen = set()
    product, transposed = linalg._product, linalg._transposed

    def recording(a, b):
        seen.update(type(x) for rows in (a, b) for row in rows for _, x in row)
        return product(a, b)

    def recording_transposed(rows, cols):
        seen.update(type(x) for row in rows for _, x in row)
        return transposed(rows, cols)

    monkeypatch.setattr(linalg, "_product", recording)
    monkeypatch.setattr(linalg, "_transposed", recording_transposed)
    results = []
    for first in ((), read):
        d = {n: coboundary_matrix(rep, n) for n in (1, 2)}
        for n in first:
            assert d[n].nonzeros
        dd = d[2] @ d[1]
        results.append((dd, dd.is_zero(), d[1].transpose(), d[2].transpose()))
    assert results[0] == results[1]
    assert results[0][0] == fraction_product(d[2], d[1])
    assert results[0][1] == (name != "bad")
    assert seen == {int}


def test_a_matrix_is_scaled_to_integers_once_for_its_rank_and_kernel_tests(monkeypatch):
    rows = [[F(1, 3), F(-2, 5)], [F(2, 3), F(-4, 5)], [0, 0]]
    own_rows = {row for row in (sparse_row(vector(r)) for r in rows) if row}
    scalings = []
    integer_rows_ = linalg.integer_rows

    def counting_rows(rows):
        rows = list(rows)
        if own_rows & set(rows):
            scalings.append(rows)
        return integer_rows_(rows)

    # counted from construction on: the Rows are scaled once, when the
    # matrix is built, and every later reader takes its integer rows
    monkeypatch.setattr(linalg, "integer_rows", counting_rows)
    m = mat(rows)
    assert len(scalings) == 1
    assert rank_of(m) == 1
    assert in_kernel(m, [sparse_row(vector(["6/5", 1]))])
    assert not in_kernel(m, [sparse_row(vector([1, 1]))])
    assert m.transpose().transpose() == m and not m.is_zero()
    assert m @ right_inverse_on_image(m) @ m == m
    assert len(scalings) == 1
