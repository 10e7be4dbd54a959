"""Exact linear algebra over the rationals.

Every elimination result is read off the reduced row echelon form, which
is unique, so kernels (ordered by free column), images (the columns at
pivot positions), right inverses and quotient coordinates are the same on
every run and do not depend on how the elimination picks its pivots.
Scalars are fractions.Fraction throughout; floats are refused.

A matrix is stored in one form, its nonzeros per row in integers over
one common denominator. A matrix summed in integers, as the coboundary
matrices are, is built in that form; one built from Rows, the sorted
(column, value) pairs with a nonzero value, is scaled once by
`integer_rows`, the one helper that scales Fractions to integers.
Products, transposes, the zero test and every elimination read the
integer rows, and Rows are formed only for readers of entries. Every
pass reads the pairs of the nonzeros, so its cost follows the nonzeros
rather than rows * cols.

The elimination is integer and fraction-free, and works on integer rows,
kept sparse as {column: int}; Rows of Fractions enter it through
`integer_rows`. A row r is cleared against a pivot row p at column c by
r <- a r - b p with a/b = p[c]/r[c] in lowest terms, after which r is
divided by the gcd of its entries (its content). The forward pass and
the back substitution both work this way; the back substitution goes by
pattern, as in Gilbert and Peierls (SIAM J. Sci. Stat. Comput. 9, 1988)
and Davis, Direct Methods for Sparse Linear Systems (SIAM 2006, ch. 3):
each row is cleared only at the later pivot columns it holds. The
reduced rows stay integers, with content 1 and a positive pivot entry,
which is the row's denominator, so equal matrices give equal echelons.
Every reader works on that one form, and fractions are formed only for
what is returned: kernel rows, solutions and quotient coordinates;
inverses and right inverses are returned as integer rows over one
denominator.

Subspaces stay sparse too. A SubspaceBasis stores one Row per basis
vector: kernel rows are read off the reduced rows and image rows are
columns of the matrix, and its dense `vectors` are a view for callers.
A QuotientMap keeps the reduced rows of its subspace over one common
denominator. QuotientMap.reduce_row, in_kernel and solve_particular take
Rows and scale them with `integer_rows`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import BadBasis, DimensionMismatch, ShapeError

Vector = tuple[Fraction, ...]
# A sparse row: the (column, value) pairs with a nonzero value, sorted by
# column.
Row = tuple[tuple[int, Fraction], ...]
# A Row scaled to integers: (column, integer) pairs.
IntRow = tuple[tuple[int, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x: object) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise ShapeError(f"expected an exact rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ShapeError(f"expected an exact rational, got {x!r}")


def vector(entries: Iterable[object]) -> Vector:
    return tuple(as_fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def standard_basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dense_vector(row: Row, n: int) -> Vector:
    """The Row as a dense vector of length n."""
    out = [ZERO] * n
    for j, x in row:
        out[j] = x
    return tuple(out)


def sparse_row(v: Iterable[Fraction]) -> Row:
    """The Row of a dense vector. The identity test skips the shared ZERO,
    which fills the vectors this module builds, without a call to
    Fraction.__bool__."""
    return tuple((j, x) for j, x in enumerate(v) if x is not ZERO and x)


def _summed(terms: Iterable[tuple[int, object]]) -> tuple:
    """The (column, value) pairs of the sum of the (column, value) terms,
    sorted by column, zero sums dropped; Fractions and ints alike."""
    acc: dict = {}
    for j, x in terms:
        acc[j] = acc[j] + x if j in acc else x
    return tuple(sorted((j, x) for j, x in acc.items() if x))


def _transposed(rows: Sequence[tuple], cols: int) -> tuple:
    """The rows of the transpose of the matrix with these rows and cols
    columns."""
    out: list[list] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x))
    return tuple(map(tuple, out))


def _product(a: Sequence[tuple], b: Sequence[tuple]) -> tuple:
    """The rows of the product of the matrices with rows a and b."""
    return tuple(_summed((j, x * y) for k, x in row for j, y in b[k]) if row else () for row in a)


class MatrixQ:
    """Rational matrix, immutable, stored as `integer` = (den, rows):
    rows[i] is the IntRow of row i times den, den > 0, so that the matrix
    is rows / den. `nonzeros`, the Row of each row, is formed from it when
    first read and kept.

    `MatrixQ(rows, cols, integer=(den, rows))` takes that form as it is;
    `MatrixQ(rows, cols, nonzeros)` scales the Rows once through
    `integer_rows` and keeps them as `nonzeros`. Equality, hashing and
    repr are those of (rows, cols, nonzeros), which are canonical, so
    equal matrices compare and hash equal however they were built.
    """

    def __init__(self, rows: int, cols: int, nonzeros: tuple[Row, ...] | None = None, *,
                 integer: tuple[int, tuple[IntRow, ...]] | None = None) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimension")
        if (nonzeros is None) == (integer is None):
            raise ShapeError("a matrix is built from exactly one of its nonzeros and its integer form")
        if integer is None:
            den, scaled = integer_rows(nonzeros)
            integer = den, tuple(scaled)
            self.__dict__["nonzeros"] = nonzeros
        elif integer[0] <= 0:
            raise ShapeError("matrix denominator must be positive")
        if len(integer[1]) != rows:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows} rows, got {len(integer[1])}")
        self.__dict__.update(rows=rows, cols=cols, integer=integer)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r}, nonzeros={self.nonzeros!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.nonzeros) == (other.rows, other.cols, other.nonzeros)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzeros))

    @cached_property
    def nonzeros(self) -> tuple[Row, ...]:
        """The Row of each row; formed from `integer` on first read, with
        one Fraction per distinct entry."""
        den, rows = self.integer
        fraction = {x: Fraction(x, den) for x in {x for row in rows for _, x in row}}
        return tuple(tuple([(c, fraction[x]) for c, x in row]) if row else () for row in rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], cols: int | None = None) -> "MatrixQ":
        vecs = [vector(r) for r in rows]
        if cols is None:
            cols = len(vecs[0]) if vecs else 0
        for v in vecs:
            if len(v) != cols:
                raise ShapeError(f"expected vectors of length {cols}, got one of length {len(v)}")
        return cls(len(vecs), cols, tuple(map(sparse_row, vecs)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "MatrixQ":
        """The rows x cols matrix with entry (r, c) = x for each (r, c): x
        of entries, zero elsewhere; explicit zeros are dropped."""
        cells: dict[int, list] = {}
        for (r, c), x in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeError(f"matrix index ({r}, {c}) outside shape {rows}x{cols}")
            x = as_fraction(x)
            if x:
                cells.setdefault(r, []).append((c, x))
        return cls(rows, cols, tuple(tuple(sorted(cells[r])) if r in cells else () for r in range(rows)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MatrixQ":
        return cls(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, tuple(((i, ONE),) for i in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        row = self.nonzeros[i]
        # (j,) sorts just before (j, x), so no Fraction is compared
        t = bisect_left(row, (j,))
        return row[t][1] if t < len(row) and row[t][0] == j else ZERO

    def row(self, i: int) -> Vector:
        return dense_vector(self.nonzeros[i], self.cols)

    def transpose(self) -> "MatrixQ":
        den, rows = self.integer
        return MatrixQ(self.cols, self.rows, integer=(den, _transposed(rows, self.cols)))

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector has {len(v)}")
        return tuple(sum((x * v[j] for j, x in row), ZERO) for row in self.nonzeros)

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        """The product, summed in integers."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        (da, a), (db, b) = self.integer, other.integer
        return MatrixQ(self.rows, other.cols, integer=(da * db, _product(a, b)))

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return MatrixQ(self.rows, self.cols, tuple(_summed(r + s) for r, s in zip(self.nonzeros, other.nonzeros)))

    def is_zero(self) -> bool:
        return not any(self.integer[1])


def integer_rows(rows: Iterable[Row]) -> tuple[int, list[IntRow]]:
    """(den, scaled): den is the common denominator of every entry of the
    rows, and scaled holds each row times den, in integers. Any sequence
    of (index, value) pairs is read as a row, zero values included."""
    rows = list(rows)
    den = lcm(*(x.denominator for row in rows for _, x in row))
    return den, [tuple([(j, x.numerator * (den // x.denominator)) for j, x in row]) if row else () for row in rows]


def _check_row(row: Row, n: int, what: str) -> None:
    """DimensionMismatch unless every column of the row is below n."""
    if row and not 0 <= row[0][0] <= row[-1][0] < n:
        raise DimensionMismatch(f"row column outside the {what}")


def in_kernel(m: MatrixQ, rows: Iterable[Row]) -> bool:
    """Whether m v = 0 for the vector v of every Row. The integer rows of
    m and each v scaled to integers are multiplied, which does not change
    whether a product vanishes."""
    scaled = [r for r in m.integer[1] if r]
    for row in rows:
        _check_row(row, m.cols, "matrix columns")
        w = dict(integer_rows((row,))[1][0])
        if any(sum(x * w[j] for j, x in r if j in w) for r in scaled):
            return False
    return True


def _clear(r: dict[int, int], p: dict[int, int], c: int) -> None:
    """r <- (a r - b p) / content, with a/b = p[c]/r[c] in lowest terms,
    so that column c of r becomes zero."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, x in p.items():
        y = r.get(j, 0) - b * x
        if y:
            r[j] = y
        else:
            del r[j]
    if r:
        content = gcd(*r.values())
        if content != 1:
            for j in r:
                r[j] //= content


def _echelon(rows: Iterable[IntRow]) -> list[tuple[int, dict[int, int]]]:
    """Forward pass: the nonzero integer rows reduced to (pivot column,
    {column: integer}) pairs in increasing column order. The back
    substitution changes no pivot, so these are the pivots of the rref.
    Rows of Fractions enter through `integer_rows`.

    Columns are visited left to right; among the rows leading at a column,
    the one with fewest entries (then smallest pivot) clears the others.
    The leading columns wait in a heap, so finding the next one does not
    scan all of them.
    """
    leading: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            r = dict(row)
            leading.setdefault(min(r), []).append(r)
    columns = list(leading)
    heapify(columns)
    echelon = []
    while columns:
        c = heappop(columns)
        group = leading.pop(c)
        p = min(group, key=lambda r: (len(r), abs(r[c])))
        for r in group:
            if r is not p:
                _clear(r, p, c)
                if r:
                    k = min(r)
                    if k not in leading:
                        leading[k] = []
                        heappush(columns, k)
                    leading[k].append(r)
        echelon.append((c, p))
    return echelon


def _reduced(echelon: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, int]]]:
    """The echelon of `_echelon` brought to reduced row echelon form, in
    place and in integers: each row gets content 1, a positive pivot entry
    and no entry at the other pivots; divided by its pivot entry it is the
    reduced row. The reduced row echelon form is unique, and so is this
    scaling of it, so the result does not depend on how pivots are chosen.
    """
    at = dict(echelon)
    # back substitution, bottom up, by pattern: row t is cleared only at
    # the pivot columns it holds. The rows below t are already reduced, so
    # a clear adds no pivot column to row t and changes no later pivot.
    for c, r in reversed(echelon):
        for j in sorted(j for j in r if j != c and j in at):
            _clear(r, at[j], j)
        # content 1 and a positive pivot; a row no clear reached keeps its scaling
        content = gcd(*r.values()) if r[c] > 0 else -gcd(*r.values())
        if content != 1:
            for j in r:
                r[j] //= content
    return echelon


def _rref(rows: Iterable[IntRow]) -> list[tuple[int, dict[int, int]]]:
    """The reduced row echelon form of integer rows, the one entry of
    every reduction: (pivot column, {column: integer}) pairs in increasing
    pivot order, zero rows dropped, as `_reduced` scales them. Rows of
    Fractions enter through `integer_rows`."""
    return _reduced(_echelon(rows))


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered independent spanning set of a subspace of Q^ambient_dim,
    stored as one Row per basis vector."""

    ambient_dim: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if row and not 0 <= row[0][0] <= row[-1][0] < self.ambient_dim:
                raise ShapeError("basis row column outside the ambient dimension")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[object]]) -> "SubspaceBasis":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ShapeError("basis vector length differs from ambient dimension")
            rows.append(sparse_row(vector(v)))
        return cls(ambient_dim, tuple(rows))

    @property
    def vectors(self) -> tuple[Vector, ...]:
        """The basis as dense vectors."""
        return tuple(dense_vector(row, self.ambient_dim) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def as_column_matrix(self) -> MatrixQ:
        return MatrixQ(self.dim, self.ambient_dim, self.rows).transpose()


def rank_kernel_image(m: MatrixQ) -> tuple[int, SubspaceBasis, SubspaceBasis]:
    """Rank, kernel basis (in Q^cols) and image basis (in Q^rows) of m.

    Kernel vectors are ordered by increasing free column, with the free
    coordinate set to 1. Image vectors are the original columns of m at
    the pivot positions, in order. The integer rows of m are reduced.
    """
    den, rows = m.integer
    echelon = _rref(rows)
    pivots = [c for c, _ in echelon]
    # the kernel row of free column j holds -x at pivot p for each entry x
    # of column j in the reduced row of p; every such p is below j and
    # comes in increasing order, so 1 at j ends the row
    at_pivots: dict[int, list[tuple[int, Fraction]]] = {}
    for p, row in echelon:
        for j, x in row.items():
            if j != p:
                at_pivots.setdefault(j, []).append((p, Fraction(-x, row[p])))
        # free each row once read: its clears may have left it a large table
        row.clear()
    pivot_set = set(pivots)
    kernel = tuple(
        (*at_pivots.get(j, ()), (j, ONE)) for j in range(m.cols) if j not in pivot_set
    )
    # the image rows are the columns of m at the pivots; an integer entry
    # becomes one Fraction per distinct value, as in MatrixQ.nonzeros
    fraction: dict[int, Fraction] = {}
    columns: dict[int, list[tuple[int, Fraction]]] = {p: [] for p in pivots}
    for i, row in enumerate(rows):
        for j, x in row:
            if j in columns:
                if x not in fraction:
                    fraction[x] = Fraction(x, den)
                columns[j].append((i, fraction[x]))
    image = tuple(tuple(columns[p]) for p in pivots)
    return len(pivots), SubspaceBasis(m.cols, kernel), SubspaceBasis(m.rows, image)


def rank_of(m: MatrixQ) -> int:
    return len(_echelon(m.integer[1]))


def solve_particular(m: MatrixQ, b: Row) -> Vector | None:
    """One solution of m x = b, for the vector b of a Row, with every free
    variable set to 0, else None. The integer rows of m are augmented by
    b and reduced."""
    _check_row(b, m.rows, "matrix rows")
    n = m.cols
    # m = rows / den and b = w / scale, so rows y = den w for y = scale x
    den, rows = m.integer
    scale, (w,) = integer_rows((b,))
    w = dict(w)
    echelon = _rref(row + ((n, den * w[i]),) if i in w else row for i, row in enumerate(rows))
    if echelon and echelon[-1][0] == n:
        return None
    x = [ZERO] * n
    for p, row in echelon:
        if n in row:
            x[p] = Fraction(row[n], row[p] * scale)
    return tuple(x)


def invert(m: MatrixQ) -> MatrixQ:
    """Inverse of a square invertible matrix; BadBasis if singular. With
    m = rows / den, [rows | den I] reduces to [I | inv(m)]."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n = m.rows
    den, rows = m.integer
    echelon = _rref(row + ((n + i, den),) for i, row in enumerate(rows))
    if [c for c, _ in echelon] != list(range(n)):
        raise BadBasis("matrix is singular")
    # each pivot entry is its row's denominator
    d = lcm(*(r[c] for c, r in echelon))
    inverse = (tuple(sorted((j - n, x * (d // r[c])) for j, x in r.items() if j >= n)) for c, r in echelon)
    return MatrixQ(n, n, integer=(d, tuple(inverse)))


def right_inverse_on_image(m: MatrixQ) -> MatrixQ:
    """A section s of m with m @ s @ m == m.

    On im(m) this is a genuine right inverse: columns of m at pivot
    positions map back to the matching standard basis vectors of the
    source; the deterministic complement of im(m) (standard basis
    vectors at non-pivot coordinates of the image) maps to zero. With P
    the pivot columns of m and R the pivot rows of m[:, P], the square
    m[R, P] is invertible, and s = e_P inv(m[R, P]) on the coordinates R,
    zero on the others. Both pivot sets come from the forward pass.
    """
    den, m_rows = m.integer
    col_pivots = [c for c, _ in _echelon(m_rows)]
    columns = _transposed(m_rows, m.cols)
    row_pivots = [c for c, _ in _echelon(columns[p] for p in col_pivots)]
    at = {p: a for a, p in enumerate(col_pivots)}
    square = tuple(tuple((at[c], x) for c, x in m_rows[r] if c in at) for r in row_pivots)
    d, inverse = invert(MatrixQ(len(at), len(at), integer=(den, square))).integer
    # row c of s is, for c in P, row at[c] of the inverse read at the coordinates R
    rows = (tuple((row_pivots[b], x) for b, x in inverse[at[c]]) if c in at else () for c in range(m.cols))
    return MatrixQ(m.cols, m.rows, integer=(d, tuple(rows)))


@dataclass(frozen=True)
class QuotientMap:
    """Coordinates on Q^ambient_dim / span(sub), via non-pivot coordinates.

    reduce_row() rewrites a Row modulo the subspace so that all pivot
    coordinates of the reduced row echelon basis of the subspace vanish,
    then reads off the remaining (non-pivot) coordinates. Each reduced row
    rref_p has zeros at the other pivots, so coordinate j of the result is
    v_j - sum_p v_p rref_p[j]. The reduced rows are kept in integers,
    scaled by their common denominator den: pivot_rows[p] holds den rref_p
    off its pivot, as (column, integer) pairs. reduce_row() reads only the
    nonzeros of v and the rows of its nonzero pivot coordinates, and forms
    fractions only for the returned coordinates. reduce() is the same map
    on dense vectors; column p of reduce_matrix() is -rref_p off p.
    """

    ambient_dim: int
    pivots: tuple[int, ...]
    complement: tuple[int, ...]
    den: int
    pivot_rows: dict[int, IntRow] = field(hash=False)

    @classmethod
    def build(cls, ambient_dim: int, sub: SubspaceBasis, spanning: bool = False) -> "QuotientMap":
        """The quotient by span(sub). Its rows must be independent (else
        BadBasis) unless `spanning` is set, when any spanning set will do,
        such as all the columns of a matrix. Rows may hold ints as well
        as Fractions."""
        if sub.ambient_dim != ambient_dim:
            raise DimensionMismatch("subspace lives in a different ambient space")
        echelon = _rref(integer_rows(sub.rows)[1])
        if not spanning and len(echelon) != sub.dim:
            raise BadBasis("subspace vectors are linearly dependent")
        pivots = tuple(c for c, _ in echelon)
        pivot_set = set(pivots)
        complement = tuple(j for j in range(ambient_dim) if j not in pivot_set)
        # each pivot entry is its row's denominator
        den = lcm(*(r[c] for c, r in echelon))
        pivot_rows = {c: tuple(sorted((j, x * (den // r[c])) for j, x in r.items() if j != c)) for c, r in echelon}
        return cls(ambient_dim, pivots, complement, den, pivot_rows)

    @property
    def dim(self) -> int:
        return len(self.complement)

    def reduce_row(self, row: Row) -> Row:
        """The coordinates of a Row of Q^ambient_dim in the quotient, as a
        Row over the complement positions."""
        _check_row(row, self.ambient_dim, "ambient dimension")
        # row = w / den_v, so the result is (den w_j - sum_p w_p row_p[j]) / (den_v den)
        den_v, (w,) = integer_rows((row,))
        acc: dict[int, int] = {}
        for j, x in w:
            pivot_row = self.pivot_rows.get(j)
            if pivot_row is None:
                acc[j] = acc.get(j, 0) + x * self.den
            else:
                for k, y in pivot_row:
                    acc[k] = acc.get(k, 0) - x * y
        den = den_v * self.den
        return tuple(sorted((bisect_left(self.complement, j), Fraction(x, den)) for j, x in acc.items() if x))

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        return dense_vector(self.reduce_row(sparse_row(v)), self.dim)

    def reduce_matrix(self) -> MatrixQ:
        cols = tuple(self.reduce_row(((j, ONE),)) for j in range(self.ambient_dim))
        return MatrixQ(self.ambient_dim, self.dim, cols).transpose()
