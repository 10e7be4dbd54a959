"""Exact linear algebra over the rationals.

Every elimination result is read off the reduced row echelon form, which
is unique, so kernels (ordered by free column), images (the columns at
pivot positions), right inverses and quotient coordinates are the same on
every run and do not depend on how the elimination picks its pivots.
Scalars are fractions.Fraction throughout; floats are refused.

The elimination is integer and fraction-free. Each row is scaled by the
lcm of its denominators and kept sparse as {column: int}. A row r is
cleared against a pivot row p at column c by r <- a r - b p with a/b =
p[c]/r[c] in lowest terms, after which r is divided by the gcd of its
entries (its content). The forward pass and the back substitution both
work this way, and fractions are formed only when the reduced rows are
written out, as entry / pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import BadBasis, DimensionMismatch, ShapeError

Scalar = Fraction
Vector = tuple[Fraction, ...]

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


@dataclass(frozen=True)
class MatrixQ:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]], cols: int | None = None) -> "MatrixQ":
        rows = [vector(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ShapeError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, tuple(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[object]], rows: int | None = None) -> "MatrixQ":
        if not cols:
            return cls(rows if rows is not None else 0, 0, ())
        vecs = [vector(c) for c in cols]
        if not vecs[0]:
            return cls(0, len(vecs), ())
        return cls.from_rows(list(zip(*vecs)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MatrixQ":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return self.entries[j :: self.cols]

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "MatrixQ":
        return MatrixQ(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector has {len(v)}")
        return tuple(
            sum((self.at(i, j) * v[j] for j in range(self.cols)), ZERO)
            for i in range(self.rows)
        )

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # row i of the product accumulates a * (row k of other) over the
        # nonzero a = self[i][k], skipping zero entries of that row too
        n = other.cols
        out = [ZERO] * (self.rows * n)
        other_rows = [[(j, b) for j, b in enumerate(other.row(k)) if b != 0] for k in range(other.rows)]
        for i in range(self.rows):
            base = i * n
            for k, a in enumerate(self.row(i)):
                if a != 0:
                    for j, b in other_rows[k]:
                        out[base + j] += a * b
        return MatrixQ(self.rows, n, tuple(out))

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return MatrixQ(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return MatrixQ(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Fraction) -> "MatrixQ":
        return MatrixQ(self.rows, self.cols, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[dict[int, int]]:
    """The nonzero rows, each scaled by the lcm of its denominators and
    stored sparsely as {column: integer}."""
    out = []
    for row in rows:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        if nonzero:
            den = lcm(*(x.denominator for _, x in nonzero))
            out.append({j: x.numerator * (den // x.denominator) for j, x in nonzero})
    return out


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


def _echelon(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Forward pass: (pivot column, row) pairs in increasing column order.

    Columns are visited left to right; among the rows leading at a column,
    the one with fewest entries (then smallest pivot) clears the others.
    The rows are consumed.
    """
    leading: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        leading.setdefault(min(r), []).append(r)
    echelon = []
    while leading:
        c = min(leading)
        group = leading.pop(c)
        p = min(group, key=lambda r: (len(r), abs(r[c])))
        for r in group:
            if r is not p:
                _clear(r, p, c)
                if r:
                    leading.setdefault(min(r), []).append(r)
        echelon.append((c, p))
    return echelon


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """Reduce rows in place to reduced row echelon form; return pivot columns.

    The reduced row echelon form is unique, so the result does not depend
    on how pivots are chosen. The work is done in integers (see the module
    docstring); fractions appear only when the result is written back.
    """
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(_integer_rows(rows))
    # back substitution: rows below t are already reduced, so clearing
    # their pivot columns from row t disturbs no other pivot column
    for t in range(len(echelon) - 1, -1, -1):
        r = echelon[t][1]
        for c, p in echelon[t + 1 :]:
            if c in r:
                _clear(r, p, c)
    for t, (c, p) in enumerate(echelon):
        row = [ZERO] * ncols
        d = p[c]
        for j, x in p.items():
            row[j] = Fraction(x, d)
        rows[t] = row
    for t in range(len(echelon), len(rows)):
        rows[t] = [ZERO] * ncols
    return [c for c, _ in echelon]


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered independent spanning set of a subspace of Q^ambient_dim."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ShapeError("basis vector length differs from ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def as_column_matrix(self) -> MatrixQ:
        return MatrixQ.from_cols(list(self.vectors), rows=self.ambient_dim)

    def contains(self, v: Sequence[Fraction]) -> bool:
        if not self.vectors:
            return is_zero_vector(tuple(v))
        return solve_particular(self.as_column_matrix(), tuple(v)) is not None


def rank_kernel_image(m: MatrixQ) -> tuple[int, SubspaceBasis, SubspaceBasis]:
    """Rank, kernel basis (in Q^cols) and image basis (in Q^rows) of m.

    Kernel vectors are ordered by increasing free column, with the free
    coordinate set to 1. Image vectors are the original columns of m at
    the pivot positions, in order.
    """
    rows = m.row_list()
    pivots = _rref(rows)
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for t, p in enumerate(pivots):
            x = rows[t][j]
            if x:
                v[p] = -x
        kernel.append(tuple(v))
    image = tuple(m.col(p) for p in pivots)
    return rank, SubspaceBasis(m.cols, tuple(kernel)), SubspaceBasis(m.rows, image)


def greedy_independent(vectors: Iterable[Sequence[Fraction]]) -> list[int]:
    """Indices of the vectors a left-to-right scan keeps when it keeps each
    vector independent of those kept before it.

    Each vector is reduced once against an echelon of the kept ones, so
    this equals testing rank_of on the growing matrix without repeating it.
    """
    echelon: dict[int, dict[int, int]] = {}
    kept = []
    for i, v in enumerate(vectors):
        for r in _integer_rows([v]):  # no row when v is zero
            while r:
                c = min(r)
                if c not in echelon:
                    echelon[c] = r
                    kept.append(i)
                    break
                _clear(r, echelon[c], c)
    return kept


def rank_of(m: MatrixQ) -> int:
    return len(_echelon(_integer_rows(m.row(i) for i in range(m.rows))))


def solve_particular(m: MatrixQ, b: Sequence[Fraction]) -> Vector | None:
    """One solution of m x = b with every free variable set to 0, else None."""
    if len(b) != m.rows:
        raise DimensionMismatch(f"matrix has {m.rows} rows, rhs has {len(b)}")
    rows = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    if not rows:
        return zero_vector(m.cols)
    pivots = _rref(rows)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for t, p in enumerate(pivots):
        x[p] = rows[t][m.cols]
    return tuple(x)


def invert(m: MatrixQ) -> MatrixQ:
    """Inverse of a square invertible matrix; BadBasis if singular."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n = m.rows
    rows = [list(m.row(i)) + list(standard_basis_vector(n, i)) for i in range(n)]
    pivots = _rref(rows)
    if pivots != list(range(n)):
        raise BadBasis("matrix is singular")
    return MatrixQ.from_rows([rows[i][n:] for i in range(n)])


def right_inverse_on_image(m: MatrixQ) -> MatrixQ:
    """A section s of m with m @ s @ m == m.

    On im(m) this is a genuine right inverse: columns of m at pivot
    positions map back to the matching standard basis vectors of the
    source; the deterministic complement of im(m) (standard basis
    vectors at non-pivot coordinates of the image) maps to zero.
    """
    rows = m.row_list()
    col_pivots = _rref(rows)
    r = len(col_pivots)
    image_cols = [m.col(p) for p in col_pivots]
    img_rows = [list(v) for v in image_cols]
    row_pivots = _rref(img_rows) if img_rows else []
    complement = [j for j in range(m.rows) if j not in set(row_pivots)]
    basis_cols = image_cols + [standard_basis_vector(m.rows, j) for j in complement]
    if not basis_cols:
        return MatrixQ.zero(m.cols, m.rows)
    b = MatrixQ.from_cols(basis_cols, rows=m.rows)
    c_cols = [standard_basis_vector(m.cols, p) for p in col_pivots]
    c_cols += [zero_vector(m.cols)] * len(complement)
    c = MatrixQ.from_cols(c_cols, rows=m.cols)
    return c @ invert(b)


@dataclass(frozen=True)
class QuotientMap:
    """Coordinates on Q^ambient_dim / span(sub), via non-pivot coordinates.

    reduce() rewrites a vector modulo the subspace so that all pivot
    coordinates of the reduced row echelon basis of the subspace vanish,
    then reads off the remaining (non-pivot) coordinates.
    """

    ambient_dim: int
    sub_rref: tuple[Vector, ...]
    pivots: tuple[int, ...]
    complement: tuple[int, ...]
    # the nonzero (column, entry) pairs of each sub_rref row
    _support: tuple[tuple[tuple[int, Fraction], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        support = tuple(tuple((j, b) for j, b in enumerate(row) if b) for row in self.sub_rref)
        object.__setattr__(self, "_support", support)

    @classmethod
    def build(cls, ambient_dim: int, sub: SubspaceBasis) -> "QuotientMap":
        if sub.ambient_dim != ambient_dim:
            raise DimensionMismatch("subspace lives in a different ambient space")
        rows = [list(v) for v in sub.vectors]
        pivots = _rref(rows) if rows else []
        if len(pivots) != len(sub.vectors):
            raise BadBasis("subspace vectors are linearly dependent")
        complement = tuple(j for j in range(ambient_dim) if j not in set(pivots))
        return cls(ambient_dim, tuple(tuple(r) for r in rows), tuple(pivots), complement)

    @property
    def dim(self) -> int:
        return len(self.complement)

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        w = list(v)
        for p, support in zip(self.pivots, self._support):
            coeff = w[p]
            if coeff != 0:
                for j, b in support:
                    w[j] -= coeff * b
        return tuple(w[j] for j in self.complement)

    def lift(self, coords: Sequence[Fraction]) -> Vector:
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length differs from quotient dimension")
        w = [ZERO] * self.ambient_dim
        for c, j in zip(coords, self.complement):
            w[j] = c
        return tuple(w)

    def reduce_matrix(self) -> MatrixQ:
        cols = [self.reduce(standard_basis_vector(self.ambient_dim, j)) for j in range(self.ambient_dim)]
        return MatrixQ.from_cols(cols, rows=self.dim)
