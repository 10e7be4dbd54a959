"""Pre-Lie algebras, their sub-adjacent Lie algebras, representations,
actions and morphisms, with exhaustive exact axiom checkers.

A pre-Lie algebra is a vector space with a bilinear product whose
associator is symmetric in its first two arguments:

    (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

The commutator [x,y] = x*y - y*x then satisfies Jacobi, giving the
sub-adjacent Lie algebra. All spaces here are finite-dimensional over Q
and structures are basis tensors. A Tensor3 is stored once as its
nonzero index pairs, ((i, j), Row of t[i][j]) sorted by (i, j), as in the
triplet form of Davis (Direct Methods for Sparse Linear Systems, SIAM
2006, ch. 2), so its size follows the nonzeros; only this module reads
that storage. The checkers describe each axiom as terms that read those
nonzeros and report the first failing basis tuple in lexicographic
order (0-based indices), with both sides.

Every checker here and in the crossed-module and functor modules runs
on one integer engine, _first_failure. It scales every tensor an
identity reads once by the common denominator D of all their entries,
so both sides of every identity carry the factor D^2 and are compared
in integers; the witness divides them by D^2. It sums each identity's
lhs - rhs as a sparse join in the manner of Gustavson (ACM TOMS 4(3),
1978): every nonzero coefficient entry meets the nonzero rows it reads,
so a sum is formed only at a tuple some nonzero product reaches, and at
every other tuple both sides are 0. The join is built one slice at a
time, the tuples with one first index x0, in increasing x0; the first
slice with a nonzero sum holds the first failure, and no later slice is
built. A linear map f enters an identity through its columns f e_w
(_columns), applied to a coefficient row, or through compose, which
feeds f into an argument of a tensor or applies it to the tensor's
values. integer_pairs is the one integer form of a tensor; the checkers,
t_map, the coboundary matrices and the tree pullback all read it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DimensionMismatch, ShapeError
from .linalg import (
    ONE,
    ZERO,
    IntRow,
    MatrixQ,
    Row,
    Vector,
    _transposed,
    as_fraction,
    dense_vector,
    integer_rows,
    standard_basis_vector,
)


@dataclass(frozen=True)
class Tensor3:
    """A structure tensor t[i][j][k] of shape (d1, d2, d3), stored once as
    its nonzero index pairs: pairs holds ((i, j), the Row of t[i][j]) for
    each nonzero row, sorted by (i, j). The layout is canonical, so equal
    tensors compare and hash equal, and its size follows the nonzeros."""

    shape: tuple[int, int, int]
    pairs: tuple[tuple[tuple[int, int], Row], ...]

    def row(self, i: int, j: int) -> Row:
        """The Row of t[i][j]; () when it is zero."""
        at = bisect_left(self.pairs, ((i, j),))
        if at < len(self.pairs) and self.pairs[at][0] == (i, j):
            return self.pairs[at][1]
        return ()

    def vector(self, i: int, j: int) -> Vector:
        """t[i][j] as a dense vector of length d3."""
        return dense_vector(self.row(i, j), self.shape[2])

    def entries(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """(i, j, k, value) of every nonzero, in lexicographic order."""
        for (i, j), row in self.pairs:
            for k, c in row:
                yield i, j, k, c

    def is_zero(self) -> bool:
        return not self.pairs

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        if other.shape != self.shape:
            raise ShapeError(f"cannot subtract a {other.shape} tensor from a {self.shape} one")
        return minus_transposed(self, _transpose(other))


def _from_cells(d1: int, d2: int, d3: int, cells: dict[tuple[int, int], list]) -> Tensor3:
    """The tensor whose row (i, j) holds the nonzero pairs cells[i, j]."""
    return Tensor3((d1, d2, d3), tuple((ij, tuple(sorted(row))) for ij, row in sorted(cells.items())))


def sparse_tensor(d1: int, d2: int, d3: int, entries: dict) -> Tensor3:
    """The tensor with t[i][j][k] = c for each (i, j, k): c of entries, zero
    elsewhere; explicit zeros are dropped."""
    cells: dict[tuple[int, int], list] = {}
    for (i, j, k), c in entries.items():
        if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
            raise ShapeError(f"tensor index ({i}, {j}, {k}) outside shape ({d1}, {d2}, {d3})")
        c = as_fraction(c)
        if c:
            cells.setdefault((i, j), []).append((k, c))
    return _from_cells(d1, d2, d3, cells)


def tensor3(entries: Tensor3 | Sequence[Sequence[Sequence[object]]], d1: int, d2: int, d3: int) -> Tensor3:
    """A Tensor3 of shape (d1, d2, d3) from nested lists (checked and
    coerced through as_fraction) or from a Tensor3 of that shape."""
    if isinstance(entries, Tensor3):
        if entries.shape != (d1, d2, d3):
            raise ShapeError(f"tensor has shape {entries.shape}, expected {(d1, d2, d3)}")
        return entries
    if len(entries) != d1:
        raise ShapeError(f"tensor first axis has {len(entries)} slices, expected {d1}")
    cells: dict[tuple[int, int], list] = {}
    for i, plane in enumerate(entries):
        if len(plane) != d2:
            raise ShapeError(f"tensor slice {i} has {len(plane)} rows, expected {d2}")
        for j, row in enumerate(plane):
            if len(row) != d3:
                raise ShapeError(f"tensor entry [{i}][{j}] has length {len(row)}, expected {d3}")
            pairs = [(k, c) for k, c in enumerate(map(as_fraction, row)) if c]
            if pairs:
                cells[i, j] = pairs
    return _from_cells(d1, d2, d3, cells)


def zero_tensor3(d1: int, d2: int, d3: int) -> Tensor3:
    return Tensor3((d1, d2, d3), ())


def minus_transposed(t: Tensor3, s: Tensor3) -> Tensor3:
    """t[i][j] - s[j][i]: the commutator pattern of brackets and of the
    products and actions the conversions build."""
    d1, d2, d3 = t.shape
    if s.shape != (d2, d1, d3):
        raise ShapeError(f"cannot subtract a {s.shape} tensor transposed from a {t.shape} one")
    cells = {(i, j, k): c for i, j, k, c in t.entries()}
    for j, i, k, c in s.entries():
        cells[i, j, k] = cells.get((i, j, k), ZERO) - c
    return sparse_tensor(d1, d2, d3, cells)


def bilinear(t: Tensor3, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear map with structure tensor t on (x, y)."""
    out = [ZERO] * t.shape[2]
    for (i, j), row in t.pairs:
        if x[i] and y[j]:
            c = x[i] * y[j]
            for k, v in row:
                out[k] += c * v
    return tuple(out)


def compose(
    t: Tensor3, f: MatrixQ | None = None, g: MatrixQ | None = None, h: MatrixQ | None = None
) -> Tensor3:
    """The tensor of h(t(f e_i, g e_j)): the map f fed into the first
    argument of t, g into the second and h applied to the value, each the
    identity when None. It is built from the nonzero pairs of t and the
    nonzeros of f, g and h: t[a][b] reaches (i, j) through the entries
    f[a][i] and g[b][j] of row a of f and row b of g. A None map is read
    as the unit rows of the identity, with no matrix built."""
    (f_rows, f_cols, f_nz), (g_rows, g_cols, g_nz), (h_rows, h_cols, h_nz) = (
        (d, d, tuple(((i, ONE),) for i in range(d))) if m is None else (m.rows, m.cols, m.nonzeros)
        for m, d in zip((f, g, h), t.shape)
    )
    if (f_rows, g_rows, h_cols) != t.shape:
        raise ShapeError(
            f"cannot feed {f_rows}- and {g_rows}-dimensional values into a {t.shape} tensor"
            f" and map its values from dimension {h_cols}"
        )
    h_t = _transposed(h_nz, h_cols)
    cells: dict[tuple[int, int, int], Fraction] = {}
    for (a, b), row in t.pairs:
        for (i, x), (j, y) in itertools.product(f_nz[a], g_nz[b]):
            xy = x * y
            for k, z in row:
                xyz = xy * z
                for r, w in h_t[k]:
                    cells[i, j, r] = cells.get((i, j, r), ZERO) + xyz * w
    return sparse_tensor(f_cols, g_cols, h_rows, cells)


# A tensor scaled to integers: its nonzero index pairs (i, j), each with
# its Row times the scale, as an IntRow.
IntTensor = dict[tuple[int, int], IntRow]


def integer_pairs(*tensors: Tensor3) -> tuple[int, list[IntTensor]]:
    """(D, scaled): D is the common denominator of every entry of the
    tensors, and scaled[t] maps each nonzero index pair of tensors[t] to
    its row times D, in integers. Every integer engine reads a tensor in
    this form, with .get((i, j), ()) for a pair that may be zero."""
    den, rows = integer_rows(row for t in tensors for _, row in t.pairs)
    it = iter(rows)
    return den, [{ij: next(it) for ij, _ in t.pairs} for t in tensors]


# One term of a basis identity read at an index tuple idx: (sign, coeffs,
# (a, b), rows, c) stands for
#     sign * sum_w coeffs[idx[a]][idx[b]][w] * rows[idx[c]][w],
# or for sign * sum_w coeffs[idx[a]][idx[b]][w] * rows[0][w] when c is
# None; rows is then a map's columns (_columns). Both are Tensor3s, and
# IntTensors once the engine has scaled them. a, b and c (a and b when c
# is None) name every position of the index tuple, each once.
Term = tuple[int, Tensor3, tuple[int, int], Tensor3, int | None]
# A basis identity: its name, the terms of its two sides and, optionally,
# the positions of the index tuple its witness reports, in order.
Identity = tuple[str, Sequence[Term], Sequence[Term]] | tuple[str, Sequence[Term], Sequence[Term], tuple[int, ...]]
# Identities checked on every index tuple of a shape (the size of each
# index range), in the order given at each tuple.
Family = tuple[tuple[int, ...], Sequence[Identity]]


def _transpose(t: Tensor3) -> Tensor3:
    """out[j][i] = t[i][j]."""
    d1, d2, d3 = t.shape
    return Tensor3((d2, d1, d3), tuple(sorted(((j, i), row) for (i, j), row in t.pairs)))


def _columns(f: MatrixQ) -> Tensor3:
    """The columns f e_w of a matrix as the rows (0, w) of a tensor: the
    rows a term with c None reads, applying f to a coefficient row."""
    return Tensor3((1, f.cols, f.rows), tuple(((0, w), col) for w, col in enumerate(f.transpose().nonzeros) if col))


def _units(t: Tensor3) -> Tensor3:
    """The columns e_w of the identity of Q^d3 at each w where t has a
    nonzero: the rows that read a coefficient row of t as the vector it is."""
    d = t.shape[2]
    return Tensor3((1, d, d), tuple(((0, w), ((w, ONE),)) for w in sorted({k for _, row in t.pairs for k, _ in row})))


def _image_identity(axiom: str, f: MatrixQ | None, t: Tensor3, s: Tensor3, ab=(0, 1), *order: tuple) -> Identity:
    """f(t[i][j]) = s[i][j] at (i, j) = (idx[a], idx[b]), f the identity
    when None; order is the witness order, as in Identity."""
    f_cols = _units(t) if f is None else _columns(f)
    return (axiom, [(1, t, ab, f_cols, None)], [(1, s, ab, _units(s), None)], *order)


def _accumulate(out: dict[int, int], terms: Iterable[Term], idx: tuple[int, ...]) -> None:
    """Add the integer terms at idx into out, by output index."""
    for sign, coeffs, (a, b), rows, c in terms:
        coeff_row = coeffs.get((idx[a], idx[b]))
        if coeff_row:
            i = 0 if c is None else idx[c]
            for w, x in coeff_row:
                x *= sign
                for k, y in rows.get((i, w), ()):
                    out[k] = out.get(k, 0) + x * y


# The index tuple from (x, y, i) for each placement (a, b, c) of a term's
# indices, or from (x, y) for (a, b) when c is None.
_PLACES = {
    slots: itemgetter(*(slots.index(p) for p in range(len(slots))))
    for r in (2, 3)
    for slots in itertools.permutations(range(r))
}


class _Join:
    """The nonzero products of integer terms, joined as in Gustavson's
    row-by-row sparse product (ACM TOMS 4(3), 1978): a term's coefficient
    pair (x, y) with entry w reaches the rows of the term's row tensor at
    (i, w), and each such row adds into the tuple with x at position a,
    y at b and i at c. Nothing is read at a tuple no product reaches.
    The groupings of a tensor's pairs are built once per engine call."""

    def __init__(self) -> None:
        self._groups: dict[tuple[int, int], dict[int, list]] = {}

    def _grouped(self, t: IntTensor, by: int) -> dict[int, list]:
        """t's pairs ((i, j), row) grouped by i (by 0) or by j (by 1), or
        with by 2 its entries ((i, j), x) of a row at w, grouped by w."""
        found = self._groups.get((id(t), by))
        if found is None:
            found = self._groups[id(t), by] = {}
            for ij, row in t.items():
                if by == 2:
                    for w, x in row:
                        found.setdefault(w, []).append((ij, x))
                else:
                    found.setdefault(ij[by], []).append((ij, row))
        return found

    def keyed(self, term: Term, arity: int) -> tuple[dict[int, list], Callable[[dict, list], None]]:
        """The term's products by the index x0 they put at position 0 of
        its arity-index tuples: (by_x0, visit), where by_x0 maps each such
        x0 to the nonzero pairs that reach it, and visit(diff, by_x0[x0])
        adds their products into diff[idx][k], diff a defaultdict(dict)."""
        sign, coeffs, (a, b), rows, c = term
        slots = (a, b) if c is None else (a, b, c)
        place = _PLACES.get(slots) if len(slots) == arity else None
        if place is None:
            raise ShapeError(f"a term reads positions {slots} of {arity}-index tuples")

        if c is None:
            # one row, rows[0][w], per coefficient entry w
            def visit(diff: dict, pairs: list) -> None:
                for xy, coeff_row in pairs:
                    cell = diff[place(xy)]
                    for w, z in coeff_row:
                        z *= sign
                        for k, v in rows.get((0, w), ()):
                            cell[k] = cell.get(k, 0) + z * v

        elif c == 0:
            # position 0 holds the row index i: join the rows (i, w) with
            # the coefficient entries at w
            at_w = self._grouped(coeffs, 2)

            def visit(diff: dict, pairs: list) -> None:
                for (i, w), row in pairs:
                    for (x, y), z in at_w.get(w, ()):
                        z *= sign
                        cell = diff[place((x, y, i))]
                        for k, v in row:
                            cell[k] = cell.get(k, 0) + z * v

            return self._grouped(rows, 0), visit

        else:
            rows_at = self._grouped(rows, 1)

            def visit(diff: dict, pairs: list) -> None:
                for (x, y), coeff_row in pairs:
                    for w, z in coeff_row:
                        z *= sign
                        for (i, _), row in rows_at.get(w, ()):
                            cell = diff[place((x, y, i))]
                            for k, v in row:
                                cell[k] = cell.get(k, 0) + z * v

        return self._grouped(coeffs, 0 if a == 0 else 1), visit


def _integer_terms(terms: Sequence[Term]) -> tuple[int, list[Term]]:
    """(den, scaled): den is the common denominator of every entry of the
    tensors the terms read, and scaled holds the terms with each of those
    tensors scaled once by den, as IntTensors. A term reads two tensors,
    so a sum of scaled terms is den^2 times the sum of the terms."""
    tensors = {id(t): t for _, coeffs, _, rows, _ in terms for t in (coeffs, rows)}
    den, scaled = integer_pairs(*tensors.values())
    ints = dict(zip(tensors, scaled))
    return den, [(s, ints[id(co)], ab, ints[id(rows)], c) for s, co, ab, rows, c in terms]


def _first_failure(families: Sequence[Family], n: int) -> "Violation | None":
    """Scan each family's index tuples in lexicographic order, and at each
    tuple its identities in order; returns the first place where the two
    sides differ, with both sides as vectors of length n and the indices
    in the order the identity names.

    The work is in integers: the terms of every identity are scaled
    together by _integer_terms, so each side is D^2 times its value;
    fractions are formed only for the witness, by _accumulate at the one
    failing tuple. Each identity's lhs - rhs is summed as a sparse join
    (_Join), one first index x0 at a time: the slice at x0 holds the sum
    at every tuple (x0, ...) that some nonzero product reaches, and the
    slices are visited in increasing x0, so the first one with a nonzero
    sum holds the first failure and no later slice is built.
    """
    den, scaled = _integer_terms(
        [t for _, identities in families for _, lhs, rhs, *_ in identities for t in (*lhs, *rhs)]
    )
    it = iter(scaled)
    join = _Join()

    def side(terms: list[Term], idx: tuple[int, ...]) -> Vector:
        out: dict[int, int] = {}
        _accumulate(out, terms, idx)
        return tuple(Fraction(out[k], den * den) if out.get(k) else ZERO for k in range(n))

    for shape, identities in families:
        # slices[x0]: (identity position, visit, pairs) of every term's products at x0
        checks: list = []
        slices: dict[int, list] = {}
        for axiom, lhs, rhs, *order in identities:
            lhs_int, rhs_int = list(itertools.islice(it, len(lhs))), list(itertools.islice(it, len(rhs)))
            # lhs - rhs as one list of terms
            for term in lhs_int + [(-s, *rest) for s, *rest in rhs_int]:
                by_x0, visit = join.keyed(term, len(shape))
                for x0, pairs in by_x0.items():
                    slices.setdefault(x0, []).append((len(checks), visit, pairs))
            checks.append((axiom, order, lhs_int, rhs_int))
        for x0 in sorted(slices):
            diffs: list[dict[tuple[int, ...], dict[int, int]]] = [defaultdict(dict) for _ in checks]
            for position, visit, pairs in slices[x0]:
                visit(diffs[position], pairs)
            failing = [(idx, p) for p, diff in enumerate(diffs) for idx, cell in diff.items() if any(cell.values())]
            if failing:
                idx, position = min(failing)
                axiom, order, lhs, rhs = checks[position]
                indices = tuple(idx[p] for p in order[0]) if order else idx
                return Violation(axiom, indices, side(lhs, idx), side(rhs, idx))
    return None


@dataclass(frozen=True)
class Violation:
    """Witness of a failed axiom: the axiom name, the 0-based basis
    indices of the first failing tuple in lex order, and both sides."""

    axiom: str
    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector

    def __str__(self) -> str:
        if not self.indices:  # a property of whole maps, such as exactness
            return f"{self.axiom} fails"
        idx = ", ".join(str(i + 1) for i in self.indices)
        lhs = "(" + ", ".join(str(c) for c in self.lhs) + ")"
        rhs = "(" + ", ".join(str(c) for c in self.rhs) + ")"
        return f"{self.axiom} fails at basis indices ({idx}): lhs {lhs} != rhs {rhs}"


@dataclass(frozen=True)
class PreLieAlgebra:
    """Finite-dimensional algebra with structure tensor product[i][j][k]."""

    dim: int
    product: Tensor3
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "product", tensor3(self.product, self.dim, self.dim, self.dim))
        if self.labels is not None and len(self.labels) != self.dim:
            raise ShapeError("label count differs from dimension")

    @classmethod
    def zero_product(cls, dim: int) -> "PreLieAlgebra":
        return cls(dim, zero_tensor3(dim, dim, dim))

    def multiply(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length differs from algebra dimension")
        return bilinear(self.product, x, y)

    def basis_product(self, i: int, j: int) -> Vector:
        return self.product.vector(i, j)

    def basis_vector(self, i: int) -> Vector:
        return standard_basis_vector(self.dim, i)


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra with bracket tensor bracket[i][j][k]."""

    dim: int
    bracket: Tensor3

    def __post_init__(self) -> None:
        object.__setattr__(self, "bracket", tensor3(self.bracket, self.dim, self.dim, self.dim))

    def basis_bracket(self, i: int, j: int) -> Vector:
        return self.bracket.vector(i, j)

    def basis_vector(self, i: int) -> Vector:
        return standard_basis_vector(self.dim, i)


def check_prelie(a: PreLieAlgebra) -> Violation | None:
    """Left-symmetry of the associator on every basis triple, from the
    nonzero structure constants: (e_i e_j) e_k = sum_m P[i][j][m] P[m][k]
    and e_i (e_j e_k) = sum_m P[j][k][m] P[i][m]."""
    p = a.product
    p_t = _transpose(p)
    left_symmetry = (
        "left-symmetry",
        # (e_i e_j) e_k - e_i (e_j e_k)
        [(1, p, (0, 1), p_t, 2), (-1, p, (1, 2), p, 0)],
        # (e_j e_i) e_k - e_j (e_i e_k)
        [(1, p, (1, 0), p_t, 2), (-1, p, (0, 2), p, 1)],
    )
    d = a.dim
    return _first_failure([((d, d, d), [left_symmetry])], d)


def check_lie(l: LieAlgebra) -> Violation | None:
    """Antisymmetry on every basis pair, then the Jacobi identity on
    every basis triple, from the nonzero structure constants:
    [[e_i, e_j], e_k] = sum_m B[i][j][m] B[m][k]."""
    b = l.bracket
    b_t = _transpose(b)
    unit = _units(b)
    # [e_i, e_j]  =  -[e_j, e_i]
    antisymmetry = ("antisymmetry", [(1, b, (0, 1), unit, None)], [(-1, b, (1, 0), unit, None)])
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]  =  0
    jacobi = ("jacobi", [(1, b, (0, 1), b_t, 2), (1, b, (1, 2), b_t, 0), (1, b, (2, 0), b_t, 1)], [])
    d = l.dim
    return _first_failure([((d, d), [antisymmetry]), ((d, d, d), [jacobi])], d)


def subadjacent_lie(a: PreLieAlgebra) -> LieAlgebra:
    """Commutator Lie algebra [x,y] = x*y - y*x of a pre-Lie algebra."""
    return LieAlgebra(a.dim, minus_transposed(a.product, a.product))


@dataclass(frozen=True)
class Representation:
    """A bimodule-style representation (V, left, right) of a pre-Lie algebra.

    left[i][a][b]:  coefficient of v_b in e_i acting on v_a from the left;
    right[a][i][b]: coefficient of v_b in v_a acted on by e_i from the right.
    """

    algebra: PreLieAlgebra
    carrier_dim: int
    left: Tensor3
    right: Tensor3

    def __post_init__(self) -> None:
        d, v = self.algebra.dim, self.carrier_dim
        object.__setattr__(self, "left", tensor3(self.left, d, v, v))
        object.__setattr__(self, "right", tensor3(self.right, v, d, v))

    @classmethod
    def trivial(cls, algebra: PreLieAlgebra, carrier_dim: int) -> "Representation":
        d = algebra.dim
        return cls(
            algebra,
            carrier_dim,
            zero_tensor3(d, carrier_dim, carrier_dim),
            zero_tensor3(carrier_dim, d, carrier_dim),
        )

    @classmethod
    def regular(cls, algebra: PreLieAlgebra) -> "Representation":
        """The algebra acting on itself by its own product."""
        return cls(algebra, algebra.dim, algebra.product, algebra.product)

    def act_left(self, x: Vector, u: Vector) -> Vector:
        if len(x) != self.algebra.dim or len(u) != self.carrier_dim:
            raise DimensionMismatch("argument shapes do not match the representation")
        return bilinear(self.left, x, u)

    def act_right(self, u: Vector, x: Vector) -> Vector:
        if len(x) != self.algebra.dim or len(u) != self.carrier_dim:
            raise DimensionMismatch("argument shapes do not match the representation")
        return bilinear(self.right, u, x)


def check_representation(rep: Representation) -> Violation | None:
    """Left action is a Lie module over the commutator algebra; the mixed
    identity ties the two actions to the pre-Lie product."""
    d, v = rep.algebra.dim, rep.carrier_dim
    p = rep.algebra.product
    bracket = subadjacent_lie(rep.algebra).bracket
    left, right = rep.left, rep.right
    left_t, right_t = _transpose(left), _transpose(right)
    # at (i, j, u): [e_i, e_j] . v_u  =  e_i . (e_j . v_u) - e_j . (e_i . v_u)
    lie_module = (
        "left-action-lie-module",
        [(1, bracket, (0, 1), left_t, 2)],
        [(1, left, (1, 2), left, 0), (-1, left, (0, 2), left, 1)],
    )
    # at (i, u, j): (e_i . v_u) . e_j - e_i . (v_u . e_j)  =  (v_u . e_i) . e_j - v_u . (e_i * e_j)
    mixed = (
        "mixed-identity",
        [(1, left, (0, 1), right_t, 2), (-1, right, (1, 2), left, 0)],
        [(1, right, (1, 0), right_t, 2), (-1, p, (0, 2), right, 1)],
    )
    return _first_failure([((d, d, v), [lie_module]), ((d, v, d), [mixed])], v)


@dataclass(frozen=True)
class ActionData:
    """An action of `acting` on the algebra `module`: a representation on
    the underlying space plus compatibility with the module's own product.

    left[x][u][w]:  e_x acting on m_u from the left;
    right[u][x][w]: m_u acted on by e_x from the right.
    """

    acting: PreLieAlgebra
    module: PreLieAlgebra
    left: Tensor3
    right: Tensor3

    def __post_init__(self) -> None:
        n, m = self.acting.dim, self.module.dim
        object.__setattr__(self, "left", tensor3(self.left, n, m, m))
        object.__setattr__(self, "right", tensor3(self.right, m, n, m))

    def representation(self) -> Representation:
        """Forget the module's own product."""
        return Representation(self.acting, self.module.dim, self.left, self.right)

    def act_left(self, x: Vector, u: Vector) -> Vector:
        return bilinear(self.left, x, u)

    def act_right(self, u: Vector, x: Vector) -> Vector:
        return bilinear(self.right, u, x)


def check_action(act: ActionData) -> Violation | None:
    """Representation axioms plus the two identities mixing the actions
    with the module's own product."""
    bad = check_representation(act.representation())
    if bad is not None:
        return bad
    n, m = act.acting.dim, act.module.dim
    q = act.module.product
    left, right = act.left, act.right
    q_t, right_t = _transpose(q), _transpose(right)
    # at (x, u, v): (e_x . m_u) m_v - e_x . (m_u m_v)  =  (m_u . e_x) m_v - m_u (e_x . m_v)
    left_compat = (
        "action-left-compat",
        [(1, left, (0, 1), q_t, 2), (-1, q, (1, 2), left, 0)],
        [(1, right, (1, 0), q_t, 2), (-1, left, (0, 2), q, 1)],
    )
    # at (u, v, x): (m_u m_v) . e_x - m_u (m_v . e_x)  =  (m_v m_u) . e_x - m_v (m_u . e_x)
    right_compat = (
        "action-right-compat",
        [(1, q, (0, 1), right_t, 2), (-1, right, (1, 2), q, 0)],
        [(1, q, (1, 0), right_t, 2), (-1, right, (0, 2), q, 1)],
    )
    return _first_failure([((n, m, m), [left_compat]), ((m, m, n), [right_compat])], m)


@dataclass(frozen=True)
class AlgebraMorphism:
    """Linear map between pre-Lie algebras, stored as target_dim x source_dim."""

    source: PreLieAlgebra
    target: PreLieAlgebra
    matrix: MatrixQ

    def __post_init__(self) -> None:
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ShapeError(
                f"morphism matrix is {self.matrix.rows}x{self.matrix.cols}, "
                f"expected {self.target.dim}x{self.source.dim}"
            )

    def apply(self, x: Vector) -> Vector:
        return self.matrix.mul_vec(x)


def check_morphism(f: AlgebraMorphism) -> Violation | None:
    """f(x*y) = f(x)*f(y) on every basis pair."""
    d, m = f.source.dim, f.matrix
    morphism = _image_identity("morphism", m, f.source.product, compose(f.target.product, m, m))
    return _first_failure([((d, d), [morphism])], f.target.dim)
