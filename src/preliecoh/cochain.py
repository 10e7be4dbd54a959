"""Cochain complex of a pre-Lie algebra with coefficients in a
representation, its cohomology, and the comparison map to Lie algebra
cohomology.

Degree-n cochains (n >= 1) are maps alternating in the first n-1 slots
and linear in the last: Hom(Lambda^{n-1} g (x) g, V). The coboundary is

  (d f)(x_1,...,x_{n+1}) =
      sum_{i<=n} (-1)^{i+1} x_i . f(...no x_i..., x_{n+1})
    + sum_{i<=n} (-1)^{i+1} f(...no x_i..., x_n, x_i) . x_{n+1}
    - sum_{i<=n} (-1)^{i+1} f(...no x_i..., x_n, x_i * x_{n+1})
    + sum_{i<j<=n} (-1)^{i+j} f([x_i,x_j], ...no x_i,x_j..., x_{n+1})

where . is the left/right module action and [,] the commutator. d^2 = 0
and H^1 is the kernel of d on degree 1 (the complex starts at degree 1).

Composing with the relabeling f(x_1..x_n) -> (x_1..x_{n-1}) |->
f(...,-)(x_n) identifies this complex with the Chevalley-Eilenberg
complex of the commutator Lie algebra with coefficients in Hom(g,V),
where g acts by (x |> f)(y) = x . f(y) + f(x) . y - f(x*y). Both sides
are implemented independently and compared in the tests.

The matrices of both differentials are assembled in integers from the
nonzero structure constants, scaled once per matrix by their common
denominator, and kept as those integers, the one stored form of a
MatrixQ; `coboundary`, the term-by-term formula in Fraction arithmetic,
is the reference of the pre-Lie one. Closedness and classes are decided
on the matrices alone.

A Cochain is stored as the Row of its nonzero coordinates, so its cost
follows its nonzeros, not the size of C^n.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import ArityMismatch, DimensionMismatch, NotACocycle, ShapeError
from .linalg import (
    ONE,
    ZERO,
    IntRow,
    MatrixQ,
    QuotientMap,
    Row,
    SubspaceBasis,
    Vector,
    _summed,
    dense_vector,
    in_kernel,
    integer_rows,
    rank_kernel_image,
    rank_of,
    solve_particular,
    sparse_row,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from .algebra import (
    IntTensor, LieAlgebra, Representation, Tensor3, bilinear, integer_pairs, sparse_tensor, subadjacent_lie, tensor3
)


def increasing_tuples(dim: int, length: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(dim), length))


def tuple_rank(t: Sequence[int], dim: int) -> int:
    """Index of the strictly increasing tuple t in increasing_tuples(dim, len(t)).

    Combinatorial number system: the lexicographic rank of (c_0 < ... <
    c_{m-1}) is C(dim, m) - 1 - sum_i C(dim - 1 - c_i, m - i).
    """
    m = len(t)
    if m and (t[0] < 0 or t[-1] >= dim):
        raise ShapeError(f"index out of range for dimension {dim}: {tuple(t)}")
    return comb(dim, m) - 1 - sum(comb(dim - 1 - c, m - i) for i, c in enumerate(t))


def sort_with_sign(args: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sorted copy and the permutation sign; sign 0 when entries repeat."""
    items = list(args)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
            elif items[j] == items[j + 1]:
                return tuple(items), 0
    return tuple(items), sign


@dataclass(frozen=True)
class CochainBasis:
    """Enumeration of the coordinate positions of C^n(g, V).

    Positions are pairs (I, j) with I a strictly increasing (n-1)-tuple
    and j unrestricted, ordered lexicographically by (I, j). The full
    coordinate of a V-valued cochain appends the V index: position
    p * dim V + b.
    """

    arity: int
    algebra_dim: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ShapeError("cochain arity must be at least 1")

    @property
    def tuples(self) -> list[tuple[tuple[int, ...], int]]:
        return [
            (i, j)
            for i in increasing_tuples(self.algebra_dim, self.arity - 1)
            for j in range(self.algebra_dim)
        ]

    def position(self, prefix: tuple[int, ...], last: int) -> int:
        return tuple_rank(prefix, self.algebra_dim) * self.algebra_dim + last

    def args(self, position: int) -> tuple[int, ...]:
        """prefix + (last,) at a position; the inverse of `position`.

        Of the increasing m-tuples, C(dim - 1 - c, m - 1) start with c, so
        each prefix entry is found by skipping whole blocks.
        """
        rank, last = divmod(position, self.algebra_dim)
        prefix = []
        c = 0
        for m in range(self.arity - 1, 0, -1):
            while rank >= (block := comb(self.algebra_dim - 1 - c, m - 1)):
                rank -= block
                c += 1
            prefix.append(c)
            c += 1
        return (*prefix, last)

    def __len__(self) -> int:
        return comb(self.algebra_dim, self.arity - 1) * self.algebra_dim


@dataclass(frozen=True)
class Cochain:
    """Element of C^n(g, V), stored as the Row of its nonzero coordinates:
    the V-component b of the value at CochainBasis position p is
    coordinate p * carrier_dim + b. Equal cochains compare and hash equal."""

    arity: int
    algebra_dim: int
    carrier_dim: int
    row: Row = ()

    def __post_init__(self) -> None:
        size = len(CochainBasis(self.arity, self.algebra_dim)) * self.carrier_dim
        if self.row and not 0 <= self.row[0][0] <= self.row[-1][0] < size:
            raise ShapeError("coordinate row outside the cochain space")

    @classmethod
    def zero(cls, arity: int, algebra_dim: int, carrier_dim: int) -> "Cochain":
        return cls(arity, algebra_dim, carrier_dim)

    @classmethod
    def from_coordinates(cls, arity: int, algebra_dim: int, carrier_dim: int, coords: Sequence[Fraction]) -> "Cochain":
        if len(coords) != len(CochainBasis(arity, algebra_dim)) * carrier_dim:
            raise ShapeError("coordinate vector has wrong length")
        return cls(arity, algebra_dim, carrier_dim, sparse_row(coords))

    def to_coordinates(self) -> Vector:
        return dense_vector(self.row, len(CochainBasis(self.arity, self.algebra_dim)) * self.carrier_dim)

    def nonzero_values(self) -> Iterator[tuple[tuple[int, ...], Row]]:
        """(arguments, value) at each position with a nonzero value, in
        position order; the value is the Row of its V-components."""
        basis = CochainBasis(self.arity, self.algebra_dim)
        v = self.carrier_dim
        for p, entries in itertools.groupby(self.row, key=lambda e: e[0] // v):
            yield basis.args(p), tuple((k - p * v, x) for k, x in entries)

    def value_at(self, args: Sequence[int]) -> Vector:
        """Evaluate on a tuple of basis indices (length = arity)."""
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        prefix, sign = sort_with_sign(args[:-1])
        out = [ZERO] * self.carrier_dim
        if sign:
            base = (tuple_rank(prefix, self.algebra_dim) * self.algebra_dim + args[-1]) * self.carrier_dim
            # (k,) sorts just before (k, x), so no Fraction is compared
            lo = bisect_left(self.row, (base,))
            for k, x in self.row[lo : bisect_left(self.row, (base + self.carrier_dim,), lo)]:
                out[k - base] = x if sign == 1 else -x
        return tuple(out)

    def evaluate(self, vectors: Sequence[Vector]) -> Vector:
        """Fully multilinear evaluation on algebra-valued arguments."""
        if len(vectors) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(vectors)}")
        out = zero_vector(self.carrier_dim)
        for args in itertools.product(range(self.algebra_dim), repeat=self.arity):
            c = ONE
            for v, a in zip(vectors, args):
                c *= v[a]
                if c == 0:
                    break
            if c == 0:
                continue
            out = vec_add(out, vec_scale(c, self.value_at(args)))
        return out

    def add(self, other: "Cochain") -> "Cochain":
        self._require_same_space(other)
        return Cochain(self.arity, self.algebra_dim, self.carrier_dim, _summed(self.row + other.row))

    def sub(self, other: "Cochain") -> "Cochain":
        self._require_same_space(other)
        negated = tuple((k, -x) for k, x in other.row)
        return Cochain(self.arity, self.algebra_dim, self.carrier_dim, _summed(self.row + negated))

    def is_zero(self) -> bool:
        return not self.row

    def _require_same_space(self, other: "Cochain") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arities {self.arity} and {other.arity}")
        if (self.algebra_dim, self.carrier_dim) != (other.algebra_dim, other.carrier_dim):
            raise DimensionMismatch("cochains live over different spaces")


def coboundary(rep: Representation, f: Cochain) -> Cochain:
    """The pre-Lie differential d: C^n -> C^{n+1}, term by term in
    Fraction arithmetic; a term whose f value is zero is skipped."""
    a = rep.algebra
    if f.algebra_dim != a.dim or f.carrier_dim != rep.carrier_dim:
        raise DimensionMismatch("cochain does not match the representation")
    n = f.arity
    out_basis = CochainBasis(n + 1, a.dim)
    coords: list[Fraction] = []
    for prefix, last in out_basis.tuples:
        args = prefix + (last,)
        total = zero_vector(rep.carrier_dim)
        for i in range(1, n + 1):
            sign = ONE if i % 2 == 1 else -ONE
            xi = args[i - 1]
            rest = args[: i - 1] + args[i:]
            # x_i . f(...,x_{n+1})
            val = f.value_at(rest)
            if any(val):
                term = bilinear(rep.left, a.basis_vector(xi), val)
                total = vec_add(total, vec_scale(sign, term))
            # f(...,x_n,x_i) . x_{n+1}
            shuffled = args[: i - 1] + args[i:n] + (xi,)
            val = f.value_at(shuffled)
            if any(val):
                term = bilinear(rep.right, val, a.basis_vector(args[n]))
                total = vec_add(total, vec_scale(sign, term))
            # -f(...,x_n, x_i * x_{n+1})
            prod = a.basis_product(xi, args[n])
            head = args[: i - 1] + args[i:n]
            for k, c in enumerate(prod):
                if c != 0:
                    val = f.value_at(head + (k,))
                    if any(val):
                        total = vec_sub(total, vec_scale(sign * c, val))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                sign = ONE if (i + j) % 2 == 0 else -ONE
                br = vec_sub(
                    a.basis_product(args[i - 1], args[j - 1]),
                    a.basis_product(args[j - 1], args[i - 1]),
                )
                rest = tuple(args[t] for t in range(n + 1) if t not in (i - 1, j - 1))
                for k, c in enumerate(br):
                    if c != 0:
                        val = f.value_at((k,) + rest)
                        if any(val):
                            total = vec_add(total, vec_scale(sign * c, val))
        coords.extend(total)
    return Cochain.from_coordinates(n + 1, a.dim, rep.carrier_dim, coords)


def _assemble(rows: int, cols: int, den: int, terms: Iterable[tuple[int, int, int]]) -> MatrixQ:
    """The rows x cols matrix whose entry (r, c) is the sum of every x in
    the (r, c, x) triples of `terms`, over den.

    The row rules below yield one integer triple per nonzero constant
    they visit, each scaled by the common denominator den, so zero
    entries cost nothing and the sums are exact in ints. The matrix is
    built from those sums as its integer form, with no Fraction, and a
    dict is made only for a row that some term reaches.
    """
    acc: list[dict[int, int] | None] = [None] * rows
    for r, c, x in terms:
        row = acc[r]
        if row is None:
            row = acc[r] = {}
        row[c] = row.get(c, 0) + x
    return MatrixQ(rows, cols, integer=(den, tuple(
        tuple([(c, x) for c, x in sorted(row.items()) if x]) if row else () for row in acc
    )))


def _prelie_terms(
    n: int, d: int, v: int, prod: IntTensor, left: IntTensor, right: IntTensor
) -> Iterator[tuple[int, int, int]]:
    """Row rule of d: C^n -> C^{n+1}, term by term as in `coboundary`,
    on integer-scaled structure rows: prod at (x, y) (x * y), left at
    (x, b) (x . v_b) and right at (b, y) (v_b . y); the commutator [x, y]
    is read off prod.

    Output position (prefix, last) with prefix = (x_1..x_n) increasing
    and x_{n+1} = last; dropping x_i leaves an increasing head, so only
    the bracket term needs a sign from re-sorting. Everything that does
    not depend on last is found once per prefix.
    """
    # (b', b, c) for each term c v_b' of x . v_b, and of v_b . y
    lefts = [[(bp, b, c) for b in range(v) for bp, c in left.get((x, b), ())] for x in range(d)]
    rights = [[(bp, b, c) for b in range(v) for bp, c in right.get((b, y), ())] for y in range(d)]
    # [x, y] = x * y - y * x for x < y
    bracket: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, y in itertools.combinations(range(d), 2):
        terms = dict(prod.get((x, y), ()))
        for k, c in prod.get((y, x), ()):
            terms[k] = terms.get(k, 0) - c
        bracket[x, y] = [(k, c) for k, c in terms.items() if c]
    for out, prefix in enumerate(itertools.combinations(range(d), n)):
        # (sign, x_i, position of the head without x_i times d)
        heads = [
            (1 if i % 2 == 0 else -1, xi, tuple_rank(prefix[:i] + prefix[i + 1 :], d) * d)
            for i, xi in enumerate(prefix)
        ]
        # (position of the re-sorted bracket key times d, signed constant)
        brackets = []
        for i, j in itertools.combinations(range(n), 2):
            s = 1 if (i + j) % 2 == 0 else -1
            rest = prefix[:i] + prefix[i + 1 : j] + prefix[j + 1 :]
            for k, c in bracket[prefix[i], prefix[j]]:
                key, sign = sort_with_sign((k,) + rest)
                if sign:
                    brackets.append((tuple_rank(key, d) * d, s * sign * c))
        for last in range(d):
            row = (out * d + last) * v
            for s, xi, base in heads:
                # x_i . f(head, x_{n+1})
                col = (base + last) * v
                for bp, b, c in lefts[xi]:
                    yield row + bp, col + b, s * c
                # f(head, x_i) . x_{n+1}
                col = (base + xi) * v
                for bp, b, c in rights[last]:
                    yield row + bp, col + b, s * c
                # -f(head, x_i * x_{n+1})
                for k, c in prod.get((xi, last), ()):
                    col = (base + k) * v
                    for b in range(v):
                        yield row + b, col + b, -s * c
            # f([x_i, x_j], ...no x_i, x_j..., x_{n+1})
            for base, c in brackets:
                col = (base + last) * v
                for b in range(v):
                    yield row + b, col + b, c


def coboundary_matrix(rep: Representation, n: int) -> MatrixQ:
    """Matrix of d: C^n -> C^{n+1} in the CochainBasis coordinates,
    assembled from the nonzero structure constants, scaled once to
    integers over their common denominator; `coboundary` is the
    reference it is tested against."""
    a = rep.algebra
    d, v = a.dim, rep.carrier_dim
    rows = len(CochainBasis(n + 1, d)) * v
    cols = len(CochainBasis(n, d)) * v
    den, tensors = integer_pairs(a.product, rep.left, rep.right)
    return _assemble(rows, cols, den, _prelie_terms(n, d, v, *tensors))


class CochainComplex:
    """C^*(g, V) for one representation, building, ranking and
    eliminating each d_n at most once.

    Make one per command or call and hand it to `cohomology` and
    `are_cohomologous` (and an h3 computed from it to `t_map`) so they
    share the matrices; nothing outlives the object.
    """

    def __init__(self, rep: Representation) -> None:
        self.rep = rep
        self._d: dict[int, MatrixQ] = {}
        self._eliminated: dict[int, tuple[int, SubspaceBasis, SubspaceBasis]] = {}
        self._rank: dict[int, int] = {0: 0}

    @classmethod
    def of(cls, source: Representation | CochainComplex) -> CochainComplex:
        return source if isinstance(source, CochainComplex) else cls(source)

    def d(self, n: int) -> MatrixQ:
        """d: C^n -> C^{n+1}, built through `coboundary_matrix` on first use."""
        if n not in self._d:
            self._d[n] = coboundary_matrix(self.rep, n)
        return self._d[n]

    def eliminated(self, n: int) -> tuple[int, SubspaceBasis, SubspaceBasis]:
        """rank_kernel_image(d_n), computed on first use."""
        if n not in self._eliminated:
            self._eliminated[n] = rank_kernel_image(self.d(n))
        return self._eliminated[n]

    def rank(self, n: int) -> int:
        """rank d_n, and 0 for n = 0 (the complex starts at degree 1): read
        off `eliminated(n)` when that is cached, else found by a forward
        pass alone."""
        if n not in self._rank:
            self._rank[n] = self._eliminated[n][0] if n in self._eliminated else rank_of(self.d(n))
        return self._rank[n]


@dataclass(frozen=True)
class CohomologySpace:
    """H^n(g, V) with chosen cocycle representatives, in kernel coordinates.

    The kernel row k_j of d_n at a free column j holds 1 at j, 0 at the
    other free columns F and entries only at pivot columns. So w -> w|_F
    maps ker d_n onto Q^F, z is closed exactly when z = sum_{j in F} z[j]
    k_j, and im d_{n-1} maps onto W, the span of the columns of d_{n-1}
    read at F. `quotient` is Q^F / W with F in decreasing order, so its
    complement holds the j with e_j outside W + span(e_j' : j' < j): the
    kernel rows a left-to-right scan keeps independent modulo im d_{n-1}.
    They are the representatives, and the reduction of z|_F gives [z].
    """

    arity: int
    dimension: int
    representatives: tuple[Cochain, ...]
    kernel: SubspaceBasis
    quotient: QuotientMap

    @cached_property
    def _scaled_kernel(self) -> tuple[dict[int, int], int, list[IntRow]]:
        """(index, den, rows): kernel row t at its free column, and the
        kernel rows times their common denominator den, in integers."""
        # kernel row t ends with its free column, at value 1
        index = {row[-1][0]: t for t, row in enumerate(self.kernel.rows)}
        return (index, *integer_rows(self.kernel.rows))

    def class_coordinates(self, z: Cochain) -> Vector:
        """Coordinates of [z] against the representatives; NotACocycle
        unless z is closed."""
        if z.arity != self.arity:
            raise ArityMismatch(f"expected arity {self.arity}, got {z.arity}")
        if len(CochainBasis(z.arity, z.algebra_dim)) * z.carrier_dim != self.kernel.ambient_dim:
            raise DimensionMismatch("cochain does not live in this cochain space")
        index, den, kernel = self._scaled_kernel
        # z = sum_{j in F} z[j] k_j, both sides times den and z's denominator
        _, (w,) = integer_rows((z.row,))
        acc: dict[int, int] = {}
        for j, x in w:
            if j in index:
                for k, y in kernel[index[j]]:
                    acc[k] = acc.get(k, 0) + x * y
        if {k: y for k, y in acc.items() if y} != {j: den * x for j, x in w if x}:
            raise NotACocycle("vector does not reduce into the span of the representatives")
        # the quotient reads F in decreasing order, and so its complement
        # lists the representatives last first
        top = len(index) - 1
        coords = self.quotient.reduce_row(tuple((top - index[j], x) for j, x in reversed(z.row) if j in index))
        return dense_vector(coords, self.dimension)[::-1]


def cohomology(rep: Representation | CochainComplex, n: int) -> CohomologySpace:
    """Kernel of d_n modulo image of d_{n-1}; for n = 1 just the kernel.

    Pass a CochainComplex to reuse matrices it has already built. d_{n-1}
    is read, not eliminated: see CohomologySpace.
    """
    if n < 1:
        raise ShapeError("cohomology defined for arity >= 1")
    cx = CochainComplex.of(rep)
    a_dim = cx.rep.algebra.dim
    v_dim = cx.rep.carrier_dim
    _, kernel, _ = cx.eliminated(n)
    top = kernel.dim - 1
    # the columns of d_{n-1} at F, free column j at coordinate top - t for
    # kernel row t; visiting F from the right appends in increasing order.
    # They are read off the integer rows, den times d_{n-1}, whose columns
    # span the same W, and enter the quotient's elimination as they are.
    columns: list[list[tuple[int, int]]] = []
    if n > 1:
        d = cx.d(n - 1)
        rows = d.integer[1]
        columns = [[] for _ in range(d.cols)]
        for t in range(top, -1, -1):
            for c, x in rows[kernel.rows[t][-1][0]]:
                columns[c].append((top - t, x))
    quot = QuotientMap.build(kernel.dim, SubspaceBasis(kernel.dim, tuple(map(tuple, columns))), spanning=True)
    kept = [top - r for r in reversed(quot.complement)]
    return CohomologySpace(
        arity=n,
        dimension=len(kept),
        representatives=tuple(Cochain(n, a_dim, v_dim, kernel.rows[t]) for t in kept),
        kernel=kernel,
        quotient=quot,
    )


def cohomology_dimension(rep: Representation | CochainComplex, n: int) -> int:
    """dim H^n = dim C^n - rank d_n - rank d_{n-1}, as im d_{n-1} lies in
    ker d_n; equals cohomology(rep, n).dimension without building a
    kernel, a quotient or representatives.

    Pass a CochainComplex to reuse matrices and ranks it already holds.
    """
    if n < 1:
        raise ShapeError("cohomology defined for arity >= 1")
    cx = CochainComplex.of(rep)
    space_dim = len(CochainBasis(n, cx.rep.algebra.dim)) * cx.rep.carrier_dim
    return space_dim - cx.rank(n) - cx.rank(n - 1)


def are_cohomologous(rep: Representation | CochainComplex, f1: Cochain, f2: Cochain) -> Cochain | None:
    """A primitive b with d b = f1 - f2, or None when the classes differ.

    Both inputs must be closed cocycles of equal arity >= 2. Pass a
    CochainComplex to reuse matrices it has already built.
    """
    if f1.arity != f2.arity:
        raise ArityMismatch(f"arities {f1.arity} and {f2.arity}")
    n = f1.arity
    if n < 2:
        raise ArityMismatch("no coboundaries below arity 2")
    cx = CochainComplex.of(rep)
    diff = f1.sub(f2)
    if (f1.algebra_dim, f1.carrier_dim) != (cx.rep.algebra.dim, cx.rep.carrier_dim):
        raise DimensionMismatch("cochain does not match the representation")
    if not in_kernel(cx.d(n), (f1.row, f2.row)):
        raise NotACocycle("inputs must be closed")
    coords = solve_particular(cx.d(n - 1), diff.row)
    if coords is None:
        return None
    return Cochain(n - 1, cx.rep.algebra.dim, cx.rep.carrier_dim, sparse_row(coords))


# --- Lie side ---------------------------------------------------------------


@dataclass(frozen=True)
class LieModule:
    """A Lie algebra module: action[i][a][b] is e_i acting on w_a."""

    algebra: LieAlgebra
    dim: int
    action: Tensor3

    def __post_init__(self) -> None:
        object.__setattr__(self, "action", tensor3(self.action, self.algebra.dim, self.dim, self.dim))

    def act(self, x: Vector, w: Vector) -> Vector:
        return bilinear(self.action, x, w)


def hom_module(rep: Representation) -> LieModule:
    """Hom(g, V) as a module over the commutator Lie algebra of g, with
    (x |> f)(y) = x . f(y) + f(x) . y - f(x * y).

    Basis: E_{j,b} sends e_j to v_b, index j * dim V + b.
    """
    a = rep.algebra
    d, v = a.dim, rep.carrier_dim
    w_dim = d * v
    # action[i][j * v + b][y * v + b'] is the v_b' part of
    # (e_i |> E_{j,b})(e_y) = e_i . E_{j,b}(e_y) + E_{j,b}(e_i) . e_y - E_{j,b}(e_i * e_y)
    cells: dict[tuple[int, int, int], Fraction] = {}

    def add(i: int, w: int, w2: int, c: Fraction) -> None:
        cells[i, w, w2] = cells.get((i, w, w2), ZERO) + c

    for i, b, bp, c in rep.left.entries():  # e_i . v_b, at y = j
        for j in range(d):
            add(i, j * v + b, j * v + bp, c)
    for b, y, bp, c in rep.right.entries():  # v_b . e_y, when j = i
        for i in range(d):
            add(i, i * v + b, y * v + bp, c)
    for i, y, j, c in a.product.entries():  # the e_j part of e_i * e_y, times -v_b
        for b in range(v):
            add(i, j * v + b, y * v + b, -c)
    return LieModule(subadjacent_lie(a), w_dim, sparse_tensor(d, w_dim, w_dim, cells))


def _lie_terms(k: int, d: int, m: int, action: IntTensor, bracket: IntTensor) -> Iterator[tuple[int, int, int]]:
    """Row rule of the Chevalley-Eilenberg d: C^k -> C^{k+1} on
    integer-scaled structure rows, action at (x, w) (x . w) and bracket
    at (x, y) ([x, y]); written apart from `_prelie_terms` so the two complexes
    stay independent."""
    # (w', w, c) for each term c w' of x . w
    actions = [[(wp, w, c) for w in range(m) for wp, c in action.get((x, w), ())] for x in range(d)]
    for out, args in enumerate(itertools.combinations(range(d), k + 1)):
        row = out * m
        # x_i . f(...no x_i...)
        for i, xi in enumerate(args):
            s = 1 if i % 2 == 0 else -1
            col = tuple_rank(args[:i] + args[i + 1 :], d) * m
            for wp, w, c in actions[xi]:
                yield row + wp, col + w, s * c
        # f([x_i, x_j], ...no x_i, x_j...)
        for i, j in itertools.combinations(range(k + 1), 2):
            s = 1 if (i + j) % 2 == 0 else -1
            rest = args[:i] + args[i + 1 : j] + args[j + 1 :]
            for t, c in bracket.get((args[i], args[j]), ()):
                key, sign = sort_with_sign((t,) + rest)
                if sign == 0:
                    continue
                col = tuple_rank(key, d) * m
                for w in range(m):
                    yield row + w, col + w, s * sign * c


def lie_coboundary_matrix(mod: LieModule, k: int) -> MatrixQ:
    """Matrix of the CE differential, assembled in integers like
    `coboundary_matrix`."""
    d, m = mod.algebra.dim, mod.dim
    den, tensors = integer_pairs(mod.action, mod.algebra.bracket)
    return _assemble(comb(d, k + 1) * m, comb(d, k) * m, den, _lie_terms(k, d, m, *tensors))


class LieComplex:
    """C^*(lie, mod) for one module, building and ranking each CE matrix
    at most once; like CochainComplex, make one per command or call."""

    def __init__(self, mod: LieModule) -> None:
        self.mod = mod
        self._rank: dict[int, int] = {}

    @classmethod
    def of(cls, source: LieModule | LieComplex) -> LieComplex:
        return source if isinstance(source, LieComplex) else cls(source)

    def rank(self, k: int) -> int:
        """Rank of d: C^k -> C^{k+1}, built through `lie_coboundary_matrix`."""
        if k not in self._rank:
            self._rank[k] = rank_of(lie_coboundary_matrix(self.mod, k))
        return self._rank[k]


def lie_cohomology_dimension(mod: LieModule | LieComplex, k: int) -> int:
    """dim H^k(lie, mod) for k >= 0 via rank-nullity on the CE matrices.

    Pass a LieComplex to reuse ranks it has already computed.
    """
    if k < 0:
        raise ShapeError("Lie cohomology defined for arity >= 0")
    cx = LieComplex.of(mod)
    nullity = comb(cx.mod.algebra.dim, k) * cx.mod.dim - cx.rank(k)
    if k == 0:
        return nullity
    return nullity - cx.rank(k - 1)

