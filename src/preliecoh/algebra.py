"""Pre-Lie algebras, their sub-adjacent Lie algebras, representations,
actions and morphisms, with exhaustive exact axiom checkers.

A pre-Lie algebra is a vector space with a bilinear product whose
associator is symmetric in its first two arguments:

    (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

The commutator [x,y] = x*y - y*x then satisfies Jacobi, giving the
sub-adjacent Lie algebra. All spaces here are finite-dimensional over Q
and structures are basis tensors, each stored once as its nonzeros per
index pair (Tensor3); checkers evaluate every axiom on every basis
tuple from those nonzeros and report the first failing tuple in
lexicographic order (0-based indices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DimensionMismatch, NotAnIdeal, ShapeError
from .linalg import (
    ONE,
    ZERO,
    MatrixQ,
    Row,
    SubspaceBasis,
    Vector,
    as_fraction,
    dense_vector,
    solve_particular,
    standard_basis_vector,
    zero_vector,
)


@dataclass(frozen=True)
class Tensor3:
    """A structure tensor t[i][j][k] of shape (d1, d2, d3), stored once as
    its nonzeros per index pair: rows[i][j] is the Row of t[i][j]. The
    layout is canonical, so equal tensors compare and hash equal."""

    shape: tuple[int, int, int]
    rows: tuple[tuple[Row, ...], ...]

    def vector(self, i: int, j: int) -> Vector:
        """t[i][j] as a dense vector of length d3."""
        return dense_vector(self.rows[i][j], self.shape[2])

    def entries(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """(i, j, k, value) of every nonzero, in lexicographic order."""
        for i, plane in enumerate(self.rows):
            for j, row in enumerate(plane):
                for k, c in row:
                    yield i, j, k, c

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))


def _from_cells(d1: int, d2: int, d3: int, cells: dict[tuple[int, int], list]) -> Tensor3:
    """The tensor whose row (i, j) holds the nonzero pairs cells[i, j]."""
    return Tensor3(
        (d1, d2, d3),
        tuple(
            tuple(tuple(sorted(cells[i, j])) if (i, j) in cells else () for j in range(d2))
            for i in range(d1)
        ),
    )


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
    return sparse_tensor(d1, d2, d3, {})


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
    for i, xi in enumerate(x):
        if xi:
            plane = t.rows[i]
            for j, yj in enumerate(y):
                if yj and plane[j]:
                    c = xi * yj
                    for k, v in plane[j]:
                        out[k] += c * v
    return tuple(out)


# One term of a basis identity: (sign, coefficients c_w, rows): it stands
# for sign * sum_w c_w * rows[w].
Term = tuple[int, Sequence[tuple[int, Fraction]], Sequence[Row]]
# An identity checked at each index tuple: its name and sides(*idx), the
# (lhs, rhs) terms there.
Check = tuple[str, Callable[..., tuple[list[Term], list[Term]]]]


def _transpose(rows: Sequence[Sequence[Row]]) -> list[tuple[Row, ...]]:
    """out[j][i] = rows[i][j]."""
    return list(zip(*rows))


def _combine(terms: Sequence[Term], n: int) -> Vector:
    out = [ZERO] * n
    for sign, coeffs, rows in terms:
        for w, c in coeffs:
            for k, x in rows[w]:
                out[k] += sign * c * x
    return tuple(out)


def _first_failure(tuples: Iterable[tuple[int, ...]], checks: Sequence[Check], n: int) -> "Violation | None":
    """Scan index tuples in order, and at each tuple the identities in
    the order given; returns the first place where the two sides differ,
    with both sides as vectors of length n."""
    for idx in tuples:
        for axiom, sides in checks:
            lhs, rhs = sides(*idx)
            diff: dict[int, Fraction] = {}
            for terms, outer in ((lhs, 1), (rhs, -1)):
                for sign, coeffs, rows in terms:
                    for w, c in coeffs:
                        c *= sign * outer
                        for k, x in rows[w]:
                            diff[k] = diff.get(k, ZERO) + c * x
            if any(diff.values()):
                return Violation(axiom, idx, _combine(lhs, n), _combine(rhs, n))
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

    def is_zero_algebra(self) -> bool:
        return self.product.is_zero()


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra with bracket tensor bracket[i][j][k]."""

    dim: int
    bracket: Tensor3

    def __post_init__(self) -> None:
        object.__setattr__(self, "bracket", tensor3(self.bracket, self.dim, self.dim, self.dim))

    def bracket_of(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length differs from algebra dimension")
        return bilinear(self.bracket, x, y)

    def basis_bracket(self, i: int, j: int) -> Vector:
        return self.bracket.vector(i, j)

    def basis_vector(self, i: int) -> Vector:
        return standard_basis_vector(self.dim, i)


def check_prelie(a: PreLieAlgebra) -> Violation | None:
    """Left-symmetry of the associator on every basis triple, from the
    nonzero structure constants: (e_i e_j) e_k = sum_m P[i][j][m] P[m][k]
    and e_i (e_j e_k) = sum_m P[j][k][m] P[i][m]."""
    p = a.product.rows
    by_right = _transpose(p)

    def sides(i: int, j: int, k: int) -> tuple[list[Term], list[Term]]:
        lhs = [(1, p[i][j], by_right[k]), (-1, p[j][k], p[i])]
        rhs = [(1, p[j][i], by_right[k]), (-1, p[i][k], p[j])]
        return lhs, rhs

    return _first_failure(itertools.product(range(a.dim), repeat=3), [("left-symmetry", sides)], a.dim)


def check_lie(l: LieAlgebra) -> Violation | None:
    """Antisymmetry on every basis pair, then the Jacobi identity on
    every basis triple, from the nonzero structure constants:
    [[e_i, e_j], e_k] = sum_m B[i][j][m] B[m][k]."""
    b = l.bracket.rows
    by_right = _transpose(b)

    def antisymmetry(i: int, j: int) -> tuple[list[Term], list[Term]]:
        # [e_i, e_j]  =  -[e_j, e_i]
        return [(1, ((j, ONE),), b[i])], [(-1, ((i, ONE),), b[j])]

    def jacobi(i: int, j: int, k: int) -> tuple[list[Term], list[Term]]:
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]  =  0
        lhs = [(1, b[i][j], by_right[k]), (1, b[j][k], by_right[i]), (1, b[k][i], by_right[j])]
        return lhs, []

    d = range(l.dim)
    return _first_failure(
        itertools.product(d, repeat=2), [("antisymmetry", antisymmetry)], l.dim
    ) or _first_failure(itertools.product(d, repeat=3), [("jacobi", jacobi)], l.dim)


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

    def basis_left(self, i: int, a: int) -> Vector:
        return self.left.vector(i, a)

    def basis_right(self, a: int, i: int) -> Vector:
        return self.right.vector(a, i)


def check_representation(rep: Representation) -> Violation | None:
    """Left action is a Lie module over the commutator algebra; the mixed
    identity ties the two actions to the pre-Lie product."""
    a = rep.algebra
    v = rep.carrier_dim
    p = a.product.rows
    bracket = subadjacent_lie(a).bracket.rows
    left, right = rep.left.rows, rep.right.rows
    left_t, right_t = _transpose(left), _transpose(right)

    def lie_module(i: int, j: int, u: int) -> tuple[list[Term], list[Term]]:
        # [e_i, e_j] . v_u  =  e_i . (e_j . v_u) - e_j . (e_i . v_u)
        lhs = [(1, bracket[i][j], left_t[u])]
        rhs = [(1, left[j][u], left[i]), (-1, left[i][u], left[j])]
        return lhs, rhs

    def mixed(i: int, u: int, j: int) -> tuple[list[Term], list[Term]]:
        # (e_i . v_u) . e_j - e_i . (v_u . e_j)  =  (v_u . e_i) . e_j - v_u . (e_i * e_j)
        lhs = [(1, left[i][u], right_t[j]), (-1, right[u][j], left[i])]
        rhs = [(1, right[u][i], right_t[j]), (-1, p[i][j], right[u])]
        return lhs, rhs

    d = range(a.dim)
    return _first_failure(
        itertools.product(d, d, range(v)), [("left-action-lie-module", lie_module)], v
    ) or _first_failure(itertools.product(d, range(v), d), [("mixed-identity", mixed)], v)


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

    def basis_left(self, i: int, a: int) -> Vector:
        return self.left.vector(i, a)

    def basis_right(self, a: int, i: int) -> Vector:
        return self.right.vector(a, i)


def check_action(act: ActionData) -> Violation | None:
    """Representation axioms plus the two identities mixing the actions
    with the module's own product."""
    bad = check_representation(act.representation())
    if bad is not None:
        return bad
    n, m = range(act.acting.dim), range(act.module.dim)
    q = act.module.product.rows
    left, right = act.left.rows, act.right.rows
    q_t, right_t = _transpose(q), _transpose(right)

    def left_compat(x: int, u: int, v: int) -> tuple[list[Term], list[Term]]:
        # (e_x . m_u) m_v - e_x . (m_u m_v)  =  (m_u . e_x) m_v - m_u (e_x . m_v)
        lhs = [(1, left[x][u], q_t[v]), (-1, q[u][v], left[x])]
        rhs = [(1, right[u][x], q_t[v]), (-1, left[x][v], q[u])]
        return lhs, rhs

    def right_compat(u: int, v: int, x: int) -> tuple[list[Term], list[Term]]:
        # (m_u m_v) . e_x - m_u (m_v . e_x)  =  (m_v m_u) . e_x - m_v (m_u . e_x)
        lhs = [(1, q[u][v], right_t[x]), (-1, right[v][x], q[u])]
        rhs = [(1, q[v][u], right_t[x]), (-1, right[u][x], q[v])]
        return lhs, rhs

    size = act.module.dim
    return _first_failure(
        itertools.product(n, m, m), [("action-left-compat", left_compat)], size
    ) or _first_failure(itertools.product(m, m, n), [("action-right-compat", right_compat)], size)


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

    def apply_basis(self, i: int) -> Vector:
        return self.matrix.col(i)


def check_morphism(f: AlgebraMorphism) -> Violation | None:
    """f(x*y) = f(x)*f(y) on every basis pair."""
    for i, j in itertools.product(range(f.source.dim), repeat=2):
        lhs = f.apply(f.source.basis_product(i, j))
        rhs = f.target.multiply(f.apply_basis(i), f.apply_basis(j))
        if lhs != rhs:
            return Violation("morphism", (i, j), lhs, rhs)
    return None


def check_two_sided_ideal(a: PreLieAlgebra, sub: SubspaceBasis) -> Violation | None:
    """A*R and R*A both land in span(R) for every (basis vector, generator)."""
    if sub.ambient_dim != a.dim:
        raise DimensionMismatch("subspace lives in a different space than the algebra")
    for i in range(a.dim):
        for t, r in enumerate(sub.vectors):
            left = a.multiply(a.basis_vector(i), r)
            if not sub.contains(left):
                return Violation("ideal-left", (i, t), left, zero_vector(a.dim))
            right = a.multiply(r, a.basis_vector(i))
            if not sub.contains(right):
                return Violation("ideal-right", (t, i), right, zero_vector(a.dim))
    return None


def ideal_subalgebra(a: PreLieAlgebra, sub: SubspaceBasis) -> tuple[PreLieAlgebra, MatrixQ]:
    """The ideal span(sub) as an algebra in its own basis, plus the
    inclusion matrix (columns are the generators). Raises NotAnIdeal."""
    bad = check_two_sided_ideal(a, sub)
    if bad is not None:
        raise NotAnIdeal(str(bad))
    incl = sub.as_column_matrix()
    m = sub.dim
    prod = []
    for i in range(m):
        row = []
        for j in range(m):
            p = a.multiply(sub.vectors[i], sub.vectors[j])
            coords = solve_particular(incl, p)
            if coords is None:
                raise NotAnIdeal("ideal product left the subspace")
            row.append(coords)
        prod.append(tuple(row))
    return PreLieAlgebra(m, tuple(prod)), incl
