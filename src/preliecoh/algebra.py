"""Pre-Lie algebras, their sub-adjacent Lie algebras, representations,
actions and morphisms, with exhaustive exact axiom checkers.

A pre-Lie algebra is a vector space with a bilinear product whose
associator is symmetric in its first two arguments:

    (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z).

The commutator [x,y] = x*y - y*x then satisfies Jacobi, giving the
sub-adjacent Lie algebra. All spaces here are finite-dimensional over Q
and structures are stored as basis tensors; checkers evaluate every
axiom on every basis tuple and report the first failing tuple in
lexicographic order (0-based indices).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, NotAnIdeal, ShapeError
from .linalg import (
    ZERO,
    MatrixQ,
    SubspaceBasis,
    Vector,
    as_fraction,
    is_zero_vector,
    solve_particular,
    standard_basis_vector,
    vec_add,
    vec_sub,
    zero_vector,
)

# product[i][j][k]: coefficient of e_k in e_i * e_j
Tensor3 = tuple[tuple[Vector, ...], ...]


def tensor3(entries: Sequence[Sequence[Sequence[object]]], d1: int, d2: int, d3: int) -> Tensor3:
    if len(entries) != d1:
        raise ShapeError(f"tensor first axis has {len(entries)} slices, expected {d1}")
    out = []
    for i, plane in enumerate(entries):
        if len(plane) != d2:
            raise ShapeError(f"tensor slice {i} has {len(plane)} rows, expected {d2}")
        rows = []
        for j, row in enumerate(plane):
            if len(row) != d3:
                raise ShapeError(f"tensor entry [{i}][{j}] has length {len(row)}, expected {d3}")
            # a tuple of Fractions (as the document reader builds) is kept as is
            if type(row) is tuple and set(map(type, row)) <= _FRACTION_ONLY:
                rows.append(row)
            else:
                rows.append(tuple(as_fraction(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


_FRACTION_ONLY = {Fraction}


def zero_tensor3(d1: int, d2: int, d3: int) -> Tensor3:
    return tuple(tuple(zero_vector(d3) for _ in range(d2)) for _ in range(d1))


def bilinear(t: Tensor3, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear map with structure tensor t on (x, y)."""
    out = [ZERO] * (len(t[0][0]) if t and t[0] else 0)
    if not out:
        return ()
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            row = t[i][j]
            c = xi * yj
            for k, v in enumerate(row):
                if v != 0:
                    out[k] += c * v
    return tuple(out)


# Sparse structure constants: rows[i][j] lists the nonzero (k, t[i][j][k]).
SparseRows = list[list[list[tuple[int, Fraction]]]]
# One term of a basis identity: (sign, coefficients c_w, rows): it stands
# for sign * sum_w c_w * rows[w].
Term = tuple[int, list[tuple[int, Fraction]], list[list[tuple[int, Fraction]]]]


def _sparse_rows(t: Tensor3) -> SparseRows:
    return [[[(k, c) for k, c in enumerate(row) if c] for row in plane] for plane in t]


def _transpose(rows: SparseRows) -> SparseRows:
    """out[j][i] = rows[i][j]."""
    return [list(column) for column in zip(*rows)]


def _combine(terms: Sequence[Term], n: int) -> Vector:
    out = [ZERO] * n
    for sign, coeffs, rows in terms:
        for w, c in coeffs:
            for k, x in rows[w]:
                out[k] += sign * c * x
    return tuple(out)


def _first_failure(axiom: str, tuples, sides, n: int) -> "Violation | None":
    """Scan index tuples in order; sides(*idx) gives the (lhs, rhs) terms
    of the identity there. Returns the first tuple where they differ,
    with both sides as vectors of length n."""
    for idx in tuples:
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
        return self.product[i][j]

    def basis_vector(self, i: int) -> Vector:
        return standard_basis_vector(self.dim, i)

    def is_zero_algebra(self) -> bool:
        return all(is_zero_vector(self.product[i][j]) for i in range(self.dim) for j in range(self.dim))


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
        return self.bracket[i][j]

    def basis_vector(self, i: int) -> Vector:
        return standard_basis_vector(self.dim, i)


def check_prelie(a: PreLieAlgebra) -> Violation | None:
    """Left-symmetry of the associator on every basis triple, from the
    nonzero structure constants: (e_i e_j) e_k = sum_m P[i][j][m] P[m][k]
    and e_i (e_j e_k) = sum_m P[j][k][m] P[i][m]."""
    p = _sparse_rows(a.product)
    by_right = _transpose(p)

    def sides(i: int, j: int, k: int) -> tuple[list[Term], list[Term]]:
        lhs = [(1, p[i][j], by_right[k]), (-1, p[j][k], p[i])]
        rhs = [(1, p[j][i], by_right[k]), (-1, p[i][k], p[j])]
        return lhs, rhs

    return _first_failure("left-symmetry", itertools.product(range(a.dim), repeat=3), sides, a.dim)


def check_lie(l: LieAlgebra) -> Violation | None:
    """Antisymmetry and the Jacobi identity on every basis tuple."""
    for i, j in itertools.product(range(l.dim), repeat=2):
        lhs = l.basis_bracket(i, j)
        rhs = tuple(-c for c in l.basis_bracket(j, i))
        if lhs != rhs:
            return Violation("antisymmetry", (i, j), lhs, rhs)
    for i, j, k in itertools.product(range(l.dim), repeat=3):
        s = l.bracket_of(l.basis_bracket(i, j), l.basis_vector(k))
        s = vec_add(s, l.bracket_of(l.basis_bracket(j, k), l.basis_vector(i)))
        s = vec_add(s, l.bracket_of(l.basis_bracket(k, i), l.basis_vector(j)))
        if not is_zero_vector(s):
            return Violation("jacobi", (i, j, k), s, zero_vector(l.dim))
    return None


def subadjacent_lie(a: PreLieAlgebra) -> LieAlgebra:
    """Commutator Lie algebra [x,y] = x*y - y*x of a pre-Lie algebra."""
    bracket = tuple(
        tuple(vec_sub(a.basis_product(i, j), a.basis_product(j, i)) for j in range(a.dim))
        for i in range(a.dim)
    )
    return LieAlgebra(a.dim, bracket)


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
        d = algebra.dim
        left = tuple(tuple(algebra.basis_product(i, a) for a in range(d)) for i in range(d))
        right = tuple(tuple(algebra.basis_product(a, i) for i in range(d)) for a in range(d))
        return cls(algebra, d, left, right)

    def act_left(self, x: Vector, u: Vector) -> Vector:
        if len(x) != self.algebra.dim or len(u) != self.carrier_dim:
            raise DimensionMismatch("argument shapes do not match the representation")
        return bilinear(self.left, x, u)

    def act_right(self, u: Vector, x: Vector) -> Vector:
        if len(x) != self.algebra.dim or len(u) != self.carrier_dim:
            raise DimensionMismatch("argument shapes do not match the representation")
        return bilinear(self.right, u, x)

    def basis_left(self, i: int, a: int) -> Vector:
        return self.left[i][a]

    def basis_right(self, a: int, i: int) -> Vector:
        return self.right[a][i]


def check_representation(rep: Representation) -> Violation | None:
    """Left action is a Lie module over the commutator algebra; the mixed
    identity ties the two actions to the pre-Lie product."""
    a = rep.algebra
    v = rep.carrier_dim
    p = _sparse_rows(a.product)
    bracket = _sparse_rows(subadjacent_lie(a).bracket)
    left, right = _sparse_rows(rep.left), _sparse_rows(rep.right)
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
        "left-action-lie-module", itertools.product(d, d, range(v)), lie_module, v
    ) or _first_failure("mixed-identity", itertools.product(d, range(v), d), mixed, v)


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
        return self.left[i][a]

    def basis_right(self, a: int, i: int) -> Vector:
        return self.right[a][i]


def check_action(act: ActionData) -> Violation | None:
    """Representation axioms plus the two identities mixing the actions
    with the module's own product."""
    bad = check_representation(act.representation())
    if bad is not None:
        return bad
    n, m = range(act.acting.dim), range(act.module.dim)
    q = _sparse_rows(act.module.product)
    left, right = _sparse_rows(act.left), _sparse_rows(act.right)
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
        "action-left-compat", itertools.product(n, m, m), left_compat, size
    ) or _first_failure("action-right-compat", itertools.product(m, m, n), right_compat, size)


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
