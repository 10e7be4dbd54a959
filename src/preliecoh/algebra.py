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
            rows.append(tuple(as_fraction(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


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
    """Left-symmetry of the associator on every basis triple."""
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        ij_k = a.multiply(a.basis_product(i, j), a.basis_vector(k))
        i_jk = a.multiply(a.basis_vector(i), a.basis_product(j, k))
        ji_k = a.multiply(a.basis_product(j, i), a.basis_vector(k))
        j_ik = a.multiply(a.basis_vector(j), a.basis_product(i, k))
        lhs = vec_sub(ij_k, i_jk)
        rhs = vec_sub(ji_k, j_ik)
        if lhs != rhs:
            return Violation("left-symmetry", (i, j, k), lhs, rhs)
    return None


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
    lie = subadjacent_lie(a)
    for i, j, u in itertools.product(range(a.dim), range(a.dim), range(v)):
        lhs = bilinear(rep.left, lie.basis_bracket(i, j), standard_basis_vector(v, u))
        rhs = vec_sub(
            rep.act_left(a.basis_vector(i), rep.basis_left(j, u)),
            rep.act_left(a.basis_vector(j), rep.basis_left(i, u)),
        )
        if lhs != rhs:
            return Violation("left-action-lie-module", (i, j, u), lhs, rhs)
    for i, u, j in itertools.product(range(a.dim), range(v), range(a.dim)):
        lhs = vec_sub(
            rep.act_right(rep.basis_left(i, u), a.basis_vector(j)),
            rep.act_left(a.basis_vector(i), rep.basis_right(u, j)),
        )
        rhs = vec_sub(
            rep.act_right(rep.basis_right(u, i), a.basis_vector(j)),
            rep.act_right(standard_basis_vector(v, u), a.basis_product(i, j)),
        )
        if lhs != rhs:
            return Violation("mixed-identity", (i, u, j), lhs, rhs)
    return None


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
    n, m = act.acting.dim, act.module.dim
    mod = act.module
    for x, u, v in itertools.product(range(n), range(m), range(m)):
        ev = act.basis_left(x, u)
        lhs = vec_sub(
            mod.multiply(ev, mod.basis_vector(v)),
            act.act_left(act.acting.basis_vector(x), mod.basis_product(u, v)),
        )
        rhs = vec_sub(
            mod.multiply(act.basis_right(u, x), mod.basis_vector(v)),
            bilinear(mod.product, mod.basis_vector(u), act.basis_left(x, v)),
        )
        if lhs != rhs:
            return Violation("action-left-compat", (x, u, v), lhs, rhs)
    for u, v, x in itertools.product(range(m), range(m), range(n)):
        ex = act.acting.basis_vector(x)
        lhs = vec_sub(
            act.act_right(mod.basis_product(u, v), ex),
            mod.multiply(mod.basis_vector(u), act.basis_right(v, x)),
        )
        rhs = vec_sub(
            act.act_right(mod.basis_product(v, u), ex),
            mod.multiply(mod.basis_vector(v), act.basis_right(u, x)),
        )
        if lhs != rhs:
            return Violation("action-right-compat", (u, v, x), lhs, rhs)
    return None


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
