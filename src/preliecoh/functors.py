"""Conversions between crossed-module flavors.

Three one-way functors:

  * pre-Lie crossed module -> Lie crossed module, by passing to the
    commutator brackets and the action x |> u = x . u - u . x;
  * Rota-Baxter Lie crossed module (weight 0) -> pre-Lie crossed
    module, via x * y = [Tx, y] on each algebra, x . u = rho(T_n x) u,
    u . x = -rho(x)(T_m u);
  * dendriform crossed module -> pre-Lie crossed module, via
    x * y = x > y - y < x on each algebra and the matching actions.

Input structures are validated against the axioms the source flavor
pins down; compatibilities the source definition leaves to cited work
are certified a posteriori: the constructed object is run through the
full target verifier, and a failure raises OutputCheckFailed with the
witness instead of returning unverified data.

Every checker here runs its identities on algebra._first_failure, from
the stored nonzeros: mu and T enter through the rows of their columns
or through compose, which also builds the products and actions of the
Rota-Baxter conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, OutputCheckFailed, ShapeError
from .algebra import (
    ActionData,
    AlgebraMorphism,
    LieAlgebra,
    PreLieAlgebra,
    Tensor3,
    Violation,
    _columns,
    _first_failure,
    _image_identity,
    _transpose,
    _units,
    check_lie,
    compose,
    minus_transposed,
    subadjacent_lie,
    tensor3,
    zero_tensor3,
)
from .linalg import MatrixQ
from .xmodules import CrossedModule, check_crossed_module


@dataclass(frozen=True)
class LieCrossedModule:
    """mu: m -> n between Lie algebras with an action of n on m.

    action[i][u][w]: e_i acting on m_u.
    """

    m: LieAlgebra
    n: LieAlgebra
    mu: MatrixQ
    action: Tensor3

    def __post_init__(self) -> None:
        if (self.mu.rows, self.mu.cols) != (self.n.dim, self.m.dim):
            raise ShapeError("mu has the wrong shape")
        object.__setattr__(self, "action", tensor3(self.action, self.n.dim, self.m.dim, self.m.dim))


def check_lie_crossed_module(x: LieCrossedModule) -> Violation | None:
    """Both brackets, mu a morphism, the action a Lie action by
    derivations, equivariance, and the Peiffer identity."""
    for lie in (x.m, x.n):
        bad = check_lie(lie)
        if bad is not None:
            return bad
    m, n = x.m, x.n
    morphism = _image_identity("lie-morphism", x.mu, m.bracket, compose(n.bracket, x.mu, x.mu))
    act, bm, bn = x.action, m.bracket, n.bracket
    act_t, bm_t = _transpose(act), _transpose(bm)
    # at (i, j, u): [e_i, e_j] |> m_u  =  e_i |> (e_j |> m_u) - e_j |> (e_i |> m_u)
    lie_action = (
        "lie-action",
        [(1, bn, (0, 1), act_t, 2)],
        [(1, act, (1, 2), act, 0), (-1, act, (0, 2), act, 1)],
    )
    # at (i, u, v): e_i |> [m_u, m_v]  =  [e_i |> m_u, m_v] + [m_u, e_i |> m_v]
    derivation = (
        "derivation",
        [(1, bm, (1, 2), act, 0)],
        [(1, act, (0, 1), bm_t, 2), (1, act, (0, 2), bm, 1)],
    )
    nd, md = n.dim, m.dim
    # at (i, u): mu(e_i |> m_u)  =  [e_i, mu(m_u)]
    equivariance = _image_identity("lie-equivariance", x.mu, x.action, compose(n.bracket, g=x.mu))
    # at (u, v): mu(m_u) |> m_v  =  [m_u, m_v]
    peiffer = _image_identity("lie-peiffer", None, compose(x.action, f=x.mu), m.bracket)
    return (
        _first_failure([((md, md), [morphism])], nd)
        or _first_failure([((nd, nd, md), [lie_action]), ((nd, md, md), [derivation])], md)
        or _first_failure([((nd, md), [equivariance])], nd)
        or _first_failure([((md, md), [peiffer])], md)
    )


@dataclass(frozen=True)
class RotaBaxterLieCrossedModule:
    """A Lie crossed module with weight-zero Rota-Baxter operators on
    both algebras, intertwined by mu."""

    m: LieAlgebra
    n: LieAlgebra
    t_m: MatrixQ
    t_n: MatrixQ
    mu: MatrixQ
    rho: Tensor3

    def __post_init__(self) -> None:
        if (self.t_m.rows, self.t_m.cols) != (self.m.dim, self.m.dim):
            raise ShapeError("T_m has the wrong shape")
        if (self.t_n.rows, self.t_n.cols) != (self.n.dim, self.n.dim):
            raise ShapeError("T_n has the wrong shape")
        if (self.mu.rows, self.mu.cols) != (self.n.dim, self.m.dim):
            raise ShapeError("mu has the wrong shape")
        object.__setattr__(self, "rho", tensor3(self.rho, self.n.dim, self.m.dim, self.m.dim))

    def lie_crossed_module(self) -> LieCrossedModule:
        return LieCrossedModule(self.m, self.n, self.mu, self.rho)


def check_rota_baxter(lie: LieAlgebra, t: MatrixQ) -> Violation | None:
    """[Tx,Ty] = T([Tx,y] + [x,Ty]) on every basis pair."""
    b, d, t_cols, tbt = lie.bracket, lie.dim, _columns(t), compose(lie.bracket, t, t)
    rota_baxter = (
        "rota-baxter",
        [(1, tbt, (0, 1), _units(tbt), None)],
        [(1, compose(b, f=t), (0, 1), t_cols, None), (1, compose(b, g=t), (0, 1), t_cols, None)],
    )
    return _first_failure([((d, d), [rota_baxter])], d)


def check_rb_lie_xmod(x: RotaBaxterLieCrossedModule) -> Violation | None:
    """Rota-Baxter identities, mu T_m = T_n mu, and the underlying Lie
    crossed-module axioms. Compatibilities between rho and the operators
    are certified only through the converted output."""
    bad = check_rota_baxter(x.m, x.t_m)
    if bad is not None:
        return Violation("rota-baxter-m", bad.indices, bad.lhs, bad.rhs)
    bad = check_rota_baxter(x.n, x.t_n)
    if bad is not None:
        return Violation("rota-baxter-n", bad.indices, bad.lhs, bad.rhs)
    if x.mu @ x.t_m != x.t_n @ x.mu:
        return Violation("t-intertwined", (), (), ())
    return check_lie_crossed_module(x.lie_crossed_module())


@dataclass(frozen=True)
class DendriformAlgebra:
    """Two products succ (>) and prec (<) splitting an associative one."""

    dim: int
    succ: Tensor3
    prec: Tensor3

    def __post_init__(self) -> None:
        object.__setattr__(self, "succ", tensor3(self.succ, self.dim, self.dim, self.dim))
        object.__setattr__(self, "prec", tensor3(self.prec, self.dim, self.dim, self.dim))


def check_dendriform(a: DendriformAlgebra) -> Violation | None:
    """(x<y)<z = x<(y<z + y>z); (x>y)<z = x>(y<z);
    x>(y>z) = (x<y + x>y)>z, on every basis triple, the three in that
    order at each triple, from the nonzero structure constants."""
    s, p = a.succ, a.prec
    s_t, p_t = _transpose(s), _transpose(p)
    # at (i, j, k), with e_i < e_j = sum_w p[i][j][w] e_w
    checks = [
        ("dendriform-1", [(1, p, (0, 1), p_t, 2)], [(1, p, (1, 2), p, 0), (1, s, (1, 2), p, 0)]),
        ("dendriform-2", [(1, s, (0, 1), p_t, 2)], [(1, p, (1, 2), s, 0)]),
        ("dendriform-3", [(1, s, (1, 2), s, 0)], [(1, p, (0, 1), s_t, 2), (1, s, (0, 1), s_t, 2)]),
    ]
    d = a.dim
    return _first_failure([((d, d, d), checks)], d)


@dataclass(frozen=True)
class DendriformCrossedModule:
    """mu: m -> n between dendriform algebras plus the four mixed
    action tensors with values in m:

    succ_nm[x][u]: x > u      prec_mn[u][x]: u < x
    succ_mn[u][x]: u > x      prec_nm[x][u]: x < u
    """

    m: DendriformAlgebra
    n: DendriformAlgebra
    mu: MatrixQ
    succ_nm: Tensor3
    prec_mn: Tensor3
    succ_mn: Tensor3
    prec_nm: Tensor3

    def __post_init__(self) -> None:
        if (self.mu.rows, self.mu.cols) != (self.n.dim, self.m.dim):
            raise ShapeError("mu has the wrong shape")
        md, nd = self.m.dim, self.n.dim
        object.__setattr__(self, "succ_nm", tensor3(self.succ_nm, nd, md, md))
        object.__setattr__(self, "prec_mn", tensor3(self.prec_mn, md, nd, md))
        object.__setattr__(self, "succ_mn", tensor3(self.succ_mn, md, nd, md))
        object.__setattr__(self, "prec_nm", tensor3(self.prec_nm, nd, md, md))


def check_dendriform_xmod(x: DendriformCrossedModule) -> Violation | None:
    """Dendriform axioms on both algebras and mu preserving both
    products; the mixed-action compatibilities are certified through
    the converted output."""
    bad = check_dendriform(x.m)
    if bad is not None:
        return bad
    bad = check_dendriform(x.n)
    if bad is not None:
        return bad
    mu = x.mu
    succ = _image_identity("mu-preserves-succ", mu, x.m.succ, compose(x.n.succ, mu, mu))
    prec = _image_identity("mu-preserves-prec", mu, x.m.prec, compose(x.n.prec, mu, mu))
    return _first_failure([((x.m.dim, x.m.dim), [succ, prec])], x.n.dim)


# --- the conversions ---------------------------------------------------------


def prelie_to_lie_xmod(x: CrossedModule) -> LieCrossedModule:
    """Commutator brackets and x |> u = x . u - u . x."""
    bad = check_crossed_module(x)
    if bad is not None:
        raise InvalidInput(f"not a pre-Lie crossed module: {bad}")
    m = subadjacent_lie(x.m_algebra)
    n = subadjacent_lie(x.n_algebra)
    action = minus_transposed(x.action.left, x.action.right)
    out = LieCrossedModule(m, n, x.mu.matrix, action)
    bad = check_lie_crossed_module(out)
    if bad is not None:
        raise OutputCheckFailed(f"converted Lie crossed module failed verification: {bad}")
    return out


def rblie_to_prelie_xmod(x: RotaBaxterLieCrossedModule) -> CrossedModule:
    """x * y = [Tx, y] on both algebras; x . u = rho(T_n x) u and
    u . x = -rho(x)(T_m u)."""
    bad = check_rb_lie_xmod(x)
    if bad is not None:
        raise InvalidInput(f"not a Rota-Baxter Lie crossed module: {bad}")
    md, nd = x.m.dim, x.n.dim
    m_alg = PreLieAlgebra(md, compose(x.m.bracket, f=x.t_m))
    n_alg = PreLieAlgebra(nd, compose(x.n.bracket, f=x.t_n))
    left = compose(x.rho, f=x.t_n)
    right = minus_transposed(zero_tensor3(md, nd, md), compose(x.rho, g=x.t_m))
    out = CrossedModule(
        AlgebraMorphism(m_alg, n_alg, x.mu),
        ActionData(n_alg, m_alg, left, right),
    )
    bad = check_crossed_module(out)
    if bad is not None:
        raise OutputCheckFailed(f"converted crossed module failed verification: {bad}")
    return out


def dendriform_to_prelie_xmod(x: DendriformCrossedModule) -> CrossedModule:
    """x * y = x > y - y < x on both algebras; x . u = x > u - u < x,
    u . x = u > x - x < u."""
    bad = check_dendriform_xmod(x)
    if bad is not None:
        raise InvalidInput(f"not a dendriform crossed module: {bad}")
    m_alg = PreLieAlgebra(x.m.dim, minus_transposed(x.m.succ, x.m.prec))
    n_alg = PreLieAlgebra(x.n.dim, minus_transposed(x.n.succ, x.n.prec))
    left = minus_transposed(x.succ_nm, x.prec_mn)
    right = minus_transposed(x.succ_mn, x.prec_nm)
    out = CrossedModule(
        AlgebraMorphism(m_alg, n_alg, x.mu),
        ActionData(n_alg, m_alg, left, right),
    )
    bad = check_crossed_module(out)
    if bad is not None:
        raise OutputCheckFailed(f"converted crossed module failed verification: {bad}")
    return out
