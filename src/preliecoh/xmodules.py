"""Crossed modules of pre-Lie algebras, four-term extensions, and the
constructive map from an extension to a third cohomology class.

A crossed module is an algebra morphism mu: m -> n together with an
action of n on m satisfying

    mu(u . x) = mu(u) * x          mu(x . u) = x * mu(u)
    mu(u) . v = u * v = u . mu(v)

(dots are the actions, stars the products). A crossed module extension
of g by a g-module V is an exact sequence

    0 -> V -i-> m -mu-> n -pi-> g -> 0

whose induced action of g on V (through any linear section of pi)
recovers the given module structure; ker(mu) = im(i) is central in m,
which makes the induced action section-independent.

Given such an extension, pick a section rho of pi and a section sigma
of mu on its image. The curvature alpha(x,y) = rho(x)*rho(y) -
rho(x*y) lands in im(mu); beta = sigma(alpha) measures it in m, and

  theta(x,y,z) = rho(x).beta(y,z) - rho(y).beta(x,z)
               + beta(y,x).rho(z) - beta(x,y).rho(z)
               - beta(y, x*z) + beta(x, y*z) - beta([x,y], z)

is killed by mu, hence pulls back through i to a V-valued 3-cocycle.
Its class is independent of all choices; different sections give
cohomologous cocycles (verified by tests, not assumed).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalAssertionFailed,
    InvalidExtension,
    NotACocycle,
    OutputCheckFailed,
    ShapeError,
)
from .algebra import (
    ActionData,
    AlgebraMorphism,
    PreLieAlgebra,
    Representation,
    Tensor3,
    Violation,
    _first_failure,
    _image_identity,
    check_action,
    check_morphism,
    check_prelie,
    compose,
    ideal_subalgebra,
    sparse_tensor,
    zero_tensor3,
)
from .cochain import Cochain, CochainBasis, CohomologySpace, coboundary, cohomology
from .linalg import (
    MatrixQ,
    SubspaceBasis,
    QuotientMap,
    Vector,
    is_zero_vector,
    rank_kernel_image,
    rank_of,
    right_inverse_on_image,
    solve_particular,
    standard_basis_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)


@dataclass(frozen=True)
class CrossedModule:
    """mu: m -> n with an action of n on m."""

    mu: AlgebraMorphism
    action: ActionData

    def __post_init__(self) -> None:
        if self.action.module != self.mu.source:
            raise ShapeError("action module differs from the source of mu")
        if self.action.acting != self.mu.target:
            raise ShapeError("acting algebra differs from the target of mu")

    @property
    def m_algebra(self) -> PreLieAlgebra:
        return self.mu.source

    @property
    def n_algebra(self) -> PreLieAlgebra:
        return self.mu.target


def check_crossed_module(x: CrossedModule) -> Violation | None:
    """Both algebras, the morphism, the action, and the four
    compatibility identities tying mu to the action."""
    for a in (x.m_algebra, x.n_algebra):
        bad = check_prelie(a)
        if bad is not None:
            return bad
    bad = check_morphism(x.mu)
    if bad is not None:
        return bad
    bad = check_action(x.action)
    if bad is not None:
        return bad
    m, n = x.m_algebra.dim, x.n_algebra.dim
    mu, q, p = x.mu.matrix, x.n_algebra.product, x.m_algebra.product
    left, right = x.action.left, x.action.right
    # at (u, i): mu(m_u . e_i) = mu(m_u) * e_i, then mu(e_i . m_u) = e_i * mu(m_u) reported at (i, u)
    equivariance = [
        _image_identity("equivariance-right", mu, right, compose(q, f=mu)),
        _image_identity("equivariance-left", mu, left, compose(q, g=mu), (1, 0), (1, 0)),
    ]
    # at (u, v): mu(m_u) . m_v  =  m_u m_v  =  m_u . mu(m_v)
    peiffer = [
        _image_identity("peiffer-left", None, compose(left, f=mu), p),
        _image_identity("peiffer-right", None, compose(right, g=mu), p),
    ]
    bad = _first_failure([((m, n), equivariance)], n)
    return bad or _first_failure([((m, m), peiffer)], m)


def identity_xmod(n: PreLieAlgebra) -> CrossedModule:
    """n acting on itself by its own product, mu the identity."""
    mu = AlgebraMorphism(n, n, MatrixQ.identity(n.dim))
    return CrossedModule(mu, ActionData(n, n, n.product, n.product))


def _induced_action(act_left, act_right, xs, us, onto: MatrixQ, error: Exception):
    """The tables left[x][u] and right[u][x] of act_left(x, u) and
    act_right(u, x) in coordinates against the columns of `onto`, for x in
    xs and u in us; raises `error` if a value leaves their span."""

    def coords(w: Vector) -> Vector:
        c = solve_particular(onto, w)
        if c is None:
            raise error
        return c

    left = tuple(tuple(coords(act_left(x, u)) for u in us) for x in xs)
    right = tuple(tuple(coords(act_right(u, x)) for x in xs) for u in us)
    return left, right


def ideal_inclusion_xmod(n: PreLieAlgebra, sub: SubspaceBasis) -> CrossedModule:
    """A two-sided ideal with its inclusion; raises NotAnIdeal."""
    ideal, incl_cols = ideal_subalgebra(n, sub)
    incl = AlgebraMorphism(ideal, n, incl_cols)
    basis = [n.basis_vector(i) for i in range(n.dim)]
    left, right = _induced_action(
        n.multiply, n.multiply, basis, sub.vectors, incl_cols,
        InternalAssertionFailed("ideal action left the subspace"),
    )
    return CrossedModule(incl, ActionData(n, ideal, left, right))


def kernel_xmod(f: AlgebraMorphism) -> CrossedModule:
    """The kernel of a morphism, included into its source."""
    bad = check_morphism(f)
    if bad is not None:
        raise InvalidExtension(f"not a morphism: {bad}")
    _, kernel, _ = rank_kernel_image(f.matrix)
    return ideal_inclusion_xmod(f.source, kernel)


def trivial_module_xmod(rep: Representation) -> CrossedModule:
    """A module V as a zero-product algebra with the zero map into g."""
    g = rep.algebra
    v = PreLieAlgebra.zero_product(rep.carrier_dim)
    mu = AlgebraMorphism(v, g, MatrixQ.zero(g.dim, rep.carrier_dim))
    return CrossedModule(mu, ActionData(g, v, rep.left, rep.right))


@dataclass(frozen=True)
class CrossedModuleExtension:
    """0 -> V -i-> m -mu-> n -pi-> g -> 0 with a chosen g-module V."""

    v_rep: Representation
    i: MatrixQ
    mu: AlgebraMorphism
    pi: AlgebraMorphism
    action: ActionData

    def __post_init__(self) -> None:
        if self.action.module != self.mu.source or self.action.acting != self.mu.target:
            raise ShapeError("action does not match mu")
        if self.pi.source != self.mu.target:
            raise ShapeError("pi source differs from mu target")
        if self.pi.target != self.v_rep.algebra:
            raise ShapeError("pi target differs from the module's algebra")
        if (self.i.rows, self.i.cols) != (self.mu.source.dim, self.v_rep.carrier_dim):
            raise ShapeError("i has the wrong shape")

    @property
    def g_algebra(self) -> PreLieAlgebra:
        return self.pi.target

    @property
    def m_algebra(self) -> PreLieAlgebra:
        return self.mu.source

    @property
    def n_algebra(self) -> PreLieAlgebra:
        return self.mu.target

    @property
    def v_dim(self) -> int:
        return self.v_rep.carrier_dim

    def crossed_module(self) -> CrossedModule:
        return CrossedModule(self.mu, self.action)


def default_pi_section(e: CrossedModuleExtension) -> MatrixQ:
    rho = right_inverse_on_image(e.pi.matrix)
    if e.pi.matrix @ rho != MatrixQ.identity(e.g_algebra.dim):
        raise InvalidExtension("pi is not surjective")
    return rho


def default_mu_section(e: CrossedModuleExtension) -> MatrixQ:
    return right_inverse_on_image(e.mu.matrix)


def induced_representation(e: CrossedModuleExtension, section: MatrixQ | None = None) -> Representation:
    """The action of g on V = ker(mu) read through a section of pi.

    Centrality of im(i) makes the result independent of the section;
    callers may pass any linear right inverse of pi to see that.
    """
    g = e.g_algebra
    rho = default_pi_section(e) if section is None else section
    if e.pi.matrix @ rho != MatrixQ.identity(g.dim):
        raise InvalidExtension("section is not a right inverse of pi")
    left, right = _induced_action(
        e.action.act_left,
        e.action.act_right,
        [rho.col(x) for x in range(g.dim)],
        [e.i.col(u) for u in range(e.v_dim)],
        e.i,
        InvalidExtension("induced action escapes the image of i"),
    )
    return Representation(g, e.v_dim, left, right)


def check_extension(e: CrossedModuleExtension) -> Violation | None:
    """Crossed module axioms, exactness of the four-term sequence, the
    centrality consequences, and agreement of v_rep with the induced
    representation."""
    bad = check_prelie(e.g_algebra)
    if bad is not None:
        return bad
    bad = check_crossed_module(e.crossed_module())
    if bad is not None:
        return bad
    bad = check_morphism(e.pi)
    if bad is not None:
        return bad
    m_dim, n_dim, g_dim, v_dim = (
        e.m_algebra.dim,
        e.n_algebra.dim,
        e.g_algebra.dim,
        e.v_dim,
    )
    if rank_of(e.i) != v_dim:
        return Violation("i-injective", (), (), ())
    if rank_of(e.pi.matrix) != g_dim:
        return Violation("pi-surjective", (), (), ())
    if not (e.mu.matrix @ e.i).is_zero():
        return Violation("exactness-mu-i", (), (), ())
    if rank_of(e.mu.matrix) + v_dim != m_dim:
        return Violation("exactness-at-m", (), (), ())
    if not (e.pi.matrix @ e.mu.matrix).is_zero():
        return Violation("exactness-pi-mu", (), (), ())
    if rank_of(e.mu.matrix) + g_dim != n_dim:
        return Violation("exactness-at-n", (), (), ())
    # at (u, w): i(v_u) i(v_w) = 0 in m (im i is central, being ker mu)
    square = compose(e.m_algebra.product, e.i, e.i)
    central = _image_identity("i-image-central", None, square, zero_tensor3(v_dim, v_dim, m_dim))
    bad = _first_failure([((v_dim, v_dim), [central])], m_dim)
    if bad is not None:
        return bad
    induced = induced_representation(e)
    if induced.left != e.v_rep.left or induced.right != e.v_rep.right:
        return Violation("induced-representation", (), (), ())
    return None


def canonical_extension(x: CrossedModule) -> CrossedModuleExtension:
    """The extension 0 -> ker(mu) -> m -> n -> coker(mu) -> 0 carried by
    a crossed module. The output is re-verified; OutputCheckFailed
    signals a bug, not bad input."""
    bad = check_crossed_module(x)
    if bad is not None:
        raise InvalidExtension(f"not a crossed module: {bad}")
    m, n = x.m_algebra, x.n_algebra
    _, kernel, image = rank_kernel_image(x.mu.matrix)
    i = kernel.as_column_matrix()
    quot = QuotientMap.build(n.dim, image)
    g_dim = quot.dim
    prod = []
    for a in range(g_dim):
        row = []
        lift_a = quot.lift(standard_basis_vector(g_dim, a))
        for b in range(g_dim):
            lift_b = quot.lift(standard_basis_vector(g_dim, b))
            row.append(quot.reduce(n.multiply(lift_a, lift_b)))
        prod.append(tuple(row))
    g = PreLieAlgebra(g_dim, tuple(prod))
    pi = AlgebraMorphism(n, g, quot.reduce_matrix())
    v_dim = kernel.dim
    rho = right_inverse_on_image(pi.matrix)
    left, right = _induced_action(
        x.action.act_left,
        x.action.act_right,
        [rho.col(xx) for xx in range(g_dim)],
        kernel.vectors,
        i,
        InternalAssertionFailed("induced action escaped ker mu"),
    )
    v_rep = Representation(g, v_dim, left, right)
    ext = CrossedModuleExtension(v_rep, i, x.mu, pi, x.action)
    bad = check_extension(ext)
    if bad is not None:
        raise OutputCheckFailed(f"canonical extension failed verification: {bad}")
    return ext


def trivial_extension(v_rep: Representation) -> CrossedModuleExtension:
    """0 -> V -id-> V -0-> g -id-> g -> 0 for a module (V, v_rep)."""
    g = v_rep.algebra
    v = PreLieAlgebra.zero_product(v_rep.carrier_dim)
    mu = AlgebraMorphism(v, g, MatrixQ.zero(g.dim, v.dim))
    pi = AlgebraMorphism(g, g, MatrixQ.identity(g.dim))
    action = ActionData(g, v, v_rep.left, v_rep.right)
    return CrossedModuleExtension(v_rep, MatrixQ.identity(v.dim), mu, pi, action)


def semidirect_product(v_rep: Representation) -> PreLieAlgebra:
    """g (+) V with (x,u)*(y,w) = (x*y, x.w + u.y)."""
    return PreLieAlgebra(v_rep.algebra.dim + v_rep.carrier_dim, _semidirect_tensor(v_rep))


def _semidirect_tensor(v_rep: Representation, omega: Cochain | None = None) -> Tensor3:
    """Product tensor of g (+) V, plus omega(x, y) in the V part of x*y."""
    d, v = v_rep.algebra.dim, v_rep.carrier_dim
    cells = {(a, b, k): c for a, b, k, c in v_rep.algebra.product.entries()}
    cells.update(((a, d + u, d + k), c) for a, u, k, c in v_rep.left.entries())
    cells.update(((d + u, b, d + k), c) for u, b, k, c in v_rep.right.entries())
    if omega is not None:
        for x, y in itertools.product(range(d), repeat=2):
            for k, c in enumerate(omega.value_at((x, y))):
                cells[x, y, d + k] = c
    return sparse_tensor(d + v, d + v, d + v, cells)


def double_extension(v_rep: Representation) -> CrossedModuleExtension:
    """0 -> V -> V(+)V -> g(+)V -> g -> 0, the split two-step witness:
    mu(u,w) = (0,u), i(w) = (0,w), pi(x,u) = x, actions componentwise."""
    g = v_rep.algebra
    d, v = g.dim, v_rep.carrier_dim
    n = semidirect_product(v_rep)
    m = PreLieAlgebra.zero_product(2 * v)
    mu_mat = MatrixQ.from_rows(
        [[Fraction(1) if (r == d + c and c < v) else Fraction(0) for c in range(2 * v)] for r in range(d + v)]
    )
    mu = AlgebraMorphism(m, n, mu_mat)
    i_mat = MatrixQ.from_rows(
        [[Fraction(1) if r == v + c else Fraction(0) for c in range(v)] for r in range(2 * v)]
    )
    pi_mat = MatrixQ.from_rows(
        [[Fraction(1) if r == c else Fraction(0) for c in range(d + v)] for r in range(d)]
    )
    pi = AlgebraMorphism(n, g, pi_mat)
    # n = g(+)V acts on m = V(+)V through its g part, copy by copy
    copies = range(0, 2 * v, v)
    left = {(a, s + u, s + k): c for a, u, k, c in v_rep.left.entries() for s in copies}
    right = {(s + u, a, s + k): c for u, a, k, c in v_rep.right.entries() for s in copies}
    action = ActionData(
        n, m, sparse_tensor(d + v, 2 * v, 2 * v, left), sparse_tensor(2 * v, d + v, 2 * v, right)
    )
    return CrossedModuleExtension(v_rep, i_mat, mu, pi, action)


@dataclass(frozen=True)
class ThreeCocycleResult:
    """Output of the extension-to-cocycle map: the V-valued 3-cocycle,
    its raw m-valued values (for external re-checks), the class
    coordinates against the chosen representatives of H^3, and the
    sections used."""

    theta: Cochain
    theta_m: tuple[Vector, ...]
    class_coordinates: Vector
    h3: CohomologySpace
    rho: MatrixQ
    sigma: MatrixQ

    @property
    def is_trivial_class(self) -> bool:
        return all(c == 0 for c in self.class_coordinates)


def t_map(
    e: CrossedModuleExtension,
    rho: MatrixQ | None = None,
    sigma: MatrixQ | None = None,
    h3: CohomologySpace | None = None,
) -> ThreeCocycleResult:
    """Realize the 3-cocycle of an extension; sections are optional and
    default to the deterministic right inverses."""
    g = e.g_algebra
    n = e.n_algebra
    rho = default_pi_section(e) if rho is None else rho
    if e.pi.matrix @ rho != MatrixQ.identity(g.dim):
        raise InvalidExtension("rho is not a right inverse of pi")
    sigma = default_mu_section(e) if sigma is None else sigma
    if e.mu.matrix @ (sigma @ e.mu.matrix) != e.mu.matrix:
        raise InvalidExtension("sigma is not a right inverse of mu on its image")
    d = g.dim
    alpha = [
        [
            vec_sub(
                n.multiply(rho.col(x), rho.col(y)),
                rho.mul_vec(g.basis_product(x, y)),
            )
            for y in range(d)
        ]
        for x in range(d)
    ]
    beta = [[sigma.mul_vec(alpha[x][y]) for y in range(d)] for x in range(d)]
    for x, y in itertools.product(range(d), repeat=2):
        if e.mu.apply(beta[x][y]) != alpha[x][y]:
            raise InternalAssertionFailed("curvature not in the image of mu")

    def beta_lin_second(x: int, w: Vector) -> Vector:
        out = zero_vector(e.m_algebra.dim)
        for k, c in enumerate(w):
            if c != 0:
                out = vec_add(out, vec_scale(c, beta[x][k]))
        return out

    def beta_lin_first(w: Vector, z: int) -> Vector:
        out = zero_vector(e.m_algebra.dim)
        for k, c in enumerate(w):
            if c != 0:
                out = vec_add(out, vec_scale(c, beta[k][z]))
        return out

    act = e.action
    values_m = []
    values_v = []
    for (x, y), z in CochainBasis(3, d).tuples:
        val = act.act_left(rho.col(x), beta[y][z])
        val = vec_sub(val, act.act_left(rho.col(y), beta[x][z]))
        val = vec_add(val, act.act_right(beta[y][x], rho.col(z)))
        val = vec_sub(val, act.act_right(beta[x][y], rho.col(z)))
        val = vec_sub(val, beta_lin_second(y, g.basis_product(x, z)))
        val = vec_add(val, beta_lin_second(x, g.basis_product(y, z)))
        br = vec_sub(g.basis_product(x, y), g.basis_product(y, x))
        val = vec_sub(val, beta_lin_first(br, z))
        if not is_zero_vector(e.mu.apply(val)):
            raise InternalAssertionFailed("cocycle values not killed by mu")
        coords = solve_particular(e.i, val)
        if coords is None:
            raise InternalAssertionFailed("cocycle values not in the image of i")
        values_m.append(val)
        values_v.append(coords)
    theta = Cochain(3, d, e.v_dim, tuple(values_v))
    if not coboundary(e.v_rep, theta).is_zero():
        raise InternalAssertionFailed("realized 3-cochain is not closed")
    if h3 is None:
        h3 = cohomology(e.v_rep, 3)
    coords = h3.class_coordinates(theta)
    return ThreeCocycleResult(theta, tuple(values_m), coords, h3, rho, sigma)


def random_pi_section(e: CrossedModuleExtension, rng: random.Random) -> MatrixQ:
    """rho + mu . h for a random linear h: g -> m; still a section."""
    rho = default_pi_section(e)
    h = MatrixQ.from_rows(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(e.g_algebra.dim)]
            for _ in range(e.m_algebra.dim)
        ]
    )
    return rho + (e.mu.matrix @ h)


def random_mu_section(e: CrossedModuleExtension, rng: random.Random) -> MatrixQ:
    """sigma + i . c for a random linear c: n -> V; still inverts mu on
    its image up to ker mu, which is all the cocycle map needs."""
    sigma = default_mu_section(e)
    c = MatrixQ.from_rows(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(e.n_algebra.dim)]
            for _ in range(e.v_dim)
        ]
    )
    return sigma + (e.i @ c)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Maps r: m -> m', s: n -> n' connecting two extensions of the same
    module, commuting with i, mu, pi and the actions."""

    src: CrossedModuleExtension
    dst: CrossedModuleExtension
    r: MatrixQ
    s: MatrixQ

    def __post_init__(self) -> None:
        if (self.r.rows, self.r.cols) != (self.dst.m_algebra.dim, self.src.m_algebra.dim):
            raise ShapeError("r has the wrong shape")
        if (self.s.rows, self.s.cols) != (self.dst.n_algebra.dim, self.src.n_algebra.dim):
            raise ShapeError("s has the wrong shape")


def check_equivalence_witness(w: EquivalenceWitness) -> Violation | None:
    """Same ends, r and s are algebra morphisms, the three squares
    commute, and the actions correspond."""
    if w.src.v_rep != w.dst.v_rep:
        return Violation("same-module", (), (), ())
    bad = check_morphism(AlgebraMorphism(w.src.m_algebra, w.dst.m_algebra, w.r))
    if bad is not None:
        return Violation("r-morphism", bad.indices, bad.lhs, bad.rhs)
    bad = check_morphism(AlgebraMorphism(w.src.n_algebra, w.dst.n_algebra, w.s))
    if bad is not None:
        return Violation("s-morphism", bad.indices, bad.lhs, bad.rhs)
    if w.r @ w.src.i != w.dst.i:
        return Violation("square-i", (), (), ())
    if w.dst.mu.matrix @ w.r != w.s @ w.src.mu.matrix:
        return Violation("square-mu", (), (), ())
    if w.dst.pi.matrix @ w.s != w.src.pi.matrix:
        return Violation("square-pi", (), (), ())
    src, dst, r, s = w.src.action, w.dst.action, w.r, w.s
    # at (a, u): r(e_a . m_u) = s(e_a) . r(m_u), then r(m_u . e_a) = r(m_u) . s(e_a) reported at (u, a)
    respected = [
        _image_identity("action-left-respected", r, src.left, compose(dst.left, s, r)),
        _image_identity("action-right-respected", r, src.right, compose(dst.right, r, s), (1, 0), (1, 0)),
    ]
    return _first_failure([((w.src.n_algebra.dim, w.src.m_algebra.dim), respected)], w.dst.m_algebra.dim)


@dataclass(frozen=True)
class AbelianExtension:
    """g (+) V with product twisted by a 2-cocycle; the classical
    degree-2 picture, kept around as a cross-check for the machinery."""

    algebra: PreLieAlgebra
    include_v: MatrixQ
    project_g: MatrixQ


def abelian_extension_from_2cocycle(rep: Representation, omega: Cochain) -> AbelianExtension:
    """(x,u)*(y,w) = (x*y, x.w + u.y + omega(x,y)); pre-Lie exactly when
    omega is closed, so a non-cocycle raises NotACocycle."""
    if omega.arity != 2:
        raise ShapeError("need a 2-cochain")
    g = rep.algebra
    if omega.algebra_dim != g.dim or omega.carrier_dim != rep.carrier_dim:
        raise ShapeError("cochain does not match the representation")
    if not coboundary(rep, omega).is_zero():
        raise NotACocycle("the twisting 2-cochain is not closed")
    d, v = g.dim, rep.carrier_dim
    algebra = PreLieAlgebra(d + v, _semidirect_tensor(rep, omega))
    bad = check_prelie(algebra)
    if bad is not None:
        raise OutputCheckFailed(f"twisted product is not pre-Lie: {bad}")
    include_v = MatrixQ.from_rows(
        [[Fraction(1) if r == d + c else Fraction(0) for c in range(v)] for r in range(d + v)]
    )
    project_g = MatrixQ.from_rows(
        [[Fraction(1) if r == c else Fraction(0) for c in range(d + v)] for r in range(d)]
    )
    return AbelianExtension(algebra, include_v, project_g)
