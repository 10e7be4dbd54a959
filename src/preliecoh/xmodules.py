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

Everything here runs on the tensor engines of the algebra module. alpha,
beta and the actions through rho are tensors built by compose; theta is
seven engine terms summed in integers at every basis triple. Reading
values in coordinates against a basis (theta through i, the induced
actions through i or an ideal's generators) uses a right inverse s of
it on its image, factored once per map of an extension: s gives every
coordinate, and w lies in the span exactly when i(s(w)) = w.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InternalAssertionFailed,
    InvalidExtension,
    NotACocycle,
    NotAnIdeal,
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
    _accumulate,
    _first_failure,
    _image_identity,
    _integer_terms,
    _transpose,
    check_action,
    check_morphism,
    check_prelie,
    compose,
    sparse_tensor,
    subadjacent_lie,
)
from .cochain import Cochain, CochainBasis, CohomologySpace, cohomology
from .linalg import (
    MatrixQ,
    SubspaceBasis,
    QuotientMap,
    Vector,
    rank_kernel_image,
    right_inverse_on_image,
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


def _induced_action(
    left: Tensor3, right: Tensor3, f: MatrixQ | None, onto: MatrixQ, section: MatrixQ, error: Exception
) -> tuple[Tensor3, Tensor3]:
    """The actions left(f e_x, onto e_u) and right(onto e_u, f e_x), f the
    identity when None, in coordinates against the columns of `onto`;
    raises `error` if a value leaves their span. section is a right
    inverse of onto on its image: it reads every coordinate, and a value
    w lies in the span exactly when onto (section w) = w."""

    def coordinates(t: Tensor3, a: MatrixQ | None, b: MatrixQ | None) -> Tensor3:
        values = compose(t, a, b)
        coords = compose(values, h=section)
        if compose(coords, h=onto) != values:
            raise error
        return coords

    return coordinates(left, f, onto), coordinates(right, onto, f)


def ideal_inclusion_xmod(n: PreLieAlgebra, sub: SubspaceBasis) -> CrossedModule:
    """A two-sided ideal with its inclusion, n acting on it by its own
    product. Raises NotAnIdeal at the first (basis vector, generator)
    pair whose product on either side leaves the span of the generators.
    section, a right inverse of the inclusion on its image, reads the
    coordinates of every product, and a value w lies in the span exactly
    when incl (section w) = w."""
    if sub.ambient_dim != n.dim:
        raise DimensionMismatch("subspace lives in a different space than the algebra")
    incl = sub.as_column_matrix()
    section = right_inverse_on_image(incl)
    values = compose(n.product, g=incl), compose(n.product, incl)  # e_i * r_t at (i, t), r_t * e_i at (t, i)
    left, right = (compose(t, h=section) for t in values)
    left_in, right_in = compose(left, h=incl), compose(right, h=incl)
    for i, u in itertools.product(range(n.dim), range(incl.cols)):
        sides = (("ideal-left", values[0], left_in, (i, u)), ("ideal-right", values[1], right_in, (u, i)))
        for axiom, t, in_span, (p, q) in sides:
            if t.row(p, q) != in_span.row(p, q):
                raise NotAnIdeal(str(Violation(axiom, (p, q), t.vector(p, q), zero_vector(n.dim))))
    # r_u * r_t is the left action of incl e_u on r_t
    ideal = PreLieAlgebra(sub.dim, compose(left, f=incl))
    return CrossedModule(AlgebraMorphism(ideal, n, incl), ActionData(n, ideal, left, right))


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

    # the deterministic right inverses, each map factored on first use
    @cached_property
    def _pi_right_inverse(self) -> MatrixQ:
        return right_inverse_on_image(self.pi.matrix)

    @cached_property
    def pi_section(self) -> MatrixQ:
        if _rank(self._pi_right_inverse) != self.g_algebra.dim:
            raise InvalidExtension("pi is not surjective")
        return self._pi_right_inverse

    @cached_property
    def mu_section(self) -> MatrixQ:
        return right_inverse_on_image(self.mu.matrix)

    @cached_property
    def i_section(self) -> MatrixQ:
        return right_inverse_on_image(self.i)


def _rank(section: MatrixQ) -> int:
    """The rank of the map a right_inverse_on_image section was factored
    from: the section has one nonzero row per pivot column."""
    return sum(1 for row in section.nonzeros if row)


def induced_representation(e: CrossedModuleExtension, section: MatrixQ | None = None) -> Representation:
    """The action of g on V = ker(mu) read through a section of pi.

    Centrality of im(i) makes the result independent of the section;
    callers may pass any linear right inverse of pi to see that.
    """
    if section is None:
        section = e.pi_section
    elif e.pi.matrix @ section != MatrixQ.identity(e.g_algebra.dim):
        raise InvalidExtension("section is not a right inverse of pi")
    left, right = _induced_action(
        e.action.left, e.action.right, section, e.i, e.i_section,
        InvalidExtension("induced action escapes the image of i"),
    )
    return Representation(e.g_algebra, e.v_dim, left, right)


def check_extension(e: CrossedModuleExtension) -> Violation | None:
    """Crossed module axioms, exactness of the four-term sequence, and
    agreement of v_rep with the induced representation. im(i) = ker(mu)
    is then central with zero square, by Peiffer: u v = mu(u) . v = 0."""
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
    # ranks read off the factorizations that the sections (and t_map) reuse
    if _rank(e.i_section) != v_dim:
        return Violation("i-injective", (), (), ())
    if _rank(e._pi_right_inverse) != g_dim:
        return Violation("pi-surjective", (), (), ())
    if not (e.mu.matrix @ e.i).is_zero():
        return Violation("exactness-mu-i", (), (), ())
    mu_rank = _rank(e.mu_section)
    if mu_rank + v_dim != m_dim:
        return Violation("exactness-at-m", (), (), ())
    if not (e.pi.matrix @ e.mu.matrix).is_zero():
        return Violation("exactness-pi-mu", (), (), ())
    if mu_rank + g_dim != n_dim:
        return Violation("exactness-at-n", (), (), ())
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
    reduce = quot.reduce_matrix()
    # g = n / im(mu): the product of two lifted basis vectors, reduced
    lift = MatrixQ.from_entries(n.dim, quot.dim, {(j, a): 1 for a, j in enumerate(quot.complement)})
    g = PreLieAlgebra(quot.dim, compose(n.product, lift, lift, reduce))
    pi = AlgebraMorphism(n, g, reduce)
    # factored here, so that check_extension below re-derives the action independently
    rho = right_inverse_on_image(pi.matrix)
    left, right = _induced_action(
        x.action.left, x.action.right, rho, i, right_inverse_on_image(i),
        InternalAssertionFailed("induced action escaped ker mu"),
    )
    v_rep = Representation(g, kernel.dim, left, right)
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


def _semidirect_tensor(v_rep: Representation) -> Tensor3:
    """Product tensor of g (+) V."""
    d, v = v_rep.algebra.dim, v_rep.carrier_dim
    cells = {(a, b, k): c for a, b, k, c in v_rep.algebra.product.entries()}
    cells.update(((a, d + u, d + k), c) for a, u, k, c in v_rep.left.entries())
    cells.update(((d + u, b, d + k), c) for u, b, k, c in v_rep.right.entries())
    return sparse_tensor(d + v, d + v, d + v, cells)


def double_extension(v_rep: Representation) -> CrossedModuleExtension:
    """0 -> V -> V(+)V -> g(+)V -> g -> 0, the split two-step witness:
    mu(u,w) = (0,u), i(w) = (0,w), pi(x,u) = x, actions componentwise."""
    g = v_rep.algebra
    d, v = g.dim, v_rep.carrier_dim
    n = semidirect_product(v_rep)
    m = PreLieAlgebra.zero_product(2 * v)
    mu = AlgebraMorphism(m, n, MatrixQ.from_entries(d + v, 2 * v, {(d + c, c): 1 for c in range(v)}))
    i_mat = MatrixQ.from_entries(2 * v, v, {(v + c, c): 1 for c in range(v)})
    pi = AlgebraMorphism(n, g, MatrixQ.from_entries(d, d + v, {(r, r): 1 for r in range(d)}))
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
    if rho is None:
        rho = e.pi_section
    elif e.pi.matrix @ rho != MatrixQ.identity(g.dim):
        raise InvalidExtension("rho is not a right inverse of pi")
    if sigma is None:
        sigma = e.mu_section
    elif e.mu.matrix @ (sigma @ e.mu.matrix) != e.mu.matrix:
        raise InvalidExtension("sigma is not a right inverse of mu on its image")
    # the curvature alpha(x, y) = rho(x) rho(y) - rho(x y) and beta = sigma(alpha)
    alpha = compose(n.product, rho, rho) - compose(g.product, h=rho)
    beta = compose(alpha, h=sigma)
    if compose(beta, h=e.mu.matrix) != alpha:
        raise InternalAssertionFailed("curvature not in the image of mu")
    b, act = beta, e.action
    left = compose(act.left, rho)  # rho(e_x) . m_w at (x, w)
    right_t = _transpose(compose(act.right, g=rho))  # m_w . rho(e_z) at (z, w)
    theta_terms = [
        (1, b, (1, 2), left, 0),  # rho(x) . beta(y, z)
        (-1, b, (0, 2), left, 1),  # - rho(y) . beta(x, z)
        (1, b, (1, 0), right_t, 2),  # beta(y, x) . rho(z)
        (-1, b, (0, 1), right_t, 2),  # - beta(x, y) . rho(z)
        (-1, g.product, (0, 2), b, 1),  # - beta(y, x z)
        (1, g.product, (1, 2), b, 0),  # beta(x, y z)
        (-1, subadjacent_lie(g).bracket, (0, 1), _transpose(b), 2),  # - beta([x, y], z)
    ]
    den, terms = _integer_terms(theta_terms)
    values = []
    for (x, y), z in CochainBasis(3, g.dim).tuples:
        out: dict[int, int] = {}
        _accumulate(out, terms, (x, y, z))
        values.append(tuple((k, Fraction(c, den * den)) for k, c in sorted(out.items()) if c))
    theta_m = MatrixQ(len(values), e.m_algebra.dim, tuple(values))
    if not (theta_m @ e.mu.matrix.transpose()).is_zero():
        raise InternalAssertionFailed("cocycle values not killed by mu")
    # coordinates against the columns of i, from its right inverse
    theta_v = theta_m @ e.i_section.transpose()
    if theta_v @ e.i.transpose() != theta_m:
        raise InternalAssertionFailed("cocycle values not in the image of i")
    v = e.v_dim
    theta = Cochain(3, g.dim, v, tuple((p * v + k, x) for p, row in enumerate(theta_v.nonzeros) for k, x in row))
    if h3 is None:
        h3 = cohomology(e.v_rep, 3)
    try:
        # classifying theta is the closedness test (see class_coordinates)
        coords = h3.class_coordinates(theta)
    except NotACocycle:
        raise InternalAssertionFailed("realized 3-cochain is not closed") from None
    return ThreeCocycleResult(theta, tuple(map(theta_m.row, range(theta_m.rows))), coords, h3, rho, sigma)


def random_pi_section(e: CrossedModuleExtension, rng: random.Random) -> MatrixQ:
    """rho + mu . h for a random linear h: g -> m; still a section."""
    h = MatrixQ.from_rows(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(e.g_algebra.dim)]
            for _ in range(e.m_algebra.dim)
        ]
    )
    return e.pi_section + (e.mu.matrix @ h)


def random_mu_section(e: CrossedModuleExtension, rng: random.Random) -> MatrixQ:
    """sigma + i . c for a random linear c: n -> V; still inverts mu on
    its image up to ker mu, which is all the cocycle map needs."""
    c = MatrixQ.from_rows(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(e.n_algebra.dim)]
            for _ in range(e.v_dim)
        ]
    )
    return e.mu_section + (e.i @ c)


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
