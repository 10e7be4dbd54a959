"""The free pre-Lie algebra on labeled rooted trees, truncated by degree.

Basis elements are rooted trees with labeled vertices; children are
unordered, realized by keeping them sorted in a canonical order. The
product s * t grafts the root of s below each vertex of t and sums the
results; terms beyond the truncation degree are dropped and the
polynomial remembers that it did so.

Evaluation into a concrete algebra sends each degree-1 tree a to a
chosen element E(a) and extends by E(s * t) = E(s) * E(t). Every tree
of higher degree is reached by eliminating the grafting sum: for the
first branch t1 of t,

    E(t) = E(t1) * E(t minus t1) - sum of E on the other grafting terms,

and the correction terms have the same degree but strictly more
branches were merged below the root, so the recursion terminates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import NeedsHigherTruncation, ShapeError, TruncationMismatch
from .algebra import IntTensor, PreLieAlgebra, Representation, Violation, integer_pairs
from .cochain import Cochain
from .linalg import IntRow, Vector, integer_rows, vec_add, vec_scale, vec_sub, zero_vector

DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"

# Deepest parenthesis nesting parse_tree accepts. Grafting, canonical
# sorting and hashing recurse once per level, and a product of two trees
# is up to twice as deep, so this keeps every tree operation well inside
# Python's default recursion limit.
MAX_TREE_DEPTH = 100


@dataclass(frozen=True)
class LabeledRootedTree:
    """A rooted tree with integer vertex labels; children canonically
    sorted, so equal trees compare and hash equal."""

    label: int
    children: tuple["LabeledRootedTree", ...] = ()
    degree: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.label < 0:
            raise ShapeError("labels are 0-based non-negative integers")
        kids = tuple(sorted(self.children, key=tree_sort_key))
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "degree", 1 + sum(c.degree for c in kids))


def tree(label: int, *children: LabeledRootedTree) -> LabeledRootedTree:
    return LabeledRootedTree(label, tuple(children))


@lru_cache(maxsize=None)
def tree_sort_key(t: LabeledRootedTree) -> tuple:
    return (t.degree, t.label, tuple(tree_sort_key(c) for c in t.children))


def format_tree(t: LabeledRootedTree, names: str = DEFAULT_NAMES) -> str:
    """A tree as root(child, child, ...), children in canonical order."""
    name = names[t.label] if t.label < len(names) else f"x{t.label}"
    if not t.children:
        return name
    return name + "(" + ",".join(format_tree(c, names) for c in t.children) + ")"


def parse_tree(text: str, names: str = DEFAULT_NAMES) -> LabeledRootedTree:
    """Inverse of format_tree; whitespace is ignored. Nesting deeper than
    MAX_TREE_DEPTH raises ShapeError."""
    text = "".join(text.split())
    pos = 0

    def fail(msg: str) -> ShapeError:
        return ShapeError(f"bad tree at position {pos}: {msg} in {text!r}")

    def read_label() -> int:
        nonlocal pos
        if pos >= len(text):
            raise fail("expected a label")
        ch = text[pos]
        if ch == "x":
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == pos + 1:
                raise fail("expected digits after x")
            label = int(text[pos + 1 : end])
            pos = end
            return label
        if ch not in names:
            raise fail(f"unknown label {ch!r}")
        pos += 1
        return names.index(ch)

    def read_tree(depth: int) -> LabeledRootedTree:
        nonlocal pos
        label = read_label()
        children = []
        if pos < len(text) and text[pos] == "(":
            if depth == MAX_TREE_DEPTH:
                raise ShapeError(
                    f"bad tree at position {pos}: nesting deeper than {MAX_TREE_DEPTH} levels"
                )
            pos += 1
            while True:
                children.append(read_tree(depth + 1))
                if pos >= len(text):
                    raise fail("unclosed parenthesis")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise fail("expected ',' or ')'")
        return LabeledRootedTree(label, tuple(children))

    out = read_tree(0)
    if pos != len(text):
        raise fail("trailing input")
    return out


def enumerate_trees(num_labels: int, degree: int) -> list[LabeledRootedTree]:
    """All trees of the exact degree with labels < num_labels, in
    canonical (sort key) order."""
    if num_labels < 1 or degree < 0:
        raise ShapeError("need at least one label and non-negative degree")
    return _enumerate(num_labels, degree)


@lru_cache(maxsize=None)
def _enumerate(num_labels: int, degree: int) -> list[LabeledRootedTree]:
    if degree == 0:
        return []
    if degree == 1:
        return [tree(a) for a in range(num_labels)]
    out = set()
    # split degree-1 vertices among a multiset of child subtrees
    for root_label in range(num_labels):
        for parts in _partitions(degree - 1):
            pools = [_enumerate(num_labels, p) for p in parts]
            for combo in itertools.product(*pools):
                out.add(LabeledRootedTree(root_label, tuple(combo)))
    return sorted(out, key=tree_sort_key)


@lru_cache(maxsize=None)
def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples."""
    if n == 0:
        return [()]
    cap = n if cap is None else cap
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def tree_counts_oracle(num_labels: int, max_degree: int) -> list[int]:
    """Independent count of rooted trees by degree via the functional
    equation T(x) = num_labels * x * prod_d (1 - x^d)^(-T_d), evaluated
    with integer power series arithmetic only."""
    counts = [0] * (max_degree + 1)
    if max_degree >= 1:
        counts[1] = num_labels
    for d in range(2, max_degree + 1):
        # forest generating polynomial up to degree d-1 using counts < d
        forest = [0] * d
        forest[0] = 1
        for deg in range(1, d):
            t_deg = counts[deg]
            if t_deg == 0:
                continue
            # multiply by (1 - x^deg)^(-t_deg): repeated geometric factors
            for _ in range(t_deg):
                for pos in range(deg, d):
                    forest[pos] += forest[pos - deg]
        counts[d] = num_labels * forest[d - 1]
    return counts


@dataclass(frozen=True)
class TreePoly:
    """Rational linear combination of trees, all of degree <= max_degree;
    `truncated` records that higher-degree terms were dropped."""

    max_degree: int
    terms: tuple[tuple[LabeledRootedTree, Fraction], ...]
    truncated: bool = False

    def __post_init__(self) -> None:
        for t, _ in self.terms:
            if t.degree > self.max_degree:
                raise ShapeError("term exceeds the truncation degree")

    @classmethod
    def make(
        cls,
        max_degree: int,
        terms: Mapping[LabeledRootedTree, Fraction] | Iterable[tuple[LabeledRootedTree, Fraction]],
        truncated: bool = False,
    ) -> "TreePoly":
        acc: dict[LabeledRootedTree, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for t, c in items:
            acc[t] = acc.get(t, Fraction(0)) + c
        kept = tuple(
            (t, c)
            for t, c in sorted(acc.items(), key=lambda tc: tree_sort_key(tc[0]))
            if c != 0
        )
        return cls(max_degree, kept, truncated)

    @classmethod
    def of_tree(cls, t: LabeledRootedTree, max_degree: int) -> "TreePoly":
        return cls.make(max_degree, [(t, Fraction(1))])

    def sub(self, other: "TreePoly") -> "TreePoly":
        self._check_compatible(other)
        return TreePoly.make(
            self.max_degree,
            list(self.terms) + [(t, -c) for t, c in other.terms],
            self.truncated or other.truncated,
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "TreePoly") -> None:
        if self.max_degree != other.max_degree:
            raise TruncationMismatch(
                f"truncation degrees {self.max_degree} and {other.max_degree}"
            )


def graft_trees(s: LabeledRootedTree, t: LabeledRootedTree) -> list[LabeledRootedTree]:
    """All ways of attaching the root of s below one vertex of t, as a
    list with multiplicity (one entry per vertex of t)."""
    out = [LabeledRootedTree(t.label, t.children + (s,))]
    for pos in range(len(t.children)):
        for grafted in graft_trees(s, t.children[pos]):
            kids = t.children[:pos] + (grafted,) + t.children[pos + 1 :]
            out.append(LabeledRootedTree(t.label, kids))
    return out


def graft_product(p: TreePoly, q: TreePoly) -> TreePoly:
    """The free product: graft every term of p into every term of q,
    dropping (and recording) terms beyond the truncation."""
    p._check_compatible(q)
    acc: dict[LabeledRootedTree, Fraction] = {}
    dropped = p.truncated or q.truncated
    for s, cs in p.terms:
        for t, ct in q.terms:
            if s.degree + t.degree > p.max_degree:
                dropped = True
                continue
            c = cs * ct
            for grafted in graft_trees(s, t):
                acc[grafted] = acc.get(grafted, Fraction(0)) + c
    return TreePoly.make(p.max_degree, acc, dropped)


class TreeEvaluator:
    """The homomorphism from the free algebra determined by a choice of
    images for the degree-1 trees."""

    def __init__(self, algebra: PreLieAlgebra, assign: Mapping[int, Sequence[Fraction]]) -> None:
        self.algebra = algebra
        self.assign = {
            label: tuple(v) for label, v in assign.items()
        }
        for label, v in self.assign.items():
            if len(v) != algebra.dim:
                raise ShapeError(f"image of label {label} has wrong dimension")
        self._memo: dict[LabeledRootedTree, Vector] = {}

    def eval_tree(self, t: LabeledRootedTree) -> Vector:
        if t in self._memo:
            return self._memo[t]
        if not t.children:
            if t.label not in self.assign:
                raise ShapeError(f"no image assigned to label {t.label}")
            out = self.assign[t.label]
        else:
            first = t.children[0]
            rest = LabeledRootedTree(t.label, t.children[1:])
            product = graft_product(
                TreePoly.of_tree(first, t.degree), TreePoly.of_tree(rest, t.degree)
            )
            out = self.algebra.multiply(self.eval_tree(first), self.eval_tree(rest))
            for s, c in product.terms:
                if s == t:
                    continue
                out = vec_sub(out, vec_scale(c, self.eval_tree(s)))
        self._memo[t] = out
        return out

    def eval_poly(self, p: TreePoly) -> Vector:
        if p.truncated:
            raise NeedsHigherTruncation(
                "polynomial lost terms to truncation; evaluate below the cutoff"
            )
        out = zero_vector(self.algebra.dim)
        for t, c in p.terms:
            out = vec_add(out, vec_scale(c, self.eval_tree(t)))
        return out


def evaluate(
    p: TreePoly, algebra: PreLieAlgebra, assign: Mapping[int, Sequence[Fraction]]
) -> Vector:
    """Evaluate a non-truncated polynomial; NeedsHigherTruncation if the
    polynomial already dropped terms."""
    return TreeEvaluator(algebra, assign).eval_poly(p)


def _bilinear(rows: IntTensor, p: Sequence[int], q: Sequence[int], n: int, mult: int) -> list[int]:
    """mult times the bilinear map of an integer tensor on the integer
    vectors (p, q), as a list of length n."""
    out = [0] * n
    for x, px in enumerate(p):
        if px:
            for u, qu in enumerate(q):
                if qu:
                    c = mult * px * qu
                    for w, t in rows.get((x, u), ()):
                        out[w] += c * t
    return out


@dataclass(frozen=True)
class _FreePlan:
    """The side of check_cocycle_pullback that does not depend on the
    algebra, for one (num_labels, max_degree).

    `trees` are the basis trees ordered by (degree, canonical key),
    `fits[r]` is the number of them of degree <= r, and `pairs` are the
    index pairs (i, j) whose product x_i * x_j the check reads. `nodes`
    are every tree the evaluation reaches, each after the nodes it reads.
    `program[k]` evaluates nodes[k]: a leaf label, or (first, rest,
    corrections) for TreeEvaluator's recursion
    E(t) = E(first) * E(rest) - sum of c * E(nodes[s]) over the (s, c) of
    corrections. `singles` and `products` give each basis tree and each
    pair product as integer multiplicities (s, c) over the nodes."""

    trees: tuple[LabeledRootedTree, ...]
    degrees: tuple[int, ...]
    fits: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    nodes: tuple[LabeledRootedTree, ...]
    program: tuple[int | tuple[int, int, IntRow], ...]
    singles: tuple[IntRow, ...]
    products: tuple[IntRow, ...]


@lru_cache(maxsize=None)
def _free_plan(num_labels: int, max_degree: int) -> _FreePlan:
    """The plan for check_cocycle_pullback, built once per process from
    enumerate_trees, graft_product and TreePoly."""
    trees: list[LabeledRootedTree] = []
    # a quadruple needs three more degree-1 partners, so trees beyond
    # degree max_degree - 3 can never appear
    for d in range(1, max(max_degree - 3, 1) + 1):
        trees.extend(enumerate_trees(num_labels, d))
    degrees = tuple(t.degree for t in trees)
    # trees come sorted by degree, so those of degree <= r are a prefix
    fits = tuple(bisect_right(degrees, r) for r in range(max_degree + 1))
    free_degree = max_degree + 1  # room for single products inside d(theta)
    polys = [TreePoly.of_tree(t, free_degree) for t in trees]
    pairs = tuple(
        (i, j) for i, d in enumerate(degrees) for j in range(bisect_right(degrees, max_degree - 2 - d))
    )

    nodes: list[LabeledRootedTree] = []
    program: list[int | tuple[int, int, IntRow]] = []
    index: dict[LabeledRootedTree, int] = {}

    def node(t: LabeledRootedTree) -> int:
        if t not in index:
            if t.children:
                first = t.children[0]
                rest = LabeledRootedTree(t.label, t.children[1:])
                grafts = graft_product(
                    TreePoly.of_tree(first, t.degree), TreePoly.of_tree(rest, t.degree)
                )
                corrections = tuple((node(s), int(c)) for s, c in grafts.terms if s != t)
                step: int | tuple[int, int, IntRow] = (node(first), node(rest), corrections)
            else:
                step = t.label
            index[t] = len(nodes)
            nodes.append(t)
            program.append(step)
        return index[t]

    singles = tuple(((node(t), 1),) for t in trees)
    products = tuple(
        tuple((node(s), int(c)) for s, c in graft_product(polys[i], polys[j]).terms) for i, j in pairs
    )
    return _FreePlan(
        tuple(trees), degrees, fits, pairs, tuple(nodes), tuple(program), singles, products
    )


def _label_images(assign: Mapping[int, Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """The images of labels 0 to the largest assigned label, raising the
    ShapeErrors TreeEvaluator would: a wrong dimension first, then the
    lowest label with no image."""
    images = {label: tuple(v) for label, v in assign.items()}
    for label, v in images.items():
        if len(v) != dim:
            raise ShapeError(f"image of label {label} has wrong dimension")
    if not images:
        raise ShapeError("no image assigned to any label")
    out = []
    for label in range(max(images) + 1):
        if label not in images:
            raise ShapeError(f"no image assigned to label {label}")
        out.append(images[label])
    return out


def _node_values(
    plan: _FreePlan, algebra: PreLieAlgebra, images: Sequence[Sequence[Fraction]]
) -> tuple[list[list[int]], list[int]]:
    """(values, scales): the plan's program run in integers. The label
    images are scaled by their common denominator D_e and the product by
    its denominator D_a, so a node of degree k has the integer value
    values[k] = scales[k] * E(nodes[k]), with scales[k] = D_e^k * D_a^(k-1)."""
    e_den, leaves = integer_rows(tuple(enumerate(v)) for v in images)
    a_den, (rows,) = integer_pairs(algebra.product)
    values: list[list[int]] = []
    for step in plan.program:
        if isinstance(step, int):
            values.append([x for _, x in leaves[step]])
            continue
        first, rest, corrections = step
        out = _bilinear(rows, values[first], values[rest], algebra.dim, 1)
        for s, c in corrections:
            for b, x in enumerate(values[s]):
                out[b] -= c * x
        values.append(out)
    scales = [e_den**t.degree * a_den ** (t.degree - 1) for t in plan.nodes]
    return values, scales


def _free_family(
    values: Sequence[Sequence[int]], scales: Sequence[int], family: Sequence[IntRow], n: int
) -> tuple[int, list[list[int]]]:
    """One denominator D for the vectors sum of c * E(node s) over the
    (s, c) of each row of family, and each vector times D, in integers;
    values and scales are _node_values's."""
    den = lcm(*(scales[s] for row in family for s, _ in row))
    out = []
    for row in family:
        vec = [0] * n
        for s, c in row:
            c *= den // scales[s]
            for b, x in enumerate(values[s]):
                vec[b] += c * x
        out.append(vec)
    return den, out


def check_cocycle_pullback(
    theta: Cochain,
    rep: Representation,
    assign: Mapping[int, Sequence[Fraction]],
    max_degree: int,
) -> Violation | None:
    """Pull a closed 3-cochain back along the evaluation homomorphism E
    and verify its coboundary vanishes on all quadruples of basis trees
    up to the total degree cutoff, in lexicographic order of indices.

    On trees x1..x4 the coboundary of the pullback is

        sum_i (-1)^(i+1) [x_i . th(..no x_i.., x4) + th(..no x_i.., x_i) . x4
                          - th(..no x_i.., x_i * x4)]
      + sum_{i<j<=3} (-1)^(i+j) th([x_i, x_j], ..no x_i, x_j.., x4)

    with th(y1, y2, y3) = theta(E y1, E y2, E y3), . the module actions
    of `rep` and * the grafting product, so both the free side and the
    evaluation are exercised. The free side, which does not depend on the
    algebra, is planned once per (labels, degree) by grafting (_free_plan):
    the basis trees, every product of two that fits, and a straight-line
    program for E over every tree they reach. Each call runs that program
    in integers on the label images, reads theta's nonzero values once,
    and scales each family (tree images, product images, theta, left and
    right action) by one common denominator.

    The coboundary of a 3-cochain is alternating in x1, x2, x3, so it
    vanishes when two of them are equal, and a permutation of them only
    changes its sign. The first violating quadruple in lexicographic order
    therefore has i1 < i2 < i3, and only those quadruples are visited.
    Theta is contracted in stages: once with each pair of tree images
    into T[i, j] = theta(E x_i, E x_j, -), once with each commutator image
    and a tree image, and, per triple, the terms linear in x4 are collected
    into one V-column per coordinate of E(x4). Each x4 then costs that
    column combination and three contractions of a T with a product image
    from the plan. Indices in a Violation refer to positions in the
    concatenated list of basis trees ordered by (degree, canonical key);
    its lhs is the coboundary value there and its rhs zero.
    """
    if theta.arity != 3:
        raise ShapeError("need a 3-cochain")
    a = rep.algebra
    if theta.algebra_dim != a.dim or theta.carrier_dim != rep.carrier_dim:
        raise ShapeError("cochain does not match the representation")
    images = _label_images(assign, a.dim)
    free = _free_plan(len(images), max_degree)
    degrees, fits = free.degrees, free.fits

    def fit(r: int) -> int:
        return fits[r] if r > 0 else 0

    # evaluation is linear and a homomorphism, so every tree and every
    # product two partners short of the cutoff is evaluated once
    values, scales = _node_values(free, a, images)
    e_den, singles = _free_family(values, scales, free.singles, a.dim)
    p_den, products = _free_family(values, scales, free.products, a.dim)
    product_of = dict(zip(free.pairs, products))

    g, v = a.dim, rep.carrier_dim
    # theta's nonzero values as integer Rows, at (x, y) -> [(z, value)];
    # theta is alternating in x, y, so (y, x) holds the negated values
    nonzero = list(theta.nonzero_values())
    t_den, t_values = integer_rows(value for _, value in nonzero)
    theta_rows: dict[tuple[int, int], list[tuple[int, IntRow]]] = {}
    for ((x, y, z), _), value in zip(nonzero, t_values):
        theta_rows.setdefault((x, y), []).append((z, value))
        theta_rows.setdefault((y, x), []).append((z, tuple((b, -t) for b, t in value)))

    l_den, (left_rows,) = integer_pairs(rep.left)
    r_den, (right_rows,) = integer_pairs(rep.right)
    # with theta zero, or no action and no nonzero product, every term is zero
    if not theta_rows or not (left_rows or right_rows or any(map(any, products))):
        return None

    # Each integer value is the true value times the product of the
    # denominators of its factors: theta on three tree images carries
    # t_den * e_den^3, an action term one more e_den and l_den or r_den,
    # and a term with one product image t_den * e_den^2 * p_den. Scaling
    # each kind up to their lcm puts every quadruple over one denominator.
    pull_den = t_den * e_den**2
    scale_left = l_den * e_den * pull_den * e_den
    scale_right = pull_den * e_den * r_den * e_den
    scale_graft = pull_den * p_den
    den = lcm(scale_left, scale_right, scale_graft)
    m_left, m_right, m_graft = den // scale_left, den // scale_right, den // scale_graft

    def contract(p: Sequence[int], q: Sequence[int], out: list[list[int]], mult: int) -> None:
        """out[z] += mult * theta(p, q, e_z) for each z, on integer vectors."""
        for x, px in enumerate(p):
            if px:
                for y, qy in enumerate(q):
                    if qy:
                        c = mult * px * qy
                        for z, value in theta_rows.get((x, y), ()):
                            col = out[z]
                            for b, t in value:
                                col[b] += c * t

    def combine(columns: Sequence[Sequence[int]], w: Sequence[int], out: list[int], mult: int) -> None:
        """out += mult * sum_z w[z] * columns[z]."""
        for z, c in enumerate(w):
            if c:
                c *= mult
                for b, t in enumerate(columns[z]):
                    out[b] += c * t

    def zeros() -> list[list[int]]:
        return [[0] * v for _ in range(g)]

    # acts[i][w] = m_left * (x_i . e_w), one V-vector per w
    acts = []
    for s in singles:
        act = [[0] * v for _ in range(v)]
        for (x, w), row in left_rows.items():
            if s[x]:
                for b, t in row:
                    act[w][b] += m_left * s[x] * t
        acts.append(act)

    # pairs[i, j] = (T[i, j], E[x_i, x_j]) for i < j, T[i, j][z] = theta(E x_i, E x_j, e_z)
    pairs: dict[tuple[int, int], tuple[list[list[int]], list[int]]] = {}

    def pair(i: int, j: int) -> tuple[list[list[int]], list[int]]:
        if (i, j) not in pairs:
            t = zeros()
            contract(singles[i], singles[j], t, 1)
            pairs[i, j] = (t, [x - y for x, y in zip(product_of[i, j], product_of[j, i])])
        return pairs[i, j]

    n = len(free.trees)
    for i1 in range(n):
        r1 = max_degree - degrees[i1]
        for i2 in range(i1 + 1, fit(r1 - 2)):
            r2 = r1 - degrees[i2]
            for i3 in range(i2 + 1, fit(r2 - 1)):
                triple = (i1, i2, i3)
                (t12, c12), (t13, c13), (t23, c23) = pair(i1, i2), pair(i1, i3), pair(i2, i3)
                # the terms with x_i removed, for i = 1, 2, 3, carry the signs
                # +, -, +; the brackets [x1, x2], [x1, x3], [x2, x3] carry -, +, -
                rests = ((t23, 1), (t13, -1), (t12, 1))
                # columns[z]: the V-value of every term linear in E(x4) at e_z
                columns = zeros()
                slot = [0] * v  # th(..no x_i.., x_i), summed with signs
                for i, (rest, sign) in zip(triple, rests):
                    combine(rest, singles[i], slot, sign)
                    for z in range(g):
                        combine(acts[i], rest[z], columns[z], sign)
                for w, c in enumerate(slot):
                    if c:
                        for u in range(g):
                            for b, t in right_rows.get((w, u), ()):
                                columns[u][b] += m_right * c * t
                for bracket, k, sign in ((c12, i3, -1), (c13, i2, 1), (c23, i1, -1)):
                    contract(bracket, singles[k], columns, sign * m_graft)
                for i4 in range(fit(r2 - degrees[i3])):
                    total = [0] * v
                    combine(columns, singles[i4], total, 1)
                    for i, (rest, sign) in zip(triple, rests):
                        combine(rest, product_of[i, i4], total, -sign * m_graft)
                    if any(total):
                        return Violation(
                            "pullback-coboundary",
                            (i1, i2, i3, i4),
                            tuple(Fraction(c, den) for c in total),
                            zero_vector(v),
                        )
    return None
