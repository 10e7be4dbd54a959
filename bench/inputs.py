"""Seeded input generation for the benchmark, independent of the library.

Inputs are JSON documents in the format the `prelie-coh` CLI reads.
Every structure is written down here from its definition, and every
copy is made here by an explicit change of basis, so the documents a
run feeds the program depend only on the seed and on this file, never
on the code under test.

A document kind is described by a schema naming, for each field, the
vector spaces its axes live in. One generic routine then moves any
document to new bases of its spaces, and another forms direct sums.
Tensors are dicts {(i, j, k): Fraction} with 0-based indices; a tensor
with axes (A, B, C) is a bilinear map A x B -> C, a matrix with axes
(S, R) is a linear map S -> R stored as {(row, col): value}.
"""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

F = Fraction

# field -> ("algebra", space, algebra kind) | ("tensor", A, B, C)
#        | ("matrix", source, target) | ("dim", space)
_ALGEBRA_FIELDS = {
    "prelie": ("product",),
    "lie": ("bracket",),
    "dendriform": ("succ", "prec"),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "prelie": {"": ("algebra", "g", "prelie")},
    "representation": {
        "algebra": ("algebra", "g", "prelie"),
        "carrier_dim": ("dim", "v"),
        "left": ("tensor", "g", "v", "v"),
        "right": ("tensor", "v", "g", "v"),
    },
    "extension": {
        "g": ("algebra", "g", "prelie"),
        "v_dim": ("dim", "v"),
        "v_left": ("tensor", "g", "v", "v"),
        "v_right": ("tensor", "v", "g", "v"),
        "m": ("algebra", "m", "prelie"),
        "n": ("algebra", "n", "prelie"),
        "i": ("matrix", "v", "m"),
        "mu": ("matrix", "m", "n"),
        "pi": ("matrix", "n", "g"),
        "left": ("tensor", "n", "m", "m"),
        "right": ("tensor", "m", "n", "m"),
    },
    "crossed_module": {
        "m": ("algebra", "m", "prelie"),
        "n": ("algebra", "n", "prelie"),
        "mu": ("matrix", "m", "n"),
        "left": ("tensor", "n", "m", "m"),
        "right": ("tensor", "m", "n", "m"),
    },
    "lie_xmod": {
        "m": ("algebra", "m", "lie"),
        "n": ("algebra", "n", "lie"),
        "mu": ("matrix", "m", "n"),
        "action": ("tensor", "n", "m", "m"),
    },
    "rblie_xmod": {
        "m": ("algebra", "m", "lie"),
        "n": ("algebra", "n", "lie"),
        "t_m": ("matrix", "m", "m"),
        "t_n": ("matrix", "n", "n"),
        "mu": ("matrix", "m", "n"),
        "rho": ("tensor", "n", "m", "m"),
    },
    "dendriform_xmod": {
        "m": ("algebra", "m", "dendriform"),
        "n": ("algebra", "n", "dendriform"),
        "mu": ("matrix", "m", "n"),
        "succ_nm": ("tensor", "n", "m", "m"),
        "prec_mn": ("tensor", "m", "n", "m"),
        "succ_mn": ("tensor", "m", "n", "m"),
        "prec_nm": ("tensor", "n", "m", "m"),
    },
}

# --- sparse entry lists <-> dicts -----------------------------------------------


def read_entries(entries: list) -> dict[tuple[int, ...], Fraction]:
    return {tuple(e[t] - 1 for t in range(len(e) - 1)): F(e[-1]) for e in entries}


def write_entries(table: dict[tuple[int, ...], Fraction]) -> list:
    return [
        [*(i + 1 for i in key), str(value)]
        for key, value in sorted(table.items())
        if value != 0
    ]


def _sub(obj: dict, field: str) -> dict:
    return obj if field == "" else obj[field]


def space_dims(doc: dict) -> dict[str, int]:
    dims = {}
    for field, spec in SCHEMAS[doc["kind"]].items():
        if spec[0] == "algebra":
            dims[spec[1]] = _sub(doc, field)["dim"]
        elif spec[0] == "dim":
            dims[spec[1]] = doc[field]
    return dims


def _fields(doc: dict):
    """(container, key, axes) for every tensor or matrix field of doc."""
    for field, spec in SCHEMAS[doc["kind"]].items():
        if spec[0] == "algebra":
            sub = _sub(doc, field)
            for key in _ALGEBRA_FIELDS[spec[2]]:
                yield sub, key, (spec[1],) * 3
        elif spec[0] == "tensor":
            yield doc, field, spec[1:]
        elif spec[0] == "matrix":
            source, target = spec[1:]
            yield doc, field, (target, source)


# --- changes of basis -------------------------------------------------------------


class Basis:
    """New basis f_i = sum_k P[k][i] e_k of a space; Q is P^-1."""

    def __init__(self, p: list[list[Fraction]]) -> None:
        self.p = p
        self.q = invert(p)
        self.dim = len(p)


def invert(p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse; ValueError when singular."""
    n = len(p)
    rows = [list(p[i]) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular change of basis")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


SCALES = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(-2, 3), F(3, 2))


def monomial_basis(dim: int, rng: random.Random) -> Basis:
    """A permutation of the basis with each vector rescaled."""
    perm = rng.sample(range(dim), dim)
    p = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        p[perm[i]][i] = rng.choice(SCALES)
    return Basis(p)


def rational_basis(dim: int, rng: random.Random) -> Basis:
    """A dense rational matrix P = L U with denominators <= 3: L unit
    lower triangular with small integer entries, U unit upper triangular
    with each column over one denominator. det P = 1 keeps P^-1 small,
    so every copy has structure constants of a similar size."""
    lower = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    upper = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            lower[i][j] = F(rng.choice((1, -1, 2, -2, 0)))
    for j in range(dim):
        q = rng.randint(1, 3)
        for i in range(j):
            upper[i][j] = F(rng.choice((1, -1, 2, -2)), q)
    return Basis(
        [[sum(lower[i][k] * upper[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    )


def _move(table: dict, axes: tuple[str, ...], bases: dict[str, Basis], inputs: int) -> dict:
    """Rewrite a multilinear map in new bases: P on input axes, Q on the output."""
    out: dict[tuple[int, ...], Fraction] = {}
    for key, value in table.items():
        partial = [((), value)]
        for pos, (axis, old) in enumerate(zip(axes, key)):
            b = bases[axis]
            if pos < inputs:
                column = [(new, b.p[old][new]) for new in range(b.dim) if b.p[old][new] != 0]
            else:
                column = [(new, b.q[new][old]) for new in range(b.dim) if b.q[new][old] != 0]
            partial = [(idx + (new,), c * w) for idx, c in partial for new, w in column]
        for idx, c in partial:
            out[idx] = out.get(idx, F(0)) + c
    return out


def transform(doc: dict, bases: dict[str, Basis]) -> dict:
    """The same structure written in new bases of its spaces."""
    out = copy.deepcopy(doc)
    for container, key, axes in _fields(out):
        table = read_entries(container[key])
        if len(axes) == 3:
            moved = _move(table, axes, bases, inputs=2)
        else:  # matrix: rows live in the target (output), columns in the source
            swapped = {(c, r): v for (r, c), v in table.items()}
            moved = {
                (r, c): v
                for (c, r), v in _move(swapped, (axes[1], axes[0]), bases, inputs=1).items()
            }
        container[key] = write_entries(moved)
    return out


def direct_sum(docs: list[dict]) -> dict:
    """Block-diagonal sum of documents of one kind."""
    out = copy.deepcopy(docs[0])
    offsets = {space: 0 for space in space_dims(docs[0])}
    merged: list[dict] = [dict() for _ in _fields(out)]
    for doc in docs:
        dims = space_dims(doc)
        for slot, (container, key, axes) in enumerate(_fields(doc)):
            for idx, value in read_entries(container[key]).items():
                shifted = tuple(i + offsets[a] for i, a in zip(idx, axes))
                merged[slot][shifted] = value
        for space, d in dims.items():
            offsets[space] += d
    for slot, (container, key, _) in enumerate(_fields(out)):
        container[key] = write_entries(merged[slot])
    for field, spec in SCHEMAS[out["kind"]].items():
        if spec[0] == "algebra":
            _sub(out, field)["dim"] = offsets[spec[1]]
        elif spec[0] == "dim":
            out[field] = offsets[spec[1]]
    return out


def same_structure(a: dict, b: dict) -> bool:
    """Equal documents, comparing entries as exact rationals."""
    if a.get("kind") != b.get("kind") or space_dims(a) != space_dims(b):
        return False
    return all(
        read_entries(ca[k]) == read_entries(cb[k])
        for (ca, k, _), (cb, _, _) in zip(_fields(a), _fields(b))
    )


# --- base structures, from their definitions ----------------------------------------


def prelie_doc(dim: int, product: dict) -> dict:
    return {"kind": "prelie", "format_version": "1", "dim": dim, "product": write_entries(product)}


def left_unit(dim: int) -> dict:
    """e_1 * e_j = e_j: the left-unit family (affine_dim)."""
    return prelie_doc(dim, {(0, j, j): F(1) for j in range(dim)})


def lmult2() -> dict:
    """e_1 * e_2 = e_2."""
    return prelie_doc(2, {(0, 1, 1): F(1)})


def abelian(dim: int) -> dict:
    return prelie_doc(dim, {})


def _algebra(doc: dict) -> dict:
    return {"dim": doc["dim"], "product": list(doc["product"])}


def regular(alg: dict) -> dict:
    """The algebra acting on itself on both sides by its product."""
    return {
        "kind": "representation",
        "format_version": "1",
        "algebra": _algebra(alg),
        "carrier_dim": alg["dim"],
        "left": list(alg["product"]),
        "right": list(alg["product"]),
    }


def trivial(alg: dict, carrier_dim: int) -> dict:
    return {
        "kind": "representation",
        "format_version": "1",
        "algebra": _algebra(alg),
        "carrier_dim": carrier_dim,
        "left": [],
        "right": [],
    }


def semidirect(rep: dict) -> dict:
    """g (+) V with (x, u) * (y, w) = (x * y, x.w + u.y)."""
    d = rep["algebra"]["dim"]
    prod = dict(read_entries(rep["algebra"]["product"]))
    for (i, a, b), c in read_entries(rep["left"]).items():
        prod[(i, d + a, d + b)] = c
    for (a, i, b), c in read_entries(rep["right"]).items():
        prod[(d + a, i, d + b)] = c
    return prelie_doc(d + rep["carrier_dim"], prod)


def _rep_parts(rep: dict):
    return (
        rep["algebra"],
        rep["carrier_dim"],
        read_entries(rep["left"]),
        read_entries(rep["right"]),
    )


def trivial_extension(rep: dict) -> dict:
    """0 -> V -id-> V -0-> g -id-> g -> 0, g acting on V through rep."""
    g, v, left, right = _rep_parts(rep)
    d = g["dim"]
    return {
        "kind": "extension",
        "format_version": "1",
        "g": dict(g),
        "v_dim": v,
        "v_left": write_entries(left),
        "v_right": write_entries(right),
        "m": {"dim": v, "product": []},
        "n": dict(g),
        "i": write_entries({(k, k): F(1) for k in range(v)}),
        "mu": [],
        "pi": write_entries({(k, k): F(1) for k in range(d)}),
        "left": write_entries(left),
        "right": write_entries(right),
    }


def double_extension(rep: dict) -> dict:
    """0 -> V -> V (+) V -> g (+) V -> g -> 0, the split two-step
    extension: mu(u, w) = (0, u), i(w) = (0, w), pi(x, u) = x, and n acts
    on each copy of V through its g part."""
    g, v, left, right = _rep_parts(rep)
    d = g["dim"]
    n = semidirect(rep)
    m_left, m_right = {}, {}
    for copy in (0, 1):
        for (a, u, k), c in left.items():
            m_left[(a, copy * v + u, copy * v + k)] = c
        for (u, a, k), c in right.items():
            m_right[(copy * v + u, a, copy * v + k)] = c
    return {
        "kind": "extension",
        "format_version": "1",
        "g": dict(g),
        "v_dim": v,
        "v_left": write_entries(left),
        "v_right": write_entries(right),
        "m": {"dim": 2 * v, "product": []},
        "n": {"dim": n["dim"], "product": n["product"]},
        "i": write_entries({(v + k, k): F(1) for k in range(v)}),
        "mu": write_entries({(d + k, k): F(1) for k in range(v)}),
        "pi": write_entries({(k, k): F(1) for k in range(d)}),
        "left": write_entries(m_left),
        "right": write_entries(m_right),
    }


# --- cochains -------------------------------------------------------------------------


def cochain_doc(arity: int, algebra_dim: int, carrier_dim: int, table: dict) -> dict:
    """table: {(args..., component): value} with strictly increasing
    leading arguments, 0-based."""
    entries = [
        [[a + 1 for a in key[:-1]], key[-1] + 1, str(value)]
        for key, value in sorted(table.items())
        if value != 0
    ]
    return {
        "kind": "cochain",
        "format_version": "1",
        "arity": arity,
        "algebra_dim": algebra_dim,
        "carrier_dim": carrier_dim,
        "entries": entries,
    }


def cochain_table(doc: dict) -> dict:
    return {
        tuple(a - 1 for a in args) + (b - 1,): F(value)
        for args, b, value in doc["entries"]
    }


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for s in range(len(perm)) for t in range(s + 1, len(perm)) if perm[s] > perm[t])
    return -1 if inversions % 2 else 1


def move_cochain(doc: dict, g: Basis, v: Basis) -> dict:
    """f'(f_1..f_n) = Q_V f(P f_1, ..., P f_n) for the new bases g, v."""
    n = doc["arity"]
    table = cochain_table(doc)
    full: dict[tuple[int, ...], Fraction] = {}
    # expand the alternating prefix to all argument orders
    for key, value in table.items():
        prefix, last, comp = key[: n - 1], key[n - 1], key[n]
        for perm in itertools.permutations(range(n - 1)):
            args = tuple(prefix[p] for p in perm)
            full[args + (last, comp)] = _parity(perm) * value
    moved = _move(full, ("g",) * n + ("v",), {"g": g, "v": v}, inputs=n)
    kept = {
        key: value
        for key, value in moved.items()
        if all(key[t] < key[t + 1] for t in range(n - 2))
    }
    return cochain_doc(n, doc["algebra_dim"], doc["carrier_dim"], kept)


def regular_coboundary_1(alg: dict, h: dict) -> dict:
    """(d h)(x, y) = x * h(y) + h(x) * y - h(x * y) for a 1-cochain h of
    the regular representation, written out from the definition."""
    prod = read_entries(alg["product"])
    by_arg: dict[int, list] = {}
    by_comp: dict[int, list] = {}
    for (y, a), c in cochain_table(h).items():
        by_arg.setdefault(y, []).append((a, c))
        by_comp.setdefault(a, []).append((y, c))
    out: dict[tuple[int, ...], Fraction] = {}
    for (i, a, k), c in prod.items():
        for y, hc in by_comp.get(a, ()):  # e_i * h(e_y)
            out[(i, y, k)] = out.get((i, y, k), F(0)) + c * hc
        for x, hc in by_comp.get(i, ()):  # h(e_x) * e_a
            out[(x, a, k)] = out.get((x, a, k), F(0)) + hc * c
        for b, hc in by_arg.get(k, ()):  # -h(e_i * e_a)
            out[(i, a, b)] = out.get((i, a, b), F(0)) - c * hc
    return cochain_doc(2, alg["dim"], alg["dim"], out)
