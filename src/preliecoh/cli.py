"""Command-line front end.

Subcommands:

  validate      run the axiom verifier matching a document's kind
  cohomology    dimension table of H^k for a representation document
  tmap          realize the 3-cocycle of a crossed-module extension
  convert       functor conversions between crossed-module flavors
  trees         enumerate labeled rooted trees or graft two of them
  cohomologous  decide whether two cocycles differ by a coboundary

Exit codes: 0 success, 1 input error (files, schema, arguments, or an
input too large for the available memory), 2 mathematical violation
(failed axiom, non-cocycle, distinct classes), 3 output-certification
failure of a conversion. All reports go to stdout and are deterministic
for fixed inputs and seeds; errors go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import random
import sys
from fractions import Fraction

from .algebra import PreLieAlgebra
from .cochain import (
    Cochain,
    CochainComplex,
    LieComplex,
    are_cohomologous,
    cohomology,
    cohomology_dimension,
    hom_module,
    lie_cohomology_dimension,
)
from .documents import (
    DocumentModel,
    Payload,
    _cochain_entries,
    dumps_pretty,
    parse_document,
    serialize_document,
    verify_document,
)
from .errors import (
    InternalAssertionFailed,
    InvalidExtension,
    InvalidInput,
    NotACocycle,
    NotAnIdeal,
    OutputCheckFailed,
    ParseError,
    PreLieError,
)
from .functors import (
    dendriform_to_prelie_xmod,
    prelie_to_lie_xmod,
    rblie_to_prelie_xmod,
)
from .linalg import in_kernel, is_zero_vector
from .trees import TreePoly, enumerate_trees, format_tree, graft_product, parse_tree
from .xmodules import (
    random_mu_section,
    random_pi_section,
    t_map,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(message)


# --- formatting helpers --------------------------------------------------------


def _basis_names(algebra: PreLieAlgebra) -> tuple[str, ...]:
    if algebra.labels is not None:
        return algebra.labels
    return tuple(f"e{i + 1}" for i in range(algebra.dim))


def _linear_combo(pairs: list[tuple[Fraction, str]]) -> str:
    """Render sum of coefficient*name with signs folded into the joins."""
    rendered = []
    for c, name in pairs:
        if c == 0:
            continue
        body = name if abs(c) == 1 else f"{abs(c)} {name}"
        rendered.append(("-" if c < 0 else "+", body))
    if not rendered:
        return "0"
    sign, body = rendered[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in rendered[1:]:
        out += f" {sign} {body}"
    return out


def _coords_str(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _cochain_lines(f: Cochain, name: str, arg_names: tuple[str, ...]) -> list[str]:
    lines = []
    for args, value in f.nonzero_values():
        names = ", ".join(arg_names[i] for i in args)
        lines.append(f"{name}({names}) = {_linear_combo([(c, f'v{b + 1}') for b, c in value])}")
    return lines or [f"{name} = 0"]


def _emit(args, human_lines: list[str], machine: dict) -> None:
    if args.json:
        sys.stdout.write(dumps_pretty(machine))
    else:
        for line in human_lines:
            print(line)


def _load(path: str, *kinds: str) -> DocumentModel:
    doc = parse_document(path)
    if doc.kind not in kinds:
        expected = " or ".join(kinds)
        article = "an" if expected[0] in "aeiou" else "a"
        raise ParseError(f"{path}: expected {article} {expected} document, got {doc.kind}")
    return doc


def _verified(doc: DocumentModel) -> Payload:
    """The document's payload; raises InvalidInput with its first violation."""
    bad = verify_document(doc)
    if bad is not None:
        raise InvalidInput(str(bad))
    return doc.payload


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = parse_document(args.file)
    if doc.kind == "cochain":
        _emit(
            args,
            [
                "kind: cochain",
                "result: valid (schema only; closedness is relative to a representation)",
            ],
            {"command": "validate", "kind": "cochain", "valid": True, "schema_only": True},
        )
        return 0
    bad = verify_document(doc)
    if bad is None:
        _emit(
            args,
            [f"kind: {doc.kind}", "result: valid"],
            {"command": "validate", "kind": doc.kind, "valid": True},
        )
        return 0
    _emit(
        args,
        [f"kind: {doc.kind}", "result: invalid", f"violation: {bad}"],
        {
            "command": "validate",
            "kind": doc.kind,
            "valid": False,
            "axiom": bad.axiom,
            "violation": str(bad),
        },
    )
    return 2


def cmd_cohomology(args) -> int:
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    rep = _verified(_load(args.file, "representation"))
    names = _basis_names(rep.algebra)
    lines = [
        f"algebra dim: {rep.algebra.dim}",
        f"module dim: {rep.carrier_dim}",
    ]
    machine: dict = {
        "command": "cohomology",
        "algebra_dim": rep.algebra.dim,
        "module_dim": rep.carrier_dim,
        "dims": {},
    }
    failed = False
    cx = CochainComplex(rep)
    if args.verify:
        square_zero = all(
            (cx.d(k + 1) @ cx.d(k)).is_zero() for k in range(1, args.n + 1)
        )
        lines.append(
            f"d o d = 0 on C^1..C^{args.n}: {'PASS' if square_zero else 'FAIL'}"
        )
        machine["dd_zero"] = square_zero
        failed = failed or not square_zero
    if args.phi:
        machine["lie_dims"] = {}
        lie_cx = LieComplex(hom_module(rep))
    if args.representatives:
        machine["representatives"] = {}
    for k in range(1, args.n + 1):
        # representatives need the kernel and quotient; a dimension needs ranks only
        h = cohomology(cx, k) if args.representatives else None
        dim = cohomology_dimension(cx, k) if h is None else h.dimension
        lines.append(f"H^{k}: dim {dim}")
        machine["dims"][str(k)] = dim
        if args.phi:
            lie_dim = lie_cohomology_dimension(lie_cx, k - 1)
            agree = lie_dim == dim
            lines.append(
                f"  Lie H^{k - 1}(g^c, Hom(g, V)): dim {lie_dim} "
                f"[{'PASS' if agree else 'FAIL'}]"
            )
            machine["lie_dims"][str(k - 1)] = lie_dim
            failed = failed or not agree
        if h is not None:
            machine["representatives"][str(k)] = [
                _cochain_entries(r) for r in h.representatives
            ]
            for t, r in enumerate(h.representatives):
                for line in _cochain_lines(r, "f", names):
                    lines.append(f"  representative {t + 1}: {line}")
    _emit(args, lines, machine)
    return 2 if failed else 0


def cmd_tmap(args) -> int:
    e = _verified(_load(args.file, "extension"))
    cx = CochainComplex(e.v_rep)
    result = t_map(e, h3=cohomology(cx, 3))
    names = _basis_names(e.g_algebra)
    mu_kills = all(is_zero_vector(e.mu.apply(v)) for v in result.theta_m)
    d_zero = in_kernel(cx.d(3), (result.theta.row,))
    lines = [
        f"extension: dim V = {e.v_dim}, dim m = {e.m_algebra.dim}, "
        f"dim n = {e.n_algebra.dim}, dim g = {e.g_algebra.dim}",
        *_cochain_lines(result.theta, "theta", names),
        f"class coordinates: {_coords_str(result.class_coordinates)}",
        f"class is zero: {'yes' if result.is_trivial_class else 'no'}",
        f"mu kills theta: {'PASS' if mu_kills else 'FAIL'}",
        f"d(theta) = 0: {'PASS' if d_zero else 'FAIL'}",
    ]
    machine = {
        "command": "tmap",
        "dims": {
            "v": e.v_dim,
            "m": e.m_algebra.dim,
            "n": e.n_algebra.dim,
            "g": e.g_algebra.dim,
        },
        "theta": _cochain_entries(result.theta),
        "class": [str(c) for c in result.class_coordinates],
        "class_is_zero": result.is_trivial_class,
        "mu_kills_theta": mu_kills,
        "d_theta_zero": d_zero,
    }
    failed = not (mu_kills and d_zero)
    if args.sections == "random":
        rng = random.Random(args.seed)
        perturbed = t_map(
            e,
            rho=random_pi_section(e, rng),
            sigma=random_mu_section(e, rng),
            h3=result.h3,
        )
        agree = perturbed.class_coordinates == result.class_coordinates
        primitive = are_cohomologous(cx, result.theta, perturbed.theta)
        lines.extend(
            [
                f"perturbed sections (seed {args.seed}):",
                f"  class coordinates: {_coords_str(perturbed.class_coordinates)}",
                f"  classes agree: {'PASS' if agree else 'FAIL'}",
                f"  difference is a coboundary: {'PASS' if primitive is not None else 'FAIL'}",
            ]
        )
        machine["perturbed"] = {
            "seed": args.seed,
            "class": [str(c) for c in perturbed.class_coordinates],
            "classes_agree": agree,
            "cohomologous": primitive is not None,
        }
        failed = failed or not agree or primitive is None
    _emit(args, lines, machine)
    return 2 if failed else 0


_FLAVOR_BY_KIND = {
    "crossed_module": "prelie",
    "rblie_xmod": "rblie",
    "dendriform_xmod": "dendriform",
}

_CONVERTERS = {
    "prelie": (prelie_to_lie_xmod, "lie_xmod"),
    "rblie": (rblie_to_prelie_xmod, "crossed_module"),
    "dendriform": (dendriform_to_prelie_xmod, "crossed_module"),
}


def cmd_convert(args) -> int:
    doc = _load(args.file, *_FLAVOR_BY_KIND)
    flavor = _FLAVOR_BY_KIND[doc.kind]
    if args.source is not None and args.source != flavor:
        raise ParseError(
            f"--from {args.source} does not match the {doc.kind} document"
        )
    converter, out_kind = _CONVERTERS[flavor]
    converted = converter(doc.payload)
    sys.stdout.write(serialize_document(DocumentModel(out_kind, converted)))
    return 0


def cmd_trees(args) -> int:
    if args.product is not None:
        t1 = parse_tree(args.product[0])
        t2 = parse_tree(args.product[1])
        limit = t1.degree + t2.degree
        poly = graft_product(
            TreePoly.of_tree(t1, limit), TreePoly.of_tree(t2, limit)
        )
        combo = _linear_combo([(c, format_tree(t)) for t, c in poly.terms])
        _emit(
            args,
            [combo],
            {
                "command": "trees",
                "mode": "product",
                "terms": [
                    {"tree": format_tree(t), "coefficient": str(c)}
                    for t, c in poly.terms
                ],
            },
        )
        return 0
    if args.degree is None:
        raise _UsageError("--degree is required unless --product is given")
    if args.degree < 1:
        raise _UsageError("--degree must be at least 1")
    if not 1 <= args.labels <= 26:
        raise _UsageError("--labels must be between 1 and 26")
    trees = enumerate_trees(args.labels, args.degree)
    rendered = [format_tree(t) for t in trees]
    _emit(
        args,
        rendered,
        {
            "command": "trees",
            "mode": "enumerate",
            "labels": args.labels,
            "degree": args.degree,
            "trees": rendered,
        },
    )
    return 0


def cmd_cohomologous(args) -> int:
    rep = _verified(_load(args.rep, "representation"))
    f1 = _load(args.first, "cochain").payload
    f2 = _load(args.second, "cochain").payload
    for f in (f1, f2):
        if f.algebra_dim != rep.algebra.dim or f.carrier_dim != rep.carrier_dim:
            raise ParseError("cochain dimensions do not match the representation")
    cx = CochainComplex(rep)
    primitive = are_cohomologous(cx, f1, f2)
    names = _basis_names(rep.algebra)
    if primitive is not None:
        lines = [
            f"arity: {f1.arity}",
            "cohomologous: yes",
            "primitive h with d(h) = f1 - f2:",
            *(f"  {line}" for line in _cochain_lines(primitive, "h", names)),
        ]
        _emit(
            args,
            lines,
            {
                "command": "cohomologous",
                "arity": f1.arity,
                "cohomologous": True,
                "primitive": _cochain_entries(primitive),
            },
        )
        return 0
    h = cohomology(cx, f1.arity)
    difference = h.class_coordinates(f1.sub(f2))
    _emit(
        args,
        [
            f"arity: {f1.arity}",
            "cohomologous: no",
            f"difference class coordinates: {_coords_str(difference)}",
        ],
        {
            "command": "cohomologous",
            "arity": f1.arity,
            "cohomologous": False,
            "class_difference": [str(c) for c in difference],
        },
    )
    return 2


# --- entry point ----------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so every main call can share it."""
    parser = _Parser(
        prog="prelie-coh",
        description="Exact verification and cohomology for pre-Lie structures.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one machine-readable JSON object"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "validate", parents=[common], help="check a document against its axioms"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "cohomology", parents=[common], help="dimension table of H^k"
    )
    p.add_argument("file", help="a representation document")
    p.add_argument("--n", type=int, default=3, help="compute H^1..H^n")
    p.add_argument(
        "--verify", action="store_true", help="re-check d o d = 0 before reporting"
    )
    p.add_argument(
        "--phi",
        action="store_true",
        help="cross-check against Lie cohomology of Hom(g, V)",
    )
    p.add_argument(
        "--representatives", action="store_true", help="print chosen cocycles"
    )
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser(
        "tmap", parents=[common], help="3-cocycle of a crossed-module extension"
    )
    p.add_argument("file", help="an extension document")
    p.add_argument(
        "--sections",
        choices=("default", "random"),
        default="default",
        help="recompute with randomly perturbed sections and compare",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed for the random sections"
    )
    p.set_defaults(func=cmd_tmap)

    p = sub.add_parser(
        "convert", parents=[common], help="apply a crossed-module functor"
    )
    p.add_argument("file")
    p.add_argument(
        "--from",
        dest="source",
        choices=tuple(_CONVERTERS),
        help="expected input flavor (inferred from the document kind)",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "trees", parents=[common], help="rooted-tree enumeration and grafting"
    )
    p.add_argument("--labels", type=int, default=1)
    p.add_argument("--degree", type=int)
    p.add_argument(
        "--product", nargs=2, metavar=("T1", "T2"), help="graft T1 below T2"
    )
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser(
        "cohomologous",
        parents=[common],
        help="decide whether two cocycles share a class",
    )
    p.add_argument("rep", help="a representation document")
    p.add_argument("first", help="a cochain document")
    p.add_argument("second", help="a cochain document")
    p.set_defaults(func=cmd_cohomologous)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OutputCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, InvalidExtension, NotACocycle, NotAnIdeal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalAssertionFailed:
        raise
    except (PreLieError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large for the available memory", file=sys.stderr)
        return 1


# The interpreter, the standard library and this package, all loaded by
# now, live as long as the process. Freezing them keeps every full
# collection of the cyclic collector from traversing their ~16,000
# objects, a pause of several ms inside whichever command triggers it.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
