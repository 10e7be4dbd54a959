"""JSON interchange for every structure the command line accepts.

One document = one JSON object with a "kind" tag, an optional
"format_version" (defaults to "1", the only version), and kind-specific
fields. Conventions, applied exactly once at this boundary:

  * indices in files are 1-based; everything in memory is 0-based;
  * scalars are exact rationals: a JSON integer, or a string of an
    optional sign, digits and an optional "/digits"; emitted as
    str(Fraction);
  * tensors and matrices are sparse entry lists, [i, j, k, value] and
    [row, col, value]; unlisted entries are zero; duplicates are
    rejected;
  * serialization is canonical: entries sorted by index, zeros omitted,
    two-space indent, so equal payloads produce identical bytes.

Schema failures, a zero denominator included, raise SchemaError carrying
a JSON-pointer path; malformed JSON raises ParseError.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ActionData,
    AlgebraMorphism,
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    Tensor3,
    Violation,
    check_lie,
    check_prelie,
    check_representation,
    sparse_tensor,
)
from .cochain import Cochain, CochainBasis
from .errors import ParseError, SchemaError
from .functors import (
    DendriformAlgebra,
    DendriformCrossedModule,
    LieCrossedModule,
    RotaBaxterLieCrossedModule,
    check_dendriform_xmod,
    check_lie_crossed_module,
    check_rb_lie_xmod,
)
from .linalg import MatrixQ
from .xmodules import (
    CrossedModule,
    CrossedModuleExtension,
    check_crossed_module,
    check_extension,
)

FORMAT_VERSION = "1"

KINDS = (
    "prelie",
    "lie",
    "representation",
    "crossed_module",
    "extension",
    "rblie_xmod",
    "dendriform_xmod",
    "cochain",
    "lie_xmod",
)

Payload = (
    PreLieAlgebra
    | LieAlgebra
    | Representation
    | CrossedModule
    | CrossedModuleExtension
    | RotaBaxterLieCrossedModule
    | DendriformCrossedModule
    | Cochain
    | LieCrossedModule
)


@dataclass(frozen=True)
class DocumentModel:
    kind: str
    payload: Payload
    format_version: str = FORMAT_VERSION


# --- field codecs ------------------------------------------------------------


def _read_int(obj, ptr: str, minimum: int = 0) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(ptr, "expected an integer")
    if obj < minimum:
        raise SchemaError(ptr, f"must be at least {minimum}")
    return obj


# an optional sign, digits, and an optional /digits; nothing else
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _read_fraction(obj, ptr: str) -> Fraction:
    if isinstance(obj, bool):
        raise SchemaError(ptr, "expected an integer or a 'p/q' string")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if _RATIONAL.fullmatch(obj):
            try:
                return Fraction(obj)
            except ZeroDivisionError:
                raise SchemaError(ptr, "zero denominator") from None
            except ValueError:  # more digits than int() converts
                pass
        raise SchemaError(ptr, f"not a rational literal: {obj!r}")
    raise SchemaError(ptr, "expected an integer or a 'p/q' string")


def _read_index(obj, ptr: str, size: int) -> int:
    """A 1-based index into a dimension of size `size`; returns 0-based."""
    value = _read_int(obj, ptr, minimum=1)
    if value > size:
        raise SchemaError(ptr, f"index {value} out of range 1..{size}")
    return value - 1


def _read_entry_list(obj, ptr: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(ptr, "expected a list of entries")
    return obj


def _read_sparse(obj, ptr: str, sizes: tuple[int, ...], shape: str) -> dict:
    """{0-based index tuple: value} from sparse [index..., value] entries."""
    out: dict[tuple[int, ...], Fraction] = {}
    for pos, entry in enumerate(_read_entry_list(obj, ptr)):
        eptr = f"{ptr}/{pos}"
        if not isinstance(entry, list) or len(entry) != len(sizes) + 1:
            raise SchemaError(eptr, f"expected {shape}")
        key = tuple([_read_index(entry[t], f"{eptr}/{t}", n) for t, n in enumerate(sizes)])
        if key in out:
            raise SchemaError(eptr, "duplicate entry")
        out[key] = _read_fraction(entry[-1], f"{eptr}/{len(sizes)}")
    return out


def _read_tensor(obj, ptr: str, d1: int, d2: int, d3: int) -> Tensor3:
    return sparse_tensor(d1, d2, d3, _read_sparse(obj, ptr, (d1, d2, d3), "[i, j, k, value]"))


def _read_matrix(obj, ptr: str, rows: int, cols: int) -> MatrixQ:
    return MatrixQ.from_entries(rows, cols, _read_sparse(obj, ptr, (rows, cols), "[row, col, value]"))


def _read_labels(obj, ptr: str, dim: int) -> tuple[str, ...]:
    if not isinstance(obj, list) or len(obj) != dim or not all(isinstance(s, str) for s in obj):
        raise SchemaError(ptr, f"expected a list of {dim} strings")
    return tuple(obj)


def _read_cochain_entries(obj, ptr: str, arity: int, algebra_dim: int, carrier_dim: int):
    """The Row of cochain coordinates from [[args...], component, value]
    entries."""
    basis = CochainBasis(arity, algebra_dim)
    coords: dict[int, Fraction] = {}
    for pos, entry in enumerate(_read_entry_list(obj, ptr)):
        eptr = f"{ptr}/{pos}"
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(eptr, "expected [[arguments], component, value]")
        args_obj = entry[0]
        if not isinstance(args_obj, list) or len(args_obj) != arity:
            raise SchemaError(f"{eptr}/0", f"expected {arity} argument indices")
        args = tuple(
            _read_index(a, f"{eptr}/0/{t}", algebra_dim) for t, a in enumerate(args_obj)
        )
        prefix, last = args[:-1], args[-1]
        if any(prefix[t] >= prefix[t + 1] for t in range(len(prefix) - 1)):
            raise SchemaError(f"{eptr}/0", "leading arguments must strictly increase")
        b = _read_index(entry[1], f"{eptr}/1", carrier_dim)
        k = basis.position(prefix, last) * carrier_dim + b
        if k in coords:
            raise SchemaError(eptr, "duplicate entry")
        coords[k] = _read_fraction(entry[2], f"{eptr}/2")
    return tuple(sorted((k, x) for k, x in coords.items() if x))


def _ser_tensor(t: Tensor3) -> list:
    return [[i + 1, j + 1, k + 1, str(value)] for i, j, k, value in t.entries()]


def _ser_matrix(m: MatrixQ) -> list:
    return [[i + 1, j + 1, str(value)] for i, row in enumerate(m.nonzeros) for j, value in row]


def _cochain_entries(f: Cochain) -> list:
    """Nonzero entries of f in the document format: [[args...], component, value]."""
    return [
        [[t + 1 for t in args], b + 1, str(x)] for args, value in f.nonzero_values() for b, x in value
    ]


# field type -> (reader, writer); a labels field is the one optional field
_CODECS = {
    "int": (_read_int, int),
    "arity": (lambda obj, ptr: _read_int(obj, ptr, minimum=1), int),
    "tensor": (_read_tensor, _ser_tensor),
    "matrix": (_read_matrix, _ser_matrix),
    "labels": (_read_labels, list),
    "entries": (_read_cochain_entries, _cochain_entries),
}


# --- the kinds ----------------------------------------------------------------


def _crossed_module(m, n, mu, left, right) -> CrossedModule:
    return CrossedModule(AlgebraMorphism(m, n, mu), ActionData(n, m, left, right))


def _crossed_module_parts(x: CrossedModule) -> dict:
    a = x.action
    return {
        "m": x.m_algebra, "n": x.n_algebra, "mu": x.mu.matrix, "left": a.left, "right": a.right,
    }


def _extension(g, v_dim, v_left, v_right, m, n, i, mu, pi, left, right) -> CrossedModuleExtension:
    return CrossedModuleExtension(
        Representation(g, v_dim, v_left, v_right),
        i,
        AlgebraMorphism(m, n, mu),
        AlgebraMorphism(n, g, pi),
        ActionData(n, m, left, right),
    )


def _extension_parts(e: CrossedModuleExtension) -> dict:
    v = e.v_rep
    return {
        **_crossed_module_parts(e.crossed_module()),
        "g": e.g_algebra, "v_dim": v.carrier_dim, "v_left": v.left, "v_right": v.right,
        "i": e.i, "pi": e.pi.matrix,
    }


def _cochain(arity, algebra_dim, carrier_dim, entries) -> Cochain:
    return Cochain(arity, algebra_dim, carrier_dim, entries)


def _cochain_parts(f: Cochain) -> dict:
    return {
        "arity": f.arity, "algebra_dim": f.algebra_dim, "carrier_dim": f.carrier_dim, "entries": f,
    }


# kind -> (make, fields[, parts]), one entry per document kind. fields are
# (name, type, *dims) in document order; a type is a key of _CODECS or a
# kind, read as a nested object. Each dim names an earlier field: an int
# field stands for itself, a nested structure for its .dim. make takes the
# fields as keywords; parts returns them from a payload, whose own
# attributes supply them otherwise. "dendriform" is only ever nested.
_CUBE = ("dim", "dim", "dim")
_TABLE = {
    "prelie": (PreLieAlgebra, (
        ("dim", "int"), ("product", "tensor", *_CUBE), ("labels", "labels", "dim"),
    )),
    "lie": (LieAlgebra, (("dim", "int"), ("bracket", "tensor", *_CUBE))),
    "dendriform": (DendriformAlgebra, (
        ("dim", "int"), ("succ", "tensor", *_CUBE), ("prec", "tensor", *_CUBE),
    )),
    "representation": (Representation, (
        ("algebra", "prelie"),
        ("carrier_dim", "int"),
        ("left", "tensor", "algebra", "carrier_dim", "carrier_dim"),
        ("right", "tensor", "carrier_dim", "algebra", "carrier_dim"),
    )),
    "crossed_module": (_crossed_module, (
        ("m", "prelie"),
        ("n", "prelie"),
        ("mu", "matrix", "n", "m"),
        ("left", "tensor", "n", "m", "m"),
        ("right", "tensor", "m", "n", "m"),
    ), _crossed_module_parts),
    "extension": (_extension, (
        ("g", "prelie"),
        ("v_dim", "int"),
        ("v_left", "tensor", "g", "v_dim", "v_dim"),
        ("v_right", "tensor", "v_dim", "g", "v_dim"),
        ("m", "prelie"),
        ("n", "prelie"),
        ("i", "matrix", "m", "v_dim"),
        ("mu", "matrix", "n", "m"),
        ("pi", "matrix", "g", "n"),
        ("left", "tensor", "n", "m", "m"),
        ("right", "tensor", "m", "n", "m"),
    ), _extension_parts),
    "rblie_xmod": (RotaBaxterLieCrossedModule, (
        ("m", "lie"),
        ("n", "lie"),
        ("t_m", "matrix", "m", "m"),
        ("t_n", "matrix", "n", "n"),
        ("mu", "matrix", "n", "m"),
        ("rho", "tensor", "n", "m", "m"),
    )),
    "dendriform_xmod": (DendriformCrossedModule, (
        ("m", "dendriform"),
        ("n", "dendriform"),
        ("mu", "matrix", "n", "m"),
        ("succ_nm", "tensor", "n", "m", "m"),
        ("prec_mn", "tensor", "m", "n", "m"),
        ("succ_mn", "tensor", "m", "n", "m"),
        ("prec_nm", "tensor", "n", "m", "m"),
    )),
    "cochain": (_cochain, (
        ("arity", "arity"),
        ("algebra_dim", "int"),
        ("carrier_dim", "int"),
        ("entries", "entries", "arity", "algebra_dim", "carrier_dim"),
    ), _cochain_parts),
    "lie_xmod": (LieCrossedModule, (
        ("m", "lie"),
        ("n", "lie"),
        ("mu", "matrix", "n", "m"),
        ("action", "tensor", "n", "m", "m"),
    )),
}


def _read(kind: str, obj, ptr: str):
    make, fields = _TABLE[kind][:2]
    if not isinstance(obj, dict):
        raise SchemaError(ptr or "/", "expected an object")
    for name, type_, *_ in fields:
        if name not in obj and type_ != "labels":
            raise SchemaError(ptr or "/", f"missing field {name!r}")
    names = [field[0] for field in fields]
    for key in obj:
        if key not in names:
            raise SchemaError(f"{ptr}/{key}", "unknown field")
    values = {}
    for name, type_, *dims in fields:
        if name in obj:
            sizes = [v if isinstance(v, int) else v.dim for v in map(values.get, dims)]
            fptr = f"{ptr}/{name}"
            if type_ in _CODECS:
                values[name] = _CODECS[type_][0](obj[name], fptr, *sizes)
            else:
                values[name] = _read(type_, obj[name], fptr)
    return make(**values)


def _write(kind: str, payload) -> dict:
    _, fields, *parts = _TABLE[kind]
    values = parts[0](payload) if parts else vars(payload)
    out = {}
    for name, type_, *_ in fields:
        value = values[name]
        if value is not None:
            out[name] = _CODECS[type_][1](value) if type_ in _CODECS else _write(type_, value)
    return out


def document_from_obj(obj) -> DocumentModel:
    if not isinstance(obj, dict):
        raise SchemaError("/", "expected a JSON object")
    if "kind" not in obj:
        raise SchemaError("/", "missing field 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise SchemaError("/kind", "expected a string")
    if kind not in KINDS:
        raise SchemaError("/kind", f"unknown kind {kind!r}")
    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaError("/format_version", f"unsupported version {version!r}")
    body = {k: v for k, v in obj.items() if k not in ("kind", "format_version")}
    return DocumentModel(kind, _read(kind, body, ""), FORMAT_VERSION)


def parse_document(path: str) -> DocumentModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return document_from_obj(obj)


# --- serialization ------------------------------------------------------------


def document_to_obj(model: DocumentModel) -> dict:
    obj = {"kind": model.kind, "format_version": model.format_version}
    obj.update(_write(model.kind, model.payload))
    return obj


def dumps_pretty(obj, indent: int = 2, width: int = 72) -> str:
    """json.dumps with two-space indent, except that any container whose
    compact form fits in `width` columns stays on one line. Deterministic,
    so fixture files and golden outputs are byte-stable."""

    def render(node, depth: int) -> str:
        compact = json.dumps(node, separators=(", ", ": "))
        if len(compact) + depth * indent <= width:
            return compact
        pad = " " * ((depth + 1) * indent)
        close = " " * (depth * indent)
        if isinstance(node, dict) and node:
            body = ",\n".join(
                f"{pad}{json.dumps(key)}: {render(value, depth + 1)}"
                for key, value in node.items()
            )
            return "{\n" + body + "\n" + close + "}"
        if isinstance(node, list) and node:
            body = ",\n".join(f"{pad}{render(value, depth + 1)}" for value in node)
            return "[\n" + body + "\n" + close + "]"
        return compact

    return render(obj, 0) + "\n"


def serialize_document(model: DocumentModel) -> str:
    return dumps_pretty(document_to_obj(model))


def check_prelie_representation(rep: Representation) -> Violation | None:
    """The algebra's pre-Lie identity, then the representation axioms."""
    return check_prelie(rep.algebra) or check_representation(rep)


_VERIFIERS = {
    "prelie": check_prelie,
    "lie": check_lie,
    "representation": check_prelie_representation,
    "crossed_module": check_crossed_module,
    "extension": check_extension,
    "rblie_xmod": check_rb_lie_xmod,
    "dendriform_xmod": check_dendriform_xmod,
    "lie_xmod": check_lie_crossed_module,
}


def verify_document(model: DocumentModel) -> Violation | None:
    """Run the axiom verifier matching the document's kind.

    Cochain documents carry no axioms of their own (closedness is a
    statement relative to a representation), so they always verify.
    """
    checker = _VERIFIERS.get(model.kind)
    if checker is None:
        return None
    return checker(model.payload)


def write_document(model: DocumentModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_document(model))
