"""The JSON interchange layer.

Frozen examples pin the accepted syntax (1-based indices, "p/q"
scalars, sparse entries); a round-trip suite checks that
parse -> serialize -> parse is the identity for one payload of every
kind and that serialization is canonical (byte-stable).
"""

import json
import tracemalloc
from fractions import Fraction

import pytest

from preliecoh.algebra import PreLieAlgebra, Representation
from preliecoh.cochain import Cochain
from preliecoh.documents import (
    DocumentModel,
    document_from_obj,
    document_to_obj,
    parse_document,
    serialize_document,
    write_document,
)
from preliecoh.errors import ParseError, SchemaError
from preliecoh.functors import prelie_to_lie_xmod
from preliecoh.linalg import MatrixQ, vector
from preliecoh.xmodules import double_extension, identity_xmod, trivial_extension

from test_functors import (
    AFFINE2,
    LMULT2,
    SOLV2,
    identity_dendriform_xmod,
    rb_solv2,
    sparse_tensor,
    zero_dendriform,
)

F = Fraction


def test_accepts_minimal_idempotent_line():
    doc = document_from_obj(
        {"kind": "prelie", "format_version": "1", "dim": 1, "product": [[1, 1, 1, "1"]]}
    )
    assert doc.kind == "prelie"
    assert doc.payload.basis_product(0, 0) == vector([1])


def test_format_version_defaults_to_one():
    doc = document_from_obj({"kind": "prelie", "dim": 2, "product": []})
    assert doc.format_version == "1"
    assert doc.payload.product == PreLieAlgebra.zero_product(2).product


def test_integer_and_string_scalars_agree():
    a = document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, 2]]})
    b = document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, "2"]]})
    assert a == b
    c = document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, "-3/7"]]})
    assert c.payload.basis_product(0, 0) == (F(-3, 7),)


def test_zero_denominator_is_a_schema_error():
    with pytest.raises(SchemaError, match="^/product/0/3: zero denominator$"):
        document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, "1/0"]]})


@pytest.mark.parametrize("scalar", [True, 1.5, None, [1]])
def test_non_rational_scalars_rejected(scalar):
    with pytest.raises(SchemaError):
        document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, scalar]]})


def test_bad_rational_literal_points_at_the_entry():
    with pytest.raises(SchemaError) as info:
        document_from_obj({"kind": "prelie", "dim": 1, "product": [[1, 1, 1, "x"]]})
    assert info.value.path == "/product/0/3"


def test_out_of_range_index_rejected():
    with pytest.raises(SchemaError) as info:
        document_from_obj({"kind": "prelie", "dim": 2, "product": [[1, 3, 1, "1"]]})
    assert info.value.path == "/product/0/1"
    with pytest.raises(SchemaError):
        document_from_obj({"kind": "prelie", "dim": 2, "product": [[0, 1, 1, "1"]]})


def test_duplicate_entries_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        document_from_obj(
            {"kind": "prelie", "dim": 1, "product": [[1, 1, 1, "1"], [1, 1, 1, "2"]]}
        )


def test_unknown_kind_and_fields_rejected():
    with pytest.raises(SchemaError, match="unknown kind"):
        document_from_obj({"kind": "group", "dim": 1})
    with pytest.raises(SchemaError) as info:
        document_from_obj({"kind": "prelie", "dim": 1, "product": [], "extra": 1})
    assert info.value.path == "/extra"
    with pytest.raises(SchemaError, match="missing field"):
        document_from_obj({"kind": "prelie", "dim": 1})


def test_unsupported_format_version_rejected():
    with pytest.raises(SchemaError, match="unsupported version"):
        document_from_obj(
            {"kind": "prelie", "format_version": "2", "dim": 1, "product": []}
        )


def test_labels_survive_round_trip():
    named = PreLieAlgebra(2, LMULT2.product, ("x", "y"))
    model = DocumentModel("prelie", named)
    again = document_from_obj(json.loads(serialize_document(model)))
    assert again.payload.labels == ("x", "y")
    assert again == model


def test_cochain_entry_syntax():
    doc = document_from_obj(
        {
            "kind": "cochain",
            "arity": 3,
            "algebra_dim": 2,
            "carrier_dim": 2,
            "entries": [[[1, 2, 2], 1, "5/3"], [[1, 2, 1], 2, -1]],
        }
    )
    f = doc.payload
    assert f.value_at((0, 1, 1)) == (F(5, 3), F(0))
    assert f.value_at((0, 1, 0)) == (F(0), F(-1))
    # antisymmetry of the leading pair is applied on lookup
    assert f.value_at((1, 0, 1)) == (F(-5, 3), F(0))


def test_cochain_rejects_bad_argument_tuples():
    base = {"kind": "cochain", "arity": 3, "algebra_dim": 2, "carrier_dim": 1}
    with pytest.raises(SchemaError, match="strictly increase"):
        document_from_obj({**base, "entries": [[[2, 1, 1], 1, "1"]]})
    with pytest.raises(SchemaError, match="argument indices"):
        document_from_obj({**base, "entries": [[[1, 2], 1, "1"]]})
    with pytest.raises(SchemaError, match="duplicate"):
        document_from_obj(
            {**base, "entries": [[[1, 2, 1], 1, "1"], [[1, 2, 1], 1, "2"]]}
        )


def test_matrix_entries_must_be_triples():
    with pytest.raises(SchemaError, match="row, col, value"):
        document_from_obj(
            {
                "kind": "crossed_module",
                "m": {"dim": 1, "product": []},
                "n": {"dim": 1, "product": []},
                "mu": [[1, 1]],
                "left": [],
                "right": [],
            }
        )


def _sample_models():
    xm = identity_xmod(LMULT2)
    cochain = Cochain.from_coordinates(
        2, 2, 1, [F(1, 2), F(0), F(-3), F(7)]
    )
    return [
        DocumentModel("prelie", AFFINE2),
        DocumentModel("lie", SOLV2),
        DocumentModel("representation", Representation.regular(LMULT2)),
        DocumentModel("crossed_module", xm),
        DocumentModel("extension", trivial_extension(Representation.trivial(LMULT2, 1))),
        DocumentModel("extension", double_extension(Representation.regular(LMULT2))),
        DocumentModel("rblie_xmod", rb_solv2(MatrixQ.from_rows([[1, 0], [0, 0]]))),
        DocumentModel(
            "dendriform_xmod", identity_dendriform_xmod(zero_dendriform(2))
        ),
        DocumentModel("cochain", cochain),
        DocumentModel("lie_xmod", prelie_to_lie_xmod(xm)),
    ]


def test_round_trip_is_identity_for_every_kind():
    for model in _sample_models():
        text = serialize_document(model)
        again = document_from_obj(json.loads(text))
        assert again == model, model.kind
        assert serialize_document(again) == text, model.kind


def test_serialization_is_canonical():
    for model in _sample_models():
        obj = document_to_obj(model)
        assert obj["kind"] == model.kind
        assert obj["format_version"] == "1"
        assert serialize_document(model) == serialize_document(model)


def test_parse_document_reads_files(tmp_path):
    target = tmp_path / "algebra.json"
    model = DocumentModel("prelie", AFFINE2)
    write_document(model, str(target))
    assert parse_document(str(target)) == model


def test_parse_document_error_paths(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid JSON"):
        parse_document(str(bad))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        parse_document(str(binary))


def test_sparse_zero_entries_are_dropped_on_output():
    algebra = PreLieAlgebra(2, sparse_tensor(2, 2, 2, {(0, 1, 1): 1}))
    obj = document_to_obj(DocumentModel("prelie", algebra))
    assert obj["product"] == [[1, 2, 2, "1"]]


# --- error paths of every field -----------------------------------------------

# Every field of every kind in document order, as name:shape. A shape that
# names another entry is a nested object of that kind; labels are optional.
SCHEMA = {
    "prelie": "dim:int product:tensor labels:labels",
    "lie": "dim:int bracket:tensor",
    "dendriform": "dim:int succ:tensor prec:tensor",
    "representation": "algebra:prelie carrier_dim:int left:tensor right:tensor",
    "crossed_module": "m:prelie n:prelie mu:matrix left:tensor right:tensor",
    "extension": "g:prelie v_dim:int v_left:tensor v_right:tensor m:prelie n:prelie "
    "i:matrix mu:matrix pi:matrix left:tensor right:tensor",
    "rblie_xmod": "m:lie n:lie t_m:matrix t_n:matrix mu:matrix rho:tensor",
    "dendriform_xmod": "m:dendriform n:dendriform mu:matrix "
    "succ_nm:tensor prec_mn:tensor succ_mn:tensor prec_nm:tensor",
    "cochain": "arity:int algebra_dim:int carrier_dim:int entries:entries",
    "lie_xmod": "m:lie n:lie mu:matrix action:tensor",
}

# shape -> (replacement, pointer suffix, message fragment); every sample
# dimension is at least 1 and the sample cochain has arity 2.
CORRUPTIONS = {
    "int": [("x", "", "expected an integer")],
    "labels": [([7], "", "strings")],
    "tensor": [
        ([[1, 1, 1, "x"]], "/0/3", "not a rational literal"),
        ([[1, 1, 1, "1e3"]], "/0/3", "not a rational literal"),
        ([[1, 1, 1, "0.5"]], "/0/3", "not a rational literal"),
        ([[1, 1, 1, "1/0"]], "/0/3", "zero denominator"),
        ([[1, 99, 1, "1"]], "/0/1", "out of range"),
    ],
    "matrix": [
        ([[1, 1, "x"]], "/0/2", "not a rational literal"),
        ([[1, 1, "1e3"]], "/0/2", "not a rational literal"),
        ([[1, 1, "0.5"]], "/0/2", "not a rational literal"),
        ([[1, 1, "1/0"]], "/0/2", "zero denominator"),
        ([[1, 99, "1"]], "/0/1", "out of range"),
    ],
    "entries": [
        ([[[1, 1], 1, "x"]], "/0/2", "not a rational literal"),
        ([[[1, 1], 1, "1e3"]], "/0/2", "not a rational literal"),
        ([[[1, 1], 1, "0.5"]], "/0/2", "not a rational literal"),
        ([[[1, 1], 1, "1/0"]], "/0/2", "zero denominator"),
        ([[[1, 1], 99, "1"]], "/0/1", "out of range"),
    ],
}


def _fields(kind, ptr=""):
    """(pointer, shape) of every field of `kind`, nested ones included."""
    for spec in SCHEMA[kind].split():
        name, shape = spec.split(":")
        yield f"{ptr}/{name}", shape
        if shape in SCHEMA:
            yield from _fields(shape, f"{ptr}/{name}")


def _sample_doc(kind):
    models = {"prelie": DocumentModel("prelie", PreLieAlgebra(2, LMULT2.product, ("x", "y")))}
    for model in _sample_models():
        models.setdefault(model.kind, model)
    return document_to_obj(models[kind])


def _object_at(doc, ptr):
    for name in ptr.split("/")[1:]:
        doc = doc[name]
    return doc


def _schema_error(doc):
    with pytest.raises(SchemaError) as info:
        document_from_obj(doc)
    return info.value


TOP_KINDS = [kind for kind in SCHEMA if kind != "dendriform"]
FIELD_CASES = [(kind, ptr, shape) for kind in TOP_KINDS for ptr, shape in _fields(kind)]
OBJECT_CASES = [(kind, "") for kind in TOP_KINDS] + [
    (kind, ptr) for kind, ptr, shape in FIELD_CASES if shape in SCHEMA
]


def _pointers(obj, ptr=""):
    """JSON pointer of every field of a document body, nested ones included."""
    for name, value in obj.items():
        yield f"{ptr}/{name}"
        if isinstance(value, dict):
            yield from _pointers(value, f"{ptr}/{name}")


def test_samples_serialize_every_field_in_schema_order():
    for kind in TOP_KINDS:
        doc = _sample_doc(kind)
        body = {k: v for k, v in doc.items() if k not in ("kind", "format_version")}
        # only optional labels may be absent from a sample
        expected = [
            ptr for ptr, shape in _fields(kind)
            if shape != "labels" or ptr.rsplit("/", 1)[1] in _object_at(doc, ptr.rsplit("/", 1)[0])
        ]
        assert list(_pointers(body)) == expected, kind


@pytest.mark.parametrize(
    "kind, ptr, shape", FIELD_CASES, ids=[f"{k}{p}" for k, p, _ in FIELD_CASES]
)
def test_error_path_of_every_field(kind, ptr, shape):
    parent, name = ptr.rsplit("/", 1)
    doc = _sample_doc(kind)
    _object_at(doc, parent).pop(name, None)
    if shape == "labels":
        document_from_obj(doc)
    else:
        err = _schema_error(doc)
        assert (err.path, str(err)) == (parent or "/", f"{parent or '/'}: missing field {name!r}")
    corruptions = CORRUPTIONS.get(shape, [([], "", "expected an object")])
    for replacement, suffix, fragment in corruptions:
        doc = _sample_doc(kind)
        _object_at(doc, parent)[name] = replacement
        err = _schema_error(doc)
        assert err.path == ptr + suffix
        assert fragment in str(err)


@pytest.mark.parametrize("kind, ptr", OBJECT_CASES, ids=[f"{k}{p}" for k, p in OBJECT_CASES])
def test_unknown_field_in_every_object(kind, ptr):
    doc = _sample_doc(kind)
    _object_at(doc, ptr)["extra"] = 1
    err = _schema_error(doc)
    assert str(err) == f"{ptr}/extra: unknown field"


def test_first_missing_field_is_reported_in_document_order():
    for kind in TOP_KINDS:
        names = [spec.split(":")[0] for spec in SCHEMA[kind].split()]
        err = _schema_error({"kind": kind})
        assert str(err) == f"/: missing field {names[0]!r}"


def test_cochain_arity_must_be_positive():
    doc = _sample_doc("cochain")
    doc["arity"] = 0
    err = _schema_error(doc)
    assert str(err) == "/arity: must be at least 1"


def test_dendriform_is_not_a_top_level_kind():
    err = _schema_error({"kind": "dendriform", "dim": 1, "succ": [], "prec": []})
    assert str(err) == "/kind: unknown kind 'dendriform'"


def test_reading_a_zero_product_allocates_no_dense_cube():
    # the reader stores nonzeros only: no row at all for a zero index pair
    for dim in (120, 100000):
        tracemalloc.start()
        try:
            doc = document_from_obj({"kind": "prelie", "dim": dim, "product": []})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert doc.payload.product.is_zero()
        assert peak < 2_000_000, (dim, peak)
