"""Command-line interface: golden transcripts and the exit-code contract.

Golden files live in tests/golden/ and are compared byte for byte.
Regenerate after an intentional output change with:

    python -m tests.test_cli --regenerate
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preliecoh import cli
from preliecoh.algebra import Representation, check_prelie
from preliecoh.catalog import BAD_ALGEBRA, fixture_path, fixture_specs, representation_pairs
from preliecoh.cli import main
from preliecoh.documents import DocumentModel, serialize_document, verify_document
from preliecoh.xmodules import double_extension

from test_cochain import nonclosed_unit

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fx(name: str) -> str:
    return str(fixture_path(name))


# name -> (expected exit code, argv)
GOLDEN_CASES: dict[str, tuple[int, tuple[str, ...]]] = {
    "validate_lmult2": (0, ("validate", fx("lmult2"))),
    "validate_bad2": (2, ("validate", fx("bad2"))),
    "validate_ext_dbl": (0, ("validate", fx("ext_dbl"))),
    "validate_rb_bad_t": (2, ("validate", fx("rb_bad_t"))),
    "validate_cochain": (0, ("validate", fx("cochain2_class"))),
    "validate_bad2_json": (2, ("validate", fx("bad2"), "--json")),
    "cohomology_abelian2_trivial1": (
        0,
        ("cohomology", fx("rep_abelian2_trivial1"), "--n", "3"),
    ),
    "cohomology_idem1_regular_n1": (
        0,
        ("cohomology", fx("rep_idem1_regular"), "--n", "1"),
    ),
    "cohomology_lmult2_trivial1_full": (
        0,
        (
            "cohomology",
            fx("rep_lmult2_trivial1"),
            "--n",
            "3",
            "--phi",
            "--verify",
            "--representatives",
        ),
    ),
    "cohomology_lmult2_trivial1_json": (
        0,
        (
            "cohomology",
            fx("rep_lmult2_trivial1"),
            "--n",
            "2",
            "--phi",
            "--representatives",
            "--json",
        ),
    ),
    "tmap_ext_triv": (0, ("tmap", fx("ext_triv"))),
    "tmap_ext_dbl": (0, ("tmap", fx("ext_dbl"))),
    "tmap_ext_dbl_regular_seed7": (
        0,
        ("tmap", fx("ext_dbl_regular"), "--sections", "random", "--seed", "7"),
    ),
    "tmap_ext_triv_json": (0, ("tmap", fx("ext_triv"), "--json")),
    "convert_xmod_identity_lmult2": (0, ("convert", fx("xmod_identity_lmult2"))),
    "convert_rb_proj": (0, ("convert", fx("rb_proj"), "--from", "rblie")),
    "convert_dendr_idem1": (0, ("convert", fx("dendr_idem1"))),
    "trees_degree1": (0, ("trees", "--labels", "1", "--degree", "1")),
    "trees_degree3": (0, ("trees", "--labels", "1", "--degree", "3")),
    "trees_two_labels_degree2": (0, ("trees", "--labels", "2", "--degree", "2")),
    "trees_product": (0, ("trees", "--product", "a", "b(c)")),
    "trees_product_json": (0, ("trees", "--product", "a", "b(c)", "--json")),
    "cohomologous_yes": (
        0,
        (
            "cohomologous",
            fx("rep_lmult2_trivial1"),
            fx("cochain2_class"),
            fx("cochain2_shifted"),
        ),
    ),
    "cohomologous_no": (
        2,
        (
            "cohomologous",
            fx("rep_lmult2_trivial1"),
            fx("cochain2_class"),
            fx("cochain2_zero"),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_transcript(name: str) -> None:
    expected_code, argv = GOLDEN_CASES[name]
    code, out, err = run_cli(*argv)
    assert code == expected_code, err
    golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert out.encode("utf-8") == golden


def test_goldens_have_no_strays() -> None:
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == set(GOLDEN_CASES)


def test_json_outputs_parse() -> None:
    for name, (_, argv) in GOLDEN_CASES.items():
        if "--json" in argv:
            _, out, _ = run_cli(*argv)
            obj = json.loads(out)
            assert obj["command"] == argv[0]


def test_convert_output_validates_and_is_stable(tmp_path: Path) -> None:
    for name in ("xmod_identity_lmult2", "rb_proj", "dendr_idem1"):
        code, out, _ = run_cli("convert", fx(name))
        assert code == 0
        path = tmp_path / "converted.json"
        path.write_text(out, encoding="utf-8")
        code2, out2, err2 = run_cli("validate", str(path))
        assert code2 == 0, err2
        assert "result: valid" in out2


# --- exit-code contract ---------------------------------------------------------


def test_missing_file_is_an_input_error() -> None:
    code, out, err = run_cli("validate", "/no/such/file.json")
    assert code == 1 and out == "" and "cannot read" in err


def test_malformed_json_is_an_input_error(tmp_path: Path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli("validate", str(bad))
    assert code == 1 and "not valid JSON" in err


def test_schema_violation_is_an_input_error(tmp_path: Path) -> None:
    doc = tmp_path / "doc.json"
    doc.write_text('{"kind": "prelie", "dim": 1, "product": [[1, 1, 9, "1"]]}')
    code, _, err = run_cli("validate", str(doc))
    assert code == 1 and "/product/0/2" in err


@pytest.mark.parametrize(
    "kind", ['["prelie"]', '{"name": "prelie"}', "1"], ids=["list", "object", "number"]
)
def test_non_string_kind_is_an_input_error(tmp_path: Path, kind: str) -> None:
    doc = tmp_path / "doc.json"
    doc.write_text(f'{{"kind": {kind}, "dim": 1, "product": []}}')
    code, out, err = run_cli("validate", str(doc))
    assert (code, out) == (1, "")
    assert err == "error: /kind: expected a string\n"
    assert "Traceback" not in err


def test_validate_large_zero_product(tmp_path: Path) -> None:
    # 45 bytes that describe 40^3 zero structure constants; the checkers
    # visit only nonzero ones (the dense checks took about 15 s and, for
    # the dim-24 bracket, 1.8 s), and skip index tuples whose coefficient
    # rows are all empty (a zero dim-200 product took 11-15 s before).
    # A tensor stores its nonzero index pairs only, so dim 100000 reads
    # and checks as fast (one row slot per pair ended in MemoryError)
    doc = tmp_path / "doc.json"
    for text in (
        '{"kind": "prelie", "dim": 40, "product": []}',
        '{"kind": "lie", "dim": 24, "bracket": []}',
        '{"kind": "prelie", "dim": 200, "product": []}',
        '{"kind": "prelie", "dim": 100000, "product": []}',
        '{"kind": "lie", "dim": 100000, "bracket": []}',
    ):
        doc.write_text(text)
        code, out, err = run_cli("validate", str(doc))
        assert (code, err) == (0, "")
        assert "result: valid" in out.splitlines()


def test_validate_wide_cochain_within_500_mb(tmp_path: Path) -> None:
    # one entry of an arity-3 cochain over dim 2000, whose coordinate
    # space has C(2000, 2) * 2000 ~ 4 * 10^9 positions; reading it used to
    # fill a dense table and end in MemoryError. The address-space limit
    # is set in the child process only.
    pytest.importorskip("resource")
    doc = tmp_path / "cochain.json"
    doc.write_text(json.dumps({
        "kind": "cochain", "arity": 3, "algebra_dim": 2000, "carrier_dim": 1,
        "entries": [[[1, 2, 2000], 1, "1/2"]],
    }))
    limit = 500 * 10**6
    child = (
        f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "from preliecoh.cli import main; sys.exit(main(['validate', sys.argv[1]]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", child, str(doc)], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, ""), run.stderr[-2000:]
    assert "kind: cochain" in run.stdout.splitlines()


def test_tmap_reports_a_non_closed_theta(monkeypatch, tmp_path: Path) -> None:
    # cmd_tmap checks d(theta) = 0 on the complex's d_3; hand it a theta
    # with a nonzero coboundary
    rep = dict(representation_pairs())["affine3/trivial1"]
    doc = tmp_path / "ext.json"
    doc.write_text(serialize_document(DocumentModel("extension", double_extension(rep))))
    unit = nonclosed_unit(rep, 3)
    realized = cli.t_map

    def nonclosed_t_map(e, **kwargs):
        result = realized(e, **kwargs)
        return dataclasses.replace(result, theta=result.theta.add(unit))

    monkeypatch.setattr(cli, "t_map", nonclosed_t_map)
    code, out, err = run_cli("tmap", str(doc))
    assert (code, err) == (2, "")
    assert "d(theta) = 0: FAIL" in out.splitlines()
    assert "mu kills theta: PASS" in out.splitlines()
    code, out, _ = run_cli("tmap", str(doc), "--json")
    assert code == 2 and json.loads(out)["d_theta_zero"] is False


def test_wrong_document_kind_is_an_input_error() -> None:
    code, _, err = run_cli("cohomology", fx("lmult2"))
    assert code == 1 and "expected a representation document" in err


def test_wrong_document_kind_error_reads_an_before_a_vowel() -> None:
    code, _, err = run_cli("tmap", fx("rep_lmult2_regular"))
    assert code == 1 and "expected an extension document, got representation" in err


def test_whole_map_violation_names_no_indices() -> None:
    code, out, _ = run_cli("validate", fx("ext_bad_pi"))
    assert code == 2 and out.splitlines()[-1] == "violation: pi-surjective fails"


def test_invalid_representation_exits_two() -> None:
    code, _, err = run_cli("tmap", fx("ext_bad_pi"))
    assert code == 2 and "pi-surjective" in err


def test_validate_checks_the_algebra_of_a_representation(tmp_path: Path) -> None:
    """validate and cohomology give a representation over a non-pre-Lie
    algebra the same verdict: the algebra's left-symmetry violation."""
    doc = DocumentModel("representation", Representation.trivial(BAD_ALGEBRA, 1))
    path = tmp_path / "bad_rep.json"
    path.write_text(serialize_document(doc))
    assert json.loads(path.read_text()) == {
        "kind": "representation",
        "format_version": "1",
        "algebra": {"dim": 2, "product": [[1, 1, 2, "1"], [2, 1, 1, "1"]]},
        "carrier_dim": 1,
        "left": [],
        "right": [],
    }
    assert verify_document(doc) == check_prelie(BAD_ALGEBRA) is not None
    code, out, _ = run_cli("validate", str(path))
    assert code == 2
    code, _, err = run_cli("cohomology", str(path))
    assert code == 2
    assert out.splitlines()[-1] == "violation: " + err.removeprefix("error: ").rstrip("\n")


def test_conversion_source_failure_exits_two() -> None:
    code, _, err = run_cli("convert", fx("xmod_bad_peiffer"))
    assert code == 2 and "peiffer-left" in err


def test_output_certification_failures_exit_three() -> None:
    for name in ("rb_rho_mismatch", "dendr_action_mismatch"):
        code, out, err = run_cli("convert", fx(name))
        assert code == 3, name
        assert out == ""
        assert "mixed-identity" in err


def test_from_flag_must_match_document() -> None:
    code, _, err = run_cli("convert", fx("rb_proj"), "--from", "dendriform")
    assert code == 1 and "does not match" in err


def test_trees_bad_arguments_exit_one() -> None:
    for argv in (
        ("trees",),
        ("trees", "--labels", "0", "--degree", "2"),
        ("trees", "--labels", "1", "--degree", "0"),
        ("trees", "--product", "a", "b(c"),
    ):
        code, _, err = run_cli(*argv)
        assert code == 1, argv
        assert err.startswith("error:")


def test_trees_nesting_too_deep_exits_one() -> None:
    deep = "a(" * 3000 + "a" + ")" * 3000
    code, out, err = run_cli("trees", "--product", "a", deep)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nesting deeper than" in err
    assert err.count("\n") == 1


def test_cohomology_verify_phi_builds_each_differential_once(monkeypatch) -> None:
    import preliecoh.cochain as cochain

    built = []
    original = cochain.coboundary_matrix

    def counting(rep, n):
        built.append(n)
        return original(rep, n)

    monkeypatch.setattr(cochain, "coboundary_matrix", counting)
    code, _, _ = run_cli("cohomology", fx("rep_lmult2_regular"), "--n", "3", "--verify", "--phi")
    assert code == 0
    assert sorted(built) == [1, 2, 3, 4]


def test_tmap_random_sections_builds_d3_once(monkeypatch) -> None:
    import preliecoh.cochain as cochain

    built, references = [], []
    original = cochain.coboundary_matrix

    def counting(rep, n):
        built.append(n)
        return original(rep, n)

    monkeypatch.setattr(cochain, "coboundary_matrix", counting)
    monkeypatch.setattr(cochain, "coboundary", lambda rep, f: references.append(f))
    code, out, _ = run_cli("tmap", fx("ext_dbl_regular"), "--sections", "random", "--seed", "7")
    assert code == 0
    assert "difference is a coboundary: PASS" in out
    assert built.count(3) == 1
    # are_cohomologous tests closedness with the complex's d_3
    assert references == []


def test_cohomologous_no_eliminates_each_differential_once(monkeypatch) -> None:
    """In the no case, solve_particular eliminates d_1 and cohomology
    eliminates d_2; the classification reads d_1 without eliminating it."""
    import preliecoh.cochain as cochain
    import preliecoh.linalg as linalg

    built, passes, kernels = {}, [], []
    build, echelon, kernel_image = cochain.coboundary_matrix, linalg._echelon, cochain.rank_kernel_image

    def counting_build(rep, n):
        built[n] = build(rep, n)
        return built[n]

    def counting_echelon(rows):
        rows = list(rows)
        passes.append(rows)
        return echelon(rows)

    monkeypatch.setattr(cochain, "coboundary_matrix", counting_build)
    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(cochain, "rank_kernel_image", lambda m: kernels.append(m) or kernel_image(m))
    expected_code, argv = GOLDEN_CASES["cohomologous_no"]
    code, out, _ = run_cli(*argv)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN_DIR / "cohomologous_no.txt").read_bytes()
    d1 = built[1]

    def on_d1(rows):
        # solve_particular augments some integer rows of d_1 with the
        # right-hand side, at column d1.cols; Fraction rows enter scaled, as dicts
        rows = [tuple(row.items()) if isinstance(row, dict) else row for row in rows]
        return [tuple((c, x) for c, x in row if c < d1.cols) for row in rows] == list(d1.integer[1])

    assert sum(map(on_d1, passes)) == 1
    assert kernels == [built[2]]


def test_cohomology_phi_builds_and_ranks_each_lie_matrix_once(monkeypatch) -> None:
    import preliecoh.cochain as cochain

    built, ranked = [], []
    build, rank = cochain.lie_coboundary_matrix, cochain.rank_of

    def counting_build(mod, k):
        m = build(mod, k)
        built.append((k, m))
        return m

    def counting_rank(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(cochain, "lie_coboundary_matrix", counting_build)
    monkeypatch.setattr(cochain, "rank_of", counting_rank)
    code, _, _ = run_cli("cohomology", fx("rep_lmult2_regular"), "--n", "3", "--phi")
    assert code == 0
    assert sorted(k for k, _ in built) == [0, 1, 2]
    # the pre-Lie d_n have the shapes of these matrices, so match by identity
    assert [sum(r is m for r in ranked) for _, m in built] == [1, 1, 1]


def test_cohomology_dims_come_from_ranks_alone(monkeypatch) -> None:
    import preliecoh.cochain as cochain
    import preliecoh.linalg as linalg

    kernel_work, built, ranked, spaces = [], [], [], []

    def counting(name, fn):
        def counted(*args, **kwargs):
            kernel_work.append(name)
            return fn(*args, **kwargs)

        return counted

    build, rank, space = cochain.coboundary_matrix, cochain.rank_of, cli.cohomology

    def counting_build(rep, n):
        m = build(rep, n)
        built.append((n, m))
        return m

    def counting_rank(m):
        ranked.append(m)
        return rank(m)

    def counting_space(cx, n):
        spaces.append(n)
        return space(cx, n)

    monkeypatch.setattr(cochain, "rank_kernel_image", counting("rank_kernel_image", cochain.rank_kernel_image))
    monkeypatch.setattr(
        linalg.QuotientMap, "build", staticmethod(counting("QuotientMap.build", linalg.QuotientMap.build))
    )
    monkeypatch.setattr(cochain, "coboundary_matrix", counting_build)
    monkeypatch.setattr(cochain, "rank_of", counting_rank)
    monkeypatch.setattr(cli, "cohomology", counting_space)
    code, out, _ = run_cli("cohomology", fx("rep_lmult2_regular"), "--n", "3")
    assert code == 0 and "H^3: dim" in out
    assert kernel_work == [] and spaces == []
    assert sorted(n for n, _ in built) == [1, 2, 3]
    assert [sum(r is m for r in ranked) for _, m in built] == [1, 1, 1]
    assert len(ranked) == 3

    code, with_reps, _ = run_cli("cohomology", fx("rep_lmult2_regular"), "--n", "3", "--representatives")
    assert code == 0 and "representative 1:" in with_reps
    assert spaces == [1, 2, 3]
    assert {"rank_kernel_image", "QuotientMap.build"} <= set(kernel_work)
    assert [line for line in with_reps.splitlines() if line.startswith("H^")] == out.splitlines()[2:]


def test_out_of_memory_is_a_one_line_input_error(monkeypatch) -> None:
    import preliecoh.cochain as cochain

    def exhausted(rep, n):
        raise MemoryError

    monkeypatch.setattr(cochain, "coboundary_matrix", exhausted)
    code, out, err = run_cli("cohomology", fx("rep_lmult2_regular"), "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_cli_import_freezes_the_loaded_modules() -> None:
    # a fresh interpreter: the package's functions are in the collector's
    # permanent generation, so full collections skip them
    child = (
        "import gc, sys, preliecoh.cli as cli; "
        "sys.exit(0 if gc.get_freeze_count() and all(o is not cli.main for o in gc.get_objects()) else 1)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stderr) == (0, ""), run.stderr[-2000:]

def test_cohomology_rejects_nonpositive_n() -> None:
    code, _, err = run_cli("cohomology", fx("rep_lmult2_trivial1"), "--n", "0")
    assert code == 1 and "--n" in err


def test_cohomologous_dimension_mismatch_exits_one() -> None:
    code, _, err = run_cli(
        "cohomologous", fx("rep_idem1_regular"), fx("cochain2_class"), fx("cochain2_zero")
    )
    assert code == 1 and "do not match" in err


def test_cohomologous_nonclosed_exits_two() -> None:
    code, _, err = run_cli(
        "cohomologous",
        fx("rep_lmult2_trivial1"),
        fx("cochain2_class"),
        fx("cochain2_nonclosed"),
    )
    assert code == 2 and "closed" in err


def test_cohomologous_rational_nonclosed_exits_two_with_one_line(tmp_path: Path) -> None:
    doc = {
        "kind": "cochain",
        "format_version": "1",
        "arity": 2,
        "algebra_dim": 2,
        "carrier_dim": 1,
        "entries": [[[2, 1], 1, "-2/5"], [[1, 2], 1, "1/3"]],
    }
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("cohomologous", fx("rep_lmult2_trivial1"), fx("cochain2_class"), str(path))
    assert (code, out, err) == (2, "", "error: inputs must be closed\n")


def test_no_subcommand_is_a_usage_error() -> None:
    code, _, err = run_cli()
    assert code == 1 and err.startswith("error:")


def test_seed_is_a_tmap_option_only() -> None:
    code, out, err = run_cli("validate", fx("lmult2"), "--seed", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


# two different subcommands and usage errors of each, run back to back
SHARED_PARSER_RUNS = (
    ("tmap", fx("ext_dbl")),
    ("validate", fx("lmult2"), "--json"),
    ("tmap", fx("ext_dbl"), "--sections", "sideways"),
    ("validate",),
    ("cohomology", fx("rep_abelian2_trivial1"), "--n", "2"),
    ("validate", fx("bad2")),
    ("cohomology", fx("rep_abelian2_trivial1"), "--n"),
    ("tmap", fx("ext_dbl"), "--seed", "3"),
)


def test_main_reuses_one_parser_with_fresh_parser_results(monkeypatch) -> None:
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli(*argv) for argv in SHARED_PARSER_RUNS]
    # the same runs, each on a parser built for it alone
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(*argv) for argv in SHARED_PARSER_RUNS]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 1, 0, 2, 1, 0]


# --- validate on mutated fixtures ---------------------------------------------

# integer fields that size a document; they are never mutated
SIZES = ("dim", "carrier_dim", "v_dim", "algebra_dim", "arity")


def _entry_lists(doc: dict) -> list[list]:
    """Every tensor, matrix and cochain entry list of doc, nested ones too."""
    out = []
    for key, value in doc.items():
        if isinstance(value, dict):
            out.extend(_entry_lists(value))
        elif isinstance(value, list) and key != "labels":
            out.append(value)
    return out


def _sizes(doc: dict) -> list[int]:
    nested = [n for v in doc.values() if isinstance(v, dict) for n in _sizes(v)]
    return nested + [doc[k] for k in SIZES if k in doc]


def _small_fixtures() -> list[dict]:
    docs = [json.loads(Path(fixture_path(spec.name)).read_text()) for spec in fixture_specs()]
    return [doc for doc in docs if max(_sizes(doc)) <= 4 and _entry_lists(doc)]


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.sampled_from(["1/2", "-3/4", "+2", "1e3", "0.5", "1/0", "x", "", " 1", "1/-2", "1_0"]),
    st.text(max_size=6),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 5), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_small_fixtures()), st.data())
def test_validate_survives_mutated_fixtures(tmp_path_factory, doc, data) -> None:
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        entries = data.draw(st.sampled_from(_entry_lists(doc)))
        op = data.draw(st.sampled_from(["set", "set", "drop", "copy", "append"]))
        if op == "append" or not entries:
            entries.append(data.draw(st.lists(SCALARS, max_size=5)))
            continue
        pos = data.draw(st.integers(0, len(entries) - 1))
        if op == "drop":
            del entries[pos]
        elif op == "copy":
            entries.append(json.loads(json.dumps(entries[pos])))
        elif isinstance(entries[pos], list) and entries[pos]:
            # an index or the value of one entry, or one cochain argument
            cell = entries[pos]
            t = data.draw(st.integers(0, len(cell) - 1))
            if isinstance(cell[t], list) and cell[t] and data.draw(st.booleans()):
                cell, t = cell[t], data.draw(st.integers(0, len(cell[t]) - 1))
            cell[t] = data.draw(SCALARS)
        else:
            entries[pos] = data.draw(SCALARS)
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("validate", str(path))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.txt"):
        stale.unlink()
    for name, (expected_code, argv) in GOLDEN_CASES.items():
        code, out, err = run_cli(*argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code} != {expected_code}: {err}")
        (GOLDEN_DIR / f"{name}.txt").write_bytes(out.encode("utf-8"))
        print(f"wrote {name}.txt ({len(out)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        raise SystemExit("usage: python -m tests.test_cli --regenerate")
