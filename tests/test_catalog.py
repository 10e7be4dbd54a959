"""The shipped catalog certifies itself.

The JSON files under the package's fixtures/ directory must be exactly
what the catalog builders serialize to (no drift), every fixture must
parse back to its builder, and each validity expectation in the
manifest must be what the verifiers actually report.
"""

from pathlib import Path

import pytest

from preliecoh.algebra import check_prelie, check_representation
from preliecoh.catalog import (
    ALGEBRAS,
    BAD_ALGEBRA,
    FixtureSpec,
    dendr_action_mismatch,
    equivalence_witnesses,
    extensions,
    fixture_documents,
    fixture_path,
    fixture_specs,
    fixtures_dir,
    load_fixture,
    manifest_obj,
    rb_rho_mismatch,
    representation_pairs,
)
from preliecoh.cochain import are_cohomologous, coboundary
from preliecoh.documents import (
    DocumentModel,
    dumps_pretty,
    serialize_document,
    verify_document,
)
from preliecoh.errors import NotACocycle, OutputCheckFailed
from preliecoh.functors import dendriform_to_prelie_xmod, rblie_to_prelie_xmod
from preliecoh.xmodules import check_equivalence_witness, check_extension


def test_fixture_files_match_their_builders():
    names = set()
    for spec in fixture_specs():
        expected = serialize_document(DocumentModel(spec.kind, spec.payload))
        on_disk = Path(fixture_path(spec.name)).read_text(encoding="utf-8")
        assert on_disk == expected, f"{spec.name}.json drifted from the catalog"
        names.add(f"{spec.name}.json")
    manifest = (fixtures_dir() / "manifest.json").read_text(encoding="utf-8")
    assert manifest == dumps_pretty(manifest_obj())
    shipped = {p.name for p in fixtures_dir().glob("*.json")}
    assert shipped == names | {"manifest.json"}


def test_every_fixture_parses_back_to_its_builder():
    docs = fixture_documents()
    for name, model in docs.items():
        assert load_fixture(name) == model, name


def test_manifest_expectations_hold():
    for spec in fixture_specs():
        outcome = verify_document(DocumentModel(spec.kind, spec.payload))
        if spec.valid:
            assert outcome is None, f"{spec.name}: unexpected {outcome}"
        else:
            assert outcome is not None, f"{spec.name}: expected a violation"
            assert outcome.axiom == spec.violation, spec.name


def test_catalog_algebras_and_pairs_are_valid():
    for name, algebra in ALGEBRAS.items():
        assert check_prelie(algebra) is None, name
    for label, rep in representation_pairs():
        assert check_representation(rep) is None, label
    bad = check_prelie(BAD_ALGEBRA)
    assert bad is not None and bad.indices == (0, 1, 0)


def test_catalog_extensions_and_witnesses_pass():
    for name, e in extensions().items():
        assert check_extension(e) is None, name
    for name, w in equivalence_witnesses():
        assert check_equivalence_witness(w) is None, name


def test_cochain_fixtures_pin_the_expected_classes():
    rep = load_fixture("rep_lmult2_trivial1").payload
    z_class = load_fixture("cochain2_class").payload
    z_shift = load_fixture("cochain2_shifted").payload
    z_zero = load_fixture("cochain2_zero").payload
    z_open = load_fixture("cochain2_nonclosed").payload
    assert coboundary(rep, z_class).is_zero()
    assert not coboundary(rep, z_open).is_zero()
    h = are_cohomologous(rep, z_class, z_shift)
    assert h is not None
    assert coboundary(rep, h).add(z_shift) == z_class
    assert are_cohomologous(rep, z_class, z_zero) is None
    with pytest.raises(NotACocycle):
        are_cohomologous(rep, z_open, z_zero)


def test_mismatch_fixtures_fail_only_at_output_certification():
    with pytest.raises(OutputCheckFailed):
        rblie_to_prelie_xmod(rb_rho_mismatch())
    with pytest.raises(OutputCheckFailed):
        dendriform_to_prelie_xmod(dendr_action_mismatch())


def test_fixture_spec_is_hashable_registry():
    specs = fixture_specs()
    assert len({s.name for s in specs}) == len(specs)
    assert all(isinstance(s, FixtureSpec) for s in specs)
