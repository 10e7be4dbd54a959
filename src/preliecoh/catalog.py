"""Named example structures and the shipped fixture files.

Everything here is built from the library's own constructors, so the
catalog certifies itself: the test suite re-runs every verifier over
it, and the JSON fixtures under ``fixtures/`` are byte-for-byte the
serialization of these objects (``regenerate`` rewrites them).

Invalid entries are part of the catalog on purpose: they pin down the
witnesses the verifiers must produce and the nonzero exit codes of the
command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

from .algebra import (
    AlgebraMorphism,
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    sparse_tensor,
    zero_tensor3,
)
from .cochain import Cochain
from .documents import DocumentModel, dumps_pretty, parse_document, serialize_document
from .functors import (
    DendriformAlgebra,
    DendriformCrossedModule,
    LieCrossedModule,
    RotaBaxterLieCrossedModule,
    prelie_to_lie_xmod,
)
from .linalg import MatrixQ
from .xmodules import (
    CrossedModule,
    CrossedModuleExtension,
    EquivalenceWitness,
    double_extension,
    identity_xmod,
    trivial_extension,
    trivial_module_xmod,
)

F = Fraction


def sparse_algebra(dim: int, entries: dict) -> PreLieAlgebra:
    return PreLieAlgebra(dim, sparse_tensor(dim, dim, dim, entries))


def character_representation(algebra: PreLieAlgebra, weights) -> Representation:
    """One-dimensional module where e_i acts on the left by weights[i]
    and trivially on the right."""
    left = sparse_tensor(
        algebra.dim, 1, 1, {(i, 0, 0): w for i, w in enumerate(weights)}
    )
    return Representation(algebra, 1, left, zero_tensor3(1, algebra.dim, 1))


# --- algebras -----------------------------------------------------------------

ALGEBRAS: dict[str, PreLieAlgebra] = {
    "abelian1": PreLieAlgebra.zero_product(1),
    "abelian2": PreLieAlgebra.zero_product(2),
    "abelian3": PreLieAlgebra.zero_product(3),
    "abelian4": PreLieAlgebra.zero_product(4),
    # e1.e1 = e1
    "idem1": sparse_algebra(1, {(0, 0, 0): 1}),
    # e1.e2 = e2
    "lmult2": sparse_algebra(2, {(0, 1, 1): 1}),
    # e1 is a left unit on span(e1, e2)
    "affine2": sparse_algebra(2, {(0, 0, 0): 1, (0, 1, 1): 1}),
    # e1 is a left unit on span(e1, e2, e3)
    "affine3": sparse_algebra(3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1}),
}

# e1.e1 = e2, e2.e1 = e1 breaks left-symmetry; first witness (e1, e2, e1)
BAD_ALGEBRA = sparse_algebra(2, {(0, 0, 1): 1, (1, 0, 0): 1})

# [e1, e2] = e2, the sub-adjacent bracket of lmult2 and affine2
SOLVABLE2 = LieAlgebra(2, sparse_tensor(2, 2, 2, {(0, 1, 1): 1, (1, 0, 1): -1}))


def representation_pairs() -> list[tuple[str, Representation]]:
    """Every (algebra, module) pair exercised by the sweeps."""
    pairs: list[tuple[str, Representation]] = []
    for m in (1, 2, 3, 4):
        for v in (1, 2):
            pairs.append(
                (f"abelian{m}/trivial{v}", Representation.trivial(ALGEBRAS[f"abelian{m}"], v))
            )
    pairs.append(("abelian3/weight100", character_representation(ALGEBRAS["abelian3"], (1, 0, 0))))
    for name in ("idem1", "lmult2", "affine2", "affine3"):
        algebra = ALGEBRAS[name]
        pairs.append((f"{name}/trivial1", Representation.trivial(algebra, 1)))
        pairs.append((f"{name}/regular", Representation.regular(algebra)))
    pairs.append(("lmult2/trivial2", Representation.trivial(ALGEBRAS["lmult2"], 2)))
    pairs.append(("affine3/trivial2", Representation.trivial(ALGEBRAS["affine3"], 2)))
    return pairs


# --- extensions and equivalence witnesses -------------------------------------


def extensions() -> dict[str, CrossedModuleExtension]:
    lmult2 = ALGEBRAS["lmult2"]
    return {
        "ext_triv": trivial_extension(Representation.trivial(lmult2, 1)),
        "ext_dbl": double_extension(Representation.trivial(lmult2, 1)),
        "ext_triv_regular": trivial_extension(Representation.regular(lmult2)),
        "ext_dbl_regular": double_extension(Representation.regular(lmult2)),
        "ext_triv_affine2": trivial_extension(
            Representation.trivial(ALGEBRAS["affine2"], 2)
        ),
        "ext_dbl_idem1": double_extension(Representation.regular(ALGEBRAS["idem1"])),
    }


def equivalence_witnesses() -> list[tuple[str, EquivalenceWitness]]:
    """Ladder morphisms between catalog extensions over the same module."""
    exts = extensions()
    triv, dbl = exts["ext_triv"], exts["ext_dbl"]
    out = [
        (
            "identity_on_ext_triv",
            EquivalenceWitness(
                triv,
                triv,
                MatrixQ.identity(triv.m_algebra.dim),
                MatrixQ.identity(triv.n_algebra.dim),
            ),
        ),
        (
            "embed_triv_in_dbl",
            EquivalenceWitness(triv, dbl, dbl.i, dbl.pi.matrix.transpose()),
        ),
    ]
    triv_r, dbl_r = exts["ext_triv_regular"], exts["ext_dbl_regular"]
    out.append(
        (
            "embed_triv_in_dbl_regular",
            EquivalenceWitness(triv_r, dbl_r, dbl_r.i, dbl_r.pi.matrix.transpose()),
        )
    )
    return out


# --- conversion sources --------------------------------------------------------


def rb_fixture(t_matrix: MatrixQ) -> RotaBaxterLieCrossedModule:
    """SOLVABLE2 acting on itself adjointly, mu the identity."""
    return RotaBaxterLieCrossedModule(
        m=SOLVABLE2,
        n=SOLVABLE2,
        t_m=t_matrix,
        t_n=t_matrix,
        mu=MatrixQ.identity(2),
        rho=SOLVABLE2.bracket,
    )


def rb_rho_mismatch() -> RotaBaxterLieCrossedModule:
    """Passes every encoded axiom, but rho ignores the operators, so the
    converted product fails the mixed representation identity."""
    return RotaBaxterLieCrossedModule(
        m=LieAlgebra(2, zero_tensor3(2, 2, 2)),
        n=LieAlgebra(1, zero_tensor3(1, 1, 1)),
        t_m=MatrixQ.from_rows([[0, 1], [0, 0]]),
        t_n=MatrixQ.identity(1),
        mu=MatrixQ.zero(1, 2),
        rho=sparse_tensor(1, 2, 2, {(0, 0, 0): 1}),
    )


def dendriform_self_xmod(a: DendriformAlgebra) -> DendriformCrossedModule:
    return DendriformCrossedModule(
        m=a,
        n=a,
        mu=MatrixQ.identity(a.dim),
        succ_nm=a.succ,
        prec_mn=a.prec,
        succ_mn=a.succ,
        prec_nm=a.prec,
    )


DENDR_IDEM1 = DendriformAlgebra(
    1, sparse_tensor(1, 1, 1, {(0, 0, 0): 1}), zero_tensor3(1, 1, 1)
)
# e1 > e1 = e2, everything else zero
DENDR_NILP2 = DendriformAlgebra(
    2, sparse_tensor(2, 2, 2, {(0, 0, 1): 1}), zero_tensor3(2, 2, 2)
)
# e1 > e2 = e2 alone violates the third dendriform axiom
DENDR_DEFECTIVE = DendriformAlgebra(
    2, sparse_tensor(2, 2, 2, {(0, 1, 1): 1}), zero_tensor3(2, 2, 2)
)


def dendr_nilp_xmod() -> DendriformCrossedModule:
    """The ideal spanned by e2 inside DENDR_NILP2, with zero products
    and zero mixed actions."""
    return DendriformCrossedModule(
        m=DendriformAlgebra(1, zero_tensor3(1, 1, 1), zero_tensor3(1, 1, 1)),
        n=DENDR_NILP2,
        mu=MatrixQ.from_rows([[0], [1]]),
        succ_nm=zero_tensor3(2, 1, 1),
        prec_mn=zero_tensor3(1, 2, 1),
        succ_mn=zero_tensor3(1, 2, 1),
        prec_nm=zero_tensor3(2, 1, 1),
    )


def dendr_action_mismatch() -> DendriformCrossedModule:
    """Axioms hold on both zero algebras, but the mixed tensors break
    the converted module's mixed representation identity."""
    return DendriformCrossedModule(
        m=DendriformAlgebra(2, zero_tensor3(2, 2, 2), zero_tensor3(2, 2, 2)),
        n=DendriformAlgebra(1, zero_tensor3(1, 1, 1), zero_tensor3(1, 1, 1)),
        mu=MatrixQ.zero(1, 2),
        succ_nm=sparse_tensor(1, 2, 2, {(0, 0, 0): 1}),
        prec_mn=zero_tensor3(2, 1, 2),
        succ_mn=sparse_tensor(2, 1, 2, {(1, 0, 0): 1}),
        prec_nm=zero_tensor3(1, 2, 2),
    )


# --- fixture registry -----------------------------------------------------------


@dataclass(frozen=True)
class FixtureSpec:
    """One shipped JSON document plus its expected validation outcome."""

    name: str
    kind: str
    valid: bool
    payload: object
    violation: str | None = None


def _cochain_fixtures() -> list[FixtureSpec]:
    # All four live in C^2 of lmult2 with one-dimensional trivial
    # coefficients; see the cochain tests for the cohomology they pin.
    def c2(coords) -> Cochain:
        return Cochain.from_coordinates(2, 2, 1, [F(c) for c in coords])

    return [
        FixtureSpec("cochain2_class", "cochain", True, c2([1, 0, 0, 0])),
        FixtureSpec("cochain2_shifted", "cochain", True, c2([1, -2, 0, 0])),
        FixtureSpec("cochain2_zero", "cochain", True, c2([0, 0, 0, 0])),
        FixtureSpec("cochain2_nonclosed", "cochain", True, c2([0, 0, 1, 0])),
    ]


def fixture_specs() -> tuple[FixtureSpec, ...]:
    lmult2 = ALGEBRAS["lmult2"]
    idem1 = ALGEBRAS["idem1"]
    exts = extensions()

    bad_pi = CrossedModuleExtension(
        exts["ext_triv"].v_rep,
        exts["ext_triv"].i,
        exts["ext_triv"].mu,
        AlgebraMorphism(
            exts["ext_triv"].n_algebra,
            exts["ext_triv"].g_algebra,
            MatrixQ.zero(2, 2),
        ),
        exts["ext_triv"].action,
    )
    xmod_lmult2 = identity_xmod(lmult2)
    bad_peiffer = CrossedModule(
        AlgebraMorphism(lmult2, lmult2, MatrixQ.zero(2, 2)), xmod_lmult2.action
    )
    lie_xmod = prelie_to_lie_xmod(xmod_lmult2)
    lie_xmod_bad = LieCrossedModule(
        lie_xmod.m, lie_xmod.n, lie_xmod.mu, zero_tensor3(2, 2, 2)
    )

    specs = [
        FixtureSpec("abelian2", "prelie", True, ALGEBRAS["abelian2"]),
        FixtureSpec("idem1", "prelie", True, idem1),
        FixtureSpec("lmult2", "prelie", True, lmult2),
        FixtureSpec("affine2", "prelie", True, ALGEBRAS["affine2"]),
        FixtureSpec("affine3", "prelie", True, ALGEBRAS["affine3"]),
        FixtureSpec("bad2", "prelie", False, BAD_ALGEBRA, "left-symmetry"),
        FixtureSpec("solvable2", "lie", True, SOLVABLE2),
        FixtureSpec(
            "rep_abelian2_trivial1",
            "representation",
            True,
            Representation.trivial(ALGEBRAS["abelian2"], 1),
        ),
        FixtureSpec(
            "rep_idem1_regular", "representation", True, Representation.regular(idem1)
        ),
        FixtureSpec(
            "rep_lmult2_trivial1",
            "representation",
            True,
            Representation.trivial(lmult2, 1),
        ),
        FixtureSpec(
            "rep_lmult2_regular", "representation", True, Representation.regular(lmult2)
        ),
        FixtureSpec("xmod_identity_lmult2", "crossed_module", True, xmod_lmult2),
        FixtureSpec(
            "xmod_module_idem1",
            "crossed_module",
            True,
            trivial_module_xmod(Representation.regular(idem1)),
        ),
        FixtureSpec(
            "xmod_bad_peiffer", "crossed_module", False, bad_peiffer, "peiffer-left"
        ),
        FixtureSpec("ext_triv", "extension", True, exts["ext_triv"]),
        FixtureSpec("ext_dbl", "extension", True, exts["ext_dbl"]),
        FixtureSpec("ext_dbl_regular", "extension", True, exts["ext_dbl_regular"]),
        FixtureSpec("ext_bad_pi", "extension", False, bad_pi, "pi-surjective"),
        FixtureSpec("rb_zero_t", "rblie_xmod", True, rb_fixture(MatrixQ.zero(2, 2))),
        FixtureSpec(
            "rb_proj",
            "rblie_xmod",
            True,
            rb_fixture(MatrixQ.from_rows([[1, 0], [0, 0]])),
        ),
        FixtureSpec(
            "rb_bad_t",
            "rblie_xmod",
            False,
            rb_fixture(MatrixQ.identity(2)),
            "rota-baxter-m",
        ),
        FixtureSpec("rb_rho_mismatch", "rblie_xmod", True, rb_rho_mismatch()),
        FixtureSpec(
            "dendr_zero2",
            "dendriform_xmod",
            True,
            dendriform_self_xmod(
                DendriformAlgebra(2, zero_tensor3(2, 2, 2), zero_tensor3(2, 2, 2))
            ),
        ),
        FixtureSpec(
            "dendr_idem1", "dendriform_xmod", True, dendriform_self_xmod(DENDR_IDEM1)
        ),
        FixtureSpec("dendr_nilp2", "dendriform_xmod", True, dendr_nilp_xmod()),
        FixtureSpec(
            "dendr_bad_axiom3",
            "dendriform_xmod",
            False,
            dendriform_self_xmod(DENDR_DEFECTIVE),
            "dendriform-3",
        ),
        FixtureSpec(
            "dendr_action_mismatch", "dendriform_xmod", True, dendr_action_mismatch()
        ),
        FixtureSpec("lie_xmod_lmult2", "lie_xmod", True, lie_xmod),
        FixtureSpec(
            "lie_xmod_bad_action", "lie_xmod", False, lie_xmod_bad, "lie-equivariance"
        ),
    ]
    specs.extend(_cochain_fixtures())
    return tuple(specs)


def fixture_documents() -> dict[str, DocumentModel]:
    return {s.name: DocumentModel(s.kind, s.payload) for s in fixture_specs()}


def manifest_obj() -> dict:
    entries = []
    for s in fixture_specs():
        entry = {"name": s.name, "file": f"{s.name}.json", "kind": s.kind, "valid": s.valid}
        if s.violation is not None:
            entry["violation"] = s.violation
        entries.append(entry)
    return {"format_version": "1", "fixtures": entries}


def fixtures_dir() -> Path:
    return Path(files("preliecoh") / "fixtures")


def fixture_path(name: str) -> str:
    return str(fixtures_dir() / f"{name}.json")


def load_fixture(name: str) -> DocumentModel:
    return parse_document(fixture_path(name))


def regenerate(target: str | Path) -> list[str]:
    """Rewrite every fixture file and the manifest; returns the paths."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, model in fixture_documents().items():
        path = target / f"{name}.json"
        path.write_text(serialize_document(model), encoding="utf-8")
        written.append(str(path))
    manifest = target / "manifest.json"
    manifest.write_text(dumps_pretty(manifest_obj()), encoding="utf-8")
    written.append(str(manifest))
    return written
