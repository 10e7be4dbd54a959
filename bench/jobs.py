"""The benchmark's workloads: job kinds, seeded inputs and answer checks.

A workload cycles through its job kinds in a fixed order. Job `index`
of a run with seed `seed` draws everything from its own generator, so
the same (seed, index) always writes byte-identical documents, and no
two jobs of a run share an input: each gets a fresh isomorphic copy.

Answers are checked against facts known without the code under test
(isomorphism invariance, the binomial law, split extensions, explicit
primitives verified with a coboundary written out here), and otherwise
against `expected.json`, which `record.py` wrote from the library at
the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs as I

F = Fraction

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Named base structures; copies of these are what the program sees.
BASES: dict[str, Callable[[], dict]] = {
    "lu3-regular": lambda: I.regular(I.left_unit(3)),
    "lu4-regular": lambda: I.regular(I.left_unit(4)),
    "abelian4-trivial1": lambda: I.trivial(I.abelian(4), 1),
    "dense-regular": lambda: I.regular(I.semidirect(I.regular(I.left_unit(2)))),
    "lmult2-regular": lambda: I.regular(I.lmult2()),
    "lu2-regular": lambda: I.regular(I.left_unit(2)),
    "lu3-trivial1": lambda: I.trivial(I.left_unit(3), 1),
    "lu3-trivial2": lambda: I.trivial(I.left_unit(3), 2),
}

XMOD_KINDS = ("crossed_module", "rblie_xmod", "dendriform_xmod")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def catalog_xmods(fixtures: Path) -> list[dict]:
    """Manifest entries of the catalog's crossed-module fixtures, each
    with its parsed document under "doc"."""
    manifest = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))
    out = []
    for entry in manifest["fixtures"]:
        if entry["kind"] in XMOD_KINDS:
            doc = json.loads((fixtures / entry["file"]).read_text(encoding="utf-8"))
            out.append(dict(entry, doc=doc))
    return out


@dataclass
class Job:
    """One closed-loop request: a CLI argv, or a library call on objects
    built beforehand. `check` returns None when the outcome is right,
    else the reason it is wrong."""

    kind: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[object], object] | None = None


def cohomology_dims(text: str) -> list[int]:
    return [
        int(line.split("dim", 1)[1])
        for line in text.splitlines()
        if line.startswith("H^")
    ]


def _bases_for(doc: dict, rng: random.Random, regular: bool = False) -> dict[str, I.Basis]:
    dims = I.space_dims(doc)
    bases = {space: I.monomial_basis(d, rng) for space, d in sorted(dims.items())}
    if regular:
        bases["v"] = bases["g"]
    return bases


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, expected: dict, pkg, stream: int = 0) -> None:
        self.seed = seed
        self.stream = stream  # a second stream gives the same job kinds on other copies
        self.dir = Path(workdir)
        self.expected = expected
        self.pkg = pkg

    def job(self, index: int) -> Job:
        kind = self.cycle[index % len(self.cycle)]
        rng = random.Random(f"{self.name}:{self.seed}:{self.stream}:{index}")
        return getattr(self, "_job_" + kind.replace("-", "_"))(index, rng)

    def write(self, index: int, tag: str, doc: dict) -> str:
        path = self.dir / f"{self.stream}-{index:05d}-{tag}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return str(path)


def same_dims(base: str, dims: list[int], want: list[int]) -> str | None:
    """Every isomorphic copy of `base` must have the base's dimensions."""
    return None if dims == want else f"{base}: dims {dims} != expected {want}"


def _exit(outcome, code: int) -> str | None:
    got, _, err = outcome
    if got != code:
        return f"exit {got} != {code}: {err.strip()[:200]}"
    return None


# --- cohom-sparse --------------------------------------------------------------------


class CohomSparse(Workload):
    """Scaled sparse families: d is under 1 % dense and assembly dominates.
    Sizes keep a job under a second, so a run has about 80 jobs and its
    tail is near p87."""

    name = "cohom-sparse"
    cycle = ("verify-phi", "left-unit", "abelian")

    def _cohomology_job(self, kind, index, rng, base, argv, want, cross_checks) -> Job:
        doc = BASES[base]()
        doc = I.transform(doc, _bases_for(doc, rng, regular=base.endswith("regular")))
        if base.startswith("abelian"):
            # every change of basis fixes the zero structure; relabel instead
            names = rng.sample(range(1000), doc["algebra"]["dim"])
            doc["algebra"]["labels"] = [f"x{k}" for k in names]
        path = self.write(index, "rep", doc)

        def check(outcome) -> str | None:
            bad = _exit(outcome, 0)
            if bad:
                return bad
            out = outcome[1]
            if "FAIL" in out or out.count("PASS") != cross_checks:
                return f"{base}: expected {cross_checks} PASS lines and no FAIL"
            return same_dims(base, cohomology_dims(out), want)

        return Job(kind, check, argv=["cohomology", path, *argv])

    def _job_verify_phi(self, index, rng) -> Job:
        want = self.expected["cohomology_dims"]["lu3-regular"]
        return self._cohomology_job(
            "verify-phi", index, rng, "lu3-regular",
            ["--n", "3", "--verify", "--phi"], want, cross_checks=4,
        )

    def _job_left_unit(self, index, rng) -> Job:
        want = self.expected["cohomology_dims"]["lu4-regular"]
        return self._cohomology_job("left-unit", index, rng, "lu4-regular", ["--n", "2"], want, 0)

    def _job_abelian(self, index, rng) -> Job:
        d, v = 4, 1  # abelian algebra, trivial coefficients: C(d, n-1) * d * v
        want = [math.comb(d, n - 1) * d * v for n in (1, 2, 3)]
        return self._cohomology_job("abelian", index, rng, "abelian4-trivial1", ["--n", "3"], want, 0)


# --- cohom-dense ---------------------------------------------------------------------


def _add(a: dict, b: dict, scale: Fraction = F(1)) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, F(0)) + scale * value
    return {k: v for k, v in out.items() if v != 0}


def _random_1_cochain(dim: int, rng: random.Random) -> dict:
    table = {(x, b): F(rng.randint(-2, 2)) for x in range(dim) for b in range(dim)}
    return I.cochain_doc(1, dim, dim, table)


class CohomDense(Workload):
    """A dim-4 algebra in a dense rational basis: elimination dominates."""

    name = "cohom-dense"
    cycle = ("cohomology", "cohomologous-yes", "cohomologous-no")
    BASE = "dense-regular"

    def _copy(self, index, rng):
        doc = BASES[self.BASE]()
        basis = I.rational_basis(doc["carrier_dim"], rng)
        doc = I.transform(doc, {"g": basis, "v": basis})
        return doc, basis, self.write(index, "rep", doc)

    def _job_cohomology(self, index, rng) -> Job:
        doc, _, path = self._copy(index, rng)
        want = self.expected["cohomology_dims"][self.BASE]

        def check(outcome) -> str | None:
            bad = _exit(outcome, 0)
            if bad:
                return bad
            result = json.loads(outcome[1])
            dims = [result["dims"][str(n)] for n in (1, 2)]
            if [len(result["representatives"][str(n)]) for n in (1, 2)] != dims:
                return "representative count differs from the dimension"
            return same_dims(self.BASE, dims, want)

        argv = ["cohomology", path, "--n", "2", "--representatives", "--json"]
        return Job("cohomology", check, argv=argv)

    def _cocycle(self, rng, basis) -> dict:
        """A seeded nonzero class: a recorded H^2 representative of the
        base, moved to the copy's basis and rescaled."""
        reps = self.expected["dense_h2_representatives"]
        dim = basis.dim
        z = I.cochain_doc(2, dim, dim, {})
        z["entries"] = rng.choice(reps)
        return I.cochain_table(I.move_cochain(z, basis, basis)), rng.choice(I.SCALES)

    def _query(self, index, rng, same_class: bool) -> Job:
        doc, basis, rep_path = self._copy(index, rng)
        alg, dim = doc["algebra"], doc["carrier_dim"]
        z, c = self._cocycle(rng, basis)
        dg = I.cochain_table(I.regular_coboundary_1(alg, _random_1_cochain(dim, rng)))
        f1 = _add(dg, z, c)
        if same_class:
            dh = I.regular_coboundary_1(alg, _random_1_cochain(dim, rng))
            f2 = _add(f1, I.cochain_table(dh))
        else:
            z2, c2 = self._cocycle(rng, basis)
            f2 = _add(f1, z2, c2)
        p1 = self.write(index, "f1", I.cochain_doc(2, dim, dim, f1))
        p2 = self.write(index, "f2", I.cochain_doc(2, dim, dim, f2))

        def check(outcome) -> str | None:
            bad = _exit(outcome, 0 if same_class else 2)
            if bad:
                return bad
            result = json.loads(outcome[1])
            if result["cohomologous"] is not same_class:
                return f"cohomologous: {result['cohomologous']} != {same_class}"
            if not same_class:
                if all(F(x) == 0 for x in result["class_difference"]):
                    return "distinct classes reported with a zero class difference"
                return None
            primitive = I.cochain_doc(1, dim, dim, {})
            primitive["entries"] = result["primitive"]
            # d(primitive) = f1 - f2, checked with the coboundary written out here
            if I.cochain_table(I.regular_coboundary_1(alg, primitive)) != _add(f1, f2, F(-1)):
                return "primitive h does not satisfy d(h) = f1 - f2"
            return None

        kind = "cohomologous-yes" if same_class else "cohomologous-no"
        return Job(kind, check, argv=["cohomologous", rep_path, p1, p2, "--json"])

    def _job_cohomologous_yes(self, index, rng) -> Job:
        return self._query(index, rng, same_class=True)

    def _job_cohomologous_no(self, index, rng) -> Job:
        return self._query(index, rng, same_class=False)


# --- xmod-trees ----------------------------------------------------------------------

# (base, extension builder) for tmap and validate
EXTENSIONS = (
    ("lu3-regular", I.double_extension),
    ("lu3-trivial2", I.trivial_extension),
    ("lmult2-regular", I.double_extension),
    ("lu3-regular", I.trivial_extension),
    ("lu3-trivial2", I.double_extension),
    ("lu2-regular", I.double_extension),
)
LARGE_PRELIE = (
    lambda: I.left_unit(10),
    lambda: I.semidirect(I.regular(I.left_unit(5))),
    lambda: I.left_unit(11),
    lambda: I.semidirect(I.regular(I.left_unit(6))),
    lambda: I.left_unit(12),
)
# (base, degree, perturbed): a dim-2 algebra has no 4-cochains, so every
# non-closed perturbation lives on a dim-3 one
PULLBACKS = (
    ("lmult2-regular", 5, False),
    ("lu3-trivial1", 5, False),
    ("lu3-regular", 4, True),
    ("lu3-trivial2", 5, False),
    ("lu3-trivial1", 4, True),
    ("lu3-regular", 5, False),
)
CONVERT_COPIES = 3


class XmodTrees(Workload):
    """Documents, checkers and trees; only small matrices are eliminated."""

    name = "xmod-trees"
    cycle = ("tmap", "validate", "convert", "pullback")

    def __init__(self, seed, workdir, expected, pkg, stream=0) -> None:
        super().__init__(seed, workdir, expected, pkg, stream)
        self.xmods = catalog_xmods(Path(pkg.__file__).parent / "fixtures")

    def _round(self, index: int) -> int:
        return index // len(self.cycle)

    def _extension(self, index, rng) -> str:
        base, build = EXTENSIONS[self._round(index) % len(EXTENSIONS)]
        doc = build(BASES[base]())
        return self.write(index, "ext", I.transform(doc, _bases_for(doc, rng)))

    def _job_tmap(self, index, rng) -> Job:
        path = self._extension(index, rng)
        lines = (
            "class is zero: yes",  # the extensions are split
            "mu kills theta: PASS",
            "d(theta) = 0: PASS",
            "  classes agree: PASS",
            "  difference is a coboundary: PASS",
        )

        def check(outcome) -> str | None:
            bad = _exit(outcome, 0)
            if bad:
                return bad
            missing = [line for line in lines if line not in outcome[1].splitlines()]
            return f"tmap output lacks {missing}" if missing else None

        seed = str(rng.randrange(10**6))
        return Job("tmap", check, argv=["tmap", path, "--sections", "random", "--seed", seed])

    def _job_validate(self, index, rng) -> Job:
        if self._round(index) % 2 == 0:
            path = self._extension(index, rng)
        else:
            doc = LARGE_PRELIE[self._round(index) // 2 % len(LARGE_PRELIE)]()
            path = self.write(index, "prelie", I.transform(doc, _bases_for(doc, rng)))

        def check(outcome) -> str | None:
            bad = _exit(outcome, 0)
            if bad:
                return bad
            return None if "result: valid" in outcome[1].splitlines() else "not reported valid"

        return Job("validate", check, argv=["validate", path])

    def _job_convert(self, index, rng) -> Job:
        entry = self.xmods[self._round(index) % len(self.xmods)]
        bases = [_bases_for(entry["doc"], rng) for _ in range(CONVERT_COPIES)]
        doc = I.direct_sum([I.transform(entry["doc"], b) for b in bases])
        path = self.write(index, "xmod", doc)
        recorded = self.expected["convert"][entry["name"]]
        want_code = recorded["exit"] if entry["valid"] else 2

        def check(outcome) -> str | None:
            bad = _exit(outcome, want_code)
            if bad or want_code != 0:
                return bad
            # conversion is natural: it commutes with changes of basis and sums
            want = I.direct_sum([I.transform(recorded["output"], b) for b in bases])
            got = json.loads(outcome[1])
            return None if I.same_structure(got, want) else "converted document differs"

        return Job("convert", check, argv=["convert", path])

    def _job_pullback(self, index, rng) -> Job:
        pkg = self.pkg
        base, degree, perturbed = PULLBACKS[self._round(index) % len(PULLBACKS)]
        doc = BASES[base]()
        bases = _bases_for(doc, rng, regular=base.endswith("regular"))
        doc = I.transform(doc, bases)
        rep = pkg.documents.document_from_obj(doc).payload
        d, v = doc["algebra"]["dim"], doc["carrier_dim"]
        recorded = self.expected["h3_representatives"].get(base)
        if recorded:
            z = I.cochain_doc(3, d, v, {})
            z["entries"] = rng.choice(recorded)
            theta_doc = I.move_cochain(z, bases["g"], bases["v"])
            theta = pkg.documents.document_from_obj(theta_doc).payload
        else:
            table = {(x, y, b): F(rng.randint(-2, 2)) for x in range(d) for y in range(d) for b in range(v)}
            h = pkg.documents.document_from_obj(I.cochain_doc(2, d, v, table)).payload
            theta = pkg.cochain.coboundary(rep, h)
        if perturbed:
            theta = theta.add(self._nonclosed(rep, d, v, rng))
        perm = rng.sample(range(d), d)
        assign = {
            a: tuple(rng.choice(I.SCALES) if k == perm[a] else F(0) for k in range(d))
            for a in range(d)
        }

        def call(pkg):
            return pkg.trees.check_cocycle_pullback(theta, rep, assign, degree)

        def check(result) -> str | None:
            if perturbed:
                return None if getattr(result, "axiom", None) else "missed a non-closed cochain"
            return None if result is None else f"closed cochain reported: {result}"

        return Job("pullback", check, call=call)

    def _nonclosed(self, rep, d, v, rng):
        """A seeded unit 3-cochain whose coboundary is nonzero."""
        cochain = self.pkg.cochain
        keys = [(x, y, z, b) for x in range(d) for y in range(x + 1, d) for z in range(d) for b in range(v)]
        rng.shuffle(keys)
        for key in keys:
            unit = I.cochain_doc(3, d, v, {key: F(1)})
            e = self.pkg.documents.document_from_obj(unit).payload
            if not cochain.coboundary(rep, e).is_zero():
                return e
        raise ValueError("every unit 3-cochain is closed")


WORKLOADS = {w.name: w for w in (CohomSparse, CohomDense, XmodTrees)}
