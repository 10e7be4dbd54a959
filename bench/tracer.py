"""Outside-in tracing of the library, from the benchmark's own files.

The tracer replaces public functions at the name each caller looks up:
module globals of `cochain`, `cli`, `xmodules` and `trees`, a few
class attributes (`QuotientMap.build`/`reduce`, `TreeEvaluator.eval_poly`,
`Cochain.evaluate`) and the dispatch tables that bind functions when a
module is imported (`cli._CONVERTERS`, `documents._VERIFIERS`). Nothing
in the package is edited, and `uninstall` puts every original back.

Each wrapped call inside a job records a span [name, start, end,
parent, job]. Size facts about the matrices a call assembled or
eliminated are computed after the call returns, inside a `trace.facts`
span, so their cost is charged to tracing and not to any layer. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

# Rank of size facts is taken modulo this prime when the traced call does
# not itself return a rank; it can only undercount the rank over Q.
PRIME = (1 << 61) - 1


def _rows(m):
    return [m.row(i) for i in range(m.rows)]


def _bits(values) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in values if x),
        default=0,
    )


def rank_mod_p(rows) -> int:
    """Rank over Z/PRIME of rational rows, by sparse elimination."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {
            j: x.numerator * pow(x.denominator, -1, PRIME) % PRIME
            for j, x in enumerate(row)
            if x
        }
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, PRIME)
                pivots[c] = {j: v * inv % PRIME for j, v in r.items()}
                break
            f = r[c]
            for j, v in pivots[c].items():
                nv = (r.get(j, 0) - f * v) % PRIME
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
    return len(pivots)


def matrix_facts(rows, ncols: int, rank: int | None = None) -> dict:
    flat = [x for row in rows for x in row]
    return {
        "shape": [len(rows), ncols],
        "nnz": sum(1 for x in flat if x),
        "max_bits": _bits(flat),
        "rank": rank_mod_p(rows) if rank is None else rank,
    }


def _assemble_facts(args, kwargs, result) -> dict:
    facts = matrix_facts(_rows(result), result.cols)
    facts["key"] = [id(args[0]), args[1]]
    return facts


def _elim_facts(args, kwargs, result) -> dict:
    m = args[0]
    rank = result if isinstance(result, int) else None
    if isinstance(result, tuple):  # rank_kernel_image: (rank, kernel, image)
        rank = result[0]
    facts = matrix_facts(_rows(m), m.cols, rank)
    if isinstance(result, tuple):
        facts["max_bits"] = max(facts["max_bits"], _bits(c for v in result[1].vectors for c in v))
    return facts


def _solve_facts(args, kwargs, result) -> dict:
    return matrix_facts(_rows(args[0]), args[0].cols)


def _quotient_facts(args, kwargs, result) -> dict:
    vectors = args[2].vectors  # build(cls, ambient_dim, sub)
    return matrix_facts(list(vectors), args[1], len(result.pivots))


def _cohomology_facts(args, kwargs, result) -> dict:
    return {"dimension": result.dimension}


def _parse_facts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Functions looked up as module globals, wherever they are imported.
GLOBALS = {
    "coboundary_matrix": ("cochain.assemble", _assemble_facts),
    "lie_coboundary_matrix": ("cochain.lie", _assemble_facts),
    "coboundary": ("cochain.coboundary", None),
    "cohomology": ("cochain.cohomology", _cohomology_facts),
    "are_cohomologous": ("cochain.other", None),
    "hom_module": ("cochain.other", None),
    "lie_cohomology_dimension": ("cochain.other", None),
    "rank_kernel_image": ("linalg.elim", _elim_facts),
    "rank_of": ("linalg.elim", _elim_facts),
    "right_inverse_on_image": ("linalg.elim", _elim_facts),
    "solve_particular": ("linalg.solve", _solve_facts),
    "check_prelie": ("algebra.check", None),
    "check_representation": ("algebra.check", None),
    "check_action": ("algebra.check", None),
    "check_morphism": ("algebra.check", None),
    "check_extension": ("xmodules.check", None),
    "check_crossed_module": ("xmodules.check", None),
    "t_map": ("xmodules.t_map", None),
    "random_pi_section": ("xmodules.t_map", None),
    "random_mu_section": ("xmodules.t_map", None),
    "parse_document": ("documents.parse", _parse_facts),
    "verify_document": ("documents.verify", None),
    "serialize_document": ("documents.serialize", None),
    "dumps_pretty": ("documents.serialize", None),
    "graft_product": ("trees.graft", None),
    "enumerate_trees": ("trees.enumerate", None),
    "check_cocycle_pullback": ("trees.pullback", None),
    "main": ("cli", None),
}

# Span names are "layer:function"; the job itself is the root span.
JOB_SPAN = "job"

# Layer of each checker reached through documents._VERIFIERS.
VERIFIER_LAYERS = {
    "prelie": "algebra.check",
    "lie": "algebra.check",
    "representation": "algebra.check",
    "crossed_module": "xmodules.check",
    "extension": "xmodules.check",
    "rblie_xmod": "functors.check",
    "dendriform_xmod": "functors.check",
    "lie_xmod": "functors.check",
}

FACTS_SPAN = "trace.facts"


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


class Tracer:
    """Span recorder; spans are kept only while `job` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.facts: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # --- wrappers -----------------------------------------------------------------

    def _wrap(self, name: str, fn, facts=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if facts is not None:
                start = perf_counter()
                fact = facts(args, kwargs, result)
                fact["name"] = name
                fact["job"] = tracer.job
                tracer.facts.append(fact)
                tracer.spans.append(
                    [FACTS_SPAN, start, perf_counter(), stack[-1] if stack else -1, tracer.job]
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.job is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    # --- installation -------------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the targets in the imported package `pkg` (preliecoh)."""
        for module in (pkg.cochain, pkg.cli, pkg.xmodules, pkg.trees):
            names = vars(module)
            for attr, (name, facts) in GLOBALS.items():
                if callable(names.get(attr)) and not isinstance(names[attr], type):
                    self._replace(module, attr, self._wrap(f"{name}:{attr}", names[attr], facts))
        quotient = pkg.linalg.QuotientMap
        build = vars(quotient)["build"]
        self._replace(
            quotient,
            "build",
            classmethod(self._wrap("linalg.quotient:build", build.__func__, _quotient_facts)),
        )
        self._replace(
            quotient, "reduce", self._wrap("linalg.quotient:reduce", vars(quotient)["reduce"])
        )
        evaluator = pkg.trees.TreeEvaluator
        self._replace(evaluator, "eval_poly", self._wrap("trees.eval:eval_poly", vars(evaluator)["eval_poly"]))
        cochain_cls = pkg.cochain.Cochain
        self._replace(
            cochain_cls, "evaluate", self._count("trees.pullback.theta_evals", vars(cochain_cls)["evaluate"])
        )
        converters = pkg.cli._CONVERTERS
        for flavor, (fn, kind) in list(converters.items()):
            self._replace(converters, flavor, (self._wrap(f"functors.convert:{fn.__name__}", fn), kind))
        verifiers = pkg.documents._VERIFIERS
        for kind, fn in list(verifiers.items()):
            self._replace(verifiers, kind, self._wrap(f"{VERIFIER_LAYERS[kind]}:{fn.__name__}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def targets(self) -> list[tuple]:
        """(owner, attr, original) for every name currently replaced."""
        return list(self._undo)

    def run_job(self, index: int, fn):
        """Call fn() as job `index`, under a root span."""
        self.job = index
        record = [JOB_SPAN, 0.0, 0.0, -1, index]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn()
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self.job = None

    # --- output -------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                handle.write("\n")
            for fact in self.facts:
                handle.write(json.dumps({"facts": fact}))
                handle.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# (metric, unit): the per-layer metrics of a traced run, per traced job
# unless the unit says otherwise.
LAYER_METRICS = (
    ("cochain.assemble.calls", "1/job"),
    ("cochain.assemble.s", "s/job"),
    ("cochain.assemble.entries", "1/job"),
    ("cochain.assemble.nnz", "1/job"),
    ("cochain.assemble.distinct_ratio", "ratio"),
    ("cochain.lie.s", "s/job"),
    ("cochain.coboundary.calls", "1/job"),
    ("cochain.coboundary.self_s", "s/job"),
    ("cochain.cohomology.self_s", "s/job"),
    ("cochain.other.self_s", "s/job"),
    ("linalg.elim.calls", "1/job"),
    ("linalg.elim.self_s", "s/job"),
    ("linalg.elim.entries", "1/job"),
    ("linalg.elim.max_bits", "bits"),
    ("linalg.quotient.self_s", "s/job"),
    ("linalg.solve.self_s", "s/job"),
    ("linalg.select.rank_calls_per_rep", "ratio"),
    ("trees.pullback.calls", "1/job"),
    ("trees.pullback.self_s", "s/job"),
    ("trees.pullback.theta_evals", "1/job"),
    ("trees.eval.self_s", "s/job"),
    ("trees.graft.self_s", "s/job"),
    ("trees.enumerate.self_s", "s/job"),
    ("documents.parse.calls", "1/job"),
    ("documents.parse.self_s", "s/job"),
    ("documents.parse.bytes", "B/job"),
    ("documents.serialize.self_s", "s/job"),
    ("documents.verify.self_s", "s/job"),
    ("algebra.check.calls", "1/job"),
    ("algebra.check.self_s", "s/job"),
    ("xmodules.check.self_s", "s/job"),
    ("xmodules.t_map.self_s", "s/job"),
    ("functors.check.self_s", "s/job"),
    ("functors.convert.calls", "1/job"),
    ("functors.convert.self_s", "s/job"),
    ("cli.self_s", "s/job"),
    ("job.self_s", "s/job"),
    ("job.s", "s/job"),
    ("trace.overhead_s", "s/job"),
)


def layer_metrics(tracer: Tracer, jobs: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans, counts and facts of `jobs` jobs.

    `.s` is inclusive time (outermost span of the layer only), `.self_s`
    excludes child spans, `trace.facts` included. The tracing overhead
    per job is measured by the caller and passed in.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of(name)
        calls[layer] += 1
        self_s[layer] += own[idx]
        ancestor = parent
        while ancestor >= 0 and layer_of(spans[ancestor][0]) != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl[layer] += end - start
    sums: dict[str, float] = defaultdict(float)
    max_bits = 0
    builds = set()
    accepted = 0
    for fact in tracer.facts:
        layer = layer_of(fact["name"])
        if "shape" in fact:
            sums[layer + ".entries"] += fact["shape"][0] * fact["shape"][1]
            sums[layer + ".nnz"] += fact["nnz"]
        if layer == "linalg.elim":
            max_bits = max(max_bits, fact["max_bits"])
        if layer == "cochain.assemble":
            builds.add((fact["job"], *fact["key"]))
        if layer == "cochain.cohomology":
            accepted += fact["dimension"]
        if "bytes" in fact:
            sums[layer + ".bytes"] += fact["bytes"]
    selection_ranks = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "linalg.elim:rank_of"
        and parent >= 0
        and layer_of(spans[parent][0]) == "cochain.cohomology"
    )
    per_job = {
        "cochain.assemble.distinct_ratio": len(builds) / calls["cochain.assemble"]
        if calls["cochain.assemble"]
        else 0.0,
        "linalg.elim.max_bits": float(max_bits),
        "linalg.select.rank_calls_per_rep": selection_ranks / accepted if accepted else 0.0,
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        layer, _, what = metric.rpartition(".")
        if metric in per_job:
            out[metric] = per_job[metric]
        elif metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif metric == "trees.pullback.theta_evals":
            out[metric] = tracer.counts[metric] / jobs
        elif what == "calls":
            out[metric] = calls[layer] / jobs
        elif what == "self_s":
            out[metric] = self_s[layer] / jobs
        elif what == "s":
            out[metric] = incl[layer] / jobs
        else:
            out[metric] = sums[metric] / jobs
    return out
