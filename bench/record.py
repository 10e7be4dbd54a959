"""Write expected.json: answers the library gives at the commit that
defined the benchmark, for the checks no independent fact covers.

    python3 bench/record.py

Records cohomology dimensions of the base structures, the H^2
representatives of the dense base and the H^3 representatives used as
closed pullback inputs, and the exit code and output of `convert` on
each catalog crossed-module fixture.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
from preliecoh import cli, cochain, documents  # noqa: E402


def _rep(base: str):
    return documents.document_from_obj(jobs.BASES[base]()).payload


def _entries(f) -> list:
    return documents.document_to_obj(documents.DocumentModel("cochain", f))["entries"]


def record() -> dict:
    dims = {
        base: [cochain.cohomology(_rep(base), n).dimension for n in range(1, top + 1)]
        for base, top in (("lu3-regular", 3), ("lu4-regular", 2), ("dense-regular", 2))
    }
    h2 = cochain.cohomology(_rep("dense-regular"), 2).representatives
    h3 = {
        base: [_entries(f) for f in cochain.cohomology(_rep(base), 3).representatives]
        for base, _, _ in jobs.PULLBACKS
    }
    converted = {}
    for entry in jobs.catalog_xmods(HERE.parent / "src" / "preliecoh" / "fixtures"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["convert", str(HERE.parent / "src" / "preliecoh" / "fixtures" / entry["file"])])
        converted[entry["name"]] = {
            "exit": code,
            "output": json.loads(out.getvalue()) if code == 0 else None,
        }
    return {
        "cohomology_dims": dims,
        "dense_h2_representatives": [_entries(f) for f in h2],
        "h3_representatives": {base: reps for base, reps in h3.items() if reps},
        "convert": converted,
    }


if __name__ == "__main__":
    jobs.EXPECTED_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {jobs.EXPECTED_PATH}")
