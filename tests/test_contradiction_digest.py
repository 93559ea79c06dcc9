"""The contradiction suite digest: every library model × p × r0, run through
``run_contradiction_scenario`` on a fresh model, against a committed manifest.

The manifest (``tests/data/contradiction_digest.json``) records, for each of
the 30 runs, the SHA-256 of the ``repr`` of its rows, constants, verdicts,
failed hypothesis and config, or, for a run that is refused, the error's type
and message; together with the numpy version it was taken on.  Under that
numpy version the test compares all of it, so any change in any bit of a
report fails it; under another version it compares which runs are refused,
and how, alone and says so.  The CLI matrix (``test_cli_matrix.py``) runs
every scenario at r0 = 1 only; this suite also runs the chain at r0 = 0.05.
A change that moves a report on purpose regenerates the manifest in its own
diff and explains each changed entry:

    PYTHONPATH=src python tests/test_contradiction_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from pinchlab import geometry
from pinchlab.errors import PinchLabError
from pinchlab.rigidity import run_contradiction_scenario

MANIFEST = Path(__file__).parent / "data" / "contradiction_digest.json"
EXPONENTS = (1.15, 1.5, 1.85)
INNER_RADII = (1.0, 0.05)


def run_suite() -> dict:
    """The record of each of the 30 runs, by name: ``{"sha256": ...}`` for a
    report, ``{"refused": "<type>: <message>"}`` for a refusal."""
    runs = {}
    for name, spec in geometry.LIBRARY.items():
        for p in EXPONENTS:
            for r0 in INNER_RADII:
                model = geometry._model_of(spec)
                try:
                    report = run_contradiction_scenario(model, p, {"r0": r0})
                except PinchLabError as exc:
                    record = {"refused": f"{type(exc).__name__}: {exc}"}
                else:
                    fields = (
                        report.rows,
                        report.constants,
                        report.verdicts,
                        report.failed_hypothesis,
                        report.config,
                    )
                    record = {"sha256": hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()}
                runs[f"{name}-p={p}-r0={r0}"] = record
    return runs


def _outcome(record: dict) -> str:
    """'report', or the type of the refusal."""
    return record["refused"].partition(":")[0] if "refused" in record else "report"


def test_contradiction_suite_matches_its_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    runs = run_suite()
    assert list(runs) == list(manifest["runs"])
    outcomes = [_outcome(run) for run in runs.values()]
    assert (len(outcomes) - outcomes.count("report"), len(outcomes)) == (6, 30)
    assert outcomes == [_outcome(run) for run in manifest["runs"].values()]
    if np.__version__ != manifest["numpy"]:
        print(
            f"contradiction digest: numpy {np.__version__}, manifest taken on numpy "
            f"{manifest['numpy']}: compared the outcomes only, not the report digests"
        )
        return
    changed = [name for name, run in runs.items() if run != manifest["runs"][name]]
    assert not changed, f"{len(changed)} of 30 runs differ from the manifest, first {changed[:5]}"


if __name__ == "__main__":
    manifest = {"numpy": np.__version__, "runs": run_suite()}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST} ({len(manifest['runs'])} runs, numpy {np.__version__})\n")
