"""The CLI matrix digest: every library model × scenario × p × format, run
through ``cli.main`` in one process, against a committed manifest.

The manifest (``tests/data/cli_matrix_digest.json``) records each run's exit
code and the SHA-256 of every file it wrote, of its stdout and of its stderr,
together with the numpy version it was taken on.  Under that numpy version
the test compares all of it, so any change in any output byte fails it; under
another version it compares the exit codes alone and says so.  A change that
moves an output on purpose regenerates the manifest in its own diff and
explains each changed entry:

    PYTHONPATH=src python tests/test_cli_matrix.py
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from pinchlab import geometry
from pinchlab.cli import main

MANIFEST = Path(__file__).parent / "data" / "cli_matrix_digest.json"
COMMANDS = ("solve", "monotone", "contradict", "check", "willmore")
EXPONENTS = ("1.15", "1.5", "1.85", "auto")
FORMATS = ("csv", "json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(run_dir: Path) -> dict:
    """Run the 200 cases with ``run_dir`` as the working directory, each with
    an ``--out`` path relative to it; the record of each run, by name."""
    runs = {}
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        for model in geometry.LIBRARY:
            for command in COMMANDS:
                for p in EXPONENTS:
                    for fmt in FORMATS:
                        name = f"{command}-{model}-{p}-{fmt}"
                        before = set(os.listdir("."))
                        out, err = io.StringIO(), io.StringIO()
                        argv = [command, "--model", model, "--p", p, "--format", fmt,
                                "--out", f"{name}.{fmt}"]
                        try:
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                                code = main(argv)
                        finally:
                            gc.unfreeze()
                        written = sorted(set(os.listdir(".")) - before)
                        runs[name] = {
                            "exit": code,
                            "stdout": _sha256(out.getvalue().encode("utf-8")),
                            "stderr": _sha256(err.getvalue().encode("utf-8")),
                            "files": {path: _sha256(Path(path).read_bytes()) for path in written},
                        }
    finally:
        os.chdir(cwd)
    return runs


def check_against_manifest(runs: dict) -> None:
    """Assert that the records of :func:`run_matrix` are the manifest's: the
    exit codes always, and every digest under the manifest's numpy version."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert list(runs) == list(manifest["runs"])
    exits = [run["exit"] for run in runs.values()]
    assert (exits.count(0), exits.count(2), len(exits)) == (160, 40, 200)
    assert exits == [run["exit"] for run in manifest["runs"].values()]
    if np.__version__ != manifest["numpy"]:
        print(
            f"cli matrix: numpy {np.__version__}, manifest taken on numpy {manifest['numpy']}: "
            "compared the exit codes only, not the output digests"
        )
        return
    changed = [name for name, run in runs.items() if run != manifest["runs"][name]]
    assert not changed, f"{len(changed)} of 200 runs differ from the manifest, first {changed[:5]}"


def test_cli_matrix_matches_its_manifest(tmp_path):
    check_against_manifest(run_matrix(tmp_path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as run_dir:
        manifest = {"numpy": np.__version__, "runs": run_matrix(Path(run_dir))}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST} ({len(manifest['runs'])} runs, numpy {np.__version__})\n")
