"""CLI artifacts stay byte for byte what the reference run wrote.

`golden/` holds the CSVs of four seeded pipeline commands at their
defaults.  Every Newton system they factor is dense: at seed 0
compare-gpsa's 46 requests give formulations 1-4 237 rows and 5-6 283,
under `gp._DENSE_MAX`; the SuperLU path is run by
`test_heuristic.py::test_a_large_program_is_solved_by_superlu`.  LAPACK's
Cholesky gives other floats when BLAS runs several threads, so each
command runs in a process pinned to one.
Only the input paths in the `# config:` header are normalised, to their
file names, since they depend on where the package lives.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eongp

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(eongp.__file__).resolve().parents[1])
CASES = (("run", "allocation.csv", 4), ("compare-gpsa", "curves.csv", 46),
         ("sweep-margin", "curves.csv", 4), ("compare-rto", "curves.csv", 4))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PREFIX = b"# config: "


def normalised(path: Path) -> bytes:
    """The artifact's bytes with each input path cut to its file name."""
    head, rest = path.read_bytes().split(b"\n", 1)
    assert head.startswith(PREFIX)
    config = json.loads(head[len(PREFIX):])
    config["inputs"] = {key: Path(value).name
                        for key, value in config["inputs"].items()}
    return (PREFIX + json.dumps(config, sort_keys=True,
                                separators=(",", ":")).encode()
            + b"\n" + rest)


@pytest.mark.parametrize("command, name, requests", CASES,
                         ids=[case[0] for case in CASES])
def test_artifact_matches_golden(tmp_path, command, name, requests):
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "eongp.cli", command, "--requests",
         str(requests), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert normalised(tmp_path / name) == \
        (GOLDEN / command / name).read_bytes()
