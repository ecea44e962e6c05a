"""Records are portable across BLAS kernels: a run under another OpenBLAS
kernel matches the stored reference records. ``compare_matrix`` is the
workload whose training stacks hold more than one model."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.run import _blas

REPO = Path(__file__).resolve().parent.parent


def _kernel(blas_config: str) -> str:
    """The kernel an OpenBLAS config string names, the word before ``MAX_THREADS=``."""
    words = blas_config.split()
    return next(w for w, after in zip(words, words[1:]) if after.startswith("MAX_THREADS="))


@pytest.mark.parametrize("workload", ["desk_faros_mr", "compare_matrix"])
def test_records_match_the_reference_under_another_blas_kernel(workload):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS: OPENBLAS_CORETYPE selects nothing")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the kernels named here are x86-64 ones, not {platform.machine()}'s")
    host = _blas()[0]
    if "DYNAMIC_ARCH" not in host:
        pytest.skip(f"this OpenBLAS ({host}) is built for one kernel and cannot switch")
    # Prescott's SSE3 kernels run on every x86-64 CPU
    forced = "Nehalem" if _kernel(host) in ("Prescott", "Katmai") else "Prescott"
    env = {**os.environ, "OPENBLAS_CORETYPE": forced, "PYTHONPATH": str(REPO / "src")}
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    *_, detail, summary = run.stdout.splitlines()
    detail = json.loads(detail)["perfbench"]
    assert _kernel(detail["environment"]["blas"]) != _kernel(host), detail["environment"]
    assert detail["reference"] == "full"
    assert json.loads(summary)["correct"], detail["problems"]
