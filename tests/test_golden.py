"""Golden records: the benchmark workloads reproduce their stored references.

Each workload runs once at seed 7 exactly as the benchmark runs it, and its
output is checked against ``perfbench/reference/`` (full record CSVs, the
compare matrix byte for byte) by the benchmark's own checker. A refactor that
changes any accepted id, ACC/ASR value or detection count fails here.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from fedsim import config  # noqa: E402
from perfbench import check, workloads  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", ["desk_faros_mr", "desk_fedavg_clean", "wide_faros_pgd_mlp"])
def test_library_workload_matches_reference(workload, tmp_path):
    result = workloads.run_library(workload, SEED, str(tmp_path))
    sim_cfg = config.build_config(workloads.raw_config(workload, SEED)).sim
    problems, kind = check.check_output(
        workload, SEED, check.strip_wall_ms(result.output), check.load_table(), sim_cfg
    )
    assert kind == "full"
    assert problems == []


def test_compare_matrix_matches_reference(tmp_path):
    result = workloads.run_compare(SEED, str(tmp_path), timers=False, parallel=False)
    assert result.exit_code == 0
    problems, kind = check.check_output("compare_matrix", SEED, result.output, check.load_table())
    assert kind == "full"
    assert problems == []
