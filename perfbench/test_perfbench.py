"""Self-tests of the benchmark: output check, span self time, seeded inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys
import tempfile
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from fedsim import config, sim  # noqa: E402
from perfbench import check, tracing, workloads  # noqa: E402


def _reference(workload="desk_faros_mr", seed=18):
    with open(check.reference_path(workload, seed), newline="") as f:
        return f.read()


def _replace_field(text, round_no, column, new_value):
    lines = text.splitlines()
    cols = lines[0].split(",")
    row = lines[round_no].split(",")
    row[cols.index(column)] = new_value
    lines[round_no] = ",".join(row)
    return "\n".join(lines) + "\n"


# -- output check ---------------------------------------------------------------


def test_reference_matches_itself():
    ref = _reference()
    assert check.compare_records(ref, ref) == []
    assert check.check_consistency("desk_faros_mr", ref) == []


def test_check_rejects_one_flipped_accepted_id():
    ref = _reference()
    accepted = [int(i) for i in ref.splitlines()[5].split(",")[5].split(";")]
    outsider = min(set(range(50)) - set(accepted))
    flipped_ids = sorted(accepted[1:] + [outsider])
    flipped = _replace_field(ref, 5, "accepted", ";".join(map(str, flipped_ids)))
    problems = check.compare_records(ref, flipped)
    assert len(problems) == 1 and "accepted" in problems[0]
    entry = check.compact_reference("desk_faros_mr", flipped)
    assert any("exact" in p for p in check.compare_compact("desk_faros_mr", ref, entry))


def test_d_t_compared_within_tolerance():
    ref = _reference()
    d_t = float(ref.splitlines()[3].split(",")[3])
    near = _replace_field(ref, 3, "d_t", repr(d_t * (1 + check.RTOL / 10)))
    far = _replace_field(ref, 3, "d_t", repr(d_t * (1 + check.RTOL * 10)))
    assert check.compare_records(near, ref) == []
    assert len(check.compare_records(far, ref)) == 1


def test_matrix_compared_byte_for_byte():
    ref = _reference("compare_matrix")
    table = {}
    assert check.check_output("compare_matrix", 18, ref, table) == ([], "full")
    problems, _ = check.check_output("compare_matrix", 18, ref.replace("0.695", "0.69500"), table)
    assert problems


# -- span self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("outer", 1, None, 0, 0.0, 10.0),
        ("mid", 2, 1, 0, 2.0, 5.0),
        ("inner", 3, 2, 0, 3.0, 4.0),
        ("mid", 4, 1, 0, 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == {"outer": 6.0, "mid": 3.0, "inner": 1.0}


def test_self_time_with_children_on_two_threads():
    # Two workers' spans overlap in [4, 6]; the parent is covered by [1, 8] only once.
    spans = [
        ("round", 1, None, 100, 0.0, 10.0),
        ("train", 2, 1, 200, 1.0, 6.0),
        ("train", 3, 1, 300, 4.0, 8.0),
    ]
    assert tracing.self_times(spans) == {"round": 3.0, "train": 9.0}


def _fake_package():
    """pbfake.sim: run() fans work() out to a thread pool, as sim.run_round does."""
    pkg = types.ModuleType("pbfake")
    mod = types.ModuleType("pbfake.sim")
    mod.ThreadPoolExecutor = ThreadPoolExecutor

    def work(i):
        time.sleep(0.02)
        return i

    def run():
        time.sleep(0.01)
        with mod.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda i: mod.work(i), range(2)))

    mod.work, mod.run = work, run
    return {"pbfake": pkg, "pbfake.sim": mod}


def test_tracer_parents_worker_spans_to_the_submitting_span(monkeypatch):
    modules = _fake_package()
    for name, m in modules.items():
        monkeypatch.setitem(sys.modules, name, m)
    fake = modules["pbfake.sim"]
    original = fake.work
    with tracing.Tracer(timed=("sim.run", "sim.work"), counted=(), hooks={}, package="pbfake") as tr:
        tr.begin_op()
        assert fake.run() == [0, 1]
        spans, _ = tr.end_op()
    assert fake.work is original and fake.ThreadPoolExecutor is ThreadPoolExecutor
    (run_span,) = [s for s in spans if s[0] == "sim.run"]
    workers = [s for s in spans if s[0] == "sim.work"]
    assert len(workers) == 2
    assert all(s[2] == run_span[1] for s in workers)
    assert {s[3] for s in workers} != {threading.get_ident()}
    selfs = tracing.self_times(spans)
    covered = max(s[5] for s in workers) - min(s[4] for s in workers)
    assert selfs["sim.run"] == pytest.approx(run_span[5] - run_span[4] - covered, abs=1e-9)


def test_tracer_counts_layers_of_a_short_desk_run():
    with tempfile.TemporaryDirectory() as work_dir, tracing.Tracer() as tr:
        tr.begin_op()
        workloads.run_library("desk_faros_mr", 18, work_dir, rounds=2)
        layers = tracing.layer_metrics(*tr.end_op())
    # 10 clients a round, 2 of them pinned attackers that train through local_train too.
    assert layers["model.local_train.calls"] == 20
    assert layers["attacks.malicious_local_train.calls"] == 4
    assert layers["defenses.aggregate.calls"] == 2
    # 45 pairwise + 10 dispersion + 10 centroid distances per faros round.
    assert layers["linalg.cosine_distance.calls"] == 130
    assert layers["defenses.accept_share"] == 0.5
    assert layers["config.build_config.calls"] == 1 and layers["sim.build_state.calls"] == 1
    assert sim.local_train.__module__ == "fedsim.model" and not hasattr(sim.local_train, "__wrapped__")


# -- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["desk_faros_mr", "desk_fedavg_clean", "wide_faros_pgd_mlp"])
def test_seed_changes_inputs_deterministically(workload):
    def dataset(seed):
        state = sim.build_state(config.build_config(workloads.raw_config(workload, seed)).sim)
        return [e.features.tobytes() for e in state.dataset], state.partition

    assert workloads.raw_config(workload, 3) == workloads.raw_config(workload, 3)
    assert dataset(3) == dataset(3)
    assert dataset(3) != dataset(4)


def test_compare_seed_reaches_the_cli():
    argv = workloads.compare_argv("c.cfg", "out", 5)
    assert argv[argv.index("--seed") + 1] == "5"


def test_layer_map_covers_every_per_layer_metric():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["layers"]
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    named = {w["name"] for w in bench["workloads"]}
    assert named <= set(workloads.WORKLOADS)
    mapped = [m for row in layers for m in row["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    for row in layers:
        for workload, metrics in row["moves"].items():
            assert workload in workloads.WORKLOADS and set(metrics) <= end_to_end
        assert set(row.get("unchanged", []) + row.get("small", [])) <= set(workloads.WORKLOADS)
