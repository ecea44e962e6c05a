"""Acceptance suite: one test per criterion, each printing a PASS line.

End-to-end criteria run the desk scenario from tests/helpers.py
(standard_config). Runs are cached per configuration so criteria sharing a
run (clean references, timing) do not repeat work; the timing criterion adds
two more timed pairs of its own. Run with `pytest
tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import statistics
import time
import warnings

import numpy as np

from fedsim import linalg
from fedsim.attacks import cosine_loss_and_grad
from fedsim.cli import main as cli_main
from fedsim.data import Example, TriggerSpec
from fedsim.defenses import (
    ClientUpdate,
    DefenseConfig,
    adaptive_phi,
    differential_scale,
    faros_aggregate,
    fedavg,
    multi_krum,
    scope_static_aggregate,
)
from fedsim.model import ModelSpec, loss_and_grad
from fedsim.sim import run_simulation

from helpers import (
    STANDARD_SEED,
    brute_force_multi_krum,
    finite_diff_grad,
    make_duplicated_malicious_instance,
    rel_grad_error,
    stacked,
    standard_config,
)

# Seed conventions, frozen once: single-run criteria use the standard desk
# seed; the multi-seed defense criterion uses five consecutive seeds starting
# from the package's original default.
MULTI_SEEDS = (7, 8, 9, 10, 11)

_run_cache = {}


def cached_run(cfg):
    key = repr(cfg)
    if key not in _run_cache:
        t0 = time.perf_counter()
        records = run_simulation(cfg)
        _run_cache[key] = (records, time.perf_counter() - t0)
    return _run_cache[key]


def report(n, name, detail):
    print(f"ACCEPTANCE {n:2d} {name}: PASS ({detail})")


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    specs = [ModelSpec(16, 10), ModelSpec(8, 5, hidden_dim=12)]
    for i in range(80):
        spec = specs[i % 2]
        params = rng.normal(scale=0.6, size=spec.param_count())
        batch = stacked([
            Example(rng.normal(size=spec.input_dim), int(rng.integers(spec.num_classes)))
            for _ in range(int(rng.integers(1, 6)))
        ])
        _, grad = loss_and_grad(params, spec, batch)
        fd = finite_diff_grad(lambda p: loss_and_grad(p, spec, batch)[0], params)
        worst = max(worst, rel_grad_error(grad, fd))
    for _ in range(20):  # the attacker's stealth term
        dim = int(rng.integers(3, 40))
        g = rng.normal(size=dim)
        p = rng.normal(size=dim)
        _, grad = cosine_loss_and_grad(p, g)
        fd = finite_diff_grad(lambda x: cosine_loss_and_grad(x, g)[0], p)
        worst = max(worst, rel_grad_error(grad, fd))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    report(1, "gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_unit_law_suite():
    t0 = time.perf_counter()
    # scaling fixed points
    assert np.array_equal(differential_scale([-1.0, 0.0, 1.0], 2.7), [-1.0, 0.0, 1.0])
    assert np.allclose(differential_scale([0.5, -0.5], 2.0), [0.25, -0.25])
    # adaptive power laws
    assert adaptive_phi(0.0, 3.0, 50.0) == 3.0
    # open-below range, checked where exp(-kappa d) stays above double resolution
    for d in np.linspace(0.0, 0.6, 50):
        assert 1.0 < adaptive_phi(d, 3.0, 50.0) <= 3.0
    assert abs(adaptive_phi(1e6 / 50.0, 3.0, 50.0) - 1.0) <= 1e-9
    # cosine range and self-distance
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert 0.0 <= linalg.cosine_distance(a, b) <= 2.0
        assert linalg.cosine_distance(a, a) == 0.0
    # projection 3-4-5
    from fedsim.attacks import pgd_project

    assert np.allclose(pgd_project(np.array([3.0, 4.0]), np.zeros(2), 1.0), [0.6, 0.8])
    # multi-krum outlier case
    ups = [ClientUpdate(i, np.array([v])) for i, v in enumerate([0.0, 0.0, 0.0, 10.0])]
    assert multi_krum(ups, DefenseConfig(krum_f=0, accept_count=2)).accepted == [0, 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "unit-law suite", f"{elapsed:.2f}s")


def test_criterion_03_multi_krum_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for case in range(200):
        k = int(rng.integers(3, 9))
        f = int(rng.integers(0, max(1, (k - 2) // 2)))
        dim = int(rng.integers(2, 12))
        select = int(rng.integers(1, k + 1))
        ups = [ClientUpdate(i, rng.normal(size=dim)) for i in range(k)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = multi_krum(ups, DefenseConfig(krum_f=f, accept_count=select))
        oracle = brute_force_multi_krum(ups, f)
        got = [out.diagnostics.scores[i] for i in range(k)]
        assert got == oracle, f"case {case}"
        order = sorted(range(k), key=lambda i: (oracle[i], i))
        assert out.accepted == sorted(order[:select]), f"case {case}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, "multi-krum oracle equivalence", f"200 instances exact, {elapsed:.1f}s")


def test_criterion_04_fedavg_equivalence():
    rng = np.random.default_rng(300)
    for case in range(100):
        k = int(rng.integers(2, 12))
        dim = int(rng.integers(2, 50))
        ups = [ClientUpdate(i, rng.normal(size=dim)) for i in range(k)]
        cfg = DefenseConfig(kind="faros", core_size=int(rng.integers(1, k + 1)), accept_count=k)
        out = faros_aggregate(ups, cfg)
        ref = fedavg(ups)
        assert np.array_equal(out.aggregated_delta, ref.aggregated_delta), f"case {case}"
    report(4, "fedavg equivalence at m=k", "100 fuzzed sets, 0 ulp")


def _clean_configs():
    return (
        standard_config(defense="fedavg", attack="none", malicious=0),
        standard_config(defense="faros", attack="none", malicious=0),
    )


def _clean_refs():
    fed, far = _clean_configs()
    return cached_run(fed), cached_run(far)


def test_criterion_05_clean_run_utility():
    (fed_recs, t_fed), (far_recs, t_far) = _clean_refs()
    acc_fed, acc_far = fed_recs[-1].acc, far_recs[-1].acc
    assert t_fed + t_far <= 60.0
    assert acc_fed >= 0.90 and acc_far >= 0.90
    assert abs(acc_fed - acc_far) <= 0.01
    report(5, "clean-run utility",
           f"fedavg {acc_fed:.3f} vs faros {acc_far:.3f}, {t_fed + t_far:.1f}s")


def test_criterion_06_attack_potency():
    cfg = standard_config(defense="fedavg", attack="model_replacement")
    recs, _ = cached_run(cfg)
    assert recs[-1].asr >= 0.80
    report(6, "attack potency control", f"fedavg ASR {recs[-1].asr:.3f}")


def test_criterion_07_defense_effectiveness():
    _, (far_recs, _) = _clean_refs()
    clean_acc = far_recs[-1].acc
    asrs, accs = [], []
    for seed in MULTI_SEEDS:
        cfg = standard_config(defense="faros", attack="model_replacement", seed=seed)
        recs, _ = cached_run(cfg)
        asrs.append(recs[-1].asr)
        accs.append(recs[-1].acc)
    assert max(asrs) <= 0.10, asrs
    assert all(abs(a - clean_acc) <= 0.02 for a in accs), accs
    report(7, "defense effectiveness",
           f"ASR max {max(asrs):.3f} over {len(MULTI_SEEDS)} seeds, ACC within "
           f"{max(abs(a - clean_acc) for a in accs) * 100:.1f}pt of clean")


def test_criterion_08_ads_responsiveness():
    d_means = {0.9: [], 0.1: []}
    phi_means = {0.9: [], 0.1: []}
    for seed in MULTI_SEEDS:
        for alpha in (0.9, 0.1):
            cfg = standard_config(
                defense="faros", attack="constrain_and_scale",
                seed=seed, alpha=alpha, force_c=3, epochs=12, rounds=60,
            )
            recs, _ = cached_run(cfg)
            d_means[alpha].append(np.mean([r.d_t for r in recs]))
            phi_means[alpha].append(np.mean([r.phi_t for r in recs]))
    d_stealthy, d_aggressive = np.mean(d_means[0.9]), np.mean(d_means[0.1])
    p_stealthy, p_aggressive = np.mean(phi_means[0.9]), np.mean(phi_means[0.1])
    assert d_stealthy < d_aggressive
    assert p_stealthy > p_aggressive
    per_seed = sum(
        d9 < d1 and p9 > p1
        for d9, d1, p9, p1 in zip(d_means[0.9], d_means[0.1], phi_means[0.9], phi_means[0.1])
    )
    assert per_seed == len(MULTI_SEEDS)
    report(8, "ads responsiveness",
           f"D {d_stealthy:.4f} < {d_aggressive:.4f}, phi {p_stealthy:.2f} > "
           f"{p_aggressive:.2f}, {per_seed}/{len(MULTI_SEEDS)} seeds")


def test_criterion_09_rcc_vs_single_seed():
    cfg = DefenseConfig(kind="faros", core_size=4, accept_count=6,
                        phi_max=3.0, kappa=50.0, phi_static=1.5)
    scope_bad = faros_bad = 0
    for seed in range(100):
        ups = make_duplicated_malicious_instance(seed)
        scope = scope_static_aggregate(ups, cfg)
        far = faros_aggregate(ups, cfg)
        scope_bad += any(i < 5 for i in scope.accepted)
        faros_bad += any(i < 5 for i in far.accepted)
    assert scope_bad >= 50
    assert faros_bad <= 5
    report(9, "rcc vs single-seed baseline",
           f"static single-seed fooled {scope_bad}/100, adaptive core-set {faros_bad}/100")


def test_criterion_10_detection_quality():
    trigger = TriggerSpec((13, 14, 15), (5.0, -5.0, 5.0), 0)
    cfg = standard_config(
        defense="faros", attack="edge_case_pgd", seed=STANDARD_SEED,
        trigger=trigger, accept_count=8, pgd_radius=2.0, edge_fraction=0.95,
    )
    recs, _ = cached_run(cfg)
    tail = [r for r in recs if r.round > 20]
    recalls = [r.tp / (r.tp + r.fn) for r in tail if r.tp + r.fn > 0]
    precisions = [r.tp / (r.tp + r.fp) for r in tail if r.tp + r.fp > 0]
    recall, precision = float(np.mean(recalls)), float(np.mean(precisions))
    assert recall >= 0.90
    assert precision >= 0.80
    report(10, "detection quality", f"recall {recall:.3f}, precision {precision:.3f}")


def test_criterion_11_compare_determinism(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        code = cli_main([
            "compare", "--config", "configs/compare_small.cfg",
            "--out", str(out), "--set", "parallel_clients=true",
        ])
        assert code == 0
        outs.append((out / "compare_matrix.csv").read_bytes())
    assert outs[0] == outs[1]
    serial_out = tmp_path / "serial"
    code = cli_main([
        "compare", "--config", "configs/compare_small.cfg", "--out", str(serial_out),
    ])
    assert code == 0
    assert (serial_out / "compare_matrix.csv").read_bytes() == outs[0]
    report(11, "compare determinism", "byte-identical across runs and parallelism")


def _timed_run(cfg) -> float:
    t0 = time.perf_counter()
    run_simulation(cfg)
    return time.perf_counter() - t0


def test_criterion_12_efficiency():
    # A host whose CPU speed switches for seconds at a time can push one
    # pair of runs past the bound while the typical ratio is far below it,
    # so the ratio is the median over three fedavg/faros pairs: the cached
    # pair and two more, each timed back to back.
    (_, t_fed), (_, t_far) = _clean_refs()
    fed, far = _clean_configs()
    ratios = [t_far / t_fed]
    for _ in range(2):
        t_fed = _timed_run(fed)
        ratios.append(_timed_run(far) / t_fed)
    ratio = statistics.median(ratios)
    assert ratio <= 1.5
    report(12, "efficiency",
           f"faros/fedavg wall ratio {ratio:.2f} (median of {', '.join(f'{r:.2f}' for r in ratios)})")
