import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsim import linalg
from fedsim.defenses import (
    DEFENSE_KINDS,
    DISPERSION_SENTINEL,
    ClientUpdate,
    DefenseConfig,
    RoundDiagnostics,
    adaptive_phi,
    aggregate,
    differential_scale,
    faros_aggregate,
    fedavg,
    multi_krum,
    pairwise_scores,
    rcc_filter,
    scope_static_aggregate,
    select_core_set,
    weak_dp,
)
from fedsim.errors import (
    ConfigError,
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
    FedsimError,
    NonFiniteAggregateError,
)

from helpers import (
    brute_force_multi_krum,
    longdouble_cosine,
    make_duplicated_malicious_instance,
    make_separable_instance,
    outcome_bytes,
    plain_cosine,
    scaled_filter_oracle,
)


def _updates(vectors, ids=None):
    ids = ids if ids is not None else range(len(vectors))
    return [ClientUpdate(i, np.asarray(v, dtype=float)) for i, v in zip(ids, vectors)]


def _random_updates(rng, k, dim):
    return _updates([rng.normal(size=dim) for _ in range(k)])


class TestFedavg:
    def test_single(self):
        out = fedavg(_updates([[3.0, -1.0]]))
        assert np.array_equal(out.aggregated_delta, [3.0, -1.0])
        assert out.accepted == [0]

    def test_pair_mean(self):
        out = fedavg(_updates([[2.0], [0.0]]))
        assert np.array_equal(out.aggregated_delta, [1.0])

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=8) for _ in range(6)]
        a = fedavg(_updates(vs, ids=[0, 1, 2, 3, 4, 5]))
        perm = [3, 0, 5, 1, 4, 2]
        b = fedavg(_updates([vs[i] for i in perm], ids=perm))
        assert np.array_equal(a.aggregated_delta, b.aggregated_delta)
        assert a.accepted == b.accepted

    def test_empty(self):
        with pytest.raises(EmptySetError):
            fedavg([])


def _krum(f, select):
    return DefenseConfig(kind="multi_krum", krum_f=f, accept_count=select)


class TestMultiKrum:
    def test_outlier_excluded(self):
        out = multi_krum(_updates([[0.0], [0.0], [0.0], [10.0]]), _krum(0, 2))
        assert out.accepted == [0, 1]
        assert np.array_equal(out.aggregated_delta, [0.0])

    def test_brute_force_oracle_exact(self):
        rng = np.random.default_rng(1)
        for case in range(50):
            k = int(rng.integers(3, 9))
            f = int(rng.integers(0, max(1, (k - 2) // 2)))
            dim = int(rng.integers(2, 10))
            ups = _random_updates(rng, k, dim)
            select = int(rng.integers(1, k + 1))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = multi_krum(ups, _krum(f, select))
            oracle = brute_force_multi_krum(ups, f)
            got = [out.diagnostics.scores[u.client_id] for u in ups]
            assert got == oracle, f"case {case}: scores differ"
            order = sorted(range(k), key=lambda i: (oracle[i], i))
            assert out.accepted == sorted(order[:select])

    def test_permutation_changes_only_labels(self):
        rng = np.random.default_rng(2)
        vs = [rng.normal(size=5) for _ in range(6)]
        a = multi_krum(_updates(vs), _krum(1, 3))
        perm = [5, 3, 1, 0, 2, 4]
        b = multi_krum(_updates([vs[i] for i in perm], ids=perm), _krum(1, 3))
        accepted_a = sorted(tuple(vs[i]) for i in a.accepted)
        accepted_b = sorted(tuple(vs[i]) for i in b.accepted)
        assert accepted_a == accepted_b

    def test_warns_below_byzantine_bound(self):
        ups = _updates([[0.0], [1.0], [2.0], [3.0]])
        with pytest.warns(RuntimeWarning, match="2f"):
            multi_krum(ups, _krum(2, 2))

    def test_bad_select(self):
        with pytest.raises(ConfigError, match="accept_count"):
            multi_krum(_updates([[1.0], [2.0]]), _krum(0, 3))

    def test_overflowing_neighbor_sum_scores_inf(self):
        # each squared distance from the far client is finite; their sum is not
        far = 7.8125e153
        ups = _updates([[far, far], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = multi_krum(ups, _krum(0, 3))
        assert out.diagnostics.scores[0] == math.inf
        assert out.accepted == [1, 2, 3]


class TestWeakDp:
    def test_noop_equals_fedavg_bitwise(self):
        rng = np.random.default_rng(3)
        ups = _random_updates(rng, 5, 6)
        out = weak_dp(ups, DefenseConfig(clip_norm=1e9, noise_std=0.0), seed=0)
        ref = fedavg(ups)
        assert np.array_equal(out.aggregated_delta, ref.aggregated_delta)

    def test_three_four_five_clipping(self):
        ups = _updates([[30.0, 40.0]])
        out = weak_dp(ups, DefenseConfig(clip_norm=5.0, noise_std=0.0), seed=0)
        assert np.allclose(out.aggregated_delta, [3.0, 4.0])

    def test_clips_a_row_whose_norm_overflows_and_keeps_ordinary_rows(self):
        # the first row's norm is inf in float64; the second's is 50
        ups = _updates([[1e308, -1e308, 1e308], [30.0, 0.0, 40.0]])
        out = weak_dp(ups, DefenseConfig(clip_norm=5.0, noise_std=0.0), seed=0)
        root3 = math.sqrt(3.0)
        expected = ([5 / root3, -5 / root3, 5 / root3] + np.array([3.0, 0.0, 4.0])) / 2
        assert np.allclose(out.aggregated_delta, expected, rtol=1e-15, atol=0)
        # with no clipping, the rows stay as they are and their sum overflows
        with pytest.raises(NonFiniteAggregateError):
            aggregate(_updates([[1e308, -1e308, 1e308]] * 2),
                      DefenseConfig(kind="weak_dp", clip_norm=math.inf))

    def test_seeded_noise_reproducible(self):
        rng = np.random.default_rng(4)
        ups = _random_updates(rng, 4, 7)
        cfg = DefenseConfig(clip_norm=5.0, noise_std=0.3)
        a = weak_dp(ups, cfg, seed=11)
        b = weak_dp(ups, cfg, seed=11)
        c = weak_dp(ups, cfg, seed=12)
        assert np.array_equal(a.aggregated_delta, b.aggregated_delta)
        assert not np.array_equal(a.aggregated_delta, c.aggregated_delta)


class TestAdaptivePhi:
    def test_zero_dispersion_gives_max(self):
        assert adaptive_phi(0.0, 3.0, 50.0) == 3.0

    def test_large_dispersion_limit(self):
        assert abs(adaptive_phi(1e6 / 50.0, 3.0, 50.0) - 1.0) <= 1e-9
        assert adaptive_phi(DISPERSION_SENTINEL, 3.0, 50.0) == 1.0

    def test_pinned_closed_form(self):
        # kappa = ln2 / 0.01 makes the exponential exactly one half
        phi = adaptive_phi(0.01, 3.0, math.log(2) / 0.01)
        assert abs(phi - 2.0) <= 1e-12

    def test_strictly_decreasing_and_range(self):
        # grid kept where exp(-kappa d) stays above double resolution
        grid = np.linspace(0.0, 4.0, 200)
        vals = [adaptive_phi(d, 3.0, 5.0) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(1.0 < v <= 3.0 for v in vals)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            adaptive_phi(-0.1, 3.0, 50.0)
        with pytest.raises(ConfigError):
            adaptive_phi(0.1, 1.0, 50.0)
        with pytest.raises(ConfigError):
            adaptive_phi(0.1, 3.0, 0.0)


class TestDifferentialScale:
    def test_identity_at_one(self):
        v = np.array([0.3, -0.8, 1.0, 0.0])
        assert np.array_equal(differential_scale(v, 1.0), v)

    def test_fixed_points(self):
        for phi in (1.0, 1.7, 2.0, 3.0):
            out = differential_scale([-1.0, 0.0, 1.0], phi)
            assert np.array_equal(out, [-1.0, 0.0, 1.0])

    def test_direct_powers(self):
        out = differential_scale([0.5, -0.5], 2.0)
        assert np.allclose(out, [0.25, -0.25])

    def test_sign_range_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.uniform(-1, 1, size=12)
            phi = float(rng.uniform(1.0, 4.0))
            out = differential_scale(v, phi)
            assert np.array_equal(np.sign(out), np.sign(v))
            assert np.all(np.abs(out) <= 1.0)
            assert np.all(np.abs(out) <= np.abs(v) + 1e-15)

    def test_matrix_keeps_its_shape(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-1, 1, size=(5, 9))
        out = differential_scale(m, 2.3)
        assert out.shape == (5, 9)
        assert out.tobytes() == np.stack([differential_scale(v, 2.3) for v in m]).tobytes()

    def test_monotone_in_x(self):
        xs = np.linspace(-1, 1, 101)
        out = differential_scale(xs, 2.5)
        assert np.all(np.diff(out) >= 0)


class TestPairwiseScores:
    def test_identical_vectors(self):
        scores = pairwise_scores([np.ones(4)] * 5)
        assert np.allclose(scores, 0.0)

    def test_hand_oracle(self):
        # distances: (0,1)=0, (0,2)=1, (1,2)=1, self terms 0
        scores = pairwise_scores([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(scores, [1.0, 1.0, 2.0])

    def test_rescale_invariance(self):
        rng = np.random.default_rng(6)
        vs = [rng.normal(size=5) for _ in range(6)]
        base = pairwise_scores(vs)
        scaled = pairwise_scores([c * v for c, v in zip(rng.uniform(0.1, 9, size=6), vs)])
        assert np.allclose(base, scaled, atol=1e-9)


class TestSelectCoreSet:
    def test_full(self):
        assert select_core_set([3.0, 1.0, 2.0], 3) == [0, 1, 2]

    def test_smallest(self):
        assert select_core_set([5.0, 1.0, 3.0], 2) == [1, 2]

    def test_tie_break_lowest(self):
        assert select_core_set([1.0, 1.0, 1.0, 1.0], 2) == [0, 1]

    def test_bad_l(self):
        with pytest.raises(ConfigError):
            select_core_set([1.0, 2.0], 3)


class TestRccFilter:
    def test_identical_clients(self):
        vs = [np.array([1.0, 2.0])] * 6
        centroid, accepted, dists = rcc_filter(vs, [0, 1, 2], 4)
        assert np.allclose(dists, 0.0)
        assert accepted == [0, 1, 2, 3]
        assert np.allclose(centroid, [1.0, 2.0])

    def test_single_member_core(self):
        rng = np.random.default_rng(7)
        vs = [rng.normal(size=4) for _ in range(5)]
        centroid, _, _ = rcc_filter(vs, [2], 3)
        assert np.array_equal(centroid, vs[2])

    def test_parallel_vs_orthogonal(self):
        # 6 parallel honest + 2 orthogonal malicious, verified by plain cosine
        honest = [np.array([1.0, 0.0, 0.0]) * s for s in (1, 2, 3, 0.5, 1.5, 2.5)]
        mal = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        vs = honest + mal
        for h in honest:
            for m in mal:
                assert plain_cosine(h, m) >= 1.0 - 1e-12
        centroid, accepted, dists = rcc_filter(vs, select_core_set(pairwise_scores(vs), 4), 6)
        assert accepted == [0, 1, 2, 3, 4, 5]
        assert all(dists[i] <= 1e-9 for i in range(6))
        assert all(dists[i] >= 0.99 for i in (6, 7))

    def test_degenerate_centroid(self):
        vs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        with pytest.raises(DegenerateCentroidError):
            rcc_filter(vs, [0, 1], 1)


def _cfg(**kw):
    base = dict(kind="faros", core_size=4, accept_count=6, phi_max=3.0,
                kappa=50.0, phi_static=1.5)
    base.update(kw)
    return DefenseConfig(**base)


class TestFarosAggregate:
    def test_identical_clients(self):
        delta = np.array([0.5, -0.25, 1.0, 0.0])  # dyadic values average exactly
        ups = _updates([delta] * 8)
        out = faros_aggregate(ups, _cfg(core_size=3, accept_count=5))
        assert out.accepted == [0, 1, 2, 3, 4]
        assert np.array_equal(out.aggregated_delta, delta)
        assert out.diagnostics.phi_t == 3.0  # zero dispersion

    def test_m_equals_k_matches_fedavg_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(2, 10))
            dim = int(rng.integers(2, 30))
            ups = _random_updates(rng, k, dim)
            out = faros_aggregate(ups, _cfg(core_size=min(4, k), accept_count=k))
            ref = fedavg(ups)
            assert np.array_equal(out.aggregated_delta, ref.aggregated_delta)
            assert out.accepted == ref.accepted

    def test_separable_instance_100_seeds(self):
        for seed in range(100):
            ups = make_separable_instance(seed)
            # verify the construction's premises with plain cosine arithmetic
            honest = [u.delta for u in ups[:6]]
            mal = [u.delta for u in ups[6:]]
            assert max(
                plain_cosine(a, b) for i, a in enumerate(honest) for b in honest[i + 1:]
            ) <= 0.1
            assert min(plain_cosine(m, h) for m in mal for h in honest) >= 1.5
            out = faros_aggregate(ups, _cfg())
            assert out.accepted == [0, 1, 2, 3, 4, 5], seed

    def test_selection_invariant_under_single_client_rescale(self):
        rng = np.random.default_rng(9)
        ups = _random_updates(rng, 8, 10)
        base = faros_aggregate(ups, _cfg(core_size=3, accept_count=5))
        scaled = [ClientUpdate(u.client_id, u.delta * (7.0 if u.client_id == 2 else 1.0))
                  for u in ups]
        out = faros_aggregate(scaled, _cfg(core_size=3, accept_count=5))
        assert out.accepted == base.accepted
        assert out.diagnostics.core_set == base.diagnostics.core_set
        assert np.allclose(
            [out.diagnostics.scores[i] for i in sorted(out.diagnostics.scores)],
            [base.diagnostics.scores[i] for i in sorted(base.diagnostics.scores)],
            atol=1e-9,
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        vs = [rng.normal(size=6) for _ in range(7)]
        a = faros_aggregate(_updates(vs), _cfg(core_size=3, accept_count=4))
        perm = [6, 2, 0, 4, 1, 5, 3]
        b = faros_aggregate(_updates([vs[i] for i in perm], ids=perm),
                            _cfg(core_size=3, accept_count=4))
        assert a.accepted == b.accepted
        assert np.array_equal(a.aggregated_delta, b.aggregated_delta)

    def test_zero_clients_excluded_with_warning(self):
        rng = np.random.default_rng(11)
        vs = [rng.normal(size=5) for _ in range(6)]
        ups = _updates(vs) + [ClientUpdate(6, np.zeros(5))]
        with pytest.warns(RuntimeWarning, match="all-zero"):
            out = faros_aggregate(ups, _cfg(core_size=3, accept_count=5))
        assert 6 not in out.accepted
        assert out.diagnostics.excluded == [6]
        assert not out.diagnostics.fallback

    def test_fallback_when_too_few_survive(self):
        ups = _updates([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            out = faros_aggregate(ups, _cfg(core_size=2, accept_count=3))
        assert out.diagnostics.fallback
        ref = fedavg(ups)
        assert np.array_equal(out.aggregated_delta, ref.aggregated_delta)
        assert out.accepted == [0, 1, 2, 3]

    def test_degenerate_dispersion_uses_sentinel(self):
        # two exactly opposite clients zero out the round centroid
        ups = _updates([[1.0, 0.0], [-1.0, 0.0]])
        out = faros_aggregate(ups, _cfg(core_size=1, accept_count=2))
        assert out.diagnostics.d_t == DISPERSION_SENTINEL
        assert out.diagnostics.phi_t == 1.0


class TestScopeStatic:
    def test_phi_is_static(self):
        rng = np.random.default_rng(12)
        ups = _random_updates(rng, 6, 8)
        out = scope_static_aggregate(ups, _cfg(phi_static=1.5))
        assert out.diagnostics.phi_t == 1.5
        assert len(out.diagnostics.core_set) == 1

    def test_matches_faros_when_constructed(self):
        # force l = 1 and set the static power to the adaptive value
        rng = np.random.default_rng(13)
        ups = _random_updates(rng, 7, 9)
        probe = faros_aggregate(ups, _cfg(core_size=1, accept_count=5))
        static = scope_static_aggregate(
            ups, _cfg(core_size=1, accept_count=5, phi_static=probe.diagnostics.phi_t)
        )
        assert static.accepted == probe.accepted
        assert np.array_equal(static.aggregated_delta, probe.aggregated_delta)

    def test_duplicated_malicious_instance(self):
        # deterministic instance of the single-seed failure: the static
        # single-seed filter admits the duplicate block, the adaptive
        # core-set filter rejects it
        found = 0
        for seed in range(20):
            ups = make_duplicated_malicious_instance(seed)
            cfg = _cfg()
            scope = scope_static_aggregate(ups, cfg)
            faros = faros_aggregate(ups, cfg)
            if any(i < 5 for i in scope.accepted) and not any(i < 5 for i in faros.accepted):
                found += 1
        assert found >= 8  # the capture shows on roughly half the seeds


class TestAggregateDispatch:
    def test_all_kinds_run(self):
        rng = np.random.default_rng(14)
        ups = _random_updates(rng, 6, 8)
        for kind in ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros"):
            cfg = DefenseConfig(kind=kind, core_size=3, accept_count=4, krum_f=1)
            out = aggregate(ups, cfg, seed=5)
            assert out.aggregated_delta.shape == (8,)
            assert len(out.accepted) >= 1

    def test_generator_input_equals_list_input(self):
        rng = np.random.default_rng(16)
        ups = _random_updates(rng, 7, 8)
        for kind in DEFENSE_KINDS:
            cfg = DefenseConfig(kind=kind, krum_f=1, noise_std=0.1)
            a = aggregate(ups, cfg, seed=5)
            b = aggregate((u for u in ups), cfg, seed=5)
            assert np.array_equal(a.aggregated_delta, b.aggregated_delta), kind
            assert a.accepted == b.accepted, kind

    def test_passes_the_config_through_unchanged(self):
        rng = np.random.default_rng(17)
        ups = _random_updates(rng, 7, 8)

        def as_bytes(out):
            return out.aggregated_delta.tobytes(), out.accepted, repr(out.diagnostics)

        # accept_count stays unset, so multi_krum resolves ceil(7/2) = 4 itself
        krum = DefenseConfig(kind="multi_krum", krum_f=1)
        direct = multi_krum(ups, krum)
        assert len(direct.accepted) == 4
        assert as_bytes(aggregate(ups, krum, seed=5)) == as_bytes(direct)
        dp = DefenseConfig(kind="weak_dp", clip_norm=0.5, noise_std=0.1)
        assert as_bytes(aggregate(ups, dp, seed=5)) == as_bytes(weak_dp(ups, dp, 5))

    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_empty_input_raises_empty_set_error(self, kind):
        with pytest.raises(EmptySetError):
            aggregate([], DefenseConfig(kind=kind))

    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_deltas_of_different_lengths_raise_dimension_mismatch(self, kind):
        ups = _updates([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0]], ids=[4, 2, 9])
        # the message names the first client, in id order, that differs from the lowest id's
        with pytest.raises(DimensionMismatchError, match="^client 4 delta has dim 2, expected 3$"):
            aggregate(ups, DefenseConfig(kind=kind))

    @pytest.mark.parametrize("kind,read_only", [
        pytest.param(kind, read_only, id=kind + ("-read_only" if read_only else ""))
        for read_only in (False, True) for kind in DEFENSE_KINDS
    ])
    def test_leaves_the_callers_deltas_untouched(self, kind, read_only):
        rng = np.random.default_rng(18)
        ups = _updates([rng.normal(size=8) * s for s in (0.1, 1.0, 10.0, 0.5, 3.0, 2.0)])
        if read_only:  # as the simulator hands them over: a write in place raises
            for u in ups:
                u.delta.flags.writeable = False
        cfg = DefenseConfig(kind=kind, krum_f=1, clip_norm=1.0, noise_std=0.1)
        # weak_dp clips every delta longer than clip_norm
        assert sum(np.linalg.norm(u.delta) > cfg.clip_norm for u in ups) >= 3
        before = [u.delta.tobytes() for u in ups]
        aggregate(ups, cfg, seed=5)
        assert [u.delta.tobytes() for u in ups] == before

    @pytest.mark.parametrize("kind", DEFENSE_KINDS)
    def test_finite_updates_whose_sum_overflows(self, kind):
        # three finite updates whose row sum is inf: each rule averages all three
        ups = _updates([[1.5e308] * 4] * 3)
        cfg = DefenseConfig(kind=kind, core_size=1, accept_count=2, krum_f=0)
        if kind == "weak_dp":
            # the norm of each row overflows, yet each row clips to norm clip_norm
            out = aggregate(ups, cfg, round=7)
            assert np.array_equal(out.aggregated_delta, [2.5] * 4)
            assert out.accepted == [0, 1, 2]
        else:
            with pytest.raises(NonFiniteAggregateError) as info:
                aggregate(ups, cfg, round=7)
            assert str(info.value).startswith(f"round 7, defense.kind {kind}: ")
            with pytest.raises(NonFiniteAggregateError, match=f"^defense.kind {kind}: "):
                aggregate(ups, cfg)

    @pytest.mark.parametrize("rule", [
        fedavg, multi_krum, scope_static_aggregate, faros_aggregate,
    ], ids=lambda rule: rule.__name__)
    def test_rules_called_directly_raise_on_an_overflowing_aggregate(self, rule):
        # finite updates whose mean overflows; warnings are errors, so none escapes either
        ups = _updates([[1.5e308] * 4] * 3)
        cfg = DefenseConfig(core_size=1, accept_count=2, krum_f=0)
        with pytest.raises(NonFiniteAggregateError, match="^the aggregate of finite updates"):
            rule(ups) if rule is fedavg else rule(ups, cfg)
        # distances between finite deltas that overflow leave the mean finite
        ups = _updates([[1e308] * 2, [-1e308] * 2, [1.0, 2.0]])
        out = rule(ups) if rule is fedavg else rule(ups, cfg)
        assert np.isfinite(out.aggregated_delta).all()

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        ups = _random_updates(rng, 6, 8)
        for kind in ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros"):
            cfg = DefenseConfig(kind=kind, core_size=3, accept_count=4, krum_f=1)
            a = aggregate(ups, cfg, seed=5)
            b = aggregate(ups, cfg, seed=5)
            assert np.array_equal(a.aggregated_delta, b.aggregated_delta), kind


_entries = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.25]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def _filter_cases(draw):
    """Client updates in shuffled id order (some all-zero) plus a filter config."""
    k = draw(st.integers(1, 7))
    dim = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.one_of(st.just([0.0] * dim), st.lists(_entries, min_size=dim, max_size=dim)),
        min_size=k, max_size=k,
    ))
    ids = draw(st.permutations(range(k)))
    ups = [ClientUpdate(i, np.array(r)) for i, r in zip(ids, rows)]
    cfg = DefenseConfig(
        kind="faros",
        core_size=draw(st.none() | st.integers(1, k)),
        accept_count=draw(st.none() | st.integers(1, k)),
        phi_max=draw(st.floats(1.01, 5.0)),
        kappa=draw(st.floats(0.1, 100.0)),
        phi_static=draw(st.floats(1.0, 4.0)),
    )
    return ups, cfg


def _run_with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return outcome_bytes(out), [str(w.message) for w in caught]


def _assert_matches_oracle(ups, cfg):
    faros, faros_warned = _run_with_warnings(faros_aggregate, ups, cfg)
    oracle, oracle_warned = _run_with_warnings(scaled_filter_oracle, ups, cfg, False)
    assert faros == oracle and faros_warned == oracle_warned
    static, static_warned = _run_with_warnings(scope_static_aggregate, ups, cfg)
    oracle, oracle_warned = _run_with_warnings(scaled_filter_oracle, ups, cfg, True)
    assert static == oracle and static_warned == oracle_warned


class TestFilterMatchesPerVectorOracle:
    """The adaptive and static filters equal, byte for byte, the public
    stages composed one vector at a time over Python lists."""

    @given(_filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_rounds(self, case):
        _assert_matches_oracle(*case)

    def test_random_desk_sized_rounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ups = _random_updates(rng, 10, 170)
            _assert_matches_oracle(ups, DefenseConfig(kind="faros"))

    def test_all_zero_deltas_are_excluded_with_a_warning(self):
        rng = np.random.default_rng(22)
        vs = [rng.normal(size=6) for _ in range(6)]
        vs[1] = vs[4] = np.zeros(6)
        cfg = DefenseConfig(kind="faros", core_size=2, accept_count=3)
        _assert_matches_oracle(_updates(vs), cfg)
        (_, _, _, _, _, _, _, excluded, fallback), warned = _run_with_warnings(
            faros_aggregate, _updates(vs), cfg
        )
        assert excluded == [1, 4] and not fallback
        assert [w.split(" sent")[0] for w in warned] == ["client 1", "client 4"]

    def test_degenerate_core_centroid_falls_back(self):
        v = np.array([0.5, -2.0, 1.0])
        cfg = DefenseConfig(kind="faros", core_size=2, accept_count=1)
        _assert_matches_oracle(_updates([v, -v]), cfg)
        out = faros_aggregate(_updates([v, -v]), cfg)
        assert out.diagnostics.fallback and out.diagnostics.d_t == DISPERSION_SENTINEL
        assert out.accepted == [0, 1]

    def test_too_few_live_clients_fall_back(self):
        ups = _updates([np.zeros(3), np.ones(3), np.zeros(3)])
        _assert_matches_oracle(ups, DefenseConfig(kind="faros"))
        (*_, fallback), warned = _run_with_warnings(faros_aggregate, ups, DefenseConfig(kind="faros"))
        assert fallback and len(warned) == 2


class TestStagesAcceptMatrices:
    """A k x D matrix and the list of its rows give the same stage results."""

    def test_same_results_as_row_lists(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(7, 11))
        rows = [row.tolist() for row in m]
        assert linalg.dispersion(m) == linalg.dispersion(rows)
        assert pairwise_scores(m) == pairwise_scores(rows)
        got, want = rcc_filter(m, [1, 4, 5], 4), rcc_filter(rows, [1, 4, 5], 4)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_errors_match_row_lists(self):
        m = np.ones((3, 4))
        m[2, 1] = np.nan
        for stage in (linalg.dispersion, pairwise_scores, lambda vs: rcc_filter(vs, [0], 1)):
            with pytest.raises(ValueError):
                stage(m)
        with pytest.raises(EmptySetError):
            linalg.dispersion(np.ones((1, 4)))
        with pytest.raises(DegenerateCentroidError):
            rcc_filter(np.array([[1.0, 0.0], [-1.0, 0.0]]), [0, 1], 1)


class TestStagesMatchPerPairReference:
    """Each filter stage widens its matrix once; every distance keeps the
    bits of the per-pair reference formula on the float64 rows."""

    @pytest.mark.parametrize("k,dim,seed", [(2, 1, 0), (7, 11, 1), (10, 170, 2), (12, 400, 3)])
    def test_stages_on_a_matrix(self, k, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        m[0] = m[1] * 1.5 + 1e-12 * rng.normal(size=dim)  # a near-parallel pair
        want = np.array([[longdouble_cosine(u, v) if i != j else 0.0 for j, v in enumerate(m)]
                         for i, u in enumerate(m)])
        assert pairwise_scores(m) == want.sum(axis=1).tolist()
        core = [0, k - 1]
        centroid, _, dists = rcc_filter(m, core, 1)
        assert centroid.tobytes() == np.mean(m[core], axis=0).tobytes()
        assert dists == [longdouble_cosine(v, centroid) for v in m]
        mean = np.mean(m, axis=0)
        assert linalg.dispersion(m) == float(np.var([longdouble_cosine(v, mean) for v in m]))


def _stage_matrix(k, dim, seed, clipped, max_exp, repeats):
    """A (k, dim) matrix of nonzero normal rows drawn from ``seed``: clipped to
    [-1, 1] (as after L-inf normalization, many entries exactly +-1) or not,
    each row scaled by 10**e for e in [-max_exp, max_exp], and ``repeats`` rows
    replaced by an earlier row times 1, -1, 2, 0.5 or -3 (repeated or parallel)."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, dim))
    if clipped:
        m = np.clip(m, -1.0, 1.0)
    m *= 10.0 ** rng.integers(-max_exp, max_exp + 1, size=(k, 1))
    for i in rng.integers(1, k, size=repeats):
        m[i] = m[rng.integers(0, i)] * rng.choice([1.0, -1.0, 2.0, 0.5, -3.0])
    return m


def _reference_distance(a, b, na, nb) -> float:
    """The per-pair formula on long-double rows ``a``, ``b`` of norms ``na``, ``nb``."""
    return min(max(1.0 - float(a.dot(b) / (na * nb)), 0.0), 2.0)


class TestStagesEqualPerPairReferenceProperty:
    """``pairwise_scores`` and ``centroid_distances`` (so ``dispersion`` and
    ``rcc_filter`` too) keep, bit for bit, the per-pair formula with every
    dot product and squared norm a sequential long-double ``ndarray.dot``.
    A vectorized kernel that takes the squared norms from another reduction
    (such as ``np.einsum``) is off by an ulp on some matrices."""

    @given(
        k=st.integers(2, 40),
        # small sizes, the model sizes in use (170, 874) and larger ones
        dim=st.integers(1, 16) | st.sampled_from([170, 874, 2001, 5000]),
        seed=st.integers(0, 2**32 - 1),
        clipped=st.booleans(),
        max_exp=st.sampled_from([0, 3, 150]),
        repeats=st.integers(0, 3),
    )
    # a kernel taking the squared norms from np.einsum("ij,ij->i", w, w) failed 5 of
    # 2000 drawn matrices; it fails these, on the centroid distances and the scores
    @example(k=2, dim=874, seed=2, clipped=True, max_exp=0, repeats=0)
    @example(k=2, dim=874, seed=123, clipped=True, max_exp=150, repeats=0)
    @example(k=3, dim=170, seed=129, clipped=False, max_exp=3, repeats=0)
    @example(k=6, dim=2001, seed=132, clipped=True, max_exp=150, repeats=0)
    @settings(max_examples=200, deadline=None)
    def test_stages_equal_the_reference(self, k, dim, seed, clipped, max_exp, repeats):
        m = _stage_matrix(k, dim, seed, clipped, max_exp, repeats)
        wide = m.astype(np.longdouble)
        norms = [np.sqrt(v.dot(v)) for v in wide]
        dists = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                dists[i, j] = dists[j, i] = _reference_distance(
                    wide[i], wide[j], norms[i], norms[j])
        assert pairwise_scores(m) == dists.sum(axis=1).tolist()

        core = sorted(np.random.default_rng(seed).permutation(k)[: 1 + seed % k].tolist())
        for rows in (slice(None), core):
            centroid = np.mean(m[rows], axis=0)
            if not np.any(centroid):
                with pytest.raises(DegenerateCentroidError):
                    linalg.centroid_distances(m, rows)
                continue
            wide_centroid = centroid.astype(np.longdouble)
            norm = np.sqrt(wide_centroid.dot(wide_centroid))
            want = [_reference_distance(v, wide_centroid, n, norm) for v, n in zip(wide, norms)]
            got_centroid, got = linalg.centroid_distances(m, rows)
            assert got_centroid.tobytes() == centroid.tobytes()
            assert got == want
            if rows is core:
                assert rcc_filter(m, core, 1)[2] == want
            else:
                assert linalg.dispersion(m) == float(np.var(want))


# one unit in the last place of 1.0: a row times (1 + _ULP) is a near-tie of the row
_ULP = 2.0**-52
_TINY, _HUGE = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)
# each entry 0 or of magnitude 1e-3..1, so a row times 10**e (|e| <= 300) stays normal
_direction = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def _round_matrices(draw):
    """A (k, P) delta matrix with rows of magnitude 1e-300 to 1e300, about 10% of
    them zero and 15% repeating an earlier row exactly or within one ulp."""
    k, dim = draw(st.integers(2, 9)), draw(st.integers(1, 12))
    rows = []
    for _ in range(k):
        pick = draw(st.integers(0, 19))
        if pick < 2:
            rows.append(np.zeros(dim))
        elif pick < 5 and rows:
            row = draw(st.sampled_from(rows))
            rows.append(row * (1.0 + _ULP) if pick == 4 else row.copy())
        else:
            direction = draw(st.lists(_direction, min_size=dim, max_size=dim))
            rows.append(np.array(direction) * 10.0 ** draw(st.integers(-300, 300)))
    return np.array(rows)


def _rule_cfg(draw, k: int, kind: str) -> DefenseConfig:
    return DefenseConfig(
        kind=kind,
        core_size=draw(st.none() | st.integers(1, k)),
        accept_count=draw(st.none() | st.integers(1, k)),
        krum_f=draw(st.integers(0, 2)),
        noise_std=draw(st.sampled_from([0.0, 0.5])),
        clip_norm=draw(st.sampled_from([1.0, math.inf])),
    )


def _aggregate(m: np.ndarray, cfg: DefenseConfig, ids=None):
    """The rule's outcome on the rows of ``m`` sent as clients ``ids`` (by default
    0, 1, ...) in that order, and what it carries (or its error's type and text).
    Any warning other than a rule's own fails."""
    ids = list(range(len(m))) if ids is None else ids
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = aggregate(_updates(m[ids], ids), cfg, seed=5)
        except FedsimError as e:
            out = None
            got = (type(e).__name__, str(e))
        else:
            got = outcome_bytes(out)
    assert all(str(w.message).startswith(("client ", "multi-krum ")) for w in caught)
    return out, got


class TestRuleProperties:
    """Properties every aggregation rule keeps on any finite (k, P) matrix."""

    @given(_round_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permutation_finiteness_and_accepted_ids(self, m, data):
        k = len(m)
        perm = data.draw(st.permutations(range(k)))
        for kind in DEFENSE_KINDS:
            cfg = _rule_cfg(data.draw, k, kind)
            out, got = _aggregate(m, cfg)
            assert _aggregate(m, cfg, perm)[1] == got, kind
            if out is not None:
                assert np.isfinite(out.aggregated_delta).all(), kind
                assert set(out.accepted) <= set(range(k)), kind
                assert isinstance(out.diagnostics, RoundDiagnostics)

    @given(_round_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_row_scale_keeps_the_filter_choices(self, m, data):
        k = len(m)
        row = data.draw(st.integers(0, k - 1))
        live = np.abs(m[row][m[row] != 0]).tolist() or [1.0]
        # 2**j keeps every entry of the row normal and the sum of k such rows finite
        low = math.ceil(math.log2(_TINY) - math.log2(min(live)))
        high = math.floor(math.log2(_HUGE) - math.log2(k * max(live)))
        j = data.draw(st.integers(max(low, -64), min(high, 64)))
        scaled = m.copy()
        scaled[row] *= 2.0**j
        assume(np.all(np.abs(scaled[row][scaled[row] != 0]) >= _TINY))
        for kind in ("faros", "scope_static"):
            cfg = _rule_cfg(data.draw, k, kind)
            a, b = _aggregate(m, cfg)[0], _aggregate(scaled, cfg)[0]
            assert (a.accepted, a.diagnostics.core_set) == (b.accepted, b.diagnostics.core_set)

    @given(_round_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_faros_accepting_everyone_is_fedavg(self, m, data):
        k = len(m)
        cfg = dataclasses.replace(_rule_cfg(data.draw, k, "faros"), accept_count=k)
        # rows of at most 1e300 cannot overflow a mean, so both rules return
        out = _aggregate(m, cfg)[0]
        want = _aggregate(m, DefenseConfig(kind="fedavg"))[0]
        assert out.aggregated_delta.tobytes() == want.aggregated_delta.tobytes()
        assert out.accepted == want.accepted
