import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import (
    Example,
    Samples,
    TriggerSpec,
    apply_trigger,
    blob_arrays,
    dirichlet_partition,
    edge_case_pool,
    gen_blobs,
    poison_dataset,
    triggered_rows,
)
from fedsim.errors import ConfigError, DimensionMismatchError

from helpers import dirichlet_partition_oracle, poison_dataset_oracle, stacked


class TestGenBlobs:
    def test_counts(self):
        ds = gen_blobs(10, 16, 100, 6.0, 7)
        assert len(ds) == 1000
        per_class = {}
        for e in ds:
            per_class[e.label] = per_class.get(e.label, 0) + 1
        assert all(per_class[c] == 100 for c in range(10))

    def test_determinism(self):
        a = gen_blobs(5, 8, 20, 4.0, 3)
        b = gen_blobs(5, 8, 20, 4.0, 3)
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))
        assert all(x.label == y.label for x, y in zip(a, b))

    def test_center_separation(self):
        ds = gen_blobs(6, 10, 200, 5.0, 11)
        centers = []
        for c in range(6):
            feats = np.stack([e.features for e in ds if e.label == c])
            centers.append(feats.mean(axis=0))
        for i in range(6):
            for j in range(i + 1, 6):
                # empirical means sit close to true centers, so allow slack
                assert np.linalg.norm(centers[i] - centers[j]) > 5.0 - 0.5

    def test_nearest_centroid_oracle(self):
        # held-out split shares the class centers with the train split
        ds = gen_blobs(10, 16, 200, 8.0, 5)
        train, held = [], []
        for c in range(10):
            block = [e for e in ds if e.label == c]
            train.extend(block[:100])
            held.extend(block[100:])
        means = {
            c: np.stack([e.features for e in train if e.label == c]).mean(axis=0)
            for c in range(10)
        }
        correct = 0
        for e in held:
            pred = min(means, key=lambda c: np.linalg.norm(e.features - means[c]))
            correct += pred == e.label
        assert correct / len(held) >= 0.99

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            gen_blobs(1, 16, 10, 6.0, 0)
        with pytest.raises(ConfigError):
            gen_blobs(10, 1, 10, 6.0, 0)
        with pytest.raises(ConfigError):
            gen_blobs(10, 16, 0, 6.0, 0)
        with pytest.raises(ConfigError):
            gen_blobs(10, 16, 10, 0.0, 0)


class TestSamples:
    def test_rows_and_views(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        ds = Samples(x, [2, 0, 1, 2])
        assert len(ds) == 4 and ds.x is x and ds.y.dtype == np.intp
        assert [e.label for e in ds] == [2, 0, 1, 2]
        assert [e.features.tolist() for e in ds] == x.tolist()
        assert all(np.shares_memory(e.features, x) for e in ds)
        sub = ds.take([3, 0])
        assert sub.x.tolist() == [[9, 10, 11], [0, 1, 2]] and sub.y.tolist() == [2, 2]
        assert not np.shares_memory(sub.x, x)

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            Samples(np.zeros((3, 2)), [0, 1])
        with pytest.raises(DimensionMismatchError):
            Samples(np.zeros(3), [0, 1, 2])

    def test_blob_arrays_are_the_per_class_draws(self):
        # centers first, then one standard-normal block per class in class order
        got = blob_arrays(4, 6, 9, 5.0, 21)
        rng = np.random.default_rng(21)
        centers = rng.normal(size=(4, 6))
        d = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
        centers *= 5.0 / d[np.triu_indices(4, k=1)].min()
        want = np.concatenate([c + rng.standard_normal(size=(9, 6)) for c in centers])
        assert got.x.tobytes() == want.tobytes()
        assert got.y.tolist() == [c for c in range(4) for _ in range(9)]
        listed = gen_blobs(4, 6, 9, 5.0, 21)
        assert [e.label for e in listed] == got.y.tolist()
        assert np.stack([e.features for e in listed]).tobytes() == want.tobytes()


def _check_partition(part, n, num_clients):
    seen = set()
    for cid in range(num_clients):
        idxs = part[cid]
        assert len(idxs) > 0, f"client {cid} empty"
        for i in idxs:
            assert i not in seen, "index assigned twice"
            seen.add(i)
    assert seen == set(range(n)), "partition does not cover the dataset"


class TestDirichletPartition:
    def test_partition_laws_fuzzed(self):
        rng = np.random.default_rng(0)
        for case in range(1000):
            num_classes = int(rng.integers(2, 11))
            n = int(rng.integers(30, 200))
            num_clients = int(rng.integers(1, 21))
            if n < num_clients:
                continue
            q = float(rng.choice([0.05, 0.2, 0.5, 1.0, 10.0]))
            labels = rng.integers(0, num_classes, size=n)
            part = dirichlet_partition(labels, num_clients, q, int(rng.integers(1 << 30)))
            _check_partition(part, n, num_clients)

    def test_equals_the_per_chunk_oracle(self):
        # q down to 0.01 with up to 59 clients starves clients, so the
        # repair step runs in about half of the cases
        rng = np.random.default_rng(3)
        for case in range(600):
            num_classes = int(rng.integers(2, 11))
            n = int(rng.integers(1, 60)) * num_classes
            num_clients = int(rng.integers(1, 60))
            if n < num_clients:
                continue
            q = float(rng.choice([0.01, 0.1, 0.4, 1.0, 10.0]))
            labels = rng.permutation(np.arange(n) % num_classes)
            seed = int(rng.integers(1 << 30))
            want = dirichlet_partition_oracle(labels, num_clients, q, seed)
            got = dirichlet_partition(labels, num_clients, q, seed)
            assert got == want, case
            assert all(type(v) is list and all(type(i) is int for i in v) for v in got.values())

    def test_near_uniform_at_huge_q(self):
        labels = np.repeat(np.arange(10), 100)
        for seed in range(20):
            part = dirichlet_partition(labels, 10, 1e6, seed)
            for cid in range(10):
                idxs = part[cid]
                hist = np.bincount(labels[idxs], minlength=10) / len(idxs)
                assert np.all(np.abs(hist - 0.1) <= 0.2 * 0.1), (seed, cid, hist)

    def test_low_q_more_heterogeneous(self):
        labels = np.repeat(np.arange(10), 100)

        def mean_entropy(q, seed):
            part = dirichlet_partition(labels, 10, q, seed)
            ents = []
            for idxs in part.values():
                p = np.bincount(labels[idxs], minlength=10) / len(idxs)
                p = p[p > 0]
                ents.append(-np.sum(p * np.log(p)))
            return np.mean(ents)

        lo = np.mean([mean_entropy(0.05, s) for s in range(20)])
        hi = np.mean([mean_entropy(1e6, s) for s in range(20)])
        assert lo < hi

    def test_determinism(self):
        labels = np.repeat(np.arange(5), 40)
        a = dirichlet_partition(labels, 7, 0.4, 9)
        b = dirichlet_partition(labels, 7, 0.4, 9)
        assert a == b

    def test_bad_q(self):
        with pytest.raises(ConfigError):
            dirichlet_partition([0, 1, 0, 1], 2, 0.0, 0)
        with pytest.raises(ConfigError):
            dirichlet_partition([0, 1, 0, 1], 2, -1.0, 0)


class TestTrigger:
    def test_direct_substitution(self):
        e = Example(np.array([0.1, 0.2]), 1)
        t = TriggerSpec((1,), (9.0,), 3)
        out = apply_trigger(e, t)
        assert np.allclose(out.features, [0.1, 9.0])
        assert out.label == 3
        assert np.allclose(e.features, [0.1, 0.2])  # original untouched

    def test_empty_positions(self):
        e = Example(np.array([1.0, 2.0]), 1)
        out = apply_trigger(e, TriggerSpec((), (), 4))
        assert np.array_equal(out.features, e.features)
        assert out.label == 4

    def test_idempotent_on_features(self):
        e = Example(np.arange(5, dtype=float), 2)
        t = TriggerSpec((0, 3), (7.0, -7.0), 0)
        once = apply_trigger(e, t)
        twice = apply_trigger(once, t)
        assert np.array_equal(once.features, twice.features)

    def test_touches_exactly_positions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(4, 20))
            n_pos = int(rng.integers(0, dim))
            positions = tuple(rng.choice(dim, size=n_pos, replace=False).tolist())
            t = TriggerSpec(positions, tuple(rng.normal(size=n_pos)), 0)
            e = Example(rng.normal(size=dim), 1)
            out = apply_trigger(e, t)
            changed = np.flatnonzero(out.features != e.features)
            assert set(changed) <= set(positions)
            for p, v in zip(t.positions, t.values):
                assert out.features[p] == v

    def test_out_of_range(self):
        e = Example(np.zeros(3), 0)
        with pytest.raises(ConfigError):
            apply_trigger(e, TriggerSpec((5,), (1.0,), 0))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ConfigError):
            TriggerSpec((1, 1), (0.0, 0.0), 0)

    def test_triggered_rows_match_apply_trigger_on_eligible_examples(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 6))
        y = rng.integers(0, 3, size=30)
        t = TriggerSpec((1, 4), (2.5, -2.5), 2)
        want = [apply_trigger(Example(row, int(label)), t).features
                for row, label in zip(x, y) if label != t.target_label]
        x0 = x.copy()
        got = triggered_rows(x, y, t)
        assert got.dtype == np.float64 and got.tobytes() == np.stack(want).tobytes()
        assert np.array_equal(x, x0)  # input untouched
        with pytest.raises(ConfigError):
            triggered_rows(x, y, TriggerSpec((6,), (1.0,), 0))


class TestPoisonDataset:
    def _ds(self, labels):
        return Samples(np.repeat(np.arange(len(labels), dtype=float), 4).reshape(-1, 4), labels)

    def test_full_rate_on_target_free_set(self):
        ds = self._ds([1, 2, 3, 4, 5])
        t = TriggerSpec((0,), (9.0,), 0)
        out = poison_dataset(ds, t, 1.0, 0)
        assert all(e.label == 0 and e.features[0] == 9.0 for e in out)

    def test_ceiling_count(self):
        ds = self._ds([1] * 10)
        t = TriggerSpec((0,), (9.0,), 0)
        out = poison_dataset(ds, t, 0.5, 1)
        assert sum(1 for e in out if e.label == 0) == 5

    def test_seed_determinism(self):
        ds = self._ds([1, 2, 3, 1, 2, 3, 1, 2])
        t = TriggerSpec((1,), (5.0,), 0)
        a = poison_dataset(ds, t, 0.4, 12)
        b = poison_dataset(ds, t, 0.4, 12)
        assert [e.label for e in a] == [e.label for e in b]
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_never_poisons_target_label(self):
        rng = np.random.default_rng(7)
        t = TriggerSpec((0,), (9.0,), 2)
        for _ in range(100):
            labels = rng.integers(0, 4, size=12).tolist()
            if all(l == 2 for l in labels):
                continue
            ds = self._ds(labels)
            out = poison_dataset(ds, t, float(rng.uniform(0.1, 1.0)), int(rng.integers(1000)))
            for before, after in zip(ds, out):
                if before.label == 2:
                    assert after.label == 2
                    assert np.array_equal(after.features, before.features)

    def test_no_eligible(self):
        ds = self._ds([0, 0, 0])
        with pytest.raises(ConfigError):
            poison_dataset(ds, TriggerSpec((0,), (1.0,), 0), 0.5, 0)

    def test_bad_rate(self):
        ds = self._ds([1])
        with pytest.raises(ConfigError):
            poison_dataset(ds, TriggerSpec((0,), (1.0,), 0), 0.0, 0)

    def test_position_out_of_range(self):
        ds = self._ds([1, 2])
        for pos in (4, -1):
            with pytest.raises(ConfigError):
                poison_dataset(ds, TriggerSpec((pos,), (1.0,), 0), 1.0, 0)

    def test_full_rate_does_not_depend_on_the_seed(self):
        rng = np.random.default_rng(3)
        ds = stacked([Example(rng.normal(size=4), l) for l in (0, 1, 2, 0, 3, 1)])
        t = TriggerSpec((1, 3), (9.0, -9.0), 0)
        a, b = poison_dataset(ds, t, 1.0, 1), poison_dataset(ds, t, 1.0, 2)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tolist() == b.y.tolist() == [0] * 6

    def test_array_input_untouched(self):
        arrays = self._ds([1, 2, 0])
        x0, y0 = arrays.x.copy(), arrays.y.copy()
        out = poison_dataset(arrays, TriggerSpec((0, 2), (9.0, -9.0), 0), 0.5, 3)
        assert np.array_equal(arrays.x, x0) and np.array_equal(arrays.y, y0)
        assert not np.shares_memory(out.x, arrays.x)

    def test_input_untouched(self):
        # at rate 1 every row is triggered, on the copy only
        ds = self._ds([1, 2, 3])
        x, y = ds.x, ds.y
        x0, y0 = x.copy(), y.copy()
        poison_dataset(ds, TriggerSpec((0, 2), (9.0, -9.0), 0), 1.0, 0)
        assert ds.x is x and ds.y is y
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 12),
        n_classes=st.integers(2, 5),
        rate=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_per_example_oracle(self, n, dim, n_classes, rate, seed, data):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, size=n).tolist()
        target = data.draw(st.integers(0, n_classes - 1))
        if all(l == target for l in labels):
            labels[0] = (target + 1) % n_classes
        ds = stacked([Example(rng.normal(size=dim), l) for l in labels])
        positions = data.draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        values = tuple(rng.normal(size=len(positions)) * 10)
        t = TriggerSpec(tuple(positions), values, target)
        want = poison_dataset_oracle(ds, t, rate, seed)
        got = poison_dataset(ds, t, rate, seed)
        assert [e.label for e in got] == [e.label for e in want]
        for g, w in zip(got, want):
            assert g.features.dtype == w.features.dtype == np.float64
            assert g.features.tobytes() == w.features.tobytes()


class TestEdgeCasePool:
    def _cluster(self, seed=0):
        rng = np.random.default_rng(seed)
        return stacked([Example(rng.normal(size=6), 3) for _ in range(100)] + [
            Example(rng.normal(size=6), 1) for _ in range(40)
        ])

    def test_count(self):
        ds = self._cluster()
        pool = edge_case_pool(ds, 3, 0.1)
        assert len(pool) == 10
        assert all(e.label == 3 for e in pool)

    def test_selection_criterion(self):
        ds = self._cluster(4)
        pool = edge_case_pool(ds, 3, 0.25)
        members = [e for e in ds if e.label == 3]
        center = np.stack([e.features for e in members]).mean(axis=0)
        # the pool holds copies of member rows; the features identify them
        pooled = {e.features.tobytes() for e in pool}
        assert len(pooled) == len(pool)
        sel = [np.linalg.norm(e.features - center) for e in members if e.features.tobytes() in pooled]
        rest = [np.linalg.norm(e.features - center) for e in members
                if e.features.tobytes() not in pooled]
        assert len(sel) == len(pool)
        assert min(sel) >= max(rest) - 1e-12
        assert np.mean(sel) >= np.mean(rest)

    def test_determinism(self):
        ds = self._cluster(9)
        a = edge_case_pool(ds, 3, 0.2)
        b = edge_case_pool(ds, 3, 0.2)
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_missing_label(self):
        ds = self._cluster()
        with pytest.raises(ConfigError):
            edge_case_pool(ds, 7, 0.2)

    def test_bad_fraction(self):
        ds = self._cluster()
        with pytest.raises(ConfigError):
            edge_case_pool(ds, 3, 1.0)
