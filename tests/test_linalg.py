import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import linalg
from fedsim.errors import (
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
    ZeroVectorError,
)

from helpers import longdouble_cosine

finite_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False),
    min_size=1,
    max_size=40,
).filter(lambda xs: any(abs(x) > 1e-9 for x in xs))

positive_scales = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


class TestNormalize:
    def test_maxabs_example(self):
        assert np.allclose(linalg.normalize([2, -4, 1]), [0.5, -1.0, 0.25])

    def test_singleton_identity(self):
        assert np.array_equal(linalg.normalize([1]), [1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            linalg.normalize([0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.normalize([1.0, np.nan])

    @given(finite_vectors, positive_scales)
    @settings(max_examples=200, deadline=None)
    def test_positive_scale_invariance(self, xs, c):
        v = np.array(xs)
        assert np.allclose(linalg.normalize(c * v), linalg.normalize(v), atol=1e-12)

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_negation_and_range(self, xs):
        v = np.array(xs)
        out = linalg.normalize(v)
        assert np.allclose(linalg.normalize(-v), -out)
        assert np.all(np.abs(out) <= 1.0)
        assert np.isclose(np.max(np.abs(out)), 1.0)
        assert np.array_equal(np.sign(out), np.sign(v))

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, xs):
        once = linalg.normalize(np.array(xs))
        assert np.array_equal(linalg.normalize(once), once)


class TestCosineDistance:
    def test_identical(self):
        assert linalg.cosine_distance([1, 1], [1, 1]) == 0.0

    def test_antipodal(self):
        assert linalg.cosine_distance([1, 0], [-1, 0]) == 2.0

    def test_orthogonal(self):
        assert linalg.cosine_distance([1, 0], [0, 1]) == 1.0

    def test_zero_operand(self):
        with pytest.raises(ZeroVectorError):
            linalg.cosine_distance([0, 0], [1, 0])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.cosine_distance([1, 0], [1, 0, 0])

    @given(finite_vectors, positive_scales, positive_scales)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_range_scaling(self, xs, c1, c2):
        rng = np.random.default_rng(abs(hash(tuple(xs))) % 2**32)
        a = np.array(xs)
        b = a + rng.normal(size=a.size)
        if not np.any(b):
            b[0] = 1.0
        d_ab = linalg.cosine_distance(a, b)
        assert d_ab == linalg.cosine_distance(b, a)
        assert 0.0 <= d_ab <= 2.0
        assert np.isclose(linalg.cosine_distance(c1 * a, c2 * b), d_ab, atol=1e-9)
        assert linalg.cosine_distance(a, a) == 0.0


_LD = np.array([1.0, 2.0, 3.0], dtype=np.longdouble) + np.longdouble(2.0) ** -60


ERROR_CASES = [
    ([1.0, np.nan], [1.0, 2.0], ValueError),
    ([1.0, 2.0], [np.inf, 2.0], ValueError),
    ([-np.inf, 2.0], [1.0, 2.0], ValueError),
    ([np.nan, np.inf], [np.inf, np.nan], ValueError),
    ([1.0, 2.0], [1.0, 2.0, 3.0], DimensionMismatchError),
    ([1.0, np.nan], [1.0, 2.0, 3.0], ValueError),
    ([1.0, 2.0], [np.inf, 2.0, 3.0], ValueError),
    ([0.0, 0.0], [1.0, 2.0], ZeroVectorError),
    ([1.0, 2.0], [0.0, 0.0], ZeroVectorError),
    ([0.0, 0.0], [np.nan, 1.0], ValueError),
    ([np.nan, 1.0], [0.0, 0.0], ValueError),
    ([], [], ZeroVectorError),
    ([0.0, 0.0], [0.0, 0.0, 0.0], DimensionMismatchError),
]


class TestCosineDistanceInputs:
    """Errors and values of cosine_distance on awkward operands."""

    @pytest.mark.parametrize("a,b,error", ERROR_CASES)
    def test_error_type(self, a, b, error):
        with pytest.raises(error):
            linalg.cosine_distance(a, b)

    @pytest.mark.parametrize("a,b,error", ERROR_CASES)
    def test_error_type_of_long_double_operands(self, a, b, error):
        with pytest.raises(error):
            linalg.cosine_distance(np.array(a, dtype=np.longdouble), np.array(b, dtype=np.longdouble))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1, 2, 3], [3, -1, 2]),
            ([0.1, 0.2, 0.3], (0.3, 0.2, 0.1)),
            (np.array([[1.0, 2.0], [3.0, 4.0]]), [4.0, 3.0, 2.0, 1.0]),
            (_LD, [1.0, 2.0, 3.0]),
            (_LD, _LD[::-1]),
            (np.array([1e300, -1e300, 5.0]), np.array([1e300, 1e300, -1.0])),
            (np.array([1e-300, 3e-300]), np.array([2e-300, 1e-300])),
            (np.arange(170, dtype=np.float32), np.ones(170)),
            ([5.0], [-2.0]),
        ],
    )
    def test_value_matches_reference_formula(self, a, b):
        got = linalg.cosine_distance(a, b)
        assert type(got) is float
        assert repr(got) == repr(longdouble_cosine(a, b))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).maxexp <= np.finfo(np.float64).maxexp,
        reason="long double has float64's exponent range here",
    )
    @pytest.mark.parametrize("exponent", [2000, -2000])
    def test_long_double_operand_is_not_rounded_to_float64(self, exponent):
        # Scaled by 2**+-2000, the entries of _LD leave float64's range but
        # stay exact long doubles. A power-of-two scale keeps every bit of a
        # cosine, so the distance is that of the unscaled operands, where
        # rounding to float64 first would give inf or zero entries.
        scale = np.longdouble(2) ** exponent
        a, b = _LD * scale, _LD[::-1] * scale
        assert linalg.cosine_distance(a, b) == linalg.cosine_distance(_LD, _LD[::-1]) > 0.0
        with np.errstate(over="ignore"):
            rounded = a.astype(np.float64), b.astype(np.float64)
        with pytest.raises(ValueError if exponent > 0 else ZeroVectorError):
            linalg.cosine_distance(*rounded)

    def test_widened_operands_keep_every_distance(self):
        # long-double operands give the bits of the float64 rows they were
        # widened from, over 20000 pairs of every scale, near-parallel ones
        # among them, and lengths from 1 to 400
        rng = np.random.default_rng(20)
        for i in range(20000):
            n = int(rng.integers(1, 401))
            u = rng.normal(size=n)
            v = u + u * rng.normal(size=n) * 10.0 ** rng.uniform(-16, -6) if i % 2 else rng.normal(size=n)
            a, b = u * 10.0 ** rng.uniform(-300, 300), v * 10.0 ** rng.uniform(-300, 300)
            want = linalg.cosine_distance(a, b)
            wa, wb = a.astype(np.longdouble), b.astype(np.longdouble)
            assert repr(linalg.cosine_distance(wa, wb)) == repr(want), i
            assert repr(linalg.cosine_distance(wa, b)) == repr(want), i
            if i % 50 == 0:
                assert repr(longdouble_cosine(a, b)) == repr(want), i

    def test_operands_are_not_modified(self):
        a, b = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        a0, b0 = a.copy(), b.copy()
        linalg.cosine_distance(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


class TestMatrixInputs:
    def test_as_matrix(self):
        m = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        out = linalg.as_matrix(m)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out, m)
        assert np.array_equal(linalg.as_matrix([[1, 2], (3, 4)]), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            linalg.as_matrix(np.array([[1.0, np.inf]]))
        # only a 2-D input is a matrix; an empty list converts to shape (0,)
        for not_2d in ([], [1.0, 2.0], np.ones((2, 2, 2))):
            with pytest.raises(DimensionMismatchError):
                linalg.as_matrix(not_2d)
        # numpy refuses ragged rows
        with pytest.raises(ValueError, match="inhomogeneous"):
            linalg.as_matrix([[1.0, 2.0], [3.0]])

    def test_normalize_rows_equals_normalize(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(40, 170)) * rng.uniform(0.01, 100.0, size=(40, 1))
        m[2] = 0.0
        rows, zero = linalg.normalize_rows(m)
        assert np.flatnonzero(zero).tolist() == [2]
        # reference scale: the L-inf norm of each row
        want = np.stack([v / float(np.max(np.abs(v))) for i, v in enumerate(m) if i != 2])
        assert rows.tobytes() == want.tobytes()
        assert np.stack([linalg.normalize(v) for v in m[3:]]).tobytes() == want[2:].tobytes()


class TestDispersion:
    def test_identical_copies(self):
        vs = [np.array([2.0, -1.0, 3.0])] * 5
        assert linalg.dispersion(vs) <= 1e-12

    def test_hand_oracle(self):
        # brute-force evaluation with plain formulas, independent of the
        # library's cosine/variance code paths
        vs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        centroid = np.array([2 / 3, 1 / 3])
        dists = []
        for v in vs:
            cos = np.dot(v, centroid) / (np.linalg.norm(v) * np.linalg.norm(centroid))
            dists.append(1.0 - cos)
        mean_d = sum(dists) / 3
        expected = sum((d - mean_d) ** 2 for d in dists) / 3
        assert np.isclose(linalg.dispersion(vs), expected, atol=1e-12)

    def test_common_scale_invariance(self):
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=6) for _ in range(5)]
        for c in (0.01, 3.0, 1e4):
            assert np.isclose(linalg.dispersion([c * v for v in vs]), linalg.dispersion(vs), atol=1e-9)

    def test_per_vector_rescale_invariance_after_normalize(self):
        # the aggregation pipeline normalizes before measuring dispersion,
        # which is what makes per-client rescaling a no-op
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=6) for _ in range(5)]
        scales = rng.uniform(0.1, 10.0, size=5)
        base = linalg.dispersion([linalg.normalize(v) for v in vs])
        scaled = linalg.dispersion([linalg.normalize(c * v) for c, v in zip(scales, vs)])
        assert np.isclose(base, scaled, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        vs = [rng.normal(size=6) for _ in range(6)]
        perm = [vs[i] for i in rng.permutation(6)]
        assert np.isclose(linalg.dispersion(vs), linalg.dispersion(perm), atol=1e-12)

    def test_parallel_vectors_zero(self):
        v = np.array([1.0, 2.0, -0.5])
        vs = [c * v for c in (0.5, 1.0, 2.0, 7.0)]
        assert linalg.dispersion(vs) <= 1e-12

    def test_too_few(self):
        with pytest.raises(EmptySetError):
            linalg.dispersion([np.ones(3)])

    def test_degenerate_centroid(self):
        with pytest.raises(DegenerateCentroidError):
            linalg.dispersion([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
