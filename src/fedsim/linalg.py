"""Flat-vector numerical kernels used by every aggregation rule.

Model parameters, gradients and update deltas are all represented as 1-D
float64 numpy arrays; a round's vectors are the rows of one (k, P) matrix,
which is validated once as a whole. ADS's dispersion and RCC's filter
share one centroid-distance routine, ``centroid_distances``. Every function
here is a pure function of its inputs and safe to call concurrently.
"""

import math

import numpy as np

from .errors import (
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
    ZeroVectorError,
)

_WIDE = np.dtype(np.longdouble)


def _flat(values, dtype=np.float64) -> np.ndarray:
    v = np.asarray(values, dtype=dtype)
    return v if v.ndim == 1 else v.reshape(-1)


def _check_finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("vector contains NaN or Inf entries")
    return m


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array and reject non-finite entries."""
    return _check_finite(_flat(values))


def as_matrix(vs) -> np.ndarray:
    """``vs`` as a C-contiguous (k, P) float64 matrix, with non-finite entries rejected.

    ``vs`` is a 2-D array or anything numpy converts to one, such as a list
    of equal-length rows.

    Raises:
        DimensionMismatchError: if ``vs`` is not 2-D (an empty list is 1-D).
        ValueError: for NaN or Inf entries, or (numpy's) for ragged rows.
    """
    m = np.ascontiguousarray(vs, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a (k, P) matrix, got shape {m.shape}")
    return _check_finite(m)


def squared_norms(m: np.ndarray) -> np.ndarray:
    """``float(np.dot(row, row))`` of every row of the float64 (k, P) matrix ``m``,
    bit for bit, as one stacked ``np.matmul`` of shape (k, 1, P) @ (k, P, 1):
    numpy computes each (1, P) @ (P, 1) slice with the same BLAS dot as
    ``np.dot``. A 2-D matrix product or ``np.einsum`` adds in another order,
    and differs in the last bit on some rows. A square that overflows is inf.
    """
    return np.matmul(m[:, None, :], m[:, :, None]).reshape(-1)


def normalize(v) -> np.ndarray:
    """Rescale a vector so its dominant coordinates have unit magnitude.

    Divides by the L-inf norm, leaving every entry in [-1, 1] with at least
    one entry of magnitude exactly 1; this is what the power-scaling step
    expects. The one-row case of :func:`normalize_rows`.

    Raises:
        ZeroVectorError: if ``v`` is all zeros.
    """
    rows, zero = normalize_rows(_flat(v)[None, :])
    if zero[0]:
        raise ZeroVectorError("cannot normalize an all-zero vector")
    return rows[0]


def normalize_rows(m) -> tuple[np.ndarray, np.ndarray]:
    """Divide every row of a (k, P) matrix that is not all zeros by its own L-inf norm.

    Returns the normalized nonzero rows, in order, and a boolean mask of the
    all-zero rows.
    """
    m = as_matrix(m)
    scales = np.max(np.abs(m), axis=1, initial=0.0)
    zero = scales == 0.0
    live = ~zero
    return m[live] / scales[live, None], zero


def cosine_distance(a, b) -> float:
    """Return ``1 - <a,b> / (|a|*|b|)``, clamped into [0, 2].

    Dot products and norms are accumulated in long double, the widest
    available float type, to limit cancellation; the clamp absorbs any
    residual drift. Each operand is converted to long double directly:
    float64 and float32 entries and integers up to 2**53 convert exactly,
    and a long-double operand is used as it is, without a copy and without
    rounding to float64 first. A float64 vector widened by the caller
    therefore gives the same distance as the vector itself. The FAROS
    pipeline relies on this: it widens each matrix of a round once, the
    normalized rows for the dispersion and the scaled rows for the pairwise
    scores and the core-set filter together, and still makes one scalar call
    per distance, 65 per desk round (k = 10: 10 to the round's centroid, 45
    pairs, 10 to the core set's centroid).

    Finiteness is checked here, on the sum of the two long-double squared
    norms, rather than entry by entry: any NaN or Inf entry makes that sum
    NaN or Inf. Only when the sum does not convert to a finite float (or the
    lengths differ) are the operands scanned, which raises the ValueError of
    :func:`as_vector` for NaN/Inf entries before any other error; finite
    operands with a huge norm pass the scan and are computed as usual.

    Raises:
        ValueError: if either operand has a NaN or Inf entry.
        ZeroVectorError: if either operand has zero norm.
        DimensionMismatchError: if the operands differ in length.
    """
    # a 1-D long-double operand, such as a row of a matrix widened once, as it is
    wa = a if type(a) is np.ndarray and a.dtype is _WIDE and a.ndim == 1 else _flat(a, _WIDE)
    wb = b if type(b) is np.ndarray and b.dtype is _WIDE and b.ndim == 1 else _flat(b, _WIDE)
    if wa.shape != wb.shape:
        _check_finite(wa)
        _check_finite(wb)
        raise DimensionMismatchError(f"dim mismatch: {wa.size} vs {wb.size}")
    # ndarray.dot runs the same sequential long-double loop as np.dot
    # without its dispatch layer
    sq_a = wa.dot(wa)
    sq_b = wb.dot(wb)
    if not math.isfinite(sq_a + sq_b):
        _check_finite(wa)
        _check_finite(wb)
    na = np.sqrt(sq_a)
    nb = np.sqrt(sq_b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine distance undefined for zero vectors")
    d = 1.0 - float(wa.dot(wb) / (na * nb))
    # min(max(d, 0.0), 2.0) without two builtin calls; NaN stays NaN
    return 0.0 if d < 0.0 else 2.0 if d > 2.0 else d


def centroid_distances(m: np.ndarray, rows=slice(None), name: str = "round", wide=None) -> tuple:
    """The centroid of the rows ``rows`` of the (k, P) matrix ``m`` (all rows for
    :func:`dispersion`, the core rows for ``defenses.rcc_filter``), and the
    cosine distance of every row of ``m`` to it. A zero centroid raises
    :class:`DegenerateCentroidError`, whose message calls it ``name``.

    The distances are k :func:`cosine_distance` calls on long-double rows.
    ``wide`` is ``m`` widened to long double, if the caller has it already
    (the FAROS pipeline widens its scaled matrix once a round, for the
    pairwise scores and this); otherwise ``m`` is widened here, once.
    """
    centroid = np.mean(m[rows], axis=0)
    if not np.any(centroid):
        raise DegenerateCentroidError(f"{name} centroid is the zero vector")
    wide_centroid = centroid.astype(np.longdouble)
    if wide is None:
        wide = m.astype(np.longdouble)
    return centroid, [cosine_distance(v, wide_centroid) for v in wide]


def dispersion(vs) -> float:
    """Spread of a round's vectors: variance of cosine distances to their centroid.

    Computes the centroid of the rows of ``vs``, a (k, P) matrix, and
    returns the population variance of the per-row cosine distances to it.
    Scale-invariant per row and invariant under permutation of the rows.

    Raises:
        EmptySetError: with fewer than 2 rows.
        DegenerateCentroidError: if the centroid is the zero vector.
        ZeroVectorError: if any row is zero.
    """
    vs = as_matrix(vs)
    if vs.shape[0] < 2:
        raise EmptySetError("dispersion needs at least 2 vectors")
    d = np.array(centroid_distances(vs)[1])
    # np.var's own array operations, without its dispatch: the mean as the
    # sum over the count, then the summed squared deviations over the count
    dev = d - d.sum() / len(d)
    return float(np.square(dev, out=dev).sum() / len(d))
