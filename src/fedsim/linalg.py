"""Flat-vector numerical kernels used by every aggregation rule.

Model parameters, gradients and update deltas are all represented as 1-D
float64 numpy arrays; a round's vectors can also be passed as the rows of
one 2-D matrix, which is then validated once as a whole. Every function here
is a pure function of its inputs and safe to call concurrently.
"""

import math

import numpy as np

from .errors import (
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
    ZeroVectorError,
)

NORM_STRATEGIES = ("maxabs", "l2")


def _flat(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return v if v.ndim == 1 else v.reshape(-1)


def _check_finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("vector contains NaN or Inf entries")
    return m


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array and reject non-finite entries."""
    return _check_finite(_flat(values))


def as_matrix(vs) -> np.ndarray:
    """Rows of a C-contiguous float64 matrix, with non-finite entries rejected.

    A 2-D array is converted and checked as a whole; any other iterable is
    read as a sequence of vectors, each coerced by :func:`as_vector`. An
    empty sequence gives a 0 x 0 matrix.

    Raises:
        ValueError: for NaN or Inf entries.
        DimensionMismatchError: if the vectors differ in length.
    """
    if isinstance(vs, np.ndarray) and vs.ndim == 2:
        return _check_finite(np.ascontiguousarray(vs, dtype=np.float64))
    rows = [as_vector(v) for v in vs]
    if not rows:
        return np.empty((0, 0))
    for r in rows[1:]:
        if r.size != rows[0].size:
            raise DimensionMismatchError(f"dim mismatch: {rows[0].size} vs {r.size}")
    return np.stack(rows)


def _row_scales(m: np.ndarray, strategy: str) -> np.ndarray:
    if strategy == "maxabs":
        return np.max(np.abs(m), axis=1, initial=0.0)
    if strategy == "l2":
        # one 1-D norm per row: a norm along axis 1 sums in another order
        return np.array([np.linalg.norm(row) for row in m])
    raise ValueError(f"unknown normalization strategy {strategy!r}")


def normalize(v, strategy: str = "maxabs") -> np.ndarray:
    """Rescale a vector so its dominant coordinates have unit magnitude.

    The default ``maxabs`` strategy divides by the L-inf norm, leaving every
    entry in [-1, 1] with at least one entry of magnitude exactly 1; this is
    what the power-scaling step expects. The ``l2`` strategy divides by the
    Euclidean norm instead.

    Raises:
        ZeroVectorError: if ``v`` is all zeros.
    """
    v = as_vector(v)
    scale = float(_row_scales(v[None, :], strategy)[0])
    if scale == 0.0:
        raise ZeroVectorError("cannot normalize an all-zero vector")
    return v / scale


def normalize_rows(m, strategy: str = "maxabs") -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize` applied to every row of a matrix that is not all zeros.

    Returns the normalized nonzero rows, in order, and a boolean mask of the
    all-zero rows. Each row gets the same bits as :func:`normalize` gives it.
    """
    m = as_matrix(m)
    scales = _row_scales(m, strategy)
    zero = scales == 0.0
    live = ~zero
    return m[live] / scales[live, None], zero


def cosine_distance(a, b) -> float:
    """Return ``1 - <a,b> / (|a|*|b|)``, clamped into [0, 2].

    Dot products and norms are accumulated in the widest available float
    type to limit cancellation; the clamp absorbs any residual drift.

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
    a = _flat(a)
    b = _flat(b)
    if a.shape != b.shape:
        _check_finite(a)
        _check_finite(b)
        raise DimensionMismatchError(f"dim mismatch: {a.size} vs {b.size}")
    wa = a.astype(np.longdouble)
    wb = b.astype(np.longdouble)
    # ndarray.dot runs the same sequential long-double loop as np.dot
    # without its dispatch layer
    sq_a = wa.dot(wa)
    sq_b = wb.dot(wb)
    if not math.isfinite(sq_a + sq_b):
        _check_finite(a)
        _check_finite(b)
    na = np.sqrt(sq_a)
    nb = np.sqrt(sq_b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine distance undefined for zero vectors")
    d = 1.0 - float(wa.dot(wb) / (na * nb))
    return min(max(d, 0.0), 2.0)


def dispersion(vs) -> float:
    """Spread of a round's vectors: variance of cosine distances to their centroid.

    Computes the centroid of ``vs`` (a sequence of vectors or the rows of a
    2-D matrix) and returns the population variance of the per-vector
    cosine distances to it. Scale-invariant per vector and invariant under
    permutation of the inputs.

    Raises:
        EmptySetError: with fewer than 2 vectors.
        DegenerateCentroidError: if the centroid is the zero vector.
        ZeroVectorError: if any input vector is zero.
    """
    vs = as_matrix(vs)
    if vs.shape[0] < 2:
        raise EmptySetError("dispersion needs at least 2 vectors")
    centroid = np.mean(vs, axis=0)
    if not np.any(centroid):
        raise DegenerateCentroidError("round centroid is the zero vector")
    dists = [cosine_distance(v, centroid) for v in vs]
    return float(np.var(dists))
