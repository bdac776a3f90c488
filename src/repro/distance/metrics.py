"""Numeric distance metrics.

All metrics accept either plain Python sequences or ``numpy`` arrays and
return a Python ``float``.  The hot path in EDMStream is the nearest-seed
lookup, which operates on small vectors in a tight loop; we therefore keep
scalar implementations simple and allocation-free rather than vectorising
individual pairwise calls.  The bulk kernel :func:`pairwise_euclidean` serves
the cell stores, micro-batch ingestion and snapshot queries; the error bounds
that let callers screen it with a Gram-matrix product, and the one decision
rule built on them, live beside it (:data:`GRAM_SLACK`,
:func:`float32_kernel_slack`, :func:`gram_screen`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple, Union

import numpy as np

Vector = Union[Sequence[float], np.ndarray]

#: Signature shared by every pairwise metric in this module.
DistanceMetric = Callable[[Vector, Vector], float]


def squared_euclidean(a: Vector, b: Vector) -> float:
    """Squared Euclidean distance between two vectors.

    Cheaper than :func:`euclidean` because it avoids the square root; use it
    when only the ordering of distances matters.
    """
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return total


def euclidean(a: Vector, b: Vector) -> float:
    """Euclidean (L2) distance between two vectors."""
    return math.sqrt(squared_euclidean(a, b))


try:  # pragma: no cover - exercised implicitly by the whole suite
    # The compiled function ``cdist(..., "euclidean")`` dispatches to: it
    # checks shapes itself, without the public wrapper's ~1 µs of argument
    # handling on every per-point call.
    from scipy.spatial._distance_pybind import cdist_euclidean as _cdist
except ImportError:  # pragma: no cover - a scipy without that private entry
    try:
        from scipy.spatial.distance import cdist as _cdist
    except ImportError:  # scipy is optional
        _cdist = None


def pairwise_euclidean(queries: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix between two point sets.

    This is the single bulk kernel shared by the cell stores and the
    micro-batch ingestion path; routing every bulk Euclidean
    computation through one function guarantees the sequential and batch
    ingestion paths see bit-identical distances.  Two backends, both
    difference-based (no ``x² + y² - 2xy`` cancellation for points far from
    the origin), deterministic, row-consistent (a one-query call returns
    exactly the row a whole-batch call would) and float-symmetric
    (``d(a, b)`` equals ``d(b, a)`` to the last bit, because some distances
    are computed in opposite orientations by the two paths):

    * scipy's compiled ``cdist`` kernel when scipy is available — by far
      the fastest.  It is entered directly (the public ``cdist`` only when
      that private entry is missing), and either way raises ``ValueError``
      on operands that are not 2-d or differ in width;
    * otherwise a per-row ``np.einsum`` over the differences.

    When *both* operands arrive as ``float32`` (the arena's reduced-precision
    mode, see :class:`~repro.core.soa.CellArrays`), the einsum path is used
    unconditionally with ``float32`` accumulation: ``cdist`` would silently
    upcast to ``float64``, defeating the memory-bandwidth purpose of the
    mode, and the single-precision result is what the float32 tolerance
    contract in ``tests/test_soa.py`` is written against.
    """
    single = (
        getattr(queries, "dtype", None) == np.float32
        and getattr(seeds, "dtype", None) == np.float32
    )
    if _cdist is not None and not single:
        return _cdist(queries, seeds)
    dtype = np.float32 if single else np.float64
    queries = np.asarray(queries, dtype=dtype)
    seeds = np.asarray(seeds, dtype=dtype)
    out = np.empty((queries.shape[0], seeds.shape[0]), dtype=dtype)
    for row in range(queries.shape[0]):
        diffs = seeds - queries[row]
        out[row] = np.sqrt(np.einsum("ij,ij->i", diffs, diffs, dtype=dtype))
    return out


#: Relative slack ``c`` of every float64 Gram-matrix screen in front of
#: :func:`pairwise_euclidean` (the pruned assignment scan in
#: :mod:`repro.core.cellstore`, the predict screen in :mod:`repro.api.snapshot`).
#:
#: A screen evaluates ``‖q‖² + ‖s‖² - 2q·s`` with one matmul (and
#: float64 squared norms, even for float32 operands) and may trust it only to
#: within ``cN`` of the true squared distance ``D²``, ``N = ‖q‖² + ‖s‖²``.
#: Why ``c = 2⁻³⁰`` suffices, with ``u = 2⁻⁵³`` and ``d`` the dimension: the
#: Gram value differs from ``D²`` by at most ``κN`` with ``κ = 4(d+3)u`` —
#: the matmul, the squared norms and the few scalar operations, for any
#: summation order, since their magnitudes sum to at most ``2N``.  The
#: float64 kernel returns ``D̂`` with ``D̂² = D²(1 + δ)``, ``|δ| ≤ 2(d+3)u``,
#: and ``D² ≤ 2N``, so ``D̂²`` too lies within ``4(d+3)uN`` of ``D²``.  A
#: screen that makes a couple of comparisons between such values is off by
#: at most ``16(d+3)uN``, which ``cN = 2²³uN`` covers with a factor of eight
#: to spare for any ``d < 2¹⁶`` (:data:`GRAM_MAX_DIM`; the error is about
#: ``1e-14·N`` at ``d = 34``).  The bounds hold while nothing overflows or
#: underflows, which callers ensure by keeping ``N`` well inside the float
#: range.
GRAM_SLACK = 2.0**-30

#: Largest dimension (exclusive) the :data:`GRAM_SLACK` derivation covers.
GRAM_MAX_DIM = 2**16


def float32_kernel_slack(dim: int) -> float:
    """Relative widening that covers the float32 kernel's rounding.

    On float32 operands :func:`pairwise_euclidean` runs in single precision:
    ``D̂² = D²(1 + δ)`` with ``|δ| ≤ (d+5)·2⁻²⁴`` (the differences, the
    squares, a ``d``-term sum and the square root).  Unlike the float64
    kernel's error this is far above :data:`GRAM_SLACK`, but it is relative
    to the compared squared distance itself, not to ``N``; a screen widens
    each such squared distance by the returned factor ``(d+8)·2⁻²³``, which
    also covers ``(1+δ)/(1-δ) - 1`` and the rounding of a float32 threshold.
    """
    return (dim + 8) * 2.0**-23


#: Open range of ``N = ‖q‖² + max‖s‖²`` over which :func:`gram_screen`
#: decides rows.  It keeps every squared distance of both kernels, float32
#: included, far from overflow and the screen's tolerance far above the
#: absolute rounding of subnormal results; rows outside it stay undecided.
GRAM_NORM_RANGE = (2.0**-100, 2.0**100)


def gram_screen(
    gram: np.ndarray,
    query_norm2: np.ndarray,
    scale: np.ndarray,
    reach2: Union[float, np.ndarray],
    kernel_slack: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide each row's nearest seed, and its coverage, from a Gram block.

    The one decision rule of every Gram screen in front of
    :func:`pairwise_euclidean` (the predict screen in
    :mod:`repro.api.snapshot`, the assignment scan in
    :mod:`repro.core.cellstore`).  ``gram[i, j] = ‖s_j‖² - 2 q_i·s_j`` comes
    from one float64 product (float32 operands are widened exactly), so
    ``h = ‖q‖² + g`` is each squared distance to within ``cN``, where
    ``scale`` holds each row's ``N = ‖q‖² + max‖s‖²`` over the block's seeds
    (see :data:`GRAM_SLACK`).  With the tolerance ``t = cN + w·|h_p|`` —
    ``w`` is ``kernel_slack``, :func:`float32_kernel_slack` when the exact
    kernel runs in float32 (its error is relative to the distance itself),
    0 for float64 — a row is decided only when

    * every other seed's ``g`` exceeds the row minimum ``g_p`` by more than
      ``2t``, so the exact kernel's nearest seed is ``p`` as well (in
      particular no exact tie is ever decided), and
    * ``h_p`` lies more than ``t`` from ``reach2`` (a scalar, or one value
      per seed), so the exact kernel's ``distance <= √reach2`` comes out
      the same way.

    Rows whose ``N`` falls outside :data:`GRAM_NORM_RANGE` — NaN and
    infinite rows among them — are never decided.  Returns
    ``(positions, covered, decided)``: each row's nearest column, whether
    it lies within reach, and whether the exact kernel provably agrees on
    both.  ``gram`` is scratch: each row's minimum comes back as ``inf``.
    """
    n = gram.shape[0]
    index = np.arange(n)
    with np.errstate(all="ignore"):
        positions = np.argmin(gram, axis=1)
        nearest = gram[index, positions]
        # The runner-up through a second argmin: numpy's argmin along a
        # short last axis is several times faster than its min.
        gram[index, positions] = np.inf
        runner_up = gram[index, np.argmin(gram, axis=1)]
        squared = query_norm2 + nearest
        tolerance = GRAM_SLACK * scale
        if kernel_slack:
            tolerance += kernel_slack * np.abs(squared)
        if np.ndim(reach2):
            reach2 = reach2[positions]
        low, high = GRAM_NORM_RANGE
        decided = (
            (runner_up - nearest > 2.0 * tolerance)
            & (np.abs(squared - reach2) > tolerance)
            & (scale > low)
            & (scale < high)
        )
        covered = squared < reach2
    return positions, covered, decided


def manhattan(a: Vector, b: Vector) -> float:
    """Manhattan (L1) distance between two vectors."""
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y)
    return total


def chebyshev(a: Vector, b: Vector) -> float:
    """Chebyshev (L-infinity) distance between two vectors."""
    best = 0.0
    for x, y in zip(a, b):
        diff = abs(x - y)
        if diff > best:
            best = diff
    return best


def minkowski(a: Vector, b: Vector, p: float = 3.0) -> float:
    """Minkowski distance of order ``p`` between two vectors."""
    if p <= 0:
        raise ValueError(f"Minkowski order must be positive, got {p}")
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y) ** p
    return total ** (1.0 / p)


def cosine(a: Vector, b: Vector) -> float:
    """Cosine distance (1 - cosine similarity) between two vectors.

    The distance between two zero vectors is defined as 0; between a zero
    vector and a non-zero vector it is defined as 1.
    """
    dot = 0.0
    norm_a = 0.0
    norm_b = 0.0
    for x, y in zip(a, b):
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    if norm_a == 0.0 and norm_b == 0.0:
        return 0.0
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    similarity = dot / math.sqrt(norm_a * norm_b)
    # Guard against floating point drift outside [-1, 1].
    similarity = max(-1.0, min(1.0, similarity))
    return 1.0 - similarity


_METRICS: dict[str, DistanceMetric] = {
    "euclidean": euclidean,
    "l2": euclidean,
    "squared_euclidean": squared_euclidean,
    "manhattan": manhattan,
    "l1": manhattan,
    "chebyshev": chebyshev,
    "linf": chebyshev,
    "cosine": cosine,
}


def get_metric(name: str) -> DistanceMetric:
    """Look up a distance metric by name.

    Parameters
    ----------
    name:
        One of ``euclidean``, ``l2``, ``squared_euclidean``, ``manhattan``,
        ``l1``, ``chebyshev``, ``linf``, ``cosine`` or ``jaccard``.

    Raises
    ------
    KeyError
        If the name is unknown.
    """
    key = name.strip().lower()
    if key == "jaccard":
        # Imported lazily to avoid a circular import with repro.distance.text.
        from repro.distance.text import jaccard_distance

        return jaccard_distance
    if key not in _METRICS:
        known = ", ".join(sorted(set(_METRICS) | {"jaccard"}))
        raise KeyError(f"Unknown distance metric {name!r}; known metrics: {known}")
    return _METRICS[key]
