"""Batched geometry kernels over packed bounding-shape arrays.

The frontier traversal (:mod:`repro.core.frontier`) prunes a whole
fanout² candidate block with a single kernel call over contiguous
``(lo, hi)`` corner matrices (or ``(center, radius)`` arrays for
ball-shaped nodes) instead of one Python-level bound per node pair.

Every kernel here performs *exactly* the elementwise operations of its
per-pair counterpart in :class:`repro.geometry.mbr.MBR` /
:class:`repro.geometry.ball.Ball`, in the same order, so results are
bit-identical to those bounds for every Minkowski metric (L1, L2, L∞ and
fractional/whole p alike — the metric's ``norm_rows`` reduces the
coordinate axis identically in both paths); the property-based test
suite re-verifies it.  Ball kernels take their center distances from the
metric's ``pairwise`` / ``condensed_self`` / ``paired`` methods, so an
M-tree over an :class:`~repro.core.metricspace.ObjectMetric` prunes
through the same kernels.

Surviving index pairs are always returned in *canonical order*: row-major
over the candidate block, with ``row < col`` for self-sets — the order of
Figure 3's nested ``for a / for b`` loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.metrics import Metric, get_metric, triu_pair_indices

__all__ = [
    "triu_pair_indices",
    "diagonal",
    "min_dist_matrix",
    "max_dist_matrix",
    "union_diagonal_matrix",
    "min_dist_pairs",
    "union_diagonal_pairs",
    "self_pairs_within",
    "cross_pairs_within",
    "ball_diameter",
    "ball_min_dist_matrix",
    "ball_max_dist_matrix",
    "ball_union_diameter_matrix",
    "ball_union_diameter_pairs",
    "ball_self_pairs_within",
    "ball_cross_pairs_within",
]


# ---------------------------------------------------------------------------
# Rectangle kernels — batched twins of MBR.min_dist / max_dist /
# union_diagonal / diagonal
# ---------------------------------------------------------------------------

def diagonal(lo: np.ndarray, hi: np.ndarray, metric: Optional[Metric] = None) -> np.ndarray:
    """Metric diagonal of each box: batched ``MBR.diagonal``.

    ``lo`` / ``hi`` are ``(n, d)``; returns ``(n,)``.
    """
    return get_metric(metric).norm_rows(hi - lo)


def min_dist_matrix(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` matrix of box-to-box minimum distances.

    Batched ``MBR.min_dist``: per-axis gap ``max(0, lo1 - hi2, lo2 - hi1)``
    reduced by the metric norm.
    """
    gaps = np.maximum(
        0.0,
        np.maximum(
            lo1[:, None, :] - hi2[None, :, :], lo2[None, :, :] - hi1[:, None, :]
        ),
    )
    return get_metric(metric).norm_rows(gaps)


def max_dist_matrix(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` matrix of box-to-box maximum distances (``MBR.max_dist``)."""
    spans = np.maximum(
        np.abs(hi1[:, None, :] - lo2[None, :, :]),
        np.abs(hi2[None, :, :] - lo1[:, None, :]),
    )
    return get_metric(metric).norm_rows(spans)


def union_diagonal_matrix(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` matrix of union-box diagonals (``MBR.union_diagonal``).

    The quantity of the compact join's dual-node early stop (Figure 3,
    line 20): an upper bound on the distance between any two points drawn
    from the union of the two boxes.
    """
    span = np.maximum(hi1[:, None, :], hi2[None, :, :]) - np.minimum(
        lo1[:, None, :], lo2[None, :, :]
    )
    return get_metric(metric).norm_rows(span)


def min_dist_pairs(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """Row-wise minimum distances of aligned box pairs: ``(n, d) -> (n,)``."""
    gaps = np.maximum(0.0, np.maximum(lo1 - hi2, lo2 - hi1))
    return get_metric(metric).norm_rows(gaps)


def union_diagonal_pairs(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """Row-wise union-box diagonals of aligned box pairs."""
    span = np.maximum(hi1, hi2) - np.minimum(lo1, lo2)
    return get_metric(metric).norm_rows(span)


def self_pairs_within(
    lo: np.ndarray, hi: np.ndarray, eps: float, metric: Optional[Metric] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Self-set prune: index pairs ``(a, b)``, ``a < b``, with
    ``min_dist(box_a, box_b) < eps``, in canonical row-major order.

    Works on the condensed upper triangle — no ``k × k`` matrix is ever
    materialised, mirroring Figure 3's ``for a / for b in range(a+1, k)``
    pair loop.
    """
    k = len(lo)
    if k < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    rows, cols = triu_pair_indices(k)
    dists = min_dist_pairs(lo[rows], hi[rows], lo[cols], hi[cols], metric)
    hit = np.flatnonzero(dists < eps)
    return rows[hit], cols[hit]


def cross_pairs_within(
    lo1: np.ndarray,
    hi1: np.ndarray,
    lo2: np.ndarray,
    hi2: np.ndarray,
    eps: float,
    metric: Optional[Metric] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-set prune: pairs with ``min_dist < eps``, row-major order."""
    dists = min_dist_matrix(lo1, hi1, lo2, hi2, metric)
    rows, cols = np.nonzero(dists < eps)
    return rows, cols


# ---------------------------------------------------------------------------
# Ball kernels — batched twins of Ball / BallNode bounds (M-tree)
# ---------------------------------------------------------------------------

def ball_diameter(radii: np.ndarray) -> np.ndarray:
    """Batched ``Ball.diameter``: ``2 r`` per node."""
    return 2.0 * np.asarray(radii, dtype=float)


def ball_min_dist_matrix(
    c1: np.ndarray,
    r1: np.ndarray,
    c2: np.ndarray,
    r2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` ball-to-ball minimum distances: ``max(0, d - r1 - r2)``."""
    d = get_metric(metric).pairwise(c1, c2)
    return np.maximum(0.0, d - r1[:, None] - r2[None, :])


def ball_max_dist_matrix(
    c1: np.ndarray,
    r1: np.ndarray,
    c2: np.ndarray,
    r2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` ball-to-ball maximum distances: ``d + r1 + r2``."""
    d = get_metric(metric).pairwise(c1, c2)
    return d + r1[:, None] + r2[None, :]


def ball_union_diameter_matrix(
    c1: np.ndarray,
    r1: np.ndarray,
    c2: np.ndarray,
    r2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """``(n1, n2)`` union diameters: ``max(2 r1, 2 r2, d + r1 + r2)``."""
    d = get_metric(metric).pairwise(c1, c2)
    return np.maximum(
        np.maximum(2.0 * r1[:, None], 2.0 * r2[None, :]),
        d + r1[:, None] + r2[None, :],
    )


def ball_union_diameter_pairs(
    c1: np.ndarray,
    r1: np.ndarray,
    c2: np.ndarray,
    r2: np.ndarray,
    metric: Optional[Metric] = None,
) -> np.ndarray:
    """Row-wise union diameters of aligned ball pairs."""
    d = get_metric(metric).paired(c1, c2)
    return np.maximum(np.maximum(2.0 * r1, 2.0 * r2), d + r1 + r2)


def ball_self_pairs_within(
    centers: np.ndarray,
    radii: np.ndarray,
    eps: float,
    metric: Optional[Metric] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-set ball prune in canonical (row-major, ``a < b``) order."""
    k = len(centers)
    if k < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    rows, cols, d = get_metric(metric).condensed_self(centers)
    dists = np.maximum(0.0, d - radii[rows] - radii[cols])
    hit = np.flatnonzero(dists < eps)
    return rows[hit], cols[hit]


def ball_cross_pairs_within(
    c1: np.ndarray,
    r1: np.ndarray,
    c2: np.ndarray,
    r2: np.ndarray,
    eps: float,
    metric: Optional[Metric] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-set ball prune in canonical row-major order."""
    dists = ball_min_dist_matrix(c1, r1, c2, r2, metric)
    rows, cols = np.nonzero(dists < eps)
    return rows, cols
