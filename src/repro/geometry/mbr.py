"""Minimum bounding hyper-rectangles (MBRs).

MBRs are the workhorse bounding shape of the library.  They serve two roles:

* the bounding shapes of R-tree / R*-tree nodes, and
* the group boundaries of the compact similarity join (Section V-A of the
  paper: membership checks, insertions and boundary updates must all be
  constant time, which hyper-rectangles provide).

The paper's group invariant is that the *maximal diagonal* of the
hyper-rectangle — the metric distance between its lower and upper corners —
stays strictly below the query range, which guarantees that all points
inside mutually satisfy the range.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.geometry.metrics import Metric, get_metric

__all__ = ["MBR"]


class MBR:
    """A d-dimensional axis-aligned minimum bounding rectangle.

    Stores the componentwise lower corner ``lo`` and upper corner ``hi`` as
    float arrays.  Instances are mutable only through the explicit
    ``extend_*`` methods; all other operations return new objects or
    scalars so that callers can reason about aliasing.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float).copy()
        self.hi = np.asarray(hi, dtype=float).copy()
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if np.any(self.lo > self.hi):
            raise ValueError(f"inverted MBR: lo={self.lo}, hi={self.hi}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBR":
        """Tightest MBR covering a non-empty ``(n, d)`` point array."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("cannot build an MBR of zero points")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def of_point(cls, point: np.ndarray) -> "MBR":
        """Degenerate MBR covering a single point."""
        p = np.asarray(point, dtype=float)
        return cls(p, p)

    @classmethod
    def of_mbrs(cls, mbrs: Iterable["MBR"]) -> "MBR":
        """Tightest MBR covering a non-empty iterable of MBRs."""
        los, his = cls.stack(mbrs)
        return cls(los.min(axis=0), his.max(axis=0))

    @classmethod
    def stack(cls, mbrs: Iterable["MBR"]) -> "tuple[np.ndarray, np.ndarray]":
        """Pack an iterable of MBRs into ``(n, d)`` lo / hi corner matrices.

        One preallocated array per corner, filled row by row — no
        intermediate list of per-rectangle arrays.  This is the packing
        primitive shared by :meth:`of_mbrs`, the bulk loaders and the
        packed-index builder.
        """
        mbrs = list(mbrs)
        if not mbrs:
            raise ValueError("cannot build an MBR of zero rectangles")
        los = np.empty((len(mbrs), mbrs[0].lo.shape[0]), dtype=float)
        his = np.empty_like(los)
        for i, m in enumerate(mbrs):
            los[i] = m.lo
            his[i] = m.hi
        return los, his

    def copy(self) -> "MBR":
        return MBR(self.lo, self.hi)

    # ------------------------------------------------------------------
    # Scalar properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def extents(self) -> np.ndarray:
        """Side lengths along each axis."""
        return self.hi - self.lo

    def area(self) -> float:
        """Hyper-volume (the R-tree literature calls this *area*)."""
        return float(np.prod(self.hi - self.lo))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion)."""
        return float(np.sum(self.hi - self.lo))

    def diagonal(self, metric: Optional[Metric] = None) -> float:
        """Metric length of the main diagonal — the *maximum diameter*.

        This is the largest possible distance between any two points inside
        the rectangle, and the quantity the compact join compares against
        the query range (lines 2 and 20 of the paper's pseudo-code).
        """
        return get_metric(metric).norm(self.hi - self.lo)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains_mbr(self, other: "MBR") -> bool:
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersects(self, other: "MBR") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_dist_point(self, point: np.ndarray, metric: Optional[Metric] = None) -> float:
        """Smallest metric distance from ``point`` to the rectangle (0 inside)."""
        p = np.asarray(point, dtype=float)
        gaps = np.maximum(0.0, np.maximum(self.lo - p, p - self.hi))
        return get_metric(metric).norm(gaps)

    def max_dist_point(self, point: np.ndarray, metric: Optional[Metric] = None) -> float:
        """Largest metric distance from ``point`` to anywhere in the rectangle."""
        p = np.asarray(point, dtype=float)
        gaps = np.maximum(np.abs(self.hi - p), np.abs(p - self.lo))
        return get_metric(metric).norm(gaps)

    def min_dist(self, other: "MBR", metric: Optional[Metric] = None) -> float:
        """Smallest metric distance between the two rectangles (0 if they meet)."""
        gaps = np.maximum(0.0, np.maximum(self.lo - other.hi, other.lo - self.hi))
        return get_metric(metric).norm(gaps)

    def max_dist(self, other: "MBR", metric: Optional[Metric] = None) -> float:
        """Largest metric distance between any point of each rectangle."""
        spans = np.maximum(np.abs(self.hi - other.lo), np.abs(other.hi - self.lo))
        return get_metric(metric).norm(spans)

    def union_diagonal(self, other: "MBR", metric: Optional[Metric] = None) -> float:
        """Diagonal of the union MBR — "maximum diameter of {n1, n2}".

        This bounds the distance between *any* two points drawn from the
        union of the two rectangles, including two points from the same
        rectangle, which is exactly the test of line 20 of the paper's
        pseudo-code for the dual-node early stop.
        """
        span = np.maximum(self.hi, other.hi) - np.minimum(self.lo, other.lo)
        return get_metric(metric).norm(span)

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """New MBR covering both rectangles."""
        return MBR(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, point: np.ndarray) -> "MBR":
        """New MBR additionally covering ``point``."""
        p = np.asarray(point, dtype=float)
        return MBR(np.minimum(self.lo, p), np.maximum(self.hi, p))

    def extend_mbr(self, other: "MBR") -> None:
        """Grow in place to cover ``other``."""
        np.minimum(self.lo, other.lo, out=self.lo)
        np.maximum(self.hi, other.hi, out=self.hi)

    def extend_point(self, point: np.ndarray) -> None:
        """Grow in place to cover ``point``."""
        p = np.asarray(point, dtype=float)
        np.minimum(self.lo, p, out=self.lo)
        np.maximum(self.hi, p, out=self.hi)

    def enlargement(self, other: "MBR") -> float:
        """Area increase needed to cover ``other`` (Guttman's ChooseLeaf)."""
        lo = np.minimum(self.lo, other.lo)
        hi = np.maximum(self.hi, other.hi)
        return float(np.prod(hi - lo)) - self.area()

    def overlap_area(self, other: "MBR") -> float:
        """Hyper-volume of the intersection (0 when disjoint)."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        sides = hi - lo
        if np.any(sides < 0):
            return 0.0
        return float(np.prod(sides))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        return f"MBR(lo={self.lo.tolist()}, hi={self.hi.tolist()})"
