"""Distance metrics for vector data.

The paper's algorithms require only that (a) point-to-point distances can be
computed and (b) bounding shapes admit cheap minimum/maximum distance
bounds.  Both hold for every Minkowski metric, so the whole library is
parameterised by a :class:`Metric`.

For Minkowski metrics the MBR arithmetic in :mod:`repro.geometry.mbr` is
exact: the diagonal of the minimum bounding rectangle of two points equals
their distance, which is the property the completeness proof (Theorem 1,
Case 2) relies on.

All bulk operations are vectorised with NumPy; leaf-level pairwise distance
matrices are the join algorithms' hot path.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

__all__ = [
    "Metric",
    "Minkowski",
    "Euclidean",
    "Manhattan",
    "Chebyshev",
    "get_metric",
    "triu_pair_indices",
]

# Upper-triangle index pairs are recomputed for every leaf the joins
# visit; leaves share a handful of sizes (bounded by the tree fanout), so
# a tiny cache turns that into one allocation per size.  Arrays in the
# cache are marked read-only to keep accidental in-place edits from
# poisoning later lookups.
_TRIU_CACHE: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
_TRIU_CACHE_MAX_K = 2048


def triu_pair_indices(k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Row/column indices of the strict upper triangle of a ``k x k`` grid.

    Equivalent to ``np.triu_indices(k, k=1)`` but cached for the leaf
    sizes the joins see repeatedly.  The pairs enumerate ``(a, b)`` with
    ``a < b`` in row-major order — the visit order of Figure 3's nested
    pair loops.
    """
    cached = _TRIU_CACHE.get(k)
    if cached is not None:
        return cached
    rows, cols = np.triu_indices(k, k=1)
    if k <= _TRIU_CACHE_MAX_K:
        rows.setflags(write=False)
        cols.setflags(write=False)
        _TRIU_CACHE[k] = (rows, cols)
    return rows, cols


class Metric:
    """Base class for distance metrics over ``R^d`` row vectors.

    Subclasses must implement :meth:`norm_rows`; every other operation is
    derived from it.  Metrics are stateless and hashable so they can be
    shared between trees, joins and tests.
    """

    #: Human-readable identifier, e.g. ``"euclidean"``.
    name: str = "abstract"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        """Return the metric norm of each row of ``diffs``.

        ``diffs`` may have any shape whose final axis is the coordinate
        axis; the result drops that axis.
        """
        raise NotImplementedError

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two points (1-D arrays)."""
        return float(self.norm_rows(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))

    def norm(self, v: np.ndarray) -> float:
        """Metric norm of a single vector."""
        return float(self.norm_rows(np.asarray(v, dtype=float)))

    def norm_seq(self, values: "list[float]") -> float:
        """Metric norm of a plain Python sequence of coordinates.

        The joins' per-link hot path works on 2-3 element sequences, where
        NumPy dispatch overhead dominates; subclasses provide scalar
        implementations.  The default falls back to :meth:`norm_rows`.
        """
        return float(self.norm_rows(np.asarray(values, dtype=float)))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ``len(a) x len(b)`` distance matrix between two point sets."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        return self.norm_rows(a[:, None, :] - b[None, :, :])

    def paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-aligned distances: ``dist(a[i], b[i])`` for each row ``i``."""
        return self.norm_rows(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))

    def self_pairwise(self, a: np.ndarray) -> np.ndarray:
        """Symmetric distance matrix of a point set with itself."""
        return self.pairwise(a, a)

    def condensed_self(self, a: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Condensed upper-triangle self-distances of a point set.

        Returns ``(rows, cols, dists)`` where ``(rows[i], cols[i])`` are
        the strict upper-triangle index pairs in row-major order and
        ``dists[i]`` their distance — the same values as
        ``self_pairwise(a)[rows, cols]`` without ever materialising the
        full ``k x k`` matrix (or its ``(k, k, d)`` difference tensor).
        Peak memory is ~2x smaller than the full-matrix path on dense
        leaves; the distances themselves are bit-identical because the
        elementwise subtraction and norm are unchanged.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        rows, cols = triu_pair_indices(len(a))
        diffs = a[rows]
        np.subtract(diffs, a[cols], out=diffs)
        return rows, cols, self.norm_rows(diffs)

    def point_to_points(self, p: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Distances from a single point to each row of ``pts``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.norm_rows(pts - np.asarray(p, dtype=float))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Metric) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Minkowski(Metric):
    """The L_p metric for a finite order ``p >= 1``."""

    def __init__(self, p: float):
        if p < 1:
            raise ValueError(f"Minkowski order must be >= 1, got {p}")
        if math.isinf(p):
            raise ValueError("use Chebyshev() for the L-infinity metric")
        self.p = float(p)
        self.name = f"minkowski-{self.p:g}"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(diffs) ** self.p, axis=-1) ** (1.0 / self.p)

    def norm_seq(self, values: "list[float]") -> float:
        return sum(abs(v) ** self.p for v in values) ** (1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Minkowski(p={self.p:g})"


class Euclidean(Minkowski):
    """The L2 metric, with a faster specialised norm."""

    def __init__(self) -> None:
        super().__init__(2.0)
        self.name = "euclidean"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(diffs * diffs, axis=-1))

    def norm_seq(self, values: "list[float]") -> float:
        return math.sqrt(sum(v * v for v in values))


class Manhattan(Minkowski):
    """The L1 (city-block) metric."""

    def __init__(self) -> None:
        super().__init__(1.0)
        self.name = "manhattan"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(diffs), axis=-1)

    def norm_seq(self, values: "list[float]") -> float:
        return sum(abs(v) for v in values)


class Chebyshev(Metric):
    """The L-infinity (maximum-coordinate) metric."""

    name = "chebyshev"

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        return np.max(np.abs(diffs), axis=-1)

    def norm_seq(self, values: "list[float]") -> float:
        return max(abs(v) for v in values)


_ALIASES: dict[str, Metric] = {
    "euclidean": Euclidean(),
    "l2": Euclidean(),
    "manhattan": Manhattan(),
    "cityblock": Manhattan(),
    "l1": Manhattan(),
    "chebyshev": Chebyshev(),
    "linf": Chebyshev(),
    "l-inf": Chebyshev(),
}


def get_metric(spec: Union[str, float, Metric, None] = None) -> Metric:
    """Resolve a metric specification to a :class:`Metric` instance.

    Accepts an existing metric (returned as-is), a name such as
    ``"euclidean"`` / ``"l1"`` / ``"linf"``, a numeric Minkowski order, or
    ``None`` for the default Euclidean metric.

    >>> get_metric("l1").name
    'manhattan'
    >>> get_metric(3).name
    'minkowski-3'
    """
    if spec is None:
        return _ALIASES["euclidean"]
    if isinstance(spec, Metric):
        return spec
    if isinstance(spec, str):
        try:
            return _ALIASES[spec.lower()]
        except KeyError:
            raise ValueError(
                f"unknown metric {spec!r}; known: {sorted(_ALIASES)}"
            ) from None
    if isinstance(spec, (int, float)):
        if math.isinf(spec):
            return _ALIASES["chebyshev"]
        if spec == 2:
            return _ALIASES["euclidean"]
        if spec == 1:
            return _ALIASES["manhattan"]
        return Minkowski(float(spec))
    raise TypeError(f"cannot interpret {spec!r} as a metric")
