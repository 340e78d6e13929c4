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
matrices are the join algorithms' hot path.  A vector metric is three
steps over a row of coordinate differences: a per-coordinate term (x²,
|x| or |x|^p), a left fold of the terms (``+``, or ``max`` for L∞) and a
finish (sqrt, ^(1/p) or nothing).  For rows of up to
:data:`FOLD_MAX_DIM` coordinates every distance is computed column by
column: :meth:`Metric.norm_rows` folds the coordinate views of its term
array, and :meth:`Metric.pairwise` and :meth:`Metric.condensed_self`
fold one difference array per coordinate, so their ``(..., d)``
difference tensor is never made.  NumPy reduces so short an
axis in the same order, so the distances are bit-identical to
``np.sum(terms, axis=-1)`` (``tests/test_metrics.py`` pins it).  The
coordinate axis is 2 or 3 wide in the paper's workloads, where NumPy is
slow both at broadcasting over it and at reducing it.  ``einsum``,
``@``, ``np.hypot`` and the ``|a|² + |b|² - 2ab`` expansion all round
differently, so none of them may stand in for the fold.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

__all__ = [
    "Metric",
    "Minkowski",
    "Euclidean",
    "Manhattan",
    "Chebyshev",
    "get_metric",
    "triu_pair_indices",
    "FOLD_MAX_DIM",
]

#: Widest row whose distances are folded column by column.  NumPy sums a
#: reduction axis shorter than 8 in one accumulator, left to right; from
#: 8 on its pairwise summation splits the terms over eight accumulators.
#: Up to this width a left fold over the columns is therefore
#: ``np.sum(..., axis=-1)`` bit for bit, and wider rows keep the
#: ``(..., d)`` tensor and NumPy's own reduction.
FOLD_MAX_DIM = 7


def _folds(x: np.ndarray) -> bool:
    """Whether ``x``'s last axis is a row :data:`FOLD_MAX_DIM` may fold."""
    return x.ndim > 0 and 0 < x.shape[-1] <= FOLD_MAX_DIM


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

    A vector metric defines three steps over a row of coordinate
    differences: :meth:`_term` (per coordinate), :attr:`_combine` (a ufunc
    that folds two terms) and :meth:`_finish`.  :meth:`norm_rows` and every
    bulk operation derive from them.  Metrics are stateless and hashable
    so they can be shared between trees, joins and tests.
    """

    #: Human-readable identifier, e.g. ``"euclidean"``.
    name: str = "abstract"

    #: Folds two coordinates' terms: ``np.add``, or ``np.maximum`` for L∞.
    _combine = np.add

    def _term(self, x: np.ndarray, out=None) -> np.ndarray:
        """Each coordinate's term of ``x`` (x², |x| or |x|^p), into ``out``."""
        raise NotImplementedError

    def _finish(self, s):
        """The norm from the folded terms ``s`` (sqrt, ^(1/p) or nothing)."""
        return s

    def norm_rows(self, diffs: np.ndarray) -> np.ndarray:
        """Return the metric norm of each row of ``diffs``.

        ``diffs`` may have any shape whose final axis is the coordinate
        axis; the result drops that axis.  The terms are taken once and
        their coordinate views folded left to right.
        """
        diffs = np.asarray(diffs)
        terms = self._term(diffs)
        if not _folds(diffs):
            return self._finish(self._combine.reduce(terms, axis=-1))
        # ``[()]`` makes a 1-D row's first term a NumPy scalar, as
        # ``np.sum`` returns one, so the finish takes the same scalar path.
        acc = terms[..., 0][()]
        for j in range(1, diffs.shape[-1]):
            acc = self._combine(acc, terms[..., j])
        return self._finish(acc)

    def _fold(self, d: int, diff: Callable[[int], np.ndarray]) -> np.ndarray:
        """Distances from ``d`` coordinate columns.

        ``diff(j)`` returns a fresh array of the ``j``-th coordinate's
        differences.  Each becomes its terms in place and is folded into
        the first, so no more than two such arrays are alive at once.
        """
        first = diff(0)
        acc = self._term(first, out=first)
        for j in range(1, d):
            column = diff(j)
            self._combine(acc, self._term(column, out=column), out=acc)
            del column  # freed before the next column is made
        return self._finish(acc)

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
        """Distances between two point sets: ``(n, m)`` for rows ``a`` and
        ``b``, or ``(K, n, m)`` for ``(K, n, d)`` / ``(K, m, d)`` batches."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if not (_folds(a) and b.shape[-1] == a.shape[-1]):
            return self.norm_rows(a[..., :, None, :] - b[..., None, :, :])
        return self._fold(
            a.shape[-1], lambda j: a[..., :, None, j] - b[..., None, :, j]
        )

    def paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-aligned distances: ``dist(a[i], b[i])`` for each row ``i``.

        The differences are one array the size of the input, whose column
        views :meth:`norm_rows` folds: at leaf sizes that takes fewer
        NumPy calls than a difference array per column.
        """
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
        Each coordinate's pair differences are two gathers of its column;
        the second is taken half at a time, so a coordinate holds at most
        2.5 pair-sized arrays next to the fold's, well under the two
        ``k x k`` arrays of the full matrix.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        rows, cols = triu_pair_indices(len(a))
        if not _folds(a):
            diffs = a[rows]
            np.subtract(diffs, a[cols], out=diffs)
            return rows, cols, self.norm_rows(diffs)
        half = len(rows) // 2

        def diff(j: int) -> np.ndarray:
            col = a[:, j]
            out = col[rows]
            out[:half] -= col[cols[:half]]
            out[half:] -= col[cols[half:]]
            return out

        return rows, cols, self._fold(a.shape[-1], diff)

    def point_to_points(self, p: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Distances from a single point to each row of ``pts``, as
        :meth:`paired` takes them."""
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

    def _term(self, x: np.ndarray, out=None) -> np.ndarray:
        terms = np.abs(x, out=out)
        if out is None:  # integer input too: the power makes the floats
            return terms ** self.p
        # ``**=`` takes the same power fast paths as ``**`` (x ** 2.0 is a
        # square), so the terms are those of ``np.abs(x) ** p``.
        terms **= self.p
        return terms

    def _finish(self, s):
        return s ** (1.0 / self.p)

    def norm_seq(self, values: "list[float]") -> float:
        return sum(abs(v) ** self.p for v in values) ** (1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Minkowski(p={self.p:g})"


class Euclidean(Minkowski):
    """The L2 metric, with a faster specialised norm."""

    def __init__(self) -> None:
        super().__init__(2.0)
        self.name = "euclidean"

    def _term(self, x: np.ndarray, out=None) -> np.ndarray:
        return np.multiply(x, x, out=out)

    def _finish(self, s):
        return np.sqrt(s)

    def norm_seq(self, values: "list[float]") -> float:
        return math.sqrt(sum(v * v for v in values))


class Manhattan(Minkowski):
    """The L1 (city-block) metric."""

    def __init__(self) -> None:
        super().__init__(1.0)
        self.name = "manhattan"

    _finish = Metric._finish

    def _term(self, x: np.ndarray, out=None) -> np.ndarray:
        return np.abs(x, out=out)

    def norm_seq(self, values: "list[float]") -> float:
        return sum(abs(v) for v in values)


class Chebyshev(Metric):
    """The L-infinity (maximum-coordinate) metric."""

    name = "chebyshev"
    _combine = np.maximum

    def _term(self, x: np.ndarray, out=None) -> np.ndarray:
        return np.abs(x, out=out)

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
