"""Dual-tree spatial joins between two datasets (Section IV-D).

The self-join algorithms adapt directly to spatial joins: only the
two-node subroutine is invoked, starting from the two roots.  Output
semantics change, though — a spatial join reports only *cross* pairs, one
point from each dataset, so the compact output consists of **group
pairs** ``(A, B)`` standing for all links in ``A x B``.  The invariant is
the same as for self-join groups: the combined MBR of ``A ∪ B`` has a
diagonal strictly below the query range, which guarantees every cross pair
qualifies.

The join is the self-join's walk (:func:`repro.core.frontier.traverse`
with ``other``), batches (:func:`repro.core.csj.tree_plan`) and loop
(:func:`repro.core.csj.run_batches`), started at the pair of the two
roots, into :class:`PairWindow`, the CSJ(g) merge window with a
group-pair write-out.

As the paper observes, when the two datasets populate the same dense
regions their indexes place similarly small nodes there, so the dual-node
early stop still fires where an output explosion threatens; with disjoint
distributions the inclusion check rarely succeeds, but then there is no
explosion to control either.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.csj import run_batches, serial_join, tree_plan
from repro.core.frontier import traverse
from repro.core.groups import Group, GroupBuffer
from repro.core.metricspace import ObjectMetric
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import InvalidInputError, validate_eps, validate_points
from repro.index.base import SpatialIndex
from repro.index.packed import pack_index
from repro.io.writer import width_for

__all__ = ["spatial_join", "compact_spatial_join", "PairWindow", "validate_datasets"]


def spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Standard dual-tree spatial join: every cross link individually.

    Link ids are positional: ``(i, j)`` means row ``i`` of ``tree_a``'s
    points and row ``j`` of ``tree_b``'s.  Links are therefore *not*
    normalised to ``i < j`` — the two sides are different relations.
    """
    return _dual_join(tree_a, tree_b, eps, sink, g=None, label="ssj-spatial")


def compact_spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Compact dual-tree spatial join: group pairs plus residual links.

    ``g = 0`` gives the naive variant (early stop only, no link merging),
    mirroring N-CSJ.  The pair-group window bounds groups by rectangles,
    so over an :class:`~repro.core.metricspace.ObjectMetric` only
    ``g = 0`` runs; ``g > 0`` raises
    :class:`~repro.errors.InvalidInputError` before any work.
    """
    label = f"csj({g})-spatial" if g else "ncsj-spatial"
    return _dual_join(tree_a, tree_b, eps, sink, g=g, label=label)


def validate_datasets(
    points_a, points_b, eps: float, g: int, metric_a, metric_b
) -> tuple[np.ndarray, np.ndarray, float]:
    """Check a two-dataset join's inputs: ``(points_a, points_b, eps)``.

    Raises :class:`~repro.errors.InvalidInputError` for a bad range, a
    negative window ``g`` (0 for a plain join), a bad point array (one of
    shape ``(0, d)`` joins nothing), two dimensions, two metrics, or an
    object metric with ``g > 0``.
    """
    eps = validate_eps(eps)
    if g < 0:
        raise InvalidInputError(f"window size g must be >= 0, got {g}")
    a, b = (
        points if isinstance(points, np.ndarray) and points.ndim == 2 and not len(points)
        else validate_points(points, name)
        for name, points in (("points_a", points_a), ("points_b", points_b))
    )
    if a.shape[1] != b.shape[1]:
        raise InvalidInputError(
            f"the two datasets differ in dimension: {a.shape[1]} against {b.shape[1]}"
        )
    if metric_a != metric_b:
        raise InvalidInputError(f"metric mismatch: {metric_a.name} vs {metric_b.name}")
    if g > 0 and isinstance(metric_a, ObjectMetric):
        raise InvalidInputError(
            f"object metric {metric_a.name!r} has no coordinates for the "
            "spatial join's rectangle merge window; run it with g=0"
        )
    return a, b, eps


def _dual_join(tree_a, tree_b, eps, sink, g, label) -> JoinResult:
    _, _, eps = validate_datasets(
        tree_a.points, tree_b.points, eps, g or 0, tree_a.metric, tree_b.metric
    )
    packed_a = pack_index(tree_a)
    packed_b = pack_index(tree_b)
    if (
        packed_a is not None
        and packed_b is not None
        and packed_a.kind != packed_b.kind
    ):
        raise InvalidInputError(
            f"spatial join needs two indexes of one family: {type(tree_a).name} "
            f"has {packed_a.kind} nodes, {type(tree_b).name} has {packed_b.kind} nodes"
        )
    if sink is None:
        sink = CollectSink(id_width=width_for(max(tree_a.size, tree_b.size)))
    compact = g is not None
    dim = tree_a.points.shape[1]
    window = PairWindow(g, eps, sink, tree_a.metric, dim=dim) if compact else None

    def body() -> None:
        if packed_a is not None and packed_b is not None:
            units = traverse(packed_a, eps, compact, sink.stats, other=packed_b)
            run_batches(*tree_plan(
                units, tree_a.points, tree_a.metric, eps, g or 0, packed_a, packed_b
            ), sink, window, sink.stats)

    return serial_join(
        body, sink, window, None,
        dict(eps=eps, algorithm=label, g=g, index_name=type(tree_a).name), label,
    )


class PairWindow(GroupBuffer):
    """The CSJ(g) merge window over the cross links of two datasets.

    Side b's ids enter tagged ``~j``, so a group's one id set holds both
    relations and every merge test is :class:`GroupBuffer`'s, 2-D and
    3-D fast paths included.  A group leaves the window as one group
    pair, or as a raw link when it holds one point per side.  The
    dual-tree join and the spatial hash join both write through it.
    """

    def _write_out(self, group: Group) -> None:
        ids = group.ids
        if len(ids) == 2:
            self.sink.write_link_raw(max(ids), ~min(ids))
            return
        self.sink.write_group_pair(
            [i for i in ids if i >= 0], [~i for i in ids if i < 0]
        )
