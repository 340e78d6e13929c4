"""SSJ — the standard tree-based similarity self-join (Section IV-A).

This is the paper's baseline: the classic recursive R-tree join of
Brinkhoff, Kriegel and Seeger [1], generalised to any index satisfying the
:mod:`repro.index.base` contract.  The tree is descended depth-first; node
pairs are pruned with the minimum-distance lower bound; at the leaves all
qualifying pairs are enumerated *individually* — which is precisely what
triggers the output explosion the compact algorithms fix.

The descent is the one shared by every tree join
(:func:`repro.core.csj.tree_join`) with the early stops switched off.
Leaf-level pair checks are vectorised with NumPy (one padded distance
array per window of small leaf units, one matrix per larger leaf or leaf
pair), but the logical distance-computation count recorded in
:class:`~repro.stats.counters.JoinStats` matches the scalar algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.csj import tree_join
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError, validate_eps
from repro.index.base import SpatialIndex
from repro.io.pagesim import NodePager
from repro.io.writer import width_for
from repro.stats.counters import JoinStats

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["ssj"]


def ssj(
    tree: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Run the standard similarity join on ``tree`` with range ``eps``.

    Every qualifying pair is written to ``sink`` as an individual link.
    Returns a :class:`~repro.core.results.JoinResult`; when ``sink`` is
    omitted a collecting sink is used and the result carries the links.

    ``budget`` bounds the run cooperatively.  An output-byte breach
    *degrades gracefully*: instead of dying mid-explosion (the paper's
    SSJ crashes, Section VI), the run switches to the analytic estimator
    and returns a result flagged ``estimated=True``.  Any other breach
    (deadline, group cap) raises
    :class:`~repro.errors.BudgetExceededError` with the valid partial
    result attached as ``exc.partial``.
    """
    eps = validate_eps(eps)
    if sink is None:
        sink = CollectSink(id_width=width_for(tree.size))
    try:
        return tree_join(tree, eps, 0, False, sink, pager, budget, "ssj")
    except BudgetExceededError as exc:
        if exc.kind == "output_bytes":
            return _estimated_fallback(tree, eps, sink, sink.stats)
        raise


def _estimated_fallback(tree: SpatialIndex, eps: float, sink: JoinSink, partial_stats):
    """The paper's crash protocol as a first-class mechanism.

    The exact link count is obtained cheaply (dual-tree counting, no pair
    materialisation) and the output size follows from the fixed-width
    format; the returned result carries ``estimated=True`` so tables can
    mark it like the paper's "full, black shapes".
    """
    from repro.experiments.estimate import estimate_ssj  # deferred: no cycle

    estimate = estimate_ssj(tree.points, eps, sink.id_width, metric=tree.metric)
    stats = JoinStats()
    stats.links_emitted = estimate.links
    stats.bytes_written = estimate.output_bytes
    # Keep the honest measurements made before the breach.
    stats.compute_time = partial_stats.compute_time
    stats.write_time = partial_stats.write_time
    stats.distance_computations = partial_stats.distance_computations
    return JoinResult(
        eps=eps,
        algorithm="ssj",
        stats=stats,
        index_name=type(tree).name,
        estimated=True,
    )
