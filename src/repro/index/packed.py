"""Structure-of-arrays view of a spatial index for the frontier traversal.

The tree indexes store one Python object per node, so any traversal pays
attribute lookups and tiny-array arithmetic per node pair.
:func:`pack_index` flattens a finished tree once per join into level-order
arrays:

::

    nodes      : packed id -> IndexNode        (for pagers / group emission)
    leaf       : (n,) bool                     is node a leaf?
    child_beg/child_end : (n,) intp            children of i are ids
                                               [child_beg[i], child_end[i])
    entry_beg/entry_end : (n,) intp            leaf i's entries are
                                               entries[entry_beg[i]:entry_end[i]]
    entries    : (total_entries,) intp         contiguous leaf entry blocks
    lo, hi     : (n, d) float                  rect kind: MBR corners
    centers    : (n, d) float; radii : (n,)    ball kind: covering balls
    diam       : (n,) float                    node diameters, batched

Packing uses *level-order* numbering, which makes every node's children a
contiguous id range — child geometry blocks are array slices (views), not
gathers.  ``diam`` and all pairwise bounds computed from these arrays are
bit-identical to the per-node scalar methods because the packed rows are
float64 copies of the very arrays those methods read, combined with the
same elementwise operations (see :mod:`repro.geometry.kernels`).

Packing is total: every non-empty R-tree, R*-tree and M-tree packs,
including an M-tree over an
:class:`~repro.core.metricspace.ObjectMetric`, whose ball kernels reach
the objects through the metric's distance methods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.index.base import IndexNode, SpatialIndex

__all__ = [
    "PackedIndex",
    "adopt_packed_arrays",
    "export_packed_arrays",
    "pack_index",
]


class PackedIndex:
    """Flattened (structure-of-arrays) form of one spatial index tree."""

    __slots__ = (
        "kind",
        "points",
        "metric",
        "nodes",
        "leaf",
        "child_beg",
        "child_end",
        "entry_beg",
        "entry_end",
        "entries",
        "lo",
        "hi",
        "centers",
        "radii",
        "diam",
    )

    def __init__(self, kind: str, points: np.ndarray, metric):
        self.kind = kind
        self.points = points
        self.metric = metric
        self.nodes: list[IndexNode] = []
        self.leaf: np.ndarray = None
        self.child_beg: np.ndarray = None
        self.child_end: np.ndarray = None
        self.entry_beg: np.ndarray = None
        self.entry_end: np.ndarray = None
        self.entries: np.ndarray = None
        self.lo: Optional[np.ndarray] = None
        self.hi: Optional[np.ndarray] = None
        self.centers: Optional[np.ndarray] = None
        self.radii: Optional[np.ndarray] = None
        self.diam: np.ndarray = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes) if self.nodes else len(self.leaf)

    # ------------------------------------------------------------------
    # Id-based entry access (works without the node-object list, e.g. on
    # a worker that adopted the arrays from shared memory)
    # ------------------------------------------------------------------
    def leaf_entry_ids(self, nid: int) -> np.ndarray:
        """Entry ids of leaf ``nid`` (a view into :attr:`entries`)."""
        return self.entries[self.entry_beg[nid] : self.entry_end[nid]]

    def subtree_entry_ids(self, nid: int) -> np.ndarray:
        """All entry ids below ``nid``, in DFS (left-to-right leaf) order.

        Level-order packing keeps each node's children contiguous *and*
        in ``node.children`` order, so this DFS concatenation reproduces
        ``IndexNode.subtree_ids()`` exactly.
        """
        if self.leaf[nid]:
            return self.leaf_entry_ids(nid)
        blocks: list[np.ndarray] = []
        stack = [int(nid)]
        while stack:
            i = stack.pop()
            if self.leaf[i]:
                blocks.append(self.leaf_entry_ids(i))
            else:
                stack.extend(
                    range(int(self.child_end[i]) - 1, int(self.child_beg[i]) - 1, -1)
                )
        if not blocks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(blocks)

    # ------------------------------------------------------------------
    # Batched pruning over packed node-id selections
    # ------------------------------------------------------------------
    def prune_self(self, beg: int, end: int, eps: float):
        """Surviving ``(a, b)``, ``a < b`` pairs within one child block.

        Returned indices are *local* offsets into ``[beg, end)``, in the
        canonical row-major order of Figure 3's pair loop.
        """
        if self.kind == "rect":
            return kernels.self_pairs_within(
                self.lo[beg:end], self.hi[beg:end], eps, self.metric
            )
        return kernels.ball_self_pairs_within(
            self.centers[beg:end], self.radii[beg:end], eps, self.metric
        )

    def prune_cross(self, ids1, ids2, eps: float, other: "PackedIndex" = None):
        """Surviving cross pairs between two packed-id selections.

        ``ids1`` / ``ids2`` are packed node ids (arrays or slices) of this
        index and of ``other`` (defaults to self, for self-join descents).
        Returns *local* row/col offsets into the two selections, row-major.
        """
        if other is None:
            other = self
        if self.kind == "rect":
            return kernels.cross_pairs_within(
                self.lo[ids1], self.hi[ids1], other.lo[ids2], other.hi[ids2],
                eps, self.metric,
            )
        return kernels.ball_cross_pairs_within(
            self.centers[ids1], self.radii[ids1],
            other.centers[ids2], other.radii[ids2],
            eps, self.metric,
        )

    def union_diag(self, ids1, ids2, other: "PackedIndex" = None) -> np.ndarray:
        """Union diameters of aligned packed-id pairs (batched
        ``IndexNode.union_diameter``)."""
        if other is None:
            other = self
        if self.kind == "rect":
            return kernels.union_diagonal_pairs(
                self.lo[ids1], self.hi[ids1], other.lo[ids2], other.hi[ids2],
                self.metric,
            )
        return kernels.ball_union_diameter_pairs(
            self.centers[ids1], self.radii[ids1],
            other.centers[ids2], other.radii[ids2],
            self.metric,
        )


def pack_index(index: SpatialIndex) -> Optional[PackedIndex]:
    """Flatten ``index`` into a :class:`PackedIndex` (``None`` when empty).

    The result is memoized on the index, keyed by its
    ``_structure_version``, so repeated joins over an unchanged tree —
    the ``csj serve`` steady state — flatten it once.  Any structural
    mutation (``add_point`` / ``delete`` / ``compact``) bumps the version
    and invalidates the memo.
    """
    version = getattr(index, "_structure_version", None)
    if version is not None:
        cached = getattr(index, "_packed_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1]
    packed = _pack_index_uncached(index)
    if version is not None:
        index._packed_cache = (version, packed)
    return packed


def _pack_index_uncached(index: SpatialIndex) -> Optional[PackedIndex]:
    root = index.root
    if root is None:
        return None
    # Duck-typed, so node proxies (e.g. FlakyIndex's) pack like their nodes.
    if hasattr(root, "mbr"):
        kind = "rect"
    elif hasattr(root, "radius"):
        kind = "ball"
    else:
        raise TypeError(f"cannot pack {type(root).__name__} nodes")
    points = index.points
    dim = points.shape[1] if getattr(points, "ndim", 0) == 2 else 0

    packed = PackedIndex(kind, points, index.metric)
    nodes = packed.nodes
    nodes.append(root)
    leaf: list[bool] = []
    child_beg: list[int] = []
    child_end: list[int] = []
    entry_beg: list[int] = []
    entry_end: list[int] = []
    entry_blocks: list = []
    total_entries = 0
    # Level-order fill (the loop visits the nodes it appends): appending
    # each node's children as a batch numbers them contiguously, so child
    # blocks are slices of the packed arrays.  Each node's children or
    # entries are read exactly once.
    for node in nodes:
        if node.is_leaf:
            ids = node.entry_ids
            leaf.append(True)
            child_beg.append(0)
            child_end.append(0)
            entry_beg.append(total_entries)
            total_entries += len(ids)
            entry_end.append(total_entries)
            entry_blocks.append(ids)
        else:
            leaf.append(False)
            child_beg.append(len(nodes))
            nodes.extend(node.children)
            child_end.append(len(nodes))
            entry_beg.append(0)
            entry_end.append(0)
    n = len(nodes)
    packed.leaf = np.array(leaf, dtype=bool)
    packed.child_beg = np.array(child_beg, dtype=np.intp)
    packed.child_end = np.array(child_end, dtype=np.intp)
    packed.entry_beg = np.array(entry_beg, dtype=np.intp)
    packed.entry_end = np.array(entry_end, dtype=np.intp)
    packed.entries = (
        np.concatenate([np.asarray(b, dtype=np.intp) for b in entry_blocks])
        if entry_blocks
        else np.empty(0, dtype=np.intp)
    )

    if kind == "rect":
        packed.lo, packed.hi = MBR.stack(node.mbr for node in nodes)
        packed.diam = kernels.diagonal(packed.lo, packed.hi, index.metric)
    else:
        packed.centers = np.empty((n, dim), dtype=float)
        packed.radii = np.empty(n, dtype=float)
        for nid, node in enumerate(nodes):
            packed.centers[nid] = node.center
            packed.radii[nid] = node.radius
        packed.diam = kernels.ball_diameter(packed.radii)
    return packed


#: Array fields shipped through the shared-memory data plane, per kind.
#: (``points`` and ``nodes`` are deliberately absent: points travel in
#: their own segment; the node-object list never leaves the owner.)
_EXPORT_FIELDS = {
    "rect": (
        "leaf", "child_beg", "child_end", "entry_beg", "entry_end",
        "entries", "lo", "hi", "diam",
    ),
    "ball": (
        "leaf", "child_beg", "child_end", "entry_beg", "entry_end",
        "entries", "centers", "radii", "diam",
    ),
}


def export_packed_arrays(
    packed: PackedIndex,
) -> Optional[list[tuple[str, np.ndarray]]]:
    """The packed arrays as an ordered ``(name, array)`` list, or ``None``.

    This is the owner side of the shared-memory data plane: the returned
    arrays are copied verbatim into one segment and rebuilt on workers by
    :func:`adopt_packed_arrays`, so the pair must stay inverse to each
    other field-for-field.
    """
    fields = _EXPORT_FIELDS.get(packed.kind)
    if fields is None:  # pragma: no cover - only rect/ball kinds exist
        return None
    out = []
    for name in fields:
        arr = getattr(packed, name)
        if arr is None:
            return None
        out.append((name, np.ascontiguousarray(arr)))
    return out


def adopt_packed_arrays(
    kind: str, points: np.ndarray, metric, arrays: dict[str, np.ndarray]
) -> PackedIndex:
    """Rebuild a :class:`PackedIndex` over externally provided arrays.

    The inverse of :func:`export_packed_arrays` — used by workers to
    adopt arrays mapped from shared memory without touching the tree
    code.  The resulting index has an empty :attr:`PackedIndex.nodes`
    list; only id-based accessors work, which is all the packed-id task
    path needs.
    """
    fields = _EXPORT_FIELDS[kind]
    missing = [name for name in fields if name not in arrays]
    if missing:
        raise ValueError(f"packed arrays missing fields: {missing}")
    packed = PackedIndex(kind, points, metric)
    for name in fields:
        setattr(packed, name, arrays[name])
    return packed
