"""One traversal: the frontier generator against the Figure 3 recursion.

Every tree join walks :func:`repro.core.frontier.traverse`.  Its reference
here is the paper's recursion itself (Figure 3), written over node
objects: it yields the same work units and charges ``nodes_visited``,
``node_pairs_visited`` and ``mbr_checks`` where a recursive runner would.
Over the paper's two workload shapes (the Figure 5 real-data distribution
and the Figure 7 fractal), three index families, ssj / ncsj / csj(10),
the dual join and an object-metric M-tree, the generator must yield the
reference's unit sequence, the serial joins must reproduce the output and
counters of the reference executed in place, and every output must expand
to exactly the brute-force link set.  Over an object metric the
reference's early-stopped groups are the covering balls of Section VII,
replayed through the ball merge window.
"""

import numpy as np
import pytest

from repro.api import build_index
from repro.core.bruteforce import brute_force_cross_links, brute_force_links
from repro.core.csj import (
    LEAF_WINDOW,
    csj,
    leaf_window_delta,
    ncsj,
    tree_task_delta,
)
from repro.core.dual import compact_spatial_join, spatial_join
from repro.core.frontier import traverse
from repro.core.groups import GroupBuffer
from repro.core.metricspace import (
    BallGroupBuffer,
    ObjectMetric,
    brute_force_object_links,
    build_metric_index,
)
from repro.core.results import CollectSink
from repro.core.ssj import ssj
from repro.core.verify import check_equivalence
from repro.datasets import load_dataset
from repro.geometry.metrics import Minkowski
from repro.index.packed import PackedIndex, pack_index
from repro.index.rtree import RectNode
from repro.io.writer import width_for
from repro.parallel.tasks import JoinSpec
from repro.stats.counters import JoinStats

WORKLOADS = {
    "mg_county": (load_dataset("mg_county", 300, seed=0), 0.05),
    "sierpinski3d": (load_dataset("sierpinski3d", 400, seed=0), 0.125),
    # Integer lattice: node and pair diameters tie with eps = sqrt(40)
    # exactly, so the strictness of the early-stop tests is exercised.
    "lattice": (np.indices((12, 12)).reshape(2, -1).T.astype(float), 40 ** 0.5),
}
INDEXES = {"rstar": "str", "rtree": None, "mtree": None}
ALGORITHMS = {"ssj": 0, "ncsj": 0, "csj": 10}
SERIAL = {
    "ssj": lambda tree, eps: ssj(tree, eps),
    "ncsj": lambda tree, eps: ncsj(tree, eps),
    "csj": lambda tree, eps: csj(tree, eps, g=10),
}


def reference_units(tree, eps, compact, stats, other=None):
    """Figure 3 over node objects: the work units, counters charged.

    Starts at ``tree``'s root (``simJoin(n)``), or at the pair of the two
    roots when ``other`` is given (the dual join's ``simJoin(n1, n2)``).
    """
    metric = tree.metric
    units = []

    def visit(node):
        stats.nodes_visited += 1
        if compact:
            stats.mbr_checks += 1
            if node.diameter(metric) < eps:
                units.append(("group", node))
                return
        if node.is_leaf:
            units.append(("self", node))
            return
        children = node.children
        for child in children:
            visit(child)
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                stats.mbr_checks += 1
                if children[a].min_dist(children[b], metric) < eps:
                    visit_pair(children[a], children[b])

    def visit_pair(n1, n2):
        stats.node_pairs_visited += 1
        if compact:
            stats.mbr_checks += 1
            if n1.union_diameter(n2, metric) < eps:
                units.append(("pgroup", n1, n2))
                return
        if n1.is_leaf and n2.is_leaf:
            units.append(("cross", n1, n2))
        elif n1.is_leaf:
            for child in n2.children:
                stats.mbr_checks += 1
                if n1.min_dist(child, metric) < eps:
                    visit_pair(n1, child)
        elif n2.is_leaf:
            for child in n1.children:
                stats.mbr_checks += 1
                if child.min_dist(n2, metric) < eps:
                    visit_pair(child, n2)
        else:
            for c1 in n1.children:
                for c2 in n2.children:
                    stats.mbr_checks += 1
                    if c1.min_dist(c2, metric) < eps:
                        visit_pair(c1, c2)

    if other is not None:
        visit_pair(tree.root, other.root)
    elif tree.root is not None and tree.size > 1:
        visit(tree.root)
    return units


def as_ids(units, packed_a, packed_b=None):
    """Reference units with node objects replaced by packed node ids."""
    packed_b = packed_b or packed_a
    ids_a = {id(node): nid for nid, node in enumerate(packed_a.nodes)}
    ids_b = {id(node): nid for nid, node in enumerate(packed_b.nodes)}
    out = []
    for unit in units:
        ids = [ids_a[id(unit[1])]]
        if len(unit) == 3:
            ids.append(ids_b[id(unit[2])])
        out.append((unit[0], *ids))
    return out


def reference_join(tree, eps, g, compact):
    """The reference units executed in place, as a recursive runner did."""
    sink = CollectSink(id_width=width_for(tree.size))
    stats = sink.stats
    points, metric = tree.points, tree.metric
    balls = isinstance(metric, ObjectMetric)
    buffer = None
    if compact and balls:
        buffer = BallGroupBuffer(g, eps, sink, metric)
    elif compact:
        buffer = GroupBuffer(g, eps, sink, metric=metric, dim=points.shape[1])
    for kind, *nodes in reference_units(tree, eps, compact, stats):
        if kind in ("group", "pgroup"):
            stats.early_stops += 1
            ids = np.concatenate([node.subtree_ids() for node in nodes])
            if len(ids) < 2:
                continue
            if balls:
                # The first node's ball, grown to cover the second's; the
                # center distance is uncharged (the early-stop test paid).
                center, radius = nodes[0].center, nodes[0].radius
                if len(nodes) == 2:
                    d = metric.distance(center, nodes[1].center)
                    radius = max(radius, d + nodes[1].radius)
                buffer.create_group(ids.tolist(), center.tolist(), radius)
                continue
            if isinstance(nodes[0], RectNode):
                box = nodes[0].mbr
                for node in nodes[1:]:
                    box = box.union(node.mbr)
                lo, hi = box.lo.tolist(), box.hi.tolist()
            else:
                lo = points[ids].min(axis=0).tolist()
                hi = points[ids].max(axis=0).tolist()
            buffer.create_group(ids.tolist(), lo, hi)
            continue
        ids1 = np.asarray(nodes[0].entry_ids, dtype=np.intp)
        ids2 = np.asarray(nodes[-1].entry_ids, dtype=np.intp)
        if kind == "self":
            rows, cols = np.triu_indices(len(ids1), 1)
        else:
            rows, cols = (a.ravel() for a in np.indices((len(ids1), len(ids2))))
        stats.distance_computations += len(rows)
        if not len(rows):
            continue
        hit = metric.pairwise(points[ids1], points[ids2])[rows, cols] < eps
        rows, cols = rows[hit], cols[hit]
        if not len(rows):
            continue
        if g == 0:
            sink.write_links(ids1[rows], ids2[cols])
            continue
        for r, c in zip(rows.tolist(), cols.tolist()):
            i, j = int(ids1[r]), int(ids2[c])
            buffer.add_link(i, j, points[i].tolist(), points[j].tolist())
    if buffer is not None:
        buffer.flush()
    return sink


def _payload(result):
    return (result.links, result.groups, result.group_pairs)


def _int_stats(stats):
    return {k: v for k, v in stats.as_dict().items() if isinstance(v, int)}


def _traversal_counters(stats):
    return (stats.nodes_visited, stats.node_pairs_visited, stats.mbr_checks)


def _check_serial_cell(tree, eps, algorithm, truth):
    g = ALGORITHMS[algorithm]
    compact = algorithm != "ssj"
    packed = pack_index(tree)

    reference = JoinStats()
    expected_units = as_ids(reference_units(tree, eps, compact, reference), packed)
    walked = JoinStats()
    assert list(traverse(packed, eps, compact, walked)) == expected_units
    assert _traversal_counters(walked) == _traversal_counters(reference)
    # The enumeration form (no stats object) walks the same units.
    assert list(traverse(packed, eps, compact)) == expected_units

    ref_sink = reference_join(tree, eps, g, compact)
    result = SERIAL[algorithm](tree, eps)
    assert _payload(result) == (ref_sink.links, ref_sink.groups, ref_sink.group_pairs)
    assert _int_stats(result.stats) == _int_stats(ref_sink.stats)
    report = check_equivalence(tree.points, eps, result, ground_truth=truth)
    assert report.ok, report


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_join_matches_figure3(workload, index, algorithm):
    pts, eps = WORKLOADS[workload]
    tree = build_index(pts, index, max_entries=8, bulk=INDEXES[index])
    truth = brute_force_links(pts, eps)
    _check_serial_cell(tree, eps, algorithm, truth)


@pytest.mark.parametrize("compact", [False, True], ids=["plain", "compact"])
@pytest.mark.parametrize("index", sorted(INDEXES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_dual_join_matches_figure3(workload, index, compact):
    pts_a, eps = WORKLOADS[workload]
    pts_b = pts_a[::2] + 0.5 if workload == "lattice" else load_dataset(
        workload, len(pts_a) - 50, seed=1
    )
    bulk = INDEXES[index]
    tree_a = build_index(pts_a, index, max_entries=8, bulk=bulk)
    tree_b = build_index(pts_b, index, max_entries=8, bulk=bulk)
    pa, pb = pack_index(tree_a), pack_index(tree_b)

    reference = JoinStats()
    expected = as_ids(
        reference_units(tree_a, eps, compact, reference, other=tree_b), pa, pb
    )
    walked = JoinStats()
    assert list(traverse(pa, eps, compact, walked, other=pb)) == expected
    assert _traversal_counters(walked) == _traversal_counters(reference)

    if compact:
        result = compact_spatial_join(tree_a, tree_b, eps, g=10)
        implied = result.expanded_cross_links()
    else:
        result = spatial_join(tree_a, tree_b, eps)
        implied = set(result.links)
    stats = result.stats
    # The pair-group window charges one mbr check per merge attempt on
    # top of the traversal's.
    assert (
        stats.nodes_visited,
        stats.node_pairs_visited,
        stats.mbr_checks - stats.merge_attempts,
    ) == _traversal_counters(reference)
    assert stats.early_stops == sum(unit[0] == "pgroup" for unit in expected)
    assert implied == brute_force_cross_links(pts_a, pts_b, eps)


def hamming(a: str, b: str) -> float:
    return float(sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_object_metric_mtree_matches_figure3(algorithm):
    rng = np.random.default_rng(3)
    words = []
    for seed_word in ("alpha", "bridge", "crystal", "domino", "eagle"):
        words.append(seed_word)
        for _ in range(20):
            chars = list(seed_word)
            chars[int(rng.integers(len(chars)))] = "abcdefghij"[int(rng.integers(10))]
            words.append("".join(chars))
    tree = build_metric_index(words, hamming, max_entries=4)
    truth = brute_force_object_links(words, 2.5, hamming)
    _check_serial_cell(tree, 2.5, algorithm, truth)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_task_list_is_the_walk(algorithm):
    """Checkpointed and pool runs list the same units the serial loop walks."""
    pts, eps = WORKLOADS["mg_county"]
    spec = JoinSpec(pts, eps, algorithm=algorithm, g=ALGORITHMS[algorithm],
                    max_entries=8)
    state = spec.build_state()
    assert state.tasks == list(traverse(state.packed, eps, spec.compact))
    assert state.tasks


def test_every_index_packs():
    pts, _ = WORKLOADS["mg_county"]
    for index, bulk in INDEXES.items():
        packed = pack_index(build_index(pts, index, max_entries=8, bulk=bulk))
        assert isinstance(packed, PackedIndex), index
    words = ["cat", "bat", "hat", "zzzzzz", "cab"]
    packed = pack_index(build_metric_index(words, hamming, max_entries=2))
    assert isinstance(packed, PackedIndex)
    assert packed.kind == "ball"


# Leaf windows: the serial join evaluates runs of leaf units in one padded
# gather.  Its reference is the per-unit executors, run one after another.
WINDOW_DIMS = [1, 2, 3, 7, 8, 9, 17]  # NumPy's sum unrolls from 8 elements
WINDOW_METRICS = {
    "euclidean": "euclidean",
    "manhattan": "manhattan",
    "chebyshev": "chebyshev",
    "minkowski3": Minkowski(3),
}
WINDOW_TREES = {  # (bulk, fanout): insertion-built trees have ragged leaves
    "insert-f6": (None, 6),
    "insert-f16": (None, 16),
    "str-f8": ("str", 8),
}


def _flat_events(events):
    """Events as one ``(kind, ids_i, ids_j, coords_i, coords_j)`` row."""
    kinds = {event[0] for event in events}
    assert len(kinds) <= 1
    ids_i, ids_j, coords_i, coords_j = [], [], [], []
    for event in events:
        ids_i += list(map(int, event[1]))
        ids_j += list(map(int, event[2]))
        if event[0] == "linkseq":
            coords_i += event[3]
            coords_j += event[4]
    return (kinds.pop() if kinds else None, ids_i, ids_j, coords_i, coords_j)


def _random_window(packed, rng):
    """Mixed self/cross units within ``LEAF_WINDOW`` padded slots."""
    leaves = np.flatnonzero(packed.leaf).tolist()
    sizes = (packed.entry_end - packed.entry_beg).tolist()
    window, width = [], 0
    for _ in range(int(rng.integers(2, 24))):
        a = leaves[int(rng.integers(len(leaves)))]
        b = leaves[int(rng.integers(len(leaves)))]
        unit = ("self", a) if a == b or rng.random() < 0.25 else ("cross", a, b)
        grown = max(width, sizes[a], sizes[b])
        if (len(window) + 1) * grown * grown > LEAF_WINDOW:
            break
        window.append(unit)
        width = grown
    return window


def _realised_eps(points, packed, metric, window, rng):
    """A distance some unit of ``window`` evaluates: a tie for ``<``."""
    unit = window[int(rng.integers(len(window)))]
    block_a = points[packed.leaf_entry_ids(unit[1])]
    block_b = points[packed.leaf_entry_ids(unit[-1])]
    dists = metric.pairwise(block_a, block_b)
    return float(dists.flat[int(rng.integers(dists.size))])


@pytest.mark.parametrize("metric_name", sorted(WINDOW_METRICS))
@pytest.mark.parametrize("dim", WINDOW_DIMS)
def test_leaf_window_matches_per_unit(dim, metric_name):
    """One padded window gives the per-unit events and charges, bit for bit.

    Half the points sit on a quarter lattice, so realised distances tie
    often; eps is always a distance some unit of the window evaluates,
    so the strict ``<`` and the last bit of every reduction are tested.
    """
    rng = np.random.default_rng(100 * dim + len(metric_name))
    n = 240
    lattice = rng.integers(0, 5, size=(n // 2, dim)) * 0.25
    jitter = rng.random((n - n // 2, dim)) * 1.25
    points = np.vstack([lattice, jitter])
    checked = 0
    for bulk, fanout in WINDOW_TREES.values():
        tree = build_index(
            points, "rstar", metric=WINDOW_METRICS[metric_name],
            max_entries=fanout, bulk=bulk,
        )
        packed = pack_index(tree)
        metric = tree.metric
        if packed.leaf.sum() < 2:
            continue
        for _ in range(10):
            window = _random_window(packed, rng)
            if len(window) < 2:
                continue
            for eps in {_realised_eps(points, packed, metric, window, rng)
                        for _ in range(3)}:
                if eps <= 0:
                    continue
                for g in (0, 10):
                    expected, charged = [], 0
                    for unit in window:
                        events, (dc, _, _) = tree_task_delta(
                            points, metric, eps, g, packed, unit
                        )
                        expected += events
                        charged += dc
                    events, dc = leaf_window_delta(
                        points, metric, eps, packed, window, g
                    )
                    assert dc == charged
                    assert len(events) <= 1
                    assert _flat_events(events) == _flat_events(expected)
                    checked += 1
    assert checked > 0
