"""The paper's contribution: SSJ, N-CSJ and CSJ(g), plus verification.

Entry points:

* :func:`repro.core.ssj.ssj` — the standard similarity join baseline;
* :func:`repro.core.csj.ncsj` / :func:`repro.core.csj.csj` — the compact
  joins (Sections IV-B and IV-C);
* :func:`repro.core.dual.spatial_join` /
  :func:`repro.core.dual.compact_spatial_join` — two-dataset joins, and
  :func:`repro.core.partitioned.spatial_hash_join`, their index-free twin;
* :mod:`repro.core.egrid` / :mod:`repro.core.partitioned` — the work
  units of the index-free epsilon-grid-order join (with the Section VII
  compact extension) and of PBSM, which
  :func:`repro.api.similarity_join` runs as ``algorithm="egrid"``,
  ``"egrid-csj"``, ``"pbsm"`` or ``"pbsm-csj"``;
* :func:`repro.core.verify.check_equivalence` — executable Theorems 1 & 2;
* :mod:`repro.core.outliers` — small-group outlier mining.
"""

from repro.core.bruteforce import brute_force_cross_links, brute_force_links, count_links
from repro.core.clusters import UnionFind, component_sizes, connected_components
from repro.core.csj import csj, ncsj
from repro.core.dual import compact_spatial_join, spatial_join
from repro.core.groups import Group, GroupBuffer
from repro.core.metricspace import (
    ObjectMetric,
    brute_force_object_links,
    build_metric_index,
    metric_similarity_join,
)
from repro.core.outliers import find_outliers, group_size_profile, rank_by_isolation
from repro.core.partitioned import spatial_hash_join
from repro.core.results import (
    CallbackSink,
    CollectSink,
    CountingSink,
    JoinResult,
    JoinSink,
    TextSink,
    make_sink,
)
from repro.core.ssj import ssj
from repro.core.verify import EquivalenceReport, check_equivalence, expand_result

__all__ = [
    "ssj",
    "ncsj",
    "csj",
    "spatial_join",
    "compact_spatial_join",
    "spatial_hash_join",
    "brute_force_links",
    "brute_force_cross_links",
    "count_links",
    "check_equivalence",
    "expand_result",
    "EquivalenceReport",
    "JoinResult",
    "JoinSink",
    "CollectSink",
    "CountingSink",
    "CallbackSink",
    "TextSink",
    "make_sink",
    "Group",
    "GroupBuffer",
    "ObjectMetric",
    "build_metric_index",
    "metric_similarity_join",
    "brute_force_object_links",
    "find_outliers",
    "group_size_profile",
    "rank_by_isolation",
    "UnionFind",
    "connected_components",
    "component_sizes",
]
