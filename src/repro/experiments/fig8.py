"""Experiment 3 / Figure 8: computation versus disk-write time.

On MG County at ``eps = 0.1`` the paper splits each algorithm's runtime
into computation and output writing for SSJ, N-CSJ, CSJ(1), CSJ(10) and
CSJ(100), and additionally reports that the number of index page / cache
accesses does not differ significantly between the algorithms.  Expected
shape: most of the compact joins' advantage is *computation* saved by the
early-stopping rule; a moderate part is the smaller output file.

This driver writes real output files through
:class:`~repro.core.results.TextSink` (so write time is genuine I/O) and
replays the index traversal against the simulated LRU page cache of
:mod:`repro.io.pagesim` for the access counts.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.core.csj import csj
from repro.core.results import TextSink
from repro.core.ssj import ssj
from repro.datasets import mg_county
from repro.experiments.runner import ExperimentConfig, scaled
from repro.io.pagesim import NodePager, PageCache
from repro.io.writer import width_for

__all__ = ["VARIANTS", "run"]

#: The paper's five bars: algorithm name and g (None for SSJ).
VARIANTS: tuple[tuple[str, Optional[int]], ...] = (
    ("ssj", None),
    ("ncsj", 0),
    ("csj", 1),
    ("csj", 10),
    ("csj", 100),
)


def run(
    n: Optional[int] = None,
    eps: float = 0.1,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
    output_dir: Optional[str] = None,
    cache_pages: int = 256,
) -> list[dict]:
    """Measure the compute/write split for the five Figure 8 variants."""
    config = config or ExperimentConfig()
    points = mg_county(n if n is not None else scaled(5_400), seed=seed)
    tree = config.build_tree(points)
    width = width_for(len(points))
    own_dir = output_dir is None
    directory = output_dir or tempfile.mkdtemp(prefix="csj_fig8_")
    rows: list[dict] = []
    try:
        for name, g in VARIANTS:
            label = name if g is None or name == "ncsj" else f"csj({g})"
            path = os.path.join(directory, f"fig8_{label}.txt")
            pager = NodePager(tree, PageCache(cache_pages))
            with TextSink(path, id_width=width) as sink:
                if name == "ssj":
                    result = ssj(tree, eps, sink=sink, pager=pager)
                else:
                    result = csj(tree, eps, g=g, sink=sink, pager=pager)
            file_bytes = os.path.getsize(path)
            rows.append(
                {
                    "dataset": "mg_county",
                    "n": len(points),
                    "algorithm": label,
                    "g": g,
                    "eps": eps,
                    "compute_time": result.stats.compute_time,
                    "write_time": result.stats.write_time,
                    "total_time": result.stats.total_time,
                    "output_bytes": result.stats.bytes_written,
                    "file_bytes": file_bytes,
                    "page_reads": result.stats.page_reads,
                    "cache_hits": result.stats.cache_hits,
                    "links": result.stats.links_emitted,
                    "groups": result.stats.groups_emitted,
                }
            )
            if own_dir:
                os.remove(path)
    finally:
        if own_dir:
            try:
                os.rmdir(directory)
            except OSError:
                pass
    return rows
