"""Ablation studies beyond the paper's own experiments.

Three design choices called out in DESIGN.md get their own sweeps:

* :func:`run_bulk` — does the bulk-loading method (STR / Hilbert / OMT /
  dynamic insertion) change the compact join's effectiveness?  The paper
  only notes bulk loading exists [22-24]; we quantify its effect.
* :func:`run_capacity` — node capacity sensitivity.  Larger leaves mean
  coarser early stops (groups fire less often but cover more points).
* :func:`run_egrid` — the Section VII extension: epsilon-grid-order with
  and without the compact JoinBuffer modification, versus the tree CSJ.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api import similarity_join
from repro.core.csj import csj
from repro.core.results import CountingSink
from repro.datasets import mg_county, sierpinski_pyramid
from repro.experiments.runner import ExperimentConfig, run_algorithm, scaled
from repro.index.bulk import bulk_load
from repro.index.rstar import RStarTree
from repro.io.writer import width_for

__all__ = ["run_bulk", "run_capacity", "run_egrid", "run_fractal", "run_postprocess"]


def run_bulk(
    n: Optional[int] = None,
    eps: float = 0.1,
    methods: Sequence[str] = ("str", "hilbert", "omt", "dynamic"),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> list[dict]:
    """CSJ(10) over trees built with each bulk-loading method."""
    config = config or ExperimentConfig()
    points = mg_county(n if n is not None else scaled(5_400), seed=seed)
    rows = []
    for method in methods:
        if method == "dynamic":
            tree = RStarTree(points, max_entries=config.max_entries)
        else:
            tree = bulk_load(
                points,
                method=method,
                tree_class=RStarTree,
                max_entries=config.max_entries,
            )
        for spec in ("ncsj", ("csj", 10)):
            name, g = spec if isinstance(spec, tuple) else (spec, 10)
            row = run_algorithm(name, tree, eps, g=g, config=config)
            row["dataset"] = "mg_county"
            row["n"] = len(points)
            row["bulk"] = method
            row["leaf_count"] = tree.leaf_count()
            rows.append(row)
    return rows


def run_capacity(
    n: Optional[int] = None,
    eps: float = 0.1,
    capacities: Sequence[int] = (8, 16, 32, 64, 128),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> list[dict]:
    """CSJ(10) and N-CSJ across node capacities."""
    base = config or ExperimentConfig()
    points = mg_county(n if n is not None else scaled(5_400), seed=seed)
    rows = []
    for capacity in capacities:
        cfg = ExperimentConfig(
            index=base.index,
            bulk=base.bulk,
            max_entries=capacity,
            metric=base.metric,
            iterations=base.iterations,
            ssj_byte_budget=base.ssj_byte_budget,
        )
        tree = cfg.build_tree(points)
        for spec in ("ncsj", ("csj", 10)):
            name, g = spec if isinstance(spec, tuple) else (spec, 10)
            row = run_algorithm(name, tree, eps, g=g, config=cfg)
            row["dataset"] = "mg_county"
            row["n"] = len(points)
            row["capacity"] = capacity
            rows.append(row)
    return rows


def run_fractal(
    n: Optional[int] = None,
    eps: float = 2.0**-6,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> list[dict]:
    """Intrinsic dimensionality vs explosion (the paper's future work).

    Same size, three intrinsic dimensions (line, Sierpinski triangle,
    uniform square): reports estimated D2, pair count at ``eps``, and the
    CSJ(10) compaction, showing that low-D2 data explodes earliest.
    """
    import numpy as np

    from repro.core.bruteforce import count_links
    from repro.datasets import sierpinski_triangle, uniform_points
    from repro.stats.fractal import correlation_dimension

    config = config or ExperimentConfig()
    n = n if n is not None else scaled(6_000)
    rng = np.random.default_rng(seed)
    datasets = {
        "line": np.stack([rng.random(n), np.zeros(n)], axis=1),
        "sierpinski2d": sierpinski_triangle(n, seed=seed),
        "uniform": uniform_points(n, seed=seed),
    }
    rows = []
    for name, points in datasets.items():
        d2 = correlation_dimension(points, 2.0**-8, 2.0**-4, 6).dimension
        pairs = count_links(points, eps)
        tree = config.build_tree(points)
        width = width_for(len(points))
        result = csj(tree, eps, g=10, sink=CountingSink(id_width=width))
        ssj_bytes = pairs * 2 * (width + 1)
        rows.append(
            {
                "dataset": name,
                "n": n,
                "eps": eps,
                "d2": round(d2, 3),
                "pairs": pairs,
                "ssj_bytes": ssj_bytes,
                "csj_bytes": result.output_bytes,
                "compaction": round(ssj_bytes / max(result.output_bytes, 1), 2),
            }
        )
    return rows


def run_postprocess(
    n: Optional[int] = None,
    eps: float = 0.03,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> list[dict]:
    """Section II-C quantified: clustering post-processing vs compact join.

    Each clustering baseline (k-means, k-medoids, single-linkage, BIRCH)
    is used as a would-be compact representation; the table reports how
    many pairs it wrongly implies (Theorem 2 failures) and how many
    qualifying links it drops (Theorem 1 failures), against CSJ(10)'s
    zero/zero.
    """
    from repro.baselines.postprocess import evaluate_postprocessing
    from repro.datasets import gaussian_clusters

    n = n if n is not None else scaled(1_500)
    points = gaussian_clusters(n, seed=seed, n_clusters=8, std=0.012)
    return [dict(row) for row in evaluate_postprocessing(points, eps, seed=seed)]


def run_egrid(
    n: Optional[int] = None,
    query_ranges: Sequence[float] = (0.025, 0.05, 0.1, 0.2),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> list[dict]:
    """Epsilon-grid-order join, plain vs compact, vs tree-based CSJ(10)."""
    config = config or ExperimentConfig()
    points = sierpinski_pyramid(n if n is not None else scaled(10_000), seed=seed)
    width = width_for(len(points))
    tree = config.build_tree(points)
    rows = []
    for eps in query_ranges:
        for label, runner in (
            ("egrid", lambda e: similarity_join(
                points, e, algorithm="egrid", sink=CountingSink(id_width=width))),
            ("egrid-csj(10)", lambda e: similarity_join(
                points, e, algorithm="egrid-csj", g=10,
                sink=CountingSink(id_width=width))),
            ("tree-csj(10)", lambda e: csj(tree, e, g=10,
                                           sink=CountingSink(id_width=width))),
        ):
            result = runner(eps)
            row = result.summary()
            row["algorithm"] = label
            row["dataset"] = "sierpinski3d"
            row["n"] = len(points)
            row["estimated"] = False
            rows.append(row)
    return rows
