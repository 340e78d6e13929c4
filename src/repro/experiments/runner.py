"""Shared experiment machinery: configs, single runs, and sweeps.

The paper's measurement protocol (Section VI): runtime from algorithm
start until the last output tuple is written, output size in bytes of the
fixed-width text file, nine query ranges log-spaced between ``2**-9`` and
``1/2``, 25 iterations per configuration.  We keep the protocol but make
iteration counts and dataset sizes configurable (pure Python is ~100x
slower than the authors' C++), and we guard SSJ behind a byte budget with
the paper's estimate-on-crash fallback (:mod:`repro.experiments.estimate`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.api import similarity_join
from repro.core.results import CountingSink, JoinResult, TextSink
from repro.errors import BudgetExceededError
from repro.experiments.estimate import RuntimeCalibration, estimate_ssj
from repro.index import SpatialIndex
from repro.io.writer import width_for
from repro.resilience.budget import Budget

__all__ = [
    "DEFAULT_QUERY_RANGES",
    "ExperimentConfig",
    "run_algorithm",
    "run_suite",
    "scaled",
]

#: The paper's nine query ranges, equally spaced on a log scale between
#: 2**-9 and 1/2 (Section VI).
DEFAULT_QUERY_RANGES: tuple[float, ...] = tuple(
    float(2.0 ** e) for e in np.linspace(-9.0, -1.0, 9)
)


def scaled(n: int) -> int:
    """Apply the global size multiplier ``REPRO_SCALE`` (default 1.0).

    Benchmarks honour this environment variable so the full paper-scale
    runs (``REPRO_SCALE=5`` and beyond) use the same code path as the
    quick default ones.
    """
    return max(4, int(n * float(os.environ.get("REPRO_SCALE", "1.0"))))


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    #: Index to build ("rtree" / "rstar" / "mtree").
    index: str = "rstar"
    #: Bulk loading method, or None for one-by-one insertion.
    bulk: Optional[str] = "str"
    #: Node capacity.
    max_entries: int = 64
    #: Metric specification.
    metric: object = None
    #: Repetitions per measurement (paper: 25; default lighter).
    iterations: int = 3
    #: SSJ runs whose exact output would exceed this many bytes are
    #: estimated instead of executed (the paper's crashed points).  The
    #: same cap is enforced *during* the run via a
    #: :class:`~repro.resilience.budget.Budget`, so a mis-estimated run
    #: degrades to the estimator instead of exploding.
    ssj_byte_budget: int = 40_000_000
    #: Optional wall-clock deadline per single run (seconds); a breach
    #: reports the partial measurements instead of hanging the sweep.
    deadline_seconds: Optional[float] = None
    #: Write output to a real file (TextSink) instead of counting only.
    write_output: bool = False
    #: Directory for TextSink files when ``write_output`` is set.
    output_dir: str = "."

    def build_tree(self, points: np.ndarray) -> SpatialIndex:
        """Build the configured index over ``points``."""
        from repro.api import build_index

        return build_index(
            points,
            self.index,
            metric=self.metric,
            max_entries=self.max_entries,
            bulk=self.bulk if self.index != "mtree" else None,
        )


def _make_sink(config: ExperimentConfig, n_points: int, tag: str):
    width = width_for(n_points)
    if config.write_output:
        path = os.path.join(config.output_dir, f"join_output_{tag}.txt")
        return TextSink(path, id_width=width)
    return CountingSink(id_width=width)


def run_algorithm(
    algorithm: str,
    tree: SpatialIndex,
    eps: float,
    g: int = 10,
    config: Optional[ExperimentConfig] = None,
    calibration: Optional[RuntimeCalibration] = None,
    precounted_links: Optional[int] = None,
) -> dict:
    """Run (or estimate) one algorithm at one query range; return a row.

    ``algorithm`` is ``"ssj"``, ``"ncsj"`` or ``"csj"``.  SSJ is replaced
    by an analytic estimate when its exact output size would exceed the
    configured byte budget, mirroring the paper's crashed data points.
    """
    config = config or ExperimentConfig()
    n = tree.size
    width = width_for(n)

    if algorithm == "ssj":
        estimate = estimate_ssj(
            tree.points,
            eps,
            width,
            metric=tree.metric,
            calibration=calibration,
            precounted_links=precounted_links,
        )
        if estimate.output_bytes > config.ssj_byte_budget:
            return {
                "algorithm": "ssj",
                "eps": eps,
                "g": None,
                "links": estimate.links,
                "groups": 0,
                "output_bytes": estimate.output_bytes,
                "total_time": estimate.total_time,
                "compute_time": float("nan"),
                "write_time": float("nan"),
                "distance_computations": None,
                "early_stops": 0,
                "estimated": True,
            }

    best: Optional[JoinResult] = None
    for iteration in range(max(1, config.iterations)):
        sink = _make_sink(config, n, f"{algorithm}_{eps:g}_{iteration}")
        budget = Budget(
            deadline_seconds=config.deadline_seconds,
            max_output_bytes=config.ssj_byte_budget if algorithm == "ssj" else None,
        )
        try:
            if algorithm not in ("ssj", "ncsj", "csj"):
                raise ValueError(f"unknown algorithm {algorithm!r}")
            result = similarity_join(
                tree.points,
                eps,
                algorithm=algorithm,
                g=g,
                index=tree,
                sink=sink,
                budget=budget,
            )
        except BudgetExceededError as exc:
            # Deadline breach: report the valid partial measurements
            # rather than hanging the sweep (SSJ byte breaches never land
            # here — they degrade to the estimator inside ssj()).
            result = exc.partial
        sink.close()
        if best is None or result.stats.total_time < best.stats.total_time:
            best = result

    return best.summary()


def run_suite(
    points: np.ndarray,
    query_ranges: Sequence[float],
    algorithms: Sequence[Union[str, tuple[str, int]]] = ("ssj", "ncsj", ("csj", 10)),
    config: Optional[ExperimentConfig] = None,
    dataset_name: str = "",
) -> list[dict]:
    """Sweep algorithms over query ranges on one dataset.

    ``algorithms`` entries are names or ``(name, g)`` pairs.  The tree is
    built once and reused (the paper assumes the index is given).  SSJ's
    runtime calibration rolls forward from its largest completed run, so
    estimated points extrapolate from measured ones.
    """
    config = config or ExperimentConfig()
    tree = config.build_tree(points)
    rows: list[dict] = []
    calibration: Optional[RuntimeCalibration] = None
    for eps in query_ranges:
        for spec in algorithms:
            name, g = spec if isinstance(spec, tuple) else (spec, 10)
            row = run_algorithm(
                name, tree, eps, g=g, config=config, calibration=calibration
            )
            row["dataset"] = dataset_name
            row["n"] = len(points)
            rows.append(row)
            if name == "ssj" and not row["estimated"] and row["links"]:
                calibration = RuntimeCalibration.from_run(
                    row["links"], row["total_time"]
                )
    return rows
