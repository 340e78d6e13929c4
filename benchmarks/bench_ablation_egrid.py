"""Ablation A2: the Section VII epsilon-grid-order extension.

The paper sketches extending the compact idea to Boehm et al.'s
epsilon-grid-order join by adding the early-termination-as-a-group case
to the JoinBuffer.  This bench quantifies that sketch: plain grid join vs
compact grid join vs the tree-based CSJ(10), on Sierpinski3D.
"""

from __future__ import annotations

import pytest

from repro.api import similarity_join
from repro.core.csj import csj
from repro.core.results import CountingSink
from repro.io.writer import width_for

EPS_GRID = [0.05, 0.125]


@pytest.mark.parametrize("eps", EPS_GRID, ids=lambda e: f"eps={e:g}")
def test_ablation_egrid_plain(benchmark, run_once, sierpinski_points, eps):
    sink = CountingSink(id_width=width_for(len(sierpinski_points)))
    result = run_once(
        similarity_join, sierpinski_points, eps, algorithm="egrid", sink=sink
    )
    benchmark.extra_info.update(eps=eps, output_bytes=result.output_bytes)


@pytest.mark.parametrize("eps", EPS_GRID, ids=lambda e: f"eps={e:g}")
def test_ablation_egrid_compact(benchmark, run_once, sierpinski_points, eps):
    sink = CountingSink(id_width=width_for(len(sierpinski_points)))
    result = run_once(
        similarity_join, sierpinski_points, eps, algorithm="egrid-csj", g=10,
        sink=sink,
    )
    benchmark.extra_info.update(
        eps=eps,
        output_bytes=result.output_bytes,
        early_stops=result.stats.early_stops,
    )


@pytest.mark.parametrize("eps", EPS_GRID, ids=lambda e: f"eps={e:g}")
def test_ablation_egrid_tree_csj(benchmark, run_once, sierpinski_points, sierpinski_tree, eps):
    sink = CountingSink(id_width=width_for(len(sierpinski_points)))
    result = run_once(csj, sierpinski_tree, eps, 10, sink=sink)
    benchmark.extra_info.update(eps=eps, output_bytes=result.output_bytes)


def test_ablation_egrid_shape(benchmark, run_once, sierpinski_points):
    """The compact extension shrinks the grid join's output, and both
    grid variants imply the same links as the tree join."""
    width = width_for(len(sierpinski_points))
    eps = 0.125

    def sweep():
        plain = similarity_join(
            sierpinski_points, eps, algorithm="egrid",
            sink=CountingSink(id_width=width),
        ).output_bytes
        compact = similarity_join(
            sierpinski_points, eps, algorithm="egrid-csj", g=10,
            sink=CountingSink(id_width=width),
        ).output_bytes
        return plain, compact

    plain, compact = run_once(sweep)
    # Fractal data at this range compacts ~2x under the grid extension
    # (tighter on clustered data; see results/ablation_egrid.txt).
    assert compact < plain * 0.6
    benchmark.extra_info.update(plain_bytes=plain, compact_bytes=compact)
