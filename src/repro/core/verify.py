"""Equivalence verification — executable Theorems 1 and 2.

The paper proves that N-CSJ and CSJ(g) lose no information relative to the
standard join (completeness, Theorem 1) and imply no spurious pairs
(correctness, Theorem 2).  This module makes both claims checkable for any
concrete run:

* :func:`expand_result` turns a compact output back into the explicit link
  set ("individual links can easily be recovered by expanding the returned
  groups", Section IV-D);
* :func:`check_equivalence` compares that expansion against a brute-force
  ground truth and reports missing / extra links.

The test suite runs these checks over randomised datasets, metrics and
index structures; the examples use them to demonstrate losslessness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.bruteforce import brute_force_links
from repro.core.results import JoinResult
from repro.geometry.metrics import Metric

__all__ = [
    "expand_result",
    "check_equivalence",
    "EquivalenceReport",
]


def expand_result(result: JoinResult) -> set[tuple[int, int]]:
    """Explicit link set implied by a join result (links + group pairs)."""
    return result.expanded_links()


@dataclass
class EquivalenceReport:
    """Outcome of comparing a join result against the ground truth."""

    #: Qualifying pairs absent from the output (violates Theorem 1).
    missing: set[tuple[int, int]] = field(default_factory=set)
    #: Implied pairs that do not qualify (violates Theorem 2).
    extra: set[tuple[int, int]] = field(default_factory=set)
    #: Number of ground-truth links.
    expected: int = 0
    #: Number of links implied by the output.
    implied: int = 0

    @property
    def ok(self) -> bool:
        """True when the output is exactly equivalent to the ground truth."""
        return not self.missing and not self.extra

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` with a sample of the discrepancies."""
        if self.ok:
            return
        parts = []
        if self.missing:
            sample = sorted(self.missing)[:5]
            parts.append(f"{len(self.missing)} missing links (e.g. {sample})")
        if self.extra:
            sample = sorted(self.extra)[:5]
            parts.append(f"{len(self.extra)} extra links (e.g. {sample})")
        raise AssertionError("join output is not lossless: " + "; ".join(parts))

    def __repr__(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (
            f"EquivalenceReport({status}, expected={self.expected}, "
            f"implied={self.implied}, missing={len(self.missing)}, "
            f"extra={len(self.extra)})"
        )


def check_equivalence(
    points: np.ndarray,
    eps: float,
    result: JoinResult,
    metric: Optional[Metric] = None,
    ground_truth: Optional[set[tuple[int, int]]] = None,
) -> EquivalenceReport:
    """Verify a join result against a brute-force join of ``points``.

    ``ground_truth`` may be supplied to avoid recomputing it when several
    algorithms are verified on the same data.
    """
    if ground_truth is None:
        ground_truth = brute_force_links(points, eps, metric)
    implied = expand_result(result)
    return EquivalenceReport(
        missing=ground_truth - implied,
        extra=implied - ground_truth,
        expected=len(ground_truth),
        implied=len(implied),
    )
