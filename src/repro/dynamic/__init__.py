"""Incremental maintenance of a materialized compact join.

The paper's compact representation makes the join *result* small enough
to keep resident; this package keeps such a result — groups plus
residual links — consistent under point insertions and deletions
without recomputing the join (in the spirit of dynamic enumeration of
similarity joins).  See :class:`repro.dynamic.maintain.MaintainedJoin`.
"""

from repro.dynamic.maintain import MaintainedJoin

__all__ = ["MaintainedJoin"]
