"""Overload-resilient join serving.

The serving layer wraps the join library with the mechanisms a system
under real traffic needs: bounded admission with backpressure, absolute
per-request deadlines that propagate to every subordinate wait, a circuit
breaker around the worker pool, and a brownout ladder that
degrades to the paper's analytic estimator before it sheds.  See
:mod:`repro.service.service` for the full contract and DESIGN.md
("Admission control & brownout ladder") for the state diagram.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.cache import CacheKey, ResultCache
from repro.service.service import (
    OUTCOMES,
    JoinRequest,
    JoinService,
    RequestOutcome,
    ServiceConfig,
)

__all__ = [
    "CacheKey",
    "CircuitBreaker",
    "JoinRequest",
    "JoinService",
    "RequestOutcome",
    "ResultCache",
    "ServiceConfig",
    "OUTCOMES",
]
