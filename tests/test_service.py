"""The overload-resilient serving layer: admission, brownout, breakers.

Every test drives :class:`repro.service.JoinService` (or the breaker
state machine directly, with an injected clock) and asserts the serving
contract: bounded queues, exactly one typed outcome per request,
byte-identical admitted answers, and ``degraded=True`` estimator
answers instead of failures.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

import repro.api
from repro.api import open_service, similarity_join
from repro.errors import AdmissionRejectedError, CircuitOpenError, InvalidInputError
from repro.obs.metrics import get_registry, reset_registry
from repro.resilience.chaos import OverloadInjector
from repro.service import (
    OUTCOMES,
    CircuitBreaker,
    JoinRequest,
    JoinService,
    RequestOutcome,
    ServiceConfig,
)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_registry()
    yield
    reset_registry()


@pytest.fixture
def pts():
    return np.random.default_rng(0).random((300, 2))


def _service(chaos=None, **kwargs):
    kwargs.setdefault("queue_depth", 4)
    kwargs.setdefault("breaker_cooldown_base", 0.01)
    return JoinService(ServiceConfig(**kwargs), chaos=chaos)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        br = CircuitBreaker("t")
        assert br.state == "closed"
        assert br.allow()
        assert br.retry_after() == 0.0

    def test_opens_at_threshold(self):
        clock = FakeClock()
        br = CircuitBreaker("t", failure_threshold=3, clock=clock)
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()
        assert br.retry_after() > 0.0

    def test_success_resets_failure_count(self):
        br = CircuitBreaker("t", failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=1.0, clock=clock
        )
        br.record_failure()
        assert br.state == "open"
        clock.advance(100.0)  # past any jittered cooldown
        assert br.allow()  # consumes the single probe slot
        assert br.state == "half_open"
        assert not br.allow()  # no second probe
        br.record_success()
        assert br.state == "closed"
        assert br.allow()

    def test_failed_probe_reopens_with_longer_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=1.0, cooldown_max=1e9,
            seed=3, clock=clock,
        )
        br.record_failure()
        first = br.retry_after()
        clock.advance(first + 1e-9)
        assert br.allow()
        br.record_failure()  # probe failed
        assert br.state == "open"
        # Decorrelated jitter grows in expectation; with these seeds the
        # second cooldown exceeds the base for sure (drawn from
        # U(base, 3 * previous) with previous >= base).
        assert br.retry_after() >= 0.0
        assert br._cooldown >= br.cooldown_base

    def test_jitter_is_seed_deterministic(self):
        def cooldowns(seed):
            clock = FakeClock()
            br = CircuitBreaker(
                "t", failure_threshold=1, cooldown_base=0.5,
                cooldown_max=1e9, seed=seed, clock=clock,
            )
            out = []
            for _ in range(5):
                br.record_failure()
                out.append(br._cooldown)
                clock.advance(br._cooldown + 1e-9)
                assert br.allow()  # half-open probe
            return out

        assert cooldowns(7) == cooldowns(7)
        assert cooldowns(7) != cooldowns(8)

    def test_jitter_bounds(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=0.5, cooldown_max=2.0,
            clock=clock,
        )
        for _ in range(20):
            br.record_failure()
            assert 0.5 <= br._cooldown <= 2.0
            clock.advance(br._cooldown + 1e-9)
            assert br.allow()

    def test_call_wraps_and_counts(self):
        br = CircuitBreaker("t", failure_threshold=1, cooldown_base=60.0)
        with pytest.raises(RuntimeError):
            br.call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert br.state == "open"
        with pytest.raises(CircuitOpenError) as exc_info:
            br.call(lambda: 42)
        assert exc_info.value.exit_code == 10
        assert exc_info.value.retry_after > 0.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("t", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("t", half_open_probes=0)

    def test_acquire_reports_probe_and_release_returns_slot(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=1.0, clock=clock
        )
        assert br.acquire() == (True, False)  # closed: no probe consumed
        br.record_failure()
        assert br.acquire() == (False, False)  # open and cooling
        clock.advance(100.0)
        assert br.acquire() == (True, True)  # the half-open probe slot
        assert br.state == "half_open"
        assert not br.allow()  # slot taken
        br.release_probe()
        assert br.allow()  # slot returned, consumable again

    def test_allow_non_consuming_health_check(self):
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=1.0, clock=clock
        )
        assert br.allow(consume=False)
        br.record_failure()
        assert not br.allow(consume=False)  # open, cooling
        clock.advance(100.0)
        assert br.allow(consume=False)  # drives half-open, burns nothing
        assert br.state == "half_open"
        assert br.acquire() == (True, True)  # slot still available

    def test_retry_after_positive_while_probes_in_flight(self):
        # A rejection issued half-open (probes exhausted) must not hint
        # "retry immediately" — that is the retry storm the breaker
        # exists to prevent.
        clock = FakeClock()
        br = CircuitBreaker(
            "t", failure_threshold=1, cooldown_base=1.0, clock=clock
        )
        br.record_failure()
        clock.advance(100.0)
        assert br.allow()  # consume the only probe
        assert not br.allow()
        assert br.retry_after() > 0.0


class TestAdmission:
    def test_bounded_queue_sheds_with_retry_after(self, pts):
        # One executor stuck behind a slow first request: the queue
        # fills to its bound and the overflow is shed, typed.
        release = threading.Event()
        executing = threading.Event()

        class Stall:
            def before_execute(self, request_id):
                executing.set()
                release.wait(timeout=10.0)

        svc = _service(chaos=Stall(), queue_depth=2)
        try:
            tickets = [svc.submit(JoinRequest(points=pts, eps=0.05))]
            # Wait until the executor picked it up, then fill the queue:
            # 1 executing + 2 queued fit; everything beyond is shed.
            assert executing.wait(10.0)
            for _ in range(2):
                tickets.append(
                    svc.submit(JoinRequest(points=pts, eps=0.05))
                )
            with pytest.raises(AdmissionRejectedError) as exc_info:
                svc.submit(JoinRequest(points=pts, eps=0.05))
            assert exc_info.value.exit_code == 9
            assert exc_info.value.retry_after > 0.0
            assert exc_info.value.queue_depth == 2
            assert svc.peak_queue <= svc.config.queue_depth
            assert svc.counts()["shed"] == 1
        finally:
            release.set()
            svc.close()
        assert all(t.wait(10.0).status == "admitted" for t in tickets)

    def test_shed_outcome_recorded_and_counted(self, pts):
        release = threading.Event()
        executing = threading.Event()

        class Stall:
            def before_execute(self, request_id):
                executing.set()
                release.wait(timeout=10.0)

        svc = _service(chaos=Stall(), queue_depth=1)
        try:
            svc.submit(JoinRequest(points=pts, eps=0.05))
            assert executing.wait(10.0)
            svc.submit(JoinRequest(points=pts, eps=0.05))
            with pytest.raises(AdmissionRejectedError):
                svc.submit(JoinRequest(points=pts, eps=0.05, request_id="over"))
            shed = [o for o in svc.outcomes if o.status == "shed"]
            assert [o.request_id for o in shed] == ["over"]
            assert shed[0].retry_after > 0.0
        finally:
            release.set()
            svc.close()
        snap = get_registry().snapshot()
        assert snap.get("repro_service_shed_total") == 1

    def test_submit_after_close_refused(self, pts):
        svc = _service()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit(JoinRequest(points=pts, eps=0.05))

    def test_close_without_drain_sheds_queue(self, pts):
        release = threading.Event()

        class Stall:
            def before_execute(self, request_id):
                release.wait(timeout=10.0)

        svc = _service(chaos=Stall(), queue_depth=4)
        t0 = svc.submit(JoinRequest(points=pts, eps=0.05))
        t1 = svc.submit(JoinRequest(points=pts, eps=0.05))
        release.set()
        svc.close(drain=False)
        # The executing request finishes; the queued one was shed.
        statuses = sorted([t0.wait(10.0).status, t1.wait(10.0).status])
        assert "shed" in statuses


class TestBrownoutLadder:
    def test_expired_deadline_degrades_not_fails(self, pts):
        svc = _service()
        try:
            ticket = svc.submit(
                JoinRequest(points=pts, eps=0.05, deadline_seconds=1e-6)
            )
            outcome = ticket.wait(10.0)
        finally:
            svc.close()
        assert outcome.status == "degraded"
        assert outcome.result is not None
        assert outcome.result.degraded is True
        assert outcome.result.estimated is True
        assert outcome.result.stats.links_emitted > 0  # estimator answer
        assert outcome.degraded

    @pytest.mark.parametrize(
        "algorithm,g", [("csj", 10), ("ncsj", 10), ("ssj", 10), ("egrid-csj", 0)]
    )
    def test_degraded_answer_carries_the_join_label(self, pts, algorithm, g):
        """One request, served exactly and then degraded by an expired
        deadline: both answers name the same join."""
        svc = _service()
        try:
            answers = [
                svc.submit(JoinRequest(
                    points=pts, eps=0.05, algorithm=algorithm, g=g,
                    deadline_seconds=deadline,
                )).wait(10.0)
                for deadline in (None, 1e-9)
            ]
        finally:
            svc.close()
        assert [a.status for a in answers] == ["admitted", "degraded"]
        admitted, degraded = (a.result for a in answers)
        assert degraded.algorithm == admitted.algorithm
        assert degraded.g == admitted.g

    def test_byte_budget_breach_degrades(self, pts):
        svc = _service()
        try:
            ticket = svc.submit(
                JoinRequest(
                    points=pts, eps=0.2, algorithm="csj", max_output_bytes=64
                )
            )
            outcome = ticket.wait(10.0)
        finally:
            svc.close()
        assert outcome.status == "degraded"
        assert outcome.result.degraded is True

    def test_normal_request_admitted_exact(self, pts):
        svc = _service()
        try:
            outcome = svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
        finally:
            svc.close()
        assert outcome.status == "admitted"
        assert outcome.result.degraded is False
        assert outcome.result.estimated is False

    def test_admitted_byte_identical_to_offline(self, pts):
        svc = _service()
        try:
            outcome = svc.submit(
                JoinRequest(points=pts, eps=0.06, algorithm="csj", g=10)
            ).wait(10.0)
        finally:
            svc.close()
        offline = similarity_join(pts, 0.06, algorithm="csj", g=10)
        assert outcome.result.links == offline.links
        assert outcome.result.group_pairs == offline.group_pairs
        assert (
            outcome.result.stats.bytes_written == offline.stats.bytes_written
        )

    def test_degrade_threshold_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(degrade_threshold=1.5)
        with pytest.raises(ValueError):
            ServiceConfig(queue_depth=0)


class TestBreakerIntegration:
    def test_pool_failures_open_breaker_then_fail_fast(self, pts):
        chaos = OverloadInjector(seed=1, fail_at=(0,))
        svc = _service(
            chaos=chaos, breaker_threshold=1, breaker_cooldown_base=30.0
        )
        try:
            requests = chaos.storm(pts, 0.05, requests=1)
            outcome = svc.submit(requests[0]).wait(10.0)
            # The failed dependency browns the request out, not kills it.
            assert outcome.status == "degraded"
            assert svc.pool_breaker.state == "open"
            with pytest.raises(CircuitOpenError) as exc_info:
                svc.submit(JoinRequest(points=pts, eps=0.05))
            assert exc_info.value.exit_code == 10
            assert exc_info.value.retry_after > 0.0
            assert svc.counts()["breaker_open"] == 1
        finally:
            svc.close()

    def test_degraded_probe_request_does_not_wedge_breaker(self, pts):
        # Regression: the half-open probe slot consumed at admission
        # used to leak when the admitted request then degraded without
        # touching the pool, wedging the circuit half-open with zero
        # probes — every later submit failed until process restart.
        chaos = OverloadInjector(seed=1, fail_at=(0,))
        svc = _service(
            chaos=chaos,
            breaker_threshold=1,
            breaker_cooldown_base=0.01,
            breaker_cooldown_max=0.05,
        )
        try:
            requests = chaos.storm(pts, 0.05, requests=1)
            svc.submit(requests[0]).wait(10.0)
            assert svc.pool_breaker.state == "open"
            time.sleep(0.2)  # next submit consumes the half-open probe
            degraded = svc.submit(
                JoinRequest(points=pts, eps=0.05, deadline_seconds=1e-6)
            ).wait(10.0)
            assert degraded.status == "degraded"  # never reached the pool
            assert svc.pool_breaker.state == "half_open"
            # The slot was released, so the next request can still probe
            # and close the circuit.
            outcome = svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
            assert outcome.status == "admitted"
            assert svc.pool_breaker.state == "closed"
        finally:
            svc.close()

    def test_breaker_recovers_after_cooldown(self, pts):
        chaos = OverloadInjector(seed=1, fail_at=(0,))
        svc = _service(
            chaos=chaos,
            breaker_threshold=1,
            breaker_cooldown_base=0.01,
            breaker_cooldown_max=0.05,
        )
        try:
            requests = chaos.storm(pts, 0.05, requests=1)
            svc.submit(requests[0]).wait(10.0)
            assert svc.pool_breaker.state == "open"
            time.sleep(0.2)  # past the jittered cooldown
            outcome = svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
            assert outcome.status == "admitted"
            assert svc.pool_breaker.state == "closed"
        finally:
            svc.close()


class TestOutcomePartition:
    def test_storm_every_request_exactly_one_outcome(self, pts):
        chaos = OverloadInjector(seed=7, slow_every=4, slow_seconds=0.03)
        svc = _service(chaos=chaos, queue_depth=3, default_deadline=5.0)
        try:
            requests = chaos.storm(pts, 0.05, requests=16, deadline_seconds=5.0)
            outcomes = svc.serve(requests)
        finally:
            svc.close()
        assert len(outcomes) == len(requests)
        assert [o.request_id for o in outcomes] == [
            r.request_id for r in requests
        ]
        for outcome in outcomes:
            assert outcome.status in OUTCOMES
        # Counters agree with the audit trail, one increment per request.
        counts = svc.counts()
        assert sum(counts.values()) == len(requests)
        snap = get_registry().snapshot()
        for status, n in counts.items():
            if n:
                assert snap[f"repro_service_{status}_total"] == n
        assert svc.peak_queue <= svc.config.queue_depth

    def test_storm_is_seed_reproducible(self, pts):
        a = OverloadInjector(seed=5).storm(pts, 0.05, requests=6)
        b = OverloadInjector(seed=5).storm(pts, 0.05, requests=6)
        for ra, rb in zip(a, b):
            assert ra.request_id == rb.request_id
            assert ra.eps == rb.eps
            assert np.array_equal(ra.points, rb.points)
        c = OverloadInjector(seed=6).storm(pts, 0.05, requests=6)
        assert any(
            not np.array_equal(ra.points, rc.points) for ra, rc in zip(a, c)
        )

    def test_serve_duplicate_request_ids_keeps_outcomes_straight(self, pts):
        # Regression: serve() used to recover shed outcomes by scanning
        # the audit trail for the first matching request id; with
        # caller-supplied duplicate ids the wrong request's outcome came
        # back.  The outcome now rides on the rejection exception.
        release = threading.Event()
        executing = threading.Event()

        class Stall:
            def before_execute(self, request_id):
                executing.set()
                release.wait(timeout=10.0)

        svc = _service(chaos=Stall(), queue_depth=1)
        try:
            svc.submit(JoinRequest(points=pts, eps=0.05, request_id="dup"))
            assert executing.wait(10.0)
            # Room for exactly one more "dup"; the second in the batch
            # sheds while its twin later finishes admitted.
            batch = [
                JoinRequest(points=pts, eps=0.05, request_id="dup"),
                JoinRequest(points=pts, eps=0.05, request_id="dup"),
            ]
            threading.Timer(0.1, release.set).start()
            outcomes = svc.serve(batch)
        finally:
            release.set()
            svc.close()
        assert [o.status for o in outcomes] == ["admitted", "shed"]

    def test_failed_outcome_for_invalid_algorithm(self, pts):
        # The serial and the pool path reject it with the same typed error.
        for workers in (1, 2):
            svc = _service(workers=workers)
            try:
                outcome = svc.submit(
                    JoinRequest(points=pts, eps=0.05, algorithm="nope")
                ).wait(10.0)
            finally:
                svc.close()
            assert outcome.status == "failed"
            assert isinstance(outcome.error, InvalidInputError)
            assert "unknown algorithm" in str(outcome.error)


class TestOpenService:
    def test_factory_and_context_manager(self, pts):
        with open_service(queue_depth=2, deadline_ms=5000.0) as svc:
            assert svc.config.queue_depth == 2
            assert svc.config.default_deadline == 5.0
            outcome = svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
            assert outcome.status == "admitted"

    def test_deadline_ms_none(self):
        with open_service() as svc:
            assert svc.config.default_deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"workers": 2, "task_timeout": -1},
            {"workers": 2, "task_timeout": 0},
        ],
        ids=["negative-workers", "negative-timeout", "zero-timeout"],
    )
    def test_execution_fields_rejected_at_construction(self, kwargs):
        # Accepted, a non-positive timeout would surface only later,
        # tripping the pool breaker on the first request.
        with pytest.raises(ValueError):
            open_service(**kwargs)

    def test_zero_workers_means_serial(self, pts):
        with open_service(workers=0) as svc:
            outcome = svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
            assert outcome.status == "admitted"


class TestServiceRegistration:
    """A registered tree serves the requests over its array, serial or
    pooled, and only under its own metric."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_registered_dataset_served_identically(self, pts, workers):
        offline = similarity_join(pts, 0.05, algorithm="csj")
        svc = JoinService(ServiceConfig(queue_depth=4, executors=1, workers=workers))
        try:
            tree = svc.register_dataset(pts)
            assert tree.points is pts
            outcome = svc.submit(JoinRequest(points=tree.points, eps=0.05)).wait(60.0)
            assert outcome.status == "admitted"
            assert outcome.result.links == offline.links
            assert outcome.result.groups == offline.groups
        finally:
            svc.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_registered_tree_serves_only_its_metric(self, pts, workers, monkeypatch):
        registered = similarity_join(pts, 0.05, metric="manhattan")
        ordinary = similarity_join(pts, 0.05)
        builds = []
        bulk_load = repro.api.bulk_load

        def counting_bulk_load(*args, **kwargs):
            builds.append(kwargs.get("metric"))
            return bulk_load(*args, **kwargs)

        # Registration and every request build their trees through
        # build_index, in this process even at workers=2.
        monkeypatch.setattr(repro.api, "bulk_load", counting_bulk_load)
        svc = JoinService(ServiceConfig(queue_depth=4, executors=1, workers=workers))
        try:
            svc.register_dataset(pts, metric="manhattan")
            assert len(builds) == 1
            same, other = svc.serve(
                [
                    JoinRequest(points=pts, eps=0.05, metric="manhattan"),
                    JoinRequest(points=pts, eps=0.05),
                ]
            )
        finally:
            svc.close()
        # The Manhattan request reused the registered tree; only the
        # request under another metric built one.
        assert len(builds) == 2
        assert same.status == other.status == "admitted"
        assert (same.result.links, same.result.groups) == (
            registered.links, registered.groups,
        )
        assert (other.result.links, other.result.groups) == (
            ordinary.links, ordinary.groups,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "registered_first", [True, False], ids=["reg-first", "copy-first"]
    )
    def test_cached_answer_does_not_depend_on_registration(
        self, pts, workers, registered_first
    ):
        # The cache keys on the data, not on the array: a request over an
        # equal copy shares the registered request's entry, so both must
        # get the answer a fresh tree gives, whichever runs first.
        copy = pts.copy()
        offline = similarity_join(copy, 0.05)
        svc = JoinService(
            ServiceConfig(
                queue_depth=4, executors=1, workers=workers, cache_bytes=1 << 24
            )
        )
        try:
            svc.register_dataset(pts)
            arrays = [pts, copy] if registered_first else [copy, pts]
            outcomes = svc.serve([JoinRequest(points=a, eps=0.05) for a in arrays])
        finally:
            svc.close()
        assert get_registry().snapshot()["repro_cache_hits_total"] == 1
        for outcome in outcomes:
            assert outcome.status == "admitted"
            result = outcome.result
            assert result.stats.bytes_written == offline.stats.bytes_written
            assert (result.links, result.groups) == (offline.links, offline.groups)

    def test_closed_service_releases_registered_and_served_points(self):
        rng = np.random.default_rng(4)
        registered, fresh = rng.random((500, 2)), rng.random((500, 2))
        refs = [weakref.ref(registered), weakref.ref(fresh)]
        svc = JoinService(ServiceConfig(queue_depth=4, executors=1, workers=2))
        svc.register_dataset(registered)
        outcomes = svc.serve(
            [JoinRequest(points=arr, eps=0.05) for arr in (registered, fresh)]
        )
        assert [o.status for o in outcomes] == ["admitted", "admitted"]
        svc.close()
        del registered, fresh
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestMetricsSurface:
    def test_pressure_gauges_exported(self, pts):
        svc = _service()
        try:
            svc.submit(JoinRequest(points=pts, eps=0.05)).wait(10.0)
        finally:
            svc.close()
        snap = get_registry().snapshot()
        assert "repro_service_queue_depth" in snap
        assert "repro_service_queue_limit" in snap

    def test_labels_argument_builds_canonical_keys(self):
        registry = get_registry()
        registry.counter("demo_total", "demo", labels={"b": "x", "a": "y"}).inc()
        assert get_registry().snapshot()['demo_total{a="y",b="x"}'] == 1

    def test_breaker_transition_metrics(self):
        br = CircuitBreaker("demo", failure_threshold=1)
        br.record_failure()
        snap = get_registry().snapshot()
        assert (
            snap['repro_service_breaker_transitions_total{breaker="demo",to="open"}']
            == 1
        )
        assert snap['repro_service_breaker_state{breaker="demo"}'] == 2
