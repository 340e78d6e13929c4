"""Unit tests for the CSJ merge window (repro.core.groups)."""

import json
from math import inf, nextafter, sqrt

import numpy as np
import pytest

from repro.core.dual import PairWindow
from repro.core.groups import Group, GroupBuffer, apply_events, sqrt_limit
from repro.core.results import CollectSink
from repro.geometry.metrics import get_metric


def make_buffer(g=3, eps=1.0, dim=None, metric=None):
    sink = CollectSink(id_width=4)
    return GroupBuffer(g, eps, sink, metric=metric, dim=dim), sink


class TestValidation:
    def test_negative_g(self):
        with pytest.raises(ValueError):
            make_buffer(g=-1)

    def test_nonpositive_eps(self):
        with pytest.raises(ValueError):
            make_buffer(eps=0.0)


class TestWindowMechanics:
    def test_eviction_writes_oldest(self):
        buffer, sink = make_buffer(g=2, eps=10.0)
        buffer.create_group([1, 2], [0, 0], [0.1, 0.1])
        buffer.create_group([3, 4], [5, 5], [5.1, 5.1])
        assert sink.groups == [] and sink.links == []
        buffer.create_group([5, 6], [9, 9], [9.1, 9.1])  # evicts the first
        assert sink.links == [(1, 2)]
        buffer.flush()
        assert sink.links == [(1, 2), (3, 4), (5, 6)]

    def test_g_zero_writes_through(self):
        buffer, sink = make_buffer(g=0, eps=10.0)
        buffer.create_group([1, 2, 3], [0, 0], [1, 1])
        assert sink.groups == [(1, 2, 3)]
        assert len(buffer) == 0

    def test_two_member_group_written_as_link(self):
        buffer, sink = make_buffer(g=0, eps=10.0)
        buffer.create_group([9, 4], [0, 0], [1, 1])
        assert sink.links == [(4, 9)]
        assert sink.groups == []

    def test_singleton_group_dropped_silently(self):
        buffer, sink = make_buffer(g=0, eps=10.0)
        buffer.create_group([7], [0, 0], [0, 0])
        assert sink.links == [] and sink.groups == []

    def test_flush_empties_window(self):
        buffer, sink = make_buffer(g=5, eps=10.0)
        buffer.create_group([1, 2], [0, 0], [1, 1])
        buffer.flush()
        assert len(buffer) == 0
        assert sink.links == [(1, 2)]


class TestMerging2D:
    def test_link_merges_into_recent_group(self):
        buffer, sink = make_buffer(g=3, eps=1.0, dim=2)
        buffer.create_group([1, 2], [0.0, 0.0], [0.1, 0.1])
        buffer.add_link(3, 4, [0.2, 0.2], [0.3, 0.3])
        buffer.flush()
        assert sink.groups == [(1, 2, 3, 4)]
        assert buffer.stats.merge_successes == 1

    def test_far_link_creates_new_group(self):
        buffer, sink = make_buffer(g=3, eps=1.0, dim=2)
        buffer.create_group([1, 2], [0.0, 0.0], [0.1, 0.1])
        buffer.add_link(3, 4, [5.0, 5.0], [5.1, 5.1])
        buffer.flush()
        assert sink.links == [(1, 2), (3, 4)]
        assert buffer.stats.merge_successes == 0
        assert buffer.stats.merge_attempts == 1

    def test_merge_is_strict(self):
        """A link whose inclusion makes the diagonal exactly eps fails."""
        buffer, sink = make_buffer(g=1, eps=1.0, dim=2)
        buffer.create_group([1, 2], [0.0, 0.0], [0.0, 0.0])
        buffer.add_link(3, 4, [1.0, 0.0], [1.0, 0.0])  # diag becomes 1.0
        buffer.flush()
        assert sink.links == [(1, 2), (3, 4)]

    def test_newest_group_scanned_first(self):
        buffer, sink = make_buffer(g=2, eps=1.0, dim=2)
        buffer.create_group([1, 2], [0.0, 0.0], [0.1, 0.1])  # older, also fits
        buffer.create_group([5, 6], [0.1, 0.1], [0.2, 0.2])  # newest
        buffer.add_link(7, 8, [0.15, 0.15], [0.2, 0.2])
        buffer.flush()
        # The link must be in the newest group, not the older one.
        assert (5, 6, 7, 8) in sink.groups
        assert sink.links == [(1, 2)]

    def test_merge_extends_group_bounds(self):
        buffer, _ = make_buffer(g=1, eps=2.0, dim=2)
        group = buffer.create_group([1, 2], [0.0, 0.0], [0.1, 0.1])
        buffer.add_link(3, 4, [0.5, 0.5], [0.6, 0.6])
        assert group.hi == [0.6, 0.6]
        assert group.lo == [0.0, 0.0]

    def test_group_invariant_preserved(self, rng):
        """After any sequence of merges, every group diagonal < eps."""
        eps = 0.3
        buffer, sink = make_buffer(g=4, eps=eps, dim=2)
        pts = rng.random((200, 2)) * 0.5
        for k in range(0, 200, 2):
            if np.linalg.norm(pts[k] - pts[k + 1]) < eps:
                buffer.add_link(k, k + 1, pts[k].tolist(), pts[k + 1].tolist())
            for group in buffer._window:
                diag = np.linalg.norm(np.array(group.hi) - np.array(group.lo))
                assert diag < eps


class TestMerging3D:
    def test_3d_fast_path(self):
        buffer, sink = make_buffer(g=2, eps=1.0, dim=3)
        buffer.create_group([1, 2], [0, 0, 0], [0.1, 0.1, 0.1])
        buffer.add_link(3, 4, [0.2, 0.2, 0.2], [0.3, 0.3, 0.3])
        buffer.flush()
        assert sink.groups == [(1, 2, 3, 4)]

    def test_3d_rejects_far_link(self):
        buffer, sink = make_buffer(g=2, eps=0.5, dim=3)
        buffer.create_group([1, 2], [0, 0, 0], [0.1, 0.1, 0.1])
        buffer.add_link(3, 4, [0.9, 0.9, 0.9], [1.0, 1.0, 1.0])
        buffer.flush()
        assert sink.links == [(1, 2), (3, 4)]


class TestGenericMetricPath:
    @pytest.mark.parametrize("metric_name", ["l1", "linf", 3])
    def test_merge_respects_metric(self, metric_name):
        from repro.geometry.metrics import get_metric

        metric = get_metric(metric_name)
        buffer, sink = make_buffer(g=2, eps=1.0, dim=2, metric=metric)
        buffer.create_group([1, 2], [0.0, 0.0], [0.2, 0.2])
        # Extending to (0.6, 0.6): spans (0.6, 0.6); L1 diag = 1.2 >= 1 but
        # Linf diag = 0.6 < 1 — the metric decides.
        buffer.add_link(3, 4, [0.5, 0.5], [0.6, 0.6])
        buffer.flush()
        if metric.name == "manhattan":
            assert sink.links == [(1, 2), (3, 4)]
        else:
            assert sink.groups == [(1, 2, 3, 4)]

    def test_generic_path_without_dim_hint(self):
        buffer, sink = make_buffer(g=2, eps=1.0, dim=None)
        buffer.create_group([1, 2], [0.0, 0.0], [0.1, 0.1])
        buffer.add_link(3, 4, [0.2, 0.2], [0.3, 0.3])
        buffer.flush()
        assert sink.groups == [(1, 2, 3, 4)]


class TestGroup:
    def test_len_and_repr(self):
        group = Group({1, 2, 3}, [0, 0], [1, 1])
        assert len(group) == 3
        assert "size=3" in repr(group)

    def test_mbr_property(self):
        group = Group({1}, [0.0, 0.0], [1.0, 2.0])
        assert group.mbr.hi.tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# The batch loops against the per-link window they replaced
# ---------------------------------------------------------------------------

class ReferenceLinks:
    """The per-link merge window: one call per link, one ``sqrt`` per
    Euclidean attempt, counters charged link by link.

    Mixed into :class:`GroupBuffer` or :class:`PairWindow`, it replaces
    ``add_links`` with a loop over the per-link body (the inlined 2-D and
    3-D Euclidean ones where the window would bind its batch loops).
    """

    def __init__(self, *args, dim=None, **kwargs):
        super().__init__(*args, dim=dim, **kwargs)
        self.__dict__.pop("add_links", None)
        self._link = self._link_any
        if self.g > 0 and self._euclidean and dim == 2:
            self._link = self._link_2d
        elif self.g > 0 and self._euclidean and dim == 3:
            self._link = self._link_3d

    def add_links(self, ids_i, ids_j, coords_i, coords_j):
        for i, j, p_i, p_j in zip(ids_i, ids_j, coords_i, coords_j):
            self._link(i, j, p_i, p_j)

    def _link_any(self, i, j, p_i, p_j):
        pair_lo = [a if a < b else b for a, b in zip(p_i, p_j)]
        pair_hi = [b if a < b else a for a, b in zip(p_i, p_j)]
        if self.g > 0:
            stats = self.stats
            attempts = 0
            if self._euclidean:
                eps = self.eps
                for group in reversed(self._window):
                    attempts += 1
                    glo, ghi = group.lo, group.hi
                    total = 0.0
                    for k in range(len(glo)):
                        lo = glo[k]
                        hi = ghi[k]
                        a = pair_lo[k]
                        b = pair_hi[k]
                        if a < lo:
                            lo = a
                        if b > hi:
                            hi = b
                        span = hi - lo
                        total += span * span
                    if sqrt(total) < eps:
                        self._commit(group, i, j, pair_lo, pair_hi)
                        stats.merge_attempts += attempts
                        stats.mbr_checks += attempts
                        stats.merge_successes += 1
                        return
            else:
                norm_seq = self.metric.norm_seq
                for group in reversed(self._window):
                    attempts += 1
                    spans = [
                        (h if h > b else b) - (l if l < a else a)
                        for l, h, a, b in zip(group.lo, group.hi, pair_lo, pair_hi)
                    ]
                    if norm_seq(spans) < self.eps:
                        self._commit(group, i, j, pair_lo, pair_hi)
                        stats.merge_attempts += attempts
                        stats.mbr_checks += attempts
                        stats.merge_successes += 1
                        return
            stats.merge_attempts += attempts
            stats.mbr_checks += attempts
        self.create_group((i, j), pair_lo, pair_hi)

    def _tally(self, attempts, successes):
        stats = self.stats
        stats.merge_attempts += attempts
        stats.mbr_checks += attempts
        stats.merge_successes += successes

    def _link_2d(self, i, j, p_i, p_j):
        x1, y1 = p_i
        x2, y2 = p_j
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        attempts = 0
        for group in reversed(self._window):
            attempts += 1
            glo = group.lo
            ghi = group.hi
            lox = glo[0] if glo[0] < x1 else x1
            hix = ghi[0] if ghi[0] > x2 else x2
            loy = glo[1] if glo[1] < y1 else y1
            hiy = ghi[1] if ghi[1] > y2 else y2
            dx = hix - lox
            dy = hiy - loy
            if sqrt(dx * dx + dy * dy) < self.eps:
                glo[0], ghi[0], glo[1], ghi[1] = lox, hix, loy, hiy
                group.ids.add(i)
                group.ids.add(j)
                self._tally(attempts, 1)
                return
        self._tally(attempts, 0)
        self.create_group((i, j), [x1, y1], [x2, y2])

    def _link_3d(self, i, j, p_i, p_j):
        x1, y1, z1 = p_i
        x2, y2, z2 = p_j
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        if z2 < z1:
            z1, z2 = z2, z1
        attempts = 0
        for group in reversed(self._window):
            attempts += 1
            glo = group.lo
            ghi = group.hi
            lox = glo[0] if glo[0] < x1 else x1
            hix = ghi[0] if ghi[0] > x2 else x2
            loy = glo[1] if glo[1] < y1 else y1
            hiy = ghi[1] if ghi[1] > y2 else y2
            loz = glo[2] if glo[2] < z1 else z1
            hiz = ghi[2] if ghi[2] > z2 else z2
            dx = hix - lox
            dy = hiy - loy
            dz = hiz - loz
            if sqrt(dx * dx + dy * dy + dz * dz) < self.eps:
                glo[0], ghi[0], glo[1], ghi[1] = lox, hix, loy, hiy
                glo[2], ghi[2] = loz, hiz
                group.ids.add(i)
                group.ids.add(j)
                self._tally(attempts, 1)
                return
        self._tally(attempts, 0)
        self.create_group((i, j), [x1, y1, z1], [x2, y2, z2])


class ReferenceWindow(ReferenceLinks, GroupBuffer):
    pass


class ReferencePairWindow(ReferenceLinks, PairWindow):
    pass


class FailingSink(CollectSink):
    """Collects until its ``fail_at``-th stored line, which raises."""

    def __init__(self, fail_at=None, **kwargs):
        super().__init__(**kwargs)
        self.fail_at = fail_at
        self.stored = 0

    def _count(self):
        self.stored += 1
        if self.stored == self.fail_at:
            raise OSError(f"write {self.stored} failed")

    def _store_link(self, i, j):
        self._count()
        super()._store_link(i, j)

    def _store_group(self, ids):
        self._count()
        super()._store_group(ids)

    def _store_group_pair(self, ids_a, ids_b):
        self._count()
        super()._store_group_pair(ids_a, ids_b)


METRICS = ["euclidean", "l1", "linf", 3]
COUNTERS = ("merge_attempts", "mbr_checks", "merge_successes")


def lattice_points(rng, n, d):
    """``n`` quarter-lattice points, rows repeated, some zeros negative."""
    rows = rng.integers(-2, 5, size=(max(2, n // 3), d)) * 0.25
    pts = rows[rng.integers(0, len(rows), size=n)]
    return np.where(rng.random(pts.shape) < 0.2, -pts, pts)


def realised_ranges(rng, metric, d):
    """A lattice MBR's diagonal under ``metric``, and one ulp either side."""
    spans = (rng.integers(0, 4, size=d) * 0.25).tolist()
    spans[0] = 0.5
    eps = metric.norm_seq(spans)
    return [nextafter(eps, 0.0), eps, nextafter(eps, inf)]


def random_events(rng, pts, metric, eps, cross, count=40):
    """``group`` and ``linkseq`` events over ``pts``; in a ``cross`` window
    the second endpoints are side b's, tagged ``~j``."""
    n = len(pts)
    coords = pts.tolist()
    events = []
    while len(events) < count:
        if rng.random() < 0.25:
            ids = sorted(set(rng.integers(0, n, size=int(rng.integers(2, 5))).tolist()))
            block = pts[ids]
            if cross:
                ids = [ids[0]] + [~i for i in ids[1:]]
            events.append(
                ("group", ids, block.min(axis=0).tolist(), block.max(axis=0).tolist())
            )
            continue
        i = rng.integers(0, n, size=int(rng.integers(1, 30)))
        j = rng.integers(0, n, size=len(i))
        keep = [
            k for k in range(len(i))
            if (cross or i[k] != j[k])
            and metric.norm_seq((pts[i[k]] - pts[j[k]]).tolist()) < eps
        ]
        if not keep:
            continue
        ids_i = [int(i[k]) for k in keep]
        ids_j = [~int(j[k]) if cross else int(j[k]) for k in keep]
        events.append((
            "linkseq", ids_i, ids_j,
            [coords[i[k]] for k in keep], [coords[j[k]] for k in keep],
        ))
    return events


def window_pair(cross, g, eps, metric, d, sinks):
    new_cls, ref_cls = (PairWindow, ReferencePairWindow) if cross else (
        GroupBuffer, ReferenceWindow
    )
    return (
        new_cls(g, eps, sinks[0], metric=metric, dim=d),
        ref_cls(g, eps, sinks[1], metric=metric, dim=d),
    )


def snapshot(window):
    return json.dumps(window.snapshot())


def counters(stats):
    return [getattr(stats, name) for name in COUNTERS]


class TestReferenceParity:
    """Windows fed the same events as the per-link reference."""

    @pytest.mark.parametrize("cross", [False, True], ids=["self", "pair"])
    @pytest.mark.parametrize("g", [1, 3, 10])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("metric_name", METRICS)
    def test_events_match_reference(self, metric_name, d, g, cross):
        metric = get_metric(metric_name)
        rng = np.random.default_rng([d, g, len(str(metric_name)), cross])
        cases = merges = 0
        for _ in range(5):
            pts = lattice_points(rng, 60, d)
            for eps in realised_ranges(rng, metric, d):
                sinks = (CollectSink(id_width=3), CollectSink(id_width=3))
                window, reference = window_pair(cross, g, eps, metric, d, sinks)
                for event in random_events(rng, pts, metric, eps, cross):
                    apply_events([event], sinks[0], window)
                    apply_events([event], sinks[1], reference)
                    assert snapshot(window) == snapshot(reference), event
                window.flush()
                reference.flush()
                assert sinks[0].links == sinks[1].links
                assert sinks[0].groups == sinks[1].groups
                assert sinks[0].group_pairs == sinks[1].group_pairs
                assert sinks[0].stats == sinks[1].stats
                assert counters(sinks[0].stats) == counters(sinks[1].stats)
                cases += 1
                merges += sinks[0].stats.merge_successes
        assert cases == 15 and merges > 0

    def test_exact_ties_fail_the_merge(self):
        """Every realised diagonal equal to ε is a tie, and a tie fails."""
        eps = sqrt(0.25 * 0.25 + 0.5 * 0.5)
        for dim in (2, 3, None):
            pad = [] if dim == 2 else [0.0]
            buffer, sink = make_buffer(g=1, eps=eps, dim=dim)
            buffer.create_group([1, 2], [0.0, 0.0] + pad, [0.25, 0.0] + pad)
            buffer.add_link(3, 4, [0.0, 0.5] + pad, [0.0, 0.5] + pad)
            assert sink.links == [(1, 2)]  # the tie failed: (3, 4) evicted it
            buffer.add_link(5, 6, [0.0, 0.5] + pad, [0.0, 0.25] + pad)
            buffer.flush()
            assert sink.groups == [(3, 4, 5, 6)]
            assert counters(sink.stats) == [2, 2, 1]

    def test_first_axis_at_the_limit_merges(self):
        """A group whose first span alone squares to the limit still merges."""
        rng = np.random.default_rng(5)
        found = 0
        while found < 20:
            dx = float(rng.random())
            eps = nextafter(sqrt(dx * dx), inf)
            if sqrt_limit(eps) != dx * dx:
                continue
            found += 1
            for dim in (2, 3, None):
                pad = [0.0] * (1 if dim is None else dim - 1)
                buffer, sink = make_buffer(g=1, eps=eps, dim=dim)
                buffer.create_group([1, 2], [0.0] + pad, [dx] + pad)
                buffer.add_link(3, 4, [0.0] + pad, [dx] + pad)
                assert counters(sink.stats) == [1, 1, 1]

    def test_sum_keeps_todays_order(self):
        """The 3-D sum is ``(dx² + dy²) + dz²``, as the per-link test's."""
        rng = np.random.default_rng(9)
        found = 0
        while found < 20:
            dx, dy, dz = rng.random(3).tolist()
            left = sqrt((dx * dx + dy * dy) + dz * dz)
            right = sqrt(dx * dx + (dy * dy + dz * dz))
            if left == right:
                continue
            found += 1
            for dim in (3, None):
                # The larger of the two is a tie: only ``left`` below it merges.
                buffer, sink = make_buffer(g=1, eps=max(left, right), dim=dim)
                buffer.create_group([1, 2], [0.0, 0.0, 0.0], [dx, dy, dz])
                buffer.add_link(3, 4, [0.0, 0.0, 0.0], [dx, dy, dz])
                assert sink.stats.merge_successes == int(left < right)


class TestSqrtLimit:
    @pytest.mark.parametrize("eps", [1e-200, 1e-160, 0.1, 1.0, 1e150, 1e200])
    def test_limit_brackets_eps(self, eps):
        limit = sqrt_limit(eps)
        assert sqrt(limit) < eps <= sqrt(nextafter(limit, inf))

    def test_window_limit(self):
        buffer, _ = make_buffer(eps=0.3, dim=2)
        assert buffer.limit == sqrt_limit(0.3)

    @pytest.mark.parametrize("eps", [1e-200, 0.1, 1e200])
    def test_squares_decide_as_sqrt(self, eps):
        limit = sqrt_limit(eps)
        for s in (0.0, limit, nextafter(limit, inf), inf, float("nan")):
            assert (s <= limit) == (sqrt(s) < eps)


class TestFailingSink:
    """A sink error raised by an eviction leaves the reference's state."""

    @pytest.mark.parametrize("cross", [False, True], ids=["self", "pair"])
    @pytest.mark.parametrize("metric_name,d", [
        ("euclidean", 2), ("euclidean", 3), ("euclidean", 4), ("l1", 2),
    ])
    def test_kth_write_raises(self, metric_name, d, cross):
        metric = get_metric(metric_name)
        rng = np.random.default_rng([d, cross])
        pts = lattice_points(rng, 40, d)
        eps = realised_ranges(rng, metric, d)[1]
        events = random_events(rng, pts, metric, eps, cross, count=30)
        for fail_at in range(1, 400):
            sinks = (FailingSink(fail_at, id_width=3), FailingSink(fail_at, id_width=3))
            window, reference = window_pair(cross, 2, eps, metric, d, sinks)
            raised = []
            for sink, buffer in zip(sinks, (window, reference)):
                try:
                    for k, event in enumerate(events):
                        apply_events([event], sink, buffer)
                    buffer.flush()
                except OSError:
                    raised.append(k)
            assert len(raised) in (0, 2) and len(set(raised)) < 2
            assert counters(sinks[0].stats) == counters(sinks[1].stats)
            assert sinks[0].stats == sinks[1].stats
            assert snapshot(window) == snapshot(reference)
            if not raised:
                break
        assert fail_at > 5
