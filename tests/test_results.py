"""Unit tests for sinks and JoinResult (repro.core.results)."""

import io
import os

import numpy as np
import pytest

from repro.core.results import (
    LINK_BATCH,
    CallbackSink,
    CollectSink,
    CountingSink,
    JoinResult,
    TextSink,
    make_sink,
    normalized_link,
)
from repro.errors import InvalidInputError
from repro.io.writer import line_bytes, read_output


class TestNormalizedLink:
    def test_orders(self):
        assert normalized_link(5, 2) == (2, 5)
        assert normalized_link(2, 5) == (2, 5)


class TestCollectSink:
    def test_links_normalised(self):
        sink = CollectSink(id_width=4)
        sink.write_link(9, 3)
        assert sink.links == [(3, 9)]
        assert sink.stats.links_emitted == 1
        assert sink.stats.bytes_written == line_bytes(2, 4)

    def test_batch_links(self):
        sink = CollectSink(id_width=4)
        sink.write_links(np.array([5, 1]), np.array([2, 8]))
        assert sink.links == [(2, 5), (1, 8)]
        assert sink.stats.links_emitted == 2

    def test_raw_link_not_normalised(self):
        sink = CollectSink(id_width=4)
        sink.write_link_raw(9, 3)
        assert sink.links == [(9, 3)]

    def test_groups_sorted(self):
        sink = CollectSink(id_width=4)
        sink.write_group([5, 2, 9])
        assert sink.groups == [(2, 5, 9)]
        assert sink.stats.groups_emitted == 1
        assert sink.stats.group_members_emitted == 3

    def test_singleton_group_dropped(self):
        sink = CollectSink()
        sink.write_group([7])
        assert sink.groups == []
        assert sink.stats.groups_emitted == 0

    def test_group_pair(self):
        sink = CollectSink(id_width=4)
        sink.write_group_pair([2, 1], [7])
        assert sink.group_pairs == [((1, 2), (7,))]
        assert sink.stats.bytes_written == line_bytes(3, 4) + 2

    def test_empty_group_pair_dropped(self):
        sink = CollectSink()
        sink.write_group_pair([], [1])
        assert sink.group_pairs == []


class TestCountingSink:
    def test_counts_only(self):
        sink = CountingSink(id_width=4)
        sink.write_link(1, 2)
        sink.write_links(np.array([1, 2, 3]), np.array([4, 5, 6]))
        sink.write_group([1, 2, 3])
        assert sink.stats.links_emitted == 4
        assert sink.stats.groups_emitted == 1
        assert sink.stats.bytes_written == 4 * line_bytes(2, 4) + line_bytes(3, 4)


class TestCallbackSink:
    def test_streams_events(self):
        links, groups, pairs = [], [], []
        sink = CallbackSink(
            on_link=lambda i, j: links.append((i, j)),
            on_group=lambda ids: groups.append(ids),
            on_group_pair=lambda a, b: pairs.append((a, b)),
            id_width=3,
        )
        sink.write_link(5, 2)
        sink.write_group([4, 1, 9])
        sink.write_group_pair([0], [7, 8])
        assert links == [(2, 5)]
        assert groups == [(1, 4, 9)]
        assert pairs == [((0,), (7, 8))]
        assert sink.stats.links_emitted == 1
        assert sink.stats.groups_emitted == 2

    def test_callbacks_optional(self):
        sink = CallbackSink()
        sink.write_link(1, 2)  # no callbacks registered: counters only
        assert sink.stats.links_emitted == 1

    def test_streaming_join(self, rng):
        """A join can stream into a callback without buffering."""
        from repro.core.csj import csj
        from repro.index.bulk import bulk_load

        pts = rng.random((300, 2))
        seen = []
        sink = CallbackSink(
            on_link=lambda i, j: seen.append(("link", i, j)),
            on_group=lambda ids: seen.append(("group", ids)),
            id_width=3,
        )
        result = csj(bulk_load(pts, max_entries=16), 0.1, g=10, sink=sink)
        assert len(seen) == result.stats.links_emitted + result.stats.groups_emitted


class TestTextSink:
    def test_bytes_match_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with TextSink(path, id_width=5) as sink:
            sink.write_link(1, 2)
            sink.write_links(np.array([3]), np.array([4]))
            sink.write_group([5, 6, 7])
        assert os.path.getsize(path) == sink.stats.bytes_written
        assert sink.stats.write_time > 0.0

    def test_batches_across_calls_keep_line_order(self):
        """Pending links go out before every other line and at close."""
        rng = np.random.default_rng(0)
        buf = io.StringIO()
        sink = TextSink(buf, id_width=4)
        expected = []
        k = LINK_BATCH // 3 + 7  # calls cross the bound at uneven points
        for step in range(8):
            i, j = rng.integers(0, 10**4, k), rng.integers(0, 10**4, k)
            sink.write_links(i, j)
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            expected += [f"{a:04d} {b:04d}\n" for a, b in zip(lo, hi)]
            if step % 3 == 2:
                sink.write_group([9, 1, 5])
                expected.append("0001 0005 0009\n")
            if step == 4:
                sink.write_link(7, 3)
                expected.append("0003 0007\n")
        # Queued links are charged at once; the file catches up later.
        assert sink.stats.links_emitted == 8 * k + 1
        assert len(buf.getvalue()) < sink.stats.bytes_written
        sink.close()
        assert buf.getvalue() == "".join(expected)
        assert len(buf.getvalue()) == sink.stats.bytes_written

    def test_ids_wider_than_the_width_are_rejected(self, tmp_path):
        # Formatted as-is these would write "05 123\n01 02 300\n-1 07\n",
        # 23 bytes on disk while bytes_written reported 21.
        path = tmp_path / "out.txt"
        sink = TextSink(str(path), id_width=2)
        with pytest.raises(InvalidInputError):
            sink.write_link(5, 123)
        with pytest.raises(InvalidInputError):
            sink.write_group([1, 2, 300])
        with pytest.raises(InvalidInputError):
            sink.write_link(-1, 7)
        sink.write_link(0, 99)
        sink.close()
        assert path.read_bytes() == b"00 99\n"
        assert sink.stats.bytes_written == 6
        assert sink.stats.links_emitted == 1 and sink.stats.groups_emitted == 0

    def test_bad_id_in_a_link_batch_is_rejected_when_queued(self):
        """A batch is range-checked by the call that offers it: no byte lands."""
        buf = io.StringIO()
        sink = TextSink(buf, id_width=2)
        with pytest.raises(InvalidInputError):
            sink.write_links(np.array([1, 5]), np.array([2, 123]))
        assert sink.stats.links_emitted == 0 and sink.stats.bytes_written == 0
        sink.write_group([3, 4, 6])
        sink.write_links(np.array([9]), np.array([8]))
        sink.close()
        assert buf.getvalue() == "03 04 06\n08 09\n"
        assert len(buf.getvalue()) == sink.stats.bytes_written

    def test_a_too_narrow_width_fails_the_join_at_its_first_wide_id(self, tmp_path):
        """Ids up to 299 into a 2-digit file: the join raises, nothing of
        the offending call is charged, and the sink still closes cleanly."""
        from repro.core.csj import ncsj
        from repro.index.bulk import bulk_load

        pts = np.random.default_rng(5).random((300, 2))
        pts = pts[np.argsort(pts[:, 0])]  # low ids on the side walked first
        path = tmp_path / "out.txt"
        sink = TextSink(str(path), id_width=2)
        with pytest.raises(InvalidInputError):
            ncsj(bulk_load(pts, max_entries=8), 0.1, sink=sink)
        sink.close()
        links, groups, _ = read_output(str(path))
        assert links and groups
        assert max(max(line) for line in links + groups) < 100
        assert path.stat().st_size == sink.stats.bytes_written
        assert sink.stats.links_emitted == len(links)
        assert sink.stats.groups_emitted == len(groups)

    def test_every_line_kind_shares_one_pending_buffer(self):
        """Mixed calls cross the bound at uneven points: the text is the
        f-string reference, and it goes out in a few large writes."""

        class CountingTarget(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        def line(*sides):
            return " | ".join(" ".join(f"{i:04d}" for i in side) for side in sides) + "\n"

        rng = np.random.default_rng(2)
        target = CountingTarget()
        sink = TextSink(target, id_width=4)
        expected, ids, pairs = [], 0, 0
        for step in range(24):
            k = LINK_BATCH // 9 + 37 * step
            i, j = rng.integers(0, 10**4, (2, k))
            sink.write_links(i, j)
            expected += [line((a, b)) for a, b in zip(np.minimum(i, j), np.maximum(i, j))]
            members = set(rng.integers(0, 10**4, 2 + step % 7).tolist())
            sink.write_group(members)
            expected.append(line(sorted(members)))
            sink.write_link(9, 4)
            sink.write_link_raw(8, 1)
            expected += [line((4, 9)), line((8, 1))]
            ids += 2 * k + len(members) + 4
            if step % 8 == 5:
                sink.write_group_pair({7, 2}, [5])
                expected.append(line((2, 7), (5,)))
                pairs += 1
        sink.close()
        assert target.getvalue() == "".join(expected)
        assert len(target.getvalue()) == sink.stats.bytes_written
        assert target.writes <= -(-ids // (2 * LINK_BATCH)) + 1 + 2 * pairs

class TestMakeSink:
    def test_kinds(self, tmp_path):
        assert isinstance(make_sink("collect"), CollectSink)
        assert isinstance(make_sink("count"), CountingSink)
        assert isinstance(
            make_sink("text", target=str(tmp_path / "t.txt")), TextSink
        )

    def test_text_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            make_sink("text")

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown sink"):
            make_sink("null")


class TestJoinResult:
    def test_expand_links_groups(self):
        result = JoinResult(
            eps=0.1,
            algorithm="csj",
            links=[(1, 2)],
            groups=[(3, 4, 5)],
        )
        assert result.expanded_links() == {(1, 2), (3, 4), (3, 5), (4, 5)}
        assert result.implied_link_count() == 4

    def test_expand_group_pairs_self_join_semantics(self):
        result = JoinResult(eps=0.1, algorithm="x", group_pairs=[((1,), (2, 3))])
        assert result.expanded_links() == {(1, 2), (1, 3)}

    def test_expand_cross_links_keeps_order(self):
        result = JoinResult(
            eps=0.1,
            algorithm="spatial",
            links=[(7, 2)],
            group_pairs=[((1,), (0,))],
        )
        assert result.expanded_cross_links() == {(7, 2), (1, 0)}

    def test_from_sink_collect(self):
        sink = CollectSink()
        sink.write_link(2, 1)
        result = JoinResult.from_sink(sink, eps=0.5, algorithm="ssj")
        assert result.links == [(1, 2)]
        assert result.stats is sink.stats
        assert result.output_bytes == sink.stats.bytes_written

    def test_from_sink_counting_has_no_payload(self):
        sink = CountingSink()
        sink.write_link(1, 2)
        result = JoinResult.from_sink(sink, eps=0.5, algorithm="ssj")
        assert result.links == []
        assert result.stats.links_emitted == 1

    def test_summary_keys(self):
        result = JoinResult(eps=0.25, algorithm="csj(10)", g=10)
        summary = result.summary()
        assert summary["algorithm"] == "csj(10)"
        assert summary["eps"] == 0.25
        assert "output_bytes" in summary and "total_time" in summary

    def test_repr(self):
        assert "csj" in repr(JoinResult(eps=0.1, algorithm="csj"))
