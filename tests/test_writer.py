"""Unit tests for the fixed-width output format (repro.io.writer)."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInputError
from repro.io.writer import (
    FixedWidthWriter,
    format_lines,
    line_bytes,
    read_output,
    width_for,
)


class TestLineBytes:
    def test_link_line(self):
        # "0001 0002\n" = 10 bytes.
        assert line_bytes(2, 4) == 10

    def test_group_line(self):
        # "0001 0002 0003\n" = 15 bytes.
        assert line_bytes(3, 4) == 15

    def test_empty(self):
        assert line_bytes(0, 4) == 0

    def test_matches_rendered_text(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=6)
        writer.write_link(1, 2)
        writer.write_group([1, 2, 3, 4])
        assert len(buf.getvalue()) == line_bytes(2, 6) + line_bytes(4, 6)
        assert writer.bytes_written == len(buf.getvalue())


class TestWidthFor:
    @pytest.mark.parametrize("n,expected", [(1, 1), (10, 1), (11, 2), (1000, 3), (10**6, 6)])
    def test_widths(self, n, expected):
        assert width_for(n) == expected

    def test_zero_points(self):
        assert width_for(0) == 1


class TestWriter:
    def test_zero_padding(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=4).write_link(1, 23)
        assert buf.getvalue() == "0001 0023\n"

    def test_group_format_matches_paper(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=4).write_group([1, 2, 3])
        assert buf.getvalue() == "0001 0002 0003\n"

    def test_group_pair(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=2).write_group_pair([1], [2, 3])
        assert buf.getvalue() == "01 | 02 03\n"

    def test_batched_links(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=3)
        writer.write_links([1, 2], [5, 6])
        assert buf.getvalue() == "001 005\n002 006\n"
        assert writer.bytes_written == 16

    def test_empty_group_ignored(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=3)
        writer.write_group([])
        assert buf.getvalue() == ""
        assert writer.bytes_written == 0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FixedWidthWriter(io.StringIO(), width=0)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with FixedWidthWriter(path, width=5) as writer:
            writer.write_link(3, 7)
            writer.write_group([1, 2, 9])
            writer.write_group_pair([0, 1], [5])
            expected_bytes = writer.bytes_written
        import os

        assert os.path.getsize(path) == expected_bytes
        links, groups, pairs = read_output(path)
        assert links == [(3, 7)]
        assert groups == [(1, 2, 9)]
        assert pairs == [((0, 1), (5,))]


def reference_text(lines, width):
    """The per-line f-string formatter that ``format_lines`` must equal."""
    return "".join(" ".join(f"{i:0{width}d}" for i in ids) + "\n" for ids in lines)


@st.composite
def ragged_lines(draw):
    """A width and 1-30 lines of 1-20 ids, one line holding both extremes."""
    width = draw(st.integers(1, 12))
    top = 10**width - 1
    ident = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    line = st.lists(ident, min_size=1, max_size=20)
    lines = draw(st.lists(line, min_size=1, max_size=30))
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, [0, top])
    return width, lines


class TestFormatLines:
    @settings(max_examples=300, deadline=None)
    @given(ragged_lines())
    def test_matches_fstring_reference(self, case):
        width, lines = case
        ids = [i for ids in lines for i in ids]
        text = format_lines(np.array(ids), [len(ids) for ids in lines], width)
        assert text == reference_text(lines, width)
        assert len(text) == sum(line_bytes(len(ids), width) for ids in lines)

    def test_empty_batch(self):
        assert format_lines(np.empty(0, dtype=np.int64), [], 4) == ""

    def test_columns_wider_than_int64_lead_with_zeros(self):
        big = 2**62
        assert format_lines([big, 1], [2], 21) == f"{big:021d} {1:021d}\n"


class TestIdRange:
    """An id outside ``0 .. 10**width - 1`` would format wider than
    :func:`line_bytes` counts, or drop digits in the digit matrix."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda w: w.write_link(5, 123),
            lambda w: w.write_link(-1, 7),
            lambda w: w.write_group([1, 2, 300]),
            lambda w: w.write_group_pair([1], [100]),
            lambda w: w.write_group_pair([-3], [1]),
            lambda w: w.write_links([5, 6], [7, 100]),
            lambda w: w.write_links(np.array([-1, 3]), np.array([7, 4])),
        ],
        ids=["link-wide", "link-negative", "group", "pair-wide", "pair-negative",
             "batch-wide", "batch-negative"],
    )
    def test_rejected_before_any_byte(self, write):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=2)
        with pytest.raises(InvalidInputError):
            write(writer)
        assert buf.getvalue() == ""
        assert writer.bytes_written == 0

    def test_extremes_accepted(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=2)
        writer.write_link(0, 99)
        writer.write_links([0], [99])
        writer.write_group([0, 50, 99])
        assert buf.getvalue() == "00 99\n00 99\n00 50 99\n"
        assert writer.bytes_written == len(buf.getvalue())


class TestReadOutput:
    def test_reads_stream(self):
        text = "001 002\n003 004 005\n\n001 | 006 007\n"
        links, groups, pairs = read_output(io.StringIO(text))
        assert links == [(1, 2)]
        assert groups == [(3, 4, 5)]
        assert pairs == [((1,), (6, 7))]

    def test_blank_lines_skipped(self):
        links, groups, pairs = read_output(io.StringIO("\n\n"))
        assert links == [] and groups == [] and pairs == []
