"""The paper's output text format.

Section VI: *"Each data point is zero-padded to ensure it is represented by
the same fixed number of bits.  A link is written as a single line in the
output file containing the two data points, e.g. ``0001 0002``, while a
cluster is written as the line ``0001 0002 0003...``."*

Output size — the paper's space metric — is therefore exactly
``sum over lines of (ids_per_line * (width + 1))`` bytes: each id costs its
zero-padded width plus one separator byte (space between ids, newline at
the end of the line).  :func:`line_bytes` encodes that arithmetic so sinks
can account bytes without materialising text.  The arithmetic holds only
for ids in ``0 .. 10**width - 1``; every write path rejects any other id
with :class:`~repro.errors.InvalidInputError` before writing its line.
"""

from __future__ import annotations

import os
from typing import Sequence, TextIO, Union

import numpy as np

from repro.errors import InvalidInputError

__all__ = ["FixedWidthWriter", "format_lines", "line_bytes", "read_output"]


def line_bytes(n_ids: int, width: int) -> int:
    """Bytes of one output line holding ``n_ids`` zero-padded ids.

    ``n_ids`` ids of ``width`` digits, separated by single spaces and
    terminated by a newline: ``n_ids * width + (n_ids - 1) + 1``.
    """
    if n_ids <= 0:
        return 0
    return n_ids * (width + 1)


def width_for(n_points: int) -> int:
    """Zero-padding width able to represent ids ``0 .. n_points - 1``."""
    return max(1, len(str(max(0, n_points - 1))))


def _check_range(low: int, high: int, width: int) -> None:
    """Reject ids that a ``width``-digit column cannot hold exactly.

    An f-string would write a negative id's sign, or a wide id's extra
    digits, so the file would no longer match :func:`line_bytes`; the
    digit matrix would write wrong digits instead.
    """
    if low < 0 or high >= 10**width:
        bad = low if low < 0 else high
        raise InvalidInputError(
            f"id {bad} does not fit the {width}-digit output format "
            f"(ids must lie in 0..{10**width - 1})"
        )


def format_lines(ids, lengths, width: int) -> str:
    """Fixed-width text of consecutive output lines, as one digit matrix.

    ``ids`` holds every line's ids end to end; ``lengths`` is how many ids
    each line holds, one count per line or one count for every line.
    Each id becomes one row of ``width`` ASCII digits (``id // 10**k % 10
    + 48``) plus one separator byte: a space, or a newline on the row that
    ends its line.  The text equals the lines formatted one f-string at a
    time, and its length is the sum of :func:`line_bytes` over them.  The
    range is checked once, on the batch's minimum and maximum, before any
    text is built.

    >>> format_lines([1, 2, 3, 4, 5], [2, 3], 3)
    '001 002\\n003 004 005\\n'
    >>> format_lines([1, 2, 3, 4], 2, 3)
    '001 002\\n003 004\\n'
    """
    ids = np.asarray(ids, dtype=np.int64)
    if not len(ids):
        return ""
    _check_range(int(ids.min()), int(ids.max()), width)
    text = np.empty((len(ids), width + 1), dtype=np.uint8)
    # int64 ids have at most 19 digits; wider columns lead with zeros.
    digits = min(width, 19)
    text[:, : width - digits] = 48
    # One column at a time: temporaries stay one id array in size.
    for k in range(digits):
        text[:, width - 1 - k] = ids // 10**k % 10 + 48
    text[:, width] = 32
    if np.ndim(lengths) == 0:
        text[lengths - 1 :: lengths, width] = 10
    else:
        text[np.cumsum(lengths) - 1, width] = 10
    return text.tobytes().decode("ascii")


class FixedWidthWriter:
    """Writes links and groups in the paper's fixed-width text format.

    Accepts a path or an open text file.  Tracks the exact number of bytes
    written, which equals the file size for a path target.

    Path targets are opened — and fsynced — through the durable-I/O seam
    (:func:`repro.io.durable.get_fs`), so the crash-consistency harness
    can interpose on every write the output path sees.  The filesystem is
    captured at construction; it is exposed as :attr:`fs` for wrappers
    (the atomic sink) that perform follow-up operations on the same
    target.

    >>> import io
    >>> buf = io.StringIO()
    >>> w = FixedWidthWriter(buf, width=4)
    >>> w.write_link(1, 2)
    >>> w.write_group([1, 2, 3])
    >>> print(buf.getvalue(), end="")
    0001 0002
    0001 0002 0003
    """

    def __init__(self, target: Union[str, TextIO], width: int = 8, mode: str = "w"):
        from repro.io.durable import get_fs

        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.width = width
        self.bytes_written = 0
        self.fs = get_fs()
        if isinstance(target, (str, bytes)):
            self.path: Union[str, None] = os.fsdecode(target)
            self._file: TextIO = self.fs.open(self.path, mode, encoding="ascii")
            self._owns_file = True
        else:
            self.path = None
            self._file = target
            self._owns_file = False

    def _format_ids(self, ids: Sequence[int]) -> str:
        # One short line: an f-string per id costs less than the NumPy
        # dispatch of format_lines.  An in-range id is exactly ``width``
        # digits, so the text's length and sign show a bad id without a
        # per-id comparison.
        width = self.width
        text = " ".join(f"{int(i):0{width}d}" for i in ids)
        if len(text) != len(ids) * (width + 1) - 1 or "-" in text:
            _check_range(min(ids, default=0), max(ids, default=0), width)
        return text

    def write_link(self, i: int, j: int) -> None:
        """One link line: two ids."""
        line = self._format_ids((i, j)) + "\n"
        self._file.write(line)
        self.bytes_written += len(line)

    def write_links(self, ids_i, ids_j) -> None:
        """Many link lines in one write, formatted as one digit matrix."""
        pairs = np.column_stack((ids_i, ids_j))
        text = format_lines(pairs.ravel(), 2, self.width)
        self._file.write(text)
        self.bytes_written += len(text)

    def write_group(self, ids: Sequence[int]) -> None:
        """One group line: all member ids."""
        if not len(ids):
            return
        line = self._format_ids(ids) + "\n"
        self._file.write(line)
        self.bytes_written += len(line)

    def write_group_pair(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        """A spatial-join group: both sides on one line, ``|``-separated."""
        line = self._format_ids(ids_a) + " | " + self._format_ids(ids_b) + "\n"
        self._file.write(line)
        self.bytes_written += len(line)

    def sync(self) -> None:
        """Flush buffers and force the bytes to stable storage (fsync).

        In-memory targets (``StringIO``) flush only; the fsync is skipped
        where the target has no file descriptor.
        """
        self.fs.fsync(self._file)

    def tell(self) -> int:
        """Current byte offset in the underlying file (after a flush)."""
        self._file.flush()
        return self._file.tell()

    def close(self) -> None:
        """Close the underlying file if this writer opened it."""
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "FixedWidthWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_output(source: Union[str, TextIO]) -> tuple[list[tuple[int, int]], list[tuple[int, ...]], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Parse a file written by :class:`FixedWidthWriter`.

    Returns ``(links, groups, group_pairs)``: two-id lines become links,
    longer lines become groups, and lines with a ``|`` separator become
    spatial-join group pairs.
    """
    if isinstance(source, (str, bytes)):
        handle: TextIO = open(source, "r", encoding="ascii")
        owns = True
    else:
        handle = source
        owns = False
    links: list[tuple[int, int]] = []
    groups: list[tuple[int, ...]] = []
    group_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    try:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if "|" in line:
                left, _, right = line.partition("|")
                group_pairs.append(
                    (
                        tuple(int(t) for t in left.split()),
                        tuple(int(t) for t in right.split()),
                    )
                )
                continue
            ids = tuple(int(t) for t in line.split())
            if len(ids) == 2:
                links.append((ids[0], ids[1]))
            else:
                groups.append(ids)
    finally:
        if owns:
            handle.close()
    return links, groups, group_pairs
