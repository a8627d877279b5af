"""External merge sort that groups an N-Triples file by subject.

Works on raw lines, not parsed triples: the key is the subject token in
the canonical form the parser gives it, so escaped spellings of one subject
sort together; the full line breaks ties. A subject is recognised exactly
when the parser would take it: the statement grammar's IRI or blank-node
piece, then a blank or tab, then the parser's term checks. Other lines
(junk, comments, blanks, malformed subjects) still pass through, keyed by
their leading token, and are counted in the summary.

Memory is bounded by `memory_budget` using per-line `sys.getsizeof`
accounting: a chunk is sorted and spilled to a temp file once its strings
would exceed the budget, and the spills are merged back, at most
`_MERGE_FAN_IN` at a time.
"""

from __future__ import annotations

import heapq
import os
import re
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

# murmur3_x64_128 is unused here; it stays bound because perfbench/tracer.py patches it.
from .murmur3 import murmur3_x64_128
from .ntriples import _BNODE, _IRI, canonical_subject
from .sketches import hash128

_LIST_SLOT_BYTES = 8
_MERGE_FAN_IN = 64  # runs open at once, well under the usual 1,024-file limit
_BACKSLASH = 92  # an int needle: `bytes in bytes` first fails an int conversion
# The parser's subject pieces over bytes: each byte of a UTF-8 encoded
# non-ASCII character is above the IRI piece's excluded range, as the
# character is in the parser's str match.
_SUBJECT_TOKEN_RE = re.compile(rb"[ \t]*(" + f"{_IRI}|{_BNODE}".encode("ascii") + rb")[ \t]")


@dataclass
class SortSummary:
    lines: int = 0
    chunks: int = 0
    malformed_lines: int = 0


def subject_sort_key(line: bytes) -> tuple[bytes, bool]:
    """(sort key, subject recognised). Key never contains a tab or newline."""
    m = _SUBJECT_TOKEN_RE.match(line)
    if m is not None:
        key = m[1]
        if key.isascii() and _BACKSLASH not in key and key != b"<>":
            return key, True
        # escapes, `<>` and non-ASCII bytes take the parser's term checks,
        # and an escaped key becomes its canonical form
        try:
            return canonical_subject(key.decode("utf-8")).encode("utf-8"), True
        except ValueError:  # UnicodeDecodeError included
            pass
    # raw prefix fallback: leading token of the line as-is
    token = line.split(b" ", 1)[0].split(b"\t", 1)[0]
    return token, False


def write_atomically(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to a new file beside `path`, renamed over it at the end
    and removed on any failure, so `path` never holds a partial write. The
    file gets mode 0o666 less the umask, as `open` would give it."""
    tmp = Path(path).parent / f".lodprobe-{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _merged(paths: list[str]):
    """The records of the sorted runs at `paths`, merged into one order."""
    with ExitStack() as stack:
        readers = [stack.enter_context(open(p, "rb")) for p in paths]
        # Compare without the record terminator: with it, a line that
        # extends another line would sort before it whenever the extension
        # starts with a tab.
        yield from heapq.merge(*readers, key=lambda r: r[:-1])


def sort_by_subject(
    input_path: str | Path,
    output_path: str | Path,
    memory_budget: int = 64 * 1024 * 1024,
) -> SortSummary:
    """Sort `input_path` so lines sharing a subject are contiguous.

    Output is the same multiset of lines (line endings normalised to \\n)
    ordered by (subject sort key, full line), both compared bytewise.
    A `memory_budget` below 1 byte is a ValueError.
    """
    if memory_budget < 1:
        raise ValueError(f"memory budget must be at least 1 byte, got {memory_budget}")
    summary = SortSummary()
    chunk: list[bytes] = []
    chunk_bytes = 0
    runs: list[str] = []

    def new_run(records) -> None:
        fd, path = tempfile.mkstemp(prefix="lodprobe-sort-")
        runs.append(path)
        with os.fdopen(fd, "wb") as out:
            for rec in records:
                out.write(rec)

    def spill():
        nonlocal chunk, chunk_bytes
        chunk.sort()
        # One line at a time: joining would transiently double the chunk's
        # memory footprint.
        new_run(decorated + b"\n" for decorated in chunk)
        summary.chunks += 1
        chunk = []
        chunk_bytes = 0

    try:
        with open(input_path, "rb") as fh:
            for raw in fh:
                line = raw.rstrip(b"\r\n")
                summary.lines += 1
                key, ok = subject_sort_key(line)
                if not ok:
                    summary.malformed_lines += 1
                # Decorated form sorts like the (key, line) pair: \t is
                # below every byte a subject token can hold.
                decorated = key + b"\t" + line
                cost = sys.getsizeof(decorated) + _LIST_SLOT_BYTES
                if chunk and chunk_bytes + cost > memory_budget:
                    spill()
                chunk.append(decorated)
                chunk_bytes += cost

        if runs and chunk:
            spill()
        # At most _MERGE_FAN_IN runs open at once: merge the oldest into one
        # new run until a single final merge remains.
        while len(runs) > _MERGE_FAN_IN:
            group = runs[:_MERGE_FAN_IN]
            new_run(_merged(group))
            del runs[:_MERGE_FAN_IN]
            for p in group:
                os.unlink(p)

        chunk.sort()  # every line when nothing was spilled, else empty
        records = _merged(runs) if runs else (decorated + b"\n" for decorated in chunk)
        write_atomically(output_path, (rec.split(b"\t", 1)[1] for rec in records))
    finally:
        for p in runs:
            if os.path.exists(p):
                os.unlink(p)
    return summary


def verify_subject_contiguous(path: str | Path) -> int | None:
    """Single-pass contiguity check.

    Returns None when every subject's lines are contiguous, else the
    1-based line number of the first line whose subject already closed.
    Only lines with a recognised subject are judged: blank, comment and
    junk lines neither close a subject's run nor reopen one, as `assess`
    skips them too. Memory stays bounded by keeping 128-bit key digests,
    not keys.
    """
    closed: set[int] = set()
    current: bytes | None = None
    current_digest = 0

    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            key, ok = subject_sort_key(raw.rstrip(b"\r\n"))
            if not ok or key == current:
                continue
            if current is not None:
                closed.add(current_digest)
            current, current_digest = key, hash128(key)
            if current_digest in closed:
                return line_no
    return None
