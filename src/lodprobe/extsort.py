"""External merge sort that groups an N-Triples file by subject.

Works on raw lines, not parsed triples: the key is the subject token in
the canonical form the parser gives it, so escaped spellings of one subject
sort together; the full line breaks ties. A subject is recognised exactly
when the parser would take it: the statement grammar's IRI or blank-node
piece, then a blank or tab, then the parser's term checks. Other lines
(junk, comments, blanks, malformed subjects) still pass through, keyed by
their leading token, and are counted in the summary.

Lines are read and keyed in batches of about `_READ_BATCH` bytes, one list
comprehension per batch. Most subjects are canonical as written: an ASCII
IRI without escapes, or a blank node. One regular expression built from the
parser's pieces takes those, and only the other lines go through
`subject_sort_key`, the reference rule, which `verify_subject_contiguous`
shares.

Memory is bounded by `memory_budget` using per-line `sys.getsizeof`
accounting: a chunk is sorted and spilled to a temp file once its strings
would exceed the budget, and the spills are merged back, at most
`_MERGE_FAN_IN` at a time. The merge reads each run in blocks of about
`_MERGE_BLOCK` bytes; each round emits, in one `list.sort`, every held
record that no unread record can precede, so its memory is fixed by the
fan-in and the block size, not by the budget.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

# murmur3_x64_128 is unused here; it stays bound because perfbench/tracer.py patches it.
from .murmur3 import murmur3_x64_128
from .ntriples import _BNODE, _IRI, _IRI_RUN, canonical_subject
from .sketches import hash128

_LIST_SLOT_BYTES = 8
# A record's cost beyond its length: for bytes, `sys.getsizeof` is the
# length plus the size of b"".
_RECORD_BYTES = sys.getsizeof(b"") + _LIST_SLOT_BYTES
_MERGE_FAN_IN = 64  # runs open at once, well under the usual 1,024-file limit
_MERGE_BLOCK = 32 * 1024  # bytes read from each run at a time by the merge
_READ_BATCH = 16 * 1024  # bytes of input lines keyed at a time
_WRITE_SLICE = 1024  # records joined per write, so no write copies a chunk
_BACKSLASH = 92  # an int needle: `bytes in bytes` first fails an int conversion
# The parser's subject pieces over bytes: each byte of a UTF-8 encoded
# non-ASCII character is above the IRI piece's excluded range, as the
# character is in the parser's str match.
_SUBJECT_TOKEN_RE = re.compile(rb"[ \t]*(" + f"{_IRI}|{_BNODE}".encode("ascii") + rb")[ \t]")
# The subjects whose token is their key: the parser's IRI run, also without
# non-ASCII bytes and at least one character long, so without escapes, or
# its blank node; then a blank or tab, at the start of the line.
_ASCII_IRI = "<" + _IRI_RUN.removesuffix("]*") + r"\x80-\xff]+>"
_FAST_SUBJECT_RE = re.compile(f"({_ASCII_IRI}|{_BNODE})[ \t]".encode("ascii"))
_RAW_PREFIX_RE = re.compile(rb"[^\x00-\x20]*")
# A merged record without its terminator: compared with it, a line that
# extends another line would sort before it whenever the extension starts
# with a byte below \n, such as a tab.
_CHOP = itemgetter(slice(None, -1))


@dataclass
class SortSummary:
    lines: int = 0
    chunks: int = 0
    malformed_lines: int = 0


def subject_sort_key(line: bytes) -> tuple[bytes, bool]:
    """(sort key, subject recognised). No key holds a byte at or below a
    blank, so a tab after a key sorts before every longer key."""
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
    return _RAW_PREFIX_RE.match(line)[0], False


def _subject_keys(lines: list[bytes], fallback: Callable[[bytes], object]) -> list:
    """Each line's subject sort key where the fast pattern takes its subject,
    else `fallback(line)`. A trailing terminator changes neither result."""
    match = _FAST_SUBJECT_RE.match
    return [m[1] if (m := match(line)) else fallback(line) for line in lines]


def _line_batches(fh) -> Iterator[list[bytes]]:
    """The lines of binary file `fh`, terminators kept, about `_READ_BATCH`
    bytes at a time."""
    return iter(partial(fh.readlines, _READ_BATCH), [])


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


def _slices(records: list[bytes]) -> Iterator[list[bytes]]:
    """`records` in consecutive slices of at most `_WRITE_SLICE`."""
    for i in range(0, len(records), _WRITE_SLICE):
        yield records[i:i + _WRITE_SLICE]


def _read_block(run_file) -> list[bytes]:
    """The next records of an open run, about `_MERGE_BLOCK` bytes of them."""
    return list(map(_CHOP, run_file.readlines(_MERGE_BLOCK)))


def _merged(paths: list[str]) -> Iterator[list[bytes]]:
    """The records of the sorted runs at `paths`, without terminators, in
    one order: a sorted list at a time."""
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "rb")) for p in paths]
        held = [[block, f] for f in files if (block := _read_block(f))]
        while held:
            # A run's unread records sort at or after its block's last one,
            # so every held record up to the least of those can go out.
            bound = min(block[-1] for block, _ in held)
            out: list[bytes] = []
            for run in held:
                block, f = run
                end = bisect_right(block, bound)
                out += block[:end]
                run[0] = block[end:] or _read_block(f)
            held = [run for run in held if run[0]]
            out.sort()
            yield out


def _undecorated(block: list[bytes]) -> bytes:
    """The lines of the decorated records in `block`, each with \\n."""
    return b"\n".join([record.partition(b"\t")[2] for record in block]) + b"\n"


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

    def new_run(blocks: Iterable[list[bytes]]) -> None:
        fd, path = tempfile.mkstemp(prefix="lodprobe-sort-")
        runs.append(path)
        with os.fdopen(fd, "wb") as out:
            for block in blocks:
                out.write(b"\n".join(block))
                out.write(b"\n")

    def spill():
        nonlocal chunk, chunk_bytes
        chunk.sort()
        new_run(_slices(chunk))
        summary.chunks += 1
        chunk = []
        chunk_bytes = 0

    def counted_key(line: bytes) -> bytes:
        key, ok = subject_sort_key(line)
        if not ok:
            summary.malformed_lines += 1
        return key

    try:
        with open(input_path, "rb") as fh:
            for batch in _line_batches(fh):
                lines = [raw.rstrip(b"\r\n") for raw in batch]
                summary.lines += len(lines)
                # Decorated form sorts like the (key, line) pair: \t is
                # below every byte a subject token can hold.
                decorated = list(map(b"\t".join, zip(_subject_keys(lines, counted_key), lines)))
                cost = sum(map(len, decorated)) + _RECORD_BYTES * len(decorated)
                if chunk_bytes + cost <= memory_budget:
                    chunk += decorated
                    chunk_bytes += cost
                    continue
                # the budget runs out inside this batch: the per-line rule
                # places the chunk boundary
                for record in decorated:
                    cost = len(record) + _RECORD_BYTES
                    if chunk and chunk_bytes + cost > memory_budget:
                        spill()
                    chunk.append(record)
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
        blocks = _merged(runs) if runs else _slices(chunk)
        write_atomically(output_path, map(_undecorated, blocks))
    finally:
        for p in runs:
            if os.path.exists(p):
                os.unlink(p)
    return summary


def _recognised_key(line: bytes) -> bytes | None:
    key, ok = subject_sort_key(line.rstrip(b"\r\n"))
    return key if ok else None


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
    line_no = 0

    with open(path, "rb") as fh:
        for batch in _line_batches(fh):
            for line_no, key in enumerate(_subject_keys(batch, _recognised_key), line_no + 1):
                if key is None or key == current:
                    continue
                if current is not None:
                    closed.add(current_digest)
                current, current_digest = key, hash128(key)
                if current_digest in closed:
                    return line_no
    return None
