import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lodprobe import SeededRng, sort_by_subject, verify_subject_contiguous
from lodprobe.extsort import subject_sort_key, write_atomically
from lodprobe.ntriples import NTriplesParseError, parse_line, serialize_term

from synth import random_triple
from lodprobe import serialize_triple


def _oracle_sort(lines: list[bytes]) -> list[bytes]:
    return sorted(lines, key=lambda l: (subject_sort_key(l)[0], l))


def _write(path, lines: list[bytes]):
    path.write_bytes(b"".join(l + b"\n" for l in lines))


def _read(path) -> list[bytes]:
    return path.read_bytes().splitlines()


def test_already_sorted_is_identity(tmp_path):
    lines = [
        b"<http://a/s1> <http://a/p> <http://a/o1> .",
        b"<http://a/s1> <http://a/p> <http://a/o2> .",
        b"<http://a/s2> <http://a/p> <http://a/o1> .",
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    summary = sort_by_subject(src, dst, memory_budget=1 << 20)
    assert _read(dst) == lines
    assert summary.lines == 3
    assert summary.malformed_lines == 0
    assert verify_subject_contiguous(dst) is None


def test_interleaved_subjects_grouped(tmp_path):
    lines = [
        b"<http://a/s2> <http://a/p> <http://a/o1> .",
        b"<http://a/s1> <http://a/p> <http://a/o1> .",
        b"<http://a/s2> <http://a/p> <http://a/o2> .",
        b"<http://a/s1> <http://a/p> <http://a/o2> .",
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    sort_by_subject(src, dst)
    out = _read(dst)
    subjects = [l.split(b" ", 1)[0] for l in out]
    assert subjects == sorted(subjects)
    assert Counter(out) == Counter(lines)
    assert verify_subject_contiguous(dst) is None
    assert verify_subject_contiguous(src) == 3  # s2 reappears on line 3


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_byte_refused(tmp_path, budget):
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, [b"<http://a/s> <http://a/p> <http://a/o> ."])
    with pytest.raises(ValueError, match="at least 1 byte"):
        sort_by_subject(src, dst, memory_budget=budget)
    assert not dst.exists()


@pytest.mark.parametrize("gap", [b"# a comment", b"", b"   ", b"junk without a subject"])
def test_contiguity_skips_lines_without_a_subject(tmp_path, gap):
    path = tmp_path / "in.nt"
    same = [b"<http://a/s> <http://a/p> <http://a/o1> .", gap,
            b"<http://a/s> <http://a/p> <http://a/o2> ."]
    _write(path, same)
    assert verify_subject_contiguous(path) is None
    # a true reappearance after the gap still reports its own line
    _write(path, same[:1] + [b"<http://a/t> <http://a/p> <http://a/o> .", gap] + same[2:])
    assert verify_subject_contiguous(path) == 4


def test_malformed_lines_pass_through_counted(tmp_path):
    lines = [
        b"<http://a/s2> <http://a/p> <http://a/o> .",
        b"complete junk here",
        b"<http://a/s1> <http://a/p> <http://a/o> .",
        b"@prefix nonsense",
        b"<a\tb> <http://a/p> <http://a/o> .",
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    summary = sort_by_subject(src, dst)
    assert summary.malformed_lines == 3
    assert Counter(_read(dst)) == Counter(lines)


def test_multichunk_matches_in_memory_oracle(tmp_path):
    rng = SeededRng(404)
    lines = [
        serialize_triple(random_triple(rng, n_subjects=500)).encode() for _ in range(100_000)
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    # ~500 KB budget forces a couple dozen spill chunks.
    summary = sort_by_subject(src, dst, memory_budget=500_000)
    assert summary.chunks > 5
    assert _read(dst) == _oracle_sort(lines)
    assert verify_subject_contiguous(dst) is None


def test_single_chunk_matches_oracle(tmp_path):
    rng = SeededRng(405)
    lines = [serialize_triple(random_triple(rng)).encode() for _ in range(2_000)]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    summary = sort_by_subject(src, dst, memory_budget=1 << 26)
    assert summary.chunks == 0
    assert _read(dst) == _oracle_sort(lines)


def test_more_runs_than_open_files_allowed(tmp_path):
    # A child process allowed 128 open files sorts into more than 200 runs:
    # the merge must never hold every run open at once.
    rng = SeededRng(406)
    lines = [serialize_triple(random_triple(rng)).encode() for _ in range(600)]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    checkout = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import resource, sys; sys.path.insert(0, {checkout!r}); "
        "resource.setrlimit(resource.RLIMIT_NOFILE, "
        "(128, resource.getrlimit(resource.RLIMIT_NOFILE)[1])); "
        "from lodprobe.extsort import sort_by_subject; "
        f"print(sort_by_subject({str(src)!r}, {str(dst)!r}, memory_budget=300).chunks)"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) > 200
    assert _read(dst) == _oracle_sort(lines)


def test_blank_node_subjects_group(tmp_path):
    lines = [
        b"_:b2 <http://a/p> <http://a/o1> .",
        b"_:b1 <http://a/p> <http://a/o1> .",
        b"_:b2 <http://a/p> <http://a/o2> .",
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    sort_by_subject(src, dst)
    assert verify_subject_contiguous(dst) is None


def test_crlf_normalised(tmp_path):
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    src.write_bytes(
        b"<http://a/s2> <http://a/p> <http://a/o> .\r\n"
        b"<http://a/s1> <http://a/p> <http://a/o> .\r\n"
    )
    sort_by_subject(src, dst)
    assert _read(dst) == [
        b"<http://a/s1> <http://a/p> <http://a/o> .",
        b"<http://a/s2> <http://a/p> <http://a/o> .",
    ]


def test_ties_broken_by_full_line(tmp_path):
    lines = [
        b"<http://a/s> <http://a/p2> <http://a/o> .",
        b"<http://a/s> <http://a/p1> <http://a/o> .",
        b"<http://a/s> <http://a/p1> <http://a/a> .",
    ]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    sort_by_subject(src, dst)
    assert _read(dst) == sorted(lines)


def test_failed_write_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.nt"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"partial\n"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_atomically(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.nt"]


def test_subject_sort_key_forms():
    assert subject_sort_key(b"<http://a/s> <http://a/p> <http://a/o> .") == (b"<http://a/s>", True)
    assert subject_sort_key(b"_:b7 <http://a/p> <http://a/o> .") == (b"_:b7", True)
    assert subject_sort_key(b"junk line") == (b"junk", False)
    assert subject_sort_key(b"") == (b"", False)
    # escaped spellings key on the canonical token the parser gives the subject
    assert subject_sort_key(b"<http://a/\\u0078> <http://a/p> <http://a/o> .") == (
        b"<http://a/x>", True
    )
    assert subject_sort_key("<http://a/caf\\u00E9> <http://a/p> \"x\" .".encode()) == (
        "<http://a/café>".encode(), True
    )
    # a subject the parser rejects is keyed on the raw leading token
    assert subject_sort_key(b"<http://a/\\uD800> <http://a/p> <http://a/o> .") == (
        b"<http://a/\\uD800>", False
    )
    assert subject_sort_key(b"<http://a/\\q> <http://a/p> <http://a/o> .") == (
        b"<http://a/\\q>", False
    )
    assert subject_sort_key(b"<http://a/\\u0020> <http://a/p> <http://a/o> .") == (
        b"<http://a/\\u0020>", False
    )
    assert subject_sort_key(b"<> <http://a/p> <http://a/o> .") == (b"<>", False)
    assert subject_sort_key(b"_:b. <http://a/p> <http://a/o> .") == (b"_:b.", False)
    assert subject_sort_key(b"_:b:c <http://a/p> <http://a/o> .") == (b"_:b:c", False)
    assert subject_sort_key(b"<http://a/s b> <http://a/p> <http://a/o> .") == (
        b"<http://a/s", False
    )
    assert subject_sort_key(b"<http://a/\xff> <http://a/p> <http://a/o> .") == (
        b"<http://a/\xff>", False
    )
    # a tab inside `<...>` is no IRI; keying on it would split the line apart
    assert subject_sort_key(b"<a\tb> <http://a/p> <http://a/o> .") == (b"<a", False)


def _parser_takes_subject(line: str) -> bool:
    """Oracle: the line parses, or the parser's first failing piece lies past
    the subject, which starts after the leading blanks."""
    start = len(line.encode()) - len(line.lstrip(" \t").encode())
    try:
        return parse_line(line) is not None
    except NTriplesParseError as exc:
        return exc.byte_offset > start


def test_subject_recognised_exactly_when_the_parser_takes_it():
    # Every one-character deletion or insertion in a few valid statements.
    statements = [
        "<http://a.org/s> <http://a.org/p> <http://a.org/o> .",
        "_:b1.x <http://a.org/p> \"v\" .",
        "\t<http://a.org/caf\\u00E9>  <http://a.org/p>\t_:o .",
        "<http://a.org/é> <http://a.org/p> \"x\" .",
    ]
    inserts = " \t.<>\"\\_:#-u0é"
    recognised = rejected = 0
    for statement in statements:
        edits = {statement[:i] + statement[i + 1 :] for i in range(len(statement))}
        edits |= {statement[:i] + c + statement[i:]
                  for i in range(len(statement) + 1) for c in inserts}
        for line in sorted(edits):
            key, ok = subject_sort_key(line.encode())
            assert ok == _parser_takes_subject(line), line
            if ok:
                recognised += 1
                try:
                    triple = parse_line(line)
                except NTriplesParseError:
                    continue
                assert key == serialize_term(triple.subject).encode(), line
            else:
                rejected += 1
    assert recognised > 500 and rejected > 100, (recognised, rejected)
