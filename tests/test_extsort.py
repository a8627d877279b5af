import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lodprobe import (
    NTriplesReader, SeededRng, SortOrderViolation, extsort, metrics, sort_by_subject,
    verify_subject_contiguous,
)
from lodprobe.cli import main
from lodprobe.extsort import _subject_keys, subject_sort_key, write_atomically
from lodprobe.metrics import ConcisenessMetric
from lodprobe.ntriples import NTriplesParseError, parse_line, serialize_term

from synth import feed, random_triple, serialize_triple


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


@pytest.mark.parametrize("budget", [1 << 20, 60])
def test_junk_lines_sort_by_key_then_line(tmp_path, budget):
    # Unrecognised subjects whose first token holds a byte below a blank:
    # a key that kept such a byte would meet the tab after a shorter key.
    lines = [b"a d", b"a\x01b c", b"a\x1fb", b"a\x00", b"ab\x0bc d", b"ab e",
             b"\x01 x", b"a\tz", b"a", b"a\x7f y"]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    summary = sort_by_subject(src, dst, memory_budget=budget)
    assert (summary.chunks > 1) == (budget == 60)
    assert _read(dst) == _oracle_sort(lines)


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
    child = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
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


def _one_character_edits() -> list[str]:
    """Every one-character deletion or insertion in a few valid statements."""
    statements = [
        "<http://a.org/s> <http://a.org/p> <http://a.org/o> .",
        "_:b1.x <http://a.org/p> \"v\" .",
        "\t<http://a.org/caf\\u00E9>  <http://a.org/p>\t_:o .",
        "<http://a.org/é> <http://a.org/p> \"x\" .",
    ]
    inserts = " \t.<>\"\\_:#-u0é"
    edits = set()
    for statement in statements:
        edits |= {statement[:i] + statement[i + 1 :] for i in range(len(statement))}
        edits |= {statement[:i] + c + statement[i:]
                  for i in range(len(statement) + 1) for c in inserts}
    return sorted(edits)


def test_subject_recognised_exactly_when_the_parser_takes_it():
    recognised = rejected = 0
    for line in _one_character_edits():
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


def test_fast_subject_key_equals_the_reference():
    # Wherever the fast pattern takes a subject, its token is the key that
    # subject_sort_key gives, and the subject is recognised.
    lines = [line.encode() for line in _one_character_edits()]
    rng = SeededRng(407)
    alphabet = b'<>_:ab. \t\\u0\x7f\x80\xff"#\r'
    for _ in range(60_000):
        start = (b"<", b"_:", b"")[rng.uniform_below(3)]
        lines.append(start + bytes(alphabet[rng.uniform_below(len(alphabet))]
                                   for _ in range(rng.uniform_below(12))))
    keys = _subject_keys(lines, lambda line: None)
    fast = [(line, key) for line, key in zip(lines, keys) if key is not None]
    for line, key in fast:
        assert (key, True) == subject_sort_key(line), line
    assert len(fast) > 1_000, len(fast)


def _line_cost(line: bytes) -> int:
    return sys.getsizeof(subject_sort_key(line)[0] + b"\t" + line) + 8


def _oracle_chunks(lines: list[bytes], budget: int) -> int:
    """Spill count under the per-line rule: a line that would take the
    chunk's strings past the budget first spills a non-empty chunk."""
    spilled = used = held = 0
    for line in lines:
        cost = _line_cost(line)
        if held and used + cost > budget:
            spilled, used, held = spilled + 1, 0, 0
        used += cost
        held += 1
    return spilled + 1 if spilled and held else spilled


def test_chunk_boundaries_follow_the_per_line_rule(tmp_path):
    rng = SeededRng(408)
    lines = [serialize_triple(random_triple(rng)).encode() for _ in range(2_500)]
    # lines longer than every budget below 500,000 and than a read batch,
    # which take the input past 500,000 bytes
    for i in range(100, 2_500, 400):
        lines[i] = b'<http://a/long> <http://a/p> "%d' % i + b"x" * 100_000 + b'" .'
    lines[700:700] = [b"junk", b"", b"<http://a/\\u0078> <http://a/p> <http://a/o> ."]
    src = tmp_path / "in.nt"
    _write(src, lines)
    outputs = set()
    for budget in (1, 300, 5_000, 500_000, 1 << 26):
        dst = tmp_path / f"out-{budget}.nt"
        summary = sort_by_subject(src, dst, memory_budget=budget)
        assert summary.chunks == _oracle_chunks(lines, budget), budget
        outputs.add(dst.read_bytes())
    assert len(outputs) == 1
    assert _read(dst) == _oracle_sort(lines)


@pytest.mark.parametrize("per_chunk", [40, 1_000])
@pytest.mark.parametrize("short", [0, 1])
def test_a_budget_filled_exactly_holds_its_last_line(tmp_path, per_chunk, short):
    # Lines of one length: a budget of exactly `per_chunk` lines' cost gives
    # chunks of exactly that many lines, in batches and line by line; one
    # byte less gives one line less.
    lines = [b"<http://a/s%05d> <http://a/p> <http://a/o> ." % ((i * 7_919) % 4_000)
             for i in range(4_000)]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    _write(src, lines)
    budget = per_chunk * _line_cost(lines[0]) - short
    summary = sort_by_subject(src, dst, memory_budget=budget)
    assert summary.chunks == _oracle_chunks(lines, budget)
    assert summary.chunks == -(-4_000 // (per_chunk - short))
    assert _read(dst) == _oracle_sort(lines)


@pytest.mark.parametrize("merge_block", [1, extsort._MERGE_BLOCK])
@pytest.mark.parametrize("budget, runs", [(1 << 26, (0, 0)), (8_000, (2, 64)), (300, (65, 10**6))])
def test_merge_edge_cases_across_runs(tmp_path, monkeypatch, merge_block, budget, runs):
    monkeypatch.setattr(extsort, "_MERGE_BLOCK", merge_block)
    rng = SeededRng(409)
    base = [serialize_triple(random_triple(rng, n_subjects=20)).encode() for _ in range(160)]
    extended = [base[0] + b"\tx", base[0] + b"\x01", base[0] + b"\t", base[1] + b"\x01\x01"]
    odd = [b"", b"   ", b"junk", b"# a comment", b"<http://a/\\u0078> <http://a/p> <http://a/o> ."]
    lines = extended + base[:80] + odd + base[:40] + base[80:] + extended + odd
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    # every fifth line ends in CRLF, and the last line has no terminator
    src.write_bytes(b"".join(line + (b"\r\n" if i % 5 == 0 else b"\n")
                             for i, line in enumerate(lines))[:-1])
    summary = sort_by_subject(src, dst, memory_budget=budget)
    assert runs[0] <= summary.chunks <= runs[1], summary.chunks
    assert summary.lines == len(lines)
    assert summary.malformed_lines == 8  # each odd line bar the escaped subject, twice
    assert dst.read_bytes() == b"".join(line + b"\n" for line in _oracle_sort(lines))


def test_contiguity_line_numbers_span_read_batches(tmp_path):
    path = tmp_path / "in.nt"
    lines = [b"<http://a/s%05d> <http://a/p> <http://a/o> ." % (i // 3) for i in range(3_000)]
    _write(path, lines)
    assert verify_subject_contiguous(path) is None
    lines.insert(2_500, lines[10])
    _write(path, lines)
    assert verify_subject_contiguous(path) == 2_501


# Subject spellings, in `sort`'s order of their subjects: `<http://a.org/w>`;
# `<http://a.org/x>` plain, escaped and after a leading tab; one IRI with a
# non-ASCII character, plain and escaped; and three blank nodes.
_SPELLINGS = ["<http://a.org/w>", "<http://a.org/x>", "<http://a.org/\\u0078>",
              "\t<http://a.org/x>", "<http://a.org/é>", "<http://a.org/\\u00E9>",
              "_:b1", "_:b2", "_:b3"]


def _ascending_runs(lines: list[str]) -> tuple[int, int]:
    """(subject runs that ascend before the first that does not, runs)."""
    keys = [subject_sort_key(line.encode())[0] for line in lines]
    runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    ascending = next((i for i in range(1, len(runs)) if runs[i] < runs[i - 1]), len(runs))
    return ascending, len(runs)


def test_verify_refuses_exactly_what_conciseness_refuses(tmp_path):
    rng = SeededRng(410)
    path = tmp_path / "in.nt"
    outcomes, late = Counter(), Counter()
    for _ in range(2_000):
        lines, at = [], 0
        for _ in range(1 + rng.uniform_below(10)):
            # Half the lines step up at most three spellings, so that runs
            # often ascend for a while before one does not.
            at = (min(at + rng.uniform_below(4), len(_SPELLINGS) - 1) if rng.uniform_below(2)
                  else rng.uniform_below(len(_SPELLINGS)))
            lines.append(f"{_SPELLINGS[at]} <http://a.org/p> <http://a.org/o{rng.uniform_below(3)}> .")
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            feed(ConcisenessMetric(False), NTriplesReader(path))
            refused = None
        except SortOrderViolation as exc:
            refused = exc.triple_number
        assert verify_subject_contiguous(path) == refused, lines
        outcomes[refused is None] += 1
        ascending, runs = _ascending_runs(lines)
        if ascending < runs:
            late[ascending >= 3] += 1
    assert min(outcomes.values()) > 500, outcomes
    assert late[True] >= sum(late.values()) / 4, late
    # verify also judges a malformed statement whose subject sort recognises,
    # which assess skips and counts
    path.write_text("<http://a.org/s1> <http://a.org/p> <http://a.org/o> .\n"
                    "<http://a.org/s2> <http://a.org/p> <http://a.org/o> .\n"
                    '<http://a.org/s1> <http://a.org/p> "unterminated .\n')
    assert verify_subject_contiguous(path) == 3
    assert main(["assess", "--input", str(path), "--metric", "extcon:exact",
                 "--out", str(tmp_path / "r.json")]) == 2


# Canonical subjects, each with the spellings a line may give it: IRIs
# plain, x-escaped and after a leading tab; non-ASCII IRIs plain and
# é-escaped; blank nodes.
_CANONICAL = {}
for _i in range(12):
    _CANONICAL[f"<http://a.org/x{_i}>"] = [f"<http://a.org/x{_i}>", f"<http://a.org/\\u0078{_i}>",
                                          f"\t<http://a.org/x{_i}>"]
    _CANONICAL[f"<http://a.org/é{_i}>"] = [f"<http://a.org/é{_i}>", f"<http://a.org/\\u00E9{_i}>"]
    _CANONICAL[f"_:b{_i}"] = [f"_:b{_i}"]
_IN_SORT_ORDER = sorted(_CANONICAL, key=lambda subject: subject.encode())


def _subject_runs(rng: SeededRng) -> tuple[list[str], str]:
    """The canonical subjects of a stream's runs, and the kind of its first
    run that does not ascend: "none", a new subject "below" the last run's,
    a reappearance of the "first" run, or of the run "before-last"."""
    prefix: set[str] = set()
    wanted = 1 + rng.uniform_below(10)
    while len(prefix) < wanted:
        prefix.add(_IN_SORT_ORDER[rng.uniform_below(len(_IN_SORT_ORDER))])
    runs = sorted(prefix, key=lambda subject: subject.encode())
    below = [s for s in _IN_SORT_ORDER if s.encode() < runs[-1].encode() and s not in prefix]
    kinds = ["none"] + ["below"] * bool(below) + ["first", "before-last"] * (len(runs) > 1)
    kind = kinds[rng.uniform_below(len(kinds))]
    if kind == "none":
        return runs, kind
    runs.append(below[rng.uniform_below(len(below))] if kind == "below"
                else runs[0] if kind == "first" else runs[-2])
    for _ in range(rng.uniform_below(5)):  # any other subject, a repeat or not
        subject = runs[-1]
        while subject == runs[-1]:
            subject = _IN_SORT_ORDER[rng.uniform_below(len(_IN_SORT_ORDER))]
        runs.append(subject)
    return runs, kind


def test_reappearance_found_whatever_precedes_the_first_descent(tmp_path, monkeypatch):
    # Conciseness and verify each refuse the first run whose subject ran
    # before, at its triple ordinal and at its line, exactly as a plain set
    # of canonical subjects does, however long runs ascended before.
    rng = SeededRng(411)
    path = tmp_path / "in.nt"
    kinds, refusals = Counter(), Counter()
    for _ in range(1_500):
        runs, kind = _subject_runs(rng)
        lines, seen, expected = [], set(), (None, None)
        ordinal = 0
        for i, subject in enumerate(runs):
            spellings = _CANONICAL[subject]
            for j in range(1 + rng.uniform_below(3)):
                if rng.uniform_below(6) == 0:
                    lines.append("# neither a triple nor a subject")
                ordinal += 1
                if j == 0 and subject in seen and expected == (None, None):
                    expected = (ordinal, len(lines) + 1)
                lines.append(f"{spellings[rng.uniform_below(len(spellings))]} "
                             f"<http://a.org/p> <http://a.org/o{i}> .")
            seen.add(subject)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        monkeypatch.setattr(metrics, "CHUNK_TRIPLES", (1, 3, 256)[rng.uniform_below(3)])
        try:
            feed(ConcisenessMetric(False), NTriplesReader(path))
            refused = None
        except SortOrderViolation as exc:
            refused = exc.triple_number
        assert (refused, verify_subject_contiguous(path)) == expected, lines
        kinds[kind] += 1
        refusals[kind, expected[0] is not None] += 1
    assert min(kinds.values()) > 250, kinds
    assert refusals["none", True] == 0 and refusals["below", True] > 50, refusals
    assert refusals["first", False] == refusals["before-last", False] == 0, refusals


def test_sort_output_never_unpacks_the_digests(tmp_path, monkeypatch):
    # In sort's output every subject run sorts above the one before it,
    # so neither verify nor conciseness ever builds the set of digests.
    made = []
    init = extsort.StartedSubjects.__init__
    monkeypatch.setattr(extsort.StartedSubjects, "__init__",
                        lambda started: made.append(started) or init(started))
    rng = SeededRng(412)
    lines = [f"{spelling} <http://a.org/p> <http://a.org/o{rng.uniform_below(4)}> ."
             for spellings in _CANONICAL.values() for spelling in spellings for _ in range(2)]
    lines += ["junk line", "", "# a comment", "<http://a.org/\\q> <http://a.org/p> <http://a.org/o> .",
              '<http://a.org/x3> <http://a.org/p> "unterminated .']
    order = [rng.next_float() for _ in lines]
    src, dst = tmp_path / "in.nt", tmp_path / "out.nt"
    src.write_text("".join(line + "\n" for _, line in sorted(zip(order, lines))), encoding="utf-8")
    sort_by_subject(src, dst)
    assert verify_subject_contiguous(dst) is None
    assert main(["assess", "--input", str(dst), "--metric", "extcon",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert len(made) == 2
    for started in made:
        assert started.digests is None
        assert len(started.packed) == 16 * len(_CANONICAL)
