import dataclasses
import io
import random
import re
from pathlib import Path
from unittest import mock

import pytest

from lodprobe import (
    NTriplesParseError,
    NTriplesReader,
    SeededRng,
    Term,
    TermKind,
    Triple,
    blank,
    iri,
    literal,
    ntriples,
    parse_line,
    serialize_triple,
)
from lodprobe import extsort
from lodprobe.ntriples import ParseFailure, serialize_term

from synth import conciseness_stream, deref_fixture, random_triple


def test_minimal_statement():
    t = parse_line('<http://a.org/s> <http://a.org/p> "x" .')
    assert t == Triple(iri("http://a.org/s"), iri("http://a.org/p"), literal("x"))


def test_comment_and_blank_lines_skip():
    assert parse_line("# comment") is None
    assert parse_line("") is None
    assert parse_line("   \t ") is None


def test_iri_object_and_blank_nodes():
    t = parse_line("_:b0 <http://a.org/p> <http://a.org/o> .")
    assert t.subject == blank("b0")
    assert t.object == iri("http://a.org/o")


def test_datatype_and_language_literals():
    t = parse_line(
        '<http://a.org/s> <http://a.org/p> '
        '"3.14"^^<http://www.w3.org/2001/XMLSchema#decimal> .'
    )
    assert t.object.datatype_iri == "http://www.w3.org/2001/XMLSchema#decimal"
    t = parse_line('<http://a.org/s> <http://a.org/p> "bonġu"@mt .')
    assert t.object.language_tag == "mt"
    assert t.object.lexical == "bonġu"


def test_crlf_and_trailing_comment():
    assert parse_line('<http://a/s> <http://a/p> <http://a/o> .\r\n') is not None
    assert parse_line('<http://a/s> <http://a/p> "v" . # trailing') is not None


# Independent escape decoder: walks the escape table directly, no regex.
_TABLE = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _oracle_decode(raw: str) -> str:
    out, i = [], 0
    while i < len(raw):
        if raw[i] != "\\":
            out.append(raw[i])
            i += 1
            continue
        tag = raw[i + 1]
        if tag == "u":
            out.append(chr(int(raw[i + 2 : i + 6], 16)))
            i += 6
        elif tag == "U":
            out.append(chr(int(raw[i + 2 : i + 10], 16)))
            i += 10
        else:
            out.append(_TABLE[tag])
            i += 2
    return "".join(out)


# Oracle grammar: the per-character alternation form of the IRI and
# literal pieces, (?:plain|escape)*. The parser's unrolled patterns must
# accept the same lines and capture the same groups.
_ORACLE_IRI = r"<(?:[^\x00-\x20<>\"{}|^`\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*>"
_ORACLE_LITERAL = (
    r"\"(?:[^\"\\\n\r]|\\[tbnrf\"'\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*\""
    r"(?:\^\^" + _ORACLE_IRI + r"|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?"
)
_ORACLE_STATEMENT_RE = re.compile(
    r"[ \t]*(" + _ORACLE_IRI + r"|" + ntriples._BNODE + r")"
    r"[ \t]+(" + _ORACLE_IRI + r")"
    r"[ \t]+(" + _ORACLE_IRI + r"|" + ntriples._BNODE + r"|" + _ORACLE_LITERAL + r")"
    r"[ \t]*\.[ \t]*(?:#.*)?$"
)
_ORACLE_SUBJECT_RE = re.compile(_ORACLE_IRI + r"|" + ntriples._BNODE)

# Term-body pieces: _PLAIN ones keep a term well formed in most places;
# _TRICKY ones sit on the edges of the grammar (lone backslashes, short
# escapes, delimiters, separators, ECHARs that only literals allow).
_PLAIN = [
    "u", "U", "0", "7", "a", "F", "g", "x", "/", "-", "en", "#", ".", "@", "_:",
    "é", "二", "\U0001F600", "\\u00e9", "\\U0001F600",
]
_TRICKY = ["\\", "\\", '"', "<", ">", " ", "\t", "^^", "\\u12", "\\n", '\\"', "\\\\"]


def _grammar_corpus(seed: int, n: int) -> list[str]:
    """Statement-shaped lines whose term bodies mix _PLAIN and _TRICKY
    pieces; on about half the lines the structure around them is broken
    too (separators, terminator, blank-node labels, language tags)."""
    rng = random.Random(seed)

    def pick(good: list[str], bad: list[str]) -> str:
        return rng.choice(bad if noisy and rng.random() < 0.3 else good)

    def fragment(most: int) -> str:
        return "".join(
            rng.choice(_TRICKY if rng.random() < tricky else _PLAIN)
            for _ in range(rng.randrange(most + 1))
        )

    def term(*kinds: str) -> str:
        kind = rng.choice(kinds)
        if kind == "iri":
            return f"<{fragment(6)}>"
        if kind == "bnode":
            return "_:" + pick(["b", "b.1", "_x-", "b1"], ["b.", "b:", "b\\u0041", ""])
        tag = pick(["en", "en-GB", "x-1"], ["-en", "e1", "", "en-"])
        suffix = rng.choice(["", "", f"^^<{fragment(3)}>", f"@{tag}"])
        return f'"{fragment(8)}"{suffix}'

    lines = []
    for _ in range(n):
        noisy = rng.random() < 0.5
        tricky = rng.choice([0.0, 0.03, 0.1])
        sep = [pick([" ", "\t", "  "], [""]) for _ in range(3)]
        end = pick([" .", ".", " . # c", "\t.\t#"], [" . x", "", " .."])
        lines.append(
            f"{sep[0]}{term('iri', 'bnode')}{sep[1]}{term('iri')}{sep[2]}"
            f"{term('iri', 'bnode', 'literal')}{end}"
        )
    return lines


def _groups(m):
    return None if m is None else (m.span(), m.groups())


def test_statement_grammar_matches_oracle_on_random_corpus():
    corpus = _grammar_corpus(20260901, 20_000)
    accepted = 0
    for line in corpus:
        want = _groups(_ORACLE_STATEMENT_RE.fullmatch(line))
        assert _groups(ntriples._STATEMENT_RE.fullmatch(line)) == want, line
        accepted += want is not None
        for token in line.split():
            want = _groups(_ORACLE_SUBJECT_RE.fullmatch(token))
            assert _groups(ntriples._SUBJECT_RE.fullmatch(token)) == want, token
    # Both outcomes are well represented, or the comparison shows little.
    assert 0.1 * len(corpus) < accepted < 0.9 * len(corpus), accepted


@pytest.mark.parametrize(
    "term, value",
    [
        # an escape at the start and at the end of an IRI and of a literal
        ("<\\u0041bc>", "Abc"),
        ("<abc\\U0001F600>", "abc\U0001F600"),
        ('"\\tabc"', "\tabc"),
        ('"abc\\u0041"', "abcA"),
        # back-to-back escapes
        ("<\\u0041\\U0001F600\\u0042>", "A\U0001F600B"),
        ('"\\n\\t\\u0041\\"\\\\"', '\n\tA"\\'),
        # an escaped quote just before the closing one; a literal ending in \\"
        ('"abc\\""', 'abc"'),
        ('"abc\\\\"', "abc\\"),
        ('"\\\\\\\\"', "\\\\"),
        # an odd backslash run escapes the last quote, so the literal is open
        ('"abc\\\\\\"', None),
        # \u or \U one hex digit short
        ("<a\\u004>", None),
        ('"a\\u004"', None),
        ('"a\\u004g"', None),
        ("<a\\U0001F60>", None),
        # a backslash just before >, or before a character no escape starts with
        ("<abc\\>", None),
        ("<abc\\ >", None),
        ('"abc\\q"', None),
        ("<a\\n>", None),
    ],
)
def test_statement_grammar_edge_cases(term, value):
    line = f"<http://a.org/s> <http://a.org/p> {term} ."
    m = ntriples._STATEMENT_RE.fullmatch(line)
    assert _groups(m) == _groups(_ORACLE_STATEMENT_RE.fullmatch(line))
    if term.startswith("<"):
        assert _groups(ntriples._SUBJECT_RE.fullmatch(term)) == _groups(
            _ORACLE_SUBJECT_RE.fullmatch(term))
    if value is None:
        assert m is None
        with pytest.raises(NTriplesParseError):
            parse_line(line)
    else:
        assert m.group(3) == term
        assert parse_line(line).object.lexical == value


# Oracle: the statement grammar with greedy runs, escape loops and blanks,
# which save a backtrack point per character. The parser's possessive
# repeats must match the same lines with the same groups, and diagnose a
# rejected line with the same reason at the same byte.
_GREEDY_IRI_RUN = r"[^\x00-\x20<>\"{}|^`\\]*"
_GREEDY_IRI = (r"<" + _GREEDY_IRI_RUN + r"(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
               + _GREEDY_IRI_RUN + r")*>")
_GREEDY_BNODE = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_GREEDY_STRING_RUN = r"[^\"\\\n\r]*"
_GREEDY_STRING_ESCAPE = r"\\(?:[tbnrf\"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_GREEDY_LITERAL = (
    r"\"" + _GREEDY_STRING_RUN + r"(?:" + _GREEDY_STRING_ESCAPE + _GREEDY_STRING_RUN + r")*\""
    r"(?:\^\^" + _GREEDY_IRI + r"|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?"
)
_GREEDY_STATEMENT_RE = re.compile(
    r"[ \t]*(" + _GREEDY_IRI + r"|" + _GREEDY_BNODE + r")"
    r"[ \t]+(" + _GREEDY_IRI + r")"
    r"[ \t]+(" + _GREEDY_IRI + r"|" + _GREEDY_BNODE + r"|" + _GREEDY_LITERAL + r")"
    r"[ \t]*\.[ \t]*(?:#.*)?$"
)
_GREEDY_SUBJECT_RE = re.compile(_GREEDY_IRI + r"|" + _GREEDY_BNODE)
_GREEDY_TERM_PIECES = {
    "<": ("IRI", re.compile(_GREEDY_IRI)),
    "_": ("blank node", re.compile(_GREEDY_BNODE)),
    '"': ("literal", re.compile(_GREEDY_LITERAL)),
}
_GREEDY_SUBJECT_TOKEN_RE = re.compile(
    rb"[ \t]*(" + f"{_GREEDY_IRI}|{_GREEDY_BNODE}".encode("ascii") + rb")[ \t]")

_POSSESSIVE_EDGES = [
    "_:b1 <http://a/p> _:b1.",
    "_:b1. <http://a/p> <http://a/o> .",
    "<http://a/s> <http://a/p> _:a.b .",
    "<http://a/s> <http://a/p> _:a.b.",
    "<http://a/s> <http://a/p> _:a.b..",
    '<http://a/s> <http://a/p> "x"@en-US.',
    '<http://a/s> <http://a/p> "x"@en-US .',
    '<http://a/s> <http://a/p> "x"@en- .',
    '<http://a/s> <http://a/p> "x"@ .',
    "<http://a/\\u00e9> <http://a/\\U0001F600> <http://a/\\u0041\\u0042> .",
    '<http://a/s> <http://a/p> "\\u00e9\\U0001F600\\t" .',
    "<http://a/\\u00e> <http://a/p> <http://a/o> .",
    '<http://a/s> <http://a/p> "\\U0001F60" .',
    '<http://a/s> <http://a/p> "a\\"b" .',
    '<http://a/s> <http://a/p> "a\\"b .',
    '<http://a/s> <http://a/p> "a\\\\"b" .',
    "<> <http://a/p> <http://a/o> .",
    "<http://a/s> <http://a/p> <> .",
    '<http://a/s> <http://a/p> "x"^^<> .',
    '<http://a/s> <http://a/p> "x"^^<http://a/\\u0020> .',
    '\t<http://a/s>\t<http://a/p>\t"x"\t.\t',
    "<http://a/s>\t\t<http://a/p> \t<http://a/o>\t \t.",
    "<http://a/s> <http://a/p> <http://a/o> . # trailing comment",
    "<http://a/s> <http://a/p> <http://a/o> .# c <x> .",
    "<http://a/s> <http://a/p> <http://a/o> . x",
    "<http://a/s> <http://a/p> <http://a/o>",
    "<http://a/s> <http://a/p> <http://a/o .",
    "  # only a comment",
]
# Lines that are not UTF-8 reach only extsort's byte patterns as bytes;
# the str patterns see them decoded with surrogate escapes.
_UNDECODABLE = [
    b"<http://a/\xff> <http://a/p> <http://a/o> .",
    b"_:b\xc3 <http://a/p> \"\xe9\" .",
    b"<http://a/s> <http://a/p> \"caf\xc3\" .",
]


def _possessive_corpus() -> list[bytes]:
    golden = Path(__file__).parent / "data" / "golden.nt"
    rng = SeededRng(27)
    triples = [random_triple(rng) for _ in range(200)]
    triples += conciseness_stream(30, 5, seed=3)[0]
    triples += deref_fixture(6, 4, lambda p, u: "hash-ok" if u % 2 else "404")[0]
    lines = golden.read_bytes().splitlines()
    lines += [serialize_triple(t).encode() for t in triples]
    lines += [line.encode() for line in _POSSESSIVE_EDGES + _grammar_corpus(20261020, 3_000)]
    return lines + _UNDECODABLE


def test_possessive_grammar_matches_greedy_grammar():
    with_diagnosis = 0
    for raw in _possessive_corpus():
        line = raw.decode("utf-8", "surrogateescape")
        want = _GREEDY_STATEMENT_RE.fullmatch(line)
        assert _groups(ntriples._STATEMENT_RE.fullmatch(line)) == _groups(want), line
        for token in line.split():
            assert _groups(ntriples._SUBJECT_RE.fullmatch(token)) == _groups(
                _GREEDY_SUBJECT_RE.fullmatch(token)), token
        assert _groups(extsort._SUBJECT_TOKEN_RE.match(raw)) == _groups(
            _GREEDY_SUBJECT_TOKEN_RE.match(raw)), raw
        if want is None and not ntriples._BLANK_RE.fullmatch(line):
            got = ntriples._diagnose(line)
            with mock.patch.dict(ntriples._TERM_PIECES, _GREEDY_TERM_PIECES):
                oracle = ntriples._diagnose(line)
            assert (got.reason, got.byte_offset) == (oracle.reason, oracle.byte_offset), line
            with_diagnosis += 1
    assert with_diagnosis > 1_000, with_diagnosis
    # extsort's byte-level IRI strips this suffix off the run
    assert ntriples._IRI_RUN.endswith("]*")


def test_long_tokens_parse_and_roundtrip():
    # A 1 MiB literal and a 64 KiB IRI, each with escapes all along.
    long_literal = literal(('say "hi"\n\\ é\t二 ' * 70_000)[: 1 << 20])
    long_iri = iri("http://a.org/" + ("seg/é二{x}" * 8_000)[: 1 << 16])
    t = Triple(long_iri, iri("http://a.org/p"), long_literal)
    line = serialize_triple(t)
    assert len(line) > (1 << 20) + (1 << 16)
    assert parse_line(line) == t
    assert serialize_triple(parse_line(line)) == line
    raw = '<http://a.org/s> <http://a.org/p> "' + "\\u0041b" * 200_000 + '" .'
    assert parse_line(raw).object.lexical == "Ab" * 200_000


@pytest.mark.parametrize(
    "escaped",
    [
        r"abc",
        r"Aß二\U0001F600",
        r"tab\there",
        r"quote \" inside",
        r"back\\slash",
        r"newline\nmix\r\t\f\b",
        r"	end",
    ],
)
def test_escape_decoding_matches_oracle(escaped):
    line = f'<http://a.org/s> <http://a.org/p> "{escaped}" .'
    assert parse_line(line).object.lexical == _oracle_decode(escaped)


def test_surrogate_escape_rejected():
    with pytest.raises(NTriplesParseError):
        parse_line('<http://a/s> <http://a/p> "\\uD800" .')


def test_out_of_range_codepoint_rejected():
    with pytest.raises(NTriplesParseError):
        parse_line('<http://a/s> <http://a/p> "\\U00110000" .')


@pytest.mark.parametrize(
    "bad",
    [
        "<http://a/s> <http://a/p> .",                     # missing object
        "<http://a/s> <http://a/p> <http://a/o>",          # missing dot
        '"lit" <http://a/p> <http://a/o> .',               # literal subject
        "<http://a/s> _:b <http://a/o> .",                 # blank predicate
        "<http://a/s> <http://a/p> <http://a/o> . extra",  # trailing junk
        "<http://a/s <http://a/p> <http://a/o> .",         # unterminated IRI
        '<http://a/s> <http://a/p> "open .',               # unterminated literal
        "just some text",
    ],
)
def test_malformed_lines_raise(bad):
    with pytest.raises(NTriplesParseError):
        parse_line(bad)


def test_parse_error_carries_offset():
    try:
        parse_line('<http://a/s> <http://a/p> "open .')
    except NTriplesParseError as exc:
        assert exc.byte_offset > 0
        assert "literal" in exc.reason
    else:
        pytest.fail("expected a parse error")


def test_serialize_minimal():
    t = Triple(iri("http://a/s"), iri("http://a/p"), iri("http://a/o"))
    assert serialize_triple(t) == "<http://a/s> <http://a/p> <http://a/o> ."


def test_serialize_escapes_quote():
    t = Triple(iri("http://a/s"), iri("http://a/p"), literal('say "hi"'))
    assert '\\"' in serialize_triple(t)
    assert parse_line(serialize_triple(t)) == t


def _random_term(rng: SeededRng, subject_position: bool = False) -> Term:
    roll = rng.uniform_below(3 if not subject_position else 2)
    if roll == 0:
        path = "".join(chr(0x21 + rng.uniform_below(90)) for _ in range(rng.uniform_below(12)))
        path = path.replace(">", "").replace("<", "").replace('"', "")
        return iri(f"http://ex{rng.uniform_below(100)}.org/{path}")
    if roll == 1:
        return blank(f"b{rng.uniform_below(1000)}")
    alphabet = ['"', "\\", "\n", "\r", "\t", "x", "ż", "€", " ", "𝄞", "a", "#"]
    value = "".join(alphabet[rng.uniform_below(len(alphabet))] for _ in range(rng.uniform_below(15)))
    style = rng.uniform_below(3)
    if style == 0:
        return literal(value)
    if style == 1:
        return literal(value, datatype_iri=f"http://dt.org/t{rng.uniform_below(5)}")
    return literal(value, language_tag="en" if rng.uniform_below(2) else "en-GB")


def test_roundtrip_property():
    rng = SeededRng(20260810)
    for _ in range(500):
        t = Triple(
            _random_term(rng, subject_position=True),
            iri(f"http://ex.org/p{rng.uniform_below(50)}"),
            _random_term(rng),
        )
        assert parse_line(serialize_triple(t)) == t


def test_term_invariants():
    with pytest.raises(ValueError):
        Term(TermKind.IRI, "has space")
    with pytest.raises(ValueError):
        Term(TermKind.IRI, "")
    with pytest.raises(ValueError):
        Term(TermKind.IRI, "http://a.org", datatype_iri="http://dt")
    with pytest.raises(ValueError):
        literal("x", datatype_iri="http://dt", language_tag="en")
    with pytest.raises(ValueError):
        Triple(literal("s"), iri("http://p"), literal("o"))
    with pytest.raises(ValueError):
        Triple(iri("http://s"), blank("p"), literal("o"))


def test_reader_empty_file(tmp_path):
    path = tmp_path / "empty.nt"
    path.write_text("")
    reader = NTriplesReader(path)
    assert list(reader) == []
    assert dataclasses.asdict(reader.summary) == {
        "lines_read": 0, "triples_parsed": 0, "parse_errors": 0,
    }


def test_reader_mixed_valid_and_malformed(tmp_path):
    path = tmp_path / "mixed.nt"
    path.write_text(
        "<http://a/s1> <http://a/p> <http://a/o1> .\n"
        "garbage line\n"
        "<http://a/s2> <http://a/p> <http://a/o2> .\n"
        "# comment\n"
        "<http://a/s3> <http://a/p> <http://a/o3> .\n"
    )
    reader = NTriplesReader(path)
    triples = list(reader)
    assert len(triples) == 3
    assert reader.summary.triples_parsed == 3
    assert reader.summary.parse_errors == 1
    assert reader.summary.lines_read == 5
    assert reader.failures[0].line_number == 2


def test_reader_keeps_first_ten_failures():
    # 12 malformed lines, each after a valid one: all are counted, the
    # first ten kept in file order with their line numbers.
    lines = []
    for i in range(12):
        lines.append(f"<http://a/s{i}> <http://a/p> <http://a/o{i}> .\n")
        lines.append(f"broken {i}\n")
    reader = NTriplesReader(io.BytesIO("".join(lines).encode()))
    assert [t.subject.lexical for t in reader] == [f"http://a/s{i}" for i in range(12)]
    assert reader.summary.parse_errors == 12
    assert reader.summary.triples_parsed == 12
    assert reader.failures == [
        ParseFailure(2 * i + 2, 0, "unexpected character 'b' in subject", f"broken {i}")
        for i in range(10)
    ]


def test_reader_invalid_utf8(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_bytes(b"<http://a/s> <http://a/p> <http://a/o> .\n\xff\xfe broken\n")
    reader = NTriplesReader(path)
    assert len(list(reader)) == 1
    assert reader.summary.parse_errors == 1
    assert reader.failures[0].reason == "invalid UTF-8"


def test_reader_accepts_binary_file_object():
    buf = io.BytesIO(b"<http://a/s> <http://a/p> <http://a/o> .\n")
    assert len(list(NTriplesReader(buf))) == 1


def test_reader_io_failure_carries_bytes_consumed():
    from lodprobe import DatasetReadError

    class FlakySource:
        def __init__(self):
            self.calls = 0

        def readline(self):
            self.calls += 1
            if self.calls <= 2:
                return b"<http://a/s> <http://a/p> <http://a/o> .\n"
            raise OSError("disk detached")

    reader = NTriplesReader(FlakySource())
    with pytest.raises(DatasetReadError) as exc_info:
        list(reader)
    assert exc_info.value.bytes_consumed == 2 * 41
    assert reader.summary.triples_parsed == 2


def test_reader_bounded_memory(tmp_path):
    import tracemalloc

    path = tmp_path / "big.nt"
    with open(path, "w") as fh:
        for i in range(200_000):
            fh.write(f'<http://ex.org/s{i % 977}> <http://ex.org/p> "payload {i}" .\n')

    reader = NTriplesReader(path)
    tracemalloc.start()
    count = sum(1 for _ in reader)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert count == 200_000
    # Streaming state only: far below the ~14 MB file size.
    assert peak < 4 * 1024 * 1024


def _read_lines(*lines: str) -> tuple[NTriplesReader, list[Triple]]:
    reader = NTriplesReader(io.BytesIO("".join(f"{line}\n" for line in lines).encode()))
    return reader, list(reader)


def test_reader_shares_repeated_terms():
    _, (t0, t1, t2, t3) = _read_lines(
        "<http://a.org/s> <http://a.org/p> <http://a.org/o> .",
        "<http://a.org/o> <http://a.org/p> _:b1 .",
        '_:b1 <http://a.org/p> "lit" .',
        '_:b1 <http://a.org/p> "lit" .',
    )
    assert t1.subject is t0.object
    assert t1.predicate is t0.predicate and t3.predicate is t0.predicate
    assert t2.subject is t1.object and t3.subject is t1.object
    # Literals are built fresh on every line.
    assert t2.object == t3.object and t2.object is not t3.object


def test_reader_memo_cap_keeps_terms_correct(monkeypatch):
    monkeypatch.setattr(ntriples, "_TERM_MEMO_ENTRIES", 4)
    lines = [
        f"<http://a.org/s{i % 50}> <http://a.org/p{i % 3}> <http://a.org/o{i * 7 % 50}> ."
        for i in range(300)
    ]
    _, triples = _read_lines(*lines)
    expected = [parse_line(line) for line in lines]
    assert triples == expected
    for got, want in zip(triples, expected):
        for position in ("subject", "predicate", "object"):
            assert getattr(got, position).token == getattr(want, position).token


def test_reader_never_memoises_a_failing_token():
    # The escape decodes to a space: the line passes the statement regex
    # but the IRI fails Term validation, and must fail again next time.
    bad = "<http://a/\\u0020b> <http://a/p> <http://a/o> ."
    reader, triples = _read_lines(bad, "<http://a/s> <http://a/p> <http://a/o> .", bad)
    assert len(triples) == 1
    assert reader.summary.parse_errors == 2
    assert [f.line_number for f in reader.failures] == [1, 3]
    assert all(f.reason == "IRI contains whitespace" for f in reader.failures)


def test_reader_escape_spellings_share_one_canonical_token():
    _, (t0, t1) = _read_lines(
        "<http://a.org/\\u0078> <http://a.org/p> <http://a.org/o> .",
        "<http://a.org/x> <http://a.org/p> <http://a.org/o> .",
    )
    assert t0.subject == t1.subject
    assert t0.subject.token == t1.subject.token == "<http://a.org/x>"


def _reader_pass_memory(path) -> tuple[int, int]:
    """(peak, retained) bytes traced over one full pass, above the start."""
    import tracemalloc

    reader = NTriplesReader(path)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in reader:
            pass
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reader.summary.parse_errors == 0
    return peak - before, after - before


def test_reader_memo_memory_envelope(tmp_path):
    # Every subject is a distinct IRI, so the memo fills and clears over
    # and over: the peak of a pass must not grow with the input, and the
    # pass holds nothing once it ends.
    measured = {}
    for n in (20_000, 100_000):
        path = tmp_path / f"distinct-{n}.nt"
        with open(path, "w") as fh:
            for i in range(n):
                fh.write(f"<http://ex.org/s{i:07d}> <http://ex.org/p> <http://ex.org/o{i % 50}> .\n")
        measured[n] = _reader_pass_memory(path)
    (peak_small, kept_small), (peak_large, kept_large) = measured.values()
    assert peak_large - peak_small <= 64 * 1024, measured
    assert kept_small <= 16 * 1024 and kept_large <= 16 * 1024, measured


def test_serialize_term_forms():
    assert serialize_term(iri("http://a/x")) == "<http://a/x>"
    assert serialize_term(blank("b1")) == "_:b1"
    assert serialize_term(literal("v")) == '"v"'
    assert serialize_term(literal("v", language_tag="en")) == '"v"@en'
    assert serialize_term(literal("v", datatype_iri="http://dt")) == '"v"^^<http://dt>'


@pytest.mark.parametrize(
    "spelling, term",
    [
        ("<http://a.org/x>", iri("http://a.org/x")),
        ("_:b1", blank("b1")),
        ('"plain"', literal("plain")),
        ("<http://a.org/\\u0078>", iri("http://a.org/x")),
        ("<http://a.org/caf\\u00E9>", iri("http://a.org/café")),
        ("<http://a.org/\\U0001F600>", iri("http://a.org/\U0001F600")),
        ("<http://a.org/del\x7f>", iri("http://a.org/del\x7f")),
        ('"caf\\u00e9 \\U0001F600"', literal("café \U0001F600")),
        ('"\\t\\b\\n\\r\\f\\"\\\'\\\\"', literal("\t\b\n\r\f\"'\\")),
        ('"\\u0009"', literal("\t")),
        ('"raw\ttab"', literal("raw\ttab")),
        ('"raw\x7fdel"', literal("raw\x7fdel")),
        ('"v"@en-GB', literal("v", language_tag="en-GB")),
        ('"v"^^<http://dt.org/type>', literal("v", datatype_iri="http://dt.org/type")),
        ('"v"^^<http://dt.org/t\\u00FFpe>', literal("v", datatype_iri="http://dt.org/tÿpe")),
        ('"a\\"b"^^<http://dt.org/\\u0074>', literal('a"b', datatype_iri="http://dt.org/t")),
    ],
)
def test_parsed_token_is_canonical(spelling, term):
    """A parsed term carries the canonical form of the term built by hand,
    and equals and hashes like it, whatever escapes spelled it."""
    positions = ("object",) if term.kind is TermKind.LITERAL else ("subject", "object")
    for position in positions:
        line = (f"{spelling} <http://a.org/p> <http://a.org/o> ." if position == "subject"
                else f"<http://a.org/s> <http://a.org/p> {spelling} .")
        parsed = getattr(parse_line(line), position)
        assert type(parsed) is Term
        assert parsed.token == term.token == serialize_term(term)
        assert parsed == term
        assert hash(parsed) == hash(term)
    assert parse_line(f"<http://a.org/s> <http://a.org/p> {spelling} .").predicate.token == (
        "<http://a.org/p>"
    )


# Term spellings with what Term's checked constructor makes of them: the
# fields (kind, lexical, datatype IRI, language tag) and whether the parser
# takes that constructor for the spelling, or the reason both reject it.
I, B, L = TermKind.IRI, TermKind.BLANK_NODE, TermKind.LITERAL
SPELLINGS = [
    ("<http://a.org/x>", (I, "http://a.org/x", None, None), False),
    ("_:b1", (B, "b1", None, None), False),
    ('"plain"', (L, "plain", None, None), False),
    ("<http://a.org/\\u0078>", (I, "http://a.org/x", None, None), True),
    ("<http://a.org/caf\\u00E9>", (I, "http://a.org/café", None, None), True),
    ("<http://a.org/\\U0001F600>", (I, "http://a.org/\U0001F600", None, None), True),
    ("<http://a.org/del\x7f>", (I, "http://a.org/del\x7f", None, None), False),
    ('"caf\\u00e9 \\U0001F600"', (L, "café \U0001F600", None, None), True),
    ('"\\t\\b\\n\\r\\f\\"\\\'\\\\"', (L, "\t\b\n\r\f\"'\\", None, None), True),
    ('"\\u0009"', (L, "\t", None, None), True),
    ('"raw\ttab"', (L, "raw\ttab", None, None), True),
    ('"raw\x7fdel"', (L, "raw\x7fdel", None, None), True),
    ('"v"@en-GB', (L, "v", None, "en-GB"), False),
    ('"v"^^<http://dt.org/type>', (L, "v", "http://dt.org/type", None), False),
    ('"v"^^<http://dt.org/t\\u00FFpe>', (L, "v", "http://dt.org/tÿpe", None), True),
    ('"a\\"b"^^<http://dt.org/\\u0074>', (L, 'a"b', "http://dt.org/t", None), True),
    ("<http://a.org/café>", (I, "http://a.org/café", None, None), False),
    ('"café ü"', (L, "café ü", None, None), False),
    ('"v"^^<http://dt.org/café>', (L, "v", "http://dt.org/café", None), False),
    ("_:b.x", (B, "b.x", None, None), False),
    ("<>", "empty iri term", None),
    ('"x"^^<>', "empty datatype IRI", None),
    ("<http://a.org/\\uD800>", "escape \\uD800 is not a scalar value", None),
    ('"\\uD800"', "escape \\uD800 is not a scalar value", None),
    ("<http://a.org/a\\u0020b>", "IRI contains whitespace", None),
    ('"x"^^<http://dt.org/a\\u0020b>', "datatype IRI contains whitespace", None),
    ("<http://a.org/raw\ttab>", "malformed IRI in", None),
]


def _checked_term_from_token(token: str) -> Term:
    """The parser's term for a token, always through Term's constructor."""
    decode = ntriples._decode_escapes
    if token[0] == "<":
        return Term(TermKind.IRI, decode(token[1:-1]))
    if token[0] == "_":
        return Term(TermKind.BLANK_NODE, token[2:])
    end = token.rindex('"')
    value, suffix = decode(token[1:end]), token[end + 1 :]
    if suffix.startswith("^^"):
        return Term(TermKind.LITERAL, value, decode(suffix[3:-1]))
    return Term(TermKind.LITERAL, value, None, suffix[1:] or None)


def _outcome(line: str):
    try:
        return parse_line(line)
    except NTriplesParseError as exc:
        return exc.reason, exc.byte_offset


@pytest.mark.parametrize("spelling, expected, checked", SPELLINGS)
def test_direct_terms_equal_checked_terms(spelling, expected, checked, monkeypatch):
    """The parser builds a term directly only where Term's checked
    constructor would build the same five fields; other spellings take that
    constructor once, and a spelling one path rejects the other rejects
    with the same reason at the same byte."""
    lines = [f"<http://a.org/s> <http://a.org/p> {spelling} ."]
    if spelling[0] != '"':
        lines.append(f"{spelling} <http://a.org/p> <http://a.org/o> .")
    init, constructed = Term.__init__, []
    monkeypatch.setattr(
        Term, "__init__", lambda self, *a, **k: constructed.append(a) or init(self, *a, **k))
    direct = [_outcome(line) for line in lines]
    calls = len(constructed)
    monkeypatch.setattr(ntriples, "_term_from_token", _checked_term_from_token)
    via_constructor = [_outcome(line) for line in lines]
    for line, got, want in zip(lines, direct, via_constructor):
        if isinstance(expected, str):
            assert got == want, line
            assert got[0].startswith(expected), line
            assert got[1] == (0 if line.startswith(spelling) else 34), line
            continue
        term = got.object if line.endswith(f"{spelling} .") else got.subject
        by_hand = Term(*expected)
        assert type(term) is Term and type(by_hand) is Term
        for field in Term._fields:
            assert getattr(term, field) == getattr(by_hand, field), (line, field)
        assert term == by_hand and hash(term) == hash(by_hand)
        assert got == want
    if not isinstance(expected, str):
        assert calls == (len(lines) if checked else 0)


# Rejected lines of each shape the benchmark plants in its dirty dump: the
# reason names the first piece of the statement that fails, and the byte
# offset is where that piece starts.
REJECTED = [
    (b'<http://bad.example/a> <http://bad.example/p> "unterminated .',
     46, "malformed literal in object"),
    (b"<http://bad.example/a> <http://bad.example/p> <http://bad.example/o>",
     68, "missing statement terminator '.'"),
    (b'"literal" <http://bad.example/p> <http://bad.example/o> .',
     0, "literal not allowed as subject"),
    (b'<http://bad.example/a> <http://bad.example/p> "lone \\uD800 surrogate" .',
     46, "escape \\uD800 is not a scalar value"),
    (b'<http://bad.example/a b> <http://bad.example/p> "x" .',
     0, "malformed IRI in subject"),
    (b'<http://bad.example/\xff> <http://bad.example/p> "invalid utf-8" .',
     0, "invalid UTF-8"),
    (b'<http://bad.example/a> <http://bad.example/p> "x"@ .',
     46, "malformed literal in object"),
    (b"<http://bad.example/a> <http://bad.example/p> <http://bad.example/o> . junk",
     71, "unexpected character 'j' after '.'"),
    (b'<http://bad.example/a> <http://bad.example/p> "bad \\q escape" .',
     46, "malformed literal in object"),
    (b'<http://bad.example/a\\u0020b> <http://bad.example/p> "x" .',
     0, "IRI contains whitespace"),
    # pieces the shapes above leave out; offsets count bytes, not characters
    ("<http://a/é> <http://a/p> .".encode(), 27, "unexpected character '.' in object"),
    (b"<http://a/s> <http://a/p>", 25, "missing object"),
    (b"<http://a/s> _:p <http://a/o> .", 13, "blank node not allowed as predicate"),
    (b'<http://a/s> "p" <http://a/o> .', 13, "literal not allowed as predicate"),
    (b"_:b. <http://a/p> <http://a/o> .", 0, "malformed blank node in subject"),
    (b"<http://a/s> <> <http://a/o> .", 13, "empty iri term"),
    (b"<http://a/s> <http://a/p> <http://a/o> # c", 39, "missing statement terminator '.'"),
    # a literal's datatype IRI is checked as an IRI term is, at the literal
    (b'<http://a/s> <http://a/p> "x"^^<http://a/d\\u0020t> .', 26,
     "datatype IRI contains whitespace"),
    (b'<http://a/s> <http://a/p> "x"^^<> .', 26, "empty datatype IRI"),
    ('<http://a/é> <http://a/p> "x"^^<> .'.encode(), 27, "empty datatype IRI"),
]


@pytest.mark.parametrize("raw, byte_offset, reason", REJECTED)
def test_rejected_line_names_failing_piece(raw, byte_offset, reason):
    reader = NTriplesReader(io.BytesIO(raw + b"\n"))
    assert list(reader) == []
    [failure] = reader.failures
    assert (failure.reason, failure.byte_offset) == (reason, byte_offset)


def test_single_byte_edits_are_judged_by_the_statement_regex():
    """Every one-character deletion or insertion in a valid statement is
    accepted exactly when the statement regex (or the blank-line rule)
    accepts it, and a rejection points inside the line."""
    statements = [
        '<http://a.org/s> <http://a.org/p> "x\\ty é"@en-GB .',
        '_:b1 <http://a.org/p> "v"^^<http://a.org/t> . # note',
        "\t<http://a.org/s>  <http://a.org/p>\t_:o.1 .",
    ]
    inserts = ' \t.<>"\\_:@^#-xu'
    rejected = 0
    for statement in statements:
        edits = {statement[:i] + statement[i + 1 :] for i in range(len(statement))}
        edits |= {statement[:i] + c + statement[i:]
                  for i in range(len(statement) + 1) for c in inserts}
        for line in sorted(edits):
            accepted = bool(ntriples._STATEMENT_RE.fullmatch(line)
                            or ntriples._BLANK_RE.fullmatch(line))
            try:
                parse_line(line)
            except NTriplesParseError as exc:
                assert not accepted, line
                assert 0 <= exc.byte_offset <= len(line.encode()), line
                assert exc.reason != "malformed term"
                rejected += 1
            else:
                assert accepted, line
    assert rejected > 500, rejected
