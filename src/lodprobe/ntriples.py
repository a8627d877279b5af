"""Streaming N-Triples reader and writer.

The parser is line-oriented: one statement per physical line, UTF-8 text,
`\\n` or `\\r\\n` endings. A compiled statement regex handles well-formed
lines in one pass; only a line it rejects, or one whose terms fail their
checks, is walked again through the regex's pieces to find the first piece
that fails and where it starts. Malformed lines never abort a stream; the
reader records them and moves on, because real-world dumps are dirty and a
quality assessor has to survive them.

Within one reader pass a repeated IRI or blank-node token yields one
shared `Term`: the pass keeps a bounded token-to-Term memo, cleared when
full and released with the pass. Literals are parsed each time, since
they rarely repeat.

The same pieces tell `extsort` the subject of a raw line and its canonical
bytes (`line_subject`, and `PLAIN_SUBJECT_TOKEN_RE` for the common case).
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from .terms import BLANK_NODE, IRI, LITERAL, Term, Triple

# Statement grammar pieces. IRIs may contain \uXXXX/\UXXXXXXXX escapes;
# literals additionally take the single-character ECHAR escapes.
#
# Each body is written "unrolled", normal*(?:escape normal*)*: a run of
# plain characters is one repeated character class, which `re` scans in a
# single C loop, and only a backslash leaves it. The plain class excludes
# the backslash and every escape starts with one, so this matches exactly
# the language of (?:plain|escape)* with the same groups. Do not fold it
# back into a per-character alternation: `re` then runs its generic repeat
# on every character, and the statement match costs about three times as
# much.
#
# The runs, escape loops and blanks are possessive (`*+`, `++`): each is
# followed by a character its class excludes, so giving a character back
# can never lead to a match, and a possessive repeat matches the same text
# without saving a backtrack point per character. A blank-node label stays
# greedy, since it may not end in '.' and its run must be able to give a
# final '.' back; so does the language tag, a few characters long.
_IRI_EXCLUDED = r"\x00-\x20<>\"{}|^`\\"  # the one IRI character class, negated
_IRI_RUN = "[^" + _IRI_EXCLUDED + "]*"
_IRI_ESCAPE = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_IRI = r"<" + _IRI_RUN + r"+(?:" + _IRI_ESCAPE + _IRI_RUN + r"+)*+>"
_BNODE = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_STRING_RUN = r"[^\"\\\n\r]*+"
_STRING_ESCAPE = r"\\(?:[tbnrf\"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_LITERAL = (
    r"\"" + _STRING_RUN + r"(?:" + _STRING_ESCAPE + _STRING_RUN + r")*+\""
    r"(?:\^\^" + _IRI + r"|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?"
)

_STATEMENT_RE = re.compile(
    r"[ \t]*+(" + _IRI + r"|" + _BNODE + r")"
    r"[ \t]++(" + _IRI + r")"
    r"[ \t]++(" + _IRI + r"|" + _BNODE + r"|" + _LITERAL + r")"
    r"[ \t]*+\.[ \t]*+(?:#.*+)?$"
)
_BLANK_RE = re.compile(r"[ \t]*(?:#.*)?$")
# The subject piece over a raw line's bytes: those of a UTF-8 encoded
# non-ASCII character are above the IRI's excluded range, as it is. The
# first takes any subject after leading blanks; the second, at the line's
# start, one canonical as written (an ASCII IRI without escapes, or a blank
# node). Each takes the blank or tab that must follow.
_SUBJECT_TOKEN_RE = re.compile(rb"[ \t]*(" + f"{_IRI}|{_BNODE}".encode("ascii") + rb")[ \t]")
PLAIN_SUBJECT_TOKEN_RE = re.compile(
    f"(<[^{_IRI_EXCLUDED}\\x80-\\xff]+>|{_BNODE})[ \t]".encode("ascii"))
# The same pieces, one at a time, for _diagnose: each term kind is told by
# its first character, and each role names the kinds it takes and the
# characters that may follow its token ("" is the end of the line).
_SPACE_RE = re.compile(r"[ \t]*")
_TERM_PIECES = {
    "<": ("IRI", re.compile(_IRI)),
    "_": ("blank node", re.compile(_BNODE)),
    '"': ("literal", re.compile(_LITERAL)),
}
_ROLES = (
    ("subject", ("IRI", "blank node"), " \t"),
    ("predicate", ("IRI",), " \t"),
    ("object", ("IRI", "blank node", "literal"), " \t."),
)
# A literal token is canonical as written unless it holds an escape or a
# character that the canonical form escapes.
_NON_CANONICAL_RE = re.compile(r"[\\\x00-\x1f\x7f]")
_ESCAPE_RE = re.compile(_STRING_ESCAPE)
_ECHAR_TABLE = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\",
}


class NTriplesParseError(ValueError):
    """A single malformed line; carries the byte offset of the problem."""

    def __init__(self, reason: str, byte_offset: int = 0):
        super().__init__(f"{reason} (byte {byte_offset})")
        self.reason = reason
        self.byte_offset = byte_offset


class DatasetReadError(OSError):
    """I/O failure while streaming; `bytes_consumed` tells how far we got."""

    def __init__(self, cause: Exception, bytes_consumed: int):
        super().__init__(f"read failed after {bytes_consumed} bytes: {cause}")
        self.bytes_consumed = bytes_consumed


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """Recorded malformed line: where it was and why it was dropped."""

    line_number: int
    byte_offset: int
    reason: str
    line: str


@dataclass
class StreamSummary:
    lines_read: int = 0
    triples_parsed: int = 0
    parse_errors: int = 0


def _decode_escapes(raw: str) -> str:
    # The statement regex guarantees every backslash starts a valid escape,
    # a numeric one in IRIs, so only numeric escapes need a range check.
    if "\\" not in raw:
        return raw

    def repl(m: re.Match) -> str:
        esc = m.group(0)
        tag = esc[1]
        if tag in ("u", "U"):
            cp = int(esc[2:], 16)
            if 0xD800 <= cp <= 0xDFFF or cp > 0x10FFFF:
                raise ValueError(f"escape \\{tag}{esc[2:]} is not a scalar value")
            return chr(cp)
        return _ECHAR_TABLE[tag]

    return _ESCAPE_RE.sub(repl, raw)


# Builds a Term or Triple without its constructor's checks, for tokens whose
# grammar already guarantees them.
_new_tuple = tuple.__new__


def _term_from_token(token: str) -> Term:
    # A token that the grammar matched and that needs no decoding is the
    # term's canonical form as written, and passes every check Term makes,
    # so it becomes the term's tuple directly. Any other token takes Term's
    # checked constructor once, which computes the canonical token.
    first = token[0]
    if first == "<":
        if "\\" not in token and token != "<>":
            return _new_tuple(Term, (IRI, token[1:-1], None, None, token))
        return Term(IRI, _decode_escapes(token[1:-1]))
    if first == "_":
        return _new_tuple(Term, (BLANK_NODE, token[2:], None, None, token))
    # literal, optionally suffixed with ^^<datatype> or @lang; neither
    # suffix can hold a quote, so the last quote closes the value
    end = token.rindex('"')
    suffix = token[end + 1 :]
    if _NON_CANONICAL_RE.search(token) is None and suffix != "^^<>":
        value = token[1:end]
        if not suffix:
            return _new_tuple(Term, (LITERAL, value, None, None, token))
        if suffix[0] == "@":
            return _new_tuple(Term, (LITERAL, value, None, suffix[1:], token))
        return _new_tuple(Term, (LITERAL, value, suffix[3:-1], None, token))
    value = _decode_escapes(token[1:end])
    if suffix.startswith("^^"):
        return Term(LITERAL, value, _decode_escapes(suffix[3:-1]))
    if suffix.startswith("@"):
        return Term(LITERAL, value, None, suffix[1:])
    return Term(LITERAL, value)


def line_subject(line: bytes) -> bytes | None:
    """The canonical token, UTF-8 encoded, of the subject that raw line
    `line` starts with; None where the parser would not take one. That is
    the grammar's IRI or blank-node piece after leading blanks, then a
    blank or tab, then the parser's term checks."""
    m = _SUBJECT_TOKEN_RE.match(line)
    if m is None:
        return None
    try:
        return _term_from_token(m[1].decode("utf-8")).token.encode("utf-8")
    except ValueError:  # UnicodeDecodeError included
        return None


# Memo entries per reader pass; repeats cluster within a few thousand lines,
# so clearing a full memo loses almost nothing against an LRU.
_TERM_MEMO_ENTRIES = 4096


def _remember(token: str, terms: dict[str, Term]) -> Term:
    term = _term_from_token(token)  # a token that raises is never stored
    if len(terms) >= _TERM_MEMO_ENTRIES:
        terms.clear()
    terms[token] = term
    return term


def parse_line(line: str, terms: dict[str, Term] | None = None) -> Triple | None:
    """Parse one physical line; None for blank and comment lines.

    `terms` memoises IRI and blank-node tokens to their Term across calls
    that share it. Raises NTriplesParseError for anything else that is not
    a statement.
    """
    line = line.rstrip("\r\n")
    m = _STATEMENT_RE.fullmatch(line)
    if m is None:
        if _BLANK_RE.fullmatch(line):
            return None
        raise _diagnose(line)
    s, p, o = m.groups()
    if terms is None:
        terms = {}
    try:
        # The grammar admits only an IRI or blank node as subject and an IRI
        # as predicate, so Triple's own checks are skipped.
        return _new_tuple(Triple, (
            terms.get(s) or _remember(s, terms),
            terms.get(p) or _remember(p, terms),
            _term_from_token(o) if o[0] == '"' else terms.get(o) or _remember(o, terms),
        ))
    except ValueError:  # a term check: the walk finds which token and why
        raise _diagnose(line) from None


def _diagnose(line: str) -> NTriplesParseError:
    """Walk a line that is not a statement through the statement's pieces.

    The reason names the first piece that fails, at the byte where that
    piece starts: a term whose pattern or check fails, or the terminator.
    Text after the terminator that is not a comment is reported at its
    first character.
    """
    pos = _SPACE_RE.match(line).end()
    for role, kinds, follow in _ROLES:
        if pos == len(line):
            return _error(line, pos, f"missing {role}")
        if line[pos] not in _TERM_PIECES:
            return _error(line, pos, f"unexpected character {line[pos]!r} in {role}")
        kind, piece = _TERM_PIECES[line[pos]]
        if kind not in kinds:
            return _error(line, pos, f"{kind} not allowed as {role}")
        m = piece.match(line, pos)
        # a token the grammar ends early, as in `"x"@ .`, is malformed too
        if m is None or line[m.end() : m.end() + 1] not in follow:
            return _error(line, pos, f"malformed {kind} in {role}")
        try:
            _term_from_token(m.group())
        except ValueError as exc:
            return _error(line, pos, str(exc))
        pos = _SPACE_RE.match(line, m.end()).end()
    if line[pos : pos + 1] != ".":
        return _error(line, pos, "missing statement terminator '.'")
    # only a comment may follow the '.', so what is left is not one
    pos = _SPACE_RE.match(line, pos + 1).end()
    return _error(line, pos, f"unexpected character {line[pos : pos + 1]!r} after '.'")


def _error(line: str, pos: int, reason: str) -> NTriplesParseError:
    return NTriplesParseError(reason, len(line[:pos].encode("utf-8")))


_KEPT_FAILURES = 10  # failures kept with their line; all of them are counted


class NTriplesReader:
    """One pass over a path or a binary file object, in constant memory.

    Iterating yields Triples in file order. Malformed lines are skipped,
    counted in `summary`, and the first ten of them kept in `failures`
    with line numbers and byte offsets. Within a pass, a repeated IRI or
    blank-node token yields the same Term object; literals are built
    fresh. The memo behind that is bounded and dropped when the pass ends.
    """

    def __init__(self, source: str | Path | BinaryIO):
        self._source = source
        self.summary = StreamSummary()
        self.failures: list[ParseFailure] = []
        self.bytes_consumed = 0

    def __iter__(self) -> Iterator[Triple]:
        src, summary = self._source, self.summary
        terms: dict[str, Term] = {}
        with open(src, "rb") if isinstance(src, (str, Path)) else nullcontext(src) as fh:
            while True:
                try:
                    raw = fh.readline()
                except OSError as exc:
                    raise DatasetReadError(exc, self.bytes_consumed) from exc
                if not raw:
                    return
                self.bytes_consumed += len(raw)
                summary.lines_read += 1
                try:
                    line = raw.decode("utf-8")
                    triple = parse_line(line, terms)
                except UnicodeDecodeError:
                    self._record(0, "invalid UTF-8", "<undecodable line>")
                except NTriplesParseError as exc:
                    self._record(exc.byte_offset, exc.reason, line)
                else:
                    if triple is not None:
                        summary.triples_parsed += 1
                        yield triple

    def _record(self, byte_offset: int, reason: str, line: str) -> None:
        self.summary.parse_errors += 1
        if len(self.failures) < _KEPT_FAILURES:
            self.failures.append(ParseFailure(
                self.summary.lines_read, byte_offset, reason, line.rstrip("\r\n")[:200]
            ))


def serialize_term(term: Term) -> str:
    """Canonical N-Triples form of a term: its token."""
    return term.token
