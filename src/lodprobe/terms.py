"""RDF term and statement model shared by the parser and all metrics."""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum

_WHITESPACE = set(" \t\n\r\f\v")


class TermKind(Enum):
    IRI = "iri"
    BLANK_NODE = "blank-node"
    LITERAL = "literal"


# Each `TermKind.X` lookup goes through the enum's member descriptor (about
# 0.1 µs on CPython 3.11), so code that runs per term compares with these.
IRI, BLANK_NODE, LITERAL = TermKind

_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_LITERAL_ESCAPE = re.compile(r'[\x00-\x1f"\\\x7f]')
_IRI_FORBIDDEN = set('<>"{}|^`\\') | {chr(c) for c in range(0x21)}


def _escape_literal(value: str) -> str:
    if _NEEDS_LITERAL_ESCAPE.search(value) is None:
        return value
    out = []
    for ch in value:
        esc = _LITERAL_ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _escape_iri(value: str) -> str:
    if _IRI_FORBIDDEN.isdisjoint(value):
        return value
    return "".join(f"\\u{ord(c):04X}" if c in _IRI_FORBIDDEN else c for c in value)


class Term(namedtuple("Term", ("kind", "lexical", "datatype_iri", "language_tag", "token"))):
    """One subject/predicate/object symbol: an immutable tuple.

    `lexical` holds the decoded form: the IRI string, the blank node label
    (without the `_:` prefix), or the literal value. `datatype_iri` and
    `language_tag` apply to literals only and are mutually exclusive; a
    datatype IRI passes the same checks as an IRI term. `token` is always
    the term's canonical N-Triples form, a function of the other four
    fields, so tuple equality and hashing compare terms by value.

    Every public way to build one checks the fields and computes the token;
    a `token=` that is not the canonical form raises ValueError. The parser
    alone builds a term through `tuple.__new__` where its grammar already
    guarantees the checks and the token is canonical as written.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: TermKind,
        lexical: str,
        datatype_iri: str | None = None,
        language_tag: str | None = None,
        token: str | None = None,
    ):
        if kind is not LITERAL:
            if datatype_iri is not None or language_tag is not None:
                raise ValueError("datatype/language only allowed on literals")
            if not lexical:
                raise ValueError(f"empty {kind.value} term")
            if kind is IRI:
                if not _WHITESPACE.isdisjoint(lexical):
                    raise ValueError("IRI contains whitespace")
                canonical = f"<{_escape_iri(lexical)}>"
            else:
                canonical = f"_:{lexical}"
        else:
            canonical = f'"{_escape_literal(lexical)}"'
            if datatype_iri is not None:
                if language_tag is not None:
                    raise ValueError("literal cannot carry both datatype and language tag")
                if not datatype_iri:
                    raise ValueError("empty datatype IRI")
                if not _WHITESPACE.isdisjoint(datatype_iri):
                    raise ValueError("datatype IRI contains whitespace")
                canonical = f"{canonical}^^<{_escape_iri(datatype_iri)}>"
            elif language_tag is not None:
                canonical = f"{canonical}@{language_tag}"
        if token is not None and token != canonical:
            raise ValueError(f"token {token!r} is not the canonical form {canonical!r}")
        return tuple.__new__(cls, (kind, lexical, datatype_iri, language_tag, canonical))

    # __new__ does all the work. This is written out so that the constructor
    # can be wrapped from outside: object.__init__ rejects the arguments once
    # a class defines its own __init__.
    def __init__(
        self,
        kind: TermKind,
        lexical: str,
        datatype_iri: str | None = None,
        language_tag: str | None = None,
        token: str | None = None,
    ):
        pass

    @classmethod
    def _make(cls, iterable) -> Term:
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)

    def _replace(self, **changes) -> Term:
        # the old token describes the old fields: recompute it unless given
        changes.setdefault("token", None)
        return super()._replace(**changes)


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK_NODE, label)


def literal(value: str, datatype_iri: str | None = None, language_tag: str | None = None) -> Term:
    return Term(LITERAL, value, datatype_iri, language_tag)


class Triple(namedtuple("Triple", ("subject", "predicate", "object"))):
    """One statement: an immutable (subject, predicate, object) tuple.

    Every way to build one checks that the subject is not a literal and the
    predicate is an IRI. The parser alone skips the checks, through
    `tuple.__new__`, because its grammar already guarantees both.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term):
        if subject.kind is LITERAL:
            raise ValueError("subject cannot be a literal")
        if predicate.kind is not IRI:
            raise ValueError("predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))

    @classmethod
    def _make(cls, iterable) -> Triple:
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)
