"""RDF term and statement model shared by the parser and all metrics."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

_WHITESPACE = set(" \t\n\r\f\v")
# Term is frozen; its constructor sets each slot through object's setter.
_setattr = object.__setattr__


class TermKind(Enum):
    IRI = "iri"
    BLANK_NODE = "blank-node"
    LITERAL = "literal"


# Each `TermKind.X` lookup goes through the enum's member descriptor (about
# 0.1 µs on CPython 3.11), so code that runs per term compares with these.
IRI, BLANK_NODE, LITERAL = TermKind


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """One subject/predicate/object symbol.

    `lexical` holds the decoded form: the IRI string, the blank node label
    (without the `_:` prefix), or the literal value. `datatype_iri` and
    `language_tag` apply to literals only and are mutually exclusive; a
    datatype IRI passes the same checks as an IRI term. `token` is the
    canonical N-Triples form the parser kept, or None; it takes no part in
    equality or hashing.
    """

    kind: TermKind
    lexical: str
    datatype_iri: str | None = None
    language_tag: str | None = None
    token: str | None = field(default=None, compare=False, repr=False)

    # Written out, not generated: the parser builds one Term per new token,
    # and the generated __init__ plus a __post_init__ call cost about half
    # as much again.
    def __init__(
        self,
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
            if kind is IRI and not _WHITESPACE.isdisjoint(lexical):
                raise ValueError("IRI contains whitespace")
        elif datatype_iri is not None:
            if language_tag is not None:
                raise ValueError("literal cannot carry both datatype and language tag")
            if not datatype_iri:
                raise ValueError("empty datatype IRI")
            if not _WHITESPACE.isdisjoint(datatype_iri):
                raise ValueError("datatype IRI contains whitespace")
        _setattr(self, "kind", kind)
        _setattr(self, "lexical", lexical)
        _setattr(self, "datatype_iri", datatype_iri)
        _setattr(self, "language_tag", language_tag)
        _setattr(self, "token", token)


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
