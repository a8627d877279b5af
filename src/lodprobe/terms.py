"""RDF term and statement model shared by the parser and all metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

_WHITESPACE = set(" \t\n\r\f\v")


class TermKind(Enum):
    IRI = "iri"
    BLANK_NODE = "blank-node"
    LITERAL = "literal"


@dataclass(frozen=True, slots=True)
class Term:
    """One subject/predicate/object symbol.

    `lexical` holds the decoded form: the IRI string, the blank node label
    (without the `_:` prefix), or the literal value. `datatype_iri` and
    `language_tag` apply to literals only and are mutually exclusive.
    `token` is the canonical N-Triples form the parser kept, or None; it
    takes no part in equality or hashing.
    """

    kind: TermKind
    lexical: str
    datatype_iri: str | None = None
    language_tag: str | None = None
    token: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind is not TermKind.LITERAL:
            if self.datatype_iri is not None or self.language_tag is not None:
                raise ValueError("datatype/language only allowed on literals")
            if not self.lexical:
                raise ValueError(f"empty {self.kind.value} term")
            if self.kind is TermKind.IRI and not _WHITESPACE.isdisjoint(self.lexical):
                raise ValueError("IRI contains whitespace")
        elif self.datatype_iri is not None and self.language_tag is not None:
            raise ValueError("literal cannot carry both datatype and language tag")


def iri(value: str) -> Term:
    return Term(TermKind.IRI, value)


def blank(label: str) -> Term:
    return Term(TermKind.BLANK_NODE, label)


def literal(value: str, datatype_iri: str | None = None, language_tag: str | None = None) -> Term:
    return Term(TermKind.LITERAL, value, datatype_iri, language_tag)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.kind is TermKind.LITERAL:
            raise ValueError("subject cannot be a literal")
        if self.predicate.kind is not TermKind.IRI:
            raise ValueError("predicate must be an IRI")
