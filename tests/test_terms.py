"""The term and statement model's contract: checks, immutability, equality."""

import dataclasses
from pathlib import Path

import pytest

from lodprobe import NTriplesReader, Term, TermKind, Triple, blank, iri, literal

GOLDEN = Path(__file__).parent / "data" / "golden.nt"

S, P, O = iri("http://a.org/s"), iri("http://a.org/p"), literal("o")
GOOD = Triple(S, P, O)

# (subject, predicate) pairs that break a role, with the reason each gives
BAD_ROLES = [
    ((literal("s"), P), "subject cannot be a literal"),
    ((S, blank("p")), "predicate must be an IRI"),
    ((S, literal("p")), "predicate must be an IRI"),
]


class TestTriple:
    @pytest.mark.parametrize("roles, reason", BAD_ROLES)
    def test_constructor_checks_roles(self, roles, reason):
        with pytest.raises(ValueError, match=reason):
            Triple(*roles, O)
        with pytest.raises(ValueError, match=reason):
            Triple(subject=roles[0], predicate=roles[1], object=O)

    @pytest.mark.parametrize("roles, reason", BAD_ROLES)
    def test_make_checks_roles(self, roles, reason):
        with pytest.raises(ValueError, match=reason):
            Triple._make([*roles, O])
        with pytest.raises(ValueError, match=reason):
            Triple._make(iter((*roles, O)))

    @pytest.mark.parametrize("roles, reason", BAD_ROLES)
    def test_replace_checks_roles(self, roles, reason):
        with pytest.raises(ValueError, match=reason):
            GOOD._replace(subject=roles[0], predicate=roles[1])

    def test_make_and_replace_build_valid_triples(self):
        assert Triple._make([S, P, O]) == GOOD
        replaced = GOOD._replace(object=blank("b"))
        assert type(replaced) is Triple
        assert replaced == Triple(S, P, blank("b"))

    def test_assignment_raises(self):
        with pytest.raises(AttributeError):
            GOOD.subject = iri("http://a.org/other")
        with pytest.raises(AttributeError):
            GOOD.extra = 1

    def test_unpacks_in_order(self):
        s, p, o = GOOD
        assert (s, p, o) == (GOOD.subject, GOOD.predicate, GOOD.object) == (S, P, O)
        assert GOOD[0] is S and GOOD[1] is P and GOOD[2] is O

    def test_parsed_triples_equal_and_hash_like_hand_built(self):
        def rebuilt(term: Term) -> Term:
            return Term(term.kind, term.lexical, term.datatype_iri, term.language_tag)

        parsed = list(NTriplesReader(GOLDEN))
        assert len(parsed) > 20
        for t in parsed:
            by_hand = Triple(rebuilt(t.subject), rebuilt(t.predicate), rebuilt(t.object))
            assert type(t) is Triple
            assert t == by_hand
            assert hash(t) == hash(by_hand)


class TestTerm:
    def test_assignment_raises_frozen_instance_error(self):
        term = iri("http://a.org/x")
        for field in ("kind", "lexical", "datatype_iri", "language_tag", "token"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(term, field, None)

    def test_token_takes_no_part_in_eq_hash_or_repr(self):
        with_token = Term(TermKind.IRI, "http://a.org/x", token="<http://a.org/x>")
        without = Term(TermKind.IRI, "http://a.org/x")
        assert with_token == without
        assert hash(with_token) == hash(without)
        assert repr(with_token) == repr(without)
        assert "token" not in repr(with_token)
        assert with_token.token == "<http://a.org/x>" and without.token is None

    def test_positional_and_keyword_construction(self):
        by_position = Term(TermKind.LITERAL, "v", "http://dt.org/t", None, '"v"^^<http://dt.org/t>')
        by_keyword = Term(
            kind=TermKind.LITERAL, lexical="v", datatype_iri="http://dt.org/t",
            token='"v"^^<http://dt.org/t>',
        )
        for term in (by_position, by_keyword):
            assert (term.kind, term.lexical, term.datatype_iri, term.language_tag, term.token) == (
                TermKind.LITERAL, "v", "http://dt.org/t", None, '"v"^^<http://dt.org/t>')
        assert by_position == by_keyword == literal("v", datatype_iri="http://dt.org/t")
        assert Term(TermKind.LITERAL, "v", language_tag="en") == literal("v", language_tag="en")
        with pytest.raises(TypeError):
            Term(TermKind.IRI)
        with pytest.raises(TypeError):
            Term(TermKind.IRI, "http://a.org/x", None, None, None, None)

    def test_dataclass_helpers_still_apply(self):
        term = literal("v", language_tag="en")
        assert dataclasses.replace(term, lexical="w") == literal("w", language_tag="en")
        assert [f.name for f in dataclasses.fields(Term)] == [
            "kind", "lexical", "datatype_iri", "language_tag", "token"]
        with pytest.raises(ValueError):
            dataclasses.replace(term, datatype_iri="http://dt.org/t")

    def test_constructor_is_defined_on_the_class(self):
        # the benchmark's tracer counts Term constructions by wrapping it
        assert "__init__" in vars(Term)

    @pytest.mark.parametrize(
        "build, reason",
        [
            (lambda: Term(TermKind.IRI, "has space"), "IRI contains whitespace"),
            (lambda: Term(TermKind.IRI, ""), "empty iri term"),
            (lambda: Term(TermKind.BLANK_NODE, ""), "empty blank-node term"),
            (lambda: Term(TermKind.IRI, "http://a.org", "http://dt"), "only allowed on literals"),
            (lambda: Term(TermKind.BLANK_NODE, "b", None, "en"), "only allowed on literals"),
            (lambda: literal("x", "http://dt", "en"), "both datatype and language tag"),
            (lambda: literal("x", datatype_iri=""), "empty datatype IRI"),
            (lambda: literal("x", datatype_iri="http://a/d t"), "datatype IRI contains whitespace"),
            (lambda: literal("x", datatype_iri="http://a/d\tt"), "datatype IRI contains whitespace"),
        ],
    )
    def test_checks(self, build, reason):
        with pytest.raises(ValueError, match=reason):
            build()
