"""The term and statement model's contract: checks, immutability, equality."""

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
    def test_assignment_raises_attribute_error(self):
        term = iri("http://a.org/x")
        for field in ("kind", "lexical", "datatype_iri", "language_tag", "token"):
            with pytest.raises(AttributeError):
                setattr(term, field, None)
        with pytest.raises(AttributeError):
            term.extra = 1

    def test_token_is_canonical_so_eq_and_hash_agree(self):
        with_token = Term(TermKind.IRI, "http://a.org/x", token="<http://a.org/x>")
        without = Term(TermKind.IRI, "http://a.org/x")
        assert with_token.token == without.token == "<http://a.org/x>"
        assert with_token == without
        assert hash(with_token) == hash(without)
        assert repr(with_token) == repr(without)
        # the token is a function of the other four fields, so terms that
        # differ in any of them differ in it too
        terms = [iri("http://a.org/x"), blank("http://a.org/x"), literal("http://a.org/x"),
                 literal("http://a.org/x", language_tag="en"),
                 literal("http://a.org/x", datatype_iri="http://a.org/x")]
        assert len({t.token for t in terms}) == len(terms)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Term(TermKind.IRI, "http://a.org/x", token="<http://a.org/y>"),
            lambda: Term(TermKind.IRI, "http://a.org/x", token="<http://a.org/\\u0078>"),
            lambda: Term(TermKind.BLANK_NODE, "b", token="_:c"),
            lambda: Term(TermKind.LITERAL, "v", token='"v"@en'),
            lambda: Term(TermKind.LITERAL, "a\tb", token='"a\tb"'),
            lambda: Term(TermKind.LITERAL, "v", "http://dt.org/t", None, '"v"'),
        ],
    )
    def test_non_canonical_token_raises(self, build):
        with pytest.raises(ValueError, match="is not the canonical form"):
            build()

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

    def test_replace_and_make_check_and_recompute_the_token(self):
        assert Term._fields == ("kind", "lexical", "datatype_iri", "language_tag", "token")
        term = literal("v", language_tag="en")
        replaced = term._replace(lexical="w")
        assert type(replaced) is Term
        assert replaced == literal("w", language_tag="en")
        assert replaced.token == '"w"@en'
        assert term._replace(language_tag=None, datatype_iri="http://dt.org/t").token == (
            '"v"^^<http://dt.org/t>')
        with pytest.raises(ValueError, match="both datatype and language tag"):
            term._replace(datatype_iri="http://dt.org/t")
        with pytest.raises(ValueError, match="is not the canonical form"):
            term._replace(lexical="w", token='"v"@en')
        assert Term._make(term) == term
        assert Term._make(iter((TermKind.IRI, "http://a.org/x"))).token == "<http://a.org/x>"
        with pytest.raises(ValueError, match="IRI contains whitespace"):
            Term._make([TermKind.IRI, "has space"])
        with pytest.raises(ValueError, match="is not the canonical form"):
            Term._make([*term[:4], '"w"@en'])

    def test_constructor_is_defined_on_the_class(self, monkeypatch):
        # the benchmark's tracer counts checked Term constructions by
        # wrapping __init__, which must then accept the constructor's arguments
        assert "__init__" in vars(Term)
        init, calls = Term.__init__, []
        monkeypatch.setattr(Term, "__init__", lambda self, *args, **kwargs: (
            calls.append(args) or init(self, *args, **kwargs)))
        term = Term(TermKind.LITERAL, "v", "http://dt.org/t", token='"v"^^<http://dt.org/t>')
        assert calls == [(TermKind.LITERAL, "v", "http://dt.org/t")]
        assert term.token == '"v"^^<http://dt.org/t>'

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
