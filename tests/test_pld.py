from urllib.parse import urlsplit

import pytest

from lodprobe import SeededRng, registrable_domain, try_pld
from lodprobe.pld import _memo_pld, _pld


class TestPld:
    def test_dbpedia_example(self):
        assert try_pld("http://dbpedia.org/resource/Malta") == "dbpedia.org"

    def test_multi_label_public_suffix(self):
        assert try_pld("https://data.gov.uk/x") == "data.gov.uk"
        assert try_pld("http://www.example.co.uk/page") == "example.co.uk"

    def test_subdomains_collapse_to_registrable(self):
        assert try_pld("http://deep.sub.dbpedia.org/x") == "dbpedia.org"
        assert try_pld("http://a.b.c.data.gov.uk/") == "data.gov.uk"

    def test_port_userinfo_and_case(self):
        assert try_pld("http://User@WWW.DBpedia.ORG:8080/x") == "dbpedia.org"

    def test_https_scheme(self):
        assert try_pld("https://w3.org/ns") == "w3.org"

    @pytest.mark.parametrize(
        "bad",
        [
            "_:b0",
            "urn:isbn:0451450523",
            "ftp://files.example.org/x",
            "mailto:someone@example.org",
            "http:///nohost",
            "http://192.168.1.10/x",
            "relative/path",
            "",
        ],
    )
    def test_no_pld_cases(self, bad):
        assert _pld(bad) is None
        assert try_pld(bad) is None

    def test_bare_public_suffix_has_no_pld(self):
        assert try_pld("http://co.uk/") is None
        assert try_pld("http://com/") is None

    def test_unknown_suffix_falls_back_to_last_two_labels(self):
        assert try_pld("http://site.example.zz-unknown/x") == "example.zz-unknown"
        assert try_pld("http://example.zz-unknown/") == "example.zz-unknown"


class TestRegistrableDomain:
    def test_wildcard_rule(self):
        # *.ck makes <label>.ck a public suffix...
        assert registrable_domain("a.b.test.ck") == "b.test.ck"
        assert registrable_domain("test.ck") is None

    def test_exception_rule(self):
        # ...except www.ck, which is registrable directly.
        assert registrable_domain("www.ck") == "www.ck"
        assert registrable_domain("sub.www.ck") == "www.ck"

    def test_trailing_dot_stripped(self):
        assert registrable_domain("dbpedia.org.") == "dbpedia.org"

    def test_ipv6_rejected(self):
        assert registrable_domain("::1") is None

    def test_empty_label_rejected(self):
        assert registrable_domain("a..b.org") is None


MEMO_CASES = [
    # ports and userinfo
    "http://dbpedia.org:8080/x",
    "http://dbpedia.org:80",
    "http://user:pw@www.dbpedia.org/x",
    "http://user:pw@WWW.DBPEDIA.ORG:8080/x?y#z",
    "http://user@other.org@dbpedia.org/x",
    # bracketed and malformed hosts
    "http://[::1]/x",
    "http://[::1]:8080/",
    "http://[/x",
    "http://[",
    "http://a]b.org/",
    "http://ex\u2100ample.org/",
    # upper case, `?` or `#` right after the host, trailing dots, IPv4
    "HTTP://DBpedia.ORG/resource/Malta",
    "Https://Data.Gov.UK/x",
    "http://dbpedia.org?x=http://evil.org/",
    "http://dbpedia.org#frag/x",
    "http://dbpedia.org?x",
    "http://dbpedia.org.",
    "http://dbpedia.org./x",
    "http://192.168.1.10/x",
    "http://192.168.1.10:80/x",
    # no `://`, other schemes, empty authorities, decoded control characters
    "urn:isbn:0451450523",
    "relative/path",
    "",
    "mailto:someone@example.org",
    "mailto:x://dbpedia.org/",
    "ftp://files.example.org/x",
    "http:///nohost",
    "http://",
    "://dbpedia.org/",
    "//dbpedia.org/x",
    "\u0001http://dbpedia.org/x",
    "\u0001mailto://x.org/",
    "http:\t//dbpedia.org/x",
    "ht\ttp://dbpedia.org/x",
    # public-suffix edges and a second `://` in the path
    "http://co.uk/",
    "http://a.b.test.ck/x",
    "http://www.ck/",
    "http://dbpedia.org/a://b.org/",
    # each side of the plain-authority pattern that skips urlsplit
    "HtTpS://DBpedia.ORG/x",
    "hTTp://a.org:/x",
    "http://a.org:8a/x",
    "http://a.org::80/x",
    "http://u_~!$&'()*+,;=%41:p@a.org:80/x",
    "http://a%2eorg/x",
    "http://a_b.org/x",
    "http://u@v@a.org/x",
    "http://b\u00fccher.example/",
    "http://u@b\u00fccher.example/",
    "http://a\tb.org/",
    "http://a.org\t:80/",
    "http://[a.org]/",
    "http://u@[::1]:80/",
    "httpx://a.org/",
    "http://a..b.org/",
]


def _random_iri(rng: SeededRng) -> str:
    pieces = [
        ["http", "HTTP", "https", "HtTpS", "mailto", "ftp", "", "\u0001http", "httpx"],
        ["://", ":", ":/", "//", ":\t//"],
        ["", "u@", "u:p@", "@", "u@v@", "%41_~@", "\t@", "\u00fc@"],
        ["a.org", "WWW.A.ORG", "a.co.uk", "[::1]", "[", "]", "192.168.0.1", "a.org.", "", "co.uk",
         "a%2eorg", "a_b.org", "b\u00fccher.example", "a\tb.org", "[a.org]"],
        ["", ":80", ":x", ":", ":8a", "\t:80"],
        ["", "/", "/p", "?q", "#f", "/x://b.org/", "?u=http://b.org/", "#://c.org", "\t/x"],
    ]
    return "".join(options[rng.uniform_below(len(options))] for options in pieces)


def test_memo_matches_uncached_pld():
    """Each input is looked up cold, then again warm after the next input."""
    rng = SeededRng(20261018)
    inputs = MEMO_CASES + [_random_iri(rng) for _ in range(2000)]
    expected = [_pld(x) for x in inputs]
    _memo_pld.cache_clear()
    for i, (iri, want) in enumerate(zip(inputs, expected)):
        assert try_pld(iri) == want, iri
        if i:
            assert try_pld(inputs[i - 1]) == expected[i - 1], inputs[i - 1]
    # every warm lookup of an IRI with `://` is served by the memo
    assert _memo_pld.cache_info().hits >= sum("://" in x for x in inputs[:-1])


def test_plain_authorities_skip_urlsplit(monkeypatch):
    """A plain ASCII authority is read by one regex match; any other one,
    bracketed or non-ASCII for instance, still goes through urlsplit."""
    import lodprobe.pld as module

    routed = ["http://[::1]/x", "http://u@[a.org]/x", "http://b\u00fccher.example/",
              "http://a%2eorg/x", "http://a_b.org/", "http://u@v@a.org/", "http://a.org:8a/"]
    routed_plds = [_pld(iri) for iri in routed]
    calls = []

    def counting_urlsplit(url, *args, **kwargs):
        calls.append(url)
        return urlsplit(url, *args, **kwargs)

    monkeypatch.setattr(module, "urlsplit", counting_urlsplit)
    _memo_pld.cache_clear()
    plain = {
        "http://dbpedia.org/resource/Malta": "dbpedia.org",
        "HtTpS://User:pw@WWW.DBpedia.ORG:8080/x": "dbpedia.org",
        "http://u_~!$&'()*+,;=%41:p@a.co.uk:/x?y#z": "a.co.uk",
        "https://192.168.1.10:80/": None,
        "http://co.uk/": None,
        "http://": None,
        "http://u@:80/": None,
    }
    for iri, want in plain.items():
        assert try_pld(iri) == want, iri
    assert calls == []
    for iri, want in zip(routed, routed_plds):
        assert try_pld(iri) == want, iri
    assert len(calls) == len(routed)


def test_submodule_import_binds_the_module():
    import lodprobe.pld as module

    assert module.try_pld is try_pld


def test_no_pld_without_authority_separator():
    """Without `://` there is no host, even where urlsplit would drop a tab
    or line break and find one."""
    rng = SeededRng(20261019)
    pieces = ["http", "https", "urn", "mailto", ":", "/", "//", "\t", "\r", "\n", "a.org",
              "dbpedia.org", "u@", "?", "#", ":80", "\u0001", " "]
    inputs = [
        "urn:isbn:0451450523", "mailto:someone@example.org", "http:/x", "//host/x",
        "http:\t//dbpedia.org/x", "http:/\n/dbpedia.org/x", "https:\r\n//a.org/",
    ]
    while len(inputs) < 3000:
        candidate = "".join(pieces[rng.uniform_below(len(pieces))]
                            for _ in range(rng.uniform_below(9)))
        if "://" not in candidate:
            inputs.append(candidate)
    for iri in inputs:
        assert try_pld(iri) is None, iri
        assert _pld(iri) is None, iri
