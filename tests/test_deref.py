import json
import os
import re
import socket
import time
import urllib.request
from urllib.parse import urlsplit

import pytest

from lodprobe import (
    CachedResolver,
    LiveResolver,
    MockResolver,
    Resolution,
    SeededRng,
    VerdictKind,
    classify,
    deref,
)
from lodprobe.deref import pld_alive

from synth import CountingResolver

TTL = {"status": 200, "content_type": "text/turtle"}
RDFXML = {"status": 200, "content_type": "application/rdf+xml"}
HTML = {"status": 200, "content_type": "text/html"}


def mock(mappings, **kw):
    return MockResolver(mappings, **kw)


class TestClassify:
    def test_hash_uri_dereferenceable(self):
        r = mock({"http://a.org/doc": [TTL]})
        verdict = classify("http://a.org/doc#me", r)
        assert verdict.kind is VerdictKind.DEREFERENCEABLE_HASH
        assert verdict.ok

    def test_slash_uri_303(self):
        r = mock({
            "http://a.org/res": [
                {"status": 303, "location": "http://a.org/data/res"},
                RDFXML,
            ]
        })
        verdict = classify("http://a.org/res", r)
        assert verdict.kind is VerdictKind.DEREFERENCEABLE_303

    def test_slash_direct_200_not_dereferenceable(self):
        r = mock({"http://a.org/res": [HTML]})
        verdict = classify("http://a.org/res", r)
        assert not verdict.ok
        assert "no-303" in verdict.reason

    def test_slash_direct_200_rdf_still_not_dereferenceable(self):
        # Strict hash-or-303 rule: content type cannot rescue a slash URI.
        r = mock({"http://a.org/res": [TTL]})
        assert not classify("http://a.org/res", r).ok

    def test_303_to_non_rdf(self):
        r = mock({
            "http://a.org/res": [{"status": 303, "location": "http://a.org/page"}, HTML]
        })
        verdict = classify("http://a.org/res", r)
        assert not verdict.ok
        assert "non-rdf" in verdict.reason

    def test_303_chain_through_301(self):
        r = mock({
            "http://a.org/res": [
                {"status": 303, "location": "http://a.org/d1"},
                {"status": 301, "location": "http://a.org/d2"},
                TTL,
            ]
        })
        assert classify("http://a.org/res", r).kind is VerdictKind.DEREFERENCEABLE_303

    def test_301_first_hop_is_not_303(self):
        r = mock({
            "http://a.org/res": [{"status": 301, "location": "http://a.org/d"}, TTL]
        })
        verdict = classify("http://a.org/res", r)
        assert not verdict.ok
        assert "301" in verdict.reason

    def test_hash_uri_4xx(self):
        r = mock({"http://a.org/doc": [{"status": 404}]})
        verdict = classify("http://a.org/doc#me", r)
        assert not verdict.ok
        assert verdict.reason == "http-404"

    def test_hash_uri_non_rdf(self):
        r = mock({"http://a.org/doc": [HTML]})
        assert "non-rdf" in classify("http://a.org/doc#me", r).reason

    def test_transport_error(self):
        r = mock({"http://a.org/res": [{"error": "timeout"}]})
        verdict = classify("http://a.org/res", r)
        assert not verdict.ok
        assert verdict.reason.startswith("transport-error")

    def test_unmatched_uri_is_transport_error(self):
        verdict = classify("http://unmapped.org/x", mock({}))
        assert verdict.reason.startswith("transport-error")

    def test_redirect_limit(self):
        hops = [{"status": 303, "location": f"http://a.org/h{i}"} for i in range(15)]
        r = mock({"http://a.org/res": hops + [TTL]}, max_redirects=5)
        verdict = classify("http://a.org/res", r)
        assert not verdict.ok

    def test_content_type_parameters_ignored(self):
        r = mock({
            "http://a.org/doc": [{"status": 200, "content_type": "text/turtle; charset=utf-8"}]
        })
        assert classify("http://a.org/doc#it", r).ok

    def test_malformed_uri_raises(self):
        with pytest.raises(ValueError):
            classify("not a uri", mock({}))
        with pytest.raises(ValueError):
            classify("ftp://a.org/x", mock({}))

    def test_guard_agrees_with_urlsplit(self, monkeypatch):
        """classify raises ValueError exactly where urlsplit raises, reads a
        scheme other than http(s) or finds no netloc; plain URIs skip it."""
        pieces = [
            ["http", "http", "HTTP", "https", "HtTpS", "ftp", "", "\u0001http", " http", "httpx"],
            ["://", "://", "://", "://", ":", ":/", "//", ":\t//", ":///"],
            ["", "", "u@", "u:p@", "@", "u@v@", "%41_~@", "\t@", "\u00fc@"],
            ["a.org", "a.org", "WWW.A.ORG", "[::1]", "[", "]", "192.168.0.1", "", "a%2eorg",
             "a_b.org", "b\u00fccher.example", "a\tb.org", "a b.org", "[a.org]", "a.org\n"],
            ["", "", ":80", ":x", ":", ":8a"],
            ["", "/", "/p", "?q", "#f", "\n", "\t/x", "/\u00e9", "[", "]"],
        ]
        rng = SeededRng(20261020)
        inputs = ["".join(options[rng.uniform_below(len(options))] for options in pieces)
                  for _ in range(5000)]
        refused = []
        for uri in inputs:
            try:
                split = urlsplit(uri)
                refused.append(split.scheme not in ("http", "https") or not split.netloc)
            except ValueError:
                refused.append(True)
        calls = []

        def counting_urlsplit(url, *args, **kwargs):
            calls.append(url)
            return urlsplit(url, *args, **kwargs)

        monkeypatch.setattr(deref, "urlsplit", counting_urlsplit)
        resolver = mock({})
        for uri, want_refused in zip(inputs, refused):
            try:
                classify(uri, resolver)
                got_refused = False
            except ValueError:
                got_refused = True
            assert got_refused == want_refused, repr(uri)
        assert 0 < sum(refused) < len(inputs)
        calls.clear()
        for uri in ["http://a.org", "HtTpS://u:p@WWW.A.ORG:80/x?y#z", "http://a%2eorg_~@b/",
                    "https://192.168.0.1:/", "http://u@v@a.org#f"]:
            assert classify(uri, resolver).reason == "transport-error: unmatched-uri"
        assert calls == []

    def test_same_script_same_verdict(self):
        mappings = {"http://a.org/res": [{"status": 303, "location": "http://a.org/d"}, TTL]}
        v1 = classify("http://a.org/res", mock(mappings))
        v2 = classify("http://a.org/res", mock(mappings))
        assert v1 == v2


class TestPldAlive:
    def test_500_root_dead(self):
        assert pld_alive("http://a.org/", mock({"http://a.org/": [{"status": 500}]})) is False

    def test_404_root_dead(self):
        assert pld_alive("http://a.org/", mock({"http://a.org/": [{"status": 404}]})) is False

    def test_200_root_alive(self):
        assert pld_alive("http://a.org/", mock({"http://a.org/": [HTML]})) is True

    def test_redirected_root_alive(self):
        r = mock({
            "http://a.org/": [{"status": 301, "location": "https://a.org/"}, HTML]
        })
        assert pld_alive("http://a.org/", r) is True

    def test_transport_error_dead(self):
        assert pld_alive("http://a.org/", mock({"http://a.org/": [{"error": "refused"}]})) is False


class TestMockResolver:
    def test_exact_beats_prefix(self):
        r = mock({
            "http://a.org/*": [{"status": 404}],
            "http://a.org/special": [TTL],
        })
        assert r.resolve("http://a.org/special").final_status == 200
        assert r.resolve("http://a.org/other").final_status == 404

    def test_longest_prefix_wins(self):
        r = mock({
            "http://a.org/*": [{"status": 404}],
            "http://a.org/data/*": [TTL],
        })
        assert r.resolve("http://a.org/data/x").final_status == 200

    @pytest.mark.parametrize("order", [1, -1])
    def test_exact_then_longest_prefix_whatever_the_order(self, order):
        patterns = [
            ("http://a.org/*", 404),
            ("http://a.org/x*", 410),
            ("http://a.org/xy*", 500),
            ("http://a.org/x", 200),  # shorter than a prefix pattern that also matches
        ]
        r = mock({p: [{"status": status}] for p, status in patterns[::order]})
        assert r.resolve("http://a.org/x").final_status == 200
        assert r.resolve("http://a.org/xy").final_status == 500
        assert r.resolve("http://a.org/xq").final_status == 410
        assert r.resolve("http://a.org/q").final_status == 404
        assert r.resolve("http://b.org/").transport_error == "unmatched-uri"

    def test_status_chain_recorded(self):
        r = mock({
            "http://a.org/res": [
                {"status": 303, "location": "http://a.org/d"},
                {"status": 301, "location": "http://a.org/e"},
                TTL,
            ]
        })
        assert r.resolve("http://a.org/res").status_chain == (303, 301, 200)

    def test_from_file(self, tmp_path):
        script = {
            "mappings": [
                {"pattern": "http://a.org/doc", "responses": [TTL]},
                {"pattern": "http://b.org/*", "responses": [{"status": 500}]},
            ]
        }
        path = tmp_path / "mock.json"
        path.write_text(json.dumps(script))
        r = MockResolver.from_file(path)
        assert classify("http://a.org/doc#x", r).ok
        assert pld_alive("http://b.org/", r) is False

    @pytest.mark.parametrize("doc, key", [
        ([], "the top level"),
        ({}, "'mappings'"),
        ({"mappings": [5]}, "mappings[0]: 'pattern'"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": {}}]}, "mappings[0]: 'responses'"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [200]}]},
         "mappings[0]: 'responses'"),
        ({"mappings": [], "max_redirects": "5"}, "'max_redirects'"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [{"stauts": 200}]}]},
         "mappings[0].responses[0]"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [{"status": "abc"}]}]},
         "mappings[0].responses[0]"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [{"status": True}]}]},
         "mappings[0].responses[0]"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [{"error": 5}]}]},
         "mappings[0].responses[0]"),
        ({"mappings": [{"pattern": "http://a.org/", "responses": [
            {"status": 303, "location": "http://a.org/d"}, {"status": 200, "content_type": None},
        ]}]}, "mappings[0].responses[1]"),
        ({"mappings": [
            {"pattern": "http://a.org/", "responses": [TTL]},
            {"pattern": "http://b.org/", "responses": [{"status": 303, "location": 5}]},
        ]}, "mappings[1].responses[0]"),
    ])
    def test_from_file_rejects_wrong_shape(self, doc, key, tmp_path):
        path = tmp_path / "mock.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"mock script {path}: {key}")):
            MockResolver.from_file(path)

    def test_resolution_invariants(self):
        res = Resolution("http://x.org/", (303, 200), "text/turtle")
        assert res.final_status == 200
        assert Resolution("http://x.org/", transport_error="boom").final_status is None


class TestCachedResolver:
    def test_second_resolve_is_cached(self):
        inner = CountingResolver(mock({"http://a.org/doc": [TTL]}))
        cached = CachedResolver(inner)
        cached.resolve("http://a.org/doc")
        cached.resolve("http://a.org/doc")
        assert inner.calls["http://a.org/doc"] == 1

    def test_distinct_uris_each_resolved(self):
        inner = CountingResolver(mock({"http://a.org/*": [TTL]}))
        cached = CachedResolver(inner)
        cached.resolve("http://a.org/1")
        cached.resolve("http://a.org/2")
        assert sum(inner.calls.values()) == 2

    def test_many_lookups_few_calls(self):
        inner = CountingResolver(mock({"http://a.org/*": [TTL]}))
        cached = CachedResolver(inner)
        for i in range(10_000):
            cached.resolve(f"http://a.org/{i % 100}")
        assert len(inner.calls) == 100 and set(inner.calls.values()) == {1}

    def test_observationally_equivalent(self):
        mappings = {"http://a.org/res": [{"status": 303, "location": "http://a/d"}, TTL]}
        raw = mock(mappings).resolve("http://a.org/res")
        cached = CachedResolver(mock(mappings)).resolve("http://a.org/res")
        assert raw == cached

    def test_resolver_crash_becomes_transport_error(self):
        class Crashy:
            def resolve(self, uri):
                raise RuntimeError("boom")

        res = CachedResolver(Crashy()).resolve("http://a.org/x")
        assert res.transport_error.startswith("resolver-crash")

    def test_resolver_crash_is_cached(self):
        calls = []

        class Crashy:
            def resolve(self, uri):
                calls.append(uri)
                raise RuntimeError("boom")

        cached = CachedResolver(Crashy())
        first = cached.resolve("http://a.org/x")
        second = cached.resolve("http://a.org/x")
        assert calls == ["http://a.org/x"]
        assert second == first
        assert first.transport_error == "resolver-crash: boom"


# (path on the local server, the mock script's responses for the same URI,
# the verdict's reason or kind). A fragment makes the URI a hash URI.
LIVE_CASES = [
    ("/r/turtle", [{"status": 303, "location": "/d/turtle"}, TTL], "dereferenceable-303"),
    ("/doc#it", [{"status": 200, "content_type": "text/turtle; charset=utf-8"}],
     "dereferenceable-hash"),
    ("/page", [HTML], "no-303-redirect"),
    ("/gone#it", [{"status": 404}], "http-404"),
    ("/loop", [{"status": 302, "location": "/loop"}] * 11, "transport-error: too-many-redirects"),
    ("/get-only/doc#it", [RDFXML], "dereferenceable-hash"),
    ("/r/Köln", [{"status": 303, "location": "/d/Köln Dom"}, TTL], "dereferenceable-303"),
]


@pytest.fixture
def live(monkeypatch):
    """A LiveResolver that connects directly, whatever proxy the environment names."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return LiveResolver()


def _bound_port(sock: socket.socket) -> int:
    sock.bind(("127.0.0.1", 0))
    return sock.getsockname()[1]


class TestLiveResolver:
    @pytest.mark.parametrize("path, responses, expected", LIVE_CASES,
                             ids=[path for path, _, _ in LIVE_CASES])
    def test_matches_the_mock_script(self, path, responses, expected, lod_server, live):
        uri = f"http://127.0.0.1:{lod_server.server_port}{path}"
        document = uri.split("#", 1)[0]
        scripted = mock({document: responses})
        assert live.resolve(document) == scripted.resolve(document)
        verdict = classify(uri, live)
        assert verdict == classify(uri, scripted)
        assert (verdict.reason or verdict.kind.value) == expected

    def test_closed_port_is_a_transport_error(self, live):
        with socket.socket() as sock:
            port = _bound_port(sock)  # closed again before the request
        res = live.resolve(f"http://127.0.0.1:{port}/x")
        assert res.status_chain == () and res.transport_error
        assert classify(f"http://127.0.0.1:{port}/x", live).reason.startswith("transport-error: ")

    def test_silent_server_times_out(self, live, monkeypatch):
        monkeypatch.setattr(deref, "DEFAULT_TIMEOUT_SECONDS", 0.2)
        with socket.socket() as sock:
            port = _bound_port(sock)
            sock.listen(1)  # connections complete, but nothing ever answers
            start = time.monotonic()
            verdict = classify(f"http://127.0.0.1:{port}/x", live)
            elapsed = time.monotonic() - start
        assert verdict.reason.startswith("transport-error: ")
        assert elapsed < 5

    def test_redirect_to_a_file_is_never_opened(self, lod_server, live, tmp_path, monkeypatch):
        secret = tmp_path / "secret.ttl"
        secret.write_text('<http://a.example/s> <http://a.example/p> "secret" .\n')
        monkeypatch.setitem(lod_server.routes, "/to-file", (303, {"Location": secret.as_uri()}))

        def must_not_open(*args):
            raise AssertionError("a file: URL was opened")

        monkeypatch.setattr(urllib.request.FileHandler, "file_open", must_not_open)
        uri = f"http://127.0.0.1:{lod_server.server_port}/to-file"
        scripted = mock({uri: [{"status": 303, "location": secret.as_uri()},
                               {"error": "unsupported-scheme: file"}]})
        assert live.resolve(uri) == scripted.resolve(uri)
        assert classify(uri, live).reason == "transport-error: unsupported-scheme: file"
