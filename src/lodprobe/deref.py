"""Dereferenceability classification behind an abstract resolver.

A resource URI counts as dereferenceable in exactly two shapes: a hash URI
whose document answers 200 with an RDF content type, or a slash URI whose
first hop is a 303 redirect that ultimately lands on such a document.
Everything else (direct 200 on a slash URI, 4xx/5xx, non-RDF payloads,
transport failures, runaway redirects) is not dereferenceable, with the
reason preserved.

All verdicts derive from `Resolution` values produced by a `Resolver`: the
scripted `MockResolver`, or the `LiveResolver`, which probes real servers
with the standard library alone and is tested against a local server.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol
from urllib.parse import quote, urljoin, urlsplit

RDF_CONTENT_TYPES = frozenset(
    {"text/turtle", "application/rdf+xml", "application/n-triples", "application/ld+json"}
)
_HEADERS = {"Accept": ", ".join(sorted(RDF_CONTENT_TYPES)), "User-Agent": "lodprobe/0.1"}
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"  # sent as is; other characters go as UTF-8 escapes

# An http(s) URI with a non-empty plain ASCII authority: urlsplit would
# accept it, so `classify` skips that check.
_PLAIN_HTTP_URI_RE = re.compile(r"[Hh][Tt][Tt][Pp][Ss]?://[A-Za-z0-9\-._~!$&'()*+,;=%:@]+(?:[/?#]|$)")

DEFAULT_MAX_REDIRECTS = 10
DEFAULT_TIMEOUT_SECONDS = 10.0


@dataclass(frozen=True, slots=True)
class Resolution:
    """Observed outcome of resolving one URI, redirect hops included."""

    requested_uri: str
    status_chain: tuple[int, ...] = ()
    content_type: str | None = None
    transport_error: str | None = None

    @property
    def final_status(self) -> int | None:
        return self.status_chain[-1] if self.status_chain else None


class Resolver(Protocol):
    def resolve(self, uri: str) -> Resolution: ...


class VerdictKind(Enum):
    DEREFERENCEABLE_HASH = "dereferenceable-hash"
    DEREFERENCEABLE_303 = "dereferenceable-303"
    NOT_DEREFERENCEABLE = "not-dereferenceable"


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: VerdictKind
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.kind is not VerdictKind.NOT_DEREFERENCEABLE


def _not_ok(reason: str) -> Verdict:
    return Verdict(VerdictKind.NOT_DEREFERENCEABLE, reason)


def _normalise_content_type(value: str | None) -> str | None:
    if value is None:
        return None
    return value.split(";", 1)[0].strip().lower()


def classify(uri: str, resolver: Resolver) -> Verdict:
    """LOD dereferenceability verdict for one absolute http(s) URI."""
    if _PLAIN_HTTP_URI_RE.match(uri) is None:
        split = urlsplit(uri)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(f"not an absolute http(s) URI: {uri!r}")

    is_hash = "#" in uri
    target = uri.split("#", 1)[0] if is_hash else uri
    res = resolver.resolve(target)

    if res.transport_error is not None:
        return _not_ok(f"transport-error: {res.transport_error}")
    if not res.status_chain:
        return _not_ok("no-response")

    final = res.final_status
    content_type = _normalise_content_type(res.content_type)

    # A slash URI must answer its first hop with 303; a hash URI need not.
    if not is_hash and res.status_chain[0] != 303:
        if 300 <= res.status_chain[0] < 400:
            return _not_ok(f"redirect-{res.status_chain[0]}-not-303")
        return _not_ok("no-303-redirect")
    if final == 200:
        if content_type in RDF_CONTENT_TYPES:
            return Verdict(VerdictKind.DEREFERENCEABLE_HASH if is_hash
                           else VerdictKind.DEREFERENCEABLE_303)
        return _not_ok(f"non-rdf-content-type: {content_type}")
    if 300 <= final < 400:
        return _not_ok("redirect-not-followed-to-completion")
    return _not_ok(f"http-{final}")


def pld_alive(pld_root: str, resolver: Resolver) -> bool:
    """False iff the PLD root answers 4xx/5xx or fails at transport level."""
    res = resolver.resolve(pld_root)
    if res.transport_error is not None:
        return False
    final = res.final_status
    return final is not None and not 400 <= final <= 599


class MockResolver:
    """Scripted resolver for network-free runs.

    The script maps URI patterns (exact string, or prefix ending in `*`;
    exact beats prefix, longer prefix beats shorter) to an ordered response
    list consumed hop by hop. Each entry is {"status": int, "location"?: str,
    "content_type"?: str} or {"error": str} for a transport failure.
    """

    def __init__(self, mappings: dict[str, list[dict]], max_redirects: int = DEFAULT_MAX_REDIRECTS):
        self.max_redirects = max_redirects
        self._exact = {p: r for p, r in mappings.items() if not p.endswith("*")}
        self._prefixes = sorted(
            ((p[:-1], r) for p, r in mappings.items() if p.endswith("*")),
            key=lambda pair: -len(pair[0]),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "MockResolver":
        """Load a script; a wrong shape is a ValueError naming the file and key."""
        where = f"mock script {path}"
        try:
            doc = json.loads(Path(path).read_text("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{where}: the top level must be an object")
        if not isinstance(doc.get("mappings"), list):
            raise ValueError(f"{where}: 'mappings' must be a list")
        for i, m in enumerate(doc["mappings"]):
            if not isinstance(m, dict) or not isinstance(m.get("pattern"), str):
                raise ValueError(f"{where}: mappings[{i}]: 'pattern' must be a string")
            responses = m.get("responses")
            if not isinstance(responses, list) or not all(isinstance(r, dict) for r in responses):
                raise ValueError(f"{where}: mappings[{i}]: 'responses' must be a list of objects")
            for j, r in enumerate(responses):
                ok = type(r.get("status")) is int and all(
                    isinstance(r.get(k, ""), str) for k in ("location", "content_type"))
                if not (isinstance(r["error"], str) if "error" in r else ok):
                    raise ValueError(f"{where}: mappings[{i}].responses[{j}]: needs a string "
                                     "'error', or an int 'status' with string 'location' and "
                                     "'content_type' where given")
        max_redirects = doc.get("max_redirects", DEFAULT_MAX_REDIRECTS)
        if type(max_redirects) is not int:
            raise ValueError(f"{where}: 'max_redirects' must be an integer")
        mappings = {m["pattern"]: m["responses"] for m in doc["mappings"]}
        return cls(mappings, max_redirects)

    def _find(self, uri: str) -> list[dict] | None:
        responses = self._exact.get(uri)
        if responses is not None:
            return responses
        for prefix, responses in self._prefixes:
            if uri.startswith(prefix):
                return responses
        return None

    def resolve(self, uri: str) -> Resolution:
        responses = self._find(uri)
        if responses is None:
            return Resolution(uri, transport_error="unmatched-uri")
        chain: list[int] = []
        content_type = None
        for entry in responses:
            if "error" in entry:
                return Resolution(uri, tuple(chain), None, entry["error"])
            status = entry["status"]
            chain.append(status)
            content_type = entry.get("content_type")
            if 300 <= status < 400 and entry.get("location"):
                if len(chain) > self.max_redirects:
                    return Resolution(uri, tuple(chain), None, "too-many-redirects")
                continue
            break
        return Resolution(uri, tuple(chain), content_type)


class CachedResolver:
    """At most one inner resolution per distinct URI, a crash included.

    Not for concurrent use: lodprobe resolves one URI at a time, and two
    threads missing on one URI would each resolve it.
    """

    def __init__(self, inner: Resolver):
        self.inner = inner
        self._cache: dict[str, Resolution] = {}

    def resolve(self, uri: str) -> Resolution:
        result = self._cache.get(uri)
        if result is None:
            try:
                result = self.inner.resolve(uri)
            except Exception as exc:  # resolver contract: failures are values
                result = Resolution(uri, transport_error=f"resolver-crash: {exc}")
            self._cache[uri] = result
        return result


class LiveResolver:
    """HTTP(S) resolver on `urllib.request`, proxied as `*_proxy` says.

    Follows redirects by hand so every hop's status lands in the chain, and
    never opens a hop whose scheme is not http or https. Probes with HEAD,
    and with GET, body unread, where a server rejects HEAD, as many do."""

    def __init__(self):
        # Imported here and in `resolve`, as both load `ssl` (OpenSSL).
        from urllib.request import HTTPErrorProcessor, build_opener

        class EveryStatus(HTTPErrorProcessor):
            def http_response(self, request, response):
                return response  # so no handler follows a 3xx or raises
            https_response = http_response

        self._open = build_opener(EveryStatus).open

    def resolve(self, uri: str) -> Resolution:
        from http.client import HTTPException
        from urllib.request import Request

        chain: list[int] = []
        url, method = uri, "HEAD"
        try:
            while (scheme := urlsplit(url).scheme) in ("http", "https"):
                request = Request(quote(url, _URL_SAFE), headers=_HEADERS, method=method)
                with self._open(request, timeout=DEFAULT_TIMEOUT_SECONDS) as response:
                    status, headers = response.status, response.headers  # body unread
                if method == "HEAD" and status in (405, 501):
                    method = "GET"
                    continue
                chain.append(status)
                if not (300 <= status < 400 and headers.get("Location")):
                    return Resolution(uri, tuple(chain), headers.get("Content-Type"))
                if len(chain) > DEFAULT_MAX_REDIRECTS:
                    return Resolution(uri, tuple(chain), None, "too-many-redirects")
                # a header's text is its bytes read as Latin-1; a Location's are UTF-8
                url = urljoin(url, headers["Location"].encode("latin-1").decode("utf-8"))
        except (OSError, HTTPException, ValueError) as exc:  # URLError is an OSError
            return Resolution(uri, tuple(chain), None, str(exc))
        return Resolution(uri, tuple(chain), None, f"unsupported-scheme: {scheme}")
