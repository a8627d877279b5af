"""Dereferenceability classification behind an abstract resolver.

A resource URI counts as dereferenceable in exactly two shapes: a hash URI
whose document answers 200 with an RDF content type, or a slash URI whose
first hop is a 303 redirect that ultimately lands on such a document.
Everything else (direct 200 on a slash URI, 4xx/5xx, non-RDF payloads,
transport failures, runaway redirects) is not dereferenceable, with the
reason preserved.

All verdicts derive from `Resolution` values produced by a `Resolver`.
Tests and CI use the scripted `MockResolver`; the `LiveResolver` is an
optional runtime for real probing and is never required by the suite.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

RDF_CONTENT_TYPES = frozenset(
    {"text/turtle", "application/rdf+xml", "application/n-triples", "application/ld+json"}
)
_ACCEPT = ", ".join(sorted(RDF_CONTENT_TYPES))

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
        if final is not None and 300 <= res.status_chain[0] < 400:
            return _not_ok(f"redirect-{res.status_chain[0]}-not-303")
        return _not_ok("no-303-redirect")
    if final == 200:
        if content_type in RDF_CONTENT_TYPES:
            return Verdict(VerdictKind.DEREFERENCEABLE_HASH if is_hash
                           else VerdictKind.DEREFERENCEABLE_303)
        return _not_ok(f"non-rdf-content-type: {content_type}")
    if final is not None and 300 <= final < 400:
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
    list consumed hop by hop. Each entry is {"status", "location"?,
    "content_type"?} or {"error": reason} for a transport failure.
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
            status = int(entry["status"])
            chain.append(status)
            content_type = entry.get("content_type")
            if 300 <= status < 400 and entry.get("location"):
                if len(chain) > self.max_redirects:
                    return Resolution(uri, tuple(chain), None, "too-many-redirects")
                continue
            break
        return Resolution(uri, tuple(chain), content_type)


class CachedResolver:
    """At most one inner resolution per distinct URI.

    Safe under concurrent use: one lock guards the cache and is held
    across a miss's inner `resolve`, so lookups are serialised and
    different URIs are never resolved in parallel. The inner resolver must
    not call back into this cache, or it deadlocks on the lock.
    """

    def __init__(self, inner: Resolver):
        self.inner = inner
        self._cache: dict[str, Resolution] = {}
        self._lock = threading.Lock()

    def resolve(self, uri: str) -> Resolution:
        with self._lock:
            result = self._cache.get(uri)
            if result is None:
                try:
                    result = self.inner.resolve(uri)
                except Exception as exc:  # resolver contract: failures are values
                    result = Resolution(uri, transport_error=f"resolver-crash: {exc}")
                self._cache[uri] = result
            return result


class LiveResolver:
    """requests-backed resolver; optional runtime, never needed by tests.

    Follows redirects manually so every hop status lands in the chain.
    Probes with HEAD first and retries with GET when the server rejects
    HEAD, since many endpoints only implement GET.
    """

    def __init__(
        self,
        max_redirects: int = DEFAULT_MAX_REDIRECTS,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ):
        import requests  # the 'http' extra; ImportError without it

        self._requests = requests
        self.max_redirects = max_redirects
        self.timeout = timeout
        self._headers = {"Accept": _ACCEPT, "User-Agent": "lodprobe/0.1"}

    def resolve(self, uri: str) -> Resolution:
        requests = self._requests
        chain: list[int] = []
        current = uri
        method = "HEAD"
        try:
            with requests.Session() as session:
                while True:
                    resp = session.request(
                        method,
                        current,
                        headers=self._headers,
                        timeout=self.timeout,
                        allow_redirects=False,
                    )
                    if method == "HEAD" and resp.status_code in (405, 501):
                        method = "GET"
                        continue
                    chain.append(resp.status_code)
                    if 300 <= resp.status_code < 400 and resp.headers.get("Location"):
                        if len(chain) > self.max_redirects:
                            return Resolution(uri, tuple(chain), None, "too-many-redirects")
                        current = requests.compat.urljoin(current, resp.headers["Location"])
                        continue
                    return Resolution(uri, tuple(chain), resp.headers.get("Content-Type"))
        except requests.RequestException as exc:
            return Resolution(uri, tuple(chain), None, str(exc))
