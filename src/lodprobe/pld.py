"""Pay-level domain extraction against a bundled public-suffix snapshot.

The PLD of an IRI is the registrable domain of its host: one label beyond
the public suffix (dbpedia.org for http://dbpedia.org/resource/Malta).
Matching follows the public-suffix algorithm: longest rule wins,
exception rules beat wildcards, and hosts under no listed suffix fall
back to their last two labels (the list's implicit '*' default).
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from urllib.parse import urlsplit

_SNAPSHOT_NAME = "public_suffix_snapshot.dat"
_IPV4_RE = re.compile(r"^\d{1,3}(?:\.\d{1,3}){3}$")
# `scheme://authority`: up to the first `/`, `?` or `#` after the first
# `://`, where urlsplit ends the authority. `_pld` reads nothing after it.
_AUTHORITY_PREFIX_RE = re.compile(r".*?://[^/?#]*", re.DOTALL)
# An http(s) prefix whose authority is plain ASCII: at most one `@`, a host
# of letters, digits, `-` and `.`, and a port of digits. urlsplit reads the
# same host from it, so it need not be called (group 1 is the host).
_PLAIN_AUTHORITY_RE = re.compile(
    r"[Hh][Tt][Tt][Pp][Ss]?://(?:[A-Za-z0-9\-._~!$&'()*+,;=%:]*@)?([A-Za-z0-9\-.]*)(?::[0-9]*)?"
)


class _SuffixRules:
    def __init__(self, lines):
        self.exact: set[str] = set()
        self.wildcard: set[str] = set()  # parent of a '*.' rule
        self.exception: set[str] = set()
        for raw in lines:
            rule = raw.strip().lower()
            if not rule or rule.startswith("//"):
                continue
            if rule.startswith("!"):
                self.exception.add(rule[1:])
            elif rule.startswith("*."):
                self.wildcard.add(rule[2:])
            else:
                self.exact.add(rule)

    def public_suffix_length(self, labels: list[str]) -> int:
        """Label count of the host's public suffix (longest matching rule)."""
        n = len(labels)
        for i in range(n):
            tail = labels[i:]
            joined = ".".join(tail)
            if joined in self.exception:
                return len(tail) - 1
            if joined in self.exact:
                return len(tail)
            if len(tail) >= 2 and ".".join(tail[1:]) in self.wildcard:
                return len(tail)
        return 1  # implicit default rule: the bare TLD


@lru_cache(maxsize=1)
def _rules() -> _SuffixRules:
    text = resources.files(__package__).joinpath(_SNAPSHOT_NAME).read_text("utf-8")
    return _SuffixRules(text.splitlines())


def registrable_domain(host: str) -> str | None:
    """Registrable domain of a bare hostname (no scheme, no port); None for
    an empty or IP host, a malformed one, or a bare public suffix."""
    host = host.strip().rstrip(".").lower()
    labels = host.split(".")
    if _IPV4_RE.fullmatch(host) or ":" in host or "" in labels:
        return None
    ps_len = _rules().public_suffix_length(labels)
    if len(labels) <= ps_len:
        return None
    return ".".join(labels[-(ps_len + 1) :])


def try_pld(iri: str) -> str | None:
    """Pay-level domain of an absolute http(s) IRI, memoised by authority.

    None for anything else (blank node labels, other schemes, hostless
    IRIs, IP literals), so callers can skip the term.
    """
    prefix = _AUTHORITY_PREFIX_RE.match(iri)
    return None if prefix is None else _memo_pld(prefix.group())


def _authority_pld(prefix: str) -> str | None:
    # `_pld`, through urlsplit, stays the reference for every other prefix;
    # an empty host gets None from `registrable_domain` as from `_pld`.
    plain = _PLAIN_AUTHORITY_RE.fullmatch(prefix)
    return _pld(prefix) if plain is None else registrable_domain(plain.group(1))


def _pld(iri: str) -> str | None:
    # No host without `://`: urlsplit would drop the tab in `http:\t//a.org`
    if "://" not in iri:
        return None
    try:
        split = urlsplit(iri)
        host = split.hostname
    except ValueError:
        return None
    if split.scheme not in ("http", "https") or not host:
        return None
    return registrable_domain(host)


# Bounded: a dump links to far fewer authorities than IRIs, and a miss
# only costs the uncached lookup.
_memo_pld = lru_cache(maxsize=8192)(_authority_pld)
