"""Seeded inputs for the lodprobe benchmark, with ground truth fixed by construction.

`generate(name, seed, directory)` writes the files the CLI reads (a dataset
and, for the assess workloads, a mock resolver script) and returns a
`Workload`: the command line of one operation, the command line of the
set-up probe, the expected exit code and the values a correct run reports.

All randomness comes from one `random.Random` seeded with a string, which
Python hashes with SHA-512, so the same (workload, seed) pair yields
byte-identical files in every process, whatever PYTHONHASHSEED is.

The truth is counted while the data is built, never by running lodprobe:
line, statement and malformed-line counts, exact extensional conciseness
(n - duplicates) / n, the exact external-link ratio (distinct non-base
object PLDs over object URIs that have a PLD) and the exact
dereferenceability ratio from the verdicts the mock script assigns.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("lod-assess", "wide-compare", "sort-spill")

BASE_PLD = "lodbench.org"
BASE_HOST = f"data.{BASE_PLD}"
VOCAB = "http://vocab.lodbench.org/p"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

TURTLE = {"status": 200, "content_type": "text/turtle"}
HTML = {"status": 200, "content_type": "text/html"}

# Verdict classes of the mock script. A class is encoded in the URI (a path
# segment on the base host, a host-label prefix elsewhere) so that a handful
# of prefix patterns covers every generated URI. Hash-class URIs always
# carry a fragment and the other classes never do, so a URI is
# dereferenceable exactly when its class is r303 or hash. As in real dumps,
# several hash URIs share one document, so a resolver cache can hit.
RESPONSES = {
    "r303": lambda target: [{"status": 303, "location": target + ".ttl"}, TURTLE],
    "hash": lambda target: [TURTLE],
    "d200": lambda target: [HTML],
    "e404": lambda target: [{"status": 404}],
    "e5xx": lambda target: [{"status": 503}],
}
CLASSES = tuple(RESPONSES)
CLASS_WEIGHTS = (35, 25, 15, 15, 10)
DEREFERENCEABLE = frozenset({"r303", "hash"})

# Public suffixes the wide workload draws hosts under; multi-label ones
# exercise the longest-rule match.
SUFFIXES = ("com", "org", "net", "de", "io", "co.uk", "com.au", "github.io", "blogspot.com")

# Each line is rejected by the reader and counted as one parse error.
MALFORMED = (
    b'<http://bad.example/a> <http://bad.example/p> "unterminated .',
    b"<http://bad.example/a> <http://bad.example/p> <http://bad.example/o>",
    b'"literal" <http://bad.example/p> <http://bad.example/o> .',
    b'<http://bad.example/a> <http://bad.example/p> "lone \\uD800 surrogate" .',
    b'<http://bad.example/a b> <http://bad.example/p> "x" .',
    b'<http://bad.example/\xff> <http://bad.example/p> "invalid utf-8" .',
    b'<http://bad.example/a> <http://bad.example/p> "x"@ .',
    b"<http://bad.example/a> <http://bad.example/p> <http://bad.example/o> . junk",
    b'<http://bad.example/a> <http://bad.example/p> "bad \\q escape" .',
    b'<http://bad.example/a\\u0020b> <http://bad.example/p> "x" .',
)

# The composition probe: one subject spelled two ways around another.
# `sort` keys on raw bytes, so the escaped spelling sorts first and the
# decoded subject sequence becomes x, a, x.
PROBE_LINES = (
    b'<http://a.org/x> <http://a.org/p> "1" .',
    b'<http://a.org/a> <http://a.org/p> "2" .',
    b'<http://a.org/\\u0078> <http://a.org/p> "3" .',
)

LOD_SUBJECTS = 20_000
LOD_EXTERNAL_PLDS = 200
LOD_DEAD_ROOTS = 10
WIDE_SUBJECTS = 6_000
WIDE_PLD_POOL = 60_000
WIDE_MALFORMED = 40
SORT_SUBJECTS = 60_000
SORT_MEMORY_BUDGET = 8 * 1024 * 1024


@dataclass
class Workload:
    name: str
    seed: int
    directory: Path
    args: list[str]
    setup_args: list[str]
    expected_exit: int
    statements: int
    truth: dict
    output: Path  # the report, or the sorted file for sort-spill

    @property
    def data(self) -> Path:
        return self.directory / "data.nt"


# --------------------------------------------------------------------------
# N-Triples rendering


_ECHAR_OUT = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _uescape(ch: str) -> str:
    cp = ord(ch)
    return f"\\u{cp:04X}" if cp <= 0xFFFF else f"\\U{cp:08X}"


def _escape(text: str, escape_non_ascii: bool, echar: bool) -> str:
    if text.isascii() and not (echar and any(c in _ECHAR_OUT for c in text)):
        return text
    out = []
    for ch in text:
        if echar and ch in _ECHAR_OUT:
            out.append(_ECHAR_OUT[ch])
        elif escape_non_ascii and not ch.isascii():
            out.append(_uescape(ch))
        else:
            out.append(ch)
    return "".join(out)


def _render_term(term: tuple, escape_non_ascii: bool = False) -> str:
    """("iri", value) | ("bnode", label) | ("lit", value, lang, datatype)."""
    kind = term[0]
    if kind == "iri":
        return f"<{_escape(term[1], escape_non_ascii, False)}>"
    if kind == "bnode":
        return f"_:{term[1]}"
    body = f'"{_escape(term[1], escape_non_ascii, True)}"'
    if term[2]:
        return f"{body}@{term[2]}"
    if term[3]:
        return f"{body}^^<{term[3]}>"
    return body


# --------------------------------------------------------------------------
# Shared builders


class _Truth:
    """Counts the exact metric inputs while statements are emitted."""

    def __init__(self):
        self.instances = 0
        self.duplicates = 0
        self.object_uris = 0
        self.object_plds: set[str] = set()
        self.deref: dict[str, bool] = {}

    def uri(self, value: str, pld: str | None, cls: str | None, as_object: bool) -> None:
        if pld is None:
            return
        if as_object:
            self.object_uris += 1
            self.object_plds.add(pld)
        self.deref[value] = cls in DEREFERENCEABLE

    def values(self) -> dict:
        external = len(self.object_plds - {BASE_PLD})
        deref_ok = sum(self.deref.values())
        return {
            "extensional-conciseness": (self.instances - self.duplicates) / self.instances,
            "external-links": external / self.object_uris if self.object_uris else 0.0,
            "dereferenceability": deref_ok / len(self.deref) if self.deref else 0.0,
            "instances": self.instances,
            "duplicate_instances": self.duplicates,
            "object_uris": self.object_uris,
            "external_plds": external,
            "object_plds": len(self.object_plds),
            "deref_uris": len(self.deref),
            "deref_ok": deref_ok,
        }


def _pick_class(rng: random.Random) -> str:
    return rng.choices(CLASSES, CLASS_WEIGHTS)[0]


def _base_subject(i: int, cls: str) -> str:
    if cls == "hash":  # one document per eight consecutive subjects
        return f"http://{BASE_HOST}/hash/d{i // 8:05d}#s{i % 8}"
    return f"http://{BASE_HOST}/{cls}/s{i:06d}"


def _external_uri(cls: str, host: str, doc: str, part: str) -> str:
    """Hash-class parts are fragments of one document; others are paths."""
    return f"http://{host}/{doc}{'#' if cls == 'hash' else '/'}{part}"


def _mock_script(dead_roots: list[str]) -> dict:
    mappings = [{"pattern": f"http://{BASE_PLD}/", "responses": [HTML]}]
    for root in dead_roots:
        mappings.append({"pattern": root, "responses": [{"error": "connection-refused"}]})
    for cls, responses in RESPONSES.items():
        for prefix in (f"http://{BASE_HOST}/{cls}/", f"http://www.{cls}-",
                       f"http://data.{cls}-", f"http://{cls}-"):
            mappings.append({"pattern": prefix + "*", "responses": responses(prefix + "doc")})
    return {"mappings": mappings}


def _write_lines(path: Path, lines: list[bytes]) -> None:
    path.write_bytes(b"\n".join(lines) + b"\n")


def multiset_digest(lines) -> str:
    """Order-independent digest of a multiset of lines (sum of BLAKE2b)."""
    total = 0
    for line in lines:
        total += int.from_bytes(hashlib.blake2b(line, digest_size=16).digest(), "big")
    return f"{total % (1 << 128):032x}"


def _assess_shape(rng: random.Random, n_subjects: int, dup_share: float, truth: _Truth):
    """Subject-sorted blocks shaped like a typical LOD dump: 10 statements
    per subject; 40% @en literals, 30% links to other base subjects, 30%
    links to external PLDs. Returns (blocks, external PLD classes)."""
    externals = {}
    for k in range(LOD_EXTERNAL_PLDS):
        cls = _pick_class(rng)
        externals[f"{cls}-ext{k:03d}.{SUFFIXES[k % 4]}"] = cls
    ext_list = list(externals)
    classes = [_pick_class(rng) for _ in range(n_subjects)]
    subjects = sorted(_base_subject(i, cls) for i, cls in enumerate(classes))
    subject_class = {s: s.split("/")[3] for s in subjects}

    blocks = []
    distinct_bodies: list[list[str]] = []
    for i, subject in enumerate(subjects):
        truth.instances += 1
        truth.uri(subject, BASE_PLD, subject_class[subject], as_object=False)
        if distinct_bodies and rng.random() < dup_share:
            body = distinct_bodies[rng.randrange(len(distinct_bodies))]
            truth.duplicates += 1
        else:
            body = [f'<{VOCAB}0> "label {i}"@en']
            for j in range(1, 10):
                u = rng.random()
                if u < 1 / 3:
                    body.append(f'<{VOCAB}{j}> "text {i}-{j}"@en')
                elif u < 2 / 3:
                    # nearby subjects, so the resource graph has triangles
                    near = subjects[(i + rng.randrange(1, 12)) % n_subjects]
                    body.append(f"<{VOCAB}{j}> <{near}>")
                else:
                    p = ext_list[rng.randrange(LOD_EXTERNAL_PLDS)]
                    n = rng.randrange(300)  # 30 documents of 10 parts per PLD
                    uri = _external_uri(externals[p], "www." + p, f"r/{n // 10}", f"f{n % 10}")
                    body.append(f"<{VOCAB}{j}> <{uri}>")
            distinct_bodies.append(body)
        for statement in body:
            obj = statement.split(" ", 1)[1]
            if obj.startswith("<"):
                uri = obj[1:-1]
                host = uri.split("/")[2]
                if host == BASE_HOST:
                    truth.uri(uri, BASE_PLD, subject_class[uri], as_object=True)
                else:
                    p = host[len("www."):]
                    truth.uri(uri, p, externals[p], as_object=True)
        blocks.append([f"<{subject}> {statement} .".encode() for statement in body])
    return blocks, externals


# --------------------------------------------------------------------------
# Workloads


def _lod_assess(rng: random.Random, seed: int, d: Path) -> Workload:
    truth = _Truth()
    blocks, externals = _assess_shape(rng, LOD_SUBJECTS, 0.01, truth)
    alive = [p for p, cls in externals.items() if cls in ("r303", "hash", "d200")]
    dead = [f"http://{p}/" for p in rng.sample(alive, LOD_DEAD_ROOTS)]
    lines = [line for block in blocks for line in block]
    _write_lines(d / "data.nt", lines)
    _write_lines(d / "setup.nt", blocks[0])
    (d / "mock.json").write_text(json.dumps(_mock_script(dead), indent=1), "utf-8")

    def cmd(data: str, out: str) -> list[str]:
        args = ["assess", "--input", str(d / data)]
        for metric in ("extcon", "cc", "ext-links", "deref"):
            args += ["--metric", f"{metric}:estimate"]
        return args + ["--resolver", f"mock:{d / 'mock.json'}", "--seed", str(seed),
                       "--out", str(d / out)]

    values = truth.values()
    values.update(lines_read=len(lines), triples_parsed=len(lines), parse_errors=0)
    return Workload("lod-assess", seed, d, cmd("data.nt", "report.json"),
                    cmd("setup.nt", "setup-report.json"), 0, len(lines), values,
                    d / "report.json")


def _wide_text(rng: random.Random, i: int) -> str:
    words = ("café", "Zürich", "東京", "naïve", "smörgåsbord", "emoji 😀",
             'say "hi"', "tab\there", "line\nbreak", "back\\slash", "plain")
    return f"{words[rng.randrange(len(words))]} {i}"


def _wide_compare(rng: random.Random, seed: int, d: Path) -> Workload:
    """Dirty, authority-diverse dump: tens of thousands of PLDs, escapes and
    non-ASCII text (30% of instances spell it with escapes, so a duplicate
    may differ from its original in bytes only), blank-node subjects, 10%
    duplicate instances, IRIs without a PLD and malformed lines."""
    truth = _Truth()
    pool = []
    for k in range(WIDE_PLD_POOL):
        cls = _pick_class(rng)
        pool.append((f"{cls}-w{k:05d}x{rng.randrange(1000):03d}.{SUFFIXES[k % len(SUFFIXES)]}", cls))
    dead = [f"http://{pool[k][0]}/" for k in rng.sample(range(WIDE_PLD_POOL), 8)]

    iri_subjects = [_base_subject(i, _pick_class(rng)) for i in range(WIDE_SUBJECTS)]
    subjects = []
    for i, s in enumerate(iri_subjects):
        subjects.append(("bnode", f"n{i}") if rng.random() < 0.1 else ("iri", s))

    def obj(i: int, j: int) -> tuple:
        u = rng.random()
        if u < 0.25:
            r = rng.random()
            if r < 0.1:
                return ("lit", str(rng.randrange(10_000)), None, XSD_INTEGER)
            return ("lit", _wide_text(rng, i * 10 + j), "en" if r < 0.7 else None, None)
        if u < 0.35:
            return ("iri", iri_subjects[(i + rng.randrange(1, 12)) % WIDE_SUBJECTS])
        if u < 0.40:
            return ("bnode", f"n{rng.randrange(WIDE_SUBJECTS)}")
        if u < 0.95:
            p, cls = pool[rng.randrange(WIDE_PLD_POOL)]
            host = ("www." if rng.random() < 0.7 else "data.") + p
            path = f"r/{rng.randrange(4)}" if rng.random() < 0.8 else f"café/{rng.randrange(4)}"
            uri = _external_uri(cls, host, path, "it")
            if rng.random() < 0.03:  # upper-case host: same PLD, no mock pattern
                uri = uri.replace(host, host.upper())
            return ("iri", uri)
        n = rng.randrange(1_000_000)
        return ("iri", (f"urn:isbn:{n}", f"http://192.0.2.{n % 250}/x{n}",
                        f"http://co.uk/x{n}", f"mailto:user{n}@example.org")[n % 4])

    def account(term: tuple, as_object: bool) -> None:
        if term[0] != "iri":
            return
        uri = term[1]
        host = uri.split("/")[2] if uri.startswith("http://") else ""
        if host == BASE_HOST:
            truth.uri(uri, BASE_PLD, uri.split("/")[3], as_object)
        elif host.startswith(("www.", "data.")):
            truth.uri(uri, host.split(".", 1)[1], host.split("-", 1)[0].split(".")[1], as_object)
        elif host.startswith(("WWW.", "DATA.")):
            truth.uri(uri, host.split(".", 1)[1].lower(), None, as_object)

    lines: list[bytes] = [b"# lodprobe benchmark: wide-compare", b""]
    first_block: list[bytes] = []
    distinct_bodies: list[list[tuple]] = []
    for i, subject in enumerate(subjects):
        truth.instances += 1
        account(subject, as_object=False)
        if distinct_bodies and rng.random() < 0.1:
            body = distinct_bodies[rng.randrange(len(distinct_bodies))]
            truth.duplicates += 1
        else:
            body = [(f"{VOCAB}0", ("lit", f"label {i}", None, None))]
            body += [(f"{VOCAB}{j}", obj(i, j)) for j in range(1, 10)]
            distinct_bodies.append(body)
        escaped = rng.random() < 0.3
        s = _render_term(subject)
        block = []
        for pred, o in body:
            account(o, as_object=True)
            block.append(f"{s} <{pred}> {_render_term(o, escaped)} .".encode())
        if i == 0:
            first_block = list(block)
        lines.extend(block)

    triples = len(lines) - 2
    for k in range(WIDE_MALFORMED):
        lines.insert(2 + rng.randrange(len(lines) - 1), MALFORMED[k % len(MALFORMED)])
    _write_lines(d / "data.nt", lines)
    _write_lines(d / "setup.nt", first_block)
    (d / "mock.json").write_text(json.dumps(_mock_script(dead), indent=1), "utf-8")

    def cmd(data: str, out: str) -> list[str]:
        args = ["compare", "--input", str(d / data)]
        for metric in ("extcon", "cc", "ext-links", "deref"):
            args += ["--metric", metric]
        return args + ["--resolver", f"mock:{d / 'mock.json'}", "--seed", str(seed),
                       "--out", str(d / out)]

    values = truth.values()
    values.update(lines_read=len(lines), triples_parsed=triples, parse_errors=WIDE_MALFORMED)
    return Workload("wide-compare", seed, d, cmd("data.nt", "report.json"),
                    cmd("setup.nt", "setup-report.json"), 2, triples, values,
                    d / "report.json")


def _sort_spill(rng: random.Random, seed: int, d: Path) -> Workload:
    """A shuffled assess-shaped dump sorted under a budget that spills."""
    blocks, _ = _assess_shape(rng, SORT_SUBJECTS, 0.0, _Truth())
    lines = [line for block in blocks for line in block]
    rng.shuffle(lines)
    _write_lines(d / "data.nt", lines)
    _write_lines(d / "setup.nt", blocks[0])
    _write_lines(d / "probe.nt", list(PROBE_LINES))

    def cmd(data: str, output: str) -> list[str]:
        return ["sort", "--input", str(d / data), "--output", str(d / output),
                "--memory", str(SORT_MEMORY_BUDGET)]

    truth = {"lines": len(lines), "digest": multiset_digest(lines)}
    return Workload("sort-spill", seed, d, cmd("data.nt", "sorted.nt"),
                    cmd("setup.nt", "setup-sorted.nt"), 0, len(lines), truth,
                    d / "sorted.nt")


_BUILDERS = {"lod-assess": _lod_assess, "wide-compare": _wide_compare, "sort-spill": _sort_spill}


def generate(name: str, seed: int, directory: Path) -> Workload:
    """Write workload `name` for `seed` into `directory` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"lodprobe-bench:{name}:{seed}")
    workload = _BUILDERS[name](rng, seed, directory)
    (directory / "truth.json").write_text(
        json.dumps(workload.truth, indent=1, sort_keys=True), "utf-8")
    return workload
