"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They check the generator (determinism across processes and hash seeds,
ground truth against an independent count over the generated files), the
tracer (it changes no reported value and fills every declared metric) and
the declarations in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_across_processes_and_hash_seeds(name, tmp_path):
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
              "workloads.generate(sys.argv[2], 5, sys.argv[3])")
    seen = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-c", script, str(HERE), name, str(out)],
                       env=env, check=True, cwd=tmp_path)
        seen.append(_digests(out))
    assert seen[0] == seen[1]
    other = workloads.generate(name, 6, tmp_path / "other-seed")
    assert _digests(other.directory) != seen[0]


# --------------------------------------------------------------------------
# An independent count over the generated files


_TERM = r'(<[^>]*>|_:\S+|"(?:[^"\\]|\\.)*"(?:@[A-Za-z]+(?:-[A-Za-z0-9]+)*|\^\^<[^>]*>)?)'
_STATEMENT = re.compile(rf"^{_TERM} {_TERM} {_TERM} \.$")
_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_ECHARS = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "b": "\b", "f": "\f", "'": "'"}
_MULTI_LABEL_SUFFIXES = {"co.uk", "com.au", "github.io", "blogspot.com"}
_RDF = {"text/turtle", "application/rdf+xml", "application/n-triples", "application/ld+json"}


def _unescape(text: str, iri: bool) -> str:
    def repl(m):
        tag = m.group(1)
        if tag[0] in "uU":
            cp = int(tag[1:], 16)
            if 0xD800 <= cp <= 0xDFFF:
                raise ValueError("surrogate")
            return chr(cp)
        if iri or tag not in _ECHARS:
            raise ValueError("bad escape")
        return _ECHARS[tag]
    return _ESCAPE.sub(repl, text)


def _term(token: str):
    if token.startswith("<"):
        value = _unescape(token[1:-1], iri=True)
        if any(c.isspace() for c in value):
            raise ValueError("space in IRI")
        return ("iri", value)
    if token.startswith("_:"):
        return ("bnode", token[2:])
    end = token.rindex('"')
    return ("lit", _unescape(token[1:end], iri=False), token[end + 1:])


def _pld(iri: str):
    m = re.match(r"https?://([^/:?#]+)", iri)
    if not m or re.fullmatch(r"[\d.]+", m.group(1)):
        return None
    labels = m.group(1).lower().split(".")
    suffix = 2 if ".".join(labels[-2:]) in _MULTI_LABEL_SUFFIXES else 1
    return ".".join(labels[-suffix - 1:]) if len(labels) > suffix else None


def _mock_verdicts(script_path: Path):
    mappings = json.loads(script_path.read_text("utf-8"))["mappings"]
    exact = {m["pattern"]: m["responses"] for m in mappings if not m["pattern"].endswith("*")}
    prefixes = sorted(((m["pattern"][:-1], m["responses"]) for m in mappings
                       if m["pattern"].endswith("*")), key=lambda p: -len(p[0]))

    def dereferenceable(uri: str) -> bool:
        target = uri.split("#", 1)[0]
        responses = exact.get(target) or next(
            (r for prefix, r in prefixes if target.startswith(prefix)), None)
        if responses is None or any("error" in r for r in responses):
            return False
        statuses = [r["status"] for r in responses]
        rdf = responses[-1].get("content_type") in _RDF
        if "#" in uri:
            return statuses[-1] == 200 and rdf
        return statuses[0] == 303 and statuses[-1] == 200 and rdf
    return dereferenceable


def _independent_truth(w: workloads.Workload) -> dict:
    lines = w.data.read_bytes().split(b"\n")[:-1]
    malformed = 0
    triples = []
    for raw in lines:
        try:
            text = raw.decode("utf-8")
            if text == "" or text.startswith("#"):
                continue
            m = _STATEMENT.match(text)
            if m is None or not m.group(2).startswith("<") or m.group(1).startswith('"'):
                raise ValueError("not a statement")
            triples.append(tuple(_term(t) for t in m.groups()))
        except ValueError:
            malformed += 1
    instances, duplicates, signatures, current, body = 0, 0, set(), None, set()
    for s, p, o in triples + [(None, None, None)]:
        if s != current:
            if current is not None:
                instances += 1
                signature = frozenset(body)
                duplicates += signature in signatures
                signatures.add(signature)
            current, body = s, set()
        body.add((p, o))
    base = "lodbench.org"
    object_plds = [_pld(o[1]) for _, _, o in triples if o[0] == "iri"]
    object_plds = [p for p in object_plds if p is not None]
    uris = {t[1] for s, _, o in triples for t in (s, o) if t[0] == "iri" and _pld(t[1])}
    dereferenceable = _mock_verdicts(w.directory / "mock.json")
    deref_ok = sum(dereferenceable(u) for u in uris)
    external = len(set(object_plds) - {base})
    return {
        "lines_read": len(lines),
        "triples_parsed": len(triples),
        "parse_errors": malformed,
        "extensional-conciseness": (instances - duplicates) / instances,
        "external-links": external / len(object_plds),
        "dereferenceability": deref_ok / len(uris),
    }


@pytest.mark.parametrize("name", ["lod-assess", "wide-compare"])
def test_ground_truth_matches_an_independent_count(name, tmp_path):
    w = workloads.generate(name, 3, tmp_path)
    independent = _independent_truth(w)
    assert {k: w.truth[k] for k in independent} == independent
    assert w.truth["duplicate_instances"] > 0
    if name == "wide-compare":
        # more distinct PLDs than the default reservoir capacity, so it evicts
        assert w.truth["object_plds"] > 20_000
        assert w.truth["parse_errors"] == workloads.WIDE_MALFORMED


def test_sort_truth_is_the_input_multiset(tmp_path):
    w = workloads.generate("sort-spill", 3, tmp_path)
    lines = w.data.read_bytes().split(b"\n")[:-1]
    assert w.truth == {"lines": len(lines), "digest": workloads.multiset_digest(sorted(lines))}


# --------------------------------------------------------------------------
# Tracing and declarations


def test_tracing_changes_no_value_and_fills_every_layer_metric(tmp_path):
    from lodprobe.cli import main

    w = workloads.generate("wide-compare", 2, tmp_path)
    small = tmp_path / "small.nt"
    small.write_bytes(b"\n".join(w.data.read_bytes().split(b"\n")[:3000]) + b"\n")
    args = [str(small) if a == str(w.data) else a for a in w.args]
    report = tmp_path / "report.json"

    assert main(args) == 2
    plain = run.mask_timings(report.read_text("utf-8"))
    tracer = Tracer()
    tracer.install()
    try:
        assert main(args) == 2
    finally:
        tracer.uninstall()
    assert run.mask_timings(report.read_text("utf-8")) == plain

    metrics = tracer.layer_metrics()
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    assert all(v >= 0 for v in metrics.values())
    for name in ("cli.stream_s", "pld.try_pld.calls", "graph.edges",
                 "metrics.extcon.exact.peak_mib", "sketches.reservoir.calls"):
        assert metrics[name] > 0, name
    # the wrappers are gone again
    from lodprobe import metrics as lodprobe_metrics
    from lodprobe.pld import try_pld
    assert lodprobe_metrics.try_pld is try_pld


def test_a_traced_name_the_package_lacks_fails_the_install():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer._patch(run, "no_such_function", lambda f: f)


def test_every_metric_name_is_valid_and_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for section, emitted in (("end_to_end", run.END_TO_END), ("per_layer", LAYER_METRICS)):
        entries = [(e["name"], e["unit"]) for e in declared[section]]
        assert entries == list(emitted), section
        for name, _ in emitted:
            assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    p, value = run.tail_percentile([float(i) for i in range(1, 21)])
    assert (p, value) == (50, 10.0)


def test_probe_time_takes_the_samples_inside_or_the_nearest():
    samples = [(t / 10, t / 1000) for t in range(100)]
    assert run.probe_time(samples, {"start": 1.0, "end": 2.0}) == pytest.approx(0.015)
    # a short operation takes the five samples nearest its middle
    assert run.probe_time(samples, {"start": 5.01, "end": 5.02}) == pytest.approx(0.050)


def test_the_probe_stops_when_its_input_closes(tmp_path):
    probe = run.Probe(dict(os.environ), min(os.sched_getaffinity(0)), tmp_path / "probe.txt")
    try:
        time.sleep(1.0)
    finally:
        probe.stop()
    samples = probe.samples()
    assert len(samples) >= 3 and all(0 < d < end for end, d in samples)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lod-assess",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
