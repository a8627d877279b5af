import gc
import json
import os
import re
import stat
import time
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from lodprobe import (
    NTriplesReader, ResourceGraph, TermKind, cli, metrics, verify_subject_contiguous,
)
from lodprobe.cli import main
from lodprobe.deref import MockResolver
from lodprobe.metrics import ClusteringMetric

from synth import conciseness_stream, deref_fixture, run, write_ntriples


@pytest.fixture
def tiny_dataset(tmp_path):
    path = tmp_path / "tiny.nt"
    lines = [
        f"<http://a.org/s{i}> <http://a.org/p> <http://{'a' if i else 'ext'}.org/o{i}> ."
        for i in range(10)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _schema():
    return json.loads(
        resources.files("lodprobe").joinpath("report_schema.json").read_text("utf-8")
    )


def _mask_timings(report_text: str) -> str:
    masked = re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": 0', report_text)
    return re.sub(r'"speedup": [0-9.e-]+', '"speedup": 0', masked)


# Each must end in one `error:` line, naming what was bad, before the input
# is opened: (flags, LODPROBE_SEED, expected part of the message).
BAD_VALUES = [
    (["--param", "min_steps=1"], None,
     "clustering-coefficient:estimate (mixing_multiplier=1.0, min_steps=1)"),
    (["--param", "min_steps=abc"], None, "parameter min_steps"),
    (["--param", "mixing_multiplier=0"], None, "clustering-coefficient:estimate (mixing_multiplier=0.0"),
    (["--param", "mixing_multiplier=-1"], None, "clustering-coefficient:estimate (mixing_multiplier=-1.0"),
    (["--param", "mixing_multiplier=nan"], None, "clustering-coefficient:estimate (mixing_multiplier=nan"),
    (["--param", "mixing_multiplier=1e308"], None,
     "clustering-coefficient:estimate (mixing_multiplier=1e+308"),
    (["--param", "min_steps=1000001"], None,
     "clustering-coefficient:estimate (mixing_multiplier=1.0, min_steps=1000001)"),
    (["--param", "reservoir_capacity=2.7"], None, "parameter reservoir_capacity: expected int, got '2.7'"),
    (["--param", "reservoir_capacity=true"], None, "parameter reservoir_capacity: expected int, got 'true'"),
    (["--param", "reservoir_capacity=nan"], None, "parameter reservoir_capacity: expected int, got 'nan'"),
    (["--param", "reservoir_capacity=inf"], None, "parameter reservoir_capacity: expected int, got 'inf'"),
    (["--config", "string-fraction.json"], None,
     "string-fraction.json: parameter reservoir_capacity: expected int, got '2.7'"),
    (["--param", "reservoir_capacity=0"], None, "external-links:estimate (reservoir_capacity=0)"),
    (["--param", "reservoir_capacity=1"], None, "external-links:estimate (reservoir_capacity=1)"),
    (["--param", "total_bits=10"], None,
     "extensional-conciseness:estimate (total_bits=10, fpr_threshold=0.001)"),
    (["--param", "fpr_threshold=2"], None,
     "extensional-conciseness:estimate (total_bits=100000, fpr_threshold=2.0)"),
    (["--param", "sample_capacity=1"], None, "dereferenceability:estimate (sample_capacity=1)"),
    (["--param", "per_pld_capacity=10"], None, "--param: unknown parameter 'per_pld_capacity'"),
    ([], "abc", "LODPROBE_SEED"),
    (["--config", "malformed.json"], None, "malformed.json"),
    (["--config", "list.json"], None, "list.json: the top level must be an object"),
    (["--config", "parameters.json"], None, "parameters.json: 'parameters' must be an object"),
    (["--config", "metrics.json"], None, "metrics.json: 'metrics' must hold strings or objects"),
    (["--resolver", "mock:empty-mock.json"], None,
     "mock script empty-mock.json: 'mappings' must be a list"),
    (["--resolver", "mock:pattern-mock.json"], None,
     "mock script pattern-mock.json: mappings[0]: 'pattern' must be a string"),
    (["--param", "reservoir_capcity=5"], None, "--param: unknown parameter 'reservoir_capcity'"),
    (["--param", "cc.reservoir_capacity=5"], None,
     "--param: unknown parameter 'cc.reservoir_capacity'"),
    (["--param", "links.min_steps=5"], None, "--param: unknown parameter 'links.min_steps'"),
    (["--config", "typo.json"], None, "typo.json: parameters: unknown parameter 'total_bit'"),
    (["--metric", "cc", "--config", "bogus.json"], None,
     "bogus.json: metrics[0]: unknown metric 'bogus'"),
    (["--out", "missing/r.json"], None, "--out missing/r.json: directory missing not found"),
    (["--config", "fraction.json"], None,
     "fraction.json: parameter reservoir_capacity: expected int, got 2.7"),
    (["--config", "boolean.json"], None,
     "boolean.json: parameter mixing_multiplier: expected float, got True"),
    (["--resolver", "mock:typo-mock.json"], None,
     "mock script typo-mock.json: mappings[0].responses[0]: needs"),
    (["--resolver", "mock:status-mock.json"], None,
     "mock script status-mock.json: mappings[0].responses[0]: needs"),
]


class TestAssess:
    def test_report_written_and_valid(self, tiny_dataset, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "assess", "--input", str(tiny_dataset),
            "--metric", "ext-links:exact",
            "--metric", "cc:estimate",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, _schema())
        assert report["config"]["seed"] == 7
        assert report["dataset"]["triples_parsed"] == 10
        assert len(report["results"]) == 2
        assert report["deviations"] is None
        # brute-force oracle: 10 object URIs, one external PLD
        ext = next(r for r in report["results"] if r["metric"] == "external-links")
        assert ext["value"] == pytest.approx(1 / 10)

    def test_zero_metrics_usage_error(self, tiny_dataset):
        assert main(["assess", "--input", str(tiny_dataset)]) == 1

    def test_missing_input(self, tmp_path):
        assert main(["assess", "--input", str(tmp_path / "nope.nt"), "--metric", "cc"]) == 1

    def test_unknown_metric(self, tiny_dataset):
        assert main(["assess", "--input", str(tiny_dataset), "--metric", "bogus"]) == 1

    def test_parse_errors_exit_2(self, tmp_path):
        path = tmp_path / "dirty.nt"
        path.write_text(
            "<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n"
            "broken line\n"
        )
        code = main(["assess", "--input", str(path), "--metric", "ext-links:exact"])
        assert code == 2

    def test_unsorted_conciseness_suggests_sort(self, tmp_path, capsys):
        path = tmp_path / "unsorted.nt"
        path.write_text(
            "<http://a.org/s1> <http://a.org/p> <http://a.org/o1> .\n"
            "<http://a.org/s2> <http://a.org/p> <http://a.org/o1> .\n"
            "<http://a.org/s1> <http://a.org/p> <http://a.org/o2> .\n"
        )
        code = main(["assess", "--input", str(path), "--metric", "extcon:exact"])
        assert code == 1
        assert "sort" in capsys.readouterr().err

    def test_seed_env_var(self, tiny_dataset, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("LODPROBE_SEED", "99")
        main(["assess", "--input", str(tiny_dataset), "--metric", "cc", "--out", str(out)])
        assert json.loads(out.read_text())["config"]["seed"] == 99

    def test_seed_flag_beats_env(self, tiny_dataset, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("LODPROBE_SEED", "99")
        main([
            "assess", "--input", str(tiny_dataset), "--metric", "cc",
            "--seed", "5", "--out", str(out),
        ])
        assert json.loads(out.read_text())["config"]["seed"] == 5

    def test_random_seed_echoed(self, tiny_dataset, tmp_path):
        out = tmp_path / "r.json"
        main(["assess", "--input", str(tiny_dataset), "--metric", "cc", "--out", str(out)])
        assert isinstance(json.loads(out.read_text())["config"]["seed"], int)

    def test_param_override(self, tiny_dataset, tmp_path):
        out = tmp_path / "r.json"
        main([
            "assess", "--input", str(tiny_dataset),
            "--metric", "ext-links:estimate",
            "--param", "external-links.reservoir_capacity=5",
            "--seed", "1", "--out", str(out),
        ])
        report = json.loads(out.read_text())
        assert report["results"][0]["parameters"]["reservoir_capacity"] == 5

    def test_param_scoped_by_alias(self, tiny_dataset, tmp_path):
        # A scope may be any name --metric accepts, and beats the bare key.
        out = tmp_path / "r.json"
        main([
            "assess", "--input", str(tiny_dataset),
            "--metric", "ext-links:estimate", "--metric", "cc",
            "--param", "ext-links.reservoir_capacity=7",
            "--param", "reservoir_capacity=5", "--param", "CC.min_steps=9",
            "--seed", "1", "--out", str(out),
        ])
        ext, cc = json.loads(out.read_text())["results"]
        assert ext["parameters"]["reservoir_capacity"] == 7
        assert cc["parameters"]["min_steps"] == 9

    def test_config_flag_wins_over_aliased_parameter(self, tiny_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": {"external-links.reservoir_capacity": 8}}))
        out = tmp_path / "r.json"
        main([
            "assess", "--input", str(tiny_dataset), "--metric", "ext-links",
            "--config", str(cfg), "--param", "ext_links.reservoir_capacity=7",
            "--seed", "1", "--out", str(out),
        ])
        assert json.loads(out.read_text())["results"][0]["parameters"]["reservoir_capacity"] == 7

    @pytest.mark.parametrize("entry, config, flags, expected", [
        ({}, {}, [], 20000),
        ({"reservoir_capacity": 3}, {}, [], 3),
        ({"reservoir_capacity": 3}, {"reservoir_capacity": 4}, [], 4),
        ({}, {"reservoir_capacity": 4, "ext-links.reservoir_capacity": 5}, [], 5),
        ({}, {"ext-links.reservoir_capacity": 5}, ["reservoir_capacity=10"], 10),
        ({}, {}, ["ext-links.reservoir_capacity=11", "reservoir_capacity=10"], 11),
        ({"reservoir_capacity": 20000.0}, {}, [], 20000),
        ({}, {"reservoir_capacity": 20000.0}, [], 20000),
        ({"reservoir_capacity": "20000.0"}, {}, [], 20000),
        ({}, {"reservoir_capacity": "20000.0"}, [], 20000),
        ({}, {}, ["reservoir_capacity=20000.0"], 20000),
    ])
    def test_parameter_precedence(self, tiny_dataset, tmp_path, entry, config, flags, expected):
        # defaults < metric entry < config parameters < flags; within one
        # source METRIC.KEY beats the bare key.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(tiny_dataset),
            "metrics": [{"name": "ext-links", "parameters": entry}],
            "parameters": config,
        }))
        out = tmp_path / "r.json"
        param_flags = [arg for flag in flags for arg in ("--param", flag)]
        assert main(["assess", "--config", str(cfg), *param_flags,
                     "--seed", "1", "--out", str(out)]) == 0
        got = json.loads(out.read_text())["results"][0]["parameters"]["reservoir_capacity"]
        assert got == expected and isinstance(got, int)

    @pytest.mark.parametrize("value, expected", [
        (2.7, "external-links parameter reservoir_capacity: expected int, got 2.7"),
        (True, "external-links parameter reservoir_capacity: expected int, got True"),
    ])
    def test_bad_metric_entry_value(self, tiny_dataset, tmp_path, capsys, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(tiny_dataset),
            "metrics": [{"name": "ext-links", "parameters": {"reservoir_capacity": value}}],
        }))
        assert main(["assess", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and expected in err, err

    def test_unknown_metric_entry_parameter(self, tiny_dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(tiny_dataset),
            "metrics": [{"name": "cc", "parameters": {"min_step": 4}}],
        }))
        assert main(["assess", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown parameter 'min_step' (accepted: mixing_multiplier, min_steps)" in err

    def test_config_file_with_flag_override(self, tiny_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(tiny_dataset),
            "metrics": ["ext-links:exact"],
            "seed": 11,
        }))
        out = tmp_path / "r.json"
        code = main(["assess", "--config", str(cfg), "--seed", "22", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["seed"] == 22

    @pytest.mark.parametrize("flags, seed_env, expected", BAD_VALUES,
                             ids=[" ".join(f) or f"LODPROBE_SEED={e}" for f, e, _ in BAD_VALUES])
    def test_bad_value_is_one_error_line(
        self, flags, seed_env, expected, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "two.nt").write_text(
            "<http://a.org/s> <http://a.org/p> <http://b.org/o> .\n"
            '<http://a.org/s> <http://a.org/q> "v" .\n'
        )
        (tmp_path / "malformed.json").write_text('{"seed": ')
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "parameters.json").write_text('{"parameters": 5}')
        (tmp_path / "metrics.json").write_text('{"metrics": [5]}')
        (tmp_path / "mock.json").write_text('{"mappings": []}')
        (tmp_path / "empty-mock.json").write_text("{}")
        (tmp_path / "pattern-mock.json").write_text('{"mappings": [{"pattern": 1, "responses": []}]}')
        (tmp_path / "typo-mock.json").write_text(
            '{"mappings": [{"pattern": "http://b.org/*", "responses": [{"stauts": 200}]}]}')
        (tmp_path / "status-mock.json").write_text(
            '{"mappings": [{"pattern": "http://b.org/*", "responses": [{"status": "abc"}]}]}')
        (tmp_path / "typo.json").write_text('{"parameters": {"total_bit": 5}}')
        (tmp_path / "bogus.json").write_text('{"metrics": [{"name": "bogus"}]}')
        (tmp_path / "fraction.json").write_text('{"parameters": {"reservoir_capacity": 2.7}}')
        (tmp_path / "string-fraction.json").write_text(
            '{"parameters": {"reservoir_capacity": "2.7"}}')
        (tmp_path / "boolean.json").write_text('{"parameters": {"mixing_multiplier": true}}')
        monkeypatch.chdir(tmp_path)
        if seed_env is None:
            monkeypatch.delenv("LODPROBE_SEED", raising=False)
        else:
            monkeypatch.setenv("LODPROBE_SEED", seed_env)

        def must_not_open(path):
            raise AssertionError(f"input {path} opened despite a bad value")

        monkeypatch.setattr(cli, "NTriplesReader", must_not_open)
        code = main([
            "assess", "--input", "two.nt",
            "--metric", "cc", "--metric", "extcon", "--metric", "ext-links",
            "--metric", "deref", "--resolver", "mock:mock.json",
            "--out", "r.json", *flags,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expected in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_mock_resolver_script(self, tmp_path):
        triples, mappings, expected = deref_fixture(2, 3, lambda p, u: "hash-ok")
        data = tmp_path / "d.nt"
        write_ntriples(data, triples)
        script = tmp_path / "mock.json"
        script.write_text(json.dumps({
            "mappings": [{"pattern": p, "responses": r} for p, r in mappings.items()]
        }))
        out = tmp_path / "r.json"
        code = main([
            "assess", "--input", str(data),
            "--metric", "deref:exact",
            "--resolver", f"mock:{script}",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"][0]["value"] == pytest.approx(expected)

    def test_live_resolver_through_a_proxy(self, lod_server, tmp_path, monkeypatch):
        # The local server is the proxy, so hostnamed URIs get a PLD and
        # reach it with no network; an IP host has no PLD and is skipped.
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{lod_server.server_port}")
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        data = tmp_path / "live.nt"
        data.write_text(
            "<http://data.example.org/r/turtle> <http://vocab.example.org/p> "
            "<http://data.example.org/page> .\n"
            "<http://data.example.org/r/turtle> <http://vocab.example.org/p> "
            "<http://docs.example.net/doc#it> .\n"
            "<http://data.example.org/r/turtle> <http://vocab.example.org/p> "
            "<http://127.0.0.1/r/turtle> .\n"
            "<http://gone.example.com/gone> <http://vocab.example.org/p> "
            "<http://docs.example.net/get-only/doc#it> .\n"
            "<http://gone.example.com/gone> <http://vocab.example.org/p> "
            "<http://data.example.org/loop> .\n"
        )
        out = tmp_path / "r.json"
        code = main(["assess", "--input", str(data), "--metric", "deref",
                     "--resolver", "live", "--out", str(out)])
        assert code == 0
        (result,) = json.loads(out.read_text())["results"]
        # 303, hash and GET-only hash pass; a direct 200, a 404 and a
        # redirect loop, the one transport error, do not
        assert result["value"] == pytest.approx(3 / 6)
        counters = result["counters"]
        assert (counters["deref_ok"], counters["transport_errors"],
                counters["uris_without_pld"]) == (3, 1, 1)


class TestCompare:
    def test_all_unique_fixture_zero_delta(self, tmp_path):
        triples, _ = conciseness_stream(50, 0, seed=3, triples_per_instance=3)
        data = tmp_path / "d.nt"
        write_ntriples(data, triples)
        out = tmp_path / "r.json"
        code = main([
            "compare", "--input", str(data),
            "--metric", "extcon", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, _schema())
        (deviation,) = report["deviations"]
        assert deviation["abs_delta"] == 0.0
        assert deviation["speedup"] > 0
        assert len(report["results"]) == 2

    def test_mixing_sweep_in_one_report(self, tiny_dataset, tmp_path, monkeypatch):
        # Config-file metric entries carry their own parameters, so one
        # compare run sweeps the multiplier and yields one row pair each.
        sweep = [
            {"name": "clustering-coefficient", "variant": "estimate",
             "parameters": {"mixing_multiplier": m}}
            for m in (0.1, 0.5, 0.7, 1.0)
        ]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"input": str(tiny_dataset), "metrics": sweep}))
        out = tmp_path / "r.json"
        graphs, adds = _count_graph_work(monkeypatch)
        code = main(["compare", "--config", str(cfg), "--seed", "6", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        estimates = [r for r in report["results"] if r["estimated"]]
        assert [r["parameters"]["mixing_multiplier"] for r in estimates] == [0.1, 0.5, 0.7, 1.0]
        assert len(report["deviations"]) == 4
        jsonschema.validate(report, _schema())
        # eight cc processors read one graph, built once
        assert (len(graphs), len(adds)) == (1, report["dataset"]["triples_parsed"])
        _assert_cc_as_standalone(report, tiny_dataset)

    def test_determinism_byte_identical_after_masking(self, tmp_path):
        triples, _ = conciseness_stream(80, 20, seed=9, triples_per_instance=3)
        data = tmp_path / "d.nt"
        write_ntriples(data, triples)
        out = tmp_path / "report.json"
        texts = []
        for _ in (1, 2):
            code = main([
                "compare", "--input", str(data),
                "--metric", "extcon", "--metric", "cc", "--metric", "ext-links",
                "--seed", "1234", "--out", str(out),
            ])
            assert code == 0
            texts.append(_mask_timings(out.read_text()))
        assert texts[0] == texts[1]

    def test_mock_script_loaded_once(self, monkeypatch):
        loads = []
        load = MockResolver.from_file

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(MockResolver, "from_file", counting_load)
        args = cli.build_parser().parse_args([
            "compare", "--input", str(DATA / "golden.nt"), "--metric", "deref",
            "--resolver", f"mock:{DATA / 'golden-mock.json'}", "--seed", "42",
        ])
        _, timed = cli._plan_run(args, compare=True)
        assert len(loads) == 1
        exact, estimate = (entry["processor"].resolver for entry in timed)
        # One script, but each variant caches its own lookups.
        assert exact is not estimate and exact.inner is estimate.inner

    def test_report_identical_across_hash_seeds(self, tmp_path):
        # Sets and dicts iterate differently per process; none of that may
        # reach the report. The child imports the checkout under test.
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        snippet = (
            f"import sys; sys.path[:0] = [{src!r}]; "
            "from lodprobe.cli import main; "
            f"sys.exit(main(['compare', '--input', {str(DATA / 'golden.nt')!r}, "
            "'--metric', 'deref', '--metric', 'ext-links', '--metric', 'extcon', "
            "'--metric', 'cc', '--seed', '42', "
            f"'--resolver', 'mock:' + {str(DATA / 'golden-mock.json')!r}, "
            "'--out', 'report.json']))"
        )
        texts = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"hash-{hash_seed}"
            cwd.mkdir()
            child = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                cwd=str(cwd),
            )
            assert child.returncode == 2, child.stderr
            texts.append(_mask_timings((cwd / "report.json").read_text()))
        assert texts[0] == texts[1]


DATA = Path(__file__).parent / "data"


def _count_graph_work(monkeypatch) -> tuple[list, list]:
    """Lists that collect every ResourceGraph made and every add_triple call."""
    graphs, adds = [], []
    init, add_triple = ResourceGraph.__init__, ResourceGraph.add_triple

    def counting_init(graph):
        init(graph)
        graphs.append(graph)

    def counting_add(graph, t):
        adds.append(t)
        return add_triple(graph, t)

    monkeypatch.setattr(ResourceGraph, "__init__", counting_init)
    monkeypatch.setattr(ResourceGraph, "add_triple", counting_add)
    return graphs, adds


def _assert_cc_as_standalone(report: dict, data: Path) -> None:
    """Each cc result of `report` has the value and counters of a
    ClusteringMetric of its own, fed the same stream."""
    triples = list(NTriplesReader(data))
    seed = report["config"]["seed"]
    rows = [(entry, result) for entry, result in zip(report["config"]["metrics"], report["results"])
            if entry["name"] == "clustering-coefficient"]
    assert rows
    for entry, result in rows:
        p = entry["parameters"]
        expected = run(ClusteringMetric(entry["variant"] == "estimate", p["mixing_multiplier"],
                                        p["min_steps"], seed), triples)
        assert (result["value"], result["counters"]) == (expected.value, expected.counters)


def _golden_args(command: str, out: Path,
                 names: tuple = ("deref", "ext-links", "extcon", "cc")) -> list[str]:
    args = [
        command, "--input", str(DATA / "golden.nt"),
        "--seed", "42", "--resolver", f"mock:{DATA / 'golden-mock.json'}", "--out", str(out),
    ]
    for name in names:
        args += ["--metric", name]
    return args


class TestSharedFacts:
    """What several processors read is derived once per run, not once per
    processor, and its time is charged to no variant."""

    @pytest.mark.parametrize("command", ["assess", "compare"])
    def test_one_pld_lookup_per_object_iri_and_subject_run(self, command, tmp_path, monkeypatch):
        expected = 0
        subject = None
        for s, _, o in NTriplesReader(DATA / "golden.nt"):
            if s is not subject:
                subject = s
                expected += s.kind is TermKind.IRI
            expected += o.kind is TermKind.IRI
        calls = []
        lookup = metrics.try_pld

        def counting(iri):
            calls.append(iri)
            return lookup(iri)

        monkeypatch.setattr(metrics, "try_pld", counting)
        assert main(_golden_args(command, tmp_path / "r.json")) == 2
        # ext-links and deref both ran, as exact and estimate in compare
        assert len(calls) == expected > 0

    def test_compare_cc_builds_one_graph(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        graphs, adds = _count_graph_work(monkeypatch)
        code = main(["compare", "--input", str(DATA / "golden.nt"), "--metric", "cc",
                     "--seed", "42", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert (len(graphs), len(adds)) == (1, report["dataset"]["triples_parsed"])
        _assert_cc_as_standalone(report, DATA / "golden.nt")

    def test_shared_lookups_charged_to_the_dataset(self, tiny_dataset, tmp_path, monkeypatch):
        # 10 object IRIs and 10 one-triple subject runs
        _assert_charged_to_dataset("try_pld", "ext-links", 20, tiny_dataset, tmp_path, monkeypatch)

    def test_compare_extcon_digests_each_subject_run_once(self, tmp_path, monkeypatch):
        runs, subject = 0, None
        for s, _, _ in NTriplesReader(DATA / "golden.nt"):
            if s != subject:
                runs, subject = runs + 1, s
        digested = []
        digest = metrics.hash128
        monkeypatch.setattr(metrics, "hash128", lambda data: digested.append(data) or digest(data))
        out = tmp_path / "r.json"
        assert main(["compare", "--input", str(DATA / "golden.nt"), "--metric", "extcon",
                     "--seed", "42", "--out", str(out)]) == 2
        results = json.loads(out.read_text())["results"]
        assert [r["counters"]["total_instances"] for r in results] == [runs, runs]
        assert len(digested) == len(set(digested)) == runs > 0

    def test_shared_digests_charged_to_the_dataset(self, tiny_dataset, tmp_path, monkeypatch):
        # one digest per subject run, read by both variants
        _assert_charged_to_dataset("hash128", "extcon", 10, tiny_dataset, tmp_path, monkeypatch)


def _assert_charged_to_dataset(name: str, metric: str, calls: int, dataset, tmp_path,
                               monkeypatch) -> None:
    """`compare --metric METRIC` calls `metrics.NAME`, slowed by 5 ms, `calls`
    times, and the time lands in the dataset's elapsed, in neither variant."""
    delay = 0.005
    made = []
    real = getattr(metrics, name)

    def slow(arg):
        made.append(arg)
        time.sleep(delay)
        return real(arg)

    monkeypatch.setattr(metrics, name, slow)
    out = tmp_path / "r.json"
    code = main(["compare", "--input", str(dataset), "--metric", metric,
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, _schema())
    slept = delay * len(made)
    assert len(made) == calls
    assert report["dataset"]["elapsed_seconds"] >= slept
    for result in report["results"]:
        assert result["elapsed_seconds"] < slept / 4, result


def _golden_compare(tmp_path, *names: str) -> dict:
    """The masked report of `compare` on golden.nt with `names`, in order."""
    out = tmp_path / "r.json"
    assert main(_golden_args("compare", out, names)) == 2
    return json.loads(_mask_timings(out.read_text()))


class TestFinalizeOrder:
    """Processors that read no graph finalize first and the graph readers
    last; each processor is dropped once its result is built. Reports keep
    entry order."""

    @pytest.mark.parametrize("names", [("cc", "extcon", "deref"), ("deref", "extcon", "cc")])
    def test_results_independent_of_other_metrics_and_order(self, names, tmp_path):
        report = _golden_compare(tmp_path, *names)
        canonical = [cli.METRIC_ALIASES[name] for name in names]
        assert [(r["metric"], r["estimated"]) for r in report["results"]] == [
            (metric, estimated) for metric in canonical for estimated in (False, True)]
        assert [d["metric"] for d in report["deviations"]] == canonical
        for k, name in enumerate(names):
            alone = _golden_compare(tmp_path, name)
            assert report["results"][2 * k:2 * k + 2] == alone["results"], name
            assert report["deviations"][k] == alone["deviations"][0], name

    @pytest.mark.parametrize("command", ["assess", "compare"])
    def test_processors_released_before_graph_readers(self, command, tmp_path, monkeypatch):
        cc = "clustering-coefficient"
        refs, facts, finalized = [], {}, []  # facts: id -> (ref, names of its readers)
        plan, finalize = cli._plan_run, cli._finalize

        def recording_plan(args, compare):
            seed, timed = plan(args, compare)
            for entry in timed:
                shared = entry["processor"].shared
                refs.append((entry["name"], weakref.ref(entry["processor"])))
                facts.setdefault(id(shared), (weakref.ref(shared), set()))[1].add(entry["name"])
            return seed, timed

        def checking_finalize(entry):
            if entry["name"] == cc:
                alive = [name for name, ref in refs if name != cc and ref() is not None]
                alive += [sorted(names) for ref, names in facts.values()
                          if cc not in names and ref() is not None]
                assert alive == [], alive
            finalized.append((entry["name"], entry["variant"]))
            return finalize(entry)

        monkeypatch.setattr(cli, "_plan_run", recording_plan)
        monkeypatch.setattr(cli, "_finalize", checking_finalize)
        args = _golden_args(command, tmp_path / "r.json", ("cc", "extcon", "ext-links", "deref"))
        gc.disable()  # reference counting alone must free them
        try:
            assert main(args) == 2
            assert [name for name, ref in refs if ref() is not None] == []
            # one SharedGraph, one SharedInstances, one SharedPlds
            assert len(facts) == 3 and all(ref() is None for ref, _ in facts.values())
        finally:
            gc.enable()
        variants = ("exact", "estimate") if command == "compare" else ("estimate",)
        assert finalized == [
            (name, variant)
            for name in ("extensional-conciseness", "external-links", "dereferenceability", cc)
            for variant in variants]


@pytest.mark.parametrize("command", ["assess", "compare"])
def test_golden_report(command, tmp_path, monkeypatch):
    """Every value of a seeded report, pinned bit for bit, however the pass
    cuts the stream into chunks.

    golden.nt mixes escape spellings of one term, blank nodes, duplicate
    instances and one malformed line; golden-<command>.json is the expected
    report with elapsed fields masked and run-specific paths replaced.
    Regenerate it only for a change that is meant to alter values.
    """
    expected = (DATA / f"golden-{command}.json").read_text()
    for chunk in (1, 7, 256):
        monkeypatch.setattr(metrics, "CHUNK_TRIPLES", chunk)
        out = tmp_path / "report.json"
        code = main(_golden_args(command, out))
        assert code == 2
        report = json.loads(_mask_timings(out.read_text()))
        report["config"].update(
            input="golden.nt", output="report.json", resolver="mock:golden-mock.json"
        )
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == expected, chunk


class TestSort:
    def test_sort_success(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_text(
            "<http://a.org/s2> <http://a.org/p> <http://a.org/o> .\n"
            "<http://a.org/s1> <http://a.org/p> <http://a.org/o> .\n"
        )
        dst = tmp_path / "out.nt"
        assert main(["sort", "--input", str(src), "--output", str(dst)]) == 0
        assert dst.read_text().startswith("<http://a.org/s1>")

    def test_sort_output_is_accepted_by_assess(self, tmp_path):
        # Two spellings of one subject around another: sorting on the raw
        # bytes would give x, a, x and conciseness would reject the output.
        src = tmp_path / "in.nt"
        src.write_text(
            '<http://a.org/x> <http://a.org/p> "1" .\n'
            '<http://a.org/a> <http://a.org/p> "2" .\n'
            '<http://a.org/\\u0078> <http://a.org/p> "3" .\n'
        )
        dst = tmp_path / "out.nt"
        assert main(["sort", "--input", str(src), "--output", str(dst)]) == 0
        assert verify_subject_contiguous(dst) is None
        code = main(["assess", "--input", str(dst), "--metric", "extcon", "--seed", "1"])
        assert code == 0

    def test_sort_missing_input(self, tmp_path):
        code = main([
            "sort", "--input", str(tmp_path / "none.nt"), "--output", str(tmp_path / "o.nt")
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--output", "--out"])
    def test_sort_missing_directory_fails_before_sorting(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "in.nt"
        src.write_text("<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n")
        paths = {"--output": str(tmp_path / "o.nt"), "--out": None}
        paths[flag] = str(tmp_path / "missing" / "f.json")

        def must_not_sort(*args):
            raise AssertionError("sorted despite a bad output path")

        monkeypatch.setattr(cli, "sort_by_subject", must_not_sort)
        argv = ["sort", "--input", str(src)]
        argv += [arg for f, p in paths.items() if p is not None for arg in (f, p)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} {paths[flag]}: directory {tmp_path / 'missing'} not found\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_sort_memory_below_one_byte_fails_before_reading(
        self, budget, tmp_path, monkeypatch, capsys
    ):
        src = tmp_path / "in.nt"
        src.write_text("".join(
            f"<http://a.org/s{i}> <http://a.org/p> <http://a.org/o> .\n" for i in range(2000)
        ))
        dst = tmp_path / "o.nt"

        def must_not_sort(*args):
            raise AssertionError("sorted despite a memory budget below 1 byte")

        monkeypatch.setattr(cli, "sort_by_subject", must_not_sort)
        argv = ["sort", "--input", str(src), "--output", str(dst), "--memory", budget]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --memory must be at least 1 byte, got {budget}\n"
        assert not dst.exists()

    def test_sort_summary_json(self, tmp_path):
        src = tmp_path / "in.nt"
        src.write_text("<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n")
        dst, out = tmp_path / "o.nt", tmp_path / "summary.json"
        assert main(["sort", "--input", str(src), "--output", str(dst),
                     "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["sort"]
        assert summary == {"lines": 1, "chunks": 0, "malformed_lines": 0}

    def test_sort_malformed_passthrough_warns(self, tmp_path, capsys):
        src = tmp_path / "in.nt"
        src.write_text(
            "<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n"
            "bad line one\n"
            "bad line two\n"
        )
        dst = tmp_path / "out.nt"
        assert main(["sort", "--input", str(src), "--output", str(dst)]) == 0
        assert "2 line(s)" in capsys.readouterr().err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_outputs_take_the_umask(umask, mode, tiny_dataset, tmp_path):
    previous = os.umask(umask)
    try:
        assert main(["assess", "--input", str(tiny_dataset), "--metric", "cc", "--seed", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["sort", "--input", str(tiny_dataset), "--output", str(tmp_path / "s.nt"),
                     "--out", str(tmp_path / "summary.json")]) == 0
    finally:
        os.umask(previous)
    for name in ("report.json", "s.nt", "summary.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


@pytest.mark.parametrize("command, flag, flags", [
    ("assess", "--out", ["--metric", "cc"]),
    ("compare", "--out", ["--metric", "cc"]),
    ("sort", "--output", []),
    ("sort", "--out", ["--output", "sorted.nt"]),
])
def test_directory_target_fails_before_reading(
    command, flag, flags, tmp_path, monkeypatch, capsys
):
    (tmp_path / "in.nt").write_text("<http://a.org/s> <http://a.org/p> <http://a.org/o> .\n")
    (tmp_path / "target").mkdir()
    monkeypatch.chdir(tmp_path)

    def must_not_read(*args):
        raise AssertionError("input read despite a directory target")

    monkeypatch.setattr(cli, "NTriplesReader", must_not_read)
    monkeypatch.setattr(cli, "sort_by_subject", must_not_read)
    assert main([command, "--input", "in.nt", *flags, flag, "target"]) == 1
    assert capsys.readouterr().err == f"error: {flag} target: is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.nt", "target"]
    assert not any((tmp_path / "target").iterdir())


def test_console_script_help():
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
