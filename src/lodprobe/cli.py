"""Command-line entry points: assess, sort, compare.

One pass over the input feeds every configured metric processor, in the
chunks that `metrics.derived_chunks` cuts: the facts that several
processors read (the PLD of each IRI, each subject run's instance
signature, the resource graph) are derived once per chunk, before the
processors see it. Each processor's elapsed time is
accumulated around its own consume/finalize calls, so exact-vs-estimate
comparisons reflect each variant's own work; reading, parsing and the
shared derivation are reported once, as the dataset's elapsed time. After
the pass the processors that read no graph finalize first and the graph
readers last, and each processor is released once its result is built, so
exact cc's neighbor sets sit over the graph alone; results are still
reported in entry order. Reports are JSON, written atomically (temp file +
rename), and echo the full configuration including the seed so any run
can be reproduced from its report alone.

Exit codes: 0 success, 2 success but the input had parse errors, 1 fatal.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

from . import __version__
from .deref import LiveResolver, MockResolver
from .extsort import sort_by_subject, write_atomically
from .metrics import (
    ClusteringMetric,
    ConcisenessMetric,
    DerefMetric,
    ExtLinksMetric,
    SharedGraph,
    SharedInstances,
    SharedPlds,
    SortOrderViolation,
    derived_chunks,
)
from .ntriples import NTriplesReader

SEED_ENV_VAR = "LODPROBE_SEED"

METRIC_ALIASES = {
    "dereferenceability": "dereferenceability",
    "deref": "dereferenceability",
    "external-links": "external-links",
    "ext-links": "external-links",
    "ext_links": "external-links",
    "extensional-conciseness": "extensional-conciseness",
    "extcon": "extensional-conciseness",
    "conciseness": "extensional-conciseness",
    "clustering-coefficient": "clustering-coefficient",
    "cc": "clustering-coefficient",
}

# Each metric's parameters and their defaults: its constructor's keyword
# defaults, bar `seed` and `shared`.
DEFAULTS = {
    processor.name: {
        name: p.default for name, p in inspect.signature(processor).parameters.items()
        if p.default is not p.empty and name not in ("seed", "shared")
    }
    for processor in (ExtLinksMetric, ConcisenessMetric, DerefMetric, ClusteringMetric)
}
_PARAM_NAMES = sorted({key for params in DEFAULTS.values() for key in params})


# Expected JSON type of each config-file key, at the top level and in a
# metric object; null counts as unset, as the report's config echo writes it.
_CONFIG_SHAPE = {"input": str, "resolver": str, "output": str, "parameters": dict, "metrics": list}
_METRIC_SHAPE = {"name": str, "variant": str, "parameters": dict}
_JSON_TYPES = {str: "a string", dict: "an object", list: "a list"}


class UsageError(ValueError):
    pass


def _convert(kind: type, value, source: str):
    """kind(value), or a UsageError that names where the value came from.

    A boolean is never a number here, and an int is never rounded from a
    fractional one (`2.7`); `20000.0` is the int 20000 wherever given. A
    string for an int reads as a JSON number does: an int, or else a float
    with an integral value.
    """
    try:
        number = value
        if kind is int and isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                number = float(value)
        if isinstance(number, bool) or (kind is int and isinstance(number, float)
                                        and not number.is_integer()):
            raise ValueError
        return kind(number)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{source}: expected {kind.__name__}, got {value!r}") from None


def _normalise_metric_entry(entry) -> dict:
    """Accept `name[:variant]` strings or {name, variant, parameters} maps
    (the config-file form, which allows parameter sweeps: the same metric
    may appear several times with different parameters)."""
    if isinstance(entry, str):
        name, _, variant = entry.partition(":")
        parameters = {}
    else:
        name = entry.get("name") or ""
        variant = entry.get("variant") or ""
        parameters = dict(entry.get("parameters") or {})
    canonical = METRIC_ALIASES.get(name.strip().lower())
    if canonical is None:
        raise UsageError(f"unknown metric {name!r} (choose from: "
                         f"{', '.join(sorted(set(METRIC_ALIASES.values())))})")
    variant = (variant or "estimate").strip().lower()
    if variant not in ("exact", "estimate"):
        raise UsageError(f"variant must be exact or estimate, not {variant!r}")
    for key in parameters:
        if key not in DEFAULTS[canonical]:
            raise UsageError(f"metric {name!r}: unknown parameter {key!r} "
                             f"(accepted: {', '.join(DEFAULTS[canonical])})")
    return {"name": canonical, "variant": variant, "parameters": parameters}


def _canonical_param(key: str, where: str) -> str:
    """`key` when it is a bare parameter name, or `metric.name` when it is
    `scope.name` for a parameter of the metric that `scope` names (any name
    --metric accepts); any other key is a UsageError."""
    scope, dot, name = key.rpartition(".")
    if not dot and name in _PARAM_NAMES:
        return name
    metric = METRIC_ALIASES.get(scope.lower())
    if metric is not None and name in DEFAULTS[metric]:
        return f"{metric}.{name}"
    raise UsageError(f"{where}: unknown parameter {key!r} (accepted: "
                     f"{', '.join(_PARAM_NAMES)}, each bare or as METRIC.KEY)")


def _parse_params(pairs: list[str]) -> dict[str, str]:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        params[_canonical_param(key.strip(), "--param")] = value.strip()
    return params


def _metric_params(metric: str, sources: list[tuple[str, dict]]) -> dict:
    """Defaults, then each (label, parameters) source in turn, a later one
    winning; within a source `metric.key` beats bare `key`."""
    merged = dict(DEFAULTS[metric])
    for key, default in DEFAULTS[metric].items():
        for label, params in sources:
            for candidate in (f"{metric}.{key}", key):
                if candidate in params:
                    merged[key] = _convert(type(default), params[candidate], f"{label} {candidate}")
                    break
    return merged


def _build_resolver(spec: str | None):
    if spec is None or spec == "live":
        return LiveResolver()
    if spec.startswith("mock:"):
        return MockResolver.from_file(spec[len("mock:"):])
    raise UsageError(f"--resolver must be 'live' or 'mock:<script>', got {spec!r}")


def _build_processor(metric: str, variant: str, p: dict, seed: int, resolver, shared):
    """A processor of `metric`, reading the run's one `SharedInstances`,
    `SharedGraph` or `SharedPlds`: `shared(kind)`, made for its first reader."""
    estimated = variant == "estimate"
    if metric == "extensional-conciseness":
        return ConcisenessMetric(estimated, **p, seed=seed, shared=shared(SharedInstances))
    if metric == "clustering-coefficient":
        return ClusteringMetric(estimated, **p, seed=seed, shared=shared(SharedGraph))
    if metric == "external-links":
        return ExtLinksMetric(estimated, **p, seed=seed, shared=shared(SharedPlds))
    return DerefMetric(estimated, resolver, **p, seed=seed, shared=shared(SharedPlds))


def _stream_into(reader: NTriplesReader, timed_processors: list) -> float:
    """Single pass over `derived_chunks`: each processor consumes each
    derived chunk, its elapsed accumulating around its own call. Returns
    the seconds spent outside those calls: reading, parsing and the shared
    derivation."""
    clock = time.perf_counter
    own = 0.0
    start = clock()
    for chunk in derived_chunks(reader, [e["processor"] for e in timed_processors]):
        own += clock() - start
        for entry in timed_processors:
            consume = entry["processor"].consume
            t0 = clock()
            consume(chunk)
            entry["elapsed"] += clock() - t0
        start = clock()
    return own + clock() - start


def _finalize(entry) -> dict:
    """The entry's result; a conciseness estimate whose filter ends above
    its target false-positive rate also prints one warning to stderr."""
    clock = time.perf_counter
    processor = entry["processor"]
    t0 = clock()
    result = processor.finalize()
    entry["elapsed"] += clock() - t0
    if isinstance(processor, ConcisenessMetric) and processor.estimated:
        f = processor._filter
        if (fpr := f.current_fpr()) > f.fpr_threshold:
            print(f"warning: {result.metric} estimate: the filter's final false-positive "
                  f"rate {fpr:.4g} is above fpr_threshold {f.fpr_threshold:g}; "
                  f"raise total_bits", file=sys.stderr)
    return asdict(replace(result, elapsed_seconds=entry["elapsed"]))


def _finalize_all(timed: list) -> list[dict]:
    """Each entry's result, in entry order. Entries that read no
    `SharedGraph` finalize first and the graph readers last, each in entry
    order, and each processor is dropped once its result is built: exact
    cc then builds its neighbor sets over the graph alone, and the graph
    is freed with its last reader."""
    results: list = [None] * len(timed)
    order = sorted(range(len(timed)),
                   key=lambda i: isinstance(timed[i]["processor"].shared, SharedGraph))
    for i in order:
        results[i] = _finalize(timed[i])
        timed[i]["processor"] = None
    return results


def _config_echo(args, seed: int, timed: list) -> dict:
    return {
        "input": str(args.input),
        "seed": seed,
        "resolver": args.resolver,
        "output": str(args.out) if args.out else None,
        "metrics": [
            {"name": e["name"], "variant": e["variant"], "parameters": e["parameters"]}
            for e in timed
        ],
    }


def _write_report(report: dict, out_path: str | None) -> None:
    if out_path is None:
        return
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    write_atomically(out_path, [text.encode("utf-8")])


def _resolve_seed(args, config_file: dict) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _convert(int, env, SEED_ENV_VAR)
    if "seed" in config_file:
        return _convert(int, config_file["seed"], f"seed in {args.config}")
    return int.from_bytes(os.urandom(8), "big") >> 1


def _check_shape(obj: dict, shape: dict, where: str) -> None:
    for key, kind in shape.items():
        if obj.get(key) is not None and not isinstance(obj[key], kind):
            raise UsageError(f"{where}: {key!r} must be {_JSON_TYPES[kind]}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise UsageError(f"--config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: the top level must be an object")
    _check_shape(config, _CONFIG_SHAPE, f"--config {path}")
    config["parameters"] = {
        _canonical_param(key, f"--config {path}: parameters"): value
        for key, value in (config.get("parameters") or {}).items()
    }
    for i, entry in enumerate(config.get("metrics") or []):
        if isinstance(entry, dict):
            _check_shape(entry, _METRIC_SHAPE, f"--config {path}: metrics[{i}]")
        elif not isinstance(entry, str):
            raise UsageError(f"--config {path}: 'metrics' must hold strings or objects")
        try:  # checked here, since --metric flags leave the list unread
            _normalise_metric_entry(entry)
        except UsageError as exc:
            raise UsageError(f"--config {path}: metrics[{i}]: {exc}") from None
    return config


def _merge_config(args, config_file: dict) -> None:
    """Config file fills in whatever the flags left unset; flags win."""
    if not args.input and config_file.get("input"):
        args.input = config_file["input"]
    if not args.metric and config_file.get("metrics"):
        args.metric = list(config_file["metrics"])
    if args.resolver is None and config_file.get("resolver"):
        args.resolver = config_file["resolver"]
    if args.out is None and config_file.get("output"):
        args.out = config_file["output"]


def _check_out_dir(flag: str, path: str | None) -> None:
    """Fail before any work when `path` is a directory or has no directory
    to be written in."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise UsageError(f"{flag} {path}: is a directory")
    if not target.parent.is_dir():
        raise UsageError(f"{flag} {path}: directory {target.parent} not found")


def _plan_run(args, compare: bool) -> tuple[int, list]:
    """Seed and processors for a run, built before the input is opened.

    Deref processors share one inner resolver but each wraps it in its own
    CachedResolver, so exact and estimate each pay for their own lookups.
    Ext-links and deref processors share one `SharedPlds`, conciseness
    processors one `SharedInstances` and clustering processors one
    `SharedGraph`, so each fact about the stream is derived once per run.
    The entries are the only holders of the processors, and the processors
    the only holders of the resolver and the shared facts: once
    `_finalize_all` drops an entry's processor, what only it read is freed.
    """
    config_file = _load_config_file(args.config)
    _merge_config(args, config_file)
    if not args.input:
        raise UsageError("--input is required")
    if not Path(args.input).exists():
        raise UsageError(f"input not found: {args.input}")
    if not args.metric:
        raise UsageError("at least one --metric is required")
    _check_out_dir("--out", args.out)

    seed = _resolve_seed(args, config_file)
    cli_params = _parse_params(args.param)
    entries = [_normalise_metric_entry(m) for m in args.metric]

    if compare:
        expanded = []
        for entry in entries:
            for variant in ("exact", "estimate"):
                expanded.append({**entry, "variant": variant})
        entries = expanded

    resolver = None
    if any(entry["name"] == "dereferenceability" for entry in entries):
        resolver = _build_resolver(args.resolver)

    timed, shared = [], cache(lambda kind: kind())
    for entry in entries:
        name, variant = entry["name"], entry["variant"]
        merged = _metric_params(name, [
            (f"{name} parameter", entry["parameters"]),
            (f"--config {args.config}: parameter", config_file.get("parameters", {})),
            ("parameter", cli_params),
        ])
        try:
            processor = _build_processor(name, variant, merged, seed, resolver, shared)
        except ValueError as exc:
            shown = ", ".join(f"{k}={v}" for k, v in merged.items())
            raise UsageError(f"{name}:{variant} ({shown}): {exc}") from exc
        timed.append({
            "name": name, "variant": variant, "parameters": merged,
            "processor": processor, "elapsed": 0.0,
        })
    return seed, timed


def _cmd_assess_or_compare(args, compare: bool) -> int:
    try:
        seed, timed = _plan_run(args, compare)
    except ValueError as exc:  # a bad value in the flags, environment or config
        raise UsageError(str(exc)) from exc

    reader = NTriplesReader(args.input)
    try:
        shared_seconds = _stream_into(reader, timed)
        results = _finalize_all(timed)
    except SortOrderViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: lodprobe sort --input <file> --output <sorted-file>", file=sys.stderr)
        return 1

    deviations = None
    if compare:
        # Each configured entry expanded to (exact, estimate) at rows 2k, 2k+1.
        deviations = []
        for k in range(0, len(timed), 2):
            exact, estimate = results[k], results[k + 1]
            deviations.append({
                "metric": timed[k]["name"],
                "exact_value": exact["value"],
                "estimate_value": estimate["value"],
                "abs_delta": abs(exact["value"] - estimate["value"]),
                "speedup": (
                    exact["elapsed_seconds"] / estimate["elapsed_seconds"]
                    if estimate["elapsed_seconds"] > 0 else 0.0
                ),
            })

    report = {
        "tool": {"name": "lodprobe", "version": __version__},
        "config": _config_echo(args, seed, timed),
        "dataset": {
            **asdict(reader.summary),
            "elapsed_seconds": shared_seconds,
            "first_failures": [asdict(f) for f in reader.failures],
        },
        "results": results,
        "deviations": deviations,
    }
    _write_report(report, args.out)

    print(f"lodprobe {__version__} · {args.input}")
    print(
        f"  triples {reader.summary.triples_parsed}"
        f" · parse errors {reader.summary.parse_errors}"
        f" · seed {seed}"
    )
    for r in results:
        kind = "estimate" if r["estimated"] else "exact"
        print(f"  {r['metric']:<28} {kind:<9} value={r['value']:.6f}"
              f"  ({r['elapsed_seconds']:.3f}s)")
    if deviations:
        for d in deviations:
            print(f"  Δ {d['metric']:<26} |exact-estimate|={d['abs_delta']:.6f}"
                  f"  speedup={d['speedup']:.2f}x")
    if args.out:
        print(f"  report written to {args.out}")

    return 2 if reader.summary.parse_errors else 0


def _cmd_sort(args) -> int:
    if args.memory < 1:
        raise UsageError(f"--memory must be at least 1 byte, got {args.memory}")
    if not Path(args.input).exists():
        raise UsageError(f"input not found: {args.input}")
    _check_out_dir("--output", args.output)
    _check_out_dir("--out", args.out)
    summary = sort_by_subject(args.input, args.output, args.memory)
    print(
        f"sorted {summary.lines} lines in {summary.chunks or 1} chunk(s)"
        f" -> {args.output}"
    )
    if summary.malformed_lines:
        print(f"warning: {summary.malformed_lines} line(s) without a parseable "
              f"subject were passed through", file=sys.stderr)
    if args.out:
        _write_report({"tool": {"name": "lodprobe", "version": __version__},
                       "sort": asdict(summary)}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodprobe",
        description="Streaming RDF dataset quality assessment, exact or approximate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_assess_args(p):
        p.add_argument("--input", help="N-Triples file to assess")
        p.add_argument("--metric", action="append", default=[],
                       metavar="NAME[:exact|:estimate]",
                       help="metric to run; repeatable")
        p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="metric parameter override; repeatable")
        p.add_argument("--seed", type=int, default=None,
                       help=f"run seed (beats ${SEED_ENV_VAR} and config file)")
        p.add_argument("--resolver", default=None, metavar="live|mock:SCRIPT",
                       help="resolver for dereferenceability (default live)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--config", default=None, help="JSON config file; flags win")

    p_assess = sub.add_parser("assess", help="run metrics over a dataset")
    add_assess_args(p_assess)

    p_compare = sub.add_parser(
        "compare", help="run exact and estimate variants, report deviations"
    )
    add_assess_args(p_compare)

    p_sort = sub.add_parser("sort", help="subject-sort an N-Triples file")
    p_sort.add_argument("--input", required=True)
    p_sort.add_argument("--output", required=True)
    p_sort.add_argument("--memory", type=int, default=64 * 1024 * 1024,
                        help="chunk memory budget in bytes, at least 1")
    p_sort.add_argument("--out", default=None,
                        help="also write the sort summary as JSON here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sort":
            return _cmd_sort(args)
        return _cmd_assess_or_compare(args, compare=args.command == "compare")
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
