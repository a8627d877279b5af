"""lodprobe benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload lod-assess --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the directory holding `src/lodprobe`).
It generates the workload from `--seed` (workloads.py) and runs the real
`lodprobe` CLI on it as separate single-threaded processes in a closed
loop: one client, one lodprobe process at a time. `--trace 0` repeats the
operation for about `--seconds` seconds and reports the end-to-end
metrics, its times scaled by the speed probe (probe.py) that runs on the
same CPU; `--trace 1` calls the CLI's `main` in this process three times,
untraced, traced (tracer.py) and untraced again, and reports the
per-layer metrics and the tracing overhead. Every output is
checked; metric definitions and checks are listed in README.md.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`failed` leaves out the sort-spill composition probe, a known defect of
the program that is printed and counted in the printed failed_ratio and
in `cli.compose_probe_failed` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, SHORT, Tracer  # noqa: E402

END_TO_END = [("throughput_tps", "triples/s"), ("peak_rss_mib", "MiB"), ("setup_s", "s")]
SETUP_REPEATS = 7
SETUP_BEFORE = 3
MIN_OPERATIONS = 2
CHILD_TIMEOUT_S = 150
# the probe's time at the reference speed: times are reported as if the
# CPU ran at the speed where one probe sample takes this long
REFERENCE_PROBE_S = 0.001
PROBE_NEAREST = 5
KIB_PER_MIB = 1024
SAMPLES_PREFIX = "throughput_tps of each operation:"

ENTRY = "import sys; from lodprobe.cli import main; sys.exit(main())"


class Launcher:
    """Runs one command at a time in a child of launcher.py.

    A child's ru_maxrss starts from its parent's high-water mark, so
    lodprobe is started from that small helper, not from this process,
    which holds the generated data in memory.
    """

    def __init__(self, env: dict, cpu: int):
        # its own process group, so an interrupted run can stop it and its child
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, start_new_session=True)
        os.sched_setaffinity(self._proc.pid, {cpu})  # lodprobe inherits it

    def run(self, argv: list[str], log: Path) -> dict:
        request = {"argv": argv, "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        return json.loads(reply)

    def close(self, interrupted: bool) -> None:
        if interrupted:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


class Probe:
    """The speed probe (probe.py), pinned to lodprobe's CPU. It stops when
    its standard input closes, also when this process is killed."""

    def __init__(self, env: dict, cpu: int, path: Path):
        self.path = path
        self._proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(path)],
                                      env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        os.sched_setaffinity(self._proc.pid, {cpu})
        self._proc.stdout.readline()  # "ready": no lodprobe run overlaps its start

    def stop(self) -> None:
        if not self._proc.stdin.closed:
            self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def samples(self) -> list[tuple[float, float]]:
        """The (end, duration) samples of the stopped probe."""
        with open(self.path, encoding="ascii") as samples:
            return [tuple(map(float, line.split())) for line in samples]


def probe_time(samples: list[tuple[float, float]], op: dict) -> float:
    """Median probe time while `op` ran, or over the PROBE_NEAREST samples
    nearest its middle when fewer fall inside (a set-up run is short)."""
    inside = [d for t, d in samples if op["start"] <= t <= op["end"]]
    if len(inside) < PROBE_NEAREST:
        middle = (op["start"] + op["end"]) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [d for _, d in nearest[:PROBE_NEAREST]]
    return statistics.median(inside)


def mask_timings(text: str) -> str:
    """The report determinism rule: only elapsed_seconds and speedup vary."""
    text = re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', text)
    return re.sub(r'"speedup": [0-9.e+-]+', '"speedup": 0', text)


class Bench:
    """Runs and checks one workload's operations and counts the outcomes."""

    def __init__(self, workload: workloads.Workload, launcher: Launcher, root: Path):
        self.w = workload
        self.launcher = launcher
        self.schema = json.loads((root / "src/lodprobe/report_schema.json").read_text("utf-8"))
        self.reference: str | None = None  # the first output, masked or digested
        self.verify_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.probe_attempted = 0
        self.probe_failed = 0
        self.errors: list[str] = []

    def lodprobe(self, args: list[str], log: str) -> dict:
        return self.launcher.run([sys.executable, "-c", ENTRY, *args], self.w.directory / log)

    def count(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def setup_run(self) -> dict:
        """The command on the first subject block; returns process stats."""
        op = self.lodprobe(self.w.setup_args, "setup.log")
        self.count([] if op["exit"] == 0 else [f"set-up run exit code {op['exit']}"])
        return op

    def operation(self) -> tuple[dict, dict | None]:
        """One untraced operation, checked; returns (process stats, report)."""
        self.w.output.unlink(missing_ok=True)
        op = self.lodprobe(self.w.args, "op.log")
        errors, report = self.check(op["exit"])
        if self.w.name == "sort-spill":
            self._probe()
        self.count(errors)
        return op, report

    def check(self, exit_code: int) -> tuple[list[str], dict | None]:
        if self.w.name == "sort-spill":
            return self._check_sorted(exit_code), None
        return self._check_report(exit_code)

    def _check_report(self, exit_code: int) -> tuple[list[str], dict | None]:
        import jsonschema

        w, truth, errors = self.w, self.w.truth, []
        if exit_code != w.expected_exit:
            errors.append(f"exit code {exit_code}, expected {w.expected_exit}")
        try:
            text = w.output.read_text("utf-8")
            report = json.loads(text)
        except (OSError, ValueError) as exc:
            return errors + [f"no readable report: {exc}"], None
        errors += [f"schema: {e.message}" for e in
                   jsonschema.Draft7Validator(self.schema).iter_errors(report)]
        if errors:
            return errors, None
        for key in ("lines_read", "triples_parsed", "parse_errors"):
            if report["dataset"][key] != truth[key]:
                errors.append(f"dataset.{key} {report['dataset'][key]}, expected {truth[key]}")
        for result in report["results"]:
            expected = truth.get(result["metric"])
            # criterion 6: with room for every object PLD the estimate is exact
            exhaustive = (result["metric"] == "external-links" and
                          result["parameters"].get("reservoir_capacity", 0) >= truth["object_plds"])
            if expected is not None and (not result["estimated"] or exhaustive):
                if result["value"] != expected:
                    errors.append(f"{result['metric']} value {result['value']!r}, "
                                  f"expected {expected!r}")
        masked = mask_timings(text)
        if self.reference is None:
            self.reference = masked
        elif masked != self.reference:
            errors.append("masked report differs from the first report of this seed")
        return errors, report

    def _check_sorted(self, exit_code: int) -> list[str]:
        """The first output is checked in full; later ones must equal it."""
        from lodprobe.extsort import verify_subject_contiguous

        if exit_code != 0:
            return [f"sort exit code {exit_code}"]
        data = self.w.output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is not None:
            return [] if digest == self.reference else ["sorted output differs from the first"]
        lines = data.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        errors = []
        if len(lines) != self.w.truth["lines"]:
            errors.append(f"sorted output has {len(lines)} lines, input {self.w.truth['lines']}")
        elif workloads.multiset_digest(lines) != self.w.truth["digest"]:
            errors.append("sorted output is not a permutation of the input")
        start = time.perf_counter()
        bad_line = verify_subject_contiguous(self.w.output)
        self.verify_s = time.perf_counter() - start
        if bad_line is not None:
            errors.append(f"sorted output: subject reappears at line {bad_line}")
        if not errors:
            self.reference = digest
        return errors

    def _probe(self) -> None:
        """Sort, then assess, the mixed-spelling file (a known defect)."""
        d = self.w.directory
        probe = [["sort", "--input", str(d / "probe.nt"), "--output", str(d / "probe-sorted.nt")],
                 ["assess", "--input", str(d / "probe-sorted.nt"), "--metric", "extcon",
                  "--seed", str(self.w.seed), "--out", str(d / "probe-report.json")]]
        self.probe_attempted += 1
        for args in probe:
            if self.lodprobe(args, "probe.log")["exit"] != 0:
                self.probe_failed += 1
                return

    def failed_ratio_line(self) -> str:
        attempted = self.attempted + self.probe_attempted
        failed = self.failed + self.probe_failed
        line = (f"  {'failed_ratio':<16} {failed / attempted:<14.6f} fraction"
                f"  ({failed} of {attempted} operations failed")
        if self.probe_attempted:
            line += (f"; {self.probe_failed} of {self.probe_attempted} composition probes"
                     " failed: sort output rejected by assess, a known defect")
        return line + ")"


def tail_percentile(samples: list[float]):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        index = math.ceil(p / 100 * n) - 1
        if n - 1 - index >= 10:
            return p, ordered[index]
    return None


def measured(bench: Bench, seconds: float, probe: Probe) -> tuple[dict, list[str]]:
    """Operations back to back until `seconds` have passed (at least two);
    set-up samples are spread between them, so both medians cover the same
    stretch of time. Each wall time is scaled to the reference speed by the
    probe's time while it ran, so the machine's speed swings cancel out."""
    w = bench.w
    bench.setup_run()  # unmeasured: caches byte-compiled modules
    setup_ops = [bench.setup_run() for _ in range(SETUP_BEFORE)]
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        ops.append(bench.operation()[0])
        setup_ops.append(bench.setup_run())
    while len(setup_ops) < SETUP_REPEATS:
        setup_ops.append(bench.setup_run())
    elapsed = time.perf_counter() - start
    probe.stop()
    samples = probe.samples()
    speeds = [REFERENCE_PROBE_S / probe_time(samples, op) for op in ops]
    walls = [op["wall_s"] * speed for op, speed in zip(ops, speeds)]
    setup = [op["wall_s"] * REFERENCE_PROBE_S / probe_time(samples, op) for op in setup_ops]
    rss = [op["maxrss_kib"] / KIB_PER_MIB for op in ops]
    metrics = {
        "throughput_tps": statistics.median(w.statements / t for t in walls),
        "peak_rss_mib": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    raw_tps = statistics.median(w.statements / op["wall_s"] for op in ops)
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:g} {w.statements / tail[1]:.1f}" if tail
                 else "no tail percentile (fewer than 11 samples)")
    lines = [
        f"workload {w.name} seed {w.seed}: {w.statements} statements, {len(ops)} operations"
        f" in {elapsed:.1f} s (closed loop, 1 client, 1 lodprobe process at a time)",
        f"  {'throughput_tps':<16} {metrics['throughput_tps']:<14.1f} triples/s"
        f"  median of {len(ops)} at the reference speed; {tail_text}",
        f"  {'':<16} {raw_tps:<14.1f} triples/s  unscaled median; the CPU ran at"
        f" x{statistics.median(speeds):.3f} of the reference speed ({len(samples)} probe samples)",
        f"  {'peak_rss_mib':<16} {metrics['peak_rss_mib']:<14.2f} MiB"
        f"  median of {len(ops)} (range {min(rss):.2f}-{max(rss):.2f})",
        f"  {SAMPLES_PREFIX} {' '.join(f'{w.statements / t:.1f}' for t in walls)}",
        f"  {'setup_s':<16} {metrics['setup_s']:<14.4f} s"
        f"  median of {len(setup)} runs on the first subject block, at the reference speed",
        bench.failed_ratio_line(),
    ]
    return metrics, lines


def _in_process(args: list[str], log: Path, tracer: Tracer | None) -> tuple[int, float, float]:
    """One call of lodprobe's main in this process, traced if `tracer` is
    given; returns (exit code, wall seconds, user+sys seconds)."""
    from lodprobe.cli import main

    with open(log, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            if tracer is not None:
                tracer.install()
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            code = main(args) if tracer is None else tracer.run_span("main", main, args)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            if tracer is not None:
                tracer.uninstall()
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return code, wall, cpu


def traced(bench: Bench) -> tuple[dict, list[str]]:
    """Untraced, traced and untraced again, all in this process and all
    checked; the overhead is the traced wall time over the mean of the two
    untraced ones around it."""
    from lodprobe.graph import exact_global_cc

    w, truth = bench.w, bench.w.truth
    tracer = Tracer()
    runs = []
    for t in (None, tracer, None):
        w.output.unlink(missing_ok=True)
        code, wall, cpu = _in_process(w.args, w.directory / "in-process.log", t)
        errors, report = bench.check(code)
        bench.count(errors)
        runs.append((wall, cpu, report))
    if w.name == "sort-spill":
        bench._probe()
    (wall_u1, cpu_u1, report), (wall, _, traced_report), (wall_u2, cpu_u2, _) = runs
    untraced_wall = (wall_u1 + wall_u2) / 2

    m = tracer.layer_metrics()
    m["cli.cpu_s"] = (cpu_u1 + cpu_u2) / 2
    m["cli.compose_probe_failed"] = bench.probe_failed
    m["extsort.verify_s"] = bench.verify_s
    # the tracer's own memory measurements are not tracing overhead
    measure_s = tracer.span_totals().get("trace.measure", [0, 0.0])[1]
    m["trace.overhead_ratio"] = (wall - measure_s) / untraced_wall
    if report is not None and traced_report is not None:
        m["ntriples.parse_errors"] = traced_report["dataset"]["parse_errors"]
        if traced_report["deviations"]:
            for d in traced_report["deviations"]:
                m[f"metrics.{SHORT[d['metric']]}.abs_delta"] = d["abs_delta"]
            elapsed = {(r["metric"], r["estimated"]): r["elapsed_seconds"] for r in report["results"]}
            exact = elapsed.get(("extensional-conciseness", False))
            if exact:
                m["metrics.extcon.est_over_exact"] = (
                    elapsed[("extensional-conciseness", True)] / exact)
        else:
            for r in traced_report["results"]:
                if r["metric"] in truth:
                    m[f"metrics.{SHORT[r['metric']]}.abs_delta"] = abs(r["value"] - truth[r["metric"]])
                elif r["metric"] == "clustering-coefficient" and tracer.graphs:
                    exact_value = 1.0 - exact_global_cc(tracer.graphs[-1])
                    m["metrics.cc.abs_delta"] = abs(r["value"] - exact_value)

    units = dict(LAYER_METRICS)
    lines = [f"workload {w.name} seed {w.seed}: traced run, {w.statements} statements,"
             f" traced {wall:.2f} s ({measure_s:.2f} s of it measuring memory)"
             f" vs untraced {wall_u1:.2f} s before and {wall_u2:.2f} s after, in-process"
             f" (overhead x{m['trace.overhead_ratio']:.2f})"]
    lines += tracer.ledger()
    lines.append("  per-layer metrics:")
    lines += [f"    {name:<34} {m[name]:<16.6g} {units[name]}" for name, _ in LAYER_METRICS]
    lines.append(bench.failed_ratio_line())
    return m, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src/lodprobe/cli.py").is_file():
        print(f"error: no lodprobe sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    work = Path(".perfbench") / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(root / "src"))
    tempfile.tempdir = str(work.resolve())
    os.environ.pop("LODPROBE_SEED", None)  # the seed comes from --seed only
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=tempfile.tempdir)

    # a terminated run still stops its processes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = min(os.sched_getaffinity(0))  # lodprobe and the probe share it
    launcher = Launcher(env, cpu)
    probe = None
    finished = False
    try:
        workload = workloads.generate(args.workload, args.seed, work)
        bench = Bench(workload, launcher, root)
        if args.trace:
            values, lines = traced(bench)
            declared = LAYER_METRICS
        else:
            probe = Probe(env, cpu, work / "probe.txt")
            values, lines = measured(bench, args.seconds, probe)
            declared = END_TO_END
        finished = True
    finally:
        if probe is not None:
            probe.stop()
        launcher.close(interrupted=not finished)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for line in lines:
        print(line)
    for error in bench.errors[:20]:
        print(f"  check failed: {error}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
