"""Run the whole benchmark: every workload over ten seeds, then traced.

    python3 perfbench/spread.py [--out perfbench/baseline.json]

From the checkout root, runs `run.py --trace 0` once per seed 1-10 and
workload, one run at a time, then one `--trace 1` run per workload on
seed 1, and prints every run's report. For each end-to-end metric it then
prints the median over seeds, the quartiles (statistics.quantiles with
n=4) and the distance between them as a share of the median, and the
throughput tail percentile over the operations of all ten runs. With
`--out` it appends one entry per workload (date, interpreter, core count,
seeds, input size, the summaries and the traced per-layer values) to the
JSON list in that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import SAMPLES_PREFIX, tail_percentile  # noqa: E402

SEEDS = list(range(1, 11))

INPUT_SIZES = {
    "lod-assess": f"{workloads.LOD_SUBJECTS * 10} triples, {workloads.LOD_SUBJECTS} subjects",
    "wide-compare": f"{workloads.WIDE_SUBJECTS * 10} triples + {workloads.WIDE_MALFORMED}"
                    f" malformed lines, {workloads.WIDE_SUBJECTS} subjects",
    "sort-spill": f"{workloads.SORT_SUBJECTS * 10} lines,"
                  f" {workloads.SORT_MEMORY_BUDGET // (1024 * 1024)} MiB budget",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float]]:
    """One run.py run; prints its report and returns its result line and
    its per-operation throughputs."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    *report, last = done.stdout.strip().splitlines()
    print("\n".join(report))
    print(f"  ({time.perf_counter() - start:.1f} s for the whole run)", flush=True)
    samples = [float(x) for line in report if line.strip().startswith(SAMPLES_PREFIX)
               for x in line.split(":", 1)[1].split()]
    return json.loads(last), samples


def pooled_tail(samples: list[float]) -> str:
    """Lowest-throughput tail: the highest wall-time percentile with ten
    samples beyond it, over every operation of every seed."""
    tail = tail_percentile([1 / x for x in samples])
    if tail is None:
        return f"no tail percentile ({len(samples)} samples)"
    return f"p{tail[0]:g} {1 / tail[1]:.6g} over {len(samples)} operations"


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    entries = []
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, seconds, trace=0) for seed in SEEDS]
        results = [result for result, _ in runs]
        samples = [x for _, run_samples in runs for x in run_samples]
        traced, _ = run_once(workload, SEEDS[0], seconds, trace=1)
        summaries = {name: {"unit": metric["unit"],
                            **summarise([r["metrics"][name]["value"] for r in results])}
                     for name, metric in results[0]["metrics"].items()}
        print(f"{workload}: {sum(r['correct'] for r in results + [traced])} of"
              f" {len(results) + 1} runs correct")
        for name, s in summaries.items():
            print(f"  {name:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
                  f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
        tail = pooled_tail(samples)
        print(f"  throughput_tps   {tail}")
        entries.append({
            "date": time.strftime("%Y-%m-%d"),
            "workload": workload,
            "seeds": SEEDS,
            "run_seconds": seconds,
            "input": INPUT_SIZES[workload],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "correct": all(r["correct"] for r in results + [traced]),
            "end_to_end": summaries,
            "throughput_tail": tail,
            "per_layer": {"seed": SEEDS[0], "metrics": traced["metrics"]},
        })
    if args.out:
        previous = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(previous + entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
