"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload monitor --seeds 1-10 [--trace 1]

Each run is a separate ``perfbench/run.py`` process with
``BENCHMARK.json``'s ``run_seconds``.  For every metric the script prints
the median of the runs and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  ``--out`` also writes the runs
(with the workload's own metrics each run printed by name) and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        named = {}
        for line in lines[:-1]:
            _, name, value, *unit = line.split()
            named[name] = [float(value), " ".join(unit)]
        runs.append({"seed": seed, **result, "named": named})
        print(f"seed {seed} ({time.perf_counter() - began:.0f} s): " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if args.trace == 0
        ), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        spread = None
        if len(values) > 1 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        bound = bounds.get(name)
        summary[name] = {"median": median, "iqr_share": spread, "bound": bound}
        flag = "" if bound is None or spread is None else (
            " ok" if spread < bound / 3 else " WIDE")
        print(f"{name:40s} median {median:14.6g}  spread {spread}"
              f"  bound {bound}{flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
