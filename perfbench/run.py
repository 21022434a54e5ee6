"""End-to-end benchmark of the ingest, search and monitor pipelines.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Each run builds its inputs from ``--seed``, measures for about
``--seconds``, checks the outputs against independent references, prints
the workload's own metrics by name with their units, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  A failed correctness gate
prints ``"correct": false`` and exits with status 1.

``--scale`` shrinks every input (smoke runs and the benchmark's tests).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "search", "monitor")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if not Path("BENCHMARK.json").is_file():
        print("perfbench: no BENCHMARK.json in the working directory",
              file=sys.stderr)
        return 2
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import importlib

    from common import GateError

    workload = importlib.import_module(args.workload)
    try:
        outcome = workload.run(
            args.seed, args.seconds, bool(args.trace), args.scale
        )
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    manifest = json.loads(Path("BENCHMARK.json").read_text())
    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload:8s} {name:28s} {value:14.6g} {unit}")
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    values = outcome.layers if args.trace else outcome.end_to_end
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in declared
    }
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
