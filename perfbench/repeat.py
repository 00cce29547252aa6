"""Repeat the benchmark over seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/repeat.py --seeds 1-10 > set.json
    python3 perfbench/repeat.py --workloads products --seeds 1-5 --trace 1

Each (workload, seed) is one run of ``run.py`` with the run length from
BENCHMARK.json, one after another.  Prints one JSON object: per workload and
metric the values in seed order, their median, quartiles and spread (the
distance between the quartiles over the median), the same for the printed
``query_p50_s`` and ``query_max_s``, plus every run's attempted and failed
counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Figures run.py prints on the lines before its result, not in it.
PRINTED_ONLY = ("query_p50_s", "query_max_s")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    if len(values) < 2:  # one seed: no quartiles to take
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        printed: dict[str, list[float]] = {}
        runs = []
        for seed in seed_list(args.seeds):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"]})
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} FAILED", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in proc.stdout.splitlines():
                name, _, rest = line.partition(" = ")
                if name in PRINTED_ONLY:
                    printed.setdefault(name, []).append(float(rest.split()[0]))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        out[workload] = {
            "runs": runs,
            "metrics": {name: summary(v) for name, v in values.items()},
            "printed": {name: summary(v) for name, v in printed.items()},
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
