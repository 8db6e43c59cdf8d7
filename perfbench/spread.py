"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload curve --runs 10 [--out FILE]

Runs ``run.py`` once per seed 1..runs and prints, per metric, the median
and quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread, which is the distance between the quartiles as a share of the
median. ``--out``
writes the same summary, with every run's values and check counts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in runs[-1]["metrics"].items()
        ), flush=True)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload,
        "runs": len(runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": [r["correct"] for r in runs],
        "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
    }
    for name, s in summary["metrics"].items():
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
