"""Benchmark of subamp: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload account --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Workloads (the reasons are also in BENCHMARK.json):

- ``account``: the accountant configurations (composition sweep, census
  sweep, large mixture, under-resolved spike) through ``discretize``,
  ``compose_many`` and ``delta_direct``; Newton inversion in ``pld``
  dominates.
- ``curve``: a DP-SGD-style privacy curve for Poisson and WOR at the census
  noise level on a 2^20 grid; the per-k FFT power in ``accountant``
  dominates.
- ``montecarlo``: ``mc_stats`` on the acceptance suite's oracle
  configurations; ``sampling`` is all of the time.
- ``drivers``: the contour grid, aligned curves and utility experiments of
  ``scripts/``; ``amplification`` and ``harness`` carry it.

Each workload runs in its own process with the BLAS and OpenMP thread
variables pinned to 1. The set-up time (interpreter start, ``import
subamp`` and building every input) is measured in ``SETUP_SAMPLES``
processes, each scaled to the reference speed of the host, and reported
as their median. The worker then repeats the workload's fixed job for
``--seconds`` and times each checked operation in each repetition;
``run_s`` is the sum over operations of their fastest time, as ``timeit``
reports the best of several runs. On montecarlo and drivers these times
are first scaled to a reference speed of the host, as the comment above
``workloads.reference_s`` explains: the host's speed swings by half or
more for tens of seconds as other tenants load it, and the median
unscaled repetition carried those swings into the run-to-run spread.
With ``--trace 1`` the worker runs a warm-up repetition and then
alternates traced and untraced ones; the per-layer metrics come from the
traced repetitions and ``trace.overhead_s`` from the difference of the
two ``run_s``.

Every checked operation counts once in ``attempted``; an operation whose
output fails its check, or that raises, counts in ``failed``. ``correct``
is false when an operation raised or when repetitions of the same inputs
disagree. The seed-commit outcome, including the known failing k=1
accountant cells, is recorded in ``perfbench/baseline.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance and each metric by name with its unit. Scratch files live
in a temporary directory inside the checkout that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from spans import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("account", "curve", "montecarlo", "drivers")
SETUP_SAMPLES = 5  # the worker plus four set-up-only processes
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(args, out: Path, deadline: float, setup_only: bool) -> dict:
    out.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], env=_child_env(), cwd=ROOT,
            stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def job_time(op_times: list[dict]) -> float:
    """Sum over operations of their fastest time over the repetitions."""
    return sum(min(rep[op] for rep in op_times) for op in op_times[0])


def measure(args, spec: dict) -> tuple[dict, dict]:
    """(run summary, metrics) of one workload run in fresh processes."""
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = [
            _spawn(args, tmp / f"setup{i}", deadline, setup_only=True)["setup_s"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        res = _spawn(args, tmp / "run", deadline, setup_only=False)
        spans = read_spans(tmp / "run" / "spans.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["setup_s"])

    checks = res["checks"]
    failed = sum(1 for ok in checks.values() if not ok)
    summary = {
        "correct": not res["errors"] and res["consistent"],
        "attempted": len(checks),
        "failed": failed,
    }
    for err in res["errors"]:
        print(f"# operation raised: {err}", file=sys.stderr)
    for name, ok in checks.items():
        if not ok:
            print(f"# check failed: {name}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": job_time(res["op_times"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "bound_ratio": res["values"]["bound_ratio"],
            "pass_rate": 1.0 - failed / len(checks),
        }
        names = [m["name"] for m in spec["end_to_end"]]
        print(f"# {len(res['walls'])} timed repetitions, median wall "
              f"{statistics.median(res['walls']):.4f} s; setup samples {setups}", file=sys.stderr)
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_rep: dict[int, list] = {}
        for s in spans:
            per_rep.setdefault(s.run, []).append(s)
        root_name = f"bench.{args.workload}"
        reps = []
        for rep_spans in per_rep.values():
            root = next(s for s in rep_spans if s.name == root_name)
            reference = sum(s.end - s.start for s in rep_spans if s.name == "bench.reference")
            wall = root.end - root.start - reference
            reps.append(layer_metrics(names, rep_spans, res["values"], wall))
        metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
        metrics["trace.overhead_s"] = (
            job_time(res["traced_op_times"]) - job_time(res["op_times"])
        )
        print(f"# {len(res['walls'])} untraced and {len(reps)} traced repetitions", file=sys.stderr)

    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return summary, {n: {"value": float(metrics[n]), "unit": units[n]} for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        lines = ["# provenance " + json.dumps(provenance())]
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = {}
        for workload in chosen:
            args.workload = workload
            summary, metrics = measure(args, spec)
            lines += [f"{workload} {n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
            runs[workload] = (summary, metrics)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("\n".join(lines))
    if len(runs) == 1:
        summary, metrics = next(iter(runs.values()))
    else:
        summaries = [s for s, _ in runs.values()]
        summary = {
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
        }
        metrics = {f"{w}.{n}": m for w, (_, ms) in runs.items() for n, m in ms.items()}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
