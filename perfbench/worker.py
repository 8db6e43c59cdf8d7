"""One workload in a fresh process; started by run.py, not by hand.

Builds the workload's inputs, reports the set-up time measured from the
launcher's spawn stamp and scaled to the reference speed of the host,
then repeats the workload's fixed job until the next repetition would end
past ``--seconds``. With ``--trace 1`` it runs one warm-up repetition,
then alternates traced and untraced ones, so that the tracing overhead is
measured in the same process. Results go to ``result.json`` and the
traced spans to ``spans.jsonl`` in ``--out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the launcher just before spawning")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not (SRC / "subamp" / "__init__.py").is_file():
        print(f"perfbench: no subamp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from spans import NullTracer, Tracer, write_spans
    from workloads import REFERENCE_S, WORKLOADS, Checks, reference_s

    setup, job, scaled = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.monotonic() - args.spawned
    # Scaled to the reference speed in every workload: start-up and import
    # are interpreted Python.
    speed = REFERENCE_S / statistics.median(reference_s() for _ in range(5))
    result = {"setup_s": setup_s * speed}
    if args.setup_only:
        (args.out / "result.json").write_text(json.dumps(result))
        return 0

    # The first repetition of a process runs slower (allocator and cache
    # warm-up). The traced run discards it so that the traced and untraced
    # repetitions it compares are alike.
    cycle = ("traced", "untraced") if args.trace else ("untraced",)
    first = ("warmup",) + cycle if args.trace else cycle
    deadline = time.monotonic() + args.seconds
    walls = {"warmup": [], "traced": [], "untraced": []}
    op_times = {"warmup": [], "traced": [], "untraced": []}
    outcomes, errors, values, spans = [], [], {}, []
    for rep, mode in enumerate(itertools.chain(first, itertools.cycle(cycle))):
        tracer = Tracer(rep) if mode == "traced" else NullTracer()
        checks, rep_values = Checks(tracer, scaled), {}
        start = time.perf_counter()
        with tracer.span(f"bench.{args.workload}"):
            job(inputs, tracer, checks, rep_values)
        walls[mode].append(time.perf_counter() - start)
        op_times[mode].append(checks.times)
        outcomes.append(checks.results)
        errors += checks.errors
        spans += tracer.spans
        values = values or rep_values
        if rep + 1 >= len(first):
            slowest = max(walls["traced"] + walls["untraced"])
            if time.monotonic() + slowest > deadline:
                break

    checks = outcomes[0]
    values["accountant.oracle_checks"] = sum(1 for n in checks if n.startswith("oracle."))
    values["accountant.oracle_failures"] = sum(
        1 for n, ok in checks.items() if n.startswith("oracle.") and not ok
    )
    result.update(
        walls=walls["untraced"],
        op_times=op_times["untraced"],
        traced_op_times=op_times["traced"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=checks,
        # Every repetition runs the same inputs, so every outcome must agree.
        consistent=all(o == checks for o in outcomes),
        errors=errors,
        values=values,
    )
    write_spans(spans, args.out / "spans.jsonl")
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
