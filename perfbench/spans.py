"""Spans recorded around the benchmark's own calls into each subamp layer.

A span is named ``<layer>.<function>`` (``bench.*`` for the benchmark's own
grouping), carries its start and end on the ``perf_counter`` clock, the
index of the span that was open when it started, the repetition it belongs
to, a ``key`` naming the configuration or scheme it served, and ``work``,
a count of the units it processed (k values, trials, cells, draws). Spans
stay in memory until the worker writes them out at the end of the run.

``layer_metrics`` turns the spans of one traced repetition into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

LAYERS = ("mechanisms", "amplification", "sampling", "pld", "accountant", "harness")

# Per-layer metrics that the workloads report as values rather than times.
VALUE_FAMILIES = (
    "pld.mass_excess",
    "pld.mass_deficit",
    "accountant.floored_mass",
    "accountant.oracle_checks",
    "accountant.oracle_failures",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    key: str
    work: float


class Tracer:
    """Records one span per ``span()`` block, in memory."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, key: str = "", work: float = 0.0):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run, key, work)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Stands in for ``Tracer`` in the timed runs; records nothing."""

    spans: tuple[Span, ...] = ()

    def span(self, name: str, key: str = "", work: float = 0.0):
        return contextlib.nullcontext()


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(
    names: list[str], spans: list[Span], values: dict, wall: float
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition that took ``wall`` seconds.

    Times are inclusive times of the benchmark's calls into the layer. A
    metric of a layer or configuration the workload does not exercise is 0.
    """

    def pick(prefix: str, key: str | None = None, key_prefix: str | None = None):
        return [
            s for s in spans
            if s.name.startswith(prefix)
            and (key is None or s.key == key)
            and (key_prefix is None or s.key.startswith(key_prefix))
        ]

    def busy(chosen) -> float:
        return sum(s.end - s.start for s in chosen)

    def work(chosen) -> float:
        return sum(s.work for s in chosen)

    out: dict[str, float] = {}
    for name in names:
        match name.split("."):
            case ["pld", "discretize_s", cfg]:
                value = busy(pick("pld.discretize", cfg))
            case ["accountant", "compose_s", cfg]:
                value = busy(pick("accountant.compose_many", cfg))
            case ["accountant", "per_k_s", cfg]:
                chosen = pick("accountant.compose_many", cfg)
                value = _ratio(busy(chosen), work(chosen))
            case ["accountant", "delta_direct_s"]:
                value = busy(pick("accountant.delta_direct"))
            case ["sampling", "mc_stats_s", scheme]:
                value = busy(pick("sampling.mc_stats", key_prefix=scheme + "."))
            case ["sampling", "trials_per_s", scheme, size]:
                chosen = pick("sampling.mc_stats", f"{scheme}.{size}")
                value = _ratio(work(chosen), busy(chosen))
            case ["amplification", "grid_s", scheme]:
                value = busy(pick("amplification.", scheme))
            case ["amplification", "cells_per_s", scheme]:
                value = _ratio(work(pick("bench.grid", scheme)), busy(pick("amplification.", scheme)))
            case ["amplification", "aligned_s"]:
                value = busy(pick("amplification.aligned_profile"))
            case ["mechanisms", "profile_s"]:
                value = busy(pick("mechanisms.profile"))
            case ["mechanisms", "calls"]:
                value = float(len(pick("mechanisms.")))
            case ["harness", "bootstrap_s"]:
                value = busy(pick("harness.run_bootstrap"))
            case ["harness", "dpsgd_s"]:
                value = busy(pick("harness.run_dpsgd"))
            case ["harness", "draws_per_s"]:
                chosen = pick("harness.")
                value = _ratio(work(chosen), busy(chosen))
            case [layer, "share"] if layer in LAYERS:
                value = _ratio(busy(pick(layer + ".")), wall)
            case ["trace", "overhead_s"]:
                continue  # needs the untraced runs; the launcher fills it in
            case _ if any(name.startswith(f + ".") or name == f for f in VALUE_FAMILIES):
                value = float(values.get(name, 0.0))
            case _:
                raise ValueError(f"no rule computes per-layer metric {name!r}")
        out[name] = value
    return out
