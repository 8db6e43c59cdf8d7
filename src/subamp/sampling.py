"""Executable subsampling: draw real multisets under all six schemes.

This module is the Monte-Carlo ground truth for the closed-form eta and
multiplicity weights in :mod:`subamp.amplification`, and the source of the
unique-sample statistics. Draws are deterministic given a seed. mc_stats
derives one substream per fixed-size block of trials from (seed, block
index), so results are reproducible and independent of any scheduling or
parallel partitioning, while staying vectorized inside each block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schemes import MUSTow, MUSTwo, MUSTww, Poisson, SamplingScheme, WOR, WR, population_size

__all__ = ["Multiset", "RunStats", "draw", "mc_stats"]

# Target number of scalar random variates held in memory per block.
_BLOCK_BUDGET = 4_000_000
_MAX_BLOCK = 8192


@dataclass(frozen=True)
class Multiset:
    """A drawn subsample: distinct element indices with their counts."""

    elements: np.ndarray  # sorted distinct indices in [0, n)
    counts: np.ndarray  # same length, all >= 1

    def __post_init__(self):
        if self.elements.shape != self.counts.shape:
            raise ValueError("elements and counts must have equal length")
        if np.any(self.counts < 1):
            raise ValueError("all multiset counts must be >= 1")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def unique_count(self) -> int:
        return int(self.elements.size)

    @property
    def entries(self) -> dict[int, int]:
        return {int(e): int(c) for e, c in zip(self.elements, self.counts)}

    def count_of(self, element: int) -> int:
        idx = np.searchsorted(self.elements, element)
        if idx < self.elements.size and self.elements[idx] == element:
            return int(self.counts[idx])
        return 0


@dataclass(frozen=True)
class RunStats:
    """Aggregates over repeated draws of one scheme."""

    trials: int
    unique_min: int
    unique_mean: float
    unique_max: int
    eta_hat: float
    weight_hat: np.ndarray  # P-hat[probe element appears exactly u times], u=1..len


def _work_per_trial(scheme: SamplingScheme) -> int:
    match scheme:
        case Poisson():
            return population_size(scheme)
        case WOR(n=n, m=m):
            return max(n, m)
        case WR(m=m):
            return m
        case MUSTow(b=b):
            return 2 * b
        case MUSTww(b=b, m=m) | MUSTwo(b=b, m=m):
            return b + m
    raise TypeError(f"not a sampling scheme: {scheme!r}")


def _block_size(scheme: SamplingScheme) -> int:
    return max(16, min(_MAX_BLOCK, _BLOCK_BUDGET // _work_per_trial(scheme)))


def _draw_values_block(
    scheme: SamplingScheme, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """Final-subsample element values, one row per trial (fixed-size schemes)."""
    match scheme:
        case WOR(n=n, m=m):
            out = np.empty((rows, m), dtype=np.int64)
            for i in range(rows):
                out[i] = rng.choice(n, size=m, replace=False)
            return out
        case WR(n=n, m=m):
            return rng.integers(0, n, size=(rows, m))
        case MUSTww(n=n, b=b, m=m):
            stage1 = rng.integers(0, n, size=(rows, b))
            picks = rng.integers(0, b, size=(rows, m))
            return np.take_along_axis(stage1, picks, axis=1)
        case MUSTwo(n=n, b=b, m=m):
            stage1 = rng.integers(0, n, size=(rows, b))
            # Uniform m-subset of the b stage-I slots via smallest random keys.
            keys = rng.random((rows, b))
            positions = np.argpartition(keys, m - 1, axis=1)[:, :m]
            return np.take_along_axis(stage1, positions, axis=1)
    raise TypeError(f"_draw_values_block does not handle {scheme!r}")


def _draw_mustow_block(
    scheme: MUSTow, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(stage-I selections, multinomial counts) for MUSTow, one row per trial."""
    n, b, m = scheme.n, scheme.b, scheme.m
    selections = np.empty((rows, b), dtype=np.int64)
    for i in range(rows):
        selections[i] = rng.choice(n, size=b, replace=False)
    counts = rng.multinomial(m, np.full(b, 1.0 / b), size=rows)
    return selections, counts


def draw(scheme: SamplingScheme, seed: int) -> Multiset:
    """One subsample under the scheme, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    match scheme:
        case Poisson(gamma=g):
            n = population_size(scheme)
            included = np.flatnonzero(rng.random(n) < g)
            return Multiset(included, np.ones(included.size, dtype=np.int64))
        case MUSTow():
            sel, cnt = _draw_mustow_block(scheme, rng, 1)
            keep = cnt[0] > 0
            order = np.argsort(sel[0][keep])
            return Multiset(sel[0][keep][order], cnt[0][keep][order])
        case _:
            values = _draw_values_block(scheme, rng, 1)[0]
            elements, counts = np.unique(values, return_counts=True)
            return Multiset(elements, counts)


def _unique_per_row(values: np.ndarray) -> np.ndarray:
    ordered = np.sort(values, axis=1)
    return 1 + (np.diff(ordered, axis=1) != 0).sum(axis=1)


def mc_stats(
    scheme: SamplingScheme, trials: int, seed: int, probe: int = 0
) -> RunStats:
    """Monte-Carlo statistics over independent draws.

    Tracks the distinct-element count of every trial and the multiplicity of
    the probe element (default element 0, interchangeable with any other by
    exchangeability). eta_hat is the fraction of trials containing the probe.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    n = population_size(scheme)
    if not 0 <= probe < n:
        raise ValueError(f"probe element must lie in [0, {n}), got {probe}")

    max_mult = 1 if isinstance(scheme, (Poisson, WOR)) else scheme.m
    block = _block_size(scheme)
    uniques = np.empty(trials, dtype=np.int64)
    mult_hist = np.zeros(max_mult + 1, dtype=np.int64)

    done = 0
    block_index = 0
    while done < trials:
        rows = min(block, trials - done)
        rng = np.random.default_rng([seed, block_index])
        match scheme:
            case Poisson(gamma=g):
                mask = rng.random((rows, n)) < g
                uniques[done : done + rows] = mask.sum(axis=1)
                probe_mult = mask[:, probe].astype(np.int64)
            case MUSTow():
                sel, cnt = _draw_mustow_block(scheme, rng, rows)
                uniques[done : done + rows] = (cnt > 0).sum(axis=1)
                probe_mult = (cnt * (sel == probe)).sum(axis=1)
            case _:
                values = _draw_values_block(scheme, rng, rows)
                uniques[done : done + rows] = _unique_per_row(values)
                probe_mult = (values == probe).sum(axis=1)
        mult_hist += np.bincount(
            np.minimum(probe_mult, max_mult), minlength=max_mult + 1
        )
        done += rows
        block_index += 1

    weight_hat = mult_hist[1:] / trials
    return RunStats(
        trials=trials,
        unique_min=int(uniques.min()),
        unique_mean=float(uniques.mean()),
        unique_max=int(uniques.max()),
        eta_hat=float(weight_hat.sum()),
        weight_hat=weight_hat,
    )
