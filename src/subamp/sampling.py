"""Executable subsampling: draw real multisets under all six schemes.

This module is the Monte-Carlo ground truth for the closed-form eta and
multiplicity weights in :mod:`subamp.amplification`, and the source of the
unique-sample statistics. Draws are deterministic given a seed. mc_stats
derives one substream per fixed-size block of trials from (seed, block
index) and runs the blocks on one thread per CPU (numerics._map_blocks),
each writing only its own trials, so results are the same for any number
of threads. Memory is the number of threads times one block's draws.

Poisson draws one uniform per element. A fixed-size scheme draws its
``stages`` in order: stage I from range(n), then each later stage as
positions into the one before (WOR and WR are stage I alone). A stage with
replacement is ``rng.integers``; one without is ``_subsets``, a uniform
k-subset per row, which ranks random keys when n <= _KEYS_MAX_N and calls
``rng.choice`` per row above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _integer, _map_blocks
from .schemes import Poisson, SamplingScheme, population_size

__all__ = ["Multiset", "RunStats", "draw", "mc_stats"]

# Target number of scalar random variates held in memory per block.
_BLOCK_BUDGET = 4_000_000
_MAX_BLOCK = 8192
# mc_stats draws a Poisson block's uniforms at most this many at a time.
_CHUNK = 1 << 17
# _subsets ranks random keys over the whole population up to this n, and
# calls rng.choice once per row above it. Per row, choice costs about 7.5 us
# of call overhead and keys about 9 ns per population element: at k <= n/10
# the two break even near n = 1000, keys win below and choice above.
_KEYS_MAX_N = 1024


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


@dataclass(frozen=True)
class RunStats:
    """Aggregates over repeated draws of one scheme."""

    trials: int
    unique_min: int
    unique_mean: float
    unique_max: int
    eta_hat: float
    weight_hat: np.ndarray  # P-hat[probe element appears exactly u times], u=1..len


def _block_size(scheme: SamplingScheme) -> int:
    """Trials per block: _BLOCK_BUDGET over the variates one trial draws.

    Poisson draws n uniforms. Stage I draws its population's keys without
    replacement and its draws with it; each later stage draws its draws.
    """
    if isinstance(scheme, Poisson):
        work = population_size(scheme)
    else:
        (population, draws, with_replacement), *later = scheme.stages
        work = getattr(scheme, draws if with_replacement else population)
        work += sum(getattr(scheme, draws) for _, draws, _ in later)
    return max(16, min(_MAX_BLOCK, _BLOCK_BUDGET // work))


def _subsets(rng: np.random.Generator, rows: int, n: int, k: int) -> np.ndarray:
    """A uniform k-subset of range(n) per row, in no particular order."""
    if n <= _KEYS_MAX_N:
        keys = rng.random((rows, n))
        return np.argpartition(keys, k - 1, axis=1)[:, :k]
    out = np.empty((rows, k), dtype=np.int64)
    for i in range(rows):
        out[i] = rng.choice(n, size=k, replace=False)
    return out


def _draw_values_block(scheme: SamplingScheme, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Final-subsample element values, one row per trial (fixed-size schemes).

    One draw per stage of scheme.stages: stage I from range(n), each later
    stage positions into the one before, overwritten in place by the values
    at those positions, so a block holds two stages' draws at most.
    """
    values = None
    for population, draws, with_replacement in scheme.stages:
        size, k = getattr(scheme, population), getattr(scheme, draws)
        if with_replacement:
            picks = rng.integers(0, size, size=(rows, k))
        else:
            picks = _subsets(rng, rows, size, k)
        if values is not None:
            picks += values.shape[1] * np.arange(rows)[:, None]
            np.take(values, picks, out=picks, mode="clip")  # "raise" buffers out
        values = picks
    return values


def _count_blocks(scheme: SamplingScheme, rng: np.random.Generator, rows: int):
    """The multiplicity of every element of range(n), one row per draw, yielded
    lazily as int64 blocks of at most max(1, _BLOCK_BUDGET // n) rows."""
    n = population_size(scheme)
    step = max(1, _BLOCK_BUDGET // n)
    for start in range(0, rows, step):
        size = min(step, rows - start)
        if isinstance(scheme, Poisson):
            yield (rng.random((size, n)) < scheme.gamma).astype(np.int64)
        else:
            values = _draw_values_block(scheme, rng, size) + n * np.arange(size)[:, None]
            yield np.bincount(values.ravel(), minlength=size * n).reshape(size, n)


def draw(scheme: SamplingScheme, seed: int) -> Multiset:
    """One subsample under the scheme, deterministic given the seed."""
    rng = np.random.default_rng(_integer("seed", seed, low=0))
    row = next(_count_blocks(scheme, rng, 1))[0]
    elements = np.flatnonzero(row)
    return Multiset(elements, row[elements])


def _unique_per_row(values: np.ndarray) -> np.ndarray:
    """Distinct values per row; sorts each row of values in place."""
    values.sort(axis=1)
    return 1 + np.count_nonzero(values[:, 1:] != values[:, :-1], axis=1)


def mc_stats(scheme: SamplingScheme, trials: int, seed: int, probe: int = 0) -> RunStats:
    """Monte-Carlo statistics over independent draws.

    Tracks the distinct-element count of every trial and the multiplicity of
    the probe element (default element 0, interchangeable with any other by
    exchangeability). eta_hat is the fraction of trials containing the probe.
    """
    trials = _integer("trials", trials)
    seed = _integer("seed", seed, low=0)
    n = population_size(scheme)
    if _integer("probe", probe, low=0) >= n:
        raise ValueError(f"probe element must lie in [0, {n}), got {probe}")

    max_mult = scheme.m if any(wr for _, _, wr in scheme.stages) else 1
    block = _block_size(scheme)
    uniques = np.empty(trials, dtype=np.int64)
    probe_mult = np.empty(trials, dtype=np.int64)

    def run(rows: slice) -> None:
        rng = np.random.default_rng([seed, rows.start // block])
        mine, probes = uniques[rows], probe_mult[rows]  # views of this block's trials
        if not isinstance(scheme, Poisson):
            values = _draw_values_block(scheme, rng, mine.size)
            mine[:] = _unique_per_row(values)
            probes[:] = np.count_nonzero(values == probe, axis=1)
            return
        # Uniforms in chunks of at most _CHUNK doubles, into buffers reused
        # across chunks: the same stream as one (rows, n) call.
        step = max(1, _CHUNK // n)
        u = np.empty((min(step, mine.size), n))
        mask = np.empty(u.shape, dtype=bool)
        for start in range(0, mine.size, step):
            size = min(step, mine.size - start)
            np.less(rng.random(out=u[:size]), scheme.gamma, out=mask[:size])
            mine[start : start + size] = np.count_nonzero(mask[:size], axis=1)
            probes[start : start + size] = mask[:size, probe]

    _map_blocks(run, trials, block)
    weight_hat = np.bincount(probe_mult, minlength=max_mult + 1)[1:] / trials
    return RunStats(
        trials=trials,
        unique_min=int(uniques.min()),
        unique_mean=float(uniques.mean()),
        unique_max=int(uniques.max()),
        eta_hat=float(weight_hat.sum()),
        weight_hat=weight_hat,
    )
