"""Samplers against the closed forms they are meant to certify."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subamp
from subamp.amplification import eta, multiplicity_weights
from subamp.sampling import (
    _KEYS_MAX_N, Multiset, _block_size, _draw_values_block, _subsets, draw, mc_stats,
)
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

SMALL = {
    "poisson": Poisson(0.3, n=10),
    "wor": WOR(10, 3),
    "wr": WR(10, 3),
    "mustwo": MUSTwo(10, 5, 3),
    "mustow": MUSTow(10, 5, 3),
    "mustww": MUSTww(10, 5, 3),
}
# Populations above _KEYS_MAX_N take the per-row rng.choice path of _subsets.
LARGE_N = _KEYS_MAX_N + 1
LARGE = {"wor_large": WOR(LARGE_N, 3), "mustow_large": MUSTow(LARGE_N, 5, 3)}


def _entries(scheme, seed):
    ms = draw(scheme, seed)
    return dict(zip(ms.elements.tolist(), ms.counts.tolist()))


class TestDraw:
    def test_deterministic_given_seed(self):
        for scheme in SMALL.values():
            a = _entries(scheme, 123)
            assert _entries(scheme, 123) == a
            # One other seed may collide with 123; ten in a row may not.
            assert any(_entries(scheme, s) != a for s in range(124, 134))
        # At least one scheme must differ across seeds in a short sweep.
        assert any(_entries(SMALL["wr"], s) != _entries(SMALL["wr"], s + 1) for s in range(5))

    def test_full_wor_is_everything_once(self):
        ms = draw(WOR(7, 7), 0)
        assert ms.elements.tolist() == list(range(7))
        assert ms.counts.tolist() == [1] * 7

    @pytest.mark.parametrize(
        "tag", ["wor", "wr", "mustwo", "mustow", "mustww", "wor_large", "mustow_large"]
    )
    def test_total_is_m(self, tag):
        scheme = {**SMALL, **LARGE}[tag]
        for seed in range(20):
            assert draw(scheme, seed).counts.sum() == scheme.m

    def test_mustow_support_bound(self):
        for scheme in (MUSTow(50, 4, 30), MUSTow(LARGE_N, 4, 30)):
            for seed in range(20):
                assert draw(scheme, seed).elements.size <= 4

    def test_poisson_needs_population(self):
        with pytest.raises(ValueError):
            draw(Poisson(0.5), 0)


class TestMcStats:
    def test_deterministic(self):
        a = mc_stats(SMALL["mustww"], 5000, seed=42)
        b = mc_stats(SMALL["mustww"], 5000, seed=42)
        assert a.eta_hat == b.eta_hat
        assert a.unique_mean == b.unique_mean
        assert np.array_equal(a.weight_hat, b.weight_hat)

    def test_wor_unique_is_constant(self):
        for scheme in (WOR(40, 12), WOR(LARGE_N, 12)):
            stats = mc_stats(scheme, 2000, seed=1)
            assert stats.unique_min == stats.unique_max == 12
            assert stats.unique_mean == 12.0

    @pytest.mark.parametrize("tag", sorted(SMALL))
    def test_eta_hat_within_three_se(self, tag):
        scheme = SMALL[tag]
        stats = mc_stats(scheme, 100_000, seed=20240601)
        e = eta(scheme)
        se = np.sqrt(e * (1.0 - e) / stats.trials)
        assert abs(stats.eta_hat - e) <= 3.0 * se

    @pytest.mark.parametrize("tag", ["wr", "mustwo", "mustow", "mustww"])
    def test_weights_within_three_se(self, tag):
        scheme = SMALL[tag]
        stats = mc_stats(scheme, 200_000, seed=20240602)
        w = multiplicity_weights(scheme)
        for u in range(1, scheme.m + 1):
            se = np.sqrt(w[u - 1] * (1.0 - w[u - 1]) / stats.trials)
            assert abs(stats.weight_hat[u - 1] - w[u - 1]) <= 3.0 * se, f"u={u}"

    def test_exchangeability(self):
        scheme = MUSTww(10, 5, 3)
        trials = 100_000
        first = mc_stats(scheme, trials, seed=11, probe=0)
        last = mc_stats(scheme, trials, seed=12, probe=9)
        e = eta(scheme)
        se = np.sqrt(2.0 * e * (1.0 - e) / trials)
        assert abs(first.eta_hat - last.eta_hat) <= 3.0 * se

    def test_mustwo_matches_wr_distribution(self):
        # Total-variation distance between the probe multiplicity histograms.
        trials = 300_000
        two = mc_stats(MUSTwo(10, 5, 3), trials, seed=77)
        wr = mc_stats(WR(10, 3), trials, seed=78)
        hist_two = np.concatenate(([1.0 - two.eta_hat], two.weight_hat))
        hist_wr = np.concatenate(([1.0 - wr.eta_hat], wr.weight_hat))
        tv = 0.5 * np.abs(hist_two - hist_wr).sum()
        assert tv <= 0.005

    def test_poisson_unique_matches_binomial_band(self):
        scheme = Poisson(0.1, n=300)
        stats = mc_stats(scheme, 20_000, seed=5)
        assert abs(stats.unique_mean - 30.0) <= 0.5
        assert stats.unique_min < 20
        assert stats.unique_max > 42

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_stats(WOR(10, 3), 0, seed=1)
        with pytest.raises(ValueError):
            mc_stats(WOR(10, 3), 10, seed=1, probe=10)
        with pytest.raises(ValueError, match="probe"):
            mc_stats(WOR(10, 3), 1000, seed=1, probe=0.5)
        with pytest.raises(ValueError, match="trials"):
            mc_stats(WOR(10, 3), 10.5, seed=1)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"], ids=repr)
    def test_seed_is_checked_by_the_integer_rule(self, seed):
        message = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            mc_stats(WOR(10, 3), 10, seed=seed)
        with pytest.raises(ValueError, match=message):
            draw(WOR(10, 3), seed)

    def test_multiset_validates_its_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            Multiset(np.array([0, 1]), np.array([1]))
        with pytest.raises(ValueError, match="counts must be >= 1"):
            Multiset(np.array([0, 1]), np.array([1, 0]))


class TestStages:
    """The stage loop of the samplers against one case per scheme type."""

    # The grid crosses _KEYS_MAX_N in n and b: keys below, rng.choice above.
    GRID_N = (1, 2, 7, 300, 1024, 1025, 30969, 60000)
    GRID_B = (1, 3, 50, 200, 1024, 1025, 3000)
    GRID_M = (1, 2, 30, 100, 2000)
    # Which (n, [b,] m) each type accepts: a stage without replacement needs
    # draws <= population.
    VALID = {
        WOR: lambda n, m: m <= n,
        WR: lambda n, m: True,
        MUSTwo: lambda n, b, m: m <= b,
        MUSTow: lambda n, b, m: b <= n,
        MUSTww: lambda n, b, m: True,
    }

    @staticmethod
    def _reference_block_size(scheme) -> int:
        match scheme:
            case Poisson() | WOR():
                work = scheme.n
            case WR(m=m):
                work = m
            case MUSTow(n=n, m=m):
                work = n + m
            case MUSTww(b=b, m=m) | MUSTwo(b=b, m=m):
                work = b + m
        return max(16, min(8192, 4_000_000 // work))

    @staticmethod
    def _reference_values_block(scheme, rng, rows):
        match scheme:
            case WOR(n=n, m=m):
                return _subsets(rng, rows, n, m)
            case WR(n=n, m=m):
                return rng.integers(0, n, size=(rows, m))
            case MUSTwo(n=n, b=b, m=m):
                stage1 = rng.integers(0, n, size=(rows, b))
                picks = _subsets(rng, rows, b, m)
            case MUSTow(n=n, b=b, m=m):
                stage1 = _subsets(rng, rows, n, b)
                picks = rng.integers(0, b, size=(rows, m))
            case MUSTww(n=n, b=b, m=m):
                stage1 = rng.integers(0, n, size=(rows, b))
                picks = rng.integers(0, b, size=(rows, m))
        return np.take_along_axis(stage1, picks, axis=1)

    @pytest.mark.parametrize("cls", [WOR, WR, MUSTwo, MUSTow, MUSTww], ids=lambda c: c.label)
    def test_bit_for_bit_on_grid(self, cls):
        two_stage = len(cls.stages) == 2
        grid = [
            (n, b, m) if two_stage else (n, m)
            for n in self.GRID_N for b in (self.GRID_B if two_stage else (None,))
            for m in self.GRID_M
        ]
        for params in grid:
            if not self.VALID[cls](*params):
                with pytest.raises(ValueError):
                    cls(*params)
                continue
            scheme = cls(*params)
            assert _block_size(scheme) == self._reference_block_size(scheme), scheme
            got = _draw_values_block(scheme, np.random.default_rng(3), 3)
            want = self._reference_values_block(scheme, np.random.default_rng(3), 3)
            assert got.dtype == want.dtype and got.shape == want.shape, scheme
            assert got.tobytes() == want.tobytes(), scheme

    def test_poisson_block_size(self):
        for n in self.GRID_N:
            scheme = Poisson(0.5, n=n)
            assert _block_size(scheme) == self._reference_block_size(scheme)

    @pytest.mark.parametrize("tag", sorted(SMALL))
    def test_weight_hat_length(self, tag):
        # Multiplicities above 1 need a stage with replacement.
        scheme = SMALL[tag]
        expected = 1 if tag in ("poisson", "wor") else scheme.m
        assert mc_stats(scheme, 10, seed=0).weight_hat.size == expected


# Block counts follow from the block sizes: Poisson at n = 60000 runs 5
# blocks of 66 rows in 2-row chunks, MUSTwo(10, 5, 3) 8 blocks of 8192.
THREADED = {
    "poisson": (Poisson(0.05, n=60_000), 300),
    "wor_choice": (WOR(60_000, 2000), 200),
    "mustwo_keys": (MUSTwo(10, 5, 3), 62_500),
    "mustow": (MUSTow(60_000, 3000, 2000), 200),
}


def _fingerprint(stats) -> tuple:
    """Every field of a RunStats, floats and weight_hat as their bytes."""
    return (
        stats.trials, stats.unique_min, stats.unique_mean.hex(), stats.unique_max,
        stats.eta_hat.hex(), stats.weight_hat.tobytes(),
    )


def _poisson_one_call(scheme, trials, seed, probe):
    """mc_stats's Poisson branch as one rng.random((rows, n)) call per block,
    with the block size and (seed, block index) seeding of the sampler."""
    n = scheme.n
    block = max(16, min(8192, 4_000_000 // n))
    uniques, hist = [], np.zeros(2, dtype=np.int64)
    for index, start in enumerate(range(0, trials, block)):
        rng = np.random.default_rng([seed, index])
        mask = rng.random((min(block, trials - start), n)) < scheme.gamma
        uniques.append(mask.sum(axis=1))
        hist += np.bincount(mask[:, probe], minlength=2)
    uniques = np.concatenate(uniques)
    return uniques.min(), uniques.mean(), uniques.max(), hist[1:] / trials


class TestMcStatsThreads:
    """mc_stats runs its blocks on one thread per CPU with the same streams."""

    @pytest.mark.parametrize(
        "scheme, trials",
        [(Poisson(0.1, n=3000), 3000), (Poisson(0.01, n=200_000), 50)],
        ids=["n3000", "n200000"],
    )
    def test_poisson_chunks_match_one_call(self, scheme, trials):
        # n = 3000 draws 43-row chunks, the last one partial; n = 200000
        # draws one row per chunk.
        for seed, probe in ((7, 0), (8, scheme.n - 1)):
            stats = mc_stats(scheme, trials, seed=seed, probe=probe)
            low, mean, high, weights = _poisson_one_call(scheme, trials, seed, probe)
            assert (stats.unique_min, stats.unique_max) == (low, high)
            assert stats.unique_mean == mean
            assert stats.weight_hat.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("tag", sorted(THREADED))
    def test_fixed_masks_agree(self, tag, monkeypatch):
        # A fixed affinity mask runs the threaded path on any host; four
        # threads on fewer cores, switching often, share the output arrays.
        scheme, trials = THREADED[tag]
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 4):
                monkeypatch.setattr(
                    os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                    raising=False,
                )
                runs.append(_fingerprint(mc_stats(scheme, trials, seed=11, probe=3)))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs an affinity mask of at least two CPUs",
    )
    def test_threaded_matches_one_cpu(self):
        # mc_stats in two child processes, one pinned to a single CPU (the
        # inline path) and one with this process's mask (one thread per
        # CPU): every field of RunStats must agree to the bit.
        code = (
            "import hashlib, os, sys\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from subamp.sampling import mc_stats\n"
            "from subamp.schemes import MUSTow, MUSTwo, Poisson, WOR\n"
            "print(len(os.sched_getaffinity(0)))\n"
            f"for scheme, trials in {list(THREADED.values())!r}:\n"
            "    s = mc_stats(scheme, trials, seed=5)\n"
            "    fields = (s.trials, s.unique_min, s.unique_mean.hex(), s.unique_max,\n"
            "              s.eta_hat.hex(), s.weight_hat.tobytes().hex())\n"
            "    print(hashlib.sha256(repr(fields).encode()).hexdigest())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(subamp.__file__).parents[1])}
        runs = {
            mode: subprocess.run(
                [sys.executable, "-c", code, mode], env=env, capture_output=True, text=True,
                check=True, timeout=600,
            ).stdout.splitlines()
            for mode in ("pin", "free")
        }
        assert runs["pin"][0] == "1" and int(runs["free"][0]) >= 2
        assert len(runs["pin"]) == 1 + len(THREADED)
        assert runs["pin"][1:] == runs["free"][1:]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_draw_invariants_property(seed):
    scheme = MUSTww(12, 6, 4)
    ms = draw(scheme, seed)
    assert ms.counts.sum() == 4
    assert np.all(ms.counts >= 1)
    assert np.all((ms.elements >= 0) & (ms.elements < 12))
    assert np.all(np.diff(ms.elements) > 0)
