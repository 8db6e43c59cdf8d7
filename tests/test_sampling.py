"""Samplers against the closed forms they are meant to certify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subamp.amplification import eta, multiplicity_weights
from subamp.sampling import _KEYS_MAX_N, Multiset, draw, mc_stats
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


class TestDraw:
    def test_deterministic_given_seed(self):
        for scheme in SMALL.values():
            a = draw(scheme, 123)
            b = draw(scheme, 123)
            assert a.entries == b.entries
            # One other seed may collide with 123; ten in a row may not.
            assert any(draw(scheme, s).entries != a.entries for s in range(124, 134))
        # At least one scheme must differ across seeds in a short sweep.
        assert any(
            draw(SMALL["wr"], s).entries != draw(SMALL["wr"], s + 1).entries
            for s in range(5)
        )

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
            assert draw(scheme, seed).total == scheme.m

    def test_mustow_support_bound(self):
        for scheme in (MUSTow(50, 4, 30), MUSTow(LARGE_N, 4, 30)):
            for seed in range(20):
                assert draw(scheme, seed).unique_count <= 4

    def test_multiset_accessors(self):
        ms = Multiset(np.array([2, 5]), np.array([1, 3]))
        assert ms.total == 4
        assert ms.unique_count == 2
        assert ms.count_of(5) == 3
        assert ms.count_of(4) == 0
        assert ms.entries == {2: 1, 5: 3}

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


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_draw_invariants_property(seed):
    scheme = MUSTww(12, 6, 4)
    ms = draw(scheme, seed)
    assert ms.total == 4
    assert np.all(ms.counts >= 1)
    assert np.all((ms.elements >= 0) & (ms.elements < 12))
    assert np.all(np.diff(ms.elements) > 0)
