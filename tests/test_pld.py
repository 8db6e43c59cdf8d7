"""Loss functions, inversion, densities, discretization."""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

import subamp
from subamp.harness import calibrate_for_scheme
from subamp.pld import (
    DiscretizedPLD,
    OutOfDomainError,
    PrivacyLossModel,
    discretize,
    invert_loss,
    log_output_density,
    loss_at,
    pld_density,
    pld_density_swapped,
)
from subamp.pld import (
    _CELLS,
    _edge_probabilities,
    _inverse,
    _invert_newton,
    _loss_ceiling,
    _map_blocks,
    _sym_loss,
    _sym_loss_and_slope,
)
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from oracles import mixture_loss_mass

MODELS = {
    "poisson": PrivacyLossModel(Poisson(0.02, n=100), 2.0),
    "wor": PrivacyLossModel(WOR(1000, 200), 2.0),
    "wr": PrivacyLossModel(WR(1000, 200), 4.0),
    "mustow": PrivacyLossModel(MUSTow(10_000, 118, 200), 4.0),
    "mustww": PrivacyLossModel(MUSTww(1000, 100, 50), 4.0),
    "mustwo": PrivacyLossModel(MUSTwo(1000, 100, 50), 4.0),
}
SYMMETRIC = ["wor", "wr", "mustow", "mustww", "mustwo"]


class TestLossAt:
    def test_poisson_closed_form(self):
        model = MODELS["poisson"]
        assert loss_at(model, 1.0) == pytest.approx(
            math.log(0.02 * math.exp(1.0 / 8.0) + 0.98), rel=1e-14
        )

    def test_poisson_matches_density_ratio(self):
        # Cross-check against the log-ratio of the explicit mixture pdfs.
        model = MODELS["poisson"]
        q, sig = 0.02, 2.0
        for t in (-3.0, 0.0, 1.0, 4.5):
            fx = q * norm.pdf(t, 1.0, sig) + (1 - q) * norm.pdf(t, 0.0, sig)
            fxp = norm.pdf(t, 0.0, sig)
            assert loss_at(model, t) == pytest.approx(math.log(fx / fxp), rel=1e-12)

    @pytest.mark.parametrize("tag", SYMMETRIC)
    def test_symmetric_zero_at_origin(self, tag):
        assert loss_at(MODELS[tag], 0.0) == 0.0

    @pytest.mark.parametrize("tag", SYMMETRIC)
    def test_antisymmetry(self, tag):
        # Exact: discretize inverts only the non-negative edges and mirrors.
        model = MODELS[tag]
        t = np.linspace(-40.0, 40.0, 51)
        assert np.array_equal(loss_at(model, -t), -loss_at(model, t))

    @pytest.mark.parametrize("tag", sorted(MODELS))
    def test_strictly_increasing(self, tag):
        model = MODELS[tag]
        t = np.linspace(-60.0, 60.0, 1000)
        values = loss_at(model, t)
        assert np.all(np.diff(values) > 0.0)

    def test_symmetric_loss_matches_density_ratio(self):
        model = MODELS["wr"]
        for t in (-5.0, -0.7, 0.3, 6.0):
            direct = log_output_density(model, t) - log_output_density(model, -t)
            assert loss_at(model, t) == pytest.approx(direct, abs=1e-12)

    def test_mustow_converges_to_wr_at_full_first_stage(self):
        n, m, sig = 500, 80, 3.0
        ow = PrivacyLossModel(MUSTow(n, n, m), sig)
        wr = PrivacyLossModel(WR(n, m), sig)
        t = np.linspace(-20.0, 20.0, 101)
        assert np.max(np.abs(loss_at(ow, t) - loss_at(wr, t))) <= 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            loss_at(MODELS["wr"], math.inf)


class TestInvertLoss:
    @pytest.mark.parametrize("tag", sorted(MODELS))
    def test_roundtrip(self, tag):
        model = MODELS[tag]
        rng = np.random.default_rng(3)
        t0 = rng.uniform(-30.0, 30.0, size=100)
        s = loss_at(model, t0)
        back = invert_loss(model, s)
        assert np.max(np.abs(back - t0)) <= 1e-9

    def test_poisson_domain_error(self):
        model = MODELS["poisson"]
        with pytest.raises(OutOfDomainError):
            invert_loss(model, math.log(1.0 - 0.02) - 0.1)

    def test_wor_closed_form_matches_newton(self):
        # The closed form near 0 and in its far tails against the root
        # finder the multiset schemes use, mirrored on |s| as _inverse does.
        for model in (
            PrivacyLossModel(WOR(1000, 200), 4.0), PrivacyLossModel(WOR(30969, 100), 3.0)
        ):
            for s in (-12.0, -8.0, -2.0, -0.3, 0.0, 0.05, 1.5, 8.0, 12.0):
                closed = invert_loss(model, s)
                newton = float(_invert_newton(model, np.array([abs(s)]))[0])
                assert closed == pytest.approx(-newton if s < 0 else newton, abs=1e-10)

    @pytest.mark.parametrize("tag", SYMMETRIC)
    def test_odd_to_the_bit(self, tag):
        # L is odd, so t(-s) = -t(s) and the swapped density is the density.
        model = MODELS[tag]
        s = np.concatenate((np.linspace(-9.0, 9.0, 37), [1e-9, -3e-5, 7.5]))
        assert np.count_nonzero(s == 0.0) == 1
        assert np.array_equal(_inverse(model, -s), -_inverse(model, s))
        assert np.array_equal(pld_density_swapped(model, s), pld_density(model, s))

    def test_closed_form_and_newton_see_no_negative_s(self, monkeypatch):
        seen = []
        for name in ("_wor_inverse", "_invert_newton"):
            def spy(model, s, inner=getattr(subamp.pld, name)):
                seen.append(s)
                return inner(model, s)

            monkeypatch.setattr(subamp.pld, name, spy)
        s = np.linspace(-6.0, 6.0, 25)
        for tag in SYMMETRIC:
            invert_loss(MODELS[tag], s)
            pld_density(MODELS[tag], s)
            discretize(MODELS[tag], 8.0, 512)
        assert len(seen) == 3 * len(SYMMETRIC)
        assert not any(np.signbit(values).any() for values in seen)

    def test_scalar_in_scalar_out(self):
        out = invert_loss(MODELS["wr"], 0.25)
        assert isinstance(out, float)

    @pytest.mark.parametrize("tag", sorted(MODELS))
    def test_empty_in_empty_out(self, tag):
        assert invert_loss(MODELS[tag], np.array([])).shape == (0,)
        assert pld_density(MODELS[tag], np.array([])).shape == (0,)


def _census_model(scheme) -> PrivacyLossModel:
    # Noise of acceptance criterion 5(c): n=30969, m=100, C=1.5, eps'=5e-5.
    sigma_alg, _ = calibrate_for_scheme(scheme, 5e-5, 1.0 / 30969, 1.5 / 100, "classical")
    return PrivacyLossModel(scheme, sigma_alg / 1.5)


KERNEL_MODELS = pytest.mark.parametrize(
    "model",
    [
        MODELS["wr"],
        MODELS["mustow"],
        PrivacyLossModel(MUSTww(100, 20, 10), 4.0),
        PrivacyLossModel(MUSTww(1000, 10, 500), 4.0),  # 501 components
        _census_model(WR(30969, 100)),
        _census_model(MUSTow(30969, 200, 100)),
        _census_model(MUSTww(30969, 200, 100)),
    ],
    ids=["wr", "mustow", "mustww", "mixture", "census_wr", "census_mustow", "census_mustww"],
)


def _full_slope(model: PrivacyLossModel, t: np.ndarray) -> np.ndarray:
    """L'(t) = N'/N - D'/D summed over every mixture component."""
    slopes = model._mixture[0] / model.sigma**2
    out = np.zeros(t.size)
    for sign in (1.0, -1.0):
        terms = model._log_a + sign * np.multiply.outer(t, slopes)
        weights = np.exp(terms - terms.max(axis=1, keepdims=True))
        out += (weights @ slopes) / weights.sum(axis=1)
    return out


def _grid_edges(model: PrivacyLossModel, trunc_L: float, grid_r: int) -> np.ndarray:
    """Every edge -L + j dx through _inverse; -inf below Poisson's floor."""
    edges = 2.0 * trunc_L / grid_r * (np.arange(grid_r) - grid_r // 2)
    t = np.full(grid_r, -math.inf)
    inside = edges > model.loss_domain_low
    t[inside] = _inverse(model, edges[inside])
    return t


class TestNewtonKernel:
    @KERNEL_MODELS
    def test_matches_independent_route(self, model):
        # The kernel's L and L' against loss_at and a central difference of
        # loss_at, across the Newton bracket of s in [-10, 10].
        ceiling = _loss_ceiling(model, 10.0)
        t = np.linspace(-ceiling, ceiling, 2001)
        loss, slope = _sym_loss_and_slope(model, t)
        # The absolute floor covers L near 0, where log N - log D cancels
        # on both routes (they differ by up to 1.1e-15 there).
        np.testing.assert_allclose(loss, loss_at(model, t), rtol=1e-13, atol=1e-14)
        h = 1e-4
        diff = loss_at(model, t + h) - loss_at(model, t - h)
        resolved = diff > 1e-8
        assert resolved.sum() > 1500
        np.testing.assert_allclose(slope[resolved], diff[resolved] / (2.0 * h), rtol=1e-6)

    @KERNEL_MODELS
    def test_window_matches_full_sums(self, model):
        # The windowed kernel against full sums over every component, on the
        # points Newton sees: sorted grid edges, the presolve's wide linspace
        # and a scattered, unsorted subset like the late iterations' rows.
        edges = _grid_edges(model, 10.0, 4096)
        ceiling = _loss_ceiling(model, 10.0)
        span = np.linspace(-ceiling, ceiling, 4097)
        rng = np.random.default_rng(7)
        for t in (edges, span, rng.permutation(edges)[:700]):
            loss, slope = _sym_loss_and_slope(model, t)
            full = _sym_loss(model, t)
            assert np.all(np.abs(loss - full) <= 1e-13 * np.maximum(1.0, np.abs(full)))
            np.testing.assert_allclose(slope, _full_slope(model, t), rtol=1e-13, atol=0.0)


class TestEdgeProbabilities:
    """The windowed CDF pass against a full sum over every component."""

    @staticmethod
    def _full(model: PrivacyLossModel, t: np.ndarray, split: int) -> np.ndarray:
        l_vals, log_w = model._mixture
        sign = np.where(np.arange(t.size) < split, 1.0, -1.0) / model.sigma
        chunks = [slice(start, start + 4096) for start in range(0, t.size, 4096)]
        return np.concatenate([
            ndtr(np.subtract.outer(t[rows], l_vals) * sign[rows, None]) @ np.exp(log_w)
            for rows in chunks
        ])

    @pytest.mark.parametrize(
        "model, trunc_L, grid_r",
        [
            *[(MODELS[tag], 8.0, 1 << 16) for tag in ("wr", "mustow", "mustww", "mustwo")],
            # Two components: r = 2^18 makes four blocks. Poisson's negative
            # half is -inf below log(0.98), so whole blocks sum to 0.
            (MODELS["poisson"], 8.0, 1 << 18),
            (MODELS["wor"], 8.0, 1 << 18),
            # 501 components, 261-row blocks: the split at 10000 lies inside one.
            (PrivacyLossModel(MUSTww(1000, 10, 500), 4.0), 10.0, 20_000),
        ],
        ids=["wr", "mustow", "mustww", "mustwo", "poisson", "wor", "mixture"],
    )
    def test_matches_full_sum(self, model, trunc_L, grid_r):
        t = _grid_edges(model, trunc_L, grid_r)
        half = grid_r // 2
        step = _CELLS // model._mixture[0].size
        assert grid_r > 2 * step
        if isinstance(model.scheme, Poisson):
            assert np.isneginf(t[:step]).all()
        if isinstance(model.scheme, MUSTww) and model.scheme.m == 500:
            assert half % step != 0
        np.testing.assert_allclose(
            _edge_probabilities(model, t, half), self._full(model, t, half), rtol=1e-14, atol=0.0
        )

    def test_window_engages(self, monkeypatch):
        # MUSTow(10000, 118, 200), sigma=4 reaches only some of its
        # components from each block: under 0.7 of the r x K ndtr calls.
        model, grid_r, calls = MODELS["mustow"], 1 << 15, []

        def counting(x, out=None):
            calls.append(np.size(x))
            return ndtr(x, out=out)

        monkeypatch.setattr(subamp.pld, "ndtr", counting)
        discretize(model, 10.0, grid_r)
        assert sum(calls) < 0.7 * grid_r * model._mixture[0].size


class TestDensity:
    def test_poisson_normalizes(self):
        model = MODELS["poisson"]
        s = np.linspace(-10.0, 10.0, 100_001)
        omega = pld_density(model, s)
        total = np.trapezoid(omega, s)
        assert total == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("tag", ["wor", "wr", "mustow"])
    def test_symmetric_normalizes(self, tag):
        model = MODELS[tag]
        s = np.linspace(-12.0, 12.0, 20_001)
        omega = pld_density(model, s)
        assert np.trapezoid(omega, s) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("tag", ["wr", "mustow", "mustww"])
    def test_multiset_interval_masses(self, tag):
        # Where the mass sits, not only its total: omega integrated over
        # intervals of s, from the bulk out to tails of 1e-40, against
        # mixture CDFs at independently inverted interval ends.
        model = MODELS[tag]
        edges = (-4.0, -1.0, 0.0, 0.3, 1.5, 3.0, 5.0, 7.0)
        for lo, hi in zip(edges, edges[1:]):
            s = np.linspace(lo, hi, 4001)
            mass = simpson(pld_density(model, s), x=s)
            expected = mixture_loss_mass(model.scheme, model.sigma, lo, hi)
            assert mass == pytest.approx(expected, rel=1e-6, abs=0.0), (lo, hi)

    def test_wor_swap_identity(self):
        # omega_{X/X'}(s) = e^s * omega_{X'/X}(-s) on a 50-point grid.
        model = MODELS["wor"]
        s = np.linspace(-3.0, 3.0, 50)
        lhs = pld_density(model, s)
        rhs = np.exp(s) * pld_density_swapped(model, -s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_wor_derivative_matches_quotient(self):
        # The density's inverse derivative 1/L'(t) against a central
        # difference of the closed-form inverse, mirrored for s < 0.
        model = MODELS["wor"]
        s = np.linspace(-2.0, 2.0, 21)
        h = 1e-6
        quotient = (_inverse(model, s + h) - _inverse(model, s - h)) / (2 * h)
        dinv = 1.0 / _sym_loss_and_slope(model, _inverse(model, s))[1]
        assert np.max(np.abs(quotient / dinv - 1.0)) <= 1e-6

    def test_swapped_rejects_poisson(self):
        with pytest.raises(TypeError):
            pld_density_swapped(MODELS["poisson"], 0.1)


def _loss_mass(model: PrivacyLossModel, s_lo: float, s_hi: float) -> float:
    """P[s_lo <= L < s_hi]; Poisson and WOR from scipy normal CDFs."""
    scheme = model.scheme
    if not isinstance(scheme, (Poisson, WOR)):
        return mixture_loss_mass(scheme, model.sigma, s_lo, s_hi)
    sig = model.sigma
    q = scheme.gamma if isinstance(scheme, Poisson) else scheme.m / scheme.n

    def log_f(t, shift):  # log of (1 - q) N(t; 0) + q N(t; shift)
        return np.logaddexp(math.log1p(-q) + norm.logpdf(t, 0.0, sig),
                            math.log(q) + norm.logpdf(t, shift, sig))

    def loss(t):
        if isinstance(scheme, Poisson):
            return log_f(t, 1.0) - norm.logpdf(t, 0.0, sig)
        return log_f(t, 1.0) - log_f(t, -1.0)

    def invert(s):
        if isinstance(scheme, Poisson) and s <= math.log1p(-q):
            return -math.inf
        lo, hi = -1.0, 1.0
        while loss(lo) > s:
            lo *= 2.0
        while loss(hi) < s:
            hi *= 2.0
        return brentq(lambda t: loss(t) - s, lo, hi, xtol=1e-14, rtol=1e-15)

    t_lo, t_hi = invert(s_lo), invert(s_hi)
    dist = norm.sf if s_lo >= 0.0 else norm.cdf
    masses = [dist(t_lo, l, sig) - dist(t_hi, l, sig) for l in (0.0, 1.0)]
    if s_lo < 0.0:
        masses = [-m for m in masses]
    return (1.0 - q) * masses[0] + q * masses[1]


def _illinois_inverse(model: PrivacyLossModel, s: np.ndarray) -> np.ndarray:
    """t with |L(t) - s| <= 1e-12 at s < 0, by the Illinois method on loss_at.

    Shares neither _inverse's mirror nor Newton: the root lies in [lo, 0],
    since L(0) = 0 > s, and lo doubles from -1 until L(lo) <= s.
    """
    lo = np.full(s.size, -1.0)
    while np.any(far := loss_at(model, lo) > s):
        lo[far] *= 2.0
    f_lo, hi, f_hi = loss_at(model, lo) - s, np.zeros(s.size), -s
    t, kept, active = lo.copy(), np.zeros(s.size), np.arange(s.size)
    for _ in range(100):
        t_new = (lo[active] * f_hi[active] - hi[active] * f_lo[active]) / (
            f_hi[active] - f_lo[active]
        )
        f = loss_at(model, t_new) - s[active]
        t[active] = t_new
        up = f > 0.0  # the root lies below t_new: it becomes hi and lo is kept
        # Illinois: an end kept twice in a row has its value halved.
        f_lo[active[up & (kept[active] < 0.0)]] *= 0.5
        f_hi[active[~up & (kept[active] > 0.0)]] *= 0.5
        hi[active[up]], f_hi[active[up]] = t_new[up], f[up]
        lo[active[~up]], f_lo[active[~up]] = t_new[~up], f[~up]
        kept[active] = np.where(up, -1.0, 1.0)
        active = active[np.abs(f) > 1e-12]
        if active.size == 0:
            return t
    raise AssertionError(f"Illinois left {active.size} points open")


class TestDiscretize:
    def test_grid_layout(self):
        pld = discretize(MODELS["poisson"], 10.0, 2000)
        assert pld.dx == pytest.approx(0.01)
        assert pld.s[0] == -10.0
        assert pld.s[-1] == pytest.approx(10.0 - pld.dx)
        assert pld.c.shape == (2000,)

    def test_exact_masses(self):
        # Sums of c over grid-aligned intervals, from the bulk out to the far
        # tails, against independently inverted interval ends: mixture CDFs
        # for the multiset schemes, normal CDF differences for Poisson and WOR.
        for tag in ("poisson", "wor", "wr", "mustow", "mustww"):
            model = MODELS[tag]
            pld = discretize(model, 8.0, 4096)
            assert pld.c.sum() + pld.mass_outside == pytest.approx(1.0, rel=0.0, abs=1e-13)
            edges = (-4.0, -1.0, 0.0, 0.3, 1.5, 3.0, 5.0, 7.0)
            if tag == "poisson":  # the loss lies above log(0.98) = -0.0202
                edges = (-8.0, -0.01, 0.0, 0.02, 0.1, 0.5, 1.5, 3.0, 5.0, 7.0)
            cells = [round((edge + 8.0) / pld.dx) for edge in edges]
            for lo, hi in zip(cells, cells[1:]):
                expected = _loss_mass(model, pld.s[lo], pld.s[hi])
                assert pld.c[lo:hi].sum() == pytest.approx(expected, rel=1e-9, abs=0.0), (
                    tag, pld.s[lo], pld.s[hi])

    def test_poisson_mass_below_domain_is_zero(self):
        pld = discretize(MODELS["poisson"], 10.0, 100_000)
        cutoff = math.log(1.0 - 0.02)
        assert np.all(pld.c[pld.s < cutoff - pld.dx] == 0.0)
        assert pld.total_mass == pytest.approx(1.0, abs=2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize(MODELS["poisson"], 10.0, 1001)  # odd
        with pytest.raises(ValueError):
            discretize(MODELS["poisson"], -1.0, 1000)

    def test_csv_dump_roundtrip(self, tmp_path):
        pld = discretize(MODELS["wor"], 4.0, 512)
        path = tmp_path / "pld.csv"
        pld.to_csv(path)
        assert path.read_text().splitlines()[0] == "s,c"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (512, 2)
        assert np.allclose(data[:, 0], pld.s, atol=1e-10)
        assert np.allclose(data[:, 1], pld.c, rtol=1e-10)

    def test_large_mixture_memory_is_bounded(self):
        # MUSTww(1000, 10, 2000) keeps 1533 mixture components; the 40 005
        # Newton rows of r=2e4 must not be held against all of them at once.
        code = (
            "import resource\n"
            "from subamp.pld import PrivacyLossModel, discretize\n"
            "from subamp.schemes import MUSTww\n"
            "discretize(PrivacyLossModel(MUSTww(1000, 10, 2000), 4.0), 10.0, 20_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(subamp.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=600,
        )
        # ru_maxrss is in KiB on Linux and in bytes on macOS.
        peak_mb = int(out.stdout.split()[-1]) / (2**20 if sys.platform == "darwin" else 2**10)
        assert peak_mb < 400.0

    def test_needs_no_inverse_derivative(self, monkeypatch):
        # discretize inverts the edges for t alone; only the density pays for
        # the inverse derivatives (closed form for Poisson, 1/L'(t) for WOR).
        def fail(model, s):
            raise AssertionError("inverse derivative evaluated")

        monkeypatch.setattr(subamp.pld, "_poisson_inverse_derivative", fail)
        monkeypatch.setattr(subamp.pld, "_sym_loss_and_slope", fail)
        for tag in ("poisson", "wor"):
            discretize(MODELS[tag], 10.0, 2000)
        with pytest.raises(AssertionError):
            pld_density(MODELS["wor"], 0.5)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs an affinity mask of at least two CPUs",
    )
    def test_threaded_matches_one_cpu(self):
        # discretize in two child processes, one pinned to a single CPU (the
        # inline path) and one with this process's mask (one thread per
        # CPU): every c and mass_outside must agree to the bit.
        code = (
            "import hashlib, os, sys\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from subamp.pld import PrivacyLossModel, discretize\n"
            "from subamp.schemes import MUSTow, MUSTww, Poisson, WOR\n"
            "print(len(os.sched_getaffinity(0)))\n"
            "for scheme, sigma, L, r in (\n"
            "    (Poisson(0.02, n=100), 2.0, 10.0, 1 << 18),\n"
            "    (WOR(1000, 200), 2.0, 10.0, 1 << 18),\n"
            "    (MUSTow(10_000, 118, 200), 4.0, 10.0, 1 << 15),\n"
            "    (MUSTww(1000, 10, 500), 4.0, 10.0, 20_000),\n"
            "):\n"
            "    pld = discretize(PrivacyLossModel(scheme, sigma), L, r)\n"
            "    print(hashlib.sha256(pld.c.tobytes()).hexdigest(), pld.mass_outside.hex())\n"
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
        assert len(runs["pin"]) == 5
        assert runs["pin"][1:] == runs["free"][1:]

    @pytest.mark.parametrize("tag", sorted(MODELS))
    def test_inverts_each_edge_magnitude_once(self, tag, monkeypatch):
        # L is odd for every scheme but Poisson, so only s = 0, dx, ..., L
        # are inverted; Poisson inverts its edges above log(1 - q).
        model, sizes = MODELS[tag], []
        inverse = subamp.pld._inverse

        def counting(model, s):
            sizes.append(s.size)
            return inverse(model, s)

        monkeypatch.setattr(subamp.pld, "_inverse", counting)
        pld = discretize(model, 8.0, 4096)
        if tag == "poisson":
            assert sizes == [np.count_nonzero(pld.s > math.log1p(-0.02))]
        else:
            assert sizes == [4096 // 2 + 1]

    @pytest.mark.parametrize("tag", SYMMETRIC)
    def test_mirror_matches_full_grid_inversion(self, tag):
        # Reference: the negative edges inverted on their own by a bracketing
        # root finder on loss_at, then the same CDF and survival differences.
        model, trunc_L, grid_r = MODELS[tag], 8.0, 1 << 14
        pld = discretize(model, trunc_L, grid_r)
        half = grid_r // 2
        edges = pld.dx * (np.arange(grid_r) - half)
        t = np.concatenate((_illinois_inverse(model, edges[:half]), _inverse(model, edges[half:])))
        prob = _edge_probabilities(model, t, half)
        cdf = np.append(prob[:half], 1.0 - prob[half])
        survival = prob[half:]
        c = np.concatenate((np.diff(cdf), -np.diff(survival), survival[-1:]))
        assert pld.mass_outside == pytest.approx(cdf[0], rel=1e-8, abs=0.0)
        cells = c >= 1e-250
        assert cells.sum() > grid_r // 4
        assert pld.c[cells] == pytest.approx(c[cells], rel=1e-8, abs=0.0)

    @pytest.mark.parametrize(
        "scheme", [WR(1, 5), MUSTwo(1, 1, 1), MUSTow(1000, 1, 5), MUSTow(1, 1, 3)], ids=repr
    )
    def test_single_record_stage(self, scheme):
        pld = discretize(PrivacyLossModel(scheme, 2.0), 8.0, 4096)
        assert pld.c.sum() + pld.mass_outside == pytest.approx(1.0, rel=0.0, abs=1e-13)

    def test_construction_validates_masses(self):
        cases = [(1.0, [0.5, -0.25, 0.5, 0.25])]
        cases += [(trunc_L, [0.25] * 4) for trunc_L in (0.0, -1.0, math.nan, math.inf)]
        for trunc_L, c in cases:
            with pytest.raises(ValueError):
                DiscretizedPLD(
                    trunc_L=trunc_L, grid_r=4, c=np.array(c), mass_outside=0.0,
                    scheme=WOR(10, 2), sigma=1.0,
                )


def _discretize_in_child(expected: bytes) -> None:
    pld = discretize(MODELS["mustow"], 10.0, 1 << 15)
    sys.exit(0 if pld.c.tobytes() == expected else 1)


class TestMapBlocks:
    """The row-block helper of the Newton kernel and the CDF pass."""

    @pytest.fixture(params=[1, 4], ids=["one_cpu", "four_cpus"])
    def cpus(self, request, monkeypatch):
        # The helper sizes its pool from the affinity mask; a fixed mask
        # runs the threaded path on any host.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False
        )
        return request.param

    def test_every_row_once(self, cpus):
        seen = np.zeros(1000, dtype=int)

        def block(rows):
            seen[rows] += 1

        _map_blocks(block, seen.size, 64)
        assert np.all(seen == 1)
        _map_blocks(block, 0, 64)  # no rows, no blocks

    def test_block_exception_reaches_caller(self, cpus):
        error = ArithmeticError("block 7")

        def block(rows):
            if rows.start == 7 * 10:
                raise error

        with pytest.raises(ArithmeticError) as info:
            _map_blocks(block, 200, 10)
        assert info.value is error

    def test_callers_errstate_holds_in_blocks(self, cpus):
        def block(rows):
            np.log(np.zeros(2))

        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _map_blocks(block, 40, 10)

    def test_no_thread_outlives_the_call(self, cpus):
        baseline = threading.active_count()
        during = []

        def block(rows):
            during.append(threading.active_count())

        _map_blocks(block, 100, 10)
        assert (max(during) > baseline) == (cpus > 1)
        assert threading.active_count() == baseline
        discretize(MODELS["mustow"], 10.0, 1 << 15)
        assert threading.active_count() == baseline

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_fork_child_runs_discretize(self, cpus):
        # A pool kept after the parent's call would leave the child waiting
        # on threads that fork did not copy.
        expected = discretize(MODELS["mustow"], 10.0, 1 << 15).c.tobytes()
        child = multiprocessing.get_context("fork").Process(
            target=_discretize_in_child, args=(expected,)
        )
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("discretize in the forked child did not finish within 120 s")
        assert child.exitcode == 0


@given(tag=st.sampled_from(SYMMETRIC), t=st.floats(-50.0, 50.0))
@settings(max_examples=120, deadline=None)
def test_loss_antisymmetry_property(tag, t):
    model = MODELS[tag]
    assert loss_at(model, -t) == -loss_at(model, t)
