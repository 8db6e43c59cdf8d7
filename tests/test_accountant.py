"""FFT composition against quadrature, direct convolution, and its own bounds."""

import functools
import itertools
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

import subamp
from subamp.accountant import (
    AccountantResult,
    EpsilonBeyondGridError,
    _cell,
    _delta_direct,
    _powered,
    _spectrum,
    _tail as _tail_read,
    compose,
    compose_many,
    delta_direct,
)
from subamp.pld import PrivacyLossModel, _edges, discretize
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from oracles import delta_k1, gaussian_delta

POISSON_MODEL = PrivacyLossModel(Poisson(0.02, n=100), 2.0)
WOR_MODEL = PrivacyLossModel(WOR(1000, 200), 2.0)
FIG_MODEL = PrivacyLossModel(MUSTow(10_000, 118, 200), 4.0)


@pytest.fixture(scope="module")
def poisson_pld():
    return discretize(POISSON_MODEL, 10.0, 100_000)


@pytest.fixture(scope="module")
def fig_pld():
    return discretize(FIG_MODEL, 10.0, 1 << 17)


@pytest.fixture(scope="module")
def fig_pld_fine():
    # The k-sweep runs on the grid of the benchmark's sweep config.
    return discretize(FIG_MODEL, 10.0, 300_000)


class TestSingleComposition:
    def test_poisson_matches_quadrature(self, poisson_pld):
        for eps in (0.1, 0.3, 0.5):
            fft_val = compose(poisson_pld, 1, eps).delta_approx
            quad_val = delta_direct(POISSON_MODEL, eps)
            assert abs(fft_val - quad_val) <= 1e-6

    def test_wor_matches_quadrature(self):
        pld = discretize(WOR_MODEL, 10.0, 100_000)
        for eps in (0.1, 0.5, 1.0):
            fft_val = compose(pld, 1, eps).delta_approx
            quad_val = delta_direct(WOR_MODEL, eps)
            assert abs(fft_val - quad_val) <= 1e-6

    def test_multiset_matches_quadrature(self, fig_pld):
        for eps in (0.5, 1.0):
            fft_val = compose(fig_pld, 1, eps).delta_approx
            quad_val = delta_direct(FIG_MODEL, eps)
            assert abs(fft_val - quad_val) <= 1e-4

    def test_symmetric_swap_gives_same_delta(self):
        # For the two-sided schemes the swapped tail integral is identical.
        from subamp.pld import log_output_density, loss_at

        model = WOR_MODEL
        eps = 0.3
        from scipy import integrate

        def swapped(t):
            t = np.asarray(t, dtype=float)
            gain = -np.expm1(eps + loss_at(model, t))  # 1 - e^{eps - (-L(t))}
            return np.maximum(gain, 0.0) * np.exp(log_output_density(model, -t))

        # L_{X'/X}(t) = -L(t) and f_{X'}(t) = f_X(-t); substitute u = -t.
        val, _ = integrate.quad(swapped, -90.0, 90.0, limit=300)
        assert val == pytest.approx(delta_direct(model, eps), abs=1e-9)

    def test_negligible_tail_at_grid_edge(self, poisson_pld):
        eps = 10.0 - 2.0 * poisson_pld.dx
        assert compose(poisson_pld, 1, eps).delta_approx <= 1e-12


class TestBoundsAndMonotonicity:
    def test_bracketing(self, fig_pld):
        for k in (1, 10, 200):
            res = compose(fig_pld, k, 1.0)
            assert res.delta_lower <= res.delta_approx <= res.delta_upper

    def test_monotone_in_k(self, fig_pld_fine):
        cells = compose_many(fig_pld_fine, [200, 400, 600, 800, 1000], [1.0])
        lowers = [c.result.delta_lower for c in cells]
        approxs = [c.result.delta_approx for c in cells]
        uppers = [c.result.delta_upper for c in cells]
        assert all(b > a for a, b in zip(lowers, lowers[1:]))
        assert all(b > a for a, b in zip(approxs, approxs[1:]))
        assert all(b > a for a, b in zip(uppers, uppers[1:]))

    def test_monotone_in_eps(self, fig_pld):
        cells = compose_many(fig_pld, [400], [0.25, 0.5, 1.0, 2.0, 4.0])
        vals = [c.result.delta_approx for c in cells]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_refinement_shrinks_bound_gap(self):
        coarse = compose(discretize(POISSON_MODEL, 10.0, 100_000), 1, 0.1)
        fine = compose(discretize(POISSON_MODEL, 10.0, 200_000), 1, 0.1)
        gap_coarse = coarse.delta_upper - coarse.delta_lower
        gap_fine = fine.delta_upper - fine.delta_lower
        assert gap_coarse >= 1.5 * gap_fine


class TestSweep:
    def test_single_cell_matches_compose(self, poisson_pld):
        (cell,) = compose_many(poisson_pld, [3], [0.2])
        direct = compose(poisson_pld, 3, 0.2)
        assert cell.result.delta_approx == direct.delta_approx
        assert cell.result.delta_lower == direct.delta_lower

    def test_shared_spectrum_consistency(self, poisson_pld):
        cells = compose_many(poisson_pld, [2], [0.1, 0.4])
        singles = [compose(poisson_pld, 2, e).delta_approx for e in (0.1, 0.4)]
        assert [c.result.delta_approx for c in cells] == singles

    def test_errors_collected_not_raised(self, poisson_pld):
        cells = compose_many(poisson_pld, [1], [0.5, 99.0])
        assert cells[0].error is None
        assert cells[1].error is not None and cells[1].result is None

    def test_direct_convolution_cross_check(self):
        # k = 2 against an explicit linear convolution wrapped onto the grid,
        # tail summed at eps (left edges), eps - dx (centres) and eps - 2 dx
        # (right edges, plus the union bound of the mass outside the grid).
        pld = discretize(WOR_MODEL, 6.0, 512)
        r, dx = pld.grid_r, pld.dx
        full = np.convolve(pld.c, pld.c)  # support starts at -2L
        wrapped = np.zeros(r)
        for idx in range(full.size):
            s_val = -12.0 + idx * dx
            j = round((s_val + 6.0) / dx) % r
            wrapped[j] += full[idx]
        res = compose(pld, 2, 0.5)
        refs = [_tail(pld, wrapped, eps) for eps in (0.5, 0.5 - dx, 0.5 - 2.0 * dx)]
        assert res.delta_lower == pytest.approx(refs[0], abs=1e-12)
        assert res.delta_approx == pytest.approx(refs[1], abs=1e-12)
        assert res.delta_upper == pytest.approx(refs[2] + _outside(pld, 2, 0.5), abs=1e-12)
        assert refs[0] < refs[1] < refs[2]


def _tail(pld, u, eps):
    i_eps = int(np.searchsorted(pld.s, eps, side="right"))
    return float((-np.expm1(eps - pld.s[i_eps:])) @ u[i_eps:])


def _outside(pld, k, eps):
    # k times the mass below -L, plus k times the excess of a loss above L
    # over its placement at L: c[-1] e^{eps - L} M^{k-1}.
    with np.errstate(divide="ignore"):
        m_right = np.exp(np.log(pld.c) - (pld.s + pld.dx)).sum()
    return k * (pld.mass_outside + pld.c[-1] * np.exp(eps - pld.trunc_L) * m_right ** (k - 1))


def _full_power(c, k):
    # The half-spectrum^k of the half-swapped masses, in polar form on every
    # frequency, none skipped, times (-1)^f to half-swap the inverse back.
    spec = np.fft.rfft(np.roll(c, c.size // 2))
    with np.errstate(over="ignore", invalid="ignore"):
        powered = np.abs(spec) ** k * np.exp(1j * k * np.angle(spec))
    powered[1::2] = -powered[1::2]
    return powered


def _deltas(pld, u, k, eps):
    """(delta_lower, delta_approx, delta_upper) and floored mass of composed u.

    u is floored at 0 and read by the production tail read at eps,
    eps - k dx / 2 and eps - k dx, so a comparison pins the composed masses.
    """
    negative = u < 0.0
    floored = float(-u[negative].sum()) if negative.any() else 0.0
    u = np.where(negative, 0.0, u)
    lo, mid, hi = _tail_read(pld.s, u, (eps, eps - k * pld.dx / 2.0, eps - k * pld.dx))
    return (min(lo, 1.0), min(mid, 1.0), min(hi + _outside(pld, k, eps), 1.0)), floored


def _full_power_deltas(pld, k, eps):
    """The deltas and floored mass with every frequency powered, none skipped."""
    return _deltas(pld, np.fft.irfft(_full_power(pld.c, k), n=pld.grid_r), k, eps)


def _complex_composed(c, k):
    # The composed masses by the complex fft/ifft of the whole spectrum.
    spec = np.fft.fft(np.roll(c, c.size // 2))
    with np.errstate(over="ignore", invalid="ignore"):
        powered = np.abs(spec) ** k * np.exp(1j * k * np.angle(spec))
    return np.roll(np.real(np.fft.ifft(powered)), c.size // 2)


class TestSkippedFrequencies:
    # compose_many powers only the frequencies whose k-th power can be
    # nonzero; powering all of them must give the same bits. k = 1 reads
    # the masses themselves.
    @pytest.mark.parametrize("which", ["wor", "mustow"])
    def test_matches_full_array_power(self, which, fig_pld):
        pld = discretize(WOR_MODEL, 10.0, 100_000) if which == "wor" else fig_pld
        ks = [200, 1, 1000, 2]
        cells = compose_many(pld, ks, [0.5, 1.0, 2.0])
        assert len(cells) == 12
        for cell in cells:
            if cell.k == 1:
                (lo, mid, hi), floored = _deltas(pld, pld.c, 1, cell.epsilon)
            else:
                (lo, mid, hi), floored = _full_power_deltas(pld, cell.k, cell.epsilon)
            if cell.error is not None:
                # WOR wraps around past L = 10 at k = 1000, so the k = 200
                # cells of this call turn its cells into error cells; alone
                # (compose, one k) it still gives its bracket.
                assert (which, cell.k) == ("wor", 1000)
                res = compose(pld, cell.k, cell.epsilon)
            else:
                res = cell.result
            assert (res.delta_lower, res.delta_approx, res.delta_upper) == (lo, mid, hi)
            assert res.diagnostics.floored_mass == floored
        # At k = 1000 most frequencies underflow, so the skip is exercised.
        powered = _full_power(pld.c, 1000)
        assert np.count_nonzero(powered) < powered.size // 4

    @pytest.mark.parametrize("k", [200, 1000])
    def test_powered_stops_at_last_kept_frequency(self, k, fig_pld):
        # The powered half-spectrum ends at its last frequency with k log|z|
        # above -750; every later entry of the full power is 0, which
        # irfft(..., n=r) pads in.
        c = fig_pld.c
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(np.fft.rfft(np.roll(c, c.size // 2))))
        kept = np.flatnonzero(k * log_mag > -750.0)
        full = _full_power(c, k)
        powered = _powered(_spectrum(c, 2), k)
        assert powered.size == kept[-1] + 1 < full.size // 40
        np.testing.assert_array_equal(powered, full[: powered.size])
        assert not full[powered.size :].any()

    def test_nothing_kept_gives_one_zero_entry(self):
        # The zero frequency of these masses is 1 - 2^-53, whose 10^20-th
        # power underflows with every other frequency: the powered array is
        # one +0 entry and the composed masses are all +0.
        pld = discretize(PrivacyLossModel(WOR(100, 5), 1.0), 10.0, 1024)
        k = 10**20
        powered = _powered(_spectrum(pld.c, 2), k)
        assert powered.size == 1 and powered[0] == 0.0
        u = np.fft.irfft(powered, n=pld.grid_r)
        assert not u.any() and not np.signbit(u).any()
        (cell,) = compose_many(pld, [k], [1.0])
        assert cell.result.delta_lower == cell.result.delta_approx == 0.0
        assert cell.result.diagnostics.floored_mass == 0.0


class TestNoTransformAtK1:
    def test_cells_are_reads_of_the_masses(self, fig_pld, monkeypatch):
        # The 1-fold composition is c itself: no transform runs, nothing is
        # floored, and each cell is _cell's read of c, bit for bit.
        def no_transform(*args, **kwargs):
            raise AssertionError("k = 1 needs no transform")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, no_transform)
        eps_list = [0.0, 0.5, 1.0, 2.0]
        cells = compose_many(fig_pld, [1], eps_list)
        s, c = fig_pld.s, fig_pld.c
        m_right = float((c * np.exp(-(s + fig_pld.dx))).sum())
        assert [cell.epsilon for cell in cells] == eps_list
        for cell in cells:
            assert cell.result.diagnostics.floored_mass == 0.0
            assert cell == _cell(fig_pld, s, c, 1, cell.epsilon, m_right, cell.result.diagnostics)


def _grid(trunc_L, grid_r):
    return 2.0 * trunc_L / grid_r, _edges(trunc_L, grid_r)[:-1]


def _masses(seed, grid_r):
    # Nonnegative masses over 40 decades, about a third of the cells empty.
    rng = np.random.default_rng(seed)
    u = rng.random(grid_r) * np.exp(-rng.uniform(0.0, 92.0, grid_r))
    u[rng.random(grid_r) < 1.0 / 3.0] = 0.0
    return u


def _check_tail_read(s, u, k, dx, eps):
    """The chained read against an exact per-threshold fsum of its terms."""
    thresholds = (eps, eps - k * dx / 2.0, eps - k * dx)
    got = _tail_read(s, u, thresholds)
    for value, theta in zip(got, thresholds):
        above = s > theta
        exact = math.fsum(-np.expm1(theta - s[above]) * u[above])
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0), (k, eps, theta)
    assert 0.0 <= got[0] <= got[1] <= got[2]


class TestChainedTailRead:
    """_tail reads the three thresholds of a cell with one expm1 pass over
    the slice above eps and two short segments; it must agree with an
    exact sum at each threshold alone."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        half=st.integers(1, 2048),
        trunc_L=st.floats(0.5, 20.0),
        k=st.one_of(st.integers(1, 5000), st.integers(1, 10**20)),
        place=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_masses(self, seed, half, trunc_L, k, place):
        dx, s = _grid(trunc_L, 2 * half)
        _check_tail_read(s, _masses(seed, 2 * half), k, dx, place * s[-1])

    @pytest.mark.parametrize("k", [1, 7, 10**20])
    @pytest.mark.parametrize("at", ["on_edge", "below_edge", "mid_cell"])
    def test_all_mass_in_the_cell_just_above_eps(self, k, at):
        dx, s = _grid(6.0, 4096)
        i = 2500
        eps = {"on_edge": s[i - 1], "below_edge": np.nextafter(s[i], 0.0),
               "mid_cell": s[i - 1] + dx / 2.0}[at]
        u = np.zeros(s.size)
        u[int(np.searchsorted(s, eps, side="right"))] = 1.0
        _check_tail_read(s, u, k, dx, float(eps))

    @pytest.mark.parametrize("k, eps", [
        (3 * 4096, 0.0),  # the two lower thresholds below -L
        (4096 + 2, 0.0),  # only delta_upper's threshold below -L
        (10**20, 1.0),  # the lower thresholds near -1.5e17 and -2.9e17
        (10**20, 0.0),
    ])
    def test_thresholds_below_the_grid(self, k, eps):
        dx, s = _grid(6.0, 4096)
        assert eps - k * dx < s[0]
        _check_tail_read(s, _masses(k, s.size), k, dx, eps)

    @pytest.mark.parametrize("k", [1, 1000, 10**20])
    def test_eps_just_below_the_last_point(self, k):
        dx, s = _grid(6.0, 4096)
        _check_tail_read(s, _masses(k, s.size), k, dx, float(np.nextafter(s[-1], 0.0)))

    def test_composed_masses(self, fig_pld):
        u = np.fft.irfft(_full_power(fig_pld.c, 1000), n=fig_pld.grid_r)
        for eps in (0.0, 0.5, 1.0, 2.0, 9.0):
            _check_tail_read(fig_pld.s, np.maximum(u, 0.0), 1000, fig_pld.dx, eps)


class TestRealPipeline:
    def test_matches_complex_pipeline(self, fig_pld):
        # The real half-spectrum pipeline against the complex transform of
        # the whole spectrum: only round-off may separate them.
        ks, eps_list = [1, 200, 1000], [0.5, 1.0, 2.0]
        worst = 0.0
        for cell in compose_many(fig_pld, ks, eps_list):
            u = _complex_composed(fig_pld.c, cell.k)
            ref, floored = _deltas(fig_pld, u, cell.k, cell.epsilon)
            res = cell.result
            got = (res.delta_lower, res.delta_approx, res.delta_upper)
            worst = max(worst, *(abs(a - b) for a, b in zip(got, ref)))
            worst = max(worst, abs(res.diagnostics.floored_mass - floored))
        assert worst <= 1e-13, worst


_COMPOSE_CHILD = (
    "import hashlib, os, sys\n"
    "if sys.argv[1] == 'pin':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "import numpy as np\n"
    "from subamp import accountant\n"
    "from subamp.accountant import compose_many\n"
    "from subamp.pld import PrivacyLossModel, discretize\n"
    "from subamp.schemes import MUSTow, Poisson, WOR\n"
    "# The WOR cells at k >= 600 fall below k = 200 and become error cells;\n"
    "# without the guard, every cell the threads built keeps its values.\n"
    "accountant._rising_in_k = lambda per_k, k_values: None\n"
    "print(len(os.sched_getaffinity(0)))\n"
    "for scheme, sigma, r in (\n"
    "    (WOR(1000, 200), 2.0, 1 << 18),\n"
    "    (MUSTow(10_000, 118, 200), 4.0, 1 << 16),\n"
    "    (Poisson(0.02, n=100), 2.0, 1 << 16),\n"
    "):\n"
    "    pld = discretize(PrivacyLossModel(scheme, sigma), 10.0, r)\n"
    "    cells = compose_many(pld, [1, 2, 200, 600, 1000], [0.5, 1.0, 2.0])\n"
    "    values = [\n"
    "        (c.result.delta_lower, c.result.delta_approx, c.result.delta_upper,\n"
    "         c.result.diagnostics.floored_mass) for c in cells\n"
    "    ]\n"
    "    print(hashlib.sha256(np.array(values).tobytes()).hexdigest())\n"
)


def _compose_in_child(pld, expected: bytes) -> None:
    cells = compose_many(pld, [1, 200], [0.5, 1.0])
    got = np.array([(c.result.delta_lower, c.result.delta_upper) for c in cells])
    sys.exit(0 if got.tobytes() == expected else 1)


class TestThreadedCompose:
    """compose_many runs its values of k on one thread per CPU."""

    @pytest.fixture(params=[1, 4], ids=["one_cpu", "four_cpus"])
    def cpus(self, request, monkeypatch):
        # _map_blocks sizes its pool from the affinity mask; a fixed mask
        # runs the threaded path on any host.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False
        )
        return request.param

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs an affinity mask of at least two CPUs",
    )
    def test_threaded_matches_one_cpu(self):
        # compose_many in two child processes with BLAS threads left to
        # their default, one pinned to a single CPU (the inline path, one
        # BLAS thread) and one with this process's mask (one thread per
        # CPU): every delta and floored mass must agree to the bit.
        env = {
            key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["PYTHONPATH"] = str(Path(subamp.__file__).parents[1])
        runs = {
            mode: subprocess.run(
                [sys.executable, "-c", _COMPOSE_CHILD, mode], env=env, capture_output=True,
                text=True, check=True, timeout=600,
            ).stdout.splitlines()
            for mode in ("pin", "free")
        }
        assert runs["pin"][0] == "1" and int(runs["free"][0]) >= 2
        assert len(runs["pin"]) == 4
        assert runs["pin"][1:] == runs["free"][1:]

    def test_falling_delta_gives_the_same_error_cells(self, cpus):
        # The guard runs after the per-k tasks: WOR(1000, 200) wraps around
        # past L = 10 by k = 600, and at any thread count the k >= 600
        # cells are the error cells, each naming k = 200's delta_lower.
        pld = discretize(WOR_MODEL, 10.0, 1 << 14)
        cells = compose_many(pld, [1000, 1, 600, 2, 200], [0.5, 1.0, 2.0])
        lowers = {c.epsilon: c.result.delta_lower for c in cells if c.k == 200}
        for cell in cells:
            if cell.k < 600:
                assert cell.error is None
                continue
            alone = compose(pld, cell.k, cell.epsilon).delta_upper
            assert alone < lowers[cell.epsilon] - 1e-12
            assert cell.error == (
                f"delta_upper={alone:.6g} lies below delta_lower="
                f"{lowers[cell.epsilon]:.6g} at k=200, but delta never falls "
                "as k grows; enlarge trunc_L"
            )

    def test_cells_in_k_list_order(self, cpus, poisson_pld):
        ks, eps_list = [200, 1, 1000, 2, 1], [0.5, 99.0, 1.0]
        cells = compose_many(poisson_pld, ks, eps_list)
        assert [(c.k, c.epsilon) for c in cells] == [(k, e) for k in ks for e in eps_list]
        for cell in cells:
            if cell.epsilon < poisson_pld.trunc_L:
                assert cell.result == compose(poisson_pld, cell.k, cell.epsilon)

    def test_last_grid_point_is_the_first_error(self, cpus):
        # eps = s[-1] leaves an empty tail sum at every k; the float just
        # below it still gives a bracket, its upper bound the union bound.
        pld = discretize(POISSON_MODEL, 10.0, 4096)
        last = pld.s[-1]
        cells = compose_many(pld, [1, 3], [last, np.nextafter(last, 0.0)])
        assert [(c.k, c.error is None) for c in cells] == [
            (1, False), (1, True), (3, False), (3, True)
        ]
        assert all(c.error.startswith(f"epsilon={last:g} must lie below") for c in cells[::2])
        upper = [c.result.delta_upper for c in cells[1::2]]
        assert upper == pytest.approx([4.93038065763132e-32, 8.887699086369692e-169], rel=1e-12)

    def test_no_thread_outlives_the_call(self, cpus, poisson_pld):
        baseline = threading.active_count()
        compose_many(poisson_pld, [1, 2, 3, 200], [0.5])
        assert threading.active_count() == baseline

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_fork_child_runs_compose_many(self, cpus, fig_pld):
        # A pool kept after the parent's call would leave the child waiting
        # on threads that fork did not copy.
        cells = compose_many(fig_pld, [1, 200], [0.5, 1.0])
        expected = np.array([(c.result.delta_lower, c.result.delta_upper) for c in cells])
        child = multiprocessing.get_context("fork").Process(
            target=_compose_in_child, args=(fig_pld, expected.tobytes())
        )
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("compose_many in the forked child did not finish within 120 s")
        assert child.exitcode == 0


class TestFailureModes:
    def test_epsilon_beyond_grid(self, poisson_pld):
        with pytest.raises(EpsilonBeyondGridError):
            compose(poisson_pld, 1, 10.0)

    def test_k_validation(self, poisson_pld):
        with pytest.raises(ValueError):
            compose(poisson_pld, 0, 1.0)
        for k in (2.5, True):  # neither is a count, so neither becomes one
            with pytest.raises(ValueError, match="k must be a positive integer"):
                compose_many(poisson_pld, [1, k], [1.0])

    def test_result_must_bracket_its_approximation(self, poisson_pld):
        diagnostics = compose(poisson_pld, 1, 1.0).diagnostics
        AccountantResult(0.1, 0.1, 0.1, diagnostics)
        for lower, approx, upper in [(0.2, 0.1, 0.3), (0.1, 0.3, 0.2), (0.3, 0.2, 0.1)]:
            with pytest.raises(ValueError, match="bracket"):
                AccountantResult(lower, approx, upper, diagnostics)

    @pytest.mark.parametrize("m", [10] + [
        pytest.param(m, marks=pytest.mark.xfail(
            strict=True, reason=f"zero frequency below 1 at k = 1e20 (ROADMAP item {item})"
        )) for m, item in ((5, 6), (14, 9), (24, 9))
    ])
    def test_huge_k_keeps_the_total_mass(self, m):
        # Above k ~ 1.4e19, exp(-750/k) rounds to 1, and a skip test on it
        # dropped the zero frequency, the total mass: the bracket read
        # [0, 2.8e-17] where the true delta is about 1. At m = 5, 14 and 24
        # the rfft's zero frequency is 1 - 2^-53 (exactly 1 at m = 10), and
        # its 1e20-th power wipes out the mass: the brackets read [0, 1.58e-21],
        # [0, 3.22e-15] and [0, 8.45e-12], below k = 1's delta_lower (1.50e-5,
        # 1.20e-3, 8.77e-3), with no error cell. At m = 14 and 24 the mean
        # left edge is above 0, so item 9's W+ is its value at lambda = 0,
        # (sum c)^k ~ 1. At m = 5 it is -0.0045, W+ is about e^-9.4e16 and
        # only item 6's a-priori FFT error bound lifts delta_upper.
        pld = discretize(PrivacyLossModel(WOR(100, m), 1.0), 10.0, 1024)
        (cell,) = compose_many(pld, [10**20], [1.0])
        assert cell.error is not None or cell.result.delta_upper == 1.0

    @pytest.mark.parametrize("ks", [[1, 2], [2, 1], [2, 1, 2]])
    def test_delta_falling_with_k_is_an_error_cell(self, ks):
        # WR(10, 100) holds most of its loss beyond L, which wraps around
        # at k = 2: the k = 2 bracket [2.1e-4, 2.1e-4] lies below k = 1's
        # [0.99953, 0.99966], though delta never falls as k grows.
        pld = discretize(PrivacyLossModel(WR(10, 100), 1.0), 10.0, 1 << 14)
        cells = compose_many(pld, ks, [1.0])
        for cell in cells:
            if cell.k == 1:
                assert cell.error is None and cell.result.delta_lower > 0.99
            else:
                assert cell.result is None
                assert cell.error.startswith("delta_upper=0.000214")
                assert cell.error.endswith(
                    "at k=1, but delta never falls as k grows; enlarge trunc_L"
                )

    def test_unresolved_spike_shows_in_max_cell_mass(self):
        # Exactly-calibrated noise on a rare-inclusion scheme concentrates
        # the loss in ~1 grid cell. The bracket still holds quadrature, and
        # the diagnostics show that one cell carries half the mass.
        model = PrivacyLossModel(Poisson(100 / 30969, n=30969), 144.4)
        pld = discretize(model, 6.0, 1 << 17)
        for eps in (0.0, 1e-4):
            res = compose(pld, 1, eps)
            assert res.delta_lower <= delta_direct(model, eps) <= res.delta_upper
            assert res.diagnostics.max_cell_mass > 0.5
            assert res.diagnostics.occupied_cells == np.count_nonzero(pld.c) < 64

    def test_diagnostics_recorded(self, poisson_pld):
        res = compose(poisson_pld, 5, 0.5)
        d = res.diagnostics
        assert d.grid_r == 100_000
        assert d.trunc_L == 10.0
        assert abs(d.mass_defect) < 1e-13
        assert d.floored_mass >= 0.0
        assert d.max_cell_mass == float(poisson_pld.c.max()) < 0.5
        assert d.occupied_cells == np.count_nonzero(poisson_pld.c > 0.0) > 1000


class TestBoundsContainQuadrature:
    # Configs whose upper bound fell below quadrature while the cell masses
    # came from density samples; with exact cell masses the bracket holds.
    def test_spike_upper_dominates_quadrature(self):
        # Formerly delta_upper 4.14e-8 against delta_direct 8.92e-6.
        model = PrivacyLossModel(Poisson(100 / 30969, n=30969), 144.4)
        pld = discretize(model, 6.0, 1 << 17)
        res = compose(pld, 1, 0.0)
        assert res.delta_lower <= delta_direct(model, 0.0) <= res.delta_upper

    def test_large_mixture_upper_dominates_quadrature(self):
        # Formerly delta_upper 2.45e-36 against delta_direct 9.96e-3, with
        # cell masses summing to 2.2e-26. The mass above L carries the delta.
        # The exact delta lies 9e-15 inside the upper bound; quadrature lies
        # about as far above the exact value, inside its own error estimate,
        # so the bracket is checked against the exact value.
        model = PrivacyLossModel(MUSTww(1000, 10, 2000), 4.0)
        pld = discretize(model, 10.0, 20_000)
        res = compose(pld, 1, 1.0)
        exact = float(delta_k1(model.scheme, model.sigma, 1.0)[0])
        assert res.delta_lower <= exact <= res.delta_upper
        quad, err = _delta_direct(model, 1.0)
        assert abs(quad - exact) <= err

    @pytest.mark.parametrize(
        "model, trunc_L, eps_list",
        [
            (POISSON_MODEL, 10.0, (0.1, 0.5, 1.0, 2.0)),
            (WOR_MODEL, 8.0, (0.5, 1.0, 2.0)),
            (PrivacyLossModel(WR(1000, 200), 2.0), 8.0, (0.5, 1.0, 2.0)),
            (PrivacyLossModel(MUSTwo(1000, 100, 50), 2.0), 8.0, (0.5, 1.0, 2.0)),
            (FIG_MODEL, 10.0, (0.5, 1.0, 2.0)),
            (PrivacyLossModel(MUSTww(1000, 100, 50), 2.0), 8.0, (0.5, 1.0, 2.0)),
        ],
        ids=["poisson", "wor", "wr", "mustwo", "mustow", "mustww"],
    )
    def test_k1_bracket_every_scheme(self, model, trunc_L, eps_list):
        # The golden account configs at r = 2^14, k = 1, wherever quadrature
        # lies above its own 1e-12 accuracy.
        pld = discretize(model, trunc_L, 1 << 14)
        checked = 0
        for cell in compose_many(pld, [1], eps_list):
            direct = delta_direct(model, cell.epsilon)
            if direct > 1e-12:
                res = cell.result
                assert res.delta_lower <= direct <= res.delta_upper, cell.epsilon
                checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("m", [10, 50, 100])
    @pytest.mark.parametrize("sigma", [0.01, 0.03])
    def test_wor_where_the_closed_form_underflows(self, sigma, m):
        # (q e^{-1/(2 sigma^2)})^2 underflows below sigma ~ 0.038 at q = 0.1,
        # where Newton inverts WOR: no warning, masses summing to 1, and a
        # k=1 bracket around quadrature to its 1e-12 accuracy.
        model = PrivacyLossModel(WOR(100, m), sigma)
        pld = discretize(model, 10.0, 1024)
        assert pld.c.sum() + pld.mass_outside == pytest.approx(1.0, rel=0.0, abs=1e-13)
        for cell in compose_many(pld, [1], [0.5, 1.0]):
            direct = delta_direct(model, cell.epsilon)
            res = cell.result
            assert res.delta_lower - 1e-12 <= direct <= res.delta_upper + 1e-12, cell.epsilon


class TestAmplifyPathConsistency:
    def test_poisson_tail_equals_amplified_profile(self):
        # For Poisson the subsampled pair satisfies the exact identity
        # delta(eps') = eta * delta_base(deamplified eps), so the loss-side
        # tail integral must reproduce the amplification-side closed form.
        from subamp.amplification import deamplify_epsilon
        from subamp.mechanisms import MechanismSpec, profile

        for q, sig in ((0.02, 2.0), (0.1, 1.0)):
            model = PrivacyLossModel(Poisson(q, n=100), sig)
            for eps_prime in (0.05, 0.3, 1.0):
                tight = delta_direct(model, eps_prime)
                eps_base = deamplify_epsilon(q, eps_prime)
                closed = q * profile(MechanismSpec("gaussian", 1.0 / sig), eps_base)
                if closed > 1e-12:
                    assert tight == pytest.approx(closed, rel=1e-9)
                else:
                    assert abs(tight - closed) <= 1e-12

    def test_amplification_bound_dominates_tight_delta(self):
        # The closed-form delta' (per-copy displacement 2 under
        # substitution) upper-bounds the tight loss-side value.
        from subamp.amplification import amplify_delta, deamplify_epsilon, eta
        from subamp.mechanisms import MechanismSpec

        for scheme, sig in ((WOR(1000, 200), 2.0), (WR(1000, 200), 4.0),
                            (MUSTow(1000, 200, 100), 2.0)):
            model = PrivacyLossModel(scheme, sig)
            for eps_prime in (0.1, 0.5, 1.0):
                tight = delta_direct(model, eps_prime)
                eps_base = deamplify_epsilon(eta(scheme), eps_prime)
                bound = amplify_delta(
                    scheme, MechanismSpec("gaussian", 2.0 / sig), eps_base
                )
                assert bound >= tight - 1e-12


class TestDeltaDirect:
    def test_validation(self):
        with pytest.raises(ValueError):
            delta_direct(POISSON_MODEL, -1.0)

    def test_mustww_small_config(self):
        model = PrivacyLossModel(MUSTww(100, 20, 10), 2.0)
        pld = discretize(model, 8.0, 1 << 16)
        for eps in (0.2, 1.0):
            assert compose(pld, 1, eps).delta_approx == pytest.approx(
                delta_direct(model, eps), abs=1e-4
            )


# The Gaussian oracle's grid: WOR(100, 100), the Gaussian mechanism itself,
# on L = 10 and L = 40 at one dx (r = 2^17 and 2^19). The cells whose
# bracket misses the exact delta, by the side they miss on: below
# delta_lower, where FFT round-off of about 1e-16 lifts a tinier delta
# (ROADMAP item 6; k = 1 reads the masses, untransformed, and misses no
# cell), and above delta_upper, where the composed loss wraps around past
# +-L (item 9).
_GAUSSIAN_SIGMAS = (0.5, 1.0, 4.0, 20.0)
_GAUSSIAN_GRIDS = {10.0: 1 << 17, 40.0: 1 << 19}
_GAUSSIAN_K, _GAUSSIAN_EPS = (1, 2, 10, 100, 1000), (0.5, 1.0, 4.0)
_ROUND_OFF_MISSES = {
    (20.0, L, k, eps) for L in _GAUSSIAN_GRIDS
    for k, eps in ((2, 1.0), (2, 4.0), (10, 4.0))
}
_WRAP_MISSES = {
    (0.5, 40.0, 2, 0.5), (0.5, 40.0, 2, 1.0), (0.5, 40.0, 2, 4.0),
    (1.0, 10.0, 2, 0.5), (1.0, 10.0, 2, 1.0), (1.0, 10.0, 2, 4.0),
    (1.0, 40.0, 10, 0.5), (1.0, 40.0, 10, 1.0), (1.0, 40.0, 10, 4.0),
    (4.0, 10.0, 100, 4.0), (4.0, 10.0, 1000, 1.0), (4.0, 10.0, 1000, 4.0),
    (20.0, 10.0, 1000, 0.5), (20.0, 10.0, 1000, 1.0), (20.0, 10.0, 1000, 4.0),
}


@functools.cache
def _gaussian_cells(sigma: float, trunc_L: float) -> dict:
    pld = discretize(PrivacyLossModel(WOR(100, 100), sigma), trunc_L, _GAUSSIAN_GRIDS[trunc_L])
    return {(c.k, c.epsilon): c for c in compose_many(pld, _GAUSSIAN_K, _GAUSSIAN_EPS)}


def _gaussian_case(sigma, trunc_L, k, eps):
    key = (sigma, trunc_L, k, eps)
    marks = ()
    if key in _ROUND_OFF_MISSES:
        marks = pytest.mark.xfail(strict=True, reason="FFT round-off (ROADMAP item 6)")
    elif key in _WRAP_MISSES:
        marks = pytest.mark.xfail(strict=True, reason="wrap-around past +-L (ROADMAP item 9)")
    return pytest.param(*key, marks=marks, id=f"sigma{sigma:g}-L{trunc_L:g}-k{k}-eps{eps:g}")


class TestGaussianOracle:
    """WOR(n, n) against its exact delta at every k (oracles.gaussian_delta)."""

    @pytest.mark.parametrize("sigma, trunc_L, k, eps", [
        _gaussian_case(*key)
        for key in itertools.product(_GAUSSIAN_SIGMAS, _GAUSSIAN_GRIDS, _GAUSSIAN_K, _GAUSSIAN_EPS)
    ])
    def test_bracket_contains_the_exact_delta(self, sigma, trunc_L, k, eps):
        cell = _gaussian_cells(sigma, trunc_L)[k, eps]
        if cell.error is None:
            exact = gaussian_delta(sigma, k, eps)
            assert cell.result.delta_lower <= exact <= cell.result.delta_upper

    @pytest.mark.parametrize("sigma", _GAUSSIAN_SIGMAS)
    def test_oracle_matches_quadrature_at_k1(self, sigma):
        model = PrivacyLossModel(WOR(100, 100), sigma)
        for eps in _GAUSSIAN_EPS:
            exact = gaussian_delta(sigma, 1, eps)
            if exact >= 1e-10:
                assert delta_direct(model, eps) == pytest.approx(exact, rel=1e-9, abs=0.0)
