"""Amplification formulas against exact enumeration, algebra, and each other."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from subamp import numerics
from subamp.amplification import (
    _LOG_WEIGHT_CUTOFF,
    PAClass,
    _stage1_log_weights,
    aligned_profile,
    amplify_delta,
    amplify_epsilon,
    classify_pa,
    deamplify_epsilon,
    eta,
    log_miss_probability,
    multiplicity_weights,
    pa_on_boundary,
)
from subamp.mechanisms import MechanismSpec, profile
from subamp.numerics import log_binom, log_binom_pmf
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from oracles import eta_mustwo_sum_form, exact_eta, exact_multiplicity_distribution


class TestEta:
    def test_wor_is_ratio(self):
        assert eta(WOR(1000, 400)) == 0.4

    def test_poisson_is_gamma(self):
        assert eta(Poisson(0.37)) == 0.37

    def test_mustow_degenerates_to_wr_at_full_first_stage(self):
        full, wr = MUSTow(1000, 1000, 400), WR(1000, 400)
        assert eta(full) == eta(wr)
        assert log_miss_probability(full) == log_miss_probability(wr)
        assert multiplicity_weights(full).tolist() == multiplicity_weights(wr).tolist()

    def test_mustwo_equals_wr_closed_form(self):
        assert eta(MUSTwo(1000, 500, 400)) == eta(WR(1000, 400))

    def test_mustwo_closed_form_equals_stage_sum(self):
        for n, b, m in [(1000, 500, 400), (300, 50, 30), (50, 20, 10), (10, 5, 3)]:
            assert eta(MUSTwo(n, b, m)) == pytest.approx(
                eta_mustwo_sum_form(n, b, m), abs=1e-12
            )

    @pytest.mark.parametrize(
        "scheme",
        [WR(5, 3), MUSTww(4, 3, 2), MUSTow(5, 3, 2), MUSTwo(4, 3, 2), WOR(5, 2)],
    )
    def test_exact_enumeration(self, scheme):
        assert eta(scheme) == pytest.approx(float(exact_eta(scheme)), abs=1e-12)

    def test_miss_probability_complements_eta(self):
        for scheme in (WR(100, 30), MUSTow(100, 40, 30), MUSTww(100, 40, 30),
                       MUSTwo(100, 40, 30), WOR(100, 30), Poisson(0.25)):
            assert math.exp(log_miss_probability(scheme)) == pytest.approx(
                1.0 - eta(scheme), abs=1e-12
            )


# Stages that draw from a single record: every pick hits it, so the miss
# probability is (1 - 1)^draws = 0.
SINGLE_RECORD = [
    (WR(1, 5), 1.0),
    (MUSTwo(1, 1, 1), 1.0),
    (MUSTow(1000, 1, 5), 0.001),
    (MUSTow(1, 1, 3), 1.0),
]


@pytest.mark.parametrize("scheme, expected", SINGLE_RECORD, ids=repr)
class TestSingleRecordStages:
    def test_eta_is_exact(self, scheme, expected):
        assert eta(scheme) == expected

    def test_miss_probability(self, scheme, expected):
        log_miss = log_miss_probability(scheme)
        if expected == 1.0:
            assert log_miss == -math.inf
        else:
            assert math.exp(log_miss) == pytest.approx(1.0 - expected, rel=1e-15)

    def test_weights_sum_to_eta(self, scheme, expected):
        assert multiplicity_weights(scheme).sum() == pytest.approx(expected, rel=1e-15)


class TestMultiplicityWeights:
    def test_single_draw(self):
        w = multiplicity_weights(WR(8, 1))
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_mustwo_matches_wr(self):
        # MUSTwo's weights are WR(n, m)'s formula; check them against the
        # two-stage hypergeometric sum.
        scheme = MUSTwo(300, 50, 30)
        w_two = multiplicity_weights(scheme)
        assert np.max(np.abs(w_two - _reference_weights(scheme))) <= 1e-12

    @pytest.mark.parametrize(
        "scheme",
        [WR(5, 3), MUSTww(4, 3, 2), MUSTow(5, 3, 2), MUSTwo(4, 3, 2), WOR(5, 2),
         Poisson(0.3, n=4)],
    )
    def test_exact_enumeration(self, scheme):
        exact = exact_multiplicity_distribution(scheme)
        w = multiplicity_weights(scheme)
        assert sum(p for u, p in exact.items() if u > w.size) == 0
        for u in range(1, w.size + 1):
            assert w[u - 1] == pytest.approx(
                float(exact.get(u, 0)), abs=1e-12
            ), f"u={u}"

    @pytest.mark.parametrize(
        "scheme",
        [WR(1000, 400), MUSTwo(1000, 500, 400), MUSTow(1000, 500, 400),
         MUSTww(1000, 500, 400), MUSTww(10, 5, 3)],
    )
    def test_weights_sum_to_eta(self, scheme):
        assert multiplicity_weights(scheme).sum() == pytest.approx(
            eta(scheme), abs=1e-12
        )

    def test_set_schemes_are_eta(self):
        # A set never repeats an element: the whole distribution is P[u = 1].
        for scheme in (WOR(10, 3), WOR(7, 7), Poisson(0.1), Poisson(1e-60)):
            w = multiplicity_weights(scheme)
            assert w.dtype == np.float64
            assert w.tolist() == [eta(scheme)]

    def test_rejects_non_schemes(self):
        for closed_form in (eta, log_miss_probability, multiplicity_weights):
            with pytest.raises(TypeError, match="not a sampling scheme"):
                closed_form((10, 3))


def _reference_log_binom_pmf(k, n, p):
    """log_binom_pmf as a masked scatter over the full (k, n, p) broadcast."""
    k, n, p = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (k, n, p)))
    out = np.full(k.shape, -np.inf)
    interior = (p > 0) & (p < 1)
    if np.any(interior):
        ki, ni, pi = k[interior], n[interior], p[interior]
        out[interior] = log_binom(ni, ki) + ki * np.log(pi) + (ni - ki) * np.log1p(-pi)
    out[(p == 0) & (k == 0)] = 0.0
    out[(p == 1) & (k == n)] = 0.0
    return out if out.ndim else float(out)


def _reference_stage1(n, b):
    j = np.arange(1, b + 1, dtype=float)
    logw = _reference_log_binom_pmf(j, float(b), 1.0 / n)
    keep = logw >= logw.max() - _LOG_WEIGHT_CUTOFF
    return j[keep], logw[keep]


def _reference_weights(scheme):
    """The multiset weights with every log-binomial on the full J x m matrix;
    MUSTwo's as the two-stage sum, with a hypergeometric second stage."""
    u = np.arange(1, scheme.m + 1, dtype=float)
    match scheme:
        case WR(n=n, m=m):
            return np.exp(_reference_log_binom_pmf(u, float(m), 1.0 / n))
        case MUSTow(n=n, b=b, m=m):
            return (b / n) * np.exp(_reference_log_binom_pmf(u, float(m), 1.0 / b))
        case MUSTww(n=n, b=b, m=m):
            j, logw = _reference_stage1(n, b)
            log_terms = logw[:, None] + _reference_log_binom_pmf(
                u[None, :], float(m), (j / b)[:, None]
            )
        case MUSTwo(n=n, b=b, m=m):
            # C(j,u) C(b-j,m-u) / C(b,m) = C(m,u) C(b-m,j-u) / C(b,j), whose
            # C(b,j) cancels the stage-I binomial coefficient.
            j, _ = _reference_stage1(n, b)
            with np.errstate(divide="ignore"):
                log_terms = (
                    log_binom(float(m), u)[None, :]
                    + log_binom(float(b - m), j[:, None] - u[None, :])
                    + j[:, None] * math.log(1.0 / n)
                    + ((b - j[:, None]) * math.log1p(-1.0 / n) if n > 1 else 0.0)
                )
    return np.exp(log_terms).sum(axis=0)


def _reference_eta(scheme):
    """eta from each scheme's own closed form, none read through another's."""
    match scheme:
        case WR(n=n, m=m):
            return -math.expm1(m * math.log1p(-1.0 / n) if n > 1 else -math.inf)
        case MUSTow(n=n, b=b, m=m):
            return (b / n) * -math.expm1(m * math.log1p(-1.0 / b) if b > 1 else -math.inf)
        case MUSTww(n=n, b=b, m=m):
            j, logw = _reference_stage1(n, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                hit = -np.expm1(m * np.log1p(-j / b))
            hit[j == b] = 1.0
            return min(numerics.stable_sum(np.exp(logw) * hit), 1.0)


def _reference_log_miss(scheme):
    """log P[miss] from each scheme's own closed form."""
    match scheme:
        case WR(n=n, m=m):
            return m * math.log1p(-1.0 / n) if n > 1 else -math.inf
        case MUSTow(n=n, b=b, m=m):
            stage2 = m * math.log1p(-1.0 / b) if b > 1 else -math.inf
            if b == n:
                return stage2
            return float(np.logaddexp(math.log(b / n) + stage2, math.log1p(-b / n)))
        case MUSTww(n=n, b=b, m=m):
            j, logw = _reference_stage1(n, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = logw + m * np.log1p(-j / b)
            terms[j == b] = -math.inf
            none = b * math.log1p(-1.0 / n) if n > 1 else -math.inf
            return float(np.logaddexp(logsumexp(terms), none))


def _same_bits(got, want) -> bool:
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _assert_same_bits(cases, moved=()) -> None:
    """Fail once, naming every moved case: the labels in moved, then those of
    the (label, got, want) cases whose values differ in bits. (pytest cuts an
    assert's message at 640 characters.)"""
    moved = [*moved, *(label for label, got, want in cases if not _same_bits(got, want))]
    if moved:
        pytest.fail(f"{len(moved)} moved: " + ", ".join(map(repr, moved)))


def _thinned_wr(thin, n, m):
    """eta, log P[miss] and weights of WR(n, m), reached with probability thin."""
    wr = WR(n, m)
    log_miss = log_miss_probability(wr)
    if thin != 1.0:
        log_miss = float(np.logaddexp(math.log(thin) + log_miss, math.log1p(-thin)))
    return thin * eta(wr), log_miss, thin * multiplicity_weights(wr)


class TestLogGammaRows:
    """log_binom_pmf, the multiset weights, eta and the miss probability
    against reference forms written out in full: the same bits from one
    log-gamma row per stage, and for MUSTwo the two-stage sum to round-off."""

    GRID_N = (1, 2, 3, 7, 10, 300, 1000, 30969, 60000)
    GRID_B = (1, 2, 3, 50, 175, 1000, 3000)
    GRID_M = (1, 2, 3, 120, 2000)
    PS = (0.0, 1e-9, 0.1, 0.5, 1.0, 1.5, -0.1, math.nan)

    def test_log_binom_pmf_bit_for_bit(self):
        ks = np.arange(-1, 12, dtype=float)  # k outside [0, n] included
        ps = np.array(self.PS)
        cases = []
        for n in (0.0, 1.0, 5.0, 10.0, 11.0):
            for p in self.PS:
                cases += [(k, n, p) for k in ks]
                cases += [(ks, n, p), (ks, np.full(ks.size, n), p), (ks[:, None], n, ps)]
            # A row of k against a column of p, as MUSTww's second stage asks.
            cases.append((ks[None, :], n, ps[:, None]))
        _assert_same_bits(
            (args, log_binom_pmf(*args), _reference_log_binom_pmf(*args)) for args in cases
        )

    def grid(self, cls):
        """Every valid scheme of class cls on GRID_N x GRID_B x GRID_M."""
        two_stage = len(cls.stages) == 2
        for n in self.GRID_N:
            for b in self.GRID_B if two_stage else (None,):
                for m in self.GRID_M:
                    if cls is MUSTwo and m > b or cls is MUSTow and b > n:
                        continue
                    yield cls(n, b, m) if two_stage else cls(n, m)

    @pytest.mark.parametrize("cls", [WR, MUSTww, MUSTwo, MUSTow], ids=lambda c: c.label)
    def test_weights_bit_for_bit_on_grid(self, cls):
        cases, moved = [], []
        for scheme in self.grid(cls):
            got, want = multiplicity_weights(scheme), _reference_weights(scheme)
            if cls is MUSTwo:
                # WR(n, m)'s formula against the two-stage sum: round-off only
                # (2.9e-12 at most on this grid).
                if not np.max(np.abs(got - want)) <= 1e-11:
                    moved.append(("weights", scheme))
            else:
                cases.append((("weights", scheme), got, want))
            if cls is not WR:
                n, b = scheme.n, scheme.b
                stage1 = zip(_stage1_log_weights(n, b), _reference_stage1(n, b))
                cases += [(("stage I", scheme), got, want) for got, want in stage1]
        _assert_same_bits(cases, moved)

    @pytest.mark.parametrize(
        "cls, wr_form",
        [(MUSTwo, lambda n, b, m: _thinned_wr(1.0, n, m)),
         (MUSTow, lambda n, b, m: _thinned_wr(b / n, b, m))],
        ids=["mustwo", "mustow"],
    )
    def test_weights_read_wr_bit_for_bit(self, cls, wr_form):
        # MUSTwo hands the mechanism WR(n, m)'s law; MUSTow is WR(b, m)
        # thinned by P[record in stage I] = b/n. Its eta, miss probability
        # and weights all read that law.
        closed_forms = (eta, log_miss_probability, multiplicity_weights)
        _assert_same_bits(
            ((f.__name__, scheme), f(scheme), want)
            for scheme in self.grid(cls)
            for f, want in zip(closed_forms, wr_form(*astuple(scheme)))
        )

    @pytest.mark.parametrize("cls", [WR, MUSTww, MUSTow], ids=lambda c: c.label)
    def test_eta_and_miss_probability_bit_for_bit_on_grid(self, cls):
        references = ((eta, _reference_eta), (log_miss_probability, _reference_log_miss))
        _assert_same_bits(
            ((f.__name__, scheme), f(scheme), reference(scheme))
            for scheme in self.grid(cls)
            for f, reference in references
        )

    @pytest.mark.parametrize(
        "scheme", [MUSTww(1000, 175, 120), MUSTwo(1000, 175, 120), MUSTww(1000, 500, 400)],
        ids=repr,
    )
    def test_log_gamma_count_is_linear(self, scheme, monkeypatch):
        # One row per stage: O(b + J + m) log-gammas, not one row per kept j.
        kept = _stage1_log_weights(scheme.n, scheme.b)[0].size
        gammaln, evaluated = numerics.gammaln, []

        def counting(x):
            evaluated.append(np.size(x))
            return gammaln(x)

        monkeypatch.setattr(numerics, "gammaln", counting)
        multiplicity_weights(scheme)
        assert 0 < sum(evaluated) <= 3 * (scheme.b + kept + 2 * scheme.m)


class TestEpsilonMaps:
    def test_identity_at_full_inclusion(self):
        assert amplify_epsilon(1.0, 2.5) == pytest.approx(2.5, rel=1e-15)
        assert deamplify_epsilon(1.0, 0.7) == pytest.approx(0.7, rel=1e-15)

    def test_reference_point(self):
        assert amplify_epsilon(0.4, 1.0) == pytest.approx(0.523, abs=5.1e-4)
        assert deamplify_epsilon(0.4, amplify_epsilon(0.4, 1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_strictly_increasing(self):
        etas = np.linspace(0.05, 1.0, 40)
        vals = [amplify_epsilon(float(e), 1.3) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        epss = np.linspace(0.0, 6.0, 40)
        vals = [amplify_epsilon(0.3, float(e)) for e in epss]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ratio_tends_to_eta_at_small_eps(self):
        for eta_value in (0.1, 0.33, 0.9):
            ratio = amplify_epsilon(eta_value, 1e-6) / 1e-6
            assert abs(ratio - eta_value) <= 1e-4

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            amplify_epsilon(0.0, 1.0)
        with pytest.raises(ValueError):
            amplify_epsilon(1.2, 1.0)
        with pytest.raises(ValueError):
            deamplify_epsilon(0.5, -1.0)

    @pytest.mark.parametrize("eps", [709.7, 709.8, 800.0, 1e6])
    @pytest.mark.parametrize("eta_value", [1e-3, 0.5, 1.0])
    def test_finite_where_e_to_the_eps_overflows(self, eta_value, eps):
        # e^eps overflows from eps ~ 709.78, and (e^eps - 1)/eta earlier.
        eps_prime = amplify_epsilon(eta_value, eps)
        assert eps + math.log(eta_value) <= eps_prime <= eps
        assert deamplify_epsilon(eta_value, eps_prime) == pytest.approx(eps, rel=1e-12)
        assert math.isfinite(deamplify_epsilon(eta_value, eps))


@given(
    eta_value=st.floats(1e-6, 1.0, exclude_min=False),
    eps=st.floats(0.0, 30.0),
)
@settings(max_examples=300, deadline=None)
def test_amplify_deamplify_roundtrip(eta_value, eps):
    eps_prime = amplify_epsilon(eta_value, eps)
    assert eps_prime <= eps + 1e-12
    back = deamplify_epsilon(eta_value, eps_prime)
    assert back == pytest.approx(eps, rel=1e-12, abs=1e-12)


class TestAmplifyDelta:
    def test_set_schemes_scale_profile(self):
        mech = MechanismSpec("gaussian", 1.0)
        scheme = WOR(1000, 400)
        for eps in (0.1, 1.0, 3.0):
            assert amplify_delta(scheme, mech, eps) == pytest.approx(
                0.4 * profile(mech, eps), rel=1e-12
            )

    @pytest.mark.parametrize(
        "scheme", [WOR(1000, 400), WOR(30969, 100), WOR(5, 5), Poisson(0.37),
                   Poisson(0.00322903548710)],
        ids=repr,
    )
    def test_set_schemes_are_eta_times_profile(self, scheme):
        # The one-weight multiplicity distribution moves no bit of eta * delta.
        for family in ("gaussian", "laplace"):
            for theta in (0.25, 1.0, 4.0):
                mech = MechanismSpec(family, theta)
                for eps in np.linspace(0.05, 6.0, 60):
                    eps = float(eps)
                    assert amplify_delta(scheme, mech, eps) == eta(scheme) * profile(mech, eps)

    def test_zero_profile_gives_zero(self):
        mech = MechanismSpec("laplace", 0.25)
        assert amplify_delta(WOR(100, 40), mech, 2.0) == 0.0

    @pytest.mark.parametrize(
        "scheme, family, printed",
        [
            (WR(1000, 400), "laplace", "0.026"),
            (MUSTow(1000, 500, 400), "laplace", "0.044"),
            (MUSTow(1000, 500, 400), "gaussian", "0.079"),
        ],
    )
    def test_reference_values(self, scheme, family, printed):
        from reference_values import check_printed

        mech = MechanismSpec(family, 1.0)
        assert check_printed(amplify_delta(scheme, mech, 1.0), printed)

    def test_mustwo_equals_wr_delta(self):
        mech = MechanismSpec("gaussian", 0.5)
        for eps in (0.2, 1.0, 2.0):
            assert amplify_delta(MUSTwo(300, 50, 30), mech, eps) == pytest.approx(
                amplify_delta(WR(300, 30), mech, eps), abs=1e-12
            )


class TestClassification:
    @pytest.mark.parametrize(
        "ratio, gap, expected",
        [
            (0.5, -0.01, PAClass.STRONG),
            (0.5, +0.01, PAClass.WEAK_I),
            (1.2, -0.01, PAClass.WEAK_II),
            (1.2, +0.01, PAClass.DILUTION),
        ],
    )
    def test_quadrants(self, ratio, gap, expected):
        assert classify_pa(ratio, gap) is expected
        assert not pa_on_boundary(ratio, gap)

    def test_boundary_resolves_favorably(self):
        assert classify_pa(0.5, 0.0) is PAClass.STRONG
        assert classify_pa(1.0, -0.01) is PAClass.STRONG
        assert classify_pa(1.0 + 5e-16, 0.0) is PAClass.STRONG
        assert pa_on_boundary(1.0, -0.01)
        assert pa_on_boundary(0.5, 5e-16)


class TestAlignedProfile:
    def test_wor_gaussian_never_worsens_delta(self):
        points = aligned_profile(
            WOR(1000, 400), MechanismSpec("gaussian", 0.25), np.linspace(0.05, 6.0, 120)
        )
        assert all(p.delta_gap <= 0.0 for p in points)
        assert all(
            p.pa_class is PAClass.STRONG or p.on_boundary for p in points
        )

    def test_weak_point(self):
        (point,) = aligned_profile(
            MUSTww(1000, 500, 400), MechanismSpec("laplace", 1.0), [1.0]
        )
        assert point.pa_class is PAClass.WEAK_I
        assert point.eps_ratio == pytest.approx(0.346, abs=5.1e-4)
        assert point.delta_gap == pytest.approx(0.052, abs=5.1e-4)
        assert point.neighboring == "S"

    def test_ratio_below_one_for_partial_inclusion(self):
        for scheme in (WR(50, 10), MUSTow(50, 20, 10), Poisson(0.2)):
            points = aligned_profile(
                scheme, MechanismSpec("gaussian", 1.0), np.linspace(0.1, 4.0, 25)
            )
            assert all(p.eps_ratio < 1.0 for p in points)

    @pytest.mark.parametrize(
        "scheme",
        [WR(50, 10), MUSTow(50, 20, 10), MUSTww(1000, 500, 400), MUSTwo(300, 50, 30),
         Poisson(0.2), WOR(1000, 400)],
        ids=lambda scheme: type(scheme).__name__,
    )
    def test_delta_prime_is_amplify_delta(self, scheme):
        # The profile evaluates the multiplicity weights once; every point
        # must still be amplify_delta's value to the bit.
        grid = np.linspace(0.05, 6.0, 40)
        for family in ("gaussian", "laplace"):
            mech = MechanismSpec(family, 0.5)
            for point, eps in zip(aligned_profile(scheme, mech, grid), grid):
                assert point.delta_prime == amplify_delta(scheme, mech, float(eps))

    def test_grid_validation(self):
        mech = MechanismSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            aligned_profile(WOR(10, 2), mech, [0.0, 1.0])
        with pytest.raises(ValueError):
            aligned_profile(WOR(10, 2), mech, [1.0, 0.5])
        with pytest.raises(ValueError):
            aligned_profile(WOR(10, 2), mech, [])


class TestOrderings:
    def test_eta_ordering_small_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(3, 2000))
            b = int(rng.integers(1, n))
            m = int(rng.integers(1, min(b, 500) + 1))
            e_ow = eta(MUSTow(n, b, m))
            e_wr = eta(WR(n, m))
            e_wor = eta(WOR(n, m))
            assert e_ow <= e_wr * (1 + 1e-12)
            assert e_wr <= e_wor * (1 + 1e-12)
            if m > 1:
                assert e_ow < e_wr
                assert e_wr < e_wor
            else:
                assert e_ow == pytest.approx(e_wr, rel=1e-12)
                assert e_wr == pytest.approx(e_wor, rel=1e-12)

    def test_mustow_eta_monotone_in_b_and_m(self):
        # Contour-sweep region: eta rises with both stage sizes.
        n = 1000
        for m in (100, 125, 150):
            vals = [eta(MUSTow(n, b, m)) for b in range(150, 201)]
            assert all(y >= x for x, y in zip(vals, vals[1:]))
        for b in (150, 175, 200):
            vals = [eta(MUSTow(n, b, m)) for m in range(100, 151)]
            assert all(y >= x for x, y in zip(vals, vals[1:]))

    def test_mustww_eta_monotone_in_b_and_m(self):
        n = 1000
        for m in (100, 150):
            vals = [eta(MUSTww(n, b, m)) for b in range(150, 201, 5)]
            assert all(y >= x - 1e-15 for x, y in zip(vals, vals[1:]))
        for b in (150, 200):
            vals = [eta(MUSTww(n, b, m)) for m in range(100, 151, 5)]
            assert all(y >= x - 1e-15 for x, y in zip(vals, vals[1:]))


@given(
    n=st.integers(2, 400),
    b=st.integers(1, 400),
    m=st.integers(1, 60),
)
@settings(max_examples=150, deadline=None)
def test_weight_sum_property(n, b, m):
    scheme = MUSTww(n, b, m)
    assert multiplicity_weights(scheme).sum() == pytest.approx(
        eta(scheme), abs=1e-12
    )
