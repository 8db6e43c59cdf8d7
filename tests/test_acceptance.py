"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from subamp.accountant import compose, compose_many, delta_direct
from subamp.amplification import (
    amplify_delta,
    amplify_epsilon,
    deamplify_epsilon,
    eta,
    multiplicity_weights,
)
from subamp.harness import (
    BootstrapConfig,
    SGDConfig,
    calibrate_for_scheme,
    make_synthetic,
    run_bootstrap,
    run_dpsgd_linear,
)
from subamp.mechanisms import (
    Family,
    MechanismSpec,
    group_profile,
    profile,
    profile_numeric_oracle,
)
from subamp.pld import (
    PrivacyLossModel,
    discretize,
    invert_loss,
    loss_at,
    pld_density,
)
from subamp.sampling import mc_stats
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from oracles import eta_mustwo_sum_form
from reference_values import (
    AMP_B,
    AMP_DELTA,
    AMP_EPS_PRIME,
    AMP_M,
    AMP_N,
    BASE_EPS,
    BOOTSTRAP_SIGMAS,
    REGRESSION_SIGMAS,
    UNIQUE_ROWS,
    check_printed,
    printed_tolerance,
)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def scheme_for(tag: str, n: int, b: int, m: int):
    factories = {
        "poisson": lambda: Poisson(m / n, n=n),
        "wor": lambda: WOR(n, m),
        "wr": lambda: WR(n, m),
        "mustwo": lambda: MUSTwo(n, b, m),
        "mustow": lambda: MUSTow(n, b, m),
        "mustww": lambda: MUSTww(n, b, m),
    }
    return factories[tag]()


def test_criterion_1_amplification_table():
    start = time.perf_counter()
    schemes = {
        tag: scheme_for(tag, AMP_N, AMP_B, AMP_M)
        for tag in ("wor", "wr", "mustow", "mustww")
    }
    checked = 0

    for tag, scheme in schemes.items():
        eta_value = eta(scheme)
        for eps, printed in zip(BASE_EPS, AMP_EPS_PRIME[tag]):
            got = amplify_epsilon(eta_value, eps)
            assert check_printed(got, printed), (tag, eps, got, printed)
            checked += 1

    for (family, theta), table in AMP_DELTA.items():
        mech = MechanismSpec(family, theta)
        for eps, printed in zip(BASE_EPS, table["base"]):
            got = profile(mech, eps)
            assert check_printed(got, printed), (family, theta, eps, got, printed)
            checked += 1
        for tag in ("wor", "wr", "mustow", "mustww"):
            if tag not in table:
                continue
            for eps, printed in zip(BASE_EPS, table[tag]):
                got = amplify_delta(schemes[tag], mech, eps)
                assert check_printed(got, printed), (tag, family, theta, eps, got, printed)
                checked += 1

    # The one excluded row (gaussian, theta=1, mustww) is checked against
    # the quadrature oracle instead of the printed duplicates.
    mech = MechanismSpec("gaussian", 1.0)
    weights = multiplicity_weights(schemes["mustww"])
    significant = np.flatnonzero(weights > 1e-18 * weights.max()) + 1
    for eps in BASE_EPS:
        closed = amplify_delta(schemes["mustww"], mech, eps)
        oracle = math.fsum(
            weights[u - 1] * profile_numeric_oracle(mech, int(u), eps)
            for u in significant
        )
        assert abs(closed - oracle) <= 1e-6, (eps, closed, oracle)
        checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report("criterion 1", f"{checked} printed cells reproduced ({elapsed:.1f}s)")


def test_criterion_2_equivalence_and_ordering():
    start = time.perf_counter()
    rng = np.random.default_rng(20240607)
    for i in range(1000):
        n = int(rng.integers(2, 10_001))
        b = int(rng.integers(1, n))
        m = int(rng.integers(1, min(b, 1000) + 1))

        e_wr = eta(WR(n, m))
        e_two = eta(MUSTwo(n, b, m))
        assert abs(e_two - e_wr) <= 1e-12
        # The sum-form oracle itself carries ~1e-11 of log-gamma round-off
        # at b ~ 1e4, so its cross-check band is wider than the package one.
        assert abs(eta_mustwo_sum_form(n, b, m) - e_wr) <= 5e-11

        w_two = multiplicity_weights(MUSTwo(n, b, m))
        w_wr = multiplicity_weights(WR(n, m))
        assert np.max(np.abs(w_two - w_wr)) <= 1e-12, (n, b, m)
        assert abs(w_two.sum() - e_two) <= 1e-12
        assert abs(w_wr.sum() - e_wr) <= 1e-12

        e_ow = eta(MUSTow(n, b, m))
        e_wor = eta(WOR(n, m))
        assert e_wor == m / n
        assert e_ow <= e_wr * (1.0 + 1e-12)
        assert e_wr <= e_wor * (1.0 + 1e-12)
        if m > 1:  # b < n always holds here
            assert e_ow < e_wr
            assert e_wr < e_wor
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    report("criterion 2", f"1000 random configurations ({elapsed:.1f}s)")


def test_criterion_3_monte_carlo_oracle_agreement():
    start = time.perf_counter()
    small = {tag: scheme_for(tag, 10, 5, 3) for tag in
             ("poisson", "wor", "wr", "mustwo", "mustow", "mustww")}

    for tag, scheme in small.items():
        stats = mc_stats(scheme, 100_000, seed=20240601)
        e = eta(scheme)
        se = math.sqrt(e * (1.0 - e) / stats.trials)
        assert abs(stats.eta_hat - e) <= 3.0 * se, tag

    for tag in ("wr", "mustwo", "mustow", "mustww"):
        scheme = small[tag]
        stats = mc_stats(scheme, 1_000_000, seed=20240602)
        w = multiplicity_weights(scheme)
        for u in range(1, scheme.m + 1):
            se = math.sqrt(w[u - 1] * (1.0 - w[u - 1]) / stats.trials)
            assert abs(stats.weight_hat[u - 1] - w[u - 1]) <= 3.0 * se, (tag, u)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    report("criterion 3", f"eta at 1e5 and weights at 1e6 trials ({elapsed:.1f}s)")


def test_criterion_4_unique_sample_rows():
    start = time.perf_counter()
    small_elapsed = None
    for row_index, ((n, b, m), expected) in enumerate(sorted(UNIQUE_ROWS.items())):
        for tag, (ref_min, ref_mean, ref_max) in expected.items():
            scheme = scheme_for(tag, n, b, m)
            stats = mc_stats(scheme, 10_000, seed=7)
            assert abs(stats.unique_mean - ref_mean) <= 1.0, (n, b, m, tag)
            if tag == "wor":
                assert stats.unique_min == stats.unique_max == m
            if tag == "poisson":
                assert abs(stats.unique_min - ref_min) <= 6, (n, b, m)
                assert abs(stats.unique_max - ref_max) <= 6, (n, b, m)
        if (n, b, m) == (30969, 500, 300):
            small_elapsed = time.perf_counter() - start
    elapsed = time.perf_counter() - start
    assert small_elapsed < 60.0, f"non-MNIST-scale rows took {small_elapsed:.1f}s"
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    report("criterion 4", f"four configuration rows at 1e4 trials ({elapsed:.1f}s)")


def test_criterion_5_accountant():
    start = time.perf_counter()

    # (a) one application against the direct tail integral.
    poisson_model = PrivacyLossModel(Poisson(0.02, n=100), 2.0)
    wor_model = PrivacyLossModel(WOR(1000, 200), 2.0)
    pld_p = discretize(poisson_model, 10.0, 100_000)
    pld_w = discretize(wor_model, 10.0, 100_000)
    for model, pld in ((poisson_model, pld_p), (wor_model, pld_w)):
        for eps in (0.1, 0.5, 1.0):
            got = compose(pld, 1, eps).delta_approx
            ref = delta_direct(model, eps)
            assert abs(got - ref) <= 1e-6, (model.scheme.label, eps)

    fig_model = PrivacyLossModel(MUSTow(10_000, 118, 200), 4.0)
    mult_models = [
        PrivacyLossModel(WR(1000, 200), 4.0),
        fig_model,
        PrivacyLossModel(MUSTww(1000, 100, 50), 4.0),
        PrivacyLossModel(MUSTwo(1000, 100, 50), 4.0),
    ]
    for model in mult_models:
        pld = discretize(model, 10.0, 1 << 17)
        for eps in (0.5, 1.0):
            got = compose(pld, 1, eps).delta_approx
            ref = delta_direct(model, eps)
            assert abs(got - ref) <= 1e-4, (model.scheme.label, eps)

    # (b) bracketing and k-monotonicity on the composition-sweep config.
    fig_pld = discretize(fig_model, 10.0, 300_000)
    cells = compose_many(fig_pld, [200, 400, 600, 800, 1000], [1.0])
    lowers = [c.result.delta_lower for c in cells]
    approxs = [c.result.delta_approx for c in cells]
    uppers = [c.result.delta_upper for c in cells]
    for lo, mid, hi in zip(lowers, approxs, uppers):
        assert lo <= mid <= hi
    assert all(b > a for a, b in zip(lowers, lowers[1:]))
    assert all(b > a for a, b in zip(approxs, approxs[1:]))
    assert all(b > a for a, b in zip(uppers, uppers[1:]))

    # (c) census-scale sweep: the upper bound stays below 1/n at eps_c = 2.
    # Noise per scheme comes from the m-denominator variant of the
    # gradient-noise calibration at eps' = 5e-5, delta = 1/n, expressed as
    # the base mechanism's noise-to-sensitivity ratio.
    n, m, b, clip_c, eps_prime = 30969, 100, 200, 1.5, 5e-5
    for tag in ("poisson", "wor", "wr", "mustow", "mustww"):
        scheme = scheme_for(tag, n, b, m)
        sigma_alg, _ = calibrate_for_scheme(
            scheme, eps_prime, 1.0 / n, clip_c / m, "classical"
        )
        sigma_pld = sigma_alg / clip_c
        grid_r = 200_000 if tag == "wr" else 300_000
        pld = discretize(PrivacyLossModel(scheme, sigma_pld), 6.0, grid_r)
        res = compose(pld, 1000, 2.0)
        assert res.delta_upper < 3.2e-5, (tag, res.delta_upper)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"
    report("criterion 5", f"k=1 oracle, k-sweep, census sweep ({elapsed:.1f}s)")


def test_criterion_6_bootstrap_noise_scales():
    start = time.perf_counter()
    n, m = 300, 30
    width = 8.0
    for key, (printed_mean, printed_var) in BOOTSTRAP_SIGMAS.items():
        tag, b = key if isinstance(key, tuple) else (key, 50)
        scheme = scheme_for(tag, n, b, m)
        sig_mean, _ = calibrate_for_scheme(scheme, 0.1, 1 / n, width / n, "classical")
        sig_var, _ = calibrate_for_scheme(scheme, 0.1, 1 / n, width**2 / n, "classical")
        assert abs(sig_mean - float(printed_mean)) <= 0.01, key
        assert abs(sig_var - float(printed_var)) <= 0.01, key
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 6 took {elapsed:.2f}s"
    report("criterion 6", f"{len(BOOTSTRAP_SIGMAS)} noise scales within 0.01 ({elapsed:.2f}s)")


def test_criterion_7_bootstrap_inference():
    start = time.perf_counter()
    n, m, t_boot, repeats = 300, 30, 500, 20

    def run(scheme):
        means, variances = [], []
        for rep in range(repeats):
            cfg = BootstrapConfig(
                scheme=scheme, t_boot=t_boot, bounds=(-4.0, 4.0), eps_prime=0.1,
                delta_base=1.0 / n, repeats=repeats, seed=5000 + rep,
            )
            data = make_synthetic("gaussian_univariate", n, seed=5000 + rep)
            res = run_bootstrap(cfg, data)
            means.append(res["pp_mean"])
            variances.append(res["pp_var"])
        return float(np.mean(means)), float(np.mean(variances))

    for tag in ("poisson", "wor", "wr"):
        mean, _ = run(scheme_for(tag, n, 50, m))
        assert abs(mean) <= 0.05, tag

    _, wor_var = run(WOR(n, m))
    assert 0.90 <= wor_var <= 1.05, wor_var

    ow_mean, ow_var = run(MUSTow(n, 10, m))
    assert abs(ow_mean) <= 0.05
    assert ow_var < 0.95, ow_var

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"
    report(
        "criterion 7",
        f"means ~0, WOR var {wor_var:.3f}, small-b var {ow_var:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_8_dpsgd_regression():
    start = time.perf_counter()
    n, b, m, repeats = 1000, 200, 100, 20
    sigmas, rmse_means = {}, {}
    for tag in ("poisson", "wor", "wr", "mustow", "mustww"):
        scheme = scheme_for(tag, n, b, m)
        rmses = []
        sigma = None
        for rep in range(repeats):
            design, y = make_synthetic("linear_regression", n, seed=9000 + rep)
            test_x, test_y = make_synthetic("linear_regression", n, seed=9000 + rep + 7)
            cfg = SGDConfig(
                scheme=scheme, eps_prime_per_iter=0.01, delta_base=1.0 / n,
                clip_c=3.0, learning_rate=0.04, iterations=200, seed=9000 + rep,
            )
            res = run_dpsgd_linear(cfg, design, y)
            pred = test_x @ res["beta_hat"]
            rmses.append(float(np.sqrt(np.mean((test_y - pred) ** 2))))
            sigma = res["sigma_used"]
        sigmas[tag] = sigma
        rmse_means[tag] = float(np.mean(rmses))
        assert 0.95 <= rmse_means[tag] <= 1.10, (tag, rmse_means[tag])
        assert check_printed(sigma, REGRESSION_SIGMAS[tag]), (tag, sigma)

    assert sigmas["mustww"] < sigmas["mustow"] < sigmas["wr"] < sigmas["wor"]
    assert sigmas["wor"] == sigmas["poisson"]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s"
    report(
        "criterion 8",
        "RMSE in band for all schemes, sigma ordering holds "
        f"({', '.join(f'{t}={v:.3f}' for t, v in rmse_means.items())}) ({elapsed:.1f}s)",
    )


def test_criterion_9_numerical_hygiene():
    start = time.perf_counter()
    models = {
        "poisson": PrivacyLossModel(Poisson(0.02, n=100), 2.0),
        "wor": PrivacyLossModel(WOR(1000, 200), 2.0),
        "wr": PrivacyLossModel(WR(1000, 200), 4.0),
        "mustow": PrivacyLossModel(MUSTow(10_000, 118, 200), 4.0),
        "mustww": PrivacyLossModel(MUSTww(1000, 100, 50), 4.0),
        "mustwo": PrivacyLossModel(MUSTwo(1000, 100, 50), 4.0),
    }

    # loss monotonicity on 1e3 ordered points.
    for tag, model in models.items():
        t = np.linspace(-60.0, 60.0, 1000)
        assert np.all(np.diff(loss_at(model, t)) > 0.0), tag

    # inversion round trips at 1e-9.
    rng = np.random.default_rng(11)
    for tag, model in models.items():
        t0 = rng.uniform(-30.0, 30.0, size=100)
        back = invert_loss(model, loss_at(model, t0))
        assert np.max(np.abs(back - t0)) <= 1e-9, tag

    # density normalization at the 1e-4 level.
    s = np.linspace(-10.0, 10.0, 100_001)
    total = np.trapezoid(pld_density(models["poisson"], s), s)
    assert abs(total - 1.0) <= 1e-4

    # swapped-density identity on 50 grid points (the swapped density of a
    # symmetric scheme is pld_density).
    s50 = np.linspace(-3.0, 3.0, 50)
    lhs = pld_density(models["wor"], s50)
    rhs = np.exp(s50) * pld_density(models["wor"], -s50)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8

    # closed-form profiles against quadrature at 1e-6.
    for family in ("laplace", "gaussian"):
        for theta in (0.25, 1.0, 4.0):
            mech = MechanismSpec(family, theta)
            for j in (1, 2, 5):
                for eps in (0.0, 1.0, 3.0, 6.0):
                    gap = abs(
                        group_profile(mech, j, eps)
                        - profile_numeric_oracle(mech, j, eps)
                    )
                    assert gap <= 1e-6, (family, theta, j, eps)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.1f}s"
    report("criterion 9", f"hygiene identities all inside tolerance ({elapsed:.1f}s)")
