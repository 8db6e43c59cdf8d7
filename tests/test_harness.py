"""Bootstrap and DP-SGD harness behavior."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import subamp
from subamp.amplification import deamplify_epsilon
from subamp.harness import (
    BootstrapConfig,
    DivergenceError,
    SGDConfig,
    _clip_rows,
    _subsample_size,
    calibrate_for_scheme,
    make_synthetic,
    run_bootstrap,
    run_dpsgd_linear,
    run_dpsgd_logistic,
)
from subamp.sampling import _count_blocks
from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, WOR, WR

from child_peak import child_peak_mb


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic("gaussian_univariate", 100, seed=3)
        b = make_synthetic("gaussian_univariate", 100, seed=3)
        c = make_synthetic("gaussian_univariate", 100, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gaussian_mean_band(self):
        data = make_synthetic("gaussian_univariate", 300, seed=1)
        assert abs(data.mean()) <= 3.0 / math.sqrt(300)

    def test_linear_ols_recovers_coefficients(self):
        design, y = make_synthetic("linear_regression", 5000, seed=2)
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        cov = np.linalg.inv(design.T @ design) * resid.var(ddof=3)
        se = np.sqrt(np.diag(cov))
        for est, truth, s in zip(beta, (1.0, 0.5, 0.2), se):
            assert abs(est - truth) <= 3.0 * s

    def test_logistic_labels_binary(self):
        design, y = make_synthetic("logistic_2class", 500, seed=5)
        assert design.shape == (500, 3)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_synthetic("mystery", 10, seed=0)

    @pytest.mark.parametrize("bad", [5.0, True], ids=repr)
    def test_rejects_a_size_that_is_not_a_count(self, bad):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            make_synthetic("gaussian_univariate", bad, seed=0)


class TestClipping:
    def test_norms_capped(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(0, 10, size=(200, 5))
        clipped = _clip_rows(grads, 3.0)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= 3.0 + 1e-12)

    def test_short_vectors_untouched(self):
        grads = np.array([[0.1, 0.2], [1.0, 0.0]])
        assert np.array_equal(_clip_rows(grads, 3.0), grads)


class TestBootstrap:
    def config(self, scheme, seed=0, **kw):
        defaults = dict(
            scheme=scheme, t_boot=200, bounds=(-4.0, 4.0), eps_prime=0.1,
            delta_base=1 / 300, repeats=1, seed=seed,
        )
        defaults.update(kw)
        return BootstrapConfig(**defaults)

    def test_reference_noise_scales(self):
        res = run_bootstrap(
            self.config(MUSTow(300, 50, 30)), make_synthetic("gaussian_univariate", 300, seed=0)
        )
        assert res["sigma_mean"] == pytest.approx(0.11, abs=0.01)
        assert res["sigma_var"] == pytest.approx(0.84, abs=0.01)

    def test_estimates_near_truth(self):
        means, variances = [], []
        for rep in range(25):
            data = make_synthetic("gaussian_univariate", 300, seed=100 + rep)
            res = run_bootstrap(self.config(WOR(300, 30), seed=100 + rep, t_boot=300), data)
            means.append(res["pp_mean"])
            variances.append(res["pp_var"])
        assert abs(np.mean(means)) <= 0.05
        assert 0.90 <= np.mean(variances) <= 1.05

    def test_small_first_stage_biases_variance_down(self):
        variances = []
        for rep in range(25):
            data = make_synthetic("gaussian_univariate", 300, seed=200 + rep)
            res = run_bootstrap(
                self.config(MUSTow(300, 10, 30), seed=200 + rep, t_boot=300), data
            )
            variances.append(res["pp_var"])
        assert np.mean(variances) < 0.95

    def test_data_length_checked(self):
        with pytest.raises(ValueError):
            run_bootstrap(self.config(WOR(300, 30)), np.zeros(100))

    @pytest.mark.parametrize(
        "scheme", [Poisson(2 / 300, n=300), WR(300, 30), MUSTww(300, 10, 30)], ids=repr
    )
    def test_matches_per_subsample_loop(self, scheme):
        # Reference: the same count rows, each expanded to its records and
        # reduced by np.mean and np.var, then the same two noise vectors. The
        # summation order differs, so agreement is to float64 round-off.
        cfg = self.config(scheme, seed=4)
        data = make_synthetic("gaussian_univariate", 300, seed=4)
        res = run_bootstrap(cfg, data)
        clamped = np.clip(data, -4.0, 4.0)
        rng = np.random.default_rng([4, 1])
        rows = [row for block in _count_blocks(scheme, rng, cfg.t_boot) for row in block]
        values = [np.repeat(clamped, row) for row in rows if row.sum() >= 2]
        means = [v.mean() for v in values] + rng.normal(0.0, res["sigma_mean"], len(values))
        variances = [v.var(ddof=1) for v in values] + rng.normal(0.0, res["sigma_var"], len(values))
        assert res["pp_mean"] == pytest.approx(means.mean(), rel=1e-12, abs=1e-14)
        assert res["pp_var"] == pytest.approx(variances.mean(), rel=1e-12, abs=1e-14)

    def test_all_degenerate_subsamples_raise(self):
        # At gamma = 1e-6 a subsample of two or more records has probability
        # about 4.5e-8, so every one of the 200 rows is dropped.
        data = make_synthetic("gaussian_univariate", 300, seed=0)
        with pytest.raises(RuntimeError, match="all bootstrap subsamples were degenerate"):
            run_bootstrap(self.config(Poisson(1e-6, n=300)), data)

    def test_degenerate_subsamples_are_dropped(self):
        # Subsample sizes are about Poisson(2): some 40% of rows have fewer
        # than two records and are dropped, and the rest still give finite
        # estimates.
        data = make_synthetic("gaussian_univariate", 300, seed=0)
        res = run_bootstrap(self.config(Poisson(2 / 300, n=300)), data)
        assert np.isfinite(res["pp_mean"]) and np.isfinite(res["pp_var"])

    def test_large_population_memory_is_bounded(self):
        # One (rows, n) count block for all 2000 rows of WR(60000, 30) would
        # be 960 MB; the harness draws them in blocks of _BLOCK_BUDGET counts.
        code = (
            "from subamp.harness import BootstrapConfig, SGDConfig, make_synthetic,"
            " run_bootstrap, run_dpsgd_linear\n"
            "from subamp.schemes import WR\n"
            "n, scheme = 60_000, WR(60_000, 30)\n"
            "run_bootstrap(BootstrapConfig(scheme=scheme, t_boot=2000, bounds=(-4.0, 4.0),"
            " eps_prime=0.1, delta_base=1 / n, repeats=1, seed=0),"
            " make_synthetic('gaussian_univariate', n, seed=0))\n"
            "run_dpsgd_linear(SGDConfig(scheme=scheme, eps_prime_per_iter=0.01,"
            " delta_base=1 / n, clip_c=3.0, learning_rate=0.04, iterations=2000, seed=0),"
            " *make_synthetic('linear_regression', n, seed=0))\n"
        )
        assert child_peak_mb(code) < 400.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.config(WOR(300, 30), bounds=(4.0, -4.0))
        with pytest.raises(ValueError):
            self.config(WOR(300, 30), eps_prime=0.0)
        # An infinite end would otherwise surface later, as an infinite sensitivity.
        for bounds in [(-4.0, math.inf), (-math.inf, 4.0), (math.nan, 4.0)]:
            with pytest.raises(ValueError, match="^bounds must be finite"):
                self.config(WOR(300, 30), bounds=bounds)


class TestDPSGDLinear:
    def config(self, scheme, seed=0, **kw):
        defaults = dict(
            scheme=scheme, eps_prime_per_iter=0.01, delta_base=1e-3, clip_c=3.0,
            learning_rate=0.04, iterations=120, seed=seed,
        )
        defaults.update(kw)
        return SGDConfig(**defaults)

    def test_zero_noise_full_batch_equals_plain_gd(self):
        n = 120
        design, y = make_synthetic("linear_regression", n, seed=9)
        cfg = self.config(WOR(n, n), sigma_override=0.0, iterations=60)
        res = run_dpsgd_linear(cfg, design, y)

        beta = np.zeros(3)
        for _ in range(60):
            grads = -2.0 * (y - design @ beta)[:, None] * design
            norms = np.linalg.norm(grads, axis=1)
            clipped = grads / np.maximum(1.0, norms / 3.0)[:, None]
            counts = np.ones(n)
            grad_sum = (counts[:, None] * clipped).sum(axis=0)
            noise = (n / n) * np.zeros(3)
            beta = beta - 0.04 * (grad_sum + noise) / n
        assert np.array_equal(res["beta_hat"], beta)

    def test_converges_near_truth(self):
        design, y = make_synthetic("linear_regression", 1000, seed=3)
        cfg = self.config(WR(1000, 100), iterations=200)
        res = run_dpsgd_linear(cfg, design, y)
        assert np.linalg.norm(res["beta_hat"] - np.array([1.0, 0.5, 0.2])) < 0.3
        assert res["loss_trace"][-1] < res["loss_trace"][0]

    def test_privacy_bookkeeping_roundtrip(self):
        # The run reports the noise scale only; it is the one that
        # calibrate_for_scheme gives for the config's eps', delta and clip_c / n.
        scheme = MUSTow(1000, 200, 100)
        design, y = make_synthetic("linear_regression", 1000, seed=4)
        cfg = self.config(scheme, iterations=5)
        res = run_dpsgd_linear(cfg, design, y)
        assert set(res) == {"beta_hat", "loss_trace", "sigma_used"}
        sigma, _ = calibrate_for_scheme(scheme, 0.01, 1e-3, 3.0 / 1000, "classical")
        assert res["sigma_used"] == sigma

    def test_divergence_detected(self):
        # Clipping bounds each step at lr*C, so the rate must be large
        # enough for the oscillation amplitude to push the loss past 1e6.
        design, y = make_synthetic("linear_regression", 200, seed=5)
        cfg = self.config(WOR(200, 50), learning_rate=800.0, iterations=100)
        message = r"^loss \S+ exceeded 1e\+06 at iteration \d+$"
        with pytest.raises(DivergenceError, match=message) as excinfo:
            run_dpsgd_linear(cfg, design, y)
        assert float(str(excinfo.value).split()[1]) > 1e6

    def test_wr_and_mustwo_losses_indistinguishable(self):
        # Equivalent samplers must induce the same loss distribution.
        finals = {"wr": [], "mustwo": []}
        design, y = make_synthetic("linear_regression", 400, seed=6)
        for rep in range(50):
            for tag, scheme in (("wr", WR(400, 40)), ("mustwo", MUSTwo(400, 80, 40))):
                cfg = self.config(scheme, seed=700 + rep, iterations=40)
                finals[tag].append(run_dpsgd_linear(cfg, design, y)["loss_trace"][-1])
        _, p_value = sps.ks_2samp(finals["wr"], finals["mustwo"])
        assert p_value > 0.01

    @pytest.mark.parametrize(
        "field, value",
        [("clip_c", math.nan), ("clip_c", math.inf), ("clip_c", 0.0), ("clip_c", -1.0),
         ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
         ("learning_rate", -math.inf), ("sigma_override", math.nan),
         ("sigma_override", math.inf), ("sigma_override", -1.0)],
    )
    def test_config_rejects_bad_reals(self, field, value):
        # Checked at construction: each would otherwise fail mid-run, as a
        # divergence, a RuntimeWarning or numpy's "scale < 0".
        with pytest.raises(ValueError, match=f"^{field} must be"):
            self.config(WOR(200, 50), **{field: value})

    def test_population_size_must_match(self):
        design, y = make_synthetic("linear_regression", 100, seed=7)
        with pytest.raises(ValueError):
            run_dpsgd_linear(self.config(WOR(200, 50)), design, y)

    def test_empty_poisson_step_keeps_beta_and_loss(self, monkeypatch):
        # An empty Poisson draw takes no step and repeats the previous loss.
        # Without noise, rows (full, empty, full) end where (full, full) do.
        design, y = make_synthetic("linear_regression", 4, seed=2)
        full, empty = [1, 0, 1, 1], [0, 0, 0, 0]
        runs = {}
        for rows in ([full, empty, full], [full, full]):
            blocks = [np.array(rows, dtype=np.int64)]
            monkeypatch.setattr(subamp.harness, "_count_blocks", lambda *_: iter(blocks))
            cfg = self.config(Poisson(0.5, n=4), sigma_override=0.0, iterations=len(rows))
            runs[len(rows)] = run_dpsgd_linear(cfg, design, y)
        trace = runs[3]["loss_trace"]
        assert trace[1] == trace[0]
        assert np.array_equal(trace[[0, 2]], runs[2]["loss_trace"])
        assert np.array_equal(runs[3]["beta_hat"], runs[2]["beta_hat"])


class TestDPSGDLogistic:
    def test_smoke_classification_beats_chance(self):
        n = 800
        design, y = make_synthetic("logistic_2class", n, seed=8)
        cfg = SGDConfig(
            scheme=MUSTow(n, 160, 80), eps_prime_per_iter=0.05, delta_base=1 / n,
            clip_c=1.5, learning_rate=0.4, iterations=150, seed=8,
        )
        res = run_dpsgd_logistic(cfg, design, y)
        test_x, test_y = make_synthetic("logistic_2class", 2000, seed=80)
        pred = (test_x @ res["beta_hat"]) > 0.0
        accuracy = float((pred == (test_y > 0.5)).mean())
        base_rate = max(test_y.mean(), 1 - test_y.mean())
        assert accuracy > base_rate
        assert np.isfinite(res["loss_trace"]).all()


class TestCalibrationPlumbing:
    @pytest.mark.parametrize("scheme, sigma, eps", [
        (Poisson(100 / 30969, n=30969), 4.4869482578575015, 0.015366219720719191),
        (WOR(30969, 100), 4.4869482578575015, 0.015366219720719191),
        (WR(30969, 100), 4.479838764583136, 0.015390605874216624),
        (MUSTow(30969, 200, 100), 3.5450257717764155, 0.019449063912217186),
        (MUSTww(30969, 200, 100), 3.540609114360908, 0.01947332523267873),
    ], ids=["poisson", "wor", "wr", "mustow", "mustww"])
    def test_census_sigma_is_bit_for_bit(self, scheme, sigma, eps):
        # The census calibration of the benchmark (eps' = 5e-5, delta = 1/n,
        # sensitivity 1.5/m), pinned to the bits the classical bound gives.
        got = calibrate_for_scheme(scheme, 5e-5, 1 / 30969, 1.5 / 100, "classical")
        assert got == (sigma, eps)

    def test_returns_the_deamplified_eps(self):
        _, eps = calibrate_for_scheme(WOR(300, 30), 0.1, 1 / 300, 8 / 300, "classical")
        assert eps == deamplify_epsilon(0.1, 0.1)

    @pytest.mark.parametrize("calibration", ["exact", "Classical", None])
    def test_other_calibration_raises(self, calibration):
        with pytest.raises(ValueError, match="^calibration must be 'classical', got "):
            calibrate_for_scheme(WOR(300, 30), 0.1, 1 / 300, 8 / 300, calibration)

    def test_poisson_uses_expected_size(self):
        assert _subsample_size(Poisson(0.1, n=300)) == 30

    def test_sigma_ordering_across_schemes(self):
        n, b, m = 1000, 200, 100
        sigmas = {}
        for tag, scheme in (
            ("poisson", Poisson(m / n, n=n)), ("wor", WOR(n, m)), ("wr", WR(n, m)),
            ("mustow", MUSTow(n, b, m)),
        ):
            sigmas[tag], _ = calibrate_for_scheme(scheme, 0.01, 1 / n, 3.0 / n, "classical")
        assert sigmas["mustow"] < sigmas["wr"] < sigmas["wor"]
        assert sigmas["wor"] == sigmas["poisson"]
