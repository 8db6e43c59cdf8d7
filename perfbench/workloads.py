"""The benchmark's four workloads: their inputs, fixed job and checks.

Each workload is a ``setup(seed)`` that builds every input (scheme and
config objects, the census noise calibration, seeds and synthetic data)
and a ``job(inputs, tracer, checks, values)`` that calls subamp's public
API the way the acceptance suite and ``scripts/`` do. The job wraps each
call into a layer in a span, records one check per operation in
``checks`` and stores deterministic outputs (bound ratio, grid masses) in
``values``.

Sizes follow the paper's configurations. Where a full configuration would
not fit several times into the run length, the trial counts, repeats, k
ladder and grids are shrunk by one factor per workload, so that its layer
mix stays as at full size. ``account`` is not shrunk: its cost is the grid
resolution, and shrinking that would change the bound ratio and which
checks fail.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass

import numpy as np

from subamp import (
    BootstrapConfig,
    Family,
    MechanismSpec,
    MUSTow,
    MUSTwo,
    MUSTww,
    Poisson,
    PrivacyLossModel,
    SGDConfig,
    WOR,
    WR,
    aligned_profile,
    amplify_delta,
    amplify_epsilon,
    compose_many,
    delta_direct,
    discretize,
    eta,
    make_synthetic,
    mc_stats,
    multiplicity_weights,
    profile,
    run_bootstrap,
    run_dpsgd_linear,
)
from subamp.harness import calibrate_for_scheme

# Census scale of acceptance criterion 5(c).
CENSUS_N, CENSUS_B, CENSUS_M = 30969, 200, 100
CENSUS_TAGS = ("poisson", "wor", "wr", "mustow", "mustww")
CENSUS_UPPER = 3.2e-5


# The host's speed swings by half or more for tens of seconds as other
# tenants load it, and interpreted Python swings most. A fixed pure-Python
# loop timed next to each operation tracks those swings for the workloads
# whose time is spent in the interpreter (montecarlo and drivers: the ratio
# of an operation to the loop varies far less than either), so their
# operation times are scaled to the speed at which the loop takes
# REFERENCE_S seconds, about its time on an unloaded 2-vCPU host. The
# accountant workloads spend their time in numpy kernels on large arrays,
# which slow down less than the loop; scaling widened their run-to-run
# spread, so their times are not scaled.
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.004


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


class Checks:
    """One pass/fail outcome and one time per checked operation.

    An operation that raises counts as failed; the exception is kept in
    ``errors``, which makes the run's ``correct`` false. ``times`` maps
    each guarded block, by its first check, to its ``perf_counter``
    seconds; with ``scaled`` they are scaled to the reference speed:
    multiplied by REFERENCE_S over the mean of the reference loop's times
    just before and just after the block. The reference loops are traced
    as ``bench.reference`` spans, so that the traced run can leave them
    out of the workload's time.
    """

    def __init__(self, tracer, scaled: bool):
        self._tracer = tracer
        self._scaled = scaled
        self.results: dict[str, bool] = {}
        self.errors: list[str] = []
        self.times: dict[str, float] = {}

    def check(self, name: str, ok) -> None:
        self.results[name] = bool(ok)

    @contextlib.contextmanager
    def guard(self, names: list[str]):
        """Run a block whose checks are ``names``; if it raises, all fail."""
        before = self._reference()
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:  # one failed operation must not stop the run
            self.errors.append(f"{names[0]}: {type(exc).__name__}: {exc}")
            for name in names:
                self.results.setdefault(name, False)
        finally:
            elapsed = time.perf_counter() - start
            speed = REFERENCE_S / ((before + self._reference()) / 2.0)
            self.times[names[0]] = elapsed * speed

    def _reference(self) -> float:
        """Seconds of the reference loop now, or REFERENCE_S when unscaled."""
        if not self._scaled:
            return REFERENCE_S
        with self._tracer.span("bench.reference"):
            return reference_s()


def scheme_for(tag: str, n: int, b: int, m: int):
    return {
        "poisson": lambda: Poisson(m / n, n=n),
        "wor": lambda: WOR(n, m),
        "wr": lambda: WR(n, m),
        "mustwo": lambda: MUSTwo(n, b, m),
        "mustow": lambda: MUSTow(n, b, m),
        "mustww": lambda: MUSTww(n, b, m),
    }[tag]()


def census_sigma(tag: str) -> float:
    """Noise-to-sensitivity ratio of criterion 5(c) for one census scheme."""
    scheme = scheme_for(tag, CENSUS_N, CENSUS_B, CENSUS_M)
    clip_c = 1.5
    sigma_alg, _ = calibrate_for_scheme(
        scheme, 5e-5, 1.0 / CENSUS_N, clip_c / CENSUS_M, "classical"
    )
    return sigma_alg / clip_c


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _finite(*xs) -> bool:
    return all(np.all(np.isfinite(np.asarray(x, dtype=float))) for x in xs)


def _rising(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


# --- accountant workloads: account and curve ---------------------------------


@dataclass(frozen=True)
class AccountConfig:
    name: str
    model: PrivacyLossModel
    trunc_L: float
    grid_r: int
    k_list: tuple[int, ...]
    eps_list: tuple[float, ...]
    oracle_eps: tuple[float, ...] = ()  # k=1 cells checked by quadrature


def _oracle_name(cfg: AccountConfig, eps: float) -> str:
    return f"oracle.{cfg.name}.eps{eps:g}"


def _run_accountant(cfg: AccountConfig, tracer, checks: Checks, values: dict) -> dict:
    """discretize, compose_many and the k=1 quadrature checks of one config."""
    with tracer.span("pld.discretize", cfg.name):
        pld = discretize(cfg.model, cfg.trunc_L, cfg.grid_r)
    values[f"pld.mass_excess.{cfg.name}"] = float(pld.c_plus.sum()) - 1.0
    values[f"pld.mass_deficit.{cfg.name}"] = 1.0 - float(pld.c_minus.sum())
    with tracer.span("accountant.compose_many", cfg.name, work=len(cfg.k_list)):
        cells = compose_many(pld, cfg.k_list, cfg.eps_list)
    results = {(c.k, c.epsilon): c.result for c in cells}
    values[f"accountant.floored_mass.{cfg.name}"] = max(
        r.diagnostics.floored_mass for r in results.values()
    )
    for eps in cfg.oracle_eps:
        with tracer.span("accountant.delta_direct", cfg.name):
            direct = delta_direct(cfg.model, eps)
        cell = results[(1, eps)]
        checks.check(_oracle_name(cfg, eps), cell.delta_lower <= direct <= cell.delta_upper)
    return results


def _ratio_at(results: dict, k: int, eps: float) -> float:
    cell = results[(k, eps)]
    return cell.delta_upper / cell.delta_lower


def account_setup(seed: int) -> list[AccountConfig]:
    del seed  # the accountant configurations are fixed
    cfgs = [
        AccountConfig(
            "sweep", PrivacyLossModel(MUSTow(10_000, 118, 200), 4.0), 10.0, 300_000,
            (1, 200, 400, 600, 800, 1000), (0.5, 1.0), oracle_eps=(0.5, 1.0),
        )
    ]
    for tag in CENSUS_TAGS:
        scheme = scheme_for(tag, CENSUS_N, CENSUS_B, CENSUS_M)
        cfgs.append(AccountConfig(
            f"census_{tag}", PrivacyLossModel(scheme, census_sigma(tag)), 6.0,
            200_000 if tag == "wr" else 300_000, (1, 1000), (2.0,), oracle_eps=(2.0,),
        ))
    cfgs.append(AccountConfig(
        "mixture", PrivacyLossModel(MUSTww(1000, 10, 500), 4.0), 10.0, 20_000,
        (1, 100), (1.0,), oracle_eps=(1.0,),
    ))
    cfgs.append(AccountConfig(
        "spike", PrivacyLossModel(Poisson(100 / CENSUS_N, n=CENSUS_N), 144.4), 6.0,
        1 << 17, (1,), (0.0, 1e-4), oracle_eps=(0.0, 1e-4),
    ))
    return cfgs


def account_job(cfgs: list[AccountConfig], tracer, checks: Checks, values: dict) -> None:
    for cfg in cfgs:
        names = [_oracle_name(cfg, eps) for eps in cfg.oracle_eps]
        if cfg.name == "sweep":
            names.append("sweep.rising_in_k")
        elif cfg.name.startswith("census_"):
            names.append(f"{cfg.name}.k1000_upper")
        with checks.guard(names), tracer.span("bench.config", cfg.name):
            results = _run_accountant(cfg, tracer, checks, values)
            if cfg.name == "sweep":
                series = [results[(k, 1.0)] for k in cfg.k_list if k > 1]
                checks.check("sweep.rising_in_k", all(
                    _rising([getattr(r, f) for r in series])
                    for f in ("delta_lower", "delta_approx", "delta_upper")
                ))
                values["bound_ratio"] = _ratio_at(results, 1000, 1.0)
            elif cfg.name.startswith("census_"):
                checks.check(
                    f"{cfg.name}.k1000_upper",
                    results[(1000, 2.0)].delta_upper < CENSUS_UPPER,
                )


# The k ladder 50, 100, ..., 1000 thinned fourfold: 200, 400, ..., 1000.
CURVE_SHRINK = 4
CURVE_K = tuple(range(50 * CURVE_SHRINK, 1001, 50 * CURVE_SHRINK))
CURVE_EPS = (0.5, 1.0, 2.0)


def curve_setup(seed: int) -> list[AccountConfig]:
    del seed
    return [
        AccountConfig(
            f"curve_{tag}",
            PrivacyLossModel(scheme_for(tag, CENSUS_N, CENSUS_B, CENSUS_M), census_sigma(tag)),
            6.0, 1 << 20, CURVE_K, CURVE_EPS,
        )
        for tag in ("poisson", "wor")
    ]


def curve_job(cfgs: list[AccountConfig], tracer, checks: Checks, values: dict) -> None:
    for cfg in cfgs:
        rising, upper = f"{cfg.name}.rising_in_k", f"{cfg.name}.k1000_upper"
        with checks.guard([rising, upper]), tracer.span("bench.config", cfg.name):
            results = _run_accountant(cfg, tracer, checks, values)
            # delta_lower is not required to rise: at this noise level it sits
            # on the FFT round-off floor, which bound_ratio already reports.
            checks.check(rising, all(
                _rising([getattr(results[(k, eps)], f) for k in cfg.k_list])
                for eps in cfg.eps_list
                for f in ("delta_approx", "delta_upper")
            ))
            checks.check(upper, results[(1000, 2.0)].delta_upper < CENSUS_UPPER)
            if cfg.name == "curve_poisson":
                values["bound_ratio"] = _ratio_at(results, 1000, 1.0)


# --- montecarlo ----------------------------------------------------------------


@dataclass(frozen=True)
class MCCase:
    label: str
    scheme: object
    trials: int
    seed: int
    size: str  # "small" (n=10) or "large" (the unique-count rows)
    eta: float
    weights: tuple[float, ...] | None  # checked at the 1e6-trial size only


MC_SHRINK = 16
UNIQUE_ROWS = ((300, 50, 30), (1000, 200, 100), (30969, 500, 300), (60000, 3000, 2000))


def montecarlo_setup(seed: int) -> list[MCCase]:
    specs = [(tag, (10, 5, 3), 100_000, False)
             for tag in ("poisson", "wor", "wr", "mustwo", "mustow", "mustww")]
    specs += [(tag, (10, 5, 3), 1_000_000, True) for tag in ("wr", "mustwo", "mustow", "mustww")]
    specs += [(tag, row, 10_000, False)
              for row in UNIQUE_ROWS for tag in ("wor", "poisson", "wr", "mustow", "mustww")]
    cases = []
    for (tag, row, trials, with_weights), case_seed in zip(specs, _seeds(seed, len(specs))):
        scheme = scheme_for(tag, *row)
        weights = tuple(float(w) for w in multiplicity_weights(scheme)) if with_weights else None
        cases.append(MCCase(
            label=f"{tag}.{row[0]}x{trials // MC_SHRINK}",
            scheme=scheme,
            trials=trials // MC_SHRINK,
            seed=case_seed,
            size="small" if row[0] == 10 else "large",
            eta=eta(scheme),
            weights=weights,
        ))
    return cases


def _within(estimate: float, p: float, trials: int) -> bool:
    """A frequency within 3 binomial standard errors of its probability."""
    return abs(estimate - p) <= 3.0 * math.sqrt(p * (1.0 - p) / trials)


def _mc_ok(case: MCCase, stats) -> bool:
    if case.weights is not None:
        return all(
            _within(float(w_hat), w, case.trials)
            for w_hat, w in zip(stats.weight_hat, case.weights)
        )
    if case.size == "small":
        return _within(stats.eta_hat, case.eta, case.trials)
    if isinstance(case.scheme, WOR):
        return stats.unique_min == stats.unique_max == case.scheme.m
    # E[unique] = n*eta exactly. The binomial variance n*eta*(1-eta) is exact
    # for Poisson; for the fixed-size schemes, whose draws compete for m
    # slots, the sampled variance lies far below it (227 against 1408 for
    # MUSTww on the largest row).
    n = case.scheme.n
    return abs(stats.unique_mean - n * case.eta) <= 3.0 * math.sqrt(
        n * case.eta * (1.0 - case.eta) / case.trials
    )


def montecarlo_job(cases: list[MCCase], tracer, checks: Checks, values: dict) -> None:
    values["bound_ratio"] = 1.0  # no two-sided bound is computed here
    for case in cases:
        name = f"mc.{case.label}"
        key = f"{case.scheme.label}.{case.size}"
        with checks.guard([name]):
            with tracer.span("sampling.mc_stats", key, work=case.trials):
                stats = mc_stats(case.scheme, case.trials, seed=case.seed)
            checks.check(name, _mc_ok(case, stats))


# --- drivers ---------------------------------------------------------------------


DRIVERS_SHRINK = 20


@dataclass(frozen=True)
class DriverInputs:
    mechs: dict  # family -> MechanismSpec at theta=1
    grid: dict  # scheme tag -> list of (b, m) schemes
    aligned: list  # (family, tag, theta, scheme, mech)
    eps_grid: np.ndarray
    bootstrap: list  # (tag, [(BootstrapConfig, data), ...])
    dpsgd: list  # (tag, [(SGDConfig, design, response), ...])


def drivers_setup(seed: int) -> DriverInputs:
    families = ("laplace", "gaussian")
    mechs = {f: MechanismSpec(Family(f), 1.0) for f in families}
    # scripts/run_contour_grids.py: b in [150, 200], m in [100, 150], n=1000.
    grid = {
        tag: [scheme_for(tag, 1000, b, m) for b in range(150, 201) for m in range(100, 151, DRIVERS_SHRINK)]
        for tag in ("mustow", "mustww", "mustwo")
    }
    # scripts/run_aligned_curves.py: eps grid 0.05:6:120.
    aligned = [
        (f, tag, theta, scheme_for(tag, 1000, 500, 400), MechanismSpec(Family(f), theta))
        for f in families for tag in ("wor", "wr", "mustow", "mustww") for theta in (0.25, 1.0)
    ]
    eps_grid = np.linspace(0.05, 6.0, 120 // DRIVERS_SHRINK)

    # scripts/run_utility_experiments.py at 20 // DRIVERS_SHRINK repeats.
    repeats = 20 // DRIVERS_SHRINK
    boot_specs = [("poisson", 50), ("wor", 50), ("wr", 50)] + [
        (tag, b) for tag in ("mustow", "mustww") for b in (10, 20, 30, 50, 100)
    ]
    sgd_tags = ("poisson", "wor", "wr", "mustow", "mustww")
    seeds = iter(_seeds(seed, repeats * (len(boot_specs) + len(sgd_tags))))
    bootstrap = []
    for tag, b in boot_specs:
        scheme = scheme_for(tag, 300, b, 30)
        runs = []
        for _ in range(repeats):
            s = next(seeds)
            cfg = BootstrapConfig(
                scheme=scheme, t_boot=500, bounds=(-4.0, 4.0), eps_prime=0.1,
                delta_base=1.0 / 300, repeats=repeats, seed=s,
            )
            runs.append((cfg, make_synthetic("gaussian_univariate", 300, seed=s)))
        bootstrap.append((f"{tag}.b{b}", runs))
    dpsgd = []
    for tag in sgd_tags:
        scheme = scheme_for(tag, 1000, 200, 100)
        runs = []
        for _ in range(repeats):
            s = next(seeds)
            cfg = SGDConfig(
                scheme=scheme, eps_prime_per_iter=0.01, delta_base=1.0 / 1000,
                clip_c=3.0, learning_rate=0.04, iterations=200, seed=s,
            )
            runs.append((cfg, *make_synthetic("linear_regression", 1000, seed=s)))
        dpsgd.append((tag, runs))
    return DriverInputs(mechs, grid, aligned, eps_grid, bootstrap, dpsgd)


def _contour_grid(tag, schemes, mech, tracer) -> bool:
    """eta, eps', delta and delta' per cell, as `subamp contour` computes them."""
    ok = True
    with tracer.span("bench.grid", tag, work=len(schemes)):
        for scheme in schemes:
            with tracer.span("amplification.eta", tag):
                eta_value = eta(scheme)
            with tracer.span("amplification.amplify_epsilon", tag):
                eps_prime = amplify_epsilon(eta_value, 1.0)
            with tracer.span("mechanisms.profile"):
                delta = profile(mech, 1.0)
            with tracer.span("amplification.amplify_delta", tag):
                delta_prime = amplify_delta(scheme, mech, 1.0)
            ok = ok and 0.0 < eta_value <= 1.0 and eps_prime <= 1.0 \
                and 0.0 <= delta <= 1.0 and 0.0 <= delta_prime <= 1.0
    return ok


def drivers_job(inputs: DriverInputs, tracer, checks: Checks, values: dict) -> None:
    values["bound_ratio"] = 1.0  # closed forms and utility runs: no bracket
    for family, mech in inputs.mechs.items():
        for tag, schemes in inputs.grid.items():
            name = f"grid.{tag}.{family}"
            with checks.guard([name]):
                checks.check(name, _contour_grid(tag, schemes, mech, tracer))

    for family, tag, theta, scheme, mech in inputs.aligned:
        name = f"aligned.{family}.{tag}.theta{theta:g}"
        with checks.guard([name]):
            with tracer.span("amplification.aligned_profile"):
                points = aligned_profile(scheme, mech, inputs.eps_grid)
            checks.check(name, all(
                p.eps_ratio <= 1.0 + 1e-12 and 0.0 <= p.delta_prime <= 1.0 for p in points
            ))

    for label, runs in inputs.bootstrap:
        name = f"bootstrap.{label}.finite"
        with checks.guard([name]):
            ok = True
            for cfg, data in runs:
                with tracer.span("harness.run_bootstrap", label, work=cfg.t_boot):
                    res = run_bootstrap(cfg, data)
                ok = ok and _finite(res["pp_mean"], res["pp_var"], res["sigma_mean"], res["sigma_var"])
            checks.check(name, ok)

    sigmas = {}
    for tag, runs in inputs.dpsgd:
        name = f"dpsgd.{tag}.finite"
        with checks.guard([name]):
            ok = True
            for cfg, design, response in runs:
                with tracer.span("harness.run_dpsgd_linear", tag, work=cfg.iterations):
                    res = run_dpsgd_linear(cfg, design, response)
                ok = ok and _finite(res["beta_hat"], res["sigma_used"])
                sigmas[tag] = res["sigma_used"]
            checks.check(name, ok)
    with checks.guard(["dpsgd.sigma_order"]):
        checks.check(
            "dpsgd.sigma_order",
            sigmas["mustww"] < sigmas["mustow"] < sigmas["wr"] < sigmas["wor"],
        )


# name: (setup, job, whether operation times are scaled to the reference speed)
WORKLOADS = {
    "account": (account_setup, account_job, False),
    "curve": (curve_setup, curve_job, False),
    "montecarlo": (montecarlo_setup, montecarlo_job, True),
    "drivers": (drivers_setup, drivers_job, True),
}
