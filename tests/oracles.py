"""Independent oracles for the test suite.

Exact rational enumeration of the subsampling schemes (feasible for tiny
configurations), a float evaluation of the inclusion-probability double
sum for the WR-then-WOR scheme, privacy-loss masses of the multiset
schemes from normal mixture CDFs, and the exact k-fold delta of WOR(n, n),
the Gaussian mechanism itself. These never share code with the production
formulas they verify.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, log_ndtr

from subamp.schemes import MUSTow, MUSTwo, MUSTww, Poisson, SamplingScheme, WOR, WR


def exact_multiplicity_distribution(scheme: SamplingScheme, element: int = 0):
    """P[element occurs exactly u times], exact Fractions, by enumeration.

    Only usable for tiny parameter values; the state space is enumerated
    outcome by outcome.
    """
    dist: dict[int, Fraction] = {}

    def add(count: int, prob: Fraction) -> None:
        dist[count] = dist.get(count, Fraction(0)) + prob

    match scheme:
        case Poisson(gamma=g, n=n):
            gam = Fraction(g).limit_denominator(10**6)
            for included in itertools.product((0, 1), repeat=n):
                prob = Fraction(1)
                for flag in included:
                    prob *= gam if flag else (1 - gam)
                add(included[element], prob)
        case WOR(n=n, m=m):
            total = Fraction(1, len(list(itertools.combinations(range(n), m))))
            for subset in itertools.combinations(range(n), m):
                add(int(element in subset), total)
        case WR(n=n, m=m):
            p = Fraction(1, n**m)
            for seq in itertools.product(range(n), repeat=m):
                add(seq.count(element), p)
        case MUSTww(n=n, b=b, m=m):
            p = Fraction(1, n**b * b**m)
            for stage1 in itertools.product(range(n), repeat=b):
                for picks in itertools.product(range(b), repeat=m):
                    add(sum(stage1[i] == element for i in picks), p)
        case MUSTwo(n=n, b=b, m=m):
            subsets = list(itertools.combinations(range(b), m))
            p = Fraction(1, n**b * len(subsets))
            for stage1 in itertools.product(range(n), repeat=b):
                for keep in subsets:
                    add(sum(stage1[i] == element for i in keep), p)
        case MUSTow(n=n, b=b, m=m):
            stage1_sets = list(itertools.combinations(range(n), b))
            p = Fraction(1, len(stage1_sets) * b**m)
            for chosen in stage1_sets:
                for picks in itertools.product(range(b), repeat=m):
                    add(sum(chosen[i] == element for i in picks), p)
        case _:
            raise TypeError(f"not a sampling scheme: {scheme!r}")
    return dist


def exact_eta(scheme: SamplingScheme, element: int = 0) -> Fraction:
    dist = exact_multiplicity_distribution(scheme, element)
    return 1 - dist.get(0, Fraction(0))


def _log_binom(n, k):
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    valid = (k >= 0) & (k <= n)
    kk = np.where(valid, k, 0.0)
    out = gammaln(n + 1) - gammaln(kk + 1) - gammaln(n - kk + 1)
    return np.where(valid, out, -np.inf)


def eta_mustwo_sum_form(n: int, b: int, m: int) -> float:
    """Inclusion probability of WR-then-WOR as the explicit double-stage sum.

    Sum over the stage-I multiplicity j of the element: the binomial weight
    times the probability the stage-II subset hits at least one of the j
    slots (1 - C(b-j, m)/C(b, m), zero numerator convention for b-j < m).
    """
    import math

    from scipy.stats import binom as binom_dist

    j = np.arange(1, b + 1, dtype=float)
    weights = binom_dist.pmf(j, b, 1.0 / n)
    with np.errstate(invalid="ignore"):
        log_miss = _log_binom(b - j, m) - _log_binom(b, m)
    hit = -np.expm1(np.where(np.isfinite(log_miss), log_miss, -np.inf))
    return math.fsum(weights * hit)


def mixture_weights(scheme: SamplingScheme) -> np.ndarray:
    """P[element occurs l times], l = 0..m, for WR, MUSTow and MUSTww.

    Stage by stage from scipy's binomial pmf: WR is Binomial(m, 1/n);
    MUSTow keeps the element with probability b/n and then draws it
    Binomial(m, 1/b) times; MUSTww gives it j ~ Binomial(b, 1/n) stage-I
    copies and then Binomial(m, j/b) draws.
    """
    from scipy.stats import binom as binom_dist

    l_vals = np.arange(scheme.m + 1)
    match scheme:
        case WR(n=n, m=m):
            return binom_dist.pmf(l_vals, m, 1.0 / n)
        case MUSTow(n=n, b=b, m=m):
            out = (b / n) * binom_dist.pmf(l_vals, m, 1.0 / b)
            out[0] += 1.0 - b / n
            return out
        case MUSTww(n=n, b=b, m=m):
            j = np.arange(b + 1)
            stage1 = binom_dist.pmf(j, b, 1.0 / n)
            stage2 = binom_dist.pmf(l_vals[None, :], m, j[:, None] / b)
            return (stage1[:, None] * stage2).sum(axis=0)
    raise TypeError(f"no mixture oracle for {scheme!r}")


def mixture_loss_mass(scheme: SamplingScheme, sigma: float, s_lo: float, s_hi: float) -> float:
    """P[s_lo <= L < s_hi] for a symmetric multiset scheme, from normal CDFs.

    The output density is f(t) = sum_l w_l N(t; l, sigma^2) and the loss is
    L(t) = log f(t) - log f(-t). Both ends are inverted by Brent's method
    on that expression; the mass is then a difference of mixture CDFs, or
    of survival functions right of the origin, where CDF differences cancel.
    """
    from scipy.optimize import brentq
    from scipy.special import logsumexp
    from scipy.stats import norm

    w = mixture_weights(scheme)
    keep = w > 0.0
    l_vals, log_w = np.arange(w.size)[keep], np.log(w[keep])

    def loss(t: float) -> float:
        return float(
            logsumexp(log_w - (t - l_vals) ** 2 / (2 * sigma**2))
            - logsumexp(log_w - (t + l_vals) ** 2 / (2 * sigma**2))
        )

    def invert(s: float) -> float:
        lo, hi = -1.0, 1.0
        while loss(lo) > s:
            lo *= 2.0
        while loss(hi) < s:
            hi *= 2.0
        return brentq(lambda t: loss(t) - s, lo, hi, xtol=1e-14, rtol=1e-15)

    t_lo, t_hi = invert(s_lo), invert(s_hi)
    w = w[keep]
    if s_lo >= 0.0:
        return float(np.sum(w * (norm.sf(t_lo, l_vals, sigma) - norm.sf(t_hi, l_vals, sigma))))
    return float(np.sum(w * (norm.cdf(t_hi, l_vals, sigma) - norm.cdf(t_lo, l_vals, sigma))))


def gaussian_delta(sigma: float, k: int, eps: float) -> float:
    """delta_k(eps) of WOR(n, n) at noise sigma, exactly, at any k.

    WOR(n, n) keeps the record, so f_X = N(1, sigma^2), f_X' = N(-1, sigma^2),
    the loss 2t / sigma^2 is N(mu^2/2, mu^2) with mu = 2/sigma, and k
    compositions give N(k mu^2/2, k mu^2). With mu_k = 2 sqrt(k) / sigma,
    delta = Phi(-eps/mu_k + mu_k/2) - e^eps Phi(-eps/mu_k - mu_k/2), taken in
    logs, as the difference cancels in the tail: Phi(a) (1 - e^{eps +
    log Phi(b) - log Phi(a)}).
    """
    mu = 2.0 * math.sqrt(k) / sigma
    log_a = float(log_ndtr(-eps / mu + mu / 2.0))
    log_b = float(log_ndtr(-eps / mu - mu / 2.0))
    return math.exp(log_a) * -math.expm1(eps + log_b - log_a)
