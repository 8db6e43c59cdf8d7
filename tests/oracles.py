"""Independent oracles for the test suite.

Exact rational enumeration of the subsampling schemes (feasible for tiny
configurations), a float evaluation of the inclusion-probability double
sum for the WR-then-WOR scheme, privacy-loss masses of the multiset
schemes from normal mixture CDFs, the exact k-fold delta of WOR(n, n),
the Gaussian mechanism itself, and the delta of two compositions of any
scheme by one quadrature, with neither a grid nor an FFT. These never
share code with the production formulas they verify.
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


# -- the delta of two compositions, by one quadrature -----------------------
#
# For a pair (P, Q) with loss L = log(dP/dQ), delta_k(eps) = E_P[(1 -
# e^(eps - S_k))_+], S_k the sum of k independent losses. With g(e) =
# E_P[(1 - e^(e - L))_+], the k = 1 delta extended to every real e,
# delta_2(eps) = int f_X(t) g(eps - L(t)) dt. L is increasing, so L > e
# exactly where t > tau(e) = L^-1(e), and g(e) = S_P(tau) - e^e S_Q(tau)
# in closed form from the normal survival functions; dg/dtau = 0 at the
# root, so an error in tau enters g only at second order.


def _rowwise_lse(x: np.ndarray) -> np.ndarray:
    peak = x.max(axis=1)
    return peak + np.log(np.exp(x - peak[:, None]).sum(axis=1))


class _Pair:
    """f_X = sum_l w_l N(l, sigma^2) and f_X' (N(0, sigma^2) for Poisson, f_X(-t)
    otherwise) of one scheme, with the loss between them.

    Poisson and WOR hold the record once with probability gamma or m/n.
    MUSTwo's WOR stage keeps m of b i.i.d. uniform picks, so the record
    occurs Binomial(m, 1/n) times, as under WR(n, m).
    """

    def __init__(self, scheme: SamplingScheme, sigma: float):
        if isinstance(scheme, (Poisson, WOR)):
            q = scheme.gamma if isinstance(scheme, Poisson) else scheme.m / scheme.n
            w = np.array([1.0 - q, q])
        else:
            w = mixture_weights(WR(scheme.n, scheme.m) if isinstance(scheme, MUSTwo) else scheme)
        keep = w > 0.0
        self.l, self.log_w = np.arange(w.size, dtype=float)[keep], np.log(w[keep])
        self.sigma = sigma
        self.gamma = scheme.gamma if isinstance(scheme, Poisson) else None

    def _terms(self, t: np.ndarray, sign: float) -> np.ndarray:
        """log(w_l N(t; sign l, sigma^2)) up to the normal's constant, t by l."""
        return self.log_w - (t[:, None] - sign * self.l) ** 2 / (2.0 * self.sigma**2)

    def log_density(self, t: np.ndarray) -> np.ndarray:
        """log f_X(t)."""
        return _rowwise_lse(self._terms(t, 1.0)) - math.log(self.sigma * math.sqrt(2.0 * math.pi))

    def loss_and_slope(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(t) and L'(t): L' is the mean of l / sigma^2 under each side's
        posterior over components (Poisson's reference side has none)."""
        p = self._terms(t, 1.0)
        lse_p = _rowwise_lse(p)
        slope = np.exp(p - lse_p[:, None]) @ self.l / self.sigma**2
        if self.gamma is not None:
            return lse_p + t**2 / (2.0 * self.sigma**2), slope
        q = self._terms(t, -1.0)
        lse_q = _rowwise_lse(q)
        return lse_p - lse_q, slope + np.exp(q - lse_q[:, None]) @ self.l / self.sigma**2

    def inverse(self, e: np.ndarray) -> np.ndarray:
        """tau(e) = L^-1(e); -inf at and below Poisson's loss floor log(1 - gamma).

        Poisson in closed form. Otherwise L is odd: bracketed Newton on |e|
        from [0, 2^j] (bisection where a step leaves the bracket), mirrored.
        """
        if self.gamma is not None:
            gap = np.expm1(e) + self.gamma  # e^e - (1 - gamma), > 0 above the floor
            tau = np.full(e.shape, -math.inf)
            above = gap > 0.0
            tau[above] = self.sigma**2 * (np.log(gap[above]) - math.log(self.gamma)) + 0.5
            return tau
        target = np.abs(e)
        lo, hi = np.zeros_like(target), np.ones_like(target)
        while (short := self.loss_and_slope(hi)[0] < target).any():
            lo[short], hi[short] = hi[short], 2.0 * hi[short]
        t = 0.5 * (lo + hi)
        for _ in range(100):
            loss, slope = self.loss_and_slope(t)
            resid = loss - target
            lo, hi = np.where(resid < 0.0, t, lo), np.where(resid > 0.0, t, hi)
            live = (np.abs(resid) > 1e-12 * np.maximum(1.0, target)) & (hi - lo > 1e-15 * hi)
            if not live.any():
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                step = t - resid / slope
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            t = np.where(live, step, t)
        return np.copysign(t, e)

    def delta(self, e: np.ndarray) -> np.ndarray:
        """g(e) = S_P(tau) - e^e S_Q(tau) at tau = tau(e), from log survival
        functions: 1 - e^e below Poisson's floor, where tau = -inf."""
        tau = self.inverse(e)[:, None]
        log_sp = _rowwise_lse(self.log_w + log_ndtr((self.l - tau) / self.sigma))
        if self.gamma is not None:
            log_sq = log_ndtr(-tau[:, 0] / self.sigma)
        else:
            log_sq = _rowwise_lse(self.log_w + log_ndtr((-self.l - tau) / self.sigma))
        return np.exp(log_sp) * -np.expm1(e + log_sq - log_sp)


def delta_k1(scheme: SamplingScheme, sigma: float, e) -> np.ndarray:
    """g(e), the delta of one application at every real e, elementwise."""
    with np.errstate(over="ignore", under="ignore"):
        return _Pair(scheme, sigma).delta(np.atleast_1d(np.asarray(e, dtype=float)))


def delta_k2(scheme: SamplingScheme, sigma: float, eps: float, nodes: int = 12) -> float:
    """delta_2(eps) = int f_X(t) g(eps - L(t)) dt by Gauss-Legendre panels.

    Where L is steep, g(eps - L(t)) rises over a short range of t, so the
    panel edges are uniform in loss: tau(s) for s = -40, -39.5, ..., 40,
    with 40 uniform panels over [l_min - 40 sigma, l_max + 40 sigma] for the
    bulk of f_X. Poisson's g switches to 1 - e^e where eps - L(t) reaches
    the floor, at t* = tau(eps - log(1 - gamma)); its smooth side behaves
    like exp(-log^2) of the distance, which panels of fixed width resolve to
    only ~3e-5, so edges at t* +- 2^-j, j < 60, grade toward it.
    """
    pair = _Pair(scheme, sigma)
    with np.errstate(over="ignore", under="ignore"):
        loss_levels = np.arange(-80, 81) / 2.0
        edges = [np.linspace(pair.l[0] - 40.0 * sigma, pair.l[-1] + 40.0 * sigma, 41)]
        if pair.gamma is None:
            edges.append(pair.inverse(loss_levels))
        else:
            floor = math.log1p(-pair.gamma)
            edges.append(pair.inverse(loss_levels[loss_levels > floor]))
            kink = pair.inverse(np.array([eps - floor]))[0]
            graded = np.multiply.outer([-1.0, 1.0], 2.0 ** -np.arange(60)).ravel()
            edges += [[kink], kink + graded]
        edges = np.unique(np.concatenate(edges))
        x, w = np.polynomial.legendre.leggauss(nodes)
        half, mid = np.diff(edges) / 2.0, (edges[1:] + edges[:-1]) / 2.0
        t = (mid[:, None] + half[:, None] * x).ravel()
        weights = (half[:, None] * w).ravel()
        inner = pair.delta(eps - pair.loss_and_slope(t)[0])
        return float(np.sum(weights * np.exp(pair.log_density(t)) * inner))
