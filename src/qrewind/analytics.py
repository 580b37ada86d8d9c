"""Closed-form hitting-time distributions and success-curve planning.

Two first-passage quantities drive everything: the time T1 for the ladder
walk to first reach the top origin (odd support) and the full return time
T1 + T2 back to the bottom origin (even support). Both have explicit
alternating-binomial formulas. With p = a/b in lowest terms every term
is an integer over b^t, so this module evaluates them exactly as Python-int
sums divided once; a float p goes through its exact dyadic value and one
rounding. Float profiles and planning use the numerically stable product
form of the generating function

    f(alpha) = (A - sqrt((1 - alpha^2) (1 - (2p-1)^2 alpha^2))) / (2 p alpha),
    A = 1 + (2p-1) alpha^2,

whose square-root factor satisfies a four-term holonomic recurrence.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

GENFUNC_SERIES_GUARD = 10**3
REQUIRED_M_CAP = 10**7
# Coefficients per block of required_m. Every bench plan needs at least
# 9861 (p_min 0.05), so smaller first blocks would only add blocks; at
# p_min 0.05 the last block of 2048 ends 379 coefficients past the answer.
REQUIRED_M_BLOCK = 2048


def is_rational_prob(p) -> bool:
    """True when p was supplied as an exact rational (int or Fraction)."""
    return isinstance(p, (int, Fraction)) and not isinstance(p, bool)


def as_prob(p):
    """p as a Fraction (int or Fraction input) or a float, checked to lie in [0, 1].

    The one range check on a branch probability; NaN fails it too.
    """
    q = Fraction(p) if is_rational_prob(p) else float(p)
    if not 0 <= q <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return q


def as_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as a Python int (operator.index), checked against the bounds given.

    ValueError naming it when value is not integral, below least, or
    outside [least, most] when most is given too.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if most is not None and not least <= n <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {n}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


@lru_cache(maxsize=None)
def gen_binomial(r, k: int) -> Fraction:
    """Generalized binomial coefficient r (r-1) ... (r-k+1) / k!, exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    r = Fraction(r)
    out = Fraction(1)
    for i in range(k):
        out *= r - i
    return out / math.factorial(k)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# sign C(1/2, n) (2p)^(2n-1) = Cat(n-1) p^(2n-1) and C(1-2n, k) (2p-1)^k =
# C(2n+k-2, k) (1-2p)^k make the paper's sums integral; 0 ** 0 == 1 at p = 1/2.

def _first_passage_exact(p: Fraction, t: int) -> Fraction:
    if t % 2 == 0:
        return Fraction(0)
    m = (t + 1) // 2
    a, b = p.numerator, p.denominator
    d = b * (b - 2 * a)
    total = sum(_catalan(n - 1) * math.comb(m + n - 2, m - n)
                * a ** (2 * n - 1) * d ** (m - n) for n in range(1, m + 1))
    return Fraction(total, b ** t)


def _return_exact(p: Fraction, t: int) -> Fraction:
    if t % 2 == 1:
        return Fraction(0)
    m = t // 2
    a, b = p.numerator, p.denominator
    d = b * (b - 2 * a)
    total = 0
    for k in range(1, m + 1):
        for i in range(1, k + 1):
            ci = _catalan(i - 1) * math.comb(k + i - 2, k - i)
            for j in range(1, m - k + 2):
                total += (ci * _catalan(j - 1) * math.comb(m - k + j - 1, m - k + 1 - j)
                          * a ** (2 * (i + j - 1)) * d ** (m + 1 - i - j))
    return Fraction(total, b ** t)


def first_passage_pmf(p, t: int):
    """P(T1 = t): probability the walk first reaches the top origin at step t.

    Even t gives exactly 0. With p = a/b in lowest terms, d = b (b - 2a)
    and t = 2m - 1,

        P(T1 = t) = sum_{n=1..m} Cat(n-1) C(m+n-2, m-n) a^(2n-1) d^(m-n) / b^t,

    an integer sum divided once. Rational p (int/Fraction) returns that
    Fraction; float p is evaluated exactly over its dyadic value and rounded
    once, so float mode agrees with the rational route to the last bit.
    """
    t = as_int(t, "t", 1)
    q = as_prob(p)
    exact = _first_passage_exact(Fraction(q), t)
    return exact if isinstance(q, Fraction) else float(exact)


def return_pmf(p, t: int):
    """P(T1 + T2 = t): probability the full protocol closes at step t.

    Odd t gives exactly 0. With a, b, d as in first_passage_pmf and t = 2m,
    b^t P(T1 + T2 = t) is the integer sum over 1 <= i <= k <= m and
    1 <= j <= m-k+1 of Cat(i-1) C(k+i-2, k-i) Cat(j-1) C(m-k+j-1, m-k+1-j)
    a^(2(i+j-1)) d^(m+1-i-j). It equals the self-convolution of
    first_passage_pmf but keeps its own triple sum, so the two routes stay
    independent. Float p is rounded once, as in first_passage_pmf.
    """
    t = as_int(t, "t", 1)
    q = as_prob(p)
    exact = _return_exact(Fraction(q), t)
    return exact if isinstance(q, Fraction) else float(exact)


# ── Stable float series (product form of the generating function) ────────

def _sqrt_coeffs(c2: float, m: int, n: int, h4: float, h2: float) -> np.ndarray:
    """Even coefficients h_{m-4}, h_{m-2}, h_m, ..., h_{m+2n-2} of
    sqrt((1-a^2)(1-c^2 a^2)), given c2 = c^2 = (2p-1)^2, the seeds
    h4 = h_{m-4} and h2 = h_{m-2}, and n new coefficients to run.

    From 2 g h' = g' h with the quartic g = 1 - (1+c^2) a^2 + c^2 a^4 one
    gets
        h_M = ((1+c^2)(M-3) h_{M-2} - c^2 (M-6) h_{M-4}) / M,
    run on float counters in that operation order. h_0 = 1 and h_{-2} = 0
    seed m = 2; a later block continues from the last two of the previous.
    """
    a = 1.0 + c2
    out = [h4, h2] + [0.0] * n
    mf = float(m)
    for i in range(2, n + 2):
        h4, h2 = h2, (a * (mf - 3.0) * h2 - c2 * (mf - 6.0) * h4) / mf
        out[i] = h2
        mf += 2.0
    return np.array(out)


def _reject_underflowing_square(p: float):
    # The return pmf divides by 2 p^2. Below the smallest normal float that
    # denominator loses precision and then flushes to 0 (nan pmf values).
    if p > 0.0 and 2.0 * p * p < sys.float_info.min:
        raise ValueError(f"p = {p!r} is too small for float evaluation: "
                         "2 p^2 falls below the smallest normal float")


def _hitting_profiles(p, t_max: int) -> np.ndarray:
    """Float pmf rows P(T1 = t) and P(T1 + T2 = t) for t = 0..t_max (t = 0 unused).

    The first terms are exact, P(T1 = 1) = p and P(T1 + T2 = 2) = p^2 (their
    product forms (c - h_2) / 2p and (c^2 - h_4 - c h_2) / 2p^2 lose their
    digits to cancellation as p shrinks). One block of _sqrt_coeffs from the
    seeds h_{-2} = 0 and h_0 = 1 gives h_0..h_{t_max+2}; with c = 2p - 1 the
    later terms are
        P(T1 = t) = -h_{t+1} / 2p  (odd t >= 3),
        P(T1 + T2 = t) = -(h_{t+2} + c h_t) / 2p^2  (even t >= 4),
    each negation taken as 0 - x, so a zero coefficient gives +0. ValueError
    for p outside [0, 1] (1e-12 of grid roundoff is forgiven) and for
    0 < p below about 1e-154, where 2 p^2 underflows, and for a t_max that
    is not a nonnegative integer.
    """
    t_max = as_int(t_max, "t_max", 0)
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    p = min(max(p, 0.0), 1.0)
    _reject_underflowing_square(p)
    out = np.zeros((2, t_max + 1))
    if p == 0.0 or t_max == 0:
        return out
    c = 2.0 * p - 1.0
    h = _sqrt_coeffs(c * c, 2, t_max // 2 + 1, 0.0, 1.0)[1:]  # h_{2k} at k
    fp, ret = out
    fp[1] = p
    fp[3::2] = (0.0 - h[2:(t_max + 1) // 2 + 1]) / (2.0 * p)
    if t_max >= 2:
        denom = 2.0 * p * p
        ret[2] = p * p
        ret[4::2] = (0.0 - (h[3:] + c * h[2:-1])) / denom
    return out


def first_passage_profile(p: float, t_max: int) -> np.ndarray:
    """Float pmf values P(T1 = t) for t = 1..t_max (index 0 unused)."""
    return _hitting_profiles(p, t_max)[0]


def return_profile(p: float, t_max: int) -> np.ndarray:
    """Float pmf values P(T1 + T2 = t) for t = 1..t_max (index 0 unused)."""
    return _hitting_profiles(p, t_max)[1]


def cumulative_profile(p: float, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative first-passage, cumulative return) for budgets 0..t_max."""
    return tuple(np.cumsum(_hitting_profiles(p, t_max), axis=1))


def cumulative_success(p, m: int, mode: str = "full"):
    """Probability of success within a budget of m gate uses.

    mode "commutator": P(T1 <= m), the first phase alone.
    mode "full": P(T1 + T2 <= m), the complete rewinding protocol.
    Exact Fraction for rational p, float otherwise.
    """
    m = as_int(m, "m", 0)
    if mode not in ("commutator", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if is_rational_prob(p):
        q = as_prob(p)
        pmf = _first_passage_exact if mode == "commutator" else _return_exact
        start = 1 if mode == "commutator" else 2
        return sum((pmf(q, t) for t in range(start, m + 1, 2)), Fraction(0))
    fp, ret = cumulative_profile(float(p), max(m, 1))
    return float((fp if mode == "commutator" else ret)[m])


# ── Generating function ──────────────────────────────────────────────────

def genfunc_closed(p, alpha: float) -> float:
    """Closed-form generating function E[alpha^T1] on 0 < alpha < 1.

    Minus-root branch of the quadratic, evaluated in the rationalized form
    2 p alpha / (lin + sqrt(lin^2 - 4 p^2 alpha^2)) with
    lin = 1 + 2 p alpha^2 - alpha^2, which avoids cancellation for small
    alpha. p = 0 returns the limit 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    p = float(as_prob(p))
    if p == 0.0:
        return 0.0
    a2 = alpha * alpha
    lin = 1.0 + 2.0 * p * a2 - a2
    disc = lin * lin - 4.0 * p * p * a2
    return 2.0 * p * alpha / (lin + math.sqrt(max(disc, 0.0)))


def genfunc_series(p, t_max: int) -> list:
    """Taylor coefficients c_1..c_t_max of the generating function at 0.

    Obtained by substituting a power series into the defining quadratic
    alpha p f^2 + (alpha^2 - 2 p alpha^2 - 1) f + p alpha = 0, which gives
    c_1 = p and c_N = p * sum_{i+j=N-1} c_i c_j + (1 - 2p) c_{N-2}.
    Exact Fractions for rational p, floats otherwise.
    """
    t_max = as_int(t_max, "t_max", 1, GENFUNC_SERIES_GUARD)
    q = as_prob(p)
    zero = Fraction(0) if isinstance(q, Fraction) else 0.0
    coeffs = [zero] * (t_max + 1)
    coeffs[1] = q
    for n in range(2, t_max + 1):
        conv = sum((coeffs[i] * coeffs[n - 1 - i] for i in range(1, n - 1)), zero)
        coeffs[n] = q * conv + (1 - 2 * q) * coeffs[n - 2]
    return coeffs[1:]


# ── Trim-bound planning ──────────────────────────────────────────────────

@dataclass(frozen=True)
class TrimPlan:
    """Smallest even gate budget meeting a target success probability."""

    m: int
    worst_grid_p: float
    worst_grid_prob: float
    t_prime: float | None = None


def required_m(p_min, q, dt: float | None = None, tau: float | None = None,
               s: int = 0) -> TrimPlan:
    """Smallest even m with full-protocol success >= q for every p in [p_min, 1].

    Only p_min is evaluated: the worst case over [p_min, 1] sits there
    because P(T1 + T2 <= m) is nondecreasing in p. For every even m <= 140
    this is proven: P(T1 + T2 <= m) is an integer polynomial in p (it
    equals cumulative_success for m <= 30), and exact root counting finds no
    root of its derivative in (0, 1). Beyond m = 140 it is only checked: a
    scan of a 0.001 grid over [p_min, 1] gave the same plan, bit for bit,
    on every input tried (tests/test_analytics.py keeps that scan as the
    oracle). When both timing constants are given, the running-time bound
    T' = m (dt + tau) + s dt is reported too; one of them alone is a
    ValueError. ValueError too when no even budget up to REQUIRED_M_CAP
    (read at call time) reaches q.

    The running sum takes _hitting_profiles' return row in its operation
    order, block by block: each block runs REQUIRED_M_BLOCK coefficients
    (read at call time), adds their terms to the carried sum with one
    sequential cumsum and stops at the first budget that reaches q. It holds
    one block at a time; at p_min 0.05 (9861 coefficients needed) the last
    block ends 379 past the answer.
    """
    p_min = float(p_min)
    q = float(q)
    if not 0.0 < p_min <= 1.0:
        raise ValueError("p_min must lie in (0, 1]")
    _reject_underflowing_square(p_min)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if (dt is None) != (tau is None):
        raise ValueError("dt and tau must be given together")
    for name, value in (("dt", dt), ("tau", tau)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive")
    s = as_int(s, "s", 0)
    c = 2.0 * p_min - 1.0
    c2 = c * c
    denom = 2.0 * p_min * p_min
    h4, h2 = _sqrt_coeffs(c2, 2, 2, 0.0, 1.0)[2:].tolist()  # h_2, h_4
    cums = np.array([p_min * p_min])        # P(T1 + T2 <= 2)
    budget = 2                              # the budget of cums[0]
    while True:
        hit = np.flatnonzero(cums >= q)
        if hit.size:
            k = int(hit[0])
            m = budget + 2 * k
            t_prime = None if dt is None else m * (dt + tau) + s * dt
            return TrimPlan(m=m, worst_grid_p=p_min, worst_grid_prob=float(cums[k]),
                            t_prime=t_prime)
        budget += 2 * (cums.size - 1)
        n = min(REQUIRED_M_BLOCK, (REQUIRED_M_CAP - budget) // 2)
        if n < 1:
            raise ValueError(f"no gate budget up to {REQUIRED_M_CAP} reaches success "
                             f"{q} for p_min = {p_min}")
        # h_budget .. h_{budget + 2n + 2}; P(T1 + T2 = t) for t = budget + 2 .. budget + 2n
        h = _sqrt_coeffs(c2, budget + 4, n, h4, h2)
        h4, h2 = h[-2:].tolist()
        cums = np.cumsum(np.concatenate((cums[-1:], -(h[2:] + c * h[1:-1]) / denom)))


# ── Distribution containers ──────────────────────────────────────────────

@dataclass
class HittingDist:
    """Probability mass function over step counts t = 1..t_max.

    probs[i] holds P(T = i + 1); entries on the wrong parity are stored as
    explicit zeros so convolution stays index-exact. The entries are
    Fractions from the exact routes and floats otherwise.
    """

    probs: list

    def prob(self, t: int):
        if not 1 <= t <= len(self.probs):
            raise IndexError(f"t must lie in [1, {len(self.probs)}]")
        return self.probs[t - 1]

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.probs])


def first_passage_dist(p, t_max: int) -> HittingDist:
    """HittingDist of T1 from the closed formula: Fractions for a rational p, else floats.

    ValueError for a t_max that is not a positive integer, as dp_first_passage.
    """
    t_max = as_int(t_max, "t_max", 1)
    if is_rational_prob(p):
        q = as_prob(p)
        return HittingDist([_first_passage_exact(q, t) for t in range(1, t_max + 1)])
    return HittingDist(first_passage_profile(float(p), t_max)[1:].tolist())


@dataclass
class SuccessCurve:
    """Success probability as a function of the gate budget m."""

    m: list[int] = field(default_factory=list)
    prob_commutator: list[float] = field(default_factory=list)
    prob_full: list[float] = field(default_factory=list)
