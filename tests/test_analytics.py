import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrewind import analytics, walk
from qrewind.analytics import (GENFUNC_SERIES_GUARD, REQUIRED_M_CAP,
                               HittingDist, TrimPlan, as_prob, cumulative_profile,
                               cumulative_success, first_passage_dist,
                               first_passage_pmf, first_passage_profile,
                               gen_binomial, genfunc_closed, genfunc_series,
                               required_m, return_pmf, return_profile)
from qrewind.engine import ProtocolConfig

GRID = [Fraction(k, 10) for k in range(11)]


def test_as_prob_keeps_the_kind_and_checks_the_range():
    for p in (0, 1, Fraction(1, 3)):
        assert as_prob(p) == p and isinstance(as_prob(p), Fraction)
    for p in (0.0, 0.25, 1.0, np.float64(0.5)):
        assert as_prob(p) == p and type(as_prob(p)) is float
    for p in (1.5, -0.2, math.nan, math.inf, 2, Fraction(-1, 3)):
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got"):
            as_prob(p)


# every public entry point that takes a branch probability, given p as is
ENTRY_POINTS = {
    "first_passage_pmf": lambda p: first_passage_pmf(p, 3),
    "return_pmf": lambda p: return_pmf(p, 4),
    "cumulative_success": lambda p: cumulative_success(p, 4),
    "first_passage_dist": lambda p: first_passage_dist(p, 3),
    "genfunc_closed": lambda p: genfunc_closed(p, 0.5),
    "genfunc_series": lambda p: genfunc_series(p, 5),
    "dp_first_passage": lambda p: walk.dp_first_passage(p, 5),
    "dp_return_time": lambda p: walk.dp_return_time(p, 5),
    "sample_first_passage_batch": lambda p: walk.sample_first_passage_batch(p, 10, 5, 0),
    "run_walk_protocol": lambda p: walk.run_walk_protocol(p, 4, np.random.default_rng(0)),
    "p_override": lambda p: ProtocolConfig(p_override=p).validate(),
}


@pytest.mark.parametrize("p", [1.5, -0.25, math.nan, Fraction(3, 2), Fraction(-1, 4)])
def test_entry_points_reject_p_outside_unit_interval(p):
    for call in ENTRY_POINTS.values():
        with pytest.raises(ValueError, match=r"probability must lie in \[0, 1\], got"):
            call(p)


def test_gen_binomial_values():
    assert gen_binomial(Fraction(1, 2), 0) == 1
    assert gen_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    for k in range(8):
        assert gen_binomial(-1, k) == (-1) ** k
    for r in range(6):
        for k in range(8):
            assert gen_binomial(r, k) == math.comb(r, k)


def _enumerated_first_passage(p: Fraction, t: int) -> Fraction:
    """Independent oracle: sum over all 2^t move words of the hit paths.

    A word contributes when it first reaches the upper origin exactly at
    its last step (vertical toggles the row, horizontal moves right on the
    lower row and left on the upper row).
    """
    total = Fraction(0)
    for word in itertools.product((0, 1), repeat=t):  # 1 = vertical
        row, pos = 0, 0
        hit_at = None
        for step, is_vert in enumerate(word, start=1):
            if is_vert:
                row ^= 1
            else:
                pos += 1 - 2 * row
            if row == 1 and pos == 0:
                hit_at = step
                break
        if hit_at == t:
            n_vert = sum(word[:t])
            total += p ** n_vert * (1 - p) ** (t - n_vert)
    return total


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 10), Fraction(9, 10),
                               Fraction(1, 3)])
def test_first_passage_pmf_against_path_enumeration(p):
    for t in range(1, 14):
        assert first_passage_pmf(p, t) == _enumerated_first_passage(p, t), t


def test_first_passage_pmf_spot_values():
    for p in GRID:
        assert first_passage_pmf(p, 1) == p
        assert first_passage_pmf(p, 3) == p * (1 - p) ** 2
        assert first_passage_pmf(p, 5) == p * (1 - p) ** 2 * (2 * p * p - 2 * p + 1)
        assert all(first_passage_pmf(p, t) == 0 for t in (2, 4, 6, 20))


def test_first_passage_pmf_symmetric_point():
    # at p = 1/2 the closed form collapses to the symmetric-walk series
    for m in range(1, 21):
        expected = (-1) ** (m + 1) * gen_binomial(Fraction(1, 2), m)
        assert first_passage_pmf(Fraction(1, 2), 2 * m - 1) == expected
    assert first_passage_pmf(Fraction(1, 2), 1) == Fraction(1, 2)
    assert first_passage_pmf(Fraction(1, 2), 3) == Fraction(1, 8)
    assert first_passage_pmf(Fraction(1, 2), 5) == Fraction(1, 16)


def test_first_passage_pmf_continuity_at_half():
    for t in range(1, 42):
        center = first_passage_pmf(0.5, t)
        assert abs(first_passage_pmf(0.5 + 1e-6, t) - center) < 1e-4
        assert abs(first_passage_pmf(0.5 - 1e-6, t) - center) < 1e-4


def test_float_mode_matches_rational():
    for p in (0.1, 0.35, 0.5, 0.9, 1.0):
        for t in range(1, 42):
            assert first_passage_pmf(p, t) == pytest.approx(
                float(first_passage_pmf(Fraction(p), t)), abs=1e-15)


def test_return_pmf_values_and_convolution():
    for p in GRID:
        assert return_pmf(p, 2) == p * p
        assert return_pmf(p, 4) == 2 * p ** 2 * (1 - p) ** 2
        assert all(return_pmf(p, t) == 0 for t in (1, 3, 5, 21))
    for p in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
        fp = [first_passage_pmf(p, t) for t in range(1, 42)]
        for t in range(2, 42):
            conv = sum(fp[a - 1] * fp[t - a - 1] for a in range(1, t))
            assert return_pmf(p, t) == conv


def test_profiles_match_exact_formulas():
    for p in (0.1, 0.25, 0.5, 0.9, 1.0):
        prof = first_passage_profile(p, 201)
        rprof = return_profile(p, 60)
        for t in range(1, 202):
            assert prof[t] == pytest.approx(
                float(first_passage_pmf(Fraction(p), t)), abs=1e-14)
        for t in range(1, 61):
            assert rprof[t] == pytest.approx(
                float(return_pmf(Fraction(p), t)), abs=1e-14)


def test_cumulative_success_values():
    assert cumulative_success(1, 2, "full") == 1
    assert cumulative_success(Fraction(1, 2), 1, "commutator") == Fraction(1, 2)
    assert cumulative_success(Fraction(1, 2), 4, "full") == Fraction(3, 8)
    assert cumulative_success(Fraction(1, 2), 4, "commutator") == Fraction(5, 8)
    # float backend agrees with the exact sums
    for p in (0.3, 0.5, 0.9):
        for m in (1, 2, 7, 40):
            exact = float(cumulative_success(Fraction(p), m, "full"))
            assert cumulative_success(p, m, "full") == pytest.approx(exact, abs=1e-13)
    with pytest.raises(ValueError):
        cumulative_success(0.5, 4, "sideways")


def test_exact_values_behind_criteria_5_and_8():
    # Criteria 5 and 8 fail by design; these are the exact values they meet.
    # At p = 1/2, P(T1 <= 2m - 1) = 1 - C(2m, m) / 4^m.
    half = Fraction(1, 2)
    for m in range(1, 31):
        assert cumulative_success(half, 2 * m - 1, "commutator") == \
            1 - Fraction(math.comb(2 * m, m), 4 ** m)
    n = 5 * 10**4
    crit5 = float(1 - Fraction(math.comb(2 * n, n), 4 ** n))
    assert crit5 == 0.9974768737858033
    assert cumulative_profile(0.5, 10**5)[0][-1] == pytest.approx(crit5, abs=1e-14)
    crit8 = float(cumulative_success(half, 100, "full"))
    assert crit8 == 0.842382098507744
    assert cumulative_success(0.5, 100, "full") == pytest.approx(crit8, abs=1e-15)


def test_cumulative_success_monotone():
    fp_cum, ret_cum = cumulative_profile(0.37, 4000)
    assert np.all(np.diff(fp_cum) >= -1e-15)
    assert np.all(np.diff(ret_cum) >= -1e-15)
    assert ret_cum[-1] <= fp_cum[-1] <= 1.0 + 1e-12


def test_genfunc_closed_properties():
    # small alpha: leading coefficient is the one-step probability
    for p in (0.2, 0.5, 0.9):
        alpha = 1e-6
        assert genfunc_closed(p, alpha) == pytest.approx(p * alpha, rel=1e-4)
    # approaches 1 as alpha -> 1- for p > 0
    for p in (0.1, 0.5, 1.0):
        assert genfunc_closed(p, 1 - 1e-12) == pytest.approx(1.0, abs=1e-5)
    assert genfunc_closed(0.0, 0.5) == 0.0
    # p = 1/2 simplification
    for alpha in (0.1, 0.45, 0.93):
        assert genfunc_closed(0.5, alpha) == pytest.approx(
            (1 - math.sqrt(1 - alpha * alpha)) / alpha, abs=1e-14)
    with pytest.raises(ValueError):
        genfunc_closed(0.5, 1.0)


def test_genfunc_closed_matches_partial_sums():
    t_cut = 301
    for p in (0.25, 0.5, 0.8):
        prof = first_passage_profile(p, t_cut)
        for alpha in (0.3, 0.6, 0.9):
            partial = sum(prof[t] * alpha ** t for t in range(1, t_cut + 1))
            bound = alpha ** t_cut / (1 - alpha)
            assert abs(genfunc_closed(p, alpha) - partial) < bound + 1e-12


def test_genfunc_series_exact():
    for p in (Fraction(1, 2), Fraction(3, 10), Fraction(1), Fraction(0)):
        coeffs = genfunc_series(p, 61)
        assert coeffs[0] == p
        assert all(coeffs[t - 1] == 0 for t in range(2, 62, 2))
        for t in range(1, 62):
            assert coeffs[t - 1] == first_passage_pmf(p, t)
    with pytest.raises(ValueError):
        genfunc_series(0.5, GENFUNC_SERIES_GUARD + 1)


def test_required_m_examples():
    assert required_m(1.0, 0.99).m == 2
    assert required_m(0.5, 0.24).m == 2
    # P(T1 + T2 = 2) = p^2 exactly, so a target of p_min^2 needs only m = 2
    assert required_m(1e-3, 1e-6).m == 2


def test_profiles_start_with_the_exact_first_terms():
    # the product forms of these terms cancel for small p (9.992e-8 and 0.0)
    assert first_passage_profile(1e-7, 3)[1] == 1e-7
    assert return_profile(1e-6, 4)[2] == 1e-6 * 1e-6


def test_required_m_definitional(monkeypatch):
    plan = required_m(0.5, 0.6, dt=1.0, tau=0.5, s=3)
    assert plan.m % 2 == 0
    assert plan.t_prime == plan.m * 1.5 + 3.0
    # the reported budget meets the target at every grid point checked here,
    # and m - 2 fails at some grid point
    for p in np.arange(0.5, 1.0001, 0.05):
        assert cumulative_success(float(p), plan.m, "full") >= 0.6 - 1e-12
    grid = np.arange(0.5, 1.0001, 0.001)
    worst = min(cumulative_success(float(p), plan.m - 2, "full") for p in grid)
    assert worst < 0.6
    with pytest.raises(ValueError):
        required_m(0.0, 0.5)
    with pytest.raises(ValueError):
        required_m(0.5, 1.0)
    for timing in ({"dt": 1.0}, {"tau": 0.5}):  # T' needs both constants
        with pytest.raises(ValueError, match="dt and tau must be given together"):
            required_m(0.5, 0.6, **timing)
    with monkeypatch.context() as patch:
        patch.setattr(analytics, "REQUIRED_M_CAP", 4)
        with pytest.raises(ValueError, match="no gate budget up to 4"):
            required_m(0.5, 0.99)
    for p in (1e-300, 1e-160):  # 2 p^2 underflows: nan rows, or a divide by 0
        with pytest.raises(ValueError, match="too small"):
            required_m(p, 0.5)
        for profile in (first_passage_profile, return_profile, cumulative_profile):
            with pytest.raises(ValueError, match="too small"):
                profile(p, 6)
    assert np.all(np.isfinite(return_profile(1e-150, 6)))


@pytest.mark.parametrize("p_min", [0.005, 0.016, 0.05, 0.25, 0.5, 0.9, 1.0, 4e-4, 1e-3])
def test_required_m_is_the_streamed_profile(p_min):
    # the streaming sum and the vectorised return row must not drift apart
    for q in (0.05, 0.5, 0.9, 0.95):
        plan = required_m(p_min, q)
        ret_cum = cumulative_profile(p_min, plan.m)[1]
        assert plan.worst_grid_prob == ret_cum[plan.m]
        assert ret_cum[plan.m - 2] < q


# even budgets at the edges of required_m's first two coefficient blocks:
# the exact first term, the last budget of block one and the first of block two
FIRST_BLOCK_LAST = 2 + 2 * analytics.REQUIRED_M_BLOCK
REQUIRED_M_EDGES = (2, FIRST_BLOCK_LAST, FIRST_BLOCK_LAST + 2)


@pytest.mark.parametrize("p_min", [0.005, 0.05, 0.3])
@pytest.mark.parametrize("m", REQUIRED_M_EDGES)
def test_required_m_at_block_edges(p_min, m):
    ret_cum = cumulative_profile(p_min, m)[1]
    plan = required_m(p_min, float(ret_cum[m]))
    assert (plan.m, plan.worst_grid_prob) == (m, ret_cum[m])


@pytest.mark.parametrize("cap", [300, FIRST_BLOCK_LAST, FIRST_BLOCK_LAST + 1,
                                 FIRST_BLOCK_LAST + 2, 1001])
def test_required_m_cap_inside_a_block(monkeypatch, cap):
    # a cap inside a block ends the search at the cap, odd caps included
    p_min = 0.05
    target = cumulative_profile(p_min, 1002)[1]
    monkeypatch.setattr(analytics, "REQUIRED_M_CAP", cap)
    last = cap - cap % 2
    assert required_m(p_min, float(target[last])).m == last
    with pytest.raises(ValueError, match=f"no gate budget up to {cap} reaches"):
        required_m(p_min, float(target[last + 2]))


@pytest.mark.parametrize("first, last", [(1, 1), (1, 4), (3, 96)])
def test_required_m_does_not_depend_on_the_block_sizes(monkeypatch, first, last):
    cases = [(p_min, q) for p_min in (0.05, 0.3, 1.0) for q in (0.1, 0.5, 0.9)]
    plans = [required_m(p_min, q, dt=0.5, tau=0.25, s=2) for p_min, q in cases]
    monkeypatch.setattr(analytics, "REQUIRED_M_BLOCK", first)
    monkeypatch.setattr(analytics, "REQUIRED_M_BLOCK_MAX", last)
    assert [required_m(p_min, q, dt=0.5, tau=0.25, s=2) for p_min, q in cases] == plans


def _grid_required_m(p_min, q, dt: float | None = None, tau: float | None = None,
                     s: int = 0, grid_step: float = 0.001,
                     m_cap: int = REQUIRED_M_CAP) -> TrimPlan:
    """Reference for valid inputs: the scan over a p grid that required_m
    replaced. It takes the minimum over the grid instead of assuming that
    success is monotone in p.
    """
    p_min = float(p_min)
    q = float(q)
    n_steps = int(math.floor((1.0 - p_min) / grid_step + 1e-9))
    grid = p_min + grid_step * np.arange(n_steps + 1)
    if grid[-1] < 1.0 - 1e-12:
        grid = np.append(grid, 1.0)
    grid = np.clip(grid, 0.0, 1.0)

    c = 2.0 * grid - 1.0
    c2 = c * c
    denom = 2.0 * grid * grid
    # rolling window of the sqrt-series coefficients h_{M-4}..h_M per grid p
    h4 = np.zeros_like(grid)   # h_{M-4}
    h2 = np.zeros_like(grid)   # h_{M-2}
    h2[:] = 1.0                # seeds as h_0 when M = 2
    cum = np.zeros_like(grid)
    for m in range(2, m_cap + 1, 2):
        h0 = ((1.0 + c2) * (m - 3) * h2 - c2 * (m - 6) * h4) / m  # h_m
        if m == 4:
            r = grid * grid                          # return pmf at t = 2
        elif m >= 6:
            r = -(h0 + c * h2) / denom               # return pmf at t = m - 2
        else:
            r = np.zeros_like(grid)
        cum += r
        budget = m - 2
        if budget >= 2:
            k = int(np.argmin(cum))
            if cum[k] >= q:
                t_prime = None
                if dt is not None and tau is not None:
                    t_prime = budget * (dt + tau) + s * dt
                return TrimPlan(m=budget, worst_grid_p=float(grid[k]),
                                worst_grid_prob=float(cum[k]), t_prime=t_prime)
        h4, h2 = h2, h0
    raise RuntimeError(f"no gate budget up to {m_cap} reaches success {q} "
                       f"for p_min = {p_min}")


@pytest.mark.parametrize("p_min, q", [(0.005, 0.9495), (0.005, 0.9505),
                                      (0.016, 0.95), (0.05, 0.95)])
def test_required_m_matches_grid_scan(p_min, q):
    assert required_m(p_min, q) == _grid_required_m(p_min, q)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(p_min=st.floats(0.05, 1.0), q=st.floats(0.01, 0.95))
def test_required_m_matches_grid_scan_property(p_min, q):
    timing = {"dt": 0.5, "tau": 0.25, "s": 2}
    assert required_m(p_min, q, **timing) == _grid_required_m(p_min, q, **timing)


def test_return_time_success_is_monotone_in_p():
    # required_m evaluates only p_min; this is the exact fact behind that
    prev = None
    for k in range(1, 97):
        cum = list(itertools.accumulate(walk.dp_return_time(Fraction(k, 97), 60).probs))
        if prev is not None:
            assert all(a >= b for a, b in zip(cum, prev)), k
        prev = cum


def test_exact_pmfs_keep_no_per_p_cache():
    first_passage_dist(Fraction(1, 307), 61)  # fills the p-free binomial caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in range(2, 52):
            first_passage_dist(Fraction(a, 307), 61)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 100_000


def test_hitting_dist_container():
    dist = first_passage_dist(Fraction(1, 2), 5)
    assert dist.backing == "rational"
    assert dist.prob(1) == Fraction(1, 2)
    assert sum(dist.probs) == Fraction(11, 16)
    with pytest.raises(IndexError):
        dist.prob(6)
    floats = first_passage_dist(0.5, 5)
    assert floats.backing == "float"
    assert HittingDist([Fraction(1, 2), 0.25]).backing == "float"
    np.testing.assert_allclose(floats.as_floats(), [0.5, 0, 0.125, 0, 0.0625])
