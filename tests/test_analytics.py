import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qrewind.analytics import (GENFUNC_SERIES_GUARD, HittingDist,
                               cumulative_profile, cumulative_success,
                               first_passage_dist, first_passage_pmf,
                               first_passage_profile, gen_binomial,
                               genfunc_closed, genfunc_series, required_m,
                               return_pmf, return_profile)

GRID = [Fraction(k, 10) for k in range(11)]


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


def test_required_m_definitional():
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


def test_hitting_dist_container():
    dist = first_passage_dist(Fraction(1, 2), 5)
    assert dist.backing == "rational"
    assert [v for _, v in dist.rows()] == dist.probs
    assert dist.prob(1) == Fraction(1, 2)
    assert sum(dist.probs) == Fraction(11, 16)
    assert len(dist) == 5
    with pytest.raises(IndexError):
        dist.prob(6)
    with pytest.raises(ValueError):
        HittingDist([0.5], backing="decimal")
    floats = first_passage_dist(0.5, 5)
    assert floats.backing == "float"
    np.testing.assert_allclose(floats.as_floats(), [0.5, 0, 0.125, 0, 0.0625])
