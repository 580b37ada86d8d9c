import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrewind import walk
from qrewind.analytics import first_passage_pmf, return_pmf
from qrewind.engine import ProtocolConfig, RunOutcome, run_quantum_protocol
from qrewind.mat2 import haar_unitary
from qrewind.qgate import random_state
from qrewind.walk import (LANES, dp_first_passage, dp_return_time,
                          run_walk_protocol, sample_first_passage_batch,
                          sample_return_batch)
from reference import BranchOutcome, apply_q, backing, sample_branch


def test_sample_first_passage_edges():
    for sampler, t_hit in ((sample_first_passage_batch, 1), (sample_return_batch, 2)):
        always = sampler(1.0, runs=20, cap=9, seed=0)
        assert always.counts[t_hit] == 20 and always.timeouts == 0
        never = sampler(0.0, runs=5, cap=500, seed=0)
        assert never.counts.sum() == 0 and never.timeouts == 5


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan])
def test_batch_sampler_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        sample_first_passage_batch(p, runs=10, cap=5, seed=0)
    with pytest.raises(ValueError):
        run_walk_protocol(p, 10, np.random.default_rng(0))


@pytest.mark.parametrize("name, value", [("runs", 10.0), ("cap", 5.5), ("seed", 1.5),
                                         ("workers", 2.0)])
def test_batch_sampler_rejects_non_integral_sizes(name, value):
    sizes = {"runs": 10, "cap": 5, "seed": 0, "workers": 1, name: value}
    with pytest.raises(ValueError, match=name):
        sample_first_passage_batch(0.3, **sizes)


def test_sample_first_passage_statistics():
    sample = sample_first_passage_batch(0.5, runs=10**5, cap=9, seed=7)
    pmf = sample.empirical_pmf()
    sigma1 = math.sqrt(0.5 * 0.5 / 10**5)
    assert abs(pmf[1] - 0.5) < 5 * sigma1
    assert pmf[2] == 0 and pmf[4] == 0
    sigma3 = math.sqrt(0.125 * 0.875 / 10**5)
    assert abs(pmf[3] - 0.125) < 5 * sigma3


def test_batch_sampler_pinned_result():
    # recorded before the two batched walks were folded into one; every
    # stream keeps at least LANES live runs through the cap, so the RNG
    # draws and the output are unchanged
    sample = sample_first_passage_batch(0.3, runs=40000, cap=21, seed=11, workers=2)
    assert sample.counts.tolist() == [0, 12112, 0, 5843, 0, 3418, 0, 2192, 0, 1608,
                                      0, 1223, 0, 1002, 0, 834, 0, 685, 0, 545, 0, 504]
    assert sample.timeouts == 10034


def test_batch_sampler_deterministic_and_worker_sensitive():
    a = sample_first_passage_batch(0.3, runs=5000, cap=21, seed=11, workers=4)
    b = sample_first_passage_batch(0.3, runs=5000, cap=21, seed=11, workers=4)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.timeouts == b.timeouts


@pytest.mark.parametrize("num", range(0, 11))
def test_dp_matches_formula_exactly(num):
    p = Fraction(num, 10)
    dist = dp_first_passage(p, 41)
    assert backing(dist) == "rational"
    for t in range(1, 42):
        assert dist.prob(t) == first_passage_pmf(p, t)


def test_dp_float_mode_close_to_rational():
    for p in (0.3, 0.5, 0.77):
        df = dp_first_passage(p, 41)
        dr = dp_first_passage(Fraction(p), 41)
        assert backing(df) == "float"
        assert max(abs(df.prob(t) - float(dr.prob(t))) for t in range(1, 42)) < 1e-12


def test_dp_known_values_and_even_zeros():
    dist = dp_first_passage(Fraction(1, 2), 6)
    assert [dist.prob(t) for t in range(1, 6)] == \
        [Fraction(1, 2), 0, Fraction(1, 8), 0, Fraction(1, 16)]
    p = Fraction(3, 7)
    dist = dp_first_passage(p, 10)
    assert dist.prob(5) == p * (1 - p) ** 2 * (2 * p * p - 2 * p + 1)
    assert all(dist.prob(t) == 0 for t in (2, 4, 6, 8, 10))


# small denominators, and dyadic ones up to 2^1074 where b - 2a < 0 and b^t is huge
rational_probs = st.one_of(
    st.integers(1, 60).flatmap(lambda b: st.integers(0, b).map(lambda a: Fraction(a, b))),
    st.floats(0, 1).map(Fraction))


@settings(derandomize=True, deadline=None)
@given(p=rational_probs, t_max=st.integers(1, 41))
def test_ladder_dp_matches_closed_formulas(p, t_max):
    first = dp_first_passage(p, t_max)
    assert backing(first) == "rational"
    assert first.probs == [first_passage_pmf(p, t) for t in range(1, t_max + 1)]
    ret = dp_return_time(p, min(t_max, 25))
    assert backing(ret) == "rational"
    assert ret.probs == [return_pmf(p, t) for t in range(1, len(ret.probs) + 1)]
    for exact, dp in ((first, dp_first_passage), (ret, dp_return_time)):
        approx = dp(float(p), len(exact.probs))
        assert backing(approx) == "float"
        assert all(abs(a - float(e)) <= 1e-12
                   for a, e in zip(approx.probs, exact.probs))


@pytest.mark.parametrize("p", [0, 1, Fraction(0), Fraction(1), 0.0, 1.0])
def test_ladder_dp_deterministic_edges(p):
    kind = "float" if isinstance(p, float) else "rational"
    first, ret = dp_first_passage(p, 6), dp_return_time(p, 6)
    assert backing(first) == backing(ret) == kind
    # p = 1 climbs at step 1 and closes at step 2; p = 0 drifts away
    assert first.probs == [p, 0, 0, 0, 0, 0]
    assert ret.probs == [0, p, 0, 0, 0, 0]


@pytest.mark.parametrize("p", [Fraction(-1, 5), Fraction(6, 5), 2, -0.2, 1.5, math.nan])
def test_ladder_dp_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        dp_first_passage(p, 5)
    with pytest.raises(ValueError):
        dp_return_time(p, 5)


def test_dp_return_time_matches_convolution_and_formula():
    for num in (2, 5, 9):
        p = Fraction(num, 10)
        dist = dp_return_time(p, 31)
        fp = [first_passage_pmf(p, t) for t in range(1, 32)]
        for t in range(1, 32):
            conv = sum(fp[a - 1] * fp[t - a - 1] for a in range(1, t))
            assert dist.prob(t) == conv
            assert dist.prob(t) == return_pmf(p, t)


def test_mc_agrees_with_dp():
    n = 10**5
    sample = sample_first_passage_batch(0.5, runs=n, cap=21, seed=3)
    dist = dp_first_passage(0.5, 21)
    pmf = sample.empirical_pmf()
    for t in range(1, 22):
        expected = dist.prob(t)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
        assert abs(pmf[t] - expected) < 5 * sigma, t


def _assert_matches_dp(sample, dist, runs):
    """5 sigma per bin and for the censored tail against an exact DP row."""
    pmf = sample.empirical_pmf()
    for t in range(1, len(dist.probs) + 1):
        expected = dist.prob(t)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / runs)
        assert abs(pmf[t] - expected) < 5 * sigma, t
    survival = 1 - sum(dist.probs)
    sigma = math.sqrt(survival * (1 - survival) / runs)
    assert abs(sample.timeouts / runs - survival) < 5 * sigma


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("runs, workers", [(3000, 1), (2 * 10**5, 2), (2 * 10**5, 256)])
def test_return_sampler_agrees_with_dp(p, runs, workers):
    # 3000 runs go on below LANES live lanes, walked in tiles; 256 streams
    # of 781 runs are walked in tiles from the first step
    cap = 61
    sample = sample_return_batch(p, runs=runs, cap=cap, seed=21, workers=workers)
    if runs == 3000:
        assert sample.timeouts < LANES
    _assert_matches_dp(sample, dp_return_time(p, cap), runs)


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_first_passage_sampler_in_tiles_agrees_with_dp(p):
    # streams of 781 runs: below LANES from the first step, so every step
    # is drawn in tiles and every shed lane goes by halving
    runs, cap = 2 * 10**5, 61
    sample = sample_first_passage_batch(p, runs=runs, cap=cap, seed=22, workers=256)
    assert runs // 256 < LANES
    _assert_matches_dp(sample, dp_first_passage(p, cap), runs)


@pytest.mark.parametrize("sampler, dp", [(sample_first_passage_batch, dp_first_passage),
                                         (sample_return_batch, dp_return_time)])
def test_sampler_walks_streams_in_chunks(monkeypatch, sampler, dp):
    runs, cap = 3 * 10**4, 31
    whole = sampler(0.4, runs=runs, cap=cap, seed=5, workers=2)
    # streams of 15000 runs, each walked as chunks of 4000, 4000, 4000 and 3000
    monkeypatch.setattr(walk, "CHUNK", 4000)
    sample = sampler(0.4, runs=runs, cap=cap, seed=5, workers=2)
    assert int(sample.counts.sum()) + sample.timeouts == runs
    assert sample.counts.tolist() != whole.counts.tolist()  # the chunks drew anew
    _assert_matches_dp(sample, dp(0.4, cap), runs)
    # a stream that fits in one chunk is walked exactly as without chunks
    monkeypatch.setattr(walk, "CHUNK", runs // 2)
    same = sampler(0.4, runs=runs, cap=cap, seed=5, workers=2)
    assert same.counts.tolist() == whole.counts.tolist()
    assert same.timeouts == whole.timeouts


@pytest.mark.parametrize("sampler, counts", [
    (sample_first_passage_batch, {1: 299}),
    (sample_return_batch, {2: 297, 318: 1, 718: 1}),
])
def test_chunks_that_finish_before_the_cap_pinned(monkeypatch, sampler, counts):
    # one stream of three chunks of 100 runs, walked in tiles of 81 steps
    # until they halve; at p near 1 nearly every run ends at its first
    # chance. At seed 5 the first chunk keeps one run to the cap, and the
    # second chunk's last run ends at step 1 or 2, inside its first tile:
    # the next chunk draws after the rest of that tile's draws
    monkeypatch.setattr(walk, "CHUNK", 100)
    sample = sampler(0.99, runs=300, cap=2000, seed=5, workers=1)
    assert {t: int(c) for t, c in enumerate(sample.counts) if c} == counts
    assert sample.timeouts == 1


def test_batch_sampler_memory_peak():
    # streams of 200000 runs, compacted at every step with hits; the peak
    # was 4004459 bytes when positions were int64 and every step negated
    # them through a masked ufunc (3083800 with int32 positions)
    sample_first_passage_batch(0.3, 1000, 21, 5, 2)  # first-call allocations
    tracemalloc.start()
    try:
        sample = sample_first_passage_batch(0.3, 4 * 10**5, 21, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(sample.counts.sum()) + sample.timeouts == 4 * 10**5
    assert peak <= 4004459


def test_tiled_sampler_memory_peak():
    # the bench's classical campaign shape: streams of 1000 runs, walked in
    # tiles from the first step. The peak holds the arrays of about two
    # tiles of 1000 lanes x 8 steps (the last one's steps and signs while
    # the next one draws), whatever the run count; it read 160596 bytes
    # (35712 with one draw per step and no tiles)
    sample_return_batch(0.3, 1000, 21, 5, 2)  # first-call allocations
    tracemalloc.start()
    try:
        sample = sample_return_batch(0.37, 2000, 200, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(sample.counts.sum()) + sample.timeouts == 2000
    assert peak <= 192 * 1024


def test_position_dtype_fits_the_cap():
    # positions are int32 and |h| <= t <= cap, so a cap of 2^31 is refused
    # before its counts array is allocated
    assert walk.MAX_CAP == 2**31 - 1
    with pytest.raises(ValueError, match=r"^cap must lie in \[0, 2147483647\]"):
        sample_first_passage_batch(0.3, 10, 2**31, 1)


def _vector_residual(a, b):
    """Norm of the component of a orthogonal to b, relative to scales."""
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-14)
    coeff = np.vdot(b, a) / np.vdot(b, b)
    return np.linalg.norm(a - coeff * b) / scale


def test_word_soundness_phase1():
    """At (row, pos) the state is y^pos psi0 (lower) or x y^pos psi0 (upper).

    x = WV - VW and y = VW + WV; the branches of apply_q are x psi / 2 and
    y psi / 2. Checked after every phase-1 move on the normalised replay,
    since the unnormalised one shrinks by orders of magnitude on long
    trajectories.
    """
    rng = np.random.default_rng(5)
    steps = arrivals = 0
    for _ in range(40):
        v, w = haar_unitary(rng), haar_unitary(rng)
        psi0 = random_state(rng)
        x, y = w @ v - v @ w, v @ w + w @ v
        psi, row, pos = psi0, 0, 0
        for _ in range(200):
            branches = apply_q(v, w, psi)
            if rng.random() < 0.5:
                psi, row = branches.vertical, row ^ 1
            else:
                psi, pos = branches.horizontal, pos + 1 - 2 * row
            psi = psi / np.linalg.norm(psi)
            word = np.linalg.matrix_power(y, pos) @ psi0
            if row:
                word = x @ word
            assert _vector_residual(psi, word / np.linalg.norm(word)) < 1e-9, (row, pos)
            steps += 1
            if (row, pos) == (1, 0):
                arrivals += 1
                break
    assert arrivals >= 30 and steps > 500


def test_phase2_terminal_word_rewinds():
    """The apply_q / sample_branch loop rewinds to W^{-s} psi0 and is the
    run that run_quantum_protocol computes from the same generator."""
    rng = np.random.default_rng(6)
    counts = Counter()
    for mode in ("unitary", "contraction"):
        for _ in range(150):
            v, w = haar_unitary(rng), haar_unitary(rng)
            if mode == "contraction":
                v, w = v * rng.uniform(0.9, 1.0), w * rng.uniform(0.9, 1.0)
            s, m = int(rng.integers(0, 6)), 60
            psi0 = random_state(rng)
            seed = int(rng.integers(2**32))

            gen = np.random.default_rng(seed)
            psi, row, pos = psi0, 0, 0
            rewound = False
            outcome, q_count = RunOutcome.TRIM_FAIL, m
            for q in range(1, m + 1):
                branch, psi = sample_branch(apply_q(v, w, psi), gen)
                if branch is BranchOutcome.ABORT:
                    outcome, q_count = RunOutcome.ABORT, q
                    break
                if branch is BranchOutcome.VERTICAL:
                    row ^= 1
                else:
                    pos += 1 - 2 * row
                if not rewound:
                    if (row, pos) == (1, 0):
                        rewound = True
                        psi = np.linalg.matrix_power(w, s) @ psi
                        psi = psi / np.linalg.norm(psi)
                elif (row, pos) == (0, 0):
                    outcome, q_count = RunOutcome.SUCCESS, q
                    break

            cfg = ProtocolConfig(v=v, w=w, s=s, m=m, mode=mode)
            rec = run_quantum_protocol(cfg, np.random.default_rng(seed), psi0=psi0)
            assert (rec.outcome, rec.q_count) == (outcome, q_count)
            counts[mode, outcome] += 1
            if outcome is not RunOutcome.SUCCESS:
                continue
            reference = np.linalg.matrix_power(np.linalg.inv(w), s) @ psi0
            assert _vector_residual(psi, reference) < 1e-9
            reference /= np.linalg.norm(reference)
            assert abs(rec.fidelity - abs(np.vdot(reference, psi)) ** 2) < 1e-12
    assert counts["unitary", RunOutcome.SUCCESS] >= 25
    assert counts["unitary", RunOutcome.TRIM_FAIL] > 0
    assert counts["contraction", RunOutcome.SUCCESS] >= 25
    assert counts["contraction", RunOutcome.ABORT] >= 25


def test_run_walk_protocol_edges():
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = run_walk_protocol(1.0, 2, rng)
        assert out.success and out.q_count == 2
        assert out.phase1_steps == 1 and out.phase2_steps == 1
    for _ in range(20):
        out = run_walk_protocol(0.0, 10, rng)
        assert not out.success and out.q_count == 10
    with pytest.raises(ValueError):
        run_walk_protocol(0.5, 1, rng)


def test_run_walk_protocol_rate_and_parity():
    rng = np.random.default_rng(8)
    n = 2 * 10**4
    wins = 0
    for _ in range(n):
        out = run_walk_protocol(0.5, 12, rng)
        if out.success:
            wins += 1
            assert out.phase1_steps % 2 == 1
            assert out.phase2_steps % 2 == 1
            assert out.q_count % 2 == 0
            assert out.q_count == out.phase1_steps + out.phase2_steps <= 12
    expected = float(sum(return_pmf(0.5, t) for t in range(2, 13)))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(wins / n - expected) < 5 * sigma


def test_dp_horizon_guard():
    with pytest.raises(ValueError):
        dp_first_passage(0.5, 10**4 + 1)
    with pytest.raises(ValueError):
        dp_return_time(0.5, 0)
