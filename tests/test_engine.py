import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qrewind import mat2, qgate
from qrewind.analytics import cumulative_success, return_pmf
from qrewind.engine import (LANES, ProtocolConfig, RunOutcome, _compile, _haar_lanes, _norm2,
                            monte_carlo, run_quantum_protocol, success_curve)
from qrewind.mat2 import (HADAMARD, SIGMA_X, SIGMA_Y, SIGMA_Z, branch_prob_invariant,
                          haar_unitary)
from qrewind.qgate import random_state
from qrewind.walk import run_walk_protocol, sample_first_passage_batch


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig().validate()  # no matrices, no p_override
    with pytest.raises(ValueError):
        ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, m=1).validate()
    with pytest.raises(ValueError):
        ProtocolConfig(v=0.5 * SIGMA_X, w=SIGMA_Z).validate()  # not unitary
    with pytest.raises(ValueError):
        ProtocolConfig(v=1.5 * SIGMA_X, w=SIGMA_Z, mode="contraction").validate()
    with pytest.raises(ValueError):
        ProtocolConfig(p_override=1.5).validate()
    ProtocolConfig(v=0.5 * SIGMA_X, w=SIGMA_Z, mode="contraction").validate()
    ProtocolConfig(p_override=0.5).validate()
    for name, value in (("m", 10.5), ("s", 1.5), ("runs", 10.0), ("workers", 2.0),
                        ("seed", 3.0), ("m", "10")):
        with pytest.raises(ValueError, match=name):  # not a TypeError from deep inside
            ProtocolConfig(p_override=0.5, **{name: value}).validate()
    sizes = {"s": np.int64(2), "m": np.int32(10), "seed": np.uint8(3),
             "runs": np.int64(5), "workers": np.int16(2)}
    cfg = ProtocolConfig(p_override=0.5, **sizes).validate()
    for name, value in sizes.items():
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
    with pytest.raises(ValueError):  # a psi0 argument is checked as cfg.psi0 is
        run_quantum_protocol(ProtocolConfig(v=HADAMARD, w=SIGMA_Z),
                             np.random.default_rng(0), psi0=np.array([3.0, 0.0]))


def test_validate_coerces_each_input_once(monkeypatch):
    cfg = ProtocolConfig(v=HADAMARD.tolist(), w=[[1, 0], [0, -1]], psi0=[1, 0]).validate()
    for a, shape in ((cfg.v, (2, 2)), (cfg.w, (2, 2)), (cfg.psi0, (2,))):
        assert isinstance(a, np.ndarray) and a.dtype == complex and a.shape == shape
    calls = {"_unitary": 0, "as_state": 0}
    for owner, name in ((mat2, "_unitary"), (qgate, "as_state")):
        def counting(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counting)
    run_quantum_protocol(cfg, np.random.default_rng(0))
    assert calls == {"_unitary": 2, "as_state": 1}  # one check per matrix and state


def test_monte_carlo_on_list_inputs_matches_arrays():
    for mode, scale in (("unitary", 1.0), ("contraction", 0.9)):
        arrays = ProtocolConfig(v=scale * HADAMARD, w=SIGMA_Z, s=2, m=40, seed=3, runs=300,
                                workers=2, mode=mode)
        lists = replace(arrays, v=arrays.v.tolist(), w=SIGMA_Z.tolist())
        assert monte_carlo(lists) == monte_carlo(arrays)


def test_numpy_int_sizes_match_python_ints():
    # numpy integers used to reach walk.halve, whose int.bit_length they lack
    rng = np.random.default_rng(2)
    v, w = haar_unitary(rng), haar_unitary(rng)
    for cfg in (ProtocolConfig(p_override=0.5, m=10, seed=4, runs=5),
                ProtocolConfig(p_override=0.3, m=40, seed=4, runs=700, workers=2),
                ProtocolConfig(v=v, w=w, s=2, m=30, seed=4, runs=700, workers=2),
                ProtocolConfig(v=0.9 * v, w=0.9 * w, s=2, m=30, seed=4, runs=700,
                               mode="contraction")):
        numpy_sizes = replace(cfg, s=np.int64(cfg.s), m=np.int64(cfg.m),
                              seed=np.int64(cfg.seed), runs=np.int64(cfg.runs),
                              workers=np.int32(cfg.workers))
        assert monte_carlo(numpy_sizes) == monte_carlo(cfg)
    sample = sample_first_passage_batch(0.3, np.int64(50), np.int64(5), np.int64(1),
                                        np.int64(2))
    twin = sample_first_passage_batch(0.3, 50, 5, 1, 2)
    assert sample.counts.tolist() == twin.counts.tolist()
    assert sample.timeouts == twin.timeouts


def test_haar_lanes_redraw_at_the_degenerate_norm(monkeypatch):
    # about one draw in eleven of 4 standard normals has norm <= 1
    twin = np.random.default_rng(8)
    plain = _haar_lanes(twin, 64)
    z = np.random.default_rng(8).standard_normal((64, 4))
    kept = np.sqrt((z * z).sum(axis=1)) > 1.0
    assert 0 < np.count_nonzero(kept) < 64
    monkeypatch.setattr(mat2, "DEGENERATE_NORM", 1.0)
    rng = np.random.default_rng(8)
    lanes = _haar_lanes(rng, 64)
    assert rng.bit_generator.state != twin.bit_generator.state  # it drew again
    np.testing.assert_array_equal(lanes[:, kept], plain[:, kept])
    assert not np.array_equal(lanes, plain)


def test_pauli_pair_always_succeeds_immediately():
    rng = np.random.default_rng(0)
    cfg = ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, s=0, m=2)
    for _ in range(50):
        rec = run_quantum_protocol(cfg, rng)
        assert rec.outcome is RunOutcome.SUCCESS
        assert rec.q_count == 2
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)


def test_commuting_pair_always_trim_fails():
    rng = np.random.default_rng(1)
    u = haar_unitary(rng)
    cfg = ProtocolConfig(v=u, w=u, m=16)
    for _ in range(30):
        rec = run_quantum_protocol(cfg, rng)
        assert rec.outcome is RunOutcome.TRIM_FAIL
        assert rec.q_count == 16


def test_success_fidelity_certificate_with_oracle():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 60:
        v, w = haar_unitary(rng), haar_unitary(rng)
        s = int(rng.integers(0, 11))
        psi0 = random_state(rng)
        cfg = ProtocolConfig(v=v, w=w, s=s, m=500)
        rec = run_quantum_protocol(cfg, rng, psi0=psi0)
        if rec.outcome is not RunOutcome.SUCCESS:
            continue
        checked += 1
        assert rec.fidelity >= 1 - 1e-9
        # independent reference: explicit adjoint powers applied to psi0
        ref = np.linalg.matrix_power(w.conj().T, s) @ psi0
        ref /= np.linalg.norm(ref)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(ref, ref).real - 1.0) < 1e-12
        # budget law
        assert rec.q_count <= 500


def test_contraction_mode_spot_check():
    rng = np.random.default_rng(3)
    cfg = ProtocolConfig(v=0.9 * HADAMARD, w=SIGMA_Z, s=3, m=40,
                         mode="contraction")
    n_success = n_abort = 0
    for _ in range(2000):
        rec = run_quantum_protocol(cfg, rng)
        if rec.outcome is RunOutcome.SUCCESS:
            n_success += 1
            assert rec.fidelity >= 1 - 1e-8
        elif rec.outcome is RunOutcome.ABORT:
            n_abort += 1
    assert n_success > 50 and n_abort > 50


def test_contraction_singular_w_rejected_when_rewinding():
    singular = np.array([[1, 0], [0, 0]], dtype=complex)
    cfg = ProtocolConfig(v=0.9 * HADAMARD, w=singular, s=2, m=4,
                         mode="contraction")
    with pytest.raises(ValueError):
        run_quantum_protocol(cfg, np.random.default_rng(0))


def test_monte_carlo_rate_and_determinism():
    cfg = ProtocolConfig(v=HADAMARD, w=SIGMA_Z, s=0, m=2, seed=42,
                         runs=4 * 10**4, workers=4)
    stats = monte_carlo(cfg)
    sigma = math.sqrt(0.25 * 0.75 / cfg.runs)
    assert abs(stats.success_rate - 0.25) < 5 * sigma
    assert stats.n_abort == 0
    assert stats.n_runs == cfg.runs
    assert stats.n_success + stats.n_trim_fail + stats.n_abort == cfg.runs
    assert stats.min_fidelity >= 1 - 1e-9
    assert monte_carlo(cfg) == stats


def test_monte_carlo_trivial_and_classical():
    cfg = ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, m=2, seed=0, runs=100)
    assert monte_carlo(cfg).success_rate == 1.0

    classical = ProtocolConfig(p_override=0.5, m=2, seed=1, runs=2 * 10**4)
    stats = monte_carlo(classical)
    sigma = math.sqrt(0.25 * 0.75 / classical.runs)
    assert abs(stats.success_rate - 0.25) < 5 * sigma
    assert stats.mean_fidelity is None


def test_quantum_matches_classical_walk_distribution():
    m = 10
    n_q, n_c = 3 * 10**4, 10**5
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=m, seed=5,
                                       runs=n_q))
    rng = np.random.default_rng(6)
    classical_hist = {}
    for _ in range(n_c):
        out = run_walk_protocol(0.5, m, rng)
        classical_hist[out.q_count] = classical_hist.get(out.q_count, 0) + 1
    for q in sorted(set(stats.q_count_hist) | set(classical_hist)):
        f_q = stats.q_count_hist.get(q, 0) / n_q
        f_c = classical_hist.get(q, 0) / n_c
        pooled = (stats.q_count_hist.get(q, 0) + classical_hist.get(q, 0)) / (n_q + n_c)
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * (1 / n_q + 1 / n_c))
        assert abs(f_q - f_c) < 5 * sigma, q


def test_success_curve_shapes():
    curve = success_curve(p=1.0, m_max=4)
    assert curve.prob_full == [0.0, 1.0, 1.0, 1.0]

    curve = success_curve(p=0.0, m_max=4)
    assert curve.prob_full == [0.0] * 4
    assert curve.prob_commutator == [0.0] * 4

    curve = success_curve(p=0.5, m_max=8)
    assert curve.prob_full[1] == pytest.approx(0.25, abs=1e-14)
    assert curve.prob_commutator[0] == pytest.approx(0.5, abs=1e-14)
    # full success is not the square of the first-phase success
    assert curve.prob_full[3] == pytest.approx(3 / 8, abs=1e-14)
    assert curve.prob_commutator[3] ** 2 == pytest.approx(25 / 64, abs=1e-14)
    assert abs(curve.prob_full[3] - curve.prob_commutator[3] ** 2) > 0.01
    # monotone, and full is dominated by the first phase
    assert all(b >= a - 1e-15 for a, b in zip(curve.prob_full, curve.prob_full[1:]))
    assert all(f <= c + 1e-15 for f, c in
               zip(curve.prob_full, curve.prob_commutator))


def test_curve_convergence_at_required_budget():
    from qrewind.analytics import required_m
    plan = required_m(0.5, 0.99)
    assert cumulative_success(0.5, plan.m, "full") >= 0.99
    curve = success_curve(p=0.5, m_max=plan.m)
    assert curve.prob_full[-1] >= 0.99


def test_mean_q_count_respects_budget():
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=8, seed=12,
                                       runs=2000))
    assert max(stats.q_count_hist) <= 8
    expected_rate = float(sum(return_pmf(0.5, t) for t in range(2, 9)))
    sigma = math.sqrt(expected_rate * (1 - expected_rate) / 2000)
    assert abs(stats.success_rate - expected_rate) < 5 * sigma


# ── batched lane kernel against deterministic edges and the scalar oracles ──

def _assert_counts_consistent(stats, runs):
    assert stats.n_runs == runs
    assert stats.n_success + stats.n_trim_fail + stats.n_abort == runs
    assert sum(stats.q_count_hist.values()) == runs


def test_kernel_pauli_pair_always_succeeds_at_two():
    runs = LANES + 5
    cfg = ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, s=3, m=9, seed=1, runs=runs,
                         workers=2)
    assert _compile(cfg).p == 1.0  # fast path; the zero horizontal map stays unscaled
    assert branch_prob_invariant(cfg.v, cfg.w) == _compile(cfg).p
    stats = monte_carlo(cfg)
    assert stats.n_success == runs
    assert stats.q_count_hist == {2: runs}
    assert stats.min_fidelity == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_kernel_commuting_pair_always_trim_fails():
    u = haar_unitary(np.random.default_rng(1))
    cfg = ProtocolConfig(v=u, w=u, m=16, seed=2, runs=700)
    assert _compile(cfg).p == 0.0  # fast path; the zero vertical map stays unscaled
    assert branch_prob_invariant(cfg.v, cfg.w) == _compile(cfg).p
    stats = monte_carlo(cfg)
    assert stats.n_trim_fail == 700
    assert stats.q_count_hist == {16: 700}
    assert stats.min_fidelity is None and stats.mean_fidelity is None


@pytest.mark.parametrize("p, hist", [(1.0, {2: 300}), (0.0, {7: 300})])
def test_kernel_classical_edges(p, hist):
    stats = monte_carlo(ProtocolConfig(p_override=p, m=7, seed=3, runs=300,
                                       workers=3))
    assert stats.q_count_hist == hist
    assert stats.n_success == (300 if p == 1.0 else 0)
    assert stats.n_abort == 0 and stats.mean_fidelity is None


def test_classical_campaign_pinned_result():
    # streams of 1000 runs, below LANES from the first step: walked in tiles
    # of 8 steps, and both halve after step 16, so the bins from step 18 on
    # moved when draws stopped covering the lanes a halving sheds
    stats = monte_carlo(ProtocolConfig(p_override=0.4, m=30, runs=2000, seed=3, workers=2))
    assert stats.to_dict() == {
        "n_runs": 2000, "n_success": 1292, "n_trim_fail": 708, "n_abort": 0,
        "success_rate": 0.646, "min_fidelity": None, "mean_fidelity": None,
        "q_count_hist": {"2": 315, "4": 229, "6": 158, "8": 117, "10": 90, "12": 60,
                         "14": 61, "16": 54, "18": 38, "20": 35, "22": 30, "24": 34,
                         "26": 26, "28": 23, "30": 730}}


def test_amplitude_campaign_pinned_result():
    # each gate draws one uniform per lane its halving block holds
    rng = np.random.default_rng(13)
    v, w = haar_unitary(rng), haar_unitary(rng)
    stats = monte_carlo(ProtocolConfig(v=v, w=w, s=3, m=200, runs=3000, seed=5,
                                       workers=2))
    assert (stats.n_success, stats.n_trim_fail, stats.n_abort) == (2465, 535, 0)
    assert stats.q_count_hist == {
        2: 277, 4: 262, 6: 230, 8: 173, 10: 133, 12: 105, 14: 98, 16: 92, 18: 79,
        20: 69, 22: 53, 24: 46, 26: 50, 28: 40, 30: 45, 32: 33, 34: 33, 36: 32, 38: 23,
        40: 26, 42: 21, 44: 20, 46: 18, 48: 16, 50: 18, 52: 25, 54: 16, 56: 19, 58: 20,
        60: 22, 62: 15, 64: 9, 66: 9, 68: 14, 70: 10, 72: 12, 74: 9, 76: 8, 78: 11,
        80: 6, 82: 11, 84: 7, 86: 8, 88: 12, 90: 7, 92: 6, 94: 8, 96: 6, 98: 4, 100: 5,
        102: 10, 104: 15, 106: 8, 108: 5, 110: 5, 112: 5, 114: 4, 116: 5, 118: 10,
        120: 3, 122: 2, 124: 2, 126: 4, 128: 4, 130: 4, 132: 6, 136: 4, 138: 3, 140: 2,
        142: 4, 144: 2, 146: 4, 148: 9, 150: 8, 152: 4, 154: 5, 156: 3, 158: 2, 160: 3,
        162: 4, 164: 3, 166: 2, 168: 3, 170: 2, 172: 3, 174: 2, 176: 3, 178: 2, 180: 1,
        182: 1, 184: 4, 186: 2, 188: 1, 190: 2, 192: 4, 194: 1, 196: 2, 198: 6,
        200: 536}
    assert stats.min_fidelity == pytest.approx(0.9999999999999996, abs=1e-12)
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_contraction_campaign_pinned_result():
    # 1500 runs per stream, so each stream runs one full block and one of 476
    rng = np.random.default_rng(21)
    v, w = haar_unitary(rng), haar_unitary(rng)
    stats = monte_carlo(ProtocolConfig(v=0.9 * v, w=0.9 * w, s=3, m=60, runs=3000,
                                       seed=11, workers=2, mode="contraction"))
    assert (stats.n_success, stats.n_trim_fail, stats.n_abort) == (500, 0, 2500)
    assert stats.q_count_hist == {
        1: 1022, 2: 1083, 3: 295, 4: 256, 5: 115, 6: 94, 7: 54, 8: 33, 9: 15, 10: 14,
        11: 6, 12: 8, 13: 2, 14: 1, 16: 1, 24: 1}
    assert stats.min_fidelity == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_fixed_psi0_campaign_pinned_result():
    rng = np.random.default_rng(23)
    v, w = haar_unitary(rng), haar_unitary(rng)
    stats = monte_carlo(ProtocolConfig(v=v, w=w, s=6, m=120, runs=2500, seed=12,
                                       workers=2, psi0=random_state(rng)))
    assert (stats.n_success, stats.n_trim_fail, stats.n_abort) == (2339, 161, 0)
    assert stats.q_count_hist == {
        2: 1773, 4: 90, 6: 78, 8: 58, 10: 35, 12: 36, 14: 19, 16: 22, 18: 18, 20: 14,
        22: 12, 24: 15, 26: 9, 28: 14, 30: 7, 32: 8, 34: 4, 36: 5, 38: 6, 40: 8, 42: 5,
        44: 10, 46: 7, 48: 1, 50: 4, 52: 5, 54: 5, 56: 6, 58: 1, 60: 1, 62: 2, 64: 3,
        66: 2, 68: 1, 70: 4, 72: 2, 76: 2, 78: 2, 80: 4, 82: 5, 84: 4, 86: 2, 88: 3,
        90: 2, 94: 3, 98: 3, 100: 1, 106: 4, 108: 3, 110: 2, 112: 3, 114: 2, 116: 1,
        118: 1, 120: 163}
    assert stats.min_fidelity == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_kernel_fixed_psi0_certificate():
    rng = np.random.default_rng(4)
    v, w = haar_unitary(rng), haar_unitary(rng)
    cfg = ProtocolConfig(v=v, w=w, s=4, m=200, seed=5, runs=3000, workers=2,
                         psi0=random_state(rng))
    assert _compile(cfg).p is not None  # fast path
    stats = monte_carlo(cfg)
    assert stats.n_success > 100
    assert stats.min_fidelity >= 1 - 1e-9


def test_kernel_working_set_stays_one_block():
    # blocks of LANES runs bound the kernel's memory whatever the stream's
    # length; the peak read 0.3 MB on a 2-core host (Python 3.11, numpy 2.4)
    cfg = ProtocolConfig(v=HADAMARD, w=SIGMA_Z, s=5, m=200, seed=3, runs=2 * 10**4)
    tracemalloc.start()
    try:
        stats = monte_carlo(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_runs == cfg.runs
    assert peak < 1 << 20


@pytest.mark.parametrize("runs, workers", [(2 * LANES + 37, 1), (3, 5), (1, 2)])
@pytest.mark.parametrize("mode", ["unitary", "contraction"])
def test_kernel_counts_are_exact(runs, workers, mode):
    scale = 1.0 if mode == "unitary" else 0.9
    cfg = ProtocolConfig(v=scale * HADAMARD, w=SIGMA_Z, s=2, m=10, seed=6,
                         runs=runs, workers=workers, mode=mode)
    _assert_counts_consistent(monte_carlo(cfg), runs)
    classical = ProtocolConfig(p_override=0.4, m=10, seed=6, runs=runs,
                               workers=workers)
    _assert_counts_consistent(monte_carlo(classical), runs)


def _assert_same_distribution(counts_a: dict, n_a: int, counts_b: dict, n_b: int):
    """Two-sample test, 5 sigma per bin, over the union of the bins."""
    for key in sorted(set(counts_a) | set(counts_b)):
        a, b = counts_a.get(key, 0), counts_b.get(key, 0)
        pooled = (a + b) / (n_a + n_b)
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * (1 / n_a + 1 / n_b))
        assert abs(a / n_a - b / n_b) < 5 * sigma, (key, a, b)


def _scalar_oracle(cfg: ProtocolConfig, n: int, seed: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    hist, outcomes = {}, {}
    for _ in range(n):
        rec = run_quantum_protocol(cfg, rng)
        hist[rec.q_count] = hist.get(rec.q_count, 0) + 1
        outcomes[rec.outcome.value] = outcomes.get(rec.outcome.value, 0) + 1
    return hist, outcomes


@pytest.mark.parametrize("mode", ["unitary", "contraction"])
def test_kernel_matches_scalar_oracle(mode):
    rng = np.random.default_rng(7)
    v, w = haar_unitary(rng), haar_unitary(rng)
    scale = 1.0 if mode == "unitary" else 0.9
    cfg = ProtocolConfig(v=scale * v, w=scale * w, s=3, m=12, seed=8,
                         runs=3 * 10**4, workers=3, mode=mode)
    stats = monte_carlo(cfg)
    n_scalar = 6000
    hist, outcomes = _scalar_oracle(cfg, n_scalar, seed=9)
    _assert_same_distribution(stats.q_count_hist, cfg.runs, hist, n_scalar)
    batched = {RunOutcome.SUCCESS.value: stats.n_success,
               RunOutcome.TRIM_FAIL.value: stats.n_trim_fail,
               RunOutcome.ABORT.value: stats.n_abort}
    _assert_same_distribution(batched, cfg.runs, outcomes, n_scalar)
    if mode == "contraction":
        assert stats.n_abort > 100 and outcomes[RunOutcome.ABORT.value] > 20
        assert stats.min_fidelity >= 1 - 1e-8
    else:
        assert stats.n_abort == 0
        assert stats.min_fidelity >= 1 - 1e-9


def test_kernel_classical_matches_walk_oracle():
    cfg = ProtocolConfig(p_override=0.3, m=20, seed=10, runs=3 * 10**4, workers=2)
    stats = monte_carlo(cfg)
    rng = np.random.default_rng(11)
    hist, n_success = {}, 0
    for _ in range(2 * 10**4):
        out = run_walk_protocol(0.3, 20, rng)
        hist[out.q_count] = hist.get(out.q_count, 0) + 1
        n_success += out.success
    _assert_same_distribution(stats.q_count_hist, cfg.runs, hist, 2 * 10**4)
    _assert_same_distribution({"success": stats.n_success}, cfg.runs,
                              {"success": n_success}, 2 * 10**4)


# ── unitary fast path: prescaled isometric maps and its certificate ──

def _rotation_pair(theta: float, alpha: float, beta: float, rng):
    """exp(-i beta n.sigma) and exp(-i alpha m.sigma), axes theta apart.

    The axes are random unit vectors and each matrix carries a random global
    phase. The branch probability is exactly
    sin^2(alpha) sin^2(beta) sin^2(theta).
    """
    m = rng.standard_normal(3)
    m /= np.linalg.norm(m)
    e = rng.standard_normal(3)
    e -= (e @ m) * m
    e /= np.linalg.norm(e)
    n = math.cos(theta) * m + math.sin(theta) * e

    def rot(angle, axis):
        gen = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
        return (np.exp(2j * math.pi * rng.random())
                * (math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * gen))

    return rot(beta, n), rot(alpha, m)


@pytest.mark.parametrize("p_exact", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.5,
                                     1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
def test_fast_path_maps_are_isometries(p_exact):
    # the scaled maps miss an isometry by about 1e-16/sqrt(p) (vertical) and
    # 1e-16/sqrt(1 - p) (horizontal); over 200 such pairs the worst miss
    # was 2.1e-10 at p = 1e-12 and 2.0e-10 at p = 1 - 1e-12
    rng = np.random.default_rng(round(-math.log10(min(p_exact, 1 - p_exact))))
    psi = rng.standard_normal((4, 256))  # real-form columns, as the lane kernel holds them
    psi /= np.sqrt(_norm2(psi))
    half = math.pi / 2
    if p_exact < 0.5:
        angles = [(math.asin(math.sqrt(p_exact)), half, half),
                  (math.asin(math.sqrt(p_exact / 0.64)), math.asin(0.8), half)]
    else:  # only a pair of reflections gets close to p = 1
        angles = [(math.acos(math.sqrt(1 - p_exact)), half, half)]
    for theta, alpha, beta in angles * 4:
        v, w = _rotation_pair(theta, alpha, beta, rng)
        cp = _compile(ProtocolConfig(v=v, w=w, s=2, m=4).validate())
        assert cp.p == pytest.approx(p_exact, rel=1e-6)
        assert branch_prob_invariant(v, w) == cp.p
        assert branch_prob_invariant(v, w) == pytest.approx(p_exact, rel=1e-6)
        amps = cp.branches @ psi
        assert np.abs(_norm2(amps[:4]) - 1.0).max() <= 1e-9
        assert np.abs(_norm2(amps[4:]) - 1.0).max() <= 1e-9


def test_fast_path_fidelity_is_two_sided():
    # a drifting norm can push the fidelity above 1 as well as below it
    rng = np.random.default_rng(17)
    for seed in range(6):
        v, w = haar_unitary(rng), haar_unitary(rng)
        stats = monte_carlo(ProtocolConfig(v=v, w=w, s=seed, m=200, seed=seed,
                                           runs=1500, workers=2))
        assert stats.n_success > 100
        assert stats.min_fidelity >= 1 - 1e-9
        assert stats.mean_fidelity <= 1 + 1e-9
