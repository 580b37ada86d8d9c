import math

import numpy as np
import pytest

from qrewind.analytics import cumulative_success, return_pmf
from qrewind.engine import (LANES, ProtocolConfig, RunOutcome, Statistics,
                            monte_carlo, run_quantum_protocol, success_curve)
from qrewind.mat2 import HADAMARD, SIGMA_X, SIGMA_Z, haar_unitary
from qrewind.qgate import random_state
from qrewind.walk import run_walk_protocol


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


def test_pauli_pair_always_succeeds_immediately():
    rng = np.random.default_rng(0)
    cfg = ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, s=0, m=2)
    for _ in range(50):
        rec = run_quantum_protocol(cfg, rng)
        assert rec.outcome is RunOutcome.SUCCESS
        assert rec.q_count == 2
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rec.elapsed_model_time == pytest.approx(2 * 2.0)


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
        assert rec.elapsed_model_time <= 500 * 2.0 + s * 1.0


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


def test_success_curve_from_matrices():
    curve = success_curve(v=HADAMARD, w=SIGMA_Z, m_max=4)
    assert curve.prob_full[1] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        success_curve(p=0.5, v=HADAMARD, w=SIGMA_Z, m_max=4)
    with pytest.raises(ValueError):
        success_curve(v=0.5 * HADAMARD, w=SIGMA_Z, m_max=4)


def test_curve_convergence_at_required_budget():
    from qrewind.analytics import required_m
    plan = required_m(0.5, 0.99)
    assert cumulative_success(0.5, plan.m, "full") >= 0.99
    curve = success_curve(p=0.5, m_max=plan.m)
    assert curve.prob_full[-1] >= 0.99


def test_statistics_roundtrip():
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=6, seed=11,
                                       runs=500))
    again = Statistics.from_dict(stats.to_dict())
    assert again == stats


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
    stats = monte_carlo(ProtocolConfig(v=SIGMA_X, w=SIGMA_Z, s=3, m=9, seed=1,
                                       runs=runs, workers=2))
    assert stats.n_success == runs
    assert stats.q_count_hist == {2: runs}
    assert stats.min_fidelity == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-12)


def test_kernel_commuting_pair_always_trim_fails():
    u = haar_unitary(np.random.default_rng(1))
    stats = monte_carlo(ProtocolConfig(v=u, w=u, m=16, seed=2, runs=700))
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


def test_kernel_fixed_psi0_certificate():
    rng = np.random.default_rng(4)
    v, w = haar_unitary(rng), haar_unitary(rng)
    stats = monte_carlo(ProtocolConfig(v=v, w=w, s=4, m=200, seed=5, runs=3000,
                                       workers=2, psi0=random_state(rng)))
    assert stats.n_success > 100
    assert stats.min_fidelity >= 1 - 1e-9


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
