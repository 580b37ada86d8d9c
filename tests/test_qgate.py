import math

import numpy as np
import pytest

from qrewind.mat2 import (IDENTITY, SIGMA_X, SIGMA_Z, branch_prob_invariant,
                          commutator, haar_unitary)
from qrewind.qgate import random_state
from reference import BranchOutcome, apply_q, sample_branch


def _unit(rng):
    return random_state(rng)


def test_apply_q_identity_pair():
    psi = np.array([0.6, 0.8j])
    b = apply_q(IDENTITY, IDENTITY, psi)
    assert np.allclose(b.vertical, 0)
    np.testing.assert_allclose(b.horizontal, psi)


def test_apply_q_anticommuting_paulis():
    psi = np.array([1.0, 0.0])
    b = apply_q(SIGMA_X, SIGMA_Z, psi)
    p_vert, p_horiz = b.probabilities()
    assert abs(p_vert - 1.0) < 1e-14
    assert p_horiz < 1e-14
    np.testing.assert_allclose(b.vertical, np.array([0, -1]), atol=1e-15)


def test_apply_q_matches_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v, w = haar_unitary(rng), haar_unitary(rng)
        psi = _unit(rng)
        p_vert, p_horiz = apply_q(v, w, psi).probabilities()
        assert abs(p_vert - branch_prob_invariant(v, w)) < 1e-11
        assert abs(p_vert + p_horiz - 1.0) < 1e-11


def test_vertical_sign_convention():
    rng = np.random.default_rng(1)
    v, w = haar_unitary(rng), haar_unitary(rng)
    psi = _unit(rng)
    b = apply_q(v, w, psi)
    np.testing.assert_array_equal(b.vertical, -commutator(v, w) @ psi / 2.0)


def test_apply_q_linearity():
    rng = np.random.default_rng(2)
    v, w = haar_unitary(rng), haar_unitary(rng)
    psi, phi = _unit(rng), _unit(rng)
    a, b = complex(0.3, -0.4), complex(-1.1, 0.2)
    combined = apply_q(v, w, a * psi + b * phi)
    separate_v = a * apply_q(v, w, psi).vertical + b * apply_q(v, w, phi).vertical
    separate_h = a * apply_q(v, w, psi).horizontal + b * apply_q(v, w, phi).horizontal
    np.testing.assert_allclose(combined.vertical, separate_v, atol=1e-12)
    np.testing.assert_allclose(combined.horizontal, separate_h, atol=1e-12)


def test_sample_branch_degenerate():
    rng = np.random.default_rng(3)
    psi = _unit(rng)
    b = apply_q(IDENTITY, IDENTITY, psi)
    for _ in range(20):
        outcome, state = sample_branch(b, rng)
        assert outcome is BranchOutcome.HORIZONTAL
        assert abs(np.vdot(state, state).real - 1.0) < 1e-12

    b = apply_q(SIGMA_X, SIGMA_Z, psi)
    for _ in range(20):
        outcome, state = sample_branch(b, rng)
        assert outcome is BranchOutcome.VERTICAL


def test_sample_branch_statistics():
    rng = np.random.default_rng(4)
    v, w = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), SIGMA_Z
    psi = _unit(rng)
    branches = apply_q(v, w, psi)  # p_vert = 1/2
    n = 10**5
    vertical = sum(sample_branch(branches, rng)[0] is BranchOutcome.VERTICAL
                   for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(vertical / n - 0.5) < 5 * sigma


def test_sample_branch_rejects_super_unit_total():
    b = apply_q(2.0 * IDENTITY, IDENTITY, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sample_branch(b, np.random.default_rng(0))


def test_sample_branch_abort_for_contractions():
    rng = np.random.default_rng(5)
    b = apply_q(0.5 * IDENTITY, IDENTITY, np.array([1.0, 0.0]))
    outcomes = [sample_branch(b, rng)[0] for _ in range(2000)]
    n_abort = sum(o is BranchOutcome.ABORT for o in outcomes)
    assert all(o in (BranchOutcome.HORIZONTAL, BranchOutcome.ABORT) for o in outcomes)
    sigma = math.sqrt(0.25 * 0.75 / 2000)
    assert abs(n_abort / 2000 - 0.75) < 5 * sigma


def test_sampling_determinism():
    v, w = haar_unitary(np.random.default_rng(6)), haar_unitary(np.random.default_rng(7))
    psi = _unit(np.random.default_rng(8))
    b = apply_q(v, w, psi)
    seq1 = [sample_branch(b, np.random.default_rng(99))[0] for _ in range(50)]
    seq2 = [sample_branch(b, np.random.default_rng(99))[0] for _ in range(50)]
    assert seq1 == seq2
