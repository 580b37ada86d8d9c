import math
from fractions import Fraction

import numpy as np
import pytest

from qrewind import mat2
from qrewind.mat2 import (HADAMARD, IDENTITY, SIGMA_X, SIGMA_Z, branch_prob_invariant,
                          branch_prob_state, check_proportional, commutator, frobenius_norm,
                          ginibre, haar_unitary, is_contraction, is_unitary,
                          operator_norm,
                          shared_eigenvector_pair, verify_word_identities)
from qrewind.qgate import random_state


def test_commutator_basics():
    a = ginibre(np.random.default_rng(0))
    assert np.allclose(commutator(a, a), 0)
    assert np.allclose(commutator(IDENTITY, a), 0)
    np.testing.assert_allclose(commutator(SIGMA_X, SIGMA_Z),
                               np.array([[0, -2], [2, 0]], dtype=complex))


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        commutator(np.array([[np.nan, 0], [0, 0]]), IDENTITY)
    with pytest.raises(ValueError):
        commutator(np.eye(3), np.eye(3))


def test_check_proportional_trivial_cases():
    rep = check_proportional(2 * IDENTITY, IDENTITY)
    assert rep.verdict and abs(rep.scalar - 2) < 1e-14 and rep.residual < 1e-14

    rep = check_proportional(SIGMA_X, SIGMA_Z)
    assert not rep.verdict and not rep.both_zero

    rep = check_proportional(np.zeros((2, 2)), np.zeros((2, 2)))
    assert rep.verdict and rep.both_zero

    rep = check_proportional(SIGMA_X, np.zeros((2, 2)))
    assert not rep.verdict

    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            check_proportional(SIGMA_X, SIGMA_X, tol)


def test_commutator_square_scalar_is_minus_det():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = commutator(haar_unitary(rng), haar_unitary(rng))
        rep = check_proportional(x @ x, IDENTITY)
        assert rep.verdict
        assert abs(rep.scalar - (-np.linalg.det(x))) < 1e-10


def test_haar_unitary_is_unitary_and_deterministic():
    rng = np.random.default_rng(42)
    u1 = haar_unitary(rng)
    u2 = haar_unitary(np.random.default_rng(42))
    np.testing.assert_array_equal(u1, u2)
    for seed in range(50):
        u = haar_unitary(np.random.default_rng(seed))
        assert frobenius_norm(u.conj().T @ u - IDENTITY) < 1e-12


def test_haar_moment():
    # |U_00|^2 is uniform on [0, 1] at dimension 2: mean 1/2, variance 1/12
    rng = np.random.default_rng(123)
    n = 10**4
    vals = [abs(haar_unitary(rng)[0, 0]) ** 2 for _ in range(n)]
    sigma = math.sqrt(1.0 / 12.0 / n)
    assert abs(np.mean(vals) - 0.5) < 5 * sigma


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = ginibre(rng)
        assert abs(operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-12
    assert abs(operator_norm(haar_unitary(rng)) - 1.0) < 1e-14


def test_predicates():
    rng = np.random.default_rng(6)
    u = haar_unitary(rng)
    assert is_unitary(u) and is_contraction(u)
    assert is_contraction(0.5 * u)
    assert not is_unitary(0.5 * u)
    assert not is_contraction(1.5 * u)


def test_word_identities_pauli_example():
    rep = verify_word_identities(SIGMA_X, SIGMA_Z, s_max=1, n_max=1)
    assert rep.all_passed and not rep.w_singular
    # x W x = 4 sigma_z, proportional to W^{-1} = sigma_z
    x = commutator(SIGMA_X, SIGMA_Z)
    direct = check_proportional(x @ SIGMA_Z @ x, SIGMA_Z)
    assert direct.verdict and abs(direct.scalar - 4.0) < 1e-12


def test_word_identities_commuting_pair_is_both_zero():
    v = ginibre(np.random.default_rng(10))
    rep = verify_word_identities(v, v)
    assert rep.all_passed
    # x = 0: the square check fits scalar 0 against the identity, the
    # sandwich compares zero against zero
    assert rep.square.verdict and rep.square.scalar == 0
    assert all(r.both_zero for r in rep.sandwich)


@pytest.mark.parametrize("family", ["haar", "ginibre", "shared"])
def test_word_identities_random_instances(family):
    rng = np.random.default_rng(hash(family) % 2**32)
    for _ in range(300):
        if family == "haar":
            v, w = haar_unitary(rng), haar_unitary(rng)
        elif family == "ginibre":
            v, w = ginibre(rng), ginibre(rng)
        else:
            v, w = shared_eigenvector_pair(rng)
        rep = verify_word_identities(v, w)
        assert rep.all_passed, (family, rep)


def _family_stack(family, rng, n):
    if family == "haar":
        pairs = [(haar_unitary(rng), haar_unitary(rng)) for _ in range(n)]
    elif family == "ginibre":
        pairs = [(ginibre(rng), ginibre(rng)) for _ in range(n)]
    elif family == "shared":
        pairs = [shared_eigenvector_pair(rng) for _ in range(n)]
    else:  # singular W (zero and rank 1), commuting (x = 0), anticommuting (y = 0)
        v = ginibre(rng)
        pairs = [(ginibre(rng), ginibre(rng)), (v, np.zeros((2, 2))),
                 (ginibre(rng), np.outer([1, 2j], [3, -1])), (v, v),
                 (SIGMA_X, SIGMA_Z), (haar_unitary(rng), haar_unitary(rng))]
    return pairs


@pytest.mark.parametrize("s_max,n_max", [(8, 6), (0, 6), (8, 0), (0, 0), (3, 2)])
@pytest.mark.parametrize("family", ["haar", "ginibre", "shared", "mixed"])
def test_word_identity_stack_equals_single_calls(family, s_max, n_max):
    pairs = _family_stack(family, np.random.default_rng(21), 40)
    v = np.array([a for a, _ in pairs])
    w = np.array([b for _, b in pairs], dtype=complex)
    stack = verify_word_identities(v, w, s_max=s_max, n_max=n_max)
    assert stack.all_passed.shape == (len(pairs),) and stack.all_passed.all()
    assert stack.rewind.verdict.shape == (len(pairs), s_max)
    assert stack.trace_residuals.shape == (len(pairs), n_max + 1)
    for i, (a, b) in enumerate(pairs):
        single = verify_word_identities(a, b, s_max=s_max, n_max=n_max)
        row = stack[i]
        assert single.w_singular == row.w_singular
        assert single.all_passed == row.all_passed
        np.testing.assert_array_equal(single.trace_residuals, row.trace_residuals)
        for part in ("square", "rewind", "sandwich"):
            for name in ("scalar", "residual", "both_zero", "verdict"):
                np.testing.assert_array_equal(getattr(getattr(single, part), name),
                                              getattr(getattr(row, part), name))
    if family == "mixed":
        assert stack.w_singular.tolist() == [False, True, True, False, False, False]
        assert stack.sandwich.both_zero[3].all()


def test_check_proportional_is_a_stack_row():
    rng = np.random.default_rng(22)
    a = np.array([ginibre(rng) for _ in range(5)] + [np.zeros((2, 2))])
    b = np.array([2j * a[0], ginibre(rng), np.zeros((2, 2)), IDENTITY, a[4], a[5]])
    stacked = mat2._proportional(a, b, mat2.DEFAULT_TOL)
    assert stacked.verdict.tolist() == [True, False, False, False, True, True]
    for i in range(len(a)):
        rep = check_proportional(a[i], b[i])
        for name in ("scalar", "residual", "both_zero", "verdict"):
            assert getattr(rep, name) == getattr(stacked, name)[i]


@pytest.mark.parametrize("family", ["ginibre", "shared"])
def test_word_identities_large_smax(family):
    # W^s and W^{-s} are rescaled every step, so s_max far past the
    # overflow of the raw powers (about s = 94) stays finite and passes
    rng = np.random.default_rng(23)
    for v, w in _family_stack(family, rng, 40):
        assert verify_word_identities(v, w, s_max=200, n_max=2).all_passed


def test_word_identities_rejects_bad_stacks():
    with pytest.raises(ValueError):
        verify_word_identities(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        verify_word_identities(np.zeros((3, 2, 3)), np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        verify_word_identities(np.full((1, 2, 2), np.inf), np.zeros((1, 2, 2)))


def test_shared_eigenvector_pair_has_singular_commutator():
    rng = np.random.default_rng(11)
    for _ in range(100):
        v, w = shared_eigenvector_pair(rng)
        assert abs(np.linalg.det(commutator(v, w))) < 1e-12


def test_trace_orthogonality():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v, w = ginibre(rng), ginibre(rng)
        rep = verify_word_identities(v, w, n_max=6)
        assert max(rep.trace_residuals) < 1e-10


def test_branch_prob_invariant_values():
    assert abs(branch_prob_invariant(SIGMA_X, SIGMA_Z) - 1.0) < 1e-14
    assert abs(branch_prob_invariant(HADAMARD, SIGMA_Z) - 0.5) < 1e-14
    u = haar_unitary(np.random.default_rng(13))
    assert branch_prob_invariant(u, u) < 1e-14
    with pytest.raises(ValueError):
        branch_prob_invariant(0.5 * IDENTITY, SIGMA_Z)


# Exact 2x2 unitaries for the accuracy envelope: a Gaussian rational is a
# (re, im) pair of Fractions and a matrix a 2x2 nested list of them.

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b, s=1):
    return (a[0] + s * b[0], a[1] + s * b[1])


def _mmul(a, b):
    return [[_gadd(_gmul(a[i][0], b[0][j]), _gmul(a[i][1], b[1][j])) for j in range(2)]
            for i in range(2)]


def _mlin(a, b, s):
    """a + s b for a rational s."""
    return [[_gadd(a[i][j], b[i][j], s) for j in range(2)] for i in range(2)]


_ZERO = [[(Fraction(0), Fraction(0))] * 2] * 2
_EYE = [[(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))],
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]]


def _skew(a, b, c, d):
    """The skew-Hermitian [[i a, b + i c], [-b + i c, i d]]."""
    return [[(Fraction(0), a), (b, c)], [(-b, c), (Fraction(0), d)]]


def _cayley(k):
    """The unitary (I - K)(I + K)^-1 of a skew-Hermitian K, exactly."""
    (a, b), (c, d) = _mlin(_EYE, k, 1)
    det = _gadd(_gmul(a, d), _gmul(b, c), -1)
    n = det[0] ** 2 + det[1] ** 2
    r = (det[0] / n, -det[1] / n)  # 1 / det
    minus_r = (-r[0], -r[1])
    inv = [[_gmul(d, r), _gmul(b, minus_r)], [_gmul(c, minus_r), _gmul(a, r)]]
    return _mmul(_mlin(_EYE, k, -1), inv)


def _exact_branch_prob(v, w):
    """p = ||(WV - VW)/2||_F^2 / 2 as a Fraction."""
    x = _mlin(_mmul(w, v), _mmul(v, w), -1)
    return sum(re * re + im * im for row in x for re, im in row) / 8


def test_branch_prob_invariant_accuracy_envelope():
    # the docstring's bound: relative error below 6e-16/sqrt(p)
    rng = np.random.default_rng(15)

    def random_skew():
        return _skew(*(Fraction(int(n), 1000) for n in rng.integers(-3000, 3000, 4)))

    pairs = []
    for delta in (Fraction(1, 10**9), Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1)):
        for _ in range(20):  # W near a function of V: p down to about delta^2
            k = random_skew()
            scale = Fraction(int(rng.integers(1, 9)), 3)
            pairs.append((k, _mlin(_mlin(_ZERO, k, scale), random_skew(), delta)))
    kx, kz = _skew(0, 0, 1, 0), _skew(1, 0, 0, -1)  # Cayley gives -iX and -iZ
    assert _exact_branch_prob(_cayley(kx), _cayley(kz)) == 1
    for delta in (Fraction(1, 10**3), Fraction(1, 10**2)):
        for _ in range(20):
            pairs.append((_mlin(kx, random_skew(), delta), _mlin(kz, random_skew(), delta)))
    probs = []
    for kv, kw in pairs:
        v, w = _cayley(kv), _cayley(kw)
        exact = _exact_branch_prob(v, w)
        v_float, w_float = (np.array([[complex(re, im) for re, im in row] for row in u])
                            for u in (v, w))
        got = branch_prob_invariant(v_float, w_float)
        rel = float(abs(Fraction(got) - exact) / exact)
        assert rel * math.sqrt(exact) < 6e-16, (float(exact), rel)
        probs.append(exact)
    assert min(probs) < 1e-18 and max(probs) > 1 - 1e-5


def test_branch_prob_state_independence():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v, w = haar_unitary(rng), haar_unitary(rng)
        p_ref = branch_prob_invariant(v, w)
        states = []
        for _ in range(100):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            states.append(psi / math.sqrt(np.vdot(psi, psi).real))
        singles = [branch_prob_state(v, w, psi) for psi in states]
        probs = [p_vert for p_vert, _, _ in singles]
        assert all(p_abort < 1e-11 for _, _, p_abort in singles)
        assert max(probs) - min(probs) < 1e-11
        assert abs(probs[0] - p_ref) < 1e-11
        # one call on the stack gives the single calls' bits
        stacked = branch_prob_state(v, w, np.array(states))
        assert all(col.shape == (100,) for col in stacked)
        assert np.array_equal(np.array(stacked).T, np.array(singles))


def test_branch_prob_state_examples():
    psi = np.array([1.0, 0.0])
    p_vert, p_horiz, p_abort = branch_prob_state(SIGMA_X, SIGMA_Z, psi)
    assert (p_vert, p_horiz, p_abort) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    p_vert, p_horiz, p_abort = branch_prob_state(0.5 * IDENTITY, IDENTITY, psi)
    assert (p_vert, p_horiz, p_abort) == pytest.approx((0.0, 0.25, 0.75), abs=1e-12)

    with pytest.raises(ValueError):
        branch_prob_state(2.0 * IDENTITY, IDENTITY, psi)
    with pytest.raises(ValueError):
        branch_prob_state(SIGMA_X, SIGMA_Z, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        branch_prob_state(SIGMA_X, SIGMA_Z, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    stacked = branch_prob_state(0.5 * IDENTITY, IDENTITY, np.array([psi, psi[::-1]]))
    assert np.allclose(stacked, [[0.0, 0.0], [0.25, 0.25], [0.75, 0.75]], atol=1e-12)


def _stacked_pairs(rng, n):
    """n Haar pairs, then the same pairs scaled by 0.9 into strict contractions."""
    v = np.array([haar_unitary(rng) for _ in range(n)])
    w = np.array([haar_unitary(rng) for _ in range(n)])
    return (v, w), (0.9 * v, 0.9 * w)


def test_branch_prob_stack_equals_single_calls():
    rng = np.random.default_rng(41)
    (v, w), (cv, cw) = _stacked_pairs(rng, 300)
    states = rng.standard_normal((300, 5, 2)) + 1j * rng.standard_normal((300, 5, 2))
    states /= np.sqrt(np.vecdot(states, states).real)[..., None]
    p = branch_prob_invariant(v, w)
    assert p.shape == (300,)
    assert (p == [branch_prob_invariant(a, b) for a, b in zip(v, w)]).all()
    for pair in ((v, w), (cv, cw)):
        stacked = branch_prob_state(*pair, states)
        assert all(col.shape == (300, 5) for col in stacked)
        singles = [branch_prob_state(a, b, s) for a, b, s in zip(*pair, states)]
        assert (np.array(stacked) == np.array(singles).transpose(1, 0, 2)).all()


def test_branch_prob_stack_rejects_a_bad_row():
    rng = np.random.default_rng(42)
    (v, w), (cv, cw) = _stacked_pairs(rng, 20)
    states = np.tile([1.0, 0.0], (20, 3, 1))
    for bad, single_bad in ((0.5, 0.5 * v[7]), (2.0, 2.0 * v[7])):
        v_bad = v.copy()
        v_bad[7] *= bad
        with pytest.raises(ValueError) as single:
            branch_prob_invariant(single_bad, w[7])
        with pytest.raises(ValueError) as stacked:
            branch_prob_invariant(v_bad, w)
        assert str(stacked.value) == str(single.value)
    cw_bad = cw.copy()
    cw_bad[3] /= 0.8  # operator norm 1.125
    with pytest.raises(ValueError) as single:
        branch_prob_state(cv[3], cw_bad[3], states[3])
    with pytest.raises(ValueError) as stacked:
        branch_prob_state(cv, cw_bad, states)
    assert str(stacked.value) == str(single.value)
    states_bad = states.copy()
    states_bad[5, 1] = [1.0, 1.0]
    with pytest.raises(ValueError, match="normalised"):
        branch_prob_state(cv, cw, states_bad)
    states_bad[5, 1] = [np.nan, 0.0]  # a NaN norm is not within INPUT_TOL of 1 either
    with pytest.raises(ValueError, match="normalised"):
        branch_prob_state(cv, cw, states_bad)
    with pytest.raises(ValueError, match="must form an"):
        branch_prob_state(cv, cw, states[:, 0])
    with pytest.raises(ValueError, match="differ in shape"):
        branch_prob_invariant(v, w[:-1])


def test_stacked_draws_equal_per_call_draws():
    # one call's 8 + 3 x 4 normals per row, as verify lays out its chunks
    n = 400
    rng = np.random.default_rng(43)
    singles = [(haar_unitary(rng), [random_state(rng) for _ in range(3)]) for _ in range(n)]
    z = np.random.default_rng(43).standard_normal((n, 20))
    assert (haar_unitary(z[:, :8]) == np.array([u for u, _ in singles])).all()
    assert (random_state(z[:, 8:].reshape(n, 3, 4)) == np.array([s for _, s in singles])).all()


def test_stacked_draws_flag_degenerate_rows(monkeypatch):
    z = np.random.default_rng(44).standard_normal((50, 8))
    z[17, [0, 2, 4, 6]] = 1e-7  # the first column of row 17's Ginibre matrix
    assert haar_unitary(z) is None
    assert random_state(z[:, :4]) is not None
    z[23, 4:] = 1e-7  # row 23's second state pair
    assert random_state(z.reshape(50, 2, 4)) is None
    # the floor is read at call time: rows of norm 2 fall under a floor of 2
    assert random_state(np.ones((3, 4))) is not None
    monkeypatch.setattr(mat2, "DEGENERATE_NORM", 2.0)
    assert random_state(np.ones((3, 4))) is None
