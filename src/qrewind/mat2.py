"""Complex 2x2 matrix algebra: commutators, samplers, and word-identity checks.

Everything here is plain numpy on (2, 2) complex arrays, or on stacks
(N, 2, 2) of them. The module provides the algebraic identities the
rewinding protocol rests on (the commutator square, the rewind sandwich
x W^s x, the y^n x y^n reduction and the trace orthogonality tr(x y^n) = 0)
together with quantitative proportionality checks, Haar/Ginibre samplers
for test instances, and the branch maps and branch-probability invariant of
the switch gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Absolute floor below which a matrix norm counts as zero in proportionality
# tests; keeps the both-zero branch well defined.
NORM_FLOOR = 1e-14
DEFAULT_TOL = 1e-9
# Slack of the input checks: unitary, contraction and unit-norm state.
INPUT_TOL = 1e-10
# Most 2x2 words one verify_word_identities call should stack; `verify`
# passes its instances in stacks of stack_rows(s_max, n_max), so its memory
# grows neither with --trials nor with --smax or --nmax.
WORD_CHUNK = 4096


def as_mat2(m) -> np.ndarray:
    """Coerce to a (2, 2) complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(a: np.ndarray):
    """Frobenius norm of a 2x2 matrix, or of each matrix of a (..., 2, 2) stack."""
    a4 = a.reshape(*a.shape[:-2], 4)
    return np.sqrt(np.vecdot(a4, a4).real)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, closed form for 2x2.

    Uses the Gram-matrix eigenvalue in the cancellation-free form
    ((g00 + g11) + sqrt((g00 - g11)^2 + 4 |g01|^2)) / 2.
    """
    g = a.conj().T @ a
    g00, g11 = g[0, 0].real, g[1, 1].real
    disc = math.sqrt((g00 - g11) ** 2 + 4.0 * abs(g[0, 1]) ** 2)
    return math.sqrt(max(0.5 * (g00 + g11 + disc), 0.0))


def is_unitary(a) -> bool:
    a = as_mat2(a)
    return frobenius_norm(a.conj().T @ a - IDENTITY) <= INPUT_TOL


def is_contraction(a) -> bool:
    """Operator norm at most 1 + INPUT_TOL (the abort bound is an operator-norm bound)."""
    return operator_norm(as_mat2(a)) <= 1.0 + INPUT_TOL


def commutator(a, b) -> np.ndarray:
    a, b = as_mat2(a), as_mat2(b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a, b = as_mat2(a), as_mat2(b)
    return a @ b + b @ a


@dataclass(frozen=True)
class ProportionalityReport:
    """Outcome of least-squares proportionality tests A = scalar * B.

    Each field holds one entry per tested pair: numpy scalars for a single
    pair, arrays shaped like the leading axes of a stack otherwise.
    """

    scalar: np.ndarray
    residual: np.ndarray
    both_zero: np.ndarray
    verdict: np.ndarray

    def __getitem__(self, idx) -> ProportionalityReport:
        return ProportionalityReport(self.scalar[idx], self.residual[idx],
                                     self.both_zero[idx], self.verdict[idx])


def _proportional(a: np.ndarray, b: np.ndarray, tol: float) -> ProportionalityReport:
    """check_proportional of a[i] against b[i] for stacks (..., 2, 2)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    lead = a.shape[:-2]
    a4, b4 = a.reshape(*lead, 4), b.reshape(*lead, 4)
    a_norm = np.sqrt(np.vecdot(a4, a4).real)
    bb = np.vecdot(b4, b4)
    b_norm = np.sqrt(bb.real)
    b_zero = b_norm <= NORM_FLOOR
    # zero-B rows divide by 1 and fit 0, so their residual is |A|
    scalar = np.where(b_zero, 0j, np.vecdot(b4, a4) / np.where(b_zero, 1.0, bb))
    diff = a4 - scalar[..., None] * b4
    residual = np.sqrt(np.vecdot(diff, diff).real)
    both_zero = b_zero & (a_norm <= NORM_FLOOR)
    scale = np.maximum(np.maximum(a_norm, b_norm), NORM_FLOOR)
    verdict = np.where(b_zero, both_zero, residual <= tol * scale)
    return ProportionalityReport(scalar, residual, both_zero, verdict)


def check_proportional(a, b, tol: float = DEFAULT_TOL) -> ProportionalityReport:
    """Quantitative test whether A is proportional to B.

    The scalar is the Hilbert-Schmidt least-squares fit <B,A>/<B,B>; the
    verdict holds when the fit residual is below tol * max(|A|, |B|, NORM_FLOOR).
    B = 0 is handled separately: then A must itself vanish (within NORM_FLOOR).
    This is the N = 1 view of the stacked test that verify_word_identities
    runs.
    """
    return _proportional(as_mat2(a)[None], as_mat2(b)[None], tol)[0]


# ── Samplers ─────────────────────────────────────────────────────────────

def ginibre(rng: np.random.Generator) -> np.ndarray:
    """2x2 matrix with iid standard complex Gaussian entries."""
    return (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary.

    Gram-Schmidt on a Ginibre pair, i.e. QR with positive diagonal, which is
    the exact Haar construction at this dimension.
    """
    while True:
        g = ginibre(rng)
        r0 = math.sqrt(np.vdot(g[:, 0], g[:, 0]).real)
        if r0 > 1e-6:  # resample the measure-zero degenerate draw
            break
    q0 = g[:, 0] / r0
    w = g[:, 1] - q0 * np.vdot(q0, g[:, 1])
    q1 = w / math.sqrt(np.vdot(w, w).real)
    return np.column_stack([q0, q1])


def shared_eigenvector_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random pair (V, W) with a common eigenvector, so det([V, W]) = 0.

    Built as simultaneously upper-triangular Ginibre matrices in a random
    basis; the commutator is then strictly triangular, hence nilpotent.
    """
    basis = haar_unitary(rng)
    t1 = np.triu(ginibre(rng))
    t2 = np.triu(ginibre(rng))
    v = basis @ t1 @ basis.conj().T
    w = basis @ t2 @ basis.conj().T
    return v, w


# ── Word-identity verification ───────────────────────────────────────────

@dataclass
class WordIdentityReport:
    """Proportionality reports for one (V, W) instance, or for each of a stack.

    square:   [V,W]^2 proportional to the identity.
    rewind:   [V,W] W^s [V,W] proportional to W^{-s}, s = 1..s_max
              (placeholder entries where W is singular; see w_singular).
    sandwich: {V,W}^n [V,W] {V,W}^n proportional to [V,W], n = 0..n_max.
    trace_residuals: normalised |tr([V,W] {V,W}^n)|, n = 0..n_max.

    For a stack every field gains a leading instance axis; indexing the
    report with i gives instance i's report.
    """

    square: ProportionalityReport
    rewind: ProportionalityReport
    sandwich: ProportionalityReport
    trace_residuals: np.ndarray
    w_singular: np.ndarray
    tol: float = DEFAULT_TOL

    def __getitem__(self, idx) -> WordIdentityReport:
        return WordIdentityReport(self.square[idx], self.rewind[idx], self.sandwich[idx],
                                  self.trace_residuals[idx], self.w_singular[idx], self.tol)

    @property
    def all_passed(self):
        """Every check of the instance held (one flag per instance of a stack)."""
        return (self.square.verdict
                & (self.rewind.verdict.all(axis=-1) | self.w_singular)
                & self.sandwich.verdict.all(axis=-1)
                & (self.trace_residuals <= self.tol).all(axis=-1))


def _unit_scale(a: np.ndarray) -> np.ndarray:
    """Each matrix of the stack over its Frobenius norm; norms below NORM_FLOOR stay."""
    nrm = frobenius_norm(a)
    return a / np.where(nrm <= NORM_FLOOR, 1.0, nrm)[..., None, None]


def _as_stack(m) -> np.ndarray:
    """Coerce a 2x2 matrix or an (N, 2, 2) stack to a finite complex stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or an (N, 2, 2) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a.reshape(-1, 2, 2)


def stack_rows(s_max: int, n_max: int) -> int:
    """Instances per verify_word_identities call that fit in WORD_CHUNK words."""
    return max(1, WORD_CHUNK // (2 + s_max + n_max))


def verify_word_identities(v, w, s_max: int = 8, n_max: int = 6,
                           tol: float = DEFAULT_TOL) -> WordIdentityReport:
    """Check the three word-reduction identities plus trace orthogonality.

    v and w are one pair of 2x2 matrices, or stacks (N, 2, 2) of pairs; a
    single pair is the N = 1 call and gets the report of its one row. Each
    instance forms 2 + s_max + n_max words by numerical products (x^2,
    x W^s x, y^n x y^n) next to their reference words (I, W^{-s}, x), and
    one stacked proportionality test checks them all. Stack at most
    WORD_CHUNK words per call (see stack_rows) to bound memory.

    All checks hold for arbitrary 2x2 inputs (the rewind sandwich needs
    invertible W); a failing verdict therefore signals an implementation
    bug, not a property of the instance. Since proportionality is scale
    invariant, x, y and W are normalised to unit Frobenius norm first:
    the sandwich y^n x y^n equals det(y)^n x, which for skewed spectra is
    exponentially smaller than its operands, and only the normalised form
    keeps the roundoff below the verdict scale. For the same reason W^s and
    W^{-s} are rescaled to unit norm after every factor, which keeps them
    finite at any s_max. Rows with singular W compute their rewind words
    with the identity in place of W, and all_passed ignores them.
    """
    single = np.ndim(v) == 2
    v, w = _as_stack(v), _as_stack(w)
    if v.shape != w.shape:
        raise ValueError(f"V and W stacks differ in shape: {v.shape} vs {w.shape}")
    n, k = len(v), 2 + s_max + n_max
    vw, wv = v @ w, w @ v
    x = _unit_scale(vw - wv)
    y = _unit_scale(vw + wv)
    det = np.linalg.det(w)
    w_singular = np.hypot(det.real, det.imag) <= tol
    w_hat = np.where(w_singular[:, None, None], IDENTITY, _unit_scale(w))

    # the products a[:, i] and their reference words b[:, i], K per instance
    a = np.empty((n, k, 2, 2), dtype=complex)
    b = np.empty_like(a)
    a[:, 0] = x @ x
    b[:, 0] = IDENTITY
    # W^s and W^{-s} side by side, so each step is one product and one rescale
    step = np.stack((w_hat, np.linalg.inv(w_hat)), axis=1)
    pows = np.empty((n, s_max, 2, 2, 2), dtype=complex)
    cur = IDENTITY
    for s in range(s_max):
        cur = _unit_scale(cur @ step)
        pows[:, s] = cur
    xs = x[:, None]
    a[:, 1:1 + s_max] = xs @ pows[:, :, 0] @ xs
    b[:, 1:1 + s_max] = pows[:, :, 1]
    y_pow = np.empty((n, n_max + 1, 2, 2), dtype=complex)
    y_pow[:, 0] = IDENTITY
    for j in range(n_max):
        y_pow[:, j + 1] = y_pow[:, j] @ y
    a[:, 1 + s_max:] = y_pow @ xs @ y_pow
    b[:, 1 + s_max:] = xs
    checks = _proportional(a, b, tol)

    xy = xs @ y_pow
    t = xy[..., 0, 0] + xy[..., 1, 1]
    scale = np.maximum(frobenius_norm(x)[:, None] * frobenius_norm(y_pow), NORM_FLOOR)
    report = WordIdentityReport(
        square=checks[:, 0], rewind=checks[:, 1:1 + s_max],
        sandwich=checks[:, 1 + s_max:], trace_residuals=np.hypot(t.real, t.imag) / scale,
        w_singular=w_singular, tol=tol)
    return report[0] if single else report


# ── Branch probabilities of the switch gate ──────────────────────────────

def branch_maps(v, w) -> tuple[np.ndarray, np.ndarray]:
    """Vertical and horizontal branch maps (x^, y^) = ((WV - VW)/2, (VW + WV)/2)."""
    v, w = as_mat2(v), as_mat2(w)
    vw, wv = v @ w, w @ v
    return (wv - vw) / 2.0, (vw + wv) / 2.0


def branch_prob_invariant(v, w) -> float:
    """State-independent vertical-port probability for unitary V, W.

    p = min(||x^||_F^2 / 2, 1) with x^ from branch_maps. Since x^dag x^ = p I
    for unitary inputs, p equals |[V,W] psi|^2 / 4 for every unit state psi,
    and also opnorm([V,W])^2 / 4: a lower bound eps on the commutator's
    operator norm gives p >= eps^2 / 4 (the analogous Frobenius bound
    carries an extra factor of 2). Its relative error is about 3e-16/sqrt(p)
    and stays below 6e-16/sqrt(p), the bound tests/test_mat2.py checks
    against the exact p of rational Cayley unitaries from p = 1e-23 to
    1 - 2e-6; over 2000 such pairs the worst was 3.9e-16/sqrt(p).
    """
    if not (is_unitary(v) and is_unitary(w)):
        raise ValueError("branch_prob_invariant requires unitary inputs; "
                         "use branch_prob_state for contractions")
    xh, _ = branch_maps(v, w)
    return min(float(np.vdot(xh, xh).real) / 2.0, 1.0)


def branch_prob_state(v, w, psi):
    """Per-state branch probabilities (vertical, horizontal, abort).

    psi is one state or a (K, 2) stack of states; V and W are checked once
    per call. One state gives three floats, a stack three (K,) arrays.
    Valid for contraction V, W: the two branch weights then sum to at most 1
    and the remainder is the abort probability of the post-selected
    realisation. For unitary inputs the abort term vanishes.
    """
    v, w = as_mat2(v), as_mat2(w)
    psi = np.asarray(psi, dtype=complex)
    if (np.abs(np.sqrt(np.vecdot(psi, psi).real) - 1.0) > INPUT_TOL).any():
        raise ValueError("state must be normalised")
    if not (is_contraction(v) and is_contraction(w)):
        raise ValueError("branch probabilities need contraction inputs "
                         "(operator norm <= 1)")
    col = psi[..., None]
    vw, wv = (v @ (w @ col))[..., 0], (w @ (v @ col))[..., 0]
    x_psi, y_psi = vw - wv, vw + wv
    p_vert = np.vecdot(x_psi, x_psi).real / 4.0
    p_horiz = np.vecdot(y_psi, y_psi).real / 4.0
    p_abort = np.maximum(1.0 - p_vert - p_horiz, 0.0)
    if psi.ndim == 1:
        return float(p_vert), float(p_horiz), float(p_abort)
    return p_vert, p_horiz, p_abort
