"""Amplitude-level semantics of the switch gate Q.

Acting on a target state psi with two interfering flight paths, the gate
splits the amplitude into a vertical branch (W V - V W) psi / 2 and a
horizontal branch (V W + W V) psi / 2. Branches are kept unnormalized so
word-level proportionality survives; renormalization happens only when a
branch is actually measured (sample_branch).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mat2 import as_mat2

EVOLVE_STEP_GUARD = 10**6


class BranchOutcome(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    ABORT = "abort"


def as_state(psi) -> np.ndarray:
    """Coerce to a finite complex 2-vector."""
    v = np.asarray(psi, dtype=complex).reshape(2)
    if not np.isfinite(v).all():
        raise ValueError("state amplitudes must be finite")
    return v


def random_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit state (normalized complex Gaussian pair)."""
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm > 1e-6:
            return v / nrm


@dataclass(frozen=True)
class QBranches:
    """Unnormalized output branches of one switch-gate application."""

    vertical: np.ndarray
    horizontal: np.ndarray

    def probabilities(self) -> tuple[float, float]:
        return (np.vdot(self.vertical, self.vertical).real,
                np.vdot(self.horizontal, self.horizontal).real)


def apply_q(v, w, psi) -> QBranches:
    """Exact branch amplitudes: ((WV - VW) psi / 2, (VW + WV) psi / 2).

    The vertical sign follows the balanced beam-splitter convention
    gamma_1 -> (right - up)/sqrt(2), gamma_2 -> (right + up)/sqrt(2); the
    overall sign never affects probabilities or proportionality checks.
    """
    v, w = as_mat2(v), as_mat2(w)
    psi = as_state(psi)
    half_comm = (w @ v - v @ w) / 2.0
    half_anti = (v @ w + w @ v) / 2.0
    return QBranches(vertical=half_comm @ psi, horizontal=half_anti @ psi)


def sample_branch(branches: QBranches, rng: np.random.Generator,
                  tol: float = 1e-9) -> tuple[BranchOutcome, np.ndarray | None]:
    """Measure the motion degree of freedom.

    Vertical with probability |vert|^2, horizontal with |horiz|^2, abort
    otherwise (possible only for contraction inputs). The returned state is
    the chosen branch renormalized to unit norm; abort returns None.
    """
    p_vert, p_horiz = branches.probabilities()
    total = p_vert + p_horiz
    if total > 1.0 + tol:
        raise ValueError(f"branch probabilities sum to {total}; "
                         "inputs are not contractions")
    u = rng.random()
    if u < p_vert:
        return BranchOutcome.VERTICAL, branches.vertical / math.sqrt(p_vert)
    if u < total:
        return BranchOutcome.HORIZONTAL, branches.horizontal / math.sqrt(p_horiz)
    return BranchOutcome.ABORT, None


def evolve_free(w, s: int, psi) -> np.ndarray:
    """Free evolution W^s psi by repeated multiplication."""
    if s < 0 or s > EVOLVE_STEP_GUARD:
        raise ValueError(f"rewind depth must be in [0, {EVOLVE_STEP_GUARD}]")
    w = as_mat2(w)
    out = as_state(psi).copy()
    for _ in range(s):
        out = w @ out
    return out
