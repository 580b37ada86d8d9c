"""Amplitude-level semantics of the switch gate Q.

Acting on a target state psi with two interfering flight paths, the gate
splits the amplitude into a vertical branch (W V - V W) psi / 2 and a
horizontal branch (V W + W V) psi / 2; mat2.branch_maps forms both maps,
for this module and for the engine. Branches are kept unnormalized so
word-level proportionality survives; renormalization happens only when a
branch is actually measured (sample_branch). apply_q and sample_branch are
the gate-level reference: engine._run_compiled inlines the same branch choice
from one uniform per gate, and the tests drive both from one generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import mat2
from .mat2 import as_mat2, branch_maps

WEIGHT_SUM_TOL = 1e-9  # slack on the branch weights' sum for contraction inputs


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


def random_state(rng: np.random.Generator | np.ndarray) -> np.ndarray | None:
    """Haar-uniform unit state (normalized complex Gaussian pair).

    A pair of norm <= mat2.DEGENERATE_NORM is redrawn. rng may instead be
    an (..., 4) array of standard normals, each row holding the 4 that one
    call draws (the two real parts, then the two imaginary parts). That
    stacked draw gives the (..., 2) stack of the states those calls would
    return, bit for bit, or None if a row is degenerate, where a call would
    have drawn again. Its memory is linear in the rows; `verify` passes at
    most cli.BRANCH_CHUNK x 8 of them.
    """
    if isinstance(rng, np.ndarray):
        v = rng[..., :2] + 1j * rng[..., 2:]
        nrm = np.sqrt(np.vecdot(v, v).real)
        if (nrm <= mat2.DEGENERATE_NORM).any():
            return None
        return v / nrm[..., None]
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm > mat2.DEGENERATE_NORM:
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
    half_comm, half_anti = branch_maps(as_mat2(v), as_mat2(w))
    psi = as_state(psi)
    return QBranches(vertical=half_comm @ psi, horizontal=half_anti @ psi)


def sample_branch(branches: QBranches,
                  rng: np.random.Generator) -> tuple[BranchOutcome, np.ndarray | None]:
    """Measure the motion degree of freedom.

    Vertical with probability |vert|^2, horizontal with |horiz|^2, abort
    otherwise (possible only for contraction inputs). The returned state is
    the chosen branch renormalized to unit norm; abort returns None.
    """
    p_vert, p_horiz = branches.probabilities()
    total = p_vert + p_horiz
    if total > 1.0 + WEIGHT_SUM_TOL:
        raise ValueError(f"branch probabilities sum to {total}; "
                         "inputs are not contractions")
    u = rng.random()
    if u < p_vert:
        return BranchOutcome.VERTICAL, branches.vertical / math.sqrt(p_vert)
    if u < total:
        return BranchOutcome.HORIZONTAL, branches.horizontal / math.sqrt(p_horiz)
    return BranchOutcome.ABORT, None
