"""Reference code that only the tests call.

The gate-level switch gate (apply_q, sample_branch) is the plain reading of
the paper's gate that the engine's kernels are checked against;
check_proportional is the single-pair view of the stacked proportionality
test behind mat2.verify_word_identities; backing names the arithmetic a
HittingDist was computed in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from qrewind import mat2
from qrewind.mat2 import as_mat2, branch_maps
from qrewind.qgate import as_state

WEIGHT_SUM_TOL = 1e-9  # slack on the branch weights' sum for contraction inputs


class BranchOutcome(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    ABORT = "abort"


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
    Branches are kept unnormalized so word-level proportionality survives.
    """
    half_comm, half_anti = branch_maps(as_mat2(v), as_mat2(w))
    psi = as_state(psi)
    return QBranches(vertical=half_comm @ psi, horizontal=half_anti @ psi)


def sample_branch(branches: QBranches,
                  rng: np.random.Generator) -> tuple[BranchOutcome, np.ndarray | None]:
    """Measure the motion degree of freedom.

    Vertical with probability |vert|^2, horizontal with |horiz|^2, abort
    otherwise (possible only for contraction inputs). The returned state is
    the chosen branch renormalized to unit norm; abort returns None. One
    uniform per call, compared as engine._run_compiled compares it, so the
    two follow the same run from one generator.
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


def check_proportional(a, b, tol: float = mat2.DEFAULT_TOL) -> mat2.ProportionalityReport:
    """Quantitative test whether A is proportional to B: the N = 1 row of mat2._proportional."""
    return mat2._proportional(as_mat2(a)[None], as_mat2(b)[None], tol)[0]


def backing(dist) -> str:
    """"rational" when every entry of a HittingDist is a Fraction, else "float"."""
    rational = dist.probs and all(isinstance(v, Fraction) for v in dist.probs)
    return "rational" if rational else "float"
