"""Target states of the switch gate Q: coercion and Haar-uniform sampling.

The gate acts on a target state psi through its branch maps: the vertical
branch (W V - V W) psi / 2 and the horizontal branch (V W + W V) psi / 2,
which mat2.branch_maps forms. engine._run_compiled (one run at a time) and
engine._run_lanes (a block of runs) apply them; this module supplies the
states they act on.
"""
from __future__ import annotations

import math

import numpy as np

from . import mat2


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
