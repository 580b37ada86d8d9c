"""End-to-end orchestration of the adaptive trimmed rewinding protocol.

run_quantum_protocol drives the target state through switch gates at the
amplitude level while tracking the classical walk node; on first arrival at
the top origin the target evolves freely by W^s, and a later return to the
lower origin heralds success, certified by the fidelity against the
rewound state W^{-s} psi0. It is the scalar reference for the
batched lane kernel behind monte_carlo, which aggregates runs over
deterministic RNG streams derived from one master seed.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import analytics, qgate
from .mat2 import as_mat2, branch_maps, branch_prob_invariant, is_contraction, is_unitary
from .walk import LANES, chunks, sample_return_batch


class RunOutcome(Enum):
    SUCCESS = "success"
    TRIM_FAIL = "trim_fail"
    ABORT = "abort"


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a simulation campaign needs.

    Either (v, w) or p_override must be given; p_override runs the protocol
    at the classical walk level only (no amplitudes, no fidelity).
    """

    v: np.ndarray | None = None
    w: np.ndarray | None = None
    p_override: float | None = None
    s: int = 0
    m: int = 2
    seed: int = 0
    runs: int = 1
    workers: int = 1
    mode: str = "unitary"
    psi0: np.ndarray | None = None

    def validate(self) -> ProtocolConfig:
        if (self.v is None) != (self.w is None):
            raise ValueError("v and w must be supplied together")
        if self.v is None and self.p_override is None:
            raise ValueError("either matrices (v, w) or p_override is required")
        if self.p_override is not None and not 0.0 <= self.p_override <= 1.0:
            raise ValueError("p_override must lie in [0, 1]")
        if self.mode not in ("unitary", "contraction"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 2:
            raise ValueError("gate budget m must be at least 2")
        if self.s < 0:
            raise ValueError("rewind depth s must be nonnegative")
        if self.runs < 1 or self.workers < 1:
            raise ValueError("runs and workers must be positive")
        if self.v is not None:
            v, w = as_mat2(self.v), as_mat2(self.w)
            if self.mode == "unitary":
                if not (is_unitary(v) and is_unitary(w)):
                    raise ValueError("unitary mode requires unitary V and W")
            elif not (is_contraction(v) and is_contraction(w)):
                raise ValueError("contraction mode requires operator norm <= 1")
        if self.psi0 is not None:
            psi = qgate.as_state(self.psi0)
            if abs(math.sqrt(np.vdot(psi, psi).real) - 1.0) > 1e-10:
                raise ValueError("psi0 must be a unit state")
        return self


@dataclass(frozen=True)
class RunRecord:
    """One protocol run. fidelity exists on success."""

    outcome: RunOutcome
    q_count: int
    fidelity: float | None = None


@dataclass(frozen=True)
class _CompiledProtocol:
    """Per-config precomputation shared by every run of a campaign.

    xh and yh are the unscaled branch maps x^ = (WV - VW)/2 and
    y^ = (VW + WV)/2 of mat2.branch_maps, for the scalar reference
    _run_compiled, which measures both branch weights at every gate.
    branches stacks the same maps for the lane kernel, so that
    psi @ branches holds x^ psi and y^ psi side by side. In contraction
    mode they are unscaled and p is None. In unitary mode (the fast path)
    p is mat2.branch_prob_invariant, the vertical weight |x^ psi|^2 of
    every unit state, as curve --matrices and verify read it. x^ is divided
    by sqrt(p) and y^ by sqrt(||y^||_F^2 / 2), its own weight 1 - p, which
    makes both isometries. A map that is exactly zero (p = 0 or p = 1) is
    never drawn and stays unscaled. The entries of x^ and y^ carry an
    absolute error of about 1e-16, so the scaled maps miss an isometry by
    about 1e-16/sqrt(p) and 1e-16/sqrt(1 - p). Nothing renormalises the
    state; the final fidelity against W^{-s} psi0 certifies the run.
    """

    xh: tuple[complex, complex, complex, complex]   # (WV - VW)/2 entries
    yh: tuple[complex, complex, complex, complex]   # (VW + WV)/2 entries
    branches: np.ndarray     # (2, 4): psi @ branches = [x^ psi, y^ psi]
    p: float | None          # unitary vertical weight; None in contraction mode
    w_pow: np.ndarray        # W^s, applied at the rewind wait
    w_inv_pow: np.ndarray    # W^{-s}, defines the reference state
    m: int
    psi0: np.ndarray | None


def _compile(cfg: ProtocolConfig) -> _CompiledProtocol:
    """Precompute the branch maps and W powers of a validated config."""
    if cfg.v is None:
        raise ValueError("run_quantum_protocol needs matrices; p_override "
                         "configs run through monte_carlo")
    v, w = as_mat2(cfg.v), as_mat2(cfg.w)
    if cfg.mode == "unitary":
        w_inv = w.conj().T
    else:
        det = np.linalg.det(w)
        if cfg.s > 0 and abs(det) < 1e-12:
            raise ValueError("W is singular: cannot rewind (s > 0) in "
                             "contraction mode")
        w_inv = np.eye(2, dtype=complex) if cfg.s == 0 else \
            np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]], dtype=complex) / det
    half_comm, half_anti = branch_maps(v, w)
    branches = np.hstack([half_comm.T, half_anti.T])
    p = None
    if cfg.mode == "unitary":
        p = branch_prob_invariant(v, w)
        q = float(np.vdot(half_anti, half_anti).real) / 2.0
        for cols, weight in ((slice(0, 2), p), (slice(2, 4), q)):
            if weight > 0.0:
                branches[:, cols] /= math.sqrt(weight)
    return _CompiledProtocol(
        xh=tuple(complex(z) for z in half_comm.ravel()),
        yh=tuple(complex(z) for z in half_anti.ravel()),
        branches=branches,
        p=p,
        w_pow=np.linalg.matrix_power(w, cfg.s),
        w_inv_pow=np.linalg.matrix_power(w_inv, cfg.s),
        m=cfg.m,
        psi0=None if cfg.psi0 is None else qgate.as_state(cfg.psi0),
    )


def _run_compiled(cp: _CompiledProtocol, rng: np.random.Generator) -> RunRecord:
    psi0 = cp.psi0 if cp.psi0 is not None else qgate.random_state(rng)
    ref = cp.w_inv_pow @ psi0
    ref = ref / math.sqrt(np.vdot(ref, ref).real)
    ref0c, ref1c = complex(ref[0]).conjugate(), complex(ref[1]).conjugate()
    x00, x01, x10, x11 = cp.xh
    y00, y01, y10, y11 = cp.yh
    s0, s1 = complex(psi0[0]), complex(psi0[1])

    row, pos = 0, 0  # 0 = lower row, 1 = upper
    rewound = False
    q_count = 0
    m = cp.m
    random = rng.random
    while q_count < m:
        v0 = x00 * s0 + x01 * s1
        v1 = x10 * s0 + x11 * s1
        h0 = y00 * s0 + y01 * s1
        h1 = y10 * s0 + y11 * s1
        p_vert = (v0.real * v0.real + v0.imag * v0.imag
                  + v1.real * v1.real + v1.imag * v1.imag)
        p_horiz = (h0.real * h0.real + h0.imag * h0.imag
                   + h1.real * h1.real + h1.imag * h1.imag)
        q_count += 1
        u = random()
        if u < p_vert:
            r = math.sqrt(p_vert)
            s0, s1 = v0 / r, v1 / r
            row ^= 1
        elif u < p_vert + p_horiz:
            r = math.sqrt(p_horiz)
            s0, s1 = h0 / r, h1 / r
            pos += 1 - 2 * row
        else:
            return RunRecord(outcome=RunOutcome.ABORT, q_count=q_count)
        if not rewound:
            if row == 1 and pos == 0:
                rewound = True
                w00, w01 = cp.w_pow[0]
                w10, w11 = cp.w_pow[1]
                t0 = complex(w00) * s0 + complex(w01) * s1
                t1 = complex(w10) * s0 + complex(w11) * s1
                nrm = math.sqrt(t0.real * t0.real + t0.imag * t0.imag
                                + t1.real * t1.real + t1.imag * t1.imag)
                if nrm < 1e-300:
                    return RunRecord(outcome=RunOutcome.ABORT, q_count=q_count)
                s0, s1 = t0 / nrm, t1 / nrm
        elif row == 0 and pos == 0:
            overlap = ref0c * s0 + ref1c * s1
            fidelity = overlap.real * overlap.real + overlap.imag * overlap.imag
            return RunRecord(outcome=RunOutcome.SUCCESS, q_count=q_count,
                             fidelity=fidelity)
    return RunRecord(outcome=RunOutcome.TRIM_FAIL, q_count=m)


def run_quantum_protocol(cfg: ProtocolConfig, rng: np.random.Generator,
                         psi0: np.ndarray | None = None) -> RunRecord:
    """One amplitude-level run of the trimmed protocol.

    Follows the branch semantics of qgate.apply_q / qgate.sample_branch
    while tracking the walk node; the 2x2 half-commutator maps are hoisted
    out and the inner loop works on unpacked complex scalars (runs are a
    few microseconds per gate instead of numpy-call-bound). On the run's
    first arrival at the top origin the free evolution W^s is applied; a
    subsequent return to the lower origin is a success, with fidelity
    |<W^{-s} psi0 | psi_final>|^2 recorded. The run fails when the gate
    budget is exhausted (TrimFail) or an abort branch fires (contraction
    mode only). A psi0 given here replaces cfg.psi0 and is validated as
    that field is.
    """
    if psi0 is not None:
        cfg = replace(cfg, psi0=psi0)
    return _run_compiled(_compile(cfg.validate()), rng)


@dataclass
class Statistics:
    """Aggregate of a Monte Carlo campaign."""

    n_runs: int = 0
    n_success: int = 0
    n_trim_fail: int = 0
    n_abort: int = 0
    success_rate: float = 0.0
    min_fidelity: float | None = None
    mean_fidelity: float | None = None
    q_count_hist: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "n_success": self.n_success,
            "n_trim_fail": self.n_trim_fail,
            "n_abort": self.n_abort,
            "success_rate": self.success_rate,
            "min_fidelity": self.min_fidelity,
            "mean_fidelity": self.mean_fidelity,
            "q_count_hist": {str(k): v for k, v in sorted(self.q_count_hist.items())},
        }


# ── Batched lane kernel ──────────────────────────────────────────────────

def _haar_lanes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform unit states as the rows of an (n, 2) complex array."""
    z = rng.standard_normal((n, 4))
    nrm = np.sqrt((z * z).sum(axis=1))
    small = nrm <= 1e-6
    while small.any():  # redrawn as in qgate.random_state
        z[small] = rng.standard_normal((np.count_nonzero(small), 4))
        nrm = np.sqrt((z * z).sum(axis=1))
        small = nrm <= 1e-6
    return (z[:, :2] + 1j * z[:, 2:]) / nrm[:, None]


def _norm2(amps: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (n, 2) complex array."""
    return (amps.real ** 2 + amps.imag ** 2).sum(axis=1)


@dataclass
class _Tally:
    """Outcome counts of finished runs; hist[q] counts runs ending at q."""

    hist: Counter = field(default_factory=Counter)
    n_success: int = 0
    n_trim_fail: int = 0
    n_abort: int = 0
    fid_sum: float = 0.0
    fid_min: float = math.inf


def _run_lanes(rng: np.random.Generator, width: int, cp: _CompiledProtocol,
               tally: _Tally) -> None:
    """Run one block of `width` amplitude-level protocol runs and tally them.

    Each lane holds one run: its rail (row), its signed position h (pos on
    the lower rail, -pos on the upper one, so a horizontal step adds 1 and
    a vertical step negates h), its alive flag and its state as a row of
    psi. Gate t draws one uniform per lane and applies both branch maps in
    one matmul. Finished lanes stay in place, masked out, so every array
    keeps its size. The classical walk without amplitudes is
    walk.sample_return_batch.

    Unitary mode is the fast path: the maps of cp are isometries and the
    vertical weight is the constant cp.p, so the branch draw is u < p and
    neither the branch nor the W^s wait is renormalised. Each vertical step
    moves the norm by about 1e-16/sqrt(p) (see _CompiledProtocol), and the
    final fidelity is the certificate. Contraction mode measures both
    weights per lane, as _run_compiled does: u beyond their sum aborts the
    run, and the chosen branch and the wait are renormalised.

    A lane at the top origin is always there for the first time: after
    that arrival the walk keeps pos <= 0 until it closes at the lower
    origin, so no rewound flag is needed to apply W^s once.
    """
    row = np.zeros(width, dtype=bool)
    h = np.zeros(width, dtype=np.int64)
    alive = np.ones(width, dtype=bool)
    psi = (_haar_lanes(rng, width) if cp.psi0 is None
           else np.repeat(cp.psi0[None, :], width, axis=0))
    ref = psi @ cp.w_inv_pow.T
    ref = (ref / np.sqrt(_norm2(ref))[:, None]).conj()
    unitary = cp.p is not None
    n_alive = width
    for t in range(1, cp.m + 1):
        u = rng.random(width)
        amps = psi @ cp.branches
        if unitary:
            vert, live = u < cp.p, alive
        else:
            p_vert, p_horiz = _norm2(amps[:, :2]), _norm2(amps[:, 2:])
            vert = u < p_vert
            live = alive & (u < p_vert + p_horiz)
        psi = np.where(vert[:, None], amps[:, :2], amps[:, 2:])
        if not unitary:
            norm = np.sqrt(np.where(vert, p_vert, p_horiz))
            np.divide(psi, norm[:, None], out=psi, where=live[:, None])
        row ^= vert
        h += ~vert
        np.negative(h, out=h, where=vert)
        at_origin = live & (h == 0)
        done = at_origin & ~row
        n_done = int(np.count_nonzero(done))
        arrived = at_origin & row
        if arrived.any():  # wait W^s at the top origin
            if unitary:
                psi[arrived] = psi[arrived] @ cp.w_pow.T
            else:
                waited = psi @ cp.w_pow.T
                nrm = np.sqrt(_norm2(waited))
                live &= ~(arrived & (nrm < 1e-300))
                np.divide(waited, nrm[:, None], out=psi,
                          where=(arrived & live)[:, None])
        n_abort = 0 if unitary else int(np.count_nonzero(alive & ~live))
        if n_done:
            overlap = (ref[done] * psi[done]).sum(axis=1)
            fidelity = overlap.real ** 2 + overlap.imag ** 2
            tally.fid_sum += float(fidelity.sum())
            tally.fid_min = min(tally.fid_min, float(fidelity.min()))
        tally.n_success += n_done
        tally.n_abort += n_abort
        if n_done or n_abort:
            tally.hist[t] += n_done + n_abort
        n_alive -= n_done + n_abort
        if not n_alive:
            return
        alive = live & ~done
    tally.n_trim_fail += n_alive
    tally.hist[cp.m] += n_alive


def monte_carlo(cfg: ProtocolConfig) -> Statistics:
    """Aggregate cfg.runs protocol runs over cfg.workers derived RNG streams.

    The streams come from walk.streams: spawned from one master
    SeedSequence and run one after another in this process, so results are
    bit-identical for a fixed (seed, workers) pair regardless of the host
    machine's core count.

    With matrices, each stream's runs go through the lane kernel
    (_run_lanes) in blocks of at most LANES runs (walk.chunks). A block is
    a structure of arrays with one lane per run: rail, signed position and
    alive flag, plus an (lanes, 2) complex state and the conjugated
    reference W^{-s} psi0. The block draws its Haar states and references
    in bulk, then one rng.random(lanes) per gate; the branch choice, the
    W^s wait at the top origin and the success test are masked operations
    over all lanes. Unitary mode takes the kernel's fast path: one
    state-independent branch probability p, drawn as u < p, with isometric
    branch maps and no renormalisation. Its states drift from unit norm by
    about 1e-16/sqrt(p) per vertical step, which shows in the last bits of
    min_fidelity and mean_fidelity (mean_fidelity can exceed 1 by a few
    ulps); the fidelity against W^{-s} psi0 stays the certificate.
    Contraction mode measures the branch weights per state. p_override
    configs are the classical walk, whose runs succeed when they return to
    the lower origin within m steps: walk.sample_return_batch samples
    exactly that.

    The lane width is a module constant, not an option, because the
    kernel's working set sets the campaign's peak memory; walk.LANES gives
    the measured reason. One block per stream would make the amplitude
    working set grow with the stream.
    """
    cfg.validate()
    tally = _Tally()
    if cfg.v is None:
        sample = sample_return_batch(cfg.p_override, cfg.runs, cfg.m, cfg.seed,
                                     cfg.workers)
        tally.hist.update({t: int(c) for t, c in enumerate(sample.counts) if c})
        tally.n_success = cfg.runs - sample.timeouts
        tally.n_trim_fail = sample.timeouts
        if sample.timeouts:
            tally.hist[cfg.m] += sample.timeouts
    else:
        cp = _compile(cfg)
        for rng, n in chunks(cfg.seed, cfg.runs, cfg.workers, LANES):
            _run_lanes(rng, n, cp, tally)
    n_runs = sum(tally.hist.values())
    fidelities = cfg.v is not None and tally.n_success > 0
    return Statistics(
        n_runs=n_runs,
        n_success=tally.n_success,
        n_trim_fail=tally.n_trim_fail,
        n_abort=tally.n_abort,
        success_rate=tally.n_success / n_runs,
        min_fidelity=tally.fid_min if fidelities else None,
        mean_fidelity=tally.fid_sum / tally.n_success if fidelities else None,
        q_count_hist=dict(tally.hist),
    )


def success_curve(p: float, m_max: int = 100) -> analytics.SuccessCurve:
    """Cumulative success probabilities for budgets m = 1..m_max.

    p is the branch probability of the switch gate; for a unitary pair
    (V, W) it is mat2.branch_prob_invariant(V, W).
    """
    if m_max < 1:
        raise ValueError("m_max must be positive")
    fp_cum, ret_cum = analytics.cumulative_profile(float(p), m_max)
    return analytics.SuccessCurve(
        m=list(range(1, m_max + 1)),
        prob_commutator=fp_cum[1:].tolist(),
        prob_full=ret_cum[1:].tolist(),
    )
