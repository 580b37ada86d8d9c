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
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

from . import analytics, mat2, qgate
from .analytics import as_int
from .mat2 import as_mat2, branch_maps
from .walk import LANES, chunks, halve, sample_return_batch


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
        """This config checked once: v, w and psi0 as complex arrays, the sizes as ints.

        s, m, seed, runs and workers go through analytics.as_int, so numpy
        integers become Python ints, and a non-integral value, or one below
        its field's least value, raises ValueError naming its field.
        """
        if (self.v is None) != (self.w is None):
            raise ValueError("v and w must be supplied together")
        if self.v is None and self.p_override is None:
            raise ValueError("either matrices (v, w) or p_override is required")
        if self.p_override is not None:
            analytics.as_prob(self.p_override)
        if self.mode not in ("unitary", "contraction"):
            raise ValueError(f"unknown mode {self.mode!r}")
        s, m, seed, runs, workers = (
            as_int(getattr(self, name), name, least) for name, least in
            (("s", 0), ("m", 2), ("seed", None), ("runs", 1), ("workers", 1)))
        v = w = psi0 = None
        if self.v is not None:
            v, w = as_mat2(self.v), as_mat2(self.w)
            if self.mode == "unitary":
                if not (mat2._unitary(v) and mat2._unitary(w)):
                    raise ValueError("unitary mode requires unitary V and W")
            elif not (mat2._contraction(v) and mat2._contraction(w)):
                raise ValueError("contraction mode requires operator norm <= 1")
        if self.psi0 is not None:
            psi0 = qgate.as_state(self.psi0)
            if not mat2._unit_state(psi0):
                raise ValueError("psi0 must be a unit state")
        return replace(self, v=v, w=w, psi0=psi0, s=s, m=m, seed=seed, runs=runs,
                       workers=workers)


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
    y^ = (VW + WV)/2 of mat2.branch_maps. In contraction mode p is None. In
    unitary mode (the fast path) p is mat2._vertical_weight of x^: the
    weight |x^ psi|^2 of every unit state, and bit for bit
    mat2.branch_prob_invariant. The scalar reference _run_compiled applies
    these fields as they are and renormalises after every branch; the lane
    kernel applies the real forms that _lane_forms builds from them once
    per campaign. Either way the final fidelity against W^{-s} psi0
    certifies the run.
    """

    xh: tuple[complex, complex, complex, complex]   # (WV - VW)/2 entries
    yh: tuple[complex, complex, complex, complex]   # (VW + WV)/2 entries
    p: float | None          # unitary vertical weight; None in contraction mode
    w_pow: np.ndarray        # W^s, applied at the rewind wait
    w_inv_pow: np.ndarray    # W^{-s}, defines the reference state
    m: int
    psi0: np.ndarray | None


def _compile(cfg: ProtocolConfig) -> _CompiledProtocol:
    """Precompute the branch maps and W powers of a config that validate() returned.

    ValueError naming s when W^s or W^{-s} is not finite: in contraction
    mode a small singular value of W overflows W^{-s} at large s.
    """
    if cfg.v is None:
        raise ValueError("run_quantum_protocol needs matrices; p_override "
                         "configs run through monte_carlo")
    v, w = cfg.v, cfg.w
    if cfg.mode == "unitary":
        w_inv = w.conj().T
    else:
        det = np.linalg.det(w)
        if cfg.s > 0 and abs(det) < 1e-12:
            raise ValueError("W is singular: cannot rewind (s > 0) in "
                             "contraction mode")
        w_inv = np.eye(2, dtype=complex) if cfg.s == 0 else \
            np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]], dtype=complex) / det
    with np.errstate(over="ignore", invalid="ignore"):
        w_pow, w_inv_pow = (np.linalg.matrix_power(z, cfg.s) for z in (w, w_inv))
    if not (np.isfinite(w_pow).all() and np.isfinite(w_inv_pow).all()):
        raise ValueError(f"W^s or W^-s overflows at s = {cfg.s}: cannot rewind")
    half_comm, half_anti = branch_maps(v, w)
    return _CompiledProtocol(
        xh=tuple(complex(z) for z in half_comm.ravel()),
        yh=tuple(complex(z) for z in half_anti.ravel()),
        p=float(mat2._vertical_weight(half_comm)) if cfg.mode == "unitary" else None,
        w_pow=w_pow,
        w_inv_pow=w_inv_pow,
        m=cfg.m,
        psi0=cfg.psi0,
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

    Each gate applies the branch maps x^ psi and y^ psi of
    mat2.branch_maps, draws one uniform u, takes the vertical branch when
    u < |x^ psi|^2, the horizontal one when u < |x^ psi|^2 + |y^ psi|^2,
    aborts otherwise, and renormalises the branch it takes, while tracking
    the walk node. The maps are hoisted out and the inner loop works on
    unpacked complex scalars (runs are a few microseconds per gate instead
    of numpy-call-bound). On the run's first arrival at the top origin the
    free evolution W^s is applied; a subsequent return to the lower origin
    is a success, with fidelity |<W^{-s} psi0 | psi_final>|^2 recorded. The
    run fails when the gate budget is exhausted (TrimFail) or an abort
    branch fires (contraction mode only). A psi0 given here replaces
    cfg.psi0 and is validated as that field is.
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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        # interned keys: the dicts kept from many campaigns share one string per bin
        out["q_count_hist"] = {sys.intern(str(k)): v
                               for k, v in sorted(self.q_count_hist.items())}
        return out


# ── Batched lane kernel ──────────────────────────────────────────────────

def _haar_lanes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform unit states as the real-form columns of a (4, n) array."""
    z = rng.standard_normal((n, 4))
    nrm = np.sqrt((z * z).sum(axis=1))
    small = nrm <= mat2.DEGENERATE_NORM
    while small.any():  # redrawn as in qgate.random_state
        z[small] = rng.standard_normal((np.count_nonzero(small), 4))
        nrm = np.sqrt((z * z).sum(axis=1))
        small = nrm <= mat2.DEGENERATE_NORM
    # The law is random_state's, not the bits: the division rounds as its
    # v / nrm does, but its norm sums the squares in another order, so a
    # lane can differ from a per-call draw in the last bits (2438 of 20000
    # lanes from seed 5, by up to 3.3e-16).
    return (z * (1.0 / nrm)[:, None]).T


def _lane_forms(cp: _CompiledProtocol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(branches, w_pow, refs): the real forms of cp's maps that _run_lanes applies.

    The lane kernel holds each state as the real column [Re psi; Im psi], on
    which a map A + iB acts as [[A, -B], [B, A]]. branches (8, 4) stacks the
    real forms of x^ and y^, so branches @ psi = [x^ psi; y^ psi]; w_pow
    (4, 4) is that of W^s; refs (8, 4) are those of W^{-s} and i W^{-s},
    which map psi0 to the reference columns. In unitary mode x^ and y^ are
    divided by the square roots of their weights cp.p and
    ||y^||_F^2 / 2 = 1 - p. That makes both isometries, up to about
    1e-16/sqrt(p) and 1e-16/sqrt(1 - p) from the roundoff in their entries,
    so the lane kernel does not renormalise in that mode. A map that is
    exactly zero (p = 0 or p = 1) is never drawn and stays unscaled.
    monte_carlo builds these forms once per campaign.
    """
    maps = np.stack([np.reshape(cp.xh, (2, 2)), np.reshape(cp.yh, (2, 2)), cp.w_pow,
                     cp.w_inv_pow, 1j * cp.w_inv_pow])
    if cp.p is not None:
        q = float(np.vdot(maps[1], maps[1]).real) / 2.0
        for k, weight in enumerate((cp.p, q)):
            if weight > 0.0:
                maps[k] /= math.sqrt(weight)
    re, im = maps.real, maps.imag  # real forms, stacked as (20, 4) rows
    real = np.concatenate([np.concatenate([re, im], axis=1),
                           np.concatenate([-im, re], axis=1)], axis=2).reshape(-1, 4)
    return real[:8], real[8:12], real[12:]


def _norm2(amps: np.ndarray) -> np.ndarray:
    """Squared norm of each column: |psi|^2 of real-form states, |z|^2 of [Re z; Im z]."""
    return (amps * amps).sum(axis=0)


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
               forms: tuple[np.ndarray, np.ndarray, np.ndarray], tally: _Tally) -> None:
    """Run one block of `width` amplitude-level protocol runs and tally them.

    Each lane holds one run: its signed position h, as walk._ladder_mc
    holds it (walk.LANES gives the encoding and the parity rule), in int64,
    which steps faster here than int32; its alive flag; its real-form state
    psi; and ref, whose dot products with psi are Re and Im
    <W^{-s} psi0 | psi>. forms are cp's real forms from _lane_forms. Gate t
    applies both branch maps in one real matmul. A lane with h = 0 has
    arrived at the top origin after an odd gate and returned to the lower
    one after an even gate. The block sheds finished runs by walk.halve
    after any gate, the halving rule that walk._ladder_mc shares; dead
    lanes among those it keeps stay masked. Each gate draws one uniform per
    lane the block holds, so the draws after a halving depend on it (the
    sample's law does not).

    Unitary mode is the fast path: the branch maps are isometries, the
    branch draw is u < cp.p and nothing is renormalised, so no run ends at
    an odd gate and those gates skip the tally. Contraction mode measures
    both weights per lane, as _run_compiled does: u beyond their sum aborts
    the run at any gate, and the chosen branch and the wait are
    renormalised, dividing live lanes only (the others by 1.0).

    A lane at the top origin is always there for the first time: after
    that arrival the walk keeps pos <= 0 until it closes at the lower
    origin, so no rewound flag is needed to apply W^s once.
    """
    psi = (_haar_lanes(rng, width) if cp.psi0 is None else
           np.repeat(np.concatenate([cp.psi0.real, cp.psi0.imag])[:, None], width, axis=1))
    branches, w_pow, refs = forms
    ref = (refs @ psi).reshape(2, 4, width)
    ref /= np.sqrt(_norm2(ref[0]))
    h = np.zeros(width, dtype=np.int64)
    alive = np.ones(width, dtype=bool)
    unitary = cp.p is not None
    n_alive = width
    for t in range(1, cp.m + 1):
        u = rng.random(h.size)
        amps = branches @ psi
        if unitary:
            vert, live = u < cp.p, alive
            psi = np.where(vert, amps[:4], amps[4:])
        else:
            p_vert, p_horiz = _norm2(amps[:4]), _norm2(amps[4:])
            vert, live = u < p_vert, alive & (u < p_vert + p_horiz)
            psi = np.where(vert, amps[:4], amps[4:])
            psi /= np.sqrt(np.where(live, np.where(vert, p_vert, p_horiz), 1.0))
        h = np.where(vert, -h, h + 1)
        if t & 1:  # arrivals only
            arrived = live & (h == 0)
            if arrived.any():  # wait W^s at the top origin
                waited = w_pow @ psi
                if not unitary:
                    nrm = np.sqrt(_norm2(waited))
                    live &= ~(arrived & (nrm < 1e-300))
                    arrived &= live
                    waited /= np.where(arrived, nrm, 1.0)
                psi = np.where(arrived, waited, psi)
            if unitary:  # no run ends
                continue
            alive, n_done = live, 0
        else:  # completions only
            done = live & (h == 0)
            n_done = int(np.count_nonzero(done))
            if n_done:
                fidelity = _norm2((ref.compress(done, axis=2)
                                   * psi.compress(done, axis=1)).sum(axis=1))
                tally.fid_sum += float(fidelity.sum())
                tally.fid_min = min(tally.fid_min, float(fidelity.min()))
            alive = live & ~done
        n_end = n_alive - int(np.count_nonzero(alive))  # successes and aborts
        tally.n_success += n_done
        tally.n_abort += n_end - n_done
        if n_end:
            tally.hist[t] += n_end
        n_alive -= n_end
        if not n_alive:
            return
        keep = halve(alive, n_alive)
        if keep is not None:
            h, alive = h.take(keep), alive.take(keep)
            psi, ref = psi.take(keep, axis=1), ref.take(keep, axis=2)
    tally.n_trim_fail += n_alive
    tally.hist[cp.m] += n_alive


def monte_carlo(cfg: ProtocolConfig) -> Statistics:
    """Aggregate cfg.runs protocol runs over cfg.workers derived RNG streams.

    The streams come from walk.streams and run one after another in this
    process, so results are bit-identical for a fixed (seed, workers) pair
    on any host, whatever its core count.

    With matrices, each stream's runs go through the lane kernel
    (_run_lanes) in blocks of at most LANES runs (walk.chunks), which shed
    finished runs by halving and draw one uniform per lane they hold at
    each gate. Unitary mode's states drift from unit norm by about
    1e-16/sqrt(p) per vertical step, which shows in the last bits of
    min_fidelity and mean_fidelity (mean_fidelity can exceed 1 by a few
    ulps); the fidelity against W^{-s} psi0 stays the certificate. p_override configs are the classical walk, whose runs
    succeed when they return to the lower origin within m steps:
    walk.sample_return_batch samples exactly that, drawing a tile of steps
    at a time once a stream holds fewer than LANES live runs.

    The lane width and the tile are module constants, not options: they fix
    the RNG order, and the kernels' working sets set the campaign's peak
    memory (walk.LANES and walk.TILE give the measured reasons).
    """
    cfg = cfg.validate()
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
        forms = _lane_forms(cp)
        for rng, n in chunks(cfg.seed, cfg.runs, cfg.workers, LANES):
            _run_lanes(rng, n, cp, forms, tally)
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
    m_max = as_int(m_max, "m_max", 1)
    fp_cum, ret_cum = analytics.cumulative_profile(float(p), m_max)
    return analytics.SuccessCurve(
        m=list(range(1, m_max + 1)),
        prob_commutator=fp_cum[1:].tolist(),
        prob_full=ret_cum[1:].tolist(),
    )
