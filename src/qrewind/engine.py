"""End-to-end orchestration of the adaptive trimmed rewinding protocol.

run_quantum_protocol drives the target state through switch gates at the
amplitude level while tracking the classical walk node; on first arrival at
the top origin the target evolves freely for s time units, and a later
return to the lower origin heralds success, certified by the fidelity
against the rewound state W^{-s} psi0. It is the scalar reference for the
batched lane kernel behind monte_carlo, which aggregates runs over
deterministic RNG streams derived from one master seed.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import analytics, qgate
from .mat2 import as_mat2, branch_prob_invariant, is_contraction, is_unitary


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
    dt: float = 1.0
    tau: float = 1.0
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
        if self.dt <= 0 or self.tau <= 0:
            raise ValueError("timing constants must be positive")
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
    """One protocol run. fidelity and elapsed_model_time exist on success."""

    outcome: RunOutcome
    q_count: int
    fidelity: float | None = None
    elapsed_model_time: float | None = None


@dataclass(frozen=True)
class _CompiledProtocol:
    """Per-config precomputation shared by every run of a campaign."""

    xh: tuple[complex, complex, complex, complex]   # (WV - VW)/2 entries
    yh: tuple[complex, complex, complex, complex]   # (VW + WV)/2 entries
    w_pow: np.ndarray        # W^s, applied at the rewind wait
    w_inv_pow: np.ndarray    # W^{-s}, defines the reference state
    s: int
    m: int
    dt: float
    tau: float
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
    half_comm = (w @ v - v @ w) / 2.0   # vertical branch, sign per apply_q
    half_anti = (v @ w + w @ v) / 2.0
    return _CompiledProtocol(
        xh=tuple(complex(z) for z in half_comm.ravel()),
        yh=tuple(complex(z) for z in half_anti.ravel()),
        w_pow=np.linalg.matrix_power(w, cfg.s),
        w_inv_pow=np.linalg.matrix_power(w_inv, cfg.s),
        s=cfg.s, m=cfg.m, dt=cfg.dt, tau=cfg.tau,
        psi0=None if cfg.psi0 is None else qgate.as_state(cfg.psi0),
    )


def _run_compiled(cp: _CompiledProtocol, rng: np.random.Generator,
                  psi0: np.ndarray | None = None) -> RunRecord:
    if psi0 is None:
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
            elapsed = q_count * (cp.dt + cp.tau) + cp.s * cp.dt
            return RunRecord(outcome=RunOutcome.SUCCESS, q_count=q_count,
                             fidelity=fidelity, elapsed_model_time=elapsed)
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
    mode only).
    """
    cfg.validate()
    if psi0 is not None:
        psi0 = qgate.as_state(psi0)
    return _run_compiled(_compile(cfg), rng, psi0)


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

    @classmethod
    def from_dict(cls, data: dict) -> Statistics:
        return cls(
            n_runs=data["n_runs"],
            n_success=data["n_success"],
            n_trim_fail=data["n_trim_fail"],
            n_abort=data["n_abort"],
            success_rate=data["success_rate"],
            min_fidelity=data["min_fidelity"],
            mean_fidelity=data["mean_fidelity"],
            q_count_hist={int(k): v for k, v in data["q_count_hist"].items()},
        )


# ── Batched lane kernel ──────────────────────────────────────────────────

LANES = 1024  # runs advanced together; see monte_carlo for why it is fixed


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


def _run_lanes(rng: np.random.Generator, width: int, m: int,
               cp: _CompiledProtocol | None, p: float | None, tally: _Tally) -> None:
    """Run one block of `width` protocol runs to the end and tally them.

    Each lane holds one run: its rail (row), its signed position h (pos on
    the lower rail, -pos on the upper one, so a horizontal step adds 1 and
    a vertical step negates h), its alive flag and, with amplitudes, its
    state as a row of psi. Gate t draws one uniform per lane and follows
    the branch semantics of _run_compiled; cp=None is the classical walk
    with vertical probability p, which never aborts. Finished lanes stay in
    place, masked out, so every array keeps its size.

    A lane at the top origin is always there for the first time: after
    that arrival the walk keeps pos <= 0 until it closes at the lower
    origin, so no rewound flag is needed to apply W^s once.
    """
    row = np.zeros(width, dtype=bool)
    h = np.zeros(width, dtype=np.int64)
    alive = np.ones(width, dtype=bool)
    if cp is not None:
        branches = np.hstack([np.reshape(cp.xh, (2, 2)).T, np.reshape(cp.yh, (2, 2)).T])
        psi = (_haar_lanes(rng, width) if cp.psi0 is None
               else np.repeat(cp.psi0[None, :], width, axis=0))
        ref = psi @ cp.w_inv_pow.T
        ref = (ref / np.sqrt(_norm2(ref))[:, None]).conj()
    n_alive = width
    for t in range(1, m + 1):
        u = rng.random(width)
        if cp is None:
            vert = u < p
            live = alive
        else:
            amps = psi @ branches
            p_vert, p_horiz = _norm2(amps[:, :2]), _norm2(amps[:, 2:])
            vert = u < p_vert
            live = alive & (u < p_vert + p_horiz)
            psi = np.where(vert[:, None], amps[:, :2], amps[:, 2:])
            norm = np.sqrt(np.where(vert, p_vert, p_horiz))
            np.divide(psi, norm[:, None], out=psi, where=live[:, None])
        row ^= vert
        h += ~vert
        np.negative(h, out=h, where=vert)
        at_origin = live & (h == 0)
        done = at_origin & ~row
        n_done = int(np.count_nonzero(done))
        n_abort = 0
        if cp is not None:
            arrived = at_origin & row
            if arrived.any():  # wait W^s at the top origin
                waited = psi @ cp.w_pow.T
                nrm = np.sqrt(_norm2(waited))
                live &= ~(arrived & (nrm < 1e-300))
                np.divide(waited, nrm[:, None], out=psi, where=(arrived & live)[:, None])
            n_abort = int(np.count_nonzero(alive & ~live))
            if n_done:
                overlap = (ref * psi).sum(axis=1)
                fidelity = overlap.real ** 2 + overlap.imag ** 2
                tally.fid_sum += float(fidelity.sum(where=done))
                tally.fid_min = min(tally.fid_min,
                                    float(fidelity.min(where=done, initial=math.inf)))
        tally.n_success += n_done
        tally.n_abort += n_abort
        if n_done or n_abort:
            tally.hist[t] += n_done + n_abort
        n_alive -= n_done + n_abort
        if not n_alive:
            return
        alive = live & ~done
    tally.n_trim_fail += n_alive
    tally.hist[m] += n_alive


def monte_carlo(cfg: ProtocolConfig) -> Statistics:
    """Aggregate cfg.runs protocol runs over cfg.workers derived RNG streams.

    Worker streams are spawned from one master SeedSequence and run one
    after another in this process, so results are bit-identical for a
    fixed (seed, workers) pair regardless of the host machine's core count.

    Each stream's runs go through the lane kernel (_run_lanes) in blocks
    of at most LANES runs. A block is a structure of arrays with one lane
    per run: rail, signed position and alive flag, plus with amplitudes an
    (lanes, 2) complex state and the conjugated reference W^{-s} psi0. The
    block draws its Haar states and references in bulk, then one
    rng.random(lanes) per gate; the branch choice, the W^s wait at the top
    origin and the success test are masked operations over all lanes.
    p_override configs run the same kernel with amplitudes off.

    The lane width is a module constant, not an option, because the
    kernel's working set sets the campaign's peak memory. Compacting the
    arrays to the live lanes, or gathering the lanes that arrive or
    succeed, allocates temporaries of ever-changing size; over a long loop
    of campaigns that grew the resident set by about 1 MB more than fixed
    blocks with alive masks, whose temporaries all have the block's size.
    One block per stream would make the working set grow with the stream.
    """
    cfg.validate()
    cp = None if cfg.v is None else _compile(cfg)
    tally = _Tally()
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    base, extra = divmod(cfg.runs, cfg.workers)
    for idx, stream in enumerate(streams):
        n = base + (1 if idx < extra else 0)
        rng = np.random.default_rng(stream)
        for start in range(0, n, LANES):
            _run_lanes(rng, min(LANES, n - start), cfg.m, cp, cfg.p_override, tally)
    n_runs = sum(tally.hist.values())
    fidelities = cp is not None and tally.n_success > 0
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


def success_curve(p=None, v=None, w=None, m_max: int = 100) -> analytics.SuccessCurve:
    """Cumulative success probabilities for budgets m = 1..m_max.

    Give either p directly or a unitary pair (v, w), from which the
    state-independent branch probability is computed.
    """
    if (p is None) == (v is None):
        raise ValueError("give exactly one of p or (v, w)")
    if v is not None:
        if w is None:
            raise ValueError("v and w must be supplied together")
        p = branch_prob_invariant(v, w)
    if m_max < 1:
        raise ValueError("m_max must be positive")
    fp_cum, ret_cum = analytics.cumulative_profile(float(p), m_max)
    return analytics.SuccessCurve(
        m=list(range(1, m_max + 1)),
        prob_commutator=[float(x) for x in fp_cum[1:]],
        prob_full=[float(x) for x in ret_cum[1:]],
    )
