"""Seeded job generator for the three benchmark workloads.

A workload run is a sequence of rounds. Every round of a workload has the
same composition: one job of each kind per probability stratum, in an order
shuffled by the seed. Rounds are therefore interchangeable units of work, so
the mix of input sizes in a run does not depend on the seed or on how many
rounds fit in the run. Inputs are drawn here with the benchmark's own
samplers, never with the program's, so a given seed yields the same inputs on
every commit of the program.

All sampled probabilities lie in [0.18, 0.82]. With the sizes below that keeps
every statistical output check (5 sigma on a binomial count) in the regime
where the normal approximation holds: the smallest expected count of
successes, failures or samples in a bin that is checked is above 100.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("mc-protocol", "identity-suite", "ladder-analytics")

# Branch-probability strata: narrow windows, so that the cost of a job, which
# depends on p, is nearly the same for every draw from one stratum. Each
# round draws one job of each kind per stratum.
P_STRATA = ((0.18, 0.22), (0.48, 0.52), (0.78, 0.82))
# required-m p_min per stratum, spanning [0.005, 0.05]; the planning loop's
# cost is linear in 1/p_min. The points lie on required_m's 0.001 grid, so a
# printed worst grid point names one grid index. q varies slightly per job.
PMIN_STRATA = (0.005, 0.016, 0.050)
REQUIRED_M_Q = (0.9495, 0.9505)
# Denominators of the rational probabilities: primes, so a/b is reduced and
# the exact-arithmetic cost is similar for every draw.
DENOMINATORS = tuple(b for b in range(211, 500) if all(b % d for d in range(2, 23)))
RATIONAL_TRIES = 10_000

# Sizes: few large jobs rather than many small ones, so the 5-sigma checks
# stay few (a correct program fails each with probability about 1e-6).
SIM_LONG = {"m": 200, "runs": 2000}
SIM_SHORT = {"m": 12, "runs": 8000}
SIM_CLASSICAL = {"m": 200, "runs": 2000}
CONTRACTION_SCALE = 0.9
S_MAX = 10
VERIFY_TRIALS = 10
DIST_MC = {"tmax": 21, "runs": 400_000}
DIST_EXACT_TMAX = 61
CURVE_MMAX = 10_000
WORKERS = 2


@dataclass
class Job:
    """One program invocation: its kind and every input needed to replay it."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind, "params": self.params}


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar 2x2 unitary by Gram-Schmidt on a complex Gaussian matrix."""
    while True:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        r0 = math.sqrt(float(np.vdot(g[:, 0], g[:, 0]).real))
        if r0 > 1e-6:
            break
    q0 = g[:, 0] / r0
    w = g[:, 1] - q0 * np.vdot(q0, g[:, 1])
    q1 = w / math.sqrt(float(np.vdot(w, w).real))
    return np.column_stack([q0, q1])


def invariant_p(v: np.ndarray, w: np.ndarray) -> float:
    """Vertical-branch probability (2 - Re tr(V W V^dag W^dag)) / 4 of a unitary pair."""
    inv = np.trace(v @ w @ v.conj().T @ w.conj().T).real
    return min(max((2.0 - float(inv)) / 4.0, 0.0), 1.0)


def encode_matrix(mat: np.ndarray) -> list:
    """The {"V": [[[re,im],[re,im]],[[re,im],[re,im]]]} exchange format."""
    return [[[float(mat[r, c].real), float(mat[r, c].imag)] for c in range(2)]
            for r in range(2)]


class JobGenerator:
    """Deterministic stream of rounds for one (workload, seed) pair.

    The generator remembers every rational probability it has handed out, so
    no two jobs of a run share one: the program's per-p caches never serve a
    repeat. Rounds must be drawn in order for a replay to match.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self._used: set[Fraction] = set()

    def warmup(self) -> list[Job]:
        """One job per kind from the cheapest stratum, run before timing."""
        return self._round("w", strata=(len(P_STRATA) - 1,))

    def next_round(self, index: int) -> list[Job]:
        return self._round(f"r{index}", strata=tuple(range(len(P_STRATA))))

    # ── per-workload round composition ─────────────────────────────────

    def _round(self, tag: str, strata: tuple[int, ...]) -> list[Job]:
        build = {"mc-protocol": self._mc_jobs,
                 "identity-suite": self._identity_jobs,
                 "ladder-analytics": self._ladder_jobs}[self.workload]
        specs = [spec for k in strata for spec in build(k)]
        order = self.rng.permutation(len(specs))
        return [Job(id=f"{tag}-{i:02d}", kind=specs[j][0], params=specs[j][1])
                for i, j in enumerate(order)]

    def _mc_jobs(self, k: int) -> list[tuple[str, dict]]:
        v, w, p = self._haar_pair(k)
        long_job = {**SIM_LONG, "s": self._s(), "seed": self._seed(),
                    "mode": "unitary", "p": p,
                    "V": encode_matrix(v), "W": encode_matrix(w)}
        v, w, p = self._haar_pair(k)
        short_unitary = {**SIM_SHORT, "s": self._s(), "seed": self._seed(),
                         "mode": "unitary", "p": p,
                         "V": encode_matrix(v), "W": encode_matrix(w)}
        v, w, p = self._haar_pair(k)
        short_contraction = {**SIM_SHORT, "s": self._s(), "seed": self._seed(),
                             "mode": "contraction", "p": p,
                             "V": encode_matrix(CONTRACTION_SCALE * v),
                             "W": encode_matrix(CONTRACTION_SCALE * w)}
        classical = {**SIM_CLASSICAL, "seed": self._seed(),
                     "p": float(self.rng.uniform(*P_STRATA[k]))}
        return [("sim_long", long_job), ("sim_short", short_unitary),
                ("sim_short", short_contraction), ("sim_classical", classical)]

    def _identity_jobs(self, k: int) -> list[tuple[str, dict]]:
        # verify draws its own matrices, so the stratum only sets the job count
        return [("verify", {"trials": VERIFY_TRIALS, "seed": self._seed()})]

    def _ladder_jobs(self, k: int) -> list[tuple[str, dict]]:
        exact_p = self._rational(k)
        return [
            ("dist_mc", {**DIST_MC, "p": self._rational(k), "seed": self._seed()}),
            ("dist_dp", {"p": exact_p, "tmax": DIST_EXACT_TMAX}),
            ("dist_theorem", {"p": exact_p, "tmax": DIST_EXACT_TMAX}),
            ("curve", {"p": self._rational(k), "mmax": CURVE_MMAX}),
            ("required_m", {"pmin": PMIN_STRATA[k],
                            "q": float(self.rng.uniform(*REQUIRED_M_Q))}),
        ]

    # ── draws ──────────────────────────────────────────────────────────

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def _s(self) -> int:
        return int(self.rng.integers(0, S_MAX + 1))

    def _haar_pair(self, k: int):
        lo, hi = P_STRATA[k]
        while True:
            v, w = haar_unitary(self.rng), haar_unitary(self.rng)
            p = invariant_p(v, w)
            if lo <= p < hi:
                return v, w, p

    def _rational(self, k: int) -> str:
        lo, hi = P_STRATA[k]
        for _ in range(RATIONAL_TRIES):
            b = DENOMINATORS[int(self.rng.integers(len(DENOMINATORS)))]
            a = int(self.rng.integers(math.ceil(lo * b), math.floor(hi * b) + 1))
            p = Fraction(a, b)
            if lo <= p < hi and p not in self._used:
                self._used.add(p)
                return f"{a}/{b}"
        raise RuntimeError(f"no unused rational probability left in {P_STRATA[k]}")


def job_argv(job: Job, workdir: str) -> list[str] | None:
    """Command line for a CLI job; None for jobs that call the engine directly."""
    prm = job.params
    out = f"{workdir}/{job.id}"
    if job.kind in ("sim_long", "sim_short"):
        argv = ["simulate", "--matrices", f"{out}.mats.json", "--s", str(prm["s"]),
                "--m", str(prm["m"]), "--runs", str(prm["runs"]),
                "--seed", str(prm["seed"]), "--workers", str(WORKERS),
                "--out", f"{out}.stats.json"]
        return argv + (["--contraction"] if prm["mode"] == "contraction" else [])
    if job.kind == "verify":
        return ["verify", "--trials", str(prm["trials"]), "--seed", str(prm["seed"])]
    if job.kind == "dist_mc":
        return ["dist", "--p", prm["p"], "--tmax", str(prm["tmax"]), "--method", "mc",
                "--runs", str(prm["runs"]), "--seed", str(prm["seed"]),
                "--workers", str(WORKERS), "--out", f"{out}.csv"]
    if job.kind in ("dist_dp", "dist_theorem"):
        method = "dp" if job.kind == "dist_dp" else "theorem"
        return ["dist", "--p", prm["p"], "--tmax", str(prm["tmax"]), "--method", method,
                "--exact", "--out", f"{out}.csv"]
    if job.kind == "curve":
        return ["curve", "--p", prm["p"], "--mmax", str(prm["mmax"]),
                "--out", f"{out}.csv", "--svg", f"{out}.svg"]
    if job.kind == "required_m":
        return ["required-m", "--pmin", repr(prm["pmin"]), "--q", repr(prm["q"])]
    if job.kind == "sim_classical":
        return None
    raise ValueError(f"unknown job kind {job.kind!r}")


def write_inputs(job: Job, workdir: str):
    """Write the job's input files; called before the timed region."""
    if job.kind in ("sim_long", "sim_short"):
        with open(f"{workdir}/{job.id}.mats.json", "w", encoding="utf-8") as fh:
            json.dump({"V": job.params["V"], "W": job.params["W"]}, fh)
