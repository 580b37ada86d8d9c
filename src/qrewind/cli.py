"""Command-line interface.

Subcommands:
  verify      identity suite over random matrix instances
  dist        first-passage distribution to CSV (theorem, DP or MC backend)
  curve       success-probability curves to CSV (and optionally SVG)
  simulate    quantum-amplitude Monte Carlo of the trimmed protocol to JSON
  required-m  smallest even gate budget reaching a target success level
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import analytics, emitters, engine, walk
from .mat2 import (as_mat2, branch_prob_invariant, branch_prob_state, ginibre,
                   haar_unitary, shared_eigenvector_pair, stack_rows,
                   verify_word_identities)
from .qgate import random_state


def _parse_prob(text: str, exact: bool):
    """Probability from the command line; exact mode keeps it rational."""
    try:
        return Fraction(text) if exact or "/" in text else float(text)
    except ZeroDivisionError:
        raise ValueError(f"probability {text!r} has a zero denominator") from None


def load_matrices(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the {"V": [[[re,im],...]], "W": ...} exchange format."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"matrices file {path} must hold a JSON object")
    out = []
    for key in ("V", "W"):
        if key not in data:
            raise ValueError(f"matrices file {path} lacks key {key!r}")
        try:
            pairs = np.array(data[key], dtype=float)
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or pairs.shape != (2, 2, 2):
            raise ValueError(f"matrices file {path}: {key!r} must be a 2x2 "
                             "matrix of [re, im] pairs")
        out.append(as_mat2(pairs[..., 0] + 1j * pairs[..., 1]))
    return out[0], out[1]


def save_matrices(v, w, path):
    def encode(mat):
        return [[[mat[r, c].real, mat[r, c].imag] for c in range(2)]
                for r in range(2)]

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"V": encode(as_mat2(v)), "W": encode(as_mat2(w))}, fh, indent=2)
        fh.write("\n")


# ── verify ───────────────────────────────────────────────────────────────

def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.smax < 0 or args.nmax < 0:
        raise ValueError("--smax and --nmax must be nonnegative")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError("--tol must be finite and positive")
    rng = np.random.default_rng(args.seed)
    families = {
        "haar": lambda: (haar_unitary(rng), haar_unitary(rng)),
        "ginibre": lambda: (ginibre(rng), ginibre(rng)),
        "shared-eigenvector": lambda: shared_eigenvector_pair(rng),
    }
    per_call = stack_rows(args.smax, args.nmax)
    failures = 0
    for name, sampler in families.items():
        worst = 0.0
        family_failures = 0
        for start in range(0, args.trials, per_call):
            pairs = [sampler() for _ in range(min(per_call, args.trials - start))]
            report = verify_word_identities(np.array([v for v, _ in pairs]),
                                            np.array([w for _, w in pairs]),
                                            s_max=args.smax, n_max=args.nmax,
                                            tol=args.tol)
            family_failures += int(np.count_nonzero(~report.all_passed))
            worst = max(worst, float(report.trace_residuals.max()))
        failures += family_failures
        print(f"identities[{name}]: {args.trials} instances, "
              f"failures={family_failures}, worst trace residual={worst:.3e}")

    spread_worst = 0.0
    for _ in range(args.trials):
        v, w = haar_unitary(rng), haar_unitary(rng)
        p_ref = branch_prob_invariant(v, w)
        states = np.array([random_state(rng) for _ in range(8)])
        p_vert = branch_prob_state(v, w, states)[0]
        spread_worst = max(spread_worst, float(np.abs(p_vert - p_ref).max()))
    invariant_ok = spread_worst < 1e-10
    if not invariant_ok:
        failures += 1
    print(f"branch-probability invariance: worst deviation={spread_worst:.3e} "
          f"{'ok' if invariant_ok else 'FAIL'}")
    print("verify: PASS" if failures == 0 else f"verify: FAIL ({failures})")
    return 0 if failures == 0 else 1


# ── dist ─────────────────────────────────────────────────────────────────

def _cmd_dist(args) -> int:
    if args.tmax < 1:
        raise ValueError("--tmax must be at least 1")
    p = _parse_prob(args.p, args.exact)
    if args.method == "theorem":
        dist = analytics.first_passage_dist(p, args.tmax)
    elif args.method == "dp":
        dist = walk.dp_first_passage(p, args.tmax)
    else:
        sample = walk.sample_first_passage_batch(float(p), args.runs, args.tmax,
                                                 args.seed, workers=args.workers)
        pmf = sample.empirical_pmf()
        dist = analytics.HittingDist([float(x) for x in pmf[1:]])
    emitters.emit(dist, "csv", args.out, exact=args.exact)
    print(f"wrote {args.out}")
    return 0


# ── curve ────────────────────────────────────────────────────────────────

def _cmd_curve(args) -> int:
    if args.matrices:
        p = branch_prob_invariant(*load_matrices(args.matrices))
    else:
        p = float(_parse_prob(args.p, exact=False))
    curve = engine.success_curve(p, m_max=args.mmax)
    emitters.emit(curve, "csv", args.out)
    print(f"wrote {args.out}")
    if args.svg:
        emitters.emit(curve, "svg", args.svg)
        print(f"wrote {args.svg}")
    return 0


# ── simulate ─────────────────────────────────────────────────────────────

def _cmd_simulate(args) -> int:
    v, w = load_matrices(args.matrices)
    cfg = engine.ProtocolConfig(
        v=v, w=w, s=args.s, m=args.m, seed=args.seed, runs=args.runs,
        workers=args.workers, mode="contraction" if args.contraction else "unitary",
    )
    stats = engine.monte_carlo(cfg)
    emitters.emit(stats, "json", args.out)
    print(f"wrote {args.out}")
    print(f"success_rate={emitters.fmt_float(stats.success_rate)} "
          f"n_success={stats.n_success}/{stats.n_runs} n_abort={stats.n_abort}")
    return 0


# ── required-m ───────────────────────────────────────────────────────────

def _cmd_required_m(args) -> int:
    plan = analytics.required_m(args.pmin, args.q, dt=args.dt, tau=args.tau,
                                s=args.s)
    print(f"m = {plan.m}")
    print(f"worst grid point: p = {emitters.fmt_float(plan.worst_grid_p)}, "
          f"success = {emitters.fmt_float(plan.worst_grid_prob)}")
    if plan.t_prime is not None:
        print(f"T' = {emitters.fmt_float(plan.t_prime)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qrewind",
        description="Simulator and analytics for the adaptive qubit-rewinding protocol")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the matrix-identity suite")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--smax", type=int, default=8)
    p_verify.add_argument("--nmax", type=int, default=6)
    p_verify.set_defaults(func=_cmd_verify)

    p_dist = sub.add_parser("dist", help="first-passage distribution to CSV")
    p_dist.add_argument("--p", required=True,
                        help="vertical-branch probability (0.3, 1/2, ...)")
    p_dist.add_argument("--tmax", type=int, required=True)
    p_dist.add_argument("--method", choices=("theorem", "dp", "mc"),
                        default="theorem")
    p_dist.add_argument("--runs", type=int, default=10**5)
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--workers", type=int, default=1)
    p_dist.add_argument("--exact", action="store_true",
                        help="emit rational values as num/den strings")
    p_dist.add_argument("--out", required=True)
    p_dist.set_defaults(func=_cmd_dist)

    p_curve = sub.add_parser("curve", help="success curves to CSV")
    group = p_curve.add_mutually_exclusive_group(required=True)
    group.add_argument("--p")
    group.add_argument("--matrices")
    p_curve.add_argument("--mmax", type=int, required=True)
    p_curve.add_argument("--out", required=True)
    p_curve.add_argument("--svg")
    p_curve.set_defaults(func=_cmd_curve)

    p_sim = sub.add_parser("simulate", help="quantum Monte Carlo to JSON")
    p_sim.add_argument("--matrices", required=True)
    p_sim.add_argument("--s", type=int, default=0)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--runs", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="independent RNG streams, run one after another "
                            "in this process; output depends on (seed, workers)")
    p_sim.add_argument("--contraction", action="store_true")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_req = sub.add_parser("required-m", help="gate budget for a target "
                                              "success probability")
    p_req.add_argument("--pmin", type=float, required=True)
    p_req.add_argument("--q", type=float, required=True)
    p_req.add_argument("--dt", type=float, default=None)
    p_req.add_argument("--tau", type=float, default=None)
    p_req.add_argument("--s", type=int, default=0)
    p_req.set_defaults(func=_cmd_required_m)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
