"""Output checks against the paper's exact results, run outside the timed region.

Each check takes a job's parameters and what the program produced, and
returns a list of error strings; an empty list means the output is correct.
The references are the program's exact oracles (cumulative_success, the
forward DP); statistical checks allow 5 standard deviations of the binomial
count around the exact probability.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

Z_LIMIT = 5.0
FIDELITY_FLOOR = {"unitary": 1.0 - 1e-9, "contraction": 1.0 - 1e-8}
CURVE_EXACT_M = 16        # rows of a curve compared with exact Fractions
CURVE_EXACT_TOL = 1e-12
REQUIRED_M_TOL = 1e-9
REQUIRED_M_GRID_STEP = 0.001


def binomial_z(observed: float, expected: float, n: int) -> float:
    """|observed - expected| in units of the binomial standard error."""
    var = expected * (1.0 - expected) / n
    if var <= 0.0:
        return 0.0 if observed == expected else math.inf
    return abs(observed - expected) / math.sqrt(var)


def check_stats(stats: dict, prm: dict, analytics) -> list[str]:
    """simulate (stats JSON) and classical monte_carlo (Statistics.to_dict)."""
    errors = []
    if stats.get("n_runs") != prm["runs"]:
        errors.append(f"n_runs {stats.get('n_runs')} != {prm['runs']}")
    mode = prm.get("mode")
    if mode is not None:  # amplitude-level run: certify fidelity
        floor = FIDELITY_FLOOR[mode]
        fid = stats.get("min_fidelity")
        if stats.get("n_success", 0) > 0 and (fid is None or fid < floor):
            errors.append(f"min_fidelity {fid} below {floor!r}")
    if mode in (None, "unitary"):
        exact = float(analytics.cumulative_success(prm["p"], prm["m"], "full"))
        z = binomial_z(stats.get("success_rate", -1.0), exact, prm["runs"])
        if z > Z_LIMIT:
            errors.append(f"success_rate {stats.get('success_rate')} is {z:.1f} "
                          f"sigma from exact {exact!r}")
    return errors


def check_simulate(stats_text: str, prm: dict, analytics) -> list[str]:
    try:
        stats = json.loads(stats_text)
    except json.JSONDecodeError as exc:
        return [f"stats JSON does not parse: {exc}"]
    return check_stats(stats, prm, analytics)


def check_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return [f"verify did not pass: {lines[-1] if lines else '(no output)'}"]
    return []


def _parse_csv(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"CSV header {lines[0] if lines else '(empty)'!r} != {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def check_dist_mc(csv_text: str, prm: dict, walk) -> list[str]:
    """Every bin of the sampled pmf within 5 sigma of the forward-DP pmf."""
    rows, errors = _parse_csv(csv_text, "t,prob")
    if errors:
        return errors
    exact = walk.dp_first_passage(float(Fraction(prm["p"])), prm["tmax"]).as_floats()
    if len(rows) != prm["tmax"]:
        return [f"{len(rows)} rows, expected {prm['tmax']}"]
    for t, (row, ref) in enumerate(zip(rows, exact), start=1):
        if int(row[0]) != t:
            errors.append(f"row {t} is labelled t={row[0]}")
            continue
        z = binomial_z(float(row[1]), float(ref), prm["runs"])
        if z > Z_LIMIT:
            errors.append(f"t={t}: {row[1]} is {z:.1f} sigma from {ref!r}")
    return errors


def check_dist_pair(dp_text: str, theorem_text: str) -> list[str]:
    """The exact DP and the closed formula must print byte-identical CSVs."""
    if dp_text != theorem_text:
        return ["dp and theorem --exact CSVs differ"]
    if not dp_text.startswith("t,prob\n"):
        return ["exact CSV lacks the t,prob header"]
    return []


def check_curve(csv_text: str, prm: dict, analytics) -> list[str]:
    """Monotone columns; the first rows equal the exact rational values."""
    rows, errors = _parse_csv(csv_text, "m,prob_commutator,prob_full")
    if errors:
        return errors
    if len(rows) != prm["mmax"]:
        return [f"{len(rows)} rows, expected {prm['mmax']}"]
    p = Fraction(prm["p"])
    prev = (0.0, 0.0)
    for i, row in enumerate(rows, start=1):
        m, pc, pf = int(row[0]), float(row[1]), float(row[2])
        if m != i:
            return [f"row {i} is labelled m={m}"]
        if pc < prev[0] or pf < prev[1]:
            errors.append(f"curve decreases at m={m}")
        prev = (pc, pf)
        if m <= CURVE_EXACT_M:
            for value, mode in ((pc, "commutator"), (pf, "full")):
                exact = float(analytics.cumulative_success(p, m, mode))
                if abs(value - exact) > CURVE_EXACT_TOL:
                    errors.append(f"m={m} {mode}: {value!r} != exact {exact!r}")
    return errors


def check_required_m(stdout: str, prm: dict, analytics) -> list[str]:
    """m is even and the reported worst grid point reaches q when recomputed."""
    fields = {}
    for line in stdout.splitlines():
        if line.startswith("m = "):
            fields["m"] = line[4:]
        elif line.startswith("worst grid point: p = "):
            p_text, _, success_text = line[len("worst grid point: p = "):].partition(
                ", success = ")
            fields["p"], fields["success"] = p_text, success_text
    try:
        m, p_printed, success = int(fields["m"]), float(fields["p"]), float(fields["success"])
    except (KeyError, ValueError):
        return [f"cannot parse required-m output {stdout!r}"]
    errors = []
    if m % 2 or m < 2:
        errors.append(f"m = {m} is not a positive even budget")
    step = round((p_printed - prm["pmin"]) / REQUIRED_M_GRID_STEP)
    grid_p = min(prm["pmin"] + REQUIRED_M_GRID_STEP * step, 1.0)
    recomputed = float(analytics.cumulative_success(grid_p, m, "full"))
    if recomputed < prm["q"] or success < prm["q"]:
        errors.append(f"success {success!r} (recomputed {recomputed!r}) "
                      f"below q={prm['q']} at p={grid_p!r}")
    if abs(recomputed - success) > REQUIRED_M_TOL:
        errors.append(f"reported success {success!r} != recomputed {recomputed!r}")
    return errors
