"""Workload runner: a closed loop of rounds with one client, then checks and metrics.

Jobs run in-process, one after another, through qrewind.cli.main (stdout
captured) or engine.monte_carlo. Each round's input files are written before
the round's timer starts; output checks run after the timed loop. With
tracing on, rounds alternate untraced and traced, so the traced rounds give
the per-layer numbers and the pair gives the tracing overhead; end-to-end
numbers come only from runs with tracing off.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from qrewind import analytics, cli, emitters, engine, mat2, qgate, walk

from . import checks, jobs, record
from .tracing import Tracer, program_modules

SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MAX_ROUNDS = 100_000

# Gated end-to-end metrics, reported by every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "kind_p50_geomean_ms": "ms",
}

# Job kinds of each workload, and the named per-kind metrics it prints:
# (metric, kind, "rate" = work units per second | "p50" = latency in ms).
KINDS = {
    "mc-protocol": ("sim_long", "sim_short", "sim_classical"),
    "identity-suite": ("verify",),
    "ladder-analytics": ("dist_mc", "dist_dp", "dist_theorem", "curve", "required_m"),
}
NAMED = {
    "mc-protocol": (("sim_long_runs_per_s", "sim_long", "rate"),
                    ("sim_short_runs_per_s", "sim_short", "rate"),
                    ("sim_classical_runs_per_s", "sim_classical", "rate")),
    "identity-suite": (("verify_instances_per_s", "verify", "rate"),),
    "ladder-analytics": (("dist_mc_runs_per_s", "dist_mc", "rate"),
                         ("dist_dp_exact_p50_ms", "dist_dp", "p50"),
                         ("dist_theorem_exact_p50_ms", "dist_theorem", "p50"),
                         ("curve_p50_ms", "curve", "p50"),
                         ("required_m_p50_ms", "required_m", "p50")),
}

# Per-layer metrics of the traced run: name -> unit. Layers idle in a
# workload report 0.
PER_LAYER = {
    "engine.monte_carlo.self_s": "s",
    "engine.gates": "count",
    "engine.gates_per_s": "1/s",
    "engine.per_run_us": "us",
    "engine.success_ratio": "ratio",
    "engine.validate.calls": "count",
    "engine.validate.self_s": "s",
    "engine.success_curve.self_s": "s",
    "qgate.random_state.calls": "count",
    "qgate.random_state.self_s": "s",
    "walk.run_walk_protocol.calls": "count",
    "walk.run_walk_protocol.self_s": "s",
    "walk.sample_first_passage_batch.self_s": "s",
    "walk.steps": "count",
    "walk.steps_per_s": "1/s",
    "walk.dp_first_passage.self_s": "s",
    "analytics.first_passage_dist.self_s": "s",
    "analytics.gen_binomial.hit_ratio": "ratio",
    "analytics.cumulative_profile.self_s": "s",
    "analytics.required_m.self_s": "s",
    "analytics.required_m.iterations": "count",
    "mat2.verify_word_identities.calls": "count",
    "mat2.verify_word_identities.self_s": "s",
    "mat2.samplers.self_s": "s",
    "mat2.branch_prob.self_s": "s",
    "emitters.emit.self_s": "s",
    "emitters.bytes": "count",
    "emitters.bytes_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def work_units(job: jobs.Job) -> int:
    """Protocol runs, identity instances (3 families x trials) or 1 per job."""
    if job.kind in ("sim_long", "sim_short", "sim_classical", "dist_mc"):
        return job.params["runs"]
    if job.kind == "verify":
        return 3 * job.params["trials"]
    return 1


@dataclass
class JobResult:
    job: jobs.Job
    seconds: float
    round: int
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    stats: dict | None = None
    errors: list[str] = field(default_factory=list)


def execute(job: jobs.Job, workdir: str, round_index: int) -> JobResult:
    """Run one job; its wall time covers the program call and nothing else."""
    argv = jobs.job_argv(job, workdir)
    out, err = io.StringIO(), io.StringIO()
    result, failure, rc = None, None, None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv is None:
                prm = job.params
                result = engine.monte_carlo(engine.ProtocolConfig(
                    p_override=prm["p"], m=prm["m"], runs=prm["runs"],
                    seed=prm["seed"], workers=jobs.WORKERS))
                rc = 0
            else:
                rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job; the loop goes on
        failure = traceback.format_exc(limit=4)
    elapsed = (time.perf_counter_ns() - start) / 1e9
    res = JobResult(job=job, seconds=elapsed, round=round_index, rc=rc,
                    stdout=out.getvalue(), stderr=err.getvalue(),
                    stats=None if result is None else result.to_dict())
    if failure:
        res.errors.append(f"raised: {failure}")
    return res


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_results(results: list[JobResult], workdir: str):
    """Attach output-check errors to each result (outside the timed region)."""
    dp_csv = {}
    for res in results:
        if res.job.kind == "dist_dp" and res.rc == 0:
            dp_csv[res.job.params["p"]] = _read(f"{workdir}/{res.job.id}.csv")
    for res in results:
        if res.errors:
            continue
        if res.rc != 0:
            res.errors.append(f"exit code {res.rc}: {res.stderr.strip()[-300:]}")
            continue
        job, prm, base = res.job, res.job.params, f"{workdir}/{res.job.id}"
        try:
            if job.kind in ("sim_long", "sim_short"):
                res.errors += checks.check_simulate(_read(f"{base}.stats.json"), prm, analytics)
            elif job.kind == "sim_classical":
                res.errors += checks.check_stats(res.stats, prm, analytics)
            elif job.kind == "verify":
                res.errors += checks.check_verify(res.stdout)
            elif job.kind == "dist_mc":
                res.errors += checks.check_dist_mc(_read(f"{base}.csv"), prm, walk)
            elif job.kind == "dist_theorem":
                dp_text = dp_csv.get(prm["p"])
                res.errors += (["the paired dp job produced no CSV"] if dp_text is None
                               else checks.check_dist_pair(dp_text, _read(f"{base}.csv")))
            elif job.kind == "curve":
                res.errors += checks.check_curve(_read(f"{base}.csv"), prm, analytics)
            elif job.kind == "required_m":
                res.errors += checks.check_required_m(res.stdout, prm, analytics)
        except OSError as exc:
            res.errors.append(f"output missing: {exc}")


def measure_setup(src: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from interpreter start until qrewind.cli is imported and its
    parser built, in fresh processes. The child prints CLOCK_MONOTONIC, which
    is shared across processes on one host."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); "
            "import qrewind.cli as c; c.build_parser(); print(time.monotonic_ns())")
    times = []
    for _ in range(repeats):
        start = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(values_ms: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"p50": statistics.median(values_ms), "n": len(values_ms)}
    for pct in TAIL_PERCENTILES:
        if len(values_ms) * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = percentile(values_ms, pct)
            break
    return out


# ── traced run ───────────────────────────────────────────────────────────

class LayerCounters:
    """Work counts taken from the arguments and results of traced calls."""

    def __init__(self):
        self.amp_runs = self.amp_gates = self.amp_total_ns = self.amp_self_ns = 0
        self.mc_runs = self.mc_success = 0
        self.walk_steps = 0
        self.required_m_iterations = 0
        self.emitted_bytes = 0

    def monte_carlo(self, args, kwargs, stats, total_ns, self_ns):
        cfg = args[0] if args else kwargs["cfg"]
        self.mc_runs += stats.n_runs
        self.mc_success += stats.n_success
        if cfg.v is not None:  # amplitude-level runs; p_override runs have no gates
            self.amp_runs += stats.n_runs
            self.amp_gates += sum(q * n for q, n in stats.q_count_hist.items())
            self.amp_total_ns += total_ns
            self.amp_self_ns += self_ns

    def batch(self, args, kwargs, sample, total_ns, self_ns):
        cap = len(sample.counts) - 1
        self.walk_steps += sum(t * int(n) for t, n in enumerate(sample.counts))
        self.walk_steps += sample.timeouts * cap

    def required_m(self, args, kwargs, plan, total_ns, self_ns):
        self.required_m_iterations += plan.m // 2

    def emit(self, args, kwargs, _result, total_ns, self_ns):
        self.emitted_bytes += os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


def trace_targets(counters: LayerCounters) -> list[tuple]:
    """(metric name, owner, attribute, record spans, hook) for each wrapped function."""
    return [
        ("cli.main", cli, "main", True, None),
        ("engine.monte_carlo", engine, "monte_carlo", True, counters.monte_carlo),
        ("engine.success_curve", engine, "success_curve", True, None),
        ("engine.validate", engine.ProtocolConfig, "validate", False, None),
        ("qgate.random_state", qgate, "random_state", False, None),
        ("walk.run_walk_protocol", walk, "run_walk_protocol", False, None),
        ("walk.sample_first_passage_batch", walk, "sample_first_passage_batch", True,
         counters.batch),
        ("walk.dp_first_passage", walk, "dp_first_passage", True, None),
        ("analytics.first_passage_dist", analytics, "first_passage_dist", True, None),
        ("analytics.cumulative_profile", analytics, "cumulative_profile", True, None),
        ("analytics.required_m", analytics, "required_m", True, counters.required_m),
        ("mat2.verify_word_identities", mat2, "verify_word_identities", True, None),
        ("mat2.haar_unitary", mat2, "haar_unitary", False, None),
        ("mat2.ginibre", mat2, "ginibre", False, None),
        ("mat2.shared_eigenvector_pair", mat2, "shared_eigenvector_pair", False, None),
        ("mat2.branch_prob_invariant", mat2, "branch_prob_invariant", False, None),
        ("mat2.branch_prob_state", mat2, "branch_prob_state", False, None),
        ("emitters.emit", emitters, "emit", True, counters.emit),
    ]


def layer_metrics(tracer: Tracer, c: LayerCounters, cache_hits: int, cache_misses: int,
                  traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.

    Gate rates divide by the self time of amplitude-level monte_carlo calls,
    which holds the gate loop; per-run time is their inclusive time per run.
    Walker steps are those of the batch sampler behind dist --method mc.
    """
    def self_s(*names):
        return sum(tracer.self_ns[n] for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "engine.monte_carlo.self_s": self_s("engine.monte_carlo"),
        "engine.gates": c.amp_gates,
        "engine.gates_per_s": ratio(c.amp_gates, c.amp_self_ns / 1e9),
        "engine.per_run_us": ratio(c.amp_total_ns / 1e3, c.amp_runs),
        "engine.success_ratio": ratio(c.mc_success, c.mc_runs),
        "engine.validate.calls": tracer.calls["engine.validate"],
        "engine.validate.self_s": self_s("engine.validate"),
        "engine.success_curve.self_s": self_s("engine.success_curve"),
        "qgate.random_state.calls": tracer.calls["qgate.random_state"],
        "qgate.random_state.self_s": self_s("qgate.random_state"),
        "walk.run_walk_protocol.calls": tracer.calls["walk.run_walk_protocol"],
        "walk.run_walk_protocol.self_s": self_s("walk.run_walk_protocol"),
        "walk.sample_first_passage_batch.self_s": self_s("walk.sample_first_passage_batch"),
        "walk.steps": c.walk_steps,
        "walk.steps_per_s": ratio(c.walk_steps, self_s("walk.sample_first_passage_batch")),
        "walk.dp_first_passage.self_s": self_s("walk.dp_first_passage"),
        "analytics.first_passage_dist.self_s": self_s("analytics.first_passage_dist"),
        "analytics.gen_binomial.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "analytics.cumulative_profile.self_s": self_s("analytics.cumulative_profile"),
        "analytics.required_m.self_s": self_s("analytics.required_m"),
        "analytics.required_m.iterations": c.required_m_iterations,
        "mat2.verify_word_identities.calls": tracer.calls["mat2.verify_word_identities"],
        "mat2.verify_word_identities.self_s": self_s("mat2.verify_word_identities"),
        "mat2.samplers.self_s": self_s("mat2.haar_unitary", "mat2.ginibre",
                                       "mat2.shared_eigenvector_pair"),
        "mat2.branch_prob.self_s": self_s("mat2.branch_prob_invariant",
                                          "mat2.branch_prob_state"),
        "emitters.emit.self_s": self_s("emitters.emit"),
        "emitters.bytes": c.emitted_bytes,
        "emitters.bytes_per_s": ratio(c.emitted_bytes, self_s("emitters.emit")),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }


# ── one workload run ─────────────────────────────────────────────────────

def end_to_end_metrics(workload: str, results: list[JobResult], timed_s: float,
                       setup_times: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """(gated metrics, named per-kind metrics) from the untraced rounds."""
    by_kind = {kind: [r for r in results if r.job.kind == kind] for kind in KINDS[workload]}
    p50_ms = [statistics.median(r.seconds * 1e3 for r in rs) for rs in by_kind.values()]
    gated = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "jobs_per_s": len(results) / timed_s,
        "kind_p50_geomean_ms": math.exp(statistics.fmean(math.log(v) for v in p50_ms)),
    }
    failed = sum(1 for r in results if r.errors)
    named = {"failed_ops_ratio": {"value": failed / len(results), "unit": "ratio",
                                  "failed": failed, "attempted": len(results)}}
    for metric, kind, how in NAMED[workload]:
        rs = by_kind[kind]
        if how == "rate":
            named[metric] = {"value": sum(work_units(r.job) for r in rs)
                             / sum(r.seconds for r in rs), "unit": "1/s", "n": len(rs)}
        else:
            named[metric] = {**latency_summary([r.seconds * 1e3 for r in rs]), "unit": "ms"}
            named[metric]["value"] = named[metric]["p50"]
    return gated, named


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str,
                 out_dir: str) -> dict:
    """Run one workload and return its run record; the caller prints the result."""
    gen = jobs.JobGenerator(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=out_dir)
    tracer, counters = (Tracer(), LayerCounters()) if trace else (None, None)
    gen_binomial = analytics.gen_binomial
    cache_hits = cache_misses = 0
    try:
        env = {"static": record.static_environment(root), "before": record.host_snapshot()}
        setup_times = measure_setup(os.path.join(root, "src"))
        for job in gen.warmup():  # fills caches and lazy imports; never timed
            jobs.write_inputs(job, workdir)
            execute(job, workdir, -1)

        results, rounds, timed_s = [], [], 0.0
        for index in range(MAX_ROUNDS):
            batch = gen.next_round(index)
            for job in batch:
                jobs.write_inputs(job, workdir)
            traced = trace and index % 2 == 1
            if traced:
                tracer.install(trace_targets(counters), program_modules())
                info = gen_binomial.cache_info()
            start = time.perf_counter_ns()
            round_results = []
            for job in batch:
                if traced:
                    tracer.job = job.id
                round_results.append(execute(job, workdir, index))
            wall = (time.perf_counter_ns() - start) / 1e9
            if traced:
                tracer.uninstall()
                after = gen_binomial.cache_info()
                cache_hits += after.hits - info.hits
                cache_misses += after.misses - info.misses
            rounds.append({"index": index, "traced": traced, "wall_s": wall})
            results += round_results
            timed_s += wall
            # Stop before a round that would end past the time budget; a traced
            # run stops only after a traced round.
            if (not trace or traced) and timed_s + timed_s / (index + 1) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_results(results, workdir)
        env["after"] = record.host_snapshot()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    traced_ids = {r["index"] for r in rounds if r["traced"]}
    untraced = [r for r in results if r.round not in traced_ids]
    untraced_s = sum(r["wall_s"] for r in rounds if not r["traced"])
    gated, named = end_to_end_metrics(workload, untraced, untraced_s, setup_times,
                                      peak_rss_mb)
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_times_s": setup_times, "rounds": rounds,
        "end_to_end": gated, "named": named,
        "attempted": len(results), "failed": sum(1 for r in results if r.errors),
        "jobs": [{**r.job.to_dict(), "round": r.round, "seconds": r.seconds, "rc": r.rc,
                  "errors": r.errors} for r in results],
    }
    if trace:
        traced_s = sum(r["wall_s"] for r in rounds if r["traced"])
        rec["per_layer"] = layer_metrics(tracer, counters, cache_hits, cache_misses,
                                         traced_s, untraced_s)
        rec["trace_calls"] = dict(tracer.calls)
        rec["spans"] = tracer.spans
    return rec


def result_line(rec: dict) -> dict:
    """The benchmark's final output line."""
    if rec["trace"]:
        metrics = {name: {"value": rec["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": rec["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def summary_lines(rec: dict) -> list[str]:
    """Human-readable report: every named metric with its unit."""
    lines = [f"workload {rec['workload']} seed {rec['seed']}: {len(rec['rounds'])} rounds, "
             f"{rec['attempted']} jobs, {rec['failed']} failed"]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<32} {rec['end_to_end'][name]:.6g} {unit}")
    for name, entry in rec["named"].items():
        extra = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in entry.items() if k not in ("value", "unit"))
        lines.append(f"  {name:<32} {entry['value']:.6g} {entry['unit']}  ({extra})")
    for name, value in rec.get("per_layer", {}).items():
        lines.append(f"  {name:<40} {value:.6g} {PER_LAYER[name]}")
    for job in rec["jobs"]:
        for error in job["errors"]:
            lines.append(f"  FAILED {job['id']} {job['kind']}: {error}")
    return lines


def write_record(rec: dict, out_dir: str) -> str:
    path = os.path.join(out_dir, f"{rec['workload']}-seed{rec['seed']}-"
                                 f"trace{int(rec['trace'])}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")
    return path
