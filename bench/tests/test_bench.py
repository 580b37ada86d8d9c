"""Tests of the benchmark's own code: generator, checks, tracer, runner.

Run from the repository root with: python3 -m pytest bench/tests
"""
import json
import os

import pytest

from qbench import checks, jobs, runner
from qbench.tracing import Tracer, program_modules
from qrewind import analytics, cli, mat2, walk

from conftest import BENCH, ROOT


def _rounds(workload, seed, n=3):
    gen = jobs.JobGenerator(workload, seed)
    out = [job.to_dict() for job in gen.warmup()]
    for i in range(n):
        out += [job.to_dict() for job in gen.next_round(i)]
    return out


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _rounds(workload, 11)
    assert first == _rounds(workload, 11)
    assert first != _rounds(workload, 12)
    assert json.loads(json.dumps(first)) == first  # stored verbatim in the record


def test_generator_keeps_rounds_alike_and_probabilities_distinct():
    gen = jobs.JobGenerator("ladder-analytics", 3)
    rounds = [gen.next_round(i) for i in range(20)]
    kinds = sorted(job.kind for job in rounds[0])
    assert all(sorted(job.kind for job in r) == kinds for r in rounds)
    rationals = [job.params["p"] for r in rounds for job in r
                 if job.kind in ("dist_mc", "dist_theorem", "curve")]
    assert len(rationals) == len(set(rationals))

    gen = jobs.JobGenerator("mc-protocol", 3)
    for job in gen.next_round(0):
        if job.kind != "sim_classical":
            v = mat2.as_mat2([[complex(*z) for z in row] for row in job.params["V"]])
            w = mat2.as_mat2([[complex(*z) for z in row] for row in job.params["W"]])
            if job.params["mode"] == "unitary":
                assert mat2.branch_prob_invariant(v, w) == pytest.approx(job.params["p"])


# ── checks ───────────────────────────────────────────────────────────────

SIM = {"m": 12, "runs": 2000, "s": 3, "seed": 5, "mode": "unitary"}


@pytest.fixture(scope="module")
def sim_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    gen = jobs.JobGenerator("mc-protocol", 0)
    v, w, p = gen._haar_pair(1)
    job = jobs.Job("t", "sim_short", {**SIM, "p": p, "V": jobs.encode_matrix(v),
                                      "W": jobs.encode_matrix(w)})
    jobs.write_inputs(job, str(tmp))
    assert cli.main(jobs.job_argv(job, str(tmp))) == 0
    return job.params, (tmp / "t.stats.json").read_text()


def test_simulate_check_accepts_program_output(sim_output):
    prm, text = sim_output
    assert checks.check_simulate(text, prm, analytics) == []


def test_simulate_check_rejects_low_fidelity(sim_output):
    prm, text = sim_output
    stats = json.loads(text)
    stats["min_fidelity"] = 0.5
    errors = checks.check_simulate(json.dumps(stats), prm, analytics)
    assert errors and "min_fidelity" in errors[0]


def test_simulate_check_rejects_wrong_success_rate_and_run_count(sim_output):
    prm, text = sim_output
    stats = json.loads(text)
    stats["success_rate"] += 0.1
    stats["n_runs"] -= 1
    assert len(checks.check_simulate(json.dumps(stats), prm, analytics)) == 2


@pytest.fixture(scope="module")
def dist_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dist")
    mc = jobs.Job("mc", "dist_mc", {"p": "2/5", "tmax": 21, "runs": 50_000, "seed": 1})
    dp = jobs.Job("dp", "dist_dp", {"p": "2/5", "tmax": 21})
    thm = jobs.Job("thm", "dist_theorem", {"p": "2/5", "tmax": 21})
    for job in (mc, dp, thm):
        assert cli.main(jobs.job_argv(job, str(tmp))) == 0
    return mc.params, *((tmp / f"{name}.csv").read_text() for name in ("mc", "dp", "thm"))


def _shift_row(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[row], lines[row + 1] = lines[row + 1], lines[row]
    return "".join(lines)


def test_dist_checks_accept_program_output(dist_outputs):
    prm, mc_text, dp_text, thm_text = dist_outputs
    assert checks.check_dist_mc(mc_text, prm, walk) == []
    assert checks.check_dist_pair(dp_text, thm_text) == []


def test_dist_checks_reject_shifted_row(dist_outputs):
    prm, mc_text, dp_text, thm_text = dist_outputs
    values = [line.split(",")[1] for line in mc_text.splitlines()[1:]]
    # move every probability one row down: each odd bin lands on an even step
    shifted = "t,prob\n" + "".join(f"{t},{v}\n" for t, v in
                                   zip(range(1, len(values) + 1), ["0"] + values[:-1]))
    assert checks.check_dist_mc(shifted, prm, walk)
    assert checks.check_dist_pair(dp_text, _shift_row(thm_text, 2))


def test_curve_and_required_m_checks(tmp_path):
    curve = jobs.Job("c", "curve", {"p": "1/3", "mmax": 200})
    assert cli.main(jobs.job_argv(curve, str(tmp_path))) == 0
    text = (tmp_path / "c.csv").read_text()
    assert checks.check_curve(text, curve.params, analytics) == []
    assert checks.check_curve(_shift_row(text, 5), curve.params, analytics)

    plan = analytics.required_m(0.05, 0.9)
    out = (f"m = {plan.m}\nworst grid point: p = {plan.worst_grid_p:.3f}, "
           f"success = {plan.worst_grid_prob!r}\n")
    prm = {"pmin": 0.05, "q": 0.9}
    assert checks.check_required_m(out, prm, analytics) == []
    assert checks.check_required_m(out.replace(f"m = {plan.m}", f"m = {plan.m - 10}"),
                                   prm, analytics)
    assert checks.check_verify("identities...\nverify: FAIL (1)\n")


def test_binomial_z():
    assert checks.binomial_z(0.5, 0.5, 100) == 0.0
    assert checks.binomial_z(0.6, 0.5, 100) == pytest.approx(2.0)
    assert checks.binomial_z(0.0, 0.0, 10) == 0.0
    assert checks.binomial_z(0.1, 0.0, 10) == float("inf")


# ── tracer ───────────────────────────────────────────────────────────────

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_trace():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def agg():
        clock.now += 1

    def middle():
        clock.now += 10
        leaf_w()
        clock.now += 3
        agg_w()
        agg_w()

    def outer():
        clock.now += 2
        middle_w()
        middle_w()
        clock.now += 7

    leaf_w = tracer.wrap("leaf", leaf)
    agg_w = tracer.wrap("agg", agg, span=False)
    middle_w = tracer.wrap("middle", middle)
    tracer.job = "j1"
    tracer.wrap("outer", outer)()

    assert dict(tracer.calls) == {"outer": 1, "middle": 2, "leaf": 2, "agg": 4}
    assert tracer.total_ns["outer"] == 2 + 2 * (10 + 5 + 3 + 2) + 7
    assert tracer.self_ns["outer"] == 9
    assert tracer.self_ns["middle"] == 2 * 13
    assert tracer.self_ns["leaf"] == 10
    assert tracer.self_ns["agg"] == 4
    assert sum(tracer.self_ns.values()) == tracer.total_ns["outer"]

    spans = {s["id"]: s for s in tracer.spans}
    assert sorted(s["name"] for s in spans.values()) == ["leaf", "leaf", "middle",
                                                          "middle", "outer"]
    outer_span = next(s for s in spans.values() if s["name"] == "outer")
    assert outer_span["parent"] is None
    for s in spans.values():
        assert s["job"] == "j1"
        if s["name"] == "middle":
            assert s["parent"] == outer_span["id"]
        if s["name"] == "leaf":
            assert spans[s["parent"]]["name"] == "middle"
    # Duration minus the part covered by child spans still holds the two
    # aggregated calls, which have no spans; the stack subtracts them too.
    for middle in (s for s in spans.values() if s["name"] == "middle"):
        covered = sum(s["end_ns"] - s["start_ns"] for s in spans.values()
                      if s["parent"] == middle["id"])
        assert middle["end_ns"] - middle["start_ns"] - covered == 13 + 2


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    tracer = Tracer()
    original = mat2.haar_unitary
    assert cli.haar_unitary is original
    tracer.install([("mat2.haar_unitary", mat2, "haar_unitary", False, None)],
                   program_modules())
    try:
        assert cli.haar_unitary is mat2.haar_unitary is not original
    finally:
        tracer.uninstall()
    assert cli.haar_unitary is original and mat2.haar_unitary is original


def test_every_wrapped_function_is_called_in_the_traced_run(tmp_path):
    called = set()
    for workload in jobs.WORKLOADS:
        # the shortest traced run: one untraced and one traced round
        rec = runner.run_workload(workload, 7, 1e-3, True, ROOT, str(tmp_path))
        assert rec["failed"] == 0, [j["errors"] for j in rec["jobs"] if j["errors"]]
        assert set(rec["per_layer"]) == set(runner.PER_LAYER)
        assert rec["per_layer"]["trace.overhead_ratio"] > 0
        called |= {name for name, n in rec["trace_calls"].items() if n > 0}
        assert all(span["job"] for span in rec["spans"])
    wrapped = {target[0] for target in runner.trace_targets(runner.LayerCounters())}
    assert wrapped - called == set()


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER
    assert spec["paths"] == [os.path.basename(BENCH)]
