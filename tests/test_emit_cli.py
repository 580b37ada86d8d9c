import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrewind import analytics, cli, mat2, qgate, walk
from qrewind import emitters as emit
from qrewind.analytics import SuccessCurve, first_passage_dist
from qrewind.engine import ProtocolConfig, monte_carlo
from qrewind.mat2 import (HADAMARD, SIGMA_Z, branch_prob_invariant, branch_prob_state,
                          haar_unitary)


def test_hitting_dist_csv_rows(tmp_path):
    dist = first_passage_dist(0.5, 5)
    path = tmp_path / "dist.csv"
    emit.emit(dist, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,prob"
    assert lines[1].startswith("1,0.5")
    assert lines[2] == "2,0"
    assert lines[3].startswith("3,0.125")
    assert lines[4] == "4,0"
    assert lines[5].startswith("5,0.0625")


def test_hitting_dist_exact_csv(tmp_path):
    dist = first_passage_dist(Fraction(1, 2), 3)
    path = tmp_path / "dist.csv"
    emit.emit(dist, "csv", path, exact=True)
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "1,1/2"
    assert lines[2] == "2,0/1"
    assert lines[3] == "3,1/8"


FORMAT_SPECS = ("%.17g", "%.2f")
SUBNORMAL = 5e-324
EDGE_COLUMNS = [
    [],
    [0.3],
    [-0.0],
    [math.nan],
    [0.1 + 0.2] * 5000,
    [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
    [math.nan, math.nan, -math.nan, math.inf, math.inf, -math.inf, -math.inf],
    [SUBNORMAL, SUBNORMAL, -SUBNORMAL, 2.2250738585072009e-308, 0.0, 1e-310],
    [1.0, 1.0, 0.999999999999999889, 0.999999999999999889, 1.0],
]


def _per_element(values, spec):
    return [spec % float(x) for x in values]


@pytest.mark.parametrize("spec", FORMAT_SPECS)
@pytest.mark.parametrize("values", EDGE_COLUMNS)
def test_format_column_edge_cases(spec, values):
    texts = emit.format_column(values, spec)
    assert texts == _per_element(values, spec)
    assert texts == [format(float(x), spec[1:]) for x in values]


# runs of repeated values, so that neighbours are often bit-equal
_RUNS = st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True),
                           st.integers(1, 4)), max_size=40)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(runs=_RUNS, spec=st.sampled_from(FORMAT_SPECS))
def test_format_column_matches_per_element_format(runs, spec):
    values = [x for x, count in runs for _ in range(count)]
    assert emit.format_column(np.array(values, dtype=float), spec) == \
        _per_element(values, spec)


def test_curve_csv_rows_are_formatted_per_value():
    curve = SuccessCurve(m=[1, 2, 3, 4], prob_commutator=[0.1, 0.1, -0.0, math.nan],
                         prob_full=[0.0, 1 / 3, 1 / 3, math.inf])
    assert emit.success_curve_csv(curve) == (
        "m,prob_commutator,prob_full\n1,0.10000000000000001,0\n"
        "2,0.10000000000000001,0.33333333333333331\n"
        "3,-0,0.33333333333333331\n4,nan,inf\n")


def test_empty_curve_header_only(tmp_path):
    path = tmp_path / "curve.csv"
    emit.emit(SuccessCurve(), "csv", path)
    assert path.read_text() == "m,prob_commutator,prob_full\n"


def test_statistics_json_roundtrip(tmp_path):
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=4, seed=3,
                                       runs=300))
    path = tmp_path / "stats.json"
    emit.emit(stats, "json", path)
    assert json.loads(path.read_text()) == stats.to_dict()


def test_svg_structure(tmp_path):
    curve = SuccessCurve(m=[1, 2, 3], prob_commutator=[0.5, 0.5, 0.625],
                         prob_full=[0.0, 0.25, 0.25])
    path = tmp_path / "curve.svg"
    emit.emit(curve, "svg", path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert 'width="800"' in text and 'height="600"' in text
    assert ">m</text>" in text and "success probability" in text


def test_emit_rejects_unknown_combo(tmp_path):
    with pytest.raises(ValueError):
        emit.emit(object(), "csv", tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit.emit(first_passage_dist(0.5, 3), "json", tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_emit_surfaces_path_errors(tmp_path):
    dist = first_passage_dist(0.5, 3)
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        emit.emit(dist, "csv", missing)


def test_matrices_roundtrip(tmp_path):
    path = tmp_path / "mats.json"
    cli.save_matrices(HADAMARD, SIGMA_Z, path)
    v, w = cli.load_matrices(path)
    np.testing.assert_allclose(v, HADAMARD)
    np.testing.assert_allclose(w, SIGMA_Z)
    data = json.loads(path.read_text())
    assert set(data) == {"V", "W"}
    assert data["W"][0][0] == [1.0, 0.0]


def test_cli_verify_passes():
    assert cli.main(["verify", "--trials", "40", "--seed", "3",
                     "--tol", "1e-9"]) == 0


VERIFY_PINNED = {
    ("--trials", "10", "--seed", "3"): (
        "identities[haar]: 10 instances, failures=0, worst trace residual=5.680e-16\n"
        "identities[ginibre]: 10 instances, failures=0, worst trace residual=2.414e-16\n"
        "identities[shared-eigenvector]: 10 instances, failures=0, "
        "worst trace residual=2.724e-16\n"
        "branch-probability invariance: worst deviation=4.441e-16 ok\n"
        "verify: PASS\n"),
    ("--trials", "25", "--seed", "11", "--smax", "0", "--nmax", "0"): (
        "identities[haar]: 25 instances, failures=0, worst trace residual=1.570e-16\n"
        "identities[ginibre]: 25 instances, failures=0, worst trace residual=1.665e-16\n"
        "identities[shared-eigenvector]: 25 instances, failures=0, "
        "worst trace residual=9.058e-16\n"
        "branch-probability invariance: worst deviation=1.055e-15 ok\n"
        "verify: PASS\n"),
    ("--trials", "1", "--seed", "0"): (
        "identities[haar]: 1 instances, failures=0, worst trace residual=1.677e-16\n"
        "identities[ginibre]: 1 instances, failures=0, worst trace residual=8.363e-17\n"
        "identities[shared-eigenvector]: 1 instances, failures=0, "
        "worst trace residual=1.258e-16\n"
        "branch-probability invariance: worst deviation=2.220e-16 ok\n"
        "verify: PASS\n"),
    # 600 trials run in three chunks of 256, 256 and 88 rows
    ("--trials", "600", "--seed", "5"): (
        "identities[haar]: 600 instances, failures=0, worst trace residual=1.003e-15\n"
        "identities[ginibre]: 600 instances, failures=0, worst trace residual=6.484e-16\n"
        "identities[shared-eigenvector]: 600 instances, failures=0, "
        "worst trace residual=2.820e-15\n"
        "branch-probability invariance: worst deviation=2.331e-15 ok\n"
        "verify: PASS\n"),
    # 270 identity rows in kernel chunks of 256 and 14: the first holds all
    # three families, the second only shared-eigenvector rows
    ("--trials", "90", "--seed", "2"): (
        "identities[haar]: 90 instances, failures=0, worst trace residual=5.087e-16\n"
        "identities[ginibre]: 90 instances, failures=0, worst trace residual=2.660e-16\n"
        "identities[shared-eigenvector]: 90 instances, failures=0, "
        "worst trace residual=6.816e-16\n"
        "branch-probability invariance: worst deviation=8.882e-16 ok\n"
        "verify: PASS\n"),
    # 21 identity rows in kernel chunks of 8, 8 and 5: the first two each
    # straddle a family boundary
    ("--trials", "7", "--seed", "9", "--smax", "300", "--nmax", "200"): (
        "identities[haar]: 7 instances, failures=0, worst trace residual=7.072e-16\n"
        "identities[ginibre]: 7 instances, failures=0, worst trace residual=4.043e-16\n"
        "identities[shared-eigenvector]: 7 instances, failures=0, "
        "worst trace residual=5.999e-16\n"
        "branch-probability invariance: worst deviation=5.551e-16 ok\n"
        "verify: PASS\n"),
}


@pytest.mark.parametrize("flags", list(VERIFY_PINNED))
def test_cli_verify_pinned_output(capsys, flags):
    assert cli.main(["verify", *flags]) == 0
    assert capsys.readouterr().out == VERIFY_PINNED[flags]


def test_cli_verify_output_independent_of_chunk(capsys, monkeypatch):
    assert cli.main(["verify", "--trials", "10"]) == 0
    default = capsys.readouterr().out
    # 30 identity rows 1, 3 and 4 per call: with 3, rows 9-11 and 18-20
    # straddle the haar/ginibre and ginibre/shared-eigenvector boundaries;
    # with 4, rows 8-11 straddle the first
    for chunk, rows in ((16, 1), (48, 3), (64, 4)):
        monkeypatch.setattr(mat2, "WORD_CHUNK", chunk)
        assert mat2.stack_rows(8, 6) == rows
        assert cli.main(["verify", "--trials", "10"]) == 0
        assert capsys.readouterr().out == default
    # one more word per instance than WORD_CHUNK holds is an error
    assert mat2.stack_rows(8, 54) == 1 and mat2.stack_rows(8, 55) == 0
    assert cli.main(["verify", "--trials", "10", "--nmax", "55"]) == 2
    captured = capsys.readouterr()
    assert "error: --smax 8 and --nmax 55" in captured.err and captured.out == ""
    monkeypatch.setattr(cli, "BRANCH_CHUNK", 3)  # branch chunks of 3, 3, 3 and 1
    assert cli.main(["verify", "--trials", "10"]) == 0
    assert capsys.readouterr().out == default


def _counting(monkeypatch, names):
    """Wrap the cli attributes `names`; the returned dict lists each call's arguments."""
    seen = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(cli, name), _seen=seen[name], **kwargs):
            _seen.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    return seen


def test_cli_verify_calls_the_kernels_once_per_chunk(capsys, monkeypatch):
    names = ["verify_word_identities", "haar_unitary", "ginibre", "shared_eigenvector_pair"]
    seen = _counting(monkeypatch, names)
    flags = ("--trials", "10", "--seed", "3")
    assert cli.main(["verify", *flags]) == 0
    assert capsys.readouterr().out == VERIFY_PINNED[flags]
    # all 30 identity rows in one kernel call; the haar family's V and W
    # stacks, then the branch section's, each from one stacked call
    assert [len(v) for v, _ in seen["verify_word_identities"]] == [30]
    assert [z.shape for z, in seen["haar_unitary"]] == [(10, 8)] * 4
    assert (len(seen["ginibre"]), len(seen["shared_eigenvector_pair"])) == (20, 10)

    # 4 rows per call: the haar rows go in stacks of 4, 4 and 2 (the third
    # call adds 2 ginibre rows)
    monkeypatch.setattr(mat2, "WORD_CHUNK", 64)
    seen = _counting(monkeypatch, names)
    assert cli.main(["verify", *flags]) == 0
    assert capsys.readouterr().out == VERIFY_PINNED[flags]
    assert [len(v) for v, _ in seen["verify_word_identities"]] == [4] * 7 + [2]
    assert [z.shape[0] for z, in seen["haar_unitary"]] == [4, 4, 4, 4, 2, 2, 10, 10]


def test_cli_verify_branch_section_calls_once_per_chunk(capsys, monkeypatch):
    seen = _counting(monkeypatch, ["branch_prob_invariant", "branch_prob_state",
                                   "random_state", "haar_unitary"])
    flags = ("--trials", "600", "--seed", "5")
    assert cli.main(["verify", *flags]) == 0
    assert capsys.readouterr().out == VERIFY_PINNED[flags]
    chunks = [256, 256, 88]
    assert [len(v) for v, _ in seen["branch_prob_invariant"]] == chunks
    assert [len(v) for v, _, _ in seen["branch_prob_state"]] == chunks
    assert [z.shape for z, in seen["random_state"]] == [(n, cli.BRANCH_STATES, 4)
                                                        for n in chunks]
    # the haar family's 600 rows take 256, 256 and 88 rows of the first
    # three identity chunks, and the branch section's chunks hold as many
    # trials: V and W once per chunk each, no call drawing a single unitary
    assert [z.shape for z, in seen["haar_unitary"]] == \
        [(n, 8) for n in chunks for _ in "vw"] * 2


def test_cli_verify_degenerate_rows_replay_the_per_call_draws(capsys, monkeypatch):
    # this floor makes about one haar pair in ten and one branch trial in
    # five degenerate, so with one row or trial per chunk both the stacked
    # and the replayed draws run in both sections
    monkeypatch.setattr(mat2, "DEGENERATE_NORM", 0.6)
    monkeypatch.setattr(mat2, "WORD_CHUNK", 16)
    monkeypatch.setattr(cli, "BRANCH_CHUNK", 1)
    seen = _counting(monkeypatch, ["verify_word_identities", "haar_unitary",
                                   "branch_prob_state", "random_state"])
    trials, seed = 60, 4
    assert cli.main(["verify", "--trials", str(trials), "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    # each chunk draws its stack; a degenerate one then replays its 8 states
    replayed = [z for z, in seen["random_state"] if not isinstance(z, np.ndarray)]
    assert len(seen["random_state"]) - len(replayed) == trials
    assert 0 < len(replayed) < cli.BRANCH_STATES * trials
    # the same for each haar row and each branch trial, 2 unitaries apiece
    replayed = [z for z, in seen["haar_unitary"] if not isinstance(z, np.ndarray)]
    assert len(seen["haar_unitary"]) - len(replayed) == 4 * trials
    assert 0 < len(replayed) < 4 * trials

    # the per-call route, which redraws each degenerate draw where it falls
    rng = np.random.default_rng(seed)
    pairs = [(haar_unitary(rng), haar_unitary(rng)) for _ in range(trials)]
    pairs += [(mat2.ginibre(rng), mat2.ginibre(rng)) for _ in range(trials)]
    pairs += [mat2.shared_eigenvector_pair(rng) for _ in range(trials)]
    assert len(seen["verify_word_identities"]) == 3 * trials
    for (v_row, w_row), (v, w) in zip(seen["verify_word_identities"], pairs):
        assert np.array_equal(v_row, v[None]) and np.array_equal(w_row, w[None])
    worst = 0.0
    assert len(seen["branch_prob_state"]) == trials
    for v_row, w_row, states_row in seen["branch_prob_state"]:
        v, w = haar_unitary(rng), haar_unitary(rng)
        states = np.array([qgate.random_state(rng) for _ in range(cli.BRANCH_STATES)])
        assert np.array_equal(v_row, v[None]) and np.array_equal(w_row, w[None])
        assert np.array_equal(states_row, states[None])
        p_vert = branch_prob_state(v, w, states)[0]
        worst = max(worst, float(np.abs(p_vert - branch_prob_invariant(v, w)).max()))
    assert out.endswith(f"branch-probability invariance: worst deviation={worst:.3e} ok\n"
                        "verify: PASS\n")


def test_cli_verify_large_smax_passes(capsys):
    assert cli.main(["verify", "--trials", "20", "--smax", "200"]) == 0
    assert capsys.readouterr().out.endswith("verify: PASS\n")


def test_cli_parser_survives_an_argparse_exit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--trials"])
    capsys.readouterr()
    assert cli.main(["verify", "--trials", "10", "--seed", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_PINNED[("--trials", "10", "--seed", "3")]


@pytest.mark.parametrize("p", ["0.5", "1"])
def test_cli_dist_methods_agree(tmp_path, p):
    out_theorem = tmp_path / "t.csv"
    out_dp = tmp_path / "d.csv"
    assert cli.main(["dist", "--p", p, "--tmax", "21",
                     "--method", "theorem", "--out", str(out_theorem)]) == 0
    assert cli.main(["dist", "--p", p, "--tmax", "21",
                     "--method", "dp", "--out", str(out_dp)]) == 0
    rows_t = out_theorem.read_text().splitlines()[1:]
    rows_d = out_dp.read_text().splitlines()[1:]
    if p == "1":  # every pmf value is exact, and zeros print as 0, not -0
        assert rows_t == rows_d
    for a, b in zip(rows_t, rows_d):
        ta, va = a.split(",")
        tb, vb = b.split(",")
        assert ta == tb
        assert abs(float(va) - float(vb)) < 1e-12


def test_cli_dist_exact_and_mc(tmp_path):
    out = tmp_path / "exact.csv"
    assert cli.main(["dist", "--p", "1/2", "--tmax", "5", "--method", "theorem",
                     "--exact", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1,1/2"

    out_mc = tmp_path / "mc.csv"
    assert cli.main(["dist", "--p", "0.5", "--tmax", "9", "--method", "mc",
                     "--runs", "20000", "--seed", "5", "--out", str(out_mc)]) == 0
    rows = out_mc.read_text().splitlines()[1:]
    assert abs(float(rows[0].split(",")[1]) - 0.5) < 0.02
    assert float(rows[1].split(",")[1]) == 0.0


def test_cli_curve_and_svg(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    assert cli.main(["curve", "--p", "0.5", "--mmax", "10",
                     "--out", str(out), "--svg", str(svg)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,prob_commutator,prob_full"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.5 and float(first[2]) == 0.0
    assert svg.exists()


def test_cli_curve_from_matrices(tmp_path):
    mats = tmp_path / "mats.json"
    cli.save_matrices(HADAMARD, SIGMA_Z, mats)
    out = tmp_path / "curve.csv"
    assert cli.main(["curve", "--matrices", str(mats), "--mmax", "4",
                     "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert abs(float(rows[2].split(",")[2]) - 0.25) < 1e-12

    # a pair's curve is the curve at its invariant p, byte for byte
    rng = np.random.default_rng(8)
    v, w = haar_unitary(rng), haar_unitary(rng)
    cli.save_matrices(v, w, mats)
    by_p = tmp_path / "by_p.csv"
    assert cli.main(["curve", "--matrices", str(mats), "--mmax", "40",
                     "--out", str(out)]) == 0
    assert cli.main(["curve", "--p", repr(branch_prob_invariant(v, w)), "--mmax", "40",
                     "--out", str(by_p)]) == 0
    assert out.read_bytes() == by_p.read_bytes()


def test_cli_simulate_deterministic(tmp_path):
    mats = tmp_path / "mats.json"
    cli.save_matrices(HADAMARD, SIGMA_Z, mats)
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    args = ["simulate", "--matrices", str(mats), "--s", "1", "--m", "6",
            "--runs", "2000", "--seed", "7", "--workers", "3"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats = json.loads(out1.read_text())
    assert stats["n_runs"] == 2000
    assert stats["n_abort"] == 0


def test_cli_required_m(capsys):
    assert cli.main(["required-m", "--pmin", "1.0", "--q", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "m = 2" in out
    assert cli.main(["required-m", "--pmin", "0.5", "--q", "0.5",
                     "--dt", "1.0", "--tau", "0.5", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "T' = " in out
    # a worst grid point below 0.0005 must not print as 0.000
    assert cli.main(["required-m", "--pmin", "0.0004", "--q", "0.05"]) == 0
    out = capsys.readouterr().out
    plan = analytics.required_m(0.0004, 0.05)
    printed = out.split("worst grid point: p = ")[1].split(",")[0]
    assert float(printed) == plan.worst_grid_p


def test_cli_error_paths(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for method in ("theorem", "dp", "mc"):
        for p in ("1.5", "-0.2", "-0.0000000000001", "nan", "1/0", "0/0"):
            for exact in ([], ["--exact"]):
                assert cli.main(["dist", f"--p={p}", "--tmax", "5", "--method", method,
                                 *exact, "--out", str(out)]) == 2, (method, p, exact)
                assert "error:" in capsys.readouterr().err
                assert not out.exists()
    for p in ("1/0", "0/0", "nan", "1e-300", "1.000000000001", "-0.0000000000001"):
        assert cli.main(["curve", f"--p={p}", "--mmax", "4", "--out", str(out)]) == 2, p
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
    # 2 p^2 underflows, which the float theorem route rejects for both profiles
    assert cli.main(["dist", "--p=1e-200", "--tmax", "5", "--method", "theorem",
                     "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # sizes past the 47-bit address space: numpy refuses them before it
    # allocates, and the mc sampler's int32 positions refuse the cap first
    huge = str(10**14)
    for argv in (["curve", "--p", "0.3", "--mmax", huge],
                 *(["dist", "--p", "0.3", "--tmax", huge, "--method", method]
                   for method in ("theorem", "mc"))):
        assert cli.main([*argv, "--out", str(out)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.out == "", argv
        assert not out.exists()
    mats = tmp_path / "mats.json"
    cli.save_matrices(0.5 * HADAMARD, SIGMA_Z, mats)  # not unitary: no invariant p
    assert cli.main(["curve", "--matrices", str(mats), "--mmax", "4",
                     "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # an SVG that cannot be written takes the CSV written before it along
    assert cli.main(["curve", "--p", "0.3", "--mmax", "4", "--out", str(out),
                     "--svg", str(tmp_path / "missing" / "x.svg")]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write" in captured.err and captured.out == ""
    assert not out.exists()
    for timing in (["--dt", "-1", "--tau", "0.5"], ["--dt", "nan", "--tau", "0.5"],
                   ["--dt", "1", "--tau", "inf"], ["--s", "-3"], ["--dt", "1"],
                   ["--tau", "0.5"]):
        assert cli.main(["required-m", "--pmin", "0.5", "--q", "0.5", *timing]) == 2, timing
        captured = capsys.readouterr()
        assert "error:" in captured.err and "m = " not in captured.out
    # 1e-4: no budget up to REQUIRED_M_CAP reaches q (about 1 s)
    for pmin in ("0", "1e-300", "1e-4"):
        assert cli.main(["required-m", "--pmin", pmin, "--q", "0.95"]) == 2, pmin
        captured = capsys.readouterr()
        assert "error:" in captured.err and "m = " not in captured.out

    # one stream past the bound; spawning streams allocates per stream
    workers = str(walk.MAX_STREAMS + 1)
    assert cli.main(["dist", "--p", "0.5", "--tmax", "5", "--method", "mc",
                     "--workers", workers, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    cli.save_matrices(HADAMARD, SIGMA_Z, mats)
    sim = tmp_path / "sim.json"
    assert cli.main(["simulate", "--matrices", str(mats), "--m", "4", "--runs", "10",
                     "--seed", "1", "--workers", workers, "--out", str(sim)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not sim.exists()
    # W^{-104} of W = diag(1, 1e-3) overflows: the stats would read Infinity and NaN
    con = tmp_path / "con.json"
    cli.save_matrices(0.9 * haar_unitary(np.random.default_rng(5)), np.diag([1, 1e-3]), con)
    assert cli.main(["simulate", "--matrices", str(con), "--s", "104", "--m", "40",
                     "--runs", "4000", "--seed", "3", "--contraction", "--out", str(sim)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "s = 104" in captured.err
    assert captured.out == "" and not sim.exists()

    # an instance of more words than mat2.WORD_CHUNK is rejected before any draw
    assert cli.main(["verify", "--trials", "2", "--smax", "4095"]) == 2
    captured = capsys.readouterr()
    assert "error: --smax 4095 and --nmax 6" in captured.err and captured.out == ""

    # a negative seed is named in the error, before any output
    for argv, path in ((["verify", "--trials", "2"], None),
                       (["dist", "--p", "0.5", "--tmax", "5", "--method", "mc",
                         "--out", str(out)], out),
                       (["simulate", "--matrices", str(mats), "--m", "4", "--runs", "10",
                         "--out", str(sim)], sim)):
        assert cli.main([*argv, "--seed", "-1"]) == 2, argv
        captured = capsys.readouterr()
        assert "error: " in captured.err and "seed must be nonnegative, got -1" in captured.err
        assert captured.out == ""
        assert path is None or not path.exists()


@pytest.mark.parametrize("flag", ["--dt", "--tau"])
def test_cli_simulate_has_no_timing_flags(tmp_path, capsys, flag):
    mats = tmp_path / "mats.json"
    cli.save_matrices(HADAMARD, SIGMA_Z, mats)
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--matrices", str(mats), "--m", "4", "--runs", "10",
                  "--seed", "1", flag, "1.0", "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-3"],
                                   ["--smax", "-1"], ["--nmax", "-1"],
                                   ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"]])
def test_cli_verify_rejects_empty_checks(capsys, flags):
    assert cli.main(["verify", "--trials", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("content", [
    {"V": [[1, 0], [0, 1]], "W": [[1, 0], [0, 1]]},   # 2-level nesting
    {"V": [[[1, 0], [0, 0]], [[0, 0]]], "W": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    {"V": "H", "W": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
])
def test_cli_rejects_malformed_matrices(tmp_path, capsys, content):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps(content))
    assert cli.main(["simulate", "--matrices", str(mats), "--m", "4", "--runs", "10",
                     "--seed", "1", "--out", str(tmp_path / "s.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["curve", "--matrices", str(mats), "--mmax", "4",
                     "--out", str(tmp_path / "c.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["theorem", "dp", "mc"])
def test_cli_dist_rejects_nonpositive_tmax(tmp_path, capsys, method):
    out = tmp_path / "d.csv"
    assert cli.main(["dist", "--p", "0.5", "--tmax", "0", "--method", method,
                     "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
