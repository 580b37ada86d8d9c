import json
from fractions import Fraction

import numpy as np
import pytest

from qrewind import cli
from qrewind import emitters as emit
from qrewind.analytics import SuccessCurve, first_passage_dist
from qrewind.engine import ProtocolConfig, monte_carlo
from qrewind.mat2 import HADAMARD, SIGMA_Z


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


def test_hitting_dist_exact_json(tmp_path):
    dist = first_passage_dist(Fraction(1, 2), 3)
    path = tmp_path / "dist.json"
    emit.emit(dist, "json", path, exact=True)
    data = json.loads(path.read_text())
    assert data["backing"] == "rational"
    assert data["probs"] == ["1/2", "0/1", "1/8"]
    # without exact, rational values degrade to floats
    emit.emit(dist, "json", path)
    assert json.loads(path.read_text())["probs"] == [0.5, 0.0, 0.125]


def test_empty_curve_header_only(tmp_path):
    path = tmp_path / "curve.csv"
    emit.emit(SuccessCurve(), "csv", path)
    assert path.read_text() == "m,prob_commutator,prob_full\n"


def test_statistics_json_roundtrip(tmp_path):
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=4, seed=3,
                                       runs=300))
    path = tmp_path / "stats.json"
    emit.emit(stats, "json", path)
    assert emit.parse_statistics_json(path.read_text()) == stats


def test_svg_structure(tmp_path):
    curve = SuccessCurve(m=[1, 2, 3], prob_commutator=[0.5, 0.5, 0.625],
                         prob_full=[0.0, 0.25, 0.25])
    path = tmp_path / "curve.svg"
    emit.emit(curve, "svg", path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert 'width="800"' in text and 'height="600"' in text
    assert ">m</text>" in text and "success probability" in text

    dist_path = tmp_path / "dist.svg"
    emit.emit(first_passage_dist(0.5, 9), "svg", dist_path)
    assert dist_path.read_text().count("<polyline") == 1


def test_statistics_csv_and_svg(tmp_path):
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, m=4, seed=4,
                                       runs=400))
    csv_path = tmp_path / "stats.csv"
    emit.emit(stats, "csv", csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "field,value"
    assert lines[1] == "n_runs,400"
    assert any(line.startswith("q_count_2,") for line in lines)

    svg_path = tmp_path / "stats.svg"
    emit.emit(stats, "svg", svg_path)
    assert svg_path.read_text().count("<polyline") == 1


def test_emit_rejects_unknown_combo(tmp_path):
    with pytest.raises(ValueError):
        emit.emit(object(), "csv", tmp_path / "x.csv")


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


def test_cli_dist_methods_agree(tmp_path):
    out_theorem = tmp_path / "t.csv"
    out_dp = tmp_path / "d.csv"
    assert cli.main(["dist", "--p", "0.5", "--tmax", "21",
                     "--method", "theorem", "--out", str(out_theorem)]) == 0
    assert cli.main(["dist", "--p", "0.5", "--tmax", "21",
                     "--method", "dp", "--out", str(out_dp)]) == 0
    rows_t = out_theorem.read_text().splitlines()[1:]
    rows_d = out_dp.read_text().splitlines()[1:]
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


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["dist", "--p", "1.5", "--tmax", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["required-m", "--pmin", "0", "--q", "0.5"]) == 2


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
