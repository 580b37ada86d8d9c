"""Pinned bytes of the analytic CLI outputs.

dist (theorem and dp), curve and required-m are deterministic functions of
their arguments, so their outputs are held here byte for byte: a refactor
that keeps behaviour must keep these digests. simulate and dist --method mc
are left out; they depend on RNG streams (and simulate on BLAS), and
criterion 9 and test_amplitude_campaign_pinned_result guard them.
"""
import hashlib

import pytest

from qrewind import cli

FILE_DIGESTS = {
    ("dist", "--p", "0.3", "--tmax", "61", "--method", "theorem"):
        "afe74ecee802666b38556f125a8df258342b08a4d84ee044588b9a6eb893aac4",
    ("dist", "--p", "0.3", "--tmax", "61", "--method", "dp"):
        "c2079fc50c07852255324dff99ee7a0f2f58d1142b9be7280aa692e58b558213",
    ("dist", "--p", "1e-7", "--tmax", "61", "--method", "theorem"):
        "fbdde32b790be09770c898f9220d0851c35615ec8d8f37e326c70d03f026de38",
    ("dist", "--p", "1e-7", "--tmax", "61", "--method", "dp"):
        "91c6f31a1e6d374834212d0a88144fbb482d216487df41426c63a60f4ee9d06c",
    ("dist", "--p", "97/307", "--tmax", "41", "--exact", "--method", "theorem"):
        "b6fe263bec489cd7f840b943efd53302d0ac8478d7444f9a9f88c7aaa04a7e9c",
    ("dist", "--p", "97/307", "--tmax", "41", "--exact", "--method", "dp"):
        "b6fe263bec489cd7f840b943efd53302d0ac8478d7444f9a9f88c7aaa04a7e9c",
}

CURVE_CSV_DIGEST = "bb462792bba5a022417871341fbe76290eb65d4c22c4de353d3e25c6edb10380"
CURVE_SVG_DIGEST = "f66840a55164c54de192d35732f2918642d76628fae47c4acc6392122fd56ae6"

REQUIRED_M_STDOUT = {
    ("--pmin", "0.005", "--q", "0.9495"):
        "m = 198456\n"
        "worst grid point: p = 0.0050000000000000001, success = 0.94950002156649882\n",
    ("--pmin", "1e-3", "--q", "1e-6"):
        "m = 2\n"
        "worst grid point: p = 0.001, success = 9.9999999999999995e-07\n",
    ("--pmin", "0.5", "--q", "0.6", "--dt", "1", "--tau", "0.5", "--s", "3"):
        "m = 14\n"
        "worst grid point: p = 0.5, success = 0.60723876953125\n"
        "T' = 24\n",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(FILE_DIGESTS))
def test_dist_bytes_pinned(tmp_path, capsys, argv):
    out = tmp_path / "dist.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert _digest(out) == FILE_DIGESTS[argv]


def test_curve_bytes_pinned(tmp_path, capsys):
    csv, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
    assert cli.main(["curve", "--p", "0.3", "--mmax", "200",
                     "--out", str(csv), "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == f"wrote {csv}\nwrote {svg}\n"
    assert _digest(csv) == CURVE_CSV_DIGEST
    assert _digest(svg) == CURVE_SVG_DIGEST


@pytest.mark.parametrize("flags", list(REQUIRED_M_STDOUT))
def test_required_m_stdout_pinned(capsys, flags):
    assert cli.main(["required-m", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == REQUIRED_M_STDOUT[flags]
    assert captured.err == ""
