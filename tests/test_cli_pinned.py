"""Pinned bytes of the CLI's file and stdout outputs.

dist (theorem, dp and mc), curve and required-m are deterministic functions
of their arguments (dist --method mc of its seed and workers too), so their
outputs are held here byte for byte: a refactor that keeps behaviour must
keep these digests. The mc cases walk streams that stay above walk.LANES
live runs, that fall below it, and that start below it. simulate is left
out; its fidelities depend on BLAS, and criterion 9 and the pinned
campaigns of test_engine guard it.
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
    # streams of 200000 runs: finished runs are compacted away at every step
    ("dist", "--p", "0.3", "--tmax", "61", "--method", "mc", "--runs", "400000",
     "--seed", "7", "--workers", "2"):
        "09023ebc0c3a0ca158baf9efa0180b94f0e978e92c72529ead1eb2e6b2f6d874",
    # streams of 4000 runs: compacted, then below LANES live runs, walked in
    # tiles that never halve before the cap
    ("dist", "--p", "0.3", "--tmax", "61", "--method", "mc", "--runs", "8000",
     "--seed", "7", "--workers", "2"):
        "1237dbf87f23337ea862afaf62fa21a667dd03317fea21be9c0e80c77c61726e",
    # streams of 750 runs: below LANES from the first step, walked in tiles
    # that halve
    ("dist", "--p", "0.3", "--tmax", "61", "--method", "mc", "--runs", "1500",
     "--seed", "7", "--workers", "2"):
        "77f4661a03af1784d03abc5396027ffbc17bb070b16c057962cdc0357b6ecda2",
}

CURVE_CSV_DIGEST = "bb462792bba5a022417871341fbe76290eb65d4c22c4de353d3e25c6edb10380"
CURVE_SVG_DIGEST = "f66840a55164c54de192d35732f2918642d76628fae47c4acc6392122fd56ae6"

# (csv, svg) digests of curve --p P --mmax M: the bench's 10000-point
# polylines; p = 0 with one point, where both axes fall back to [v, v + 1];
# p = 1, whose full-return curve steps from 0 to 1 at m = 2
CURVE_DIGESTS = {
    ("97/307", "10000"): ("03904faeca2bf3189a7cfad668402352134694b8e986c65851cf0e5a02ef4d45",
                          "b58968bbb12ae9849f9dcb3d8ae3a459dd54f1e53bfead2becf7aaa1c033551c"),
    ("0", "1"): ("5430c981321621096a29e12981ac4ca1db6014e7b5ab53b62773d22b3e3fa218",
                 "02eed75222ded8379925b5613b9fba23c9218e06181edffeaa07ffab297d42ec"),
    ("1", "7"): ("81e25e64ec7619a2488ff71ac5ece921f895e7fefc0fed2f2bc19aed5549e555",
                 "5178257a7342670d39372f16635316547e47a1407e5b8cd1b813d9233c2e658e"),
}

# the three p_min strata of the benchmark's required-m jobs, an exact first
# term, and the running-time bound
REQUIRED_M_STDOUT = {
    ("--pmin", "0.005", "--q", "0.9495"):
        "m = 198456\n"
        "worst grid point: p = 0.0050000000000000001, success = 0.94950002156649882\n",
    ("--pmin", "0.016", "--q", "0.95"):
        "m = 62566\n"
        "worst grid point: p = 0.016, success = 0.95000021729198036\n",
    ("--pmin", "0.05", "--q", "0.9505"):
        "m = 19722\n"
        "worst grid point: p = 0.050000000000000003, success = 0.95050073736097307\n",
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


@pytest.mark.parametrize("p, mmax", list(CURVE_DIGESTS))
def test_curve_long_and_flat_bytes_pinned(tmp_path, p, mmax):
    csv, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
    assert cli.main(["curve", "--p", p, "--mmax", mmax,
                     "--out", str(csv), "--svg", str(svg)]) == 0
    assert (_digest(csv), _digest(svg)) == CURVE_DIGESTS[p, mmax]


@pytest.mark.parametrize("flags", list(REQUIRED_M_STDOUT))
def test_required_m_stdout_pinned(capsys, flags):
    assert cli.main(["required-m", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == REQUIRED_M_STDOUT[flags]
    assert captured.err == ""
