"""The package names that the benchmark harness in bench/ reads still resolve.

The harness wraps functions by module attribute, reads a cache counter in
every workload and checks outputs after the timed loop, so a name that
leaves the package ends a benchmark run; these tests fail first.
"""
import sys
from pathlib import Path

import numpy as np

from qrewind import analytics, cli, walk
from qrewind.engine import ProtocolConfig, monte_carlo
from qrewind.mat2 import HADAMARD, SIGMA_Z, branch_prob_invariant

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from qbench import checks, runner  # noqa: E402


def test_every_trace_target_resolves():
    targets = runner.trace_targets(runner.LayerCounters())
    assert targets
    for name, owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), name


def test_counters_and_checks_read_by_the_harness_resolve():
    assert analytics.gen_binomial.cache_info().maxsize is None
    # P(T = 5) = p (1 - p)^2 (2 p^2 - 2 p + 1)
    np.testing.assert_allclose(walk.dp_first_passage(0.3, 5).as_floats(),
                               [0.3, 0, 0.147, 0, 0.147 * 0.58])
    assert cli.build_parser().parse_args(["required-m", "--pmin", "0.5", "--q", "0.5"])


def test_statistics_carry_the_keys_check_stats_reads():
    p = branch_prob_invariant(HADAMARD, SIGMA_Z)
    stats = monte_carlo(ProtocolConfig(v=HADAMARD, w=SIGMA_Z, s=1, m=12, seed=1,
                                       runs=2000)).to_dict()
    assert {"n_runs", "n_success", "min_fidelity", "success_rate"} <= stats.keys()
    prm = {"runs": 2000, "mode": "unitary", "p": p, "m": 12}
    assert checks.check_stats(stats, prm, analytics) == []
