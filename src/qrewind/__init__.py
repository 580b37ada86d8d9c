"""qrewind: simulator and analytics for the adaptive qubit-rewinding protocol."""

from .analytics import (HittingDist, SuccessCurve, TrimPlan, cumulative_success,
                        first_passage_dist, first_passage_pmf, gen_binomial,
                        genfunc_closed, genfunc_series, required_m, return_pmf)
from .emitters import emit
from .engine import (ProtocolConfig, RunOutcome, RunRecord, Statistics,
                     monte_carlo, run_quantum_protocol, success_curve)
from .mat2 import (HADAMARD, IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z,
                   ProportionalityReport, branch_prob_invariant, branch_prob_state,
                   check_proportional, commutator, ginibre, haar_unitary, is_contraction,
                   is_unitary, shared_eigenvector_pair, verify_word_identities)
from .qgate import BranchOutcome, QBranches, apply_q, random_state, sample_branch
from .walk import (Row, TrimmedOutcome, dp_first_passage, dp_return_time,
                   run_walk_protocol, sample_first_passage_batch, sample_return_batch)

__version__ = "0.1.0"
