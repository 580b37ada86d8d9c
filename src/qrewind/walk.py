"""The two-row ladder walk underlying the protocol's word problem.

Nodes are (row, position); a vertical move toggles the row in place, a
horizontal move runs rightward on the lower row and leftward on the upper
row. Phase 1 starts at the lower origin and ends on first arrival at the
upper origin (the accumulated operator word has then been reduced to the
commutator); phase 2 continues the same graph until the walk closes back at
the lower origin. In phase 1 the word at (lower, pos) reduces to y^pos and
at (upper, pos) to x y^pos, up to a scalar, with x = WV - VW and
y = VW + WV. This module provides one forward DP for both hitting times
(exact through integer masses for rational p) and its batched Monte Carlo
twin, the seed-to-streams split shared with the engine's lane kernel, and
the scalar trimmed two-phase controller at the classical level.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .analytics import HittingDist, as_prob

DP_HORIZON_GUARD = 10**4


class Row(Enum):
    LOWER = "lower"
    UPPER = "upper"


# ── Monte Carlo sampling ─────────────────────────────────────────────────

MAX_STREAMS = 1024  # bound on workers: SeedSequence.spawn allocates per stream

# Runs advanced together. engine.monte_carlo's amplitude kernel works in
# blocks of at most LANES runs, whose width fixes the order of the RNG
# draws. Both lane kernels test for finished runs only on steps of the
# right parity: row + pos has the parity of the step count t, so the upper
# origin is reached only at odd t and the lower one only at even t. Below
# LANES lanes both shed finished runs by one rule, halving: once at most
# half of a block's lanes are live, it keeps them, in order, in its first
# width >> k lanes. Each draw is one uniform per lane the block holds, so
# the draws after a halving depend on it. _ladder_mc compacts finished
# runs away outright while at least LANES stay live; below that it walks
# in tiles of TILE uniforms and halves between tiles only. The floor and
# the halving are there for memory: numpy keeps up to 7 freed data
# buffers of each size under 1 KiB for reuse, so arrays that shrink
# through every size below 1024 lanes leave that cache filled and grow the
# resident set. On a 2-core VM (Python 3.11.7, numpy 2.4.6), freeing seven
# bool arrays of each size 1..1023 grew the RSS by 3.5 MB and sizes
# 1024..2046 by 0; 400 classical campaigns of 2000 runs, m = 200 and 2
# streams grew it by 2.9 MB when compacting all the way down and by
# 0.08 MB with the floor, and by 0 with halving below the floor in place
# of masking (peak 35.4 MB either way). Halving visits only the sizes
# width >> k, about ten per width, so the buffers it leaves cached stay
# bounded: 480 jobs of the bench's mc-protocol workload, results
# discarded, peaked at 38.7 MB of RSS against 38.3 MB with blocks that
# never shrink.
LANES = 1024

# Uniforms one tile of _ladder_mc draws below LANES lanes: TILE // width
# steps at a time, in one rng.random call. The draw, the comparison with p
# and the steps' increments and signs are paid once per tile, so each step
# is left with two array updates and, at the target's parity, the hit
# test. 8192 float64 uniforms are 64 KiB, under glibc's 128 KiB mmap
# threshold. On a 2-core VM (Python 3.11.7, numpy 2.4.6; medians of five
# interleaved rounds), 2000-run classical campaigns at m = 200 on 2
# streams took 1.94, 1.76, 1.68, 1.61 and 1.86 ms with tiles of 2048,
# 4096, 8192, 16384 and 32768 uniforms, and a 3000-run stream walked to
# 4000 steps 18.1, 15.2, 14.0, 13.5 and 16.6 ms. 16384 is 128 KiB, on the
# threshold, and 32768 took 2212 minor page faults per 20 campaigns
# where the others took none.
TILE = 8192

# Runs of one stream that _ladder_mc walks at a time. A lane costs 15 to
# 18 bytes at the peak of a step (its int32 position, the step's uniforms
# and the masks derived from them; tracemalloc gave 15.4 bytes per run
# for first passages and 17.9 for returns at 2e5 and 4e5 runs), so a chunk
# bounds the sampler's working set near 19 MB whatever the run count. A
# module constant, not an option, for the same reason as LANES.
CHUNK = 2**20


def as_int(value, name: str) -> int:
    """value as a Python int (operator.index); ValueError naming it when not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def halve(live: np.ndarray, n_live: int) -> np.ndarray | None:
    """Lanes a block keeps by the halving rule (see LANES); None while over half are live.

    The kept lanes hold every live one, in order, so the block's next draw
    is one uniform per kept lane.
    """
    width = live.size
    if 2 * n_live > width:
        return None
    return np.argsort(~live, kind="stable")[:width >> (width // n_live).bit_length() - 1]


def streams(seed: int, runs: int, workers: int):
    """Yield (rng, n) for each of `workers` RNG streams in order.

    The streams are spawned from one master SeedSequence; runs are split in
    index order, the first runs % workers streams taking one extra run, so
    results are bit-identical for a fixed (seed, workers) pair on any host.
    """
    seed, runs, workers = (as_int(seed, "seed"), as_int(runs, "runs"),
                           as_int(workers, "workers"))
    if runs < 1 or not 1 <= workers <= MAX_STREAMS:
        raise ValueError(f"runs must be positive and workers in [1, {MAX_STREAMS}]")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    base, extra = divmod(runs, workers)
    for idx, stream in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        yield np.random.default_rng(stream), base + (idx < extra)


def chunks(seed: int, runs: int, workers: int, size: int):
    """Yield (rng, n) for each block of at most `size` runs, stream by stream.

    A stream of streams(seed, runs, workers) is cut into consecutive blocks
    that all draw from that stream's generator, in order.
    """
    for rng, n in streams(seed, runs, workers):
        for start in range(0, n, size):
            yield rng, min(size, n - start)


@dataclass
class FirstPassageSample:
    """Histogram of sampled hitting times, times over cap censored."""

    counts: np.ndarray  # counts[t] for t = 1..cap (index 0 unused)
    timeouts: int
    runs: int

    def empirical_pmf(self) -> np.ndarray:
        return self.counts / self.runs


def _position_dtype(cap: int):
    """Integer type of the signed positions of a walk of at most cap steps.

    |h| <= t <= cap, so int32 holds them unless cap reaches 2^31.
    """
    return np.int32 if cap <= np.iinfo(np.int32).max else np.int64


def _ladder_mc(p, runs: int, cap: int, seed: int, workers: int,
               target_row: Row) -> FirstPassageSample:
    """Monte Carlo twin of _ladder_dp: sampled first hits of an origin.

    Each stream of streams(seed, runs, workers) walks its runs in chunks of
    at most CHUNK, one after another from the stream's generator. A chunk
    walks its runs together as lanes, each holding its signed position h
    (pos on the lower rail, -pos on the upper one): a horizontal step adds
    1 to h and a vertical step negates it, applied as one multiply by
    +-1. The rail need not be stored, because row + pos has the parity of
    the step count t: a lane with h = 0 sits at the upper origin at odd t
    and at the lower one at even t. So only steps of the target's parity
    test for hits, and step t counts the live lanes with h = 0 into
    counts[t]. While at least LANES lanes stay live, each step draws one
    uniform per lane and finished lanes are compacted away. Below that the
    chunk walks in tiles: one rng.random((k, width)) call gives the next
    k = TILE // width steps of its `width` lanes (fewer at the cap), and
    finished lanes stay in place, masked, until the tile ends and halve
    sheds them. A chunk whose last run ends inside a tile stops there, and
    the rest of that tile's draws are spent: the next chunk of the stream
    draws after them. Runs still live after step cap are timeouts. The
    p = 0 walk drifts right forever, so every run times out. A stream of at
    most CHUNK runs is one chunk, so its draws, and the sample, do not
    depend on CHUNK.
    """
    p = float(as_prob(p))
    cap = as_int(cap, "cap")
    parity = 1 if target_row is Row.UPPER else 0
    dtype = _position_dtype(cap)
    counts = np.zeros(cap + 1, dtype=np.int64)
    timeouts = 0
    for rng, n_live in chunks(seed, runs, workers, CHUNK):
        h = np.zeros(n_live, dtype=dtype)
        live = np.ones(n_live, dtype=bool) if n_live < LANES else None
        t = 0
        while n_live >= LANES and t < cap:  # compacted steps
            t += 1
            vert = rng.random(h.size) < p
            h += ~vert
            h *= 1 - 2 * vert.view(np.int8)
            if t & 1 != parity:
                continue
            hit = h == 0
            n_hit = int(np.count_nonzero(hit))
            if not n_hit:
                continue
            counts[t] += n_hit
            n_live -= n_hit
            if n_live >= LANES:
                h = h.compress(~hit)
            else:
                live = ~hit
        while n_live and t < cap:  # tiles
            keep = halve(live, n_live)
            if keep is not None:
                h, live = h.take(keep), live.take(keep)
            k = min(TILE // h.size, cap - t)
            vert = rng.random((k, h.size)) < p
            inc = (~vert).astype(dtype)  # a horizontal step adds 1
            sign = 2 * inc
            sign -= 1  # and a vertical one negates
            for i in range(k):
                h += inc[i]
                h *= sign[i]
                if t + i & 1 == parity:  # step t + i + 1 cannot hit
                    continue
                hit = h == 0
                hit &= live
                n_hit = int(np.count_nonzero(hit))
                if n_hit:
                    counts[t + i + 1] += n_hit
                    n_live -= n_hit
                    if not n_live:
                        break
                    live ^= hit
            t += k
        timeouts += n_live
    return FirstPassageSample(counts=counts, timeouts=timeouts, runs=runs)


def sample_first_passage_batch(p: float, runs: int, cap: int, seed: int,
                               workers: int = 1) -> FirstPassageSample:
    """Sampled first-passage times to the top origin, by _ladder_mc.

    Deterministic for a fixed (seed, workers) pair.
    """
    return _ladder_mc(p, runs, cap, seed, workers, Row.UPPER)


def sample_return_batch(p: float, runs: int, cap: int, seed: int,
                        workers: int = 1) -> FirstPassageSample:
    """Sampled return times to the lower origin, by _ladder_mc.

    A return within cap steps is a success of the classical trimmed
    protocol with gate budget cap; deterministic for a fixed (seed, workers)
    pair.
    """
    return _ladder_mc(p, runs, cap, seed, workers, Row.LOWER)


# ── Exact DP oracle ──────────────────────────────────────────────────────

def _ladder_dp(p, t_max: int, target_row: Row) -> HittingDist:
    """Forward DP of the walk from the lower origin to an absorbing origin.

    Runs on the whole ladder, positions -t_max..t_max plus a zero guard cell
    at each end; step t updates only the band -t..t that the walk can reach.
    Each step's inflow to the origin of target_row is that step's pmf value
    and then leaves the live mass. Rational p = a/b keeps integer masses
    scaled by b^t (weights a vertical, b - a horizontal), so every entry is
    exact; float p runs the same updates in float64, where every term is
    nonnegative, so nothing cancels.
    """
    if t_max < 1 or t_max > DP_HORIZON_GUARD:
        raise ValueError(f"t_max must lie in [1, {DP_HORIZON_GUARD}]")
    p = as_prob(p)
    rational = isinstance(p, Fraction)
    if rational:
        vert, horiz, dtype = p.numerator, p.denominator - p.numerator, object
    else:
        vert, horiz, dtype = p, 1.0 - p, float
    origin = t_max + 1
    lower, upper = np.zeros((2, 2 * t_max + 3), dtype=dtype)
    target = upper if target_row is Row.UPPER else lower
    lower[origin] = 1
    pmf = []
    for t in range(1, t_max + 1):
        lo, hi = origin - t, origin + t + 1
        lower[lo:hi], upper[lo:hi] = (horiz * lower[lo - 1:hi - 1] + vert * upper[lo:hi],
                                      vert * lower[lo:hi] + horiz * upper[lo + 1:hi + 1])
        pmf.append(target[origin])
        target[origin] = 0
    if rational:
        return HittingDist([Fraction(v, p.denominator ** t) for t, v in enumerate(pmf, 1)])
    return HittingDist([float(v) for v in pmf])


def dp_first_passage(p, t_max: int) -> HittingDist:
    """Exact pmf of the first passage to the top origin, by forward DP.

    Rational p (int/Fraction) gives exact Fractions, float p floats.
    """
    return _ladder_dp(p, t_max, Row.UPPER)


def dp_return_time(p, t_max: int) -> HittingDist:
    """Exact pmf of the full return to the lower origin, by forward DP.

    Every closing trajectory passes through the top origin, so this
    independently cross-checks the convolution route to the return
    distribution.
    """
    return _ladder_dp(p, t_max, Row.LOWER)


# ── Trimmed two-phase controller ─────────────────────────────────────────

@dataclass(frozen=True)
class TrimmedOutcome:
    """Result of one trimmed protocol run at the classical walk level."""

    success: bool
    q_count: int
    phase1_steps: int
    phase2_steps: int


def run_walk_protocol(p: float, m: int, rng: np.random.Generator) -> TrimmedOutcome:
    """Run the two-phase walk with a total budget of m gate uses.

    Phase 1 walks from the lower origin until absorption at the top origin;
    phase 2 continues the same graph until the walk closes at the lower
    origin. Success means both phases complete within m steps in total (the
    rewind waiting period costs no gates).
    """
    if m < 2:
        raise ValueError("gate budget must be at least 2")
    p = float(as_prob(p))
    steps = 0
    row, pos = 0, 0
    phase1 = None
    while steps < m:
        steps += 1
        if rng.random() < p:
            row ^= 1
        else:
            pos += 1 - 2 * row
        if phase1 is None:
            if row == 1 and pos == 0:
                phase1 = steps
        elif row == 0 and pos == 0:
            return TrimmedOutcome(success=True, q_count=steps,
                                  phase1_steps=phase1,
                                  phase2_steps=steps - phase1)
    phase1_steps = phase1 if phase1 is not None else m
    return TrimmedOutcome(success=False, q_count=m, phase1_steps=phase1_steps,
                          phase2_steps=m - phase1_steps)
