"""Monte Carlo samplers for the layered site model.

A horizon-N partial sum is a linear functional of independent site
variables: per block l and site offset m the coefficient is
g_l(m) = sqrt(N_l or 1) * C_l(m), where C_l is the piecewise-affine
profile computed by the engine and the sqrt(N_l) factor applies to
three-valued (spike) blocks only.  Spike sites take values -1/0/+1 with
hit probability 1/N_l split evenly between signs; Gaussian-block sites
are standard normal.  Either way each site contributes unit variance
times C_l(m)^2, so the variance of S_N is exactly sigma_sq(N).

The sampler aggregates, exactly in distribution.  A spike block's sites
hit independently with one probability p = 2^-h <= 1/2, so by
superposition the hits over any M of them are Binomial(M, p), on a
uniform subset of the M.  Each spike layer thus draws its light sites
as one pool per chunk: its sloped segments and every flat segment
shorter than the block horizon 2^h (``length >> h == 0``: under one hit
per sample expected).  Over the chunk's rows x L (row, site) pairs the
pool draws one hit count, then distinct uniform keys row * L + site,
and a fair sign per hit; each site's segment comes by ``searchsorted``
and its affine value is summed per row by ``bincount``.  A repeated key
is redrawn, later slot first: which slots are redrawn depends only on
which draws are equal, never on their values, so the procedure commutes
with every permutation of the keys and the key set is a uniform subset
of its size.  A count and a uniform subset of that size are exactly iid
Bernoulli(p) sites.  The rows go in blocks within numpy's 2^63 - 1
binomial trials, one block unless L reaches 2^51, all from the chunk's
stream.  A flat segment expecting a hit or more keeps its signed count
(hits, then Binomial(hits, 1/2) positive ones), O(1) per sample where a
positional draw costs O(hits): at kmax 48, rho 2 and N = 2^31 one flat
segment expects 2^30 hits.  So does a short flat segment that would
take a pool row past 2^63 - 1 sites (from kmax 63 on), and one past
2^63 - 1 sites draws a Poisson count instead (the limit of its binomial
count, within its hit probability, below 2^-62, in total variation).
A plan's independent centred normals, its Gaussian blocks, the spike
segments expecting more than ``GAUSSIANIZE_HITS`` hits and the flat
copy's NORMAL atoms, sum to one normal, drawn last, with the exact
summed variance; the Berry-Esseen error of a spike segment's
replacement is below 0.6/sqrt(2^40) < 6e-7, far under every sampling
tolerance used here.

Every value is normalized, S_N / sqrt(b^2 N) with b^2 the engine's
``normalizer_sq``: each entry point takes one ``ExactMoments`` and reads
the parameters as ``moments.params``.  The plan reads each block's
source directly.  Every horizon is dyadic and passed as its exponent
log2_n, and 2^log2_n is built only up to the desk cap.  There a full
sum reads the block's ``ExactMoments.profiles`` entry segment by
segment; beyond it, each block's normalized ``block_var_over_n`` joins
the one normal, so values stay finite floats.  The flat copy
(``APPROX_IID_SUM``, ``flat_copy``) gives every site of a block the
block's sub-horizon mass: the sampler draws it and ``laws.exact_law``
realizes its law, and both take a spike block's regime from
``flat_regime`` of its expected hits: nothing up to 2^NEGLIGIBLE_LOG2, a
signed count on the atom's lattice step below 2^GAUSSIANIZE_LOG2
(binomial on the desk, its Poisson limit beyond), one normal from
there.  The sampler's independent oracle, literal per-coordinate draws
at small scales, is the tests' ``site_sample_batch``.

Reproducibility: all randomness comes from counter-based Philox streams
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
one per plan op and fixed-size chunk, keyed by (seed, op's lane, chunk
index).  A stream is its key and a counter from zero, so a batch builds
one Generator and re-keys it for every op of every chunk: the bits of a
fresh stream, without a fresh Generator per stream.  numpy.random is
first loaded by the first stream.  Each op takes exact draws from its
stream through numpy's Generator: ``standard_normal`` for a normal,
``binomial`` (BTPE or inversion, Kachitvichyanukul & Schmeiser 1988)
and ``poisson`` for hit and sign counts, ``integers`` for a pool's hit
keys and signs.  The one departure from the exact laws is numpy's
binomial inversion branch (means below 30), which redraws counts
beyond ten standard deviations above the mean: under 4e-13 in total
variation per count.  No stream
is ever shared across chunks, so a chunk's values depend only on its
index and the arguments: the full chunks of a smaller batch are a byte
prefix of a larger one.  Batches are written in place: each chunk sums
its ops straight into its own slice of one preallocated array, so a
batch holds 8 bytes per sample plus one chunk's work arrays and one
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .blocks import BlockParity
from .engine import (BlockProfile, ExactMoments, block_var_over_n,
                     desk_horizon)
from .errors import ParamsError, charge, check_seed

CHUNK = 4096
GAUSSIANIZE_LOG2 = 40
GAUSSIANIZE_HITS = float(1 << GAUSSIANIZE_LOG2)
# a spike layer expecting at most 2^NEGLIGIBLE_LOG2 hits is taken as 0
NEGLIGIBLE_LOG2 = -50

_LANE_TAG = 0xA0761D6478BD642F


def _mix64(x: int) -> int:
    """splitmix64 finalizer; decorrelates derived seeds."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(seed: int, salt: int) -> int:
    return _mix64((seed & 0xFFFFFFFFFFFFFFFF) ^ _mix64(salt + 1))


def _stream(word0: int, word1: int) -> np.random.Generator:
    key = np.array([word0 & 0xFFFFFFFFFFFFFFFF,
                    word1 & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, word0: int, word1: int) -> None:
    """Restart ``rng`` as a fresh ``_stream(word0, word1)``: the new key,
    a zero counter, an empty buffer and no spare 32-bit half.  All else
    the Generator keeps is its binomial set-up, a function of the
    binomial's (n, p) alone."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (word0 & 0xFFFFFFFFFFFFFFFF,
                          word1 & 0xFFFFFFFFFFFFFFFF)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}


class SampleKind(Enum):
    FULL_SN = "FULL_SN"
    APPROX_IID_SUM = "APPROX_IID_SUM"


# ---------------------------------------------------------------------------
# Batches

@dataclass
class SampleBatch:
    seed: int
    log2_n: int
    count: int
    kind: SampleKind
    values: np.ndarray


# ---------------------------------------------------------------------------
# Aggregate sampler

class FlatRegime(Enum):
    """How a spike block's flat copy is drawn, and its law realized."""

    ZERO = "ZERO"        # at most 2^NEGLIGIBLE_LOG2 expected hits
    COUNT = "COUNT"      # a signed hit count
    NORMAL = "NORMAL"    # from 2^GAUSSIANIZE_LOG2 expected hits


def flat_regime(log2_hits: float) -> FlatRegime:
    """The regime of a flat copy expecting 2^log2_hits hits, shared by
    the sampler and ``laws.finite_law``."""
    if log2_hits <= NEGLIGIBLE_LOG2:
        return FlatRegime.ZERO
    if log2_hits < GAUSSIANIZE_LOG2:
        return FlatRegime.COUNT
    return FlatRegime.NORMAL


@dataclass(frozen=True)
class LatticeAtom:
    """One three-valued block's signed-count component of the flat copy.

    ``trials`` sites each spike with probability ``hit_prob`` and carry a
    fair sign; each spike moves the sum by one ``lattice_scale`` step.
    ``trials`` is None beyond the desk cap, where only ``log2_trials``
    is kept.  ``lattice_scale`` and ``hit_prob`` may underflow to 0.0
    (or overflow to inf) at extreme horizons; the log2 fields carry the
    exact sizes and ``var_share`` the component's normalized variance.
    """

    lattice_scale: float
    trials: int | None
    hit_prob: float
    log2_trials: float
    log2_hit: int
    var_share: float

    @property
    def log2_mean_hits(self) -> float:
        return self.log2_trials + self.log2_hit


def _horizon(moments: ExactMoments, log2_n: int) -> tuple[int | None, float]:
    """``desk_horizon(log2_n)`` and b^2 there, which must be positive:
    every plan and the flat-copy law refuse a horizon here."""
    N = desk_horizon(log2_n)
    b_sq = moments.normalizer_sq(log2_n)
    if b_sq <= 0.0:
        raise ParamsError("normalization needs a horizon with at least "
                          "one sub-horizon scale", log2_n=log2_n)
    return N, b_sq


def flat_copy(moments: ExactMoments, log2_n: int
              ) -> list[tuple[float, LatticeAtom | None]]:
    """The normalized flat copy at the horizon N = 2^log2_n, per block in
    block order: its variance share and, for a three-valued block with
    sub-horizon mass, its lattice atom (None otherwise): a signed
    Binomial(N, 2^-h) count of steps mass / sqrt(b^2 2^(log2_n - h))."""
    N, b_sq = _horizon(moments, log2_n)
    b = math.sqrt(b_sq)
    out = []
    for blk in moments.params.blocks:
        mass = moments.block_mass(blk, log2_n)
        share = mass * mass / b_sq
        if blk.parity is BlockParity.GAUSSIAN or mass <= 0.0:
            out.append((share, None))
            continue
        h = blk.horizon_log2
        try:
            scale = (mass / b) * 2.0 ** (0.5 * (h - log2_n))
        except OverflowError:
            scale = math.inf
        out.append((share, LatticeAtom(scale, N, math.ldexp(1.0, -h),
                                       float(log2_n), -h, share)))
    return out


def _build_plan(moments: ExactMoments, log2_n: int, kind: SampleKind):
    """Fixed op layout for the aggregate sampler: one draw function per
    op, bound to the values it reads, called as ``draw(rng, size)`` on
    the op's own stream.  The plan's independent centred normals (its
    Gaussian blocks, the layers too heavy to count and the flat copy's
    NORMAL atoms) are one normal, drawn last, of the summed variance.

    An op's lane is its place in the plan, which depends only on
    (parameters, horizon, kind), never on the batch's count.
    """
    plan, variances = [], []
    if kind is SampleKind.APPROX_IID_SUM:
        for share, atom in flat_copy(moments, log2_n):
            regime = (FlatRegime.NORMAL if atom is None
                      else flat_regime(atom.log2_mean_hits))
            if regime is FlatRegime.NORMAL:
                variances.append(share)
            elif regime is FlatRegime.COUNT:
                # beyond the desk, the binomial count's Poisson limit
                plan.append(
                    partial(_draw_poisson, lam=2.0 ** atom.log2_mean_hits,
                            coef=atom.lattice_scale)
                    if atom.trials is None else
                    partial(_draw_flat, length=atom.trials,
                            hit_prob=atom.hit_prob, coef=atom.lattice_scale))
    else:
        N, b_sq = _horizon(moments, log2_n)
        for b in moments.params.blocks:
            if N is not None and b.parity is BlockParity.THREE_VALUED:
                ops, heavy_var = _spike_ops(moments.profiles(N)[b.index - 1],
                                            1.0 / math.sqrt(b_sq * float(N)))
                plan.extend(ops)
                variances.append(heavy_var)
                continue
            var = (block_var_over_n(moments.params, b, log2_n) if N is None
                   else moments.profiles(N)[b.index - 1].sum_pow(2) / N)
            variances.append(var / b_sq)
    plan.append(partial(_draw_normal, std=math.sqrt(math.fsum(variances))))
    return plan


def _spike_ops(prof: BlockProfile, inv_unit: float) -> tuple[list, float]:
    """A spike block's ops at a desk horizon, in units of 1/inv_unit, and
    the normalized variance of its segments too heavy to count.

    One pool holds the light sloped segments and the flat ones shorter
    than the block horizon 2^h (each expecting under one hit); a flat
    segment that expects a hit or more keeps its signed count."""
    h = prof.block.horizon_log2
    hit_prob = math.ldexp(1.0, -h)
    if hit_prob == 0.0:
        # The hit probability underflowed (horizon exponent beyond
        # 1074): no feasible batch ever sees a spike from this block,
        # so it contributes exactly zero to every sample.
        return [], 0.0
    # sqrt(2^h), finite for every h with a nonzero hit probability
    scale = math.ldexp(math.sqrt(2.0) if h & 1 else 1.0, h // 2) * inv_unit
    lengths = [hi - lo + 1 for lo, hi, _ in prof.segments]
    slopes = prof.slope.tolist()
    heavy, pooled, flat = [], [], []
    for i, (n, slope) in enumerate(zip(lengths, slopes)):
        if n * hit_prob > GAUSSIANIZE_HITS:
            heavy.append(i)
        elif slope != 0.0:
            pooled.append(i)
        else:
            flat.append(i)
    # a row of the pool stays within numpy's 2^63 - 1 binomial trials: a
    # short flat segment that would pass them (from kmax 63 on) keeps its
    # own count
    room = (1 << 63) - 1 - sum(lengths[i] for i in pooled)
    ops = []
    for i in flat:
        n, coef = lengths[i], scale * float(prof.v[i])
        if n >> h == 0 and n <= room:
            pooled.append(i)
            room -= n
        elif n >> 63:
            # past numpy's 2^63 - 1 trials the hit probability is below
            # 2^-62, and the Poisson count is within it in total variation
            ops.append(partial(_draw_poisson, lam=n * hit_prob, coef=coef))
        else:
            ops.append(partial(_draw_flat, length=n, hit_prob=hit_prob,
                               coef=coef))
    if pooled:
        pooled.sort()
        starts = np.cumsum([0] + [lengths[i] for i in pooled])
        # a flat segment's value is its level, whatever its offset; a
        # far-left flat segment's ends may pass int64
        shift = [prof.segments[i][0] - prof.segments[i][2] - start
                 if slopes[i] != 0.0 else 0
                 for i, start in zip(pooled, starts.tolist())]
        ops.append(partial(
            _draw_pool, starts=starts, hit_prob=hit_prob, coef=scale,
            affine=np.column_stack([prof.v[pooled], prof.slope[pooled]]),
            shift=np.array(shift, dtype=np.int64)))
    return ops, prof.sum_pow(2, heavy) * inv_unit * inv_unit


def _lane_key(seed: int, lane: int, chunk_idx: int) -> tuple[int, int]:
    """The two key words of one op's stream in one chunk."""
    return seed ^ _LANE_TAG, (lane << 32) | chunk_idx


def _distinct_keys(rng: np.random.Generator, bound: int,
                   count: int) -> np.ndarray:
    """``count`` distinct uniform int64 keys below ``bound``, drawn in
    bulk from one stream: a repeated key is redrawn, later slot first,
    until none is left, which keeps the key set a uniform subset (see
    the module docstring)."""
    keys = rng.integers(0, bound, size=count)
    while True:
        s = np.sort(keys)
        same = s[1:] == s[:-1]
        if not same.any():
            return keys
        # every slot holding a repeated key, in slot order, less the
        # first slot of each key
        slots = np.flatnonzero(np.isin(keys, s[1:][same]))
        _, first = np.unique(keys[slots], return_index=True)
        redo = np.delete(slots, first)
        keys[redo] = rng.integers(0, bound, size=redo.size)


def _draw_normal(rng, size, *, std):
    """The plan's one normal: its Gaussian blocks and heavy segments."""
    if std == 0.0:
        return 0.0
    return std * rng.standard_normal(size)


def _draw_flat(rng, size, *, length, hit_prob, coef):
    """A constant spike segment: only the signed hit count matters."""
    hits = rng.binomial(length, hit_prob, size)
    pos = rng.binomial(hits, 0.5)
    return coef * (2.0 * pos - hits)


def _draw_poisson(rng, size, *, lam, coef):
    """A beyond-cap spike layer's flat copy, or a spike segment past
    numpy's 2^63 - 1 binomial trials: Poisson(lam) hits, the limit of its
    binomial count, each with a fair sign."""
    hits = rng.poisson(lam, size)
    pos = rng.binomial(hits, 0.5)
    return coef * (2.0 * pos - hits)


def _draw_pool(rng, size, *, starts, affine, shift, hit_prob, coef):
    """A layer's light spike segments as one pool over the chunk's
    ``size`` rows of L = starts[-1] sites: per block of rows whose pairs
    stay within numpy's 2^63 - 1 binomial trials (the whole chunk unless
    L reaches 2^51), one Binomial(rows * L, hit_prob) count, distinct
    keys row * L + site below rows * L, and a fair sign per hit.
    Segment j holds the sites starts[j] <= i < starts[j + 1], with the
    value affine[j, 0] + affine[j, 1] * (i + shift[j])."""
    length = int(starts[-1])
    block = ((1 << 63) - 1) // length
    owners, weights = [], []
    for first in range(0, size, block):
        rows = min(block, size - first)
        hits = rng.binomial(rows * length, hit_prob)
        if not hits:
            continue
        row, site = np.divmod(_distinct_keys(rng, rows * length, hits),
                              length)
        signs = 2.0 * rng.integers(0, 2, size=hits) - 1.0
        j = np.searchsorted(starts, site, side="right") - 1
        vals = affine[j, 0] + affine[j, 1] * (site + shift[j])
        owners.append(row + first)
        weights.append(vals * signs)
    if not owners:
        return 0.0
    return coef * np.bincount(np.concatenate(owners),
                              weights=np.concatenate(weights),
                              minlength=size)


def sample_batch(moments: ExactMoments, log2_n: int, count: int, seed: int,
                 kind: SampleKind = SampleKind.FULL_SN) -> SampleBatch:
    """Draw `count` values of the normalized sum S_N / sqrt(b^2 N) (or
    of its flat-copy stand-in) at the horizon N = 2^log2_n.

    Identical arguments give byte-identical batches, and each full chunk
    of ``CHUNK`` values is the same in every batch that holds it.  A seed
    outside [0, 2^64) raises ParamsError, and a batch past the
    ``sample_batch`` budget MemoryBudgetError, before anything is planned
    or allocated; a horizon with b^2 = 0 raises ParamsError.
    """
    if count < 1:
        raise ParamsError("count must be positive", count=count)
    check_seed(seed)
    charge("sample_batch", 8 * count)      # float64 values
    kind = SampleKind(kind)
    plan = _build_plan(moments, log2_n, kind)
    values = np.zeros(count)
    # one generator, re-keyed to each op's stream in each chunk
    rng = _stream(0, 0)
    for start in range(0, count, CHUNK):
        out = values[start:start + CHUNK]
        for lane, draw in enumerate(plan):
            _rekey(rng, *_lane_key(seed, lane, start // CHUNK))
            out += draw(rng, out.size)
    return SampleBatch(seed=seed, log2_n=log2_n, count=count, kind=kind,
                       values=values)

