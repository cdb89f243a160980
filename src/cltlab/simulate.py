"""Monte Carlo samplers for the layered site model.

A horizon-N partial sum is a linear functional of independent site
variables: per block l and site offset m the coefficient is
g_l(m) = sqrt(N_l or 1) * C_l(m), where C_l is the piecewise-affine
profile computed by the engine and the sqrt(N_l) factor applies to
three-valued (spike) blocks only.  Spike sites take values -1/0/+1 with
hit probability 1/N_l split evenly between signs; Gaussian-block sites
are standard normal.  Either way each site contributes unit variance
times C_l(m)^2, so the batch variance target is exactly sigma_sq(N).

The sampler aggregates, exactly in distribution.  A spike block's sites
hit independently with one probability p = 1/N_l, so by superposition
the hits over any L of them are Binomial(L, p), on a uniform subset of
the L.  Each spike layer thus draws its light sloped segments as one
pool: one hit count over their total length, distinct offsets into the
concatenated sites, each offset's segment by ``searchsorted``, then the
affine value and a fair sign, summed per sample by ``bincount``.  Light
flat segments keep their signed count (hits, then Binomial(hits, 1/2)
positive ones), O(1) per sample where a positional draw costs O(hits):
at kmax 48, rho 2 and N = 2^31 one flat segment expects 2^30 hits.
A flat segment past numpy's 2^63 - 1 binomial trials draws a Poisson
count instead (the limit of its binomial count, within its hit
probability, below 2^-62, in total variation).
Gaussian blocks, and the spike segments expecting more than
``GAUSSIANIZE_HITS`` hits, give one scaled normal per layer with the
exact variance; the Berry-Esseen error of that replacement is below
0.6/sqrt(2^40) < 6e-7, far under every sampling tolerance used here.

The plan reads each block's source directly.  Every horizon is dyadic
and passed as its exponent log2_n, and 2^log2_n is built only up to the
desk cap.  There a full sum reads the block's ``ExactMoments.profiles``
entry segment by segment; beyond it, one normal per block with the
normalized ``block_var_over_n``, so values stay finite floats.  The
flat copy (``APPROX_IID_SUM``, normalized only) gives every site of a
block the block's sub-horizon mass: it is the stand-in sum whose law
``laws.exact_law`` realizes, and both take a spike block's regime from
``flat_regime`` of its expected hits: nothing up to 2^NEGLIGIBLE_LOG2,
a signed count on exact_law's lattice step below 2^GAUSSIANIZE_LOG2
(binomial on the desk, its Poisson limit beyond), one normal from there.
The sampler's independent oracle, literal per-coordinate draws at small
scales, is ``reference.site_sample_batch``.

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
offsets and signs.  The one departure from the exact laws is numpy's
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

from .blocks import BlockParity, SequenceParams
from .engine import (BlockProfile, ExactMoments, block_var_over_n,
                     desk_horizon)
from .errors import ParamsError, check_batch_budget, check_seed

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
    normalized: bool
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
    the sampler and ``laws.ExactFiniteLaw``."""
    if log2_hits <= NEGLIGIBLE_LOG2:
        return FlatRegime.ZERO
    if log2_hits < GAUSSIANIZE_LOG2:
        return FlatRegime.COUNT
    return FlatRegime.NORMAL


def _build_plan(params: SequenceParams, log2_n: int, kind: SampleKind,
                normalized: bool, moments: ExactMoments):
    """Fixed op layout for the aggregate sampler: one draw function per
    op, bound to the values it reads, called as ``draw(rng, size)`` on
    the op's own stream.

    An op's lane is its place in the plan, which depends only on
    (params, horizon, kind), never on the batch's count.
    """
    e = log2_n
    N = desk_horizon(e)
    b_sq = moments.normalizer_sq(e)
    if normalized and b_sq <= 0.0:
        raise ParamsError("normalization needs a horizon with at least "
                          "one sub-horizon scale", log2_n=e)
    if not normalized and (N is None or kind is SampleKind.APPROX_IID_SUM):
        raise ParamsError("raw values are drawn for full sums within the "
                          "desk cap only; request normalized output")
    plan = []
    for b in params.blocks:
        h = b.horizon_log2
        spike = b.parity is BlockParity.THREE_VALUED
        if kind is SampleKind.APPROX_IID_SUM:
            mass = moments.block_mass(b, e)
            # a block without sub-horizon mass gives a normal of std 0,
            # which draws nothing
            regime = (flat_regime(e - h) if spike and mass > 0.0
                      else FlatRegime.NORMAL)
            if regime is FlatRegime.NORMAL:
                plan.append(partial(_draw_normal,
                                    std=math.sqrt(mass * mass / b_sq)))
            elif regime is FlatRegime.COUNT:
                # exact_law's lattice step; Binomial(N, 2^-h) hits on the
                # desk, their Poisson limit beyond it
                step = (mass / math.sqrt(b_sq)) * 2.0 ** (0.5 * (h - e))
                plan.append(
                    partial(_draw_poisson, lam=2.0 ** (e - h), coef=step)
                    if N is None else
                    partial(_draw_flat, length=N,
                            hit_prob=math.ldexp(1.0, -h), coef=step))
        elif N is None:
            var = block_var_over_n(params, b, e)
            plan.append(partial(_draw_normal, std=math.sqrt(var / b_sq)))
        elif spike:
            plan.extend(_spike_ops(moments.profiles(N)[b.index - 1],
                                   1.0 / math.sqrt(b_sq * float(N))
                                   if normalized else 1.0))
        else:
            var = moments.profiles(N)[b.index - 1].sum_pow(2) / N
            plan.append(partial(_draw_normal,
                                std=math.sqrt(var / b_sq) if normalized
                                else math.sqrt(var * N)))
    return plan


def _spike_ops(prof: BlockProfile, inv_unit: float) -> list:
    """A spike block's ops at a desk horizon: signed counts for its
    light flat segments, one pool for its light sloped ones, one normal
    for those too heavy to count; values in units of 1/inv_unit."""
    h = prof.block.horizon_log2
    hit_prob = math.ldexp(1.0, -h)
    if hit_prob == 0.0:
        # The hit probability underflowed (horizon exponent beyond
        # 1074): no feasible batch ever sees a spike from this block,
        # so it contributes exactly zero to every sample.
        return []
    # sqrt(2^h), finite for every h with a nonzero hit probability
    scale = math.ldexp(math.sqrt(2.0) if h & 1 else 1.0, h // 2) * inv_unit
    ops, heavy, sloped = [], [], []
    for i, ((lo, hi, _), v, slope) in enumerate(zip(
            prof.segments, prof.v.tolist(), prof.slope.tolist())):
        length = hi - lo + 1
        if length * hit_prob > GAUSSIANIZE_HITS:
            heavy.append(i)
        elif slope == 0.0 and length >> 63:
            # past numpy's 2^63 - 1 trials the hit probability is below
            # 2^-62, and the Poisson count is within it in total variation
            ops.append(partial(_draw_poisson, lam=length * hit_prob,
                               coef=scale * v))
        elif slope == 0.0:
            ops.append(partial(_draw_flat, length=length, hit_prob=hit_prob,
                               coef=scale * v))
        else:
            sloped.append(i)
    if sloped:
        # lengths and offsets only: a far-left segment's ends may pass
        # int64
        segs = [prof.segments[i] for i in sloped]
        starts = np.cumsum([0] + [hi - lo + 1 for lo, hi, _ in segs])
        ops.append(partial(
            _draw_pool, starts=starts, hit_prob=hit_prob, coef=scale,
            affine=np.column_stack([prof.v[sloped], prof.slope[sloped]]),
            shift=np.array([lo - mid for lo, _, mid in segs]) - starts[:-1]))
    if heavy:
        ops.append(partial(_draw_normal,
                           std=math.sqrt(prof.sum_pow(2, heavy)) * inv_unit))
    return ops


def _lane_key(seed: int, lane: int, chunk_idx: int) -> tuple[int, int]:
    """The two key words of one op's stream in one chunk."""
    return seed ^ _LANE_TAG, (lane << 32) | chunk_idx


def _distinct_offsets(rng: np.random.Generator, length: int,
                      hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) pairs: hits[i] distinct offsets in [0, length)
    for every sample i, drawn in bulk from one stream.

    A sample with more than half the segment hit draws the offsets it
    leaves out instead, so each draw set fills at most half the segment.
    Duplicates within a sample are redrawn, later slot first, until none
    are left.  Which slots are redrawn depends only on which draws are
    equal and on slot order, never on the values, so each sample's set
    is a uniform subset of its size and the samples are independent.
    """
    comp = 2 * hits > length
    want = np.where(comp, length - hits, hits)
    owner = np.repeat(np.arange(hits.size), want)
    # (owner, offset) as one key: below 2^64 for a chunk of at most 2^12
    # samples on a desk horizon of at most 2^52 sites
    row = owner.astype(np.uint64) * np.uint64(length)
    offs = rng.integers(0, length, size=owner.size)
    while True:
        key = row + offs.astype(np.uint64)
        # a stable sort keeps equal draws of a sample in slot order
        order = np.argsort(key, kind="stable")
        a, b = order[:-1], order[1:]
        redo = np.sort(b[key[b] == key[a]])
        if not redo.size:
            break
        offs[redo] = rng.integers(0, length, size=redo.size)
    # complement samples: keep every offset their draws left out
    rows = np.flatnonzero(comp)
    keep = np.ones((rows.size, length), dtype=bool)
    drawn = comp[owner]
    keep[np.searchsorted(rows, owner[drawn]), offs[drawn]] = False
    r, c = np.nonzero(keep)
    return (np.concatenate([owner[~drawn], rows[r]]),
            np.concatenate([offs[~drawn], c]))


def _draw_normal(rng, size, *, std):
    """A Gaussian block, or a layer's segments too heavy to count."""
    if std == 0.0:
        return 0.0
    return std * rng.standard_normal(size)


def _draw_flat(rng, size, *, length, hit_prob, coef):
    """A constant spike segment: only the signed hit count matters."""
    hits = rng.binomial(length, hit_prob, size)
    pos = rng.binomial(hits, 0.5)
    return coef * (2.0 * pos - hits)


def _draw_poisson(rng, size, *, lam, coef):
    """A beyond-cap spike layer's flat copy: Poisson(lam) hits, the limit
    of its binomial count, each with a fair sign."""
    hits = rng.poisson(lam, size)
    pos = rng.binomial(hits, 0.5)
    return coef * (2.0 * pos - hits)


def _draw_pool(rng, size, *, starts, affine, shift, hit_prob, coef):
    """A layer's light sloped spike segments as one pool: hit counts,
    then hit offsets into their concatenated sites and signs, in bulk.
    Segment j holds the sites starts[j] <= i < starts[j + 1], with the
    value affine[j, 0] + affine[j, 1] * (i + shift[j])."""
    hits = rng.binomial(starts[-1], hit_prob, size)
    if not hits.any():
        return 0.0
    owner, offs = _distinct_offsets(rng, starts[-1], hits)
    signs = 2.0 * rng.integers(0, 2, size=owner.size) - 1.0
    j = np.searchsorted(starts, offs, side="right") - 1
    vals = affine[j, 0] + affine[j, 1] * (offs + shift[j])
    return coef * np.bincount(owner, weights=vals * signs, minlength=size)


def sample_batch(params: SequenceParams, log2_n: int, count: int, seed: int,
                 kind: SampleKind = SampleKind.FULL_SN, *,
                 normalized: bool = False,
                 moments: ExactMoments | None = None) -> SampleBatch:
    """Draw `count` values of the sum (or its flat-copy stand-in) at the
    horizon N = 2^log2_n.

    Identical arguments give byte-identical batches, and each full chunk
    of ``CHUNK`` values is the same in every batch that holds it.  A seed
    outside [0, 2^64) raises ParamsError, and a count beyond
    ``errors.BATCH_BUDGET`` MemoryBudgetError, before anything is planned
    or allocated.
    """
    if count < 1:
        raise ParamsError("count must be positive", count=count)
    check_seed(seed)
    check_batch_budget(count)
    kind = SampleKind(kind)
    plan = _build_plan(params, log2_n, kind, normalized,
                       moments or ExactMoments(params))
    values = np.zeros(count)
    # one generator, re-keyed to each op's stream in each chunk
    rng = _stream(0, 0)
    for start in range(0, count, CHUNK):
        out = values[start:start + CHUNK]
        for lane, draw in enumerate(plan):
            _rekey(rng, *_lane_key(seed, lane, start // CHUNK))
            out += draw(rng, out.size)
    return SampleBatch(seed=seed, log2_n=log2_n, count=count, kind=kind,
                       normalized=normalized, values=values)


def dichotomy_samples(params: SequenceParams, horizons_log2, count: int,
                      seed: int, *,
                      moments: ExactMoments | None = None) -> dict:
    """Normalized full-sum batches at complete-block horizons, given and
    keyed by their exponents.

    Per-horizon seeds are derived from the shared seed and the block
    index, so adding horizons never perturbs existing batches.  Each
    batch plans from ``moments`` as ``sample_batch`` does; its values do
    not depend on what the engine has cached.
    """
    check_seed(seed)
    complete = {b.horizon_log2: b for b in params.blocks if b.complete}
    out = {}
    for e in horizons_log2:
        blk = complete.get(e)
        if blk is None:
            raise ParamsError("horizon is not a complete block endpoint",
                              horizon_log2=e)
        sub = derive_seed(seed, blk.index)
        out[e] = sample_batch(params, e, count, sub, SampleKind.FULL_SN,
                              normalized=True, moments=moments)
    return out

