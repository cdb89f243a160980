"""Monte Carlo samplers for the layered site model.

A horizon-N partial sum is a linear functional of independent site
variables: per block l and site offset m the coefficient is
g_l(m) = sqrt(N_l or 1) * C_l(m), where C_l is the piecewise-affine
profile computed by the engine and the sqrt(N_l) factor applies to
three-valued (spike) blocks only.  Spike sites take values -1/0/+1 with
hit probability 1/N_l split evenly between signs; Gaussian-block sites
are standard normal.  Either way each site contributes unit variance
times C_l(m)^2, so the batch variance target is exactly sigma_sq(N).

Two sampling modes:

* ``aggregate`` (default) — exact in distribution and fast.  Within an
  affine segment the spike hits are a thinned binomial: the hit count is
  Binomial(L, 1/N_l), the positive share Binomial(hits, 1/2), and on
  constant segments the contribution depends on the signed count alone.
  Ramp hits additionally draw distinct positions and signs, in bulk for
  every sample of a chunk, and are summed per sample by ``bincount``.
  Gaussian blocks (and any segment whose expected hit count exceeds
  ``GAUSSIANIZE_HITS``) contribute one scaled normal with the segment's
  exact variance; the Berry-Esseen error of that replacement is below
  0.6/sqrt(2^40) < 6e-7, far under every sampling tolerance used here.
  Horizons beyond the desk cap must be dyadic and are handled entirely
  through normalized per-block variances, so values stay finite floats.
* ``site`` — literal per-coordinate draws for validation at small
  scales, budget-guarded.

Reproducibility: all randomness comes from counter-based Philox streams
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
keyed by (seed, lane, fixed-size chunk index) for the per-sample lanes
and by (seed, chunk index, segment) for the variable-length hit details,
which each such stream draws in bulk.  No stream is ever shared across
chunks, so batches are byte-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.special import ndtri
from scipy.special._ufuncs import _binom_ppf

from .blocks import BlockParity, BlockSpec, SequenceParams
from .engine import (DESK_N_CAP, ExactMoments, Segment, block_var_over_n)
from .errors import MemoryBudgetError, ParamsError, WorkBudgetError

CHUNK = 4096
GAUSSIANIZE_HITS = float(1 << 40)
SITE_DRAW_BUDGET = 1 << 26
DENSE_BYTE_BUDGET = 1 << 28

_LANE_TAG = 0xA0761D6478BD642F
_HIT_TAG = 0xE7037ED1A0B428DB
_SITE_TAG = 0x8EBC6AF09C88C6E3


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


class SampleKind(Enum):
    FULL_SN = "FULL_SN"
    APPROX_IID_SUM = "APPROX_IID_SUM"


# ---------------------------------------------------------------------------
# Profiles

@dataclass
class BlockLayer:
    """Sampling view of one block at a fixed horizon."""

    block: BlockSpec
    hit_prob: float            # 1/N_l for spikes, 0 for Gaussian sites
    var_over_n: float          # contribution variance divided by N
    segments: list | None      # None when only the variance is available

    @property
    def spike_scale(self) -> float:
        h = self.block.horizon_log2
        if h > 1023:
            raise ParamsError("spike scale overflows at this block",
                              block=self.block.index)
        return math.sqrt(math.ldexp(1.0, h))


class CoordinateProfile:
    """Per-(params, N, kind) coefficient layout used by the samplers."""

    def __init__(self, params: SequenceParams, N: int, kind: SampleKind,
                 moments: ExactMoments | None = None):
        self.params = params
        self.N = N
        self.kind = kind
        e = N.bit_length() - 1
        desk = N <= DESK_N_CAP
        if not desk and (1 << e) != N:
            raise ParamsError("beyond the desk cap only dyadic horizons "
                              "are supported", log2=e)
        moments = moments or ExactMoments(params)
        self.moments = moments
        self.layers: list[BlockLayer] = []
        for b in params.blocks:
            hit = (math.ldexp(1.0, -b.horizon_log2)
                   if b.parity is BlockParity.THREE_VALUED else 0.0)
            if kind is SampleKind.APPROX_IID_SUM:
                mass = moments.block_mass(b, N)
                segs = None
                if desk:
                    segs = [Segment(0, N - 1, mass, 0.0, (N - 1) // 2)]
                self.layers.append(BlockLayer(b, hit, mass * mass, segs))
                continue
            if desk:
                prof = moments.profiles(N)[b.index - 1]
                var = prof.sum_pow(2) / N
                self.layers.append(BlockLayer(b, hit, var, prof.segments))
            else:
                var = block_var_over_n(params, b, e)
                self.layers.append(BlockLayer(b, hit, var, None))

    def dense_g(self, l: int) -> tuple[int, np.ndarray]:
        """(m_lo, dense coefficient array) for one block; budget-guarded."""
        lay = self.layers[l - 1]
        if lay.segments is None:
            raise ParamsError("no site resolution", block=l)
        lo = lay.segments[0].lo
        hi = lay.segments[-1].hi
        need = 8 * (hi - lo + 1)
        if need > DENSE_BYTE_BUDGET:
            raise MemoryBudgetError("dense profile too large",
                                    estimated_bytes=need,
                                    budget=DENSE_BYTE_BUDGET)
        out = np.empty(hi - lo + 1)
        for seg in lay.segments:
            t = np.arange(seg.lo - seg.mid, seg.hi - seg.mid + 1,
                          dtype=float)
            out[seg.lo - lo: seg.hi - lo + 1] = seg.v_mid + seg.slope * t
        scale = (lay.spike_scale
                 if lay.block.parity is BlockParity.THREE_VALUED else 1.0)
        return lo, scale * out


def build_profile(params: SequenceParams, N: int,
                  kind: SampleKind = SampleKind.FULL_SN,
                  moments: ExactMoments | None = None) -> CoordinateProfile:
    if N < 1:
        raise ParamsError("horizon must be positive", N=N)
    return CoordinateProfile(params, N, kind, moments)


# ---------------------------------------------------------------------------
# Batches

@dataclass
class SampleBatch:
    seed: int
    N: int
    count: int
    kind: SampleKind
    normalized: bool
    values: np.ndarray

    @property
    def horizon_log2(self) -> int:
        return self.N.bit_length() - 1

    def mean(self) -> float:
        return float(np.mean(self.values))

    def variance(self) -> float:
        return float(np.var(self.values, ddof=1))

    def _header(self, params: SequenceParams | None):
        lines = [f"# seed = {self.seed}",
                 f"# horizon_log2 = {self.horizon_log2}"]
        if self.N.bit_length() <= 63:
            lines.insert(1, f"# horizon = {self.N}")
        lines += [f"# count = {self.count}",
                  f"# kind = {self.kind.value}",
                  f"# normalized = {str(self.normalized).lower()}"]
        if params is not None:
            from .config import params_to_dict
            blob = json.dumps(params_to_dict(params), sort_keys=True)
            lines.append(f"# params = {blob}")
        return lines

    def to_csv(self, params: SequenceParams | None = None) -> str:
        lines = self._header(params)
        lines.append("sample_index,value")
        lines.extend(f"{i},{v:.17g}" for i, v in enumerate(self.values))
        return "\n".join(lines) + "\n"

    def summary(self, params: SequenceParams | None = None,
                quantiles: int = 21) -> dict:
        qs = np.linspace(0.0, 1.0, quantiles)
        out = {
            "seed": self.seed,
            "horizon_log2": self.horizon_log2,
            "count": self.count,
            "kind": self.kind.value,
            "normalized": self.normalized,
            "mean": self.mean(),
            "variance": self.variance(),
            "quantile_probs": [float(q) for q in qs],
            "quantiles": [float(v) for v in np.quantile(self.values, qs)],
        }
        if self.N.bit_length() <= 63:
            out["horizon"] = self.N
        return out


# ---------------------------------------------------------------------------
# Aggregate sampler

def _build_plan(profile: CoordinateProfile, normalized: bool):
    """Fixed lane layout for the aggregate sampler: one draw function
    per op, bound to the values it reads, called as
    ``draw(seed, chunk_idx, size)``.

    Lane ids and segment ids depend only on (params, N, kind), never on
    chunking or worker count.
    """
    N = profile.N
    b_sq = profile.moments.normalizer_sq(N)
    if normalized and b_sq <= 0.0:
        raise ParamsError("normalization needs a horizon with at least "
                          "one sub-horizon scale", N=N)
    if not normalized and N > DESK_N_CAP:
        raise ParamsError("raw values overflow beyond the desk cap; "
                          "request normalized output")
    if not normalized:
        inv_unit = 1.0
    elif N <= DESK_N_CAP:
        inv_unit = 1.0 / math.sqrt(b_sq * float(N))
    else:
        # Astronomic horizons are dyadic and reach this plan only through
        # per-layer variances, so the (underflowing) unit is never used
        # by an op; keep the exponent arithmetic in log2 space anyway.
        e = N.bit_length() - 1
        inv_unit = 2.0 ** (-0.5 * e) / math.sqrt(b_sq)
    plan = []
    lane = 0
    seg_id = 0
    for lay in profile.layers:
        gaussian_block = lay.block.parity is BlockParity.GAUSSIAN
        if lay.segments is None or gaussian_block:
            std = (math.sqrt(lay.var_over_n / b_sq) if normalized
                   else math.sqrt(lay.var_over_n * N))
            plan.append(partial(_draw_normal, lane=lane, std=std))
            lane += 1
            continue
        if lay.hit_prob == 0.0:
            # The hit probability underflowed (horizon exponent beyond
            # 1074): no feasible batch ever sees a spike from this block,
            # so it contributes exactly zero to every sample.
            continue
        scale = lay.spike_scale * inv_unit
        for seg in lay.segments:
            length = seg.hi - seg.lo + 1
            expect = length * lay.hit_prob
            if expect > GAUSSIANIZE_HITS:
                std = math.sqrt(seg.sum_pow(2)) * inv_unit
                plan.append(partial(_draw_normal, lane=lane, std=std))
                lane += 1
            elif seg.slope == 0.0:
                plan.append(partial(_draw_flat, lane=lane, length=length,
                                    hit_prob=lay.hit_prob,
                                    coef=scale * seg.v_mid))
                lane += 2
            else:
                plan.append(partial(_draw_ramp, lane=lane, seg_id=seg_id,
                                    seg=seg, hit_prob=lay.hit_prob,
                                    coef=scale))
                lane += 1
            seg_id += 1
    return plan


def _lane_uniforms(seed: int, lane: int, chunk_idx: int,
                   size: int) -> np.ndarray:
    rng = _stream(seed ^ _LANE_TAG, (lane << 32) | chunk_idx)
    # offset keeps inversion transforms off the 0/1 endpoints
    return rng.random(size) + 2.0 ** -54


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
    offs = rng.integers(0, length, size=owner.size)
    while True:
        # lexsort is stable: equal draws of a sample stay in slot order
        order = np.lexsort((offs, owner))
        a, b = order[:-1], order[1:]
        redo = np.sort(b[(owner[b] == owner[a]) & (offs[b] == offs[a])])
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


def _binom_quantile(q: np.ndarray, n, p) -> np.ndarray:
    """``scipy.stats.binom.ppf`` on valid (n, p), from its ufunc alone.

    The smallest k with cdf(k) >= q, as floats; q == 0 gives -1 and
    q == 1 gives n, as the scipy.stats wrapper does.  Lane uniforms can
    round up to exactly 1.0.  Importing ``scipy.stats`` would add about
    0.7 s to every process start.
    """
    k = _binom_ppf(q, n, p)
    return np.where(q == 0.0, -1.0, np.where(q == 1.0, n, k))


def _draw_normal(seed, chunk_idx, size, *, lane, std):
    """A Gaussian block, or a segment with too many hits to count."""
    if std == 0.0:
        return 0.0
    return std * ndtri(_lane_uniforms(seed, lane, chunk_idx, size))


def _draw_flat(seed, chunk_idx, size, *, lane, length, hit_prob, coef):
    """A constant spike segment: only the signed hit count matters."""
    u1 = _lane_uniforms(seed, lane, chunk_idx, size)
    hits = _binom_quantile(u1, length, hit_prob)
    u2 = _lane_uniforms(seed, lane + 1, chunk_idx, size)
    pos = _binom_quantile(u2, hits, 0.5)
    return coef * (2.0 * pos - hits)


def _draw_ramp(seed, chunk_idx, size, *, lane, seg_id, seg, hit_prob, coef):
    """A sloped spike segment: hit offsets and signs drawn in bulk."""
    length = seg.hi - seg.lo + 1
    u1 = _lane_uniforms(seed, lane, chunk_idx, size)
    hits = _binom_quantile(u1, length, hit_prob).astype(np.int64)
    if not hits.any():
        return 0.0
    rng = _stream(seed ^ _HIT_TAG, (chunk_idx << 24) | seg_id)
    owner, offs = _distinct_offsets(rng, length, hits)
    signs = 2.0 * rng.integers(0, 2, size=owner.size) - 1.0
    vals = seg.v_mid + seg.slope * (offs + (seg.lo - seg.mid))
    return coef * np.bincount(owner, weights=vals * signs, minlength=size)


def _aggregate_chunk(plan, seed, chunk_idx, size):
    out = np.zeros(size)
    for draw in plan:
        out += draw(seed, chunk_idx, size)
    return out


def _site_chunk(profile, denses, seed, chunk_idx, start, size, inv_unit):
    layers = profile.layers
    out = np.empty(size)
    for i in range(size):
        rng = _stream(seed ^ _SITE_TAG, start + i)
        total = 0.0
        for lay, (lo, g) in zip(layers, denses):
            u = rng.random(g.size)
            if lay.block.parity is BlockParity.GAUSSIAN:
                total += float(np.dot(g, ndtri(u + 2.0 ** -54)))
            else:
                eps_half = 0.5 * lay.hit_prob
                x = np.where(u < eps_half, 1.0,
                             np.where(u >= 1.0 - eps_half, -1.0, 0.0))
                total += float(np.dot(g, x))
        out[i] = total * inv_unit
    return out


def sample_batch(params: SequenceParams, N: int, count: int, seed: int,
                 kind: SampleKind = SampleKind.FULL_SN, *,
                 normalized: bool = False, mode: str = "aggregate",
                 workers: int = 1, chunk: int = CHUNK,
                 profile: CoordinateProfile | None = None,
                 moments: ExactMoments | None = None) -> SampleBatch:
    """Draw `count` values of the horizon sum (or its flat-copy stand-in).

    Identical arguments give byte-identical batches for any `workers`.
    """
    if count < 1:
        raise ParamsError("count must be positive", count=count)
    kind = SampleKind(kind)
    profile = profile or build_profile(params, N, kind, moments)
    if mode == "aggregate":
        plan = _build_plan(profile, normalized)

        def job(args):
            ci, _, size = args
            return _aggregate_chunk(plan, seed, ci, size)
    elif mode == "site":
        if any(lay.segments is None for lay in profile.layers):
            raise ParamsError("site mode needs full site resolution")
        coords = sum(lay.segments[-1].hi - lay.segments[0].lo + 1
                     for lay in profile.layers)
        if count * coords > SITE_DRAW_BUDGET:
            raise WorkBudgetError("site mode draw count too large",
                                  estimated_ops=count * coords,
                                  budget=SITE_DRAW_BUDGET)
        denses = [profile.dense_g(lay.block.index)
                  for lay in profile.layers]
        b_sq = profile.moments.normalizer_sq(N)
        if normalized and b_sq <= 0.0:
            raise ParamsError("normalization needs sub-horizon scales")
        inv_unit = 1.0 / math.sqrt(b_sq * float(N)) if normalized else 1.0

        def job(args):
            ci, start, size = args
            return _site_chunk(profile, denses, seed, ci, start, size,
                               inv_unit)
    else:
        raise ParamsError("unknown sampling mode", mode=mode)

    jobs = [(ci, ci * chunk, min(chunk, count - ci * chunk))
            for ci in range((count + chunk - 1) // chunk)]
    # threads beyond the cores or the chunks only contend for them
    threads = min(workers, len(jobs), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, jobs))
    else:
        parts = [job(j) for j in jobs]
    values = np.concatenate(parts) if parts else np.empty(0)
    return SampleBatch(seed=seed, N=N, count=count, kind=kind,
                       normalized=normalized, values=values)


def dichotomy_samples(params: SequenceParams, horizons, count: int,
                      seed: int, *, mode: str = "aggregate",
                      workers: int = 1) -> dict:
    """Normalized full-sum batches at complete-block horizons.

    Per-horizon seeds are derived from the shared seed and the block
    index, so adding horizons never perturbs existing batches.
    """
    complete = {b.horizon: b for b in params.blocks if b.complete}
    out = {}
    for N in horizons:
        blk = complete.get(N)
        if blk is None:
            raise ParamsError("horizon is not a complete block endpoint",
                              horizon_log2=int(N).bit_length() - 1)
        sub = derive_seed(seed, blk.index)
        out[N] = sample_batch(params, N, count, sub, SampleKind.FULL_SN,
                              normalized=True, mode=mode, workers=workers)
    return out

