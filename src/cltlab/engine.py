"""Deterministic second-moment engine.

Every quantity here is a finite sum over site coordinates m of squares
(or fourth powers) of per-block coefficient functions

    C_l(m) = sum_{k in block l} (a_k / k) * w_k(m, N) / n_k,

where w_k is the trapezoidal pair count of the double sum over a horizon
N.  C_l is piecewise linear in m with integer breakpoints, so all sums
collapse to Faulhaber closed forms; no per-coordinate enumeration is
needed.  ``BlockProfile`` finds each piece's value and slope from exact
integer prefix sums over k, in O(1) per piece, and rounds each once;
the pieces of the scales past the horizon are built a column at a time.
It keeps each piece once, as a table row, and every sum of squares is
one ``math.fsum`` over whole rows.

Three independent routes to the variance exist:

* ``sigma_sq``          — piecewise-linear profile + Faulhaber sums;
* ``sigma_sq_paircov``  — per-pair covariance closed forms, normalized by
  the horizon so it stays finite for dyadic horizons of astronomically
  large exponent (see ``sigma_sq_over_n``);
* ``sigma_sq_enumerated`` — dense numpy evaluation, capped, kept in
  ``tests/cltlab_reference.py`` beside the other test oracles.

The condition (2') series tail || sum_{N'=p..q} E(S_N' | past) / N'^{3/2} ||
has the same shape in the lag variable: each scale's term is linear,
constant or -- on a window of q - p + 1 lags -- nonlinear.
``lattice.SeriesTail`` sums the affine pieces by the same Faulhaber
forms.  The pieces that hold a window are lattice sums on the smooth
extension of the window function, written with the Hurwitz zeta: short
ones and their lags near r = 0 directly, the rest by Euler-Maclaurin with
a Gauss-Legendre integral, so a tail costs O(scales) at any horizon.  One
``SeriesTail`` evaluates a batch of (p, q) rows together, each bit for
bit as alone, and the ``series_tail`` budget caps what each row touches.

Scale conventions: n_k = 2^k exactly; "log" is the dyadic logarithm;
[log N] of an integer is ``N.bit_length() - 1``.

Constant-weight schedules may have astronomically many indices; all
k-sums then either terminate geometrically (factor 2^-k) or are
dominated by their top scales (factor 2^k), and are truncated with a
guard of ``K_GUARD`` indices, leaving relative tails below 2^-90 —
far under every tolerance used here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import BlockParity, BlockSpec, SequenceParams
from .errors import BUDGETS, DESK_N_CAP, ParamsError, charge
from .lattice import K_GUARD, SeriesTail, _affine_sq, _centred


def _log2_floor(N: int) -> int:
    return N.bit_length() - 1


def desk_horizon(log2_n: int) -> int | None:
    """The horizon 2^log2_n as an integer up to the desk cap, and None
    beyond it, where the samplers and laws carry only the exponent."""
    if log2_n < 0:
        raise ParamsError("horizon exponent must be nonnegative",
                          log2_n=log2_n)
    return 1 << log2_n if log2_n <= _log2_floor(DESK_N_CAP) else None


def _pow2(j):
    """2^j elementwise for integer j <= 0, and 0 below 2^-1074.

    Exponents above 0 arise only in the pair-form regimes that
    ``np.where`` discards; clipping them keeps those finite.
    """
    return np.ldexp(1.0, np.clip(j, -1100, 0))


def _interleave(a: list, b: list) -> list:
    """a[0], b[0], a[1], b[1], ... of two lists of one length."""
    out = a + b
    out[::2], out[1::2] = a, b
    return out


class ScaleSums:
    """Exact prefix sums over one block's scales, kept across horizons.

    With c_k = a_k / k / 2^k, ``rise[j]`` is 2^F sum_{i<j} c_i and
    ``flat[j]`` is 2^F sum_{i<j} c_i n_i over the block's first scales,
    as Python integers.  F is the smallest exponent that makes every
    2^F c_k an integer: a double a_k / k is num / 2^d, so F is the
    largest k + d.  ``upto`` extends both sums to deeper scales only when
    a horizon keeps them, reading each weight once, and rescales the
    kept entries if F grows.
    """

    def __init__(self, weights, k_lo: int):
        self.weights, self.k_lo = weights, k_lo
        self.sums = (0, [0], [0])          # F, rise, flat

    def upto(self, k_cut: int) -> tuple:
        """(F, rise, flat) covering at least the scales k_lo..k_cut."""
        F, rise, flat = self.sums
        k0 = self.k_lo + len(rise) - 1
        if k0 > k_cut:
            return self.sums
        new = [(k, *r.as_integer_ratio()) for k, r in enumerate(
            self.weights.ratio(np.arange(k0, k_cut + 1)).tolist(), k0)]
        top = max(F, *(k + den.bit_length() - 1 for k, _, den in new))
        rise = [x << (top - F) for x in rise]
        flat = [x << (top - F) for x in flat]
        for k, num, den in new:
            c = num << (top - k - den.bit_length() + 1)
            rise.append(rise[-1] + c)
            flat.append(flat[-1] + (c << k))
        self.sums = (top, rise, flat)
        return self.sums


class BlockProfile:
    """Piecewise-affine coordinate coefficients of one block at horizon N.

    C(m) = sum_k c_k w_k(m, N) over the block's kept scales, with
    c_k = a_k / k / 2^k and the trapezoid count
    w_k(m, N) = max(0, min(m + n_k, n_k, N, N - m)).  Between two cuts
    each count is 0, n_k, N, m + n_k or N - m, and since n_k grows with k
    each regime holds a contiguous range of scales.  A segment's value
    and slope are then differences of two exact integer prefix sums over
    k (``ScaleSums``), read in O(1) and rounded once, so every value
    and slope is correctly rounded.  A scale past the horizon
    (n_{k-1} >= N) owns exactly two segments, which no other scale cuts:
    its value and slope there are closed forms in the same sums, so those
    rows, most of a deep profile's, are built as whole columns, and only
    the cuts of the other scales go segment by segment.  ``ExactMoments``
    passes one ``ScaleSums`` per block to every horizon; built alone, a
    profile makes its own.

    ``segments`` holds each segment's exact (lo, hi, mid).  The table
    beside it has the columns v, slope, S0, S1, S2: C(m) = v + slope t
    with t = m - mid, and Sp the exact power sums of t over the segment,
    rounded once.  ``v`` and ``slope`` are views of its first two
    columns.  Two rows follow the segments': the segment from 0 split
    at m = 1 into site 0 and its sites 1..hi, with the same value, slope
    and midpoint.  So the row sets ``past`` (m <= 0) and ``future``
    (1 <= m <= N - 1) cover their sites with whole rows.
    """

    def __init__(self, params: SequenceParams, block: BlockSpec, N: int,
                 sums: ScaleSums | None = None):
        charge("profile_horizon", N)
        self.block = block
        self.N = N
        # Scales more than K_GUARD doublings above the horizon carry a
        # per-coordinate coefficient below 2^-K_GUARD of the block's
        # leading one; they are dropped, which also keeps the coefficient
        # arithmetic inside float range for astronomically deep blocks.
        k_lo = block.k_lo
        k_cut = min(block.k_hi, _log2_floor(N) + K_GUARD)
        kept = max(k_cut - k_lo + 1, 0)
        if sums is None:
            sums = ScaleSums(params.weights, k_lo)
        F, rise, flat = sums.upto(k_cut)
        one = 1 << F
        total = rise[kept]

        # A scale past the horizon (n_{k-1} >= N, from k0 on) owns two
        # segments: [1 - n_k, N - n_k - 1], where scale k is linear and
        # those above it are capped, and [N - n_k, -n_{k-1}] (to -1 for
        # the block's first scale), flat at N times the mass from k up.
        # The other scales cut at 1 - n_k and N - n_k, and 0 is a cut if
        # any scale is kept.  The rows are built as columns: the deep
        # scales' flat segments, deepest first, then the cuts' segments;
        # the deep scales' linear segments go in last.
        k0 = max(k_lo, (N - 1).bit_length() + 1)
        deep = range(k_cut, k0 - 1, -1)
        ns = [1 << k for k in range(k_lo, min(k0, k_cut + 1))]
        cuts = sorted({N - 1, *([0] if kept else []), *[1 - n for n in ns],
                       *[N - n for n in ns]})
        bounds = [(N - (1 << k), -1 if k == k_lo else -(1 << k - 1))
                  for k in deep]
        bounds += zip(cuts, [c - 1 for c in cuts[1:]] + [N - 1])
        # _centred's midpoints and power sums, from b = hi - mid and the
        # parity of hi - lo
        b = [(hi - lo + 1) >> 1 for lo, hi in bounds]
        odd = [(hi - lo) & 1 for lo, hi in bounds]
        segments = [(lo, hi, hi - x) for (lo, hi), x in zip(bounds, b)]
        # A cut's segment lies in m <= -1 or in m >= 0, as 0 is a cut; its
        # regimes hold on (mid, mid + 1), and the slope is that step.
        # Scales below j2 are not capped (w_k = N or N - m), those below
        # j1 have w_k = 0.
        cut = segments[len(deep):]
        neg = bisect_left(cut, (0,))
        j2 = [min(max((N - mid - 1).bit_length() - k_lo, 0), kept)
              for _, _, mid in cut]
        j1 = [min(max((-mid - 1).bit_length() - k_lo, 0), kept)
              for _, _, mid in cut[:neg]]
        slope = [rise[y] - rise[x] for x, y in zip(j1, j2)] + [
            rise[y] - total for y in j2[neg:]]
        cols = [
            [N * (total - rise[k - k_lo]) / one for k in deep]
            + [(mid * s + flat[y] - flat[x] + N * (total - rise[y])) / one
               for (_, _, mid), s, x, y in zip(cut, slope, j1, j2)]
            + [(flat[y] + (N - mid) * (total - rise[y])) / one
               for (_, _, mid), y in zip(cut[neg:], j2[neg:])],
            [0.0] * len(deep) + [s / one if hi > lo else 0.0
                                 for s, (lo, hi, _) in zip(slope, cut)],
            [2 * x + 1 - o for x, o in zip(b, odd)],
            [x * o for x, o in zip(b, odd)],
            [x * (x + 1) * (2 * x + 1) // 3 - x * x * o
             for x, o in zip(b, odd)]]
        if N > 1:
            # each deep scale's linear segment precedes its flat one; its
            # mid + n_k is N // 2 and its power sums are those of [1 - N, -1]
            c = [rise[k - k_lo + 1] - rise[k - k_lo] for k in deep]
            linear = [
                [(ck * (N // 2) + N * (total - rise[k - k_lo + 1])) / one
                 for k, ck in zip(deep, c)],
                [ck / one if N > 2 else 0.0 for ck in c],
                *([s] * len(c) for s in _centred(1 - N, -1)[1:])]
            d = len(deep)
            segments = _interleave([(1 - (1 << k), N - (1 << k) - 1,
                                     N // 2 - (1 << k)) for k in deep],
                                   segments[:d]) + segments[d:]
            cols = [_interleave(x, col[:d]) + col[d:]
                    for x, col in zip(linear, cols)]
        # the split rows; zero if no segment starts at 0 (no scale is kept)
        n = len(segments)
        left = bisect_left(segments, (0,))     # the segments in m <= -1
        right = bisect_left(segments, (1,))    # and the one from 0, if any
        split = [(0.0,) * 5] * 2
        if right > left:
            mid = segments[left][2]
            v, slope, s0, s1, s2 = (col[left] for col in cols)
            split = [(v, slope, 1, -mid, mid * mid),
                     (v, slope, s0 - 1, s1 + mid, s2 - mid * mid)]
        for col, x in zip(cols, zip(*split)):
            col.extend(x)
        self.segments = segments
        self._table = np.array(cols, dtype=float)
        self.v, self.slope = self._table[:2, :n]
        self.past = np.append(np.arange(left), n)
        self.future = np.append(np.arange(right, n), n + 1)

    def value(self, m: int) -> float:
        """C(m), and 0.0 off the segments."""
        i = bisect_right(self.segments, m, key=lambda seg: seg[0]) - 1
        if i < 0 or m > self.segments[i][1]:
            return 0.0
        return float(self.v[i]) + float(self.slope[i]) * (
            m - self.segments[i][2])

    def sum_pow(self, power: int, sites=None, shift: float = 0.0) -> float:
        """Sum of (C(m) - shift)^power over all sites, or over the table
        rows ``sites``: ``past`` (m <= 0), ``future`` (1 <= m <= N - 1)
        or segment indices.

        Squares are one ``math.fsum`` over the table rows.  Fourth
        powers, over all sites only, read each segment's exact centred
        S0..S4.
        """
        if power == 4 and sites is None:
            out = []
            for (lo, hi, _), v, s in zip(self.segments, self.v.tolist(),
                                         self.slope.tolist()):
                s0, s1, s2, s3, s4 = map(float, _centred(lo, hi, 4)[1:])
                v -= shift
                out.append(v ** 4 * s0 + 4.0 * v ** 3 * s * s1
                           + 6.0 * v * v * s * s * s2
                           + 4.0 * v * s ** 3 * s3 + s ** 4 * s4)
            return math.fsum(out)
        if power != 2:
            raise ValueError(f"unsupported power {power} on these sites")
        v, s, *sums = self._table[:, slice(None, -2) if sites is None
                                  else sites]
        return math.fsum(_affine_sq(v - shift, s, *sums).tolist())


# ---------------------------------------------------------------------------
# Normalized pair covariances (valid for any dyadic horizon exponent)

def _pair_dot_over_n(e: int, ka, kb) -> np.ndarray:
    """sum_m w_{ka}(m) w_{kb}(m) / (n_ka n_kb N) for N = 2^e, elementwise
    over broadcast integer arrays of scales.

    Exact closed forms per regime, written in powers 2^(j) with j <= 0 so
    the result stays normalized no matter how large e is.
    """
    k, kp = np.minimum(ka, kb), np.maximum(ka, kb)
    inv_n = _pow2(-e)
    # both scales within the horizon: 1 + (n - n')/2N - (n^2 - 1)/(3 n' N)
    inside = (1.0
              + 0.5 * (_pow2(k - e) - _pow2(kp - e))
              - (_pow2(2 * k - kp - e) - _pow2(-kp - e)) / 3.0)
    xp = _pow2(e - kp)
    # mixed: n <= N < n'
    mixed = xp * (0.5 * (1.0 - inv_n)
                  + 0.5 * (_pow2(k - e) + inv_n)
                  - 0.5 * (_pow2(2 * k - 2 * e) - _pow2(k - 2 * e))
                  + (2.0 * _pow2(2 * k - 2 * e) - 3.0 * _pow2(k - 2 * e)
                     + _pow2(-2 * e)) / 6.0)
    x = _pow2(e - k)                  # both beyond the horizon
    one = 1.0 - inv_n
    ramps = np.where(k == kp, 2.0 * one * (2.0 - inv_n) / 6.0,
                     0.5 * one + one * (2.0 - inv_n) / 6.0)
    beyond = xp * (1.0 - x * one) + x * xp * ramps
    return np.where(kp <= e, inside, np.where(k <= e, mixed, beyond))


def _chain(*parts) -> float:
    """0.0 + t_1 + t_2 + ... strictly in order, as a scalar += loop adds.

    np.cumsum accumulates in sequence; np.sum adds pairwise and would
    round differently.
    """
    return float(np.cumsum(np.concatenate([[0.0], *parts]))[-1])


def _pair_terms(w, e: int, ks: np.ndarray) -> np.ndarray:
    """r_a r_b pair(a, b) over ks x ks, in row-major (double loop) order."""
    r = w.ratio(ks)
    return ((r[:, None] * r[None, :])
            * _pair_dot_over_n(e, ks[:, None], ks[None, :])).ravel()


def block_var_over_n(params: SequenceParams, block: BlockSpec,
                     log2_n: int) -> float:
    """Variance contribution of one block at horizon N = 2^log2_n, over N.

    For blocks with few indices this is a direct double sum of the
    normalized pair forms.  For constant-weight blocks spanning
    astronomically many indices, the sum splits into the exact square of
    the sub-horizon mass plus corrections that decay geometrically away
    from the horizon scale, evaluated over index windows with certified
    tails below 2^-90 relative.  Every sum is one ordered chain
    (``_chain``) over numpy grids of pair forms.
    """
    e = int(log2_n)
    w = params.weights
    lo, hi = block.k_lo, block.k_hi
    big_lo = max(lo, e + 1)
    big_hi = min(hi, big_lo + K_GUARD)  # 2^-k decay beyond the horizon
    small_hi = min(hi, e)
    n_small = small_hi - lo + 1

    parts = []
    if n_small > 0 and n_small <= 2 * K_GUARD:
        parts.append(_pair_terms(w, e, np.arange(lo, small_hi + 1)))
    elif n_small > 0:
        parts.append([_wide_small_var(params, block, e, small_hi)])
    if big_lo <= big_hi:
        bigs = np.arange(big_lo, big_hi + 1)
        parts.append(_pair_terms(w, e, bigs))
        if n_small > 0:
            win = np.arange(max(lo, small_hi - K_GUARD + 1), small_hi + 1)
            mass_rest = w.mass(lo, win[0] - 1)
            # acc[kb]: a chain over the window's ka, one row per kb
            grid = w.ratio(win)[None, :] * _pair_dot_over_n(
                e, win[None, :], bigs[:, None])
            acc = np.cumsum(np.hstack([np.zeros((bigs.size, 1)), grid]),
                            axis=1)[:, -1]
            if mass_rest:
                # far-below scales see the limiting flat form
                acc += mass_rest * _pair_dot_over_n(e, 0, bigs)
            parts.append(2.0 * w.ratio(bigs) * acc)
    return _chain(*parts)


def _wide_small_var(params: SequenceParams, block: BlockSpec,
                    e: int, small_hi: int) -> float:
    """Sub-horizon part of a block spanning huge index counts.

    Writes the ordered pair sum as mass^2 plus corrections; each
    correction carries a factor n/N or n'/N and is summed over a top
    window of K_GUARD indices (earlier indices contribute relative tails
    below 2^-90, which are dropped).
    """
    w = params.weights
    lo = block.k_lo
    mass = w.mass(lo, small_hi)
    kp = np.arange(max(lo, small_hi - K_GUARD + 1), small_hi + 1)
    rp = w.ratio(kp)
    pm = np.array([w.mass(lo, int(k) - 1) for k in kp])
    # inner n- and n^2-weighted prefixes over k = kp - K_GUARD .. kp - 1,
    # dominated by their own top; scales below lo are leading zeros of
    # each row's chain
    col = kp[:, None]
    k = col + np.arange(-K_GUARD, 0)
    r = np.where(k >= lo, w.ratio(np.maximum(k, lo)), 0.0)
    zero = np.zeros((kp.size, 1))
    pmn = np.cumsum(np.hstack([zero, r * _pow2(k - e)]), axis=1)[:, -1]
    pmn2_over_np = np.cumsum(np.hstack(
        [zero, r * (_pow2(2 * k - col - e) - _pow2(-col - e))]),
        axis=1)[:, -1]
    # ordered off-diagonal pairs (k < kp), both-within-horizon form
    off = 2.0 * rp * (0.5 * (pmn - pm * _pow2(kp - e)) - pmn2_over_np / 3.0)
    # diagonal, subtracted
    diag = rp * rp * (_pow2(kp - e) - _pow2(-kp - e)) / 3.0
    return mass * mass + _chain(np.column_stack([off, -diag]).ravel())


def sigma_sq_over_n(params: SequenceParams, log2_n: int) -> float:
    """Var(S_N)/N at the dyadic horizon N = 2^log2_n, any exponent size."""
    return math.fsum(block_var_over_n(params, b, log2_n)
                     for b in params.blocks)


# ---------------------------------------------------------------------------
# Condition checking

class Condition(Enum):
    """Checkable summability/rate statements about the conditional part.

    Values are the stable report/CSV tokens.
    """

    TAIL_SERIES = "SERIES_2PRIME"
    NORM_SERIES = "MW_3PRIME"
    WEIGHTED_NORM_SERIES = "WEIGHTED_4"
    LOG_RATE = "RATE_5"
    GROWTH_BOUND = "BOUND_9"


class Verdict(Enum):
    TREND_CONFIRMED = "TREND_CONFIRMED"
    TREND_VIOLATED = "TREND_VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


#: how far WEIGHTED_4's partial sums may still rise over the grid's second
#: half and read as a plateau
PLATEAU_EPS = 1e-3


def judge(condition: Condition, values) -> Verdict:
    """The verdict of a condition's fixed trend on its values along a grid.

    SERIES_2PRIME and RATE_5 decrease (no step up, last below first),
    MW_3PRIME increases (no step down, last above first), WEIGHTED_4 rises
    by at most ``PLATEAU_EPS`` over the grid's second half, and BOUND_9
    holds on every finite trajectory.  Fewer than three values, or a
    non-finite one, are INCONCLUSIVE.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3 or not np.all(np.isfinite(v)):
        return Verdict.INCONCLUSIVE
    d = np.diff(v)
    if condition in (Condition.TAIL_SERIES, Condition.LOG_RATE):
        held = np.all(d <= 0.0) and v[-1] < v[0]
    elif condition is Condition.NORM_SERIES:
        held = np.all(d >= 0.0) and v[-1] > v[0]
    elif condition is Condition.WEIGHTED_NORM_SERIES:
        half = v[v.size // 2:]
        held = float(half[-1] - half[0]) <= PLATEAU_EPS
    else:
        held = True
    return Verdict.TREND_CONFIRMED if held else Verdict.TREND_VIOLATED


@dataclass
class ConditionReport:
    condition: Condition
    grid: list
    values: list
    verdict: Verdict


# ---------------------------------------------------------------------------

def dyadic_grid(lo_exp: int, hi_exp: int) -> list[int]:
    """Powers of two 2^lo_exp .. 2^hi_exp inclusive."""
    if hi_exp < lo_exp:
        raise ValueError("empty grid")
    return [1 << e for e in range(lo_exp, hi_exp + 1)]


class ExactMoments:
    """Memoizing front end for the closed-form quantities.

    ``sigma_sq``, ``cond_norm_sq`` and ``iid_approx_error_sq`` sum the
    profiles' rows of all sites, ``past`` and ``future``.  What it keeps
    does not grow with the grid: the per-horizon scalars
    (b^2, conditional norm, variance, Lemma 5 error, fourth cumulant),
    the series tails per (p, q), one ``ScaleSums`` per block, and the
    profiles of the last horizon asked for only.  The cache is not
    locked: nothing in the package reads an instance from two threads.
    """

    def __init__(self, params: SequenceParams):
        self.params = params
        self._cache: dict = {}

    def _memo(self, key, compute):
        # fill once; a compute that raises stores nothing
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- profiles ----------------------------------------------------------

    def profiles(self, N: int) -> list[BlockProfile]:
        """Every block's profile at horizon N.

        Only the last horizon's profiles are kept: the per-horizon
        scalars read them once and are memoized themselves, so a grid
        holds one horizon's segments at a time, not all of them.
        """
        if self._cache.get("profiles", (None,))[0] != N:
            # drop the last horizon's before this one's are built
            self._cache.pop("profiles", None)
            self._cache["profiles"] = (N, [
                BlockProfile(self.params, b, N, self._sums(b))
                for b in self.params.blocks])
        return self._cache["profiles"][1]

    def _sums(self, block: BlockSpec) -> ScaleSums:
        # one exact prefix table per block, extended as horizons grow
        return self._memo(("sums", block.index),
                          lambda: ScaleSums(self.params.weights, block.k_lo))

    # -- masses ------------------------------------------------------------

    def block_mass(self, block: BlockSpec, log2_n: int) -> float:
        """Mass of the block's scales not exceeding a horizon N, from
        log2_n = [log N]."""
        return self.params.weights.mass(block.k_lo, min(block.k_hi, log2_n))

    def normalizer_sq(self, log2_n: int) -> float:
        """b^2: squared norm of the sum of the scale terms not exceeding
        a horizon N, from log2_n = [log N]."""
        return self._memo(("b2", log2_n), lambda: math.fsum(
            self.block_mass(b, log2_n) ** 2 for b in self.params.blocks))

    # -- second moments ----------------------------------------------------

    def cond_norm_sq(self, N: int) -> float:
        """Squared norm of the past-conditional part of the horizon sum."""
        return self._memo(("cond", N), lambda: math.fsum(
            p.sum_pow(2, p.past) for p in self.profiles(N)))

    def proj_norm_sq(self, l: int, N: int) -> float:
        """Squared norm of the single-coordinate projection at shift l."""
        if l < 1 or l > N - 1:
            return 0.0
        return math.fsum(p.value(l) ** 2 for p in self.profiles(N))

    def sigma_sq(self, N: int) -> float:
        """Var of the horizon-N partial sum (profile route)."""
        return self._memo(("sigma", N), lambda: math.fsum(
            p.sum_pow(2) for p in self.profiles(N)))

    def sigma_sq_paircov(self, N: int) -> float:
        """Var by the normalized pair-covariance route (independent)."""
        e = _log2_floor(N)
        if (1 << e) != N:
            raise ValueError("pair-covariance route needs a dyadic horizon")
        return sigma_sq_over_n(self.params, e) * N

    def iid_approx_error_sq(self, N: int) -> float:
        """Squared distance from the centered horizon sum to N flat shifts
        of the sub-horizon scale sum (includes the coordinate-0 mismatch).
        """
        def compute():
            e = _log2_floor(N)
            out = self.normalizer_sq(e)
            for b, p in zip(self.params.blocks, self.profiles(N)):
                out += p.sum_pow(2, p.future, self.block_mass(b, e))
            return out

        return self._memo(("iiderr", N), compute)

    def iid_approx_ratio(self, N: int) -> float:
        return self.iid_approx_error_sq(N) / (
            self.normalizer_sq(_log2_floor(N)) * N)

    def fourth_cumulant(self, N: int) -> float:
        """kappa_4 of the horizon sum; spikes only (Gaussian blocks add 0).

        A three-valued block with k_lo > [log N] + K_GUARD keeps no scale
        in its profile.  Its C(m) is at most 2^(e + 2 - k_lo) at each of
        at most 2^(h + 1) sites (e = [log N], h its horizon exponent), so
        it adds at most 2^(2h + 4e + 9 - 4 k_lo).  Below 2^-1074, the
        smallest positive double, that is exactly 0.0, as in
        ``SeriesTail``; above it the block's term is unresolved and
        ``ParamsError`` names the block.
        """
        def compute():
            e = _log2_floor(N)
            out = 0.0
            for b, p in zip(self.params.blocks, self.profiles(N)):
                if b.parity is not BlockParity.THREE_VALUED:
                    continue
                h = b.horizon_log2
                if b.k_lo > e + K_GUARD:
                    if 2 * h + 4 * e + 9 - 4 * b.k_lo < -1074:
                        continue
                    raise ParamsError("fourth cumulant unresolved at this "
                                      "block", block=b.index, log2_N=e)
                spike = math.inf if h > 1023 else math.ldexp(1.0, h) - 3.0
                out += spike * p.sum_pow(4)
            return out

        return self._memo(("k4", N), compute)

    # -- series tails ------------------------------------------------------

    def series_tail_norm(self, p: int, q: int) -> float:
        """Norm of sum_{N'=p..q} (conditional part at N') / N'^{3/2}.

        Evaluated in segment form (``SeriesTail``), as the batch of one
        row, and memoized per (p, q); a call whose work count exceeds the
        budget raises ``WorkBudgetError`` before evaluating anything.
        """
        charge("series_tail", self._tails([(p, q)]).get((p, q), 0))
        return self._cache[("tail", p, q)]

    def _tails(self, pairs) -> dict:
        """Memoize the series tail norms of the rows (p, q) in ``pairs``
        that are not memoized yet, as one batch.

        Each row checks its own work against the ``series_tail`` budget
        first; the rows over it are evaluated and memoized not at all, and
        come back with their work counts.
        """
        todo = [pq for pq in dict.fromkeys(pairs)
                if ("tail", *pq) not in self._cache]
        for p, q in todo:
            if not 1 <= p <= q:
                raise ValueError("need 1 <= p <= q")
        if not todo:
            return {}
        tail = SeriesTail(self.params, *map(list, zip(*todo)))
        over = {pq: w for pq, w in zip(todo, tail.work.tolist())
                if w > BUDGETS["series_tail"].limit}
        if over:
            todo = [pq for pq in todo if pq not in over]
            if not todo:
                return over
            tail = SeriesTail(self.params, *map(list, zip(*todo)))
        for (p, q), norm_sq in zip(todo, tail.norm_sq().tolist()):
            self._cache[("tail", p, q)] = math.sqrt(norm_sq)
        return over

    # -- per-horizon statistics --------------------------------------------

    def _rate5(self, n: int) -> float:
        """||conditional part|| * log N / sqrt N (RATE_5)."""
        return math.sqrt(self.cond_norm_sq(n)) * math.log2(n) / math.sqrt(n)

    def _bound9(self, n: int) -> float:
        """||conditional part||^2 log^2 N / (N a_[log N]^2) (BOUND_9)."""
        a_e = float(self.params.weights.a(max(_log2_floor(n), 1)))
        if a_e > 0:
            return self.cond_norm_sq(n) * math.log2(n) ** 2 / (n * a_e * a_e)
        return math.inf

    # -- condition sweeps --------------------------------------------------

    def check_condition(self, condition: Condition, grid,
                        c=None) -> ConditionReport:
        """Evaluate one statistic along an increasing grid of horizons.

        Per-horizon statistics are the ones ``table_rows`` tabulates.
        Partial-sum statistics accumulate over the grid itself, each
        point weighted by the gap to its predecessor; on a grid of
        consecutive integers this is the exact series partial sum, on
        coarser grids a lower Riemann rendering of it.  WEIGHTED_4 weights
        the point n by c_n of its decay c = (c_1, c_2, ...), read as its
        last value past its end: c is nonincreasing, so that only
        overstates the series, a conservative reading for the plateau.
        """
        condition = Condition(condition)
        grid = [int(n) for n in grid]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if condition is Condition.TAIL_SERIES:
            self._tails([(n, 2 * n) for n in grid])
            values = [self.series_tail_norm(n, 2 * n) for n in grid]
        elif condition is Condition.LOG_RATE:
            values = [self._rate5(n) for n in grid]
        elif condition is Condition.GROWTH_BOUND:
            values = [self._bound9(n) for n in grid]
        else:
            # MW_3PRIME is WEIGHTED_4 with c = 1: gap * 1.0 == float(gap)
            if condition is Condition.NORM_SERIES:
                c = [1.0]
            elif c is None:
                raise ValueError("weighted series needs its decay sequence")
            c = np.asarray(c, dtype=float)
            if c.ndim != 1 or c.size == 0:
                raise ValueError("decay sequence must be a nonempty vector")
            values = []
            acc = 0.0
            prev = 0
            for n in grid:
                weight = float(c[min(n, c.size) - 1])
                cn = math.sqrt(self.cond_norm_sq(n))
                acc += (n - prev) * weight * cn / n ** 1.5
                values.append(acc)
                prev = n
        return ConditionReport(condition=condition, grid=grid,
                               values=values,
                               verdict=judge(condition, values))

    # -- tabulation --------------------------------------------------------

    def table_rows(self, grid) -> list[dict]:
        """Per-horizon summary used by the CSV emitter."""
        self._tails([(n, 2 * n) for n in grid])
        rows = []
        for n in grid:
            b2 = self.normalizer_sq(_log2_floor(n))
            row = {
                "N": n,
                "b": math.sqrt(b2),
                "cond_norm": math.sqrt(self.cond_norm_sq(n)),
                "sigma": math.sqrt(self.sigma_sq(n)),
                "ratio_bound9": self._bound9(n),
                "ratio_rate5": self._rate5(n),
                "lemma5_ratio": (self.iid_approx_ratio(n)
                                 if b2 > 0 else math.inf),
            }
            # NaN where the row's tail exceeds its work budget
            row["tail_2prime"] = self._cache.get(("tail", n, 2 * n),
                                                 math.nan)
            rows.append(row)
        return rows


CSV_COLUMNS = ("N", "b", "cond_norm", "sigma", "ratio_bound9",
               "ratio_rate5", "lemma5_ratio", "tail_2prime")


def format_csv(rows) -> str:
    """Deterministic CSV body: 17 significant digits for reals."""
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            v = row.get(col, math.nan)
            cells.append(str(v) if isinstance(v, int) else f"{v:.17g}")
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
