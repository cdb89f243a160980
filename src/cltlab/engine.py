"""Deterministic second-moment engine.

Every quantity here is a finite sum over site coordinates m of squares
(or fourth powers) of per-block coefficient functions

    C_l(m) = sum_{k in block l} (a_k / k) * w_k(m, N) / n_k,

where w_k is the trapezoidal pair count of the double sum over a horizon
N.  C_l is piecewise linear in m with integer breakpoints, so all sums
collapse to Faulhaber closed forms; no per-coordinate enumeration is
needed.  ``BlockProfile`` finds each piece's value and slope from exact
integer prefix sums over k, in O(1) per piece, and rounds each once.
It keeps each piece once, as a table row, and every sum of squares is
one ``math.fsum`` over whole rows.

Three independent routes to the variance exist:

* ``sigma_sq``          — piecewise-linear profile + Faulhaber sums;
* ``sigma_sq_paircov``  — per-pair covariance closed forms, normalized by
  the horizon so it stays finite for dyadic horizons of astronomically
  large exponent (see ``sigma_sq_over_n``);
* ``reference.sigma_sq_enumerated`` — dense numpy evaluation, capped,
  kept beside the other test oracles.

The condition (2') series tail || sum_{N'=p..q} E(S_N' | past) / N'^{3/2} ||
has the same shape in the lag variable: each scale's term is linear,
constant or -- on a window of q - p + 1 lags -- nonlinear.  ``SeriesTail``
sums the affine pieces by the same Faulhaber forms.  The pieces that hold
a window are lattice sums on the smooth extension of the window function,
written with the Hurwitz zeta (``lattice``): short ones and their lags
near r = 0 directly, the rest by Euler-Maclaurin with a Gauss-Legendre
integral, so a tail costs O(scales) at any horizon.  ``WORK_BUDGET`` caps
what each call touches.

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
from .errors import ParamsError, WorkBudgetError
from .lattice import GL_ORDER, lattice_rule, lattice_sums, lattice_terms

#: extra indices kept beyond the largest scale that can matter
K_GUARD = 96

#: largest horizon the integer-exact desk paths accept
DESK_N_CAP = 1 << 52

#: default budget for one series tail, in the pieces, quadrature nodes and
#: directly summed lags its evaluation touches (``SeriesTail.work``)
WORK_BUDGET = 1 << 23


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


def _centred(lo: int, hi: int, top: int = 2) -> tuple:
    """(mid, S0, .., S_top) of lo..hi, top 2 or 4: the exact integer
    power sums of t = m - mid over [lo - mid, hi - mid], which is [-b, b]
    or, without t = -b, [1 - b, b], with b = hi - mid."""
    mid = (lo + hi) // 2
    b = hi - mid
    s2 = b * (b + 1) * (2 * b + 1) // 3     # twice 1^2 + .. + b^2
    sums = [2 * b + 1, 0, s2]
    if top == 4:
        sums += [0, s2 * (3 * b * b + 3 * b - 1) // 5]   # twice 1^4 + ..
    if (lo + hi) & 1:
        sums = [s - (-b) ** p for p, s in enumerate(sums)]
    return (mid, *sums)


def _affine_sq(v, s, s0, s1, s2):
    """Sum of (v + s t)^2 from the power sums S0, S1, S2 of t;
    elementwise over arrays."""
    return v * v * s0 + 2.0 * v * s * s1 + s * s * s2


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
        new = [(k, *float(self.weights.ratio(k)).as_integer_ratio())
               for k in range(self.k_lo + len(rise) - 1, k_cut + 1)]
        if not new:
            return self.sums
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
    and slope is correctly rounded.  ``ExactMoments`` passes one
    ``ScaleSums`` per block to every horizon; built alone, a profile
    makes its own.

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
        if N > DESK_N_CAP:
            raise WorkBudgetError("horizon exceeds the integer-exact cap",
                                  estimated_ops=N, budget=DESK_N_CAP)
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

        # rows (lo, hi, mid, v, slope, S0, S1, S2): a segment and the
        # exact power sums of its centred range
        rows = []
        # every kept scale cuts at 1 - n_k, N - n_k and 0
        ns = [1 << k for k in range(k_lo, k_cut + 1)]
        cuts = sorted({N - 1, *([0] if ns else []), *[1 - n for n in ns],
                       *[N - n for n in ns]})
        for lo, hi in zip(cuts, [c - 1 for c in cuts[1:]] + [N - 1]):
            # 0 is a cut, so a segment lies in m <= -1 or in m >= 0; the
            # regimes hold on (mid, mid + 1), and the slope is that step.
            # Scales below j2 are not capped, those below j1 have w_k = 0.
            mid, *power = _centred(lo, hi)
            j2 = (N - mid - 1).bit_length() - k_lo
            j2 = 0 if j2 < 0 else kept if j2 > kept else j2
            capped = total - rise[j2]     # w_k = N (m < 0) or N - m
            if mid < 0:
                j1 = (-mid - 1).bit_length() - k_lo
                j1 = 0 if j1 < 0 else kept if j1 > kept else j1
                slope = rise[j2] - rise[j1]
                v = (mid * slope + flat[j2] - flat[j1] + N * capped) / one
            else:
                slope = -capped
                v = (flat[j2] + (N - mid) * capped) / one
            rows.append((lo, hi, mid, v, slope / one if hi > lo else 0.0,
                         *power))
        # the split rows; zero if no segment starts at 0 (no scale is kept)
        n = len(rows)
        left = bisect_left(rows, (0,))      # the segments in m <= -1
        right = bisect_left(rows, (1,))     # and the one from 0, if any
        split = [(0.0,) * 5] * 2
        if right > left:
            _, _, mid, v, slope, s0, s1, s2 = rows[left]
            split = [(v, slope, 1, -mid, mid * mid),
                     (v, slope, s0 - 1, s1 + mid, s2 - mid * mid)]
        self.segments = [row[:3] for row in rows]
        self._table = np.array([row[3:] for row in rows] + split,
                               dtype=float).T
        self.v, self.slope = self._table[:2, :n]
        self.past = np.r_[:left, n]
        self.future = np.r_[right:n, n + 1]

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
# Series tails in segment form

class SeriesTail:
    """|| sum_{N'=p..q} E(S_N' | past) / N'^{3/2} ||^2 in segment form.

    At lag j >= 0, scale k contributes g_k * F(n_k - j), where
    g_k = a_k / (k n_k) and

        F(r) = sum_{N'=p..q} min(N', r) / N'^{3/2}   for 1 <= r <= n_k.

    With Zh and Z3 the sums of N'^{-1/2} and N'^{-3/2} over p..q, F is
    linear below the window (r * Z3 for r < p), constant above it (Zh for
    r > q) and nonlinear only on p <= r <= q.  Cutting each block's lag
    range at n_k - q, n_k - p + 1 and n_k leaves pieces on which every
    scale is affine except those whose window covers the piece.  Once
    n_{k-1} >= q, scale k owns three pieces, laid out as arrays over k:
    the constant run [n_{k-1}, n_k - q), its window [n_k - q, n_k - p]
    and its linear run (n_k - p, n_k); only the lags below the first
    n_k >= q are cut one by one (the head), as arrays over the pieces.
    Affine pieces take the centred Faulhaber square, all in one array
    expression.  On a whole window the other scales are constant, so it
    adds the cross and square terms of g F from the sums of F and F^2
    over [p, q].

    Those two sums and every head piece that holds a window are lattice
    sums of (v + s t + sum_i g_i F(n_i - j))^2 on the smooth extension
    of F (``lattice.tail_f``), evaluated through the Hurwitz zeta, as are
    Zh = F(q) and Z3 = F(p) / p.  Short pieces and the lags that read F
    below ``lattice.DIRECT`` are summed directly; the rest take
    Euler-Maclaurin through the fifth derivative, its integral by
    Gauss-Legendre on dyadic panels (``lattice.lattice_rule``).  Each
    tail thus costs O(scales) at any horizon, all of it in one batch of
    array expressions.

    ``work``, which the ``WORK_BUDGET`` gate reads, counts what
    ``norm_sq`` touches, laid out on construction: the pieces (three
    per scale past the head), plus the quadrature nodes and direct lags
    of every windowed head piece and of the shared window [p, q].
    """

    def __init__(self, params: SequenceParams, p: int, q: int):
        if q > 2 * DESK_N_CAP:
            # lags and scales must stay exact in a double and an int64
            raise WorkBudgetError("series tail beyond the integer-exact cap",
                                  estimated_ops=q, budget=2 * DESK_N_CAP)
        self.params, self.p, self.q = params, p, q
        # At lag j the scales above any k add at most 2 Zh / max(n_k, j+1)
        # (a_k / k <= 1, F <= Zh <= 2 sqrt(q)), so dropping those above
        # k_top moves a block's squared norm by less than
        # 2^(4 - K_GUARD) * (1 + M), M the block's kept mass.
        k_top = q.bit_length() + K_GUARD
        k_q = (q - 1).bit_length()           # the least k with n_k >= q
        # The kept blocks' scales in one row, each block closed by a pad of
        # weight 0 so that the sums over a block's scales above an index
        # stop there; which scales are past their block's head or open a
        # block; and the heads' lag pieces as int64 rows (lo, hi, lin, win,
        # top), their scales indexed into that row.
        ks, past, opens = [np.empty(0, dtype=np.int64)], [], []
        heads = [np.empty((5, 0), dtype=np.int64)]
        for b in params.blocks:
            if b.k_lo > k_top:
                # Explicit zero: by the bound above the whole block adds
                # less than 2^(5 + log2 q - k_lo).  For the astronomically
                # deep blocks (k_lo in the thousands or millions) that is
                # under 2^-1074, the smallest positive double, so 0.0 is
                # the exact float value; nothing beyond k_top is formed.
                continue
            kb = np.arange(b.k_lo, min(b.k_hi, k_top) + 1)
            # the head: the scales below q and the first one at or above
            h = min(max(k_q - b.k_lo, 0), kb.size)
            h = min(h + 1, kb.size) if h else 0
            cuts = self._cuts(np.left_shift(1, kb[:h]))
            cuts[2:] += sum(k.size for k in ks)
            heads.append(cuts)
            ks.append(np.append(kb, kb[-1]))
            past.append(np.append(np.arange(kb.size) >= h, False))
            opens.append(np.arange(kb.size + 1) == 0)
        self.ks = np.concatenate(ks)
        self.pads = np.cumsum([k.size for k in ks])[1:] - 1
        self.past = np.concatenate(past + [np.empty(0, dtype=bool)])
        self.opens = np.concatenate(opens + [np.empty(0, dtype=bool)])
        self.head = np.concatenate(heads, axis=1)
        # the windowed pieces: the heads', then the window [p, q] at n = q,
        # whose lattice sums all whole windows past the heads share
        lo, hi, _, win, top = self.head[:, self.head[3] < self.head[4]]
        n = np.left_shift(1, self.ks[win])
        self.shared = bool(self.past.any())
        if self.shared:
            lo, hi, n = np.append(lo, 0), np.append(hi, q - p), np.append(n, q)
        self.lattice = (lo, hi, n, *lattice_rule(lo, hi, n))
        e, panels = self.lattice[3:]
        self.work = int(self.head.shape[1] + 3 * self.past.sum()
                        + self.shared + GL_ORDER * panels.sum()
                        + (hi - e).sum())

    def _cuts(self, ns) -> np.ndarray:
        """The head's lag pieces below ``ns[-1]``, where windows overlap
        or are clipped at lag 0, cut one by one: rows lo, hi, lin, win,
        top.  On lags lo..hi the scales i < lin are past their support,
        lin <= i < win are linear, win <= i < top are in their window and
        i >= top are constant."""
        p, q = self.p, self.q
        if not ns.size:
            return np.empty((5, 0), dtype=np.int64)
        cuts = np.concatenate([[0], ns - q, ns - p + 1, ns])
        cuts = np.sort(cuts[(cuts >= 0) & (cuts < ns[-1])])
        lo = cuts[np.append(True, cuts[1:] != cuts[:-1])]
        return np.array([lo, np.append(lo[1:], ns[-1]) - 1,
                         *(np.searchsorted(ns, lo + d, side="right")
                           for d in (0, p - 1, q))])

    def norm_sq(self) -> float:
        p, q, ks = self.p, self.q, self.ks
        gs = np.ldexp(self.params.weights.ratio(ks), -ks)
        gs[self.pads] = 0.0
        # above[i] = the sum of the g of i's block from i up, added from
        # the top down
        above = np.empty_like(gs)
        for a, b in zip(np.append(0, self.pads[:-1] + 1), self.pads + 1):
            above[a:b] = np.cumsum(gs[a:b][::-1])[::-1]
        # the windows of each windowed piece, its scales win..top-1
        _, _, _, win, top = self.head[:, self.head[3] < self.head[4]]
        count = top - win
        i = np.repeat(win - np.cumsum(count) + count, count) + \
            np.arange(count.sum())
        windows = [(count, gs[i], np.ldexp(1.0, ks[i]))]
        if self.shared:
            windows.append(([1], [1.0], [float(q)]))
        terms, z_half, z_three = lattice_terms(
            p, q, self.lattice, *_columns(windows))
        flat, held = self._head(self.head, ks, gs, above, z_half, z_three)
        if self.shared:
            held = [np.append(c, 0.0) for c in held]
        sums = lattice_sums(terms, *held)
        parts = _affine_sq(*flat).tolist()
        if self.shared:
            # scale k past its head: its window, its linear run and the
            # constant run [n_{k-1}, n_k - q) (from 0 for a block's first
            # scale), whose slope 0 leaves only the S0 term.  Their power
            # sums, and the offset n_k - mid of a linear run, do not
            # depend on k.
            (sum_f, sum_ff), sums = sums[:, -1], sums[:, :-1]
            _, *sums_w = map(float, _centred(-q, -p))
            mid_l, *sums_l = map(float, _centred(1 - p, -1))
            i = np.flatnonzero(self.past)
            g, zg = gs[i], z_three * gs[i]
            v = z_half * above[i + 1]
            parts += (_affine_sq(v, 0.0, *sums_w) + 2.0 * g * (v * sum_f)
                      + g * g * sum_ff).tolist()
            if p > 1:
                parts += _affine_sq(v + zg * -mid_l, -zg,
                                    *sums_l).tolist()
            n = np.ldexp(1.0, ks[i])
            length = np.where(self.opens[i], n, n / 2) - q
            const = z_half * above[i]
            parts += (const * const * length)[length > 0].tolist()
        parts += sums[1].tolist()
        return math.fsum(parts)

    @staticmethod
    def _head(head, ks, gs, above, z_half, z_three) -> tuple:
        """The head pieces' columns: (v, slope, S0, S1, S2) of the affine
        ones and (v, slope, mid) of those holding a window."""
        lo, hi, lin, win, top = head
        # the power sums of t = j - mid over each piece, as in _centred
        mid = (lo + hi) // 2
        b = (hi - mid).astype(float)
        odd = (lo + hi) & 1
        power = (hi - lo + 1.0, odd * b,
                 b * (b + 1.0) * (2.0 * b + 1.0) / 3.0 - odd * b * b)
        # the scales lin <= i < win are linear, g_i Z3 (n_i - j) at lag j
        i = np.arange(ks.size)
        gl = np.where((lin[:, None] <= i) & (i < win[:, None]), gs, 0.0)
        v = z_half * above[top] + z_three * (
            gl * (np.ldexp(1.0, ks) - mid[:, None])).sum(axis=1)
        slope = -z_three * gl.sum(axis=1)
        held = win < top
        return ((v[~held], slope[~held], *(s[~held] for s in power)),
                (v[held], slope[held], mid[held]))

def _columns(rows) -> list:
    """Concatenate tuples of column arrays."""
    return [np.concatenate(col) for col in zip(*rows)]


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


class TrendKind(Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    PLATEAU = "plateau"
    BOUNDED = "bounded"


class Verdict(Enum):
    TREND_CONFIRMED = "TREND_CONFIRMED"
    TREND_VIOLATED = "TREND_VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TrendRule:
    """Expected qualitative behavior of a statistic along a grid."""

    kind: TrendKind
    rel_slack: float = 0.0       # tolerated counter-movement, relative
    plateau_eps: float = 1e-3    # allowed late increase for PLATEAU
    bound_cap: float | None = None

    def apply(self, values) -> Verdict:
        v = np.asarray(values, dtype=float)
        if v.size < 3 or not np.all(np.isfinite(v)):
            return Verdict.INCONCLUSIVE
        scale = float(np.max(np.abs(v))) or 1.0
        slack = self.rel_slack * scale
        d = np.diff(v)
        if self.kind is TrendKind.DECREASING:
            return (Verdict.TREND_CONFIRMED if np.all(d <= slack)
                    and v[-1] < v[0] else Verdict.TREND_VIOLATED)
        if self.kind is TrendKind.INCREASING:
            return (Verdict.TREND_CONFIRMED if np.all(d >= -slack)
                    and v[-1] > v[0] else Verdict.TREND_VIOLATED)
        if self.kind is TrendKind.PLATEAU:
            half = v[v.size // 2:]
            rise = float(half[-1] - half[0])
            return (Verdict.TREND_CONFIRMED if rise <= self.plateau_eps
                    else Verdict.TREND_VIOLATED)
        cap = self.bound_cap if self.bound_cap is not None else math.inf
        return (Verdict.TREND_CONFIRMED if float(np.max(v)) <= cap
                else Verdict.TREND_VIOLATED)


DEFAULT_RULES = {
    Condition.TAIL_SERIES: TrendRule(TrendKind.DECREASING),
    Condition.NORM_SERIES: TrendRule(TrendKind.INCREASING),
    Condition.WEIGHTED_NORM_SERIES: TrendRule(TrendKind.PLATEAU),
    Condition.LOG_RATE: TrendRule(TrendKind.DECREASING),
    Condition.GROWTH_BOUND: TrendRule(TrendKind.BOUNDED),
}


@dataclass
class ConditionReport:
    condition: Condition
    grid: list
    values: list
    verdict: Verdict
    rule: TrendRule

    @property
    def token(self) -> str:
        return self.condition.value


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
    locked: no two threads read one instance, since the worker threads
    of ``sample_batch`` only run plan ops built beforehand.
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

        Evaluated in segment form (``SeriesTail``) and memoized per
        (p, q); a call whose work count exceeds the budget raises
        ``WorkBudgetError`` before evaluating anything.
        """
        if not 1 <= p <= q:
            raise ValueError("need 1 <= p <= q")

        def compute():
            tail = SeriesTail(self.params, p, q)
            if tail.work > WORK_BUDGET:
                raise WorkBudgetError("series tail range too expensive",
                                      estimated_ops=tail.work,
                                      budget=WORK_BUDGET)
            return math.sqrt(tail.norm_sq())

        return self._memo(("tail", p, q), compute)

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

    def check_condition(self, condition: Condition, grid, c=None,
                        rule: TrendRule | None = None) -> ConditionReport:
        """Evaluate one statistic along an increasing grid of horizons.

        Per-horizon statistics are the ones ``table_rows`` tabulates.
        Partial-sum statistics accumulate over the grid itself, each
        point weighted by the gap to its predecessor; on a grid of
        consecutive integers this is the exact series partial sum, on
        coarser grids a lower Riemann rendering of it.
        """
        condition = Condition(condition)
        grid = [int(n) for n in grid]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        rule = rule or DEFAULT_RULES[condition]
        if condition is Condition.TAIL_SERIES:
            values = [self.series_tail_norm(n, 2 * n) for n in grid]
        elif condition is Condition.LOG_RATE:
            values = [self._rate5(n) for n in grid]
        elif condition is Condition.GROWTH_BOUND:
            values = [self._bound9(n) for n in grid]
        else:
            # MW_3PRIME is WEIGHTED_4 with c = 1: gap * 1.0 == float(gap)
            if condition is Condition.NORM_SERIES:
                c = [1.0] * len(grid)
            elif c is None:
                raise ValueError("weighted series needs its c sequence")
            elif callable(c):
                c = [float(c(n)) for n in grid]
            else:
                c = [float(x) for x in c]
            if len(c) != len(grid):
                raise ValueError("need one c value per grid point")
            values = []
            acc = 0.0
            prev = 0
            for weight, n in zip(c, grid):
                cn = math.sqrt(self.cond_norm_sq(n))
                acc += (n - prev) * weight * cn / n ** 1.5
                values.append(acc)
                prev = n
        return ConditionReport(condition=condition, grid=grid,
                               values=values, verdict=rule.apply(values),
                               rule=rule)

    # -- tabulation --------------------------------------------------------

    def table_rows(self, grid) -> list[dict]:
        """Per-horizon summary used by the CSV emitter."""
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
            try:
                row["tail_2prime"] = self.series_tail_norm(n, 2 * n)
            except WorkBudgetError:
                row["tail_2prime"] = math.nan
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
