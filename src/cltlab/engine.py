"""Deterministic second-moment engine.

Every quantity here is a finite sum over site coordinates m of squares
(or fourth powers) of per-block coefficient functions

    C_l(m) = sum_{k in block l} (a_k / k) * w_k(m, N) / n_k,

where w_k is the trapezoidal pair count of the double sum over a horizon
N.  C_l is piecewise linear in m with integer breakpoints, so all sums
collapse to Faulhaber closed forms; no per-coordinate enumeration is
needed.

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
sums the affine pieces by the same Faulhaber forms and evaluates only the
windows densely, from one array over [p, q].  Its cost is counted in
array elements touched and capped by ``WORK_BUDGET`` per call.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .blocks import BlockParity, BlockSpec, SequenceParams
from .errors import WorkBudgetError

#: extra indices kept beyond the largest scale that can matter
K_GUARD = 96

#: largest horizon the integer-exact desk paths accept
DESK_N_CAP = 1 << 52

#: default budget for one series tail, in array elements touched
#: (``SeriesTail.work``); bounds the cost of one table cell to about
#: 0.1 s and a few MB
WORK_BUDGET = 1 << 23


def pair_count(n_k, m, N):
    """Trapezoid weight: #{(j, i): 0 <= j < N, 0 <= i < n_k, j - i = m}.

    Broadcasts over integer arrays: int64 while every m + n_k and N - m
    fits, exact Python ints in object arrays beyond that.
    """
    return np.maximum(0, np.minimum(np.minimum(m + n_k, n_k),
                                    np.minimum(N, N - m)))


def _log2_floor(N: int) -> int:
    return N.bit_length() - 1


def _pow2(j: int) -> float:
    """2^j as a float; underflows to 0 for very negative j (j <= 0 only)."""
    if j < -1074:
        return 0.0
    if j > 1023:
        raise OverflowError(f"2^{j} requested in normalized arithmetic")
    return math.ldexp(1.0, j)


# ---------------------------------------------------------------------------
# Faulhaber power sums (exact integers)

def _power_sums(lo: int, hi: int):
    """(S0..S4) with Sp = sum_{t=lo}^{hi} t^p, exact Python integers."""
    if hi < lo:
        return 0, 0, 0, 0, 0

    def f1(x):
        return x * (x + 1) // 2

    def f2(x):
        return x * (x + 1) * (2 * x + 1) // 6

    def f3(x):
        return (x * (x + 1) // 2) ** 2

    def f4(x):
        return x * (x + 1) * (2 * x + 1) * (3 * x * x + 3 * x - 1) // 30

    a = lo - 1
    return (hi - lo + 1, f1(hi) - f1(a), f2(hi) - f2(a),
            f3(hi) - f3(a), f4(hi) - f4(a))


@dataclass
class Segment:
    """An integer interval on which a block coefficient is affine.

    The value is anchored at the interval midpoint (v(m) = v_mid +
    slope * (m - mid)), which keeps the Faulhaber accumulations centered
    and free of cancellation.
    """

    lo: int
    hi: int
    v_mid: float
    slope: float
    mid: int

    def value(self, m: int) -> float:
        return self.v_mid + self.slope * (m - self.mid)

    def _sums(self, lo, hi):
        t_lo, t_hi = lo - self.mid, hi - self.mid
        return _power_sums(t_lo, t_hi)

    def sum_pow(self, power: int, lo=None, hi=None, shift: float = 0.0):
        """Sum of (value(m) - shift)^power over the clipped interval."""
        lo = self.lo if lo is None else max(lo, self.lo)
        hi = self.hi if hi is None else min(hi, self.hi)
        if hi < lo:
            return 0.0
        s0, s1, s2, s3, s4 = self._sums(lo, hi)
        v, s = self.v_mid - shift, self.slope
        if power == 1:
            return v * s0 + s * float(s1)
        if power == 2:
            return v * v * s0 + 2.0 * v * s * float(s1) + s * s * float(s2)
        if power == 4:
            return (v ** 4 * s0 + 4.0 * v ** 3 * s * float(s1)
                    + 6.0 * v * v * s * s * float(s2)
                    + 4.0 * v * s ** 3 * float(s3) + s ** 4 * float(s4))
        raise ValueError(f"unsupported power {power}")


class BlockProfile:
    """Piecewise-affine coordinate coefficients of one block at horizon N.

    Each segment's value and slope are sums over the block's scales k of
    (a_k / k / 2^k) times a trapezoid count, accumulated from 0.0 in
    increasing k.  ``np.cumsum`` along the scale axis is that sequential
    accumulation (a pairwise ``np.sum`` would change the last digits), so
    the bits match a scalar loop over k.  The counts are exact integers:
    int64 while k_cut + 2 <= 62, exact Python ints (object arrays) above,
    since the cut points reach -2^k_cut; never floats.
    """

    def __init__(self, params: SequenceParams, block: BlockSpec, N: int):
        if N > DESK_N_CAP:
            raise WorkBudgetError("horizon exceeds the integer-exact cap",
                                  estimated_ops=N, budget=DESK_N_CAP)
        self.block = block
        self.N = N
        e = _log2_floor(N)
        # Scales more than K_GUARD doublings above the horizon carry a
        # per-coordinate coefficient below 2^-K_GUARD of the block's
        # leading one; they are dropped, which also keeps the coefficient
        # arithmetic inside float range for astronomically deep blocks.
        k_cut = min(block.k_hi, e + K_GUARD)
        ks = list(range(block.k_lo, k_cut + 1))
        w = params.weights
        coeffs = [w.ratio(k) / float(1 << k) for k in ks]
        cuts = {N - 1}
        for k in ks:
            n = 1 << k
            cuts.update((-n + 1, min(0, N - n), max(0, N - n)))
        cuts = sorted(c for c in cuts if -(1 << k_cut) < c <= N - 1)
        bounds = []
        for i, c in enumerate(cuts):
            nxt = cuts[i + 1] - 1 if i + 1 < len(cuts) else N - 1
            if i + 1 == len(cuts):
                bounds.append((c, N - 1))
            elif nxt >= c:
                bounds.append((c, nxt))
        dtype = np.int64 if k_cut + 2 <= 62 else object
        lo_hi = np.array(bounds, dtype=dtype)
        mid = (lo_hi[:, 0] + lo_hi[:, 1]) // 2
        probe = np.minimum(mid + 1, lo_hi[:, 1])
        n = np.array([1 << k for k in ks], dtype=dtype)
        w_mid = pair_count(n, mid[:, None], N).astype(np.int64)
        w_probe = pair_count(n, probe[:, None], N).astype(np.int64)
        # column 0 is the accumulator's 0.0 start, as in v = 0.0; v += ...
        terms = np.zeros((2, len(bounds), len(ks) + 1))
        terms[0, :, 1:] = np.multiply(coeffs, w_mid)
        terms[1, :, 1:] = np.multiply(coeffs, w_probe - w_mid)
        v_mid, slope = np.cumsum(terms, axis=2)[:, :, -1].tolist()
        self.segments = [Segment(lo, hi, v, sl, m) for (lo, hi), v, sl, m
                         in zip(bounds, v_mid, slope, mid.tolist())]

    @property
    def m_lo(self) -> int:
        return self.segments[0].lo

    def value(self, m: int) -> float:
        for seg in self.segments:
            if seg.lo <= m <= seg.hi:
                return seg.value(m)
        return 0.0

    def sum_pow(self, power: int, lo=None, hi=None, shift: float = 0.0):
        return math.fsum(seg.sum_pow(power, lo, hi, shift)
                         for seg in self.segments)


# ---------------------------------------------------------------------------
# Normalized pair covariances (valid for any dyadic horizon exponent)

def _pair_dot_over_n(e: int, ka: int, kb: int) -> float:
    """sum_m w_{ka}(m) w_{kb}(m) / (n_ka n_kb N) for N = 2^e.

    Exact closed forms per regime, written in powers 2^(j) with j <= 0 so
    the result stays normalized no matter how large e is.
    """
    k, kp = min(ka, kb), max(ka, kb)
    inv_n = _pow2(-e)
    if kp <= e:                       # both scales within the horizon
        # 1 + (n - n')/2N - (n^2 - 1)/(3 n' N)
        return (1.0
                + 0.5 * (_pow2(k - e) - _pow2(kp - e))
                - (_pow2(2 * k - kp - e) - _pow2(-kp - e)) / 3.0)
    xp = _pow2(e - kp)
    if k <= e:                        # mixed: n <= N < n'
        return xp * (0.5 * (1.0 - inv_n)
                     + 0.5 * (_pow2(k - e) + inv_n)
                     - 0.5 * (_pow2(2 * k - 2 * e) - _pow2(k - 2 * e))
                     + (2.0 * _pow2(2 * k - 2 * e) - 3.0 * _pow2(k - 2 * e)
                        + _pow2(-2 * e)) / 6.0)
    x = _pow2(e - k)                  # both beyond the horizon
    one = 1.0 - inv_n
    if k == kp:
        ramps = 2.0 * one * (2.0 - inv_n) / 6.0
    else:
        ramps = 0.5 * one + one * (2.0 - inv_n) / 6.0
    return xp * (1.0 - x * one) + x * xp * ramps


def block_var_over_n(params: SequenceParams, block: BlockSpec,
                     log2_n: int) -> float:
    """Variance contribution of one block at horizon N = 2^log2_n, over N.

    For blocks with few indices this is a direct double sum of the
    normalized pair forms.  For constant-weight blocks spanning
    astronomically many indices, the sum splits into the exact square of
    the sub-horizon mass plus corrections that decay geometrically away
    from the horizon scale, evaluated over index windows with certified
    tails below 2^-90 relative.
    """
    e = int(log2_n)
    w = params.weights
    lo, hi = block.k_lo, block.k_hi
    big_lo = max(lo, e + 1)
    big_hi = min(hi, big_lo + K_GUARD)  # 2^-k decay beyond the horizon
    small_hi = min(hi, e)
    n_small = small_hi - lo + 1

    total = 0.0
    if n_small > 0 and n_small <= 2 * K_GUARD:
        ks = range(lo, small_hi + 1)
        for ka in ks:
            ra = w.ratio(ka)
            for kb in ks:
                total += ra * w.ratio(kb) * _pair_dot_over_n(e, ka, kb)
    elif n_small > 0:
        total += _wide_small_var(params, block, e, small_hi)
    if big_lo <= big_hi:
        bigs = range(big_lo, big_hi + 1)
        for ka in bigs:
            ra = w.ratio(ka)
            for kb in bigs:
                total += ra * w.ratio(kb) * _pair_dot_over_n(e, ka, kb)
        if n_small > 0:
            win_lo = max(lo, small_hi - K_GUARD + 1)
            mass_rest = w.mass(lo, win_lo - 1)
            for kb in bigs:
                rb = w.ratio(kb)
                acc = 0.0
                for ka in range(win_lo, small_hi + 1):
                    acc += w.ratio(ka) * _pair_dot_over_n(e, ka, kb)
                if mass_rest:
                    # far-below scales see the limiting flat form
                    acc += mass_rest * _pair_dot_over_n(e, 0, kb)
                total += 2.0 * rb * acc
    return total


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
    win_lo = max(lo, small_hi - K_GUARD + 1)
    corr = 0.0
    for kp in range(win_lo, small_hi + 1):
        rp = w.ratio(kp)
        pm = w.mass(lo, kp - 1)
        # inner n- and n^2-weighted prefixes: dominated by their own top
        pmn = 0.0
        pmn2_over_np = 0.0
        for k in range(max(lo, kp - K_GUARD), kp):
            r = w.ratio(k)
            pmn += r * _pow2(k - e)
            pmn2_over_np += r * (_pow2(2 * k - kp - e) - _pow2(-kp - e))
        # ordered off-diagonal pairs (k < kp), both-within-horizon form
        corr += 2.0 * rp * (0.5 * (pmn - pm * _pow2(kp - e))
                            - pmn2_over_np / 3.0)
        # diagonal
        corr -= rp * rp * (_pow2(kp - e) - _pow2(-kp - e)) / 3.0
    return mass * mass + corr


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
    r > q) and nonlinear only on p <= r <= q.  Cutting each
    block's lag range at n_k - q, n_k - p + 1 and n_k leaves intervals
    on which every scale is affine except the few whose window covers the
    interval.  Affine intervals are summed by centred Faulhaber closed
    forms (``Segment``); the others are evaluated densely, gathering from
    one array of F over [p, q] built once per evaluation.

    ``work`` counts the array elements an evaluation touches: the shared
    window plus, for each dense interval, its length times the number of
    windows added into it.  It is known on construction, before anything
    is allocated.
    """

    def __init__(self, params: SequenceParams, p: int, q: int):
        self.p, self.q = p, q
        # At lag j the scales above any k add at most 2 Zh / max(n_k, j+1)
        # (a_k / k <= 1, F <= Zh <= 2 sqrt(q)), so dropping those above
        # k_top moves a block's squared norm by less than
        # 2^(4 - K_GUARD) * (1 + M), M the block's kept mass.
        k_top = q.bit_length() + K_GUARD
        self.blocks = []
        self.work = q - p + 1
        for b in params.blocks:
            if b.k_lo > k_top:
                # Explicit zero: by the same bound the whole block adds
                # less than 2^(5 + log2 q - k_lo).  For the astronomically
                # deep blocks (k_lo in the thousands or millions) that is
                # under 2^-1074, the smallest positive double, so 0.0 is
                # the exact float value; nothing beyond k_top is formed.
                continue
            ks = np.arange(b.k_lo, min(b.k_hi, k_top) + 1)
            ns = [1 << int(k) for k in ks]
            gs = np.ldexp(params.weights.ratio(ks), -ks).tolist()
            above = [0.0] * (len(gs) + 1)     # above[i] = sum of gs[i:]
            for i in range(len(gs) - 1, -1, -1):
                above[i] = above[i + 1] + gs[i]
            cuts = {0}
            for n in ns:
                cuts.update((n - q, n - p + 1, n))
            cuts = sorted(c for c in cuts if 0 <= c < ns[-1])
            pieces = []
            for lo, end in zip(cuts, cuts[1:] + [ns[-1]]):
                # On lags lo..end-1 the scales i < lin are past their
                # support, lin <= i < win are linear, win <= i < top are
                # in their window and i >= top are constant.
                lin = bisect_right(ns, lo)
                win = bisect_right(ns, lo + p - 1)
                top = bisect_right(ns, lo + q)
                pieces.append((lo, end - 1, lin, win, top))
                self.work += (end - lo) * (top - win)
            self.blocks.append((ns, gs, above, pieces))

    def norm_sq(self) -> float:
        p, q = self.p, self.q
        r = np.arange(p, q + 1, dtype=float)
        half = np.cumsum(r ** -0.5)                 # sum_{N'=p..r}
        down = np.cumsum((r ** -1.5)[::-1])[::-1]   # sum_{N'=r..q}
        z_half, z_three = float(half[-1]), float(down[0])
        f = half
        f[:-1] += r[:-1] * down[1:]
        parts = []
        for ns, gs, above, pieces in self.blocks:
            for lo, hi, lin, win, top in pieces:
                mid = (lo + hi) // 2
                v = z_half * above[top]
                slope = 0.0
                for i in range(lin, win):
                    v += z_three * gs[i] * (ns[i] - mid)
                    slope -= z_three * gs[i]
                if win == top:
                    parts.append(Segment(lo, hi, v, slope, mid).sum_pow(2))
                    continue
                vals = v + slope * np.arange(lo - mid, hi - mid + 1,
                                             dtype=float)
                for i in range(win, top):
                    # lags lo..hi read F at r = n_k - lo down to n_k - hi
                    vals += gs[i] * f[ns[i] - hi - p:ns[i] - lo - p + 1][::-1]
                # pairwise summation, not a BLAS dot: single-threaded and
                # accurate to O(log n) roundings
                parts.append(float(np.square(vals, out=vals).sum()))
        return math.fsum(parts)


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
    notes: dict = field(default_factory=dict)

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

    Results are cached per horizon (series tails per (p, q)); cache
    fills are idempotent, so concurrent readers may race on them
    harmlessly.
    """

    def __init__(self, params: SequenceParams,
                 work_budget: int = WORK_BUDGET):
        self.params = params
        self.work_budget = work_budget
        self._profiles: dict[int, list[BlockProfile]] = {}
        self._cache: dict = {}

    # -- profiles ----------------------------------------------------------

    def profiles(self, N: int) -> list[BlockProfile]:
        got = self._profiles.get(N)
        if got is None:
            got = [BlockProfile(self.params, b, N)
                   for b in self.params.blocks]
            self._profiles[N] = got
        return got

    # -- masses ------------------------------------------------------------

    def block_mass(self, block: BlockSpec, N: int) -> float:
        """Mass of the block's scales not exceeding the horizon."""
        return self.params.weights.mass(block.k_lo,
                                        min(block.k_hi, _log2_floor(N)))

    def normalizer_sq(self, N: int) -> float:
        """b^2: squared norm of the sum of sub-horizon scale terms."""
        key = ("b2", N)
        if key not in self._cache:
            self._cache[key] = math.fsum(
                self.block_mass(b, N) ** 2 for b in self.params.blocks)
        return self._cache[key]

    def normalizer(self, N: int) -> float:
        return math.sqrt(self.normalizer_sq(N))

    # -- second moments ----------------------------------------------------

    def cond_norm_sq(self, N: int) -> float:
        """Squared norm of the past-conditional part of the horizon sum."""
        key = ("cond", N)
        if key not in self._cache:
            self._cache[key] = math.fsum(
                p.sum_pow(2, hi=0) for p in self.profiles(N))
        return self._cache[key]

    def proj_norm_sq(self, l: int, N: int) -> float:
        """Squared norm of the single-coordinate projection at shift l."""
        if l < 1 or l > N - 1:
            return 0.0
        return math.fsum(p.value(l) ** 2 for p in self.profiles(N))

    def proj_total_sq(self, N: int) -> float:
        """Sum of all projection norms, by closed form."""
        key = ("projtot", N)
        if key not in self._cache:
            self._cache[key] = math.fsum(
                p.sum_pow(2, lo=1, hi=N - 1) for p in self.profiles(N))
        return self._cache[key]

    def sigma_sq(self, N: int) -> float:
        """Var of the horizon-N partial sum (profile route)."""
        key = ("sigma", N)
        if key not in self._cache:
            self._cache[key] = math.fsum(
                p.sum_pow(2) for p in self.profiles(N))
        return self._cache[key]

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
        key = ("iiderr", N)
        if key not in self._cache:
            out = self.normalizer_sq(N)
            for b, p in zip(self.params.blocks, self.profiles(N)):
                out += p.sum_pow(2, lo=1, hi=N - 1,
                                 shift=self.block_mass(b, N))
            self._cache[key] = out
        return self._cache[key]

    def iid_approx_ratio(self, N: int) -> float:
        return self.iid_approx_error_sq(N) / (self.normalizer_sq(N) * N)

    def fourth_cumulant(self, N: int) -> float:
        """kappa_4 of the horizon sum; spikes only (Gaussian blocks add 0)."""
        key = ("k4", N)
        if key not in self._cache:
            out = 0.0
            for b, p in zip(self.params.blocks, self.profiles(N)):
                if b.parity is BlockParity.THREE_VALUED:
                    spike = (math.inf if b.horizon_log2 > 1023
                             else float(b.horizon) - 3.0)
                    out += spike * p.sum_pow(4)
            self._cache[key] = out
        return self._cache[key]

    # -- series tails ------------------------------------------------------

    def series_tail_norm(self, p: int, q: int) -> float:
        """Norm of sum_{N'=p..q} (conditional part at N') / N'^{3/2}.

        Evaluated exactly in segment form (``SeriesTail``) and memoized
        per (p, q); a call whose work estimate exceeds the budget raises
        ``WorkBudgetError`` before allocating anything.
        """
        if not 1 <= p <= q:
            raise ValueError("need 1 <= p <= q")
        key = ("tail", p, q)
        if key not in self._cache:
            tail = SeriesTail(self.params, p, q)
            if tail.work > self.work_budget:
                raise WorkBudgetError("series tail range too expensive",
                                      estimated_ops=tail.work,
                                      budget=self.work_budget)
            self._cache[key] = math.sqrt(tail.norm_sq())
        return self._cache[key]

    # -- condition sweeps --------------------------------------------------

    def check_condition(self, condition: Condition, grid, c=None,
                        rule: TrendRule | None = None) -> ConditionReport:
        """Evaluate one statistic along an increasing grid of horizons.

        Partial-sum statistics accumulate over the grid itself, each
        point weighted by the gap to its predecessor; on a grid of
        consecutive integers this is the exact series partial sum, on
        coarser grids a lower Riemann rendering of it.
        """
        condition = Condition(condition)
        grid = [int(n) for n in grid]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if condition is Condition.WEIGHTED_NORM_SERIES:
            if c is None:
                raise ValueError("weighted series needs its c sequence")
            c = ([float(c(n)) for n in grid] if callable(c)
                 else [float(x) for x in c])
            if len(c) != len(grid):
                raise ValueError("need one c value per grid point")
        rule = rule or DEFAULT_RULES[condition]
        values = []
        acc = 0.0
        prev = 0
        for i, n in enumerate(grid):
            gap = n - prev
            prev = n
            if condition is Condition.TAIL_SERIES:
                values.append(self.series_tail_norm(n, 2 * n))
                continue
            cn = math.sqrt(self.cond_norm_sq(n))
            e = _log2_floor(n)
            if condition is Condition.NORM_SERIES:
                acc += gap * cn / n ** 1.5
                values.append(acc)
            elif condition is Condition.WEIGHTED_NORM_SERIES:
                acc += gap * c[i] * cn / n ** 1.5
                values.append(acc)
            elif condition is Condition.LOG_RATE:
                values.append(cn * math.log2(n) / math.sqrt(n))
            else:  # GROWTH_BOUND
                a_e = float(self.params.weights.a(max(e, 1)))
                denom = n * a_e * a_e
                values.append((cn * cn) * (math.log2(n) ** 2) / denom
                              if denom > 0 else math.inf)
        return ConditionReport(condition=condition, grid=grid,
                               values=values, verdict=rule.apply(values),
                               rule=rule)

    # -- tabulation --------------------------------------------------------

    def table_rows(self, grid, with_tail: bool = True) -> list[dict]:
        """Per-horizon summary used by the CSV emitter."""
        rows = []
        for n in grid:
            e = _log2_floor(n)
            b2 = self.normalizer_sq(n)
            cond2 = self.cond_norm_sq(n)
            cn = math.sqrt(cond2)
            a_e = float(self.params.weights.a(max(e, 1)))
            row = {
                "N": n,
                "b": math.sqrt(b2),
                "cond_norm": cn,
                "sigma": math.sqrt(self.sigma_sq(n)),
                "ratio_bound9": (cond2 * math.log2(n) ** 2
                                 / (n * a_e * a_e) if n > 1 and a_e > 0
                                 else math.inf),
                "ratio_rate5": cn * math.log2(n) / math.sqrt(n),
                "lemma5_ratio": (self.iid_approx_ratio(n)
                                 if b2 > 0 else math.inf),
            }
            if with_tail:
                try:
                    row["tail_2prime"] = self.series_tail_norm(n, 2 * n)
                except WorkBudgetError:
                    row["tail_2prime"] = math.nan
            rows.append(row)
        return rows


CSV_COLUMNS = ("N", "b", "cond_norm", "sigma", "ratio_bound9",
               "ratio_rate5", "lemma5_ratio", "tail_2prime")


def format_csv(rows, columns=CSV_COLUMNS) -> str:
    """Deterministic CSV body: 17 significant digits for reals."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, math.nan)
            cells.append(str(v) if isinstance(v, int) else f"{v:.17g}")
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
