"""Nonincreasing weight schedules a_1 >= a_2 >= ... in [0, 1].

A schedule assigns a weight ``a_k`` to every dyadic scale index ``k`` and
knows how to sum the ratios ``a_k / k`` over index ranges.  Those partial
sums are the block masses everything else is built on.  Every mode
answers them from one float prefix sum_{j<=k} a_j/j: masses are
differences of it, and one bisection over it finds the first index at
which a block's mass reaches its target.  The constant schedule's prefix
is analytic, a port of the cephes digamma ``psi`` that needs no scipy,
so it is the only mode allowed to exceed the array budget.  The
inverse-log prefix is an exact extended-precision cumsum up to 2^12 and
an Euler-Maclaurin tail beyond it, so every lookup costs O(1) and even
kmax = 2^22 reads only 2^12 weights.  The adapted schedule keeps its
extended-precision prefix at every 2^12-th index and rebuilds one chunk
per lookup, so it holds a few kilobytes of checkpoints, not a prefix
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParamsError

# Largest kmax allowed for a non-constant schedule.
MAX_ARRAY_KMAX = 1 << 25

# Spacing of the stored ratio prefix sums of adapted schedules, and the
# length of the inverse-log schedule's exact head.
_CHUNK = 1 << 12

_EULER = float(np.euler_gamma)

_LN2 = np.log(np.longdouble(2.0))


def _inv_log_em(x: int):
    """ln2 (ln ln x + f/2 + f'/12 - f'''/720) for f(x) = 1/(x ln x).

    In extended precision.  Its rise from 2^12 to k is the Euler-Maclaurin
    sum ln2 * sum_{2^12 < j <= k} f(j) through the B4 term.  Every
    derivative of f alternates in sign on x > 1, so the remainder lies
    below the first omitted term, B6/6! |f^(5)(2^12)| < 1e-25.
    """
    x = np.longdouble(x)
    lg = np.log(x)
    xl = x * lg
    f1 = -(lg + 1.0) / (xl * xl)
    f3 = -(((6.0 * lg + 11.0) * lg + 12.0) * lg + 6.0) / (xl * xl) ** 2
    return _LN2 * (np.log(lg) + 0.5 / xl + f1 / 12.0 - f3 / 720.0)


_EM_HEAD = _inv_log_em(_CHUNK)


# cephes psi's asymptotic-series coefficients, highest power first
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
          7.57575757575757575758E-3, -4.16666666666666666667E-3,
          3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)


def harmonic(n) -> float:
    """Partial harmonic sum 1 + 1/2 + ... + 1/n, analytic in n.

    This is psi(n + 1) + gamma with cephes ``psi`` ported for integer
    arguments, bit for bit ``scipy.special.digamma``: the exact sum up to
    psi(10), the asymptotic series above it.  ``n`` must fit a float.
    """
    if n <= 0:
        return 0.0
    x = float(n) + 1.0
    if x <= 10.0:
        y = 0.0
        for i in range(1, n + 1):
            y += 1.0 / i
        # psi rounds y - gamma first; adding gamma back keeps its bits
        return (y - _EULER) + _EULER
    # cephes skips the series from x = 1e17, where it is below half an ulp
    z = 1.0 / (x * x)
    y = 0.0
    for c in _PSI_A:
        y = y * z + c
    return (math.log(x) - 0.5 / x - y * z) + _EULER


def _read(x):
    return float(x) if np.ndim(x) == 0 else x


class WeightMode(Enum):
    CONST_ONE = "const_one"
    INV_LOG = "inv_log"
    ADAPTED = "adapted"


@dataclass(eq=False)
class WeightSchedule:
    """Weight values over k = 1..kmax plus their ratio prefix sums.

    CONST_ONE stores nothing: every weight is 1 and its prefix is the
    harmonic number in closed form, which is all that is analytic about
    it, so kmax may be astronomically large.  INV_LOG computes
    a_k = 1/log2 k on demand; its prefix is an extended-precision cumsum
    over k <= 2^12, kept once, plus an Euler-Maclaurin tail beyond.
    ADAPTED is built from its ``decay`` alone, which it requires and no
    other mode takes: ``values``, ``anchors`` (the segment endpoints that
    were actually placed) and ``truncated`` (whether the decay ran out
    before the last segment closed) are ``adapted_schedule(decay, kmax)``.
    It sums a_j/j in extended precision, but stores the running prefix
    only at every multiple of 2^12; a lookup rebuilds the one chunk it
    needs from its checkpoint.  ``mass`` and ``first_k_reaching`` read
    the prefix the same way in every mode.
    """

    mode: WeightMode
    kmax: int
    decay: np.ndarray | None = None
    values: np.ndarray | None = field(default=None, init=False)
    anchors: tuple[int, ...] | None = field(default=None, init=False)
    truncated: bool = field(default=False, init=False)
    _checkpoints: np.ndarray | None = field(default=None, init=False,
                                            repr=False)
    _head: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kmax < 1:
            raise ParamsError("kmax must be >= 1", kmax=self.kmax)
        try:
            float(self.kmax)      # the harmonic prefix reads k as a float
        except OverflowError:
            raise ParamsError("kmax too large for a float",
                              kmax=self.kmax) from None
        if (self.decay is not None) != (self.mode is WeightMode.ADAPTED):
            raise ParamsError("only ADAPTED schedules take a decay, "
                              "and they need one", mode=self.mode.value)
        if self.decay is not None:
            self.values, self.anchors, self.truncated = adapted_schedule(
                self.decay, self.kmax)
            self.decay = np.asarray(self.decay, dtype=float)
            if self.kmax >= 2 and not self.decay[-1] < self.decay[0]:
                raise ParamsError(
                    "decay sequence shows no decay over the provided prefix")

    # -- accessors ---------------------------------------------------------

    def a(self, k):
        """Weight a_k by one path for an integer or an integer array k: an
        integer is read as a 0-d array and handed out as a float."""
        return _read(self._a(np.asarray(k)))

    def ratio(self, k):
        """a_k / k, the mass carried by index k."""
        k = np.asarray(k)
        return _read(self._a(k) / k.astype(float))

    def _a(self, k: np.ndarray):
        const = self.mode is WeightMode.CONST_ONE
        if k.size:
            # const weights go on past kmax: BOUND_9 reads a_[log N] there
            lo, hi = int(k.min()), int(k.max())
            if lo < 1 or (hi > self.kmax and not const):
                raise ParamsError("scale index outside the schedule",
                                  k=lo if lo < 1 else hi, kmax=self.kmax)
        if const:
            return np.ones(k.shape)
        if self.values is not None:
            return self.values[k - 1]
        # a_1 = 1 = 1/log2(2)
        return 1.0 / np.log2(np.maximum(k, 2).astype(float))

    # -- prefix sums ---------------------------------------------------------
    # np.cumsum adds strictly in sequence, so seeding a chunk's cumsum with
    # the carry gives the same bits as one cumsum over the whole range.

    def _chunk_sums(self, i: int, carry) -> np.ndarray:
        # extended-precision prefix sums over chunk i, seeded with ``carry``
        lo = i * _CHUNK + 1
        hi = min(lo + _CHUNK - 1, self.kmax)
        r = (np.asarray(self.a(np.arange(lo, hi + 1)), dtype=np.longdouble)
             / np.arange(lo, hi + 1, dtype=np.longdouble))
        r[0] += carry
        return np.cumsum(r)

    def _checkpoint_table(self) -> np.ndarray:
        # entry i = sum_{j <= min(i * _CHUNK, kmax)} a_j/j
        if self._checkpoints is None:
            table = [np.longdouble(0.0)]
            for i in range(-(-self.kmax // _CHUNK)):
                table.append(self._chunk_sums(i, table[-1])[-1])
            self._checkpoints = np.array(table, dtype=np.longdouble)
        return self._checkpoints

    def _prefix(self, k: int) -> float:
        # sum_{j <= k} a_j/j rounded to float, 0 for k = 0; never decreases
        if self.mode is WeightMode.CONST_ONE:
            return harmonic(k)
        if k == 0:
            return 0.0
        if self.mode is WeightMode.INV_LOG:
            if self._head is None:
                self._head = self._chunk_sums(0, 0.0)
            if k <= _CHUNK:
                return float(self._head[k - 1])
            return float(self._head[-1] + (_inv_log_em(k) - _EM_HEAD))
        i = (k - 1) // _CHUNK
        sums = self._chunk_sums(i, self._checkpoint_table()[i])
        return float(sums[k - 1 - i * _CHUNK])

    def mass(self, k_lo: int, k_hi: int) -> float:
        """Sum of a_k / k over k_lo <= k <= k_hi (0 if the range is empty)."""
        k_lo = max(int(k_lo), 1)
        k_hi = min(int(k_hi), self.kmax)
        if k_hi < k_lo:
            return 0.0
        return self._prefix(k_hi) - self._prefix(k_lo - 1)

    def first_k_reaching(self, k_lo: int, threshold: float) -> int | None:
        """Smallest k >= k_lo with mass(k_lo, k) >= threshold, else None."""
        if k_lo < 1:
            raise ParamsError("k_lo must be >= 1", k_lo=k_lo)
        if k_lo > self.kmax:
            return None
        target = self._prefix(k_lo - 1) + threshold
        if self._prefix(self.kmax) < target:
            return None
        lo, hi = k_lo, self.kmax
        while lo < hi:
            mid = (lo + hi) // 2
            if self._prefix(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo


def check_decay(c, kmax: int) -> np.ndarray:
    """The decay sequence c_1..c_kmax as a float array, checked to be
    finite, positive and nonincreasing (rises below 1e-15 pass as
    rounding); a constant sequence is valid."""
    c = np.asarray(c, dtype=float)
    if c.shape != (kmax,):
        raise ParamsError("decay sequence must have length kmax",
                          kmax=kmax)
    # NaN fails every comparison, so it is caught as non-finite
    bad = ~np.isfinite(c) | (c <= 0.0)
    bad[1:] |= np.diff(c) > 1e-15
    if bad.any():
        raise ParamsError("decay sequence must be finite, positive and "
                          "nonincreasing", k=int(np.argmax(bad)) + 1)
    return c


def adapted_schedule(c, kmax: int):
    """Slow weight schedule matched to a prescribed decay sequence.

    ``c`` is a decay sequence over k = 1..kmax (see ``check_decay``).
    Segment endpoints k_n are placed at the first index where c drops
    below 2^-n and the segment is at least n long; the weight at each
    endpoint is capped so that the endpoint-to-endpoint mass contribution
    is at most 1, with a short linear ramp (n steps) joining consecutive
    levels.

    Returns (values, anchors, truncated).
    """
    c = check_decay(c, kmax)
    inv = np.concatenate([[0.0], np.cumsum(
        1.0 / np.arange(1, kmax + 1, dtype=np.longdouble))]).astype(float)

    values = np.empty(kmax, dtype=float)
    values[0] = 1.0
    anchors = [1]
    a_prev = 1.0
    n = 1
    truncated = False
    while anchors[-1] < kmax:
        k_prev = anchors[-1]
        k_min = k_prev + n
        # first k >= k_min with c_k <= 2^-n; c is nonincreasing
        level = 2.0 ** (-n)
        idx = int(np.searchsorted(-c, -level, side="left")) + 1
        k_n = max(k_min, idx)
        if k_n > kmax or c[k_n - 1] > level:
            truncated = True
            values[k_prev:] = a_prev
            break
        seg_mass = inv[k_n] - inv[k_prev]
        a_new = min(a_prev, 1.0 / seg_mass) if seg_mass > 0 else a_prev
        j = np.arange(k_prev + 1, k_n + 1)
        alpha = np.minimum((j - k_prev) / n, 1.0)
        values[k_prev:k_n] = a_prev + alpha * (a_new - a_prev)
        anchors.append(k_n)
        a_prev = a_new
        n += 1
    return values, tuple(anchors), truncated


def build_weights(mode: WeightMode, kmax: int, c=None) -> WeightSchedule:
    """Construct a weight schedule of the given mode.

    CONST_ONE accepts any kmax >= 1 and stores no array.  INV_LOG uses
    a_1 = 1 and a_k = 1/log2(k) for k >= 2.  ADAPTED is built from the
    decay sequence ``c``, which must pass ``check_decay`` and actually
    decay; the other modes ignore ``c``.
    """
    mode = WeightMode(mode)
    if mode is not WeightMode.CONST_ONE and kmax > MAX_ARRAY_KMAX:
        raise ParamsError(
            "kmax exceeds the array budget for non-constant schedules",
            kmax=kmax, budget=MAX_ARRAY_KMAX)
    return WeightSchedule(mode, kmax,
                          decay=c if mode is WeightMode.ADAPTED else None)


def weighted_prefix(schedule: WeightSchedule, c, ks) -> np.ndarray:
    """Partial sums of a_j c_j / j at the requested indices.

    ``c`` is the decay sequence indexed from 1; every requested index
    must be covered by both ``c`` and the schedule.  Accumulation runs
    in extended precision like the plain mass prefix.
    """
    c = np.asarray(c, dtype=float)
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size == 0:
        return np.empty(0)
    k_top = int(ks.max())
    if int(ks.min()) < 1:
        raise ParamsError("indices start at 1", k=int(ks.min()))
    if k_top > c.size:
        raise ParamsError("decay sequence too short for requested index",
                          k=k_top, have=int(c.size))
    if k_top > schedule.kmax:
        raise ParamsError("requested index beyond the schedule",
                          k=k_top, kmax=schedule.kmax)
    j = np.arange(1, k_top + 1, dtype=np.longdouble)
    r = schedule.a(np.arange(1, k_top + 1)) * c[:k_top] / j
    p = np.concatenate([[0.0], np.cumsum(r)])
    return p[ks].astype(float)
