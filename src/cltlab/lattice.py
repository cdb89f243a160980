"""Series tails in segment form (``SeriesTail``), the lattice sums of
their window function, and the numpy-only Hurwitz zeta they rest on.

``SeriesTail`` writes the condition (2') series tail over lags whose
scales read the window function

    F(r) = sum_{N'=p..q} min(N', r) / N'^{3/2},

which is nonlinear only on p <= r <= q.  Every piece of lags that holds a
window is a lattice sum of (v + s t + sum_i g_i F(n_i - j))^2; here they
are evaluated on the smooth extension of F (``tail_f``, ``tail_df``),
which the Hurwitz zeta gives in closed form.  Short pieces, and the lags
that read F below ``DIRECT``, are summed directly; the rest take
Euler-Maclaurin through the fifth derivative, its integral by
Gauss-Legendre on dyadic panels (``lattice_rule``).  All the points of
a batch of tails go through F at once (``lattice_terms``), before the
affine values enter (``lattice_sums``); each tail is a row, and the
only choice made over many points, how many Euler-Maclaurin terms an
argument keeps, is made per row (``_em_first``), so a row's values do
not depend on the rows beside it.

The Hurwitz zeta zeta(s, a) = sum_{i >= 0} (a + i)^-s, continued
analytically to s = 1/2, lifts arguments below 16 by direct terms; above,
Euler-Maclaurin with eight fixed Bernoulli constants leaves a first
omitted term below 2e-16 relative for every s up to 13/2, and larger
arguments drop the terms that fall below 2^-64.  ``zeta_diff`` takes the
difference of two values so that it keeps its relative accuracy however
small it is.

The exact power sums of an integer range (``_centred``, ``_affine_sq``)
and the scale guard ``K_GUARD`` live here too, since the engine's block
profiles read them as well.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

import numpy as np

from .blocks import SequenceParams
from .errors import charge

#: extra indices kept beyond the largest scale that can matter
K_GUARD = 96

#: most work one run of a batch of series tails evaluates at once: the
#: peak of theorem3's 37-row grid stays under 0.9 MB
TAIL_BATCH = 5000


# ---------------------------------------------------------------------------
# Exact power sums of an integer range

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



# ---------------------------------------------------------------------------
# The Hurwitz zeta at half-integer s

#: B_2j / (2j)! for j = 1..8, the Euler-Maclaurin constants
_BERNOULLI = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510), 1))

#: arguments below this are shifted up by direct terms first
_ZETA_SHIFT = 16.0


def _em_coeffs(s: float) -> list:
    """B_2j/(2j)! (s)_(2j-1), with the rising factorial (s)_m, for
    j = 8 down to 1 (Horner order): the zeta tail's Euler-Maclaurin
    series."""
    out, rising = [], s
    for j, b in enumerate(_BERNOULLI, 1):
        out.append(b * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return out[::-1]


# row k for s = k + 1/2: up to 15/2 for F and its derivatives through the
# sixth
_EM_COEFFS = np.array([_em_coeffs(k + 0.5) for k in range(8)])

# Term j (from 1) of the series is below 2^-64 of the leading term
# b^(1-s)/(s-1) for every s of the table once b exceeds _EM_REACH[j - 1].
# The bounds fall with j, so a larger b needs fewer terms.
_EM_REACH = np.array([max((abs(row[-j] * (k - 0.5)) * 2.0 ** 64)
                          ** (0.5 / j)
                          for k, row in enumerate(_EM_COEFFS.tolist()))
                      for j in range(1, 9)])


def _em_first(rows, *args) -> np.ndarray:
    """Per row of the integer ``rows`` (broadcast against each argument
    array in ``args``): the first of the eight Euler-Maclaurin terms,
    counted from the highest, that the row's least argument keeps.  A
    batch of rows thus keeps each row's terms, and each row's values,
    as if it were evaluated alone."""
    least = np.full(np.max(rows, initial=-1) + 1, np.inf)
    for b in args:
        np.minimum.at(least, np.broadcast_to(rows, b.shape), b)
    return (8 - np.count_nonzero(_EM_REACH > least[:, None], axis=1)
            ).astype(np.int8)


def _zeta_em(s, b, first):
    """zeta(s, b) less its leading term b^(1-s)/(s-1), for b >= 16, from
    the Euler-Maclaurin terms ``first`` (broadcast) on.

    At b = 16 the eight Bernoulli terms leave a first omitted one below
    2e-21 of zeta(s, b) for s = 1/2 and 3/2, which F reads, and below
    2e-16 for s up to 13/2, which only its derivatives read; larger b
    drop the terms that fall below 2^-64 (``_EM_REACH``, ``_em_first``).
    """
    k = np.asarray(s).astype(int)            # s = k + 1/2
    inv = 1.0 / b
    inv2 = inv * inv
    acc = np.zeros(np.broadcast_shapes(k.shape, inv.shape))
    last = np.max(first, initial=0)
    for j in range(np.min(first, initial=8), 8):
        # 0.0 up to an argument's first term, which then gives exactly its
        # coefficient, as a Horner sum from 0.0 over its terms does
        c = _EM_COEFFS[k, j]
        acc *= inv2
        acc += np.where(j >= first, c, 0.0) if j < last else c
    # sqrt(inv) inv^k (0.5 + acc inv), in place
    del inv2
    acc *= inv
    acc += 0.5
    acc *= np.sqrt(inv) * inv ** k
    return acc


def _zeta_head(s, a, n):
    """sum_{i < n} (a + i)^-s elementwise: the direct terms of a small
    argument."""
    head = 0.0
    for i in range(int(n.max())):
        head = head + np.where(i < n, (a + i) ** -s, 0.0)
    return head


def hurwitz_zeta(s, a, rows=0) -> np.ndarray:
    """zeta(s, a) = sum_{i >= 0} (a + i)^-s elementwise, continued
    analytically to s = 1/2, for s among 1/2, 3/2, .., 15/2 and a >= 1
    (broadcast, a at most 1-D), in the rows ``rows`` (``_em_first``).

    Arguments below 16 are shifted up by direct terms, and Euler-Maclaurin
    with eight fixed Bernoulli constants gives the rest.
    """
    s, a = np.asarray(s, dtype=float), np.asarray(a, dtype=float)
    b, head = a, 0.0
    if a.min(initial=_ZETA_SHIFT) < _ZETA_SHIFT:
        n = np.maximum(np.ceil(_ZETA_SHIFT - a), 0.0)
        b, head = a + n, _zeta_head(s, a, n)
    return head + (b ** (1.0 - s) / (s - 1.0)
                   + _zeta_em(s, b, _em_first(rows, b)[rows]))


def zeta_diff(s: float, a, b, rows=0) -> np.ndarray:
    """zeta(s, a) - zeta(s, b) elementwise (broadcast, at most 1-D), for
    s = 1/2 or 3/2 and 1 <= a <= b with b - a an integer wherever a < 16:
    the sum of (a + i)^-s over a + i < b then, in the rows ``rows``
    (``_em_first``).

    Direct terms lift a below 16 to 16 or to b, whichever comes first, so
    what is left is exactly 0 or has both arguments >= 16.  There the
    leading terms differ by 2 (sqrt b - sqrt a) = 2 (b - a) / (sqrt a +
    sqrt b) for s = 1/2, and by that over sqrt(a b) for s = 3/2, so a
    difference far smaller than either value keeps its relative accuracy.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a2, head = a, 0.0
    if a.min(initial=_ZETA_SHIFT) < _ZETA_SHIFT:
        n = np.minimum(np.maximum(np.ceil(_ZETA_SHIFT - a), 0.0), b - a)
        a2, head = a + n, _zeta_head(s, a, n)
    # the rests of both arguments, which keep the terms of their row's
    # least argument
    first = _em_first(rows, a2, b)[rows]
    rest = _zeta_em(s, a2, first) - _zeta_em(s, b, first)
    ra, rb = np.sqrt(a2), np.sqrt(b)
    lead = 2.0 * (b - a2) / (ra + rb)
    if s != 0.5:
        lead /= ra * rb
    return head + (lead + rest)


# ---------------------------------------------------------------------------
# The window function F and its derivatives

def tail_f(x, p, q, rows=0) -> np.ndarray:
    """F(x) elementwise on the smooth extension

        F(x) = zeta(1/2, p) - zeta(1/2, x+1) + x (zeta(3/2, x+1)
               - zeta(3/2, q+1)),

    which at integers p <= x <= q is sum_{N'=p..q} min(N', x) / N'^{3/2}:
    the partial sum H(x) of N'^{-1/2} up to x plus x times the tail D of
    N'^{-3/2} beyond it, each taken as one ``zeta_diff``.  Point i is
    in the row ``rows[i]`` (``_em_first``) and reads its ends p and q,
    given one per row (one row by default).
    """
    x = np.asarray(x, dtype=float)
    a = x + 1.0
    p, q = np.atleast_1d(p).astype(float), np.atleast_1d(q)
    return (zeta_diff(0.5, p[rows], a, rows)
            + x * zeta_diff(1.5, a, (q + 1.0)[rows], rows))


def tail_df(x, q, top: int, rows=0) -> np.ndarray:
    """F^(k)(x) for k = 1..top, one row each, in closed form: with
    c_k = prod_{i<=k} (2i+1)/2,

        F^(k)(x) = (-1)^k c_k [x zeta(k+3/2, x+1) - zeta(k+1/2, x+1)],

    less zeta(3/2, q+1) for k = 1.  Point i is in the row ``rows[i]``
    and reads its q, given one per row (one row by default).
    """
    x, q = np.asarray(x, dtype=float), np.atleast_1d(q)
    z = hurwitz_zeta(np.arange(1, top + 2)[:, None] + 0.5,
                     np.append(x + 1.0, q + 1.0),
                     np.append(np.broadcast_to(rows, x.shape),
                               np.arange(q.size)))
    k = np.arange(1, top + 1)
    out = (np.cumprod(k + 0.5) * (-1.0) ** k)[:, None] * (
        x * z[1:, :x.size] - z[:-1, :x.size])
    out[0] -= z[0, x.size + rows]
    return out


# ---------------------------------------------------------------------------
# Lattice sums

#: Gauss-Legendre nodes per panel of a windowed piece
GL_ORDER = 24

#: windowed pieces of at most this many lags, and the lags that read F
#: below it, are summed directly
DIRECT = 256


@functools.cache
def gauss_legendre() -> tuple:
    """The GL_ORDER-point Gauss-Legendre nodes and weights on [-1, 1]:
    Newton steps on P_n from Tricomi's estimates of its roots."""
    n = GL_ORDER
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def lattice_rule(lo, hi, n) -> tuple:
    """How windowed pieces sum over their lags lo..hi, where lag j reads
    F at r >= n - j (n the piece's least window scale), elementwise over
    int64 arrays: (e, panels).

    Lags e+1..hi are summed directly: all of a piece of at most DIRECT
    lags, else those that read F below DIRECT.  Lags lo..e take
    Euler-Maclaurin, its integral by Gauss-Legendre over ``panels``
    panels, on each of which r at most doubles: the least P with
    2^P (n - e) >= n - lo.
    """
    e = np.minimum(hi, n - DIRECT)
    summed = e - lo >= DIRECT
    e = np.where(summed, e, lo - 1)
    ratio = (n - lo - 1) // (n - e) + 1          # ceil((n - lo) / (n - e))
    return e, np.where(summed, np.frexp(ratio - 1)[1], 0)


def lattice_terms(p, q, lattice, count, g, n, rows=0) -> tuple:
    """The part of the lattice sums that the affine values do not
    enter, for the windowed pieces ``lattice`` = (lo, hi, least window
    scale, e, panels) holding ``count`` windows (g, n) each, in turn;
    and per row Zh = F(q), Z3 = F(p) / p beside it.

    Piece i is in the row ``rows[i]``, whose F has the ends p and q given
    one per row (one row by default).  Each piece's points are its direct
    lags, its Gauss-Legendre nodes and its halved Euler-Maclaurin ends.
    At every point the window terms sum g F(n - j), and at every end
    their derivatives in j through the fifth, each in one batch over all
    the rows; a row's values are those it has alone.
    """
    lo, hi, least, e, panels = lattice
    p, q = np.atleast_1d(p), np.atleast_1d(q)
    rows = np.broadcast_to(rows, lo.shape)
    x_gl, w_gl = gauss_legendre()
    pieces = np.arange(lo.size)
    # the direct lags e+1..hi, weight 1
    direct = hi - e
    own = pieces.repeat(direct)
    js = np.arange(own.size) + (e + 1 - direct.cumsum()
                                + direct).repeat(direct)
    # panel t of a piece spans lags (n - 2^(t+1) c, n - 2^t c) with
    # c = n - e, clipped to lo..e
    at = pieces.repeat(panels)
    t = np.arange(at.size) - (panels.cumsum() - panels).repeat(panels)
    c = (least - e)[at]
    b = np.where(t == 0, e[at], least[at] - (c << t))
    a = np.where(t == panels[at] - 1, lo[at], least[at] - (c << t + 1))
    half = 0.5 * (b - a)
    # the Euler-Maclaurin ends lo (sign -1) and e (sign +1), last
    end_at = np.flatnonzero(panels).repeat(2)
    end_j = np.where(np.arange(end_at.size) & 1, e[end_at], lo[end_at])
    own = np.concatenate([own, at.repeat(GL_ORDER), end_at])
    js = np.concatenate([js, ((a + half)[:, None]
                              + half[:, None] * x_gl).ravel(), end_j])
    # each point once per window of its piece, its pairs in a row, so
    # one reduceat adds them; then every row's F(q) and F(p)
    per, w = _window_pairs(own, count)
    row = np.concatenate([rows[own].repeat(per), *[np.arange(p.size)] * 2])
    x = np.concatenate([n[w] - js.repeat(per), q, p])
    f = tail_f(x, p, q, row)
    weights = np.concatenate([np.ones(direct.sum()),
                              (half[:, None] * w_gl).ravel(),
                              np.full(end_at.size, 0.5)])
    pairs = f.size - 2 * p.size
    start = per.cumsum() - per
    terms = [own, js, weights, np.add.reduceat(g[w] * f[:pairs], start)]
    if end_at.size:
        # the ends' pairs close the list; their derivatives in j,
        # d/dj F(n - j) = -F'(n - j), through the fifth
        tail = per[-end_at.size:].sum()
        d = tail_df(x[pairs - tail:pairs], q, 5, row[pairs - tail:pairs])
        d[::2] *= -1.0
        start = start[-end_at.size:] - start[-end_at.size]
        terms += [end_at, end_j, np.tile([-1.0, 1.0], end_at.size // 2),
                  np.vstack([terms[3][-end_at.size:], np.add.reduceat(
                      g[w[-tail:]] * d, start, axis=1)])]
    return terms, f[pairs:pairs + q.size], f[pairs + q.size:] / p


def lattice_sums(terms, v, slope, mid) -> np.ndarray:
    """Rows (sum u, sum u^2) over each windowed piece's lags, where
    u(j) = v + slope (j - mid) + sum over its windows of g F(n - j)."""
    own, js, weights, f = terms[:4]
    u = v[own] + slope[own] * (js - mid[own]) + f
    out = np.array([np.bincount(own, weights * u, v.size),
                    np.bincount(own, weights * u * u, v.size)])
    if len(terms) > 4:
        # B_2k/(2k)! (phi^(2k-1)(e) - phi^(2k-1)(lo)) for k = 1..3, of
        # phi = u and phi = u^2 (Leibniz)
        at, j, sign, (u0, u1, u2, u3, u4, u5) = terms[4:]
        u0 = u0 + (v[at] + slope[at] * (j - mid[at]))
        u1 = u1 + slope[at]
        t1, t3, t5 = _BERNOULLI[:3]
        out[0] += np.bincount(at, sign * (t1 * u1 + t3 * u3 + t5 * u5),
                              v.size)
        out[1] += np.bincount(at, sign * (
            t1 * 2.0 * u0 * u1 + t3 * (2.0 * u0 * u3 + 6.0 * u1 * u2)
            + t5 * (2.0 * u0 * u5 + 10.0 * u1 * u4 + 20.0 * u2 * u3)),
            v.size)
    return out


def _window_pairs(own, count) -> tuple:
    """(per, w): the windows w of the piece ``own`` of each point, that
    point's per[i] pairs in a row; piece i holds the windows first[i] ..
    first[i] + count[i] - 1."""
    per = count[own]
    first = (count.cumsum() - count)[own] - per.cumsum() + per
    return per, first.repeat(per) + np.arange(per.sum())


# ---------------------------------------------------------------------------
# Series tails in segment form

class SeriesTail:
    """|| sum_{N'=p..q} E(S_N' | past) / N'^{3/2} ||^2 in segment form,
    for a batch of rows (p and q int sequences).

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
    of F (``tail_f``), evaluated through the Hurwitz zeta, as are
    Zh = F(q) and Z3 = F(p) / p.  Short pieces and the lags that read F
    below ``DIRECT`` are summed directly; the rest take
    Euler-Maclaurin through the fifth derivative, its integral by
    Gauss-Legendre on dyadic panels (``lattice_rule``).  Each
    tail thus costs O(scales) at any horizon.

    A batch lays its rows out one after another in the same arrays:
    ``ks`` (each kept block's scales, closed by a pad), ``head`` (int64
    rows lo, hi, lin, win, top over the head pieces, scales indexed into
    ``ks``) and ``lattice`` (each row's windowed head pieces, then its
    window [p, q] if it has a scale past its heads, ``shared``), so that
    each step runs once over all of them.  The lattice sums run over
    whole rows in turn, at most ``TAIL_BATCH`` work at a time (a row
    beyond it alone).  What a row reduces as a whole stays per row: its
    head sums over all its scales, its Euler-Maclaurin terms
    (``_em_first``) and its ``math.fsum``; so each row's value is bit
    for bit the one it has alone.

    ``work``, which the ``series_tail`` budget reads, counts per row what
    ``norm_sq`` touches, laid out on construction: the pieces (three
    per scale past the head), plus the quadrature nodes and direct lags
    of every windowed head piece and of the shared window [p, q].
    """

    def __init__(self, params: SequenceParams, p, q):
        self.params = params
        self.p, self.q = np.asarray(p), np.asarray(q)
        charge("tail_lag", int(self.q.max(initial=0)))
        rows = self.p.size
        # (row, k_lo, scales, head scales) of each kept block of each row.
        # At lag j the scales above any k add at most 2 Zh / max(n_k, j+1)
        # (a_k / k <= 1, F <= Zh <= 2 sqrt(q)), so dropping those above
        # k_top moves a block's squared norm by less than
        # 2^(4 - K_GUARD) * (1 + M), M the block's kept mass.  The head is
        # the scales below q and the first one at or above.
        groups = []
        for r, q in enumerate(self.q.tolist()):
            k_top = q.bit_length() + K_GUARD
            k_q = (q - 1).bit_length()       # the least k with n_k >= q
            for b in params.blocks:
                if b.k_lo > k_top:
                    # Explicit zero: by the bound above the whole block
                    # adds less than 2^(5 + log2 q - k_lo).  For the
                    # astronomically deep blocks (k_lo in the thousands
                    # or millions) that is under 2^-1074, the smallest
                    # positive double, so 0.0 is the exact float value;
                    # nothing beyond k_top is formed.
                    continue
                size = min(b.k_hi, k_top) - b.k_lo + 1
                h = min(max(k_q - b.k_lo, 0), size)
                groups.append((r, b.k_lo, size, min(h + 1, size) if h else 0))
        g_row, g_lo, g_size, g_head = np.array(
            groups, dtype=np.int64).reshape(-1, 4).T
        # the kept blocks' scales, each block closed by a pad of weight 0
        # so that the sums over a block's scales above an index stop
        # there; which scales are past their block's head or open a block
        span = g_size + 1
        self._start = np.cumsum(span) - span
        group = np.arange(span.size).repeat(span)
        pos = np.arange(span.sum()) - self._start[group]
        size = g_size[group]
        self.ks = g_lo[group] + np.minimum(pos, size - 1)
        self.pads = self._start + g_size
        self.past = (pos >= g_head[group]) & (pos < size)
        self.opens = pos == 0
        self._past_row = g_row[group[self.past]]
        del group, pos, size
        self.head, head_group = self._cuts(g_row, g_lo, g_head)
        self._head_row = g_row[head_group]
        self.shared = np.bincount(self._past_row, minlength=rows) > 0
        # the windowed pieces: each row's windowed head pieces, then its
        # window [p, q] at n = q, whose lattice sums all its whole windows
        # past the heads share; ``_from_head`` indexes the head piece of
        # each, -1 for a shared window
        held = np.flatnonzero(self.head[3] < self.head[4])
        own = np.flatnonzero(self.shared)
        row = np.concatenate([self._head_row[held], own])
        order = np.argsort(row, kind="stable")
        self._lattice_row = row[order]
        self._from_head = np.append(held, np.full(own.size, -1))[order]
        lo = np.append(self.head[0, held], np.zeros_like(own))[order]
        hi = np.append(self.head[1, held], (self.q - self.p)[own])[order]
        n = np.append(np.left_shift(1, self.ks[self.head[3, held]]),
                      self.q[own])[order]
        self.lattice = (lo, hi, n, *lattice_rule(lo, hi, n))
        e, panels = self.lattice[3:]
        # each row's scales, head pieces and lattice pieces, as slices
        self._ks_at = np.append(self._start, self.ks.size)[
            np.searchsorted(g_row, np.arange(rows + 1))]
        self._head_at, self._lattice_at = (
            np.searchsorted(r, np.arange(rows + 1))
            for r in (self._head_row, self._lattice_row))
        self.work = (np.bincount(self._head_row, minlength=rows)
                     + 3 * np.bincount(self._past_row, minlength=rows)
                     + self.shared + np.bincount(
                         self._lattice_row, GL_ORDER * panels + (hi - e),
                         minlength=rows).astype(np.int64))

    def _cuts(self, row, k_lo, h) -> tuple:
        """The head's lag pieces below its top scale n, where windows
        overlap or are clipped at lag 0, cut one by one, for every block
        of every row: rows lo, hi, lin, win, top, and each piece's block.
        On lags lo..hi the scales i < lin are past their support,
        lin <= i < win are linear, win <= i < top are in their window and
        i >= top are constant."""
        blocks = np.flatnonzero(h)
        size = h[blocks]
        ends = np.cumsum(size)
        at = blocks.repeat(size)                         # per head scale
        ns = np.left_shift(1, k_lo[at] + np.arange(at.size)
                           - (ends - size).repeat(size))
        top = np.zeros_like(h)
        top[blocks] = ns[ends - 1]
        p, q = self.p[row[at]], self.q[row[at]]
        cut = np.concatenate([np.zeros_like(blocks), ns - q, ns - p + 1, ns])
        of = np.concatenate([blocks, at, at, at])
        keep = (cut >= 0) & (cut < top[of])
        cut, of = cut[keep], of[keep]
        order = np.lexsort((cut, of))
        cut, of = cut[order], of[order]
        new = np.ones(cut.size, dtype=bool)
        new[1:] = (cut[1:] != cut[:-1]) | (of[1:] != of[:-1])
        lo, of = cut[new], of[new]
        last = np.ones(lo.size, dtype=bool)
        last[:-1] = of[1:] != of[:-1]
        hi = np.where(last, top[of], np.append(lo[1:], 0)) - 1
        row = row[of]

        def below(x):
            # how many of the block's head scales have n_i <= x, as the
            # index of the first that does not
            e = np.frexp(np.maximum(x, 1).astype(float))[1].astype(
                np.int64) - 1
            e -= np.left_shift(1, e) > x      # a rounded-up x
            return self._start[of] + np.where(
                x >= 1, np.clip(e - k_lo[of] + 1, 0, h[of]), 0)

        return np.array([lo, hi, below(lo), below(lo + self.p[row] - 1),
                         below(lo + self.q[row])]), of

    def norm_sq(self):
        ks = self.ks
        gs = np.ldexp(self.params.weights.ratio(ks), -ks)
        gs[self.pads] = 0.0
        # above[i] = the sum of the g of i's block from i up, added from
        # the top down: each block reversed into a row of its own
        span = self.pads - self._start + 1
        group = np.arange(span.size).repeat(span)
        flip = self.pads[group] - np.arange(ks.size)
        above = np.zeros((span.size, span.max(initial=0)))
        above[group, flip] = gs
        above = np.cumsum(above, axis=1)[group, flip]
        del group, flip
        return self._fsums(gs, above, *self._lattice(gs, above))

    def _lattice(self, gs, above) -> tuple:
        """Each row's Zh and Z3, the head pieces' v and slope, and the
        lattice sums of every windowed piece, over runs of whole rows."""
        p, q, ks = self.p, self.q, self.ks
        # the windows of each lattice piece: a windowed head piece's
        # scales win..top-1, a shared window's one scale n = q
        lo, hi, _, win, top = self.head
        h = self._from_head
        count = np.append(top - win, 1)[h]
        i = np.arange(count.sum()) + (np.append(win, -1)[h]
                                      - count.cumsum() + count).repeat(count)
        shared = (h < 0).repeat(count)
        g = np.where(shared, 1.0, gs[i])
        n = np.where(shared, q[self._lattice_row].repeat(count),
                     np.ldexp(1.0, ks[i]))
        at = np.append(0, count.cumsum())
        del i, shared
        # A head piece's v and slope read its row's Zh and Z3, which its
        # run's lattice terms give; index -1 reads 0.0, a shared window's
        # v, slope and mid.
        s0, s1 = self._head_sums(gs)
        z_half, z_three = np.empty((2, p.size))
        v, slope = np.zeros((2, lo.size + 1))
        mid = np.append((lo + hi) // 2, 0)
        sums = np.empty((2, h.size))
        for r0, r1 in self._runs():
            a, b = self._lattice_at[[r0, r1]].tolist()
            c, d = self._head_at[[r0, r1]].tolist()
            wa, wb = at[[a, b]].tolist()
            terms, z_half[r0:r1], z_three[r0:r1] = lattice_terms(
                p[r0:r1], q[r0:r1], tuple(x[a:b] for x in self.lattice),
                count[a:b], g[wa:wb], n[wa:wb], self._lattice_row[a:b] - r0)
            row = self._head_row[c:d]
            v[c:d] = z_half[row] * above[top[c:d]] + z_three[row] * s1[c:d]
            slope[c:d] = -z_three[row] * s0[c:d]
            sums[:, a:b] = lattice_sums(terms, v[h[a:b]], slope[h[a:b]],
                                        mid[h[a:b]])
            del terms           # before the next run's are built
        return z_half, z_three, v[:-1], slope[:-1], sums

    def _fsums(self, gs, above, z_half, z_three, v, slope, sums):
        """Each row's squared norm, its parts in one ``math.fsum``, from
        the head pieces' v and slope and the lattice sums."""
        p, q, h = self.p, self.q, self._from_head
        # the affine head pieces take the Faulhaber square, with the power
        # sums of t = j - mid over each piece as in _centred
        lo, hi, _, win, top = self.head
        mid = (lo + hi) // 2
        s = (hi - mid).astype(float)
        odd = (lo + hi) & 1
        power = (hi - lo + 1.0, odd * s,
                 s * (s + 1.0) * (2.0 * s + 1.0) / 3.0 - odd * s * s)
        affine = win >= top
        parts = [(_affine_sq(v[affine], slope[affine],
                             *(x[affine] for x in power)),
                  self._head_row[affine]),
                 (sums[1, h >= 0], self._lattice_row[h >= 0])]
        i = np.flatnonzero(self.past)
        if i.size:
            # scale k past its head: its window, its linear run and the
            # constant run [n_{k-1}, n_k - q) (from 0 for a block's first
            # scale), whose slope 0 leaves only the S0 term.  Their power
            # sums, and the offset n_k - mid of a linear run, depend on
            # the row only.
            row = self._past_row
            sum_f, sum_ff = np.zeros((2, p.size))
            sum_f[self.shared], sum_ff[self.shared] = sums[:, h < 0]
            cent = np.array([[*_centred(-y, -x)[1:], *_centred(1 - x, -1)]
                             for x, y in zip(p.tolist(), q.tolist())],
                            dtype=float).T
            g, zg = gs[i], z_three[row] * gs[i]
            v = z_half[row] * above[i + 1]
            parts.append((_affine_sq(v, 0.0, *cent[:3, row])
                          + 2.0 * g * (v * sum_f[row])
                          + g * g * sum_ff[row], row))
            lin = p[row] > 1
            row_l = row[lin]
            parts.append((_affine_sq(v[lin] + zg[lin] * -cent[3, row_l],
                                     -zg[lin], *cent[4:, row_l]), row_l))
            n = np.ldexp(1.0, self.ks[i])
            length = np.where(self.opens[i], n, n / 2) - q[row]
            const = z_half[row] * above[i]
            parts.append(((const * const * length)[length > 0],
                          row[length > 0]))
        # every part comes in row order: a row's are a slice of each
        rows = np.arange(p.size + 1)
        parts = [(x, np.searchsorted(r, rows).tolist()) for x, r in parts]
        return np.array([math.fsum(chain.from_iterable(
            x[at[r]:at[r + 1]].tolist() for x, at in parts))
            for r in range(p.size)])

    def _runs(self) -> list:
        """(first, end) of each run of rows whose summed work stays
        within ``TAIL_BATCH``, a row beyond it alone."""
        cuts, load = [0], 0
        for r, w in enumerate(self.work.tolist()):
            if r > cuts[-1] and load + w > TAIL_BATCH:
                cuts.append(r)
                load = 0
            load += w
        cuts.append(self.p.size)
        return list(zip(cuts[:-1], cuts[1:]))

    def _head_sums(self, gs) -> tuple:
        """Per head piece, the sums of g_i and of g_i (n_i - mid) over its
        linear scales lin <= i < win, where g_i Z3 (n_i - j) is the term
        at lag j; each row sums over all its scales, as alone."""
        lo, hi, lin, win, _ = self.head
        mid = (lo + hi) // 2
        ns = np.ldexp(1.0, self.ks)
        s0, s1 = np.empty((2, lo.size))
        for a, b, c, d in zip(self._ks_at[:-1].tolist(),
                              self._ks_at[1:].tolist(),
                              self._head_at[:-1].tolist(),
                              self._head_at[1:].tolist()):
            if c < d:
                i = np.arange(a, b)
                gl = np.where((lin[c:d, None] <= i) & (i < win[c:d, None]),
                              gs[a:b], 0.0)
                s1[c:d] = (gl * (ns[a:b] - mid[c:d, None])).sum(axis=1)
                s0[c:d] = gl.sum(axis=1)
        return s0, s1
