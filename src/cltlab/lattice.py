"""Lattice sums of the series-tail window function, and the numpy-only
Hurwitz zeta they rest on.

``engine.SeriesTail`` writes the condition (2') series tail over lags
whose scales read the window function

    F(r) = sum_{N'=p..q} min(N', r) / N'^{3/2},

which is nonlinear only on p <= r <= q.  Every piece of lags that holds a
window is a lattice sum of (v + s t + sum_i g_i F(n_i - j))^2; here they
are evaluated on the smooth extension of F (``tail_f``, ``tail_df``),
which the Hurwitz zeta gives in closed form.  Short pieces, and the lags
that read F below ``DIRECT``, are summed directly; the rest take
Euler-Maclaurin through the fifth derivative, its integral by
Gauss-Legendre on dyadic panels (``lattice_rule``).  All the points of
one tail go through F in one batch (``lattice_terms``), before the
affine values enter (``lattice_sums``).

The Hurwitz zeta zeta(s, a) = sum_{i >= 0} (a + i)^-s, continued
analytically to s = 1/2, lifts arguments below 16 by direct terms; above,
Euler-Maclaurin with eight fixed Bernoulli constants leaves a first
omitted term below 2e-16 relative for every s up to 13/2, and larger
arguments drop the terms that fall below 2^-64.  ``zeta_diff`` takes the
difference of two values so that it keeps its relative accuracy however
small it is.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def _zeta_em(s, b):
    """zeta(s, b) less its leading term b^(1-s)/(s-1), for b >= 16.

    At b = 16 the eight Bernoulli terms leave a first omitted one below
    2e-21 of zeta(s, b) for s = 1/2 and 3/2, which F reads, and below
    2e-16 for s up to 13/2, which only its derivatives read; larger b
    drop the terms that fall below 2^-64 (``_EM_REACH``).
    """
    k = np.asarray(s).astype(int)            # s = k + 1/2
    inv = 1.0 / b
    inv2 = inv * inv
    terms = np.count_nonzero(_EM_REACH > b.min(initial=np.inf))
    coeffs = _EM_COEFFS[k, 8 - terms:]
    acc = 0.0
    for j in range(terms):
        acc = acc * inv2 + coeffs[..., j]
    return np.sqrt(inv) * inv ** k * (0.5 + acc * inv)


def _zeta_head(s, a, n):
    """sum_{i < n} (a + i)^-s elementwise: the direct terms of a small
    argument."""
    head = 0.0
    for i in range(int(n.max())):
        head = head + np.where(i < n, (a + i) ** -s, 0.0)
    return head


def hurwitz_zeta(s, a) -> np.ndarray:
    """zeta(s, a) = sum_{i >= 0} (a + i)^-s elementwise, continued
    analytically to s = 1/2, for s among 1/2, 3/2, .., 15/2 and a >= 1
    (broadcast).

    Arguments below 16 are shifted up by direct terms, and Euler-Maclaurin
    with eight fixed Bernoulli constants gives the rest.
    """
    s, a = np.asarray(s, dtype=float), np.asarray(a, dtype=float)
    b, head = a, 0.0
    if a.min(initial=_ZETA_SHIFT) < _ZETA_SHIFT:
        n = np.maximum(np.ceil(_ZETA_SHIFT - a), 0.0)
        b, head = a + n, _zeta_head(s, a, n)
    return head + (b ** (1.0 - s) / (s - 1.0) + _zeta_em(s, b))


def zeta_diff(s: float, a, b) -> np.ndarray:
    """zeta(s, a) - zeta(s, b) elementwise (broadcast), for s = 1/2 or 3/2
    and 1 <= a <= b with b - a an integer wherever a < 16: the sum of
    (a + i)^-s over a + i < b then.

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
    ra, rb = np.sqrt(a2), np.sqrt(b)
    lead = 2.0 * (b - a2) / (ra + rb)
    if s != 0.5:
        lead /= ra * rb
    # the rests of both arguments in one pass
    rest = _zeta_em(s, np.concatenate([a2.ravel(), b.ravel()]))
    rest = rest[:a2.size] - rest[a2.size:]
    return head + (lead + rest.reshape(lead.shape))


# ---------------------------------------------------------------------------
# The window function F and its derivatives

def tail_f(x, p: int, q: int) -> np.ndarray:
    """F(x) elementwise on the smooth extension

        F(x) = zeta(1/2, p) - zeta(1/2, x+1) + x (zeta(3/2, x+1)
               - zeta(3/2, q+1)),

    which at integers p <= x <= q is sum_{N'=p..q} min(N', x) / N'^{3/2}:
    the partial sum H(x) of N'^{-1/2} up to x plus x times the tail D of
    N'^{-3/2} beyond it, each taken as one ``zeta_diff``.
    """
    x = np.asarray(x, dtype=float)
    a = x + 1.0
    return zeta_diff(0.5, p, a) + x * zeta_diff(1.5, a, q + 1.0)


def tail_df(x, q: int, top: int) -> np.ndarray:
    """F^(k)(x) for k = 1..top, one row each, in closed form: with
    c_k = prod_{i<=k} (2i+1)/2,

        F^(k)(x) = (-1)^k c_k [x zeta(k+3/2, x+1) - zeta(k+1/2, x+1)],

    less zeta(3/2, q+1) for k = 1.
    """
    x = np.asarray(x, dtype=float)
    z = hurwitz_zeta(np.arange(1, top + 2)[:, None] + 0.5,
                     np.append(x + 1.0, q + 1.0))
    k = np.arange(1, top + 1)
    out = (np.cumprod(k + 0.5) * (-1.0) ** k)[:, None] * (
        x * z[1:, :-1] - z[:-1, :-1])
    out[0] -= z[0, -1]
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


def lattice_terms(p: int, q: int, lattice, count, g, n) -> tuple:
    """The part of the lattice sums that the affine values do not
    enter, for the windowed pieces ``lattice`` = (lo, hi, least window
    scale, e, panels) holding ``count`` windows (g, n) each, in turn;
    and Zh = F(q), Z3 = F(p) / p beside it.

    Each piece's points are its direct lags, its Gauss-Legendre nodes
    and its halved Euler-Maclaurin ends.  At every point the window
    terms sum g F(n - j), and at every end their derivatives in j
    through the fifth, each in one batch.
    """
    lo, hi, least, e, panels = lattice
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
    weights = np.concatenate([np.ones(direct.sum()),
                              (half[:, None] * w_gl).ravel(),
                              np.full(end_at.size, 0.5)])
    # each point once per window of its piece, its pairs in a row, so
    # one reduceat adds them; then F(q) and F(p)
    per, w = _window_pairs(own, count)
    x = np.concatenate([n[w] - js.repeat(per), (q, p)])
    f = tail_f(x, p, q)
    start = per.cumsum() - per
    terms = [own, js, weights, np.add.reduceat(g[w] * f[:-2], start)]
    if end_at.size:
        # the ends' pairs close the list; their derivatives in j,
        # d/dj F(n - j) = -F'(n - j), through the fifth
        tail = per[-end_at.size:].sum()
        d = tail_df(x[-2 - tail:-2], q, 5)
        d[::2] *= -1.0
        start = start[-end_at.size:] - start[-end_at.size]
        terms += [end_at, end_j, np.tile([-1.0, 1.0], end_at.size // 2),
                  np.vstack([terms[3][-end_at.size:], np.add.reduceat(
                      g[w[-tail:]] * d, start, axis=1)])]
    return terms, float(f[-2]), float(f[-1]) / p


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
