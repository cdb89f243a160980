"""Rational-arithmetic oracles for tiny parameter sets.

Everything here works from first principles: partial sums are expanded
coordinate by coordinate with literal loops, weights enter as the exact
rational value of their float representation, and all accumulation is
done in ``fractions.Fraction``.  No closed forms, no floating point in
the middle — these are the reference answers the fast engine is tested
against.  Work is capped hard, so only small scales and horizons are
accepted.

Two float evaluators reach sizes the rational one cannot, each
structurally unlike the closed form it checks: ``sigma_sq_enumerated``
materializes every coordinate coefficient of the horizon sum, and
``dense_series_tail_norm`` every lag of every block.  The sampler's
oracle, ``site_sample_batch``, draws every site variable of every
sample literally and sums it against the dense coefficients, normalized.
Between two lattice laws, ``tv_distance`` sums their mass differences
point by point.  The spectral identity checks ``rn_identity_check`` and
``rn_telescoping_check`` are the only copy of the two algebraic
identities that pass between tail sums and blocked sums; they hold every
partial sum of every eigenvalue at once, in one matrix from
``_partial_sums``, so they are meant for small toys only.

Model recap: site variable X(l, m) is standard normal for even block l
and sqrt(N_l) * xi for odd l, where xi is +-1 with probability
1/(2 N_l) each; either way Var X = 1.  The partial sum over a horizon N
assigns X(l, m) the coefficient

    C_l(m) = sum_{k in block l} (a_k / k) * w_k(m, N) / n_k

with w_k the pair-count trapezoid.  Conditioning on the past keeps
m <= 0; the m-th projection keeps the single coordinate m.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

from cltlab.blocks import BlockParity, SequenceParams
from cltlab.engine import BlockProfile, ExactMoments
from cltlab.errors import MemoryBudgetError, ParamsError, WorkBudgetError
from cltlab.laws import Law
from cltlab.simulate import SampleBatch, SampleKind, _horizon, _stream
from cltlab.spectral import SpectralToy, _eigen_terms

#: largest n_k and N the oracles will enumerate
ORACLE_SCALE_CAP = 1 << 11

#: largest coordinate count the dense variance oracle materializes
DENSE_SIGMA_CAP = 1 << 25

#: largest lag-plus-horizon count the dense tail oracle materializes
DENSE_TAIL_CAP = 1 << 20

#: largest site-variable draw count of one site-mode batch
SITE_DRAW_BUDGET = 1 << 26

#: largest dense coefficient array of one block, in bytes
DENSE_BYTE_BUDGET = 1 << 28

_SITE_TAG = 0x8EBC6AF09C88C6E3


def exact_fraction(x) -> Fraction:
    """The exact rational value of a float (or int)."""
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(*float(x).as_integer_ratio())


def count_pairs(n_k: int, m: int, N: int) -> int:
    """#{(j, i): 0 <= j < N, 0 <= i < n_k, j - i = m} by literal loops."""
    count = 0
    for j in range(N):
        for i in range(n_k):
            if j - i == m:
                count += 1
    return count


def cond_weight(n_k: int, j: int, N: int) -> Fraction:
    """Weight of lag j in E(S_N | past), counted pair by pair."""
    count = 0
    for jp in range(N):
        i = jp + j
        if 0 <= i <= n_k - 1:
            count += 1
    return Fraction(count, n_k)


class RationalMoments:
    """Second-moment quantities of a tiny instance, exactly.

    The constructor freezes the per-(block, coordinate) coefficient
    table; every public method is a plain sum over it.
    """

    def __init__(self, params: SequenceParams, N: int):
        if N < 1:
            raise ValueError("N must be >= 1")
        n_top = 1 << params.kmax
        if n_top > ORACLE_SCALE_CAP or N > ORACLE_SCALE_CAP:
            raise WorkBudgetError(
                "oracle enumeration cap exceeded",
                estimated_ops=(N + n_top) * n_top,
                budget=ORACLE_SCALE_CAP ** 2)
        self.params = params
        self.N = N
        self.m_lo = -(n_top - 1)
        self.m_hi = N - 1
        # coeff[block index][m] = C_l(m)
        self.coeff: dict[int, dict[int, Fraction]] = {}
        for b in params.blocks:
            row = {}
            for m in range(self.m_lo, self.m_hi + 1):
                total = Fraction(0)
                for k in range(b.k_lo, b.k_hi + 1):
                    n_k = 1 << k
                    w = count_pairs(n_k, m, N)
                    if w:
                        total += (exact_fraction(params.weights.a(k))
                                  / k) * Fraction(w, n_k)
                row[m] = total
            self.coeff[b.index] = row

    # -- second moments ----------------------------------------------------

    def cond_norm_sq(self) -> Fraction:
        out = Fraction(0)
        for row in self.coeff.values():
            for m, v in row.items():
                if m <= 0:
                    out += v * v
        return out

    def proj_norm_sq(self, l: int) -> Fraction:
        if l < 1 or l > self.N - 1:
            return Fraction(0)
        out = Fraction(0)
        for row in self.coeff.values():
            v = row.get(l, Fraction(0))
            out += v * v
        return out

    def sigma_sq(self) -> Fraction:
        out = Fraction(0)
        for row in self.coeff.values():
            for v in row.values():
                out += v * v
        return out

    def fourth_cumulant(self) -> Fraction:
        """kappa_4 of the horizon sum; only odd blocks contribute."""
        out = Fraction(0)
        for b in self.params.blocks:
            if b.parity is BlockParity.THREE_VALUED:
                horizon = Fraction(1 << b.horizon_log2)
                for v in self.coeff[b.index].values():
                    out += (horizon - 3) * v ** 4
        return out

    def block_mass(self, b, N: int | None = None) -> Fraction:
        N = self.N if N is None else N
        out = Fraction(0)
        for k in range(b.k_lo, b.k_hi + 1):
            if (1 << k) <= N:
                out += exact_fraction(self.params.weights.a(k)) / k
        return out

    def b_sq(self) -> Fraction:
        return sum((self.block_mass(b) ** 2 for b in self.params.blocks),
                   Fraction(0))

    def iid_approx_error_sq(self) -> Fraction:
        """Squared distance between S_N minus its conditional part and the
        flat sum of N shifted copies of the sub-horizon scales.

        The flat target weights every coordinate 0 <= m <= N-1 of each
        block by the block's sub-horizon mass and nothing else; the m = 0
        mismatch appears because the flat sum starts there while the
        centered partial sum does not.
        """
        out = Fraction(0)
        for b in self.params.blocks:
            mass = self.block_mass(b)
            row = self.coeff[b.index]
            out += mass * mass  # m = 0: flat sum present, S' absent
            for m in range(1, self.N):
                diff = row.get(m, Fraction(0)) - mass
                out += diff * diff
        return out

    def series_tail_norm_sq(self, p: int, q: int) -> Fraction:
        """|| sum_{N'=p..q} E(S_N' | past) / N'^{3/2} ||^2, rationally.

        The irrational scalars N'^{-3/2} enter as exact fractions of
        their float64 roundings, matching what any float evaluator sees.
        """
        if not 1 <= p <= q:
            raise ValueError("need 1 <= p <= q")
        if q > ORACLE_SCALE_CAP:
            raise WorkBudgetError("oracle enumeration cap exceeded",
                                  estimated_ops=q, budget=ORACLE_SCALE_CAP)
        n_top = 1 << self.params.kmax
        out = Fraction(0)
        for b in self.params.blocks:
            for j in range(n_top):
                acc = Fraction(0)
                for Np in range(p, q + 1):
                    scale = exact_fraction(float(Np) ** -1.5)
                    inner = Fraction(0)
                    for k in range(b.k_lo, b.k_hi + 1):
                        d = cond_weight(1 << k, j, Np)
                        if d:
                            inner += (exact_fraction(self.params.weights.a(k))
                                      / k) * d
                    acc += scale * inner
                out += acc * acc
        return out


def sigma_sq_enumerated(params: SequenceParams, N: int) -> float:
    """Var of the horizon-N partial sum on a dense coordinate array.

    Every coordinate -(n_kmax - 1) <= m <= N - 1 gets its own cell, and
    each scale adds (a_k / k) / n_k times its pair count, clipped from
    the four trapezoid bounds.
    """
    # the clamped exponent keeps the estimate a small integer; any kmax
    # beyond it is over the cap either way
    n_top = 1 << min(params.kmax, DENSE_SIGMA_CAP.bit_length())
    length = (n_top - 1) + N
    if length > DENSE_SIGMA_CAP:
        raise MemoryBudgetError("dense coordinate range too large",
                                estimated_bytes=8 * length,
                                budget=8 * DENSE_SIGMA_CAP)
    m = np.arange(-(n_top - 1), N, dtype=float)
    out = 0.0
    for b in params.blocks:
        acc = np.zeros_like(m)
        for k in range(b.k_lo, b.k_hi + 1):
            n = float(1 << k)
            w = np.minimum(np.minimum(m + n, n),
                           np.minimum(float(N), float(N) - m))
            np.clip(w, 0.0, None, out=w)
            acc += (params.weights.ratio(k) / n) * w
        out += float(np.dot(acc, acc))
    return out


def dense_series_tail_norm(params: SequenceParams, p: int, q: int) -> float:
    """|| sum_{N'=p..q} E(S_N' | past) / N'^{3/2} || on a dense lag array.

    Every lag 0 <= j < n_{k_hi} of every block gets its own array cell,
    each scale adds its weight (a_k / k) / n_k times

        sum_{N'=p..q} min(N', r) / N'^{3/2},   r = n_k - j,

    read off global prefix sums over N' = 1..q, and all of it runs in
    numpy's extended precision (longdouble).
    """
    if not 1 <= p <= q:
        raise ValueError("need 1 <= p <= q")
    est = q + sum(1 << k for b in params.blocks
                  for k in range(b.k_lo, b.k_hi + 1))
    if est > DENSE_TAIL_CAP:
        raise WorkBudgetError("dense tail oracle cap exceeded",
                              estimated_ops=est, budget=DENSE_TAIL_CAP)
    ld = np.longdouble
    Np = np.arange(1, q + 1, dtype=ld)
    z_half = np.concatenate([[ld(0)], np.cumsum(Np ** ld(-0.5))])
    z_3half = np.concatenate([[ld(0)], np.cumsum(Np ** ld(-1.5))])
    total = ld(0)
    for b in params.blocks:
        acc = np.zeros(1 << b.k_hi, dtype=ld)
        for k in range(b.k_lo, b.k_hi + 1):
            n = 1 << k
            r = np.arange(1, n + 1)
            flat = z_half[np.minimum(r, q)] - z_half[p - 1]
            flat[r < p] = 0
            desc = r * (z_3half[q] - z_3half[np.clip(r, p - 1, q)])
            weight = ld(params.weights.ratio(k)) / ld(n)
            acc[:n] += (weight * (flat + desc))[::-1]   # j = n - r
        total += np.dot(acc, acc)
    return float(np.sqrt(total))


def dense_coefficients(prof: BlockProfile) -> np.ndarray:
    """g_l(m) for the profile's block at every site m of the horizon sum,
    from the lowest up, spike blocks scaled by sqrt(N_l); budget-guarded."""
    lo = prof.segments[0][0]
    hi = prof.segments[-1][1]
    need = 8 * (hi - lo + 1)
    if need > DENSE_BYTE_BUDGET:
        raise MemoryBudgetError("dense profile too large",
                                estimated_bytes=need,
                                budget=DENSE_BYTE_BUDGET)
    out = np.empty(hi - lo + 1)
    for (a, b, mid), v, s in zip(prof.segments, prof.v.tolist(),
                                 prof.slope.tolist()):
        t = np.arange(a - mid, b - mid + 1, dtype=float)
        out[a - lo: b - lo + 1] = v + s * t
    h = prof.block.horizon_log2
    scale = (math.ldexp(math.sqrt(2.0) if h & 1 else 1.0, h // 2)
             if prof.block.parity is BlockParity.THREE_VALUED else 1.0)
    return scale * out


def _open_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1), for inversion transforms.

    ``random()`` gives k / 2^53 for k < 2^53; the 2^-54 offset lifts 0
    off the endpoint, and the top draw, which it rounds up to 1.0, is
    put back at 1 - 2^-53.  No other draw moves.
    """
    return np.minimum(rng.random(size) + 2.0 ** -54, 1.0 - 2.0 ** -53)


def site_sample_batch(moments: ExactMoments, log2_n: int, count: int,
                      seed: int) -> SampleBatch:
    """`count` values of the normalized horizon sum S_N / sqrt(b^2 N) of
    ``moments.params``, N = 2^log2_n, from literal site draws.

    Sample i reads its own Philox stream, keyed by (seed, i), one site
    variable per coefficient: standard normal in Gaussian blocks, by
    scipy's ``ndtri`` of open uniforms rather than the aggregate
    sampler's Generator draws, and +-1 with probability 1/(2 N_l) each in
    spike blocks.  Desk horizons only, and at most ``SITE_DRAW_BUDGET``
    draws per batch.
    """
    if count < 1:
        raise ParamsError("count must be positive", count=count)
    N, b_sq = _horizon(moments, log2_n)
    if N is None:
        raise ParamsError("site mode needs full site resolution")
    profs = moments.profiles(N)
    coords = sum(p.segments[-1][1] - p.segments[0][0] + 1 for p in profs)
    if count * coords > SITE_DRAW_BUDGET:
        raise WorkBudgetError("site mode draw count too large",
                              estimated_ops=count * coords,
                              budget=SITE_DRAW_BUDGET)
    denses = [dense_coefficients(p) for p in profs]
    values = np.empty(count)
    for i in range(count):
        rng = _stream(seed ^ _SITE_TAG, i)
        total = 0.0
        for p, g in zip(profs, denses):
            if p.block.parity is BlockParity.GAUSSIAN:
                total += float(np.dot(g, ndtri(_open_uniforms(rng, g.size))))
            else:
                u = rng.random(g.size)
                eps_half = 0.5 * math.ldexp(1.0, -p.block.horizon_log2)
                x = np.where(u < eps_half, 1.0,
                             np.where(u >= 1.0 - eps_half, -1.0, 0.0))
                total += float(np.dot(g, x))
        values[i] = total
    values /= math.sqrt(b_sq * N)
    return SampleBatch(seed=seed, log2_n=log2_n, count=count,
                       kind=SampleKind.FULL_SN, values=values)


def tv_distance(a: Law, b: Law, unit: float = 1.0) -> float:
    """Total variation between two lattice laws sharing a common unit.

    Support points are keyed by rounding value/unit to the nearest
    integer, which tolerates float jitter well below the lattice spacing.
    """
    masses = {}
    for law, sign in ((a, 1.0), (b, -1.0)):
        if law.gauss_var > 0.0:
            raise ParamsError("total variation needs purely discrete laws",
                              gauss_var=law.gauss_var)
        for key, p in zip(np.round(law.support / unit).astype(np.int64),
                          law.weights):
            masses[int(key)] = masses.get(int(key), 0.0) + sign * float(p)
    return 0.5 * math.fsum(abs(v) for v in masses.values())


def _partial_sums(toy: SpectralToy, n_hi: int) -> np.ndarray:
    """Rows k = 0..n_hi of the operator partial sums S_k per eigenvalue."""
    lam = toy.eigenvalues
    gden = _eigen_terms(toy)[1]
    pw = np.empty((n_hi + 1, toy.dim), dtype=complex)
    pw[0] = 1.0
    if n_hi >= 1:
        pw[1:] = np.cumprod(np.tile(lam, (n_hi, 1)), axis=0)
    return gden * (1.0 - pw)


def rn_identity_check(toy: SpectralToy, n: int) -> float:
    """Residual of the blocked tail identity, relative to its terms.

    The sum of S_k/k^{3/2} over one dyadic block equals S_n times the
    block's scalar weight plus the n-step operator power applied to the
    shifted-weight sum of the earlier partial sums.
    """
    if n < 2:
        raise ParamsError("need n >= 2", n=n)
    s = _partial_sums(toy, 2 * n - 1)
    k_blk = np.arange(n, 2 * n, dtype=float)[:, None]
    lhs = (s[n: 2 * n] / k_blk ** 1.5).sum(axis=0)
    t1 = s[n] * float((k_blk ** -1.5).sum())
    k_pre = np.arange(1, n, dtype=float)[:, None]
    inner = (s[1: n] / (n + k_pre) ** 1.5).sum(axis=0)
    t2 = toy.eigenvalues ** n * inner
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(t1).max()),
                float(np.abs(t2).max()))
    return float(np.abs(lhs - t1 - t2).max()) / scale


def rn_telescoping_check(toy: SpectralToy, n: int,
                         n_tail: int | None = None) -> float:
    """Residual of the summation-by-parts rewrite of the shifted sum.

    Both sides truncate the tail sums R_k at the same n_tail (default
    2n), which keeps the rewrite an exact identity.
    """
    if n < 3:
        raise ParamsError("need n >= 3", n=n)
    n_tail = 2 * n if n_tail is None else n_tail
    if n_tail < n:
        raise ParamsError("tail horizon must cover n", n_tail=n_tail)
    s = _partial_sums(toy, n_tail)
    k_all = np.arange(1, n_tail + 1, dtype=float)[:, None]
    terms = s[1:] / k_all ** 1.5
    # R[k] = sum_{j=k}^{n_tail} S_j/j^{3/2}, suffix sums with R[n_tail+1]=0
    suffix = np.zeros((n_tail + 2, toy.dim), dtype=complex)
    suffix[1:-1] = np.cumsum(terms[::-1], axis=0)[::-1]
    k_pre = np.arange(1, n, dtype=float)[:, None]
    lhs = (s[1: n] / (n + k_pre) ** 1.5).sum(axis=0)
    ks = np.arange(2, n, dtype=float)[:, None]
    jump = (ks ** 1.5 / (n + ks) ** 1.5
            - (ks - 1.0) ** 1.5 / (n + ks - 1.0) ** 1.5)
    rhs = (suffix[2: n] * jump).sum(axis=0)
    rhs = rhs + suffix[1] / (n + 1.0) ** 1.5
    rhs = rhs - suffix[n] * (n - 1.0) ** 1.5 / (2.0 * n - 1.0) ** 1.5
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale
