"""Reference laws for the horizon sums, and the distance from a sample
batch to one.

Every law here is one immutable table, ``Law``: the variance of a
Gaussian component, the sorted support and weights of the lattice table
it is convolved with, and the table's certified sup-CDF error.  ``Law``
alone evaluates cdf, left-limit cdf, mean and variance from it.  Plain
functions build each law's table when they are called:
``normal_law`` is one atom at its mean plus its variance;
``sym_poisson_law`` (difference of two independent Poisson variables)
is a pure lattice table; ``finite_law`` is an independent Gaussian
component plus the joint table of one signed-count lattice component
per three-valued block, and ``exact_law`` builds it for the
flat-coefficient stand-in sum from ``simulate.flat_copy``, the very
flat copy that the sampler draws.

``finite_law`` realizes its components with certified error
accounting.  A lattice component whose expected hit count reaches the
sampler's gaussianization threshold is folded into the Gaussian part;
the induced sup-CDF error is bounded by 0.56/sqrt(expected hits) and
tracked in ``cdf_error_bound``, so the oracle makes exactly the same
approximation as the sampler and the two stay comparable.  Components
with astronomically many trials but a modest expected count swap the
binomial count for a Poisson count (total-variation cost at most the
per-trial hit probability).  Everything else is tabulated exactly, from
one inverse FFT of the signed count's characteristic function, with
every mass the table misses counted; a component whose table would not
fit the joint support budget (about 2^34 expected hits) raises
TruncationError rather than degrade silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .blocks import BlockParity, SequenceParams, parity_of
from .engine import ExactMoments
from .errors import ParamsError, TruncationError, charge, check_seed
from .simulate import (CHUNK, FlatRegime, LatticeAtom, SampleKind,
                       derive_seed, flat_copy, flat_regime, sample_batch)

ATOM_MASS_TOL = 1e-12        # lattice pmf truncation mass per law
PRODUCT_BUDGET = 1 << 22     # joint support budget across components
SUPPORT_BUDGET = 1 << 26     # single-law support budget
KS_ONE_PCT_COEF = 1.63       # asymptotic one-sample 1% KS coefficient
KS_SNAP = 1e-9               # evaluation nudge around candidate points

_EVAL_CHUNK = 1 << 16        # Gaussian-mixture cdf elements per step
# samples per step of the one-sample KS pass: the sampler's chunk, so
# neither holds more than a chunk's work arrays
_KS_BLOCK = CHUNK


# ---------------------------------------------------------------------------
# Special functions
#
# Ports, so that no run needs scipy.special.  The normal cdf rounds its
# exp, and the signed-count pmf samples its characteristic function and
# inverts it, in numpy's longdouble: x87 extended precision on x86-64,
# plain double where the platform has no wider type (there the pmf's
# rounding bound, M eps, is 2^11 times larger).

_EPS = float(np.finfo(np.longdouble).eps)
_PI = 4.0 * np.arctan(np.longdouble(1.0))

# cephes ndtr/erfc rational approximations, highest power first; the
# denominators' leading 1 is written out
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2     # erfc(z) is 0 once z^2 exceeds it


def _rational(num, den, x, scale):
    """scale * num(x) / den(x) by Horner, in cephes' operation order."""
    p = np.full_like(x, num[0])
    for c in num[1:]:
        p *= x
        p += c
    p *= scale
    q = np.full_like(x, den[0])
    for c in den[1:]:
        q *= x
        q += c
    p /= q
    return p


def _norm_cdf(a) -> np.ndarray:
    """Standard normal cdf, cephes ``ndtr`` vectorized.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < sqrt(1/2), else
    half of erfc(|x|), reflected for x > 0.  erf is x T(x^2) / U(x^2),
    and erfc is 1 - erf below 1, then exp(-x^2) P/Q below 8 and
    exp(-x^2) R/S above.  exp is taken in extended precision and rounded
    once, so the port gives scipy's bits at all but about 3 in 10^4
    points of a grid over [-40, 40].
    """
    x = np.multiply(a, math.sqrt(0.5), dtype=float)
    out = np.empty_like(x)
    mid = np.abs(x) < 1.0
    xm = x[mid]
    erf = _rational(_ERF_T, _ERF_U, xm * xm, xm)
    y = 0.5 * erf + 0.5
    low = np.abs(xm) >= math.sqrt(0.5)
    erf = erf[low]
    half_erfc = 0.5 * (1.0 - np.abs(erf))
    y[low] = np.where(erf > 0.0, 1.0 - half_erfc, half_erfc)
    out[mid] = y
    tail = ~mid
    xt = x[tail]
    zt = np.abs(xt)
    sq = zt * zt
    g = np.exp(-sq.astype(np.longdouble)).astype(float)
    near = zt < 8.0
    with np.errstate(invalid="ignore"):      # inf / inf at |a| = inf
        g[near] = _rational(_ERFC_P, _ERFC_Q, zt[near], g[near])
        far = ~near
        g[far] = _rational(_ERFC_R, _ERFC_S, zt[far], g[far])
    g *= 0.5
    g[sq > _MAXLOG] = 0.0
    out[tail] = np.where(xt > 0.0, 1.0 - g, g)
    return out


def _sym_poisson_half(n_hi: int, lam: float) -> np.ndarray:
    """e^{-2 lam} I_n(2 lam) for n = 0..n_hi: the pmf of the difference
    of two independent Poisson(lam) counts at +-n.

    Miller's backward recurrence in ratio form: r_n = I_n / I_{n-1}
    = x / (2n + x r_{n+1}), x = 2 lam, from r = 0 at a start index whose
    error, exp(-2 * integral of asinh(t / x) dt from n_hi), is below 1e-17;
    the identity e^{-x} (I_0 + 2 sum_{n>=1} I_n) = 1 fixes the scale.
    """
    x = 2.0 * lam
    top = n_hi + int(math.sqrt(40.0 * x)) + 25
    ratios = []
    r = 0.0
    for n in range(top, 0, -1):
        r = x / (2 * n + x * r)
        ratios.append(r)
    rel = np.cumprod(ratios[::-1])          # I_n / I_0 for n = 1..top
    return np.concatenate(([1.0], rel[:n_hi])) / (1.0 + 2.0 * rel.sum())


# ---------------------------------------------------------------------------
# The law type

def _check_var(gauss_var: float) -> None:
    """Raise ParamsError unless ``gauss_var`` lies in [0, inf)."""
    if not 0.0 <= gauss_var < math.inf:
        raise ParamsError("variance must lie in [0, inf)",
                          gauss_var=gauss_var)


@dataclass(frozen=True, eq=False)
class Law:
    """A Gaussian part of variance ``gauss_var`` convolved with a lattice
    table: ``support`` sorted, ``weights`` aligned with it, read as they
    are (their mass is 1 up to the truncation the table accounts for).
    ``cdf_error_bound`` is the certified sup-CDF error of the table
    against the law it stands for.  The one evaluator reads every cdf,
    left-limit cdf, mean and variance off the table.
    """

    gauss_var: float
    support: np.ndarray
    weights: np.ndarray
    cdf_error_bound: float

    def __post_init__(self):
        _check_var(self.gauss_var)
        self.support.flags.writeable = self.weights.flags.writeable = False

    def cdf(self, x) -> np.ndarray:
        return self._cdf(x, "right")

    def cdf_left(self, x) -> np.ndarray:
        """P(X < x); differs from cdf only at discontinuities."""
        return self._cdf(x, "left")

    def _cdf(self, x, side: str) -> np.ndarray:
        support, weights = self.support, self.weights
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.gauss_var > 0.0:
            sd = math.sqrt(self.gauss_var)
            out = np.empty(x.size)
            step = max(1, _EVAL_CHUNK // support.size)
            for i in range(0, x.size, step):
                z = (x[i:i + step, None] - support[None, :]) / sd
                # a row sum, not a BLAS product: its rounding must not
                # depend on how many rows share the step
                out[i:i + step] = (_norm_cdf(z) * weights).sum(axis=1)
            return out
        idx = np.searchsorted(support, x, side=side)
        return np.concatenate([[0.0], np.cumsum(weights)])[idx]

    def mean(self) -> float:
        total = float(self.weights.sum())
        return float(self.weights @ self.support) / total if total > 0 else 0.0

    def variance(self) -> float:
        total = float(self.weights.sum())
        if total <= 0.0:
            return self.gauss_var
        return self.gauss_var + float(
            self.weights @ (self.support - self.mean()) ** 2) / total

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def discontinuities(self) -> np.ndarray:
        return np.empty(0) if self.gauss_var > 0.0 else self.support


def normal_law(mu: float, var: float) -> Law:
    """NORMAL(mu, var): one atom at its mean plus its variance."""
    if not math.isfinite(mu):
        raise ParamsError("mean must be finite", mu=mu)
    return Law(var, np.array([mu], dtype=float), np.ones(1), 0.0)


def sym_poisson_law(lam: float) -> Law:
    """Difference of two independent Poisson(lam) counts.

    pmf p(n) = e^{-2 lam} I_{|n|}(2 lam) on the integers, from Miller's
    recurrence (``_sym_poisson_half``); the truncated table keeps total
    mass within ``ATOM_MASS_TOL`` of 1 and is left unnormalized.
    """
    if not 0.0 <= lam < math.inf:
        raise ParamsError("rate must lie in [0, inf)", lam=lam)
    if lam == 0.0:
        return Law(0.0, np.zeros(1), np.ones(1), 0.0)
    # 12 standard deviations plus 30: by Bernstein at most 2 e^-45 of
    # the mass lies beyond n_max, so one pass reaches 1 - ATOM_MASS_TOL
    n_max = int(12.0 * math.sqrt(2.0 * lam)) + 30
    if n_max > SUPPORT_BUDGET:
        raise TruncationError(
            "symmetrized-Poisson support exceeds the budget",
            target_mass=1.0 - ATOM_MASS_TOL)
    half = _sym_poisson_half(n_max, lam)
    mass = half[0] + 2.0 * half[1:].sum()
    if mass < 1.0 - ATOM_MASS_TOL:
        raise TruncationError(
            "symmetrized-Poisson truncation fell short",
            achieved_mass=float(mass), target_mass=1.0 - ATOM_MASS_TOL)
    probs = np.concatenate([half[:0:-1], half])
    return Law(0.0, np.arange(-n_max, n_max + 1, dtype=float), probs,
               ATOM_MASS_TOL)


# ---------------------------------------------------------------------------
# Exact finite-horizon law

def _window(trials: int | None, lam: float) -> tuple[int, int]:
    """Half-width W and transform size M of a signed-count table: 12
    standard deviations plus 40 steps, at most the trials if they are
    known, and M the power of two above 2W + 1.  A table that does not
    fit the joint support budget raises TruncationError."""
    w = int(12.0 * math.sqrt(lam) + 40.0)
    if trials is not None:
        w = min(trials, w)
    size = 1 << (2 * w + 1).bit_length()
    if size > PRODUCT_BUDGET:
        raise TruncationError(
            "lattice component too heavy to enumerate and too light to "
            "gaussianize (expected hits 2^%.1f)" % math.log2(lam),
            achieved_mass=0.0, target_mass=1.0 - ATOM_MASS_TOL)
    return w, size


def _signed_count_pmf(trials: int, q: float):
    """(support, probs, lost) for the sum S of ``trials`` independent
    steps of -1, 0, +1 with probabilities q/2, 1 - q, q/2.

    Fourier-series inversion (Abate and Whitt, Queueing Systems 1992):
    the characteristic function phi(t) = (1 - q + q cos t)^n
    = exp(n log1p(-2q sin^2(t/2))), sampled at t = 2 pi j / M, goes
    through one inverse real FFT in extended precision.  That is the pmf
    aliased modulo M; the table keeps |k| <= W < M/2, mirrored from
    k >= 0 so that it is exactly symmetric.  ``lost`` bounds all it
    misses: the mass beyond W and the mass aliased onto the window, each
    at most Bernstein's P(|S| > W) <= 2 exp(-t^2 / (2 (lam + t/3))) with
    t = W + 1 (none when W = n), the transform's rounding, M eps, and
    the rounding noise clipped below 0 and trimmed below eps.
    """
    lam = trials * q
    w, size = _window(trials, lam)
    s = np.sin(np.arange(size // 2 + 1, dtype=np.longdouble) * (_PI / size))
    with np.errstate(divide="ignore"):       # log1p(-1) at q = 1/2
        phi = np.exp(np.longdouble(trials)
                     * np.log1p(-2.0 * np.longdouble(q) * s * s))
    half = np.fft.irfft(phi, size)[:w + 1]
    lost = size * _EPS
    if w < trials:
        t = w + 1.0
        lost += 4.0 * math.exp(-t * t / (2.0 * (lam + t / 3.0)))
    clipped = -np.minimum(half, 0.0).sum()      # p(0) is never noise
    half = np.maximum(half, 0.0)
    top = int(np.flatnonzero(half > _EPS)[-1])
    lost += float(2.0 * (clipped + half[top + 1:].sum()))
    probs = np.concatenate([half[top:0:-1], half[:top + 1]]).astype(float)
    return np.arange(-top, top + 1), probs, lost


def _atom_pmf(atom: LatticeAtom):
    """(support, probs, tv_error, lost_mass) for the signed count.

    Exact at desk trial counts; beyond the cap, where the trials are
    not kept, a modest expected count uses a Poisson count instead,
    certified by the Le Cam style bound TV <= hit probability, and a
    window sized from that count alone.  Both share one support cap.
    """
    if atom.trials is not None:
        support, probs, lost = _signed_count_pmf(atom.trials, atom.hit_prob)
        return support, probs, 0.0, lost
    lam = 2.0 ** atom.log2_mean_hits
    _window(None, lam)
    # Poisson(lam) hits with fair signs: two independent Poisson(lam / 2)
    # counts of opposite sign; Miller's recurrence keeps its far tails
    # to relative precision, which a transform's noise floor cannot
    table = sym_poisson_law(0.5 * lam)
    support, probs = table.support, table.weights
    mass = float(probs.sum())
    tv = math.ldexp(1.0, atom.log2_hit)
    # the table's mass misses 1 by |1 - mass|, up to the rounding of its
    # sum: at most n u for n nonnegative terms summing to about 1
    return support, probs, tv, abs(1.0 - mass) + probs.size * 2.0 ** -53


def finite_law(gauss_var: float, atoms: tuple[LatticeAtom, ...]) -> Law:
    """A Gaussian part plus independent signed-count lattice atoms.

    With no atoms this is exactly NORMAL(0, gauss_var); with gauss_var = 0
    and one atom it is a pure signed-binomial lattice law.  The table's
    ``cdf_error_bound`` sums the gaussianized and Poisson-swapped
    components' charges, the trimmed mass and ``ATOM_MASS_TOL``.
    """
    # checked before gaussianized atoms add their shares to it
    _check_var(gauss_var)
    gv = gauss_var
    err = 0.0
    lost = 0.0
    vals = np.zeros(1)
    pr = np.ones(1)
    for atom in atoms:
        ll = atom.log2_mean_hits
        regime = flat_regime(ll)
        if regime is FlatRegime.ZERO:
            # P(any hit) <= expected hits; the component is a
            # point mass at 0 up to that much total variation.
            err += 2.0 ** max(ll, -1074.0)
            continue
        if regime is FlatRegime.NORMAL:
            gv += atom.var_share
            err += 0.56 * 2.0 ** (-0.5 * ll)
            continue
        support, probs, tv, lo = _atom_pmf(atom)
        err += tv
        lost += lo
        if vals.size * support.size > PRODUCT_BUDGET:
            raise TruncationError(
                "joint lattice support exceeds the budget",
                achieved_mass=float(pr.sum()) - lost,
                target_mass=1.0 - ATOM_MASS_TOL)
        vals = np.add.outer(vals, atom.lattice_scale * support).ravel()
        pr = np.multiply.outer(pr, probs).ravel()
    order = np.argsort(vals, kind="stable")
    return Law(gv, vals[order], pr[order], err + lost + ATOM_MASS_TOL)


def exact_law(params: SequenceParams, log2_n: int,
              moments: ExactMoments | None = None) -> Law:
    """Law of the normalized flat copy, ``simulate.flat_copy``, at the
    horizon N = 2^log2_n: the shares of blocks without a lattice atom
    pool into the Gaussian component, and each atom keeps its signed
    count, whose trial count is an integer up to the desk cap only."""
    copy = flat_copy(params, log2_n, moments or ExactMoments(params))
    gv = 0.0
    for share, atom in copy:
        if atom is None:
            gv += share
    return finite_law(gv, tuple(a for _, a in copy if a is not None))


# ---------------------------------------------------------------------------
# Distances

def ks_distance(samples, law: Law) -> float:
    """Sup-norm distance from the empirical cdf F_n of a float sample
    batch to the cdf F of ``law``; the batch stays as given.

    Float jitter below ``KS_SNAP`` times the law's standard deviation (at
    least 1) is forgiven: samples within it of one of F's jumps are
    snapped onto it, so lattice points that rounding landed on slightly
    different representations still line up, and no sample batch sets
    how leniently it is scored.

    The distance is exact and takes one pass over a sorted copy.  F_n is
    a step function and F is right-continuous and monotone, so the
    supremum is the max of |F_n - F| and of the left-limit difference at
    the distinct sample values, and of |1 - F| at F's last jump (F_n is
    flat between samples), each cdf read once per point (Dimitrova,
    Kaishev and Tan, J. Stat. Softw. 2020).  For a continuous F this is
    the textbook max(i/n - F(x_(i)), F(x_(i)) - (i - 1)/n).
    """
    return _batch_ks(np.array(samples, dtype=float), law)[0]


def _same_table(a: Law, b: Law) -> bool:
    """Whether every distance reads ``a`` and ``b`` alike: their tables
    are equal."""
    return (a.gauss_var == b.gauss_var
            and np.array_equal(a.support, b.support)
            and np.array_equal(a.weights, b.weights))


def _batch_ks(values: np.ndarray, *others: Law) -> list[float]:
    """KS distances from a float batch nothing else reads to each of
    ``others``, each distinct law table scored once.  The batch is
    sorted in place, so no copy is made."""
    values.sort()
    scored: list[tuple[Law, float]] = []
    out = []
    for law in others:
        d = next((d for seen, d in scored if _same_table(seen, law)), None)
        if d is None:
            sd = law.std()
            d = _ks_empirical(values, law, KS_SNAP * (
                max(1.0, sd) if math.isfinite(sd) else 1.0))
            scored.append((law, d))
        out.append(d)
    return out


def _ks_empirical(samples: np.ndarray, law: Law, delta: float) -> float:
    """sup |F_n - F| for the sorted ``samples`` against ``law``.

    One pass in blocks of ``_KS_BLOCK`` samples, so the work arrays stay
    block-sized at any sample count.  Each block is snapped with one
    look-ahead sample, which tells whether its last run of equal values
    ends there; the count before the run is carried across blocks.
    """
    n = samples.size
    if n == 0:
        raise ParamsError("a KS distance needs at least one sample")
    # NaN sorts last, and no comparison would ever count it
    if math.isnan(samples[-1]):
        raise ParamsError("a KS distance needs samples that are not NaN")
    jumps = np.asarray(law.discontinuities(), dtype=float)
    # snap onto the nearest jump (the one whose midpoint interval holds
    # the sample) within delta; the nearest-point map is monotone, so
    # the samples stay sorted
    mids = 0.5 * (jumps[1:] + jumps[:-1])
    before = 0                      # samples before the current run
    d = 0.0
    for start in range(0, n, _KS_BLOCK):
        stop = min(start + _KS_BLOCK, n)
        x = samples[start:stop + 1]
        if jumps.size:
            near = jumps[np.searchsorted(mids, x)]
            x = np.where(np.abs(x - near) <= delta, near, x)
        # distinct values: F_n is the count up to the last of each run of
        # equal samples, and its left limit the count before the run
        ends = np.flatnonzero(x[1:] != x[:-1])
        if stop == n:
            ends = np.append(ends, x.size - 1)
        if ends.size:
            at = x[ends]
            count = ends + (start + 1)
            f = law.cdf(at)
            gap = count / n
            gap -= f
            d = max(d, np.abs(gap, out=gap).max())
            if jumps.size:
                f = law.cdf_left(at)
            left = np.concatenate(([before], count[:-1]))
            before = int(count[-1])
            np.divide(left, n, out=gap)
            gap -= f
            d = max(d, np.abs(gap, out=gap).max())
    if jumps.size:
        # past the greatest sample F_n is 1, and F climbs to its total
        d = max(d, abs(1.0 - law.cdf(jumps[-1:])[0]))
    return float(d)


def ks_pass_bound(count: int) -> float:
    """1% one-sample KS critical value at the given sample count."""
    if count < 1:
        return math.inf
    return KS_ONE_PCT_COEF / math.sqrt(count)


# ---------------------------------------------------------------------------
# Dichotomy report

class DichotomyVerdict(Enum):
    DIFFERENT_LIMITS = "DIFFERENT_LIMITS"
    NO_DICHOTOMY = "NO_DICHOTOMY"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class DichotomyRow:
    horizon_log2: int
    block_index: int
    count: int
    ks_vs_oracle: float        # full-sum empirical vs exact law
    ks_vs_normal: float        # full-sum empirical vs NORMAL(0, 1)
    ks_gate: float             # flat-copy empirical vs exact law
    residual_fraction: float
    note: str = ""

    @property
    def parity(self) -> BlockParity:
        return parity_of(self.block_index)

    @property
    def gate_bound(self) -> float:
        return ks_pass_bound(self.count)

    @property
    def oracle_pass(self) -> bool:
        return self.ks_gate <= self.gate_bound


@dataclass
class DichotomyReport:
    rows: list[DichotomyRow]
    margin: float
    gap: float
    verdict: DichotomyVerdict
    required_count_estimate: int | None
    notes: list[str]


def _check_margin(margin: float) -> None:
    """Raise ParamsError unless ``margin`` is positive and finite."""
    if not 0.0 < margin < math.inf:
        raise ParamsError("margin must be positive and finite", margin=margin)


def decide(rows: list[DichotomyRow], margin: float) -> DichotomyReport:
    """The verdict on scored rows, drawing nothing: INCONCLUSIVE on a
    failed gate, or a gap short of ``margin`` within twice the loosest
    row's 1% KS bound; else DIFFERENT_LIMITS if the gap reaches it."""
    _check_margin(margin)
    odd = [r for r in rows if r.parity is BlockParity.THREE_VALUED]
    even = [r for r in rows if r.parity is BlockParity.GAUSSIAN]
    bad = [r.horizon_log2 for r in rows if not r.oracle_pass]
    notes = []
    gap = math.nan
    if odd and even:
        gap = float(min(r.ks_vs_normal for r in odd)
                    - max(r.ks_vs_normal for r in even))
    else:
        notes.append("both parities need a complete horizon")
    req = None
    if bad:
        # a failed gate voids the comparison, with one parity or two
        notes.append("oracle gate failed at log2 horizons %s" % bad)
        verdict = DichotomyVerdict.INCONCLUSIVE
    elif math.isnan(gap):
        verdict = DichotomyVerdict.NO_DICHOTOMY
    elif gap >= margin:
        verdict = DichotomyVerdict.DIFFERENT_LIMITS
    elif margin - gap <= 2.0 * max(r.gate_bound for r in rows):
        req = math.ceil((2.0 * KS_ONE_PCT_COEF / (margin - gap)) ** 2)
        notes.append("gap within sampling noise of the margin")
        verdict = DichotomyVerdict.INCONCLUSIVE
    else:
        verdict = DichotomyVerdict.NO_DICHOTOMY
    return DichotomyReport(rows, margin, gap, verdict, req, notes)


_GATE_SALT = 1 << 20


def dichotomy_report(params: SequenceParams, count: int, seed: int, *,
                     margin: float = 0.05,
                     moments: ExactMoments | None = None) -> DichotomyReport:
    """Compare normalized sums against their limit candidates per parity.

    At the horizon of complete block i the full sum, drawn at
    ``derive_seed(seed, i)``, is scored against the exact flat-copy law and
    against NORMAL(0,1); the oracle gate draws an independent flat-copy
    batch at ``derive_seed(seed, _GATE_SALT + i)`` and requires its distance
    to the exact law to pass the 1% KS bound, which validates the whole
    sampling/oracle chain at that horizon.  ``decide`` judges the rows.
    Before any draw, a count below 1 or a bad margin raises ParamsError, and
    a law with a Gaussian part whose KS pass would read more cdfs (count
    times its support) than the ``ks_pass`` budget allows WorkBudgetError.

    Horizons are taken one at a time, and each batch is sorted in place,
    scored and dropped before the next is drawn, so the report holds one
    batch, and work arrays of a sampler chunk or a KS block, at a time.
    """
    check_seed(seed)
    if count < 1:
        raise ParamsError("count must be positive", count=count)
    _check_margin(margin)
    moments = moments or ExactMoments(params)
    complete = params.complete_blocks()
    if not complete:
        return DichotomyReport([], margin, math.nan,
                               DichotomyVerdict.NO_DICHOTOMY, None,
                               ["no complete block horizons"])
    laws = []
    for blk in complete:
        law = exact_law(params, blk.horizon_log2, moments)
        if law.gauss_var > 0.0:
            charge("ks_pass", count * law.support.size)
        laws.append(law)
    normal = normal_law(0.0, 1.0)
    rows = []
    for blk, law in zip(complete, laws):
        e = blk.horizon_log2
        ks_vs_oracle, ks_vs_normal = _batch_ks(sample_batch(
            params, e, count, derive_seed(seed, blk.index),
            moments=moments).values, law, normal)
        ks_gate, = _batch_ks(sample_batch(
            params, e, count, derive_seed(seed, _GATE_SALT + blk.index),
            SampleKind.APPROX_IID_SUM, moments=moments).values, law)
        if blk.index == 1:
            residual = 0.0
        else:
            prev = params.blocks[blk.index - 2]
            residual = (moments.normalizer_sq(prev.horizon_log2)
                        / moments.normalizer_sq(e))
        note = ""
        if law.cdf_error_bound > 1e-6:
            note = "oracle error bound %.3g" % law.cdf_error_bound
        rows.append(DichotomyRow(
            horizon_log2=e, block_index=blk.index, count=count,
            ks_vs_oracle=ks_vs_oracle, ks_vs_normal=ks_vs_normal,
            ks_gate=ks_gate, residual_fraction=residual, note=note))
    return decide(rows, margin)


KS_CSV_COLUMNS = ("horizon", "ks_vs_oracle", "ks_vs_normal",
                  "residual_fraction", "verdict")


def format_ks_csv(report: DichotomyReport) -> str:
    """CSV body for a dichotomy report, one row per horizon.

    Horizons beyond 63 bits are written as 2^e to keep the cell width
    (and the int-to-string conversion) bounded.
    """
    lines = [",".join(KS_CSV_COLUMNS)]
    for r in report.rows:
        cell = (str(1 << r.horizon_log2) if r.horizon_log2 <= 62
                else "2^%d" % r.horizon_log2)
        lines.append("%s,%.17g,%.17g,%.17g,%s"
                     % (cell, r.ks_vs_oracle, r.ks_vs_normal,
                        r.residual_fraction, report.verdict.value))
    return "\n".join(lines) + "\n"
