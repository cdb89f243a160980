"""Reference laws for the horizon sums and distances between them.

Four law variants share one small interface (cdf, left-limit cdf, moments,
quantiles): NORMAL, SYM_POISSON (difference of two independent Poisson
variables), EXACT_FINITE (the law of the flat-coefficient stand-in sum:
an independent Gaussian component plus one signed-count lattice component
per three-valued block), and EMPIRICAL (a sorted sample batch).

EXACT_FINITE components are realized with certified error accounting.  A
lattice component whose expected hit count exceeds the sampler's
gaussianization threshold is folded into the Gaussian part; the induced
sup-CDF error is bounded by 0.56/sqrt(expected hits) and tracked in
``cdf_error_bound``, so the oracle makes exactly the same approximation as
the sampler and the two stay comparable.  Components with astronomically
many trials but a modest expected count swap the binomial count for a
Poisson count (total-variation cost at most the per-trial hit
probability).  Everything else is enumerated exactly; enumerations that
cannot reach the target mass within budget raise TruncationError rather
than degrade silently.

Laws are immutable after construction; realization caches are filled
idempotently, so concurrent readers can race on them harmlessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln, ive, ndtr, ndtri, xlogy
from scipy.special._ufuncs import _binom_pmf

from .blocks import BlockParity, SequenceParams
from .engine import DESK_N_CAP, ExactMoments
from .errors import ParamsError, TruncationError
from .simulate import (GAUSSIANIZE_HITS, SampleKind, derive_seed,
                       dichotomy_samples, sample_batch)

ATOM_MASS_TOL = 1e-12        # lattice pmf truncation mass per law
GRID_POINTS = 2048           # continuous grid size per law in distances
GRID_SPAN = 8.0              # grid half-width in standard deviations
MIXTURE_LAMBDA = float(1 << 11)   # count-mixture enumeration ceiling
DOUBLE_LAMBDA = float(1 << 22)    # doubling-convolution ceiling
PRODUCT_BUDGET = 1 << 22     # joint support budget across components
SUPPORT_BUDGET = 1 << 26     # single-law support budget
KS_ONE_PCT_COEF = 1.63       # asymptotic one-sample 1% KS coefficient
KS_SNAP = 1e-9               # evaluation nudge around candidate points

_LOG2_GAUSSIANIZE = math.log2(GAUSSIANIZE_HITS)


class LawVariant(Enum):
    NORMAL = "normal"
    SYM_POISSON = "sym_poisson"
    EXACT_FINITE = "exact_finite"
    EMPIRICAL = "empirical"


# ---------------------------------------------------------------------------
# Base interface

class LawModel:
    """Common evaluation surface shared by all variants."""

    variant: LawVariant

    def cdf(self, x) -> np.ndarray:
        raise NotImplementedError

    def cdf_left(self, x) -> np.ndarray:
        """P(X < x); differs from cdf only at discontinuities."""
        return self.cdf(x)

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def discontinuities(self) -> np.ndarray:
        return np.empty(0)

    def lattice_table(self):
        """(support, probs) for purely discrete laws, else None."""
        return None

    def moment_table(self) -> dict:
        raise NotImplementedError

    def quantile_table(self, probs=(0.01, 0.05, 0.25, 0.5, 0.75, 0.95,
                                    0.99)) -> dict:
        table = self.lattice_table()
        if table is not None:
            support, pr = table
            cum = np.cumsum(pr)
            idx = np.searchsorted(cum, np.asarray(probs) * cum[-1],
                                  side="left")
            vals = support[np.minimum(idx, support.size - 1)]
            return {float(p): float(v) for p, v in zip(probs, vals)}
        return {float(p): self._bisect_quantile(float(p)) for p in probs}

    def _bisect_quantile(self, p: float, iters: int = 120) -> float:
        mu, sd = self.mean(), max(self.std(), 1e-300)
        lo, hi = mu - 16.0 * sd, mu + 16.0 * sd
        while float(self.cdf(lo)[0]) > p:
            lo -= 16.0 * sd
        while float(self.cdf(hi)[0]) < p:
            hi += 16.0 * sd
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if float(self.cdf(mid)[0]) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def summary(self) -> dict:
        return {
            "variant": self.variant.value,
            "parameters": self._parameters(),
            "moments": _sanitize(self.moment_table()),
            "quantiles": _sanitize(self.quantile_table()),
        }

    def _parameters(self) -> dict:
        return {}


def _sanitize(obj):
    """Replace non-finite floats by None so json stays strict."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def law_to_json(law: LawModel, indent: int = 2) -> str:
    return json.dumps(law.summary(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Normal

@dataclass(eq=False)
class NormalLaw(LawModel):
    mu: float = 0.0
    var: float = 1.0
    variant = LawVariant.NORMAL

    def __post_init__(self):
        if self.var < 0.0:
            raise ParamsError("variance must be nonnegative", var=self.var)

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.var == 0.0:
            return (x >= self.mu).astype(float)
        return ndtr((x - self.mu) / math.sqrt(self.var))

    def cdf_left(self, x) -> np.ndarray:
        if self.var > 0.0:
            return self.cdf(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (x > self.mu).astype(float)

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.var

    def discontinuities(self) -> np.ndarray:
        if self.var == 0.0:
            return np.array([self.mu])
        return np.empty(0)

    def lattice_table(self):
        if self.var == 0.0:
            return np.array([self.mu]), np.array([1.0])
        return None

    def moment_table(self) -> dict:
        degenerate = self.var == 0.0
        return {"mean": self.mu, "variance": self.var,
                "skewness": math.nan if degenerate else 0.0,
                "excess_kurtosis": math.nan if degenerate else 0.0}

    def quantile_table(self, probs=(0.01, 0.05, 0.25, 0.5, 0.75, 0.95,
                                    0.99)) -> dict:
        if self.var == 0.0:
            return {float(p): self.mu for p in probs}
        sd = math.sqrt(self.var)
        return {float(p): self.mu + sd * float(ndtri(p)) for p in probs}

    def _parameters(self) -> dict:
        return {"mu": self.mu, "var": self.var}


# ---------------------------------------------------------------------------
# Symmetrized Poisson

@dataclass(eq=False)
class SymPoissonLaw(LawModel):
    """Difference of two independent Poisson(lam) counts.

    pmf p(n) = e^{-2 lam} I_{|n|}(2 lam) on the integers, evaluated via
    the exponentially scaled Bessel function; the truncated table keeps
    total mass within 1e-12 of 1 and is left unnormalized.
    """

    lam: float
    variant = LawVariant.SYM_POISSON
    _support: np.ndarray | None = field(default=None, repr=False)
    _probs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.lam < 0.0:
            raise ParamsError("rate must be nonnegative", lam=self.lam)

    def _table(self):
        if self._probs is None:
            if self.lam == 0.0:
                self._support = np.array([0.0])
                self._probs = np.array([1.0])
                return self._support, self._probs
            sd = math.sqrt(2.0 * self.lam)
            n_max = int(12.0 * sd) + 30
            for _ in range(6):
                if n_max > SUPPORT_BUDGET:
                    raise TruncationError(
                        "symmetrized-Poisson support exceeds the budget",
                        target_mass=1.0 - ATOM_MASS_TOL)
                n = np.arange(n_max + 1)
                half = ive(n, 2.0 * self.lam)
                mass = half[0] + 2.0 * half[1:].sum()
                if mass >= 1.0 - ATOM_MASS_TOL:
                    break
                n_max *= 2
            else:
                raise TruncationError(
                    "symmetrized-Poisson truncation fell short",
                    achieved_mass=float(mass),
                    target_mass=1.0 - ATOM_MASS_TOL)
            self._support = np.arange(-n_max, n_max + 1, dtype=float)
            self._probs = np.concatenate([half[:0:-1], half])
        return self._support, self._probs

    def pmf(self, n) -> np.ndarray:
        n = np.abs(np.atleast_1d(np.asarray(n)))
        return ive(n, 2.0 * self.lam)

    def cdf(self, x) -> np.ndarray:
        support, pr = self._table()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cum = np.concatenate([[0.0], np.cumsum(pr)])
        return cum[np.searchsorted(support, x, side="right")]

    def cdf_left(self, x) -> np.ndarray:
        support, pr = self._table()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cum = np.concatenate([[0.0], np.cumsum(pr)])
        return cum[np.searchsorted(support, x, side="left")]

    def mean(self) -> float:
        return 0.0

    def variance(self) -> float:
        return 2.0 * self.lam

    def discontinuities(self) -> np.ndarray:
        return self._table()[0]

    def lattice_table(self):
        return self._table()

    def moment_table(self) -> dict:
        support, pr = self._table()
        return _mixture_moments(0.0, support, pr)

    def _parameters(self) -> dict:
        return {"lam": self.lam,
                "support_radius": int(self._table()[0][-1])}


def sym_poisson(lam: float) -> SymPoissonLaw:
    return SymPoissonLaw(lam)


# ---------------------------------------------------------------------------
# Exact finite-horizon law

@dataclass(frozen=True)
class LatticeAtom:
    """One three-valued block's signed-count component.

    ``trials`` sites each spike with probability ``hit_prob`` and carry a
    fair sign; each spike moves the sum by one ``lattice_scale`` step.
    ``lattice_scale`` and ``hit_prob`` may underflow to 0.0 (or overflow
    to inf) at extreme horizons; the log2 fields carry the exact sizes
    and ``var_share`` the component's normalized variance.
    """

    lattice_scale: float
    trials: int
    hit_prob: float
    log2_trials: float
    log2_hit: int
    var_share: float

    @property
    def log2_mean_hits(self) -> float:
        return self.log2_trials + self.log2_hit


def _trim_tails(offset, probs, side_tol):
    """Drop leading/trailing mass below side_tol; returns lost mass too."""
    cum = np.cumsum(probs)
    lo = int(np.searchsorted(cum, side_tol, side="right"))
    rcum = np.cumsum(probs[::-1])
    hi = probs.size - int(np.searchsorted(rcum, side_tol, side="right"))
    lo = min(lo, hi - 1)
    lost = float(cum[-1] - cum[hi - 1] + (cum[lo - 1] if lo else 0.0))
    return offset + lo, probs[lo:hi], lost


def _signed_count_pmf_mixture(hit_weights: np.ndarray, h0: int):
    """pmf of a sum of H fair signs with H distributed per hit_weights.

    hit_weights[i] is the probability of H = h0 + i; the result is a
    (support, probs) pair over the integer lattice.
    """
    h_hi = h0 + hit_weights.size - 1
    probs = np.zeros(2 * h_hi + 1)
    for i, w in enumerate(hit_weights):
        h = h0 + i
        if w <= 0.0:
            continue
        j = np.arange(h + 1)
        probs[(2 * j - h) + h_hi] += w * _binom_pmf(j, h, 0.5)
    return np.arange(-h_hi, h_hi + 1), probs


def _signed_count_pmf_doubling(trials: int, q: float, mass_tol: float):
    """Exact signed three-valued sum pmf by convolution doubling.

    Each trial contributes -1/0/+1 with probabilities q/2, 1-q, q/2.
    Tail mass below a per-step budget is trimmed and accounted; returns
    (support, probs, lost_mass).
    """
    steps = 2 * max(trials.bit_length(), 1) + 2
    side_tol = mass_tol / (4.0 * steps)
    lost = 0.0
    acc = None       # (offset of first support point, probs)
    cur = (-1, np.array([q / 2.0, 1.0 - q, q / 2.0]))
    t = trials
    while t:
        if t & 1:
            if acc is None:
                acc = cur
            else:
                off = acc[0] + cur[0]
                pr = np.maximum(np.convolve(acc[1], cur[1]), 0.0)
                o, pr, lo = _trim_tails(off, pr, side_tol)
                lost += lo
                acc = (o, pr)
        t >>= 1
        if t:
            off = 2 * cur[0]
            pr = np.maximum(np.convolve(cur[1], cur[1]), 0.0)
            o, pr, lo = _trim_tails(off, pr, side_tol)
            lost += lo
            cur = (o, pr)
    off, pr = acc
    return np.arange(off, off + pr.size), pr, lost


def _poisson_pmf(h: np.ndarray, lam: float) -> np.ndarray:
    """``scipy.stats.poisson.pmf`` for counts h >= 0, by the same log form."""
    return np.exp(xlogy(h, lam) - gammaln(h + 1) - lam)


def _count_window(lam: float, cap: int | None):
    lo = max(0, int(lam - 12.0 * math.sqrt(lam) - 25.0))
    hi = int(lam + 12.0 * math.sqrt(lam) + 30.0)
    if cap is not None:
        hi = min(hi, cap)
    return lo, hi


def _atom_pmf(atom: LatticeAtom, mass_tol: float):
    """(support, probs, tv_error, lost_mass) for the signed count.

    Exact at desk trial counts; astronomically many trials with a modest
    expected count use a Poisson count instead, certified by the Le Cam
    style bound TV <= hit probability.
    """
    ll = atom.log2_mean_hits
    desk = atom.trials <= DESK_N_CAP
    if desk:
        lam = float(atom.trials) * atom.hit_prob
        if lam <= MIXTURE_LAMBDA:
            lo, hi = _count_window(lam, atom.trials)
            for _ in range(5):
                h = np.arange(lo, hi + 1)
                w = _binom_pmf(h, float(atom.trials), atom.hit_prob)
                mass = float(w.sum())
                if mass >= 1.0 - 0.25 * mass_tol or hi >= atom.trials:
                    break
                hi = min(atom.trials, 2 * hi + 10)
            else:
                raise TruncationError("count window failed to close",
                                      achieved_mass=mass,
                                      target_mass=1.0 - mass_tol)
            support, probs = _signed_count_pmf_mixture(w, lo)
            return support, probs, 0.0, 1.0 - mass
        if lam <= DOUBLE_LAMBDA:
            support, probs, lost = _signed_count_pmf_doubling(
                atom.trials, atom.hit_prob, mass_tol)
            return support, probs, 0.0, lost
        raise TruncationError(
            "lattice component too heavy to enumerate and too light to "
            "gaussianize (expected hits 2^%.1f)" % ll,
            achieved_mass=0.0, target_mass=1.0 - mass_tol)
    if ll <= math.log2(MIXTURE_LAMBDA):
        lam = 2.0 ** ll
        lo, hi = _count_window(lam, None)
        h = np.arange(lo, hi + 1)
        w = _poisson_pmf(h, lam)
        mass = float(w.sum())
        support, probs = _signed_count_pmf_mixture(w, lo)
        tv = 2.0 ** atom.log2_hit if atom.log2_hit > -1074 else 0.0
        return support, probs, tv, 1.0 - mass
    raise TruncationError(
        "lattice component beyond the desk cap with expected hits "
        "2^%.1f cannot be enumerated" % ll,
        achieved_mass=0.0, target_mass=1.0 - mass_tol)


@dataclass(eq=False)
class ExactFiniteLaw(LawModel):
    """Gaussian component plus independent signed-count lattice atoms.

    With an empty atom list this is exactly NORMAL(0, gauss_var); with
    gauss_var = 0 and one atom it is a pure signed-binomial lattice law.
    """

    gauss_var: float
    atoms: tuple[LatticeAtom, ...] = ()
    mass_tol: float = ATOM_MASS_TOL
    variant = LawVariant.EXACT_FINITE
    _plan: tuple | None = field(default=None, repr=False)

    def _realize(self):
        if self._plan is None:
            gv = self.gauss_var
            err = 0.0
            lost = 0.0
            vals = np.zeros(1)
            pr = np.ones(1)
            for atom in self.atoms:
                ll = atom.log2_mean_hits
                if ll <= -50.0:
                    # P(any hit) <= expected hits; the component is a
                    # point mass at 0 up to that much total variation.
                    err += 2.0 ** max(ll, -1074.0)
                    continue
                if ll >= _LOG2_GAUSSIANIZE:
                    gv += atom.var_share
                    err += 0.56 * 2.0 ** (-0.5 * ll)
                    continue
                support, probs, tv, lo = _atom_pmf(atom, self.mass_tol)
                err += tv
                lost += lo
                if vals.size * support.size > PRODUCT_BUDGET:
                    raise TruncationError(
                        "joint lattice support exceeds the budget",
                        achieved_mass=float(pr.sum()) - lost,
                        target_mass=1.0 - self.mass_tol)
                vals = np.add.outer(vals,
                                    atom.lattice_scale * support).ravel()
                pr = np.multiply.outer(pr, probs).ravel()
            order = np.argsort(vals, kind="stable")
            self._plan = (gv, vals[order], pr[order], err, lost)
        return self._plan

    @property
    def cdf_error_bound(self) -> float:
        """Certified sup-CDF error of the realization (gaussianized and
        Poisson-swapped components plus trimmed mass)."""
        plan = self._realize()
        return plan[3] + plan[4] + self.mass_tol

    def cdf(self, x) -> np.ndarray:
        gv, vals, pr, _, _ = self._realize()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if gv <= 0.0:
            cum = np.concatenate([[0.0], np.cumsum(pr)])
            return cum[np.searchsorted(vals, x, side="right")]
        sd = math.sqrt(gv)
        out = np.empty(x.size)
        step = max(1, (1 << 23) // max(vals.size, 1))
        for i in range(0, x.size, step):
            z = (x[i:i + step, None] - vals[None, :]) / sd
            out[i:i + step] = ndtr(z) @ pr
        return out

    def cdf_left(self, x) -> np.ndarray:
        gv, vals, pr, _, _ = self._realize()
        if gv > 0.0:
            return self.cdf(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cum = np.concatenate([[0.0], np.cumsum(pr)])
        return cum[np.searchsorted(vals, x, side="left")]

    def mean(self) -> float:
        _, vals, pr, _, _ = self._realize()
        tot = float(pr.sum())
        return float(pr @ vals) / tot if tot > 0 else 0.0

    def variance(self) -> float:
        gv, vals, pr, _, _ = self._realize()
        tot = float(pr.sum())
        if tot <= 0.0:
            return gv
        m1 = float(pr @ vals) / tot
        return gv + float(pr @ (vals - m1) ** 2) / tot

    def discontinuities(self) -> np.ndarray:
        gv, vals, _, _, _ = self._realize()
        return vals if gv <= 0.0 else np.empty(0)

    def lattice_table(self):
        gv, vals, pr, _, _ = self._realize()
        return (vals, pr) if gv <= 0.0 else None

    def moment_table(self) -> dict:
        gv, vals, pr, _, _ = self._realize()
        return _mixture_moments(gv, vals, pr)

    def _parameters(self) -> dict:
        gv, _, _, err, lost = self._realize()
        return {
            "gauss_var": self.gauss_var,
            "realized_gauss_var": gv,
            "cdf_error_bound": self.cdf_error_bound,
            "atoms": [
                {"lattice_scale": a.lattice_scale,
                 "log2_trials": a.log2_trials,
                 "log2_hit": a.log2_hit,
                 "var_share": a.var_share}
                for a in self.atoms
            ],
        }


def exact_law(params: SequenceParams, N: int,
              moments: ExactMoments | None = None) -> ExactFiniteLaw:
    """Law of the normalized flat-coefficient stand-in sum at horizon N.

    Gaussian blocks pool into the Gaussian component; each three-valued
    block with sub-horizon mass contributes a lattice atom with
    Binomial(N, hit probability) signed counts.
    """
    if N < 1:
        raise ParamsError("horizon must be positive", N=N)
    e = N.bit_length() - 1
    if N > DESK_N_CAP and N != (1 << e):
        raise ParamsError("beyond the desk cap only dyadic horizons are "
                          "supported", log2=e)
    moments = moments or ExactMoments(params)
    b2 = moments.normalizer_sq(N)
    if b2 <= 0.0:
        raise ParamsError("normalization needs sub-horizon scales", N=N)
    b = math.sqrt(b2)
    log2_n = math.log2(N)
    gv = 0.0
    atoms = []
    for blk in params.blocks:
        mass = moments.block_mass(blk, N)
        if mass <= 0.0:
            continue
        share = mass * mass / b2
        if blk.parity is BlockParity.GAUSSIAN:
            gv += share
            continue
        x = 0.5 * (blk.horizon_log2 - log2_n)
        try:
            scale = (mass / b) * 2.0 ** x
        except OverflowError:
            scale = math.inf
        hit = 2.0 ** blk.hit_prob_log2 if blk.hit_prob_log2 > -1074 else 0.0
        atoms.append(LatticeAtom(lattice_scale=scale, trials=N,
                                 hit_prob=hit, log2_trials=log2_n,
                                 log2_hit=blk.hit_prob_log2,
                                 var_share=share))
    return ExactFiniteLaw(gauss_var=gv, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# Empirical

@dataclass(eq=False)
class EmpiricalLaw(LawModel):
    """The empirical measure of a finite sample."""

    samples: np.ndarray
    variant = LawVariant.EMPIRICAL

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        if s.size == 0:
            raise ParamsError("empirical law needs at least one sample")
        self.samples = s

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.searchsorted(self.samples, x,
                               side="right") / self.samples.size

    def cdf_left(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.searchsorted(self.samples, x,
                               side="left") / self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def variance(self) -> float:
        return float(self.samples.var())

    def discontinuities(self) -> np.ndarray:
        return np.unique(self.samples)

    def lattice_table(self):
        vals, counts = np.unique(self.samples, return_counts=True)
        return vals, counts / self.samples.size

    def moment_table(self) -> dict:
        vals, pr = self.lattice_table()
        return _mixture_moments(0.0, vals, pr)

    def _parameters(self) -> dict:
        return {"count": int(self.samples.size)}


def empirical_law(values) -> EmpiricalLaw:
    return EmpiricalLaw(np.asarray(values))


# ---------------------------------------------------------------------------
# Moments helper

def _mixture_moments(gv: float, vals: np.ndarray, pr: np.ndarray) -> dict:
    tot = float(pr.sum())
    if tot <= 0.0:
        return {"mean": 0.0, "variance": gv, "skewness": math.nan,
                "excess_kurtosis": math.nan}
    m1 = float(pr @ vals) / tot
    d = vals - m1
    m2d = float(pr @ d ** 2) / tot
    m3d = float(pr @ d ** 3) / tot
    m4d = float(pr @ d ** 4) / tot
    var = m2d + gv
    m4 = m4d + 6.0 * gv * m2d + 3.0 * gv * gv
    if var <= 0.0:
        return {"mean": m1, "variance": var, "skewness": math.nan,
                "excess_kurtosis": math.nan}
    return {"mean": m1, "variance": var,
            "skewness": m3d / var ** 1.5,
            "excess_kurtosis": m4 / var ** 2 - 3.0}


# ---------------------------------------------------------------------------
# Distances

def ks_distance(a: LawModel, b: LawModel) -> float:
    """Sup-norm distance between two CDFs.

    Candidates are both laws' discontinuities plus a dense grid spanning
    8 standard deviations around each mean.  Evaluation happens a hair
    below and above every candidate rather than at it, so lattice points
    that float rounding landed on slightly different representations
    still line up; the nudge is far below any genuine lattice spacing.
    """
    pts = [np.asarray(a.discontinuities(), dtype=float),
           np.asarray(b.discontinuities(), dtype=float)]
    for law in (a, b):
        sd = law.std()
        if sd > 0.0 and math.isfinite(sd):
            mu = law.mean()
            pts.append(np.linspace(mu - GRID_SPAN * sd, mu + GRID_SPAN * sd,
                                   GRID_POINTS))
    x = np.unique(np.concatenate([p for p in pts if p.size]))
    if x.size == 0:
        return 0.0
    delta = KS_SNAP * max(1.0, a.std() if math.isfinite(a.std()) else 1.0,
                          b.std() if math.isfinite(b.std()) else 1.0)
    hi = np.abs(a.cdf(x + delta) - b.cdf(x + delta)).max()
    lo = np.abs(a.cdf(x - delta) - b.cdf(x - delta)).max()
    return float(max(hi, lo))


def tv_distance(a: LawModel, b: LawModel, unit: float = 1.0) -> float:
    """Total variation between two lattice laws sharing a common unit.

    Support points are keyed by rounding value/unit to the nearest
    integer, which tolerates float jitter well below the lattice spacing.
    """
    masses = {}
    for law, sign in ((a, 1.0), (b, -1.0)):
        table = law.lattice_table()
        if table is None:
            raise ParamsError("total variation needs purely discrete laws",
                              variant=law.variant.value)
        vals, pr = table
        for key, p in zip(np.round(vals / unit).astype(np.int64), pr):
            masses[int(key)] = masses.get(int(key), 0.0) + sign * float(p)
    return 0.5 * math.fsum(abs(v) for v in masses.values())


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
    parity: BlockParity
    count: int
    ks_vs_oracle: float        # full-sum empirical vs exact law
    ks_vs_normal: float        # full-sum empirical vs NORMAL(0, 1)
    ks_gate: float             # flat-copy empirical vs exact law
    gate_bound: float
    residual_fraction: float
    oracle_pass: bool
    note: str = ""


@dataclass
class DichotomyReport:
    rows: list[DichotomyRow]
    margin: float
    gap: float
    verdict: DichotomyVerdict
    required_count_estimate: int | None
    notes: list[str]


_GATE_SALT = 1 << 20


def dichotomy_report(params: SequenceParams, count: int, seed: int, *,
                     margin: float = 0.05, mode: str = "aggregate",
                     workers: int = 1,
                     moments: ExactMoments | None = None) -> DichotomyReport:
    """Compare normalized sums against their limit candidates per parity.

    At every complete-block horizon the full-sum empirical law is scored
    against the exact flat-copy law and against NORMAL(0,1); the oracle
    gate draws an independent flat-copy batch and requires its distance
    to the exact law to pass the 1% KS bound, which validates the whole
    sampling/oracle chain at that horizon.  The verdict compares the
    smallest three-valued-horizon normal distance against the largest
    Gaussian-horizon one.
    """
    moments = moments or ExactMoments(params)
    complete = params.complete_blocks()
    notes: list[str] = []
    if count < 1:
        req = math.ceil((2.0 * KS_ONE_PCT_COEF / margin) ** 2)
        return DichotomyReport([], margin, math.nan,
                               DichotomyVerdict.INCONCLUSIVE, req,
                               ["no samples drawn"])
    if not complete:
        return DichotomyReport([], margin, math.nan,
                               DichotomyVerdict.NO_DICHOTOMY, None,
                               ["no complete block horizons"])
    horizons = [blk.horizon for blk in complete]
    full = dichotomy_samples(params, horizons, count, seed, mode=mode,
                             workers=workers)
    normal = NormalLaw(0.0, 1.0)
    bound = ks_pass_bound(count)
    rows = []
    for blk in complete:
        N = blk.horizon
        law = exact_law(params, N, moments)
        emp = empirical_law(full[N].values)
        gate_batch = sample_batch(params, N, count,
                                  derive_seed(seed, _GATE_SALT + blk.index),
                                  SampleKind.APPROX_IID_SUM,
                                  normalized=True, mode=mode,
                                  workers=workers, moments=moments)
        gate_emp = empirical_law(gate_batch.values)
        if blk.index == 1:
            residual = 0.0
        else:
            prev = params.blocks[blk.index - 2]
            residual = (moments.normalizer_sq(prev.horizon)
                        / moments.normalizer_sq(N))
        note = ""
        if law.cdf_error_bound > 1e-6:
            note = "oracle error bound %.3g" % law.cdf_error_bound
        ks_gate = ks_distance(gate_emp, law)
        rows.append(DichotomyRow(
            horizon_log2=blk.horizon_log2, block_index=blk.index,
            parity=blk.parity, count=count,
            ks_vs_oracle=ks_distance(emp, law),
            ks_vs_normal=ks_distance(emp, normal),
            ks_gate=ks_gate,
            gate_bound=bound,
            residual_fraction=residual,
            oracle_pass=ks_gate <= bound,
            note=note))
    odd = [r for r in rows if r.parity is BlockParity.THREE_VALUED]
    even = [r for r in rows if r.parity is BlockParity.GAUSSIAN]
    if not odd or not even:
        notes.append("both parities need a complete horizon")
        return DichotomyReport(rows, margin, math.nan,
                               DichotomyVerdict.NO_DICHOTOMY, None, notes)
    gap = (min(r.ks_vs_normal for r in odd)
           - max(r.ks_vs_normal for r in even))
    gate_ok = all(r.oracle_pass for r in rows)
    if gate_ok and gap >= margin:
        verdict, req = DichotomyVerdict.DIFFERENT_LIMITS, None
    elif not gate_ok:
        bad = [r.horizon_log2 for r in rows if not r.oracle_pass]
        notes.append("oracle gate failed at log2 horizons %s" % bad)
        verdict, req = DichotomyVerdict.INCONCLUSIVE, None
    elif margin - gap <= 2.0 * bound:
        req = math.ceil((2.0 * KS_ONE_PCT_COEF / (margin - gap)) ** 2)
        notes.append("gap within sampling noise of the margin")
        verdict = DichotomyVerdict.INCONCLUSIVE
    else:
        verdict, req = DichotomyVerdict.NO_DICHOTOMY, None
    return DichotomyReport(rows, margin, float(gap), verdict, req, notes)


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
