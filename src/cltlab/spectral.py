"""Finite-dimensional laboratory for transition-operator square roots.

A toy operator is a finite normal operator given by its eigenvalues
inside the closed unit disk together with the coefficients of an
observable in the same eigenbasis.  Everything else is scalar calculus
per eigenvalue: the square-root series of the operator versus the direct
spectral square root, growth statistics of the partial-sum norms
``norm_Sn`` under several summability conditions, and two algebraic
identities used to pass between tail sums and blocked sums.

Circulant toys realize the operator as an honest doubly-stochastic
matrix (a random walk on the cycle), whose eigenvalues are the DFT of
the kernel row; they give a cheap supply of genuinely normal operators
for property tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import _real
from .errors import ParamsError, charge

RATE6_Q = 2.0                    # the log power q of rate6_q
_EIG_ONE_TOL = 1e-14             # |lambda - 1| below this counts as 1
_TILE = 1 << 17                  # complex elements per work array, 2 MB


@dataclass(eq=False)
class SpectralToy:
    """Normal operator surrogate: eigenvalues plus observable coefficients.

    The mean-zero constraint appears as: wherever an eigenvalue equals 1
    the observable coefficient must vanish.  An explicit toy is
    ``SpectralToy(eigenvalues, observable)``; a circulant toy also keeps
    the ``kernel_row`` its eigenvalues came from, and only it has a
    matrix.  The row must be a nonempty probability vector whose DFT is
    exactly the eigenvalues, so that the matrix has them.
    """

    eigenvalues: np.ndarray
    observable: np.ndarray
    kernel_row: np.ndarray | None = None

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        obs = np.atleast_1d(np.asarray(self.observable, dtype=complex))
        if lam.shape != obs.shape or lam.ndim != 1 or lam.size == 0:
            raise ParamsError("eigenvalues and observable must be equal "
                              "length nonempty vectors")
        if self.kernel_row is not None:
            row = np.atleast_1d(np.asarray(self.kernel_row, dtype=float))
            if np.any(row < 0.0) or abs(row.sum() - 1.0) > 1e-12:
                raise ParamsError("kernel row must be a probability vector",
                                  total=float(row.sum()))
            if not np.array_equal(np.fft.fft(row), lam):
                raise ParamsError("eigenvalues must be the DFT of the "
                                  "kernel row")
            self.kernel_row = row
        if np.any(np.abs(lam) > 1.0 + 1e-12):
            raise ParamsError("eigenvalues must lie in the closed unit "
                              "disk", max_abs=float(np.abs(lam).max()))
        at_one = np.abs(lam - 1.0) <= _EIG_ONE_TOL
        if np.any(at_one & (np.abs(obs) > 0.0)):
            raise ParamsError("observable must vanish on the eigenvalue-1 "
                              "subspace")
        self.eigenvalues = lam
        self.observable = obs

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        """Dense matrix realization (circulant toys only)."""
        if self.kernel_row is None:
            raise ParamsError("only circulant toys have a canonical matrix")
        row = self.kernel_row
        n = row.size
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return row[idx]


def circulant_toy(kernel_row, observable) -> SpectralToy:
    """Toy from a probability kernel row; eigenvalues are its DFT."""
    row = np.atleast_1d(np.asarray(kernel_row, dtype=float))
    # an empty row has no DFT; the toy refuses it as an empty vector
    lam = np.fft.fft(row) if row.size else row
    return SpectralToy(lam, observable, kernel_row=row)


def random_circulant_toy(dim: int, seed: int,
                         uniform_mix: float = 0.2) -> SpectralToy:
    """Random cycle walk with a guaranteed spectral gap.

    Mixing the random kernel row with the uniform row shrinks every
    nonconstant eigenvalue by (1 - uniform_mix), so |1 - lambda| >=
    uniform_mix away from the constant mode.
    """
    if dim < 2:
        raise ParamsError("dimension must be at least 2", dim=dim)
    rng = np.random.default_rng(seed)
    row = rng.random(dim)
    row /= row.sum()
    row = (1.0 - uniform_mix) * row + uniform_mix / dim
    obs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    obs[0] = 0.0              # the constant mode carries eigenvalue 1
    return circulant_toy(row, obs)


def toy_from_json(text: str) -> SpectralToy:
    """Build a toy from a JSON spec.

    Accepts either {"kernel_row": [...], "observable": [...]} or
    {"eigenvalues": [...], "observable": [...]}; complex entries are
    written as numbers or [re, im] pairs, real entries as numbers.  An
    optional integer "dim" is checked against the vector lengths.  A spec
    that is not JSON, a vector that is not a list, an entry of another
    JSON type (a string or a bool among them), or an entry the spec does
    not read (an unknown key, or "eigenvalues" beside "kernel_row") raises
    ``ParamsError`` naming it.
    """
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamsError("toy spec is not valid JSON", line=exc.lineno,
                          column=exc.colno) from exc
    if not isinstance(spec, dict) or spec.get("observable") is None:
        raise ParamsError("toy spec needs an observable")
    obs = _parse_list(spec, "observable", complex)
    if "kernel_row" in spec:
        toy = circulant_toy(_parse_list(spec, "kernel_row", float), obs)
    elif "eigenvalues" in spec:
        toy = SpectralToy(_parse_list(spec, "eigenvalues", complex), obs)
    else:
        raise ParamsError("toy spec needs kernel_row or eigenvalues")
    dim = spec.pop("dim", toy.dim)
    if type(dim) is not int:     # not isinstance: JSON true is a Python int
        raise ParamsError("toy spec entry is not an integer", key="dim")
    if dim != toy.dim:
        raise ParamsError("declared dimension does not match the vectors",
                          declared=dim, found=toy.dim)
    if spec:
        raise ParamsError("toy spec entry unknown or not read",
                          key=next(iter(spec)))
    return toy


def _parse_list(spec: dict, key: str, kind) -> np.ndarray:
    """spec.pop(key), a JSON list of numbers, as a vector of ``kind``; a
    complex entry may also be an [re, im] pair of numbers.  Each number is
    read as a parameter file's reals are, never cast: a string, a bool,
    NaN or any other entry raises ``ParamsError`` naming it."""
    values = spec.pop(key)
    if type(values) is not list:
        raise ParamsError("toy spec entry is not a list", key=key)
    out = np.empty(len(values), dtype=kind)
    for i, v in enumerate(values):
        pair = kind is complex and type(v) is list and len(v) == 2
        try:
            out[i] = complex(*map(_real, v)) if pair else _real(v)
        except (TypeError, OverflowError) as exc:
            raise ParamsError("toy spec entry is not a number", key=key,
                              index=i) from exc
    return out


# ---------------------------------------------------------------------------
# Square-root series

def binom_coeffs(m: int) -> np.ndarray:
    """Coefficients a_1..a_m of sqrt(1-x) = 1 - sum_j a_j x^j.

    The ratio recurrence a_{j+1} = a_j (j - 1/2)/(j + 1) sidesteps the
    catastrophic cancellation of evaluating the binomial directly.
    """
    if m < 1:
        raise ParamsError("need at least one coefficient", m=m)
    a = np.empty(m)
    a[0] = 0.5
    for j in range(1, m):
        a[j] = a[j - 1] * (j - 0.5) / (j + 1.0)
    return a


@dataclass
class SqrtApplyResult:
    series: np.ndarray
    direct: np.ndarray
    error: float


def sqrt_apply(toy: SpectralToy, m: int) -> SqrtApplyResult:
    """Apply the square root of (I - operator) both ways.

    The series route truncates sqrt(1-x) after m terms (evaluated by
    Horner per eigenvalue); the direct route takes the principal square
    root of (1 - lambda).  The reported error is the largest coefficient
    difference.  Its m steps per eigenvalue are charged to the
    ``sqrt_series`` budget first.
    """
    charge("sqrt_series", m * toy.dim)
    a = binom_coeffs(m)
    lam = toy.eigenvalues
    acc = np.zeros_like(lam)
    for j in range(m - 1, -1, -1):
        acc += a[j]
        acc *= lam
    series = toy.observable * (1.0 - acc)
    direct = toy.observable * np.sqrt(1.0 - lam)
    return SqrtApplyResult(series, direct,
                           float(np.abs(series - direct).max()))


# ---------------------------------------------------------------------------
# Condition sweeps

@dataclass
class SpectralConditionReport:
    """Partial-sum statistics on a dyadic grid of step counts.

    ``sum2_partial`` is the norm of the vector partial sum of S_n/n^{3/2}
    (whose convergence is the square-root membership criterion);
    ``sum3_partial`` accumulates norms instead of vectors, so it
    dominates sum2.  ``rate5`` and ``rate6_q`` multiply norm_Sn by
    log(n)/sqrt(n) and log^q(n)/sqrt(n); ``remark7_partial`` accumulates
    squared norms over n^2; ``kronecker`` is the averaged weighted-power
    sum that must decay once the weighted series converges.
    ``correspondence`` is max |coefficient|/sqrt|1 - eigenvalue|, the
    scalar that calibrates whether sum2 can stay bounded.
    """

    ns: np.ndarray
    norm_sn: np.ndarray
    sum2_partial: np.ndarray
    sum3_partial: np.ndarray
    rate5: np.ndarray
    rate6_q: np.ndarray
    remark7_partial: np.ndarray
    kronecker: np.ndarray
    correspondence: float
    q = RATE6_Q                  # a class constant, not a field

    def to_csv(self) -> str:
        lines = ["n,norm_Sn,sum3_partial,rate5,rate6_q,remark7_partial"]
        for i, n in enumerate(self.ns):
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g"
                         % (n, self.norm_sn[i], self.sum3_partial[i],
                            self.rate5[i], self.rate6_q[i],
                            self.remark7_partial[i]))
        return "\n".join(lines) + "\n"


def _eigen_terms(toy: SpectralToy):
    """(at_one, g / (1 - lambda)) per eigenvalue, 0 where lambda is 1."""
    lam = toy.eigenvalues
    at_one = np.abs(lam - 1.0) <= _EIG_ONE_TOL
    den = np.where(at_one, 1.0, 1.0 - lam)
    return at_one, np.where(at_one, 0.0, toy.observable / den)


def evaluate_conditions(toy: SpectralToy,
                        n_max: int) -> SpectralConditionReport:
    """Accumulate all condition statistics up to n_max steps.

    Work grows as n_max times the dimension and is budget-guarded.
    Partial sums accumulate over every n; rows are recorded at powers
    of two.
    """
    if n_max < 2:
        raise ParamsError("need at least two steps", n_max=n_max)
    charge("condition_sweep", n_max * toy.dim)
    lam = toy.eigenvalues
    g = toy.observable
    at_one, gden = _eigen_terms(toy)
    gap = np.where(at_one, 1.0, np.sqrt(np.abs(1.0 - lam)))
    correspondence = float(np.where(at_one, 0.0, np.abs(g) / gap).max())

    kmax = int(math.floor(math.log2(n_max)))
    grid = [1 << k for k in range(1, kmax + 1)]
    acc2 = np.zeros_like(lam)
    acck = np.zeros_like(lam)
    acc3 = 0.0
    acc7 = 0.0
    rows = {"n": [], "norm": [], "s2": [], "s3": [], "r5": [], "r6": [],
            "r7": [], "kron": []}
    lam_prev = np.ones_like(lam)     # lambda^(n-1) entering the chunk
    step = max(1, _TILE // toy.dim)
    n0 = 1
    for n_hi in grid:
        for lo in range(n0, n_hi + 1, step):
            hi = min(n_hi, lo + step - 1)
            cnt = hi - lo + 1
            pw = np.cumprod(np.tile(lam, (cnt, 1)), axis=0) * lam_prev
            lam_prev = pw[-1].copy()
            ns = np.arange(lo, hi + 1, dtype=float)[:, None]
            sn = gden * (1.0 - pw)
            norms = np.linalg.norm(sn, axis=1)
            w32 = ns ** -1.5
            acc2 += (sn * w32).sum(axis=0)
            acck += g * (pw / np.sqrt(ns)).sum(axis=0)
            acc3 += float((norms * w32[:, 0]).sum())
            acc7 += float((norms ** 2 / ns[:, 0] ** 2).sum())
        n0 = n_hi + 1
        k = math.log2(n_hi)
        norm_n = float(np.linalg.norm(gden * (1.0 - lam_prev)))
        rows["n"].append(n_hi)
        rows["norm"].append(norm_n)
        rows["s2"].append(float(np.linalg.norm(acc2)))
        rows["s3"].append(acc3)
        rows["r5"].append(norm_n * k / math.sqrt(n_hi))
        rows["r6"].append(norm_n * k ** RATE6_Q / math.sqrt(n_hi))
        rows["r7"].append(acc7)
        rows["kron"].append(float(np.linalg.norm(acck))
                            / math.sqrt(n_hi))
    return SpectralConditionReport(
        ns=np.asarray(rows["n"]), norm_sn=np.asarray(rows["norm"]),
        sum2_partial=np.asarray(rows["s2"]),
        sum3_partial=np.asarray(rows["s3"]),
        rate5=np.asarray(rows["r5"]), rate6_q=np.asarray(rows["r6"]),
        remark7_partial=np.asarray(rows["r7"]),
        kronecker=np.asarray(rows["kron"]), correspondence=correspondence)


# ---------------------------------------------------------------------------
# Algebraic identity checks

def _tiled_residual(toy: SpectralToy, n_hi: int, sides) -> float:
    """max |difference| / max(1, max |side|) over all eigenvalues, where
    ``sides(lam, s)`` gives (difference, *sides) for a slice ``lam`` of
    them and its partial sums S_k, k = 0..n_hi.  Columns are independent,
    so slices of at most ``_TILE`` elements (two columns at least) give
    the whole toy's bits."""
    charge("identity_check", (n_hi + 1) * toy.dim)
    gden = _eigen_terms(toy)[1]
    width = max(2, _TILE // (n_hi + 1))
    maxima = []
    for lo in range(0, toy.dim, width):
        # one column would sum its rows pairwise, not in order as two or
        # more do, so a last lone column takes its neighbour along
        cols = slice(max(0, min(lo, toy.dim - 2)), lo + width)
        lam = toy.eigenvalues[cols]
        pw = np.empty((n_hi + 1, lam.size), dtype=complex)
        pw[0] = 1.0
        pw[1:] = np.cumprod(np.tile(lam, (n_hi, 1)), axis=0)
        parts = sides(lam, gden[cols] * (1.0 - pw))
        maxima.append([np.abs(part).max() for part in parts])
    worst, *scale = np.max(maxima, axis=0)
    return float(worst) / max(1.0, *map(float, scale))


def rn_identity_check(toy: SpectralToy, n: int) -> float:
    """Residual of the blocked tail identity, relative to its terms.

    The sum of S_k/k^{3/2} over one dyadic block equals S_n times the
    block's scalar weight plus the n-step operator power applied to the
    shifted-weight sum of the earlier partial sums.
    """
    if n < 2:
        raise ParamsError("need n >= 2", n=n)
    k_blk = np.arange(n, 2 * n, dtype=float)[:, None]
    k_pre = np.arange(1, n, dtype=float)[:, None]

    def sides(lam, s):
        lhs = (s[n: 2 * n] / k_blk ** 1.5).sum(axis=0)
        t1 = s[n] * float((k_blk ** -1.5).sum())
        t2 = lam ** n * (s[1: n] / (n + k_pre) ** 1.5).sum(axis=0)
        return lhs - t1 - t2, lhs, t1, t2

    return _tiled_residual(toy, 2 * n - 1, sides)


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
    k_all = np.arange(1, n_tail + 1, dtype=float)[:, None]
    k_pre = np.arange(1, n, dtype=float)[:, None]
    ks = np.arange(2, n, dtype=float)[:, None]
    jump = (ks ** 1.5 / (n + ks) ** 1.5
            - (ks - 1.0) ** 1.5 / (n + ks - 1.0) ** 1.5)

    def sides(lam, s):
        # r[k - 1] = R_k = sum_{j=k}^{n_tail} S_j/j^{3/2}
        r = np.cumsum((s[1:] / k_all ** 1.5)[::-1], axis=0)[::-1]
        lhs = (s[1: n] / (n + k_pre) ** 1.5).sum(axis=0)
        rhs = ((r[1: n - 1] * jump).sum(axis=0) + r[0] / (n + 1.0) ** 1.5
               - r[n - 1] * (n - 1.0) ** 1.5 / (2.0 * n - 1.0) ** 1.5)
        return lhs - rhs, lhs, rhs

    return _tiled_residual(toy, n_tail, sides)
