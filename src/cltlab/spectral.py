"""Finite-dimensional laboratory for transition-operator square roots.

A toy operator is a finite normal operator given by its eigenvalues
inside the closed unit disk together with the coefficients of an
observable in the same eigenbasis.  Everything else is scalar calculus
per eigenvalue: the square-root series of the operator versus the direct
spectral square root, and growth statistics of the partial-sum norms
``norm_Sn`` under several summability conditions.

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


def _finite_vector(key: str, values, kind) -> np.ndarray:
    """``values`` as an array of ``kind``, at least 1-d; a non-finite
    entry raises ``ParamsError`` naming the vector and the entry's index
    before any arithmetic reads it."""
    v = np.atleast_1d(np.asarray(values, dtype=kind))
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ParamsError("toy vector entry is not finite", key=key,
                          index=int(bad[0]))
    return v


@dataclass(eq=False)
class SpectralToy:
    """Normal operator surrogate: eigenvalues plus observable coefficients.

    The mean-zero constraint appears as: wherever an eigenvalue equals 1
    the observable coefficient must vanish.  An explicit toy is
    ``SpectralToy(eigenvalues, observable)``; a circulant toy also keeps
    the ``kernel_row`` its eigenvalues came from, and only it has a
    matrix.  The row must be a nonempty probability vector whose DFT is
    exactly the eigenvalues, so that the matrix has them.  Every entry of
    the three vectors must be finite.
    """

    eigenvalues: np.ndarray
    observable: np.ndarray
    kernel_row: np.ndarray | None = None

    def __post_init__(self):
        lam = _finite_vector("eigenvalues", self.eigenvalues, complex)
        obs = _finite_vector("observable", self.observable, complex)
        if lam.shape != obs.shape or lam.ndim != 1 or lam.size == 0:
            raise ParamsError("eigenvalues and observable must be equal "
                              "length nonempty vectors")
        if self.kernel_row is not None:
            row = _finite_vector("kernel_row", self.kernel_row, float)
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
    row = _finite_vector("kernel_row", kernel_row, float)
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
