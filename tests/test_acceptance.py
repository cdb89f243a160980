"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantities (visible even under capture) and then asserts the
stated thresholds, including its runtime budget.  Criterion 5 documents
a requirement this schedule generator cannot meet; the test states the
requirement faithfully and is expected to stay red (see the analysis in
the project notes).
"""

import math
import time
from fractions import Fraction

import numpy as np

from cltlab.blocks import SequenceParams, default_params, split_blocks
from cltlab.engine import Condition, ExactMoments, dyadic_grid
from cltlab.laws import (DichotomyVerdict, dichotomy_report, exact_law,
                         ks_distance, ks_pass_bound)
from cltlab.simulate import CHUNK, SampleKind, sample_batch
from cltlab.spectral import binom_coeffs, random_circulant_toy, sqrt_apply
from cltlab.weights import WeightMode, build_weights, weighted_prefix
from cltlab_reference import (RationalMoments, rn_identity_check,
                              rn_telescoping_check)


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print("CRITERION %d: %s — %s" % (num, "PASS" if ok else "FAIL",
                                         detail))


def rel_err(exact: Fraction, got: float) -> float:
    e = float(exact)
    if e == 0.0:
        return abs(got)
    return abs(got - e) / abs(e)


def all_tiny_partitions(kmax):
    if kmax == 1:
        return [[1]]
    if kmax == 2:
        return [[2], [1, 2]]
    return [[3], [1, 3], [2, 3], [1, 2, 3]]


def test_criterion_1_rational_oracle_equivalence(capsys):
    t0 = time.time()
    worst = 0.0
    cases = 0
    for kmax in (1, 2, 3):
        c3 = np.array([0.5, 0.25, 0.125])[:kmax]
        schedules = [build_weights(WeightMode.CONST_ONE, kmax),
                     build_weights(WeightMode.INV_LOG, kmax),
                     build_weights(WeightMode.ADAPTED, kmax, c=c3)]
        for ends in all_tiny_partitions(kmax):
            for w in schedules:
                params = SequenceParams(w, split_blocks(w, ends))
                em = ExactMoments(params)
                for N in range(1, 9):
                    rm = RationalMoments(params, N)
                    worst = max(
                        worst,
                        rel_err(rm.cond_norm_sq(), em.cond_norm_sq(N)),
                        rel_err(rm.sigma_sq(), em.sigma_sq(N)),
                        rel_err(rm.iid_approx_error_sq(),
                                em.iid_approx_error_sq(N)),
                        max((rel_err(rm.proj_norm_sq(l),
                                     em.proj_norm_sq(l, N))
                             for l in range(1, N)), default=0.0))
                    cases += 1
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 10.0
    emit(capsys, 1, ok,
         "%d param/horizon cases, worst rel err %.3g, %.1fs" %
         (cases, worst, dt))
    assert worst <= 1e-10
    assert dt < 10.0


def test_criterion_2_orthogonal_decomposition(capsys):
    t0 = time.time()
    rng = np.random.default_rng(929)
    done = 0
    worst = 0.0
    while done < 50:
        kmax = int(rng.integers(6, 17))
        rho = float(rng.uniform(2.0, 5.0))
        try:
            params = default_params(kmax=kmax, rho=rho)
        except Exception:
            continue
        em = ExactMoments(params)
        N = int(rng.integers(2, 1 << 14))
        sig = em.sigma_sq(N)
        total = em.cond_norm_sq(N) + sum(em.proj_norm_sq(l, N)
                                         for l in range(1, N))
        worst = max(worst, abs(sig - total) / sig)
        done += 1
    dt = time.time() - t0
    ok = worst <= 1e-10 and dt < 60.0
    emit(capsys, 2, ok, "50 random desk params, worst |gap|/sigma_sq "
         "%.3g, %.1fs" % (worst, dt))
    assert worst <= 1e-10
    assert dt < 60.0


def test_criterion_3_tail_norm_decreases(capsys):
    t0 = time.time()
    em = ExactMoments(default_params(kmax=20, rho=4.0))
    ps = (4, 16, 64, 256, 1024)
    vals = [em.series_tail_norm(p, 2 * p) for p in ps]
    dt = time.time() - t0
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    ratio = vals[-1] / vals[0]
    ok = decreasing and ratio < 0.2 and dt < 120.0
    emit(capsys, 3, ok, "tail norms %s, final/initial %.3f, %.1fs" %
         (["%.4f" % v for v in vals], ratio, dt))
    assert decreasing
    assert ratio < 0.2
    assert dt < 120.0


def test_criterion_4_growth_bound_and_log_rate(capsys):
    t0 = time.time()
    grid = dyadic_grid(4, 20)
    maxes = {}
    for kmax in (16, 20):
        em = ExactMoments(default_params(kmax=kmax, rho=4.0))
        rep = em.check_condition(Condition.GROWTH_BOUND, grid)
        assert all(math.isfinite(v) for v in rep.values)
        maxes[kmax] = max(rep.values)
    stable = max(maxes.values()) <= 2.0 * min(maxes.values())
    slow = ExactMoments(default_params(kmax=1 << 22, rho=4.0,
                                       mode=WeightMode.INV_LOG))
    rep = slow.check_condition(Condition.LOG_RATE, dyadic_grid(8, 20))
    r_lo, r_hi = rep.values[0], rep.values[-1]
    halved = r_hi < 0.5 * r_lo
    dt = time.time() - t0
    ok = stable and halved and dt < 300.0
    emit(capsys, 4, ok,
         "growth-bound max %.3f vs %.3f (factor %.3f); log-rate "
         "%.3f -> %.3f (ratio %.3f), %.1fs" %
         (maxes[16], maxes[20], max(maxes.values()) / min(maxes.values()),
          r_lo, r_hi, r_hi / r_lo, dt))
    assert stable
    assert halved
    assert dt < 300.0


def test_criterion_5_slow_schedule_mass_split(capsys):
    # The halving anchors of c_k = 1/log2 log2 (k+4) sit at k = 12 and
    # k = 65532 inside k <= 1e6, so any schedule built on them holds at
    # most three levels there and cannot push the plain mass past ~7.9
    # while also freezing the weighted partial sums; both halves of this
    # check fail by construction.  Kept faithful; expected red.
    t0 = time.time()
    K = 10 ** 6
    k = np.arange(1, K + 1, dtype=float)
    c = 1.0 / np.log2(np.log2(k + 4.0))
    sched = build_weights(WeightMode.ADAPTED, K, c=c)
    wp = weighted_prefix(sched, c, [K // 10, K])
    increase = float(wp[1] - wp[0])
    mass = sched.mass(1, K)
    dt = time.time() - t0
    ok = increase < 1e-3 and mass > 10.0 and dt < 60.0
    emit(capsys, 5, ok,
         "weighted increase over last decade %.4f (need < 1e-3), plain "
         "mass %.3f (need > 10), %.1fs" % (increase, mass, dt))
    assert dt < 60.0
    assert increase < 1e-3
    assert mass > 10.0


def test_criterion_6_flat_copy_error_halves(capsys):
    t0 = time.time()
    em = ExactMoments(default_params(kmax=20, rho=4.0))
    r8 = em.iid_approx_ratio(1 << 8)
    r16 = em.iid_approx_ratio(1 << 16)
    dt = time.time() - t0
    ok = r16 < 0.5 * r8 and dt < 120.0
    emit(capsys, 6, ok, "normalized flat-copy error %.5f at 2^8 -> %.5f "
         "at 2^16 (ratio %.3f), %.1fs" % (r8, r16, r16 / r8, dt))
    assert r16 < 0.5 * r8
    assert dt < 120.0


def test_criterion_7_sample_variance_and_workers(capsys):
    # the variance band, and reproducibility: a second call keeps its
    # bytes, and so do its full chunks in a larger batch
    t0 = time.time()
    params = default_params(kmax=20, rho=4.0)
    em = ExactMoments(params)
    count = 100_000
    head = (count // CHUNK) * CHUNK
    in_band = {}
    again = prefix = True
    for e in (8, 12):
        N = 1 << e
        batch = sample_batch(em, e, count, 745)
        again = again and batch.values.tobytes() == sample_batch(
            em, e, count, 745).values.tobytes()
        larger = sample_batch(em, e, 110_000, 745)
        prefix = prefix and (batch.values[:head].tobytes()
                             == larger.values[:head].tobytes())
        # the batch is S_N / sqrt(b^2 N)
        unit = em.normalizer_sq(e) * N
        sig2 = em.sigma_sq(N) / unit
        k4 = em.fourth_cumulant(N) / unit ** 2
        half = 2.576 * math.sqrt((k4 + 2.0 * sig2 ** 2) / count)
        sv = np.var(batch.values, ddof=1)
        in_band[e] = abs(sv - sig2) < half
    dt = time.time() - t0
    ok = all(in_band.values()) and again and prefix and dt < 180.0
    emit(capsys, 7, ok, "variance in 99%% band: 2^8 %s, 2^12 %s; "
         "same bytes again %s; first %d full chunks a prefix of a "
         "110000-sample batch %s, %.1fs" %
         (in_band[8], in_band[12], again, head // CHUNK, prefix, dt))
    assert head // CHUNK == 24
    assert all(in_band.values())
    assert again and prefix
    assert dt < 180.0


def test_criterion_8_flat_copy_law_gate(capsys):
    t0 = time.time()
    params = default_params(kmax=20, rho=4.0)
    em = ExactMoments(params)
    e = params.blocks[0].horizon_log2       # first three-valued horizon
    count = 100_000
    batch = sample_batch(em, e, count, 745,
                         kind=SampleKind.APPROX_IID_SUM)
    ks = ks_distance(batch.values, exact_law(em, e))
    bound = ks_pass_bound(count)
    dt = time.time() - t0
    ok = ks <= bound and dt < 120.0
    emit(capsys, 8, ok, "KS(flat-copy empirical, exact law) %.5f vs "
         "bound %.5f at the 2^11 horizon, %.1fs" % (ks, bound, dt))
    assert ks <= bound
    assert dt < 120.0


def test_criterion_9_two_sided_dichotomy(capsys):
    t0 = time.time()
    params = default_params(kmax=40_000_000, rho=4.0)
    rep = dichotomy_report(ExactMoments(params), 100_000, 745)
    dt = time.time() - t0
    gates = all(r.oracle_pass for r in rep.rows)
    ok = (rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
          and rep.gap >= 0.05 and gates and dt < 300.0)
    emit(capsys, 9, ok, "verdict %s, normal-distance gap %.4f "
         "(need >= 0.05), all oracle gates pass %s, %.1fs" %
         (rep.verdict.value, rep.gap, gates, dt))
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
    assert rep.gap >= 0.05
    assert gates
    assert dt < 300.0


def test_criterion_10_spectral_toolkit(capsys):
    t0 = time.time()
    a = binom_coeffs(10_000)
    first_exact = a[0] == 0.5
    stirling = a[-1] * 2.0 * math.sqrt(math.pi) * 1e4 ** 1.5
    stirling_ok = 0.99 <= stirling <= 1.01
    sqrt_errs = []
    for seed in range(8):
        toy = random_circulant_toy(16, seed,
                                   uniform_mix=0.1 if seed % 2 else 0.2)
        lam = toy.eigenvalues
        assert np.abs(1.0 - np.delete(lam, 0)).min() >= 0.1 - 1e-9
        sqrt_errs.append(sqrt_apply(toy, 10_000).error)
    sqrt_ok = max(sqrt_errs) <= 1e-6
    worst_resid = 0.0
    for seed in range(100):
        toy = random_circulant_toy(4 + (seed % 13), seed)
        n = 3 + (seed % 29)
        worst_resid = max(worst_resid, rn_identity_check(toy, n),
                          rn_telescoping_check(toy, n))
    resid_ok = worst_resid <= 1e-10
    dt = time.time() - t0
    ok = first_exact and stirling_ok and sqrt_ok and resid_ok and dt < 30.0
    emit(capsys, 10, ok,
         "a_1 exact %s; tail-rate ratio %.5f; sqrt error max %.2e; "
         "identity residual max %.2e over 100 toys, %.1fs" %
         (first_exact, stirling, max(sqrt_errs), worst_resid, dt))
    assert first_exact
    assert stirling_ok
    assert sqrt_ok
    assert resid_ok
    assert dt < 30.0
