import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import digamma

from cltlab.blocks import default_params
from cltlab.errors import ParamsError
from cltlab.weights import (MAX_ARRAY_KMAX, WeightMode, WeightSchedule,
                            adapted_schedule, build_weights, harmonic,
                            weighted_prefix)


def test_harmonic_matches_exact_fractions():
    acc = Fraction(0)
    for n in range(1, 60):
        acc += Fraction(1, n)
        assert math.isclose(harmonic(n), float(acc), rel_tol=1e-13)


def test_harmonic_edge_cases():
    assert harmonic(0) == 0.0
    assert harmonic(1) == pytest.approx(1.0, rel=1e-14)
    # asymptotic ln n + gamma for a deep index
    n = 10 ** 12
    assert harmonic(n) == pytest.approx(math.log(n) + np.euler_gamma,
                                        rel=1e-12)


def test_harmonic_is_scipy_digamma_bit_for_bit():
    # harmonic ports cephes psi so that no run needs scipy.special; the
    # port must give the bits the scipy call gave
    rng = np.random.default_rng(12)
    ns = [*range(1, 11), *range(11, 100_001),
          *(int(n) for n in rng.integers(1, 1 << 53, size=20_000)),
          *((1 << e) + 1 for e in range(53, 1000)),
          *((1 << 1000) + d for d in (-3, -1, 0, 1, 12345)),
          (1 << 1000) * 3 // 2]
    bad = [n for n in ns
           if harmonic(n) != float(digamma(n + 1.0)) + np.euler_gamma]
    assert bad == []
    assert harmonic(0) == 0.0


def test_const_one_kmax_beyond_float_is_a_params_error():
    build_weights(WeightMode.CONST_ONE, 1 << 1000)
    for kmax in (10 ** 400, 1 << 1024, (1 << 1024) - 1):
        with pytest.raises(ParamsError, match="too large for a float"):
            build_weights(WeightMode.CONST_ONE, kmax)


def test_const_one_schedule_is_lazy_and_astronomic():
    w = build_weights(WeightMode.CONST_ONE, 40_000_000)
    assert w.values is None
    assert w.a(1) == 1.0 and w.a(40_000_000) == 1.0
    assert w.mass(1, 11) == pytest.approx(harmonic(11), rel=1e-14)
    # closed form keeps working far beyond any array budget
    big = build_weights(WeightMode.CONST_ONE, 1 << 80)
    assert big.mass(1, 1 << 60) == pytest.approx(
        math.log(1 << 60) + np.euler_gamma, rel=1e-10)


def test_const_one_first_k_reaching_frozen():
    w = build_weights(WeightMode.CONST_ONE, 1 << 40)
    # harmonic sums pass 3 at k = 11 (H(10) = 2.9290, H(11) = 3.0199)
    assert w.first_k_reaching(1, 3.0) == 11
    assert w.first_k_reaching(12, 15.0) == 37_605_530
    assert w.first_k_reaching(1, 0.0) == 1


def test_const_one_first_k_reaching_matches_harmonic_scan():
    kmax = 5000
    w = build_weights(WeightMode.CONST_ONE, kmax)
    h = [harmonic(k) for k in range(kmax + 1)]
    for k_lo in (1, 2, 17, 4000):
        masses = [w.mass(k_lo, min(k_lo + d, kmax)) for d in (0, 1, 37)]
        masses.append(w.mass(k_lo, kmax))
        for thr in [0.0, 1e-17, 0.5, 3.0] + masses:
            target = h[k_lo - 1] + thr
            want = next((k for k in range(k_lo, kmax + 1)
                         if h[k] >= target), None)
            assert w.first_k_reaching(k_lo, thr) == want, (k_lo, thr)
    # the scan above did reach past the schedule: mass(4000, 5000) < 0.5
    assert w.first_k_reaching(4000, 0.5) is None


def test_first_k_reaching_matches_scan_on_arrays():
    w = build_weights(WeightMode.INV_LOG, 300)
    for k_lo in (1, 2, 17):
        for thr in (0.1, 0.5, 1.3):
            got = w.first_k_reaching(k_lo, thr)
            acc, want = 0.0, None
            for k in range(k_lo, 301):
                acc += w.a(k) / k
                if acc >= thr:
                    want = k
                    break
            assert got == want


def test_inv_log_values():
    w = build_weights(WeightMode.INV_LOG, 64)
    assert w.a(1) == 1.0 and w.a(2) == 1.0
    assert w.a(4) == pytest.approx(0.5, rel=1e-15)
    assert w.a(16) == pytest.approx(0.25, rel=1e-15)
    vals = w.a(np.arange(1, 65))
    assert np.all(np.diff(vals) <= 1e-15)


def test_mass_matches_longdouble_cumsum():
    w = build_weights(WeightMode.INV_LOG, 500)
    j = np.arange(1, 501, dtype=np.longdouble)
    ref = np.cumsum(np.asarray(w.a(np.arange(1, 501)), dtype=np.longdouble)
                    / j)
    for hi in (1, 2, 77, 500):
        assert w.mass(1, hi) == pytest.approx(float(ref[hi - 1]),
                                              rel=1e-14)
    assert w.mass(10, 9) == 0.0
    assert w.mass(40, 60) == pytest.approx(float(ref[59] - ref[38]),
                                           rel=1e-13)


@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12),
       st.integers(1, 10 ** 12))
def test_const_one_mass_additive(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    w = build_weights(WeightMode.CONST_ONE, 10 ** 13)
    whole = w.mass(lo, hi)
    split = w.mass(lo, mid) + w.mass(mid + 1, hi)
    assert math.isclose(whole, split, rel_tol=1e-11, abs_tol=1e-11)


def test_adapted_schedule_structure():
    kmax = 800
    c = np.ldexp(1.0, -np.arange(1, kmax + 1))
    values, anchors, truncated = adapted_schedule(c, kmax)
    assert values[0] == 1.0
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) <= 1e-15)
    assert anchors[0] == 1
    assert list(anchors) == sorted(anchors)
    w = WeightSchedule(WeightMode.ADAPTED, kmax, values=values,
                       anchors=anchors, truncated=truncated, decay=c)
    # each closed segment carries at most unit mass by the capping rule
    for k_prev, k_n in zip(anchors, anchors[1:]):
        assert w.mass(k_prev + 1, k_n) <= 1.0 + 1e-12
    # endpoints respect both the level rule and the minimum length
    for n, (k_prev, k_n) in enumerate(zip(anchors, anchors[1:]), start=1):
        assert k_n >= k_prev + n
        assert c[k_n - 1] <= 2.0 ** (-n)


def test_adapted_schedule_truncation_flag():
    # a sequence that stalls above the next level never closes the segment
    kmax = 50
    c = np.full(kmax, 0.4)
    c[:5] = [1.0, 0.9, 0.8, 0.7, 0.5]
    values, anchors, truncated = adapted_schedule(c, kmax)
    assert truncated
    assert np.all(values[anchors[-1]:] == values[anchors[-1] - 1])


def test_adapted_validation():
    with pytest.raises(ParamsError):
        adapted_schedule(np.array([0.5, -0.1, 0.01]), 3)
    with pytest.raises(ParamsError):
        adapted_schedule(np.array([0.1, 0.5, 0.01]), 3)
    with pytest.raises(ParamsError):
        adapted_schedule(np.array([0.5, 0.25]), 3)
    with pytest.raises(ParamsError):
        build_weights(WeightMode.ADAPTED, 8, c=None)
    with pytest.raises(ParamsError):
        # no decay over the prefix
        build_weights(WeightMode.ADAPTED, 8, c=np.full(8, 0.3))


def test_build_weights_validation():
    with pytest.raises(ParamsError):
        build_weights(WeightMode.CONST_ONE, 0)
    with pytest.raises(ParamsError):
        build_weights(WeightMode.INV_LOG, MAX_ARRAY_KMAX + 1)
    with pytest.raises(ParamsError, match="length kmax"):
        WeightSchedule(WeightMode.ADAPTED, 3, values=np.array([1.0, 0.5]))
    with pytest.raises(ParamsError, match="nonincreasing"):
        WeightSchedule(WeightMode.ADAPTED, 2, values=np.array([0.5, 0.9]))
    with pytest.raises(ParamsError, match=r"\[0, 1\]"):
        WeightSchedule(WeightMode.ADAPTED, 2, values=np.array([1.0, 1.5]))
    # only ADAPTED schedules take values, and they need them
    with pytest.raises(ParamsError, match="only ADAPTED"):
        WeightSchedule(WeightMode.INV_LOG, 2, values=np.array([1.0, 1.0]))
    with pytest.raises(ParamsError, match="only ADAPTED"):
        WeightSchedule(WeightMode.ADAPTED, 2)


def test_weighted_prefix_matches_brute():
    w = build_weights(WeightMode.INV_LOG, 200)
    rng = np.random.default_rng(5)
    c = np.sort(rng.random(200))[::-1]
    ks = [1, 3, 50, 200]
    got = weighted_prefix(w, c, ks)
    for x, k in zip(got, ks):
        brute = sum(w.a(j) * c[j - 1] / j for j in range(1, k + 1))
        assert x == pytest.approx(brute, rel=1e-12)


def test_weighted_prefix_validation():
    w = build_weights(WeightMode.CONST_ONE, 10)
    with pytest.raises(ParamsError):
        weighted_prefix(w, np.ones(5), [6])
    with pytest.raises(ParamsError):
        weighted_prefix(w, np.ones(20), [11])
    with pytest.raises(ParamsError):
        weighted_prefix(w, np.ones(5), [0])
    assert weighted_prefix(w, np.ones(5), []).size == 0


# -- scale-index bounds ------------------------------------------------------

def _bounded_schedules():
    yield build_weights(WeightMode.INV_LOG, 40)
    yield build_weights(WeightMode.ADAPTED, 40,
                        c=np.exp2(-np.arange(1, 41) / 4.0))


@pytest.mark.parametrize("k", [0, -3, 41, 1000])
def test_weight_index_outside_schedule_raises(k):
    for w in _bounded_schedules():
        for probe in (k, np.int64(k), np.array([1, 5, k, 40])):
            with pytest.raises(ParamsError, match="outside the schedule") \
                    as exc:
                w.a(probe)
            assert exc.value.details == {"k": k, "kmax": 40}
        with pytest.raises(ParamsError, match="outside the schedule"):
            w.ratio(k)


def test_weight_index_bounds_are_inclusive():
    for w in _bounded_schedules():
        assert w.a(1) == 1.0
        assert 0.0 < w.a(40) <= 1.0
        assert w.a(np.arange(1, 41)).shape == (40,)
        assert w.a(np.array([], dtype=np.int64)).shape == (0,)
    # the constant schedule has no array behind it and stays unbounded
    assert build_weights(WeightMode.CONST_ONE, 40).a(41) == 1.0


def test_first_k_reaching_stays_at_or_above_k_lo():
    # a threshold below half an ulp of the running prefix cannot move the
    # target past p(k_lo - 1); the answer is still k_lo itself
    w = build_weights(WeightMode.INV_LOG, 4096)
    assert w.first_k_reaching(2000, 1e-17) == 2000
    assert w.first_k_reaching(2000, 1e-20) == 2000
    assert w.first_k_reaching(4096, 1e-17) == 4096
    assert w.first_k_reaching(4097, 1e-17) is None
    const = build_weights(WeightMode.CONST_ONE, 4096)
    assert const.first_k_reaching(2000, 1e-17) == 2000


# -- bit identity with the former whole-array prefix -----------------------
# The schedule used to hold every weight and the whole prefix
# sum_{j<=k} a_j/j as one longdouble cumsum rounded to float; these
# copies of that path pin the checkpointed prefix to it bit for bit.

CHUNK = 1 << 12


def _old_inv_log_values(kmax):
    with np.errstate(divide="ignore"):
        vals = 1.0 / np.log2(np.arange(1, kmax + 1, dtype=float))
    vals[0] = 1.0
    return vals


def _old_prefix(values):
    # whole-array longdouble cumsum, in place to keep 2^22 affordable
    r = np.arange(1, values.size + 1, dtype=np.longdouble)
    np.divide(values, r, out=r)
    np.cumsum(r, out=r)
    return np.concatenate([[0.0], r.astype(float)])


def _old_mass(p, k_lo, k_hi):
    return float(p[k_hi] - p[k_lo - 1])


def _old_first_k_reaching(p, k_lo, threshold):
    kmax = p.size - 1
    target = p[k_lo - 1] + threshold
    k = int(np.searchsorted(p, target, side="left"))
    while k <= kmax and p[k] < target:
        k += 1
    return k if k <= kmax else None


def _schedule_and_old(mode, kmax):
    if mode is WeightMode.INV_LOG:
        return build_weights(mode, kmax), _old_inv_log_values(kmax)
    w = build_weights(mode, kmax, c=np.exp2(-np.arange(1, kmax + 1) / 20.0))
    return w, w.values


THRESHOLDS = (1e-20, 1e-17, 2.0 ** -53, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0,
              1.5, 2.0, 3.0, 4.0, 8.0, 64.0)


@pytest.mark.parametrize("mode", [WeightMode.INV_LOG, WeightMode.ADAPTED])
@pytest.mark.parametrize("kmax", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 5])
def test_checkpointed_prefix_matches_whole_array(mode, kmax):
    w, vals = _schedule_and_old(mode, kmax)
    p = _old_prefix(vals)
    ks = np.arange(1, kmax + 1)
    assert np.array_equal(w.a(ks), vals)
    assert all(w.a(int(k)) == vals[k - 1] for k in ks)
    # every chunk boundary and its neighbours, plus the ends
    edges = {1, 2, kmax - 1, kmax}
    for c in range(1, kmax // CHUNK + 1):
        edges.update((c * CHUNK - 1, c * CHUNK, c * CHUNK + 1))
    edges = sorted(k for k in edges if 1 <= k <= kmax)
    rng = np.random.default_rng(kmax)
    pairs = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
    pairs += [tuple(sorted(rng.integers(1, kmax + 1, 2)))
              for _ in range(200)]
    for lo, hi in pairs:
        assert w.mass(lo, hi) == _old_mass(p, lo, hi), (lo, hi)
    for k_lo in edges:
        # exact masses land the target on a prefix value
        exact = [_old_mass(p, k_lo, hi) for hi in edges if hi >= k_lo]
        for thr in THRESHOLDS + tuple(exact):
            old = _old_first_k_reaching(p, k_lo, thr)
            want = None if old is None else max(old, k_lo)
            assert w.first_k_reaching(k_lo, thr) == want, (k_lo, thr)


def test_checkpointed_prefix_matches_whole_array_at_2_22():
    kmax = 1 << 22
    w = build_weights(WeightMode.INV_LOG, kmax)
    vals = _old_inv_log_values(kmax)
    p = _old_prefix(vals)
    rng = np.random.default_rng(22)
    ks = rng.integers(1, kmax + 1, 5000)
    assert np.array_equal(w.a(ks), vals[ks - 1])
    assert all(w.a(int(k)) == vals[k - 1] for k in ks[:500])
    los = list(rng.integers(1, kmax + 1, 300)) + [1, CHUNK, CHUNK + 1,
                                                   kmax - CHUNK, kmax]
    for lo in los:
        hi = int(rng.integers(lo, kmax + 1))
        for a, b in ((lo, hi), (lo, kmax), (1, lo)):
            assert w.mass(a, b) == _old_mass(p, a, b), (a, b)
    for k_lo in los[:150]:
        for thr in (1e-17, float(rng.uniform(0.0, 0.3)), 0.4, 3.0):
            old = _old_first_k_reaching(p, k_lo, thr)
            want = None if old is None else max(old, k_lo)
            assert w.first_k_reaching(k_lo, thr) == want, (k_lo, thr)


def test_inv_log_default_params_at_2_22_pinned():
    params = default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
    assert [(b.k_lo, b.k_hi, repr(b.mass)) for b in params.blocks] == [
        (1, 3264, "3.0000165158895298"),
        (3265, 1 << 22, "0.43931271607238864")]


def test_inv_log_default_params_at_2_22_stays_small():
    # one kmax-long float array alone would be 32 MB
    tracemalloc.start()
    try:
        default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
