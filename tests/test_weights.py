import itertools
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
                            _inv_log_em, adapted_schedule, build_weights,
                            check_decay, harmonic, weighted_prefix)


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
    w = WeightSchedule(WeightMode.ADAPTED, kmax, decay=c)
    assert np.array_equal(w.values, values)
    assert (w.anchors, w.truncated) == (anchors, truncated)
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


def test_adapted_schedule_refuses_a_nan_decay():
    # NaN passes both c <= 0 and diff > 1e-15; every later mass would be NaN
    kmax = 40
    for k, value in ((6, np.nan), (1, np.inf)):
        c = np.ldexp(1.0, -np.arange(1, kmax + 1))
        c[k - 1] = value
        with pytest.raises(ParamsError, match="finite") as info:
            adapted_schedule(c, kmax)
        assert info.value.details == {"k": k}
        with pytest.raises(ParamsError, match="finite"):
            build_weights(WeightMode.ADAPTED, kmax, c=c)
    # a constant sequence is a valid decay sequence, just not an adapted one
    assert np.array_equal(check_decay(np.ones(kmax), kmax), np.ones(kmax))


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
    # only ADAPTED schedules take a decay, and they need one
    with pytest.raises(ParamsError, match="only ADAPTED"):
        WeightSchedule(WeightMode.INV_LOG, 2, decay=np.array([1.0, 0.5]))
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
    # the constant schedule is bounded below only: a_0 is no weight, and
    # ratio(0) would divide by zero
    schedules = list(_bounded_schedules())
    if k < 1:
        schedules.append(build_weights(WeightMode.CONST_ONE, 40))
    for w in schedules:
        for read, probe in itertools.product(
                (w.a, w.ratio), (k, np.int64(k), np.array([1, 5, k, 40]))):
            with pytest.raises(ParamsError, match="outside the schedule") \
                    as exc:
                read(probe)
            assert exc.value.details == {"k": k, "kmax": 40}


def test_weight_index_bounds_are_inclusive():
    for w in _bounded_schedules():
        assert w.a(1) == 1.0
        assert 0.0 < w.a(40) <= 1.0
        assert w.a(np.arange(1, 41)).shape == (40,)
        assert w.a(np.array([], dtype=np.int64)).shape == (0,)
    # the constant schedule has no array behind it and stays unbounded
    const = build_weights(WeightMode.CONST_ONE, 40)
    assert const.a(41) == const.a(40 + 5) == 1.0


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


def test_first_k_reaching_rejects_k_lo_below_one():
    schedules = [build_weights(WeightMode.CONST_ONE, 100),
                 build_weights(WeightMode.INV_LOG, 100),
                 build_weights(WeightMode.ADAPTED, 100,
                               c=np.exp2(-np.arange(1, 101) / 4.0))]
    for w in schedules:
        for k_lo, thr in ((0, 0.0), (-5, 1.0), (-1, 0.5)):
            with pytest.raises(ParamsError, match="k_lo") as exc:
                w.first_k_reaching(k_lo, thr)
            assert exc.value.details == {"k_lo": k_lo}
        assert w.first_k_reaching(1, 0.0) == 1


# -- scalar reads --------------------------------------------------------------

def _log2_disagreements(kmax):
    # indices where math.log2 and np.log2 round differently: an integer
    # read must not take a math.log2 shortcut past the array path
    out = []
    for s in range(2, kmax + 1, 1 << 18):
        k = np.arange(s, min(s + (1 << 18), kmax + 1), dtype=float)
        m = np.fromiter(map(math.log2, k.tolist()), float, k.size)
        out += k[m != np.log2(k)].astype(np.int64).tolist()
    return out


def test_scalar_reads_match_the_array_path_bitwise():
    kmax = 1 << 22
    rng = np.random.default_rng(2022)
    ks = np.unique(np.concatenate([
        rng.integers(1, kmax + 1, 20_000), _log2_disagreements(kmax),
        [1, 2, 3, 1621, 3242, 4096, 4097, kmax]]))
    c = np.exp2(-np.arange(1, (1 << 16) + 1) / 2.0 ** 12)
    for w in (build_weights(WeightMode.CONST_ONE, kmax),
              build_weights(WeightMode.INV_LOG, kmax),
              build_weights(WeightMode.ADAPTED, 1 << 16, c=c)):
        mine = ks[ks <= w.kmax]
        for read in (w.a, w.ratio):
            want = np.asarray(read(mine), dtype=float).view(np.uint64)
            for cast in (int, np.int64):
                got = np.array([read(cast(k)) for k in mine.tolist()])
                assert np.array_equal(got.view(np.uint64), want), read


def test_integer_reads_return_floats():
    # CONST_ONE's array path gives a 0-d array for an integer; every mode
    # hands an integer read out as a float with the array read's bits
    c = np.exp2(-np.arange(1, 65) / 4.0)
    for w in (build_weights(WeightMode.CONST_ONE, 64),
              build_weights(WeightMode.INV_LOG, 64),
              build_weights(WeightMode.ADAPTED, 64, c=c)):
        for read in (w.a, w.ratio):
            want = read(np.arange(1, 65))
            for k in range(1, 65):
                for cast in (int, np.int64):
                    got = read(cast(k))
                    assert type(got) is float, (w.mode, read, cast)
                    assert (np.float64(got).view(np.uint64)
                            == want[k - 1].view(np.uint64))


def test_inv_log_blocks_at_2_22_read_only_the_head():
    # the Euler-Maclaurin tail reads no weights: building the default
    # blocks touches the 2^12 head, not all 2^22 indices
    touched = 0
    a = WeightSchedule.a

    def counting_a(self, k):
        nonlocal touched
        touched += np.size(k)
        return a(self, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeightSchedule, "a", counting_a)
        default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
    assert 0 < touched <= CHUNK + 64


# -- the prefix against the former whole-array prefix and exact sums ---------
# The schedule used to hold every weight and the whole prefix
# sum_{j<=k} a_j/j as one longdouble cumsum rounded to float; these
# copies of that path pin every ADAPTED prefix and the INV_LOG prefix up
# to its 2^12 head to it bit for bit.  Beyond the head the INV_LOG prefix
# is an Euler-Maclaurin tail: it must lie within 1 ulp of the exact sum
# of the float terms a_j/j (what math.fsum returns) and within 1 ulp of
# the old cumsum, which is itself up to 1 ulp off the exact sum.

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


def _fsum_prefix(values):
    """k -> math.fsum(values[j-1] / j for j <= k), from one exact pass.

    Each float term is at least 2^-27, so it is a whole multiple of
    2^-80: its top 40 bits sum exactly in float, its bottom 40 in int64.
    """
    t = values / np.arange(1, values.size + 1)
    np.ldexp(t, 40, out=t)
    top = np.floor(t)
    t -= top
    np.ldexp(t, 40, out=t)
    assert np.array_equal(t, np.floor(t))
    low = t.astype(np.int64)
    del t
    np.cumsum(top, out=top)
    np.cumsum(low, out=low)

    def prefix(k):
        if k == 0:
            return 0.0
        return ((int(top[k - 1]) << 40) + int(low[k - 1])) / (1 << 80)
    return prefix


def _ulp_gap(x, y):
    # distance in representable steps between two nonnegative floats
    return abs(int(np.float64(x).view(np.int64))
               - int(np.float64(y).view(np.int64)))


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
    if mode is WeightMode.INV_LOG and kmax > CHUNK:
        # past the exact head: within 1 ulp of the exact and the old
        # prefix; masses and thresholds below then read the new prefix
        new = np.array([w._prefix(k) for k in range(kmax + 1)])
        assert np.array_equal(new[:CHUNK + 1], p[:CHUNK + 1])
        assert np.all(np.diff(new) >= 0.0)
        exact = _fsum_prefix(vals)
        for k in (CHUNK + 1, kmax):
            assert exact(k) == math.fsum(vals[:k] / np.arange(1, k + 1))
        for k in range(CHUNK + 1, kmax + 1):
            assert _ulp_gap(new[k], exact(k)) <= 1, k
            assert _ulp_gap(new[k], p[k]) <= 1, k
        p = new
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
    exact = _fsum_prefix(vals)
    assert exact(kmax) == math.fsum(vals / np.arange(1, kmax + 1))
    rng = np.random.default_rng(22)
    ks = rng.integers(1, kmax + 1, 5000)
    assert np.array_equal(w.a(ks), vals[ks - 1])
    assert all(w.a(int(k)) == vals[k - 1] for k in ks[:500])
    los = list(rng.integers(1, kmax + 1, 300)) + [1, CHUNK, CHUNK + 1,
                                                   kmax - CHUNK, kmax]
    for lo in los:
        hi = int(rng.integers(lo, kmax + 1))
        for a, b in ((lo, hi), (lo, kmax), (1, lo)):
            if b <= CHUNK:
                assert w.mass(a, b) == _old_mass(p, a, b), (a, b)
            for k in (a - 1, b):
                got = w._prefix(k)
                assert _ulp_gap(got, exact(k)) <= 1, k
                assert _ulp_gap(got, p[k]) <= 1, k
            assert w.mass(a, b) == w._prefix(b) - w._prefix(a - 1)
    # the prefix never decreases, across the head's end and at the top
    # (so a bisection over it returns what a scan would)
    probe = np.unique(np.concatenate([
        np.arange(CHUNK - 64, CHUNK + 2048), np.arange(kmax - 2048, kmax + 1),
        rng.integers(1, kmax + 1, 4000)]))
    assert np.all(np.diff([w._prefix(int(k)) for k in probe]) >= 0.0)
    for k_lo in los[:150]:
        for thr in (1e-17, float(rng.uniform(0.0, 0.3)), 0.4, 3.0):
            k = w.first_k_reaching(k_lo, thr)
            target = w._prefix(k_lo - 1) + thr
            if k is None:
                assert w._prefix(kmax) < target, (k_lo, thr)
            else:
                # the first index at or past k_lo that reaches the target
                assert k_lo <= k and w._prefix(k) >= target, (k_lo, thr)
                assert k == k_lo or w._prefix(k - 1) < target, (k_lo, thr)


def test_inv_log_tail_matches_exact_sums():
    import mpmath

    def f(x):
        return 1 / (x * mpmath.log(x))

    # a local precision, so later tests see mpmath's default
    with mpmath.workprec(128):
        ln2 = mpmath.log(2)
        # Euler-Maclaurin remainder after the B4 term: every derivative of f
        # alternates in sign, so it lies below the B6 term at a = 2^12
        bound = ln2 / 42 / 720 * abs(mpmath.diff(f, CHUNK, 5))
        assert bound < mpmath.mpf(2) ** -70
        # the boundary terms use the closed forms of f' and f'''; mpmath
        # differentiates f numerically instead, to ~30 digits at 128 bits
        for k in (CHUNK, 10 ** 5, 1 << 22, MAX_ARRAY_KMAX):
            want = ln2 * (mpmath.log(mpmath.log(k)) + f(k) / 2
                          + mpmath.diff(f, k) / 12
                          - mpmath.diff(f, k, 3) / 720)
            n, d = _inv_log_em(k).as_integer_ratio()
            assert abs(mpmath.mpf(n) / d - want) < 2.0 ** -62 * want, k
        # and its rise from 2^12 matches the plain sum of ln2 / (j ln j), up
        # to the extended-precision rounding of the two ends: a few 2^-63,
        # far below the 2^-51 ulp of the prefix it feeds
        acc = mpmath.mpf(0)
        for j in range(CHUNK + 1, 12_001):
            acc += ln2 / (j * mpmath.log(j))
            if j in (CHUNK + 1, CHUNK + 2, 5000, 12_000):
                tail = _inv_log_em(j) - _inv_log_em(CHUNK)
                n, d = tail.as_integer_ratio()
                assert abs(mpmath.mpf(n) / d - acc) < 2.0 ** -60, j


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
