import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cltlab import engine
from cltlab.blocks import SequenceParams, default_params, split_blocks
from cltlab.engine import (WORK_BUDGET, BlockProfile, Condition,
                           ExactMoments, SeriesTail, TrendKind, TrendRule,
                           Verdict, dyadic_grid, format_csv, pair_count,
                           sigma_sq_over_n)
from cltlab.errors import MemoryBudgetError, WorkBudgetError
from cltlab.reference import (DENSE_SIGMA_CAP, RationalMoments, count_pairs,
                              dense_series_tail_norm, sigma_sq_enumerated)
from cltlab.weights import WeightMode, build_weights


def tiny_params(kmax=3, ends=(1, 3)):
    w = build_weights(WeightMode.CONST_ONE, kmax)
    return SequenceParams(w, split_blocks(w, list(ends)))


def desk_params(kmax=14, rho=4.0):
    return default_params(kmax=kmax, rho=rho)


# -- elementary counts -----------------------------------------------------

@given(st.integers(0, 6), st.integers(-80, 80), st.integers(1, 70))
def test_pair_count_matches_brute(ke, m, N):
    n_k = 1 << ke
    assert pair_count(n_k, m, N) == count_pairs(n_k, m, N)


def pairs_by_lead(n_k, m, N):
    """count_pairs with the inner loop solved: O(N) for any n_k and m."""
    return sum(1 for j in range(N) if 0 <= j - m < n_k)


def test_pair_count_on_grids():
    # int64 grid, as the profile evaluates it: scales along axis 1
    n = np.array([1 << k for k in range(7)])
    m = np.arange(-70, 40)
    for N in (1, 17, 32):
        got = pair_count(n, m[:, None], N)
        assert got.dtype == np.int64
        want = [[count_pairs(int(a), int(b), N) for a in n] for b in m]
        assert (got == np.array(want)).all()
    # exact-int grid: cut points and scales far beyond int64
    n = np.array([1 << k for k in (62, 63, 64, 100, 136, 140)], dtype=object)
    edges = [0, 1, -1, 16, 17]
    for k in (62, 63, 64, 100, 136, 140):
        edges += [-(1 << k) + 1, -(1 << k), -(1 << k) + 17, -(1 << k) + 5]
    m = np.array(edges + [(1 << 140) - 1, 1 << 140], dtype=object)
    for N in (1, 17):
        got = pair_count(n, m[:, None], N)
        assert got.dtype == object
        want = [[pairs_by_lead(a, b, N) for a in n] for b in m]
        assert got.tolist() == want


def test_block_profile_matches_coefficient_sum():
    params = tiny_params(kmax=5, ends=(2, 5))
    for N in (3, 8, 17):
        for b in params.blocks:
            prof = BlockProfile(params, b, N)
            for m in range(-(1 << b.k_hi) + 1, N):
                want = sum(
                    (params.weights.ratio(k) / (1 << k))
                    * count_pairs(1 << k, m, N)
                    for k in range(b.k_lo, b.k_hi + 1))
                assert prof.value(m) == pytest.approx(want, rel=1e-13)
            assert prof.value(prof.m_lo - 1) == 0.0
            assert prof.value(N) == 0.0


def loop_profile(params, block, N):
    """(lo, hi, mid, v_mid, slope) per segment by one scalar loop over k
    per segment, in increasing k from 0.0: the order the array profile
    must reproduce bit for bit."""
    k_cut = min(block.k_hi, N.bit_length() - 1 + engine.K_GUARD)
    ks = range(block.k_lo, k_cut + 1)
    coeffs = [params.weights.ratio(k) / float(1 << k) for k in ks]
    cuts = {N - 1}
    for k in ks:
        cuts.update((-(1 << k) + 1, min(0, N - (1 << k)),
                     max(0, N - (1 << k))))
    cuts = sorted(c for c in cuts if -(1 << k_cut) < c <= N - 1)
    his = [c - 1 for c in cuts[1:]] + [N - 1]
    rows = []
    for lo, hi in zip(cuts, his):
        if hi < lo:
            continue
        mid = (lo + hi) // 2
        probe = mid + 1 if mid + 1 <= hi else mid
        v = sl = 0.0
        for k, cf in zip(ks, coeffs):
            n = 1 << k
            w0 = max(0, min(mid + n, n, N, N - mid))
            v += cf * w0
            if probe != mid:
                sl += cf * (max(0, min(probe + n, n, N, N - probe)) - w0)
        rows.append((lo, hi, mid, float(v), float(sl)))
    return rows


@pytest.mark.parametrize("case", ["int64", "exact_int", "dtype_switch",
                                  "beyond_guard"])
def test_block_profile_bits_match_scalar_loop(case):
    deep = tiny_params(kmax=200, ends=(100, 200))
    params, horizons = {
        "int64": (desk_params(kmax=14), (1 << 10, 17, (1 << 30) + 3)),
        "exact_int": (deep, (1 << 40, 17, (1 << 30) + 3)),
        # k_cut = 60..64 on either side of the int64 limit
        "dtype_switch": (tiny_params(kmax=64, ends=(60, 61, 62, 63, 64)),
                         ((1 << 52) - 1, 17)),
        "beyond_guard": (deep, (1, 2, 3)),
    }[case]
    for N in horizons:
        for b in params.blocks:
            k_cut = min(b.k_hi, N.bit_length() - 1 + engine.K_GUARD)
            if case == "exact_int" and b.k_lo == 101:
                assert k_cut > 62
            got = [(s.lo, s.hi, s.mid, s.v_mid, s.slope)
                   for s in BlockProfile(params, b, N).segments]
            want = loop_profile(params, b, N)
            assert got == want
            assert repr(got) == repr(want)     # tells -0.0 from 0.0 too
            assert all(type(x) is int for row in got for x in row[:3])
            assert all(type(x) is float for row in got for x in row[3:])
            if case == "beyond_guard" and b.k_lo == 101:
                assert got == [(N - 1, N - 1, N - 1, 0.0, 0.0)]


# -- float engine vs rational oracle ---------------------------------------

def test_engine_matches_rational_oracle():
    params = tiny_params()
    em = ExactMoments(params)
    for N in (2, 4, 7, 8):
        rm = RationalMoments(params, N)
        assert em.cond_norm_sq(N) == pytest.approx(
            float(rm.cond_norm_sq()), rel=1e-12)
        assert em.sigma_sq(N) == pytest.approx(
            float(rm.sigma_sq()), rel=1e-12)
        assert em.normalizer_sq(N) == pytest.approx(
            float(rm.b_sq()), rel=1e-12)
        assert em.fourth_cumulant(N) == pytest.approx(
            float(rm.fourth_cumulant()), rel=1e-12)
        assert em.iid_approx_error_sq(N) == pytest.approx(
            float(rm.iid_approx_error_sq()), rel=1e-12)
        for l in range(1, N):
            assert em.proj_norm_sq(l, N) == pytest.approx(
                float(rm.proj_norm_sq(l)), rel=1e-12, abs=1e-300)


def test_tail_norm_matches_rational_oracle():
    for params in (tiny_params(), tiny_params(kmax=5, ends=(2, 5))):
        em = ExactMoments(params)
        rm = RationalMoments(params, 8)
        for p, q in ((2, 4), (3, 6), (1, 8), (1, 1), (5, 5), (3, 7),
                     (6, 40)):
            want = math.sqrt(float(rm.series_tail_norm_sq(p, q)))
            assert em.series_tail_norm(p, q) == pytest.approx(want,
                                                              rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 16), st.integers(1, 16),
       st.sampled_from([WeightMode.CONST_ONE, WeightMode.INV_LOG]),
       st.integers(1, 5000), st.integers(0, 5000))
@example(16, 8, WeightMode.CONST_ONE, 4096, 0)        # p == q
@example(16, 11, WeightMode.CONST_ONE, 4096, 4096)    # q == 2p
@example(12, 12, WeightMode.INV_LOG, 1, 0)
def test_tail_norm_matches_dense_oracle(kmax, split, mode, p, gap):
    w = build_weights(mode, kmax)
    ends = sorted({min(split, kmax), kmax})
    params = SequenceParams(w, split_blocks(w, ends))
    want = dense_series_tail_norm(params, p, p + gap)
    assert ExactMoments(params).series_tail_norm(p, p + gap) == \
        pytest.approx(want, rel=1e-11)


def test_tail_norm_is_memoized(monkeypatch):
    built = []

    class Counting(SeriesTail):
        def __init__(self, params, p, q):
            built.append((p, q))
            super().__init__(params, p, q)

    monkeypatch.setattr(engine, "SeriesTail", Counting)
    em = ExactMoments(desk_params(kmax=12))
    grid = dyadic_grid(3, 6)
    rows = em.table_rows(grid)
    rep = em.check_condition(Condition.TAIL_SERIES, grid)
    assert built == [(n, 2 * n) for n in grid]
    assert rep.values == [row["tail_2prime"] for row in rows]
    # budget failures are not cached: each call re-estimates and raises
    tight = ExactMoments(desk_params(kmax=12), work_budget=100)
    for _ in range(2):
        with pytest.raises(WorkBudgetError):
            tight.series_tail_norm(64, 128)
    assert ("tail", 64, 128) not in tight._cache


def test_tail_blocks_beyond_float_range_add_zero():
    # Second blocks starting at k = 3265 (deep inverse-log schedules) and
    # k = 37,605,531 (the constant-weight headline schedule) lie far past
    # 2^1023; they must add exactly 0.0 rather than overflow.
    for kmax, first in ((5000, 3264), (40_000_000, 37_605_530)):
        w = build_weights(WeightMode.CONST_ONE, kmax)
        split = ExactMoments(SequenceParams(w, split_blocks(w, [first,
                                                                kmax])))
        whole = ExactMoments(SequenceParams(w, split_blocks(w, [kmax])))
        for p, q in ((4, 8), (3, 1000), (1 << 12, 1 << 13)):
            got = split.series_tail_norm(p, q)
            assert math.isfinite(got) and got > 0.0
            assert got == whole.series_tail_norm(p, q)


# -- internal identities at desk scale -------------------------------------

def test_orthogonal_decomposition_random_desk():
    rng = np.random.default_rng(1918)
    for _ in range(12):
        kmax = int(rng.integers(6, 15))
        rho = float(rng.uniform(2.0, 5.0))
        mode = (WeightMode.CONST_ONE, WeightMode.INV_LOG)[
            int(rng.integers(0, 2))]
        try:
            params = default_params(kmax=kmax, rho=rho, mode=mode)
        except Exception:
            continue
        em = ExactMoments(params)
        N = int(rng.integers(2, 1 << 13))
        lhs = em.sigma_sq(N)
        rhs = em.cond_norm_sq(N) + em.proj_total_sq(N)
        assert abs(lhs - rhs) <= 1e-10 * lhs


def test_sigma_routes_agree():
    params = desk_params()
    em = ExactMoments(params)
    for N in (1 << 4, 1 << 8, 1 << 12):
        a = em.sigma_sq(N)
        b = em.sigma_sq_paircov(N)
        c = sigma_sq_enumerated(params, N)
        assert a == pytest.approx(b, rel=1e-11)
        assert a == pytest.approx(c, rel=1e-11)
    with pytest.raises(ValueError):
        em.sigma_sq_paircov(100)  # not dyadic


def test_normalizer_is_sum_of_block_masses():
    params = desk_params()
    em = ExactMoments(params)
    for N in (1 << 3, 1 << 9, (1 << 12) + 5):
        want = math.fsum(em.block_mass(b, N) ** 2 for b in params.blocks)
        assert em.normalizer_sq(N) == pytest.approx(want, rel=1e-14)
        e = int(math.log2(N))
        assert em.block_mass(params.blocks[0], N) == pytest.approx(
            params.weights.mass(1, min(e, params.blocks[0].k_hi)), rel=1e-14)


def test_astronomic_horizon_variance_is_finite():
    params = default_params(kmax=40_000_000, rho=4.0)
    for e in (10, 100, 1000, 10_000):
        v = sigma_sq_over_n(params, e)
        assert math.isfinite(v) and v > 0.0
    em = ExactMoments(params)
    assert math.isfinite(em.sigma_sq(1 << 12))
    tail = em.series_tail_norm(4, 8)
    assert math.isfinite(tail) and tail > 0.0
    p = 1 << 17
    assert SeriesTail(params, p, 2 * p).work > WORK_BUDGET
    with pytest.raises(WorkBudgetError):
        em.series_tail_norm(p, 2 * p)


def test_enumerated_route_budget():
    params = desk_params()
    with pytest.raises(MemoryBudgetError):
        sigma_sq_enumerated(params, DENSE_SIGMA_CAP)
    with pytest.raises(MemoryBudgetError):
        sigma_sq_enumerated(default_params(kmax=40_000_000), 1 << 4)


# -- condition sweeps ------------------------------------------------------

def test_tail_series_decreases_for_const_weights():
    em = ExactMoments(desk_params(kmax=16))
    vals = [em.series_tail_norm(p, 2 * p) for p in (4, 16, 64, 256)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_log_rate_halving_separates_weight_modes():
    # flat weights: the statistic levels off near a positive constant,
    # so it never halves; slow log decay drives it well below half.
    grid = dyadic_grid(6, 14)
    flat = ExactMoments(desk_params(kmax=16))
    rep_flat = flat.check_condition(Condition.LOG_RATE, grid)
    assert rep_flat.values[-1] > 0.5 * rep_flat.values[0]
    slow = ExactMoments(default_params(kmax=300, rho=3.0,
                                       mode=WeightMode.INV_LOG))
    rep = slow.check_condition(Condition.LOG_RATE, grid)
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert rep.values[-1] < 0.5 * rep.values[0]
    assert rep.token == "RATE_5"


def test_growth_bound_holds_on_desk():
    em = ExactMoments(desk_params(kmax=16))
    rep = em.check_condition(Condition.GROWTH_BOUND, dyadic_grid(4, 14),
                             rule=TrendRule(TrendKind.BOUNDED, bound_cap=50.0))
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert max(rep.values) > 0.0


def test_weighted_series_plateaus_with_fast_decay():
    em = ExactMoments(desk_params(kmax=16))
    grid = dyadic_grid(2, 13)
    rep = em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid,
                             c=lambda n: 1.0 / n)
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert rep.values == sorted(rep.values)
    with pytest.raises(ValueError):
        em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid)
    with pytest.raises(ValueError):
        em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid, c=[1.0])


def test_norm_series_partial_sums_increase():
    em = ExactMoments(desk_params())
    rep = em.check_condition(Condition.NORM_SERIES, dyadic_grid(2, 12))
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert rep.values == sorted(rep.values)


def test_check_condition_rejects_bad_grid():
    em = ExactMoments(desk_params())
    with pytest.raises(ValueError):
        em.check_condition(Condition.LOG_RATE, [8, 8, 16])


# -- trend rule unit behavior ----------------------------------------------

def test_trend_rule_basics():
    dec = TrendRule(TrendKind.DECREASING)
    assert dec.apply([3.0, 2.0, 1.0]) is Verdict.TREND_CONFIRMED
    assert dec.apply([1.0, 2.0, 3.0]) is Verdict.TREND_VIOLATED
    assert dec.apply([1.0, 2.0]) is Verdict.INCONCLUSIVE
    assert dec.apply([1.0, math.nan, 0.5]) is Verdict.INCONCLUSIVE
    assert dec.apply([1.0, math.inf, 0.5]) is Verdict.INCONCLUSIVE
    inc = TrendRule(TrendKind.INCREASING)
    assert inc.apply([1.0, 2.0, 3.0]) is Verdict.TREND_CONFIRMED
    plat = TrendRule(TrendKind.PLATEAU, plateau_eps=1e-3)
    assert plat.apply([0.0, 0.9, 1.0, 1.0, 1.0]) is Verdict.TREND_CONFIRMED
    assert plat.apply([0.0, 0.9, 1.0, 1.1, 1.2]) is Verdict.TREND_VIOLATED
    bnd = TrendRule(TrendKind.BOUNDED, bound_cap=2.0)
    assert bnd.apply([0.5, 1.9, 1.0]) is Verdict.TREND_CONFIRMED
    assert bnd.apply([0.5, 2.1, 1.0]) is Verdict.TREND_VIOLATED
    slack = TrendRule(TrendKind.DECREASING, rel_slack=0.05)
    assert slack.apply([10.0, 10.2, 6.0]) is Verdict.TREND_CONFIRMED


# -- misc ------------------------------------------------------------------

def test_dyadic_grid():
    assert dyadic_grid(3, 5) == [8, 16, 32]
    assert dyadic_grid(0, 0) == [1]
    with pytest.raises(ValueError):
        dyadic_grid(5, 3)


def test_table_rows_and_csv():
    em = ExactMoments(desk_params(kmax=12))
    rows = em.table_rows(dyadic_grid(3, 6))
    body = format_csv(rows)
    lines = body.strip().split("\n")
    assert lines[0] == ("N,b,cond_norm,sigma,ratio_bound9,"
                        "ratio_rate5,lemma5_ratio,tail_2prime")
    assert len(lines) == 5
    assert lines[1].startswith("8,")
    assert format_csv(rows) == body  # deterministic
    nan_row = [{"N": 2, "b": math.nan}]
    assert "nan" in format_csv(nan_row)
