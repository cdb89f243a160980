import functools
import gc
import hashlib
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cltlab import engine
from cltlab.blocks import SequenceParams, default_params, split_blocks
from cltlab.engine import (DESK_N_CAP, BlockProfile, Condition,
                           ExactMoments, SeriesTail, Verdict, dyadic_grid,
                           judge, sigma_sq_over_n)
from cltlab.errors import (BUDGETS, MemoryBudgetError, ParamsError,
                           WorkBudgetError)
from cltlab import lattice
from cltlab.lattice import hurwitz_zeta, zeta_diff
from cltlab.weights import WeightMode, build_weights
from cltlab_reference import (DENSE_SIGMA_CAP, RationalMoments, count_pairs,
                              dense_series_tail_norm, sigma_sq_enumerated)
from conftest import power_sums, set_limit


def tiny_params(kmax=3, ends=(1, 3)):
    w = build_weights(WeightMode.CONST_ONE, kmax)
    return SequenceParams(w, split_blocks(w, list(ends)))


def desk_params(kmax=14, rho=4.0):
    return default_params(kmax=kmax, rho=rho)


# -- block profiles --------------------------------------------------------

def trapezoid(n_k, m, N):
    """#{(j, i): 0 <= j < N, 0 <= i < n_k, j - i = m} in closed form."""
    return max(0, min(m + n_k, n_k, N, N - m))


def pairs_by_lead(n_k, m, N):
    """count_pairs with the inner loop solved: O(N) for any n_k and m."""
    return sum(1 for j in range(N) if 0 <= j - m < n_k)


@given(st.integers(0, 6), st.integers(-80, 80), st.integers(1, 70))
def test_trapezoid_formula_matches_brute(ke, m, N):
    assert trapezoid(1 << ke, m, N) == count_pairs(1 << ke, m, N)


def test_trapezoid_formula_matches_pairs_by_lead():
    # cut points and scales far beyond 64 bits
    ks = (62, 63, 64, 100, 136, 140)
    edges = [0, 1, -1, 16, 17, (1 << 140) - 1, 1 << 140]
    for k in ks:
        edges += [-(1 << k) + 1, -(1 << k), -(1 << k) + 17, -(1 << k) + 5]
    for N in (1, 17):
        for k in ks:
            for m in edges:
                assert trapezoid(1 << k, m, N) == pairs_by_lead(1 << k, m, N)


def exact_segments(params, block, N):
    """(lo, hi, mid, v_mid, slope) per segment, the value and slope as
    exact Fractions of the literal per-scale sums, on the engine's cuts."""
    k_cut = min(block.k_hi, N.bit_length() - 1 + engine.K_GUARD)
    cs = [(1 << k, Fraction(float(params.weights.ratio(k))) / (1 << k))
          for k in range(block.k_lo, k_cut + 1)]
    cuts = {N - 1}
    for n, _ in cs:
        cuts.update((-n + 1, min(0, N - n), max(0, N - n)))
    cuts = sorted(c for c in cuts if -(1 << k_cut) < c <= N - 1)
    rows = []
    for lo, hi in zip(cuts, [c - 1 for c in cuts[1:]] + [N - 1]):
        mid = (lo + hi) // 2
        v = sum((c * trapezoid(n, mid, N) for n, c in cs), Fraction(0))
        slope = Fraction(0)
        if hi > lo:
            slope = sum((c * (trapezoid(n, mid + 1, N) - trapezoid(n, mid, N))
                         for n, c in cs), Fraction(0))
        rows.append((lo, hi, mid, v, slope))
    return rows


def assert_profile_exact(params, block, N, prof=None):
    """Every segment of ``prof`` (a fresh profile by default) is the
    correctly rounded exact one; returns them."""
    prof = prof or BlockProfile(params, block, N)
    got = [(*seg, v, slope) for seg, v, slope in zip(
        prof.segments, prof.v.tolist(), prof.slope.tolist())]
    want = [(lo, hi, mid, float(v), float(slope))
            for lo, hi, mid, v, slope in exact_segments(params, block, N)]
    assert got == want
    assert repr(got) == repr(want)     # tells -0.0 from 0.0 too
    assert all(type(x) is int for row in got for x in row[:3])
    assert all(type(x) is float for row in got for x in row[3:])
    return got


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
            assert prof.value(prof.segments[0][0] - 1) == 0.0
            assert prof.value(N) == 0.0


@pytest.mark.parametrize("case", ["desk", "deep", "k_cut_60_64",
                                  "beyond_guard"])
def test_block_profile_is_exact(case):
    deep = tiny_params(kmax=200, ends=(100, 200))
    params, horizons = {
        "desk": (desk_params(kmax=14), (1 << 10, 17, (1 << 30) + 3)),
        "deep": (deep, (1 << 40, 17, (1 << 30) + 3)),
        # cut points from -2^60 to -2^64
        "k_cut_60_64": (tiny_params(kmax=64, ends=(60, 61, 62, 63, 64)),
                        ((1 << 52) - 1, 17)),
        "beyond_guard": (deep, (1, 2, 3)),
    }[case]
    for N in horizons:
        for b in params.blocks:
            got = assert_profile_exact(params, b, N)
            if case == "beyond_guard" and b.k_lo == 101:
                assert got == [(N - 1, N - 1, N - 1, 0.0, 0.0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([WeightMode.CONST_ONE, WeightMode.INV_LOG]),
       st.integers(1, 1 << 12))
@example(12, 6, WeightMode.INV_LOG, 1 << 12)
@example(12, 12, WeightMode.CONST_ONE, (1 << 11) + 1)
def test_block_profile_exact_and_affine(kmax, split, mode, N):
    w = build_weights(mode, kmax)
    params = SequenceParams(w, split_blocks(w, sorted({min(split, kmax),
                                                       kmax})))
    for b in params.blocks:
        assert_profile_exact(params, b, N)
        # the exact coefficient at both ends lies on the segment's line
        for lo, hi, mid, v, slope in exact_segments(params, b, N):
            for m in (lo, hi):
                at = sum((Fraction(float(w.ratio(k))) / (1 << k)
                          * trapezoid(1 << k, m, N)
                          for k in range(b.k_lo, b.k_hi + 1)), Fraction(0))
                assert at == v + slope * (m - mid)


def test_theorem3_iid_error_at_2_33_is_accurate():
    # exact-rational recomputation from exact segment values; the only
    # rounding left is the engine's Faulhaber accumulation
    params = default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
    N = 1 << 33
    em = ExactMoments(params)
    want = Fraction(em.normalizer_sq(33))
    for b in params.blocks:
        shift = Fraction(em.block_mass(b, 33))
        for lo, hi, mid, v, slope in exact_segments(params, b, N):
            s0, s1, s2 = power_sums(max(lo, 1) - mid, min(hi, N - 1) - mid,
                                    2)
            v -= shift
            want += v * v * s0 + 2 * v * slope * s1 + slope * slope * s2
    got = em.iid_approx_error_sq(N)
    assert abs(got - float(want)) <= 1e-14 * float(want)


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
        assert em.normalizer_sq(N.bit_length() - 1) == pytest.approx(
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
            built.append(list(zip(p, q)))
            super().__init__(params, p, q)

    monkeypatch.setattr(engine, "SeriesTail", Counting)
    em = ExactMoments(desk_params(kmax=12))
    grid = dyadic_grid(3, 6)
    rows = em.table_rows(grid)
    rep = em.check_condition(Condition.TAIL_SERIES, grid)
    # one batch of every row, and the condition reuses its memo
    assert built == [[(n, 2 * n) for n in grid]]
    assert rep.values == [row["tail_2prime"] for row in rows]
    # a row over the budget is memoized with its work and never
    # evaluated: each call raises, and the row is built once
    set_limit(monkeypatch, "series_tail", 100)
    built.clear()
    tight = ExactMoments(desk_params(kmax=12))
    for _ in range(2):
        with pytest.raises(WorkBudgetError):
            tight.series_tail_norm(64, 128)
    assert built == [[(64, 128)]]
    # with the conditions grid's budget at its median row work, the table
    # and the condition build one batch of every row, then one of the
    # rows within the budget, and nothing more
    params, (lo, hi) = preset("conditions")
    grid = dyadic_grid(lo, hi)
    work = SeriesTail(params, grid, [2 * n for n in grid]).work
    set_limit(monkeypatch, "series_tail", int(np.median(work)))
    built.clear()
    em = ExactMoments(params)
    em.table_rows(grid)
    with pytest.raises(WorkBudgetError):
        em.check_condition(Condition.TAIL_SERIES, grid)
    assert [len(rows) for rows in built] == [13, 7]


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


def test_fourth_cumulant_of_blocks_beyond_the_guard():
    # theorem1's third block (k_lo = 37,605,531, horizon 2^40,000,000)
    # keeps no scale at these horizons and adds far under 2^-1074, so
    # kappa_4 is block 1's own spike term, not inf * 0 = nan
    em = ExactMoments(default_params(kmax=40_000_000))
    first = em.params.blocks[0]
    for e in (4, 11, 20):
        N = 1 << e
        own = ((float(1 << first.horizon_log2) - 3.0)
               * em.profiles(N)[0].sum_pow(4))
        assert math.isfinite(own)
        assert em.fourth_cumulant(N) == own
    # block 3 (k_lo = 101, horizon 2^300) is beyond the guard at N = 16
    # but may add up to 2^221: it is refused rather than dropped
    w = build_weights(WeightMode.CONST_ONE, 300)
    deep = ExactMoments(SequenceParams(w, split_blocks(w, [1, 100, 300])))
    with pytest.raises(ParamsError) as info:
        deep.fourth_cumulant(16)
    assert info.value.details["block"] == 3


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
        proj_total = math.fsum(p.sum_pow(2, p.future)
                               for p in em.profiles(N))
        rhs = em.cond_norm_sq(N) + proj_total
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
        e = int(math.log2(N))
        want = math.fsum(em.block_mass(b, e) ** 2 for b in params.blocks)
        assert em.normalizer_sq(e) == pytest.approx(want, rel=1e-14)
        assert em.block_mass(params.blocks[0], e) == pytest.approx(
            params.weights.mass(1, min(e, params.blocks[0].k_hi)), rel=1e-14)


def test_astronomic_horizon_variance_is_finite():
    params = default_params(kmax=40_000_000, rho=4.0)
    for e in (10, 100, 1000, 10_000):
        v = sigma_sq_over_n(params, e)
        assert math.isfinite(v) and v > 0.0
    em = ExactMoments(params)
    assert math.isfinite(em.sigma_sq(1 << 12))
    for p in (4, 1 << 17, 1 << 40, DESK_N_CAP):
        tail = em.series_tail_norm(p, 2 * p)
        assert math.isfinite(tail) and tail > 0.0
    # lags past twice the desk cap would not be exact in a double
    with pytest.raises(WorkBudgetError):
        em.series_tail_norm(DESK_N_CAP, 4 * DESK_N_CAP)


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
    assert rep.condition.value == "RATE_5"


def test_growth_bound_holds_on_desk():
    em = ExactMoments(desk_params(kmax=16))
    rep = em.check_condition(Condition.GROWTH_BOUND, dyadic_grid(4, 14))
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert 0.0 < max(rep.values) <= 50.0


def test_growth_bound_is_zero_at_horizon_one():
    # log^2 1 = 0, so the statistic vanishes there rather than blowing up
    em = ExactMoments(desk_params(kmax=16))
    rep = em.check_condition(Condition.GROWTH_BOUND, [1, 2, 4, 8])
    assert rep.values[0] == 0.0
    assert rep.verdict is Verdict.TREND_CONFIRMED


def test_weighted_series_plateaus_with_fast_decay():
    em = ExactMoments(desk_params(kmax=16))
    grid = dyadic_grid(2, 13)
    rep = em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid,
                             c=1.0 / np.arange(1, 2**13 + 1))
    assert rep.verdict is Verdict.TREND_CONFIRMED
    assert rep.values == sorted(rep.values)
    with pytest.raises(ValueError):
        em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid)


def test_weighted_series_extends_decay_by_its_last_value():
    # c_n past the sequence's end reads as c_8
    em = ExactMoments(desk_params(kmax=16))
    grid = dyadic_grid(2, 13)
    c = 1.0 / np.arange(1, 9)
    rep = em.check_condition(Condition.WEIGHTED_NORM_SERIES, grid, c=c)
    want, acc, prev = [], 0.0, 0
    for n in grid:
        weight = float(c[min(n, 8) - 1])
        acc += (n - prev) * weight * math.sqrt(em.cond_norm_sq(n)) / n ** 1.5
        want.append(acc)
        prev = n
    assert rep.values == want


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
    dec = Condition.TAIL_SERIES
    assert judge(dec, [3.0, 2.0, 1.0]) is Verdict.TREND_CONFIRMED
    assert judge(dec, [1.0, 2.0, 3.0]) is Verdict.TREND_VIOLATED
    assert judge(dec, [1.0, 2.0]) is Verdict.INCONCLUSIVE
    assert judge(dec, [1.0, math.nan, 0.5]) is Verdict.INCONCLUSIVE
    assert judge(dec, [1.0, math.inf, 0.5]) is Verdict.INCONCLUSIVE
    inc = Condition.NORM_SERIES
    assert judge(inc, [1.0, 2.0, 3.0]) is Verdict.TREND_CONFIRMED
    plat = Condition.WEIGHTED_NORM_SERIES
    assert judge(plat, [0.0, 0.9, 1.0, 1.0, 1.0]) is Verdict.TREND_CONFIRMED
    assert judge(plat, [0.0, 0.9, 1.0, 1.1, 1.2]) is Verdict.TREND_VIOLATED
    # BOUND_9 confirms any finite trajectory
    bnd = Condition.GROWTH_BOUND
    assert judge(bnd, [0.5, 1.9, 1.0]) is Verdict.TREND_CONFIRMED
    assert judge(bnd, [0.5, 2.1e300, 1.0]) is Verdict.TREND_CONFIRMED
    # any rise in a decreasing condition violates it
    assert judge(dec, [10.0, 10.2, 6.0]) is Verdict.TREND_VIOLATED


# -- misc ------------------------------------------------------------------

def test_dyadic_grid():
    assert dyadic_grid(3, 5) == [8, 16, 32]
    assert dyadic_grid(0, 0) == [1]
    with pytest.raises(ValueError):
        dyadic_grid(5, 3)


@pytest.mark.parametrize("name", ["conditions", "theorem1", "theorem2",
                                  "theorem3"])
def test_batched_tails_equal_the_batch_of_one(name, monkeypatch):
    # a row's tail does not depend on the rows evaluated beside it, in
    # its run or in the batch: one run of every row, or a run per row
    params, (lo, hi) = preset(name)
    grid = dyadic_grid(lo, hi)
    tables = []
    for runs in (None, 10 ** 9, 1):
        if runs is not None:
            monkeypatch.setattr(lattice, "TAIL_BATCH", runs)
        tables.append(ExactMoments(params).table_rows(grid))
    for i, n in enumerate(grid):
        alone = ExactMoments(params).series_tail_norm(n, 2 * n)
        assert {t[i]["tail_2prime"].hex() for t in tables} == {alone.hex()}
        assert alone.hex() == math.sqrt(SeriesTail(params, [n], [2 * n])
                                        .norm_sq()[0]).hex()


def test_rows_over_the_work_budget_alone_are_nan(monkeypatch):
    params, _ = preset("theorem3")
    grid = dyadic_grid(4, 40)
    want = ExactMoments(params).table_rows(grid)
    work = SeriesTail(params, grid, [2 * n for n in grid]).work
    budget = int(np.median(work))
    set_limit(monkeypatch, "series_tail", budget)
    em = ExactMoments(params)
    got = em.table_rows(grid)
    assert 0 < sum(w > budget for w in work) < len(grid)
    for a, b, w, n in zip(want, got, work, grid):
        if w > budget:
            assert math.isnan(b["tail_2prime"])
            with pytest.raises(WorkBudgetError) as err:
                em.series_tail_norm(n, 2 * n)
            assert err.value.details == {"estimated_ops": w,
                                         "budget": budget}
        else:
            assert b["tail_2prime"].hex() == a["tail_2prime"].hex()


def scalar_sweep():
    """(params, horizons) pairs: tiny split schedules under every weight
    mode at N = 1..11, random default schedules at small and non-dyadic
    N, and two schedules at 2^13..2^52 and their neighbours."""
    cases = []
    for mode in WeightMode:
        c = (np.ldexp(1.0, -np.arange(1, 13))
             if mode is WeightMode.ADAPTED else None)
        w = build_weights(mode, 12, c=c)
        for ends in ((12,), (3, 12), (1, 5, 12)):
            cases.append((SequenceParams(w, split_blocks(w, list(ends))),
                          range(1, 12)))
    rng = np.random.default_rng(27)
    while len(cases) < 15:
        mode = (WeightMode.CONST_ONE, WeightMode.INV_LOG)[
            int(rng.integers(0, 2))]
        try:
            params = default_params(kmax=int(rng.integers(6, 24)),
                                    rho=float(rng.uniform(2.0, 5.0)),
                                    mode=mode)
        except ParamsError:      # kmax too small for rho's first block
            continue
        cases.append((params, [*range(1, 12),
                               *rng.integers(12, 1 << 14, 8).tolist()]))
    deep = range(13, 53)
    cases.append((default_params(kmax=60), [1 << e for e in deep]))
    cases.append((default_params(kmax=40_000_000),
                  [(1 << e) + d for e in deep for d in (-1, 0, 1)
                   if e < 52 or d < 1]))
    return cases


def test_engine_scalars_are_pinned_bit_for_bit():
    # sha256 over the .hex() of every per-horizon scalar on the sweep; a
    # change that moves a bit on purpose updates the pin and names it
    digest = hashlib.sha256()
    for params, horizons in scalar_sweep():
        em = ExactMoments(params)
        for N in horizons:
            for x in (em.cond_norm_sq(N), em.sigma_sq(N),
                      em.iid_approx_error_sq(N), em.proj_norm_sq(1, N),
                      em.proj_norm_sq(N - 1, N), em.fourth_cumulant(N)):
                digest.update(x.hex().encode())
    assert digest.hexdigest() == ("17633a88392ee7a6345ccd861835b33e"
                                  "bfbc930014a3ee634343dbb9eb91931c")


def test_profile_tables_are_pinned_bit_for_bit():
    # sha256 over every profile's segments, table bytes and row sets on
    # the sweep: it sees the S1 and S2 of slope-0 rows, which the scalars
    # above do not read but the sampler and the oracles do
    digest = hashlib.sha256()
    for params, horizons in scalar_sweep():
        em = ExactMoments(params)
        for N in horizons:
            for prof in em.profiles(N):
                digest.update(repr(prof.segments).encode())
                digest.update(prof._table.tobytes())
                digest.update(prof.past.tobytes() + prof.future.tobytes())
    assert digest.hexdigest() == ("4672d6016d671722ee5aa3709353ab26"
                                  "fcc776b0df972cddd2fec7fafa721d21")


# -- array paths against their scalar loops ----------------------------------

@functools.lru_cache(maxsize=None)
def preset(name):
    """A preset's parameters and the grid exponents its bench run uses."""
    if name == "conditions":
        return default_params(kmax=24, rho=4.0), (4, 16)
    if name == "theorem1":
        return default_params(kmax=40_000_000, rho=4.0), (4, 16)
    if name == "theorem2":
        decay = np.ldexp(1.0, -np.arange(1, 1025))
        return default_params(kmax=1024, rho=4.0, mode=WeightMode.ADAPTED,
                              c=decay), (4, 16)
    return default_params(kmax=1 << 22, rho=4.0,
                          mode=WeightMode.INV_LOG), (4, 40)


def clipped_sum(prof, power, lo=None, hi=None, shift=0.0):
    """The fsum over the segments of their sums of (C(m) - shift)^power
    over m in [lo, hi], each in closed form from the exact power sums of
    its clipped range, centred at its midpoint and rounded once."""
    parts = []
    for (a, b, mid), v, s in zip(prof.segments, prof.v.tolist(),
                                 prof.slope.tolist()):
        a = a if lo is None else max(a, lo)
        b = b if hi is None else min(b, hi)
        s0, s1, s2, s3, s4 = map(float, power_sums(a - mid, b - mid))
        v -= shift
        parts.append(v * v * s0 + 2.0 * v * s * s1 + s * s * s2
                     if power == 2 else
                     v ** 4 * s0 + 4.0 * v ** 3 * s * s1
                     + 6.0 * v * v * s * s * s2
                     + 4.0 * v * s ** 3 * s3 + s ** 4 * s4)
    return math.fsum(parts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["theorem1", "theorem3"]),
       st.one_of(st.integers(1, 3),
                 st.builds(lambda e, odd: (1 << e) + odd, st.integers(4, 40),
                           st.sampled_from([-1, 0, 1]))))
@example("theorem3", (1 << 40) + 1)
@example("theorem1", 15)
@example("theorem1", 1)
@example("theorem3", 2)
@example("theorem3", 3)
def test_profile_row_sets_are_the_clipped_sums(name, N):
    # each row set's fsum is exactly the fsum of the per-segment closed
    # forms clipped to its sites: the past m <= 0, the sites 1..N - 1
    # (empty at N = 1, and at N = 2 or 3 past the segment from 0 a
    # single site or none) and all sites
    params, _ = preset(name)
    for b in params.blocks:
        prof = BlockProfile(params, b, N)
        assert prof.sum_pow(2, prof.past) == clipped_sum(prof, 2, hi=0)
        for shift in (0.0, 0.375, float(prof.v[-1])):
            assert prof.sum_pow(2, prof.future, shift) == \
                clipped_sum(prof, 2, 1, N - 1, shift)
        assert prof.sum_pow(2) == clipped_sum(prof, 2)
        assert prof.sum_pow(4) == clipped_sum(prof, 4)


def scalar_pow2(j):
    return 0.0 if j < -1074 else math.ldexp(1.0, j)


def scalar_pair_dot_over_n(e, ka, kb):
    k, kp = min(ka, kb), max(ka, kb)
    inv_n = scalar_pow2(-e)
    if kp <= e:
        return (1.0
                + 0.5 * (scalar_pow2(k - e) - scalar_pow2(kp - e))
                - (scalar_pow2(2 * k - kp - e) - scalar_pow2(-kp - e)) / 3.0)
    xp = scalar_pow2(e - kp)
    if k <= e:
        return xp * (0.5 * (1.0 - inv_n)
                     + 0.5 * (scalar_pow2(k - e) + inv_n)
                     - 0.5 * (scalar_pow2(2 * k - 2 * e)
                              - scalar_pow2(k - 2 * e))
                     + (2.0 * scalar_pow2(2 * k - 2 * e)
                        - 3.0 * scalar_pow2(k - 2 * e)
                        + scalar_pow2(-2 * e)) / 6.0)
    x = scalar_pow2(e - k)
    one = 1.0 - inv_n
    if k == kp:
        ramps = 2.0 * one * (2.0 - inv_n) / 6.0
    else:
        ramps = 0.5 * one + one * (2.0 - inv_n) / 6.0
    return xp * (1.0 - x * one) + x * xp * ramps


def scalar_block_var_over_n(params, block, e):
    """``engine.block_var_over_n`` as scalar double loops of += chains."""
    w, K = params.weights, engine.K_GUARD
    lo, hi = block.k_lo, block.k_hi
    big_lo = max(lo, e + 1)
    big_hi = min(hi, big_lo + K)
    small_hi = min(hi, e)
    n_small = small_hi - lo + 1
    total = 0.0
    if 0 < n_small <= 2 * K:
        for ka in range(lo, small_hi + 1):
            for kb in range(lo, small_hi + 1):
                total += (w.ratio(ka) * w.ratio(kb)
                          * scalar_pair_dot_over_n(e, ka, kb))
    elif n_small > 0:
        mass = w.mass(lo, small_hi)
        corr = 0.0
        for kp in range(max(lo, small_hi - K + 1), small_hi + 1):
            rp = w.ratio(kp)
            pm = w.mass(lo, kp - 1)
            pmn = pmn2_over_np = 0.0
            for k in range(max(lo, kp - K), kp):
                r = w.ratio(k)
                pmn += r * scalar_pow2(k - e)
                pmn2_over_np += r * (scalar_pow2(2 * k - kp - e)
                                     - scalar_pow2(-kp - e))
            corr += 2.0 * rp * (0.5 * (pmn - pm * scalar_pow2(kp - e))
                                - pmn2_over_np / 3.0)
            corr -= (rp * rp * (scalar_pow2(kp - e) - scalar_pow2(-kp - e))
                     / 3.0)
        total += mass * mass + corr
    if big_lo <= big_hi:
        bigs = range(big_lo, big_hi + 1)
        for ka in bigs:
            for kb in bigs:
                total += (w.ratio(ka) * w.ratio(kb)
                          * scalar_pair_dot_over_n(e, ka, kb))
        if n_small > 0:
            win_lo = max(lo, small_hi - K + 1)
            mass_rest = w.mass(lo, win_lo - 1)
            for kb in bigs:
                acc = 0.0
                for ka in range(win_lo, small_hi + 1):
                    acc += w.ratio(ka) * scalar_pair_dot_over_n(e, ka, kb)
                if mass_rest:
                    acc += mass_rest * scalar_pair_dot_over_n(e, 0, kb)
                total += 2.0 * w.ratio(kb) * acc
    return total


@pytest.mark.parametrize("name", ["theorem1", "theorem2", "theorem3"])
def test_block_variance_grids_equal_the_scalar_loops(name):
    params, _ = preset(name)
    beyond = [b.horizon_log2 for b in params.blocks
              if b.horizon_log2 > engine.DESK_N_CAP.bit_length() - 1]
    for e in [4, 11, 17, 40, 100, 1000, 10_000] + beyond:
        for b in params.blocks:
            got = engine.block_var_over_n(params, b, e)
            assert type(got) is float
            assert repr(got) == repr(scalar_block_var_over_n(params, b, e))


# -- the series tail against its piece-by-piece loop -----------------------

def scalar_tail_blocks(params, p, q):
    """(ns, gs, above, pieces) per kept block, with every lag piece
    (lo, hi, lin, win, top) cut one by one."""
    k_top = q.bit_length() + engine.K_GUARD
    out = []
    for b in params.blocks:
        if b.k_lo > k_top:
            continue
        ks = np.arange(b.k_lo, min(b.k_hi, k_top) + 1)
        ns = [1 << int(k) for k in ks]
        gs = np.ldexp(params.weights.ratio(ks), -ks).tolist()
        above = [0.0] * (len(gs) + 1)
        for i in range(len(gs) - 1, -1, -1):
            above[i] = above[i + 1] + gs[i]
        cuts = {0}
        for n in ns:
            cuts.update((n - q, n - p + 1, n))
        cuts = sorted(c for c in cuts if 0 <= c < ns[-1])
        pieces = []
        for lo, end in zip(cuts, cuts[1:] + [ns[-1]]):
            pieces.append((lo, end - 1, bisect_right(ns, lo),
                           bisect_right(ns, lo + p - 1),
                           bisect_right(ns, lo + q)))
        out.append((ns, gs, above, pieces))
    return out


def long_double_f(p, q):
    """F over p..q in long double, from sequential partial sums, and Z3;
    in place, three arrays at a time."""
    r = np.arange(p, q + 1, dtype=np.longdouble)
    f = np.sqrt(r)
    down = f * r
    np.reciprocal(f, out=f)
    np.reciprocal(down, out=down)
    np.cumsum(f, out=f)
    np.cumsum(down[::-1], out=down[::-1])
    z_three = down[0]
    down[1:] *= r[:-1]
    f[:-1] += down[1:]
    return f, z_three


def scalar_tail_norm_sq(params, p, q):
    """``SeriesTail.norm_sq`` as a loop over the pieces in long double: the
    exact power sums of each affine piece, and a dense array per piece
    holding a window."""
    ld = np.longdouble
    f, z_three = long_double_f(p, q)
    z_half = f[-1]
    parts = []
    for ns, gs, _, pieces in scalar_tail_blocks(params, p, q):
        gs = [ld(g) for g in gs]
        for lo, hi, lin, win, top in pieces:
            mid = (lo + hi) // 2
            v = z_half * sum(gs[top:], ld(0))
            slope = ld(0)
            for i in range(lin, win):
                v += z_three * gs[i] * ld(ns[i] - mid)
                slope -= z_three * gs[i]
            if win == top:
                s0, s1, s2 = map(ld, power_sums(lo - mid, hi - mid, 2))
                parts.append(v * v * s0 + 2 * v * slope * s1
                             + slope * slope * s2)
                continue
            vals = v + slope * np.arange(lo - mid, hi - mid + 1, dtype=ld)
            for i in range(win, top):
                vals += gs[i] * f[ns[i] - hi - p:ns[i] - lo - p + 1][::-1]
            parts.append(np.sum(vals * vals))
    return np.sum(np.array(parts, dtype=ld))


def rule_points(lo, hi, n):
    """Quadrature nodes plus direct lags of a windowed piece whose least
    window scale is n: the lags that read F at r = n - j below _DIRECT,
    and all of a piece whose other lags are no more, are direct; the rest
    take _GL_ORDER nodes per panel over which r at most doubles."""
    e = min(hi, n - lattice.DIRECT)
    if e - lo + 1 <= lattice.DIRECT:
        return hi - lo + 1
    return hi - e + lattice.GL_ORDER * math.ceil(math.log2((n - lo)
                                                           / (n - e)))


def tail_work(params, p, q):
    """``SeriesTail.work`` from the pieces cut one by one: each head piece
    and three per scale past the head, plus the points of each windowed
    head piece and, if a scale is past a head, of the window [p, q]."""
    work, shared = 0, False
    for ns, _, _, pieces in scalar_tail_blocks(params, p, q):
        below = sum(n < q for n in ns)
        h = min(below + 1, len(ns)) if below else 0
        head = [piece for piece in pieces if h and piece[1] < ns[h - 1]]
        work += len(head) + 3 * (len(ns) - h) + sum(
            rule_points(lo, hi, ns[win])
            for lo, hi, _, win, top in head if win < top)
        shared |= h < len(ns)
    return work + (1 + rule_points(0, q - p, q) if shared else 0)


@pytest.mark.parametrize("name", ["conditions", "theorem1", "theorem2",
                                  "theorem3"])
def test_tail_work_closed_form_is_the_piece_sum(name):
    params, _ = preset(name)
    for e in range(4, 41):
        p = 1 << e
        assert SeriesTail(params, [p], [2 * p]).work[0] == tail_work(
            params, p, 2 * p)
    for p, gap in ((1, 0), (3, 1), (5, 5000), (700, 3), (1 << 20, 1 << 30)):
        assert SeriesTail(params, [p], [p + gap]).work[0] == tail_work(
            params, p, p + gap)


@pytest.mark.parametrize("name", ["theorem1", "theorem2", "theorem3"])
def test_work_gate_keeps_the_preset_rows(name):
    # each row costs O(scales): the budget admits every dyadic row
    # through 2^40 on every preset, 2^10 times over
    params, _ = preset(name)
    assert max(SeriesTail(params, [1 << e], [2 << e]).work[0]
               for e in range(4, 41)) <= BUDGETS["series_tail"].limit >> 10
    if name == "theorem3":
        rows = ExactMoments(params).table_rows(dyadic_grid(4, 40))
        tails = [row["tail_2prime"] for row in rows]
        assert len(tails) == 37
        assert all(math.isfinite(t) and t > 0.0 for t in tails)


@pytest.mark.parametrize("name", ["theorem1", "theorem2", "theorem3"])
def test_tail_norm_equals_the_piece_loop(name):
    params, _ = preset(name)
    for e in range(4, 17):
        p = 1 << e
        got = SeriesTail(params, [p], [2 * p]).norm_sq()[0]
        want = scalar_tail_norm_sq(params, p, 2 * p)
        assert abs(got - want) <= 1e-14 * want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["conditions", "theorem1", "theorem2", "theorem3",
                        "tiny"]),
       st.integers(1, 3000), st.integers(0, 3000))
@example("theorem1", 3, 1)        # windows of two lags
@example("theorem3", 4, 0)        # p == q
@example("tiny", 1, 0)            # p == q == 1, no linear runs
@example("theorem2", 1000, 999)   # q = 2p - 1
@example("theorem3", 300, 2700)   # multi-window pieces on panels
def test_tail_norm_matches_the_piece_loop_off_the_grid(name, p, gap):
    params = tiny_params(kmax=5, ends=(2, 5)) if name == "tiny" else \
        preset(name)[0]
    want = scalar_tail_norm_sq(params, p, p + gap)
    assert abs(SeriesTail(params, [p], [p + gap]).norm_sq()[0] - want) <= \
        1e-14 * want


# -- the Hurwitz zeta and the lattice sums against their oracles -----------

ZETA_ARGS = sorted({1.0, 1.5, 2.0, 3.7, 15.5, 16.0, 16.25, 17.0, 63.5,
                    100.75, 2.0 ** 20 + 1 / 3, 2.0 ** 52 + 1, 2.0 ** 53,
                    *np.exp2(np.random.default_rng(7).uniform(0, 53, 40))})


@pytest.mark.parametrize("s", [k + 0.5 for k in range(8)])
def test_hurwitz_zeta_matches_mpmath(s):
    got = hurwitz_zeta(s, ZETA_ARGS)
    with mpmath.workdps(40):
        want = [mpmath.zeta(s, a) for a in ZETA_ARGS]
    assert max(abs(float(g / w - 1)) for g, w in zip(got, want)) <= 1e-15


def test_zeta_diff_matches_mpmath():
    # differences far below either value, at small and huge arguments
    pairs = [(1, 2), (4, 5), (3, 1000), (15, 17), (16, 16), (64, 64.5),
             (2 ** 40, 2 ** 40 + 1), (2 ** 40 + 0.5, 2 ** 41),
             (2 ** 52, 2 ** 52 + 3), (1000.25, 1001.75)]
    a, b = np.array(pairs).T
    for s in (0.5, 1.5):
        got = zeta_diff(s, a, b)
        with mpmath.workdps(60):
            want = [mpmath.zeta(s, x) - mpmath.zeta(s, y) for x, y in pairs]
        for g, w in zip(got, want):
            assert g == w == 0 or abs(float(g / w - 1)) <= 1e-15


def test_batched_zeta_equals_each_value_alone():
    # Every argument keeps all eight Euler-Maclaurin terms, so an element
    # of a batch has the bits it has alone.  The two large pairs would
    # move in the last place if a batch chose its terms by its least
    # argument, 16 here.
    for s, x, y in ((0.5, 301702.0, 301704.0), (1.5, 143711.0, 143712.0)):
        a, b = np.array([16.0, x, 3.5]), np.array([17.0, y, 20.5])
        for i, got in enumerate(zeta_diff(s, a, b).tolist()):
            assert got.hex() == float(zeta_diff(s, a[i], b[i])).hex()
        args = np.append(a, b)
        for i, got in enumerate(hurwitz_zeta(s, args).tolist()):
            assert got.hex() == float(hurwitz_zeta(s, args[i])).hex()


def window_sums(p, q):
    """(sum F, sum F^2) over p..q, the lattice sums of the window [p, q]
    that ``SeriesTail`` shares between whole windows."""
    lo, hi, n = np.array([0]), np.array([q - p]), np.array([q])
    terms, _, _ = lattice.lattice_terms(
        p, q, (lo, hi, n, *lattice.lattice_rule(lo, hi, n)), np.array([1]),
        np.array([1.0]), n.astype(float))
    return lattice.lattice_sums(terms, *np.zeros((3, 1)))[:, 0]


@pytest.mark.parametrize("p, q", [(1, 5000), (64, 128), (300, 100_000),
                                  *[(1 << e, 2 << e)
                                    for e in range(6, 23, 4)]])
def test_window_sums_match_long_double_arrays(p, q):
    f, _ = long_double_f(p, q)
    want = np.sum(f), np.sum(f * f)
    del f
    for g, w in zip(window_sums(p, q), want):
        assert abs(float(g / w - 1)) <= 1e-15


@pytest.mark.parametrize("e", [30, 40, 52])
def test_window_sums_match_mpmath_sumem(e):
    # mpmath's own Euler-Maclaurin on its extension of F, its integrals by
    # mpmath's Gauss-Legendre; the two sums share their evaluations
    p, q = 1 << e, 2 << e

    @functools.lru_cache(maxsize=None)
    def f_at(x, prec):
        return mpmath.zeta(0.5, p) - mpmath.zeta(0.5, x + 1) + x * (
            mpmath.zeta(1.5, x + 1) - mpmath.zeta(1.5, q + 1))

    def f(x):
        return f_at(x, mpmath.mp.prec)

    def f2(x):
        return f(x) ** 2

    with mpmath.workdps(20):
        want = [mpmath.sumem(g, [p, q], integral=mpmath.quad(
            g, [p, q], method="gauss-legendre", maxdegree=4))
            for g in (f, f2)]
    for g, w in zip(window_sums(p, q), want):
        assert abs(float(g / w - 1)) <= 1e-15


def panels(lo, e, n, count):
    """The Gauss-Legendre panels of lags lo..e, r = n - j doubling from
    n - e on, as ``_lattice_rule`` counts them."""
    edges = [e] + [n - ((n - e) << t) for t in range(1, count)] + [lo]
    return list(zip(edges[1:], edges[:-1]))


def test_em_remainder_is_below_1e16():
    # |R| <= 2 zeta(6) / (2 pi)^6 * the integral of |phi^(6)| bounds the
    # Euler-Maclaurin remainder after the fifth derivative; on every
    # theorem3 row it stays below 1e-16 of each piece's own sum
    bound = 2 * (math.pi ** 6 / 945) / (2 * math.pi) ** 6
    x_gl, w_gl = lattice.gauss_legendre()
    signs = (-1.0) ** np.arange(7)[:, None]

    def f_derivs(x, p, q):
        return np.vstack([lattice.tail_f(x, p, q), lattice.tail_df(x, q, 6)])

    def sixth(u):
        return sum(math.comb(6, m) * u[m] * u[6 - m] for m in range(7))

    params, _ = preset("theorem3")
    worst = 0.0
    for e in range(4, 41):
        p, q = 1 << e, 2 << e
        tail = SeriesTail(params, [p], [q])
        z_half, z_three = (float(zeta_diff(s, p, q + 1.0))
                           for s in (0.5, 1.5))
        gs = np.ldexp(params.weights.ratio(tail.ks), -tail.ks)
        gs[tail.pads] = 0.0
        ns = np.ldexp(1.0, tail.ks)
        # (lags lo..e, least window scale, panel count, u and its
        # derivatives in j at lags j) per Euler-Maclaurin piece, and
        # whether it is the shared window, whose sum of F is used too
        pieces = []
        held = tail.head[:, tail.head[3] < tail.head[4]].T
        for (lo, _, lin, win, top), *rule in zip(held, *tail.lattice[2:]):
            def u(j, lin=lin, win=win, top=top):
                out = np.zeros((7, j.size))
                pad = tail.pads[np.searchsorted(tail.pads, top)]
                out[0] += z_half * gs[top:pad].sum()
                for i in range(lin, win):
                    out[0] += z_three * gs[i] * (ns[i] - j)
                    out[1] -= z_three * gs[i]
                for i in range(win, top):
                    out += gs[i] * signs * f_derivs(ns[i] - j, p, q)
                return out
            pieces.append((lo, *rule, u, False))
        if tail.shared:
            pieces.append((0, *(c[-1] for c in tail.lattice[2:]),
                           lambda j: signs * f_derivs(q - j, p, q), True))
        for lo, n, e_em, count, u, shared in pieces:
            if not count:
                continue
            a, b = np.array(panels(lo, e_em, n, count), dtype=float).T
            half = 0.5 * (b - a)
            j = ((a + half)[:, None] + half[:, None] * x_gl).ravel()
            w = (half[:, None] * w_gl).ravel()
            d = u(j)
            worst = max(worst, bound * w @ abs(sixth(d)) / (w @ d[0] ** 2))
            if shared:
                worst = max(worst, bound * w @ abs(d[6]) / (w @ d[0]))
    assert 0.0 < worst <= 1e-16


# -- the per-block prefix table --------------------------------------------

@pytest.mark.parametrize("name", ["theorem1", "theorem3"])
def test_profiles_share_one_prefix_table(name):
    # one ExactMoments extends each block's table as horizons deepen and
    # reads the kept rows when they shallow again; the exact-rational
    # check, costly here, runs before the first extension and after the
    # deepest one
    params, _ = preset(name)
    em = ExactMoments(params)
    for e in (4, 17, 40, 33, 9, 5):
        for N in ((1 << e) - 1, 1 << e, (1 << e) + 1):
            for b, prof in zip(params.blocks, em.profiles(N)):
                fresh = BlockProfile(params, b, N)
                assert repr(prof.segments) == repr(fresh.segments)
                assert repr(prof._table.tolist()) == \
                    repr(fresh._table.tolist())
                if e in (4, 5):
                    assert_profile_exact(params, b, N, prof)


def test_profiles_read_each_weight_once(monkeypatch):
    params, (lo, hi) = preset("theorem3")
    w = params.weights
    reads = Counter()
    ratio = w.ratio

    def counting(k):
        reads.update(np.atleast_1d(k).tolist())
        return ratio(k)

    monkeypatch.setattr(w, "ratio", counting)
    em = ExactMoments(params)
    for e in range(lo, hi + 1):
        em.profiles(1 << e)
    kept = [k for b in params.blocks
            for k in range(b.k_lo, min(b.k_hi, hi + engine.K_GUARD) + 1)]
    assert sorted(reads.elements()) == kept


# -- what a grid keeps alive -----------------------------------------------

def reachable_profiles(root):
    """Every BlockProfile reachable from ``root`` through containers."""
    seen, found, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, BlockProfile):
            found.append(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.items())
        elif isinstance(obj, (list, tuple, set)):
            todo.extend(obj)
    return found


def held_by_table(params, grid):
    """(engine, bytes still traced) after one ``table_rows``, rows
    included."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        em = ExactMoments(params)
        rows = em.table_rows(grid)
        assert len(rows) == len(grid)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return em, held


def test_table_rows_hold_one_horizons_profiles():
    # each row's profiles fill its memoized scalars and go when the next
    # row asks for its own, so what the engine keeps does not grow with
    # the grid (2.75 MB when every row's profiles stayed cached)
    grid = dyadic_grid(4, 40)
    em, held = held_by_table(preset("theorem3")[0], grid)
    assert held < 0.25e6
    # the last row's profiles stay, and asking for them again reuses them
    kept = sorted(map(id, reachable_profiles(em._cache)))
    assert kept == sorted(map(id, em.profiles(grid[-1])))
    _, short = held_by_table(preset("theorem3")[0], dyadic_grid(4, 20))
    assert abs(held - short) < 0.1e6


def test_table_rows_peak_below_one_megabyte():
    # the tails' lattice sums run over a few rows of bounded work at a
    # time, so the peak does not grow with the grid's summed work
    params = preset("theorem3")[0]
    grid = dyadic_grid(4, 40)
    gc.collect()
    tracemalloc.start()
    try:
        ExactMoments(params).table_rows(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_streamed_rows_equal_one_horizon_at_a_time():
    params, (lo, hi) = preset("theorem3")
    em = ExactMoments(params)
    grid = dyadic_grid(lo, hi)
    em.table_rows(grid)
    for n in grid:
        fresh = ExactMoments(params)
        assert em.cond_norm_sq(n).hex() == fresh.cond_norm_sq(n).hex()
        assert em.sigma_sq(n).hex() == fresh.sigma_sq(n).hex()
        assert em.iid_approx_ratio(n).hex() == \
            fresh.iid_approx_ratio(n).hex()

