import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, kstat, ks_2samp

import cltlab.simulate as simulate
from cltlab.blocks import BlockParity, default_params
from cltlab.engine import ExactMoments
from cltlab.errors import ParamsError, WorkBudgetError
from cltlab.simulate import (SITE_DRAW_BUDGET, SampleKind, _binom_quantile,
                             _build_plan, _distinct_offsets, _draw_ramp,
                             _lane_uniforms, _stream, build_profile,
                             derive_seed, dichotomy_samples, sample_batch)


def desk_params():
    return default_params(kmax=14, rho=4.0)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(745, 3) == derive_seed(745, 3)
    seen = {derive_seed(s, salt) for s in range(4) for salt in range(32)}
    assert len(seen) == 128


def test_worker_count_never_changes_bytes():
    params = desk_params()
    for N, count in ((1 << 8, 10_000), (1 << 12, 20_000)):
        base = sample_batch(params, N, count, 745, workers=1)
        for workers in (2, 8):
            again = sample_batch(params, N, count, 745, workers=workers)
            assert np.array_equal(base.values, again.values)
    # count straddling a chunk boundary, still identical
    odd = sample_batch(params, 1 << 8, 4097, 9, workers=3)
    one = sample_batch(params, 1 << 8, 4097, 9, workers=1)
    assert np.array_equal(odd.values, one.values)
    assert odd.count == odd.values.size == 4097


def test_worker_count_never_changes_bytes_with_hitless_chunks():
    params = desk_params()
    N, count, chunk, seed = 1 << 12, 3000, 64, 5
    # some ramp segment has chunks with hits and chunks without
    plan = _build_plan(build_profile(params, N), False)
    ramps = [draw.keywords for draw in plan if draw.func is _draw_ramp]
    per_chunk = [[int(binom.ppf(_lane_uniforms(seed, op["lane"], ci, chunk),
                                op["seg"].hi - op["seg"].lo + 1,
                                op["hit_prob"]).sum())
                  for ci in range(count // chunk)]
                 for op in ramps]
    assert any(0 in hits and max(hits) > 1 for hits in per_chunk)
    base = sample_batch(params, N, count, seed, chunk=chunk)
    for workers in (2, 8):
        again = sample_batch(params, N, count, seed, chunk=chunk,
                             workers=workers)
        assert np.array_equal(base.values, again.values)


def test_thread_count_capped_at_cores_and_chunks(monkeypatch):
    opened = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
    params = desk_params()
    # 1000 draws: ten chunks of 100, or three of 400
    for cores, chunk, want in ((2, 100, [2]), (16, 400, [3]),
                               (1, 100, []), (None, 100, [])):
        base = sample_batch(params, 1 << 8, 1000, 745, chunk=chunk)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
        opened.clear()
        batch = sample_batch(params, 1 << 8, 1000, 745, chunk=chunk,
                             workers=8)
        assert opened == want
        assert np.array_equal(batch.values, base.values)


# boost cannot bracket q = 1 - 2^-53 at some tiny p; both sides warn alike
@pytest.mark.filterwarnings("ignore:Error in function boost")
def test_binom_quantile_matches_scipy_stats():
    # lane uniforms plus both endpoints: the offset lane uniforms can
    # round up to exactly 1.0, and the wrapper maps q == 0 to -1
    u = np.concatenate([_lane_uniforms(7, 3, 0, 100),
                        [0.0, 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53, 1.0]])
    for length in (1, 5, 1000, (1 << 20) + 3, (1 << 40) - 1):
        for j in range(1, 45):
            got = _binom_quantile(u, length, 2.0 ** -j)
            want = binom.ppf(u, length, 2.0 ** -j)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    # the signs' trial counts, zeros too; never -1, as lane uniforms
    # stay >= 2^-54
    hits = np.maximum(binom.ppf(u, 7, 0.25), 0.0)
    assert (hits == 0).any()
    np.testing.assert_array_equal(_binom_quantile(u, hits, 0.5),
                                  binom.ppf(u, hits, 0.5))


# ---------------------------------------------------------------------------
# Distinct ramp offsets

@given(st.integers(1, 12), st.lists(st.integers(0, 12), max_size=8),
       st.integers(0, (1 << 64) - 1))
@example(5, [5, 0, 5], 1)              # every offset hit
@example(7, [4, 6, 1, 7], 2)           # more than half hit
@example(1000, [999, 0, 998, 3], 3)    # near-full long segments
def test_distinct_offsets_are_distinct_and_deterministic(length, raw, key):
    hits = np.minimum(np.array(raw, dtype=np.int64), length)
    owner, offs = _distinct_offsets(_stream(key, 1), length, hits)
    assert np.array_equal(np.bincount(owner, minlength=hits.size), hits)
    for i, h in enumerate(hits):
        mine = offs[owner == i]
        assert np.unique(mine).size == h
        assert np.all((0 <= mine) & (mine < length))
    owner2, offs2 = _distinct_offsets(_stream(key, 1), length, hits)
    assert np.array_equal(owner, owner2) and np.array_equal(offs, offs2)


def test_distinct_offsets_are_uniform_subsets():
    # length 5: h = 2 takes the redraw path, h = 3 the complement path;
    # interleaved owners share one stream
    length, reps = 5, 10_000
    hits = np.tile(np.array([2, 3], dtype=np.int64), reps)
    owner, offs = _distinct_offsets(_stream(745, 1), length, hits)
    order = np.lexsort((offs, owner))
    owner, offs = owner[order], offs[order]
    for h in (2, 3):
        subsets = list(itertools.combinations(range(length), h))
        index = {s: j for j, s in enumerate(subsets)}
        counts = np.zeros(len(subsets))
        for i in np.flatnonzero(hits == h):
            lo, hi = np.searchsorted(owner, [i, i + 1])
            counts[index[tuple(offs[lo:hi])]] += 1
        assert len(subsets) == 10
        assert chisquare(counts).pvalue > 1e-3


def test_full_sum_variance_matches_engine():
    params = desk_params()
    em = ExactMoments(params)
    N, n = 1 << 8, 40_000
    batch = sample_batch(params, N, n, 745, moments=em)
    sig2 = em.sigma_sq(N)
    k4 = em.fourth_cumulant(N)
    band = 4.0 * math.sqrt((k4 + 2.0 * sig2 ** 2) / n)
    assert abs(batch.variance() - sig2) < band
    assert abs(batch.mean()) < 4.0 * math.sqrt(sig2 / n)


def test_normalized_iid_sum_has_unit_variance():
    params = desk_params()
    batch = sample_batch(params, 1 << 8, 40_000, 7,
                         kind=SampleKind.APPROX_IID_SUM, normalized=True)
    # flat-copy sum: normalized variance is exactly 1, so only the
    # estimator noise is in play
    assert abs(batch.variance() - 1.0) < 0.05
    assert abs(batch.mean()) < 0.05


def test_site_mode_agrees_with_aggregate_in_law():
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    N, n = 1 << 6, 10_000
    agg = sample_batch(params, N, n, 3, moments=em)
    site = sample_batch(params, N, n, 3, mode="site", moments=em)
    assert not np.array_equal(agg.values, site.values)
    sig2 = em.sigma_sq(N)
    k4 = em.fourth_cumulant(N)
    band = 4.0 * math.sqrt((k4 + 2.0 * sig2 ** 2) / n)
    for batch in (agg, site):
        assert abs(batch.variance() - sig2) < band


def test_site_mode_budget_and_validation():
    params = desk_params()
    with pytest.raises(WorkBudgetError):
        sample_batch(params, 1 << 8, 1 << 14, 1, mode="site")
    with pytest.raises(ParamsError):
        sample_batch(params, 1 << 8, 10, 1, mode="bogus")
    with pytest.raises(ParamsError):
        sample_batch(params, 1 << 8, 0, 1)


def test_astronomic_horizon_sampling():
    params = default_params(kmax=40_000_000, rho=4.0)
    N = params.blocks[1].horizon           # far beyond float range
    assert N.bit_length() - 1 == 37_605_530
    batch = sample_batch(params, N, 500, 5, normalized=True)
    assert batch.values.size == 500
    assert np.all(np.isfinite(batch.values))
    assert batch.horizon_log2 == 37_605_530
    text = batch.to_csv()
    assert "# horizon_log2 = 37605530" in text
    assert "# horizon =" not in text
    assert "horizon" not in batch.summary() or \
        "horizon_log2" in batch.summary()
    with pytest.raises(ParamsError):
        sample_batch(params, N, 10, 5, mode="site")


def test_csv_round_and_header():
    params = desk_params()
    batch = sample_batch(params, 1 << 6, 5, 42, normalized=True)
    text = batch.to_csv(params)
    lines = text.strip().split("\n")
    assert "# seed = 42" in lines
    assert "# horizon = 64" in lines
    assert "# normalized = true" in lines
    assert any(ln.startswith("# params = ") for ln in lines)
    assert lines[-6] == "sample_index,value"
    # 1 column line + 5 data rows after the comment header
    assert len([ln for ln in lines if not ln.startswith("#")]) == 6


def test_dichotomy_samples_stability():
    params = default_params(kmax=20, rho=4.0)
    odd = params.blocks[0].horizon
    assert params.blocks[0].complete
    one = dichotomy_samples(params, [odd], 2_000, 745)
    with_more = dichotomy_samples(params, [odd], 2_000, 745, workers=4)
    assert np.array_equal(one[odd].values, with_more[odd].values)
    with pytest.raises(ParamsError):
        dichotomy_samples(params, [odd * 2], 100, 745)


# ---------------------------------------------------------------------------
# Law-level oracles for the aggregate sampler's ramp path

def _spike_cumulants(p):
    """kappa_2..kappa_8 of a site that is +-1 w.p. p/2 each, else 0."""
    return {2: p, 4: p - 3 * p ** 2, 6: p - 15 * p ** 2 + 30 * p ** 3,
            8: p - 63 * p ** 2 + 420 * p ** 3 - 630 * p ** 4}


def _exact_cumulants(profile):
    """Even cumulants of the horizon sum from the dense coefficients."""
    out = dict.fromkeys((2, 4, 6, 8), 0.0)
    for lay in profile.layers:
        _, g = profile.dense_g(lay.block.index)
        if lay.block.parity is BlockParity.GAUSSIAN:
            out[2] += float(np.sum(g * g))
            continue
        kap = _spike_cumulants(lay.hit_prob)
        for r in out:
            out[r] += kap[r] * math.fsum(g ** r)
    return out


def _k4_statistic_sd(k, n):
    """Standard deviation of the unbiased k-statistic k_4 of n draws
    from a symmetric law with cumulants k (odd cumulants zero)."""
    k2, k4, k6, k8 = k[2], k[4], k[6], k[8]
    var = (k8 / n + 16 * k2 * k6 / (n - 1) + 34 * k4 ** 2 / (n - 1)
           + 72 * n * k2 ** 2 * k4 / ((n - 1) * (n - 2))
           + 24 * n * (n + 1) * k2 ** 4 / ((n - 1) * (n - 2) * (n - 3)))
    return math.sqrt(var)


@pytest.mark.parametrize("e", [6, 8])
def test_full_sum_fourth_cumulant_matches_engine(e):
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    N, n = 1 << e, 100_000
    k = _exact_cumulants(build_profile(params, N, moments=em))
    want = em.fourth_cumulant(N)
    assert k[4] == pytest.approx(want, rel=1e-12)
    batch = sample_batch(params, N, n, 745, moments=em)
    assert abs(kstat(batch.values, 4) - want) < 5.0 * _k4_statistic_sd(k, n)


@pytest.mark.parametrize("e", [4, 6])
def test_aggregate_and_site_modes_agree_two_sample_ks(e):
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    N, n = 1 << e, 10_000
    profile = build_profile(params, N, moments=em)
    coords = sum(lay.segments[-1].hi - lay.segments[0].lo + 1
                 for lay in profile.layers)
    assert n * coords <= SITE_DRAW_BUDGET
    agg = sample_batch(params, N, n, 745, profile=profile)
    site = sample_batch(params, N, n, 745, mode="site", profile=profile)
    # the modes key their streams differently, so the samples are
    # independent; alpha = 1e-3 asymptotic two-sample critical value
    crit = math.sqrt(-0.5 * math.log(0.5e-3)) * math.sqrt(2.0 / n)
    assert ks_2samp(agg.values, site.values).statistic < crit
