import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, kstat, ks_2samp

import cltlab.simulate as simulate
from cltlab.blocks import (BlockParity, SequenceParams, default_params,
                           split_blocks)
from cltlab.engine import DESK_N_CAP, ExactMoments, dyadic_grid
from cltlab.errors import (BATCH_BUDGET, MemoryBudgetError, ParamsError,
                           WorkBudgetError)
from cltlab.laws import (dichotomy_report, empirical_law, exact_law,
                         ks_distance, ks_pass_bound)
from cltlab.reference import (SITE_DRAW_BUDGET, dense_coefficients,
                              site_sample_batch)
from cltlab.simulate import (GAUSSIANIZE_HITS, SampleKind,
                             _build_plan, _distinct_offsets, _draw_flat,
                             _draw_normal, _draw_poisson, _draw_pool,
                             _lane_key, _rekey, _stream,
                             derive_seed, dichotomy_samples, sample_batch)
from cltlab.weights import WeightMode, build_weights
from conftest import power_sums


def desk_params():
    return default_params(kmax=14, rho=4.0)


def plan_of(params, e, kind=SampleKind.FULL_SN, normalized=False,
            moments=None):
    return _build_plan(params, e, kind, normalized,
                       moments or ExactMoments(params))


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(745, 3) == derive_seed(745, 3)
    seen = {derive_seed(s, salt) for s in range(4) for salt in range(32)}
    assert len(seen) == 128


def full_chunks(batch, chunks):
    return batch.values[:chunks * simulate.CHUNK].tobytes()


def test_smaller_batch_is_a_prefix_of_a_larger_one():
    params = desk_params()
    for e, small, large in ((8, 10_000, 20_000), (12, 20_000, 30_000)):
        base = sample_batch(params, e, small, 745)
        assert base.values.tobytes() == sample_batch(
            params, e, small, 745).values.tobytes()
        more = sample_batch(params, e, large, 745)
        chunks = small // simulate.CHUNK
        assert full_chunks(base, chunks) == full_chunks(more, chunks)
    # count straddling a chunk boundary: its one full chunk is kept
    odd = sample_batch(params, 8, 4097, 9)
    one = sample_batch(params, 8, simulate.CHUNK, 9)
    assert odd.values[:simulate.CHUNK].tobytes() == one.values.tobytes()
    assert odd.count == odd.values.size == 4097


def test_smaller_batch_is_a_prefix_over_many_chunks():
    # three full chunks and a short one, each written into its slice
    params = desk_params()
    count = 3 * simulate.CHUNK + 5
    for e in (8, 12):
        base = sample_batch(params, e, count, 31)
        assert base.values.size == count and np.all(base.values[-5:] != 0.0)
        for more in (4 * simulate.CHUNK, 5 * simulate.CHUNK + 1):
            again = sample_batch(params, e, more, 31)
            assert full_chunks(again, 3) == full_chunks(base, 3)


def test_smaller_batch_is_a_prefix_with_hitless_chunks(monkeypatch):
    params = desk_params()
    e, count, chunk, seed = 12, 3000, 1, 5
    monkeypatch.setattr(simulate, "CHUNK", chunk)
    # some pooled op has chunks with hits and chunks without
    pools = [(lane, draw.keywords)
             for lane, draw in enumerate(plan_of(params, e))
             if draw.func is _draw_pool]
    # a pool's hit counts are the first draw of its lane's stream
    per_chunk = [[int(_stream(*_lane_key(seed, lane, ci)).binomial(
                      op["starts"][-1], op["hit_prob"], chunk).sum())
                  for ci in range(count // chunk)]
                 for lane, op in pools]
    assert any(0 in hits and max(hits) > 1 for hits in per_chunk)
    base = sample_batch(params, e, count, seed)
    for more in (count + 1, 2 * count):
        again = sample_batch(params, e, more, seed)
        assert full_chunks(again, count) == full_chunks(base, count)


@pytest.mark.parametrize("e", [8, 11, 12, 37605530])
def test_full_chunks_keep_their_bytes_in_a_larger_batch(e):
    # theorem1's parameters: two desk horizons, its spike block's
    # horizon 2^11, and its Gaussian block's, beyond the desk cap
    params = default_params(kmax=40_000_000, rho=4.0)
    small = sample_batch(params, e, 2 * simulate.CHUNK + 7, 745,
                         normalized=True)
    large = sample_batch(params, e, 5 * simulate.CHUNK + 1, 745,
                         normalized=True)
    assert full_chunks(small, 2) == full_chunks(large, 2)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_is_refused(seed):
    # masked to 64 bits, -1 would alias 2^64 - 1 and 2^64 alias 0
    params = desk_params()
    with pytest.raises(ParamsError, match="seed"):
        sample_batch(params, 8, 10, seed)
    with pytest.raises(ParamsError, match="seed"):
        dichotomy_samples(params, [params.blocks[0].horizon_log2], 10, seed)
    with pytest.raises(ParamsError, match="seed"):
        dichotomy_report(params, 10, seed)
    top = sample_batch(params, 8, 10, (1 << 64) - 1).values
    assert top.tobytes() != sample_batch(params, 8, 10, 0).values.tobytes()


REKEYED_DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(1001),
    "binomial_btpe": lambda rng: rng.binomial(1000, 0.3, 501),
    "binomial_inversion": lambda rng: rng.binomial(50, 0.1, 501),
    "poisson": lambda rng: rng.poisson(7.5, 333),
    "integers": lambda rng: rng.integers(0, 25, 777),
    "integers_sign": lambda rng: rng.integers(0, 2, 777),
}


@pytest.mark.parametrize("draw", REKEYED_DRAWS.values(),
                         ids=list(REKEYED_DRAWS))
def test_rekeyed_generator_draws_a_fresh_streams_bits(draw):
    rng = _stream(*_lane_key(745, 0, 2))
    # three 32-bit draws leave half a word and a part-used buffer behind
    rng.integers(0, 1 << 32, size=3, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    for seed, lane, chunk in ((745, 3, 2), (-1, 0, 0), (1 << 64, 7, 9)):
        _rekey(rng, *_lane_key(seed, lane, chunk))
        want = draw(_stream(*_lane_key(seed, lane, chunk)))
        assert draw(rng).tobytes() == want.tobytes()


def test_one_generator_per_batch(monkeypatch):
    built = []
    generator = np.random.Generator

    def counting(bit_generator):
        built.append(bit_generator)
        return generator(bit_generator)

    monkeypatch.setattr(np.random, "Generator", counting)
    params = desk_params()
    count = 3 * simulate.CHUNK + 5
    lanes = len(plan_of(params, 12))
    assert lanes > 1
    base = sample_batch(params, 12, count, 31)
    assert len(built) == 1
    monkeypatch.undo()
    # the lane streams, drawn one fresh Generator at a time
    want = np.zeros(count)
    for ci in range(4):
        out = want[ci * simulate.CHUNK:(ci + 1) * simulate.CHUNK]
        for lane, draw in enumerate(plan_of(params, 12)):
            out += draw(_stream(*_lane_key(31, lane, ci)), out.size)
    assert base.values.tobytes() == want.tobytes()


class _Recording:
    """A Generator that keeps every ``binomial`` draw it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.binomials = []

    def binomial(self, *args):
        out = self.rng.binomial(*args)
        self.binomials.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _chisquare_vs_binom(hits, n, p):
    """p-value of the hit counts against Binomial(n, p), with the upper
    tail pooled into its last bin and bins of under 5 expected merged
    into their lower neighbour."""
    top = int(hits.max())
    pmf = binom.pmf(np.arange(top + 1), n, p)
    pmf[-1] += binom.sf(top, n, p)
    observed = np.bincount(hits, minlength=top + 1).astype(float)
    expected = pmf * hits.size
    obs, exp = [], []
    for o, e in zip(observed, expected):
        if exp and exp[-1] < 5.0:
            obs[-1] += o
            exp[-1] += e
        else:
            obs.append(o)
            exp.append(e)
    if len(exp) > 1 and exp[-1] < 5.0:
        o, e = obs.pop(), exp.pop()
        obs[-1] += o
        exp[-1] += e
    return chisquare(obs, exp).pvalue


# (length, hit probability): one site, a short segment, a long one
HIT_CASES = [(1, 0.3), (1000, 2.0 ** -7), ((1 << 40) - 1, 2.0 ** -37)]


@pytest.mark.parametrize("length,hit_prob", HIT_CASES)
def test_flat_hit_counts_are_binomial(length, hit_prob):
    rng = _Recording(_stream(*_lane_key(745, 3, 0)))
    signed = _draw_flat(rng, 20_000, length=length, hit_prob=hit_prob,
                        coef=1.0)
    hits, pos = rng.binomials
    assert _chisquare_vs_binom(hits, length, hit_prob) > 1e-3
    # the positive ones of each count, and the signed count they give
    assert np.all((0 <= pos) & (pos <= hits))
    np.testing.assert_array_equal(signed, 2 * pos - hits)


@pytest.mark.parametrize("length,hit_prob", HIT_CASES)
def test_pool_hit_counts_are_binomial(length, hit_prob):
    # one sloped segment whose sites carry the values 1..length
    mid = (length - 1) // 2
    rng = _Recording(_stream(*_lane_key(745, 4, 0)))
    _draw_pool(rng, 20_000, starts=np.array([0, length]),
               affine=np.array([[1.0 + mid, 1.0]]), shift=np.array([-mid]),
               hit_prob=hit_prob, coef=1.0)
    hits, = rng.binomials
    assert _chisquare_vs_binom(hits, length, hit_prob) > 1e-3


# ---------------------------------------------------------------------------
# Distinct hit offsets

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


def _redrawn_by_two_key_sort(rng, length, owner):
    """The redraw loop over a lexsort of (owner, offset): the reference
    for the one-key sort in ``_distinct_offsets``."""
    offs = rng.integers(0, length, size=owner.size)
    while True:
        order = np.lexsort((offs, owner))
        a, b = order[:-1], order[1:]
        redo = np.sort(b[(owner[b] == owner[a]) & (offs[b] == offs[a])])
        if not redo.size:
            return offs
        offs[redo] = rng.integers(0, length, size=redo.size)


@pytest.mark.parametrize("length", [50, DESK_N_CAP])
def test_distinct_offsets_match_the_two_key_sort(length):
    # a full chunk; fewer than half of 50 sites hit, so nothing takes
    # the complement path, and at 50 sites many draws collide
    hits = _stream(9, 2).integers(0, 25, size=simulate.CHUNK)
    owner = np.repeat(np.arange(hits.size), hits)
    want = _redrawn_by_two_key_sort(_stream(9, 1), length, owner)
    got_owner, got = _distinct_offsets(_stream(9, 1), length, hits)
    assert np.array_equal(got_owner, owner) and np.array_equal(got, want)


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


def _variance_within_band(params, e, n, seed):
    """The batch variance at the horizon N = 2^e lies within four
    standard errors of sigma_sq; returns the batch and sigma_sq."""
    em = ExactMoments(params)
    N = 1 << e
    batch = sample_batch(params, e, n, seed, moments=em)
    sig2 = em.sigma_sq(N)
    k4 = em.fourth_cumulant(N)
    band = 4.0 * math.sqrt((k4 + 2.0 * sig2 ** 2) / n)
    assert abs(np.var(batch.values, ddof=1) - sig2) < band
    return batch, sig2


def test_full_sum_variance_matches_engine():
    n = 40_000
    batch, sig2 = _variance_within_band(desk_params(), 8, n, 745)
    assert abs(np.mean(batch.values)) < 4.0 * math.sqrt(sig2 / n)


def test_plan_pools_each_layers_sloped_segments():
    # theorem1's parameters at its first complete-block horizon
    params = default_params(kmax=40_000_000, rho=4.0)
    plan = plan_of(params, 11, normalized=True)
    kinds = [draw.func for draw in plan]
    assert len(plan) == 5
    assert kinds.count(_draw_flat) == 3
    assert kinds.count(_draw_pool) == 1
    assert kinds.count(_draw_normal) == 1


def test_heavy_flat_segment_keeps_its_signed_count():
    # block 1's central flat segment expects 2^30 hits per sample: a
    # positional draw would cost that much, the signed count O(1)
    params = default_params(kmax=48, rho=2.0)
    plan = plan_of(params, 31)
    expect = [op.keywords["length"] * op.keywords["hit_prob"]
              for op in plan if op.func is _draw_flat]
    assert max(expect) == pytest.approx(2.0 ** 30, rel=1e-6)
    _variance_within_band(params, 31, 4_000, 745)


def test_gaussianized_segments_join_their_layers_normal():
    params = default_params(kmax=48, rho=2.0)
    profs = ExactMoments(params).profiles(1 << 45)
    spikes = [p for p in profs
              if p.block.parity is BlockParity.THREE_VALUED]
    heavy = [p for p in spikes
             if any((hi - lo + 1)
                    * math.ldexp(1.0, -p.block.horizon_log2)
                    > GAUSSIANIZE_HITS for lo, hi, _ in p.segments)]
    assert heavy
    normals = sum(draw.func is _draw_normal for draw in plan_of(params, 45))
    assert normals == len(profs) - len(spikes) + len(heavy)
    _variance_within_band(params, 45, 40_000, 745)


def test_normalized_iid_sum_has_unit_variance():
    params = desk_params()
    batch = sample_batch(params, 8, 40_000, 7,
                         kind=SampleKind.APPROX_IID_SUM, normalized=True)
    # flat-copy sum: normalized variance is exactly 1, so only the
    # estimator noise is in play
    assert abs(np.var(batch.values, ddof=1) - 1.0) < 0.05
    assert abs(np.mean(batch.values)) < 0.05


def test_site_mode_agrees_with_aggregate_in_law():
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    N, n = 1 << 6, 10_000
    agg = sample_batch(params, 6, n, 3, moments=em)
    site = site_sample_batch(params, 6, n, 3, moments=em)
    assert not np.array_equal(agg.values, site.values)
    sig2 = em.sigma_sq(N)
    k4 = em.fourth_cumulant(N)
    band = 4.0 * math.sqrt((k4 + 2.0 * sig2 ** 2) / n)
    for batch in (agg, site):
        assert abs(np.var(batch.values, ddof=1) - sig2) < band


def test_site_mode_budget_and_validation():
    params = desk_params()
    with pytest.raises(WorkBudgetError):
        site_sample_batch(params, 8, 1 << 14, 1)
    with pytest.raises(ParamsError):
        sample_batch(params, 8, 0, 1)


def test_batch_budget_fails_before_planning(monkeypatch):
    # one sample past the budget raises before the plan is built or the
    # batch allocated
    def forbidden(*args):
        raise AssertionError("planned past the budget")

    monkeypatch.setattr(simulate, "_build_plan", forbidden)
    with pytest.raises(MemoryBudgetError) as err:
        sample_batch(desk_params(), 8, BATCH_BUDGET + 1, 1)
    assert err.value.details == {"estimated_bytes": 8 * (BATCH_BUDGET + 1),
                                 "budget": 8 * BATCH_BUDGET}


def test_astronomic_horizon_sampling():
    params = default_params(kmax=40_000_000, rho=4.0)
    e = params.blocks[1].horizon_log2      # 2^e is far beyond float range
    assert e == 37_605_530
    batch = sample_batch(params, e, 500, 5, normalized=True)
    assert batch.values.size == 500
    assert np.all(np.isfinite(batch.values))
    assert batch.log2_n == e
    with pytest.raises(ParamsError):
        site_sample_batch(params, e, 10, 5)


def test_flat_copy_beyond_the_cap_counts_its_hits():
    # theorem3's spike block ends at 2^3264 and expects one hit there:
    # its flat copy draws a signed Poisson count on exact_law's lattice
    params = default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
    h = params.blocks[0].horizon_log2
    for shift in (0, 3, -7):
        plan = plan_of(params, h + shift, SampleKind.APPROX_IID_SUM, True)
        assert [op.func for op in plan] == [_draw_poisson, _draw_normal]
        step = exact_law(params, h + shift).atoms[0].lattice_scale
        assert plan[0].keywords == {"lam": 2.0 ** shift, "coef": step}
    # theorem1's spike block expects 2^37605519 hits at 2^37605530 and
    # keeps its normal
    params = default_params(kmax=40_000_000, rho=4.0)
    plan = plan_of(params, params.blocks[1].horizon_log2,
                   SampleKind.APPROX_IID_SUM, True)
    assert [op.func for op in plan] == [_draw_normal] * len(params.blocks)


def test_flat_copy_beyond_the_cap_takes_the_oracles_regimes():
    # spike block 3 ends at 2^2000; at N = 2^(2000 + ll) its flat copy
    # expects 2^ll hits: none up to 2^-50, a count below 2^40, a normal
    # from there, as exact_law has it
    w = build_weights(WeightMode.CONST_ONE, 2000)
    params = SequenceParams(w, split_blocks(w, [1, 100, 2000]))
    want = {-51: [], -50: [], -49: [_draw_poisson], 39: [_draw_poisson],
            40: [_draw_normal]}
    for ll, tail in want.items():
        plan = plan_of(params, 2000 + ll, SampleKind.APPROX_IID_SUM, True)
        assert [op.func for op in plan] == [_draw_normal] * 2 + tail
    e, count = 1950, 100_000
    batch = sample_batch(params, e, count, 1, SampleKind.APPROX_IID_SUM,
                         normalized=True)
    ks = ks_distance(empirical_law(batch.values), exact_law(params, e))
    assert ks <= ks_pass_bound(count)


def test_flat_copy_at_2_40_expected_hits_is_all_normals():
    # block 1 ends at 2^11, so at 2^51 its flat copy expects exactly 2^40
    # hits: exact_law folds it into its Gaussian part, and so does the plan
    params = default_params(kmax=20, rho=4.0)
    plan = plan_of(params, 51, SampleKind.APPROX_IID_SUM, True)
    assert [op.func for op in plan] == [_draw_normal] * len(params.blocks)
    gauss_var, support, _, _ = exact_law(params, 51)._table()
    assert support.tolist() == [0.0]
    assert math.fsum(op.keywords["std"] ** 2 for op in plan) == \
        pytest.approx(gauss_var, rel=1e-12)


def _op_variance(op):
    """Variance of one spike op's draw: hits times coefficient squared."""
    kw = op.keywords
    if op.func is _draw_poisson:
        return (kw["coef"] * math.sqrt(kw["lam"])) ** 2
    unit = (kw["coef"] * math.sqrt(kw["hit_prob"])) ** 2
    if op.func is _draw_flat:
        return unit * kw["length"]
    # segment j over its sites i, centred: t = i + shift[j]
    lo = (kw["starts"][:-1] + kw["shift"]).tolist()
    hi = (kw["starts"][1:] - 1 + kw["shift"]).tolist()
    squares = []
    for a, b, (v, s) in zip(lo, hi, kw["affine"].tolist()):
        s0, s1, s2 = power_sums(a, b, 2)
        squares.append(v * v * s0 + 2.0 * v * s * s1 + s * s * s2)
    return unit * math.fsum(squares)


@pytest.mark.parametrize("kmax", [100, 1040, 1073, 1074])
def test_desk_horizon_under_a_deep_spike_block(kmax):
    # a spike block ending at 2^kmax seen at 2^20: its flat segments run
    # past numpy's 2^63 trials, and its spike scale sqrt(2^kmax) past the
    # square root of the largest double
    w = build_weights(WeightMode.CONST_ONE, kmax)
    params = SequenceParams(w, split_blocks(w, [kmax]))
    em = ExactMoments(params)
    plan = plan_of(params, 20, moments=em)
    assert math.fsum(map(_op_variance, plan)) == pytest.approx(
        em.sigma_sq(1 << 20), rel=1e-12)
    batch = sample_batch(params, 20, 1000, 1, moments=em)
    assert np.all(np.isfinite(batch.values))


def test_dichotomy_samples_stability():
    params = default_params(kmax=20, rho=4.0)
    odd = params.blocks[0].horizon_log2
    assert params.blocks[0].complete
    one = dichotomy_samples(params, [odd], 2_000, 745)
    direct = sample_batch(params, odd, 2_000,
                          derive_seed(745, params.blocks[0].index),
                          normalized=True)
    assert one[odd].values.tobytes() == direct.values.tobytes()
    with pytest.raises(ParamsError):
        dichotomy_samples(params, [odd + 1], 100, 745)


def test_dichotomy_samples_on_a_shared_engine_keep_their_bits():
    # an engine warm with a grid's scalars, prefix tables and last
    # profiles plans the same batches as a fresh one
    params = default_params(kmax=40_000_000, rho=4.0)
    horizons = [b.horizon_log2 for b in params.complete_blocks()]
    em = ExactMoments(params)
    em.table_rows(dyadic_grid(4, 16))
    shared = dichotomy_samples(params, horizons, 2_000, 745, moments=em)
    fresh = dichotomy_samples(params, horizons, 2_000, 745)
    for e in horizons:
        assert shared[e].values.tobytes() == fresh[e].values.tobytes()


# ---------------------------------------------------------------------------
# Law-level oracles for the aggregate sampler's pooled path

def _spike_cumulants(p):
    """kappa_2..kappa_8 of a site that is +-1 w.p. p/2 each, else 0."""
    return {2: p, 4: p - 3 * p ** 2, 6: p - 15 * p ** 2 + 30 * p ** 3,
            8: p - 63 * p ** 2 + 420 * p ** 3 - 630 * p ** 4}


def _exact_cumulants(profs):
    """Even cumulants of the horizon sum from the dense coefficients."""
    out = dict.fromkeys((2, 4, 6, 8), 0.0)
    for prof in profs:
        g = dense_coefficients(prof)
        if prof.block.parity is BlockParity.GAUSSIAN:
            out[2] += float(np.sum(g * g))
            continue
        kap = _spike_cumulants(math.ldexp(1.0, -prof.block.horizon_log2))
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
    n = 100_000
    k = _exact_cumulants(em.profiles(1 << e))
    want = em.fourth_cumulant(1 << e)
    assert k[4] == pytest.approx(want, rel=1e-12)
    batch = sample_batch(params, e, n, 745, moments=em)
    assert abs(kstat(batch.values, 4) - want) < 5.0 * _k4_statistic_sd(k, n)


@pytest.mark.parametrize("e", [4, 6])
def test_aggregate_and_site_modes_agree_two_sample_ks(e):
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    n = 10_000
    coords = sum(p.segments[-1][1] - p.segments[0][0] + 1
                 for p in em.profiles(1 << e))
    assert n * coords <= SITE_DRAW_BUDGET
    agg = sample_batch(params, e, n, 745, moments=em)
    site = site_sample_batch(params, e, n, 745, moments=em)
    # the samplers key their streams differently, so the samples are
    # independent; alpha = 1e-3 asymptotic two-sample critical value
    crit = math.sqrt(-0.5 * math.log(0.5e-3)) * math.sqrt(2.0 / n)
    assert ks_2samp(agg.values, site.values).statistic < crit
