import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, kstat, ks_2samp

import cltlab.laws as laws
import cltlab.simulate as simulate
from cltlab.blocks import (BlockParity, SequenceParams, default_params,
                           split_blocks)
from cltlab.engine import DESK_N_CAP, ExactMoments, dyadic_grid
from cltlab.errors import MemoryBudgetError, ParamsError, WorkBudgetError
from cltlab.laws import (dichotomy_report, exact_law, ks_distance,
                         ks_pass_bound)
from cltlab.simulate import (GAUSSIANIZE_HITS, SampleKind,
                             _build_plan, _distinct_keys, _draw_flat,
                             _draw_normal, _draw_poisson, _draw_pool,
                             _lane_key, _rekey, _stream,
                             derive_seed, flat_copy, sample_batch)
from cltlab.weights import WeightMode, build_weights
from cltlab_reference import (SITE_DRAW_BUDGET, dense_coefficients,
                              site_sample_batch)
from conftest import power_sums


def desk_params():
    return default_params(kmax=14, rho=4.0)


def plan_of(params, e, kind=SampleKind.FULL_SN, moments=None):
    return _build_plan(params, e, kind, moments or ExactMoments(params))


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
    small = sample_batch(params, e, 2 * simulate.CHUNK + 7, 745)
    large = sample_batch(params, e, 5 * simulate.CHUNK + 1, 745)
    assert full_chunks(small, 2) == full_chunks(large, 2)


def test_sampler_batches_are_pinned():
    # sha256 over batches of both kinds at desk horizons of kmax 12
    # (below, at and past its spike block's 2^11), theorem1's Gaussian
    # horizon and theorem3's spike horizon, each a single sample and two
    # full chunks and a short one, at two seeds.  A change that moves a
    # sampled byte on purpose updates this pin and names the change.
    points = [(default_params(kmax=12, rho=4.0), (4, 11, 12)),
              (default_params(kmax=40_000_000, rho=4.0), (37_605_530,)),
              (default_params(kmax=1 << 22, mode=WeightMode.INV_LOG),
               (3264,))]
    digest = hashlib.sha256()
    for params, horizons in points:
        em = ExactMoments(params)
        for e, kind, count, seed in itertools.product(
                horizons, SampleKind, (1, 2 * simulate.CHUNK + 7),
                (0, 745)):
            batch = sample_batch(params, e, count, seed, kind, moments=em)
            digest.update(batch.values.tobytes())
    assert digest.hexdigest() == ("c97914c40c8178be962ccea0c9c2c24f"
                                  "6b27d584902cf110bc4c7e25cc5869f9")


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_is_refused(seed):
    # masked to 64 bits, -1 would alias 2^64 - 1 and 2^64 alias 0
    params = desk_params()
    with pytest.raises(ParamsError, match="seed"):
        sample_batch(params, 8, 10, seed)
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


class _PlusSigns:
    """A Generator whose fair signs all come out positive, so a pool of
    unit values sums to each sample's hit count."""

    def __init__(self, rng):
        self.rng = rng

    def integers(self, low, high, size):
        if (low, high) == (0, 2):
            return np.ones(size, dtype=np.int64)
        return self.rng.integers(low, high, size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("length,hit_prob", HIT_CASES)
def test_pool_hit_counts_are_binomial(length, hit_prob):
    # one flat segment of unit value, every sign positive: the pool's
    # output is each sample's hit count
    hits = _draw_pool(_PlusSigns(_stream(*_lane_key(745, 4, 0))), 20_000,
                      starts=np.array([0, length]),
                      affine=np.array([[1.0, 0.0]]), shift=np.array([0]),
                      hit_prob=hit_prob, coef=1.0)
    assert np.array_equal(hits, np.round(hits)) and hits.min() >= 0
    assert _chisquare_vs_binom(hits.astype(np.int64), length, hit_prob) > 1e-3


# ---------------------------------------------------------------------------
# Distinct hit keys

@given(st.integers(1, 60), st.integers(0, 60),
       st.integers(0, (1 << 64) - 1))
@example(5, 5, 1)                      # every key drawn
@example(7, 6, 2)                      # most keys drawn
@example(1000, 999, 3)                 # near-full long range
def test_distinct_keys_are_distinct_and_deterministic(bound, count, key):
    count = min(count, bound)
    keys = _distinct_keys(_stream(key, 1), bound, count)
    assert keys.size == np.unique(keys).size == count
    assert np.all((0 <= keys) & (keys < bound))
    again = _distinct_keys(_stream(key, 1), bound, count)
    assert np.array_equal(keys, again)


def _balanced_ternary_digits(x, places):
    """The digits in {-1, 0, 1} of the integers x, lowest first."""
    x = np.rint(x).astype(np.int64)
    out = []
    for _ in range(places):
        d = (x + 1) % 3 - 1
        out.append(d)
        x = (x - d) // 3
    assert not x.any()
    return np.column_stack(out)


def test_pool_hits_uniform_subsets():
    # five one-site segments of values 3^j: each sample's signed sum is a
    # balanced-ternary numeral whose nonzero digits are the sites hit and
    # their signs; half the sites are hit, so keys collide often
    length, n = 5, 20_000
    out = _draw_pool(_stream(745, 1), n, starts=np.arange(length + 1),
                     affine=np.column_stack([3.0 ** np.arange(length),
                                             np.zeros(length)]),
                     shift=np.zeros(length, dtype=np.int64), hit_prob=0.5,
                     coef=1.0)
    digits = _balanced_ternary_digits(out, length)
    hit = digits != 0
    for h in (2, 3):
        subsets = list(itertools.combinations(range(length), h))
        index = {s: j for j, s in enumerate(subsets)}
        counts = np.zeros(len(subsets))
        for row in hit[hit.sum(axis=1) == h]:
            counts[index[tuple(np.flatnonzero(row))]] += 1
        assert len(subsets) == 10 and counts.sum() > 5_000
        assert chisquare(counts).pvalue > 1e-3
    signs = np.bincount(digits[hit] > 0, minlength=2)
    assert chisquare(signs).pvalue > 1e-3


def _pool_by_pairs(rng, size, length, hit_prob, value):
    """``_draw_pool``'s draws, as (row, site) pairs of Python ints: per
    block of rows within 2^63 - 1 binomial trials, a hit count, keys whose
    repeats are redrawn (later slot first) until none are left, and a sign
    per hit.  Returns the per-row sums of sign times ``value(site)`` and
    the pairs."""
    block = ((1 << 63) - 1) // length
    out, pairs = np.zeros(size), []
    for first in range(0, size, block):
        rows = min(block, size - first)
        hits = int(rng.binomial(rows * length, hit_prob))
        if not hits:
            continue
        keys = rng.integers(0, rows * length, size=hits).tolist()
        while True:
            seen, redo = set(), []
            for i, k in enumerate(keys):
                if k in seen:
                    redo.append(i)
                seen.add(k)
            if not redo:
                break
            new = rng.integers(0, rows * length, size=len(redo)).tolist()
            for i, k in zip(redo, new):
                keys[i] = k
        signs = (2.0 * rng.integers(0, 2, size=hits) - 1.0).tolist()
        for k, sign in zip(keys, signs):
            row, site = first + k // length, k % length
            pairs.append((row, site))
            out[row] += sign * value(site)
    return out, pairs


@pytest.mark.parametrize("length", [50, DESK_N_CAP])
def test_pool_matches_a_pairwise_reference(length):
    # a full chunk of a sloped half and a flat half: at 50 sites keys
    # collide often, and a DESK_N_CAP-long pool's 2^64 pairs pass numpy's
    # binomial trials, so its rows go in blocks of 2047
    half = length // 2
    starts = np.array([0, half, length])
    affine = np.array([[1.0, 1.0 / length], [-1.0, 0.0]])
    shift = np.array([-half // 2, 0])
    hit_prob = 0.25 if length == 50 else 2.0 ** -50

    def value(site):
        j = int(site >= half)
        return affine[j, 0] + affine[j, 1] * float(site + shift[j])

    got = _draw_pool(_stream(9, 1), simulate.CHUNK, starts=starts,
                     affine=affine, shift=shift, hit_prob=hit_prob,
                     coef=1.0)
    want, pairs = _pool_by_pairs(_stream(9, 1), simulate.CHUNK, length,
                                 hit_prob, value)
    assert len(set(pairs)) == len(pairs) > simulate.CHUNK
    assert all(0 <= r < simulate.CHUNK and 0 <= s < length
               for r, s in pairs)
    if length == DESK_N_CAP:
        assert simulate.CHUNK * length >> 63
        assert max(r for r, _ in pairs) >= 2 * (((1 << 63) - 1) // length)
    np.testing.assert_array_equal(got, want)


def _normalized_moments(em, e):
    """sigma_sq and the fourth cumulant of S_N / sqrt(b^2 N), N = 2^e:
    the engine's over b^2 N and its square."""
    unit = em.normalizer_sq(e) * (1 << e)
    return em.sigma_sq(1 << e) / unit, em.fourth_cumulant(1 << e) / unit ** 2


def _variance_within_band(params, e, n, seed):
    """The batch variance at the horizon N = 2^e lies within four
    standard errors of sigma_sq / (b^2 N); returns the batch and that
    variance."""
    em = ExactMoments(params)
    batch = sample_batch(params, e, n, seed, moments=em)
    sig2, k4 = _normalized_moments(em, e)
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
    # and its three one-site flat segments, expecting 2^-11 hits each;
    # the Gaussian block is the plan's one normal
    plan = plan_of(params, 11)
    assert [draw.func for draw in plan] == [_draw_pool, _draw_normal]
    assert plan[0].keywords["starts"][-1] == 2 * (2048 - 2) + 3


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
    heavy = [(p, [i for i, (lo, hi, _) in enumerate(p.segments)
                  if (hi - lo + 1) * math.ldexp(1.0, -p.block.horizon_log2)
                  > GAUSSIANIZE_HITS])
             for p in spikes]
    assert any(segs for _, segs in heavy)
    # the Gaussian blocks and the heavy segments are one normal
    normals = [draw for draw in plan_of(params, 45)
               if draw.func is _draw_normal]
    assert len(normals) == 1
    var = math.fsum([p.sum_pow(2) for p in profs
                     if p.block.parity is BlockParity.GAUSSIAN]
                    + [p.sum_pow(2, segs) for p, segs in heavy if segs])
    unit = ExactMoments(params).normalizer_sq(45) * (1 << 45)
    assert normals[0].keywords["std"] ** 2 == pytest.approx(var / unit,
                                                            rel=1e-12)
    _variance_within_band(params, 45, 40_000, 745)


def test_normalized_iid_sum_has_unit_variance():
    params = desk_params()
    batch = sample_batch(params, 8, 40_000, 7,
                         kind=SampleKind.APPROX_IID_SUM)
    # flat-copy sum: normalized variance is exactly 1, so only the
    # estimator noise is in play
    assert abs(np.var(batch.values, ddof=1) - 1.0) < 0.05
    assert abs(np.mean(batch.values)) < 0.05


def test_site_mode_agrees_with_aggregate_in_law():
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    n = 10_000
    agg = sample_batch(params, 6, n, 3, moments=em)
    site = site_sample_batch(params, 6, n, 3, moments=em)
    assert not np.array_equal(agg.values, site.values)
    sig2, k4 = _normalized_moments(em, 6)
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
        sample_batch(desk_params(), 8, (1 << 28) + 1, 1)
    assert err.value.details == {"estimated_bytes": 8 * ((1 << 28) + 1),
                                 "budget": 8 << 28}


def test_astronomic_horizon_sampling():
    params = default_params(kmax=40_000_000, rho=4.0)
    e = params.blocks[1].horizon_log2      # 2^e is far beyond float range
    assert e == 37_605_530
    batch = sample_batch(params, e, 500, 5)
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
        plan = plan_of(params, h + shift, SampleKind.APPROX_IID_SUM)
        assert [op.func for op in plan] == [_draw_poisson, _draw_normal]
        step = next(a for _, a in flat_copy(params, h + shift,
                                            ExactMoments(params))
                    if a is not None).lattice_scale
        assert plan[0].keywords == {"lam": 2.0 ** shift, "coef": step}
    # theorem1's spike block expects 2^37605519 hits at 2^37605530 and
    # keeps its normal
    params = default_params(kmax=40_000_000, rho=4.0)
    plan = plan_of(params, params.blocks[1].horizon_log2,
                   SampleKind.APPROX_IID_SUM)
    assert [op.func for op in plan] == [_draw_normal]


def test_flat_copy_beyond_the_cap_takes_the_oracles_regimes():
    # spike block 3 ends at 2^2000; at N = 2^(2000 + ll) its flat copy
    # expects 2^ll hits: none up to 2^-50, a count below 2^40, a share of
    # the plan's one normal from there, as exact_law has it
    w = build_weights(WeightMode.CONST_ONE, 2000)
    params = SequenceParams(w, split_blocks(w, [1, 100, 2000]))
    want = {-51: [], -50: [], -49: [_draw_poisson], 39: [_draw_poisson],
            40: []}
    for ll, tail in want.items():
        plan = plan_of(params, 2000 + ll, SampleKind.APPROX_IID_SUM)
        assert [op.func for op in plan] == tail + [_draw_normal]
    e, count = 1950, 100_000
    batch = sample_batch(params, e, count, 1, SampleKind.APPROX_IID_SUM)
    ks = ks_distance(batch.values, exact_law(params, e))
    assert ks <= ks_pass_bound(count)


def test_flat_copy_at_2_40_expected_hits_is_all_normals():
    # block 1 ends at 2^11, so at 2^51 its flat copy expects exactly 2^40
    # hits: exact_law folds it into its Gaussian part, and so does the plan
    params = default_params(kmax=20, rho=4.0)
    plan = plan_of(params, 51, SampleKind.APPROX_IID_SUM)
    assert [op.func for op in plan] == [_draw_normal]
    law = exact_law(params, 51)
    assert law.support.tolist() == [0.0]
    assert plan[0].keywords["std"] ** 2 == pytest.approx(law.gauss_var,
                                                         rel=1e-12)


def _op_variance(op):
    """Variance of one op's draw: a normal's, or for a spike op hits
    times coefficient squared."""
    kw = op.keywords
    if op.func is _draw_normal:
        return kw["std"] ** 2
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
        _normalized_moments(em, 20)[0], rel=1e-12)
    batch = sample_batch(params, 20, 1000, 1, moments=em)
    assert np.all(np.isfinite(batch.values))


def test_report_scores_the_batches_of_its_seed_rule(monkeypatch):
    # theorem1's two horizons: block i's full sum is drawn at
    # derive_seed(seed, i) and its gate at derive_seed(seed, salt + i),
    # byte for byte, before the scorer sorts them
    params = default_params(kmax=40_000_000, rho=4.0)
    complete = params.complete_blocks()
    assert [b.horizon_log2 for b in complete] == [11, 37605530]
    scored = []
    batch_ks = laws._batch_ks

    def capture(values, *others):
        scored.append(values.tobytes())
        return batch_ks(values, *others)

    monkeypatch.setattr(laws, "_batch_ks", capture)
    dichotomy_report(params, 2_000, 745)
    want = []
    for b in complete:
        for salt, kind in ((0, SampleKind.FULL_SN),
                           (laws._GATE_SALT, SampleKind.APPROX_IID_SUM)):
            want.append(sample_batch(params, b.horizon_log2, 2_000,
                                     derive_seed(745, salt + b.index),
                                     kind).values.tobytes())
    assert scored == want


def test_batches_on_a_shared_engine_keep_their_bits():
    # an engine warm with a grid's scalars, prefix tables and last
    # profiles plans the same batches as a fresh one
    params = default_params(kmax=40_000_000, rho=4.0)
    horizons = [b.horizon_log2 for b in params.complete_blocks()]
    em = ExactMoments(params)
    em.table_rows(dyadic_grid(4, 16))
    for e in horizons:
        shared = sample_batch(params, e, 2_000, 745, moments=em)
        fresh = sample_batch(params, e, 2_000, 745)
        assert shared.values.tobytes() == fresh.values.tobytes()


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
    # the batch is S_N / sqrt(b^2 N): k_4 and its spread scale by
    # (b^2 N)^-2
    unit = em.normalizer_sq(e) * (1 << e)
    assert (abs(kstat(batch.values, 4) - want / unit ** 2)
            < 5.0 * _k4_statistic_sd(k, n) / unit ** 2)


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


def test_aggregate_and_site_modes_agree_beside_a_one_hit_count():
    # at 2^12 the spike block (horizon 2^11) has a 2,048-site flat segment
    # expecting one hit: it keeps its signed count beside the pool
    params = default_params(kmax=12, rho=4.0)
    em = ExactMoments(params)
    e, n = 12, 4_000
    plan = plan_of(params, e, moments=em)
    assert [op.func for op in plan] == [_draw_flat, _draw_pool, _draw_normal]
    assert plan[0].keywords["length"] * plan[0].keywords["hit_prob"] == 1.0
    coords = sum(p.segments[-1][1] - p.segments[0][0] + 1
                 for p in em.profiles(1 << e))
    assert n * coords <= SITE_DRAW_BUDGET
    agg = sample_batch(params, e, n, 745, moments=em)
    site = site_sample_batch(params, e, n, 745, moments=em)
    crit = math.sqrt(-0.5 * math.log(0.5e-3)) * math.sqrt(2.0 / n)
    assert ks_2samp(agg.values, site.values).statistic < crit
