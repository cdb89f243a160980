import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, norm, poisson, skellam

import cltlab.cli as cli
import cltlab.engine as engine
import cltlab.laws as laws
from cltlab.blocks import BlockParity, SequenceParams, default_params, \
    split_blocks
from cltlab.engine import ExactMoments, dyadic_grid
from cltlab.errors import ParamsError, TruncationError
import cltlab.simulate as simulate
from cltlab.laws import (DichotomyRow, DichotomyVerdict, LatticeAtom, Law,
                         decide, dichotomy_report, exact_law, finite_law,
                         format_ks_csv, ks_distance, ks_pass_bound,
                         normal_law, sym_poisson_law)
from cltlab.simulate import (FlatRegime, SampleKind, flat_copy, flat_regime,
                             sample_batch)
from cltlab.weights import WeightMode, build_weights
from cltlab_reference import tv_distance


def table_moments(law):
    """Mean, variance and excess kurtosis of a law's lattice table."""
    support, probs = law.support, law.weights
    tot = probs.sum()
    mean = probs @ support / tot
    d = support - mean
    var = probs @ d ** 2 / tot
    if var == 0.0:
        return mean, var, math.nan
    return mean, var, probs @ d ** 4 / tot / var ** 2 - 3.0


@functools.lru_cache(maxsize=None)
def theorem1_params():
    return default_params(kmax=40_000_000, rho=4.0)


def single_odd_block(k):
    w = build_weights(WeightMode.CONST_ONE, k)
    return SequenceParams(w, split_blocks(w, [k]))


# -- the shared evaluator --------------------------------------------------

SHARED_CASES = {
    "point_normal": lambda: normal_law(0.25, 0.0),
    "sym_poisson_zero": lambda: sym_poisson_law(0.0),
    # one expected hit of a 0.7-step lattice on top of a Gaussian part
    "gauss_and_atom": lambda: finite_law(0.5, (LatticeAtom(
        lattice_scale=0.7, trials=64, hit_prob=2.0 ** -6, log2_trials=6.0,
        log2_hit=-6, var_share=0.49),)),
}


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_evaluator_on_every_variant(case):
    law = SHARED_CASES[case]()
    disc = law.discontinuities()
    x = np.unique(np.concatenate([disc, np.linspace(-5.0, 5.0, 401),
                                  [-np.inf, np.inf]]))
    cdf, left = law.cdf(x), law.cdf_left(x)
    assert np.all(left <= cdf)
    away = ~np.isin(x, disc)
    np.testing.assert_array_equal(left[away], cdf[away])
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf.min() >= 0.0 and cdf.max() <= 1.0
    if disc.size:
        assert law.weights.sum() == pytest.approx(law.cdf(np.inf)[0],
                                                  abs=1e-12)
        assert np.all(left[~away] < cdf[~away])
        assert math.isclose(law.variance(), table_moments(law)[1],
                            rel_tol=1e-12, abs_tol=0.0)
    else:
        # the Gaussian 0.5 plus one expected hit of the 0.7 step
        assert law.variance() == pytest.approx(0.5 + 0.49, rel=1e-9)


# -- symmetrized Poisson ---------------------------------------------------

def sym_poisson_pmf(lam, n):
    """The symmetrized-Poisson table's weights at the integers n."""
    law = sym_poisson_law(lam)
    at = np.searchsorted(law.support, n)
    assert np.array_equal(law.support[at], n)
    return law.weights[at]


def test_sym_poisson_pmf_against_skellam():
    for lam in (0.5, 2.0, 17.5):
        n = np.arange(-40, 41)
        want = skellam(lam, lam).pmf(n)
        assert np.allclose(sym_poisson_pmf(lam, n), want, rtol=1e-12,
                           atol=1e-300)


def test_sym_poisson_pmf_by_double_sum():
    lam = 0.5
    pmf = sym_poisson_pmf(lam, np.arange(4))
    for n in range(4):
        want = sum(poisson(lam).pmf(j + n) * poisson(lam).pmf(j)
                   for j in range(80))
        assert pmf[n] == pytest.approx(want, rel=1e-12)
    assert pmf[0] == pytest.approx(0.4657596075936404, abs=1e-15)


def test_sym_poisson_moments_and_table():
    sp = sym_poisson_law(0.5)
    assert sp.mean() == pytest.approx(0.0, abs=1e-12)
    assert sp.variance() == pytest.approx(1.0, rel=1e-10)
    _, var, excess = table_moments(sp)
    assert var == pytest.approx(1.0, rel=1e-10)
    assert excess == pytest.approx(1.0, rel=1e-9)
    support, probs = sp.support, sp.weights
    # symmetric about 0
    np.testing.assert_array_equal(support, -support[::-1])
    np.testing.assert_array_equal(probs, probs[::-1])
    assert probs.sum() == pytest.approx(1.0, abs=1e-11)
    assert np.all(np.diff(support) == 1.0)
    zero = sym_poisson_law(0.0)
    assert zero.cdf([-0.5, 0.0, 0.5]).tolist() == [0.0, 1.0, 1.0]
    # refused as ParamsError, before any table is built
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ParamsError):
            sym_poisson_law(lam)


def test_sym_poisson_table_takes_one_pass():
    # the window n_max = [12 sd] + 30 leaves at most 2 e^-45 of the mass
    # out (Bernstein), so one pass reaches the mass target at every rate
    # a lattice atom can ask for
    for e in range(-51, 31):
        lam = 2.0 ** e
        law = sym_poisson_law(lam)
        assert law.support[-1] == int(12.0 * math.sqrt(2.0 * lam)) + 30
        assert law.weights.sum() >= 1.0 - laws.ATOM_MASS_TOL


# -- normal law ------------------------------------------------------------

def test_normal_law_basics():
    nl = normal_law(0.0, 1.0)
    x = np.linspace(-3, 3, 13)
    assert np.allclose(nl.cdf(x), norm.cdf(x), atol=1e-14)
    assert nl.discontinuities().size == 0
    assert (nl.mean(), nl.variance()) == (0.0, 1.0)
    # a NaN mean would make every F value NaN, which the KS maximum
    # skips, and a NaN variance would score as a point mass
    for mu, var in ((0.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                    (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ParamsError):
            normal_law(mu, var)


# -- exact finite-horizon law ----------------------------------------------

def test_pure_gaussian_reduces_to_normal():
    law = finite_law(gauss_var=1.0, atoms=())
    assert laws._same_table(law, normal_law(0.0, 1.0))
    assert law.variance() == pytest.approx(1.0)
    assert law.discontinuities().size == 0
    # a gaussianized atom's share must not make a negative part valid
    merged = LatticeAtom(lattice_scale=2.0 ** -20, trials=1 << 52,
                         hit_prob=2.0 ** -4, log2_trials=52.0, log2_hit=-4,
                         var_share=2.0)
    for gauss_var in (-1.0, math.nan, math.inf):
        with pytest.raises(ParamsError):
            finite_law(gauss_var, ())
        with pytest.raises(ParamsError):
            finite_law(gauss_var, (merged,))
        with pytest.raises(ParamsError):
            Law(gauss_var, np.zeros(1), np.ones(1), 0.0)
    assert finite_law(0.5, (merged,)).gauss_var == 2.5


def test_single_block_law_approaches_sym_poisson():
    # total-variation against the lam = 1/2 limit, frozen decreasing run
    want = {4: 0.01119043897, 6: 0.002741384576, 8: 0.00068192313,
            10: 0.0001702682384, 12: 4.255379727e-05}
    got = {}
    for k, w in want.items():
        law = exact_law(single_odd_block(k), k)
        got[k] = tv_distance(law, sym_poisson_law(0.5))
        assert got[k] == pytest.approx(w, rel=1e-6)
    vals = [got[k] for k in sorted(got)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exact_law_variance_and_kurtosis_desk():
    params = default_params(kmax=20, rho=4.0)
    em = ExactMoments(params)
    law = exact_law(params, 11, em)
    assert law.variance() == pytest.approx(1.0, rel=1e-12)
    _, var, excess = table_moments(law)
    assert var == pytest.approx(1.0, rel=1e-12)
    assert excess == pytest.approx(0.9985351562500018, rel=1e-12)
    assert law.cdf_error_bound < 1e-9


@pytest.mark.parametrize("q", [0.5, 1.0 / 3.0, 1.0 / 64.0, 1.0 / 2048.0])
def test_doubling_pmf_matches_repeated_convolution(q):
    step = np.array([q / 2.0, 1.0 - q, q / 2.0])
    brute = np.array([1.0])
    trimmed = 0
    for trials in range(1, 41):
        brute = np.convolve(brute, step)
        support, probs, lost = laws._signed_count_pmf(trials, q)
        assert lost <= laws.ATOM_MASS_TOL
        # the table never puts mass outside the reachable -trials..trials
        assert -trials <= support[0] and support[-1] <= trials
        trimmed += support[-1] < trials
        got = np.zeros(2 * trials + 1)
        got[support + trials] = probs
        assert np.max(np.abs(got - brute)) <= 1e-12
    assert trimmed   # the tail-trimming path is among those compared


def test_norm_cdf_matches_scipy_ndtr():
    # the port of cephes ndtr against the scipy ufunc it replaced
    x = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                        [-np.inf, -0.0, np.inf]])
    got, want = laws._norm_cdf(x), ndtr(x)
    assert np.max(np.abs(got - want)) <= 1e-16
    big = want > 1e-300
    assert np.max(np.abs(got - want)[big] / want[big]) <= 1e-14
    assert got[-3:].tolist() == [0.0, 0.5, 1.0]
    assert np.isnan(laws._norm_cdf([np.nan]))[0]


def _rel_err(got, want):
    """Largest relative error over the entries of ``want`` above 1e-300."""
    big = want > 1e-300
    return float(np.max(np.abs(got - want)[big] / want[big]))


def signed_count_by_hits(trials, q):
    """The signed count's pmf on -top..top as a mixture over its hit
    count: Binomial(trials, q) hits, each with a fair sign.  Hit counts
    beyond 12 standard deviations and 40 of the mean are left out."""
    lam = trials * q
    spread = 12.0 * math.sqrt(lam) + 40.0
    top = min(trials, int(lam + spread))
    h = np.arange(max(0, int(lam - spread)), top + 1)[:, None]
    j = np.arange(top + 1)[None, :]
    mass = binom.pmf(h, trials, q) * binom.pmf(j, h, 0.5)
    # j positive signs of h put the sum at 2j - h
    at = np.broadcast_to(2 * j - h + top, mass.shape)
    probs = np.bincount(at.ravel(), mass.ravel())[:2 * top + 1]
    return np.arange(-top, top + 1), probs


def test_count_pmfs_match_scipy_stats():
    for trials in (1, 17, 1000, (1 << 20) + 3, (1 << 40) - 1):
        for e in range(1, 45):           # hit counts of one atom
            lam = trials * 2.0 ** -e
            if not 2.0 ** -3 <= lam <= 2.0 ** 11:
                continue
            support, probs, lost = laws._signed_count_pmf(trials, 2.0 ** -e)
            ref_support, want = signed_count_by_hits(trials, 2.0 ** -e)
            got = np.zeros(want.size)
            got[support - ref_support[0]] = probs
            # an absolute noise floor: the transform rounds every entry
            # to within a few float ulps of the largest
            assert np.max(np.abs(got - want)) <= 5e-16
            assert np.array_equal(probs, probs[::-1])
            assert abs(probs.sum() - 1.0) <= 1e-15 and lost <= 1e-15
    # the Poisson limit, where the window spans thousands of steps;
    # scipy's skellam takes seconds for every point, so every 7th
    for e in (15, 22):
        support, probs, lost = laws._signed_count_pmf(1 << 52,
                                                      2.0 ** (e - 52))
        want = skellam.pmf(support[::7], 2.0 ** (e - 1), 2.0 ** (e - 1))
        assert np.max(np.abs(probs[::7] - want)) <= 1e-16
        assert abs(probs.sum() - 1.0) <= lost <= 1e-14
    # beyond the desk cap Poisson(lam) hits carry fair signs: the signed
    # count of two independent Poisson(lam / 2) counts
    for lam in [2.0 ** e for e in range(-44, 12)] + [0.3, 17.5]:
        atom = LatticeAtom(lattice_scale=1.0, trials=None,
                           hit_prob=2.0 ** -60,
                           log2_trials=60 + math.log2(lam), log2_hit=-60,
                           var_share=1.0)
        support, probs, tv, lost = laws._atom_pmf(atom)
        assert _rel_err(probs, skellam.pmf(support, 0.5 * lam,
                                           0.5 * lam)) <= 1e-13
        assert abs(probs.sum() - 1.0) <= 1e-15
        assert tv == 2.0 ** -60 and abs(lost) < laws.ATOM_MASS_TOL


def test_gauss_merge_certificate_astronomic():
    params = default_params(kmax=40_000_000, rho=4.0)
    law = exact_law(params, params.blocks[1].horizon_log2)
    # the odd-block atom merges into the Gaussian with a tiny certified
    # Berry-Esseen charge; nothing else survives
    assert law.discontinuities().size == 0
    assert 0.0 < law.cdf_error_bound < 1e-6
    assert law.variance() == pytest.approx(1.0, rel=1e-9)


def test_truncation_gap_raises():
    # atom count rate 2^36: its window does not fit the support budget,
    # and it is too light to merge; the law is refused when it is built
    params = default_params(kmax=20, rho=4.0)
    with pytest.raises(TruncationError):
        exact_law(params, 47)
    # rate 2^23 is enumerated exactly, within its certified bound
    law = exact_law(params, 34)
    mass = law.weights.sum()
    assert abs(mass - 1.0) <= law.cdf_error_bound < 1e-11
    assert law.variance() == pytest.approx(1.0, rel=1e-12)


def test_signed_count_pmf_counts_what_it_loses():
    # at n = 2^52 any rounding of 1 - q compounds like (1 + eps)^n, so
    # the table's mass is the check that lost counts all it misses
    support, probs, lost = laws._signed_count_pmf(1 << 52, 2.0 ** -30)
    assert abs(probs.sum() - 1.0) <= lost <= laws.ATOM_MASS_TOL
    assert support.size > 1 << 15
    law = exact_law(default_params(kmax=48, rho=4.0), 33)
    assert abs(law.weights.sum() - 1.0) <= law.cdf_error_bound


def test_poisson_atom_counts_its_rounding_as_lost():
    # the table's float sum can round above 1; the mass it misses is
    # still nonnegative, and bounded by |1 - sum| plus the sum's rounding
    for e in (-44, 0, 11, 28):
        atom = LatticeAtom(lattice_scale=1.0, trials=None,
                           hit_prob=2.0 ** -60, log2_trials=60 + e,
                           log2_hit=-60, var_share=1.0)
        _, probs, _, lost = laws._atom_pmf(atom)
        assert 0.0 <= abs(probs.sum() - 1.0) <= lost < 1e-10


def test_hit_probability_at_horizon_exponent_1074_is_not_zero():
    # 2^-1074 is the smallest positive double; only past it do the
    # sampler and the oracle take a block's hit probability as 0
    w = build_weights(WeightMode.CONST_ONE, 1074)
    params = SequenceParams(w, split_blocks(w, [1074]))
    atom = next(a for _, a in flat_copy(params, 20, ExactMoments(params))
                if a is not None)
    assert atom.hit_prob == math.ldexp(1.0, -1074) > 0.0
    assert laws._atom_pmf(atom)[2] == 0.0


def test_exact_law_validation():
    params = default_params(kmax=20, rho=4.0)
    # the horizon 2^0 keeps no scale to normalize by
    with pytest.raises(ParamsError):
        exact_law(params, 0)


# preset -> (log2 horizon, gauss_var, support size, cdf_error_bound, how
# its lattice atom is drawn) of the law at each complete horizon
PRESET_LAWS = {
    "theorem1": [(11, 0.0, 33, 1.0000140586056052e-12, "binomial"),
                 (37_605_530, 1.0, 1, 1e-12, "gaussianized")],
    "theorem2": [(11, 0.0, 33, 1.0000140586056052e-12, "binomial")],
    "theorem3": [(3264, 0.0, 85, 1.0094368957093138e-12, "poisson")],
}


@pytest.mark.parametrize("name", sorted(PRESET_LAWS))
def test_preset_laws_are_pinned(name):
    # every law a preset's dichotomy scores against, from its parameters
    # as the CLI builds them (theorem2 with the halving decay)
    cfg = cli.config_from_args(cli.build_parser().parse_args([name]))
    _, params, _ = cli._build_params(cfg)
    em = ExactMoments(params)
    got = []
    for blk in params.complete_blocks():
        e = blk.horizon_log2
        law = exact_law(params, e, em)
        atom, = (a for _, a in flat_copy(params, e, em) if a is not None)
        drawn = ("gaussianized"
                 if flat_regime(atom.log2_mean_hits) is FlatRegime.NORMAL
                 else "binomial" if atom.trials is not None else "poisson")
        got.append((e, law.gauss_var, law.support.size,
                    law.cdf_error_bound, drawn))
        assert law.variance() == pytest.approx(1.0, rel=1e-12)
    assert got == PRESET_LAWS[name]


# -- distances -------------------------------------------------------------

def test_tv_needs_lattices():
    with pytest.raises(ParamsError):
        tv_distance(normal_law(0.0, 1.0), sym_poisson_law(1.0))
    assert tv_distance(sym_poisson_law(0.5), sym_poisson_law(0.5)) == 0.0


def test_ks_pass_bound():
    assert ks_pass_bound(100_000) == pytest.approx(1.63 / math.sqrt(1e5))
    assert math.isinf(ks_pass_bound(0))


# -- sample batch against a law --------------------------------------------

def test_empirical_vs_exact_ks_sane():
    rng = np.random.default_rng(4)
    d = ks_distance(rng.standard_normal(20_000), normal_law(0.0, 1.0))
    assert d < ks_pass_bound(20_000)


def brute_ks(samples, law, points):
    """max of |F_n - F| and of the left-limit gap over the given points."""
    x = np.sort(samples)
    f_n = np.searchsorted(x, points, side="right") / x.size
    f_n_left = np.searchsorted(x, points, side="left") / x.size
    return float(max(np.abs(f_n - law.cdf(points)).max(),
                     np.abs(f_n_left - law.cdf_left(points)).max()))


def test_one_pass_ks_against_normal_is_the_textbook_formula():
    rng = np.random.default_rng(7)
    x = np.sort(rng.normal(0.1, 1.0, 20_000))
    law = normal_law(0.0, 1.0)
    f = law.cdf(x)
    i = np.arange(1, x.size + 1)
    want = float(max((i / x.size - f).max(), (f - (i - 1) / x.size).max()))
    assert ks_distance(x, law) == want
    # an unsorted copy scores the same
    assert ks_distance(x[::-1], law) == want
    assert brute_ks(x, law, x) == want


def test_one_pass_ks_against_a_lattice_law_is_brute_force():
    law = exact_law(single_odd_block(6), 6)
    support, probs = law.support, law.weights
    rng = np.random.default_rng(3)
    x = rng.choice(support, size=20_000, p=probs / probs.sum())
    got = ks_distance(x, law)
    # every point where either cdf jumps, and points between them
    points = np.union1d(support, (support[1:] + support[:-1]) / 2)
    assert got == brute_ks(x, law, points) > 0.0
    # jitter of a few ulps is snapped back onto the lattice: the distance
    # is the integer-count value
    signs = rng.choice([-1.0, 1.0], size=x.size)
    assert ks_distance(x * (1.0 + signs * 2.0 ** -50), law) == got


KS_LAWS = {
    # weights that sum above 1, as a truncated table's rounding can
    "overweight": lambda: Law(0.0, np.array([0.0, 1.0]),
                              np.array([1.0, 1e-3]), 0.0),
    "sym_poisson": lambda: sym_poisson_law(0.7),
    "lattice": lambda: exact_law(single_odd_block(4), 4),
    "mixture": lambda: finite_law(0.5, (LatticeAtom(
        lattice_scale=0.25, trials=64, hit_prob=1 / 64, log2_trials=6.0,
        log2_hit=-6.0, var_share=0.0625),)),
    "normal": lambda: normal_law(0.1, 1.3),
}


def snap_each(x, jumps, delta):
    """Every sample moved onto its nearest jump within delta, one by one."""
    out = np.array(x, dtype=float)
    for i, v in enumerate(out):
        dist = np.abs(v - jumps)
        if dist.size and dist.min() <= delta:
            out[i] = jumps[np.argmin(dist)]
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KS_LAWS)),
       block=st.sampled_from([1, 2, 3, 7]),
       delta=st.sampled_from([laws.KS_SNAP, 1e-3]))
def test_blocked_ks_is_the_dense_brute_force(data, name, block, delta):
    law = KS_LAWS[name]()
    support = law.support
    # ties (repeated anchors), samples within delta of a jump and just
    # beyond it, and values off every anchor
    offset = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5])
    central = support[np.argsort(np.abs(support - law.mean()))[:12]]
    anchored = st.builds(lambda a, o: a + o * delta,
                         st.sampled_from(sorted(central)), offset)
    free = st.floats(-4.0, 4.0, allow_nan=False)
    x = np.sort(np.array(data.draw(
        st.lists(st.one_of(anchored, free), min_size=1, max_size=40))))
    jumps = np.asarray(law.discontinuities(), dtype=float)
    snapped = snap_each(x, jumps, delta)
    want = brute_ks(snapped, law, np.union1d(snapped, jumps))
    with mock.patch.object(laws, "_KS_BLOCK", block):
        assert laws._ks_empirical(x, law, delta) == want


def test_ks_past_the_greatest_sample_reads_the_last_jump():
    # F_n is 1 from the samples at 0 on, and F climbs past 1 at the last
    # jump: only that jump sees the table's excess mass
    law = KS_LAWS["overweight"]()
    x = np.zeros(5)
    got = ks_distance(x, law)
    assert got == brute_ks(x, law, np.union1d(x, law.discontinuities()))
    assert got == abs(1.0 - (1.0 + 1e-3)) > 0.0


def test_ks_reads_the_law_only_at_the_samples():
    law = sym_poisson_law(100.0)
    assert law.discontinuities().size == 399
    x = np.random.default_rng(4).integers(-15, 16, 10).astype(float)
    read = []
    cdf = Law._cdf

    def counted(self, points, side):
        read.append(np.atleast_1d(points).size)
        return cdf(self, points, side)

    with mock.patch.object(Law, "_cdf", counted):
        ks_distance(x, law)
    assert sum(read) <= 2 * np.unique(x).size + 1


def test_snap_tolerance_is_the_law_scale():
    # ten far outliers give the batch a standard deviation near 1e6: a
    # tolerance on the batch's scale (about 1e-3) would snap a batch 2e-4
    # off the lattice onto it, scoring 0.00099.  The law's is 1e-9, so
    # the shifted batch fails the 1% gate
    law = sym_poisson_law(0.5)
    support, probs = law.support, law.weights
    rng = np.random.default_rng(1)
    x = rng.choice(support, size=100_000, p=probs / probs.sum()) + 2e-4
    x[:10] = 1e8
    got = ks_distance(x, law)
    assert got > ks_pass_bound(x.size)
    # the dense brute force, snapping each distinct value on its own
    delta = laws.KS_SNAP * max(1.0, law.std())
    jumps = law.discontinuities()
    vals, inverse = np.unique(x, return_inverse=True)
    snapped = snap_each(vals, jumps, delta)[inverse]
    assert got == brute_ks(snapped, law, np.union1d(snapped, jumps))


def test_ks_distance_leaves_its_input_untouched():
    x = np.random.default_rng(5).standard_normal(1000)
    law = normal_law(0.0, 1.0)
    want = ks_distance(np.sort(x), law)
    for values in (x, x[::-1]):
        kept = values.copy()
        assert ks_distance(values, law) == want
        assert np.array_equal(values, kept)
    # a batch nothing else reads is sorted in place, not copied
    values = x[::-1].copy()
    assert laws._batch_ks(values, law) == [want]
    assert np.array_equal(values, np.sort(x))
    with pytest.raises(ParamsError):
        ks_distance(np.empty(0), law)


def test_ks_distance_refuses_a_nan_sample():
    # NaN sorts last and no cdf comparison counts it: an all-NaN batch
    # read 0.0, and NaNs appended to a batch hid its distance
    law = normal_law(0.0, 1.0)
    x = np.random.default_rng(5).standard_normal(1000)
    assert ks_distance(x, law) > 0.01
    for bad in (np.full(5, np.nan), np.concatenate([x, np.full(1000, np.nan)]),
                np.insert(x, 17, np.nan)):
        with pytest.raises(ParamsError, match="NaN"):
            ks_distance(bad, law)
        with pytest.raises(ParamsError, match="NaN"):
            laws._batch_ks(bad.copy(), law, normal_law(0.0, 2.0))


@pytest.mark.parametrize("seed", range(6))
def test_theorem1_oracle_gates_pass(seed):
    params = theorem1_params()
    rep = dichotomy_report(params, 100_000, seed,
                           moments=ExactMoments(params))
    assert [r.oracle_pass for r in rep.rows] == [True, True]
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS


@pytest.mark.parametrize("seed", [0, 1])
def test_theorem3_oracle_gate_passes(seed):
    # the one complete block ends at 2^3264 with about one expected hit;
    # a normal stand-in for its flat copy misses the exact law by 0.23
    params = default_params(kmax=1 << 22, mode=WeightMode.INV_LOG)
    rep = dichotomy_report(params, 20_000, seed,
                           moments=ExactMoments(params))
    assert [(r.horizon_log2, r.oracle_pass) for r in rep.rows] == [(3264,
                                                                    True)]
    assert rep.verdict is DichotomyVerdict.NO_DICHOTOMY


def test_gaussian_mixture_cdf_does_not_depend_on_the_batch():
    # 2^-4 hit probability over 1,134,595 trials: 4,591 signed counts,
    # every one with positive weight, on top of a Gaussian part
    trials, log2_hit, scale = 1_134_595, -4, 0.01
    law = finite_law(0.5, (LatticeAtom(
        lattice_scale=scale, trials=trials, hit_prob=2.0 ** log2_hit,
        log2_trials=math.log2(trials), log2_hit=log2_hit,
        var_share=scale * scale * trials * 2.0 ** log2_hit),))
    gv, support, weights = law.gauss_var, law.support, law.weights
    assert gv == 0.5 and support.size == 4591 and np.all(weights > 0.0)
    xs = np.linspace(-1.5, 1.5, 601) * support[-1]
    whole = law.cdf(xs)
    for i, x in enumerate(xs):
        assert whole[i] == law.cdf([x])[0]


def test_sampler_and_oracle_share_horizon_checks():
    # a negative exponent, and 2^0, where b^2 = 0 and no sum normalizes
    params = default_params(kmax=20, rho=4.0)
    builds = [exact_law] + [
        lambda p, e, kind=kind: sample_batch(p, e, 1, 0, kind)
        for kind in SampleKind]
    for e, message in ((-1, "horizon exponent must be nonnegative"),
                       (0, "normalization needs a horizon with at least "
                           "one sub-horizon scale")):
        for build in builds:
            with pytest.raises(ParamsError) as info:
                build(params, e)
            assert str(info.value) == message
            assert info.value.details == {"log2_n": e}


# -- dichotomy report ------------------------------------------------------

@pytest.fixture
def no_draws(monkeypatch):
    """Every sample batch and every exact law becomes an error."""
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be drawn or built here")

    for module, name in ((simulate, "sample_batch"), (laws, "sample_batch"),
                         (laws, "exact_law")):
        monkeypatch.setattr(module, name, refuse)


def hand_row(block_index, ks_vs_normal, count=400, ks_gate=0.0):
    """A hand-built row at horizon 2^(10 * block_index)."""
    return DichotomyRow(horizon_log2=10 * block_index,
                        block_index=block_index, count=count,
                        ks_vs_oracle=0.0, ks_vs_normal=ks_vs_normal,
                        ks_gate=ks_gate, residual_fraction=0.0)


def test_dichotomy_report_zero_count(no_draws):
    # refused with sample_batch's own error, before any law is built
    for count in (0, -1):
        with pytest.raises(ParamsError, match="count must be positive") \
                as info:
            dichotomy_report(default_params(kmax=20, rho=4.0), count, 1)
        assert info.value.details == {"count": count}


@pytest.mark.parametrize("margin", [math.nan, math.inf, 0.0, -1.0])
def test_bad_margin_is_refused_before_sampling(no_draws, margin):
    # a NaN or infinite margin read NO_DICHOTOMY, and one at or below 0
    # DIFFERENT_LIMITS, whatever the gap
    for judge in (lambda: dichotomy_report(theorem1_params(), 2_000, 745,
                                           margin=margin),
                  lambda: decide([hand_row(1, 0.25), hand_row(2, 0.0)],
                                 margin)):
        with pytest.raises(ParamsError,
                           match="margin must be positive and finite"):
            judge()


def test_row_gate_follows_count_and_distance():
    r = hand_row(1, 0.0, count=10, ks_gate=0.5)
    assert r.gate_bound == ks_pass_bound(10) == pytest.approx(0.5155,
                                                              abs=1e-4)
    assert r.oracle_pass
    r.count = 16
    assert r.gate_bound == ks_pass_bound(16) < 0.5
    assert not r.oracle_pass
    r.ks_gate = ks_pass_bound(16)
    assert r.oracle_pass


def test_decide_different_limits(no_draws):
    rows = [hand_row(1, 0.5), hand_row(2, 0.0625), hand_row(3, 0.375),
            hand_row(4, 0.125)]
    for margin in (0.05, 0.25):         # gap == margin is enough
        rep = decide(rows, margin)
        assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
        assert (rep.gap, rep.margin) == (0.25, margin)
        assert rep.required_count_estimate is None
        assert rep.notes == []
        assert rep.rows is rows


def test_decide_no_dichotomy(no_draws):
    one = decide([hand_row(1, 0.5), hand_row(3, 0.375)], 0.05)
    assert one.verdict is DichotomyVerdict.NO_DICHOTOMY
    assert math.isnan(one.gap)
    assert one.required_count_estimate is None
    assert one.notes == ["both parities need a complete horizon"]
    # short of the margin by 0.25, far beyond twice the 1% bound 0.0016
    far = decide([hand_row(1, 0.125, count=10**6),
                  hand_row(2, 0.125, count=10**6)], 0.25)
    assert far.verdict is DichotomyVerdict.NO_DICHOTOMY
    assert far.gap == 0.0
    assert far.required_count_estimate is None
    assert far.notes == []


def test_decide_failed_gate_is_inconclusive(no_draws):
    one = decide([hand_row(1, 0.5, ks_gate=0.5)], 0.05)
    assert one.verdict is DichotomyVerdict.INCONCLUSIVE
    assert one.required_count_estimate is None
    assert one.notes == ["both parities need a complete horizon",
                         "oracle gate failed at log2 horizons [10]"]
    # a gap past the margin counts for nothing once a gate fails
    two = decide([hand_row(1, 0.5), hand_row(2, 0.0, ks_gate=0.5),
                  hand_row(4, 0.0, ks_gate=0.5)], 0.05)
    assert two.verdict is DichotomyVerdict.INCONCLUSIVE
    assert two.gap == 0.5
    assert two.required_count_estimate is None
    assert two.notes == ["oracle gate failed at log2 horizons [20, 40]"]


def test_decide_within_noise_is_inconclusive(no_draws):
    notes = ["gap within sampling noise of the margin"]
    rep = decide([hand_row(1, 0.15625), hand_row(2, 0.125)], 0.0625)
    assert rep.verdict is DichotomyVerdict.INCONCLUSIVE
    assert rep.gap == 0.03125
    assert rep.required_count_estimate == 10883   # (2 * 1.63 / 0.03125)^2
    assert rep.notes == notes
    # margin - gap == 2 * bound exactly: the count drawn would just do;
    # a row at a smaller count sets the bound
    noise = 2.0 * ks_pass_bound(400)
    rows = [hand_row(1, 0.125, count=10**6), hand_row(2, 0.125)]
    rep = decide(rows, noise)
    assert rep.verdict is DichotomyVerdict.INCONCLUSIVE
    assert rep.gap == 0.0
    assert rep.required_count_estimate == 400
    assert rep.notes == notes
    rep = decide(rows, float(np.nextafter(noise, 1.0)))
    assert rep.verdict is DichotomyVerdict.NO_DICHOTOMY
    assert rep.notes == []


def test_dichotomy_single_parity_is_no_dichotomy():
    # kmax 20 leaves the Gaussian block incomplete: nothing to compare
    rep = dichotomy_report(default_params(kmax=20, rho=4.0), 400, 3)
    assert rep.verdict is DichotomyVerdict.NO_DICHOTOMY
    assert len(rep.rows) == 1
    assert rep.rows[0].parity is BlockParity.THREE_VALUED


def test_dichotomy_single_parity_failed_gate_is_inconclusive(monkeypatch):
    monkeypatch.setattr(laws, "ks_pass_bound", lambda count: 0.0)
    rep = dichotomy_report(default_params(kmax=20, rho=4.0), 400, 3)
    assert [r.oracle_pass for r in rep.rows] == [False]
    assert rep.verdict is DichotomyVerdict.INCONCLUSIVE
    assert rep.notes == ["both parities need a complete horizon",
                         "oracle gate failed at log2 horizons [%d]"
                         % rep.rows[0].horizon_log2]


def test_dichotomy_astronomic_verdicts():
    params = default_params(kmax=40_000_000, rho=4.0)
    rep = dichotomy_report(params, 2_000, 745)
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
    assert rep.gap > 0.1
    odd = [r for r in rep.rows if r.parity is BlockParity.THREE_VALUED]
    even = [r for r in rep.rows if r.parity is BlockParity.GAUSSIAN]
    assert odd and even
    assert all(r.oracle_pass for r in rep.rows)
    assert 0.0 < even[0].residual_fraction < 0.1
    # a margin just above the measured gap is inside sampling noise
    tight = dichotomy_report(params, 2_000, 745, margin=rep.gap + 0.01)
    assert tight.verdict is DichotomyVerdict.INCONCLUSIVE
    assert tight.required_count_estimate is not None
    # an unreachable margin far beyond noise is a clean rejection
    wide = dichotomy_report(params, 2_000, 745, margin=0.9)
    assert wide.verdict is DichotomyVerdict.NO_DICHOTOMY


def test_astronomic_report_builds_no_horizon_integer():
    # 2^37605530 as an integer is 4.7 MB; the report carries exponents,
    # so its own allocations peak far below one such integer
    params = theorem1_params()
    tracemalloc.start()
    try:
        rep = dichotomy_report(params, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
    assert peak < 4 << 20


def test_report_holds_one_batch_at_a_time():
    # each batch is sorted in place and scored in KS blocks, and no
    # statistic of it takes a batch-sized temporary, so the peak is the
    # batch's 8 bytes a sample plus about 0.7 MB of chunk- and
    # block-sized work arrays at any count: against 16 bytes a sample
    # with a copy of the batch, and about 96 with every batch of the
    # report alive at once
    params = theorem1_params()
    moments = ExactMoments(params)
    count = 200_000
    tracemalloc.start()
    try:
        rep = dichotomy_report(params, count, 0, moments=moments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
    assert peak < 8 * count + (1 << 20)


def test_report_plans_from_its_own_engine(monkeypatch):
    # the full-sum batches read the report's prefix tables: one
    # ScaleSums per block for the grid and the report together
    built = []
    init = engine.ScaleSums.__init__

    def counting(self, weights, k_lo):
        built.append(k_lo)
        init(self, weights, k_lo)

    monkeypatch.setattr(engine.ScaleSums, "__init__", counting)
    params = theorem1_params()
    moments = ExactMoments(params)
    moments.table_rows(dyadic_grid(4, 16))
    rep = dichotomy_report(params, 1_000, 0, moments=moments)
    assert len(rep.rows) == 2
    assert sorted(built) == [b.k_lo for b in params.blocks]


def test_batch_ks_scores_each_table_once(monkeypatch):
    # the exact law at theorem1's top horizon is NORMAL(0, 1)'s table:
    # one KS pass serves both; a law one ulp away is scored on its own
    params = theorem1_params()
    top = exact_law(params, params.complete_blocks()[-1].horizon_log2,
                    ExactMoments(params))
    values = np.random.default_rng(11).standard_normal(3_000)
    normal, near = normal_law(0.0, 1.0), normal_law(0.0, 1.0 + 2.0 ** -52)
    others = (top, normal, near, normal_law(0.0, 1.0))
    expect = [ks_distance(values, law) for law in others]
    scored = []
    one_pass = laws._ks_empirical

    def counting(samples, law, delta):
        scored.append(law)
        return one_pass(samples, law, delta)

    monkeypatch.setattr(laws, "_ks_empirical", counting)
    got = laws._batch_ks(values.copy(), *others)
    assert got == expect
    assert scored == [top, near]
    assert got[0] == got[1] == got[3]


def test_format_ks_csv_huge_horizon():
    row = DichotomyRow(horizon_log2=100, block_index=2, count=10,
                       ks_vs_oracle=0.1, ks_vs_normal=0.2, ks_gate=0.01,
                       residual_fraction=0.0)
    small = DichotomyRow(horizon_log2=11, block_index=1, count=10,
                         ks_vs_oracle=0.3, ks_vs_normal=0.4, ks_gate=0.01,
                         residual_fraction=0.0)
    # a row's parity is its block's
    assert row.parity is BlockParity.GAUSSIAN
    assert small.parity is BlockParity.THREE_VALUED
    rep = laws.DichotomyReport([small, row], 0.05, 0.1,
                               DichotomyVerdict.DIFFERENT_LIMITS, None, [])
    text = format_ks_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "horizon,ks_vs_oracle,ks_vs_normal," \
                       "residual_fraction,verdict"
    assert lines[1].startswith("2048,")
    assert lines[2].startswith("2^100,")
    assert lines[2].endswith("DIFFERENT_LIMITS")
