import json
import math

import numpy as np
import pytest
from scipy.stats import binom, norm, poisson, skellam

import cltlab.laws as laws
from cltlab.blocks import BlockParity, SequenceParams, default_params, \
    split_blocks
from cltlab.engine import ExactMoments
from cltlab.errors import ParamsError, TruncationError
from cltlab.laws import (DichotomyRow, DichotomyVerdict, ExactFiniteLaw,
                         NormalLaw, dichotomy_report, empirical_law,
                         exact_law, format_ks_csv, ks_distance,
                         ks_pass_bound, law_to_json, sym_poisson,
                         tv_distance)
from cltlab.weights import WeightMode, build_weights


def single_odd_block(k):
    w = build_weights(WeightMode.CONST_ONE, k)
    return SequenceParams(w, split_blocks(w, [k]))


# -- symmetrized Poisson ---------------------------------------------------

def test_sym_poisson_pmf_against_skellam():
    for lam in (0.5, 2.0, 17.5):
        sp = sym_poisson(lam)
        n = np.arange(-40, 41)
        want = skellam(lam, lam).pmf(n)
        assert np.allclose(sp.pmf(n), want, rtol=1e-12, atol=1e-300)


def test_sym_poisson_pmf_by_double_sum():
    lam = 0.5
    sp = sym_poisson(lam)
    for n in range(4):
        want = sum(poisson(lam).pmf(j + n) * poisson(lam).pmf(j)
                   for j in range(80))
        assert sp.pmf(n)[0] == pytest.approx(want, rel=1e-12)
    assert sp.pmf(0)[0] == pytest.approx(0.4657596075936404, abs=1e-15)


def test_sym_poisson_moments_and_table():
    sp = sym_poisson(0.5)
    mt = sp.moment_table()
    assert mt["mean"] == pytest.approx(0.0, abs=1e-12)
    assert mt["variance"] == pytest.approx(1.0, rel=1e-10)
    assert mt["skewness"] == pytest.approx(0.0, abs=1e-12)
    assert mt["excess_kurtosis"] == pytest.approx(1.0, rel=1e-9)
    support, probs = sp.lattice_table()
    assert probs.sum() == pytest.approx(1.0, abs=1e-11)
    assert np.all(np.diff(support) == 1.0)
    zero = sym_poisson(0.0)
    assert zero.cdf([-0.5, 0.0, 0.5]).tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ParamsError):
        sym_poisson(-1.0)


def test_sym_poisson_vs_normal_frozen():
    got = ks_distance(sym_poisson(0.5), NormalLaw(0.0, 1.0))
    assert got == pytest.approx(0.2328798034, abs=1e-8)


# -- normal law ------------------------------------------------------------

def test_normal_law_basics():
    nl = NormalLaw(0.0, 1.0)
    x = np.linspace(-3, 3, 13)
    assert np.allclose(nl.cdf(x), norm.cdf(x), atol=1e-14)
    assert nl.discontinuities().size == 0
    for p, v in nl.quantile_table().items():
        assert norm.cdf(v) == pytest.approx(p, abs=1e-9)
    point = NormalLaw(0.0, 0.0)
    assert ks_distance(point, nl) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ParamsError):
        NormalLaw(0.0, -1.0)


# -- exact finite-horizon law ----------------------------------------------

def test_pure_gaussian_reduces_to_normal():
    law = ExactFiniteLaw(gauss_var=1.0, atoms=())
    assert ks_distance(law, NormalLaw(0.0, 1.0)) == pytest.approx(0.0,
                                                                  abs=1e-12)
    assert law.variance() == pytest.approx(1.0)
    assert law.discontinuities().size == 0


def test_single_block_law_approaches_sym_poisson():
    # total-variation against the lam = 1/2 limit, frozen decreasing run
    want = {4: 0.01119043897, 6: 0.002741384576, 8: 0.00068192313,
            10: 0.0001702682384, 12: 4.255379727e-05}
    got = {}
    for k, w in want.items():
        law = exact_law(single_odd_block(k), 1 << k)
        got[k] = tv_distance(law, sym_poisson(0.5))
        assert got[k] == pytest.approx(w, rel=1e-6)
    vals = [got[k] for k in sorted(got)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exact_law_variance_and_kurtosis_desk():
    params = default_params(kmax=20, rho=4.0)
    em = ExactMoments(params)
    law = exact_law(params, 1 << 11, em)
    assert law.variance() == pytest.approx(1.0, rel=1e-12)
    mt = law.moment_table()
    assert mt["excess_kurtosis"] == pytest.approx(0.9985351562500018,
                                                  rel=1e-12)
    assert law.cdf_error_bound < 1e-9


def test_mixture_and_doubling_routes_agree(monkeypatch):
    params = single_odd_block(6)
    a = exact_law(params, 1 << 6)
    monkeypatch.setattr(laws, "MIXTURE_LAMBDA", 0.25)
    b = exact_law(params, 1 << 6)
    assert tv_distance(a, b) < 1e-11
    assert ks_distance(a, b) < 1e-11


@pytest.mark.parametrize("q", [0.5, 1.0 / 3.0, 1.0 / 64.0, 1.0 / 2048.0])
def test_doubling_pmf_matches_repeated_convolution(q):
    step = np.array([q / 2.0, 1.0 - q, q / 2.0])
    brute = np.array([1.0])
    trimmed = 0
    for trials in range(1, 41):
        brute = np.convolve(brute, step)
        support, probs, lost = laws._signed_count_pmf_doubling(
            trials, q, laws.ATOM_MASS_TOL)
        assert lost <= laws.ATOM_MASS_TOL
        trimmed += lost > 0.0
        got = np.zeros(2 * trials + 1)
        got[support + trials] = probs
        assert np.max(np.abs(got - brute)) <= 1e-12
    assert trimmed   # the tail-trimming path is among those compared


def test_count_pmfs_match_scipy_stats():
    for h in range(41):                  # signs of h hits
        j = np.arange(h + 1)
        np.testing.assert_array_equal(laws._binom_pmf(j, h, 0.5),
                                      binom.pmf(j, h, 0.5))
    for trials in (1, 17, 1000, (1 << 20) + 3, (1 << 40) - 1):
        for e in range(1, 45):           # hit counts of one atom
            lam = trials * 2.0 ** -e
            if lam > laws.MIXTURE_LAMBDA:
                continue
            lo, hi = laws._count_window(lam, trials)
            h = np.arange(lo, hi + 1)
            np.testing.assert_array_equal(
                laws._binom_pmf(h, float(trials), 2.0 ** -e),
                binom.pmf(h, float(trials), 2.0 ** -e))
    for lam in [2.0 ** e for e in range(-44, 12)] + [0.3, 17.5]:
        lo, hi = laws._count_window(lam, None)
        h = np.arange(lo, hi + 1)
        np.testing.assert_array_equal(laws._poisson_pmf(h, lam),
                                      poisson.pmf(h, lam))


def test_gauss_merge_certificate_astronomic():
    params = default_params(kmax=40_000_000, rho=4.0)
    N = params.blocks[1].horizon
    law = exact_law(params, N)
    # the odd-block atom merges into the Gaussian with a tiny certified
    # Berry-Esseen charge; nothing else survives
    assert law.discontinuities().size == 0
    assert 0.0 < law.cdf_error_bound < 1e-6
    assert law.variance() == pytest.approx(1.0, rel=1e-9)


def test_truncation_gap_raises():
    # atom count rate 2^23: too heavy to enumerate, too light to merge;
    # the failure surfaces on first use of the law
    params = default_params(kmax=20, rho=4.0)
    law = exact_law(params, 1 << 34)
    with pytest.raises(TruncationError):
        law.cdf([0.0])


def test_exact_law_validation():
    params = default_params(kmax=20, rho=4.0)
    with pytest.raises(ParamsError):
        exact_law(params, 0)


# -- distances -------------------------------------------------------------

def test_ks_is_symmetric_and_zero_on_self():
    a = sym_poisson(0.5)
    b = NormalLaw(0.1, 1.1)
    assert ks_distance(a, b) == ks_distance(b, a)
    assert ks_distance(a, a) == 0.0
    assert ks_distance(b, b) == 0.0


def test_ks_normal_shift_analytic():
    # sup_x |Phi(x - mu) - Phi(x)| = 2 Phi(|mu| / 2) - 1
    for mu in (0.08, 0.5, 1.7):
        want = 2.0 * norm.cdf(mu / 2.0) - 1.0
        got = ks_distance(NormalLaw(mu, 1.0), NormalLaw(0.0, 1.0))
        assert got == pytest.approx(want, abs=2e-5)


def test_tv_needs_lattices():
    with pytest.raises(ParamsError):
        tv_distance(NormalLaw(0.0, 1.0), sym_poisson(1.0))
    assert tv_distance(sym_poisson(0.5), sym_poisson(0.5)) == 0.0


def test_ks_pass_bound():
    assert ks_pass_bound(100_000) == pytest.approx(1.63 / math.sqrt(1e5))
    assert math.isinf(ks_pass_bound(0))


# -- empirical law ---------------------------------------------------------

def test_empirical_law_cdf_and_moments():
    vals = np.array([3.0, -1.0, 2.0, 2.0, 0.0])
    emp = empirical_law(vals)
    assert emp.cdf([-2.0])[0] == 0.0
    assert emp.cdf([2.0])[0] == pytest.approx(0.8)
    assert emp.cdf_left([2.0])[0] == pytest.approx(0.4)
    assert emp.cdf([5.0])[0] == 1.0
    assert emp.mean() == pytest.approx(vals.mean())
    assert emp.variance() == pytest.approx(vals.var())
    assert ks_distance(emp, emp) == 0.0


def test_empirical_vs_exact_ks_sane():
    rng = np.random.default_rng(4)
    emp = empirical_law(rng.standard_normal(20_000))
    d = ks_distance(emp, NormalLaw(0.0, 1.0))
    assert d < ks_pass_bound(20_000)


# -- serialization ---------------------------------------------------------

def test_law_to_json():
    for law in (NormalLaw(0.0, 1.0), sym_poisson(0.5),
                exact_law(single_odd_block(6), 1 << 6)):
        doc = json.loads(law_to_json(law))
        assert doc["variant"] == law.variant.value
        assert "parameters" in doc and "moments" in doc
        assert doc["moments"]["variance"] == pytest.approx(law.variance(),
                                                           rel=1e-9)


# -- dichotomy report ------------------------------------------------------

def test_dichotomy_report_zero_count():
    rep = dichotomy_report(default_params(kmax=20, rho=4.0), 0, 1)
    assert rep.verdict is DichotomyVerdict.INCONCLUSIVE
    assert rep.required_count_estimate is not None
    assert rep.notes == ["no samples drawn"]


def test_dichotomy_single_parity_is_no_dichotomy():
    # kmax 20 leaves the Gaussian block incomplete: nothing to compare
    rep = dichotomy_report(default_params(kmax=20, rho=4.0), 400, 3)
    assert rep.verdict is DichotomyVerdict.NO_DICHOTOMY
    assert len(rep.rows) == 1
    assert rep.rows[0].parity is BlockParity.THREE_VALUED


def test_dichotomy_astronomic_verdicts():
    params = default_params(kmax=40_000_000, rho=4.0)
    rep = dichotomy_report(params, 2_000, 745, workers=2)
    assert rep.verdict is DichotomyVerdict.DIFFERENT_LIMITS
    assert rep.gap > 0.1
    odd = [r for r in rep.rows if r.parity is BlockParity.THREE_VALUED]
    even = [r for r in rep.rows if r.parity is BlockParity.GAUSSIAN]
    assert odd and even
    assert all(r.oracle_pass for r in rep.rows)
    assert 0.0 < even[0].residual_fraction < 0.1
    # a margin just above the measured gap is inside sampling noise
    tight = dichotomy_report(params, 2_000, 745, workers=2,
                             margin=rep.gap + 0.01)
    assert tight.verdict is DichotomyVerdict.INCONCLUSIVE
    assert tight.required_count_estimate is not None
    # an unreachable margin far beyond noise is a clean rejection
    wide = dichotomy_report(params, 2_000, 745, workers=2, margin=0.9)
    assert wide.verdict is DichotomyVerdict.NO_DICHOTOMY


def test_format_ks_csv_huge_horizon():
    row = DichotomyRow(horizon_log2=100, block_index=2,
                       parity=BlockParity.GAUSSIAN, count=10,
                       ks_vs_oracle=0.1, ks_vs_normal=0.2, ks_gate=0.01,
                       gate_bound=0.5, residual_fraction=0.0,
                       oracle_pass=True)
    small = DichotomyRow(horizon_log2=11, block_index=1,
                         parity=BlockParity.THREE_VALUED, count=10,
                         ks_vs_oracle=0.3, ks_vs_normal=0.4, ks_gate=0.01,
                         gate_bound=0.5, residual_fraction=0.0,
                         oracle_pass=True)
    rep = laws.DichotomyReport([small, row], 0.05, 0.1,
                               DichotomyVerdict.DIFFERENT_LIMITS, None, [])
    text = format_ks_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "horizon,ks_vs_oracle,ks_vs_normal," \
                       "residual_fraction,verdict"
    assert lines[1].startswith("2048,")
    assert lines[2].startswith("2^100,")
    assert lines[2].endswith("DIFFERENT_LIMITS")
