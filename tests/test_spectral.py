import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cltlab.errors import ParamsError, WorkBudgetError
from cltlab.spectral import (SpectralToy, binom_coeffs, circulant_toy,
                             evaluate_conditions, random_circulant_toy,
                             rn_identity_check, rn_telescoping_check,
                             sqrt_apply, toy_from_json)
import cltlab_reference as ref


def gap_toy(seed=0, dim=24):
    return random_circulant_toy(dim, seed)


# -- square-root series coefficients ---------------------------------------

def test_binom_coeffs_first_values():
    a = binom_coeffs(4)
    assert a[0] == 0.5
    assert a[1] == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert a[2] == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert a[3] == pytest.approx(5.0 / 128.0, rel=1e-15)
    with pytest.raises(ParamsError):
        binom_coeffs(0)


def test_binom_coeffs_square_recovers_one_minus_x():
    # (1 - sum a_j x^j)^2 == 1 - x order by order
    m = 40
    a = binom_coeffs(m)
    poly = np.concatenate([[1.0], -a])          # coefficients of 1 - A(x)
    sq = np.convolve(poly, poly)
    assert sq[0] == 1.0
    assert sq[1] == pytest.approx(-1.0, rel=1e-15)
    assert np.abs(sq[2: m + 1]).max() < 1e-17


def test_binom_coeffs_positive_decreasing_mass():
    a = binom_coeffs(4000)
    assert np.all(a > 0.0)
    assert np.all(np.diff(a) < 0.0)
    assert a.sum() < 1.0
    # partial mass approaches 1 like 1/sqrt(m)
    assert 1.0 - a.sum() == pytest.approx(1.0 / math.sqrt(math.pi * 4000),
                                          rel=0.01)


def test_binom_coeffs_stirling_rate():
    for j in (100, 10_000):
        a = binom_coeffs(j)[-1]
        ratio = a * 2.0 * math.sqrt(math.pi) * j ** 1.5
        assert 0.99 < ratio < 1.01
    assert binom_coeffs(10_000)[-1] * 2.0 * math.sqrt(math.pi) * 1e4 ** 1.5 \
        == pytest.approx(1.0000375, abs=2e-6)


# -- toy construction ------------------------------------------------------

def test_spectral_toy_validation():
    with pytest.raises(ParamsError):
        SpectralToy([1.5], [1.0])               # outside the disk
    with pytest.raises(ParamsError):
        SpectralToy([1.0], [1.0])               # observable at eigenvalue 1
    with pytest.raises(ParamsError):
        SpectralToy([0.5, 0.5], [1.0])          # length mismatch
    toy = SpectralToy([1.0, 0.5], [0.0, 2.0])   # zero there is fine
    assert toy.dim == 2 and toy.kernel_row is None
    with pytest.raises(ParamsError):
        toy.matrix()                            # explicit has no matrix


def test_toy_vectors_must_be_finite():
    # |nan| > 1 is false, so only an explicit check keeps NaN out; each is
    # refused before any arithmetic, the kernel row's DFT included
    cases = [(lambda: SpectralToy([math.nan, 0.5], [0.0, 1.0]),
              "eigenvalues", 0),
             (lambda: SpectralToy([0.5, 0.1], [0.0, complex(1, math.inf)]),
              "observable", 1),
             (lambda: circulant_toy([0.5, math.nan, 0.5], [0.0, 1.0, 2.0]),
              "kernel_row", 1),
             (lambda: circulant_toy([0.5, 0.25, 0.25], [0.0, math.inf, 2.0]),
              "observable", 1),
             (lambda: SpectralToy([1.0, 0.0], [0.0, 1.0],
                                  kernel_row=[0.5, math.inf]),
              "kernel_row", 1)]
    for build, key, index in cases:
        with pytest.raises(ParamsError) as exc:
            build()
        assert exc.value.details == {"key": key, "index": index}


def test_circulant_toy_eigenvalues_and_matrix():
    row = np.array([0.5, 0.3, 0.2])
    toy = circulant_toy(row, [0.0, 1.0, 1.0])
    assert toy.kernel_row is not None
    P = toy.matrix()
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(P.sum(axis=0), 1.0)
    got = np.sort_complex(np.linalg.eigvals(P))
    want = np.sort_complex(toy.eigenvalues)
    assert np.allclose(got, want, atol=1e-12)
    # commutes with the cyclic shift, as any circulant must
    S = np.roll(np.eye(3), 1, axis=1)
    assert np.abs(P @ S - S @ P).max() < 1e-15
    with pytest.raises(ParamsError):
        circulant_toy([0.7, 0.2], [1.0, 1.0])   # not a probability row
    with pytest.raises(ParamsError):
        circulant_toy([-0.1, 1.1], [1.0, 1.0])


def test_kernel_row_must_give_the_eigenvalues():
    # the matrix is built from the row alone: a row whose DFT is not the
    # eigenvalues would give a matrix with other eigenvalues, or of
    # another dimension
    for row in ([0.6, 0.4], [0.6, 0.4, 0.0], [], [0.7, 0.2]):
        with pytest.raises(ParamsError):
            SpectralToy([0.5, 0.1], [0.0, 1.0], kernel_row=np.array(row))
    toy = SpectralToy(np.fft.fft([0.6, 0.4]), [0.0, 1.0], [0.6, 0.4])
    got = np.sort_complex(np.linalg.eigvals(toy.matrix()))
    assert np.allclose(got, np.sort_complex(toy.eigenvalues), atol=1e-15)


def test_random_circulant_gap_certificate():
    for seed in range(6):
        toy = random_circulant_toy(16, seed, uniform_mix=0.2)
        lam = toy.eigenvalues
        assert abs(lam[0] - 1.0) < 1e-12
        assert toy.observable[0] == 0.0
        others = np.abs(1.0 - np.delete(lam, 0))
        assert others.min() >= 0.2 - 1e-9
    with pytest.raises(ParamsError):
        random_circulant_toy(1, 0)


def test_toy_from_json_routes():
    toy = toy_from_json(json.dumps(
        {"kernel_row": [0.6, 0.4], "observable": [0.0, 1.0], "dim": 2}))
    assert toy.kernel_row is not None
    toy = toy_from_json(json.dumps(
        {"eigenvalues": [[0.0, 0.5], 0.25], "observable": [1.0, [0.0, 2.0]]}))
    assert toy.eigenvalues[0] == 0.5j
    assert toy.observable[1] == 2.0j
    with pytest.raises(ParamsError):
        toy_from_json(json.dumps({"observable": [1.0]}))
    with pytest.raises(ParamsError):
        toy_from_json(json.dumps({"eigenvalues": [0.5]}))
    with pytest.raises(ParamsError):
        toy_from_json(json.dumps(
            {"kernel_row": [0.6, 0.4], "observable": [0.0, 1.0], "dim": 3}))


@pytest.mark.parametrize("key,value,details", [
    ("kernel_row", [True, 0.0], {"key": "kernel_row", "index": 0}),
    ("kernel_row", 1.0, {"key": "kernel_row"}),        # no scalar wrapping
    ("observable", [0.0, [True, False]], {"key": "observable", "index": 1}),
    ("dim", 2.0, {"key": "dim"}),
    ("dim", True, {"key": "dim"}),
])
def test_toy_spec_entries_are_not_cast(key, value, details):
    spec = {"kernel_row": [0.6, 0.4], "observable": [0.0, 1.0], key: value}
    with pytest.raises(ParamsError) as info:
        toy_from_json(json.dumps(spec))
    assert info.value.details == details


# -- square-root application -----------------------------------------------

def test_sqrt_apply_nilpotent_is_exact():
    toy = SpectralToy([0.0, 0.0], [1.0, -2.0])
    res = sqrt_apply(toy, 3)
    assert res.error == 0.0
    assert np.array_equal(res.series, res.direct)


def test_sqrt_apply_error_decreases_dyadically():
    toy = SpectralToy([0.9, -1.0, 0.5j], [1.0, 1.0, 1.0])
    errs = [sqrt_apply(toy, m).error for m in (4, 16, 64, 256, 1024)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert np.allclose(sqrt_apply(toy, 8).direct[1], math.sqrt(2.0))


@pytest.mark.parametrize("dim", [8, 1000])
def test_sqrt_apply_series_matches_the_out_of_place_loop(dim):
    # the in-place Horner step does the same operations in the same order
    toy = random_circulant_toy(dim, 3)
    a = binom_coeffs(1024)
    acc = np.zeros_like(toy.eigenvalues)
    for j in range(1023, -1, -1):
        acc = (acc + a[j]) * toy.eigenvalues
    want = toy.observable * (1.0 - acc)
    assert sqrt_apply(toy, 1024).series.tobytes() == want.tobytes()


def test_sqrt_apply_accuracy_at_gap():
    # min |1 - lambda| = 0.1: series converges like (0.9)^m / sqrt(m)
    toy = SpectralToy([0.9, 0.5, -0.9], [1.0, 2.0, 1.0])
    assert sqrt_apply(toy, 10_000).error < 1e-6
    with pytest.raises(ParamsError):
        sqrt_apply(toy, 0)


# -- condition sweeps ------------------------------------------------------

def test_evaluate_conditions_against_loop():
    # at dimension 4097 a chunk holds 31 steps, less than a dyadic block
    for dim in (6, 4097):
        toy = gap_toy(3, dim=dim)
        n_max = 64
        rep = evaluate_conditions(toy, n_max)
        lam, g = toy.eigenvalues, toy.observable
        gden = np.where(np.abs(lam - 1.0) <= 1e-14, 0.0,
                        g / np.where(np.abs(lam - 1.0) <= 1e-14, 1.0,
                                     1.0 - lam))
        acc2 = np.zeros_like(lam)
        acck = np.zeros_like(lam)
        acc3 = 0.0
        acc7 = 0.0
        at = {}
        for n in range(1, n_max + 1):
            sn = gden * (1.0 - lam ** n)
            acc2 += sn / n ** 1.5
            acck += g * lam ** n / math.sqrt(n)
            acc3 += float(np.linalg.norm(sn)) / n ** 1.5
            acc7 += float(np.linalg.norm(sn)) ** 2 / n ** 2
            if n & (n - 1) == 0 and n > 1:
                at[n] = (np.linalg.norm(sn), np.linalg.norm(acc2), acc3,
                         acc7, np.linalg.norm(acck) / math.sqrt(n))
        for i, n in enumerate(rep.ns):
            norm, s2, s3, r7, kron = at[int(n)]
            assert rep.norm_sn[i] == pytest.approx(norm, rel=1e-10)
            assert rep.sum2_partial[i] == pytest.approx(s2, rel=1e-10)
            assert rep.sum3_partial[i] == pytest.approx(s3, rel=1e-10)
            assert rep.remark7_partial[i] == pytest.approx(r7, rel=1e-10)
            assert rep.kronecker[i] == pytest.approx(kron, rel=1e-9,
                                                     abs=1e-12)


def test_conditions_converge_for_gap_toy():
    rep = evaluate_conditions(gap_toy(7), 1 << 14)
    # with a uniform spectral gap everything settles
    assert rep.norm_sn[-1] == pytest.approx(rep.norm_sn[-2], rel=1e-6)
    assert rep.sum3_partial[-1] == pytest.approx(rep.sum3_partial[-2],
                                                 rel=5e-3)
    # ... and the per-block increments themselves taper off
    incs = np.diff(rep.sum3_partial)
    assert np.all(incs[-4:] > 0.0)
    assert np.all(np.diff(incs[-4:]) < 0.0)
    # norm_Sn is flat here, so rate5 decays like log(n)/sqrt(n) and the
    # averaged power sum like 1/sqrt(n)
    assert rep.rate5[-1] < 0.2 * rep.rate5[0]
    assert rep.kronecker[-1] < 0.05 * rep.kronecker[0]
    assert rep.correspondence > 0.0
    assert rep.q == 2.0
    body = rep.to_csv()
    assert body.startswith("n,norm_Sn,sum3_partial,rate5,rate6_q,"
                           "remark7_partial")
    assert len(body.strip().split("\n")) == rep.ns.size + 1


def test_work_arrays_stay_within_one_tile():
    # the sweep's chunks and the identity checks' column slices hold at
    # most 2^17 complex elements (2 MB) each, so every peak stays a few
    # MB whatever the dimension: against 112, 385 and 515 MB when the
    # sweep took whole dyadic blocks and the checks held every partial
    # sum at once
    small, wide = gap_toy(0, dim=1024), gap_toy(0, dim=1 << 16)
    for run in (lambda: evaluate_conditions(small, 1 << 12),
                lambda: rn_identity_check(wide, 64),
                lambda: rn_telescoping_check(wide, 64)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20


def test_evaluate_conditions_guards():
    toy = gap_toy(1, dim=64)
    with pytest.raises(WorkBudgetError):
        evaluate_conditions(toy, 1 << 24)
    with pytest.raises(ParamsError):
        evaluate_conditions(toy, 1)


# -- identity checks -------------------------------------------------------

@given(st.integers(0, 40))
def test_identities_hold_on_random_toys(seed):
    toy = random_circulant_toy(8 + (seed % 5), seed)
    n = 3 + (seed % 17)
    assert rn_identity_check(toy, n) <= 1e-10
    assert rn_telescoping_check(toy, n) <= 1e-10


def test_identities_with_explicit_tail():
    toy = gap_toy(11)
    assert rn_telescoping_check(toy, 12, n_tail=300) <= 1e-10
    assert rn_telescoping_check(toy, 12, n_tail=12) <= 1e-10


# at n = 64 the identity check's last column slice of 1025 and 8193
# eigenvalues holds one column, as the telescoping check's does at 1017
@pytest.mark.parametrize("dim,n", [(2, 17), (24, 3), (24, 17), (1017, 64),
                                   (1025, 64), (8193, 64)])
def test_sliced_identity_checks_keep_the_whole_matrix_bits(dim, n):
    # the explicit toy's last eigenvalue carries every maximum, so a
    # changed rounding in its column moves the residual
    rng = np.random.default_rng(dim + n)
    lam = 0.9 * np.exp(2j * np.pi * rng.random(dim))
    obs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    obs[-1] *= 1e3
    for toy in (SpectralToy(lam, obs), random_circulant_toy(dim, n)):
        assert rn_identity_check(toy, n) == ref.rn_identity_check(toy, n)
        for n_tail in (None, 300, n):
            assert (rn_telescoping_check(toy, n, n_tail)
                    == ref.rn_telescoping_check(toy, n, n_tail))


def test_identity_validation():
    toy = gap_toy(2)
    with pytest.raises(ParamsError):
        rn_identity_check(toy, 1)
    with pytest.raises(ParamsError):
        rn_telescoping_check(toy, 2)
    with pytest.raises(ParamsError):
        rn_telescoping_check(toy, 5, n_tail=4)
    with pytest.raises(WorkBudgetError):
        rn_identity_check(gap_toy(0, dim=256), 1 << 21)
