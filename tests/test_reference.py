from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from cltlab.blocks import SequenceParams, split_blocks
from cltlab.errors import WorkBudgetError
from cltlab.weights import WeightMode, build_weights
from cltlab_reference import (RationalMoments, _open_uniforms, cond_weight,
                              count_pairs, exact_fraction)


def tiny_params(kmax=3, ends=(1, 3)):
    w = build_weights(WeightMode.CONST_ONE, kmax)
    return SequenceParams(w, split_blocks(w, list(ends)))


def test_exact_fraction():
    assert exact_fraction(0.5) == Fraction(1, 2)
    assert exact_fraction(3) == Fraction(3)
    assert exact_fraction(0.1) == Fraction(3602879701896397, 36028797018963968)


def test_count_pairs_hand_table():
    # n_k = 4, N = 6, worked out on paper
    table = {5: 1, 4: 2, 3: 3, 2: 4, 1: 4, 0: 4, -1: 3, -2: 2, -3: 1, -4: 0}
    for m, want in table.items():
        assert count_pairs(4, m, 6) == want
    assert count_pairs(4, 6, 6) == 0


def test_cond_weight_hand_table():
    for j in range(5):
        assert cond_weight(4, j, 6) == Fraction(4 - j, 4)
    assert cond_weight(4, 7, 6) == 0


def test_frozen_small_instance():
    params = tiny_params()
    want = {
        4: (Fraction(331, 144), Fraction(79, 16), Fraction(5, 4),
            Fraction(-25, 8), Fraction(59, 36)),
        8: (Fraction(269, 96), Fraction(1667, 144), Fraction(61, 36),
            Fraction(-57, 8), Fraction(269, 96)),
    }
    for N, (cond, sigma, b2, k4, iid) in want.items():
        rm = RationalMoments(params, N)
        assert rm.cond_norm_sq() == cond
        assert rm.sigma_sq() == sigma
        assert rm.b_sq() == b2
        assert rm.fourth_cumulant() == k4
        assert rm.iid_approx_error_sq() == iid


def test_variance_decomposition_is_exact():
    params = tiny_params()
    for N in (2, 3, 5, 8):
        rm = RationalMoments(params, N)
        total = rm.cond_norm_sq() + sum(
            (rm.proj_norm_sq(l) for l in range(1, N)), Fraction(0))
        assert total == rm.sigma_sq()
    assert rm.proj_norm_sq(0) == 0
    assert rm.proj_norm_sq(N) == 0


def test_tail_single_term_matches_cond_norm():
    params = tiny_params()
    for p in (2, 3, 4):
        rm_p = RationalMoments(params, p)
        scale = exact_fraction(float(p) ** -1.5)
        got = RationalMoments(params, 8).series_tail_norm_sq(p, p)
        assert got == rm_p.cond_norm_sq() * scale * scale


def test_frozen_tail_sum():
    rm = RationalMoments(tiny_params(), 8)
    assert rm.series_tail_norm_sq(2, 4) == Fraction(
        38717744438998718455769085976804225,
        46730671726813448656774466962980864)


def test_work_caps():
    w = build_weights(WeightMode.CONST_ONE, 12)
    params = SequenceParams(w, split_blocks(w, [1, 12]))
    with pytest.raises(WorkBudgetError):
        RationalMoments(params, 8)
    rm = RationalMoments(tiny_params(), 4)
    with pytest.raises(WorkBudgetError):
        rm.series_tail_norm_sq(2, 4096)
    with pytest.raises(ValueError):
        rm.series_tail_norm_sq(3, 2)


def test_open_uniforms_stay_inside_the_unit_interval():
    # random()'s extremes: 1 - 2^-53 plus the 2^-54 offset rounds to 1.0
    class Stub:
        def random(self, size):
            return np.resize([1.0 - 2.0 ** -53, 0.0], size)

    u = _open_uniforms(Stub(), 4)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(np.isfinite(ndtri(u)))
