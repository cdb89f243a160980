import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cltlab.blocks import (BlockParity, MassTarget, SequenceParams,
                           TargetKind, default_params, parity_of,
                           split_blocks)
from cltlab.errors import ParamsError
from cltlab.weights import WeightMode, build_weights, harmonic


def test_parity_alternates():
    assert parity_of(1) is BlockParity.THREE_VALUED
    assert parity_of(2) is BlockParity.GAUSSIAN
    assert parity_of(3) is BlockParity.THREE_VALUED
    for l in range(1, 20):
        assert parity_of(l) is not parity_of(l + 1)


def test_mass_targets():
    g = MassTarget.geometric(4.0)
    assert g.kind is TargetKind.GEOMETRIC
    assert g.target(1) == 4.0 and g.target(3) == 64.0
    d = MassTarget.double_exp()
    assert d.target(1) == 4.0 and d.target(2) == 16.0 and d.target(3) == 256.0
    e = MassTarget.explicit_targets([1.5, 2.5])
    assert e.target(2) == 2.5
    assert e.target(3) == math.inf   # past the list no block can complete


def test_default_params_desk_structure():
    params = default_params(kmax=20, rho=4.0)
    blocks = params.blocks
    assert len(blocks) == 2
    b1, b2 = blocks
    assert b1.parity is BlockParity.THREE_VALUED and b1.complete
    assert (b1.k_lo, b1.k_hi) == (1, 11)
    assert b1.mass == pytest.approx(harmonic(11), rel=1e-14)
    assert b2.parity is BlockParity.GAUSSIAN and not b2.complete
    assert (b2.k_lo, b2.k_hi) == (12, 20)
    assert params.kmax == 20


def test_default_params_astronomic_structure():
    params = default_params(kmax=40_000_000, rho=4.0)
    b1, b2, b3 = params.blocks
    assert (b1.k_lo, b1.k_hi, b1.complete) == (1, 11, True)
    assert (b2.k_lo, b2.k_hi, b2.complete) == (12, 37_605_530, True)
    assert b2.parity is BlockParity.GAUSSIAN
    assert b2.mass == pytest.approx(15.0, abs=1e-6)
    assert not b3.complete and b3.k_hi == 40_000_000
    assert [b.index for b in params.blocks] == [1, 2, 3]


def test_greedy_blocks_are_minimal():
    params = default_params(kmax=3000, rho=2.0)
    w = params.weights
    for b in params.complete_blocks():
        threshold = b.target - params.mass_target.tolerance
        assert b.mass >= threshold
        # dropping the top scale must fall below the threshold
        if b.k_hi > b.k_lo:
            assert w.mass(b.k_lo, b.k_hi - 1) < threshold


def test_block_scale_helpers():
    params = default_params(kmax=20, rho=4.0)
    b1 = params.blocks[0]
    assert b1.horizon_log2 == 11
    assert b1.horizon == 2048
    assert b1.hit_prob_log2 == -11
    assert params.block_of_scale(5) is b1
    assert params.block_of_scale(12) is params.blocks[1]
    with pytest.raises(KeyError):
        params.block_of_scale(21)


def test_split_blocks_and_validation():
    w = build_weights(WeightMode.CONST_ONE, 10)
    blocks = split_blocks(w, [4, 7, 10])
    assert [(b.k_lo, b.k_hi) for b in blocks] == [(1, 4), (5, 7), (8, 10)]
    assert all(b.complete for b in blocks)
    assert blocks[1].parity is BlockParity.GAUSSIAN
    params = SequenceParams(w, blocks)
    assert params.kmax == 10
    with pytest.raises(ParamsError):
        split_blocks(w, [4, 7])        # must end at kmax
    with pytest.raises(ParamsError):
        split_blocks(w, [7, 4, 10])    # must increase
    with pytest.raises(ParamsError):
        split_blocks(w, [])


def test_sequence_params_rejects_bad_partitions():
    w = build_weights(WeightMode.CONST_ONE, 10)
    good = split_blocks(w, [4, 10])
    # gap between blocks
    broken = (good[0], good[1].__class__(
        index=2, k_lo=6, k_hi=10, mass=1.0, parity=BlockParity.GAUSSIAN,
        target=good[1].target, complete=True))
    with pytest.raises(ParamsError):
        SequenceParams(w, broken)
    # wrong parity for the index
    flipped = (good[0].__class__(
        index=1, k_lo=1, k_hi=4, mass=good[0].mass,
        parity=BlockParity.GAUSSIAN, target=good[0].target, complete=True),
        good[1])
    with pytest.raises(ParamsError):
        SequenceParams(w, flipped)


@given(st.integers(8, 400), st.floats(1.5, 8.0))
def test_default_params_partition_invariants(kmax, rho):
    assume(harmonic(kmax) >= rho - 1.0 + 1e-9)   # first block must close
    params = default_params(kmax=kmax, rho=rho)
    blocks = params.blocks
    assert blocks[0].k_lo == 1
    assert blocks[-1].k_hi == kmax
    for a, b in zip(blocks, blocks[1:]):
        assert b.k_lo == a.k_hi + 1
        assert b.index == a.index + 1
    for b in blocks:
        assert b.parity is parity_of(b.index)
        assert b.mass == pytest.approx(
            params.weights.mass(b.k_lo, b.k_hi), rel=1e-12)
    assert all(b.complete for b in blocks[:-1])
