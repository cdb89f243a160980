import json

import pytest

from cltlab.blocks import MassTarget, SequenceParams, default_params, \
    split_blocks
from cltlab.config import (load_params, params_from_dict, params_from_json,
                           params_to_dict, params_to_json, save_params)
from cltlab.errors import ParamsError
from cltlab.weights import WeightMode, build_weights

import numpy as np


def roundtrip(params):
    return params_from_json(params_to_json(params))


def all_modes():
    return [
        default_params(kmax=20, rho=4.0),
        default_params(kmax=64, rho=3.0, mode=WeightMode.INV_LOG),
        default_params(kmax=40, rho=2.0, mode=WeightMode.ADAPTED,
                       c=np.ldexp(1.0, -np.arange(1, 41))),
    ]


def assert_same(a, b):
    assert a.weights.mode == b.weights.mode
    assert a.kmax == b.kmax
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert (x.index, x.k_lo, x.k_hi, x.parity, x.complete) == \
            (y.index, y.k_lo, y.k_hi, y.parity, y.complete)
        assert x.mass == y.mass          # recomputed, must be bit-equal
    if a.weights.values is not None:
        assert np.array_equal(a.weights.values, b.weights.values)


def test_json_roundtrip_is_byte_stable(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for params in all_modes():
        save_params(params, first)
        back = load_params(first)
        save_params(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert_same(params, back)


def test_roundtrip_all_modes():
    for params in all_modes():
        assert_same(params, roundtrip(params))
        assert_same(params, params_from_dict(params_to_dict(params)))


def test_astronomic_params_stay_small_on_disk():
    params = default_params(kmax=40_000_000, rho=4.0)
    text = params_to_json(params)
    assert len(text) < 1000
    back = params_from_json(text)
    assert_same(params, back)
    assert back.blocks[1].k_hi == 37_605_530


def test_explicit_target_roundtrip():
    w = build_weights(WeightMode.CONST_ONE, 12)
    target = MassTarget.explicit_targets([1.0, 2.0], tolerance=0.5)
    params = SequenceParams(w, split_blocks(w, [4, 12]), mass_target=target)
    back = roundtrip(params)
    assert back.mass_target.explicit == (1.0, 2.0)
    assert back.mass_target.tolerance == 0.5


def test_save_load_files(tmp_path):
    # the suffix chooses no codec: p.txt holds JSON as well
    params = default_params(kmax=64, rho=3.0, mode=WeightMode.INV_LOG)
    for name in ("p.txt", "p.json"):
        path = tmp_path / name
        save_params(params, path)
        json.loads(path.read_text())      # valid strict json
        assert_same(params, load_params(path))
    assert (tmp_path / "p.txt").read_bytes() == \
        (tmp_path / "p.json").read_bytes()


def test_unknown_schema_rejected():
    d = params_to_dict(default_params(kmax=12, rho=2.0))
    # true == 1 in Python, but it is no JSON integer
    for schema in (99, True, 1.0):
        with pytest.raises(ParamsError, match="unknown config schema"):
            params_from_json(json.dumps(dict(d, schema=schema)))


@pytest.mark.parametrize("key,value", [
    ("kmax", 20.9), ("kmax", True), ("kmax", "20"),
    ("block_complete", ["false", "false"]), ("block_complete", [1, 0]),
    ("block_k_lo", 1), ("block_k_hi", [11.0, 20]), ("block_target", "4"),
    ("target_rho", True), ("target_tolerance", float("nan")),
])
def test_entries_keep_their_json_types(key, value):
    d = params_to_dict(default_params(kmax=20))
    d[key] = value
    with pytest.raises(ParamsError) as info:
        params_from_json(json.dumps(d))
    assert info.value.args[0] == "params entry missing or malformed"
    assert info.value.details == {"key": key}


def test_reals_take_json_integers():
    d = params_to_dict(default_params(kmax=20, rho=4.0))
    d.update(target_rho=4, target_tolerance=1, block_target=[4, 16])
    assert_same(default_params(kmax=20, rho=4.0),
                params_from_json(json.dumps(d)))


@pytest.mark.parametrize("drop,key", [
    (("target_kind",), "target_tolerance"),
    (("target_kind", "target_tolerance"), "target_rho"),
])
def test_target_entries_need_their_kind(drop, key):
    # without a target_kind no target entry is read, so each is refused
    d = params_to_dict(default_params(kmax=20))
    for k in drop:
        del d[k]
    with pytest.raises(ParamsError) as info:
        params_from_json(json.dumps(d))
    assert info.value.args[0] == ("params entry unknown or not read by "
                                  "this schedule")
    assert info.value.details == {"key": key}
