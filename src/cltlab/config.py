"""Parameter serialization: flat key=value text and JSON.

Flat format, one ``key = value`` pair per line:

* ``#`` starts a comment; blank lines are ignored.
* integers are decimal and round-trip bit-exactly;
* reals use Python's shortest round-tripping repr (<= 17 significant
  digits), so save -> load -> save is byte-stable;
* lists are comma-separated scalars; booleans are ``true``/``false``;
* bare words are strings.

Only the defining data is stored (mode, kmax, c, targets, block ranges);
derived quantities such as block masses and horizons are recomputed on
load, which keeps files small even when horizons have millions of digits.

``json_ready`` turns run results into strict JSON values for every
artifact writer.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum

import numpy as np

from .blocks import (BlockSpec, MassTarget, SequenceParams, TargetKind,
                     parity_of)
from .errors import ParamsError
from .weights import WeightMode, build_weights

SCHEMA_VERSION = 1


def _scalar_to_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float, str)):
        return repr(v) if isinstance(v, float) else str(v)
    raise TypeError(f"unsupported scalar {type(v)!r}")


def _scalar_from_text(s: str):
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def encode_flat(entries: dict) -> str:
    lines = []
    for key, v in entries.items():
        if v is None:
            continue
        if isinstance(v, (list, tuple)):
            body = ",".join(_scalar_to_text(x) for x in v)
        else:
            body = _scalar_to_text(v)
        lines.append(f"{key} = {body}")
    return "\n".join(lines) + "\n"


def decode_flat(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsError("malformed config line", line=lineno, text=raw)
        key, _, body = line.partition("=")
        body = body.strip()
        if "," in body:
            out[key.strip()] = [_scalar_from_text(p.strip())
                                for p in body.split(",")]
        else:
            out[key.strip()] = _scalar_from_text(body)
    return out


def params_to_dict(params: SequenceParams) -> dict:
    d = {
        "schema": SCHEMA_VERSION,
        "kmax": params.kmax,
        "weight_mode": params.weights.mode.value,
    }
    if params.weights.decay is not None:
        d["c"] = [float(x) for x in params.weights.decay]
    t = params.mass_target
    if t is not None:
        d["target_kind"] = t.kind.value
        d["target_tolerance"] = t.tolerance
        if t.kind is TargetKind.GEOMETRIC:
            d["target_rho"] = t.rho
        elif t.kind is TargetKind.EXPLICIT:
            d["target_explicit"] = list(t.explicit)
    d["block_k_lo"] = [b.k_lo for b in params.blocks]
    d["block_k_hi"] = [b.k_hi for b in params.blocks]
    d["block_target"] = [b.target for b in params.blocks]
    d["block_complete"] = [b.complete for b in params.blocks]
    return d


def _entry(d: dict, key: str, convert, *default):
    """``convert(d[key])``, or ``default`` when given and the key is
    absent; a missing or unreadable entry raises ``ParamsError``."""
    if default and key not in d:
        return default[0]
    try:
        return convert(d[key])
    except ParamsError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsError("params entry missing or malformed",
                          key=key) from exc


def params_from_dict(d: dict) -> SequenceParams:
    if not isinstance(d, dict):
        raise ParamsError("params must be a mapping of keys to values")
    if d.get("schema") != SCHEMA_VERSION:
        raise ParamsError("unknown config schema", schema=d.get("schema"))

    def each(cast):
        return lambda v: [cast(x) for x in (v if isinstance(v, list)
                                            else [v])]

    mode = _entry(d, "weight_mode", WeightMode)
    c = _entry(d, "c", each(float), None)
    weights = build_weights(mode, _entry(d, "kmax", int), c=c)
    target = None
    kind = _entry(d, "target_kind", TargetKind, None)
    if kind is not None:
        tol = _entry(d, "target_tolerance", float, 1.0)
        if kind is TargetKind.GEOMETRIC:
            target = MassTarget.geometric(_entry(d, "target_rho", float), tol)
        elif kind is TargetKind.EXPLICIT:
            target = MassTarget.explicit_targets(
                _entry(d, "target_explicit", each(float)), tol)
        else:
            target = MassTarget.double_exp(tol)
    los = _entry(d, "block_k_lo", each(int))
    his = _entry(d, "block_k_hi", each(int))
    targets = _entry(d, "block_target", each(float))
    completes = _entry(d, "block_complete", each(bool))
    if not len(los) == len(his) == len(targets) == len(completes):
        raise ParamsError("block arrays must share one length")
    blocks = []
    for i, (lo, hi) in enumerate(zip(los, his)):
        l = i + 1
        blocks.append(BlockSpec(l, lo, hi, weights.mass(lo, hi),
                                parity_of(l), targets[i], completes[i]))
    return SequenceParams(weights, tuple(blocks), mass_target=target)


def params_to_text(params: SequenceParams) -> str:
    return encode_flat(params_to_dict(params))


def params_from_text(text: str) -> SequenceParams:
    return params_from_dict(decode_flat(text))


def params_to_json(params: SequenceParams) -> str:
    return json.dumps(params_to_dict(params), indent=2) + "\n"


def params_from_json(text: str) -> SequenceParams:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamsError("params file is not valid JSON", line=exc.lineno,
                          column=exc.colno) from exc
    return params_from_dict(d)


def save_params(params: SequenceParams, path) -> None:
    text = (params_to_json(params) if str(path).endswith(".json")
            else params_to_text(params))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_input(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParamsError("input file is not UTF-8 text", path=str(path),
                          byte=exc.start) from exc


def load_params(path) -> SequenceParams:
    text = read_input(path)
    if str(path).endswith(".json"):
        return params_from_json(text)
    return params_from_text(text)


def json_ready(obj):
    """Plain JSON values: enums by value, dataclasses as dicts, keys as
    str, non-finite floats as None, huge ints as "~2^e"."""
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int) and obj.bit_length() > 512:
        # digit counts beyond the json/str conversion limit
        return "~2^%d" % (obj.bit_length() - 1)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj
