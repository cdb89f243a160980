"""Parameter serialization: one JSON format, read with exact types.

``save_params`` and ``load_params`` write and read JSON whatever the
file's suffix; text that is not JSON is refused with its line and
column.  Reals are written as Python's shortest round-tripping repr, so
save -> load -> save is byte-stable.  Each entry must hold its own JSON
type and is never cast: an integer entry takes an integer (not
``true``), a real a number (not NaN), a flag ``true`` or ``false``, and
a list entry a list; anything else raises ``ParamsError`` naming the
key.  So does an entry the file does not read: an unknown key, a decay
``c`` outside the ADAPTED mode, or a ``target_*`` entry that the file's
``target_kind`` does not read (any of them without a ``target_kind``).

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

from .blocks import BlockSpec, MassTarget, SequenceParams, TargetKind
from .errors import ParamsError
from .weights import WeightMode, build_weights

SCHEMA_VERSION = 1


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


def _exact(*types):
    # type(), not isinstance: JSON true is a Python int, and no integer
    def read(v):
        if type(v) not in types or v != v:        # NaN is no number
            raise TypeError("entry of another JSON type")
        return float(v) if float in types else v
    return read


def _list_of(read):
    return lambda v: [read(x) for x in _exact(list)(v)]


_integer, _real, _flag = _exact(int), _exact(int, float), _exact(bool)


def _entry(d: dict, key: str, read, *default):
    """``read`` of the entry popped from ``d``, or ``default`` when given
    and the key is absent; a missing entry, or one of another JSON type,
    raises ``ParamsError``."""
    if default and key not in d:
        return default[0]
    try:
        return read(d.pop(key))
    except ParamsError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParamsError("params entry missing or malformed",
                          key=key) from exc


def params_from_dict(d: dict) -> SequenceParams:
    if not isinstance(d, dict):
        raise ParamsError("params must be a mapping of keys to values")
    d = dict(d)         # each entry is popped as it is read
    schema = d.pop("schema", None)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ParamsError("unknown config schema", schema=schema)
    mode = _entry(d, "weight_mode", WeightMode)
    # only an ADAPTED schedule reads its decay
    c = (_entry(d, "c", _list_of(_real), None)
         if mode is WeightMode.ADAPTED else None)
    weights = build_weights(mode, _entry(d, "kmax", _integer), c=c)
    target = None
    kind = _entry(d, "target_kind", TargetKind, None)
    if kind is not None:
        tol = _entry(d, "target_tolerance", _real, 1.0)
        if kind is TargetKind.GEOMETRIC:
            target = MassTarget.geometric(_entry(d, "target_rho", _real), tol)
        elif kind is TargetKind.EXPLICIT:
            target = MassTarget.explicit_targets(
                _entry(d, "target_explicit", _list_of(_real)), tol)
        else:
            target = MassTarget.double_exp(tol)
    los = _entry(d, "block_k_lo", _list_of(_integer))
    his = _entry(d, "block_k_hi", _list_of(_integer))
    targets = _entry(d, "block_target", _list_of(_real))
    completes = _entry(d, "block_complete", _list_of(_flag))
    if not len(los) == len(his) == len(targets) == len(completes):
        raise ParamsError("block arrays must share one length")
    if d:
        raise ParamsError("params entry unknown or not read by this "
                          "schedule", key=next(iter(d)))
    blocks = map(BlockSpec, range(1, len(los) + 1), los, his,
                 map(weights.mass, los, his), targets, completes)
    return SequenceParams(weights, tuple(blocks), mass_target=target)


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
    """Write ``params`` to ``path`` as JSON, whatever its suffix."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(params_to_json(params))


def read_input(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParamsError("input file is not UTF-8 text", path=str(path),
                          byte=exc.start) from exc


def load_params(path) -> SequenceParams:
    """Read a JSON parameter file, whatever its suffix."""
    return params_from_json(read_input(path))


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
