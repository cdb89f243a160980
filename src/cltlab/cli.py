"""Batch experiment runner with deterministic artifacts.

Each preset wires existing library operations together -- closed-form
moment tables, trend checks, slow-weight schedules, Monte Carlo
dichotomy reports, spectral sweeps -- and writes their CSV/JSON output
under one directory.  The runner adds no numerics of its own: every row
of every artifact comes from a library call, and identical
configurations produce byte-identical artifacts (the timestamp header
is suppressible with --no-timestamp).

Exit codes: 0 success; 2 invalid configuration (machine-readable error
JSON on stdout); 3 a work/memory budget or law-realization limit was
hit; 4 the run completed but the dichotomy verdict was INCONCLUSIVE,
kept distinct so CI can tell statistical indecision from failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .blocks import SequenceParams, default_params
from .config import load_params, params_to_dict
from .engine import Condition, ExactMoments, dyadic_grid, format_csv
from .errors import (MemoryBudgetError, ParamsError, TruncationError,
                     WorkBudgetError)
from .laws import DichotomyVerdict, dichotomy_report, format_ks_csv
from .spectral import (evaluate_conditions, random_circulant_toy,
                       rn_identity_check, rn_telescoping_check, sqrt_apply,
                       toy_from_json)
from .weights import WeightMode, weighted_prefix

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4


class Scenario(Enum):
    THEOREM1 = "THEOREM1"
    THEOREM2 = "THEOREM2"
    THEOREM3 = "THEOREM3"
    CONDITIONS = "CONDITIONS"
    SPECTRAL = "SPECTRAL"
    CUSTOM = "CUSTOM"


_MODE_BY_FLAG = {
    "const": WeightMode.CONST_ONE,
    "invlog": WeightMode.INV_LOG,
    "theorem2": WeightMode.ADAPTED,
}

# Presets pin their weight mode; only the generic scenarios take --a-mode.
_FORCED_MODE = {
    Scenario.THEOREM1: "const",
    Scenario.THEOREM2: "theorem2",
    Scenario.THEOREM3: "invlog",
}

# Constant weights keep closed forms at any depth, so the first preset can
# afford two genuinely complete blocks; slow weights accumulate mass so
# slowly that completing even one block already needs millions of scales.
_DEFAULT_KMAX = {
    Scenario.THEOREM1: 40_000_000,
    Scenario.THEOREM2: 1024,
    Scenario.THEOREM3: 1 << 22,
    Scenario.CONDITIONS: 24,
    Scenario.SPECTRAL: 8,          # reused as the toy dimension
    Scenario.CUSTOM: 20,
}

_SCENARIO_CONDITIONS = {
    Scenario.THEOREM1: (Condition.TAIL_SERIES,),
    Scenario.THEOREM2: (Condition.WEIGHTED_NORM_SERIES,),
    Scenario.THEOREM3: (Condition.LOG_RATE,),
    Scenario.CONDITIONS: tuple(Condition),
    Scenario.CUSTOM: tuple(Condition),
}


def _parse_grid(text: str) -> tuple[int, int]:
    parts = str(text).split(":")
    if len(parts) != 3 or parts[0] != "dyadic":
        raise ParamsError("grid must look like dyadic:<lo>:<hi>", grid=text)
    try:
        lo, hi = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParamsError("grid bounds must be integers", grid=text)
    if lo < 1 or hi < lo or hi > 62:
        raise ParamsError("grid exponents must satisfy 1 <= lo <= hi <= 62",
                          grid=text)
    return lo, hi


@dataclass
class ExperimentConfig:
    """One fully-specified run; serialized verbatim into every artifact."""

    scenario: Scenario
    kmax: int
    a_mode: str = "const"
    c_file: str | None = None
    rho: float = 4.0
    samples: int = 100_000
    seed: int = 0
    grid: tuple[int, int] = (4, 16)
    out: str = "cltlab-out"
    no_timestamp: bool = False
    params_file: str | None = None
    toy_file: str | None = None

    def to_dict(self) -> dict:
        d = {
            "scenario": self.scenario.value,
            "kmax": self.kmax,
            "a_mode": self.a_mode,
            "rho": self.rho,
            "samples": self.samples,
            "seed": self.seed,
            "grid": "dyadic:%d:%d" % self.grid,
            "out": self.out,
            "no_timestamp": self.no_timestamp,
        }
        for key in ("c_file", "params_file", "toy_file"):
            v = getattr(self, key)
            if v is not None:
                d[key] = str(v)
        return d

    def header_line(self) -> str:
        return "# config: " + json.dumps(self.to_dict(), sort_keys=True)

    def validate(self) -> None:
        if self.kmax < 1:
            raise ParamsError("kmax must be >= 1", kmax=self.kmax)
        if self.samples < 0:
            raise ParamsError("samples must be >= 0", samples=self.samples)
        if self.seed < 0:
            raise ParamsError("seed must be >= 0", seed=self.seed)
        if not self.rho > 1.0:
            raise ParamsError("rho must exceed 1", rho=self.rho)
        if self.a_mode not in _MODE_BY_FLAG:
            raise ParamsError("unknown weight mode flag", a_mode=self.a_mode)
        forced = _FORCED_MODE.get(self.scenario)
        if forced is not None and self.a_mode != forced:
            raise ParamsError("this preset pins its weight mode",
                              scenario=self.scenario.value, pinned=forced,
                              requested=self.a_mode)
        for key in ("c_file", "params_file", "toy_file"):
            v = getattr(self, key)
            if v is not None and not Path(v).is_file():
                raise ParamsError("input file not found", **{key: str(v)})


# ---------------------------------------------------------------------------
# Input construction

def _load_decay(path: str, kmax: int) -> np.ndarray:
    """Decay sequence file: floats separated by whitespace/commas; # comments."""
    text = Path(path).read_text(encoding="utf-8")
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = [t for t in re.split(r"[\s,]+", body) if t]
    try:
        values = np.asarray([float(t) for t in tokens])
    except ValueError as exc:
        raise ParamsError("decay file holds a non-numeric token",
                          path=str(path)) from exc
    if values.size < kmax:
        raise ParamsError("decay file shorter than kmax",
                          path=str(path), have=int(values.size), need=kmax)
    return values[:kmax]


def _default_decay(kmax: int) -> np.ndarray:
    if kmax > 1074:
        raise ParamsError("built-in halving decay underflows past k=1074; "
                          "supply --c-file", kmax=kmax)
    return np.ldexp(1.0, -np.arange(1, kmax + 1))


def _resolve_decay(cfg: ExperimentConfig) -> np.ndarray | None:
    if cfg.c_file is not None:
        return _load_decay(cfg.c_file, cfg.kmax)
    if _MODE_BY_FLAG[cfg.a_mode] is WeightMode.ADAPTED:
        return _default_decay(cfg.kmax)
    return None


def _build_params(cfg: ExperimentConfig,
                  decay: np.ndarray | None) -> SequenceParams:
    if cfg.params_file is not None:
        return load_params(cfg.params_file)
    mode = _MODE_BY_FLAG[cfg.a_mode]
    c = decay if mode is WeightMode.ADAPTED else None
    return default_params(kmax=cfg.kmax, rho=cfg.rho, mode=mode, c=c)


def _c_lookup(c: np.ndarray):
    """Index the decay sequence by step count, extending by its last value.

    The sequence is nonincreasing, so constant extension only overstates
    the weighted series -- a conservative reading for plateau checks.
    """
    def fn(n):
        return float(c[min(int(n), c.size) - 1])
    return fn


# ---------------------------------------------------------------------------
# JSON plumbing

def _json_ready(obj):
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_ready(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
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


def _emit_error(exc: Exception) -> None:
    details = {}
    if isinstance(exc, ParamsError):
        details = exc.details
    elif isinstance(exc, WorkBudgetError):
        details = {"estimated_ops": exc.estimated_ops, "budget": exc.budget}
    elif isinstance(exc, MemoryBudgetError):
        details = {"estimated_bytes": exc.estimated_bytes,
                   "budget": exc.budget}
    elif isinstance(exc, TruncationError):
        details = {"achieved_mass": exc.achieved_mass,
                   "target_mass": exc.target_mass}
    payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "details": _json_ready(details)}}
    print(json.dumps(payload, sort_keys=True, default=str))


def _with_header(cfg: ExperimentConfig, body: str) -> str:
    lines = [cfg.header_line()]
    if not cfg.no_timestamp:
        lines.append("# generated: "
                     + datetime.now(timezone.utc).isoformat(timespec="seconds"))
    return "\n".join(lines) + "\n" + body


# ---------------------------------------------------------------------------
# Scenario bodies

def _schedule_csv(params: SequenceParams, decay: np.ndarray) -> str:
    """Per-scale table of the slow schedule and both mass partial sums."""
    w = params.weights
    ks = {1, w.kmax}
    ks.update(int(a) for a in (w.anchors or ()))
    e = 0
    while (1 << e) <= w.kmax:
        ks.add(1 << e)
        e += 1
    ks = sorted(ks)
    arr = np.asarray(ks, dtype=np.int64)
    a_vals = np.atleast_1d(w.a(arr))
    weighted = weighted_prefix(w, decay, arr)
    lines = ["k,c,a,weighted_partial_mass,partial_mass"]
    for i, k in enumerate(ks):
        lines.append("%d,%.17g,%.17g,%.17g,%.17g"
                     % (k, decay[k - 1], a_vals[i], weighted[i],
                        w.mass(1, k)))
    return "\n".join(lines) + "\n"


def _run_sequence(cfg: ExperimentConfig):
    decay = _resolve_decay(cfg)
    params = _build_params(cfg, decay)
    moments = ExactMoments(params)
    grid = dyadic_grid(*cfg.grid)
    artifacts = {
        "conditions.csv": _with_header(cfg,
                                       format_csv(moments.table_rows(grid))),
    }
    checks = {}
    for cond in _SCENARIO_CONDITIONS[cfg.scenario]:
        try:
            if cond is Condition.WEIGHTED_NORM_SERIES:
                if decay is None:
                    checks[cond.value] = {"verdict": "SKIPPED",
                                          "note": "no decay sequence supplied"}
                    continue
                rep = moments.check_condition(cond, grid,
                                              c=_c_lookup(decay))
            else:
                rep = moments.check_condition(cond, grid)
        except WorkBudgetError as exc:
            checks[cond.value] = {"verdict": "BUDGET_EXCEEDED",
                                  "note": str(exc)}
            continue
        checks[rep.token] = {"verdict": rep.verdict.value,
                             "grid": rep.grid, "values": rep.values}
    verdicts = {"conditions": checks}
    code = EXIT_OK
    if cfg.samples > 0:
        rep = dichotomy_report(params, cfg.samples, cfg.seed,
                               moments=moments)
        artifacts["dichotomy.csv"] = _with_header(cfg, format_ks_csv(rep))
        verdicts["dichotomy"] = {
            "verdict": rep.verdict.value,
            "gap": rep.gap,
            "margin": rep.margin,
            "required_count_estimate": rep.required_count_estimate,
            "notes": list(rep.notes),
            "rows": [dataclasses.asdict(r) for r in rep.rows],
        }
        if rep.verdict is DichotomyVerdict.INCONCLUSIVE:
            code = EXIT_INCONCLUSIVE
    if cfg.scenario is Scenario.THEOREM2 and decay is not None:
        artifacts["schedule.csv"] = _with_header(
            cfg, _schedule_csv(params, decay))
    return artifacts, verdicts, code


def _build_toy(cfg: ExperimentConfig):
    if cfg.toy_file is not None:
        return toy_from_json(Path(cfg.toy_file).read_text(encoding="utf-8"))
    return random_circulant_toy(max(2, cfg.kmax), cfg.seed)


def _run_spectral(cfg: ExperimentConfig):
    toy = _build_toy(cfg)
    rep = evaluate_conditions(toy, 1 << cfg.grid[1])
    probe = sqrt_apply(toy, 1024)
    verdicts = {"spectral": {
        "dim": toy.dim,
        "q": rep.q,
        "correspondence": rep.correspondence,
        "identity_residual_n64": rn_identity_check(toy, 64),
        "telescoping_residual_n64": rn_telescoping_check(toy, 64),
        "sqrt_series_error_m1024": probe.error,
    }}
    artifacts = {"spectral.csv": _with_header(cfg, rep.to_csv())}
    return artifacts, verdicts, EXIT_OK


# ---------------------------------------------------------------------------
# Entry points

def run(cfg: ExperimentConfig) -> int:
    """Execute one configuration; write artifacts; return the exit code."""
    try:
        cfg.validate()
        if cfg.scenario is Scenario.SPECTRAL:
            artifacts, verdicts, code = _run_spectral(cfg)
        else:
            artifacts, verdicts, code = _run_sequence(cfg)
    except ParamsError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except (WorkBudgetError, MemoryBudgetError, TruncationError) as exc:
        _emit_error(exc)
        return EXIT_BUDGET

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"config": cfg.to_dict()}
    verdict_doc = dict(echo)
    verdict_doc.update(_json_ready(verdicts))
    if not cfg.no_timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        echo["generated"] = stamp
        verdict_doc["generated"] = stamp
    artifacts["config.json"] = json.dumps(echo, indent=2,
                                          sort_keys=True) + "\n"
    artifacts["verdict.json"] = json.dumps(verdict_doc, indent=2,
                                           sort_keys=True) + "\n"
    for name, text in artifacts.items():
        (out / name).write_text(text, encoding="utf-8")
    print(json.dumps({"exit": code, "out": str(out),
                      "artifacts": sorted(artifacts),
                      "scenario": cfg.scenario.value},
                     sort_keys=True))
    return code


def validate_only(cfg: ExperimentConfig) -> int:
    """Check the configuration and its derived inputs without running."""
    try:
        cfg.validate()
        if cfg.scenario is Scenario.SPECTRAL:
            toy = _build_toy(cfg)
            derived = {"dim": toy.dim, "tag": toy.tag.value}
        else:
            decay = _resolve_decay(cfg)
            params = _build_params(cfg, decay)
            derived = {
                "kmax": params.kmax,
                "blocks": [{
                    "index": b.index,
                    "parity": b.parity.value,
                    "k_lo": b.k_lo,
                    "k_hi": b.k_hi,
                    "complete": b.complete,
                    "mass": b.mass,
                } for b in params.blocks],
                "params": params_to_dict(params),
            }
    except ParamsError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except (WorkBudgetError, MemoryBudgetError, TruncationError) as exc:
        _emit_error(exc)
        return EXIT_BUDGET
    print(json.dumps({"valid": True, "config": cfg.to_dict(),
                      "derived": _json_ready(derived)},
                     sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltlab",
        description="Preset experiments over block-structured stationary "
                    "sums: moment tables, trend checks, dichotomy reports, "
                    "spectral sweeps.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kmax", type=int, default=None,
                        help="largest scale index (preset-specific default)")
    common.add_argument("--a-mode", dest="a_mode", default=None,
                        choices=sorted(_MODE_BY_FLAG),
                        help="weight schedule (presets pin theirs)")
    common.add_argument("--c-file", dest="c_file", default=None,
                        help="decay sequence file for slow schedules")
    common.add_argument("--rho", type=float, default=4.0,
                        help="geometric block-mass growth factor")
    common.add_argument("--samples", type=int, default=100_000,
                        help="Monte Carlo draws per horizon (0 disables)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--grid", default=None,
                        help="horizon grid, dyadic:<lo>:<hi> in exponents")
    common.add_argument("--out", default="cltlab-out",
                        help="artifact directory")
    common.add_argument("--no-timestamp", dest="no_timestamp",
                        action="store_true",
                        help="omit the generated-at header line")
    common.add_argument("--params-file", dest="params_file", default=None,
                        help="load the full parameter set from a saved file")
    common.add_argument("--toy-file", dest="toy_file", default=None,
                        help="spectral toy JSON spec")
    sub = parser.add_subparsers(dest="command", required=True)
    for sc in Scenario:
        sub.add_parser(sc.value.lower(), parents=[common],
                       help=f"run the {sc.value} preset")
    val = sub.add_parser("validate", parents=[common],
                         help="validate a configuration without running")
    val.add_argument("--scenario", default="custom",
                     choices=[s.value.lower() for s in Scenario])
    return parser


def config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    name = ns.scenario if ns.command == "validate" else ns.command
    scenario = Scenario(name.upper())
    a_mode = _FORCED_MODE.get(scenario) or (ns.a_mode or "const")
    if ns.a_mode is not None and scenario in _FORCED_MODE \
            and ns.a_mode != _FORCED_MODE[scenario]:
        raise ParamsError("this preset pins its weight mode",
                          scenario=scenario.value,
                          pinned=_FORCED_MODE[scenario],
                          requested=ns.a_mode)
    kmax = ns.kmax if ns.kmax is not None else _DEFAULT_KMAX[scenario]
    default_grid = (1, 16) if scenario is Scenario.SPECTRAL else (4, 16)
    grid = _parse_grid(ns.grid) if ns.grid is not None else default_grid
    return ExperimentConfig(
        scenario=scenario, kmax=kmax, a_mode=a_mode, c_file=ns.c_file,
        rho=ns.rho, samples=ns.samples, seed=ns.seed, grid=grid,
        out=ns.out, no_timestamp=ns.no_timestamp,
        params_file=ns.params_file, toy_file=ns.toy_file)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(ns)
    except ParamsError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    if ns.command == "validate":
        return validate_only(cfg)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
