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
import gc
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .blocks import SequenceParams, TargetKind, default_params
from .config import json_ready, load_params, params_to_dict, read_input
from .engine import Condition, ExactMoments, dyadic_grid, format_csv
from .errors import (DESK_N_CAP, MemoryBudgetError, ParamsError,
                     TruncationError, WorkBudgetError, charge, check_seed)
from .weights import WeightMode, check_decay, weighted_prefix

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
_FLAG_BY_MODE = {mode: flag for flag, mode in _MODE_BY_FLAG.items()}

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
    # the exact moment paths stop at the desk cap, 2^52
    top = DESK_N_CAP.bit_length() - 1
    if lo < 1 or hi < lo or hi > top:
        raise ParamsError(f"grid exponents must satisfy 1 <= lo <= hi <= "
                          f"{top}", grid=text)
    return lo, hi


@dataclass
class ExperimentConfig:
    """One fully-specified run; serialized verbatim into every artifact.

    A run with ``--params-file`` echoes the loaded schedule's ``kmax``,
    ``a_mode`` and ``rho`` (None without a geometric target), not the
    command line's; see ``_build_params``.
    """

    scenario: Scenario
    kmax: int
    a_mode: str
    c_file: str | None
    rho: float | None
    samples: int
    seed: int
    grid: tuple[int, int]
    out: str
    no_timestamp: bool
    params_file: str | None
    toy_file: str | None

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
        if self.scenario is not Scenario.SPECTRAL:
            # a run draws each horizon's samples as one float64 batch
            charge("sample_batch", 8 * self.samples)
        check_seed(self.seed)
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
        # the run makes --out with its parents, which needs the nearest
        # existing one to be a directory
        out = Path(self.out)
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise ParamsError("--out must be a directory or a path under "
                              "one", out=self.out)


# ---------------------------------------------------------------------------
# Input construction

def _load_decay(path: str, kmax: int) -> np.ndarray:
    """The first ``kmax`` values of a decay sequence file, which must pass
    ``check_decay``: floats separated by whitespace/commas; # comments."""
    text = read_input(path)
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
    return check_decay(values[:kmax], kmax)


def _default_decay(kmax: int) -> np.ndarray:
    if kmax > 1074:
        raise ParamsError("built-in halving decay underflows past k=1074; "
                          "supply --c-file", kmax=kmax)
    return np.ldexp(1.0, -np.arange(1, kmax + 1))


def _build_params(cfg: ExperimentConfig) -> tuple[
        ExperimentConfig, SequenceParams, np.ndarray | None]:
    """The configuration as run, its parameters, and the decay its
    weighted checks read: the ``--c-file`` sequence, else the schedule's
    own.  A loaded schedule sets the configuration's ``kmax``, ``a_mode``
    and ``rho``, and a preset refuses one of another mode than it pins."""
    params = None
    if cfg.params_file is not None:
        params = load_params(cfg.params_file)
        mode, target = params.weights.mode, params.mass_target
        if cfg.scenario in _FORCED_MODE and _FLAG_BY_MODE[mode] != cfg.a_mode:
            raise ParamsError("this preset pins its weight mode",
                              scenario=cfg.scenario.value, pinned=cfg.a_mode,
                              loaded=mode.value)
        geometric = target is not None and target.kind is TargetKind.GEOMETRIC
        cfg = dataclasses.replace(cfg, kmax=params.kmax,
                                  a_mode=_FLAG_BY_MODE[mode],
                                  rho=target.rho if geometric else None)
    decay = None if cfg.c_file is None else _load_decay(cfg.c_file,
                                                          cfg.kmax)
    if params is not None:
        return cfg, params, params.weights.decay if decay is None else decay
    mode = _MODE_BY_FLAG[cfg.a_mode]
    if mode is WeightMode.ADAPTED and decay is None:
        decay = _default_decay(cfg.kmax)
    # only an ADAPTED schedule reads its decay
    return cfg, default_params(kmax=cfg.kmax, rho=cfg.rho, mode=mode,
                               c=decay), decay


# ---------------------------------------------------------------------------
# Output plumbing

def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "details": json_ready(exc.details)}}
    print(json.dumps(payload, sort_keys=True, default=str))


def _with_header(cfg: ExperimentConfig, body: str, stamp: str | None) -> str:
    lines = [cfg.header_line()]
    if stamp is not None:
        lines.append("# generated: " + stamp)
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
    a_vals = w.a(arr)
    weighted = weighted_prefix(w, decay, arr)
    lines = ["k,c,a,weighted_partial_mass,partial_mass"]
    for i, k in enumerate(ks):
        lines.append("%d,%.17g,%.17g,%.17g,%.17g"
                     % (k, decay[k - 1], a_vals[i], weighted[i],
                        w.mass(1, k)))
    return "\n".join(lines) + "\n"


def _run_sequence(cfg: ExperimentConfig, params: SequenceParams,
                  decay: np.ndarray | None, stamp: str | None):
    moments = ExactMoments(params)
    grid = dyadic_grid(*cfg.grid)
    artifacts = {
        "conditions.csv": _with_header(
            cfg, format_csv(moments.table_rows(grid)), stamp),
    }
    checks = {}
    for cond in _SCENARIO_CONDITIONS[cfg.scenario]:
        if cond is Condition.WEIGHTED_NORM_SERIES and decay is None:
            checks[cond.value] = {"verdict": "SKIPPED",
                                  "note": "no decay sequence supplied"}
            continue
        try:
            rep = moments.check_condition(cond, grid, c=decay)
        except WorkBudgetError as exc:
            checks[cond.value] = {"verdict": "BUDGET_EXCEEDED",
                                  "note": str(exc)}
            continue
        checks[rep.condition.value] = {"verdict": rep.verdict.value,
                                       "grid": rep.grid, "values": rep.values}
    verdicts = {"conditions": checks}
    code = EXIT_OK
    if cfg.samples > 0:
        # laws, and numpy.random with the first stream drawn, load
        # only in runs that sample
        from .laws import DichotomyVerdict, dichotomy_report, format_ks_csv
        rep = dichotomy_report(params, cfg.samples, cfg.seed,
                               moments=moments)
        artifacts["dichotomy.csv"] = _with_header(cfg, format_ks_csv(rep),
                                                  stamp)
        verdicts["dichotomy"] = dict(dataclasses.asdict(rep), rows=[
            dict(dataclasses.asdict(r), parity=r.parity,
                 gate_bound=r.gate_bound, oracle_pass=r.oracle_pass)
            for r in rep.rows])
        if rep.verdict is DichotomyVerdict.INCONCLUSIVE:
            code = EXIT_INCONCLUSIVE
    if cfg.scenario is Scenario.THEOREM2 and decay is not None:
        artifacts["schedule.csv"] = _with_header(
            cfg, _schedule_csv(params, decay), stamp)
    return artifacts, verdicts, code


# the terms of the spectral preset's square-root series probe
_SQRT_TERMS = 1024


def _build_toy(cfg: ExperimentConfig):
    """The spectral preset's toy, once its dimension passes every work
    budget the run checks, in the run's order: the sweep to 2^hi steps,
    then the square-root series probe.  A random toy is checked before
    it is built."""
    from .spectral import random_circulant_toy, toy_from_json
    toy = None
    if cfg.toy_file is not None:
        toy = toy_from_json(read_input(cfg.toy_file))
    dim = max(2, cfg.kmax) if toy is None else toy.dim
    charge("condition_sweep", (1 << cfg.grid[1]) * dim)
    charge("sqrt_series", _SQRT_TERMS * dim)
    if toy is None:
        toy = random_circulant_toy(dim, cfg.seed)
    return toy


def _run_spectral(cfg: ExperimentConfig, stamp: str | None):
    # only the spectral preset loads the spectral toys
    from .spectral import evaluate_conditions, sqrt_apply
    toy = _build_toy(cfg)
    rep = evaluate_conditions(toy, 1 << cfg.grid[1])
    verdicts = {"spectral": {
        "dim": toy.dim,
        "q": rep.q,
        "correspondence": rep.correspondence,
        "sqrt_series_error_m1024": sqrt_apply(toy, _SQRT_TERMS).error,
    }}
    artifacts = {"spectral.csv": _with_header(cfg, rep.to_csv(), stamp)}
    return artifacts, verdicts, EXIT_OK


# ---------------------------------------------------------------------------
# Entry points

def run(cfg: ExperimentConfig) -> int:
    """Execute one configuration; write artifacts; return the exit code.

    Configuration and budget errors propagate; ``main`` maps them to
    exit codes.
    """
    # one stamp for every artifact of the run
    stamp = (None if cfg.no_timestamp else
             datetime.now(timezone.utc).isoformat(timespec="seconds"))
    cfg.validate()
    if cfg.scenario is Scenario.SPECTRAL:
        artifacts, verdicts, code = _run_spectral(cfg, stamp)
    else:
        cfg, params, decay = _build_params(cfg)
        artifacts, verdicts, code = _run_sequence(cfg, params, decay, stamp)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"config": cfg.to_dict()}
    verdict_doc = dict(echo)
    verdict_doc.update(json_ready(verdicts))
    if stamp is not None:
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
    cfg.validate()
    if cfg.scenario is Scenario.SPECTRAL:
        toy = _build_toy(cfg)
        kind = "explicit" if toy.kernel_row is None else "circulant"
        derived = {"dim": toy.dim, "tag": kind}
    else:
        cfg, params, _ = _build_params(cfg)
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
    print(json.dumps({"valid": True, "config": cfg.to_dict(),
                      "derived": json_ready(derived)},
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
    # a preset's pinned mode is checked by ExperimentConfig.validate
    a_mode = ns.a_mode or _FORCED_MODE.get(scenario) or "const"
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
        if ns.command == "validate":
            return validate_only(cfg)
        return run(cfg)
    except ParamsError as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except (WorkBudgetError, MemoryBudgetError, TruncationError) as exc:
        _emit_error(exc)
        return EXIT_BUDGET


if __name__ == "__main__":
    code = main()
    # Every artifact is written and closed, and nothing left needs a
    # finalizer: moving the heap to the permanent generation spares the
    # interpreter's full collections over numpy's objects at exit.
    gc.freeze()
    sys.exit(code)
