"""Named correctness checks on the artifacts of one cltlab preset run.

Each check returns (passed, detail).  The checks read only the files the
run wrote; ``sigma_oracle`` recomputes the variance through the
pair-covariance route of ``ExactMoments``, which shares no code with the
profile route that fills the ``sigma`` column.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

CHECKS = ("exit", "verdicts", "sigma_oracle", "finite_cells",
          "oracle_gates", "own_params")

SIGMA_REL_TOL = 1e-12


def _conditions_rows(out: Path) -> list[dict]:
    lines = [line for line in
             (out / "conditions.csv").read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _verdicts(doc: dict) -> dict:
    got = {tok: entry.get("verdict")
           for tok, entry in doc.get("conditions", {}).items()}
    if "dichotomy" in doc:
        got["dichotomy"] = doc["dichotomy"].get("verdict")
    return got


class SigmaOracle:
    """sqrt(sigma_sq_paircov(N)) for the parameters a run echoed.

    Rebuilding the parameters costs up to a second for deep inverse-log
    schedules, so the values are kept per configuration.
    """

    def __init__(self):
        self._memo: dict[str, dict[int, float]] = {}

    def sigma(self, config: dict, horizons: list[int]) -> dict[int, float]:
        key = json.dumps([config, horizons], sort_keys=True)
        if key not in self._memo:
            self._memo[key] = self._compute(config, horizons)
        return self._memo[key]

    @staticmethod
    def _compute(config: dict, horizons: list[int]) -> dict[int, float]:
        import numpy as np
        from cltlab import ExactMoments, WeightMode, default_params

        kmax = int(config["kmax"])
        mode = {"const": WeightMode.CONST_ONE, "invlog": WeightMode.INV_LOG,
                "theorem2": WeightMode.ADAPTED}[config["a_mode"]]
        # The CLI's built-in decay for adapted schedules: c_k = 2^-k.
        c = (np.ldexp(1.0, -np.arange(1, kmax + 1))
             if mode is WeightMode.ADAPTED else None)
        em = ExactMoments(default_params(kmax=kmax, rho=float(config["rho"]),
                                         mode=mode, c=c))
        return {N: math.sqrt(em.sigma_sq_paircov(N)) for N in horizons}


def run_checks(out: Path, exit_code: int, expected: dict,
               oracle: SigmaOracle) -> dict[str, tuple[bool, str]]:
    """Every check in CHECKS, by name, for the artifacts under ``out``."""
    res = {"exit": (exit_code == 0, f"exit code {exit_code}")}
    try:
        doc = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        config = json.loads(
            (out / "config.json").read_text(encoding="utf-8"))["config"]
        rows = _conditions_rows(out)
    except (OSError, ValueError, KeyError) as exc:
        for name in CHECKS[1:]:
            res[name] = (False, f"artifacts unreadable: {exc}")
        return res

    got = _verdicts(doc)
    res["verdicts"] = (got == expected, json.dumps(got, sort_keys=True))

    horizons = [int(r["N"]) for r in rows]
    want = oracle.sigma(config, horizons)
    worst = max((abs(float(r["sigma"]) - want[int(r["N"])])
                 / want[int(r["N"])] for r in rows), default=math.nan)
    res["sigma_oracle"] = (worst <= SIGMA_REL_TOL,
                           f"max relative error {worst:.3g}")

    nan_rows = [r for r in rows
                if any(v.strip().lower() == "nan" for v in r.values())]
    nan_cols = sorted({col for r in nan_rows for col, v in r.items()
                       if v.strip().lower() == "nan"})
    res["finite_cells"] = (not nan_rows, f"NaN in {len(nan_rows)} of "
                           f"{len(rows)} rows, columns {nan_cols}")

    gate_rows = doc.get("dichotomy", {}).get("rows", [])
    bad = [r["horizon_log2"] for r in gate_rows if not r.get("oracle_pass")]
    res["oracle_gates"] = (not bad, f"{len(gate_rows)} rows, failing at "
                           f"log2 horizons {bad}" if bad
                           else f"{len(gate_rows)} rows pass")

    surrogate = sorted(tok for tok, entry in doc.get("conditions", {}).items()
                       if "analysis_kmax" in entry)
    res["own_params"] = (not surrogate,
                         f"analysis_kmax on {surrogate}" if surrogate
                         else "every condition judged on the run's params")
    return res
