import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cltlab
from cltlab.cli import (Scenario, _parse_grid, build_parser,
                        config_from_args, main)
from cltlab.config import save_params
from cltlab.blocks import default_params
from cltlab.errors import ParamsError


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1])


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.7 s of every process start
    code = ("import sys, cltlab.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    src = str(Path(cltlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_parse_grid():
    assert _parse_grid("dyadic:4:16") == (4, 16)
    for bad in ("linear:4:16", "dyadic:4", "dyadic:a:16", "dyadic:0:16",
                "dyadic:8:4", "dyadic:1:63"):
        with pytest.raises(ParamsError):
            _parse_grid(bad)


def test_scenario_defaults():
    cfg = parse(["theorem1"])
    assert cfg.scenario is Scenario.THEOREM1
    assert cfg.kmax == 40_000_000
    assert cfg.a_mode == "const"
    assert cfg.grid == (4, 16)
    cfg = parse(["theorem2"])
    assert cfg.a_mode == "theorem2" and cfg.kmax == 1024
    cfg = parse(["theorem3"])
    assert cfg.a_mode == "invlog" and cfg.kmax == 1 << 22
    cfg = parse(["spectral"])
    assert cfg.grid == (1, 16) and cfg.kmax == 8
    cfg = parse(["custom", "--kmax", "18", "--a-mode", "invlog",
                 "--grid", "dyadic:5:12", "--seed", "7"])
    assert (cfg.kmax, cfg.a_mode, cfg.grid, cfg.seed) == \
        (18, "invlog", (5, 12), 7)


def test_preset_pins_weight_mode(capsys, tmp_path):
    want = {"type": "ParamsError",
            "message": "this preset pins its weight mode",
            "details": {"scenario": "THEOREM1", "pinned": "const",
                        "requested": "invlog"}}
    for argv in (["theorem1", "--a-mode", "invlog",
                  "--out", str(tmp_path / "out")],
                 ["validate", "--scenario", "theorem1", "--a-mode",
                  "invlog"]):
        code, doc = run_main(argv, capsys)
        assert code == 2
        assert doc == {"error": want}
    assert not (tmp_path / "out").exists()
    # naming the pinned mode explicitly is allowed
    cfg = parse(["theorem1", "--a-mode", "const"])
    assert cfg.a_mode == "const"


def test_validate_subcommand(capsys):
    code, doc = run_main(["validate", "--scenario", "custom",
                          "--kmax", "20", "--samples", "0"], capsys)
    assert code == 0
    assert doc["valid"] is True
    assert doc["config"]["scenario"] == "CUSTOM"
    blocks = doc["derived"]["blocks"]
    assert blocks[0]["complete"] is True and blocks[0]["k_hi"] == 11
    assert blocks[1]["complete"] is False


def test_invalid_config_exits_2(capsys):
    code, doc = run_main(["custom", "--kmax", "0"], capsys)
    assert code == 2
    assert doc["error"]["type"] == "ParamsError"
    assert "kmax" in doc["error"]["details"]


def test_missing_input_file_exits_2(capsys):
    code, doc = run_main(["theorem2", "--c-file", "/nonexistent/c.txt"],
                         capsys)
    assert code == 2
    assert doc["error"]["details"]["c_file"].endswith("c.txt")


def test_spectral_budget_exits_3(capsys):
    code, doc = run_main(["spectral", "--grid", "dyadic:1:31"], capsys)
    assert code == 3
    assert doc["error"]["type"] == "WorkBudgetError"


def test_custom_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, doc = run_main(["custom", "--kmax", "20", "--samples", "400",
                          "--grid", "dyadic:4:12", "--seed", "3",
                          "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    assert doc["exit"] == 0 and doc["scenario"] == "CUSTOM"
    names = set(doc["artifacts"])
    assert {"conditions.csv", "dichotomy.csv", "config.json",
            "verdict.json"} <= names
    econf = json.loads((out / "config.json").read_text())
    assert econf["config"]["kmax"] == 20
    assert "generated" not in econf
    verdict = json.loads((out / "verdict.json").read_text())
    conds = verdict["conditions"]
    assert set(conds) == {"SERIES_2PRIME", "MW_3PRIME", "WEIGHTED_4",
                          "RATE_5", "BOUND_9"}
    assert conds["WEIGHTED_4"]["verdict"] == "SKIPPED"
    # one complete parity only: the comparison cannot even be set up
    assert verdict["dichotomy"]["verdict"] == "NO_DICHOTOMY"
    body = (out / "conditions.csv").read_text()
    assert body.startswith("# config: ")
    assert "N,b,cond_norm,sigma" in body


def test_deep_tail_judged_on_own_params(tmp_path, capsys):
    out = tmp_path / "deep"
    code, doc = run_main(["custom", "--kmax", "40", "--samples", "0",
                          "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert not any("analysis_kmax" in entry
                   for entry in verdict["conditions"].values())
    assert verdict["conditions"]["SERIES_2PRIME"]["verdict"] == \
        "TREND_CONFIRMED"
    lines = [line for line in (out / "conditions.csv").read_text()
             .splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 13
    assert all(math.isfinite(float(r["tail_2prime"])) for r in rows)


def test_runs_are_byte_deterministic(tmp_path, capsys, monkeypatch):
    argv = ["custom", "--kmax", "20", "--samples", "300",
            "--grid", "dyadic:4:10", "--seed", "11",
            "--no-timestamp", "--out", "art"]
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(argv) == 0
        capsys.readouterr()
        texts.append({p.name: p.read_bytes()
                      for p in sorted((d / "art").iterdir())})
    assert texts[0] == texts[1]


def test_theorem2_schedule_artifact(tmp_path, capsys):
    out = tmp_path / "t2"
    code, doc = run_main(["theorem2", "--samples", "0", "--kmax", "512",
                          "--grid", "dyadic:4:9", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 0
    sched = (out / "schedule.csv").read_text().splitlines()
    header = sched[1] if sched[0].startswith("#") else sched[0]
    assert header == "k,c,a,weighted_partial_mass,partial_mass"
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["conditions"]["WEIGHTED_4"]["verdict"] == \
        "TREND_CONFIRMED"


def test_inconclusive_dichotomy_exits_4(tmp_path, capsys):
    out = tmp_path / "inc"
    code, doc = run_main(["theorem1", "--samples", "25", "--seed", "8",
                          "--grid", "dyadic:4:8", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 4
    verdict = json.loads((out / "verdict.json").read_text())
    d = verdict["dichotomy"]
    assert d["verdict"] == "INCONCLUSIVE"
    assert d["required_count_estimate"] == 495
    assert d["notes"] == ["gap within sampling noise of the margin"]


def test_params_file_round(tmp_path, capsys):
    path = tmp_path / "params.json"
    save_params(default_params(kmax=20, rho=4.0), path)
    out = tmp_path / "run"
    code, doc = run_main(["custom", "--params-file", str(path),
                          "--samples", "0", "--grid", "dyadic:4:8",
                          "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["conditions"]["RATE_5"]["grid"] == [16, 32, 64, 128, 256]


def test_spectral_toy_file(tmp_path, capsys):
    spec = {"kernel_row": [0.5, 0.25, 0.25],
            "observable": [0.0, 1.0, [0.0, -1.0]]}
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "sp"
    code, doc = run_main(["spectral", "--toy-file", str(path),
                          "--grid", "dyadic:1:10", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    sp = verdict["spectral"]
    assert sp["dim"] == 3
    assert sp["identity_residual_n64"] <= 1e-10
    assert sp["telescoping_residual_n64"] <= 1e-10
    assert sp["sqrt_series_error_m1024"] < 1e-3
    assert (out / "spectral.csv").exists()


def test_astronomic_kmax_in_validate(capsys):
    code, doc = run_main(["validate", "--scenario", "theorem1"], capsys)
    assert code == 0
    blocks = doc["derived"]["blocks"]
    assert blocks[1]["k_hi"] == 37_605_530
    assert blocks[1]["parity"] == "gaussian"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
