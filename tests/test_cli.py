import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import cltlab
import cltlab.cli as cli
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


# scipy.stats costs about 0.7 s of every process start and scipy.special
# about 0.3 s; the slow oracles in cltlab.reference belong to the tests
_STARTUP_BANNED = ("scipy.special", "scipy.stats", "cltlab.reference")


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout."""
    src = str(Path(cltlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_out():
    code = ("import sys, cltlab, cltlab.cli; "
            "sys.exit(', '.join(m for m in %r if m in sys.modules) or None)"
            % (_STARTUP_BANNED,))
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr


def test_runs_that_draw_no_sample_leave_scipy_special_out(tmp_path):
    runs = [["conditions", "--samples", "0"], ["spectral"],
            ["validate", "--scenario", "theorem1"]]
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    code = ("import json, sys\n"
            "from cltlab.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded = [m for m in %r if m in sys.modules]\n"
            "    assert not loaded, (argv, loaded)\n" % (_STARTUP_BANNED,))
    proc = fresh_python(code, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "conditions" / "conditions.csv").is_file()
    assert (tmp_path / "spectral" / "spectral.csv").is_file()


def test_sampling_runs_load_no_scipy(tmp_path):
    # nor the spectral toys (~7 ms), which only the spectral preset
    # reads, nor statistics (~4 ms), which no runtime path reads
    code = ("import sys\n"
            "from cltlab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "          or m in ('cltlab.spectral', 'statistics')]\n"
            "assert not loaded, sorted(loaded)\n")
    out = tmp_path / "theorem1"
    proc = fresh_python(code, "theorem1", "--samples", "2000",
                        "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "dichotomy.csv").is_file()


def test_package_root_loads_laws_and_simulate_lazily():
    table = cltlab._LAZY
    assert {"laws", "simulate", "spectral"} <= set(table.values())
    for name, home in table.items():
        module = importlib.import_module("cltlab." + home)
        want = module if name == home else vars(module)[name]
        assert getattr(cltlab, name) is want, name
    assert set(table) <= set(dir(cltlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        cltlab.no_such_name
    proc = fresh_python("from cltlab import dichotomy_report, laws; "
                        "assert dichotomy_report is laws.dichotomy_report")
    assert proc.returncode == 0, proc.stderr
    proc = fresh_python("import sys, cltlab\n"
                        "assert 'SpectralToy' in dir(cltlab)\n"
                        "assert 'cltlab.spectral' not in sys.modules\n"
                        "from cltlab import SpectralToy, spectral\n"
                        "assert SpectralToy is spectral.SpectralToy\n")
    assert proc.returncode == 0, proc.stderr


def test_parse_grid():
    assert _parse_grid("dyadic:4:16") == (4, 16)
    for bad in ("linear:4:16", "dyadic:4", "dyadic:a:16", "dyadic:0:16",
                "dyadic:8:4", "dyadic:1:63", "dyadic:1:53"):
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


def test_seed_past_64_bits_exits_2(tmp_path, capsys):
    # the sampler keys its streams on 64 bits, so 2^64 would alias 0
    for argv in (["validate", "--scenario", "theorem2"],
                 ["theorem2", "--samples", "2000", "--out",
                  str(tmp_path / "o")]):
        code, doc = run_main(argv + ["--seed", str(1 << 64)], capsys)
        assert code == 2
        assert doc["error"] == {"type": "ParamsError",
                                "message": "seed must lie in [0, 2^64)",
                                "details": {"seed": 1 << 64}}
    assert not (tmp_path / "o").exists()
    rows = {}
    for seed in (0, (1 << 64) - 1):
        out = tmp_path / str(seed)
        code, _ = run_main(["theorem2", "--samples", "2000", "--seed",
                            str(seed), "--no-timestamp", "--out", str(out)],
                           capsys)
        assert code == 0
        rows[seed] = [line for line in
                      (out / "dichotomy.csv").read_text().splitlines()
                      if not line.startswith("#")]
    assert rows[0] != rows[(1 << 64) - 1]


def test_grid_past_the_schedule_exits_2(tmp_path, capsys):
    # horizons up to 2^48 ask for weights a_41 .. a_48 of a kmax-40 schedule
    code, doc = run_main(["custom", "--kmax", "40", "--a-mode", "invlog",
                          "--rho", "1.5", "--grid", "dyadic:4:48",
                          "--samples", "0", "--out", str(tmp_path / "o")],
                         capsys)
    assert code == 2
    assert doc["error"] == {"type": "ParamsError",
                            "message": "scale index outside the schedule",
                            "details": {"k": 41, "kmax": 40}}


def test_grid_beyond_the_desk_cap_exits_2(tmp_path, capsys):
    # no budget can run a horizon past 2^52, so the grid itself is invalid
    for argv in (["validate", "--scenario", "custom"],
                 ["custom", "--samples", "0", "--out", str(tmp_path / "o")]):
        code, doc = run_main(argv + ["--grid", "dyadic:4:55"], capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError",
            "message": "grid exponents must satisfy 1 <= lo <= hi <= 52",
            "details": {"grid": "dyadic:4:55"}}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["truncated_toy", "toy_entry",
                                  "weight_mode", "no_kmax"])
def test_malformed_input_file_exits_2(case, tmp_path, capsys):
    path = tmp_path / "input.json"
    save_params(default_params(kmax=20), path)
    params = json.loads(path.read_text())
    toy = {"kernel_row": [0.5, 0.25, 0.25], "observable": [0.0, 1.0, 2.0]}
    if case == "truncated_toy":
        flag, text = "--toy-file", json.dumps(toy)[:-7]
        want = {"line": 1, "column": len(text) + 1}
    elif case == "toy_entry":
        toy["observable"][1] = "one"
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": "observable", "index": 1}
    elif case == "weight_mode":
        params["weight_mode"] = "bogus"
        flag, text = "--params-file", json.dumps(params)
        want = {"key": "weight_mode"}
    else:
        del params["kmax"]
        flag, text = "--params-file", json.dumps(params)
        want = {"key": "kmax"}
    path.write_text(text)
    scenario = "spectral" if flag == "--toy-file" else "custom"
    out = tmp_path / "out"
    for argv in (["validate", "--scenario", scenario],
                 [scenario, "--samples", "0", "--out", str(out)]):
        code, doc = run_main(argv + [flag, str(path)], capsys)
        assert code == 2
        assert doc["error"]["type"] == "ParamsError"
        assert doc["error"]["details"] == want
    assert not out.exists()


@pytest.mark.parametrize("flag,scenario", [("--c-file", "theorem2"),
                                           ("--toy-file", "spectral"),
                                           ("--params-file", "theorem2")])
def test_non_utf8_input_file_exits_2(flag, scenario, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe1,2")
    out = tmp_path / "out"
    for argv in (["validate", "--scenario", scenario],
                 [scenario, "--samples", "0", "--out", str(out)]):
        code, doc = run_main(argv + [flag, str(path)], capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError", "message": "input file is not UTF-8 text",
            "details": {"path": str(path), "byte": 0}}
    assert not out.exists()


def test_missing_input_file_exits_2(capsys):
    code, doc = run_main(["theorem2", "--c-file", "/nonexistent/c.txt"],
                         capsys)
    assert code == 2
    assert doc["error"]["details"]["c_file"].endswith("c.txt")


def test_spectral_budget_exits_3(capsys):
    code, doc = run_main(["spectral", "--grid", "dyadic:1:31"], capsys)
    assert code == 3
    assert doc == {"error": {
        "type": "WorkBudgetError", "message": "condition sweep too large",
        "details": {"estimated_ops": 1 << 34, "budget": 1 << 27}}}


HUGE_SAMPLES_ERROR = {"error": {
    "type": "MemoryBudgetError",
    "message": "sample batch exceeds the memory budget",
    "details": {"estimated_bytes": 8 * 10 ** 15, "budget": 8 << 28}}}


def test_huge_sample_count_exits_3(tmp_path, capsys):
    # a batch past the sampler's budget fails before it is allocated, and
    # before any artifact is written; validate rejects it the same way
    out = tmp_path / "run"
    for command in (["theorem1"], ["validate", "--scenario", "theorem1"]):
        code, doc = run_main([*command, "--samples", str(10 ** 15),
                              "--no-timestamp", "--out", str(out)], capsys)
        assert code == 3, command
        assert doc == HUGE_SAMPLES_ERROR, command
        assert not out.exists()


def test_validate_checks_the_batch_budget_without_the_sampler():
    # validate processes time the bench's set-up, so the check loads
    # neither the sampler nor numpy.random
    code = ("import sys\n"
            "from cltlab.cli import main\n"
            "assert main(sys.argv[1:]) == 3\n"
            "loaded = [m for m in ('cltlab.simulate', 'numpy.random')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = fresh_python(code, "validate", "--scenario", "theorem1",
                        "--samples", str(10 ** 15))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == HUGE_SAMPLES_ERROR


def cli_process(*args, cwd):
    """Run ``python -m cltlab.cli`` on this checkout in a new process."""
    src = str(Path(cltlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cltlab.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)


def test_module_entry_point_exits_with_mains_codes(tmp_path, capsys,
                                                   monkeypatch):
    # the __main__ block freezes the heap before it exits; codes, stdout
    # and artifacts are those of an in-process main
    args = ["conditions", "--kmax", "12", "--grid", "dyadic:4:8",
            "--samples", "0", "--no-timestamp", "--out", "run"]
    (tmp_path / "process").mkdir()
    (tmp_path / "inproc").mkdir()
    proc = cli_process(*args, cwd=tmp_path / "process")
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path / "inproc")
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out
    files = sorted((tmp_path / "process" / "run").iterdir())
    assert [p.name for p in files] == ["conditions.csv", "config.json",
                                       "verdict.json"]
    for path in files:
        assert path.read_bytes() == \
            (tmp_path / "inproc" / "run" / path.name).read_bytes()
    proc = cli_process("conditions", "--grid", "dyadic:0:8", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ParamsError"
    proc = cli_process("theorem1", "--samples", str(10 ** 15), cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout) == HUGE_SAMPLES_ERROR


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


def test_theorem3_deep_grid_writes_no_nan(tmp_path, capsys):
    # every row through 2^40 has its series tail
    out = tmp_path / "t3"
    code, _ = run_main(["theorem3", "--grid", "dyadic:4:40", "--samples", "0",
                        "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    for path in out.iterdir():
        assert "nan" not in path.read_text().lower()
    lines = [line for line in (out / "conditions.csv").read_text()
             .splitlines() if not line.startswith("#")]
    tails = [float(r["tail_2prime"]) for r in csv.DictReader(lines)]
    assert len(tails) == 37 and min(tails) > 0.0


def test_condition_verdicts_read_the_table_columns(tmp_path, capsys):
    out = tmp_path / "cond"
    code, _ = run_main(["conditions", "--samples", "0",
                        "--grid", "dyadic:4:10", "--no-timestamp",
                        "--out", str(out)], capsys)
    assert code == 0
    conds = json.loads((out / "verdict.json").read_text())["conditions"]
    lines = [line for line in (out / "conditions.csv").read_text()
             .splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 7
    for token, column in (("RATE_5", "ratio_rate5"),
                          ("BOUND_9", "ratio_bound9"),
                          ("SERIES_2PRIME", "tail_2prime")):
        # %.17g and JSON both round-trip a double exactly
        assert conds[token]["values"] == [float(r[column]) for r in rows]


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


# sha256 of every artifact of five fixed runs.  A change that moves a byte
# on purpose updates these pins and names the change.
PINNED_ARTIFACTS = {
    ("custom", "--samples", "2000"): {
        "conditions.csv": "34af98e9ab5492ef3844f5b5e0048b8f"
                          "c43e046f10530c779dedabc6c9491f42",
        "config.json": "62703f8ab53aa16445c2ccb85d7e171a"
                       "d88deffa227c0daaac2a71e50f663ded",
        "dichotomy.csv": "0eccb30b232dfd3715e38265e4a77dd5"
                         "57bc008b8a5b9978b5fddb4fbeab95c8",
        "verdict.json": "c1e2e48451a25f676e431ca9a336a2cd"
                        "9a2dab9d929e7c162a274325818fa843",
    },
    ("conditions", "--samples", "0"): {
        "conditions.csv": "ec8b4c78187702a7954a79455a176e74"
                          "f5f3113dbb41b242fd2a37abcd5f73e0",
        "config.json": "59acb842afe1dbfff642ae23aadffe2b"
                       "707fc342f6158223e09f4a5de28eb46f",
        "verdict.json": "27f997c9b7282b5da4ca2c630f918fb5"
                        "aa17291368f1472d198b05f3efb22254",
    },
    # the desk flat copy: the oracle gate at 2^11
    ("theorem1", "--samples", "2000"): {
        "conditions.csv": "46c088fa348f7172f0c74a70252800c8"
                          "35380757a7b8a0a7f39602b7fef2e4e9",
        "config.json": "50df193b9f9ba70e711075288d9ba32e"
                       "c61dfbe8e1c8716d1b87ec98bc0dec03",
        "dichotomy.csv": "2ba4dd9a4daf1c589915932455dcdc78"
                         "cbc8ecca05c448f4b71f2e5adbffefa0",
        "verdict.json": "4eb9e42d1da774e7fe183c5092964da0"
                        "26892cc0c72b445d6469ea5d4845c98c",
    },
    # the adapted schedule: schedule.csv, and full sums of mostly ramp
    # segments drawn from the block profiles
    ("theorem2", "--samples", "2000"): {
        "conditions.csv": "3594053fb6c5bb00e3d8536abe371694"
                          "32e59917c31a623008ce839aba90b5a0",
        "config.json": "9a776fd64914beb2114a826cf93e066a"
                       "16eccbb869c730d4e7fd822bb0087141",
        "dichotomy.csv": "245b4a62d6e6f3cc116ab8285cc06e55"
                         "9bcf984783b34de9821f45d1c4f3e36f",
        "schedule.csv": "6a447474aaa4c8de4956c73729537ed2"
                        "3b6094f77c12e095455797179b2af99b",
        "verdict.json": "735d24b9ded4b473e0c759db9a4e9fe6"
                        "4c8043fa512546235fb842f406f09db8",
    },
    # the beyond-cap Poisson flat copy: the oracle gate at 2^3264
    ("theorem3", "--samples", "2000", "--grid", "dyadic:4:8"): {
        "conditions.csv": "4ac3f3ef0eb8329cbfdda7cc0658636d"
                          "04759b86d8f3144f7f4efa7613850b6f",
        "config.json": "39dc20195754bbd7e253334857031d85"
                       "55259a337e4b3683d0d0ee8207dc2d91",
        "dichotomy.csv": "3812b7f53fddf779cffc4fdb38142848"
                         "b0ed171643f8c37c827bdfd8dbeccbc8",
        "verdict.json": "c12200f80370d10934dbf8b0107c84a7"
                        "7157736d40c1d11129bc3d59d6242902",
    },
    # the bench's grid: 37 tails and profiles through 2^40
    ("theorem3", "--samples", "0", "--grid", "dyadic:4:40"): {
        "conditions.csv": "ba6fc122d18c72d9af61db2572eb682e"
                          "89027c741595d49e13074d658fc2a767",
        "config.json": "9bdafb7223b0afb9f318575c8d36c617"
                       "107e55cd6a6b30cd2ab54063113c22bd",
        "verdict.json": "12e8433d38bdeee1739818f94d7ffe8e"
                        "5f45917cdf2a50c69b9dcd48f86e044f",
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_ARTIFACTS))
def test_preset_artifact_bytes_are_pinned(args, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--no-timestamp", "--out", "run"]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted((tmp_path / "run").iterdir())}
    assert got == PINNED_ARTIFACTS[args]


def test_one_stamp_per_run(tmp_path, capsys, monkeypatch):
    class Clock:
        """A clock that moves a minute on every reading."""
        t = datetime(2000, 1, 1, tzinfo=timezone.utc)

        @classmethod
        def now(cls, tz=None):
            cls.t += timedelta(minutes=1)
            return cls.t.astimezone(tz)

    monkeypatch.setattr(cli, "datetime", Clock)
    out = tmp_path / "run"
    code, doc = run_main(["custom", "--kmax", "20", "--samples", "300",
                          "--grid", "dyadic:4:10", "--seed", "11",
                          "--out", str(out)], capsys)
    assert code == 0
    stamps = set()
    for name in doc["artifacts"]:
        text = (out / name).read_text()
        if name.endswith(".json"):
            stamps.add(json.loads(text)["generated"])
        else:
            assert text.splitlines()[1].startswith("# generated: ")
            stamps.add(text.splitlines()[1][len("# generated: "):])
    assert len(doc["artifacts"]) == 4 and len(stamps) == 1


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
    code, doc = run_main(["theorem1", "--samples", "25", "--seed", "1",
                          "--grid", "dyadic:4:8", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 4
    verdict = json.loads((out / "verdict.json").read_text())
    d = verdict["dichotomy"]
    assert d["verdict"] == "INCONCLUSIVE"
    assert d["required_count_estimate"] == 5386
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


def test_kmax_beyond_float_exits_2(tmp_path, capsys):
    # 2^1000 still runs; a constant schedule reads k as a float
    code, _ = run_main(["validate", "--kmax", str(1 << 1000)], capsys)
    assert code == 0
    for argv in (["validate", "--scenario", "custom"],
                 ["conditions", "--samples", "0", "--out", str(tmp_path)]):
        code, doc = run_main(argv + ["--kmax", str(10 ** 400)], capsys)
        assert code == 2
        assert doc["error"]["type"] == "ParamsError"
        assert doc["error"]["message"] == "kmax too large for a float"
        assert "kmax" in doc["error"]["details"]


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
