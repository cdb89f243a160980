import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import cltlab
import cltlab.cli as cli
import cltlab.laws as laws
import cltlab.spectral as spectral
from cltlab.cli import (Scenario, _parse_grid, build_parser,
                        config_from_args, main)
from cltlab.config import save_params
from cltlab.blocks import (BlockParity, MassTarget, SequenceParams,
                           default_params, split_blocks)
from cltlab.errors import ParamsError
from cltlab.weights import WeightMode, build_weights
from conftest import set_limit


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1])


# scipy.stats costs about 0.7 s of every process start and scipy.special
# about 0.3 s; the test oracles' old cltlab.reference must not come back
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


def test_invalid_config_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    for flag, value in (("--kmax", "0"), ("--samples", "-1"), ("--rho", "1")):
        for head in (["validate", "--scenario", "custom"],
                     ["custom", "--out", str(out)]):
            code, doc = run_main(head + [flag, value], capsys)
            assert code == 2
            assert doc["error"]["type"] == "ParamsError"
            assert doc["error"]["details"] == {flag[2:]: float(value)}
    assert not out.exists()


def test_tail_over_its_budget_is_reported_not_raised(tmp_path, capsys,
                                                     monkeypatch):
    # every series tail row touches more than 10 terms
    set_limit(monkeypatch, "series_tail", 10)
    out = tmp_path / "o"
    code, _ = run_main(["conditions", "--samples", "0", "--no-timestamp",
                        "--out", str(out)], capsys)
    assert code == 0
    checks = json.loads((out / "verdict.json").read_text())["conditions"]
    assert checks["SERIES_2PRIME"]["verdict"] == "BUDGET_EXCEEDED"
    assert checks["MW_3PRIME"]["verdict"] == "TREND_CONFIRMED"


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
    # horizons up to 2^48 ask for weights a_41 .. a_48 of a kmax-40
    # schedule; validate refuses them as the run does, before any work
    for argv in (["validate", "--scenario", "custom"],
                 ["custom", "--out", str(tmp_path / "o")]):
        code, doc = run_main(argv + ["--kmax", "40", "--a-mode", "invlog",
                                     "--rho", "1.5", "--grid", "dyadic:4:48",
                                     "--samples", "0"], capsys)
        assert code == 2
        assert doc["error"] == {"type": "ParamsError",
                                "message": "scale index outside the schedule",
                                "details": {"k": 41, "kmax": 40}}
    assert not (tmp_path / "o").exists()


def test_spectral_dimension_below_2_exits_2(tmp_path, capsys):
    # --kmax is the random toy's dimension: 1 is refused, not raised to 2
    for argv in (["validate", "--scenario", "spectral"],
                 ["spectral", "--out", str(tmp_path / "o")]):
        code, doc = run_main(argv + ["--kmax", "1"], capsys)
        assert code == 2
        assert doc["error"] == {"type": "ParamsError",
                                "message": "dimension must be at least 2",
                                "details": {"dim": 1}}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, files, key", [
    ("conditions", {"--toy-file": "toy.json"}, "toy_file"),
    ("conditions", {"--toy-file": "missing.json"}, "toy_file"),
    ("spectral", {"--params-file": "junk.json"}, "params_file"),
    ("spectral", {"--params-file": "junk.json", "--c-file": "junk.json"},
     "c_file"),
    # only the weighted series check reads a decay
    ("theorem1", {"--c-file": "junk.json"}, "c_file"),
    ("theorem3", {"--c-file": "missing.txt"}, "c_file"),
], ids=["conditions-toy-file", "conditions-missing-toy-file",
        "spectral-params-file", "spectral-params-and-c-file",
        "theorem1-c-file", "theorem3-missing-c-file"])
def test_input_file_the_scenario_does_not_read_exits_2(tmp_path, capsys,
                                                       scenario, files, key):
    # the run would read none of these files, yet echo them as read; a
    # refused file need not exist
    (tmp_path / "toy.json").write_text(json.dumps(TOY_SPEC))
    (tmp_path / "junk.json").write_text("{}")
    flags = [x for flag, name in files.items()
             for x in (flag, str(tmp_path / name))]
    path = str(tmp_path / files["--" + key.replace("_", "-")])
    for head in (["validate", "--scenario", scenario],
                 [scenario, "--out", str(tmp_path / "o")]):
        code, doc = run_main(head + ["--samples", "0"] + flags, capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError",
            "message": "input file not read by this scenario",
            "details": {key: path}}
    assert not (tmp_path / "o").exists()


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
                                  "weight_mode", "no_kmax", "string_flags",
                                  "fractional_kmax", "boolean_kmax",
                                  "flat_file", "unknown_key",
                                  "decay_outside_adapted",
                                  "unread_target_entry", "toy_string_number",
                                  "toy_fractional_dim", "toy_boolean_entry",
                                  "toy_unknown_key", "toy_both_vectors",
                                  "toy_infinite_entry"])
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
    elif case == "no_kmax":
        del params["kmax"]
        flag, text = "--params-file", json.dumps(params)
        want = {"key": "kmax"}
    elif case == "string_flags":
        # "false" is a string, and no string is a flag
        params["block_complete"] = ["false", "false"]
        flag, text = "--params-file", json.dumps(params)
        want = {"key": "block_complete"}
    elif case in ("fractional_kmax", "boolean_kmax"):
        params["kmax"] = 20.9 if case == "fractional_kmax" else True
        flag, text = "--params-file", json.dumps(params)
        want = {"key": "kmax"}
    elif case in ("unknown_key", "decay_outside_adapted",
                  "unread_target_entry"):
        # a const_one schedule with a geometric target reads none of these
        key, value = {
            "unknown_key": ("bogus_key", 1),
            "decay_outside_adapted": ("c", [2.0 ** -k for k in range(1, 21)]),
            "unread_target_entry": ("target_explicit", [4.0, 16.0])}[case]
        params[key] = value
        flag, text = "--params-file", json.dumps(params)
        want = {"key": key}
    elif case == "toy_string_number":
        toy["kernel_row"][0] = "0.5"
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": "kernel_row", "index": 0}
    elif case == "toy_fractional_dim":
        toy["dim"] = 3.9
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": "dim"}
    elif case == "toy_boolean_entry":
        toy["observable"][1] = True
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": "observable", "index": 1}
    elif case == "toy_infinite_entry":
        # JSON's Infinity parses as a float; the toy refuses it
        toy["observable"][1] = math.inf
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": "observable", "index": 1}
    elif case in ("toy_unknown_key", "toy_both_vectors"):
        # a circulant spec reads neither entry
        key, value = {
            "toy_unknown_key": ("bogus", 1),
            "toy_both_vectors": ("eigenvalues", [1.0, 0.5, 0.5])}[case]
        toy[key] = value
        flag, text = "--toy-file", json.dumps(toy)
        want = {"key": key}
    else:
        # flat key = value text is not JSON
        flag, text = "--params-file", "schema = 1\nkmax = 20\n"
        want = {"line": 1, "column": 1}
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


@pytest.mark.parametrize("under", [False, True])
def test_out_under_a_file_exits_2(under, tmp_path, capsys):
    # the run would make --out only after computing every table
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under else blocker
    for argv in (["validate", "--scenario", "conditions"], ["conditions"]):
        code, doc = run_main(argv + ["--samples", "0", "--out", str(out)],
                             capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError",
            "message": "--out must be a directory or a path under one",
            "details": {"out": str(out)}}
    assert blocker.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


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


def test_validate_checks_the_spectral_sweep_budget(tmp_path, capsys):
    # validate refuses the sweep the run refuses, with the same error
    out = tmp_path / "run"
    for command in (["spectral"], ["validate", "--scenario", "spectral"]):
        code, doc = run_main([*command, "--grid", "dyadic:1:30",
                              "--out", str(out)], capsys)
        assert code == 3, command
        assert doc == {"error": {
            "type": "WorkBudgetError", "message": "condition sweep too large",
            "details": {"estimated_ops": 1 << 33, "budget": 1 << 27}}}
        assert not out.exists()


def test_validate_checks_the_sqrt_series_budget(tmp_path, capsys,
                                                monkeypatch):
    # the sweep fits at 131,073 dimensions, but the probe's 1024 series
    # steps per eigenvalue do not: both commands refuse at once, with one
    # error each, and neither builds the toy
    def refuse(*args):
        raise AssertionError("the toy was built")

    out = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "random_circulant_toy", refuse)
        for command in (["spectral"], ["validate", "--scenario", "spectral"]):
            start = time.perf_counter()
            code = main([*command, "--kmax", "131073", "--grid", "dyadic:1:2",
                         "--out", str(out)])
            assert time.perf_counter() - start < 1.0, command
            assert code == 3, command
            lines = capsys.readouterr().out.splitlines()
            assert [json.loads(line) for line in lines] == [{"error": {
                "type": "WorkBudgetError",
                "message": "square-root series too large",
                "details": {"estimated_ops": 1024 * 131_073,
                            "budget": 1 << 27}}}], command
            assert not out.exists()
    # 1024 steps at 131,072 dimensions are exactly the budget
    code, doc = run_main(["validate", "--scenario", "spectral", "--kmax",
                          "131072", "--grid", "dyadic:1:2"], capsys)
    assert code == 0 and doc["derived"]["dim"] == 131_072


@pytest.mark.parametrize("kmax, rows", [(1_100_000, 128), (1 << 20, 129),
                                        (4_000_000, 128)])
def test_validate_checks_the_spectral_identity_budget(kmax, rows, tmp_path,
                                                      capsys, monkeypatch):
    # the n = 64 identity checks' 128 or 129 partial-sum rows per dimension
    # once refused these toys; the run no longer computes those rows, and
    # the square-root probe's 1024 steps per dimension refuse them first:
    # both commands at once, with the same error, and neither builds the toy
    def refuse(*args):
        raise AssertionError("the toy was built")

    assert rows * kmax > 1 << 27
    monkeypatch.setattr(spectral, "random_circulant_toy", refuse)
    out = tmp_path / "run"
    for command in (["spectral"], ["validate", "--scenario", "spectral"]):
        start = time.perf_counter()
        code, doc = run_main([*command, "--kmax", str(kmax), "--grid",
                              "dyadic:1:2", "--out", str(out)], capsys)
        assert time.perf_counter() - start < 1.0, command
        assert code == 3, command
        assert doc == {"error": {
            "type": "WorkBudgetError",
            "message": "square-root series too large",
            "details": {"estimated_ops": 1024 * kmax, "budget": 1 << 27}}}
        assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["theorem1", "--samples", "268435457"],
     '{"error": {"details": {"budget": 2147483648, "estimated_bytes": '
     '2147483656}, "message": "sample batch exceeds the memory budget", '
     '"type": "MemoryBudgetError"}}'),
    (["spectral", "--grid", "dyadic:1:25"],
     '{"error": {"details": {"budget": 134217728, "estimated_ops": '
     '268435456}, "message": "condition sweep too large", '
     '"type": "WorkBudgetError"}}'),
    (["spectral", "--kmax", "1100000", "--grid", "dyadic:1:2"],
     '{"error": {"details": {"budget": 134217728, "estimated_ops": '
     '1126400000}, "message": "square-root series too large", '
     '"type": "WorkBudgetError"}}'),
], ids=["batch", "sweep", "identity"])
def test_validate_and_the_run_print_the_same_budget_error(argv, line,
                                                          tmp_path, capsys):
    # both charge the same budget with the same estimate before any work
    out = tmp_path / "run"
    for command in ([argv[0]], ["validate", "--scenario", argv[0]]):
        assert main([*command, *argv[1:], "--out", str(out)]) == 3, command
        assert capsys.readouterr().out == line + "\n", command
        assert not out.exists()


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


def test_unaffordable_ks_pass_exits_3_before_drawing(tmp_path, capsys,
                                                    monkeypatch):
    # at kmax 40 and rho 2 the horizon-2^31 law has a Gaussian part and
    # 527,165 support points, and each sample reads a normal cdf at each
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(laws, "sample_batch", None)
        start = time.perf_counter()
        code, doc = run_main(["custom", "--kmax", "40", "--rho", "2",
                              "--out", "run"], capsys)
        assert time.perf_counter() - start < 2.0
    assert code == 3
    assert doc == {"error": {
        "type": "WorkBudgetError", "message": "KS pass too large",
        "details": {"estimated_ops": 100_000 * 527_165, "budget": 1 << 27}}}
    assert not (tmp_path / "run").exists()
    # 20 samples fit the budget, and keep their exit code and bytes
    assert main(["custom", "--kmax", "40", "--rho", "2", "--samples", "20",
                 "--no-timestamp", "--out", "run"]) == 4
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted((tmp_path / "run").iterdir())}
    assert got == {
        "conditions.csv": "21a278d1a13985ee93b47349653d67d9"
                          "c2929aa6902ebb18e206efe5633e8f1d",
        "config.json": "733eb62943a4792c118c892340ad28e4"
                       "1afb5490ee97211fbe27c15236919c6e",
        "dichotomy.csv": "31154becc8c00afe6716d4aa6e3c161a"
                         "2deccc2925506dfcda82c5e3c4e83ae9",
        "verdict.json": "2b3b40b757fe3012a1f1878bae476062"
                        "8ece4bb443f7d1972f1c378aa9f20d77",
    }


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
        "dichotomy.csv": "5962691120de50ac0595428e6ec3445b"
                         "1afbf300059a3bbfbbffd7812082c4ef",
        "verdict.json": "90133bc80559cf3bd04ec28c47b3f35f"
                        "ceb41fa4cea17389d2f7f489a8563ec2",
    },
    ("conditions", "--samples", "0"): {
        "conditions.csv": "ec8b4c78187702a7954a79455a176e74"
                          "f5f3113dbb41b242fd2a37abcd5f73e0",
        "config.json": "59acb842afe1dbfff642ae23aadffe2b"
                       "707fc342f6158223e09f4a5de28eb46f",
        "verdict.json": "27f997c9b7282b5da4ca2c630f918fb5"
                        "aa17291368f1472d198b05f3efb22254",
    },
    # the spectral sweep and its probe at d = 8
    ("spectral",): {
        "config.json": "38bafc8b31084a705dd08b8599783c11"
                       "feed679265d8290485686f6dbb138b4d",
        "spectral.csv": "e736b4f79265a4e252c955570e1a1173"
                        "b2ea6805d06b91ffec450d0623644e4f",
        "verdict.json": "1228919d65316e8dc3b1a760a7959d20"
                        "9b08c8cf9ed03ccd8fe78f1523fc3cb4",
    },
    # the desk flat copy: the oracle gate at 2^11
    ("theorem1", "--samples", "2000"): {
        "conditions.csv": "46c088fa348f7172f0c74a70252800c8"
                          "35380757a7b8a0a7f39602b7fef2e4e9",
        "config.json": "50df193b9f9ba70e711075288d9ba32e"
                       "c61dfbe8e1c8716d1b87ec98bc0dec03",
        "dichotomy.csv": "719bd8968fa83bf3a8eb519a7c26cffa"
                         "3dd2d1f8d9d4f11d86925b184cd0b234",
        "verdict.json": "ec8f8ca195769d25adf7729062487e70"
                        "051b53cbd41c26f429eae8e06f0b09a3",
    },
    # the adapted schedule: schedule.csv, and full sums of mostly ramp
    # segments drawn from the block profiles
    ("theorem2", "--samples", "2000"): {
        "conditions.csv": "3594053fb6c5bb00e3d8536abe371694"
                          "32e59917c31a623008ce839aba90b5a0",
        "config.json": "9a776fd64914beb2114a826cf93e066a"
                       "16eccbb869c730d4e7fd822bb0087141",
        "dichotomy.csv": "0a8f8f200934a3612b50a110887e3526"
                         "fbe3ea7826d78b24f418f240f5a59857",
        "schedule.csv": "6a447474aaa4c8de4956c73729537ed2"
                        "3b6094f77c12e095455797179b2af99b",
        "verdict.json": "4a62843f5f291213ccef97fb7bd26a20"
                        "b1294f5a6f656cec57a43c8a74b1fb5c",
    },
    # the beyond-cap Poisson flat copy: the oracle gate at 2^3264
    ("theorem3", "--samples", "2000", "--grid", "dyadic:4:8"): {
        "conditions.csv": "4ac3f3ef0eb8329cbfdda7cc0658636d"
                          "04759b86d8f3144f7f4efa7613850b6f",
        "config.json": "39dc20195754bbd7e253334857031d85"
                       "55259a337e4b3683d0d0ee8207dc2d91",
        "dichotomy.csv": "02edd2f68d51024d95690d92ee9346d3"
                         "4dfef24d96edffc0a9081a4c6d24fe2b",
        "verdict.json": "956eedfb293a0cdddebb33b3b6a4fa53"
                        "ca80e0d84b239d13997f8359001c67b4",
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


@pytest.mark.parametrize("args", sorted(PINNED_ARTIFACTS),
                         ids=lambda args: "-".join(a.lstrip("-")
                                                   for a in args))
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


def test_inconclusive_dichotomy_exits_4(tmp_path, capsys, monkeypatch):
    # fixed rows, no sampled bytes: equal normal distances leave the gap
    # 0, within twice the 1% bound at 25 samples of the 0.05 margin
    rows = [laws.DichotomyRow(horizon_log2=11 * i, block_index=i, count=25,
                              ks_vs_oracle=0.0, ks_vs_normal=0.125,
                              ks_gate=0.0, residual_fraction=0.0)
            for i in (1, 2)]

    def fixed(moments, count, seed, *, margin=0.05):
        return laws.decide(rows, margin)

    monkeypatch.setattr(laws, "dichotomy_report", fixed)
    out = tmp_path / "inc"
    code, doc = run_main(["theorem1", "--samples", "25", "--seed", "3",
                          "--grid", "dyadic:4:8", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 4
    verdict = json.loads((out / "verdict.json").read_text())
    d = verdict["dichotomy"]
    assert d["verdict"] == "INCONCLUSIVE"
    assert d["required_count_estimate"] == 4252      # (2 * 1.63 / 0.05)^2
    assert d["notes"] == ["gap within sampling noise of the margin"]
    assert [(r["oracle_pass"], r["gate_bound"]) for r in d["rows"]] == \
        [(True, laws.ks_pass_bound(25))] * 2


def table(path):
    """A CSV artifact's header lines and its column-and-row lines."""
    lines = path.read_text().splitlines()
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


def test_csv_writer_cells():
    cfg = parse(["custom", "--samples", "0"])
    header = "# config: " + json.dumps(cfg.to_dict(), sort_keys=True)
    rows = [("2^100", 2 ** 60 + 1, np.int64(2 ** 62 + 1), math.nan, 0.1),
            ("x", 8, np.int64(-3), math.inf, -0.0)]
    text = cli._csv(cfg, "2000-01-01T00:00:00+00:00",
                    ("a", "b", "c", "d", "e"), rows)
    assert text.split("\n") == [
        header, "# generated: 2000-01-01T00:00:00+00:00", "a,b,c,d,e",
        # integers in full digits, which .17g would round
        "2^100,1152921504606846977,4611686018427387905,nan,"
        "0.10000000000000001",
        "x,8,-3,inf,-0", ""]
    # no stamp, no generated line
    assert cli._csv(cfg, None, ("a",), [(1,)]) == header + "\na\n1\n"


def test_conditions_csv_columns_and_rows(tmp_path, capsys):
    path = tmp_path / "run" / "conditions.csv"
    argv = ["custom", "--kmax", "12", "--grid", "dyadic:3:6", "--samples",
            "0", "--no-timestamp", "--out", str(path.parent)]
    assert run_main(argv, capsys)[0] == 0
    body = path.read_bytes()
    heads, lines = table(path)
    assert len(heads) == 1 and heads[0].startswith("# config: {")
    assert lines[0] == ("N,b,cond_norm,sigma,ratio_bound9,"
                        "ratio_rate5,lemma5_ratio,tail_2prime")
    assert len(lines) == 5
    assert lines[1].startswith("8,")
    assert run_main(argv, capsys)[0] == 0
    assert path.read_bytes() == body  # deterministic


def test_dichotomy_csv_huge_horizon(tmp_path, capsys, monkeypatch):
    row = laws.DichotomyRow(horizon_log2=100, block_index=2, count=10,
                            ks_vs_oracle=0.1, ks_vs_normal=0.2,
                            ks_gate=0.01, residual_fraction=0.0)
    small = laws.DichotomyRow(horizon_log2=11, block_index=1, count=10,
                              ks_vs_oracle=0.3, ks_vs_normal=0.4,
                              ks_gate=0.01, residual_fraction=0.0)
    # a row's parity is its block's
    assert row.parity is BlockParity.GAUSSIAN
    assert small.parity is BlockParity.THREE_VALUED
    rep = laws.DichotomyReport([small, row], 0.05, 0.1,
                               laws.DichotomyVerdict.DIFFERENT_LIMITS, None,
                               [])
    monkeypatch.setattr(laws, "dichotomy_report",
                        lambda moments, count, seed: rep)
    out = tmp_path / "d"
    code, _ = run_main(["custom", "--samples", "10", "--grid", "dyadic:4:8",
                        "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    _, lines = table(out / "dichotomy.csv")
    assert lines[0] == "horizon,ks_vs_oracle,ks_vs_normal," \
                       "residual_fraction,verdict"
    assert lines[1].startswith("2048,")
    assert lines[2].startswith("2^100,")
    assert all(line.endswith(",DIFFERENT_LIMITS") for line in lines[1:])
    assert len(lines) == 3


def test_spectral_rows_start_at_the_grid(tmp_path, capsys):
    # the sweep steps from n = 1, but the table holds the grid's rows
    for grid, ns in (("dyadic:5:8", [32, 64, 128, 256]),
                     ("dyadic:1:8", [1 << e for e in range(1, 9)])):
        out = tmp_path / grid.replace(":", "-")
        code, _ = run_main(["spectral", "--grid", grid, "--no-timestamp",
                            "--out", str(out)], capsys)
        assert code == 0
        heads, lines = table(out / "spectral.csv")
        assert len(heads) == 1
        assert lines[0] == ("n,norm_Sn,sum3_partial,rate5,rate6_q,"
                            "remark7_partial")
        assert len(lines) == len(ns) + 1
        assert [int(line.split(",")[0]) for line in lines[1:]] == ns


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


def test_preset_refuses_a_loaded_schedule_of_another_mode(tmp_path,
                                                          capsys):
    path = tmp_path / "params.json"
    w = build_weights(WeightMode.INV_LOG, 64)
    save_params(SequenceParams(w, split_blocks(w, [8, 64])), path)
    out = tmp_path / "run"
    for argv in (["validate", "--scenario", "theorem1"],
                 ["theorem1", "--samples", "0", "--out", str(out)]):
        code, doc = run_main(argv + ["--params-file", str(path)], capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError",
            "message": "this preset pins its weight mode",
            "details": {"scenario": "THEOREM1", "pinned": "const",
                        "loaded": "inv_log"}}
    assert not out.exists()


def test_loaded_schedule_keeps_its_own_decay(tmp_path, capsys):
    # the file's decay is 2^(-k/2); the built-in one would be 2^-k
    kmax = 64
    decay = np.exp2(-0.5 * np.arange(1, kmax + 1))
    path = tmp_path / "params.json"
    save_params(default_params(kmax=kmax, mode=WeightMode.ADAPTED, c=decay),
                path)
    out = tmp_path / "run"
    code, _ = run_main(["theorem2", "--params-file", str(path),
                        "--samples", "0", "--grid", "dyadic:4:8",
                        "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.DictReader(
        line for line in (out / "schedule.csv").read_text().splitlines()
        if not line.startswith("#")))
    c = {int(row["k"]): float(row["c"]) for row in rows}
    assert [c[k] for k in (1, 2, 4)] == [decay[0], decay[1], decay[3]]


def _adapted_file(path):
    """An adapted schedule with c_k = 2^(-k/4) saved to ``path``; its
    kmax 1200 and rho 3 differ from the theorem2 preset's 1024 and 4."""
    decay = np.exp2(-0.25 * np.arange(1, 1201))
    save_params(default_params(kmax=1200, rho=3.0, mode=WeightMode.ADAPTED,
                               c=decay), path)
    return decay


def test_loaded_schedule_sets_the_echoed_kmax(tmp_path, capsys):
    path = tmp_path / "params.json"
    _adapted_file(path)
    out = tmp_path / "run"
    code, _ = run_main(["theorem2", "--params-file", str(path),
                        "--samples", "0", "--grid", "dyadic:4:8",
                        "--no-timestamp", "--out", str(out)], capsys)
    assert code == 0
    echo = json.loads((out / "config.json").read_text())["config"]
    assert (echo["kmax"], echo["a_mode"], echo["rho"]) == \
        (1200, "theorem2", 3.0)
    for name in ("conditions.csv", "schedule.csv"):
        header = (out / name).read_text().splitlines()[0]
        assert header == "# config: " + json.dumps(echo, sort_keys=True)
    # validate echoes the same values as the run
    code, doc = run_main(["validate", "--scenario", "theorem2",
                          "--params-file", str(path), "--samples", "0",
                          "--grid", "dyadic:4:8", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 0
    assert doc["config"] == echo


def test_loaded_schedule_sets_the_echoed_mode_and_rho(tmp_path, capsys):
    # an inverse-log schedule with explicit targets has no rho
    path = tmp_path / "params.json"
    w = build_weights(WeightMode.INV_LOG, 64)
    save_params(SequenceParams(w, split_blocks(w, [8, 64]),
                               mass_target=MassTarget.explicit_targets(
                                   [2.0, 3.0])), path)
    out = tmp_path / "run"
    argv = ["--params-file", str(path), "--samples", "0", "--grid",
            "dyadic:4:8", "--no-timestamp", "--out", str(out)]
    code, _ = run_main(["custom"] + argv, capsys)
    assert code == 0
    echo = json.loads((out / "config.json").read_text())["config"]
    assert (echo["kmax"], echo["a_mode"], echo["rho"]) == \
        (64, "invlog", None)
    code, doc = run_main(["validate", "--scenario", "custom"] + argv,
                         capsys)
    assert code == 0
    assert doc["config"] == echo


def test_c_file_covers_the_loaded_kmax(tmp_path, capsys):
    path = tmp_path / "params.json"
    decay = _adapted_file(path)
    c_file = tmp_path / "c.txt"
    out = tmp_path / "run"
    argv = ["--params-file", str(path), "--c-file", str(c_file),
            "--samples", "0", "--grid", "dyadic:4:8", "--no-timestamp",
            "--out", str(out)]
    # 1200 values cover the loaded schedule, not just the preset's 1024
    c_file.write_text("\n".join(repr(float(x)) for x in decay))
    code, _ = run_main(["theorem2"] + argv, capsys)
    assert code == 0
    c_file.write_text("\n".join(repr(float(x)) for x in decay[:1100]))
    for head in (["validate", "--scenario", "theorem2"], ["theorem2"]):
        code, doc = run_main(head + argv, capsys)
        assert code == 2
        assert doc["error"]["message"] == "decay file shorter than kmax"
        assert doc["error"]["details"] == {"path": str(c_file),
                                           "have": 1100, "need": 1200}


@pytest.mark.parametrize("scenario,values,k", [
    # NaN at k = 6 would turn weighted_partial_mass into nan from k = 7
    ("theorem2", [2.0 ** -k if k != 6 else math.nan
                  for k in range(1, 1025)], 6),
    # a weighted check extends a nonincreasing sequence by its last value
    ("conditions", list(range(1, 25)), 2),
])
def test_bad_decay_file_exits_2(scenario, values, k, tmp_path, capsys):
    c_file = tmp_path / "c.txt"
    c_file.write_text(", ".join(repr(float(x)) for x in values))
    out = tmp_path / "run"
    for head in (["validate", "--scenario", scenario], [scenario]):
        code, doc = run_main(head + ["--c-file", str(c_file), "--samples",
                                     "0", "--out", str(out)], capsys)
        assert code == 2
        assert doc["error"] == {
            "type": "ParamsError",
            "message": "decay sequence must be finite, positive and "
                       "nonincreasing",
            "details": {"k": k}}
    assert not out.exists()


@pytest.mark.parametrize("argv,message,details", [
    (["--c-file", "c.txt"], "decay file holds a non-numeric token",
     {"path": "c.txt"}),
    # 2^-1075 rounds to zero, so the built-in decay ends at k = 1074
    (["--kmax", "1100"], "built-in halving decay underflows past k=1074; "
                         "supply --c-file", {"kmax": 1100}),
])
def test_unusable_decay_exits_2(argv, message, details, tmp_path, capsys,
                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.txt").write_text("0.5, abc\n")
    for head in (["validate", "--scenario", "theorem2"],
                 ["theorem2", "--samples", "0", "--out", "o"]):
        code, doc = run_main(head + argv, capsys)
        assert code == 2
        assert doc["error"] == {"type": "ParamsError", "message": message,
                                "details": details}
    assert not Path("o").exists()


TOY_SPEC = {"kernel_row": [0.5, 0.25, 0.25],
            "observable": [0.0, 1.0, [0.0, -1.0]]}


def test_spectral_toy_file(tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_SPEC))
    out = tmp_path / "sp"
    # the toy sets the dimension, and the configuration echoes it as kmax
    code, doc = run_main(["spectral", "--toy-file", str(path), "--kmax", "5",
                          "--grid", "dyadic:1:10", "--no-timestamp",
                          "--out", str(out)], capsys)
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert json.loads((out / "config.json").read_text())["config"][
        "kmax"] == verdict["config"]["kmax"] == 3
    code, doc = run_main(["validate", "--scenario", "spectral", "--toy-file",
                          str(path), "--kmax", "5"], capsys)
    assert code == 0
    assert doc["config"]["kmax"] == doc["derived"]["dim"] == 3
    sp = verdict["spectral"]
    assert sp["dim"] == 3
    assert set(sp) == {"correspondence", "dim", "q",
                       "sqrt_series_error_m1024"}
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
