#!/usr/bin/env python3
"""Benchmark of the cltlab preset CLI, end to end and per layer.

    python3 bench/run.py --workload theorem1 --seed 0 --seconds 5 --trace 0
    python3 bench/run.py                   # every workload in turn, seed 0

Run it from anywhere inside a checkout; it imports and runs the package
from the checkout's ``src/`` and writes only under ``.bench_out/``.

``--trace 0`` measures from outside.  Each workload is one ``cltlab``
process with fixed arguments plus ``--seed`` and ``--no-timestamp``:

* ``setup_s``: median wall time of SETUP_PROBES ``cltlab validate``
  processes with the workload's arguments (interpreter start, imports,
  argument checks, schedule and block construction);
* ``wall_s`` and ``peak_rss_mb``: medians over the preset processes run
  until ``--seconds`` of them have been timed (at least one), from
  spawn to exit and from ``os.wait4``;
* ``checks_passed``: how many of the named checks in ``checks.py``
  passed on every process of the run; the checks read the artifacts
  after each process exits, outside the timed interval.

``--trace 1`` runs ``tracer.py`` in fresh interpreters: a traced and a
plain in-process call of ``cltlab.cli.main`` with the same arguments,
repeated until ``--seconds`` have passed.  It reports per-layer self
times (medians), counts (which must repeat), the traced time that no
span covers, and the tracing overhead.

The human-readable lines come first, among them ``checks_failed`` (the
failing checks by name) and ``error_rate`` (processes that crashed, timed
out or exited non-zero, over processes started).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``correct`` is false when a process failed or a check failed
that is not one of the workload's known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CHECKS, SigmaOracle, run_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Fixed and relative: every artifact header echoes --out, so artifact
# digests repeat only if the path does.
OUT = ".bench_out"

SETUP_PROBES = 3
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    expected: dict[str, str]        # condition and dichotomy verdict tokens
    known_defects: frozenset[str]   # checks the program fails at present


# Known defects, reported by name on every run and counted against
# checks_passed; `correct` turns false only for a failure outside them:
# tail_2prime is NaN once series_tail_norm exceeds its work budget
# (finite_cells), theorem1 judges SERIES_2PRIME on a kmax=24 stand-in
# (own_params), and theorem3's oracle gate fails at 2^3264 while the
# verdict ignores it because only one parity completes (oracle_gates).
WORKLOADS = {
    # Exact-moment path alone: series_tail_norm is ~99% of the time and
    # all of the peak memory; the sampler and the laws never run.
    "conditions": Workload(
        ("conditions", "--samples", "0"),
        {"BOUND_9": "TREND_CONFIRMED", "MW_3PRIME": "TREND_CONFIRMED",
         "SERIES_2PRIME": "TREND_CONFIRMED", "RATE_5": "TREND_VIOLATED",
         "WEIGHTED_4": "SKIPPED"},
        frozenset()),
    # The headline two-parity run, the only DIFFERENT_LIMITS one: the
    # kmax=24 tail stand-in, full-sum sampling at 2^11 and sampling plus
    # oracle at 2^37605530.
    "theorem1": Workload(
        ("theorem1", "--samples", "100000"),
        {"SERIES_2PRIME": "TREND_CONFIRMED", "dichotomy": "DIFFERENT_LIMITS"},
        frozenset({"finite_cells", "own_params"})),
    # Full-sum sampling below the horizon cap, mostly ramp segments; the
    # tail gives up at once on its work budget.
    "theorem2": Workload(
        ("theorem2", "--samples", "100000"),
        {"WEIGHTED_4": "TREND_CONFIRMED", "dichotomy": "NO_DICHOTOMY"},
        frozenset({"finite_cells"})),
    # Block-profile construction over deep inverse-log blocks, ~290 MB of
    # weights at set-up, Poisson oracle beyond the cap.  The grid is wider
    # than the preset's 4:16 so profile work, not start-up, dominates.
    "theorem3": Workload(
        ("theorem3", "--samples", "100000", "--grid", "dyadic:4:40"),
        {"RATE_5": "TREND_CONFIRMED", "dichotomy": "NO_DICHOTOMY"},
        frozenset({"finite_cells", "oracle_gates"})),
}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("checks_passed", "count"))

_BATCHES = [f"simulate.sample_batch.{kind}.{where}"
            for kind in ("full_sn", "approx_iid_sum")
            for where in ("desk", "beyond")]

PER_LAYER = (
    ("engine.series_tail_norm.self_s", "s"),
    ("engine.series_tail_norm.calls", "count"),
    ("engine.series_tail_norm.distinct_args", "count"),
    ("engine.series_tail_norm.budget_errors", "count"),
    ("engine.series_tail_norm.rss_raise_mb", "MB"),
    ("engine.profiles.self_s", "s"),
    ("engine.profiles.built", "count"),
    ("engine.segments", "count"),
    ("engine.moments.self_s", "s"),
    ("engine.check_condition.self_s", "s"),
    ("engine.table_rows.self_s", "s"),
    ("engine.block_var_over_n.self_s", "s"),
    ("weights.build_weights.self_s", "s"),
    ("blocks.build_blocks.self_s", "s"),
    ("blocks.default_params.self_s", "s"),
    ("blocks.default_params.rss_raise_mb", "MB"),
    *[(f"{b}.{m}", u) for b in _BATCHES
      for m, u in (("self_s", "s"), ("draws", "count"),
                   ("draws_per_s", "1/s"))],
    ("simulate.dichotomy_samples.self_s", "s"),
    ("simulate.spike_segments.sloped", "count"),
    ("simulate.spike_segments.flat", "count"),
    ("laws.exact_law.self_s", "s"),
    ("laws.realize.self_s", "s"),
    ("laws.ks_distance.self_s", "s"),
    ("laws.ks_distance.calls", "count"),
    ("laws.empirical_law.self_s", "s"),
    ("laws.dichotomy_report.self_s", "s"),
    ("laws.gate_failures", "count"),
    ("cli.format.self_s", "s"),
    ("cli.other_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "share"),
    ("trace.missing_spans", "count"),
)


# ---------------------------------------------------------------------------
# Processes

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> Proc:
    """Run argv from the checkout root; wall time from spawn to exit."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                log.read_text(encoding="utf-8", errors="replace"))


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*")) if p.is_file()}


class Run:
    """One benchmark run of one workload: processes, checks, digests."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.start = time.perf_counter()
        self.out_rel = f"{OUT}/{name}"
        self.out = ROOT / self.out_rel
        self.common = ["--seed", str(seed), "--no-timestamp",
                       "--out", self.out_rel]
        self.procs: list[Proc] = []
        self.failures = {c: [] for c in CHECKS}   # check -> failure details
        self.details: dict[str, str] = {}
        self.digests: dict[str, str] | None = None
        self.digests_repeat = True
        self.oracle = SigmaOracle()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def launch(self, argv: list[str]) -> Proc:
        shutil.rmtree(self.out, ignore_errors=True)
        p = spawn(argv, ROOT / OUT / f"{self.name}.log",
                  self.remaining() - 5.0)
        self.procs.append(p)
        return p

    def cli(self, *args: str) -> Proc:
        return self.launch([sys.executable, "-m", "cltlab.cli", *args,
                            *self.common])

    def check(self, exit_code: int) -> None:
        res = run_checks(self.out, exit_code, self.wl.expected, self.oracle)
        for name, (ok, detail) in res.items():
            self.details.setdefault(name, detail)
            if not ok:
                self.failures[name].append(detail)
        digests = _digests(self.out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.digests_repeat = False

    def may_repeat(self, elapsed_work: float, last: float) -> bool:
        return (elapsed_work < self.seconds
                and self.remaining() > 2.0 * last + 10.0)

    @property
    def failed_checks(self) -> list[str]:
        return [c for c, bad in self.failures.items() if bad]

    @property
    def failed_procs(self) -> int:
        return sum(p.code != 0 for p in self.procs)

    def correct(self) -> bool:
        return (self.failed_procs == 0
                and set(self.failed_checks) <= self.wl.known_defects)


def measure_end_to_end(run: Run) -> tuple[dict, list[str]]:
    wl = run.wl
    probes = [run.cli("validate", "--scenario", *wl.args)
              for _ in range(SETUP_PROBES)]
    timed: list[Proc] = []
    while True:
        p = run.cli(*wl.args)
        timed.append(p)
        run.check(p.code)
        if not run.may_repeat(sum(t.wall_s for t in timed), p.wall_s):
            break
    n_checks = len(run.failures)
    values = {
        "wall_s": statistics.median(t.wall_s for t in timed),
        "peak_rss_mb": statistics.median(t.rss_mb for t in timed),
        "setup_s": statistics.median(p.wall_s for p in probes),
        "checks_passed": n_checks - len(run.failed_checks),
    }
    cpu = statistics.median(t.cpu_s for t in timed)
    notes = [f"wall_s and peak_rss_mb: median of {len(timed)} processes "
             f"(median CPU time {cpu:.4g} s)",
             f"setup_s: median of {len(probes)} validate processes",
             f"checks_passed: of {n_checks} checks"]
    return values, notes


def _tracer_result(p: Proc) -> dict | None:
    try:
        res = json.loads(p.output.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return res if p.code == 0 else None


def measure_layers(run: Run) -> tuple[dict, list[str]]:
    pairs = []
    tracer = [sys.executable, str(BENCH / "tracer.py")]
    while True:
        traced = run.launch([*tracer, "traced", "--", *run.wl.args,
                             *run.common])
        run.check(traced.code)
        plain = run.launch([*tracer, "plain", "--", *run.wl.args,
                            *run.common])
        t, u = _tracer_result(traced), _tracer_result(plain)
        if t is None or u is None:
            break
        pairs.append((t, u))
        if not run.may_repeat(sum(x["wall_s"] + y["wall_s"]
                                  for x, y in pairs),
                              traced.wall_s + plain.wall_s):
            break
    if not pairs:
        return {}, ["traced run failed"]

    def per_pair(t: dict, u: dict) -> dict:
        s = dict(t["stats"])
        s["cli.other_s"] = t["wall_s"] - t["top_s"]
        s["trace.traced_s"] = t["wall_s"]
        s["trace.untraced_s"] = u["wall_s"]
        s["trace.overhead_s"] = t["wall_s"] - u["wall_s"]
        s["trace.coverage"] = t["top_s"] / t["wall_s"]
        s["trace.missing_spans"] = len(t["missing"])
        return s

    samples = [per_pair(t, u) for t, u in pairs]
    values, repeat = {}, True
    for name, unit in PER_LAYER:
        if name.endswith(".draws_per_s"):
            continue
        got = [s.get(name, 0.0) for s in samples]
        if unit == "count":
            values[name] = int(got[0])
            repeat = repeat and all(g == got[0] for g in got)
        else:
            values[name] = statistics.median(got)
    for b in _BATCHES:
        t = values[f"{b}.self_s"]
        values[f"{b}.draws_per_s"] = values[f"{b}.draws"] / t if t else 0.0
    notes = [f"per-layer: {len(pairs)} traced/plain pairs, "
             f"counts {'repeat' if repeat else 'DIFFER'} across pairs"]
    missing = pairs[0][0]["missing"]
    if missing:
        notes.append(f"missing spans: {', '.join(missing)}")
    return values, notes


# ---------------------------------------------------------------------------
# Reporting

def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def machine_and_code() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError):
        blas = None
    files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    for f in files:
        src_hash.update(str(f.relative_to(SRC)).encode() + b"\0"
                        + f.read_bytes())
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        },
        "code": {
            "git_commit": _git_commit(),
            "src_sha256": src_hash.hexdigest(),
            "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                             for f in files),
        },
    }


def report(run: Run, trace: int, values: dict, notes: list[str]) -> dict:
    units = dict(END_TO_END if trace == 0 else PER_LAYER)
    print(f"== {run.name}  seed {run.common[1]}  trace {trace}")
    for name, unit in units.items():
        v = values.get(name)
        print(f"  {name:44s} {'-' if v is None else f'{v:.6g}':>12} {unit}")
    failed = run.failed_checks
    attempted = len(run.procs)
    print(f"  {'checks_failed':44s} {len(failed):>12} count  "
          f"{', '.join(failed) or 'none'}")
    print(f"  {'error_rate':44s} {run.failed_procs / attempted:>12.6g} "
          f"share  ({run.failed_procs} of {attempted} processes)")
    for name, detail in run.details.items():
        state = "FAIL" if run.failures[name] else "pass"
        known = (" (known defect)" if run.failures[name]
                 and name in run.wl.known_defects else "")
        print(f"  check.{name:12s} {state}{known}: "
              f"{run.failures[name][0] if run.failures[name] else detail}")
    fixed = sorted(run.wl.known_defects - set(failed))
    if fixed:
        print(f"  known defects no longer failing: {', '.join(fixed)}")
    for note in notes:
        print(f"  {note}")
    print("  info " + json.dumps({**machine_and_code(),
                                  "digests": run.digests,
                                  "digests_repeat": run.digests_repeat},
                                 sort_keys=True))
    ok = run.correct() and len(values) == len(units)
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": run.failed_procs,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="process time to measure per run (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cltlab" / "cli.py").is_file():
        print(f"bench: no cltlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))   # for the sigma oracle in checks.py
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run = Run(name, args.seed, args.seconds)
        measure = measure_end_to_end if args.trace == 0 else measure_layers
        values, notes = measure(run)
        print(json.dumps(report(run, args.trace, values, notes)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
