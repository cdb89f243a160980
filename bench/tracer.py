"""One in-process run of the cltlab CLI, traced or plain.

    python3 bench/tracer.py traced -- theorem2 --samples 100000 --out ...
    python3 bench/tracer.py plain -- theorem2 --samples 100000 --out ...

Imports cltlab from the checkout's ``src/``.  In ``traced`` mode it then
wraps the public entry points of every layer (weights, blocks, engine,
simulate, laws, cli) in spans, at every module that looks the name up,
and calls ``cltlab.cli.main(argv)``.  ``plain`` makes the same call with
no wrappers, so the difference of the two wall times is the tracing
overhead.  The last line of stdout is one JSON object: exit code,
in-process wall time of ``main``, time covered by top-level spans, the
per-span statistics and the names of entry points that no longer exist.

A span's self time is its duration minus the time of the spans it
encloses.  Counts are taken at the same boundaries from public return
values and arguments only, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import sys
import time
import traceback
import weakref
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MOMENT_METHODS = ("sigma_sq", "cond_norm_sq", "iid_approx_error_sq",
                  "normalizer_sq", "fourth_cumulant")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span stack plus flat statistics keyed by metric name."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self.missing: list[str] = []
        self._open: list[float] = []   # child time of each open span

    def span(self, fn, name, on_return=None, on_error=None, rss=False):
        """Wrap fn; ``name`` is a string or a function of fn's arguments.

        The hooks get the span name and fn's result or exception.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(*args, **kwargs) if callable(name) else name
            rss0 = _max_rss_mb() if rss else 0.0
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(key, t0, rss0, rss)
                if on_error is not None:
                    self.count(key, on_error, key, exc)
                raise
            self._close(key, t0, rss0, rss)
            if on_return is not None:
                self.count(key, on_return, key, result)
            return result

        return wrapper

    def count(self, label, hook, *args):
        """Run a counting hook; a vanished attribute is a missing count."""
        try:
            hook(*args)
        except (AttributeError, KeyError, TypeError):
            if label not in self.missing:
                self.missing.append(label)

    def _close(self, key, t0, rss0, rss):
        dt = time.perf_counter() - t0
        child = self._open.pop()
        self.stats[key + ".self_s"] += dt - child
        self.stats[key + ".calls"] += 1
        if rss:
            self.stats[key + ".rss_raise_mb"] += _max_rss_mb() - rss0
        if self._open:
            self._open[-1] += dt
        else:
            self.top_s += dt


def _lookup_sites():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cltlab"
                                  or name.startswith("cltlab."))]


def _patch_function(tracer, module, attr, make):
    """Replace module.attr by make(original) in every cltlab module."""
    orig = getattr(module, attr, None)
    if not callable(orig):
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    wrapper = make(orig)
    for site in _lookup_sites():
        for key, val in list(vars(site).items()):
            if val is orig:
                setattr(site, key, wrapper)


def _patch_method(tracer, module, cls_name, attr, make):
    """Replace the method or property cls.attr by make(original)."""
    cls = getattr(module, cls_name, None)
    orig = vars(cls).get(attr) if isinstance(cls, type) else None
    if isinstance(orig, property) and orig.fget is not None:
        setattr(cls, attr, property(make(orig.fget)))
    elif callable(orig):
        setattr(cls, attr, make(orig))
    else:
        tracer.missing.append(f"{module.__name__}.{cls_name}.{attr}")


def _sample_batch_name(orig, desk_cap):
    """Span name simulate.sample_batch.<kind>.<desk|beyond> from the args."""
    sig = inspect.signature(orig)

    def name(*args, **kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            kind = bound.arguments["kind"]
            N = int(bound.arguments["N"])
        except (TypeError, KeyError, ValueError):
            return "simulate.sample_batch.other"
        kind = str(getattr(kind, "value", kind)).lower()
        where = "desk" if N <= desk_cap else "beyond"
        return f"simulate.sample_batch.{kind}.{where}"

    return name


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; record missing ones.

    Call after importing ``cltlab.cli``, so that its imported names are
    among the lookup sites that get patched.
    """
    from cltlab import blocks, engine, laws, simulate, weights

    stats = tracer.stats

    def fn(module, attr, name, **kw):
        _patch_function(tracer, module, attr,
                        lambda orig: tracer.span(orig, name, **kw))

    def meth(module, cls_name, attr, name, **kw):
        _patch_method(tracer, module, cls_name, attr,
                      lambda orig: tracer.span(orig, name, **kw))

    # weights, blocks
    fn(weights, "build_weights", "weights.build_weights")
    fn(blocks, "build_blocks", "blocks.build_blocks")
    fn(blocks, "default_params", "blocks.default_params", rss=True)

    # engine
    tail_args = set()

    def tail_error(key, exc):
        if type(exc).__name__ == "WorkBudgetError":
            stats[key + ".budget_errors"] += 1

    def tail_wrap(orig):
        span = tracer.span(orig, "engine.series_tail_norm",
                           on_error=tail_error, rss=True)

        @functools.wraps(orig)
        def wrapper(self, *args, **kwargs):
            # (p, q) of every call, including those that hit the budget
            tail_args.add(args + tuple(sorted(kwargs.items())))
            stats["engine.series_tail_norm.distinct_args"] = len(tail_args)
            return span(self, *args, **kwargs)

        return wrapper

    _patch_method(tracer, engine, "ExactMoments", "series_tail_norm",
                  tail_wrap)

    built = weakref.WeakKeyDictionary()   # ExactMoments -> horizons built

    def count_built(result, seen, N):
        if N not in seen:
            seen.add(N)
            stats["engine.profiles.built"] += 1
            stats["engine.segments"] += sum(len(p.segments) for p in result)

    def profiles_wrap(orig):
        span = tracer.span(orig, "engine.profiles")

        @functools.wraps(orig)
        def wrapper(self, N, *args, **kwargs):
            seen = built.setdefault(self, set())
            result = span(self, N, *args, **kwargs)
            tracer.count("engine.segments", count_built, result, seen, N)
            return result

        return wrapper

    _patch_method(tracer, engine, "ExactMoments", "profiles", profiles_wrap)
    for attr in MOMENT_METHODS:
        meth(engine, "ExactMoments", attr, "engine.moments")
    meth(engine, "ExactMoments", "check_condition", "engine.check_condition")
    meth(engine, "ExactMoments", "table_rows", "engine.table_rows")
    fn(engine, "block_var_over_n", "engine.block_var_over_n")

    # simulate
    def batch_wrap(orig):
        name = _sample_batch_name(orig, getattr(engine, "DESK_N_CAP",
                                                1 << 52))

        def drew(key, batch):
            stats[key + ".draws"] += batch.count

        return tracer.span(orig, name, on_return=drew)

    _patch_function(tracer, simulate, "sample_batch", batch_wrap)
    fn(simulate, "dichotomy_samples", "simulate.dichotomy_samples")

    gauss_hits = getattr(simulate, "GAUSSIANIZE_HITS", float(1 << 40))

    def count_spike_segments(profile):
        """Sloped and flat spike segments the aggregate sampler will draw."""
        for lay in profile.layers:
            if (lay.segments is None or lay.hit_prob == 0.0
                    or lay.block.parity.name != "THREE_VALUED"):
                continue
            for seg in lay.segments:
                if (seg.hi - seg.lo + 1) * lay.hit_prob > gauss_hits:
                    continue
                kind = "flat" if seg.slope == 0.0 else "sloped"
                stats["simulate.spike_segments." + kind] += 1

    def profile_wrap(orig):
        # Not a span: the layout is cheap and belongs to its sample_batch.
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            profile = orig(*args, **kwargs)
            tracer.count("simulate.spike_segments", count_spike_segments,
                         profile)
            return profile

        return wrapper

    _patch_function(tracer, simulate, "build_profile", profile_wrap)

    # laws
    fn(laws, "exact_law", "laws.exact_law")
    meth(laws, "ExactFiniteLaw", "cdf_error_bound", "laws.realize")
    fn(laws, "ks_distance", "laws.ks_distance")
    fn(laws, "empirical_law", "laws.empirical_law")

    def gates(key, report):
        stats["laws.gate_failures"] += sum(not r.oracle_pass
                                           for r in report.rows)

    fn(laws, "dichotomy_report", "laws.dichotomy_report", on_return=gates)

    # cli: the artifact formatters it calls
    fn(engine, "format_csv", "cli.format")
    fn(laws, "format_ks_csv", "cli.format")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] not in ("traced", "plain") or argv[1] != "--":
        print("usage: tracer.py {traced,plain} -- <cltlab argv...>",
              file=sys.stderr)
        return 2
    mode, cli_argv = argv[0], argv[2:]
    import cltlab.cli

    tracer = Tracer()
    if mode == "traced":
        install(tracer)
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cltlab.cli.main(cli_argv)
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    print(json.dumps({
        "exit": code,
        "wall_s": wall,
        "top_s": tracer.top_s,
        "stats": dict(tracer.stats),
        "missing": tracer.missing,
        "cli_stdout": captured.getvalue()[-2000:],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
