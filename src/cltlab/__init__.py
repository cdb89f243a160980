"""Block-structured stationary sums: exact moments, sampling, limit laws.

The package studies normalized partial sums built from independent
coordinates grouped into alternating three-valued and Gaussian scale
blocks.  Closed-form second moments and summability diagnostics live in
``engine``; Monte Carlo draws in ``simulate``; limit-law construction
and distance tests in ``laws``; a finite spectral calculus for the
square-root membership question in ``spectral``; batch presets in
``cli``.  ``laws``, ``simulate`` and ``spectral`` load on first use
from the package root, which re-exports their names: runs that draw no
sample never import the first two, and only the spectral preset the
third.  Neither sampling module loads ``numpy.random`` on import: the
first Philox stream does.  No package module imports scipy; only the
tests and their oracles in ``tests/cltlab_reference.py`` do.
"""

import importlib

from .blocks import (BlockParity, BlockSpec, MassTarget, SequenceParams,
                     TargetKind, build_blocks, default_params, parity_of,
                     split_blocks)
from .config import (load_params, params_from_json, params_to_json,
                     save_params)
from .engine import (Condition, ConditionReport, ExactMoments, Verdict,
                     dyadic_grid, judge, sigma_sq_over_n)
from .errors import (MemoryBudgetError, ParamsError, TruncationError,
                     WorkBudgetError)
from .weights import (WeightMode, WeightSchedule, build_weights, harmonic,
                      weighted_prefix)

__version__ = "0.1.0"

# name -> submodule it lives in; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(
        ("laws", "DichotomyReport", "DichotomyRow", "DichotomyVerdict",
         "Law", "dichotomy_report", "exact_law", "finite_law",
         "ks_distance", "ks_pass_bound", "normal_law", "sym_poisson_law"),
        "laws"),
    **dict.fromkeys(
        ("simulate", "SampleBatch", "SampleKind", "sample_batch"),
        "simulate"),
    **dict.fromkeys(
        ("spectral", "SpectralToy", "binom_coeffs", "circulant_toy",
         "evaluate_conditions", "random_circulant_toy", "sqrt_apply",
         "toy_from_json"), "spectral"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
