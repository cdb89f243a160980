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
first Philox stream does.  No runtime path imports scipy; only the test
oracles in ``reference`` do.
"""

import importlib

from .blocks import (BlockParity, BlockSpec, MassTarget, SequenceParams,
                     TargetKind, build_blocks, default_params, parity_of,
                     split_blocks)
from .config import (load_params, params_from_json, params_from_text,
                     params_to_json, params_to_text, save_params)
from .engine import (Condition, ConditionReport, ExactMoments, TrendKind,
                     TrendRule, Verdict, dyadic_grid, format_csv,
                     sigma_sq_over_n)
from .errors import (MemoryBudgetError, ParamsError, TruncationError,
                     WorkBudgetError)
from .weights import (WeightMode, WeightSchedule, build_weights, harmonic,
                      weighted_prefix)

__version__ = "0.1.0"

# name -> submodule it lives in; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(
        ("laws", "DichotomyReport", "DichotomyRow", "DichotomyVerdict",
         "EmpiricalLaw", "ExactFiniteLaw", "NormalLaw", "SymPoissonLaw",
         "dichotomy_report", "empirical_law", "exact_law", "format_ks_csv",
         "ks_distance", "ks_pass_bound"), "laws"),
    **dict.fromkeys(
        ("simulate", "SampleBatch", "SampleKind", "dichotomy_samples",
         "sample_batch"), "simulate"),
    **dict.fromkeys(
        ("spectral", "SpectralTag", "SpectralToy", "binom_coeffs",
         "circulant_toy", "evaluate_conditions", "explicit_toy",
         "random_circulant_toy", "rn_identity_check", "rn_telescoping_check",
         "sqrt_apply", "toy_from_json"), "spectral"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
