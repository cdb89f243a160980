"""Exception types shared across the package, the seed range, and the
table of every work and memory budget with its one check, ``charge``.

Each error carries its named context (e.g. the mass accumulated before a
block construction ran out of indices, or an estimate against its budget)
in ``details``; unset entries stay None.
"""

from typing import NamedTuple

#: largest horizon the integer-exact desk paths accept
DESK_N_CAP = 1 << 52


class ParamsError(ValueError):
    """Raised when a parameter set is structurally invalid."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class WorkBudgetError(RuntimeError):
    """A requested computation exceeds the configured operation budget."""

    def __init__(self, message, estimated_ops=None, budget=None):
        super().__init__(message)
        self.details = {"estimated_ops": estimated_ops, "budget": budget}


class MemoryBudgetError(RuntimeError):
    """A requested computation exceeds the configured memory budget."""

    def __init__(self, message, estimated_bytes=None, budget=None):
        super().__init__(message)
        self.details = {"estimated_bytes": estimated_bytes, "budget": budget}


class TruncationError(RuntimeError):
    """A law construction could not reach the target probability mass."""

    def __init__(self, message, achieved_mass=None, target_mass=None):
        super().__init__(message)
        self.details = {"achieved_mass": achieved_mass,
                        "target_mass": target_mass}


#: a check's largest estimate, in ``unit``, and what it raises past it
Budget = NamedTuple("Budget", [("limit", int), ("unit", str),
                               ("error", type), ("message", str)])

#: every budget a run and its validation check before the work it bounds
BUDGETS = {
    # one batch of 2^28 float64 samples
    "sample_batch": Budget(8 << 28, "bytes", MemoryBudgetError,
                           "sample batch exceeds the memory budget"),
    # what one series tail row touches, as ``lattice.SeriesTail.work`` counts
    "series_tail": Budget(1 << 23, "work", WorkBudgetError,
                          "series tail range too expensive"),
    "condition_sweep": Budget(1 << 27, "eigenvalue-steps", WorkBudgetError,
                              "condition sweep too large"),
    "sqrt_series": Budget(1 << 27, "eigenvalue-steps", WorkBudgetError,
                          "square-root series too large"),
    # a normal cdf takes about 0.1 us, so a pass at the limit about 14 s
    "ks_pass": Budget(1 << 27, "cdf reads", WorkBudgetError,
                      "KS pass too large"),
    # a profile's horizon N and a tail's last lag q, kept exact in a double
    "profile_horizon": Budget(DESK_N_CAP, "horizon", WorkBudgetError,
                              "horizon exceeds the integer-exact cap"),
    "tail_lag": Budget(2 * DESK_N_CAP, "lag", WorkBudgetError,
                       "series tail beyond the integer-exact cap"),
}


def charge(name: str, estimate: int) -> None:
    """Raise budget ``name``'s error if ``estimate`` passes its limit."""
    limit, _, error, message = BUDGETS[name]
    if estimate > limit:
        raise error(message, estimate, limit)


def check_seed(seed: int) -> None:
    """Raise ParamsError unless ``seed`` lies in [0, 2^64): the sampler's
    streams key on 64 bits, so a wider seed would alias a smaller one."""
    if not 0 <= seed < 1 << 64:
        raise ParamsError("seed must lie in [0, 2^64)", seed=seed)
