"""Exception types shared across the package, and the sample-batch
budget that both a run and its validation check.

Each carries its named context (e.g. the mass accumulated before a block
construction ran out of indices, or an estimate against its budget) in
``details``; unset entries stay None.
"""

#: most samples one batch may hold: 2 GiB of float64
BATCH_BUDGET = 1 << 28


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


def check_batch_budget(count: int) -> None:
    """Raise MemoryBudgetError if a batch of ``count`` samples exceeds
    ``BATCH_BUDGET``."""
    if count > BATCH_BUDGET:
        raise MemoryBudgetError("sample batch exceeds the memory budget",
                                estimated_bytes=8 * count,
                                budget=8 * BATCH_BUDGET)
