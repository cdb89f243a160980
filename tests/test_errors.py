"""The budget table: every work and memory limit of the package, its unit,
its error and its message, and ``charge`` as the one check that raises
past a limit.

Two source scans, in the style of ``test_imports``, keep it the one
check: no package module but ``errors`` raises a budget error itself, and
the names the package charges are exactly the table's, so a dead entry
or a misspelt name fails here rather than mid-run.
"""

import ast
from pathlib import Path

import pytest

from cltlab.errors import (BUDGETS, DESK_N_CAP, MemoryBudgetError,
                           WorkBudgetError, charge)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/cltlab").glob("*.py"))

#: name -> (limit, unit, error, message, the estimate's ``details`` key)
TABLE = {
    "sample_batch": (1 << 31, "bytes", MemoryBudgetError,
                     "sample batch exceeds the memory budget",
                     "estimated_bytes"),
    "series_tail": (1 << 23, "work", WorkBudgetError,
                    "series tail range too expensive", "estimated_ops"),
    "condition_sweep": (1 << 27, "eigenvalue-steps", WorkBudgetError,
                        "condition sweep too large", "estimated_ops"),
    "sqrt_series": (1 << 27, "eigenvalue-steps", WorkBudgetError,
                    "square-root series too large", "estimated_ops"),
    "ks_pass": (1 << 27, "cdf reads", WorkBudgetError, "KS pass too large",
                "estimated_ops"),
    "profile_horizon": (1 << 52, "horizon", WorkBudgetError,
                        "horizon exceeds the integer-exact cap",
                        "estimated_ops"),
    "tail_lag": (1 << 53, "lag", WorkBudgetError,
                 "series tail beyond the integer-exact cap", "estimated_ops"),
}


def test_the_table_is_pinned():
    assert DESK_N_CAP == 1 << 52
    assert {name: tuple(entry) for name, entry in BUDGETS.items()} == {
        name: row[:4] for name, row in TABLE.items()}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_charge_passes_at_the_limit_and_raises_past_it(name):
    limit, _, error, message, key = TABLE[name]
    charge(name, 0)
    charge(name, limit)
    with pytest.raises(error) as err:
        charge(name, limit + 1)
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.details == {key: limit + 1, "budget": limit}


def budget_raises(source: str) -> list[int]:
    """Lines of each ``raise`` of a budget error, called or bare."""
    names = {"WorkBudgetError", "MemoryBudgetError"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) in names:
                out.append(node.lineno)
    return sorted(out)


def test_scan_catches_budget_raises():
    source = ("def f(n):\n"
              "    if n > 4:\n"
              "        raise WorkBudgetError('too large', n, 4)\n"
              "    raise errors.MemoryBudgetError\n"
              "def g():\n"
              "    raise ParamsError('bad')\n")
    assert budget_raises(source) == [3, 4]


def test_only_the_table_raises_budget_errors():
    raisers = {path.name: budget_raises(path.read_text(encoding="utf-8"))
               for path in PACKAGE if path.name != "errors.py"}
    assert {name: lines for name, lines in raisers.items() if lines} == {}


def charged_names(source: str) -> list:
    """The first argument of each ``charge(...)`` call, a string where it
    is a literal and the call's line number where it is not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) == "charge":
            arg = node.args[0] if node.args else None
            literal = (isinstance(arg, ast.Constant)
                       and isinstance(arg.value, str))
            out.append(arg.value if literal else node.lineno)
    return out


def test_scan_catches_charged_names():
    source = ("def f(n, name):\n"
              "    charge('sqrt_series', n)\n"
              "    errors.charge(name, n)\n"
              "    other('ks_pass', n)\n")
    assert charged_names(source) == ["sqrt_series", 3]


def test_every_budget_is_charged_by_name():
    names = [name for path in PACKAGE
             for name in charged_names(path.read_text(encoding="utf-8"))]
    assert [n for n in names if not isinstance(n, str)] == []
    assert set(names) == set(BUDGETS)
