from hypothesis import HealthCheck, settings

from cltlab.errors import BUDGETS

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# F_p(x) = sum_{t=1}^{x} t^p as a polynomial, so F_p(hi) - F_p(lo - 1)
# sums t^p over lo..hi for any integers lo <= hi + 1
_FAULHABER = (
    lambda x: x,
    lambda x: x * (x + 1) // 2,
    lambda x: x * (x + 1) * (2 * x + 1) // 6,
    lambda x: (x * (x + 1) // 2) ** 2,
    lambda x: x * (x + 1) * (2 * x + 1) * (3 * x * x + 3 * x - 1) // 30,
)


def set_limit(monkeypatch, name, limit):
    """Give budget ``name`` the limit ``limit`` for one test."""
    monkeypatch.setitem(BUDGETS, name, BUDGETS[name]._replace(limit=limit))


def power_sums(lo, hi, top=4):
    """[S0, .., S_top], Sp = sum_{t=lo}^{hi} t^p as exact integers; the
    tests' own oracle for the engine's closed-form power sums."""
    if hi < lo:
        return [0] * (top + 1)
    return [f(hi) - f(lo - 1) for f in _FAULHABER[:top + 1]]
