"""The identities group checks the graded moments the solver reads: a fault
injected into the moment behind each check makes that check fail."""

import pytest

from kramers import kernels, special_integrals, verification
from kramers.special_integrals import _RULE


def _scaled_weights(n):
    def inject(monkeypatch):
        scaled = _RULE.moment_weights[n] * (1.0 + 1e-9)
        monkeypatch.setitem(_RULE.moment_weights, n, scaled)
    return inject


def _wrong_row_order(n, instead):
    def inject(monkeypatch):
        row = special_integrals.fixed_row
        monkeypatch.setattr(verification, "fixed_row",
                            lambda m, k: row(instead if m == n else m, k))
    return inject


def _t_n_off(module):
    def inject(monkeypatch):
        t_n = special_integrals.t_n
        monkeypatch.setattr(module, "t_n", lambda n, k: t_n(n, k) + 1e-9)
    return inject


@pytest.mark.parametrize("name, inject", [
    ("T_n recurrence", _scaled_weights(7)),
    ("1/sqrt(pi) - T_1 = k^2 T_3", _scaled_weights(3)),
    ("L = 1 - T_0 - gamma k^2 T_2", _scaled_weights(0)),
    ("J_n + k1^2 J_{n+2} = T_n(k)", _wrong_row_order(5, 6)),
    ("J_n partial fractions", _wrong_row_order(1, 0)),
    ("S kernel dual route", _t_n_off(kernels)),
    ("J_n partial fractions", _t_n_off(verification)),
    ("L = 1 - T_0 - gamma k^2 T_2", _t_n_off(special_integrals)),
])
def test_fault_in_the_checked_moment_fails_its_check(monkeypatch, name, inject):
    results = {r.name: r for r in verification.run_checks(only=("identities",))}
    assert results[name].passed
    inject(monkeypatch)
    results = {r.name: r for r in verification.run_checks(only=("identities",))}
    assert not results[name].passed


def test_no_check_is_zero_by_construction():
    """Two of the six checks read 0.00e+00 when both sides were the same
    adaptive integral."""
    results = verification.run_checks(only=("identities",))
    assert len(results) == 6
    assert all(0.0 < r.deviation <= r.threshold == 1e-10 for r in results)
