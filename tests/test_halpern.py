"""Two-point analytic results: optimal recursion, windows, affine bound."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mannrates.distances import build_distance_table
from mannrates.halpern import (affine_optimal, affine_theta, check_sufficient,
                               harmonic_bound, in_stepsize_window,
                               optimal_recursion, stepsize_window)
from mannrates.operators import affine_shift_halpern_residual
from mannrates.schemes import SchemeSpec, build_rows

from conftest import assert_table_is_transport


def test_recursion_first_values_exact():
    betas, resid = optimal_recursion(3, exact=True)
    assert betas == [0, Fraction(1, 2), Fraction(5, 8), Fraction(89, 128)]
    assert resid == [1, Fraction(3, 4), Fraction(39, 64),
                     Fraction(39, 64) - Fraction(39, 64) ** 2 / 4]


def test_recursion_monotonicity_and_bound():
    betas, resid = optimal_recursion(2000)
    for n in range(2000):
        assert betas[n + 1] > betas[n]
        assert resid[n + 1] < resid[n]
        assert resid[n] <= 4 / (n + 4) + 1e-15


def test_recursion_matches_transport_table():
    """The recursion values equal the table of the unrolled two-point array,
    whose every entry a transport solve checks -- the independent oracle for
    the closed form."""
    N = 10
    betas, resid = optimal_recursion(N)
    arr = build_rows(SchemeSpec("halpern", betas=tuple(betas)), N)
    table, _ = build_distance_table(arr)
    assert_table_is_transport(table, arr.rows, tol=1e-12)
    for n in range(N + 1):
        assert table.residuals[n] == pytest.approx(resid[n], abs=1e-12)


def test_optimal_betas_satisfy_sufficient_condition():
    betas, _ = optimal_recursion(500)
    rep = check_sufficient(betas, a=3, kappa=4)
    assert rep.holds and rep.margin >= 0


def test_sufficient_condition_rejects_slow_betas():
    betas = [n / (n + 1) for n in range(200)]
    rep = check_sufficient(betas, a=3, kappa=4)
    assert not rep.holds


def test_stepsize_window_membership():
    centered = [(n + 1) / (n + 3) for n in range(100)]
    assert in_stepsize_window(centered).holds
    shifted = [(n + 1) / (n + 3) + 1.01 * stepsize_window(n) for n in range(100)]
    rep = in_stepsize_window(shifted)
    assert not rep.holds
    betas = [n / (n + 1) for n in range(100)]
    assert not in_stepsize_window(betas).holds


def test_harmonic_bound_values():
    assert harmonic_bound(0) == 1
    assert harmonic_bound(1) == Fraction(7, 9)
    from mannrates.distances import halpern_residuals

    out = halpern_residuals([n / (n + 2) for n in range(31)])
    for n in range(31):
        assert out[n] == pytest.approx(float(harmonic_bound(n)), abs=1e-12)


def test_affine_optimal_value_exact():
    for N in (1, 2, 5, 20, 50):
        betas, value = affine_optimal(N, exact=True)
        assert value == Fraction(2, N + 1)
        assert betas[1] == Fraction(1, 2)


def test_affine_theta_requires_anchor():
    with pytest.raises(ValueError):
        affine_theta([0.5, 0.5])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=15))
def test_affine_theta_equals_shift_residual(tail):
    betas = [0.0] + tail
    theta = affine_theta(betas)
    resid = affine_shift_halpern_residual(betas)
    assert resid == pytest.approx(theta, abs=1e-12)


@given(st.integers(1, 15), st.data())
def test_affine_optimum_is_minimal(n, data):
    base = [k / (k + 1) for k in range(n + 1)]
    eps = data.draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n))
    pert = [0.0] + [min(1.0, max(0.0, b + e))
                    for b, e in zip(base[1:], eps)]
    assert affine_theta(pert) >= 2 / (n + 1) - 1e-12


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        optimal_recursion(-1)
