"""Concrete maps: lower-bound floors, affine/rotation equalities, and the
accelerated-scheme equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mannrates.distances import halpern_residuals
from mannrates.halpern import affine_optimal, affine_theta
from mannrates.operators import (affine_shift_halpern_residual,
                                 binomial_floor_function,
                                 binomial_floor_grid_min, check_inf_f_chain,
                                 halpern_iterates, inf_f, is_unimodal,
                                 kim_iterates, kim_vs_halpern, km_l1_residuals,
                                 make_rotation, make_truncated_shift,
                                 poisson_binomial_pmf,
                                 rotation_halpern_residual, shift_gap,
                                 shift_linf_residuals)
from mannrates.optimize import optimize_sequential
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows

from conftest import random_array


# -- right shift on bounded sequences ---------------------------------------

def test_shift_residual_of_lazy_array():
    # rows that keep all mass on the anchor never move: residual stays 1
    rows = [(1.0,)] + [tuple([1.0] + [0.0] * n) for n in range(1, 5)]
    out = shift_linf_residuals(TriangularArray(rows))
    assert out == pytest.approx([1.0] * 5)


def test_shift_gap_equidistant_profile():
    for n in range(1, 20):
        coords = np.array([(i + 1) / (n + 1) for i in range(n)])
        assert shift_gap(coords) == pytest.approx(1 / (n + 1), abs=1e-14)


def test_shift_floor_on_random_arrays(rng):
    # the >= 1/(n+1) assertion is built into the function; run it broadly
    for _ in range(10):
        pi = TriangularArray(random_array(rng, 12))
        out = shift_linf_residuals(pi)
        assert len(out) == 13
        assert all(r <= 1.0 + 1e-12 for r in out)


# -- averaged shift on summable sequences -----------------------------------

def test_poisson_binomial_small_cases():
    pmf = poisson_binomial_pmf([0, 0.5, 0.5])
    assert pmf == pytest.approx([0.25, 0.5, 0.25])
    pmf = poisson_binomial_pmf([0, 1.0, 1.0, 1.0])
    assert pmf == pytest.approx([0, 0, 0, 1.0])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_poisson_binomial_is_a_distribution(tail):
    pmf = poisson_binomial_pmf([0.0] + tail)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert (pmf >= -1e-15).all()
    assert is_unimodal(pmf)


def test_km_residuals_known_values():
    out = km_l1_residuals([0, 0.5, 0.5])
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(1.0)   # pmf (1/2, 1/2)
    assert out[2] == pytest.approx(1.0)   # pmf (1/4, 1/2, 1/4)
    out = km_l1_residuals([0, 1.0, 1.0])
    assert out == pytest.approx([2.0, 2.0, 2.0])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_km_residual_floor(tail):
    out = km_l1_residuals([0.0] + tail)
    for n, r in enumerate(out):
        assert r >= 1 / math.sqrt(n + 1) - 1e-12


# -- the binomial floor function --------------------------------------------

def test_inf_f_small_values():
    assert inf_f(1) == 1
    assert inf_f(2) == Fraction(3, 4)
    assert inf_f(3) == Fraction(2, 3)
    with pytest.raises(ValueError):
        inf_f(0)


def test_inf_f_matches_grid_scan():
    for n in range(1, 12):
        grid = binomial_floor_grid_min(n)
        assert float(inf_f(n)) == pytest.approx(grid, abs=1e-6)


def test_binomial_floor_pointwise():
    # window [floor(nx), floor(nx) + 1]: two adjacent pmf terms
    assert binomial_floor_function(4, 0.5) == pytest.approx(
        (math.comb(4, 2) + math.comb(4, 3)) * 0.5 ** 4)
    assert binomial_floor_function(3, 0.0) == pytest.approx(1.0)
    assert binomial_floor_function(3, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        binomial_floor_function(3, 1.5)


def test_inf_f_chain():
    assert check_inf_f_chain(40)


# -- affine shift and rotation ----------------------------------------------

@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_affine_shift_attains_theta(tail):
    betas = [0.0] + tail
    assert affine_shift_halpern_residual(betas) == pytest.approx(
        affine_theta(betas), abs=1e-12)


def test_affine_bound_within_twice_the_tight_bound():
    # Theta_N is in units of ||x^0 - x*||, R_N in units of the table's
    # d(-1, N) = 1; the largest ratio Theta_N / (2 R_N) is 2/3, at N = 1
    for N in range(1, 41):
        betas = [Fraction(k, k + 1) for k in range(N + 1)]
        assert affine_theta(betas) <= 2 * halpern_residuals(betas)[N]


def test_rotation_residual_optimal_betas():
    for n in range(1, 60):
        assert rotation_halpern_residual(n) == pytest.approx(2 / (n + 1),
                                                             abs=1e-12)


def test_rotation_residual_custom_betas():
    # beta == 0 freezes the iterate at y0; residual = |y0 - R y0| = 2 sin(t/2)
    n = 9
    theta = math.pi / (n + 1)
    r = rotation_halpern_residual(n, betas=[0.0] * (n + 1))
    assert r == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)


# -- accelerated scheme vs the two-point iteration --------------------------

def test_kim_equals_halpern_on_rotation():
    T = make_rotation(0.37)
    out = kim_vs_halpern(T, np.array([1.0, 0.0]), 100,
                         fixed_point=np.zeros(2))
    assert out["max_gap"] <= 1e-10
    assert out["bound_margin"] >= -1e-12


def test_kim_equals_halpern_on_truncated_shift():
    T = make_truncated_shift(16)
    x0 = np.zeros(16)
    x0[0] = 1.0
    out = kim_vs_halpern(T, x0, 80, fixed_point=np.zeros(16))
    assert out["max_gap"] <= 1e-10
    assert out["bound_margin"] >= -1e-12


def test_halpern_iterates_default_betas():
    T = make_truncated_shift(4)
    x0 = np.array([1.0, 0, 0, 0])
    xs = halpern_iterates(T, x0, 3)
    # x^1 = (1 - 1/2) x0 + 1/2 T x0
    assert xs[1] == pytest.approx([0.5, 0.5, 0, 0])


def test_kim_iterates_start():
    T = make_rotation(0.2)
    x0 = np.array([1.0, 0.0])
    xs = kim_iterates(T, x0, 2)
    # first step: t = 0, so x^1 = (x0 + T x0) / 2
    assert xs[1] == pytest.approx(0.5 * (x0 + T(x0)))


# -- invariants raise real exceptions, which python -O does not strip --------

@pytest.mark.parametrize("target, fake, call", [
    ("mannrates.operators.shift_gap", lambda x: 0.0,
     lambda: shift_linf_residuals(TriangularArray([(1.0,), (0.5, 0.5)]))),
    ("mannrates.operators.km_l1_residual_direct", lambda p: 0.0,
     lambda: km_l1_residuals([0, 0.5])),
    ("mannrates.halpern.affine_theta", lambda betas: Fraction(0),
     lambda: affine_optimal(3, exact=True)),
    ("mannrates.optimize._exact_ms_stage",
     lambda ev: (Fraction(0), (Fraction(1, 2), Fraction(1, 2))),
     lambda: optimize_sequential(1, exact=True)),
    ("mannrates.optimize._exact_s_stage",
     lambda ev: (Fraction(0), (Fraction(1, 2), Fraction(1, 2))),
     lambda: optimize_sequential(1, monotone=False, exact=True)),
])
def test_invariant_violations_raise(monkeypatch, target, fake, call):
    monkeypatch.setattr(target, fake)
    with pytest.raises(ArithmeticError):
        call()
