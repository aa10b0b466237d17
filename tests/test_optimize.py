"""Coefficient optimizers: exact small-horizon optima, regime ordering,
scheme-constrained searches, and determinism."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mannrates.distances import build_distance_table, empty_table
from mannrates.halpern import optimal_recursion
from mannrates.optimize import (OptimizeInputError, OptimizerConfig, _freeze_stage,
                                fit_slope, optimize_fixed_horizon, optimize_scheme,
                                optimize_sequential, project_simplex)
from mannrates.schemes import TriangularArray

from conftest import random_array


def test_exact_depth_one():
    for monotone in (True, False):
        res = optimize_sequential(1, monotone=monotone, exact=True)
        assert res.values[1] == Fraction(3, 4)
        assert res.array.rows[1] == (Fraction(1, 2), Fraction(1, 2))
    res = optimize_fixed_horizon(1, exact=True)
    assert res.values[1] == Fraction(3, 4)


def test_exact_depth_two():
    for monotone in (True, False):
        res = optimize_sequential(2, monotone=monotone, exact=True)
        assert res.values[2] == Fraction(17, 28)
        assert res.array.rows[2] == (Fraction(5, 14), Fraction(1, 14),
                                     Fraction(4, 7))


def test_float_matches_exact_small_horizons():
    ex = optimize_sequential(4, monotone=True, exact=True)
    fl = optimize_sequential(4, OptimizerConfig(restarts=8), monotone=True)
    for n in range(5):
        assert fl.values[n] == pytest.approx(float(ex.values[n]), abs=1e-7)


def test_regime_ordering():
    """Joint <= free stagewise <= monotone stagewise (up to solver slack)."""
    cfg = OptimizerConfig(restarts=6, seed=1)
    for N in (2, 3):
        fh = optimize_fixed_horizon(N, cfg)
        s = optimize_sequential(N, cfg, monotone=False)
        ms = optimize_sequential(N, cfg, monotone=True)
        assert fh.values[N] <= s.values[N] + 1e-6
        assert s.values[N] <= ms.values[N] + 1e-6


def test_fixed_horizon_limit():
    with pytest.raises(OptimizeInputError):
        optimize_fixed_horizon(9)


def test_scheme_halpern_matches_recursion():
    res = optimize_scheme("halpern", 12, OptimizerConfig(restarts=4))
    betas, resid = optimal_recursion(12)
    for n in range(13):
        assert res.values[n] == pytest.approx(resid[n], abs=1e-8)
    for n in range(1, 13):
        assert res.coefficients["beta"][n] == pytest.approx(betas[n], abs=1e-6)


def test_scheme_km_value_reasonable():
    res = optimize_scheme("km", 10, OptimizerConfig(restarts=4))
    # optimal km sits strictly between the universal floor and 1/sqrt(n)
    assert 1 / 11 < res.values[10] < 1.0
    assert all(res.values[n + 1] <= res.values[n] + 1e-12 for n in range(10))


def test_scheme_families_progress():
    # stagewise-greedy searches need not be globally ordered across
    # families, but every series must decrease and beat the lazy scheme
    cfg = OptimizerConfig(restarts=4)
    for kind in ("extra-km", "inertial-km", "km-halpern"):
        res = optimize_scheme(kind, 8, cfg)
        assert all(res.values[n + 1] <= res.values[n] + 1e-12 for n in range(8))
        assert res.values[8] < 0.5


def test_unknown_scheme_kind():
    with pytest.raises(OptimizeInputError):
        optimize_scheme("secant", 4)


def test_determinism_same_seed():
    cfg = OptimizerConfig(restarts=6, seed=42)
    a = optimize_sequential(5, cfg, monotone=True)
    b = optimize_sequential(5, cfg, monotone=True)
    assert a.values == b.values
    assert a.array.rows == b.array.rows
    fa = optimize_fixed_horizon(3, cfg)
    fb = optimize_fixed_horizon(3, cfg)
    assert fa.values == fb.values


def test_stage_certificates_are_tight():
    res = optimize_sequential(8, OptimizerConfig(restarts=6), monotone=True)
    assert max(res.certificates) <= 1e-8


def test_config_validation():
    with pytest.raises(OptimizeInputError):
        OptimizerConfig(restarts=0)
    with pytest.raises(OptimizeInputError):
        OptimizerConfig(tolerance=0)


def test_fit_slope_exact_line():
    xs = np.arange(10)
    assert fit_slope(xs, 3.0 * xs + 2.0) == pytest.approx(3.0, abs=1e-12)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
def test_project_simplex_properties(v):
    x = project_simplex(np.asarray(v, dtype=float))
    assert x.sum() == pytest.approx(1.0, abs=1e-9)
    assert (x >= -1e-12).all()
    # idempotence
    y = project_simplex(x)
    assert np.max(np.abs(x - y)) <= 1e-9


def test_frozen_table_matches_rebuild_on_non_monotone_rows(rng):
    # the greedy nested plan is optimal only for monotone rows; freezing
    # stage by stage must gate it exactly as the full table build does
    for _ in range(30):
        N = 6
        rows = random_array(rng, N)
        frozen, table = [rows[0]], empty_table(N)
        table.residuals.append(1.0)
        for n in range(1, N + 1):
            _freeze_stage(frozen, table, rows[n], n)
        ref, _ = build_distance_table(TriangularArray(rows))
        for m, n, d in ref.csv_rows():
            assert table.d(m, n) == pytest.approx(d, abs=1e-9)
        assert table.residuals == pytest.approx(ref.residuals, abs=1e-9)
