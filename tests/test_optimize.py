"""Coefficient optimizers: exact small-horizon optima, regime ordering,
scheme-constrained searches, and determinism."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mannrates.distances import build_distance_table, empty_table
from mannrates.halpern import optimal_recursion
from mannrates.optimize import (SCHEME_PARAMS, OptimizeInputError, OptimizerConfig,
                                StageEvaluator, _freeze_stage, _rows_monotone,
                                fit_slope, optimize_fixed_horizon, optimize_scheme,
                                optimize_sequential, project_simplex)
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows
from mannrates.witness import build_worst_case_witness

from conftest import random_array, random_monotone_array, random_simplex


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


def _wide_range_array(rng, N):
    """Rational rows whose weights span nine orders of magnitude."""
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        w = [10 ** rng.randint(0, 9) * rng.randint(0, 3) for _ in range(n + 1)]
        w[n] += 1
        total = sum(w)
        rows.append(tuple(Fraction(x, total) for x in w))
    return rows


def test_stage_pair_solves_match_exact_table():
    # margins spanning many orders of magnitude: an LP solver at default
    # tolerances missed these distances by up to 1e-7, beyond CERT_TOL
    N = 5
    for seed in range(30):
        rows = _wide_range_array(random.Random(seed), N)
        exact, _ = build_distance_table(TriangularArray(rows), exact=True)
        table = empty_table(N)
        for m, n, d in exact.csv_rows():
            table.set_d(m, n, float(d))
        frows = [tuple(map(float, r)) for r in rows]
        for n in range(2, N + 1):
            ev = StageEvaluator(frows[:n], table, n, _rows_monotone(frows[:n]))
            for k in range(1, n + 1):
                assert ev._solve_pair(frows[n], k) == pytest.approx(
                    float(exact.d(k - 1, n)), abs=1e-12)


def test_surrogate_is_lower_bound_tight_at_harvested_points(rng):
    N = 5
    for builder in (random_array, random_monotone_array):
        for _ in range(5):
            rows = builder(rng, N)
            table, _ = build_distance_table(TriangularArray(rows))
            ev = StageEvaluator(rows[:N], table, N, _rows_monotone(rows[:N]))
            harvested = [random_simplex(rng, N + 1) for _ in range(4)]
            exacts = [ev.exact(c) for c in harvested]
            for c, val in zip(harvested, exacts):
                assert ev.surrogate(c) == pytest.approx(val, abs=1e-12)
            for _ in range(40):
                c = random_simplex(rng, N + 1)
                assert ev.surrogate(c) <= ev.exact(c) + 1e-12


def _optimizer_outputs():
    cfg = OptimizerConfig(restarts=2, seed=3, max_evals=2000)
    yield "ms", optimize_sequential(6, cfg, monotone=True)
    yield "s", optimize_sequential(4, cfg, monotone=False)
    yield "fh", optimize_fixed_horizon(3, cfg)
    for kind in SCHEME_PARAMS:
        yield kind, optimize_scheme(kind, 6, cfg)


def test_optimizer_outputs_rebuild_and_certify():
    # each optimizer's stage values come from its own closed forms, surrogate
    # and pair solves; an independent table build of the emitted array and
    # its witness must agree
    for name, res in _optimizer_outputs():
        table, _ = build_distance_table(res.array)
        assert [float(v) for v in table.residuals] == pytest.approx(
            [float(v) for v in res.values], abs=1e-9), name
        assert build_worst_case_witness(res.array).report.ok, name
        assert max(res.certificates) <= 1e-9, name


def test_ishikawa_coefficients_follow_rows():
    for N in (5, 6):
        res = optimize_scheme("ishikawa", N, OptimizerConfig(restarts=2))
        c = res.coefficients
        assert len(c["alpha"]) == len(c["beta"]) == N + 1
        arr = build_rows(SchemeSpec("ishikawa", alphas=c["alpha"][1::2],
                                    betas=c["beta"][1::2]), N)
        for got, want in zip(arr.rows, res.array.rows):
            assert got == pytest.approx(want, abs=1e-15)
