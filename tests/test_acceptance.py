"""Acceptance gate: the ten headline checks, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines on
a passing run; each criterion is also a hard assertion (except the
conjecture-level S-vs-MS agreement inside criterion 10, which only warns).
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mannrates.distances import (halpern_residuals, validate_metric,
                                 validate_quadrangle)
from mannrates.halpern import affine_optimal, affine_theta, optimal_recursion
from mannrates.operators import (binomial_floor_grid_min, inf_f,
                                 affine_shift_halpern_residual,
                                 kim_vs_halpern, km_l1_residuals,
                                 make_rotation, make_truncated_shift,
                                 rotation_halpern_residual,
                                 shift_linf_residuals)
from mannrates.optimize import (OptimizerConfig, fit_slope,
                                optimize_fixed_horizon, optimize_scheme,
                                optimize_sequential)
from mannrates.schemes import TriangularArray, SchemeSpec, build_rows
from mannrates.witness import build_worst_case_witness

from conftest import random_array


def _verdict(num, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def ms100():
    return optimize_sequential(100, OptimizerConfig(restarts=8, seed=0),
                               monotone=True)


def test_criterion_1_exact_small_optima():
    t0 = time.perf_counter()
    bad = []
    for mode, kwargs in (("fh", {}), ("s", {"monotone": False}),
                         ("ms", {"monotone": True})):
        res = (optimize_fixed_horizon(1, exact=True) if mode == "fh"
               else optimize_sequential(1, exact=True, **kwargs))
        if res.values[1] != Fraction(3, 4):
            bad.append((mode, 1, res.values[1]))
        if res.array.rows[1] != (Fraction(1, 2), Fraction(1, 2)):
            bad.append((mode, 1, res.array.rows[1]))
    for monotone in (False, True):
        res = optimize_sequential(2, exact=True, monotone=monotone)
        if res.values[2] != Fraction(17, 28):
            bad.append(("seq", 2, res.values[2]))
        if res.array.rows[2] != (Fraction(5, 14), Fraction(1, 14),
                                 Fraction(8, 14)):
            bad.append(("seq", 2, res.array.rows[2]))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _verdict(1, ok)
    assert ok, (bad, elapsed)


def test_criterion_2_joint_depth_two():
    t0 = time.perf_counter()
    res = optimize_fixed_horizon(2, OptimizerConfig(restarts=32, seed=0))
    elapsed = time.perf_counter() - t0
    r6 = math.sqrt(6)
    target = 30 - 12 * r6
    row1 = (r6 - 2, 3 - r6)
    row2 = (3 * r6 - 7, 5 - 2 * r6, 3 - r6)
    errs = [abs(float(res.values[2]) - target)]
    errs += [abs(a - b) for a, b in zip(res.array.rows[1], row1)]
    errs += [abs(a - b) for a, b in zip(res.array.rows[2], row2)]
    ok = max(errs) <= 1e-6 and elapsed < 30.0
    _verdict(2, ok)
    assert ok, (max(errs), elapsed)


def test_criterion_3_recursion_to_a_million():
    t0 = time.perf_counter()
    n_top = 10 ** 6
    betas, resid = optimal_recursion(n_top)
    r = np.asarray(resid)
    bound_ok = bool((r <= 4.0 / (np.arange(n_top + 1) + 4) + 1e-15).all())
    scaled = (n_top + 4) * resid[n_top]
    elapsed = time.perf_counter() - t0
    ok = bound_ok and 3.99 <= scaled <= 4.0 and elapsed < 1.0
    _verdict(3, ok)
    assert ok, (bound_ok, scaled, elapsed)


def test_criterion_4_witness_tightness():
    t0 = time.perf_counter()
    betas, _ = optimal_recursion(8)
    arrays = [build_rows(SchemeSpec("halpern", betas=tuple(betas)), 8),
              optimize_sequential(8, OptimizerConfig(restarts=8, seed=0),
                                  monotone=True).array]
    worst = 0.0
    for pi in arrays:
        w = build_worst_case_witness(pi)
        worst = max(worst, w.report.max_distance_error,
                    w.report.max_residual_error, w.report.max_expansion)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(4, ok)
    assert ok, (worst, elapsed)


def test_criterion_5_lower_bound_floors(rng):
    t0 = time.perf_counter()
    floors_ok = True
    try:
        for _ in range(50):
            pi = TriangularArray(random_array(rng, 50))
            shift_linf_residuals(pi)  # raises unless >= 1/(n+1) at every n
        for _ in range(50):
            alphas = [0.0] + [rng.random() for _ in range(50)]
            km_l1_residuals(alphas)   # raises unless >= 1/sqrt(n+1) at every n
    except ArithmeticError:
        floors_ok = False
    exact_ok = inf_f(2) == Fraction(3, 4)
    grid_err = max(abs(float(inf_f(n)) - binomial_floor_grid_min(n))
                   for n in range(1, 31))
    elapsed = time.perf_counter() - t0
    ok = floors_ok and exact_ok and grid_err <= 1e-6 and elapsed < 60.0
    _verdict(5, ok)
    assert ok, (floors_ok, exact_ok, grid_err, elapsed)


def test_criterion_6_harmonic_remark():
    t0 = time.perf_counter()
    N = 1000
    betas = [n / (n + 2) for n in range(N + 1)]
    resid = halpern_residuals(betas)
    # incremental harmonic numbers: H_{n+2} = sum_{k=1}^{n+2} 1/k
    H = 1.0 + 0.5  # H_2, for n = 0
    closed_err = abs(resid[0] - 4 * (1 - H / 2))
    for n in range(1, N + 1):
        H += 1.0 / (n + 2)
        closed = 4 / (n + 1) * (1 - H / (n + 2))
        closed_err = max(closed_err, abs(resid[n] - closed))
    _, opt = optimal_recursion(N)
    ratios = [resid[n] / opt[n] for n in range(N + 1)]
    peak = max(range(N + 1), key=lambda n: ratios[n])
    elapsed = time.perf_counter() - t0
    ok = (closed_err <= 1e-10 and peak == 4
          and abs(ratios[4] - 1.05223) <= 1e-4 and elapsed < 1.0)
    _verdict(6, ok)
    assert ok, (closed_err, peak, ratios[4], elapsed)


def test_criterion_7_affine_bounds(rng):
    exact_ok = True
    try:
        for n in range(1, 101):
            affine_optimal(n, exact=True)  # raises unless value == 2/(n+1)
    except ArithmeticError:
        exact_ok = False
    shift_err = 0.0
    for _ in range(500):
        n = rng.randint(1, 20)
        betas = [0.0] + [rng.random() for _ in range(n)]
        shift_err = max(shift_err, abs(affine_shift_halpern_residual(betas)
                                       - affine_theta(betas)))
    rot_err = max(abs(rotation_halpern_residual(n) - 2 / (n + 1))
                  for n in range(1, 101))
    ok = exact_ok and shift_err <= 1e-12 and rot_err <= 1e-12
    _verdict(7, ok)
    assert ok, (exact_ok, shift_err, rot_err)


def test_criterion_8_accelerated_equivalence():
    outs = []
    outs.append(kim_vs_halpern(make_rotation(math.pi / 7),
                               np.array([1.0, 0.0]), 200,
                               fixed_point=np.zeros(2)))
    x0 = np.zeros(64)
    x0[0] = 1.0
    outs.append(kim_vs_halpern(make_truncated_shift(64), x0, 200,
                               fixed_point=np.zeros(64)))
    gap = max(o["max_gap"] for o in outs)
    margin = min(o["bound_margin"] for o in outs)
    ok = gap <= 1e-10 and margin >= -1e-10
    _verdict(8, ok)
    assert ok, (gap, margin)


def test_criterion_9_figure_level_slopes(ms100):
    t0 = time.perf_counter()
    hal = optimize_scheme("halpern", 100)
    km = optimize_scheme("km", 60)
    ns = list(range(20, 101))
    ms_slope = fit_slope(ns, [1.0 / float(ms100.values[n]) for n in ns])
    hal_slope = fit_slope(ns, [1.0 / float(hal.values[n]) for n in ns])
    kns = list(range(20, 61))
    km_slope = fit_slope([math.log(n) for n in kns],
                         [math.log(float(km.values[n])) for n in kns])
    elapsed = time.perf_counter() - t0
    ok = (0.25 <= ms_slope <= 0.28 and 0.24 <= hal_slope <= 0.27
          and -0.65 <= km_slope <= -0.45 and elapsed < 600.0)
    _verdict(9, ok)
    assert ok, (ms_slope, hal_slope, km_slope, elapsed)


def test_criterion_10_structural_suites():
    cfg = OptimizerConfig(restarts=4, seed=0)
    ms = optimize_sequential(30, cfg, monotone=True)
    hal = optimize_scheme("halpern", 30)
    km = optimize_scheme("km", 30)
    violations = []
    for res, is_monotone in ((ms, True), (hal, False), (km, True)):
        rep = validate_metric(res.table)
        violations.extend(rep.violations)
        if is_monotone:
            violations.extend(validate_quadrangle(res.table).violations)
    s = optimize_sequential(30, cfg, monotone=False)
    gap = max(abs(float(a) - float(b)) for a, b in zip(s.values, ms.values))
    if gap > 1e-6:
        warnings.warn(f"free vs monotone stage values differ by {gap:.3e} "
                      "(conjecture-level check, not a hard failure)")
    ok = not violations
    _verdict(10, ok)
    assert ok, violations[:5]
