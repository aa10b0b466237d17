"""Coefficient optimizers: exact small-horizon optima, regime ordering,
scheme-constrained searches, and determinism."""

import collections
import functools
import itertools
import math
import random
from fractions import Fraction
from typing import List

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mannrates.distances import (_two_point_beta, build_distance_table, empty_table,
                                 two_point_distance)
from mannrates.halpern import optimal_recursion
from mannrates.optimize import (SCHEME_PARAMS, STATIONARY_TOL, OptimizeInputError,
                                OptimizerConfig, StageEvaluator, _StartsWorker,
                                _bareiss_solve, _exact_qp, _free_search,
                                _free_stage_certificate, _free_stage_inputs,
                                _ms_stage, _nelder_mead, _propose_duals,
                                _repair_monotone, _s_stage, _stage_quadratic,
                                _stagewise, _stationarity_gap, fit_slope,
                                minimize, optimize_fixed_horizon,
                                optimize_scheme, optimize_sequential,
                                project_simplex)
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows, check_monotone
from mannrates.witness import build_worst_case_witness

from conftest import (random_array, random_monotone_array, random_simplex,
                      random_wide_range_array)


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


@pytest.mark.parametrize("N", [0, -1])
def test_fixed_horizon_needs_one_stage(N):
    for exact in (False, True):
        with pytest.raises(OptimizeInputError, match="N >= 1"):
            optimize_fixed_horizon(N, exact=exact)


@pytest.mark.parametrize("exact", [False, True])
def test_sequential_refuses_a_negative_horizon(exact):
    # N = 0 is the Dirac row alone; a negative N is an input error
    assert optimize_sequential(0, exact=exact).values == [1]
    for N in (-1, -2):
        with pytest.raises(OptimizeInputError, match="horizon"):
            optimize_sequential(N, exact=exact)


def test_scheme_search_refuses_a_negative_horizon():
    assert optimize_scheme("km", 0).values == [1.0]
    for kind in ("km", "ishikawa"):
        with pytest.raises(OptimizeInputError, match="horizon"):
            optimize_scheme(kind, -1)


def test_scheme_halpern_matches_recursion():
    # the stage minimum is flat in beta: R_n matches to rounding at N=30,
    # the stepsizes only to the local refinement's resolution
    for N, r_tol, beta_tol in ((12, 1e-8, 1e-6), (30, 1e-15, 1e-8)):
        res = optimize_scheme("halpern", N)
        betas, resid = optimal_recursion(N)
        for n in range(N + 1):
            assert res.values[n] == pytest.approx(resid[n], abs=r_tol)
        for n in range(1, N + 1):
            assert res.coefficients["beta"][n] == pytest.approx(betas[n], abs=beta_tol)


def test_scheme_km_value_reasonable():
    res = optimize_scheme("km", 10)
    # optimal km sits strictly between the universal floor and 1/sqrt(n)
    assert 1 / 11 < res.values[10] < 1.0
    assert all(res.values[n + 1] <= res.values[n] + 1e-12 for n in range(10))


def test_scheme_families_progress():
    # stagewise-greedy searches need not be globally ordered across
    # families, but every series must decrease and beat the lazy scheme
    for kind in ("extra-km", "inertial-km", "km-halpern"):
        res = optimize_scheme(kind, 8)
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


@functools.lru_cache(maxsize=None)
def _ms30(seed):
    return optimize_sequential(30, OptimizerConfig(restarts=8, seed=seed))


def test_ms_rows_meet_stage_constraints():
    # the monotone stage polytope: 0 <= x_k <= pi^{n-1}_k, x_n >= 1/2, sum 1
    rows = _ms30(0).array.rows
    for n in range(1, 31):
        x, prev = rows[n], rows[n - 1]
        assert all(0.0 <= x[k] <= prev[k] for k in range(n))
        assert x[n] >= 0.5
        assert abs(math.fsum(x) - 1.0) <= 1e-15


@pytest.mark.parametrize("seed, before", [
    # R_30 of the stage solver that passed the caps and the floor to SLSQP
    # as general inequalities; a stage solve may not end above it by more
    # than the benchmark's 1e-9
    (0, 0.10789550042971266),
    (3, 0.10787547560031752),
])
def test_ms_r30_no_worse_than_recorded(seed, before):
    assert _ms30(seed).values[-1] <= before + 1e-9


def test_config_validation():
    with pytest.raises(OptimizeInputError):
        OptimizerConfig(restarts=0)


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


def _project_simplex_numpy(v):
    """The projection in numpy's vector form, the reference for its bits."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _simplex_inputs(gen, rounds):
    for _ in range(rounds):
        d = int(gen.integers(1, 14))
        yield gen.normal(size=d)
        yield gen.dirichlet(np.ones(d))
        yield np.round(gen.normal(size=d), 1)  # ties
        yield gen.normal(size=d) * 1e8
        yield gen.normal(size=1)
        # dyadic weights summing to exactly 1 (so theta = +0.0) among signed
        # zeros: the projection of -0.0 is then -0.0 - 0.0 = -0.0
        parts = [1.0]
        for _ in range(int(gen.integers(0, 4))):
            i = int(gen.integers(len(parts)))
            parts[i] /= 2
            parts.append(parts[i])
        zeros = gen.choice([0.0, -0.0], size=int(gen.integers(1, 6)))
        v = np.concatenate([parts, zeros])
        gen.shuffle(v)
        yield v
        v = gen.normal(size=d)
        v[gen.random(d) < 0.4] = gen.choice([0.0, -0.0])
        yield v


def test_project_simplex_matches_numpy_form_bit_for_bit():
    for v in _simplex_inputs(np.random.default_rng(2024), 3000):
        want = _project_simplex_numpy(v).tobytes()
        for arg in (v, v.tolist()):
            got = project_simplex(arg)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.tobytes() == want


def _nm_objectives(d):
    """Test objectives on R^d, each reading its point as a float64 array."""
    weights = np.arange(1.0, d + 1)
    pull = np.linspace(0.1, 0.4, d)

    def quad(x):
        return float(((x - pull) ** 2) @ weights)

    def rosen(x):
        return float(((1 - x) ** 2).sum() + 100 * ((x[1:] - x[:-1] ** 2) ** 2).sum())

    def rounded(x):  # ties between vertices
        return float(np.round(quad(x), 2))

    def projected(x):  # flat wherever the projection onto the simplex is
        return float(np.round(project_simplex(x) @ weights, 3))

    def off_cube(x):  # inf off the unit cube, like the grid objective
        return math.inf if ((x < 0) | (x > 1)).any() else quad(x)

    def nan_lobe(x):
        return math.nan if x[0] > 0.8 else quad(x)

    return [quad, rosen, rounded, projected, off_cube, nan_lobe]


def _nm_cases(gen):
    # d = 13 and 17 search adaptively, as the free stage search does from
    # n = 7 on; they come last, so the earlier cases keep their draws
    dims = [(d, (False, True)) for d in list(range(1, 9)) + [31]]
    for d, modes in dims + [(13, (True,)), (17, (True,))]:
        for g in _nm_objectives(d):
            for adaptive in modes:
                x0 = gen.uniform(-0.5, 1.0, size=d)
                x0[gen.random(d) < 0.3] = 0.0
                x0[gen.random(d) < 0.3] = -0.0
                # from a budget spent on the first simplex up to a full search
                for maxfev in (int(gen.integers(1, d + 2)),
                               int(gen.integers(d + 2, 12 * d + 12)), 600):
                    yield g, x0, maxfev, adaptive
    # last, so the draws above stay as they were: a flat objective with a
    # NaN lobe, started with its second vertex in the lobe.  Every value
    # ties, so the first reflection and contraction fail and the search
    # shrinks; with a NaN among 17 or more values np.argsort can put a later
    # tied vertex first, so a budget that ends inside a shrink shows whether
    # the shrunk vertex was stored before its evaluation, as scipy stores it
    for d in (16, 20, 31):
        x0 = gen.uniform(-0.5, 1.0, size=d)
        x0[0] = 0.79  # 1.05 * 0.79 lies in the lobe
        for adaptive in (False, True):
            for maxfev in range(d + 2, 2 * d + 8):  # into the second shrink
                yield _flat_with_nan_lobe, x0, maxfev, adaptive


def _flat_with_nan_lobe(x):
    return math.nan if x[0] > 0.8 else 0.0


def test_nelder_mead_matches_scipy_bit_for_bit():
    # the in-house search follows scipy's iterates exactly: every point it
    # evaluates, its result and its value are scipy's to the bit
    from scipy.optimize import minimize

    for g, x0, maxfev, adaptive in _nm_cases(np.random.default_rng(7)):
        seen = {"scipy": [], "ours": []}

        def recorder(side):
            def f(x):
                x = np.asarray(x, dtype=float)
                seen[side].append(x.tobytes())
                return g(x)
            return f

        with np.errstate(invalid="ignore"):  # scipy's inf - inf in its test
            want = minimize(recorder("scipy"), x0, method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": 1e-10,
                                     "fatol": 1e-12, "adaptive": adaptive})
        x, fval = _nelder_mead(recorder("ours"), x0, maxfev, 1e-10, 1e-12,
                               adaptive)
        assert seen["ours"] == seen["scipy"]
        assert x.dtype == np.float64
        assert x.tobytes() == want.x.tobytes()
        assert np.float64(fval).tobytes() == np.float64(want.fun).tobytes()


def _ms_stage_problems(rng, gen, N=31):
    """MS stage quadratics (lin, Q), their caps and starts.

    The quadratics come from the tables of a monotone and of an unstructured
    array (n = 1..N), and at random for n = 1..8, where an indefinite Q
    makes the kernel ask again at a point it has evaluated.  About one cap
    in five is 0, a variable the box fixes.  Starts are repaired random
    points, as `_ms_stage` draws them."""
    problems = []
    for rows in (random_monotone_array(rng, N), random_array(rng, N)):
        table, _ = build_distance_table(TriangularArray(rows))
        problems += [(*(np.array(v, dtype=float)
                        for v in _stage_quadratic(rows, table, n)), rows[n - 1])
                     for n in range(1, N + 1)]
    problems += [(gen.normal(size=n + 1), gen.normal(size=(n + 1, n + 1)),
                  gen.dirichlet(np.ones(n))) for n in range(1, 9) for _ in range(6)]
    for lin, Q, prev in problems:
        n = len(prev)
        caps = tuple(0.0 if gen.random() < 0.2 else float(p) for p in prev)
        for maxiter in (300, 3):  # to convergence, and to the iteration limit
            x0 = _repair_monotone(gen.dirichlet(np.ones(n + 1)), caps, n)
            yield lin, Q, caps, x0, maxiter


def test_slsqp_loop_matches_scipy_bit_for_bit(rng):
    # the in-house SLSQP loop runs scipy's kernel on scipy's inputs: every
    # point where it evaluates f or the gradient, its result and its
    # iteration count are scipy's to the bit
    from scipy.optimize import minimize as scipy_minimize

    cons = [{"type": "eq", "fun": lambda x: x.sum() - 1.0,
             "jac": lambda x: np.ones_like(x)}]
    for lin, Q, caps, x0, maxiter in _ms_stage_problems(rng, np.random.default_rng(3)):
        n = len(caps)
        lb, ub = [0.0] * n + [0.5], list(caps) + [1.0]
        seen = {"scipy": [], "ours": []}

        def recorder(side):
            def f(x):
                seen[side].append(("f", x.tobytes()))
                return float(lin @ x + x @ Q @ x)

            def grad(x):
                seen[side].append(("g", x.tobytes()))
                return lin + (Q + Q.T) @ x
            return f, grad

        f, grad = recorder("scipy")
        want = scipy_minimize(f, x0, jac=grad, method="SLSQP",
                              bounds=list(zip(lb, ub)), constraints=cons,
                              options={"maxiter": maxiter, "ftol": 1e-14})
        f, grad = recorder("ours")
        x, nit = minimize(f, x0, method="SLSQP", jac=grad, lb=lb, ub=ub,
                          maxiter=maxiter, ftol=1e-14)
        assert seen["ours"] == seen["scipy"]
        assert x.tobytes() == want.x.tobytes()
        assert nit == want.nit


def test_slsqp_loop_runs_slsqp_only():
    with pytest.raises(OptimizeInputError, match="SLSQP only"):
        minimize(lambda x: 0.0, [1.0], method="Nelder-Mead",
                 jac=lambda x: np.zeros(1), lb=[0.5], ub=[1.0], maxiter=3, ftol=1e-14)


def test_stage_value_matches_rebuild(rng):
    # the stage value gates each nested closed form on the pair's own margin
    # conditions and the frozen rows' monotonicity, a weaker gate than the
    # table's monotonicity of the whole array; a rebuild with the candidate
    # appended must agree
    non_monotone = nested_beyond_table = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        rows = random_monotone_array(rng, n)
        frozen, cand = rows[:n], list(rows[n])
        # move mass from the newest index to an older one
        i = rng.randrange(n)
        shift = cand[n] * rng.choice([0.01, 0.3, 1.0]) * rng.random()
        cand[i] += shift
        cand[n] -= shift
        cand = tuple(cand)
        table, _ = build_distance_table(TriangularArray(frozen))
        ev = StageEvaluator(frozen, table, n)
        full = TriangularArray(frozen + [cand])
        ref, _ = build_distance_table(full)
        assert ev.exact(cand) == pytest.approx(ref.residuals[n], abs=1e-12)
        if not check_monotone(full.rows):
            non_monotone += 1
            nested_beyond_table += sum(
                _pair_rule(ev, cand, k)[0] == "nested" for k in range(1, n + 1))
    assert non_monotone > 0 and nested_beyond_table > 0


def test_stage_pair_solves_match_exact_table():
    # margins spanning many orders of magnitude: an LP solver at default
    # tolerances missed these distances by up to 1e-7, beyond CERT_TOL
    N = 5
    for seed in range(30):
        rows = random_wide_range_array(random.Random(seed), N)
        exact, _ = build_distance_table(TriangularArray(rows), exact=True)
        table = empty_table(N)
        for m, n, d in exact.csv_rows():
            table.set_d(m, n, float(d))
        frows = [tuple(map(float, r)) for r in rows]
        for n in range(2, N + 1):
            ev = StageEvaluator(frows[:n], table, n)
            for k in range(1, n + 1):
                assert ev._solve_pair(frows[n], k) == pytest.approx(
                    float(exact.d(k - 1, n)), abs=1e-12)


def test_surrogate_is_lower_bound_tight_at_harvested_points(rng):
    N = 5
    for builder in (random_array, random_monotone_array):
        for _ in range(5):
            rows = builder(rng, N)
            table, _ = build_distance_table(TriangularArray(rows))
            ev = StageEvaluator(rows[:N], table, N)
            harvested = [random_simplex(rng, N + 1) for _ in range(4)]
            exacts = [ev.exact(c) for c in harvested]
            for c, val in zip(harvested, exacts):
                assert ev.surrogate(c) == pytest.approx(val, abs=1e-12)
            for _ in range(40):
                c = random_simplex(rng, N + 1)
                assert ev.surrogate(c) <= ev.exact(c) + 1e-12


@pytest.mark.parametrize("builder", [random_monotone_array, random_array])
def test_stage_value_bits_do_not_depend_on_candidate_type(rng, builder):
    # the float stage value runs on plain floats whatever holds the
    # candidate: monotone frozen rows take the nested form, the others cuts
    N = 6
    closed_forms = cut_pairs = 0
    for _ in range(5):
        rows = builder(rng, N)
        table, _ = build_distance_table(TriangularArray(rows[:N]))
        harvest = [random_simplex(rng, N + 1) for _ in range(3)]
        probes = [rows[N], random_simplex(rng, N + 1)]
        results = []
        for form in (np.array, lambda c: tuple(map(np.float64, c)), list):
            ev = StageEvaluator(rows[:N], table, N)
            vals = [ev.exact(form(c)) for c in harvest]
            vals += [value(form(c)) for c in probes
                     for value in (ev.surrogate, ev.exact)]
            assert all(type(v) is float for v in vals)
            results.append([v.hex() for v in vals])
        assert results[0] == results[1] == results[2]
        closed_forms += sum(_pair_rule(ev, rows[N], k)[0] == "nested"
                            for k in range(1, N + 1))
        cut_pairs += sum(U is not None for U in ev.pool_U)
    if builder is random_monotone_array:
        assert closed_forms > 0
    else:
        assert closed_forms == 0 and cut_pairs > 0


def _rational_km_array(rng, N):
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        a = Fraction(rng.randint(1, 9), 10)
        rows.append(tuple([(1 - a) * w for w in rows[-1]] + [a]))
    return rows


def test_rational_stage_value_stays_fraction():
    N = 5
    for rows in (_rational_km_array(random.Random(1), N),
                 random_wide_range_array(random.Random(1), N)):
        table, _ = build_distance_table(TriangularArray(rows[:N]), exact=True)
        ref, _ = build_distance_table(TriangularArray(rows), exact=True)
        for form in (tuple, list):
            val = StageEvaluator(rows[:N], table, N).exact(form(rows[N]))
            assert isinstance(val, Fraction) and val == ref.residuals[N]


def _pair_rule(ev, cand, k):
    """The stage value's rule for pair d(k-1, n) at the candidate, one pair
    at a time: ("two-point", d) when the frozen row and the candidate are
    two-point rows; ("nested", d) when the frozen rows are monotone, the
    candidate is within row k-1's caps pi^{k-1}_i + tol and pi^{k-1}_{k-1}
    covers the candidate's mass on k-1..n-1 (summed from the right), d being
    row k of the stage quadratic; else (None, None)."""
    m, n = k - 1, ev.n
    cb, beta = _two_point_beta(cand), _two_point_beta(ev.rows[m])
    if cb is not None and beta is not None:
        return "two-point", two_point_distance(beta, cb, ev.table.d(m - 1, n - 1))
    if not ev.monotone or any(c > w + ev.tol for c, w in zip(cand, ev.rows[m])):
        return None, None
    tail = 0
    for j in range(n - 1, m - 1, -1):
        tail += cand[j]
    if ev.rows[m][m] < tail - ev.tol:
        return None, None
    dot = 0
    for q, c in zip(ev.Q[k], cand):
        dot += q * c
    return "nested", ev.lin[k] + dot


def _stage_value_oracle(ev, cand, cuts):
    """cand_0 + sum_k cand_k d(k-1, n) pair by pair: `_pair_rule`, else the
    pair's best harvested cut as numpy's max (with `cuts`, once the pair has
    one), else a transport solve, which harvests."""
    x = None
    if not ev.rational:
        x = np.asarray(cand, dtype=float)
        cand = x.tolist()
    total = cand[0]
    for k in range(1, ev.n + 1):
        _, d = _pair_rule(ev, cand, k)
        if d is None:
            if cuts and ev.pool_U[k - 1] is not None:
                d = float((ev.pool_U[k - 1] @ x + ev.pool_c[k - 1]).max())
            else:
                d = ev._solve_pair(cand, k)
        total += cand[k] * d
    return total if ev.rational else float(total)


def _random_halpern_array(rng, N):
    betas = [0.0] + [rng.uniform(0.05, 0.95) for _ in range(N)]
    if rng.random() < 0.5:
        betas.sort()  # a monotone two-point array
    return list(build_rows(SchemeSpec("halpern", betas=betas), N).rows)


@pytest.mark.parametrize("builder", [random_monotone_array, random_array,
                                     _random_halpern_array])
def test_stage_value_matches_per_pair_oracle(rng, builder):
    # the fused value loop against the rule written pair by pair: both
    # evaluators see the same calls, so their pools stay equal, and every
    # value is the oracle's to the bit, from empty pools and after harvests
    N = 6
    rules = collections.Counter()
    for _ in range(4):
        rows = builder(rng, N)
        table, _ = build_distance_table(TriangularArray(rows[:N]))
        ev, ref = (StageEvaluator(rows[:N], table, N) for _ in range(2))
        b = rng.uniform(0.05, 0.95)
        probes = [rows[N], random_simplex(rng, N + 1),
                  (1 - b,) + (0.0,) * (N - 1) + (b,)]
        harvest = [random_simplex(rng, N + 1) for _ in range(3)]
        for form in (np.array, lambda c: tuple(map(np.float64, c)), list):
            for c in probes:
                assert (ev.surrogate(form(c)).hex()
                        == _stage_value_oracle(ref, form(c), True).hex())
        for c in harvest + probes:
            assert ev.exact(c).hex() == _stage_value_oracle(ref, c, False).hex()
        for c in harvest + probes:
            assert (ev.surrogate(c).hex()
                    == _stage_value_oracle(ref, c, True).hex())
        assert all((U is None and V is None) or U.tobytes() == V.tobytes()
                   for U, V in zip(ev.pool_U + ev.pool_c, ref.pool_U + ref.pool_c))
        rules.update(_pair_rule(ev, c, k)[0]
                     for c in probes + harvest for k in range(1, N + 1))
    assert rules[None] > 0  # pairs that read cuts
    if builder is random_monotone_array:
        assert rules["nested"] > 0
    if builder is _random_halpern_array:
        assert rules["two-point"] > 0


def test_rational_stage_value_matches_per_pair_oracle(rng):
    N = 5
    for rows in (_rational_km_array(random.Random(2), N),
                 random_wide_range_array(random.Random(2), N)):
        table, _ = build_distance_table(TriangularArray(rows[:N]), exact=True)
        ev, ref = (StageEvaluator(rows[:N], table, N) for _ in range(2))
        w = [rng.randint(0, 9) for _ in range(N)] + [1]
        for c in (rows[N], tuple(Fraction(v, sum(w)) for v in w)):
            val = ev.exact(c)
            assert type(val) is Fraction
            assert val == _stage_value_oracle(ref, c, False)


def _free_search_run(N, cfg):
    """A free run whose every stage searches: each stage starts from the
    Dirac row e_0 in place of the MS row, and e_0 fails the certificate.  Its
    rows are the ones a free stage emits when its certificate fails."""
    rng = np.random.default_rng(cfg.seed)

    def stage(rows, table, n):
        row, val, kind, _ = _s_stage(rows, table, n, cfg, rng, np.eye(n + 1)[0])
        assert kind == "searched"
        return row, val

    return _stagewise(N, 1.0, stage)


def _optimizer_outputs():
    cfg = OptimizerConfig(restarts=2, seed=3, max_evals=2000)
    yield "ms", optimize_sequential(6, cfg, monotone=True)
    # every free stage of "s" and "s8" is certified, so they are MS rows
    yield "s", optimize_sequential(4, cfg, monotone=False)
    yield "fh", optimize_fixed_horizon(3, cfg)
    for kind in SCHEME_PARAMS:
        yield kind, optimize_scheme(kind, 6)
    yield "s8", optimize_sequential(8, OptimizerConfig(restarts=4, seed=2),
                                    monotone=False)
    # the two arrays on which a rebuild that departs from the freeze's rule
    # shows: "extra-km" is non-monotone with a monotone prefix, so a rebuild
    # that gates the greedy plan on the whole array misses it; the searched
    # rows of "s-search" start with a two-point row whose weights do not sum
    # to 1 exactly, so a rebuild that skips the two-point closed form misses
    # its R_1 by 1.1e-16
    yield "extra-km", optimize_scheme("extra-km", 10)
    yield "s-search", _free_search_run(4, cfg)


def test_optimizer_outputs_rebuild_and_certify():
    # each optimizer's stage values come from its own closed forms, surrogate
    # and pair solves; a table build of the emitted array runs the rule that
    # froze it, so it gives the same residuals bit for bit, and the witness
    # must agree
    for name, res in _optimizer_outputs():
        table, _ = build_distance_table(res.array)
        assert table.residuals == res.values, name
        assert build_worst_case_witness(res.array).report.ok, name
        assert max(res.certificates) <= 1e-9, name


# -- the free stage: a stationarity certificate at the MS row ----------------

@pytest.mark.parametrize("N, seeds", [(4, range(8)), (8, (0, 2))])
def test_certified_free_run_is_the_ms_run(N, seeds):
    # a free stage whose MS row is certified keeps that row and draws
    # nothing, so the run is the MS run of its seed bit for bit
    for seed in seeds:
        cfg = OptimizerConfig(restarts=8, seed=seed)
        s = optimize_sequential(N, cfg, monotone=False)
        ms = optimize_sequential(N, cfg, monotone=True)
        assert [kind for kind, _ in s.free_stages] == ["stationary"] * N
        assert all(0 <= rho <= STATIONARY_TOL for _, rho in s.free_stages)
        assert s.array.rows == ms.array.rows
        assert s.stage_values == ms.stage_values
        assert s.values == ms.values
        assert ms.free_stages is None


def test_search_from_certified_rows_finds_no_improvement():
    # the search the certificate replaces, run from each certified row on
    # criterion 10's budget, gains nothing beyond rounding
    gains = []
    for seed in (0, 1, 2):
        cfg = OptimizerConfig(restarts=4, seed=seed, max_evals=4000)
        res = optimize_sequential(8, cfg, monotone=False)
        rng = np.random.default_rng(seed)
        for n, (kind, _) in enumerate(res.free_stages, 1):
            assert kind == "stationary"
            ev = StageEvaluator(res.array.rows[:n], res.table, n)
            row = res.array.rows[n]
            _, best = _free_search(ev, cfg, rng, np.array(row))
            gains.append(ev.exact(row) - best)
    assert max(gains) <= 1e-12


def test_stationarity_check_decides_not_the_proposer():
    # the proposed duals pass the check; moved off optimality by 1e-6 in one
    # entry they fail it, on dual feasibility or on complementary slackness
    res = optimize_sequential(6, OptimizerConfig(restarts=4, seed=1))
    rows, table = res.array.rows, res.table
    for n in range(2, 7):
        x, c, plans, costs = _free_stage_inputs(rows[:n], table, n, rows[n])
        duals = _propose_duals(x, c, plans, costs)
        rho = _stationarity_gap(x, c, plans, costs, duals)
        assert rho == _free_stage_certificate(rows[:n], table, n, rows[n])
        assert 0 <= rho <= STATIONARY_TOL
        # u_j - v_i = c_ij on a positive flow (i, j): raising u_j breaks
        # dual feasibility there, lowering it complementary slackness
        for m, (u, v) in duals.items():
            for j in {j for _, j, z in plans[m].flows if z > 0}:
                for step in (1e-6, -1e-6):
                    moved = dict(duals)
                    moved[m] = (u[:j] + [u[j] + step] + u[j + 1:], v)
                    assert _stationarity_gap(x, c, plans, costs, moved) is None


def test_failed_certificate_runs_the_search():
    # a perturbed MS row, and the MS row of a non-monotone frozen prefix, are
    # not stationary for the free stage: the search runs, draws its starts
    # and returns no worse a row than its warm start
    res = optimize_sequential(5, OptimizerConfig(restarts=4, seed=0))
    cases = []
    for n in (3, 5):
        x = np.array(res.array.rows[n])
        x[0] += 1e-3
        x[n] -= 1e-3
        cases.append((res.array.rows[:n], res.table, n, x))
    gen = random.Random(5)
    for _ in range(2):
        rows = random_array(gen, 5)
        table, _ = build_distance_table(TriangularArray(rows))
        assert not check_monotone(rows[:5])
        # below _WORKER_MIN_N the MS stage forks no worker
        x = _ms_stage(rows[:5], table, 5, OptimizerConfig(restarts=4),
                      np.random.default_rng(0), _StartsWorker())
        cases.append((rows[:5], table, 5, x))
    cfg = OptimizerConfig(restarts=4, seed=0, max_evals=2000)
    for rows, table, n, x in cases:
        assert _free_stage_certificate(rows, table, n, x) > STATIONARY_TOL
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        row, val, kind, rho = _s_stage(rows, table, n, cfg, rng, x)
        assert kind == "searched" and rho > STATIONARY_TOL
        assert rng.bit_generator.state != state
        assert val <= StageEvaluator(rows, table, n).exact(project_simplex(x))


def test_ishikawa_coefficients_follow_rows():
    for N in (5, 6, 9):
        res = optimize_scheme("ishikawa", N)
        c = res.coefficients
        assert len(c["alpha"]) == len(c["beta"]) == N + 1
        arr = build_rows(SchemeSpec("ishikawa", alphas=c["alpha"][1::2],
                                    betas=c["beta"][1::2]), N)
        assert arr.rows == res.array.rows
    # the other kinds rebuild through the same scheme rule, bit for bit
    for kind in SCHEME_PARAMS:
        if kind == "ishikawa":
            continue
        res = optimize_scheme(kind, 6)
        c = res.coefficients
        arr = build_rows(SchemeSpec(kind, alphas=c["alpha"], betas=c["beta"]), 6)
        assert arr.rows == res.array.rows, kind


# -- exact stages: reduced KKT faces against the full systems ----------------

def _gauss_solve(A: List[List[Fraction]], b: List[Fraction]):
    """Exact Gaussian elimination in `Fraction`s; returns None for singular
    systems.  The oracle of the package's integer solver."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def _full_kkt_qp(lin, Q, ineqs, d):
    """The enumerator over full (d + 1 + r)-sized KKT systems that `_exact_qp`
    replaced, kept as its reference."""
    H = [[Q[i][j] + Q[j][i] for j in range(d)] for i in range(d)]
    best = None
    for r in range(min(d, len(ineqs)) + 1):
        for subset in itertools.combinations(range(len(ineqs)), r):
            act = [ineqs[i] for i in subset]
            size = d + 1 + len(act)
            A = [[Fraction(0)] * size for _ in range(size)]
            rhs = [Fraction(0)] * size
            for i in range(d):
                for j in range(d):
                    A[i][j] = H[i][j]
                A[i][d] = Fraction(1)
                for t, (a, _) in enumerate(act):
                    A[i][d + 1 + t] = a[i]
                rhs[i] = -lin[i]
            for j in range(d):
                A[d][j] = Fraction(1)
            rhs[d] = Fraction(1)
            for t, (a, b) in enumerate(act):
                for j in range(d):
                    A[d + 1 + t][j] = a[j]
                rhs[d + 1 + t] = b
            sol = _gauss_solve(A, rhs)
            if sol is None:
                continue
            x = sol[:d]
            if any(sum(a[j] * x[j] for j in range(d)) > b for (a, b) in ineqs):
                continue
            val = sum(lin[i] * x[i] for i in range(d)) + \
                sum(x[i] * Q[i][j] * x[j] for i in range(d) for j in range(d))
            if best is None or val < best[0] or (val == best[0] and x < best[1]):
                best = (val, x)
    if best is None:
        raise OptimizeInputError("empty feasible polytope in exact stage")
    return best


@st.composite
def _rational_systems(draw):
    """A square rational system A x = b with 1-7 unknowns.  Zero entries are
    common, so zero leading pivots occur, and some systems get a row that
    repeats another row times a constant, or a zero row, so they are
    singular."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    b = draw(st.lists(entry, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(entry)
        A[i] = [c * v for v in A[j]]
    return A, b


def _scaled_rows(A, b):
    """The augmented rows [A | b], each times the least common denominator
    of its entries: an integer system with the same solutions."""
    rows = []
    for row, rhs in zip(A, b):
        L = math.lcm(*(v.denominator for v in row + [rhs]))
        rows.append([int(v * L) for v in row + [rhs]])
    return rows


@given(_rational_systems())
def test_integer_solver_matches_fraction_elimination(system):
    A, b = system
    want = _gauss_solve(A, b)
    got = _bareiss_solve(_scaled_rows(A, b))
    if want is None:
        assert got is None
    else:
        x, den = got
        assert den > 0
        assert [Fraction(v, den) for v in x] == want


def test_integer_solver_zero_pivot_and_singular_cases():
    # a zero leading pivot takes the next row; a singular system gives None
    x, den = _bareiss_solve([[0, 1, 2], [3, 0, 3]])
    assert [Fraction(v, den) for v in x] == [1, 2]
    assert _bareiss_solve([[1, 2, 3], [2, 4, 5]]) is None
    assert _bareiss_solve([[0, 0]]) is None


def test_integer_solver_raises_on_inexact_division():
    # rows not scaled to integers break the exact divisions
    with pytest.raises(ArithmeticError):
        _bareiss_solve([[Fraction(1, 2), 1, 0], [1, Fraction(1, 3), 1]])


def _random_qp(rng):
    d = rng.randint(2, 4)
    frac = lambda lo, hi: Fraction(rng.randint(lo, hi), rng.randint(1, 6))
    lin = [frac(-5, 5) for _ in range(d)]
    Q = [[frac(-5, 5) for _ in range(d)] for _ in range(d)]

    def row(coefs):
        a = [Fraction(0)] * d
        for j, c in coefs.items():
            a[j] = Fraction(c)
        return a

    ineqs = [(row({i: -1}), Fraction(0)) for i in range(d)]  # x >= 0
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(d)
        kind = rng.choice(["upper", "lower", "duplicate", "scaled", "general"])
        if kind == "upper":
            ineqs.append((row({i: 1}), frac(1, 6)))
        elif kind == "lower":    # may contradict an upper bound on i
            ineqs.append((row({i: -1}), -frac(0, 3)))
        elif kind == "duplicate":
            ineqs.append(ineqs[rng.randrange(len(ineqs))])
        elif kind == "scaled":   # a single-coordinate row with coefficient != +-1
            ineqs.append((row({i: rng.choice([-3, 2, 5])}), frac(-2, 6)))
        else:
            j = rng.choice([k for k in range(d) if k != i])
            ineqs.append((row({i: rng.randint(-3, 3) or 1, j: rng.randint(1, 3)}),
                          frac(0, 6)))
    rng.shuffle(ineqs)
    return lin, Q, ineqs, d


def _qp_or_empty(qp, lin, Q, ineqs, d):
    try:
        return qp(lin, Q, ineqs, d)
    except OptimizeInputError:
        return "empty"


def test_exact_qp_matches_full_kkt_enumeration():
    rng = random.Random(2024)
    empty = 0
    for _ in range(60):
        lin, Q, ineqs, d = _random_qp(rng)
        want = _qp_or_empty(_full_kkt_qp, lin, Q, ineqs, d)
        assert _qp_or_empty(_exact_qp, lin, Q, ineqs, d) == want
        empty += want == "empty"
    assert 0 < empty < 60


def test_exact_qp_duplicate_and_fixing_bounds():
    # x_0 <= 1/3 twice, 3 x_1 <= 1 and x_1 >= 1/3 (x_1 fixed at 1/3), and a
    # general row x_0 + 2 x_2 <= 1: the full enumerator meets singular
    # systems for every subset holding both bounds on one coordinate
    d = 3
    e = lambda i, c: [Fraction(c) if j == i else Fraction(0) for j in range(d)]
    ineqs = [(e(0, 1), Fraction(1, 3)), (e(0, 1), Fraction(1, 3)),
             (e(1, 3), Fraction(1)), (e(1, -1), Fraction(-1, 3)),
             ([Fraction(1), Fraction(0), Fraction(2)], Fraction(1))]
    ineqs += [(e(i, -1), Fraction(0)) for i in range(d)]
    lin = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    Q = [[Fraction(i - j, 1 + i + j) for j in range(d)] for i in range(d)]
    got = _exact_qp(lin, Q, ineqs, d)
    assert got == _full_kkt_qp(lin, Q, ineqs, d)
    assert got[1][1] == Fraction(1, 3)


def test_exact_qp_ties_break_to_the_smallest_point():
    # a flat objective ties every vertex of the simplex at 0; the faces meet
    # (0, 1, 0), then (0, 0, 1), the lexicographically smallest, then (1, 0, 0)
    d = 3
    e = lambda i: [Fraction(-1) if j == i else Fraction(0) for j in range(d)]
    ineqs = [(e(0), Fraction(0)), (e(2), Fraction(0)), (e(1), Fraction(0))]
    lin = [Fraction(0)] * d
    Q = [[Fraction(0)] * d for _ in range(d)]
    want = (Fraction(0), [Fraction(0), Fraction(0), Fraction(1)])
    assert _exact_qp(lin, Q, ineqs, d) == want
    assert _full_kkt_qp(lin, Q, ineqs, d) == want


# rationals the full-KKT enumerator produced for the exact MS stages
_EXACT_MS_STAGES = [
    Fraction(3, 4), Fraction(17, 28), Fraction(26391, 51464),
    Fraction(95673482340235616107, 214831683619820295616)]
_EXACT_MS_ROWS = [
    (Fraction(1),),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(5, 14), Fraction(1, 14), Fraction(4, 7)),
    (Fraction(257, 919), Fraction(32, 919), Fraction(131, 1838),
     Fraction(1129, 1838)),
    (Fraction(34439692753947, 149085965515298), Fraction(67389652297, 3042570724802),
     Fraction(787162753613, 21297995073614), Fraction(17079644244015, 298171931030596),
     Fraction(194588436802999, 298171931030596)),
]


@pytest.mark.parametrize("N", [3, 4])
def test_exact_ms_stages_pinned(N):
    res = optimize_sequential(N, monotone=True, exact=True)
    assert res.stage_values == _EXACT_MS_STAGES[:N]
    assert list(res.array.rows) == _EXACT_MS_ROWS[: N + 1]
    assert res.values[1:] == _EXACT_MS_STAGES[:N]


def _float_stage_quadratic_reference(rows, table, n):
    dcol = np.array([table.d(i - 1, n - 1) for i in range(n + 1)], dtype=float)
    lin = np.zeros(n + 1)
    Q = np.zeros((n + 1, n + 1))
    lin[0] = 1.0
    for k in range(1, n + 1):
        m = k - 1
        prow = rows[m]
        lin[k] = sum(prow[i] * dcol[i] for i in range(m + 1))
        Q[k, : m + 1] -= dcol[: m + 1]
        base = table.d(m - 1, n - 1)
        for j in range(m + 1, n + 1):
            Q[k, j] += table.d(m - 1, j - 1) - base
    return lin, Q


def test_float_stage_quadratic_bit_identical(rng):
    for N in (1, 4, 9):
        rows = random_monotone_array(rng, N)
        table, _ = build_distance_table(TriangularArray(rows))
        for n in range(1, N + 1):
            got = [np.array(v, dtype=float) for v in _stage_quadratic(rows, table, n)]
            want = _float_stage_quadratic_reference(rows, table, n)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
