"""The sup-norm witness must attain every tabulated bound exactly."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from mannrates.distances import build_distance_table
from mannrates.halpern import optimal_recursion
from mannrates.optimize import OptimizerConfig, optimize_sequential
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows
from mannrates.witness import (CertificationError, WitnessReport,
                               build_worst_case_witness, witness_json)

from conftest import random_array, random_monotone_array


def _optimal_halpern_array(N):
    betas, _ = optimal_recursion(N)
    return build_rows(SchemeSpec("halpern", betas=tuple(betas)), N)


def test_trivial_horizon():
    w = build_worst_case_witness(TriangularArray(((1.0,),)))
    assert w.report.ok
    assert w.report.max_residual_error <= 1e-15


def test_picard_array():
    # x^n = T x^{n-1}: every bound is 1 and the witness still attains it
    rows = [(1.0,)] + [tuple([0.0] * n + [1.0]) for n in range(1, 5)]
    w = build_worst_case_witness(TriangularArray(rows))
    assert w.report.ok
    for n in range(5):
        assert w.table.residuals[n] == pytest.approx(1.0, abs=1e-12)


def test_optimal_halpern_witness():
    w = build_worst_case_witness(_optimal_halpern_array(8))
    assert w.report.ok
    assert w.report.max_distance_error <= 1e-10
    assert w.report.max_expansion <= 1e-10


def test_witness_on_random_arrays(rng):
    # tightness is unconditional: any valid array admits a witness
    for builder in (random_array, random_monotone_array):
        for _ in range(3):
            pi = TriangularArray(builder(rng, 5))
            w = build_worst_case_witness(pi)
            assert w.report.ok


def test_residuals_attained_by_map_images():
    pi = _optimal_halpern_array(6)
    w = build_worst_case_witness(pi)
    for n in range(7):
        x = w.xs[n]
        tx = w.ys[n + 1]  # T x^n = y^{n+1}
        gap = max(abs(a - b) for a, b in zip(x, tx))
        assert gap == pytest.approx(float(w.table.residuals[n]), abs=1e-10)


def test_corrupted_table_fails_certification():
    pi = _optimal_halpern_array(4)
    table, plans = build_distance_table(pi, keep_plans=True)
    table.set_d(1, 3, float(table.d(1, 3)) * 0.5)
    with pytest.raises(CertificationError):
        build_worst_case_witness(pi, table=table, plans=plans)


def test_witness_json_shape():
    w = build_worst_case_witness(_optimal_halpern_array(3))
    doc = witness_json(w)
    assert doc["horizon"] == 3
    assert len(doc["x"]) == 4
    assert len(doc["y"]) == 5
    assert all(len(y) == len(doc["index_set"]) for y in doc["y"])
    assert doc["report"]["max_distance_error"] <= 1e-8


def _rational_halpern_array(N):
    return build_rows(SchemeSpec("halpern", betas=tuple(Fraction(k, k + 1)
                                                        for k in range(N + 1))), N)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("pair", [(0, 2), (1, 3), (3, 4)])
def test_corrupted_table_reports_the_pair(exact, pair):
    pi = _rational_halpern_array(4) if exact else _optimal_halpern_array(4)
    table, plans = build_distance_table(pi, exact=exact, keep_plans=True)
    table.set_d(*pair, table.d(*pair) / 2)
    with pytest.raises(CertificationError) as info:
        build_worst_case_witness(pi, table=table, plans=plans)
    assert info.value.pair == pair


@pytest.mark.parametrize("exact", [False, True])
def test_witness_coordinates_are_python_scalars(exact):
    pi = _rational_halpern_array(5) if exact else _optimal_halpern_array(5)
    table, plans = build_distance_table(pi, exact=exact, keep_plans=True)
    w = build_worst_case_witness(pi, table=table, plans=plans)
    want = Fraction if exact else float
    assert {type(v) for point in w.ys + w.xs for v in point} == {want}
    if exact:
        assert w.report.max_distance_error == 0.0
        assert w.report.max_residual_error == 0.0


def _eager_witness(pi, table, plans):
    """(ys, xs, report) by the eager conversion the witness made before it
    kept its points as integer arrays: every entry as int(Fraction(v) * den)
    over one least common denominator, Pi included, and every coordinate a
    `Fraction` (or float) built at once."""
    N = pi.horizon
    pairs = [(m, n) for m in range(-1, N + 1) for n in range(m, N + 1)]
    D = table.costs(N + 1, N + 1)
    P = [tuple(r) + (0,) * (N - k) for k, r in enumerate(pi.rows)]
    U = {p: plans[p].dual_u for p in pairs if p[0] >= 0}
    R = [table.residuals[: N + 1]]
    entries = [v for block in (D, P, U.values(), R) for r in block for v in r]
    exact = any(isinstance(v, Fraction) for v in entries)
    den = math.lcm(*(Fraction(v).denominator for v in entries)) if exact else 1
    unit = Fraction(1, den) if exact else 1.0

    def array(rows):
        if exact:
            return np.array([[int(Fraction(v) * den) for v in r] for r in rows],
                            dtype=object)
        return np.array(rows, dtype=float)

    D, Pi, R = array(D), array(P), array(R)[0]
    Y = np.empty((N + 2, len(pairs)), dtype=D.dtype)
    for c, (m, n) in enumerate(pairs):
        if m == -1:
            Y[:, c] = D[:, n + 1]
        else:
            u = array([U[(m, n)]])[0]
            Y[: n + 1, c] = u
            Y[n + 1:, c] = (u[:, None] + D[: n + 1, n + 1:]).min(axis=0)
    X = Pi @ Y[: N + 1]
    Yx, Dx, Rx = Y * den, D * den, R * den
    max_dist = max_exp = 0
    for m in range(N + 1):
        dx = abs(X[m:] - X[m]).max(axis=1)
        max_dist = max(max_dist, abs(dx - Dx[m + 1, m + 1:]).max())
        max_exp = max(max_exp, (abs(Yx[m + 1:] - Yx[m + 1]).max(axis=1) - dx).max())
    max_res = abs(abs(X - Yx[1:]).max(axis=1) - Rx).max()
    scale = unit * unit
    report = WitnessReport(float(max_dist * scale), float(max_res * scale),
                           float(max_exp * scale))
    return (tuple(map(tuple, (Y * unit).tolist())),
            tuple(map(tuple, (X * scale).tolist())), report)


def _binary_rational_ms_array(N):
    """The float MS array at horizon N with each weight read as its binary
    value, the last weight of each row taking the row's rounding."""
    ms = optimize_sequential(N, OptimizerConfig(restarts=2, seed=0))
    rows = [(Fraction(1),)]
    for r in ms.array.rows[1:]:
        head = [Fraction(w) for w in r[:-1]]
        rows.append(tuple(head) + (1 - sum(head),))
    return TriangularArray(rows)


def _random_rational_array(rng, N):
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        w = [rng.randint(0, 9) for _ in range(n)] + [rng.randint(1, 9)]
        rows.append(tuple(Fraction(x, sum(w)) for x in w))
    return TriangularArray(rows)


@pytest.mark.parametrize("name, exact", [
    ("float halpern", False), ("float random", False), ("rational halpern", True),
    ("rational random", True), ("binary-rational ms", True)])
def test_witness_points_match_eager_conversion(name, exact, rng):
    pi = {"float halpern": lambda: _optimal_halpern_array(6),
          "float random": lambda: TriangularArray(random_array(rng, 6)),
          "rational halpern": lambda: _rational_halpern_array(6),
          "rational random": lambda: _random_rational_array(rng, 7),
          "binary-rational ms": lambda: _binary_rational_ms_array(10)}[name]()
    table, plans = build_distance_table(pi, exact=exact, keep_plans=True)
    w = build_worst_case_witness(pi, table=table, plans=plans)
    # a fresh witness holds no points until they are read
    assert "ys" not in vars(w) and "xs" not in vars(w)
    ys, xs, report = _eager_witness(pi, table, plans)
    eager = SimpleNamespace(horizon=w.horizon, index_set=w.index_set,
                            ys=ys, xs=xs, report=report)
    assert witness_json(w) == witness_json(eager)
    assert (w.ys, w.xs, w.report) == (ys, xs, report)
