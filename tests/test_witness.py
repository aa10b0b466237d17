"""The sup-norm witness must attain every tabulated bound exactly."""

from fractions import Fraction

import pytest

from mannrates.distances import build_distance_table
from mannrates.halpern import optimal_recursion
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows
from mannrates.witness import (CertificationError, build_worst_case_witness,
                               witness_json)

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


def test_horizon_argument():
    pi = _optimal_halpern_array(6)
    w = build_worst_case_witness(pi, N=3)
    assert w.horizon == 3
    with pytest.raises(ValueError):
        build_worst_case_witness(pi, N=9)


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
