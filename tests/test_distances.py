"""Distance tables, residual series, and the two-point closed forms."""

import importlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from mannrates import distances, transport
from mannrates.distances import (DistanceTable, build_distance_table, empty_table,
                                 extend_table, halpern_residuals, pair_distance,
                                 residual_from_table, validate_metric,
                                 validate_quadrangle)
from mannrates.optimize import OptimizerConfig, StageEvaluator, optimize_sequential
from mannrates.schemes import SchemeSpec, TriangularArray, build_rows, check_monotone

from conftest import (assert_table_is_transport, random_array,
                      random_monotone_array, random_simplex, random_wide_range_array)

ROOT = Path(__file__).resolve().parents[1]


def test_depth_one_optimum():
    pi = TriangularArray(((Fraction(1),), (Fraction(1, 2), Fraction(1, 2))))
    table, _ = build_distance_table(pi, exact=True)
    assert table.d(0, 1) == Fraction(1, 2)
    assert table.residuals == [1, Fraction(3, 4)]


def test_depth_two_optimum():
    pi = TriangularArray(((Fraction(1),),
                          (Fraction(1, 2), Fraction(1, 2)),
                          (Fraction(5, 14), Fraction(1, 14), Fraction(4, 7))))
    table, _ = build_distance_table(pi, exact=True)
    assert table.d(1, 2) == Fraction(5, 14)
    assert table.residuals[2] == Fraction(17, 28)


def test_boundary_conventions():
    pi = TriangularArray(((1.0,), (0.3, 0.7)))
    table, _ = build_distance_table(pi)
    assert table.d(-1, -1) == 0
    assert table.d(-1, 0) == 1
    assert table.d(-1, 1) == 1
    assert table.d(0, 0) == 0
    assert table.d(1, 0) == table.d(0, 1)  # stored symmetrically


def test_residual_formula_matches_table():
    pi = TriangularArray(((1.0,), (0.4, 0.6), (0.2, 0.3, 0.5)))
    table, _ = build_distance_table(pi)
    for n in range(3):
        assert table.residuals[n] == pytest.approx(
            residual_from_table(table, pi.rows[n], n), abs=1e-14)


def test_harmonic_betas_residuals():
    betas = [n / (n + 2) for n in range(6)]
    out = halpern_residuals(betas)
    assert out[1] == pytest.approx(7 / 9, abs=1e-15)
    # the full table of the unrolled array, each entry checked against a
    # transport solve
    arr = build_rows(SchemeSpec("halpern", betas=tuple(betas)), 5)
    table, _ = build_distance_table(arr)
    assert_table_is_transport(table, arr.rows, tol=1e-12)
    for n in range(6):
        assert out[n] == pytest.approx(table.residuals[n], abs=1e-12)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_two_point_recursion_equals_transport(tail):
    # the table takes the two-point closed form on these rows; a transport
    # solve on each pair's cost block is the independent check
    betas = [0.0] + tail
    N = len(betas) - 1
    arr = build_rows(SchemeSpec("halpern", betas=tuple(betas)), N)
    table, _ = build_distance_table(arr)
    assert_table_is_transport(table, arr.rows, tol=1e-11)
    assert halpern_residuals(betas) == pytest.approx(table.residuals, abs=1e-11)


def test_table_rule_matches_transport_on_monotone_prefixes(rng):
    # the greedy nested plan is optimal only while the rows are monotone;
    # the table allows it on the monotone prefix of an unstructured array
    # and solves the pairs after it, each checked against a transport solve
    N = 7
    non_monotone = 0
    for _ in range(30):
        k = rng.randint(1, N - 1)  # rows 0..k monotone, the rest unstructured
        rows = random_monotone_array(rng, k) + random_array(rng, N)[k + 1:]
        table, _ = build_distance_table(TriangularArray(rows))
        assert_table_is_transport(table, rows)
        non_monotone += not check_monotone(rows)
    assert non_monotone > 0
    # in exact arithmetic every rule gives the same rationals: monotone
    # prefixes, Halpern rows (the two-point closed form) and rows whose
    # weights span nine orders of magnitude (the transport kernel)
    halpern = build_rows(SchemeSpec("halpern", betas=[Fraction(n, n + 2)
                                                      for n in range(7)]), 6)
    for rows in ([random_wide_range_array(random.Random(s), 6) for s in range(4)]
                 + [_rational_km_rows(3, s).rows + tuple(
                     random_wide_range_array(random.Random(s), 6)[4:])
                    for s in range(3)]
                 + [halpern.rows]):
        table, _ = build_distance_table(TriangularArray(rows), exact=True)
        assert_table_is_transport(table, rows, exact=True)


def test_beta_validation():
    with pytest.raises(ValueError):
        halpern_residuals([0.5, 0.5])
    with pytest.raises(ValueError):
        halpern_residuals([0.0, 1.5])


def test_metric_axioms_on_random_arrays(rng):
    for _ in range(5):
        pi = TriangularArray(random_array(rng, 5))
        table, _ = build_distance_table(pi)
        assert validate_metric(table).ok


def test_quadrangle_on_monotone_arrays(rng):
    for _ in range(5):
        pi = TriangularArray(random_monotone_array(rng, 5))
        table, _ = build_distance_table(pi)
        assert validate_metric(table).ok
        assert validate_quadrangle(table).ok


def test_validators_catch_corruption():
    pi = TriangularArray(random_monotone_array(__import__("random").Random(7), 4))
    table, _ = build_distance_table(pi)
    table.set_d(1, 3, 10.0)  # break the triangle inequality
    assert not validate_metric(table).ok
    table2, _ = build_distance_table(pi)
    good = table2.d(0, 4)
    table2.set_d(0, 4, good + 1.0)
    assert not validate_quadrangle(table2).ok


def test_plans_cover_all_pairs():
    pi = TriangularArray(((1.0,), (0.5, 0.5), (0.3, 0.2, 0.5)))
    table, plans = build_distance_table(pi, keep_plans=True)
    assert set(plans) == {(m, n) for m in range(3) for n in range(m, 3)}
    for (m, n), plan in plans.items():
        assert float(plan.objective) == pytest.approx(float(table.d(m, n)),
                                                      abs=1e-12)


def _random_rational_rows(N, seed):
    rng = random.Random(seed)
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        w = [rng.randint(1, 9) for _ in range(n + 1)]
        rows.append(tuple(Fraction(x, sum(w)) for x in w))
    return TriangularArray(rows)


def _rational_km_rows(N, seed):
    rng = random.Random(seed)
    alphas = (Fraction(0),) + tuple(Fraction(rng.randint(1, 9), 10) for _ in range(N))
    return build_rows(SchemeSpec("km", alphas=alphas), N)


@pytest.mark.parametrize("name, pi", [
    ("random rational N=14", _random_rational_rows(14, 14)),
    ("rational km N=20", _rational_km_rows(20, 20)),
])
def test_exact_tables_are_pinned(name, pi):
    """Every exact d(m, n) and R_n, digit for digit, as recorded for these
    arrays before the kernel ran exact solves on integer numerators."""
    with open(Path(__file__).parent / "data" / "exact_tables.json") as fh:
        want = json.load(fh)[name]
    table, _ = build_distance_table(pi, exact=True)
    assert [str(d) for _, _, d in table.csv_rows()] == want["d"]
    assert [str(r) for r in table.residuals] == want["R"]


def _float_km_rows(N, seed):
    rng = random.Random(seed)
    alphas = (0.0,) + tuple(rng.uniform(0.05, 0.95) for _ in range(N))
    return build_rows(SchemeSpec("km", alphas=alphas), N)


@pytest.mark.parametrize("pi, exact", [(_float_km_rows(9, 9), False),
                                       (_rational_km_rows(9, 9), True),
                                       (_random_rational_rows(7, 7), True)])
def test_cost_block_is_the_table(pi, exact):
    # c[i][j] = d(i-1, j-1) for every block up to the witness's (N+1, N+1)
    table, _ = build_distance_table(pi, exact=exact)
    N = pi.horizon
    for m in range(N + 2):
        for n in range(N + 2):
            want = [[table.d(i - 1, j - 1) for j in range(n + 1)] for i in range(m + 1)]
            assert table.costs(m, n) == want
    block = table.costs(N + 1, N + 1)
    block[1][2] = -1  # a cut of the storage, not a view into it
    assert table.d(0, 1) != -1


@pytest.mark.parametrize("allow_greedy", [False, True])
@pytest.mark.parametrize("pi, exact", [(_float_km_rows(6, 6), False),
                                       (_rational_km_rows(6, 6), True)])
def test_pair_distance_hands_the_kernels_the_table_block(monkeypatch, pi, exact,
                                                         allow_greedy):
    table, _ = build_distance_table(pi, exact=exact)
    seen = []

    def recording(kernel):
        def run(a, b, c, exact=False, **kwargs):
            seen.append((kernel.__name__, a, b, c, exact))
            return kernel(a, b, c, exact=exact, **kwargs)
        return run

    for name in ("solve_transport", "greedy_monotone_transport", "staircase_transport"):
        monkeypatch.setattr(distances, name, recording(getattr(distances, name)))
    for n in range(pi.horizon + 1):
        for m in range(n):
            seen.clear()
            plan = pair_distance(table, pi.rows, m, n, exact=exact,
                                 allow_greedy=allow_greedy)
            # the km rows are monotone: a pair the nested plan refuses is
            # separated, and the staircase takes it
            assert [name for name, *_ in seen] in (
                [["greedy_monotone_transport"],
                 ["greedy_monotone_transport", "staircase_transport"]]
                if allow_greedy else [["solve_transport"]])
            for _, a, b, c, ex in seen:
                assert (a, b, ex) == (pi.rows[m], pi.rows[n], exact)
                assert c == [[table.d(i - 1, j - 1) for j in range(n + 1)]
                             for i in range(m + 1)]
            if exact or allow_greedy:  # the rule the table was built by
                assert plan.objective == table.d(m, n)
            else:
                assert plan.objective == pytest.approx(table.d(m, n), abs=1e-12)


def _binary_replay(rows):
    """The float rows as exact rationals: each weight its binary value, the
    last one 1 minus the sum of the others."""
    out = []
    for r in rows:
        head = [Fraction(x) for x in r[:-1]]
        out.append(tuple(head + [1 - sum(head)]))
    return TriangularArray(out)


# seeds 30 and 132 hold pairs where a simplex that pivots from the northwest
# corner stops within its pricing tolerance of the optimum, 1.1e-11 and
# 1.7e-11 away; the northeast start of their separated pairs is optimal
@pytest.mark.parametrize("seed", [0, 30, 132])
def test_monotone_float_table_matches_its_exact_replay(seed):
    rows = random_monotone_array(random.Random(seed), 22)
    flt, _ = build_distance_table(TriangularArray(rows))
    ex, _ = build_distance_table(_binary_replay(rows), exact=True)
    for (m, n, de), (_, _, df) in zip(ex.csv_rows(), flt.csv_rows()):
        assert isinstance(de, (int, Fraction))
        assert abs(de - Fraction(df)) <= 1e-14, (m, n)
    for re, rf in zip(ex.residuals, flt.residuals):
        assert abs(re - Fraction(rf)) <= 1e-14


# ---------------------------------------------------------------------------
# the freeze without plans reads values only

def _km_alphas_rows():
    """`tools/output_manifest.py`'s alternating km stepsizes over 0..16, as
    `bounds --scheme km --alpha` builds them: the nested plan refuses 49 of
    the table's pairs and the staircase takes them."""
    spec = importlib.util.spec_from_file_location(
        "output_manifest", ROOT / "tools" / "output_manifest.py")
    manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(manifest)
    alphas = tuple(map(float, manifest.KM_ALPHAS.split(",")))
    return build_rows(SchemeSpec("km", alphas=alphas), 16)


def _monotone_with_zeros(rng, N):
    """A km-style monotone array in which some rows move an earlier weight
    to their last index; the zero stays in every later row."""
    rows = [(1.0,)]
    for n in range(1, N + 1):
        a = rng.uniform(0.05, 0.95)
        row = [(1 - a) * w for w in rows[-1]] + [a]
        live = [i for i in range(n) if row[i] > 0]
        if len(live) > 1 and rng.random() < 0.5:
            i = rng.choice(live)
            row[n] += row[i]
            row[i] = 0.0
        rows.append(tuple(row))
    return rows


def _unstructured_rows(monkeypatch, tmp_path):
    """The unstructured N=16 array of perfbench's `tables` workload, seed 0:
    its pairs go to the kernel."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    importlib.import_module("workloads").build("tables", 0, tmp_path)
    with open(tmp_path / "unstructured.json") as fh:
        return [tuple(r) for r in json.load(fh)["rows"]]


def _value_path_arrays(monkeypatch, tmp_path):
    """(label, array, exact) of every kind of pair the freeze meets."""
    out = [(f"ms N=30 seed {seed}",
            optimize_sequential(30, OptimizerConfig(restarts=8, seed=seed)).array, False)
           for seed in range(8)]
    rng = random.Random(30)
    out += [(f"monotone with zeros {k}", TriangularArray(_monotone_with_zeros(rng, 20)),
             False) for k in range(6)]
    out.append(("km alphas N=16", _km_alphas_rows(), False))
    out.append(("unstructured N=16",
                TriangularArray(_unstructured_rows(monkeypatch, tmp_path)), False))
    out.append(("rational km N=12", _rational_km_rows(12, 12), True))
    return out


def test_freeze_without_plans_writes_the_kept_plan_table(monkeypatch, tmp_path):
    # the values the closed forms sum without building a plan are the kept
    # plans' objectives, bit for bit, on zero caps, injected zeros, staircase
    # pairs, kernel pairs and in Fractions
    arrays = _value_path_arrays(monkeypatch, tmp_path)
    zero_caps = sum(w == 0 for label, pi, _ in arrays if label.startswith("ms")
                    for r in pi.rows for w in r)
    assert zero_caps > 0
    for label, pi, exact in arrays:
        bare, _ = build_distance_table(pi, exact=exact)
        kept, _ = build_distance_table(pi, exact=exact, keep_plans=True)
        assert repr(bare) == repr(kept), label


def _counting(calls, name, fn):
    def run(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return run


def test_freeze_without_plans_builds_no_plan_and_copies_no_block(monkeypatch):
    # on monotone rows every pair is nested or staircase: without plans the
    # freeze calls neither `DistanceTable.costs` nor `_plan`; the kept-plan
    # build calls both
    from collections import Counter

    calls = Counter()
    monkeypatch.setattr(DistanceTable, "costs",
                        _counting(calls, "costs", DistanceTable.costs))
    monkeypatch.setattr(transport, "_plan", _counting(calls, "_plan", transport._plan))
    for name in ("greedy_monotone_transport", "staircase_transport"):
        monkeypatch.setattr(distances, name,
                            _counting(calls, name, getattr(distances, name)))
    ms = optimize_sequential(30, OptimizerConfig(restarts=8, seed=0)).array
    for pi, exact in ((ms, False), (_km_alphas_rows(), False),
                      (_rational_km_rows(12, 12), True)):
        assert check_monotone(pi.rows, exact)
        calls.clear()
        build_distance_table(pi, exact=exact)
        assert calls["costs"] == calls["_plan"] == 0
        assert calls["greedy_monotone_transport"] > 0
        calls.clear()
        build_distance_table(pi, exact=exact, keep_plans=True)
        assert calls["costs"] > 0 and calls["_plan"] > 0
    # the km stepsizes send pairs to the staircase
    calls.clear()
    build_distance_table(_km_alphas_rows())
    assert calls["staircase_transport"] > 0 and calls["_plan"] == 0


# ---------------------------------------------------------------------------
# monotonicity checked once per row

def _broken_at(rng, N, k):
    """Rows 0..N, monotone but for row k, a random row; every later row is
    km-style from the row before it, so monotone against it."""
    rows = [(1.0,)]
    for n in range(1, N + 1):
        if n == k:
            row = list(random_simplex(rng, n + 1))
        else:
            a = rng.uniform(0.05, 0.95)
            row = [(1 - a) * w for w in rows[-1]] + [a]
        rows.append(tuple(row))
    return rows


def test_monotone_flag_is_the_whole_prefix_rule(monkeypatch):
    # each column's flag, checked on its new row only, equals the rule on
    # rows 0..n: once a row breaks it, later rows monotone against their
    # predecessors do not restore it
    flags = {}
    pair = distances.pair_distance

    def recording(table, rows, m, n, **kwargs):
        flags.setdefault(n, set()).add(kwargs["allow_greedy"])
        return pair(table, rows, m, n, **kwargs)

    monkeypatch.setattr(distances, "pair_distance", recording)
    rng = random.Random(7)
    broken = 0
    for _ in range(20):
        N = rng.randint(4, 9)
        k = rng.randint(2, N)
        rows = _broken_at(rng, N, k)
        broken += not check_monotone(rows)
        flags.clear()
        table, _ = build_distance_table(TriangularArray(rows))
        for n in range(N + 1):
            want = check_monotone(rows[:n + 1])
            assert table.monotone(n) is want, n
            if n >= 2:  # row 1 meets row 0 in the two-point closed form
                assert flags[n] == {want}, n
        assert table.copy().monotone_rows == table.monotone_rows
        # Ishikawa's trial freeze: column n added to a copy of the table
        for n in range(1, N + 1):
            partial = empty_table(N)
            for j in range(n):
                extend_table(partial, rows, j)
            trial = partial.copy()
            extend_table(trial, rows, n)
            assert trial.monotone(n) is check_monotone(rows[:n + 1])
            assert partial.monotone(n) is False
            assert trial.monotone(n - 1) is partial.monotone(n - 1)
    assert broken > 10


def test_adding_a_column_again_rechecks_its_row():
    # columns k.. of a monotone table added again with other rows, row k
    # not monotone: the table's record is dropped from row k on, so those
    # columns take the rule a fresh build of the new rows takes (the kernel
    # where the closed forms are no longer vouched for), value for value
    rng = random.Random(11)
    broken = 0
    for _ in range(20):
        N = rng.randint(4, 9)
        k = rng.randint(2, N)
        new = _broken_at(rng, N, k)
        old = list(new[:k])
        for _ in range(k, N + 1):
            a = rng.uniform(0.05, 0.95)
            old.append(tuple([(1 - a) * w for w in old[-1]] + [a]))
        table, _ = build_distance_table(TriangularArray(old))
        assert table.monotone(N)
        del table.residuals[k:]
        for n in range(k, N + 1):
            extend_table(table, new, n)
        fresh, _ = build_distance_table(TriangularArray(new))
        broken += not check_monotone(new)
        for n in range(N + 1):
            assert table.monotone(n) is check_monotone(new[:n + 1]), n
        assert repr(list(table.csv_rows())) == repr(list(fresh.csv_rows()))
        assert repr(table) == repr(fresh)
    assert broken > 10


def test_stage_evaluator_reads_the_tables_flag():
    rows = _broken_at(random.Random(8), 8, 5)
    table, _ = build_distance_table(TriangularArray(rows))
    for n in range(1, 9):
        assert StageEvaluator(rows[:n], table, n).monotone is check_monotone(rows[:n])
    # a table whose entries were written otherwise has no monotone rows:
    # its evaluators send every pair without a two-point form to the kernel
    bare = empty_table(8)
    for m, n, d in table.csv_rows():
        bare.set_d(m, n, d)
    assert not any(StageEvaluator(rows[:n], bare, n).monotone for n in range(1, 9))


def test_monotone_rows_visited_grow_linearly(monkeypatch):
    # the stage loop checks each row once, when its column is added; the
    # evaluators read the table's record
    visited = []

    def counting(rows, exact=False, start=1):
        visited.append(max(0, len(rows) - start))
        return check_monotone(rows, exact, start)

    monkeypatch.setattr(distances, "check_monotone", counting)
    for N in (8, 16, 32):
        visited.clear()
        optimize_sequential(N, OptimizerConfig(restarts=2, seed=0))
        assert sum(visited) == N
