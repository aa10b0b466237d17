"""Transportation solver against independent oracles.

The production simplex is checked against (a) a brute-force enumeration of
basic feasible solutions (spanning trees of the bipartite support graph)
and (b) scipy's LP solver, both of which share no code with it.
"""

import collections
import importlib
import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mannrates import distances, transport
from mannrates.distances import build_distance_table, pair_distance
from mannrates.optimize import StageEvaluator, optimize_scheme
from mannrates.schemes import (SchemeSpec, TriangularArray, build_rows, check_monotone,
                               scheme_step)
from mannrates.transport import (MonotonePreconditionError, NotSeparatedError,
                                 TransportInputError, greedy_monotone_transport,
                                 solve_transport, staircase_pieces,
                                 staircase_transport)
from mannrates.witness import build_worst_case_witness

from conftest import random_monotone_array, random_simplex

ROOT = Path(__file__).resolve().parents[1]


def _linprog_oracle(a, b, c):
    from scipy.optimize import linprog

    M, N = len(a), len(b)
    cost = np.array([c[i][j] for i in range(M) for j in range(N)], dtype=float)
    A = []
    for i in range(M):
        row = np.zeros(M * N)
        row[i * N:(i + 1) * N] = 1
        A.append(row)
    for j in range(N):
        row = np.zeros(M * N)
        row[j::N] = 1
        A.append(row)
    # HiGHS's default feasibility tolerances (1e-7) let it stop at a vertex
    # whose objective is off by more than the 1e-9 the tests compare at
    res = linprog(cost, A_eq=np.array(A), b_eq=np.array(list(a) + list(b)),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def _basis_enumeration_oracle(a, b, c):
    """Optimal value via every spanning-tree basis (exact rational)."""
    M, N = len(a), len(b)
    cells = [(i, j) for i in range(M) for j in range(N)]
    best = None
    for basis in itertools.combinations(cells, M + N - 1):
        # solve the margin equations on the candidate basis
        import numpy.linalg as la

        A = np.zeros((M + N, len(basis)))
        for k, (i, j) in enumerate(basis):
            A[i, k] = 1
            A[M + j, k] = 1
        rhs = np.array([float(x) for x in list(a) + list(b)])
        sol, *_ = la.lstsq(A, rhs, rcond=None)
        if np.max(np.abs(A @ sol - rhs)) > 1e-9 or np.min(sol) < -1e-9:
            continue
        val = sum(s * float(c[i][j]) for s, (i, j) in zip(sol, basis))
        if best is None or val < best:
            best = val
    return best


def test_singleton_margins():
    plan = solve_transport((1,), (1,), ((0,),), exact=True)
    assert plan.objective == 0
    assert plan.mass(0, 0) == 1


def test_identical_margins_cost_zero():
    a = (0.3, 0.5, 0.2)
    c = ((0, 1, 1), (1, 0, 0.5), (1, 0.5, 0))
    plan = solve_transport(a, a, c)
    assert plan.objective == pytest.approx(0.0, abs=1e-12)
    for i, w in enumerate(a):
        assert plan.mass(i, i) == pytest.approx(w, abs=1e-12)


# the 2x3 instance behind the horizon-2 optimum: rows (1/2, 1/2) and
# (5/14, 1/14, 8/14) with costs d(i-1, j-1) from the depth-1 table
_A2 = (Fraction(1, 2), Fraction(1, 2))
_B2 = (Fraction(5, 14), Fraction(1, 14), Fraction(8, 14))
_C2 = ((Fraction(0), Fraction(1), Fraction(1)),
       (Fraction(1), Fraction(0), Fraction(1, 2)))


def test_known_2x3_exact_value():
    plan = solve_transport(_A2, _B2, _C2, exact=True)
    assert plan.objective == Fraction(5, 14)


def test_known_2x3_against_basis_enumeration():
    assert _basis_enumeration_oracle(_A2, _B2, _C2) == pytest.approx(5 / 14, abs=1e-9)


def test_known_2x3_against_linprog():
    assert _linprog_oracle(_A2, _B2, _C2) == pytest.approx(5 / 14, abs=1e-9)


def test_duality_on_known_instance():
    plan = solve_transport(_A2, _B2, _C2, exact=True)
    primal = plan.objective
    dual = (sum(w * u for w, u in zip(_B2, plan.dual_u))
            - sum(w * v for w, v in zip(_A2, plan.dual_v)))
    assert primal == dual
    # dual feasibility u_j - v_i <= c_ij
    for i in range(2):
        for j in range(3):
            assert plan.dual_u[j] - plan.dual_v[i] <= _C2[i][j]


@st.composite
def _instances(draw):
    M = draw(st.integers(2, 4))
    N = draw(st.integers(M, 5))
    uni = st.floats(0.05, 1.0)
    a = draw(st.lists(uni, min_size=M, max_size=M))
    b = draw(st.lists(uni, min_size=N, max_size=N))
    sa, sb = sum(a), sum(b)
    a = tuple(x / sa for x in a)
    b = tuple(x / sb for x in b)
    c = tuple(tuple(draw(st.floats(0.0, 2.0)) for _ in range(N)) for _ in range(M))
    return a, b, c


@given(_instances())
def test_matches_linprog_on_random_instances(inst):
    a, b, c = inst
    plan = solve_transport(a, b, c)
    assert float(plan.objective) == pytest.approx(_linprog_oracle(a, b, c), abs=1e-8)


@given(_instances())
def test_plan_margins_and_duality(inst):
    a, b, c = inst
    plan = solve_transport(a, b, c)
    flows = plan.flow_dict()
    for i, w in enumerate(a):
        assert sum(z for (ii, _), z in flows.items() if ii == i) == pytest.approx(w, abs=1e-9)
    for j, w in enumerate(b):
        assert sum(z for (_, jj), z in flows.items() if jj == j) == pytest.approx(w, abs=1e-9)
    dual = (sum(w * u for w, u in zip(b, plan.dual_u))
            - sum(w * v for w, v in zip(a, plan.dual_v)))
    assert float(dual) == pytest.approx(float(plan.objective), abs=1e-8)


def _metric_cost(n, rng):
    """A random metric on points 0..n via shortest paths."""
    import itertools as it

    d = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i, j in it.combinations(range(n + 1), 2):
        d[i][j] = d[j][i] = rng.uniform(0.2, 1.0)
    for k in range(n + 1):
        for i in range(n + 1):
            for j in range(n + 1):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def test_diagonal_saturation_on_metric_costs(rng):
    for _ in range(20):
        n = rng.randint(2, 5)
        d = _metric_cost(n, rng)
        a = random_simplex(rng, n + 1)
        b = random_simplex(rng, n + 1)
        plan = solve_transport(a, b, d)
        for i in range(n + 1):
            assert plan.mass(i, i) == pytest.approx(min(a[i], b[i]), abs=1e-9)


def test_greedy_matches_simplex_on_monotone_rows(rng):
    for _ in range(5):
        rows = random_monotone_array(rng, 6)
        pi = TriangularArray(rows)
        table, _ = build_distance_table(pi)
        for m in range(1, 6):
            for n in range(m + 1, 7):
                costs = table.costs(m, n)
                try:
                    g = greedy_monotone_transport(rows[m], rows[n], costs)
                except MonotonePreconditionError:
                    continue
                s = solve_transport(rows[m], rows[n], costs)
                assert float(g.objective) == pytest.approx(float(s.objective), abs=1e-9)


def test_greedy_rejects_non_nested_margins():
    with pytest.raises(MonotonePreconditionError):
        greedy_monotone_transport((0.2, 0.8), (0.5, 0.2, 0.3),
                                  ((0, 1, 1), (1, 0, 1)))


def test_equal_length_pairs_meet_both_margins(rng):
    # the nested plan sends the last source's excess to a later target, so
    # it refuses an equal-length pair, and pair_distance solves it
    for a in ((1.0,), (0.5, 0.5), (Fraction(1, 3), Fraction(2, 3))):
        c = [[int(i != j) for j in range(len(a))] for i in range(len(a))]
        with pytest.raises(MonotonePreconditionError):
            greedy_monotone_transport(a, a, c, exact=isinstance(a[0], Fraction))
    for _ in range(20):
        rows = random_monotone_array(rng, 12)
        table, _ = build_distance_table(TriangularArray(rows))
        for m in range(13):
            plan = pair_distance(table, rows, m, m)
            out, into = [0.0] * (m + 1), [0.0] * (m + 1)
            for i, j, z in plan.flows:
                out[i] += z
                into[j] += z
            assert out == pytest.approx(rows[m], abs=1e-12), m
            assert into == pytest.approx(rows[m], abs=1e-12), m


def test_exact_mode_returns_fractions():
    a = (Fraction(1, 3), Fraction(2, 3))
    b = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    c = ((Fraction(0), Fraction(1), Fraction(1)),
         (Fraction(1), Fraction(0), Fraction(1, 2)))
    plan = solve_transport(a, b, c, exact=True)
    assert isinstance(plan.objective, Fraction)
    assert float(plan.objective) == pytest.approx(_linprog_oracle(a, b, c), abs=1e-9)


def test_input_validation():
    with pytest.raises(TransportInputError):
        solve_transport((0.5, 0.6), (1.0,), ((0,), (1,)))
    with pytest.raises(TransportInputError):
        solve_transport((1.0,), (1.0,), ((0, 1),))
    for solver in (solve_transport, greedy_monotone_transport):
        with pytest.raises(TransportInputError, match="negative"):
            solver((-0.1, 1.1), (0.5, 0.5), ((0, 1), (1, 0)))
        with pytest.raises(TransportInputError, match="empty"):
            solver((), (1.0,), ())


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("solver", [solve_transport, greedy_monotone_transport])
@pytest.mark.parametrize("a, b, c", [
    ((1, 0), (1, 0), ((0, 1), (1,))),      # a short last row
    ((1, 0), (1, 0), ((0,), (1, 0))),      # a short first row
    ((1, 0), (1, 0), ((0, 1), (1, 0), (1, 1))),  # a row too many
    ((1,), (1,), ()),                      # no rows at all
    ((1,), (1,), ((),)),                   # an empty row
])
def test_malformed_cost_blocks_are_input_errors(a, b, c, solver, exact):
    # every row of the block is checked, not the first one only
    with pytest.raises(TransportInputError, match="cost rows"):
        solver(a, b, c, exact=exact)


@pytest.mark.parametrize("solver", [solve_transport, greedy_monotone_transport])
def test_nan_weights_are_input_errors(solver):
    # every comparison with NaN is false, so the checks must pass on truth
    nan, c = float("nan"), ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    for a, b in (((nan, 0.5, 0.5), (0.2, 0.3, 0.5)),
                 ((0.2, 0.3, 0.5), (0.5, nan, 0.5)),
                 ((0.5, 0.5, nan), (0.5, 0.5, 0.0)),
                 ((1.0, 0.0, float("inf")), (0.2, 0.3, 0.5))):
        with pytest.raises(TransportInputError, match="sum"):
            solver(a, b, c)


@pytest.mark.parametrize("solver", [solve_transport, greedy_monotone_transport])
@pytest.mark.parametrize("where", ["weight", "cost"])
def test_exact_mode_refuses_non_rational_entries(solver, where):
    # the integer scaling needs numerators and denominators
    a = (Fraction(1, 2), Fraction(1, 2))
    b = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    c = [[Fraction(0), Fraction(1, 3), Fraction(1)], [Fraction(1, 3), 0, 1]]
    if where == "weight":
        a = (0.5, Fraction(1, 2))
    else:
        c[1][2] = 1.0
    with pytest.raises(TransportInputError, match="int or Fraction"):
        solver(a, b, c, exact=True)
    if where == "cost":  # the same problem with rational entries solves
        c[1][2] = 1
        assert solver(a, b, c, exact=True).objective == Fraction(1, 2)


def test_exact_validation_needs_a_unit_sum():
    off = (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**13))
    swap = ((0, 1), (1, 0))
    assert solve_transport(off, off, swap).objective == 0  # within the float tolerance
    with pytest.raises(TransportInputError, match="sum"):
        greedy_monotone_transport(off, off, swap, exact=True)
    with pytest.raises(TransportInputError, match="sum"):
        solve_transport(off, (Fraction(1),) + (0,), swap, exact=True)
    thirds = (Fraction(1, 3), Fraction(2, 3), 0)
    assert solve_transport(thirds, thirds, ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
                           exact=True).objective == 0
    with pytest.raises(TransportInputError, match="int or Fraction"):
        greedy_monotone_transport((0.5, 0.5), off, swap, exact=True)


@pytest.mark.parametrize("b", [(0.3, 0.7 + 1.1e-16, -1.1e-16),
                               (1 + 2.2e-16, -1.1e-16, 0.0)])
def test_weights_rounded_below_zero_are_clipped(b):
    # a float weight may round below zero within the sum tolerance; the
    # kernel must see 0.0 there, or its basis and flows go wrong
    a, c = (0.5, 0.5), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
    plan = solve_transport(a, b, c)
    assert all(z >= 0 for _, _, z in plan.flows)
    _assert_certified(plan, a, b, c, 1e-12)
    assert plan.objective == pytest.approx(_linprog_oracle(a, b, c), abs=1e-12)


# -- the reduced kernel: shared mass on the diagonal, certified duals --------

@contextmanager
def _simplex_sizes():
    """Record the (sources, targets) size of every problem the simplex solves."""
    inner, sizes = transport._simplex, []

    def recording(a, b, c, tol):
        sizes.append((len(a), len(b)))
        return inner(a, b, c, tol)

    transport._simplex = recording
    try:
        yield sizes
    finally:
        transport._simplex = inner


@st.composite
def _metric_instances(draw):
    """Rational margins (with ties a_k == b_k and zero weights) and a
    shortest-path metric on the target indices."""
    M = draw(st.integers(1, 5))
    N = draw(st.integers(M, 6))
    d = [[0] * N for _ in range(N)]
    for i, j in itertools.combinations(range(N), 2):
        d[i][j] = d[j][i] = draw(st.integers(1, 9))
    for k in range(N):
        for i in range(N):
            for j in range(N):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    w = st.integers(0, 3)
    a = draw(st.lists(w, min_size=M, max_size=M))
    b = [x if draw(st.booleans()) else draw(w) for x in a]
    b += draw(st.lists(w, min_size=N - M, max_size=N - M))
    if sum(a) < sum(b):
        a[-1] += sum(b) - sum(a)
    else:
        b[-1] += sum(a) - sum(b)
    if sum(a) == 0:
        a[0] = b[0] = 1
    total = sum(a)
    return ([Fraction(x, total) for x in a], [Fraction(x, total) for x in b],
            [[Fraction(x, 10) for x in r] for r in d[:M]])


def _floats(a, b, c):
    return ([float(x) for x in a], [float(x) for x in b],
            [[float(x) for x in r] for r in c])


def _assert_certified(plan, a, b, c, tol):
    for i in range(len(a)):
        for j in range(len(b)):
            assert plan.dual_u[j] - plan.dual_v[i] <= c[i][j] + tol
    dual = (sum(w * u for w, u in zip(b, plan.dual_u))
            - sum(w * v for w, v in zip(a, plan.dual_v)))
    assert abs(dual - plan.objective) <= tol


@given(_metric_instances())
def test_reduced_kernel_on_metric_costs(inst):
    a, b, c = _floats(*inst)
    with _simplex_sizes() as sizes:
        plan = solve_transport(a, b, c)
    # one solve, of the excess-to-deficit problem only
    assert sizes == [(sum(x > y for x, y in zip(a, b)),
                      sum(y > (a[k] if k < len(a) else 0) for k, y in enumerate(b)))]
    assert plan.objective == pytest.approx(_linprog_oracle(a, b, c), abs=1e-9)
    for k in range(len(a)):
        assert plan.mass(k, k) == min(a[k], b[k])
    _assert_certified(plan, a, b, c, 1e-9)


@given(_metric_instances())
def test_exact_and_float_solves_agree(inst):
    ex = solve_transport(*inst, exact=True)
    fl = solve_transport(*_floats(*inst))
    assert isinstance(ex.objective, Fraction)
    assert abs(float(ex.objective) - fl.objective) <= 1e-12
    _assert_certified(ex, *inst, 0)


@given(_metric_instances())
def test_exact_plans_are_rational_balanced_and_certified(inst):
    a, b, c = inst
    plan = solve_transport(a, b, c, exact=True)
    values = [z for *_, z in plan.flows] + [plan.objective, *plan.dual_u, *plan.dual_v]
    assert all(type(x) is Fraction for x in values)
    out, into = [0] * len(a), [0] * len(b)
    for i, j, z in plan.flows:
        out[i] += z
        into[j] += z
    assert out == a and into == b
    assert plan.objective == sum(z * c[i][j] for i, j, z in plan.flows)
    _assert_certified(plan, a, b, c, 0)


@given(_instances())
# the optimum is 0 (a zero-cost derangement); a reduced cost of -6e-8 is
# inside HiGHS's default dual tolerance, where it reported 2e-8
@example(inst=((1 / 3,) * 3, (1 / 3,) * 3,
               ((0.0, 0.0, 0.0), (5.960464477539063e-08, 0.0, 0.0),
                (0.0, 0.0, 0.0))))
def test_non_metric_costs_fall_back_to_full_problem(inst):
    a, b, c = inst
    M, N = len(a), len(b)
    # a costly diagonal makes keeping the shared mass in place suboptimal
    c = tuple(tuple(5.0 if i == j else x for j, x in enumerate(r))
              for i, r in enumerate(c))
    with _simplex_sizes() as sizes:
        plan = solve_transport(a, b, c)
    assert len(sizes) == 2 and sizes[1] == (M, N)
    assert plan.objective == pytest.approx(_linprog_oracle(a, b, c), abs=1e-9)
    _assert_certified(plan, a, b, c, 1e-9)


@pytest.mark.parametrize("bland_from_start", [False, True])
@pytest.mark.parametrize("costs", ["equal", "reversed"])
def test_degenerate_instances_terminate(monkeypatch, costs, bland_from_start):
    if bland_from_start:
        monkeypatch.setattr(transport, "_DEGENERATE_RUN", 0)
    n = 12
    a = [Fraction(1, n)] * n
    if costs == "equal":
        c = [[Fraction(1)] * n for _ in range(n)]
    else:  # far pairs cheap: uniform margins make most pivots degenerate
        c = [[1 - Fraction(abs(i - j), n) for j in range(n)] for i in range(n)]
    for exact in (True, False):
        inst = (a, a, c) if exact else _floats(a, a, c)
        plan = solve_transport(*inst, exact=exact)
        assert float(plan.objective) == pytest.approx(
            _linprog_oracle(*_floats(a, a, c)), abs=1e-9)
        _assert_certified(plan, *inst, 0 if exact else 1e-9)


def test_exact_and_float_tables_agree(rng):
    for N in range(1, 9):
        for monotone in (False, True):
            rows = [(Fraction(1),)]
            for n in range(1, N + 1):
                if monotone:
                    alpha = Fraction(rng.randint(1, 9), 10)
                    rows.append(tuple([(1 - alpha) * w for w in rows[-1]] + [alpha]))
                else:
                    w = [rng.randint(0, 9) for _ in range(n)] + [rng.randint(1, 9)]
                    rows.append(tuple(Fraction(x, sum(w)) for x in w))
            exact = TriangularArray(rows)
            flt = TriangularArray([tuple(float(x) for x in r) for r in rows])
            te, pe = build_distance_table(exact, exact=True, keep_plans=True)
            tf, pf = build_distance_table(flt, keep_plans=True)
            for (m, n, de), (_, _, df) in zip(te.csv_rows(), tf.csv_rows()):
                assert isinstance(de, (int, Fraction))
                assert abs(float(de) - df) <= 1e-12
            for re, rf in zip(te.residuals, tf.residuals):
                assert abs(float(re) - rf) <= 1e-12
            build_worst_case_witness(exact, table=te, plans=pe)
            build_worst_case_witness(flt, table=tf, plans=pf)


# -- separated pairs: every excess row below every deficit column ------------

@st.composite
def _separated_instances(draw):
    """A cost block d(i-1, j-1) of an exact monotone (KM) table and of its
    float twin, with rational margins whose excess rows all lie below a split
    s and whose deficit columns all lie at or above it."""
    H = draw(st.integers(1, 6))
    alphas = [Fraction(draw(st.integers(1, 9)), 10) for _ in range(H)]
    pi = build_rows(SchemeSpec("km", alphas=(Fraction(0), *alphas)), H)
    n = draw(st.integers(1, H))
    m = draw(st.integers(0, n))
    M, N = m + 1, n + 1
    s = draw(st.integers(1, min(M, N - 1)))
    w = st.integers(0, 4)
    a = [draw(w) for _ in range(M)]
    b = [x - draw(st.integers(0, x)) if k < s else x + draw(w) for k, x in enumerate(a)]
    b += [draw(w) for _ in range(N - M)]
    excess = sum(a[k] - b[k] for k in range(s))
    deficit = sum(b[k] - (a[k] if k < M else 0) for k in range(s, N))
    if excess == deficit == 0:
        a[0] += 1
        b[-1] += 1
    elif excess < deficit:
        a[0] += deficit - excess
    else:
        b[-1] += excess - deficit
    total = sum(a)
    exact, _ = build_distance_table(pi, exact=True)
    flt, _ = build_distance_table(TriangularArray(
        [tuple(float(x) for x in r) for r in pi.rows]))
    return ([Fraction(x, total) for x in a], [Fraction(x, total) for x in b],
            exact.costs(m, n), flt.costs(m, n))


def _northeast_staircase(a, b):
    """Off-diagonal flows of the greedy that fills the excess rows in
    increasing order against the deficit columns in decreasing order."""
    excess = [(a[k] if k < len(a) else 0) - b[k] for k in range(len(b))]
    rows = [[k, x] for k, x in enumerate(excess) if x > 0]
    cols = [[k, -x] for k, x in reversed(list(enumerate(excess))) if x < 0]
    flows = {}
    while rows and cols:
        (i, x), (j, y) = rows[0], cols[0]
        t = min(x, y)
        flows[(i, j)] = t
        rows[0][1] -= t
        cols[0][1] -= t
        if not rows[0][1]:
            rows.pop(0)
        if not cols[0][1]:
            cols.pop(0)
    return flows


@given(_separated_instances())
def test_separated_pairs_solve_to_the_northeast_staircase(inst):
    a, b, c, cf = inst
    want = _northeast_staircase(a, b)
    ex = solve_transport(a, b, c, exact=True)
    assert {(i, j): z for i, j, z in ex.flows if i != j} == want
    af, bf = [float(x) for x in a], [float(x) for x in b]
    fl = solve_transport(af, bf, cf)
    got = {(i, j): z for i, j, z in fl.flows if i != j}
    assert set(got) == set(want)
    assert all(abs(z - want[k]) <= 1e-15 for k, z in got.items())
    assert fl.objective == pytest.approx(_linprog_oracle(af, bf, cf), abs=1e-9)
    assert abs(Fraction(fl.objective) - ex.objective) <= 1e-14


# -- separated pairs on monotone tables skip the kernel ----------------------

@st.composite
def _monotone_arrays(draw):
    """A monotone array of horizon 1..8 in `Fraction`s and its float twin:
    random monotone rows (each weight of the row above kept by a factor 0,
    1/4, 1/2 or 3/4, the rest moved to the new last weight), km rows, or
    Halpern rows with increasing stepsizes."""
    N = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "km", "halpern"]))
    if kind == "random":
        rows = [(Fraction(1),)]
        for _ in range(N):
            r = [x * Fraction(draw(st.integers(0, 3)), 4) for x in rows[-1]]
            rows.append(tuple(r + [1 - sum(r)]))
        return (TriangularArray(rows),
                TriangularArray([tuple(map(float, r)) for r in rows]))
    steps = [Fraction(draw(st.integers(1, 19)), 20) for _ in range(N)]
    name = "alphas" if kind == "km" else "betas"
    steps = steps if kind == "km" else sorted(steps)
    return tuple(build_rows(SchemeSpec(kind, **{name: (zero, *map(cast, steps))}), N)
                 for zero, cast in ((Fraction(0), Fraction), (0.0, float)))


@given(_monotone_arrays())
def test_separated_pairs_get_the_kernels_plan(arrays):
    # every pair of a monotone table is separated; the staircase is the
    # kernel's plan bit for bit, and pair_distance hands it to every pair
    # the nested plan refuses, duals included
    for pi, exact in zip(arrays, (True, False)):
        rows = pi.rows
        assert check_monotone(rows, exact=exact)
        table, plans = build_distance_table(pi, exact=exact, keep_plans=True)
        bare, _ = build_distance_table(pi, exact=exact)
        assert repr(list(bare.csv_rows())) == repr(list(table.csv_rows()))
        assert repr(bare.residuals) == repr(table.residuals)
        for n in range(1, pi.horizon + 1):
            for m in range(n):
                c = table.costs(m, n)
                kernel = solve_transport(rows[m], rows[n], c, exact=exact)
                assert staircase_transport(rows[m], rows[n], c, exact=exact) == kernel
                # the value alone, summed on the table's storage in place
                value = staircase_transport(rows[m], rows[n], table.cost_rows(),
                                            exact=exact, value=True)
                assert repr(value) == repr(kernel.objective)
                try:
                    greedy_monotone_transport(rows[m], rows[n], c, exact=exact)
                    continue
                except MonotonePreconditionError:
                    pass
                assert pair_distance(table, rows, m, n, exact=exact) == kernel
                assert plans[(m, n)] == kernel


def _unstructured_rows(monkeypatch, tmp_path):
    """The unstructured N=16 array of perfbench's `tables` workload, seed 0."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    importlib.import_module("workloads").build("tables", 0, tmp_path)
    with open(tmp_path / "unstructured.json") as fh:
        return [tuple(r) for r in json.load(fh)["rows"]]


def test_the_staircase_needs_monotone_rows(monkeypatch, tmp_path):
    # off monotone rows the staircase can be far from optimal: such pairs
    # keep the kernel's value in the table and in the stage value
    rows = _unstructured_rows(monkeypatch, tmp_path)
    table, _ = build_distance_table(TriangularArray(rows))
    worst = 0.0
    for n in range(1, len(rows)):
        if check_monotone(rows[:n + 1]):
            continue
        for m in range(n):
            c = table.costs(m, n)
            kernel = solve_transport(rows[m], rows[n], c)
            assert table.d(m, n) == kernel.objective, (m, n)
            assert pair_distance(table, rows, m, n, allow_greedy=False) == kernel
            try:
                stair = staircase_transport(rows[m], rows[n], c)
            except NotSeparatedError:
                continue
            worst = max(worst, abs(stair.objective - kernel.objective))
        ev = StageEvaluator(rows[:n], table, n)
        if not ev.monotone:
            assert ev.exact(rows[n]) == table.residuals[n], n
    assert worst > 1e-2


def test_km_search_sends_no_pair_to_the_kernel(monkeypatch):
    # every frozen prefix of a km run is monotone, so the freeze and the
    # stage value take each pair by a closed form; the kernel once took 86
    calls = collections.Counter()

    def counting(fn):
        def run(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return run

    for name in ("solve_transport", "staircase_transport"):
        monkeypatch.setattr(distances, name, counting(getattr(distances, name)))
    optimize_scheme("km", 12)
    assert calls["solve_transport"] == 0
    assert calls["staircase_transport"] > 0


def test_stage_value_cuts_are_the_kernels_on_monotone_rows():
    # the stage value's kernel pairs on monotone frozen rows take the
    # staircase; its value and the cut it harvests are the kernel's
    res = optimize_scheme("km", 12)
    rows, table = list(res.array.rows), res.table
    staircase = 0
    for n in range(2, 13):
        ev = StageEvaluator(rows[:n], table, n)
        assert ev.monotone
        for alpha in (0.05, 0.3, 0.7, 0.95):
            cand = scheme_step("km", n, rows[:n], (alpha,))
            for k in range(1, n + 1):
                m = k - 1
                kernel = solve_transport(rows[m], cand, table.costs(m, n))
                before = 0 if ev.pool_U[m] is None else len(ev.pool_U[m])
                assert ev._solve_pair(cand, k) == kernel.objective
                assert ev.pool_U[m][before].tolist() == list(kernel.dual_u)
                assert ev.pool_c[m][before] == -sum(
                    v * a for v, a in zip(kernel.dual_v, rows[m]))
                try:
                    greedy_monotone_transport(rows[m], cand, table.costs(m, n))
                except MonotonePreconditionError:
                    staircase += 1
    assert staircase > 0


# -- the staircase along a segment of targets ---------------------------------

def _separated_target(draw, a, n):
    """A target row over 0..n at most a on a's support: b_k = a_k r_k / 4,
    the rest of the mass spread over the columns past it."""
    b = [x * draw(st.integers(0, 4)) / 4 for x in a]
    w = [draw(st.integers(0, 4)) for _ in range(n + 1 - len(a))]
    w[-1] += 1
    rest = 1 - sum(b)
    return b + [rest * x / sum(w) for x in w]


@st.composite
def _staircase_instances(draw):
    """A km row a = pi^m of an exact table, the cost block of pair (m, n) in
    the exact table and its float twin, two targets p and q separated at a's
    support, and t in [0, 1]."""
    H = draw(st.integers(1, 6))
    alphas = [Fraction(draw(st.integers(1, 10)), 10) for _ in range(H)]
    pi = build_rows(SchemeSpec("km", alphas=(Fraction(0), *alphas)), H)
    n = draw(st.integers(1, H))
    m = draw(st.integers(0, n - 1))
    a = pi.rows[m]
    p, q = (_separated_target(draw, a, n) for _ in range(2))
    t = draw(st.fractions(0, 1, max_denominator=30))
    exact, _ = build_distance_table(pi, exact=True)
    flt, _ = build_distance_table(TriangularArray(
        [tuple(float(x) for x in r) for r in pi.rows]))
    return a, p, q, t, exact.costs(m, n), flt.costs(m, n)


def _piece_at(pieces, t):
    """alpha + beta t of the piece that holds t."""
    _, alpha, beta = [piece for piece in pieces if piece[0] <= t][-1]
    return alpha + beta * t


@given(_staircase_instances())
def test_staircase_pieces_are_the_kernel_value(inst):
    # on a monotone table the staircase is optimal: each piece equals the
    # kernel's value at every t of its span, exactly in Fractions
    a, p, q, t, c, cf = inst
    b = [(1 - t) * x + t * y for x, y in zip(p, q)]
    pieces = staircase_pieces(a, p, q, c)
    assert pieces[0][0] == 0 and all(0 < lo < 1 for lo, _, _ in pieces[1:])
    assert _piece_at(pieces, t) == solve_transport(a, b, c, exact=True).objective
    fa, fp, fq, ft = ([float(x) for x in v] for v in (a, p, q, [t]))
    fb = [(1 - ft[0]) * x + ft[0] * y for x, y in zip(fp, fq)]
    got = _piece_at(staircase_pieces(fa, fp, fq, cf), ft[0])
    assert abs(got - solve_transport(fa, fb, cf).objective) <= 1e-15


def test_staircase_is_the_kernel_on_the_km_table():
    # a fixed pair is the segment p = q: one piece, the kernel's value within
    # one unit in the last place of 1, on every pair of the km N=12 optimum
    res = optimize_scheme("km", 12)
    rows, table = res.array.rows, res.table
    for n in range(1, 13):
        for m in range(n):
            c = table.costs(m, n)
            (lo, alpha, beta), = staircase_pieces(rows[m], rows[n], rows[n], c)
            assert lo == 0 and beta == 0
            assert abs(alpha - solve_transport(rows[m], rows[n], c).objective) <= 2 ** -52


def test_staircase_needs_a_separated_pair():
    c = [[0, 1, 1], [1, 0, 1]]
    with pytest.raises(NotSeparatedError):
        staircase_pieces((0.5, 0.5), (0.2, 0.7, 0.1), (0.2, 0.3, 0.5), c)
    with pytest.raises(NotSeparatedError):
        staircase_pieces((0.5, 0.5), (0.2, 0.3, 0.5), (0.6, 0.0, 0.4), c)


# -- the certificate at its tolerance ----------------------------------------

def _certify_one_violation(excess, off, exact):
    """`_certify` on a 2x3 problem whose potential, built from source 0
    alone, breaks p_2 - p_1 <= c[1][2] by `excess`, and whose plan cost is
    the dual objective plus `off`."""
    one = Fraction(1) if exact else 1.0
    x, z = one / 4, one / 2 + excess
    c = [[0, x, z], [x, 0, x]]
    plan = transport.TransportPlan(((0, 2, one),), z + off, (), ())
    return transport._certify([one, 0], [0, 0, one], c, plan, [0], [0],
                              0 if exact else transport.FEAS_TOL)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2, False)])
def test_float_certificate_allows_dual_tol(factor, accepted):
    tol = transport.DUAL_TOL
    cell = _certify_one_violation(factor * tol, 0.0, exact=False)
    cost = _certify_one_violation(0.0, factor * tol, exact=False)
    assert (cell is not None) is accepted
    assert (cost is not None) is accepted
    if accepted:
        assert cell.dual_u == (0.0, 0.25, 0.5 + factor * tol)


def test_exact_certificate_rejects_any_violation():
    tiny = Fraction(1, 10**30)
    assert _certify_one_violation(0, 0, exact=True) is not None
    assert _certify_one_violation(tiny, 0, exact=True) is None
    assert _certify_one_violation(0, tiny, exact=True) is None
