"""Transportation solver against independent oracles.

The production simplex is checked against (a) a brute-force enumeration of
basic feasible solutions (spanning trees of the bipartite support graph)
and (b) scipy's LP solver, both of which share no code with it.
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mannrates import transport
from mannrates.distances import build_distance_table
from mannrates.schemes import TriangularArray
from mannrates.transport import (MonotonePreconditionError, TransportInputError,
                                 greedy_monotone_transport, solve_transport)
from mannrates.witness import build_worst_case_witness

from conftest import random_simplex


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
    from conftest import random_monotone_array

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
