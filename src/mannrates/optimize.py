"""Coefficient optimization for the averaging array.

Three strategies mirror the nesting of the underlying problems: fixed
horizon (all rows jointly, small n only), sequential (row n with earlier
rows frozen), and monotone sequential (sequential plus the monotone-row
constraints, which turn the stage objective into an explicit quadratic).
A per-scheme variant optimizes only the 1-2 stepsize parameters of a named
iteration family at each stage.  The family rules live in `schemes`: which
stepsizes a kind reads (`SCHEME_PARAMS`), their feasible range, Ishikawa's
blocks and the row itself all come from `schemes.scheme_step`, the rule
`schemes.build_rows` unrolls.  The search only searches: a point the rule
rejects scores inf.

Every stagewise optimizer (MS, S, scheme, Ishikawa and exact) runs one
stage loop, `_stagewise`, and uses one stage model.  Each optimizer
supplies only its stage: row n and its stage value.  `StageEvaluator.exact`
is the stage value: row n scored by the nested transport costs d(k, n)
against the frozen rows and table.  The loop then freezes the accepted row
with `distances.extend_table`, the table rule that `build_distance_table`
runs too, so a rebuild of the emitted array reproduces its residuals bit
for bit.  Each stage certificate, |stage value - R_n of the frozen table|,
cross-checks the stage value against that rule; in exact mode (a
`Fraction` row 0) the loop raises unless they agree exactly.
The stage value reads each nested-plan pair value from its row of the
monotone stage quadratic (`_stage_quadratic`), so that formula has one
copy.

Float mode uses multistart local search: Nelder-Mead with simplex
projection, and SLSQP on the monotone-stage quadratic, whose caps
x_k <= pi^{n-1}_k and floor x_n >= 1/2 are box bounds and whose one
constraint is the equality sum(x) = 1.
A free (non-monotone) stage first tries to certify the MS row x as
first-order stationary for the free stage value
R(x) = x_0 + sum_k x_k d(k-1, n)(x) over the simplex
(`_free_stage_certificate`).  One LP per stage (`_propose_duals`, HiGHS
through scipy's `linprog`, the package's only LP solve) proposes optimal
duals (u^k, v^k) of each pair at the kernel's plan; the package then
checks them itself, in plain floats: dual feasibility and complementary
slackness within `transport.DUAL_TOL`, and the stationarity gap
rho = x.g - min_j g_j of g = c + sum_k x_k u^k, c_j = d(j-1, n), at most
`STATIONARY_TOL` (1e-7).  What it proves: R'(x; y - x) >= -rho for every y
in the simplex.  That is first order only; R is not convex.  A certified
stage keeps the MS row and draws nothing from the random generator, so a
run whose stages all certify is the MS run of its seed; a stage that fails
the check runs the Nelder-Mead search from the MS row.  The free and
scheme searches rank candidates on a cutting-plane surrogate and confirm
them with exact pair solves by the certified transport kernel
(`transport.solve_transport`), whose dual potentials become the cuts.
Every scheme kind, and each Ishikawa block, is searched the same way: the
best point of a grid, refined by Nelder-Mead clipped to [0, 1]^d.  The float
search does its per-candidate work on plain Python floats: the free search
projects Nelder-Mead's list of floats with `_project_list`, a Python sort
and running sum; the stage value turns each candidate into a list of floats
once and scores all its pairs in one loop, and the grid search hands its
objective tuples of floats.  Every sum runs left to right, the order numpy
float64 scalars, `cumsum` and a reduction over axis 0 take, so each value
equals its numpy float64 form to the bit; only the cut evaluation stays a
numpy matrix-vector product.
Every Nelder-Mead search runs `_nelder_mead`, an in-house copy of scipy's
loop that takes the same iterates bit for bit but keeps its vertices as
lists of plain floats, forms the centroid, trial points and shrink on them
and hands each point to the objective as one of those lists.  Vertices that
tie in value are ordered by `np.argsort`, as in scipy: numpy's SIMD sort
does not keep ties in input order, so a stable sort would change the search
path and the outputs.  The MS stage's SLSQP runs `minimize`, an in-house
copy of scipy's SLSQP loop on scipy's compiled kernel with the same iterates
bit for bit, so no search goes through `scipy.optimize.minimize`.  From stage
`_WORKER_MIN_N` on, a forked worker (`_StartsWorker`) solves the trailing
half of each MS stage's starts while this process solves the leading half;
the kernel holds the GIL, so a thread could not.  The best start is chosen
in start order either way, so the rows do not depend on the worker.
Exact-rational mode solves the small stages globally by enumerating KKT
systems of the quadratic over every face of the feasible polytope; the
coordinate bounds active on a face fix their coordinates, so each system is
solved on the free coordinates only.  The enumeration runs on integers:
the quadratic and each constraint row are scaled to integer numerators
once, each face's system is solved by fraction-free (Bareiss) Gauss-Jordan
elimination (`_bareiss_solve`, the package's one exact linear solver), and
feasibility and the ranking of the candidates compare integers, so only the
optimum becomes `Fraction`s.  Float and exact monotone stages share one
stage-quadratic builder.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt, mul, sub
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize._slsqplib import slsqp

from .distances import (DistanceTable, _two_point_beta, build_distance_table,
                        empty_table, extend_table, pair_distance,
                        two_point_distance)
from .schemes import (SCHEME_PARAMS, SchemeError, TriangularArray, check_monotone,
                      scheme_step)
from .transport import DUAL_TOL, common_denominator


class OptimizeInputError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_evals: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise OptimizeInputError("restarts must be >= 1")


@dataclass
class OptimizationResult:
    array: TriangularArray
    values: list                 # R_0..R_N recomputed from the array
    stage_values: list           # best objective found at each stage (1..N)
    coefficients: dict           # per-stage stepsizes for scheme searches
    certificates: list           # |stage value - frozen table's R_n| per stage
    wall_time: float
    table: Optional[DistanceTable] = None
    # float free stages: ("stationary" or "searched", the MS row's
    # stationarity gap or None) per stage (1..N)
    free_stages: Optional[list] = None


# ---------------------------------------------------------------------------
# shared helpers

def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex, as a float64 array.

    The sort-and-threshold rule on plain floats: with u sorted in decreasing
    order and c_k = u_1 + ... + u_k - 1, theta = c_rho / rho for the last rho
    with u_rho - c_rho / rho > 0.  Each c_k is a left-to-right running sum,
    as numpy's cumsum forms it, and max(0.0, x) gives +0.0 at -0.0 as
    np.maximum(x, 0.0) does, so the result is numpy's formula bit for bit.
    """
    return np.array(_project_list(np.asarray(v, dtype=float).tolist()))


def _project_list(v: List[float]) -> List[float]:
    """`project_simplex` from a list of plain floats to a list of them."""
    s = 0.0
    for k, x in enumerate(sorted(v, reverse=True), 1):
        s += x
        if x - (s - 1) / k > 0:
            rho, c = k, s - 1
    theta = c / rho
    return [max(0.0, x - theta) for x in v]


class _MaxFev(Exception):
    """A Nelder-Mead call would pass the evaluation budget."""


def _nelder_mead(f, x0, maxfev, xatol, fatol, adaptive=False):
    """Minimize f from x0 by Nelder-Mead; returns (x, fval), x a float64 array.

    The iterates of scipy's `minimize(method="Nelder-Mead")` (1.17) with the
    options maxfev, xatol, fatol and adaptive, bit for bit: the same initial
    simplex, coefficients, centroid `np.add.reduce(sim[:-1], 0) / N` and
    vertex order `np.argsort` of the f-values; a call past maxfev ends the
    search in the middle of its iteration, a shrink included.  The simplex is
    a list of vertices, each a list of plain floats, and f gets each point as
    one of them.  Every element takes one IEEE operation per scipy array
    operation: the centroid sums each column over the first N vertices left
    to right from 0.0, as numpy's reduction over axis 0 does (signed zeros
    included; `sum()` is compensated from Python 3.12 on, so it is not used),
    then divides by N.  numpy's SIMD sort does not keep tied values in input
    order, so the order is `np.argsort`'s own, not a stable sort's.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    N = len(x0)
    if adaptive:
        dim = float(N)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # scipy's trial points as a * xbar - b * worst: reflection, expansion,
    # outside and inside contraction; scipy forms the last one as
    # (1 - psi) * xbar + psi * worst, the same bits, as x - (-y) is x + y
    reflect, expand = (1 + rho, rho), (1 + rho * chi, rho * chi)
    outside, inside = (1 + psi * rho, psi * rho), (1 - psi, -psi)
    sim = [x0]
    for k, v in enumerate(x0):
        y = list(x0)
        y[k] = (1 + 0.05) * v if v != 0 else 0.00025
        sim.append(y)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return float(f(x))

    def trial(coef):
        a, b = coef
        return [a * c - b * w for c, w in zip(xbar, worst)]

    def order():
        ind = np.array(fs).argsort().tolist()
        return [sim[i] for i in ind], [fs[i] for i in ind]

    fs = [math.inf] * (N + 1)
    try:
        for k, x in enumerate(sim):
            fs[k] = call(x)
    except _MaxFev:
        pass
    for _ in range(2):  # scipy sorts the first simplex twice
        sim, fs = order()

    while nfev < maxfev:
        f0, best = fs[0], sim[0]
        if (all(abs(f0 - v) <= fatol for v in fs[1:])
                and all(abs(a - b) <= xatol
                        for row in sim[1:] for a, b in zip(row, best))):
            break
        xbar = [0.0] * N
        for row in sim[:-1]:
            xbar = list(map(add, xbar, row))
        xbar = [c / N for c in xbar]
        worst = sim[-1]
        new = None
        try:
            xr = trial(reflect)
            fxr = call(xr)
            if fxr < f0:
                xe = trial(expand)
                fxe = call(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fs[-2]:
                new = (xr, fxr)
            elif fxr < fs[-1]:
                xc = trial(outside)
                fxc = call(xc)
                if fxc <= fxr:
                    new = (xc, fxc)
            else:
                xc = trial(inside)
                fxc = call(xc)
                if fxc < fs[-1]:
                    new = (xc, fxc)
            if new is None:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    x = [b + sigma * (c - b) for b, c in zip(best, sim[j])]
                    sim[j] = x  # kept if the call ends the search, as in scipy
                    fs[j] = call(x)
        except _MaxFev:
            pass
        if new is not None:
            sim[-1], fs[-1] = new
        sim, fs = order()
    return np.array(sim[0]), float(np.min(fs))


def _dcol(table: DistanceTable, n: int) -> List[float]:
    """d(i-1, n-1) for i = 0..n (the cost column used by stage n)."""
    return [table.d(i - 1, n - 1) for i in range(n + 1)]


class StageEvaluator:
    """The stage value R_n(cand): row n scored against the frozen rows 0..n-1
    and their table.

    Each pair d(k-1, n) takes the first rule that applies: the two-point
    closed form when both rows are two-point rows; the nested-plan closed
    form when the frozen rows are monotone and the candidate meets that
    plan's margin conditions; else the certified transport kernel through
    `pair_distance`.  Float or `Fraction` arithmetic follows the rows.

    The per-pair distance d(m, n) is a convex piecewise-linear function of
    the candidate margins: the max of u.cand - v.pi^m over dual-feasible
    potentials, whose feasible set does not depend on the candidate.  Dual
    solutions harvested from transport solves therefore give reusable lower
    bounds (`surrogate`), making derivative-free search cheap; `exact`
    confirms (and tightens the pools at) incumbents.

    One loop over the pairs (`_value`) serves both entry points; the pair
    rules are written out in it.  A float candidate becomes a list of plain
    floats once per call, and the ndarray the cuts multiply is built once,
    only when some pair reads a cut; the cut's max is taken over its
    `.tolist()`.  The sums run left to right, as they do on numpy float64
    scalars, so the value's bits do not depend on the candidate's type.
    `Fraction` candidates stay `Fraction`s.
    """

    def __init__(self, rows, table: DistanceTable, n: int):
        self.rows = [tuple(r) for r in rows]
        self.table = table
        self.n = n
        self.rational = isinstance(self.rows[0][0], Fraction)
        self.tol = 0 if self.rational else 1e-12
        self.monotone = check_monotone(self.rows, exact=self.rational)
        self.dcol = _dcol(table, n)
        # row k of the stage quadratic is pair k's nested-plan value
        self.lin, self.Q = (_stage_quadratic(self.rows, table, n)
                            if self.monotone else (None, None))
        # the nested plan's margin caps pi^m_i + tol, per frozen row m
        self.caps = ([[w + self.tol for w in r] for r in self.rows]
                     if self.monotone else None)
        self.betas = [_two_point_beta(r) for r in self.rows]
        # per pair m = k-1: stacked dual rows U and constants -v.a, or None
        # before the pair's first transport solve
        self.pool_U: List[Optional[np.ndarray]] = [None] * n
        self.pool_c: List[Optional[np.ndarray]] = [None] * n

    def _value(self, cand, cuts):
        """cand_0 + sum_k cand_k d(k-1, n), one pass over the pairs.  A pair
        without a closed form reads its best harvested cut when `cuts` is set
        and it has one, else it is solved by the transport kernel."""
        n, tol, rows, monotone = self.n, self.tol, self.rows, self.monotone
        betas, dcol, caps = self.betas, self.dcol, self.caps
        lin, Q, pool_U, pool_c = self.lin, self.Q, self.pool_U, self.pool_c
        if not self.rational:
            # plain floats: numpy scalars make the scalar arithmetic slow
            cand = list(map(float, cand))
        cb = _two_point_beta(cand)
        if monotone:
            # tails[m] = cand_m + ... + cand_{n-1}, summed from the right
            tails = [0] * n
            acc = 0
            for j in range(n - 1, -1, -1):
                acc += cand[j]
                tails[j] = acc
        x = None  # the candidate as one ndarray, built for the first cut
        total = cand[0]
        for m in range(n):
            if cb is not None and betas[m] is not None:
                d = two_point_distance(betas[m], cb, dcol[m])
            elif (monotone and not any(map(gt, cand, caps[m]))
                  and not rows[m][m] < tails[m] - tol):
                # the nested plan's value is row m + 1 of the stage quadratic;
                # sum() runs left to right through Python 3.11, from 3.12 on
                # it is compensated and can differ in the last bits
                d = lin[m + 1] + sum(map(mul, Q[m + 1], cand))
            elif cuts and pool_U[m] is not None:
                if x is None:
                    x = np.array(cand)
                d = max((pool_U[m] @ x + pool_c[m]).tolist())
            else:
                d = self._solve_pair(cand, m + 1)
            total += cand[m + 1] * d
        return total

    def surrogate(self, cand) -> float:
        """Lower bound on R_n(cand); exact where closed forms apply."""
        return float(self._value(cand, True))

    def exact(self, cand):
        """True R_n(cand), in the rows' arithmetic; harvests duals from any
        transport solves."""
        total = self._value(cand, False)
        return total if self.rational else float(total)

    def _solve_pair(self, cand, k):
        """Exact d(k-1, n) at the candidate by the transport kernel; its duals
        go to the pool as the cut u.cand - v.pi^m."""
        m = k - 1
        plan = pair_distance(self.table, self.rows + [tuple(cand)], m, self.n,
                             exact=self.rational, allow_greedy=False)
        u = np.asarray(plan.dual_u, dtype=float)
        c = -sum(v * a for v, a in zip(plan.dual_v, self.rows[m]))
        if self.pool_U[m] is None:
            self.pool_U[m], self.pool_c[m] = u[None, :], np.array([c], dtype=float)
        else:
            self.pool_U[m] = np.vstack((self.pool_U[m], u))
            self.pool_c[m] = np.append(self.pool_c[m], c)
        return plan.objective if self.rational else float(plan.objective)


def _stagewise(N: int, one, stage) -> OptimizationResult:
    """The stage loop of every stagewise optimizer: rows 0..N, one at a time.

    Row 0 is the Dirac mass `one` (1.0, or Fraction(1) for an exact run),
    and R_0 = one.  At stage n, `stage(rows, table, n)` returns row n and
    its stage value against the frozen rows 0..n-1 and their table; the row
    is frozen in the arithmetic of `one` by `extend_table`, and the stage
    certificate is |stage value - R_n|.  An exact run raises
    ArithmeticError unless the stage value, `StageEvaluator.exact(row)` and
    R_n are all equal.
    A negative horizon raises OptimizeInputError.
    """
    if N < 0:
        raise OptimizeInputError(f"horizon must be >= 0, got {N}")
    t0 = time.perf_counter()
    cast = type(one)
    exact = cast is Fraction
    rows: List[tuple] = [(one,)]
    table = empty_table(N)
    extend_table(table, rows, 0, exact)
    stage_values = []
    certificates = []
    for n in range(1, N + 1):
        row, val = stage(rows, table, n)
        if exact:
            obj = StageEvaluator(rows, table, n).exact(row)
        rows.append(tuple(map(cast, row)))
        extend_table(table, rows, n, exact)
        R = cast(table.residuals[n])
        if exact and not val == obj == R:
            raise ArithmeticError(
                f"stage {n}: optimum {val}, stage value {obj} and the frozen "
                f"table's R_n {R} differ")
        stage_values.append(val)
        certificates.append(abs(val - R))
    return OptimizationResult(TriangularArray(rows), list(table.residuals),
                              stage_values, {}, certificates,
                              time.perf_counter() - t0, table)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm, ym = x.mean(), y.mean()
    return float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())


# ---------------------------------------------------------------------------
# monotone stage quadratic

def _stage_quadratic(rows, table: DistanceTable, n: int):
    """Objective of the monotone stage as lin . x + x^T Q x over x in R^{n+1}.

    Nested lists in the arithmetic of the rows (float or Fraction); row 0 is
    the Dirac mass, so rows[0][0] is the one of that arithmetic.
    """
    one = rows[0][0]
    zero = 0 * one
    dcol = _dcol(table, n)
    lin = [zero] * (n + 1)
    Q = [[zero] * (n + 1) for _ in range(n + 1)]
    lin[0] = one
    for k in range(1, n + 1):
        m = k - 1
        prow = rows[m]
        lin[k] = sum(prow[i] * dcol[i] for i in range(m + 1))
        for i in range(m + 1):
            Q[k][i] -= dcol[i]
        base = table.d(m - 1, n - 1)
        for j in range(m + 1, n + 1):
            Q[k][j] += table.d(m - 1, j - 1) - base
    return lin, Q


def _repair_monotone(x: np.ndarray, prev, n: int) -> np.ndarray:
    """Project a candidate onto the monotone stage polytope (cheap exact repair)."""
    x = np.maximum(x, 0.0)
    out = np.empty(n + 1)
    for k in range(n):
        out[k] = min(x[k], prev[k])
    s = math.fsum(out[:n])
    if s > 0.5:
        scale = 0.5 / s
        out[:n] *= scale
        s = math.fsum(out[:n])
    out[n] = 1.0 - s
    return out


def minimize(fun, x0, *, method, jac, lb, ub, maxiter, ftol):
    """Minimize fun over the box [lb, ub] subject to sum(x) = 1 by SLSQP;
    returns (x, nit), the solution and the iteration count.

    The loop of scipy's `minimize(method="SLSQP")` (1.17) on its compiled
    kernel `scipy.optimize._slsqplib.slsqp`, specialised to the MS stage:
    finite bounds, the one equality sum(x) = 1, and callable fun and jac
    (jac returns a float64 array).  As scipy does, it clips x0 into the box,
    sizes the kernel's state, workspace, index and multiplier arrays for one
    equality and no inequality, and calls the kernel until its mode is
    neither 1 (evaluate f and the constraint) nor -1 (evaluate the
    gradients).  fun and jac run only when the mode asks, memoised on x as
    scipy's `ScalarFunction` memoises them: a point that equals the last
    one elementwise (never one holding a NaN) reuses what was evaluated
    there.  They get the memo's copy of x and must not modify it.  So every
    evaluated point, the result and the iteration count are scipy's, bit
    for bit, without scipy's per-call wrapping.

    The name `minimize` and the `method` keyword stay for perfbench's
    tracer, which patches this module's `minimize` and labels its span by
    `method`, until solver counters (ROADMAP item 9) replace that
    monkeypatching; a method other than "SLSQP" raises.
    """
    if method != "SLSQP":
        raise OptimizeInputError(f"minimize runs SLSQP only, not {method!r}")
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    n = len(x)
    state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
             "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
             "tol": 10.0 * ftol, "exact": 0, "inconsistent": 0, "reset": 0,
             "iter": 0, "itermax": int(maxiter), "line": 0, "m": 1, "meq": 1,
             "mode": 0, "n": n}
    # scipy's workspace formula at m = meq = 1, topped up by 2n(n + 1) as
    # scipy does when there is no inequality
    buffer = np.zeros(n * (n + 1) // 2 + 8 * n * n + 33 * n + 30 + 2 * n * (n + 1))
    indices = np.zeros(2 * n + 3, dtype=np.int32)
    mult = np.zeros(2 * n + 3)
    C = np.ones((1, n), order="F")  # the constraint's normal, constant
    d = np.array([x.sum() - 1.0])
    # the memo: the last point asked for (an array and its list), and f and
    # the gradient there once evaluated
    xm = x.copy()
    key = xm.tolist()
    fx = fm = fun(xm)
    g = gm = jac(xm)
    while True:
        slsqp(state, fx, g, C, d, x, mult, lb, ub, buffer, indices)
        mode = state["mode"]
        if mode != 1 and mode != -1:
            return x, state["iter"]
        point = x.tolist()
        if point != key:
            xm, key, fm, gm = x.copy(), point, None, None
        if mode == 1:
            if fm is None:
                fm = fun(xm)
            fx = fm
            d[0] = x.sum() - 1.0
        else:
            if gm is None:
                gm = jac(xm)
            g = gm


def _stage_functions(lin, Q, H):
    """The MS stage objective f(x) = lin . x + x^T Q x and its gradient
    lin + H x, with H = Q + Q^T."""
    def f(x):
        return float(lin @ x + x @ Q @ x)

    def grad(x):
        return lin + H @ x

    return f, grad


def _slsqp_starts(stage, starts) -> List[np.ndarray]:
    """SLSQP from each start on the MS stage `stage` = (lin, Q, H, lb, ub);
    the raw solutions, in start order.  Both this process and the starts
    worker run their share of a stage's starts through it."""
    lin, Q, H, lb, ub = stage
    f, grad = _stage_functions(lin, Q, H)
    return [minimize(f, x0, method="SLSQP", jac=grad, lb=lb, ub=ub,
                     maxiter=300, ftol=1e-14)[0] for x0 in starts]


# Stages with n below this run all their starts in this process.  Forking
# the worker, one round trip and the join cost about 5 ms, once per run.
# The worker's half of eight starts saves about 3.3 ms at n = 10 and 4.5 ms
# at n = 11 (0.8 and 1.1 ms a start, on a 2-core Xeon), so a run to N = 11
# has won the fork back; below n = 10 a stage saves under 3 ms.
_WORKER_MIN_N = 10


class _StartsWorker:
    """A forked process that runs the trailing half of an MS stage's SLSQP
    starts while this process runs the leading half.

    It forks at the first `submit`, and only where a second process can
    help and a fork is safe (`can_fork`): at least two CPUs in this
    process's affinity set, the "fork" start method, a non-daemonic current
    process (a daemonic one may not have children) and no other Python
    thread (the child would inherit the locks that thread holds, held).
    Otherwise, when the fork fails, and after the worker has died, every
    start runs here.  The worker runs `_slsqp_starts`, this process's own
    loop, on the same arrays, so its solutions are the ones this process
    would compute, bit for bit.  A fork starts it in milliseconds; a
    spawned worker would import numpy and scipy afresh, about 0.5 s, longer
    than a whole N = 30 run.  An exception the worker raises comes back and
    is raised here.  `close` ends the worker: an idle one reads the end
    of its pipe and exits, one with a job outstanding is killed; either is
    joined.
    """

    def __init__(self):
        self.proc = self.conn = None
        self.tried = False
        self.pending = False

    @staticmethod
    def can_fork() -> bool:
        import multiprocessing
        import threading

        affinity = getattr(os, "sched_getaffinity", None)
        return (affinity is not None and len(affinity(0)) >= 2
                and "fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon
                and threading.active_count() == 1)

    @staticmethod
    def _serve(conn, parent_end):
        """The worker's loop: solve each job until the pipe closes."""
        import signal

        parent_end.close()
        # Ctrl-C is the parent's to handle, and the parent then closes us
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            try:
                stage, starts = conn.recv()
            except EOFError:
                return
            try:
                reply = True, _slsqp_starts(stage, starts)
            except Exception as e:
                reply = False, e
            conn.send(reply)

    def _fork(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe()
        proc = ctx.Process(target=self._serve, args=(child_end, conn), daemon=True)
        try:
            proc.start()
        except OSError:  # no process to be had
            conn.close()
            return
        finally:
            child_end.close()
        self.proc, self.conn = proc, conn

    def submit(self, stage, starts) -> bool:
        """Hand the worker `starts` on `stage`; False if it cannot take them."""
        if not self.tried:
            self.tried = True
            if self.can_fork():
                self._fork()
        if self.conn is None:
            return False
        try:
            self.conn.send((stage, starts))
        except OSError:  # the worker has died
            self.close()
            return False
        self.pending = True
        return True

    def collect(self) -> Optional[List[np.ndarray]]:
        """The worker's solutions of the submitted starts; None if it died."""
        try:
            ok, reply = self.conn.recv()
        except (EOFError, OSError):  # the worker has died
            self.close()
            return None
        self.pending = False
        if not ok:
            raise reply
        return reply

    def close(self):
        """End the worker, if there is one, and join it."""
        if self.conn is None:
            return
        if self.pending:
            self.proc.kill()
        self.conn.close()
        self.proc.join()
        self.proc = self.conn = None
        self.pending = False


def _ms_stage(rows, table: DistanceTable, n: int, cfg: OptimizerConfig,
              rng: np.random.Generator, worker: _StartsWorker) -> np.ndarray:
    """Row n of the monotone stage: the best of SLSQP from several starts.

    The starts are the halved previous row and random repaired points, all
    drawn here.  From n = `_WORKER_MIN_N` on, `worker` solves the trailing
    half of them while this process solves the leading half; the solutions
    are then repaired, scored and compared in start order, the first strict
    improvement by more than 1e-15 winning, so the row does not depend on
    where each start ran.
    """
    lin, Q = (np.array(v, dtype=float) for v in _stage_quadratic(rows, table, n))
    prev = rows[n - 1]
    # every inequality of the stage is a coordinate bound: the cap
    # x_k <= prev_k and the floor x_n >= 1/2; only the mass is a constraint
    stage = (lin, Q, Q + Q.T, [0.0] * n + [0.5], list(prev[:n]) + [1.0])
    f, _ = _stage_functions(*stage[:3])

    starts = [_repair_monotone(np.array(prev[:n] + (0.0,)) * 0.5, prev, n)]
    nstarts = max(2, min(cfg.restarts, 8 if n > 20 else cfg.restarts))
    for _ in range(nstarts - 1):
        cand = rng.dirichlet(np.ones(n + 1))
        starts.append(_repair_monotone(cand, prev, n))
    half = (nstarts + 1) // 2
    shared = n >= _WORKER_MIN_N and worker.submit(stage, starts[half:])
    xs = _slsqp_starts(stage, starts[:half] if shared else starts)
    if shared:
        rest = worker.collect()
        xs += _slsqp_starts(stage, starts[half:]) if rest is None else rest
    best, best_val = None, math.inf
    for x in xs:
        x = _repair_monotone(x, prev, n)
        val = f(x)
        if val < best_val - 1e-15 or (best is None):
            best, best_val = x, val
    return best


# ---------------------------------------------------------------------------
# free (non-monotone) stage: a stationarity certificate at the MS row, else
# projected Nelder-Mead

# The largest stationarity gap (`_stationarity_gap`) that certifies a free
# stage at its MS row.  SLSQP stops the MS stage at ftol = 1e-14, which
# leaves gaps of 7.8e-9 at stage 4 of every N = 4 run and up to 4.4e-8 at
# N = 30 (seeds 0-7); a bound of 1e-9 would send stage 4 of every run back
# to the search.
STATIONARY_TOL = 1e-7

# HiGHS's primal and dual feasibility tolerances in the dual proposer.  At
# its default, 1e-7, the proposed duals broke dual feasibility by up to
# 4.3e-8, past DUAL_TOL, at stage 13 of N = 30 runs.
_LP_TOL = 1e-10


def _propose_duals(x, c, plans, costs):
    """Optimal duals (u^k, v^k) for each pair d(k-1, n) with x_k > 0, as
    {k - 1: (u, v)} in lists of floats, proposed by one LP; None if the LP
    does not solve.

    The LP's variables are u^k over the targets 0..n, v^k over the sources
    0..k-1 (v^k_0 = 0 fixes their common shift) and lambda.  Its constraints
    are dual feasibility u^k_j - v^k_i <= c^k_ij on every cell, with
    equality on the plan's positive flows (so the pair's duals are optimal),
    and g_j >= lambda for g = c + sum_k x_k u^k.  It minimizes x.g - lambda,
    the stationarity gap.  HiGHS solves it on sparse rows within `_LP_TOL`;
    the LP only proposes, `_stationarity_gap` decides.  `linprog` is
    imported here, at the call, so that a wrapper put on
    `scipy.optimize.linprog` (perfbench's `optimize.lp` span) sees it.
    """
    from scipy.optimize import linprog

    n = len(x) - 1
    active = [m for m in range(n) if x[m + 1] > 0]
    if not active:
        return {}
    # the columns: u^k, then v^k, per active pair, then lambda
    first = np.cumsum([0] + [n + 2 + m for m in active]).tolist()
    lam = first.pop()
    cost = np.zeros(lam + 1)
    cost[lam] = -1.0
    bounds = np.full((lam + 1, 2), None)
    ub, eq = [], []  # (columns, values, right-hand sides) per group of rows
    j = np.arange(n + 1)
    for m, u in zip(active, first):
        k, v = m + 1, u + n + 1
        bounds[v] = 0.0  # v^k_0
        cost[u:v] = x[k] * np.array(x)  # x_k (x . u^k) of x.g
        # one row u_j - v_i per cell (i, j) of the pair
        flow = np.zeros((k, n + 1), dtype=bool)
        for i, jj, z in plans[m].flows:
            flow[i, jj] = z > 0
        cells = np.column_stack((u + np.tile(j, k),
                                 v + np.repeat(np.arange(k), n + 1)))
        for rows, sel in ((ub, ~flow.ravel()), (eq, flow.ravel())):
            rows.append((cells[sel], np.tile([1.0, -1.0], (sel.sum(), 1)),
                         np.ravel(costs[m])[sel]))
    # lambda - sum_k x_k u^k_j <= c_j
    ub.append((np.column_stack([np.full(n + 1, lam)] + [u + j for u in first]),
               np.tile([1.0] + [-x[m + 1] for m in active], (n + 1, 1)), np.array(c)))

    def matrix(groups):
        rows, start = [], 0
        for cols, _, _ in groups:
            rows.append(np.repeat(np.arange(start, start + len(cols)), cols.shape[1]))
            start += len(cols)
        cols, vals, bound = (np.concatenate([g[i].ravel() for g in groups])
                             for i in range(3))
        return sparse.csr_matrix((vals, (np.concatenate(rows), cols)),
                                 shape=(start, lam + 1)), bound

    A_ub, b_ub = matrix(ub)
    A_eq, b_eq = matrix(eq)
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": _LP_TOL,
                           "dual_feasibility_tolerance": _LP_TOL})
    if res.status != 0:
        return None
    sol = res.x.tolist()
    return {m: (sol[u:u + n + 1], sol[u + n + 1:u + n + 2 + m])
            for m, u in zip(active, first)}


def _stationarity_gap(x, c, plans, costs, duals):
    """The stationarity gap rho = x.g - min_j g_j of g = c + sum_k x_k u^k
    over the pairs in `duals`, in plain floats; None unless each pair's
    (u^k, v^k) is dual feasible and complementary to its plan within
    DUAL_TOL.

    A pair with x_k = 0 adds nothing to g, so it needs no duals.
    """
    g = list(c)
    for m, (u, v) in duals.items():
        block = costs[m]
        if any(max(map(sub, u, row)) - vi > DUAL_TOL for row, vi in zip(block, v)):
            return None
        if any(abs(u[j] - v[i] - block[i][j]) > DUAL_TOL
               for i, j, z in plans[m].flows if z > 0):
            return None
        w = x[m + 1]
        g = [a + w * b for a, b in zip(g, u)]
    return sum(map(mul, x, g)) - min(g)


def _free_stage_inputs(rows, table: DistanceTable, n: int, x):
    """Row x as plain floats, c_j = d(j-1, n)(x) for j = 0..n (c_0 = 1), and
    each pair's plan, the kernel's (`pair_distance` without the greedy
    plan), and cost block, against the frozen rows and table."""
    x = [float(w) for w in x]
    full = list(rows) + [tuple(x)]
    plans = [pair_distance(table, full, m, n, allow_greedy=False) for m in range(n)]
    costs = [table.costs(m, n) for m in range(n)]
    return x, [1.0] + [float(p.objective) for p in plans], plans, costs


def _free_stage_certificate(rows, table: DistanceTable, n: int, x):
    """The stationarity gap of row x in the free stage n against the frozen
    rows and table, or None if no duals were proposed or they fail the check.

    The free stage value is R(x) = x_0 + sum_k x_k d(k-1, n)(x) over the
    simplex.  Each d(k-1, n) is a transport value, convex and piecewise
    linear in its target margins x, and each optimal dual u^k of it is a
    subgradient there, so R'(x; h) >= g.h for g = c + sum_k x_k u^k.  With
    rho = x.g - min_j g_j, R'(x; y - x) >= -rho for every y in the simplex:
    x is first-order stationary within rho.  That is all it proves: R is not
    convex.  The stage evaluator and its cut pools are not touched.
    """
    inputs = _free_stage_inputs(rows, table, n, x)
    duals = _propose_duals(*inputs)
    return None if duals is None else _stationarity_gap(*inputs, duals)


def _s_stage(rows, table: DistanceTable, n: int, cfg: OptimizerConfig,
             rng: np.random.Generator, warm: np.ndarray):
    """Row n of the free stage, its stage value, and how the row was found:
    "stationary" or "searched", with the MS row's stationarity gap (None if
    it could not be checked).

    The MS row `warm` is the stage's row when its stationarity gap
    (`_free_stage_certificate`) is at most STATIONARY_TOL; then nothing is
    drawn from rng.  Otherwise the search (`_free_search`) runs from it.
    """
    ev = StageEvaluator(rows, table, n)
    rho = _free_stage_certificate(rows, table, n, warm)
    if rho is not None and rho <= STATIONARY_TOL:
        return warm, ev.exact(warm), "stationary", rho
    return (*_free_search(ev, cfg, rng, warm), "searched", rho)


def _free_search(ev: StageEvaluator, cfg: OptimizerConfig,
                 rng: np.random.Generator, warm: np.ndarray):
    """Best free row found from the warm start and its stage value: projected
    Nelder-Mead on the surrogate from the warm start, the barycentre and
    random starts, each result confirmed by `ev.exact`."""
    n = ev.n

    def f(x):
        return ev.surrogate(_project_list(x))

    # the warm start is itself a feasible candidate; keep it as the
    # incumbent so the search can only improve on it
    best = project_simplex(warm)
    best_val = ev.exact(best)
    starts = [best, np.full(n + 1, 1.0 / (n + 1))]
    for _ in range(max(0, cfg.restarts - len(starts))):
        starts.append(rng.dirichlet(np.ones(n + 1)))
    budget = max(200, cfg.max_evals // max(1, len(starts)))
    for x0 in starts:
        x = project_simplex(_nelder_mead(f, x0, budget, 1e-12, 1e-14, n > 6)[0])
        val = ev.exact(x)
        if val < best_val:
            best, best_val = x, val
    # re-search from the incumbent on the tightened surrogate until stable
    for _ in range(6):
        x = project_simplex(_nelder_mead(f, best, budget, 1e-12, 1e-14, n > 6)[0])
        val = ev.exact(x)
        if val < best_val - 1e-13:
            best, best_val = x, val
        else:
            break
    return best, best_val


def optimize_sequential(N: int, cfg: OptimizerConfig = None, monotone: bool = True,
                        exact: bool = False) -> OptimizationResult:
    """Stagewise optimization of the rows; `monotone` picks the restricted
    quadratic stages, otherwise the free stages.

    In float mode every stage starts with the monotone stage (`_ms_stage`).
    A free stage keeps that row when it is certified first-order stationary
    for the free stage, and searches otherwise (`_s_stage`); the result's
    `free_stages` records which, per stage.  A run whose free stages are
    all certified draws what the MS run of its seed draws, and returns its
    rows and R_n bit for bit.
    From stage `_WORKER_MIN_N` on, where this process may fork and has a
    second CPU, one forked worker solves half of each stage's SLSQP starts;
    the worker is joined before this call returns or raises.  The rows and
    R_n are the same, bit for bit, with or without it.
    """
    cfg = cfg or OptimizerConfig()
    if exact:
        return _exact_sequential(N, monotone)
    rng = np.random.default_rng(cfg.seed)
    worker = _StartsWorker()
    free_stages = []

    def stage(rows, table, n):
        x = _ms_stage(rows, table, n, cfg, rng, worker)
        if monotone:
            return x, StageEvaluator(rows, table, n).exact(x)
        # the restricted quadratic stage is exact under monotone rows; the
        # free stage keeps its row if that row is certified stationary, and
        # otherwise searches from it, accepting only exact-evaluated
        # improvements
        row, val, kind, rho = _s_stage(rows, table, n, cfg, rng, x)
        free_stages.append((kind, rho))
        return row, val

    try:
        res = _stagewise(N, 1.0, stage)
    finally:
        worker.close()
    if not monotone:
        res.free_stages = free_stages
    return res


# ---------------------------------------------------------------------------
# fixed horizon

FH_LIMIT = 8


def optimize_fixed_horizon(N: int, cfg: OptimizerConfig = None,
                           exact: bool = False) -> OptimizationResult:
    """Joint minimization of R_N over all rows pi^1..pi^N.

    Practical limit N <= 8 (the joint problem degrades quickly beyond);
    use the sequential mode for longer horizons.  The result is a certified
    upper bound on the optimal value, not a global-optimality claim.
    """
    cfg = cfg or OptimizerConfig()
    if N < 1:
        raise OptimizeInputError(f"fixed-horizon mode needs N >= 1, got {N}")
    if N > FH_LIMIT:
        raise OptimizeInputError(
            f"fixed-horizon mode is limited to N <= {FH_LIMIT}; "
            "use optimize_sequential for longer horizons")
    if exact:
        if N == 1:
            return _exact_sequential(1, monotone=False)
        raise OptimizeInputError("exact fixed-horizon mode supports N = 1 only")
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    sizes = [n + 1 for n in range(1, N + 1)]
    offsets = np.cumsum([0] + sizes)

    def unpack(x):
        rows = [(1.0,)]
        for idx, size in enumerate(sizes):
            seg = project_simplex(x[offsets[idx]:offsets[idx + 1]])
            rows.append(tuple(seg))
        return rows

    def residual(rows):
        table, _ = build_distance_table(TriangularArray(rows))
        return float(table.residuals[N])

    starts = []
    seq = optimize_sequential(N, OptimizerConfig(restarts=4, seed=cfg.seed))
    starts.append(np.concatenate([np.asarray(r) for r in seq.array.rows[1:]]))
    for _ in range(cfg.restarts - 1):
        starts.append(np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes]))

    best_x, best_val = None, math.inf
    budget = max(400, cfg.max_evals // max(1, len(starts)))
    for x0 in starts:
        x, val = _nelder_mead(lambda x: residual(unpack(x)), x0, budget,
                              1e-11, 1e-13, N > 3)
        if val < best_val:
            best_x, best_val = x, val

    # coordinate-descent polish: re-optimize one row at a time
    rows = unpack(best_x)
    for _ in range(4):
        improved = False
        for stage in range(1, N + 1):
            def stage_obj(seg, stage=stage):
                trial = list(rows)
                trial[stage] = tuple(project_simplex(seg))
                return residual(trial)

            x, val = _nelder_mead(stage_obj, rows[stage], 2000, 1e-12, 1e-15)
            if val < best_val - 1e-14:
                rows[stage] = tuple(project_simplex(x))
                best_val = val
                improved = True
        if not improved:
            break

    arr = TriangularArray(rows)
    table, _ = build_distance_table(arr)
    return OptimizationResult(arr, list(table.residuals),
                              [float(table.residuals[N])], {},
                              [abs(best_val - float(table.residuals[N]))],
                              time.perf_counter() - t0, table)


# ---------------------------------------------------------------------------
# scheme-constrained stage search

def _grid_then_nm(objective, dim: int, size: int, **nm_options):
    """Minimize the objective over [0, 1]^dim: the best point of a size^dim
    grid, refined by Nelder-Mead and clipped to the cube.  The refinement is
    kept only if it is no worse than the grid point.  The objective takes a
    tuple of plain floats; where it raises SchemeError, at stepsizes the
    scheme rule rejects, its value is inf."""
    def f(p):
        try:
            return objective(p)
        except SchemeError:
            return math.inf

    points = list(itertools.product(np.linspace(0.0, 1.0, size).tolist(),
                                    repeat=dim))
    vals = [f(p) for p in points]
    best = int(np.argmin(vals))
    x, _ = _nelder_mead(lambda p: f(tuple(p)), points[best], **nm_options)
    p = tuple(np.clip(x, 0.0, 1.0).tolist())
    return points[best] if f(p) > vals[best] else p


# stepsizes under which row n degenerates to the previous row padded with 0
_CARRY_PARAMS = {
    "km": (0.0,),
    "extra-km": (0.0, 1.0),
    "inertial-km": (0.0, 0.0),
    "km-halpern": (0.0, 1.0),
}


def optimize_scheme(kind: str, N: int) -> OptimizationResult:
    """Stagewise search over the scheme's stepsize parameters.

    Each stage takes the best point of a grid on the surrogate (65 points
    for 1-parameter families, 17^2 for 2-parameter ones) and refines it by
    Nelder-Mead; Ishikawa optimizes its (alpha, beta) pair over each 2-stage
    block the same way (`_ishikawa_stage`).  The search is deterministic, so
    it takes no restarts and no seed.
    """
    if kind not in SCHEME_PARAMS:
        raise OptimizeInputError(f"unknown scheme kind {kind!r}")
    coeffs: Dict[str, list] = {"alpha": [0.0], "beta": [0.0]}
    keys = SCHEME_PARAMS[kind]
    dim = len(keys)

    def stage(rows, table, n):
        ev = StageEvaluator(rows, table, n)

        def obj(params):
            return ev.surrogate(scheme_step(kind, n, rows, params))

        best_params, best_exact = None, math.inf
        carry = _CARRY_PARAMS.get(kind)
        if carry is not None:
            # parameters reproducing the previous row (padded); guarantees
            # the accepted stage value never exceeds R_{n-1}
            best_params, best_exact = carry, ev.exact(scheme_step(kind, n, rows, carry))
        for _ in range(3):  # repeat search while exact solves tighten the pools
            params = _grid_then_nm(obj, dim, 65 if dim == 1 else 17,
                                   maxfev=2000, xatol=1e-11, fatol=1e-14)
            row = scheme_step(kind, n, rows, params)
            sur = ev.surrogate(row)  # before harvesting, to detect a stale model
            val = ev.exact(row)
            if val < best_exact:
                best_params, best_exact = params, val
            if abs(val - sur) <= 1e-9:
                break
        for key, p in zip(keys, best_params):
            coeffs[key].append(p)
        return scheme_step(kind, n, rows, best_params), best_exact

    res = _stagewise(N, 1.0, _ishikawa_stage(N, coeffs)
                     if kind == "ishikawa" else stage)
    res.coefficients = coeffs
    return res


def _ishikawa_stage(N: int, coeffs: Dict[str, list]):
    """The stage function of blockwise (alpha_k, beta_k) search.

    An odd stage n searches the block's pair over rows n and n + 1 (row n
    alone when n = N); the even stage after it reuses the block.  The scheme
    rule (`schemes.scheme_step`) turns the block into both rows.
    Coefficients are per row, as for the other kinds: both rows of a block
    carry its (alpha, beta).
    """
    pair = None  # the block's (beta, alpha)

    def stage(rows, table, n):
        nonlocal pair
        if n % 2:
            last = min(n + 1, N)

            def block_obj(p):
                b, a = p
                trial_rows, trial = rows, table
                for s in range(n, last + 1):
                    row = scheme_step("ishikawa", s, trial_rows, (a, b))
                    if s == last:
                        return StageEvaluator(trial_rows, trial, s).exact(row)
                    # stage n is frozen into copies to score stage n + 1
                    trial_rows, trial = rows + [tuple(row)], table.copy()
                    extend_table(trial, trial_rows, s)

            pair = _grid_then_nm(block_obj, 2, 13,
                                 maxfev=1500, xatol=1e-10, fatol=1e-13)
        b, a = pair
        row = scheme_step("ishikawa", n, rows, (a, b))
        coeffs["alpha"].append(a)
        coeffs["beta"].append(b)
        return row, StageEvaluator(rows, table, n).exact(row)

    return stage


# ---------------------------------------------------------------------------
# exact-rational stages (global, via KKT enumeration over polytope faces)

def _exact_qp(lin, Q, ineqs, d):
    """Global minimum of lin.x + x^T Q x over {sum x = 1, a.x <= b for (a, b) in ineqs}.

    Enumerates KKT systems over all active subsets; the global minimum of a
    quadratic over a polytope is stationary on the relative interior of some
    face, so it appears among the candidates.  An active row with a single
    nonzero coefficient (a coordinate bound) fixes its coordinate, so each
    system is solved on the free coordinates only, with one multiplier for
    sum x = 1 and one per active general row.  Subsets whose full KKT system
    is singular by its shape (two bounds on one coordinate, no coordinate
    left free) are skipped without a solve (`_faces`).  The candidates are
    those of the full systems, and ties break to the lexicographically
    smallest point.  Inputs are `Fraction`s (or ints).

    The work is done on integers: lin and Q over their least common
    denominator L, each row (a, b) over its own, and each candidate as
    integer numerators over one denominator.  Feasibility and the ranking
    compare integers; only the optimum is turned into `Fraction`s.
    """
    (lin, *Q), L = common_denominator([lin] + Q)
    H = [[Q[i][j] + Q[j][i] for j in range(d)] for i in range(d)]
    rows = [common_denominator([a + [b]])[0][0] for a, b in ineqs]
    # the coordinate each row bounds, or None for a general row
    bound_of = []
    for r in rows:
        nonzero = [j for j in range(d) if r[j] != 0]
        bound_of.append(nonzero[0] if len(nonzero) == 1 else None)
    best = None
    for fixed, general in _faces(rows, bound_of, d):
        point = _face_stationary_point(lin, H, fixed, general, d)
        if point is None or not _feasible(*point, rows, bound_of, d):
            continue
        x, den = point
        # the value times L * den^2
        val = den * sum(map(mul, lin, x)) + \
            sum(x[i] * sum(map(mul, Q[i], x)) for i in range(d))
        if best is not None:
            bval, bx, bden = best
            left, right = val * bden * bden, bval * den * den
            if left > right or (left == right and
                                [v * bden for v in x] >= [v * den for v in bx]):
                continue
        best = (val, x, den)
    if best is None:
        raise OptimizeInputError("empty feasible polytope in exact stage")
    val, x, den = best
    return Fraction(val, L * den * den), [Fraction(v, den) for v in x]


def _faces(rows, bound_of, d):
    """(fixed coordinates, active general rows) for every active subset whose
    KKT system can be nonsingular; `fixed` maps each fixed coordinate to its
    value, a `Fraction`.

    Subsets of d or more rows are left out: with sum x = 1 they put d + 1
    constraints on d coordinates (this also drops every subset that fixes
    all coordinates).  So is a subset with two bounds on one coordinate.
    """
    # the value a coordinate bound fixes, once per row
    value = [None if i is None else Fraction(r[d], r[i])
             for r, i in zip(rows, bound_of)]
    for size in range(min(d - 1, len(rows)) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            fixed = {}
            general = []
            for t in subset:
                i = bound_of[t]
                if i is None:
                    general.append(rows[t])
                elif i in fixed:
                    break
                else:
                    fixed[i] = value[t]
            else:
                yield fixed, general


def _face_stationary_point(lin, H, fixed, general, d):
    """Stationary point of the quadratic on the face where the coordinates in
    `fixed` take their values and the `general` rows hold with equality, from
    the KKT system on the free coordinates; None if that system is singular.

    lin, H and the rows (a_0 .. a_{d-1}, b) are integers.  The system is
    scaled to integers as it is written down: the fixed values become
    numerators over their common denominator F, and the free coordinates
    are solved for as F * x, with each multiplier rescaled freely.  Returns
    the point as integer numerators over one positive denominator.
    """
    free = [j for j in range(d) if j not in fixed]
    g = len(general)
    (nums,), F = common_denominator([list(fixed.values())])
    fx = dict(zip(fixed, nums))
    M = []
    for i in free:
        Hi = H[i]
        M.append([Hi[j] for j in free] + [1] + [a[i] for a in general]
                 + [-lin[i] * F - sum(Hi[j] * v for j, v in fx.items())])
    M.append([1] * len(free) + [0] * (1 + g) + [F - sum(fx.values())])
    for a in general:
        M.append([a[j] for j in free] + [0] * (1 + g)
                 + [a[d] * F - sum(a[j] * v for j, v in fx.items())])
    sol = _bareiss_solve(M)
    if sol is None:
        return None
    y, det = sol
    x = [None] * d
    for j, v in fx.items():
        x[j] = v * det
    for p, j in enumerate(free):
        x[j] = y[p]
    return x, det * F


def _bareiss_solve(M):
    """Solve the square integer system held in the augmented rows M (n rows
    of n + 1 integers; M is overwritten) by fraction-free Gauss-Jordan
    elimination, the package's one exact linear solver.

    Each step keeps every entry an integer minor of the system, so its
    division by the previous pivot is exact; a remainder raises
    ArithmeticError.  Returns (numerators, det) with x_i = numerators[i] / det
    and det > 0, or None if the system is singular.
    """
    n = len(M)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        pivot_row = M[k]
        p = pivot_row[k]
        for i, row in enumerate(M):
            if i == k:
                continue
            f = row[k]
            for j in range(k + 1, n + 1):
                q, r = divmod(p * row[j] - f * pivot_row[j], prev)
                if r:
                    raise ArithmeticError(
                        f"inexact division by {prev} in fraction-free elimination")
                row[j] = q
            row[k] = 0
        prev = p
    # every diagonal entry now equals the last pivot
    sign = 1 if prev > 0 else -1
    return [sign * row[n] for row in M], sign * prev


def _feasible(x, den, rows, bound_of, d) -> bool:
    """a.x <= b for every row, with x = numerators over den > 0."""
    for r, i in zip(rows, bound_of):
        lhs = r[i] * x[i] if i is not None else sum(map(mul, r[:d], x))
        if lhs > r[d] * den:
            return False
    return True


EXACT_MS_LIMIT = 4
EXACT_S_LIMIT = 2


def _exact_ms_stage(rows, table, n):
    lin, Q = _stage_quadratic(rows, table, n)
    ineqs = []
    for i in range(n):
        a = [Fraction(0)] * (n + 1)
        a[i] = Fraction(-1)
        ineqs.append((a, Fraction(0)))  # x_i >= 0; x_n >= 1/2 bounds x_n
    prev = rows[n - 1]
    for k in range(n):
        a = [Fraction(0)] * (n + 1)
        a[k] = Fraction(1)
        ineqs.append((a, Fraction(prev[k])))
    a = [Fraction(0)] * (n + 1)
    a[n] = Fraction(-1)
    ineqs.append((a, Fraction(-1, 2)))  # x_n >= 1/2
    return _exact_qp(lin, Q, ineqs, n + 1)


def _spanning_cells(M, N):
    """Cell sets of size M+N-1 forming spanning trees of the bipartite graph."""
    cells = [(i, j) for i in range(M) for j in range(N)]
    for combo in itertools.combinations(cells, M + N - 1):
        # connectivity + acyclicity via union-find
        parent = list(range(M + N))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for (i, j) in combo:
            ri, rj = find(i), find(M + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok and len({find(x) for x in range(M + N)}) == 1:
            yield combo


def _tree_flows_affine(combo, a_fixed, M, N, d):
    """Flows on a spanning tree as affine functions of the target margins.

    Each flow is a vector [const, coef_b0, ..., coef_b{N-1}]; source margins
    a_fixed are exact constants.
    """
    zero = [Fraction(0)] * (N + 1)
    margins_s = []
    for ai in a_fixed:
        v = zero[:]
        v[0] = Fraction(ai)
        margins_s.append(v)
    margins_t = []
    for j in range(N):
        v = zero[:]
        v[1 + j] = Fraction(1)
        margins_t.append(v)
    deg = {}
    for (i, j) in combo:
        deg[("s", i)] = deg.get(("s", i), 0) + 1
        deg[("t", j)] = deg.get(("t", j), 0) + 1
    remaining = set(combo)
    flows = {}
    while remaining:
        leaf_cell = None
        for (i, j) in remaining:
            if deg[("s", i)] == 1:
                leaf_cell, node = (i, j), ("s", i)
                break
            if deg[("t", j)] == 1:
                leaf_cell, node = (i, j), ("t", j)
                break
        i, j = leaf_cell
        if node[0] == "s":
            flows[(i, j)] = margins_s[i][:]
            margins_t[j] = [x - y for x, y in zip(margins_t[j], flows[(i, j)])]
        else:
            flows[(i, j)] = margins_t[j][:]
            margins_s[i] = [x - y for x, y in zip(margins_s[i], flows[(i, j)])]
        remaining.discard(leaf_cell)
        deg[("s", i)] -= 1
        deg[("t", j)] -= 1
    return flows


def _exact_s_stage(rows, table, n):
    """Global exact free stage for n <= EXACT_S_LIMIT.

    Transport costs d(k, n) are minima over spanning-tree basic plans whose
    flows are affine in the candidate row; enumerating the plan choice per
    pair turns the stage into finitely many exact QPs with the plans'
    feasibility inequalities appended.
    """
    d = n + 1
    base_ineqs = []
    for i in range(d):
        a = [Fraction(0)] * d
        a[i] = Fraction(-1)
        base_ineqs.append((a, Fraction(0)))

    # k = 1 term: source is the Dirac row, unique plan z_{0j} = x_j
    lin0 = [Fraction(0)] * d
    Q0 = [[Fraction(0)] * d for _ in range(d)]
    lin0[0] = Fraction(1)
    c0 = table.costs(0, n)[0]  # d(-1, j-1)
    if n >= 1:
        for j in range(d):
            Q0[1][j] += Fraction(c0[j])

    branch_sets = []
    for k in range(2, n + 1):
        m = k - 1
        M, N_ = m + 1, d
        costs = table.costs(m, n)
        choices = []
        for combo in _spanning_cells(M, N_):
            flows = _tree_flows_affine(combo, rows[m], M, N_, d)
            cost_vec = [Fraction(0)] * (d + 1)
            for (i, j), fv in flows.items():
                cij = Fraction(costs[i][j])
                cost_vec = [cv + cij * f for cv, f in zip(cost_vec, fv)]
            feas = []
            for fv in flows.values():
                a = [-fv[1 + t] for t in range(d)]
                feas.append((a, fv[0]))  # flow >= 0  <=>  -coef.x <= const
            choices.append((k, cost_vec, feas))
        branch_sets.append(choices)

    best = None
    for branch in itertools.product(*branch_sets) if branch_sets else [()]:
        lin = lin0[:]
        Q = [row[:] for row in Q0]
        ineqs = [(a[:], b) for a, b in base_ineqs]
        for (k, cost_vec, feas) in branch:
            lin[k] += cost_vec[0]
            for j in range(d):
                Q[k][j] += cost_vec[1 + j]
            ineqs.extend(feas)
        try:
            val, x = _exact_qp(lin, Q, ineqs, d)
        except OptimizeInputError:
            continue
        if best is None or val < best[0] or (val == best[0] and x < best[1]):
            best = (val, x)
    return best


def _exact_sequential(N: int, monotone: bool) -> OptimizationResult:
    limit = EXACT_MS_LIMIT if monotone else EXACT_S_LIMIT
    if N > limit:
        raise OptimizeInputError(
            f"exact mode supports N <= {limit} for this strategy")

    def stage(rows, table, n):
        # looked up at each call, so the module globals can be patched
        val, x = (_exact_ms_stage if monotone else _exact_s_stage)(rows, table, n)
        return x, val

    return _stagewise(N, Fraction(1), stage)
