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
stage loop, `_stagewise`, and uses one stage model.  The loop builds each
stage's one `StageEvaluator` on the frozen rows and table, and each
optimizer supplies only its stage, a function of that evaluator that
returns row n and its stage value; only Ishikawa's two-row lookahead builds
trial evaluators of its own.  `StageEvaluator.exact` is the stage value:
row n scored by the nested transport costs d(k, n) against the frozen rows
and table.  The loop then freezes the accepted row
with `distances.extend_table`, the table rule that `build_distance_table`
runs too, so a rebuild of the emitted array reproduces its residuals bit
for bit.  Each stage certificate, |stage value - R_n of the frozen table|,
cross-checks the stage value against that rule; in exact mode (a
`Fraction` row 0) the loop raises unless they agree exactly.
The stage value reads each nested-plan pair value from its row of the
monotone stage quadratic (`_stage_quadratic`), so that formula has one
copy; the evaluator builds it at its first read and keeps it
(`StageEvaluator.quadratic`), and an MS stage's SLSQP, the exact MS stage
and the loop's exact check read the same one.

Float mode uses multistart local search: Nelder-Mead with simplex
projection, and SLSQP on the monotone-stage quadratic, whose caps
x_k <= pi^{n-1}_k and floor x_n >= 1/2 are box bounds and whose one
constraint is the equality sum(x) = 1.  A cap of 0 fixes its coordinate at
0, at this stage and every later one, so SLSQP runs on the free block
F = {k < n : pi^{n-1}_k > 0} u {n} alone, as the exact stages solve each
face on its free coordinates.  At N = 30 the first zero cap comes at stage
13 or 14, and by stage 30 two thirds of the caps are 0.
A free (non-monotone) stage first tries to certify the MS row x as
first-order stationary for the free stage value
R(x) = x_0 + sum_k x_k d(k-1, n)(x) over the simplex
(`_free_stage_certificate`).  The duals (u^k, v^k) of each pair are the
transport kernel's own, from its plan at x; where those do not certify
(degenerate plans, from n = 9 on in practice), one LP (`_propose_duals`,
HiGHS through scipy's `linprog`, the package's only LP solve) proposes
optimal duals at the kernel's plans.  The package checks either itself, in
plain floats: dual feasibility and complementary slackness within
`transport.DUAL_TOL`, and the stationarity gap
rho = x.g - min_j g_j of g = c + sum_k x_k u^k, c_j = d(j-1, n), at most
`STATIONARY_TOL` (1e-7).  What it proves: R'(x; y - x) >= -rho for every y
in the simplex.  That is first order only; R is not convex.  A certified
stage keeps the MS row and draws nothing from the random generator, so a
run whose stages all certify is the MS run of its seed; a stage that fails
the check runs the Nelder-Mead search from the MS row.
A one-parameter scheme stage (km, halpern) is solved exactly: its rows form
a segment in the stepsize t, along which each pair d(k-1, n) is piecewise
linear (the two-point closed form, or the northeast staircase of a
separated pair on monotone rows, `transport.staircase_pieces`), so the
stage value is piecewise quadratic in t, and one sweep over the merged
breakpoints minimizes each piece in closed form (`_segment_search`), in
float or `Fraction` arithmetic.
The free search and the two-parameter scheme searches rank candidates on a
cutting-plane surrogate and confirm them with exact pair solves, whose
dual potentials become the cuts: the certified transport kernel
(`transport.solve_transport`), or on monotone frozen rows the northeast
staircase of a separated pair, the kernel's plan without its pivots.
The cuts are collected only for a surrogate that reads them: on monotone
frozen rows an evaluator's exact pair solves give values alone, with no
plan, until its first surrogate read harvests them in their order
(`StageEvaluator`), so the stages that read no surrogate (km, halpern, MS,
Ishikawa, a certified free stage) build no closed-form plan.
Every two-parameter scheme kind, and each Ishikawa block, is searched the
same way: the best point of a grid, refined by Nelder-Mead clipped to
[0, 1]^2.  The float
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
bit for bit, so no search goes through `scipy.optimize.minimize`.
Exact-rational mode solves the small stages globally by enumerating KKT
systems of the quadratic over every face of the feasible polytope; the
coordinate bounds active on a face fix their coordinates, so each system is
solved on the free coordinates only.  The enumeration runs on integers:
the quadratic and each constraint row are scaled to integer numerators
once, each face's system is solved by fraction-free (Bareiss) Gauss-Jordan
elimination (`_bareiss_solve`, the package's one exact linear solver), and
feasibility and the ranking of the candidates compare integers, so only the
optimum becomes `Fraction`s.  Float and exact monotone stages share one
stage-quadratic builder.  The exact free stage (n <= 2) enumerates each
pair's basic plans: every set of M + N - 1 cells whose incidence system
`_bareiss_solve` can solve is a spanning tree, and the solution is its flow,
affine in the candidate row (`_tree_flows`); a singular system is no tree.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, gt, mul, sub
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize._slsqplib import slsqp

from .distances import (DistanceTable, _two_point_beta, build_distance_table,
                        empty_table, extend_table, pair_distance,
                        two_point_distance)
from .schemes import SCHEME_PARAMS, SchemeError, TriangularArray, scheme_step
from .transport import (DUAL_TOL, NotSeparatedError, common_denominator,
                        staircase_pieces)


class OptimizeInputError(ValueError):
    pass


# objective evaluations that a Nelder-Mead search (the free stage's fallback,
# the joint fixed-horizon search) shares among its starts
MAX_EVALS = 20000


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of a float optimizer run.

    `restarts` is the number of starts of the joint fixed-horizon search,
    and of a free stage's search (at least 2).  It is not the number of
    starts of an MS stage (`_ms_stage`, also the warm start of each free
    stage): that runs max(2, restarts) starts up to n = 20 and
    max(2, min(restarts, 8)) from n = 21 on, so restarts = 1 runs 2, and
    the default 32 runs 8 from stage 21 on.
    """
    restarts: int = 32
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
    """d(i-1, n-1) for i = 0..n (the cost column used by stage n), read off
    the table's symmetric storage as its cost row n."""
    return table.cost_rows()[n][:n + 1]


class StageEvaluator:
    """The stage value R_n(cand): row n scored against the frozen rows 0..n-1
    and their table.

    Each pair d(k-1, n) takes the first rule that applies: the two-point
    closed form when both rows are two-point rows; the nested-plan closed
    form when the frozen rows are monotone and the candidate meets that
    plan's margin conditions (caps within 1e-12); else `pair_distance`
    without the nested plan, whose margin checks allow 1e-10: the
    northeast staircase of a separated pair when the frozen rows are
    monotone, else the certified transport kernel.  Either gives the
    kernel's plan and duals.  Float or `Fraction` arithmetic follows the
    rows.

    The per-pair distance d(m, n) is a convex piecewise-linear function of
    the candidate margins: the max of u.cand - v.pi^m over dual-feasible
    potentials, whose feasible set does not depend on the candidate.  Dual
    solutions harvested from transport solves therefore give reusable lower
    bounds (`surrogate`), making derivative-free search cheap; `exact`
    confirms (and tightens the pools at) incumbents.

    Only the surrogate reads the pools, and the km, halpern, MS and
    Ishikawa stages and a certified free stage never read it, so on
    monotone frozen rows the pools are filled only when it is read.  Until
    then `exact` takes each pair it solves by value alone (`pair_distance`
    with `value`: no plan, no duals) and records the pair; the first
    surrogate read harvests the records in their order (`_solve_pair`), and
    from then on `exact` harvests at each solve.  So at every surrogate
    read the pools are those of an evaluator that harvested at every solve.
    On other rows each such pair goes to the kernel, which builds its plan
    and duals for the value too, so it harvests at once.

    Whether the frozen rows are monotone, each row's two-point beta and
    the nested plan's caps are read off the table (`DistanceTable.monotone`,
    `.betas`, `.caps`), which the freeze (`extend_table`) recorded once per
    row, as it added the row's column.  A table whose entries were written
    otherwise has no such record: no monotone rows, no two-point rows, and
    every pair goes to the kernel.

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
        self.monotone = table.monotone(n - 1)
        self.dcol = _dcol(table, n)
        # per frozen row m, as the freeze recorded it: the two-point beta,
        # and on monotone rows the nested plan's margin caps pi^m_i + tol
        self.betas = table.betas
        self.caps = table.caps if self.monotone else None
        # per pair m = k-1: stacked dual rows U and constants -v.a, or None
        # before the pair's first harvest
        self.pool_U: List[Optional[np.ndarray]] = [None] * n
        self.pool_c: List[Optional[np.ndarray]] = [None] * n
        # the pairs solved by value alone, as (m, candidate) in solve order,
        # until the first surrogate read harvests them; then None.  Off
        # monotone rows every such pair goes to the kernel, which builds its
        # plan and duals for the value too, so those harvest at once
        self._unharvested: Optional[list] = [] if self.monotone else None

    @cached_property
    def quadratic(self):
        """The stage quadratic (lin, Q) of `_stage_quadratic`, built at the
        first read: row k is pair k's nested-plan value on monotone rows."""
        return _stage_quadratic(self.rows, self.table, self.n)

    def _value(self, cand, cuts):
        """cand_0 + sum_k cand_k d(k-1, n), one pass over the pairs.  A pair
        without a closed form reads its best harvested cut when `cuts` is set
        and it has one, else it is solved: by value alone and recorded
        before the first surrogate read on monotone rows, else harvested
        (`_solve_pair`)."""
        n, tol, rows, monotone = self.n, self.tol, self.rows, self.monotone
        betas, dcol, caps = self.betas, self.dcol, self.caps
        pool_U, pool_c, unharvested = self.pool_U, self.pool_c, self._unharvested
        lin = Q = None  # the stage quadratic, read at the first nested-plan pair
        full = None  # rows 0..n-1 and the candidate, built at the first pair solve
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
                if Q is None:
                    lin, Q = self.quadratic
                d = lin[m + 1] + sum(map(mul, Q[m + 1], cand))
            elif cuts and pool_U[m] is not None:
                if x is None:
                    x = np.array(cand)
                d = max((pool_U[m] @ x + pool_c[m]).tolist())
            elif unharvested is None:
                d = self._solve_pair(cand, m + 1)
            else:
                if full is None:
                    full = rows + [tuple(cand)]
                d = pair_distance(self.table, full, m, n, exact=self.rational,
                                  nested=False, value=True)
                if not self.rational:
                    d = float(d)
                unharvested.append((m, full[n]))
            total += cand[m + 1] * d
        return total

    def surrogate(self, cand) -> float:
        """Lower bound on R_n(cand); exact where closed forms apply.  The
        first read harvests the pairs `exact` solved by value alone."""
        if self._unharvested is not None:
            unharvested, self._unharvested = self._unharvested, None
            for m, solved in unharvested:
                self._solve_pair(solved, m + 1)
        return float(self._value(cand, True))

    def exact(self, cand):
        """True R_n(cand), in the rows' arithmetic.  Before the first
        surrogate read its pair solves give values alone; from then on they
        harvest their duals."""
        total = self._value(cand, False)
        return total if self.rational else float(total)

    def _solve_pair(self, cand, k):
        """Exact d(k-1, n) at the candidate by the kernel's plan (the
        staircase on monotone frozen rows); its duals go to the pool as the
        cut u.cand - v.pi^m."""
        m = k - 1
        plan = pair_distance(self.table, self.rows + [tuple(cand)], m, self.n,
                             exact=self.rational, allow_greedy=self.monotone,
                             nested=False)
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
    and R_0 = one.  At stage n the loop builds the stage's one evaluator,
    `ev = StageEvaluator(rows, table, n)` on the frozen rows 0..n-1 and
    their table, and `stage(ev)` returns row n and its stage value; the row
    is frozen in the arithmetic of `one` by `extend_table`, and the stage
    certificate is |stage value - R_n|.  An exact run raises
    ArithmeticError unless the stage value, `ev.exact(row)` and R_n are all
    equal.
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
        ev = StageEvaluator(rows, table, n)
        row, val = stage(ev)
        if exact:
            obj = ev.exact(row)
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
    the Dirac mass, so rows[0][0] is the one of that arithmetic.  Row k of
    Q is -d(i-1, n-1) for i <= k - 1 and d(k-2, j-1) - d(k-2, n-1) for
    j >= k, each added to a zero of that arithmetic (0.0 + -0.0 is 0.0);
    the second part is read off the table's cost row k - 1 in place.
    """
    one = rows[0][0]
    zero = 0 * one
    costs = table.cost_rows()
    dcol = _dcol(table, n)
    lin = [zero] * (n + 1)
    Q = [[zero] * (n + 1)]
    lin[0] = one
    for k in range(1, n + 1):
        m = k - 1
        lin[k] = sum(map(mul, rows[m], dcol))
        drow = costs[m]
        base = drow[n]
        Q.append([zero - x for x in dcol[:k]]
                 + [zero + (x - base) for x in drow[k:n + 1]])
    return lin, Q


def _repair_monotone(x: np.ndarray, prev, n: int) -> np.ndarray:
    """Project a candidate onto the monotone stage polytope (cheap exact repair)."""
    x = np.maximum(x, 0.0)
    out = np.empty(n + 1)
    # min(x_k, prev_k) per coordinate: np.minimum returns its second
    # argument on a tie, min() its first, so a tie of 0.0 and -0.0 keeps x_k
    out[:n] = np.minimum(prev[:n], x[:n])
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
    d = np.array([np.add.reduce(x) - 1.0])  # x.sum() without its wrapper
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
            d[0] = np.add.reduce(x) - 1.0
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


def _stage_solutions(lin, Q, caps, starts) -> List[np.ndarray]:
    """SLSQP from each start on the MS stage lin . x + x^T Q x with caps
    x_k <= caps_k (k < n); the solutions in R^{n+1}, in start order.

    Every inequality of the stage is a coordinate bound: the cap and the
    floor x_n >= 1/2; only the mass sum(x) = 1 is a constraint.  A cap of 0
    fixes its coordinate at 0, so SLSQP runs on the free block
    F = {k < n : caps_k > 0} u {n} alone: `lin`, Q, H = Q + Q^T, the bounds
    and the starts restricted to F.  Each SLSQP iteration solves a
    least-squares problem over every coordinate it is given, so its cost
    grows as the cube of |F|, not of n + 1.  Each solution is put back into
    a zero row of length n + 1.  With no zero cap F is every coordinate and
    the solutions are those of SLSQP on the whole box, bit for bit.
    """
    n = len(caps)
    free = [k for k in range(n) if caps[k] > 0] + [n]
    Qf = Q[np.ix_(free, free)]
    f, grad = _stage_functions(lin[free], Qf, Qf + Qf.T)
    lb = [0.0] * (len(free) - 1) + [0.5]
    ub = [caps[k] for k in free[:-1]] + [1.0]
    out = []
    for x0 in starts:
        x = np.zeros(n + 1)
        x[free] = minimize(f, x0[free], method="SLSQP", jac=grad, lb=lb, ub=ub,
                           maxiter=300, ftol=1e-14)[0]
        out.append(x)
    return out


def _ms_stage(ev: StageEvaluator, cfg: OptimizerConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Row n = `ev.n` of the monotone stage: the best of SLSQP from several
    starts on the evaluator's stage quadratic.

    The starts are the halved previous row and random repaired points, all
    drawn here: `cfg.restarts` of them, but at least 2 and from n = 21 on
    at most 8.  SLSQP runs on the coordinates the caps leave free
    (`_stage_solutions`); the solutions are then repaired, scored on the
    whole quadratic and compared in start order, the first strict
    improvement by more than 1e-15 winning.
    """
    n = ev.n
    lin, Q = (np.array(v, dtype=float) for v in ev.quadratic)
    prev = ev.rows[n - 1]
    f, _ = _stage_functions(lin, Q, Q + Q.T)

    starts = [_repair_monotone(np.array(prev[:n] + (0.0,)) * 0.5, prev, n)]
    nstarts = max(2, min(cfg.restarts, 8 if n > 20 else cfg.restarts))
    for _ in range(nstarts - 1):
        cand = rng.dirichlet(np.ones(n + 1))
        starts.append(_repair_monotone(cand, prev, n))
    best, best_val = None, math.inf
    for x in _stage_solutions(lin, Q, prev, starts):
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


def _free_stage_inputs(ev: StageEvaluator, x):
    """Row x as plain floats, c_j = d(j-1, n)(x) for j = 0..n (c_0 = 1), and
    each pair's plan, the kernel's (`pair_distance` without the closed
    forms), and cost block, against the evaluator's frozen rows and table."""
    n, table = ev.n, ev.table
    x = [float(w) for w in x]
    full = ev.rows + [tuple(x)]
    plans = [pair_distance(table, full, m, n, allow_greedy=False) for m in range(n)]
    costs = [table.costs(m, n) for m in range(n)]
    return x, [1.0] + [float(p.objective) for p in plans], plans, costs


def _free_stage_certificate(ev: StageEvaluator, x):
    """The stationarity gap of row x in the free stage n = `ev.n` against the
    evaluator's frozen rows and table, or None if no duals were proposed or
    they fail the check.

    The free stage value is R(x) = x_0 + sum_k x_k d(k-1, n)(x) over the
    simplex.  Each d(k-1, n) is a transport value, convex and piecewise
    linear in its target margins x, and each optimal dual u^k of it is a
    subgradient there, so R'(x; h) >= g.h for g = c + sum_k x_k u^k.  With
    rho = x.g - min_j g_j, R'(x; y - x) >= -rho for every y in the simplex:
    x is first-order stationary within rho.  That is all it proves: R is not
    convex.  The evaluator's cut pools are not touched.

    The duals checked first are the kernel's own, each plan's (dual_u,
    dual_v); only when they give no gap at most STATIONARY_TOL (degenerate
    plans, whose duals are not unique) does one LP (`_propose_duals`)
    propose others, and the gap of those is returned.
    """
    inputs = _free_stage_inputs(ev, x)
    x, _, plans, _ = inputs
    rho = _stationarity_gap(*inputs, {m: (plan.dual_u, plan.dual_v)
                                      for m, plan in enumerate(plans) if x[m + 1] > 0})
    if rho is not None and rho <= STATIONARY_TOL:
        return rho
    duals = _propose_duals(*inputs)
    return None if duals is None else _stationarity_gap(*inputs, duals)


def _s_stage(ev: StageEvaluator, cfg: OptimizerConfig,
             rng: np.random.Generator, warm: np.ndarray):
    """Row n = `ev.n` of the free stage, its stage value, and how the row was
    found: "stationary" or "searched", with the MS row's stationarity gap
    (None if it could not be checked).

    The MS row `warm` is the stage's row when its stationarity gap
    (`_free_stage_certificate`) is at most STATIONARY_TOL; then nothing is
    drawn from rng.  Otherwise the search (`_free_search`) runs from it.
    """
    rho = _free_stage_certificate(ev, warm)
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
    budget = max(200, MAX_EVALS // max(1, len(starts)))
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
    rows and R_n bit for bit.  Each stage's MS row, stage value and free
    stage read the one `StageEvaluator` of the stage loop, and so one stage
    quadratic.
    """
    cfg = cfg or OptimizerConfig()
    if exact:
        return _exact_sequential(N, monotone)
    rng = np.random.default_rng(cfg.seed)
    free_stages = []

    def stage(ev):
        x = _ms_stage(ev, cfg, rng)
        if monotone:
            return x, ev.exact(x)
        # the restricted quadratic stage is exact under monotone rows; the
        # free stage keeps its row if that row is certified stationary, and
        # otherwise searches from it, accepting only exact-evaluated
        # improvements
        row, val, kind, rho = _s_stage(ev, cfg, rng, x)
        free_stages.append((kind, rho))
        return row, val

    res = _stagewise(N, 1.0, stage)
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
    budget = max(400, MAX_EVALS // max(1, len(starts)))
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

def _grid_then_nm(objective, size: int, **nm_options):
    """Minimize the objective over [0, 1]^2: the best point of a size^2
    grid, refined by Nelder-Mead and clipped to the square.  The refinement is
    kept only if it is no worse than the grid point.  The objective takes a
    tuple of plain floats; where it raises SchemeError, at stepsizes the
    scheme rule rejects, its value is inf."""
    def f(p):
        try:
            return objective(p)
        except SchemeError:
            return math.inf

    points = list(itertools.product(np.linspace(0.0, 1.0, size).tolist(),
                                    repeat=2))
    vals = [f(p) for p in points]
    best = int(np.argmin(vals))
    x, _ = _nelder_mead(lambda p: f(tuple(p)), points[best], **nm_options)
    p = tuple(np.clip(x, 0.0, 1.0).tolist())
    return points[best] if f(p) > vals[best] else p


# stepsizes under which row n degenerates to the previous row padded with 0
_CARRY_PARAMS = {
    "extra-km": (0.0, 1.0),
    "inertial-km": (0.0, 0.0),
    "km-halpern": (0.0, 1.0),
}


def optimize_scheme(kind: str, N: int) -> OptimizationResult:
    """Stagewise search over the scheme's stepsize parameters.

    A one-parameter kind (km, halpern) finds each stage's minimum exactly,
    by pieces along its segment of rows (`_segment_stage`).  A
    two-parameter kind takes the best point of a 17^2 grid on the surrogate
    and refines it by Nelder-Mead; Ishikawa optimizes its (alpha, beta)
    pair over each 2-stage block the same way (`_ishikawa_stage`).  The
    search is deterministic, so it takes no restarts and no seed.
    """
    if kind not in SCHEME_PARAMS:
        raise OptimizeInputError(f"unknown scheme kind {kind!r}")
    coeffs: Dict[str, list] = {"alpha": [0.0], "beta": [0.0]}
    keys = SCHEME_PARAMS[kind]

    def grid_stage(ev):
        rows, n = ev.rows, ev.n

        def obj(params):
            return ev.surrogate(scheme_step(kind, n, rows, params))

        best_params, best_exact = None, math.inf
        carry = _CARRY_PARAMS.get(kind)
        if carry is not None:
            # parameters reproducing the previous row (padded); guarantees
            # the accepted stage value never exceeds R_{n-1}
            best_params, best_exact = carry, ev.exact(scheme_step(kind, n, rows, carry))
        for _ in range(3):  # repeat search while exact solves tighten the pools
            params = _grid_then_nm(obj, 17, maxfev=2000, xatol=1e-11, fatol=1e-14)
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

    if kind == "ishikawa":
        stage = _ishikawa_stage(N, coeffs)
    elif len(keys) == 1:
        stage = _segment_stage(kind, coeffs)
    else:
        stage = grid_stage
    res = _stagewise(N, 1.0, stage)
    res.coefficients = coeffs
    return res


def _segment_stage(kind: str, coeffs: Dict[str, list]):
    """The stage function of a one-parameter kind: the exact stage minimum.

    Row n of km or halpern is affine in its stepsize t, so the rows the
    stage can choose form the segment (1 - t) p + t q, t in [0, 1], from
    p = row n at t = 0 to q = row n at t = 1.  `_segment_search` finds the
    least stage value on it in closed form, in the rows' arithmetic; the
    row of its t is then scored by `StageEvaluator.exact`, and a stage
    value that differs from the closed form (by more than 1e-12 in floats,
    at all in `Fraction`s) raises ArithmeticError.
    """
    key, = SCHEME_PARAMS[kind]

    def stage(ev):
        rows, n = ev.rows, ev.n
        one = rows[0][0]
        p, q = (scheme_step(kind, n, rows, (s,)) for s in (0 * one, one))
        t, closed = _segment_search(ev, p, q)
        row = scheme_step(kind, n, rows, (t,))
        val = ev.exact(row)
        if abs(val - closed) > (0 if ev.rational else 1e-12):
            raise ArithmeticError(f"stage {n}: stage value {val} at {key} = {t} "
                                  f"is not the segment minimum {closed}")
        coeffs[key].append(t)
        return row, val

    return stage


def _segment_search(ev: StageEvaluator, p, q):
    """The least stage value on the rows b(t) = (1 - t) p + t q, t in
    [0, 1], and the least t that attains it: (t, value), in the rows'
    arithmetic.

    R_n(t) = b_0(t) + sum_k b_k(t) d(k-1, n)(t), each b_k is affine in t
    and each d(k-1, n) piecewise linear (`_pair_pieces`), so R_n is
    A + B t + C t^2 between consecutive breakpoints of all the pairs.  One
    sweep over the merged breakpoints keeps A, B and C up to date, and
    takes each piece's minimum in closed form: at its ends, or at -B / 2C
    when C > 0 and that lies inside.
    """
    zero = 0 * p[0]
    A, B, C = p[0], q[0] - p[0], zero
    # the segment runs from e_0 to e_n: each pair with a two-point frozen
    # row takes the two-point closed form, with beta = t
    two_point = _two_point_beta(p) == 0 and _two_point_beta(q) == 1
    events = []  # (breakpoint, change of A, B and C there)
    for k in range(1, ev.n + 1):
        u, v = p[k], q[k] - p[k]
        if not (u or v):
            continue  # b_k(t) = 0: the pair adds nothing
        pieces = _pair_pieces(ev, p, q, k - 1, two_point)
        _, a0, b0 = pieces[0]
        A += u * a0
        B += u * b0 + v * a0
        C += v * b0
        for (_, a0, b0), (t, a1, b1) in zip(pieces, pieces[1:]):
            da, db = a1 - a0, b1 - b0
            events.append((t, u * da, u * db + v * da, v * db))
    events.sort(key=lambda e: e[0])
    events.append((zero + 1, zero, zero, zero))
    best_t, best = zero, A
    lo = zero
    for t, dA, dB, dC in events:
        if t > lo:  # the piece [lo, t]: its vertex, then its right end
            vertex = -B / (2 * C) if C > 0 else t
            for s in ((vertex, t) if lo < vertex < t else (t,)):
                val = A + s * (B + s * C)
                if val < best:
                    best_t, best = s, val
            lo = t
        A += dA
        B += dB
        C += dC
    return best_t, best


def _pair_pieces(ev: StageEvaluator, p, q, m: int, two_point: bool):
    """d(m, n) along the rows (1 - t) p + t q as pieces [(t_lo, alpha,
    beta)], the value alpha + beta t from t_lo to the next piece's t_lo.

    With a two-point frozen row m and the segment from e_0 to e_n, the
    two-point closed form |beta_m - t| + min(beta_m, t) d(m-1, n-1), with
    its breakpoint at t = beta_m.  Otherwise the frozen rows must be
    monotone and the pair separated: its value is then the northeast
    staircase (`transport.staircase_pieces`, on the table's storage read in
    place), optimal under the quadrangle inequality of the monotone table.
    Any other pair raises
    NotSeparatedError.
    """
    beta = ev.betas[m]
    if two_point and beta is not None:
        D = ev.dcol[m]
        lower = [(0 * beta, beta, D - 1)] if beta > 0 else []
        upper = [(beta, beta * D - beta, 1 + 0 * beta)] if beta < 1 else []
        return lower + upper
    if not ev.monotone:
        raise NotSeparatedError(f"pair ({m}, {ev.n}) is neither two-point nor "
                                "on monotone frozen rows")
    return staircase_pieces(ev.rows[m], p, q, ev.table.cost_rows())


def _ishikawa_stage(N: int, coeffs: Dict[str, list]):
    """The stage function of blockwise (alpha_k, beta_k) search.

    An odd stage n searches the block's pair over rows n and n + 1 (row n
    alone when n = N); the even stage after it reuses the block.  The scheme
    rule (`schemes.scheme_step`) turns the block into both rows.
    Coefficients are per row, as for the other kinds: both rows of a block
    carry its (alpha, beta).
    """
    pair = None  # the block's (beta, alpha)

    def stage(ev):
        nonlocal pair
        rows, table, n = ev.rows, ev.table, ev.n
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

            pair = _grid_then_nm(block_obj, 13, maxfev=1500, xatol=1e-10, fatol=1e-13)
        b, a = pair
        row = scheme_step("ishikawa", n, rows, (a, b))
        coeffs["alpha"].append(a)
        coeffs["beta"].append(b)
        return row, ev.exact(row)

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


def _exact_ms_stage(ev: StageEvaluator):
    """Global exact monotone stage n = `ev.n` on the evaluator's stage
    quadratic."""
    n = ev.n
    lin, Q = ev.quadratic
    ineqs = []
    for i in range(n):
        a = [Fraction(0)] * (n + 1)
        a[i] = Fraction(-1)
        ineqs.append((a, Fraction(0)))  # x_i >= 0; x_n >= 1/2 bounds x_n
    prev = ev.rows[n - 1]
    for k in range(n):
        a = [Fraction(0)] * (n + 1)
        a[k] = Fraction(1)
        ineqs.append((a, Fraction(prev[k])))
    a = [Fraction(0)] * (n + 1)
    a[n] = Fraction(-1)
    ineqs.append((a, Fraction(-1, 2)))  # x_n >= 1/2
    return _exact_qp(lin, Q, ineqs, n + 1)


def _tree_flows(cells, a, N):
    """The flows on `cells` from the source margins a (M weights) to N
    target margins b, as affine functions of b: {cell: [const, coef_b0, ...,
    coef_b{N-1}]}; None if the cells are not a spanning tree.

    The flows solve the incidence system of the M + N - 1 cells: one
    equation per source and one per target but the last, which sum b =
    sum a implies, so b_{N-1} never enters.  It is nonsingular exactly when
    the cells form a spanning tree of the bipartite graph.  Each right-hand
    side, the source margins and each target's unit vector, all over the
    common denominator L of a, is solved by `_bareiss_solve`.
    """
    (a,), L = common_denominator([list(a)])
    M = len(a)
    incidence = ([[int(s == i) for s, _ in cells] for i in range(M)]
                 + [[int(t == j) for _, t in cells] for j in range(N - 1)])
    sides = [a + [0] * (N - 1)] + [[0] * M + [L * (j == t) for j in range(N - 1)]
                                   for t in range(N - 1)]
    cols = []
    for rhs in sides:
        sol = _bareiss_solve([r + [v] for r, v in zip(incidence, rhs)])
        if sol is None:
            return None
        y, det = sol
        cols.append([Fraction(v, det * L) for v in y])
    return {cell: [col[p] for col in cols] + [Fraction(0)]
            for p, cell in enumerate(cells)}


def _exact_s_stage(ev: StageEvaluator):
    """Global exact free stage n = `ev.n` for n <= EXACT_S_LIMIT.

    Transport costs d(k-1, n) are minima over spanning-tree basic plans
    whose flows are affine in the candidate row (`_tree_flows`); enumerating
    the plan choice per pair, the Dirac pair's one tree included, turns the
    stage into finitely many exact QPs whose inequalities are the plans'
    flows >= 0.  The Dirac pair's flows are the row itself, so its rows hold
    x >= 0.  A flow with no coefficient, a leaf source's a_i, is a constant:
    its row, which would make every face holding it singular, is left out
    when the constant is >= 0, and the plan when it is < 0.
    """
    n = ev.n
    d = n + 1
    branch_sets = []  # per pair d(m, n), in order
    for m in range(n):
        costs = ev.table.costs(m, n)
        cells = [(i, j) for i in range(m + 1) for j in range(d)]
        choices = []
        for combo in itertools.combinations(cells, m + d):
            flows = _tree_flows(combo, ev.rows[m], d)
            if flows is None or any(not any(fv[1:]) and fv[0] < 0
                                    for fv in flows.values()):
                continue
            cost_vec = [Fraction(0)] * (d + 1)
            for (i, j), fv in flows.items():
                cij = Fraction(costs[i][j])
                cost_vec = [cv + cij * f for cv, f in zip(cost_vec, fv)]
            # flow >= 0  <=>  -coef.x <= const
            feas = [([-c for c in fv[1:]], fv[0]) for fv in flows.values()
                    if any(fv[1:])]
            choices.append((cost_vec, feas))
        branch_sets.append(choices)

    best = None
    for branch in itertools.product(*branch_sets):
        # x_0 + sum_k x_k d(k-1, n): pair k's plan cost, affine in x, is row k
        lin = [Fraction(1)] + [cost_vec[0] for cost_vec, _ in branch]
        Q = [[Fraction(0)] * d] + [cost_vec[1:] for cost_vec, _ in branch]
        ineqs = [f for _, feas in branch for f in feas]
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

    def stage(ev):
        # looked up at each call, so the module globals can be patched
        val, x = (_exact_ms_stage if monotone else _exact_s_stage)(ev)
        return x, val

    return _stagewise(N, Fraction(1), stage)
