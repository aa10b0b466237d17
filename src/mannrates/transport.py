"""Exact solvers for the small transportation problems between coefficient rows.

Both solvers take plain sequences: margins a (the source row, M weights)
and b (the target row, N weights), each nonnegative and summing to 1, and
costs c with c[i][j] the cost of moving mass from i to j, M rows of N
entries.  `solve_transport(a, b, c)` returns an optimal plan with dual
multipliers: it keeps the mass two rows share on the diagonal, solves the
remaining excess-to-deficit problem with a transportation simplex (Dantzig
pricing, Bland's rule against cycling, an array-based basis tree), and
certifies the result with a single dual potential, solving the full problem
instead when the certificate fails.  `greedy_monotone_transport(a, b, c)` is
a closed-form construction valid under the monotone-row preconditions.  A
malformed problem raises `TransportInputError` before either solver runs.

Both work over floats and, with ``exact=True``, over `int` and
`fractions.Fraction` entries.  An exact problem is scaled to integers before
it is solved: the margins become numerators over their least common
denominator D, the costs numerators over theirs E.  A transportation basis
keeps integer margins integral and integer costs keep the potentials
integral, so the same code runs on plain `int`s with zero tolerances and
pays no gcd per operation.  The plan is mapped back once: flows over D,
duals over E, the objective over D*E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from operator import sub
from typing import Sequence

FEAS_TOL = 1e-10
DUAL_TOL = 1e-9

_MAX_PIVOTS = 200_000
_DEGENERATE_RUN = 8  # degenerate pivots in a row before Bland's rule


class TransportError(Exception):
    pass


class TransportInputError(TransportError):
    """Invalid margins or mismatched dimensions."""


class CyclingError(TransportError):
    """Pivot guard exceeded; must not happen, Bland's rule prevents cycling."""


class MonotonePreconditionError(TransportError):
    """Greedy plan preconditions do not hold; fall back to solve_transport."""


@dataclass(frozen=True)
class TransportPlan:
    """Optimal plan with dual multipliers (normalized so min dual is 0)."""

    flows: tuple  # tuple of (i, j, mass), mass > 0 (plus possibly zero basics)
    objective: object
    dual_u: tuple  # over target indices 0..n
    dual_v: tuple  # over source indices 0..m

    def flow_dict(self):
        return {(i, j): z for i, j, z in self.flows}

    def mass(self, i, j):
        return self.flow_dict().get((i, j), 0)


def _require_rational(values, what):
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise TransportInputError(
                f"exact arithmetic needs int or Fraction {what}, got {x!r}")


def _check_inputs(a, b, c, exact):
    """The margins a and b as lists, and their unit D, once the problem
    checks out: rational entries under `exact`, each margin nonempty,
    nonnegative and summing to 1 (exactly under `exact`, else within
    1e-12), and an M x N cost block.  Exact margins come back as numerators
    over their least common denominator D, the integers the solve uses;
    float margins with D = 1, each weight in [-1e-12, 0) (rounding) clipped
    to 0.0 once the checks pass; -0.0 stays.  A NaN weight fails the sum
    check.
    """
    if exact:
        _require_rational(chain(*c), "costs")
        _require_rational(chain(a, b), "weights")
        (a, b), D = _common_denominator((a, b))
    else:
        a, b, D = list(a), list(b), 1
    tol = 0 if exact else 1e-12
    for w in (a, b):
        if not w:
            raise TransportInputError("empty distribution")
        low = min(w)
        if low < -tol:
            raise TransportInputError("negative weight in distribution")
        if not abs(sum(w) - D) <= tol:
            raise TransportInputError(f"weights sum to {sum(w) / D}, expected 1")
        if low < 0:
            w[:] = [0.0 if x < 0 else x for x in w]
    M, N = len(a), len(b)
    if len(c) != M or any(len(r) != N for r in c):
        raise TransportInputError(
            f"cost rows of lengths {[len(r) for r in c]} do not match margins ({M}, {N})")
    return a, b, D


def _arc(q, parent, M):
    """Cell (i, j) of the tree arc joining node q to its parent."""
    return (q, parent[q] - M) if q < M else (parent[q], q - M)


def _simplex(a, b, c, tol):
    """Transportation simplex from the northwest-corner basis.

    Returns ({(i, j): flow} on the M+N-1 basic cells, u, v) with
    u_j - v_i = c_ij on the basis and v_0 = 0.  The basis is a spanning tree
    on nodes 0..M-1 (sources) and M..M+N-1 (targets), rooted at source 0 and
    kept as parent/depth/children arrays: a pivot finds the entering cycle by
    walking up to the common ancestor and shifts the duals of the subtree the
    leaving cell cuts off only.  Pricing takes the largest reduced cost
    (Dantzig); after _DEGENERATE_RUN pivots in a row that move no mass it
    takes the first eligible cell (Bland) until mass moves again, so the
    method cannot cycle.
    """
    M, N = len(a), len(b)
    if not M or not N:
        return {}, [], []
    F = [[0] * N for _ in range(M)]
    parent, depth, pot = [-1] * (M + N), [0] * (M + N), [0] * (M + N)
    children = [[] for _ in range(M + N)]
    ar, br = list(a), list(b)
    i = j = 0
    node, par = M, 0  # each northwest cell hangs one new node on the tree
    while True:
        t = ar[i] if ar[i] <= br[j] else br[j]
        F[i][j] = t
        ar[i] -= t
        br[j] -= t
        parent[node], depth[node] = par, depth[par] + 1
        children[par].append(node)
        pot[node] = pot[par] + c[i][j] if node >= M else pot[par] - c[i][j]
        if i == M - 1 and j == N - 1:
            break
        if i < M - 1 and (ar[i] == 0 or j == N - 1):
            i += 1
            node, par = i, M + j
        else:
            j += 1
            node, par = M + j, i

    degenerate = 0
    for _ in range(_MAX_PIVOTS):
        u = pot[M:]
        bland = degenerate >= _DEGENERATE_RUN
        best, ie = tol, -1
        for i in range(M):
            r = max(map(sub, u, c[i])) - pot[i]
            if r > best:
                best, ie = r, i
                if bland:
                    break
        if ie < 0:
            cells = [_arc(q, parent, M) for q in range(1, M + N)]
            return {(i, j): F[i][j] for i, j in cells}, u, pot[:M]
        row = list(map(sub, u, c[ie]))
        if bland:
            je = next(j for j, r in enumerate(row) if r - pot[ie] > tol)
        else:
            je = row.index(max(row))
        # the cycle is the entering cell plus the tree path between its ends,
        # found by climbing from both ends to their common ancestor; the
        # path's arcs alternate losing and gaining mass, and those that lose
        # hang a target node on the climb from je, a source node from ie
        s, t = ie, M + je
        x, y, up_t, up_s = t, s, [], []
        while x != y:
            if depth[x] >= depth[y]:
                up_t.append(x)
                x = parent[x]
            else:
                up_s.append(y)
                y = parent[y]
        minus = [(_arc(q, parent, M), q) for q in up_t if q >= M]
        minus += [(_arc(q, parent, M), q) for q in up_s if q < M]
        plus = [_arc(q, parent, M) for q in up_t if q < M]
        plus += [_arc(q, parent, M) for q in up_s if q >= M]
        # leaving cell: least flow, ties to the least cell (Bland's rule)
        theta, (li, lj), leave = min((F[i][j], (i, j), q) for (i, j), q in minus)
        if theta:
            F[ie][je] = theta
            for (i, j), _ in minus:
                F[i][j] -= theta
            for i, j in plus:
                F[i][j] += theta
        F[li][lj] = 0
        degenerate = degenerate + 1 if theta <= tol else 0
        # re-hang the cut-off subtree from the entering cell and shift its duals
        if leave >= M:
            e_in, e_out, delta = t, s, pot[s] + c[ie][je] - pot[t]
        else:
            e_in, e_out, delta = s, t, pot[t] - c[ie][je] - pot[s]
        children[parent[leave]].remove(leave)
        x, new_par = e_in, e_out
        while True:
            old, parent[x] = parent[x], new_par
            children[new_par].append(x)
            if x == leave:
                break
            children[old].remove(x)
            x, new_par = old, x
        stack = [e_in]
        while stack:
            x = stack.pop()
            depth[x] = depth[parent[x]] + 1
            pot[x] += delta
            stack.extend(children[x])
    raise CyclingError("pivot limit exceeded")


def _plan(flow, c, tol):
    """Plan of the given flows and their cost; the duals are filled in later."""
    objective = sum(z * c[i][j] for (i, j), z in flow.items())
    flows = tuple(sorted((i, j, z) for (i, j), z in flow.items() if z > tol or i == j))
    return TransportPlan(flows, objective, (), ())


def _certify(a, b, c, plan, sources, v, tol):
    """The plan with one potential p over all indices as its duals, or None.

    p_j = min_i (v_i + c_ij) over the given sources, shifted to minimum 0.
    The plan is returned only if p_j - p_i <= c_ij on every cell and the
    dual objective of p equals the plan's cost, exactly for Fractions and
    within DUAL_TOL for floats: then both are optimal.  For metric costs
    both checks hold and p is 1-Lipschitz.
    """
    M, N = len(a), len(b)
    if M > N:
        return None
    p = [min((vi + c[i][j] for i, vi in zip(sources, v)), default=0) for j in range(N)]
    lo = min(p)
    p = [x - lo for x in p]
    slack = DUAL_TOL if tol else 0
    for i in range(M):
        pi = p[i] + slack
        if any(pj - cij > pi for pj, cij in zip(p, c[i])):
            return None
    dual = sum(x * y for x, y in zip(b, p)) - sum(x * y for x, y in zip(a, p))
    if abs(dual - plan.objective) > slack:
        return None
    return replace(plan, dual_u=tuple(p), dual_v=tuple(p[:M]))


def solve_transport(a: Sequence, b: Sequence, c: Sequence[Sequence],
                    exact: bool = False) -> TransportPlan:
    """Minimum-cost transport plan from margins a to margins b under costs
    c[i][j], with optimal duals.

    The shared mass min(a_k, b_k) stays on the diagonal, so flow(k, k) is
    exactly that, and `_simplex` solves only the excess-to-deficit problem
    from I = {k: a_k > b_k} to J = {k: b_k > a_k}.  This is optimal when the
    costs are a metric, which is not assumed but certified (`_certify`).
    If the certificate fails (costs that are not a metric), or the source
    row is the longer one, the full problem is solved instead; its duals are
    returned as one potential when that certifies, else as the simplex left
    them, shifted to minimum 0.  Exact problems are solved on their integer
    scaling: margins over their least common denominator, costs over theirs.
    """
    a, b, D = _check_inputs(a, b, c, exact)
    if exact:
        c, E = _common_denominator(c)
        return _rational(_solve(a, b, c, 0), D, E)
    return _solve(a, b, c, FEAS_TOL)


def _solve(a, b, c, tol):
    """`solve_transport` on margin lists a, b and costs c of one arithmetic."""
    M, N = len(a), len(b)
    if M <= N:
        excess = [(a[k] if k < M else 0) - b[k] for k in range(N)]
        I = [k for k in range(N) if excess[k] > 0]
        J = [k for k in range(N) if excess[k] < 0]
        reduced, _, v = _simplex([excess[i] for i in I], [-excess[j] for j in J],
                                 [[c[i][j] for j in J] for i in I], tol)
        flow = {(k, k): min(a[k], b[k]) for k in range(M)}
        flow.update(((I[i], J[j]), z) for (i, j), z in reduced.items())
        plan = _certify(a, b, c, _plan(flow, c, tol), I, v, tol)
        if plan is not None:
            return plan
    flow, u, v = _simplex(a, b, c, tol)
    plan = _plan(flow, c, tol)
    certified = _certify(a, b, c, plan, range(M), v, tol)
    if certified is not None:
        return certified
    lo = min(min(u), min(v))
    return replace(plan, dual_u=tuple(x - lo for x in u), dual_v=tuple(x - lo for x in v))


def _common_denominator(rows):
    """Numerators of the rows' entries over their least common denominator,
    and that denominator."""
    dens = {x.denominator for r in rows for x in r}
    D = math.lcm(*dens)
    q = {d: D // d for d in dens}
    return [[x.numerator * q[x.denominator] for x in r] for r in rows], D


def _rational(plan, D, E):
    """The plan of an integer problem over denominators D and E in Fractions."""
    return TransportPlan(tuple((i, j, Fraction(z, D)) for i, j, z in plan.flows),
                         Fraction(plan.objective, D * E),
                         tuple(Fraction(x, E) for x in plan.dual_u),
                         tuple(Fraction(x, E) for x in plan.dual_v))


def greedy_monotone_transport(a: Sequence, b: Sequence, c: Sequence[Sequence],
                              exact: bool = False) -> TransportPlan:
    """Closed-form nested plan for monotone rows (source row a = pi^m, target
    row b = pi^n, costs c[i][j]).

    Requires b_i <= a_i for i <= m and the tail condition
    a_m >= sum_{j=m}^{n-1} b_j; the cost table must additionally
    satisfy the quadrangle inequality (caller-checked).  Raises
    MonotonePreconditionError when the margin conditions fail.  Exact
    problems are scaled to integers as in `solve_transport`; of the costs,
    only the entries the plan reads are scaled, once the margin conditions
    hold.
    """
    a, b, D = _check_inputs(a, b, c, exact)
    if exact:
        flow = _nested_flow(a, b, 0)
        c, E = _nested_costs(c)
        return _rational(_nested_plan(flow, c, 0, E), D, E)
    return _nested_plan(_nested_flow(a, b, FEAS_TOL), c, FEAS_TOL, 1)


def _nested_flow(a, b, tol):
    """The nested plan's flows {(i, j): mass}, or MonotonePreconditionError."""
    M, N = len(a), len(b)
    if M > N:
        raise MonotonePreconditionError("source support longer than target support")
    m = M - 1
    for i in range(M):
        if b[i] > a[i] + tol:
            raise MonotonePreconditionError(f"target[{i}] > source[{i}]")
    tail = sum(b[m:N - 1])
    if a[m] < tail - tol:
        raise MonotonePreconditionError("tail condition fails")

    flow = {}
    for i in range(M):
        flow[(i, i)] = b[i]
    for j in range(m + 1, N - 1):
        flow[(m, j)] = b[j]
    for i in range(m):
        flow[(i, N - 1)] = flow.get((i, N - 1), 0) + (a[i] - b[i])
    flow[(m, N - 1)] = flow.get((m, N - 1), 0) + (a[m] - tail)
    return {k: (0 if -tol <= z < 0 else z) for k, z in flow.items()}


def _nested_costs(c):
    """The rational costs c as numerators over the least common denominator
    E of the entries the nested plan reads (the diagonal, the last source
    row and the last target column), 0 elsewhere, and E."""
    M, N = len(c), len(c[0])
    m = M - 1
    cells = [(i, i) for i in range(m)] + [(i, N - 1) for i in range(m)]
    cells += [(m, j) for j in range(N)]
    (scaled,), E = _common_denominator(([c[i][j] for i, j in cells],))
    rows = [[0] * N for _ in range(M)]
    for (i, j), x in zip(cells, scaled):
        rows[i][j] = x
    return rows, E


def _nested_plan(flow, c, tol, one):
    """The nested plan of the given flows, with `one` the unit cost in the
    units of the costs c."""
    M, N = len(c), len(c[0])
    m = M - 1
    objective = sum(z * c[i][j] for (i, j), z in flow.items())

    # Prop-2 dual solution, as a single potential over 0..n
    u = [one - c[i][N - 1] for i in range(M)]
    u += [one - c[m][N - 1] + c[m][j] for j in range(M, N)]
    lo = min(u)
    u = [x - lo for x in u]
    flows = tuple(sorted((i, j, z) for (i, j), z in flow.items() if z > tol or i == j))
    return TransportPlan(flows, objective, tuple(u), tuple(u[:M]))
