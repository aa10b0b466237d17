"""Exact solvers for the small transportation problems between coefficient rows.

A pair of rows takes the first rule that applies: the two-point closed
form (`distances.two_point_distance`), the nested plan, the northeast
staircase, the kernel; the two closed forms in the middle only on costs
that meet the quadrangle inequality, which the caller vouches for
(`distances.pair_distance`, while the rows are monotone).
The solvers take plain sequences: margins a (the source row, M weights)
and b (the target row, N weights), each nonnegative and summing to 1, and
costs c with c[i][j] the cost of moving mass from i to j, M rows of N
entries.  `solve_transport(a, b, c)` returns an optimal plan with dual
multipliers: it keeps the mass two rows share on the diagonal, solves the
remaining excess-to-deficit problem with a transportation simplex (Dantzig
pricing, Bland's rule against cycling, an array-based basis tree), and
certifies the result with a single dual potential, solving the full problem
instead when the certificate fails.  When every excess row lies below every
deficit column (a separated pair) the simplex starts from the northeast
staircase: excess rows in increasing order against deficit columns in
decreasing order.  Under the quadrangle inequality, which monotone distance
tables satisfy, that plan is optimal (Hoffman's Monge argument with the
deficit columns reversed), so such a pair solves with no pivot; otherwise
the simplex pivots from it as from any start.
`greedy_monotone_transport(a, b, c)` is the nested plan, a closed form
valid under the monotone-row preconditions, with the Prop-2 potential as
its duals; it takes the kernel's input checks, plan assembly (`_plan`) and
integer scaling.  `staircase_transport(a, b, c)` is the kernel's plan of a
separated pair without the kernel: the same corner fill (`_corner`), the
objective summed in the kernel's order, and the certificate's potential as
its duals; no pricing and no certificate run, so
it is the kernel's plan bit for bit only under the quadrangle inequality.
Each closed form lists its plan's nonzero flows once, in the order
`_plan` sums them, over the rows' supports.  With `value=True`, from a
caller that needs the value alone (a table freeze without kept plans),
it sums them (`_value`) and builds no plan, reading the costs in place
from the leading block of c, which may be a distance table's whole
storage; else `_plan` assembles them (`_closed_plan`).
A malformed problem raises `TransportInputError` before any solver runs.
`staircase_pieces(a, p, q, c)` is the northeast staircase's value as a
function of t for the targets (1 - t) p + t q, piecewise linear, for a
pair separated at the source's support; the scheme searches read it.

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
from itertools import chain, compress
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


class NotSeparatedError(TransportError):
    """The pair is not separated, so the staircase does not apply: an excess
    row lies at or above a deficit column (`staircase_transport`), or a
    target weight exceeds the source's on the source's support
    (`staircase_pieces`)."""


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


def _check_inputs(a, b, c, exact, block=False):
    """The margins a and b as lists, and their unit D, once the problem
    checks out: rational entries under `exact`, each margin nonempty,
    nonnegative and summing to 1 (exactly under `exact`, else within
    1e-12), and an M x N cost block: c itself, or with `block` the leading
    M x N block of c, which may have more and longer rows, such as a
    distance table's storage.  Exact margins come back as numerators
    over their least common denominator D, the integers the solve uses;
    float margins with D = 1, each weight in [-1e-12, 0) (rounding) clipped
    to 0.0 once the checks pass; -0.0 stays.  A NaN weight fails the sum
    check.
    """
    M, N = len(a), len(b)
    if exact:
        rows = (r[:N] for r in c[:M]) if block else c
        _require_rational(chain.from_iterable(rows), "costs")
        _require_rational(chain(a, b), "weights")
        (a, b), D = common_denominator((a, b))
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
    if block:
        mismatch = len(c) < M or min(map(len, c[:M])) < N
    else:
        mismatch = len(c) != M or any(len(r) != N for r in c)
    if mismatch:
        raise TransportInputError(
            f"cost rows of lengths {[len(r) for r in c]} do not match margins ({M}, {N})")
    return a, b, D


def _support(w):
    """The indices of the nonzero weights of w, in increasing order."""
    return list(compress(range(len(w)), w))


def _arc(q, parent, M):
    """Cell (i, j) of the tree arc joining node q to its parent."""
    return (q, parent[q] - M) if q < M else (parent[q], q - M)


def _corner(a, b):
    """The northwest-corner fill of margins a and b in the order they come.

    Each step puts t = min(rest of a_i, rest of b_j) on cell (i, j),
    subtracts it from both, and moves to the next source once source i is
    used up or target j is the last, else to the next target.  On a basis tree
    over nodes 0..M-1 (sources) and M..M+N-1 (targets), rooted at source 0,
    each step hangs one new node on an earlier one.  Returns the M+N-1 steps
    in fill order as (node, parent, i, j, t).
    """
    M, N = len(a), len(b)
    ar, br = list(a), list(b)
    steps = []
    i = j = 0
    node, par = M, 0
    while True:
        t = ar[i] if ar[i] <= br[j] else br[j]
        ar[i] -= t
        br[j] -= t
        steps.append((node, par, i, j, t))
        if i == M - 1 and j == N - 1:
            return steps
        if i < M - 1 and (ar[i] == 0 or j == N - 1):
            i += 1
            node, par = i, M + j
        else:
            j += 1
            node, par = M + j, i


def _potentials(steps, c, M):
    """Node potentials of the corner's tree (`_corner`'s steps, M sources):
    u_j - v_i = c_ij on each step's cell (i, j) and v_0 = 0, as one list,
    the sources' v first, then the targets' u."""
    pot = [0] * (len(steps) + 1)
    for node, par, i, j, _ in steps:
        pot[node] = pot[par] + c[i][j] if node >= M else pot[par] - c[i][j]
    return pot


def _simplex(a, b, c, tol):
    """Transportation simplex from the northwest corner of the given order.

    The start (`_corner`) fills sources 0, 1, ... against targets 0, 1, ...
    in the order the margins come; a caller picks the start by ordering
    them.  Returns ({(i, j): flow} on the M+N-1 basic cells, u, v) with
    u_j - v_i = c_ij on the basis and v_0 = 0.  The basis is a spanning tree on nodes 0..M-1
    (sources) and M..M+N-1 (targets), rooted at source 0 and kept as
    parent/depth/children arrays: a pivot finds the entering cycle by walking
    up to the common ancestor and shifts the duals of the subtree the
    leaving cell cuts off only.  Pricing takes the largest reduced cost
    (Dantzig); after _DEGENERATE_RUN pivots in a row that move no mass it
    takes the first eligible cell (Bland) until mass moves again, so the
    method cannot cycle.
    """
    M, N = len(a), len(b)
    if not M or not N:
        return {}, [], []
    F = [[0] * N for _ in range(M)]
    parent, depth = [-1] * (M + N), [0] * (M + N)
    children = [[] for _ in range(M + N)]
    steps = _corner(a, b)
    pot = _potentials(steps, c, M)
    for node, par, i, j, t in steps:
        F[i][j] = t
        parent[node], depth[node] = par, depth[par] + 1
        children[par].append(node)

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


def _plan(flow, c, tol, dual_u=(), dual_v=()):
    """Plan of the given flows {(i, j): z}, their cost summed in the flows'
    order, and the duals when they are known; the kernel fills its duals in
    later.  The plan lists the flows above tol and every diagonal one."""
    objective = sum(z * c[i][j] for (i, j), z in flow.items())
    flows = tuple(sorted((i, j, z) for (i, j), z in flow.items() if z > tol or i == j))
    return TransportPlan(flows, objective, dual_u, dual_v)


def _value(flows, c, exact, D):
    """A closed form's objective without its plan: its nonzero flows
    [(i, j, z)], listed in the order `_plan` sums them (`_closed_plan`),
    times their costs.  A zero flow adds a zero term, and a zero leaves the
    sum as it is: the sum starts at 0, so it is never -0.0, the one value
    that adding +0.0 changes.  So the value is the plan's objective bit for
    bit.  Exact flows are numerators over D, and the sum is divided by D
    once."""
    total = sum([z * c[i][j] for i, j, z in flows])
    return Fraction(total) / D if exact else total


def _closed_plan(flows, M, c, tol, duals, exact, D, E):
    """The plan of a closed form's nonzero flows [(i, j, z)], its
    diagonal ones first in increasing order, with the potential `duals`
    over all indices as its duals; exact flows over D and costs over E are
    mapped back (`_rational`).  `_plan` lists every diagonal flow, so the
    zero ones enter at 0.0 (0 when exact) in the diagonal's order, where
    they add nothing to the sum: the objective sums the nonzero flows in
    their listed order, as `_value` does."""
    flow = dict.fromkeys([(k, k) for k in range(M)], 0 if exact else 0.0)
    flow.update(((i, j), z) for i, j, z in flows)
    plan = _plan(flow, c, tol, duals, duals[:M])
    return _rational(plan, D, E) if exact else plan


def _potential(c, sources, v, N):
    """p_j = min_i (v_i + c_ij) over the given sources, j = 0..N-1, shifted
    to minimum 0 (all 0 without sources)."""
    cols = [[vi + x for x in c[i]] for i, vi in zip(sources, v)]
    p = list(map(min, zip(*cols))) if cols else [0] * N
    lo = min(p)
    return [x - lo for x in p]


def _certify(a, b, c, plan, sources, v, tol):
    """The plan with one potential p over all indices as its duals, or None.

    p_j = min_i (v_i + c_ij) over the given sources, shifted to minimum 0
    (`_potential`).  The plan is returned only if p_j - p_i <= c_ij on every cell and the
    dual objective of p equals the plan's cost, exactly for Fractions and
    within DUAL_TOL for floats: then both are optimal.  For metric costs
    both checks hold and p is 1-Lipschitz.
    """
    M, N = len(a), len(b)
    if M > N:
        return None
    p = _potential(c, sources, v, N)
    slack = DUAL_TOL if tol else 0
    for i in range(M):
        if max(map(sub, p, c[i])) > p[i] + slack:
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
    from I = {k: a_k > b_k} to J = {k: b_k > a_k}, starting from the
    northeast staircase when I lies below J.  This is optimal when the
    costs are a metric, which is not assumed but certified (`_certify`).
    If the certificate fails (costs that are not a metric), or the source
    row is the longer one, the full problem is solved instead; its duals are
    returned as one potential when that certifies, else as the simplex left
    them, shifted to minimum 0.  Exact problems are solved on their integer
    scaling: margins over their least common denominator, costs over theirs.
    """
    a, b, D = _check_inputs(a, b, c, exact)
    if exact:
        c, E = common_denominator(c)
        return _rational(_solve(a, b, c, 0), D, E)
    return _solve(a, b, c, FEAS_TOL)


def _reduction(a, b):
    """The excess-to-deficit problem of margins a and b, M <= N: the rows
    I = {k: a_k > b_k} and columns J = {k: b_k > a_k} (a_k = 0 for k >= M),
    their excess a_i - b_i and deficit b_j - a_j, and whether the pair is
    separated, every row of I below every column of J.  J comes in
    increasing order, or decreasing for a separated pair, so that the corner
    fill of a separated pair is its northeast staircase.  The margins are
    nonnegative, so I lies in a's support and J in b's: only those are
    scanned."""
    M = len(a)
    I = [i for i in _support(a) if a[i] - b[i] > 0]
    J = [j for j in _support(b) if (a[j] if j < M else 0) - b[j] < 0]
    separated = bool(I and J and I[-1] < J[0])
    if separated:
        J.reverse()
    return (I, J, [a[i] - b[i] for i in I],
            [-((a[j] if j < M else 0) - b[j]) for j in J], separated)


def _solve(a, b, c, tol):
    """`solve_transport` on margin lists a, b and costs c of one arithmetic."""
    M, N = len(a), len(b)
    if M <= N:
        I, J, ea, eb, _ = _reduction(a, b)
        reduced, _, v = _simplex(ea, eb, [[c[i][j] for j in J] for i in I], tol)
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


def staircase_transport(a: Sequence, b: Sequence, c: Sequence[Sequence],
                        exact: bool = False, value: bool = False):
    """The northeast staircase of a separated pair: `solve_transport`'s
    plan for it, bit for bit, on costs that meet the quadrangle inequality.

    The pair (M <= N weights) is separated when every excess row
    (a_k > b_k) lies below every deficit column (b_k > a_k), else
    NotSeparatedError.  The shared mass min(a_k, b_k) stays on the diagonal,
    and the excess rows, upward, fill the deficit columns, downward, by the
    kernel's corner fill (`_corner`): the start `solve_transport` takes for
    such a pair, optimal under the quadrangle inequality (Hoffman's Monge
    argument with the deficit columns reversed), so the kernel makes no
    pivot from it.  The objective is summed in the kernel's order.  The
    duals are `_certify`'s potential p_j = min_i (v_i + c_ij) over the
    excess rows, shifted to minimum 0, from the staircase's tree potentials
    v, an O(|I| N) pass.  No certificate is run: the caller vouches for the
    quadrangle inequality, which monotone rows give a distance table
    (`schemes.check_monotone`).  Inputs are checked, and exact problems
    scaled to integers and mapped back, as in `solve_transport`.

    With `value`, only the objective is returned and no plan is built: the
    plan's nonzero flows summed in the same order (`_value`), on the
    leading M x N block of c, read in place (a distance table passes its
    storage).  The excess rows and deficit columns are found on the rows'
    supports (`_reduction`).  Only the margins are scaled to integers, so
    an exact objective is the same `Fraction`.
    """
    a, b, D = _check_inputs(a, b, c, exact, block=value)
    I, steps = _steps(a, b)
    # the shared mass, then the steps in the kernel's basis order: it lists
    # its basis by node, sources 1, 2, ... then targets 0, 1, ..., and
    # `_plan` sums the objective in that order; a step that moves nothing
    # adds nothing to the sum
    flows = [(k, k, min(a[k], b[k])) for k in _support(a) if b[k]]
    flows += [(i, j, t) for _, _, i, j, t in sorted(steps) if t]
    if value:
        return _value(flows, c, exact, D)
    c, E = common_denominator(c) if exact else (c, 1)
    v = _potentials(steps, c, len(I))[:len(I)]
    p = tuple(_potential(c, I, v, len(b)))
    return _closed_plan(flows, len(a), c, 0 if exact else FEAS_TOL, p, exact, D, E)


def _steps(a, b):
    """The northeast staircase of the margin lists a, b as the corner's
    steps (`_corner`) on the pair's own indices; their nodes stay those of
    the reduced problem, I's |I| sources and then J's targets."""
    if len(a) > len(b):
        raise NotSeparatedError("source row longer than the target row")
    I, J, ea, eb, separated = _reduction(a, b)
    if not separated:
        raise NotSeparatedError("an excess row does not lie below every deficit column")
    return I, [(node, par, I[i], J[j], t) for node, par, i, j, t in _corner(ea, eb)]


def common_denominator(rows):
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


def staircase_pieces(a: Sequence, p: Sequence, q: Sequence,
                     c: Sequence[Sequence]) -> list:
    """The value of the northeast staircase from the source row a (M
    weights) to each target row b(t) = (1 - t) p + t q (N > M weights) under
    costs c, for t in [0, 1], as pieces [(t_lo, alpha, beta)]: from t_lo to
    the next piece's t_lo (the last piece to 1) the value is alpha + beta t.

    The pair must be separated at the source's support: b_k <= a_k for
    k < M at t = 0 and t = 1, hence for every t, else NotSeparatedError;
    within 1e-12 if a weight is a float, exactly otherwise.  Then b_k stays
    on the diagonal for k < M, at no cost, as on a distance table's block
    (c[k][k] = d(k-1, k-1) = 0), and the excess of rows 0..M-1 fills the
    deficit of columns M..N-1, rows upward against columns downward: the
    staircase that `solve_transport` starts a separated pair from, optimal
    under the quadrangle inequality.  The cumulative excess of rows 0..i and the
    cumulative deficit of columns N-1 down to j are affine in t, and row i
    sends column j the overlap of their intervals, so the value is affine
    in t until a cumulative excess meets a cumulative deficit: the
    breakpoints.  Each piece is summed afresh, in the staircase's order at
    its midpoint, so no rounding carries from one piece to the next.
    Float or `Fraction` arithmetic follows the rows.
    """
    M, N = len(a), len(p)
    tol = 1e-12 if any(isinstance(x, float) for x in chain(a, p, q)) else 0
    if any(a[k] - p[k] < -tol or a[k] - q[k] < -tol for k in range(M)):
        raise NotSeparatedError("a target weight exceeds the source's on its support")
    zero = 0 * a[0]
    # (constant, slope) of each cumulative excess, rows 0..i, and of each
    # cumulative deficit, columns N-1 down to j, with its j
    E, F = [], []
    x = y = zero
    for k in range(M):
        x += a[k] - p[k]
        y += p[k] - q[k]
        E.append((x, y))
    x = y = zero
    for j in range(N - 1, M - 1, -1):
        x += p[j]
        y += q[j] - p[j]
        F.append((x, y, j))
    # the totals E[-1] and F[-1] are equal for every t: no breakpoint
    cuts = {(fx - ex) / (ey - fy) for ex, ey in E[:-1] for fx, fy, _ in F[:-1]
            if ey != fy}
    edges = [zero] + sorted(s for s in cuts if 0 < s < 1) + [zero + 1]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        mid = (lo + hi) / 2
        alpha = beta = zero
        i = k = 0
        ox = oy = zero  # the last cut of the merged intervals
        while i < M and k < len(F):
            ex, ey = E[i]
            fx, fy, j = F[k]
            w = c[i][j]
            if ex + ey * mid <= fx + fy * mid:
                x, y = ex, ey
                i += 1
            else:
                x, y = fx, fy
                k += 1
            alpha += w * (x - ox)
            beta += w * (y - oy)
            ox, oy = x, y
        pieces.append((lo, alpha, beta))
    return pieces


def greedy_monotone_transport(a: Sequence, b: Sequence, c: Sequence[Sequence],
                              exact: bool = False, value: bool = False):
    """Closed-form nested plan for monotone rows (source row a = pi^m, target
    row b = pi^n, M < N weights, costs c[i][j]), with the Prop-2 potential
    as its duals.

    Requires M < N, b_i <= a_i for i <= m and the tail condition
    a_m >= sum_{j=m}^{n-1} b_j; the cost table must additionally satisfy the
    quadrangle inequality (caller-checked).  Raises
    MonotonePreconditionError when a margin condition fails.  The plan keeps
    b_i on the diagonal, sends b_j to j from the last source m for m < j < n,
    and every remaining excess to n; a flow in [-1e-10, 0) (rounding) is
    clipped to 0.  It is assembled by `_plan` (`_closed_plan`), as the
    kernel's, and exact problems are scaled to integers and mapped back as
    in `solve_transport`.

    The nonzero flows are listed once, in the order the objective sums
    them (the diagonal, row m, column n), by loops over the rows' nonzero
    weights: b's for the diagonal and row m, a's for column n, as a zero
    weight of a leaves column n a flow the clip zeroes.  With `value`,
    only the objective is returned and no plan is built: those flows
    summed in that order (`_value`), on the
    leading M x N block of c, read in place (a distance table passes its
    storage).  Only the margins are scaled to integers, so an exact
    objective is the same `Fraction`.
    """
    a, b, D = _check_inputs(a, b, c, exact, block=value)
    M, N = len(a), len(b)
    if M >= N:
        raise MonotonePreconditionError("source support not shorter than target support")
    m, n = M - 1, N - 1
    tol = 0 if exact else FEAS_TOL
    # a weight of b above a's needs b's weight nonzero
    support = _support(b)
    for i in support:
        if i >= M:
            break
        if b[i] > a[i] + tol:
            raise MonotonePreconditionError(f"target[{i}] > source[{i}]")
    tail = sum(b[m:n])
    if a[m] < tail - tol:
        raise MonotonePreconditionError("tail condition fails")

    # the diagonal and row m over b's support, then column n's flows,
    # clipped, and only the nonzero ones: they lie in a's support, as a
    # zero a_i leaves b_i <= tol
    flows = [(j, j, b[j]) if j <= m else (m, j, b[j]) for j in support if j < n]
    col = [(i, a[i] - b[i]) for i in _support(a) if i < m]
    col.append((m, a[m] - tail))
    flows += [(i, n, z) for i, z in col if not -tol <= z <= 0]
    if value:
        return _value(flows, c, exact, D)
    c, E = common_denominator(c) if exact else (c, 1)
    # Prop-2 dual solution, as a single potential over 0..n
    u = [E - c[i][n] for i in range(M)]
    u += [E - c[m][n] + c[m][j] for j in range(M, N)]
    lo = min(u)
    return _closed_plan(flows, M, c, tol, tuple(x - lo for x in u), exact, D, E)
