"""Worst-case distance tables d(m, n) and residual bounds R_n.

The table is built bottom-up: d(m, n) is the optimal transport cost between
rows m and n with costs given by previously computed entries d(i-1, j-1).
Residuals follow as R_n = sum_i pi^n_i d(i-1, n).  One rule fills a column:
`extend_table` takes the two-point (Halpern-structured) closed form when
both rows are two-point rows, else `pair_distance`: the nested plan, then
the northeast staircase of a separated pair, both only while the rows so
far are monotone, and else the transport kernel.  `build_distance_table`
and every optimizer's stage freeze call it, so a table built from an array
and one frozen row by row hold the same values.  A freeze that keeps no
plans reads values only: the two closed forms sum their plans' nonzero
flows on the table's own storage, and each new row is checked for
monotonicity once, against the row before it, with the result kept on the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .schemes import TriangularArray, check_monotone
from .transport import (MonotonePreconditionError, NotSeparatedError,
                        TransportPlan, greedy_monotone_transport,
                        solve_transport, staircase_transport)


@dataclass
class DistanceTable:
    """Symmetric table over indices -1..N plus the residual series R_0..R_N,
    and how far the rows of its extended columns are monotone."""

    horizon: int
    _d: List[List[object]]  # (N+2) x (N+2), index k stored at k+1
    residuals: List[object]
    # rows 0..k-1 are monotone (`schemes.check_monotone`), each row checked
    # once, against the row before it, as `extend_table` adds its column:
    # k is the number of columns added while every row so far is monotone,
    # else the first row that is not
    monotone_rows: int = 0

    def d(self, m: int, n: int):
        return self._d[m + 1][n + 1]

    def cost_rows(self) -> List[List[object]]:
        """The table's own storage, in place: c[i][j] = d(i-1, j-1) for
        i, j = 0..N + 1, so pair (m, n)'s transport costs are its leading
        (m+1) x (n+1) block.  Do not modify it."""
        return self._d

    def costs(self, m: int, n: int) -> List[List[object]]:
        """The transport costs c[i][j] = d(i-1, j-1) between rows m and n,
        0 <= i <= m, 0 <= j <= n: a copy of the (m+1) x (n+1) block of
        `cost_rows`."""
        return [r[:n + 1] for r in self._d[:m + 1]]

    def monotone(self, n: int) -> bool:
        """Whether rows 0..n are monotone, as `extend_table` found them when
        it added their columns; False before column n is added, so a table
        whose entries were written otherwise has no monotone rows."""
        return n < self.monotone_rows

    def set_d(self, m: int, n: int, value) -> None:
        self._d[m + 1][n + 1] = value
        self._d[n + 1][m + 1] = value

    def copy(self) -> DistanceTable:
        return DistanceTable(self.horizon, [r[:] for r in self._d],
                             list(self.residuals), self.monotone_rows)

    def csv_rows(self):
        for m in range(-1, self.horizon + 1):
            for n in range(m, self.horizon + 1):
                yield m, n, self.d(m, n)


def empty_table(N: int) -> DistanceTable:
    d = [[None] * (N + 2) for _ in range(N + 2)]
    t = DistanceTable(N, d, [])
    for k in range(-1, N + 1):
        t.set_d(k, k, 0)
    for k in range(0, N + 1):
        t.set_d(-1, k, 1)
    return t


def pair_distance(table: DistanceTable, rows, m: int, n: int,
                  exact: bool = False, allow_greedy: bool = True,
                  nested: bool = True, value: bool = False):
    """Transport plan realizing d(m, n) on the table's cost block, by the
    first rule that applies; with `value`, d(m, n) alone.

    `allow_greedy` is the caller's word that the block meets the quadrangle
    inequality, as it does while the rows are monotone (`check_monotone`).
    Then two closed forms are optimal and come first: the nested plan
    (`greedy_monotone_transport`, unless `nested` is False) where its
    margin conditions hold, then the northeast staircase of a separated
    pair (`staircase_transport`), which is the kernel's plan bit for bit,
    duals included.  Every other pair goes to the kernel, `solve_transport`.
    With `value` the closed forms build no plan: they sum their plans'
    nonzero flows on the table's storage (`DistanceTable.cost_rows`), read
    in place, and give the plan's objective bit for bit; only the kernel
    reads a copy of the cost block (`DistanceTable.costs`).
    """
    if allow_greedy:
        costs = table.cost_rows() if value else table.costs(m, n)
        if nested:
            try:
                return greedy_monotone_transport(rows[m], rows[n], costs, exact=exact,
                                                 value=value)
            except MonotonePreconditionError:
                pass
        try:
            return staircase_transport(rows[m], rows[n], costs, exact=exact,
                                       value=value)
        except NotSeparatedError:
            pass
    plan = solve_transport(rows[m], rows[n], table.costs(m, n), exact=exact)
    return plan.objective if value else plan


def _two_point_beta(row):
    """beta if the row is (1 - beta, 0, ..., 0, beta), else None."""
    last = len(row) - 1
    if last == 0:
        return 0 * row[0]  # exact zero in the row's arithmetic (float/Fraction)
    if any(row[1:last]):
        return None
    if abs(row[0] + row[last] - 1) > 1e-13:
        return None
    return row[last]


def extend_table(table: DistanceTable, rows, n: int, exact: bool = False,
                 plans: Optional[Dict] = None) -> None:
    """Fill d(m, n) for 0 <= m < n and R_n from rows 0..n: the table rule.

    A pair of two-point rows takes the closed form `two_point_distance`;
    any other pair takes `pair_distance`, whose nested plan and staircase
    are optimal under the quadrangle inequality, itself guaranteed while
    rows 0..n are monotone, so they are allowed only then; else the
    kernel.  Row n is checked against row n - 1 only (`check_monotone`),
    and only while rows 0..n-1 are monotone; the table keeps the result
    (`DistanceTable.monotone`).  Columns are added in order, n = 0, 1, ...;
    adding column n again drops the record of rows n.. and checks row n
    anew, so a later column sees monotone rows only once it is re-added.
    With `plans`, each pair's transport plan (and the identity plan of
    (n, n)) is kept for the witness's duals; the stored d(m, n) is still
    the rule's.  Without, only the values are read: the closed forms build
    no plan and copy no cost block.
    """
    table.monotone_rows = min(table.monotone_rows, n)
    if table.monotone_rows == n and (
            n == 0 or check_monotone(rows[:n + 1], exact, start=n)):
        table.monotone_rows = n + 1
    allow_greedy = table.monotone_rows > n
    nb = _two_point_beta(rows[n])
    for m in range(n):
        mb = _two_point_beta(rows[m]) if nb is not None else None
        if plans is not None:
            plans[(m, n)] = plan = pair_distance(table, rows, m, n, exact=exact,
                                                 allow_greedy=allow_greedy)
        if mb is not None:
            d = two_point_distance(mb, nb, table.d(m - 1, n - 1))
        elif plans is not None:
            d = plan.objective
        else:
            d = pair_distance(table, rows, m, n, exact=exact,
                              allow_greedy=allow_greedy, value=True)
        table.set_d(m, n, d)
    if plans is not None:
        plans[(n, n)] = TransportPlan(tuple((i, i, w) for i, w in enumerate(rows[n])),
                                      0, (0,) * (n + 1), (0,) * (n + 1))
    table.residuals.append(residual_from_table(table, rows[n], n))


def build_distance_table(pi: TriangularArray, exact: bool = False,
                         keep_plans: bool = False):
    """Full table d(m, n) for -1 <= m <= n <= N and residuals R_0..R_N, one
    `extend_table` per n.

    Returns (table, plans) where plans maps (m, n) -> TransportPlan for
    0 <= m <= n <= N when keep_plans is set (needed by the worst-case
    witness builder), else plans is None.
    """
    pi.validate(exact)
    table = empty_table(pi.horizon)
    plans: Optional[Dict] = {} if keep_plans else None
    for n in range(pi.horizon + 1):
        extend_table(table, pi.rows, n, exact, plans)
    return table, plans


def residual_from_table(table: DistanceTable, row, n: int):
    return sum(row[i] * table.d(i - 1, n) for i in range(n + 1))


def two_point_distance(b_m, b_n, d_prev):
    """d(m, n) between the two-point rows (1 - b_m, 0, ..., b_m) and
    (1 - b_n, 0, ..., b_n), given d_prev = d(m-1, n-1)."""
    return abs(b_m - b_n) + min(b_m, b_n) * d_prev


def halpern_adjacent_distances(betas):
    """d(n-1, n) series for two-point rows, via the O(N) recursion."""
    _check_betas(betas)
    N = len(betas) - 1
    adj = [1]  # d(-1, 0)
    for n in range(1, N + 1):
        adj.append(two_point_distance(betas[n - 1], betas[n], adj[n - 1]))
    return adj


def halpern_residuals(betas):
    """R_n = (1 - beta_n) + beta_n d(n-1, n) for Halpern-structured rows."""
    adj = halpern_adjacent_distances(betas)
    out = [1]
    for n in range(1, len(betas)):
        out.append((1 - betas[n]) + betas[n] * adj[n])
    return out


def _check_betas(betas):
    if not betas or betas[0] != 0:
        raise ValueError("beta_0 must be 0")
    if any(not (0 <= b <= 1) for b in betas):
        raise ValueError("all beta_n must lie in [0, 1]")


@dataclass(frozen=True)
class StructureReport:
    kind: str
    violations: tuple  # ((indices), magnitude) pairs

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_metric(table: DistanceTable) -> StructureReport:
    """Symmetry, identity, and triangle inequality (within 1e-9) on all
    triples of -1..N."""
    bad = []
    idx = range(-1, table.horizon + 1)
    for i in idx:
        if table.d(i, i) != 0:
            bad.append(((i, i), abs(table.d(i, i))))
        for j in idx:
            if table.d(i, j) != table.d(j, i):
                bad.append(((i, j), abs(table.d(i, j) - table.d(j, i))))
    for i in idx:
        for j in idx:
            dij = table.d(i, j)
            for k in idx:
                gap = dij - table.d(i, k) - table.d(k, j)
                if gap > 1e-9:
                    bad.append(((i, j, k), gap))
    return StructureReport("metric", tuple(bad))


def validate_quadrangle(table: DistanceTable) -> StructureReport:
    """d(i,l) + d(j,k) <= d(i,k) + d(j,l), within 1e-9, on all
    i < j < k < l of -1..N.

    Guaranteed only for monotone arrays; report-only otherwise.
    """
    bad = []
    idx = list(range(-1, table.horizon + 1))
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            for c in range(b + 1, len(idx)):
                for e in range(c + 1, len(idx)):
                    i, j, k, l = idx[a], idx[b], idx[c], idx[e]
                    gap = table.d(i, l) + table.d(j, k) - table.d(i, k) - table.d(j, l)
                    if gap > 1e-9:
                        bad.append(((i, j, k, l), gap))
    return StructureReport("quadrangle", tuple(bad))
