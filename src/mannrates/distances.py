"""Worst-case distance tables d(m, n) and residual bounds R_n.

The table is built bottom-up: d(m, n) is the optimal transport cost between
rows m and n with costs given by previously computed entries d(i-1, j-1).
Residuals follow as R_n = sum_i pi^n_i d(i-1, n).  A closed-form recursion
is provided for the two-point (Halpern-structured) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .schemes import TriangularArray, check_monotone
from .transport import (MonotonePreconditionError, TransportPlan,
                        greedy_monotone_transport, solve_transport)


@dataclass
class DistanceTable:
    """Symmetric table over indices -1..N plus the residual series R_0..R_N."""

    horizon: int
    _d: List[List[object]]  # (N+2) x (N+2), index k stored at k+1
    residuals: List[object]

    def d(self, m: int, n: int):
        return self._d[m + 1][n + 1]

    def costs(self, m: int, n: int) -> List[List[object]]:
        """The transport costs c[i][j] = d(i-1, j-1) between rows m and n,
        0 <= i <= m, 0 <= j <= n: the (m+1) x (n+1) block of the table's
        own storage."""
        return [r[:n + 1] for r in self._d[:m + 1]]

    def set_d(self, m: int, n: int, value) -> None:
        self._d[m + 1][n + 1] = value
        self._d[n + 1][m + 1] = value

    def copy(self) -> DistanceTable:
        return DistanceTable(self.horizon, [r[:] for r in self._d],
                             list(self.residuals))

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
                  exact: bool = False, allow_greedy: bool = True) -> TransportPlan:
    """Transport plan realizing d(m, n); greedy fast path when valid."""
    costs = table.costs(m, n)
    if allow_greedy:
        try:
            return greedy_monotone_transport(rows[m], rows[n], costs, exact=exact)
        except MonotonePreconditionError:
            pass
    return solve_transport(rows[m], rows[n], costs, exact=exact)


def build_distance_table(pi: TriangularArray, exact: bool = False,
                         keep_plans: bool = False):
    """Full table d(m, n) for -1 <= m <= n <= N and residuals R_0..R_N.

    Returns (table, plans) where plans maps (m, n) -> TransportPlan for
    0 <= m <= n <= N when keep_plans is set (needed by the worst-case
    witness builder), else plans is None.
    """
    pi.validate(exact)
    N = pi.horizon
    table = empty_table(N)
    plans: Optional[Dict] = {} if keep_plans else None
    # greedy is justified by the quadrangle inequality, itself guaranteed
    # under row monotonicity; otherwise every pair goes to solve_transport
    allow_greedy = check_monotone(pi.rows, exact=exact)
    for n in range(N + 1):
        for m in range(n):
            plan = pair_distance(table, pi.rows, m, n, exact=exact,
                                 allow_greedy=allow_greedy)
            table.set_d(m, n, plan.objective)
            if plans is not None:
                plans[(m, n)] = plan
        if plans is not None:
            plans[(n, n)] = TransportPlan(
                tuple((i, i, w) for i, w in enumerate(pi.rows[n])),
                0, (0,) * (n + 1), (0,) * (n + 1))
        table.residuals.append(residual_from_table(table, pi.rows[n], n))
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


def halpern_distance_recursion(betas) -> DistanceTable:
    """Full table for Halpern rows by the two-point recursion in gap order.

    O(N^2), no transport solves; identical to build_distance_table on the
    two-point array.
    """
    _check_betas(betas)
    N = len(betas) - 1
    table = empty_table(N)
    for gap in range(1, N + 1):
        for m in range(0, N + 1 - gap):
            n = m + gap
            table.set_d(m, n, two_point_distance(betas[m], betas[n],
                                                 table.d(m - 1, n - 1)))
    table.residuals.extend(halpern_residuals(betas))
    return table


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


def validate_metric(table: DistanceTable, tol: float = 1e-9) -> StructureReport:
    """Symmetry, identity, and triangle inequality on all triples of -1..N."""
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
                if gap > tol:
                    bad.append(((i, j, k), gap))
    return StructureReport("metric", tuple(bad))


def validate_quadrangle(table: DistanceTable, tol: float = 1e-9) -> StructureReport:
    """d(i,l) + d(j,k) <= d(i,k) + d(j,l) on all i < j < k < l of -1..N.

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
                    if gap > tol:
                        bad.append(((i, j, k, l), gap))
    return StructureReport("quadrangle", tuple(bad))
