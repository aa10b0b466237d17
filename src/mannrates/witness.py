"""Worst-case witness: a finite sup-norm embedding attaining every bound.

Coordinates are indexed by pairs (m, n) with -1 <= m <= n <= N.  The points
y^k carry, at coordinate (-1, n), the distance d(k-1, n) and, at coordinate
(m, n), the k-th dual potential value of the transport between rows m and n
(extended beyond index n by inf-convolution with the distance table).  The
iterates x^k = sum_i pi^k_i y^i then satisfy ||x^m - x^n|| = d(m, n) and
||x^n - y^{n+1}|| = R_n exactly, certifying tightness of the bounds.

The points are built as numpy arrays, so both arithmetics share one code
path: the distance table D, the point matrix Y (one row per y^k), the
potentials extended by a column-wise minimum, and X = Pi @ Y.  The rows
decide the arithmetic: float rows use dtype float, rational rows (every
weight an int or a `Fraction`) dtype object holding Python integers: each
entry v becomes v.numerator * (den // v.denominator) over the least
common denominator `den` of the table, potentials and residuals, and each
row of Pi the same over the rows' own denominator, so no `Fraction` is
built or multiplied and no operation pays a gcd.  Pairwise sup norms are
taken one row m at a time, never as an all-pairs tensor.  The check reads
only these integer arrays; the witness exposes its points as tuples of
Python floats or `Fraction`s, built on first read and then kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .distances import DistanceTable, build_distance_table
from .schemes import TriangularArray
from .transport import common_denominator

CERT_TOL = 1e-8


class CertificationError(Exception):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class WitnessReport:
    max_distance_error: float
    max_residual_error: float
    max_expansion: float

    @property
    def ok(self) -> bool:
        return (self.max_distance_error <= CERT_TOL
                and self.max_residual_error <= CERT_TOL
                and self.max_expansion <= CERT_TOL)


@dataclass(frozen=True)
class WorstCaseWitness:
    """The checked embedding.  `ys` (y^0 .. y^{N+1}) and `xs` (x^0 .. x^N),
    vectors over `index_set`, are built from the arrays the check held
    (`Y` in units of `y_unit`, `X` in units of `x_unit`) on first read."""

    horizon: int
    index_set: tuple      # pairs (m, n), -1 <= m <= n <= N
    table: DistanceTable
    report: WitnessReport
    Y: np.ndarray = field(repr=False, compare=False)
    X: np.ndarray = field(repr=False, compare=False)
    y_unit: object = field(repr=False, compare=False)
    x_unit: object = field(repr=False, compare=False)

    @cached_property
    def ys(self) -> tuple:
        return _points(self.Y, self.y_unit)

    @cached_property
    def xs(self) -> tuple:
        return _points(self.X, self.x_unit)


def _points(A: np.ndarray, unit) -> tuple:
    """The rows of A in units of `unit`: floats as they are, integer
    numerators over den (unit 1/den) as one `Fraction` per coordinate."""
    if isinstance(unit, Fraction):
        den = unit.denominator
        return tuple(tuple(Fraction(v, den) for v in row) for row in A.tolist())
    return tuple(map(tuple, A.tolist()))


def _rationals(rows):
    """The rows with each float entry read as its exact binary value."""
    return [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r]
            for r in rows]


def build_worst_case_witness(pi: TriangularArray, table: DistanceTable = None,
                             plans: Dict = None) -> WorstCaseWitness:
    """Construct and verify the witness for the rows of the array.

    The rows' arithmetic decides the witness's: rows whose every weight is
    an int or a `Fraction` are rational, and their table (built here in
    exact mode unless given) and points are held exactly; any float weight
    makes a float witness.  Raises CertificationError (carrying the
    offending pair) if any of the three invariants fails beyond `CERT_TOL`.
    """
    N = pi.horizon
    exact = all(isinstance(v, (int, Fraction)) for r in pi.rows for v in r)
    if table is None or plans is None:
        table, plans = build_distance_table(pi, exact=exact, keep_plans=True)

    pairs: List[Tuple[int, int]] = [(m, n) for m in range(-1, N + 1)
                                    for n in range(m, N + 1)]
    D = table.costs(N + 1, N + 1)   # D[i, j] = d(i-1, j-1)
    P = [tuple(r) + (0,) * (N - k) for k, r in enumerate(pi.rows)]
    U = [plans[p].dual_u for p in pairs if p[0] >= 0]
    rows = D + U + [table.residuals[: N + 1]]
    if exact:
        # the points' entries become integers over `den`, the rows of Pi
        # integers over their own `den_p`; X = Pi @ Y then carries
        # den * den_p per unit
        rows, den = common_denominator(_rationals(rows))
        P, den_p = common_denominator(P)
        y_unit, x_unit, dtype = Fraction(1, den), Fraction(1, den * den_p), object
    else:
        den_p, y_unit, x_unit, dtype = 1, 1.0, 1.0, float
    D, R, Pi = (np.array(A, dtype=dtype) for A in (rows[: N + 2], rows[-1], P))
    duals = (np.array(u, dtype=dtype) for u in rows[N + 2: -1])
    Y = np.empty((N + 2, len(pairs)), dtype=dtype)
    for c, (m, n) in enumerate(pairs):
        if m == -1:
            Y[:, c] = D[:, n + 1]
        else:
            # the potential over 0..n, extended past n by inf-convolution:
            # u_i = min_k (u_k + d(k-1, i-1))
            u = next(duals)
            Y[: n + 1, c] = u
            Y[n + 1:, c] = (u[:, None] + D[: n + 1, n + 1:]).min(axis=0)
    # every check below is made at the scale of X
    X = Pi @ Y[: N + 1]
    Yx, Dx, Rx = Y * den_p, D * den_p, R * den_p

    # pairwise sup norms one row m at a time: an all-pairs difference tensor
    # would hold (N+1)^2 points at once; the first worst pair in row-major
    # order is reported
    max_dist, worst_pair = 0, None
    max_exp, worst_exp = 0, None
    for m in range(N + 1):
        dx = abs(X[m:] - X[m]).max(axis=1)
        err = abs(dx - Dx[m + 1, m + 1:])
        k = int(err.argmax())
        if err[k] > max_dist:
            max_dist, worst_pair = err[k], (m, m + k)
        gap = abs(Yx[m + 1:] - Yx[m + 1]).max(axis=1) - dx
        k = int(gap.argmax())
        if gap[k] > max_exp:
            max_exp, worst_exp = gap[k], (m, m + k)
    res = abs(abs(X - Yx[1:]).max(axis=1) - Rx)
    n = int(res.argmax())
    max_res, worst_res = (res[n], (n, n + 1)) if res[n] > 0 else (0, None)
    max_dist, max_res, max_exp = max_dist * x_unit, max_res * x_unit, max_exp * x_unit

    # the report holds floats: a Fraction has no e-format before Python 3.12
    report = WitnessReport(float(max_dist), float(max_res), float(max_exp))
    if max_dist > CERT_TOL:
        raise CertificationError(f"distance equality off by "
                                 f"{report.max_distance_error:.3e} at pair {worst_pair}",
                                 worst_pair)
    if max_res > CERT_TOL:
        raise CertificationError(f"residual equality off by "
                                 f"{report.max_residual_error:.3e} at {worst_res}",
                                 worst_res)
    if max_exp > CERT_TOL:
        raise CertificationError(f"map expands by {report.max_expansion:.3e} "
                                 f"at pair {worst_exp}", worst_exp)
    return WorstCaseWitness(N, tuple(pairs), table, report, Y, X, y_unit, x_unit)


def witness_json(w: WorstCaseWitness) -> dict:
    """Structured document with all coordinates, 17 significant digits."""
    fmt = lambda x: float(f"{float(x):.17g}")
    return {
        "horizon": w.horizon,
        "index_set": [list(p) for p in w.index_set],
        "y": [[fmt(v) for v in y] for y in w.ys],
        "x": [[fmt(v) for v in x] for x in w.xs],
        "report": {
            "max_distance_error": w.report.max_distance_error,
            "max_residual_error": w.report.max_residual_error,
            "max_expansion": w.report.max_expansion,
        },
    }
