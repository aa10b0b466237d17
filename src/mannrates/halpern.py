"""Analytic results for the two-point (Halpern-structured) iteration.

Optimal stepsize recursion, the sufficient O(1/n) condition, the harmonic
closed form for beta_n = n/(n+2), and the tight affine-map bound Theta_n
with its explicit minimizer beta*_k = k/(k+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple


def optimal_recursion(N: int, exact: bool = False) -> Tuple[list, list]:
    """Optimal stepsizes and bounds: beta_{n+1} = (1 + beta_n^2)/2 from 0,
    R_{n+1} = R_n - R_n^2/4 from 1.

    The betas are strictly increasing, the bounds strictly decreasing with
    R_n <= 4/(n+4).
    """
    if N < 0:
        raise ValueError("horizon must be nonnegative")
    one = Fraction(1) if exact else 1.0
    b, r = 0 * one, one
    betas, resid = [b], [r]
    ab, ar = betas.append, resid.append
    for _ in range(N):
        b = (1 + b * b) / 2
        r = r - r * r / 4
        ab(b)
        ar(r)
    return betas, resid


@dataclass(frozen=True)
class SufficientReport:
    holds: bool
    first_failure: Optional[int]
    margin: float  # min over n of rhs - lhs (can be negative)


def check_sufficient(betas: Sequence, a, kappa) -> SufficientReport:
    """Check (1 - beta_n)^2 + kappa/(n+a) * beta_n <= kappa/(n+a+1) for each
    n >= 1.

    With 1 <= a+1 <= kappa and kappa >= 4 a full pass certifies the bound
    R_n <= kappa/(n+a+1).  Works over Fractions for exact margins.
    """
    if not (1 <= a + 1 <= kappa):
        raise ValueError("need 1 <= a+1 <= kappa")
    first = None
    margin = None
    for n in range(1, len(betas)):
        b = betas[n]
        lhs = (1 - b) ** 2 + kappa * b / (n + a)
        rhs = kappa / (n + a + 1)
        gap = rhs - lhs
        if margin is None or gap < margin:
            margin = gap
        if gap < 0 and first is None:
            first = n
    return SufficientReport(first is None, first, float(margin) if margin is not None else math.inf)


def stepsize_window(n: int) -> float:
    """Half-width of the window around (n+1)/(n+3) equivalent to the kappa=4,
    a=3 sufficient condition."""
    return 2 / ((n + 3) * math.sqrt(n + 4))


def in_stepsize_window(betas: Sequence) -> SufficientReport:
    """Check |beta_n - (n+1)/(n+3)| <= 2/((n+3) sqrt(n+4)) for each n >= 1."""
    first = None
    margin = None
    for n in range(1, len(betas)):
        gap = stepsize_window(n) - abs(betas[n] - (n + 1) / (n + 3))
        if margin is None or gap < margin:
            margin = gap
        if gap < 0 and first is None:
            first = n
    return SufficientReport(first is None, first, float(margin) if margin is not None else math.inf)


def harmonic_bound(n: int):
    """Tight residual bound for beta_n = n/(n+2): 4/(n+1) (1 - H_{n+2}/(n+2))."""
    H = sum(Fraction(1, k) for k in range(1, n + 3))
    return 4 * Fraction(1, n + 1) * (1 - H / (n + 2))


def _prod(betas, lo: int, hi: int):
    out = 1
    for l in range(lo, hi + 1):
        out = out * betas[l]
    return out


def affine_theta(betas: Sequence):
    """Tight residual bound Theta_n for the two-point iteration on affine maps.

    Theta_n(beta) = 1 - beta_n + prod_1^n beta
                    + sum_k |(2 - beta_{k-1}) beta_k - 1| prod_{k+1}^n beta.

    Theta_n is in units of ||x^0 - x*||: the rotation and shift examples in
    `operators` start at distance 1 from their fixed point 0.  The tight
    bounds R_n of `distances` are in another unit, the table's d(-1, n) = 1.
    """
    if not betas or betas[0] != 0:
        raise ValueError("beta_0 must be 0")
    n = len(betas) - 1
    total = 1 - betas[n] + _prod(betas, 1, n)
    tail = 1
    for k in range(n, 0, -1):
        total += abs((2 - betas[k - 1]) * betas[k] - 1) * tail
        tail = tail * betas[k]
    return total


def affine_optimal(N: int, exact: bool = False):
    """Minimizer beta*_k = k/(k+1) of Theta_N, with value 2/(N+1).

    The value is in units of ||x^0 - x*||, the bound 2 ||x^0 - x*|| / (N+1)
    that `operators.kim_vs_halpern` checks; R_N is in units of the table's
    d(-1, N) = 1.
    """
    if exact:
        betas = [Fraction(k, k + 1) for k in range(N + 1)]
        value = affine_theta(betas)
        if value != Fraction(2, N + 1):
            raise ArithmeticError(f"Theta_{N}(k/(k+1)) = {value}, expected 2/{N + 1}")
    else:
        betas = [k / (k + 1) for k in range(N + 1)]
        value = affine_theta(betas)
    return betas, value
