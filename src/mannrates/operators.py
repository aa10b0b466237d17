"""Concrete nonexpansive maps whose iterations attain (or bound) the rates.

Right shift on the bounded-sequence space gives the universal 1/(n+1)
floor; the shift on the summable-sequence space turns averaged iterations
into Bernoulli-sum distributions and yields the 1/sqrt(n+1) floor for
them; affine shifts and plane rotations attain the two-point bounds; and
an accelerated proximal-point scheme is matched against the classical
two-point iteration it coincides with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .schemes import TriangularArray


# ---------------------------------------------------------------------------
# right shift on bounded sequences, started from the all-ones point

def shift_iterates(pi: TriangularArray) -> List[np.ndarray]:
    """Iterates of T(x)_0 = 0, T(x)_i = x_{i-1}, from x^0 = y^0 = (1, 1, ...).

    x^n_i = 1 for every i >= n, so iterate n is stored as its first n
    coordinates; the implicit tail is exactly 1.
    """
    xs = [np.zeros(0)]
    for n in range(1, pi.horizon + 1):
        row = pi.rows[n]
        x = np.zeros(n)
        # term i of the average is T applied to x^{i-1} (i = 0 means y^0)
        x += row[0]  # y^0 is all ones
        for i in range(1, n + 1):
            prev = xs[i - 1]
            w = row[i]
            if w == 0:
                continue
            # (T x^{i-1})_0 = 0; _j = x^{i-1}_{j-1}, which is 1 once j-1 >= i-1
            contrib = np.ones(n)
            contrib[0] = 0.0
            for j in range(1, min(i, n)):
                contrib[j] = prev[j - 1]
            x += w * contrib
        xs.append(x)
    return xs


def shift_gap(coords: np.ndarray) -> float:
    """Sup-norm residual of an iterate given its leading coordinates.

    For x with x_i = 1 past the stored block, ||x - Tx||_inf equals
    max(x_0, max_j |x_j - x_{j-1}|, 1 - x_{last}); on the equidistant
    profile x_i = (i+1)/(n+1) this is exactly 1/(n+1), the minimum over
    [0,1]-valued profiles.
    """
    n = len(coords)
    if n == 0:
        return 1.0
    parts = [abs(float(coords[0]))]
    parts.extend(abs(float(coords[j] - coords[j - 1])) for j in range(1, n))
    parts.append(abs(1.0 - float(coords[-1])))
    return max(parts)


def shift_linf_residuals(pi: TriangularArray) -> List[float]:
    """||x^n - Tx^n||_inf for every n; each is >= 1/(n+1)."""
    xs = shift_iterates(pi)
    out = []
    for n, x in enumerate(xs):
        r = shift_gap(x)
        if r < 1.0 / (n + 1) - 1e-12:
            raise ArithmeticError(f"shift residual {r} at n={n} is below 1/(n+1)")
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# averaged iterations of the shift on summable sequences

def poisson_binomial_pmf(alphas: Sequence[float]) -> np.ndarray:
    """Distribution of a sum of independent Bernoulli(alpha_k) variables.

    Convolution recurrence, O(n^2); alphas[0] is ignored (stepsizes act
    from index 1, matching the averaged-iteration convention).
    """
    p = np.array([1.0])
    for a in alphas[1:]:
        p = _add_bernoulli(p, a)
    return p


def _add_bernoulli(p: np.ndarray, a: float) -> np.ndarray:
    """pmf of S + B from the pmf p of S, for B ~ Bernoulli(a) independent of S."""
    q = np.zeros(len(p) + 1)
    q[: len(p)] += (1 - a) * p
    q[1:] += a * p
    return q


def km_l1_residuals(alphas: Sequence[float]) -> List[float]:
    """||x^n - Tx^n||_1 for the averaged iteration of the summable-space
    shift started at the first unit vector.

    Iterate n is the Bernoulli-sum pmf over support 0..n; the residual is
    2 max_k p_k by unimodality, which is checked against the direct norm.
    """
    p = np.array([1.0])
    out = [2.0 * float(p.max())]
    for a in alphas[1:]:
        p = _add_bernoulli(p, a)
        r = 2.0 * float(p.max())
        direct = km_l1_residual_direct(p)
        if abs(r - direct) > 1e-12 * max(1.0, direct):
            raise ArithmeticError(f"2 max_k p_k = {r} differs from the direct norm {direct}")
        out.append(r)
    for k, rk in enumerate(out):
        if rk < 1.0 / math.sqrt(k + 1) - 1e-12:
            raise ArithmeticError(f"l1 residual {rk} at n={k} is below 1/sqrt(n+1)")
    return out


def km_l1_residual_direct(pmf: np.ndarray) -> float:
    """||p - shift(p)||_1 computed term by term."""
    shifted = np.zeros(len(pmf) + 1)
    shifted[1:] = pmf
    padded = np.zeros(len(pmf) + 1)
    padded[: len(pmf)] = pmf
    return float(np.abs(padded - shifted).sum())


def is_unimodal(pmf: np.ndarray, tol: float = 1e-14) -> bool:
    d = np.diff(pmf)
    falling = False
    for g in d:
        if g < -tol:
            falling = True
        elif g > tol and falling:
            return False
    return True


# ---------------------------------------------------------------------------
# the binomial floor function controlling the constant-stepsize infimum

def binomial_floor_function(n: int, x: float) -> float:
    """f_n(x) = P(floor(nx) <= B <= floor(nx) + 1) for B binomial(n, x).

    The two-term window reflects the pmf-pair bound 2 max p >= p_b + p_c;
    at points where nx is an integer this is the right-continuous version,
    whose infimum over [0, 1] coincides with the classical one.
    """
    if not (0 <= x <= 1):
        raise ValueError("x must lie in [0, 1]")
    lo = math.floor(n * x)
    hi = min(lo + 1, n)
    total = 0.0
    for k in range(lo, hi + 1):
        total += math.comb(n, k) * x ** k * (1 - x) ** (n - k)
    return total


def binomial_floor_grid_min(n: int) -> float:
    """Minimum of f_n over a uniform grid of 100001 points on [0, 1]
    (vectorized).

    f_n is piecewise concave on the intervals (k/n, (k+1)/n), so its
    infimum is approached at interval endpoints; the one-sided limit values
    there (the window [k, k+1] evaluated at both ends) are added to the
    grid so the scan captures the infimum despite the discontinuities.
    """
    from scipy.stats import binom

    x = np.linspace(0.0, 1.0, 100001)
    lo = np.minimum(np.floor(n * x), n - 1)
    vals = binom.cdf(lo + 1, n, x) - binom.cdf(lo - 1, n, x)
    best = float(vals.min())
    for k in range(n):
        for e in (k / n, (k + 1) / n):
            best = min(best, float(binom.cdf(k + 1, n, e)
                                   - binom.cdf(k - 1, n, e)))
    return best


def inf_f(n: int) -> Fraction:
    """Closed-form infimum of f_n over [0, 1].

    Even n = 2m: (2m+1)/(m+1) * C(2m, m) / 4^m, attained at x = 1/2.
    Odd n = 2m+1: C(2m+1, m) * (m(m+1)/(2m+1)^2)^m, attained at the two
    off-center minimizers m(m+1)/(2m+1)^2-related points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        m = n // 2
        return Fraction(2 * m + 1, m + 1) * Fraction(math.comb(2 * m, m), 4 ** m)
    m = (n - 1) // 2
    return math.comb(2 * m + 1, m) * Fraction(m * (m + 1), (2 * m + 1) ** 2) ** m


def check_inf_f_chain(N: int) -> bool:
    """inf f_n decreases in n and stays above 1/sqrt(n+1)."""
    prev = None
    for n in range(1, N + 1):
        v = inf_f(n)
        if prev is not None and v > prev:
            return False
        if float(v) < 1.0 / math.sqrt(n + 1) - 1e-15:
            return False
        prev = v
    return True


# ---------------------------------------------------------------------------
# affine shift and plane rotation attaining the two-point bounds

def affine_shift_halpern_residual(betas: Sequence[float]) -> float:
    """Residual of the two-point iteration on the right shift over summable
    sequences, from x^0 = y^0 = e^0 (the shift is linear with fixed point 0).

    The iterate has the finite expansion
    x^n = sum_k (1 - beta_k) prod_{j=k+1}^n beta_j e^{n-k}, and the
    residual equals the tight linear-map bound Theta_n exactly.
    """
    n = len(betas) - 1
    w = np.zeros(n + 1)  # w[k] multiplies e^{n-k}
    tail = 1.0
    for k in range(n, -1, -1):
        w[k] = (1 - betas[k]) * tail
        tail *= betas[k]
    x = np.zeros(n + 2)
    for k in range(n + 1):
        x[n - k] = w[k]
    tx = np.zeros(n + 2)
    tx[1:] = x[:-1]
    return float(np.abs(x - tx).sum())


def rotation_halpern_residual(n: int, betas: Optional[Sequence[float]] = None) -> float:
    """Residual after n steps of the two-point iteration on the plane
    rotation by pi/(n+1), from x^0 = y^0 = (1, 0).

    With beta_k = k/(k+1) this equals 2/(n+1) exactly: the iterates march
    along a chord while the rotation sweeps half a turn.
    """
    if betas is None:
        betas = [k / (k + 1) for k in range(n + 1)]
    theta = math.pi / (n + 1)
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    y0 = np.array([1.0, 0.0])
    x = y0.copy()
    for k in range(1, n + 1):
        x = (1 - betas[k]) * y0 + betas[k] * (R @ x)
    return float(np.linalg.norm(x - R @ x))


# ---------------------------------------------------------------------------
# accelerated proximal-point scheme vs the classical two-point iteration

def make_rotation(theta: float) -> Callable[[np.ndarray], np.ndarray]:
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return lambda x: R @ x


def make_truncated_shift(dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Right shift on R^dim (last coordinate dropped); nonexpansive in any
    p-norm, fixed point 0."""

    def T(x):
        out = np.zeros_like(x)
        out[1:] = x[:-1]
        return out

    return T


def halpern_iterates(T, x0: np.ndarray, N: int) -> List[np.ndarray]:
    """x^n = (1 - beta_n) x^0 + beta_n T x^{n-1} with beta_n = n/(n+1)."""
    betas = [n / (n + 1) for n in range(N + 1)]
    xs = [np.asarray(x0, dtype=float)]
    for n in range(1, N + 1):
        xs.append((1 - betas[n]) * xs[0] + betas[n] * T(xs[n - 1]))
    return xs


def kim_iterates(T, x0: np.ndarray, N: int) -> List[np.ndarray]:
    """Accelerated fixed-point scheme with halved resolvent step:
    y^{k+1} = (x^k + Tx^k)/2,
    x^{k+1} = y^{k+1} + k/(k+2) (y^{k+1} - y^k) - k/(k+2) (y^k - x^{k-1}).

    Unrolls to the two-point iteration with anchor x^0 and stepsizes
    n/(n+1).
    """
    x0 = np.asarray(x0, dtype=float)
    xs = [x0]
    y_prev = x0
    x_prev2 = x0
    for k in range(N):
        xk = xs[-1]
        y = 0.5 * (xk + T(xk))
        t = k / (k + 2)
        xs.append(y + t * (y - y_prev) - t * (y_prev - x_prev2))
        x_prev2 = xk
        y_prev = y
    return xs


def kim_vs_halpern(T, x0: np.ndarray, N: int,
                   fixed_point: Optional[np.ndarray] = None) -> dict:
    """Run both schemes and compare.

    Returns the per-step max coordinate gap between the trajectories, both
    residual series, and (when a fixed point is supplied) the margin of the
    2 ||x^0 - x*|| / (n+1) residual bound for the accelerated scheme.
    """
    kim = kim_iterates(T, x0, N)
    hal = halpern_iterates(T, x0, N)
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(kim, hal)]
    res = [float(np.linalg.norm(x - T(x))) for x in kim]
    out = {"max_gap": max(gaps), "gaps": gaps, "residuals": res}
    if fixed_point is not None:
        d0 = float(np.linalg.norm(np.asarray(x0, dtype=float) - fixed_point))
        bounds = [2.0 * d0 / (n + 1) for n in range(N + 1)]
        out["bound"] = bounds
        out["bound_margin"] = min(b - r for b, r in zip(bounds, res))
    return out
