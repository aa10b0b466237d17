# imported before anything loads numpy: the package pins BLAS/OpenMP to one
# thread unless the environment chose a count, so the suite runs as the CLI
import mannrates  # noqa: F401

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from mannrates.transport import solve_transport

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return random.Random(12345)


def random_simplex(rng, k):
    w = [rng.random() for _ in range(k)]
    s = sum(w)
    return tuple(x / s for x in w)


def random_array(rng, N):
    """Arbitrary triangular array (rows on the simplex, no structure)."""
    return [(1.0,)] + [random_simplex(rng, n + 1) for n in range(1, N + 1)]


def random_monotone_array(rng, N):
    """Array with pi^n_i <= pi^{n-1}_i for i < n (KM-style construction)."""
    rows = [(1.0,)]
    for n in range(1, N + 1):
        a = rng.uniform(0.05, 0.95)
        row = [(1 - a) * w for w in rows[-1]] + [a]
        rows.append(tuple(row))
    return rows


def random_wide_range_array(rng, N):
    """Rational rows whose weights span nine orders of magnitude."""
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        w = [10 ** rng.randint(0, 9) * rng.randint(0, 3) for _ in range(n + 1)]
        w[n] += 1
        total = sum(w)
        rows.append(tuple(Fraction(x, total) for x in w))
    return rows


def assert_table_is_transport(table, rows, exact=False, tol=1e-12):
    """Each d(m, n), 0 <= m < n, against a transport solve between rows m
    and n on the table's own cost block: equal for `Fraction`s, within tol
    for floats.  The oracle for every rule that fills the table, the
    two-point closed form and the greedy plan included."""
    for n in range(len(rows)):
        for m in range(n):
            want = solve_transport(rows[m], rows[n], table.costs(m, n),
                                   exact=exact).objective
            if exact:
                assert table.d(m, n) == want, (m, n)
            else:
                assert table.d(m, n) == pytest.approx(want, abs=tol), (m, n)
