# imported before anything loads numpy: the package pins BLAS/OpenMP to one
# thread unless the environment chose a count, so the suite runs as the CLI
import mannrates  # noqa: F401

import random

import pytest
from hypothesis import HealthCheck, settings

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
