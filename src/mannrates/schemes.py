"""The named iteration families and their one scheme rule.

Each scheme maps stepsize sequences (alpha_n, beta_n) to rows of the
triangular averaging array.  Row 0 is always the Dirac mass at index 0
(the convention that places all initial mass on the starting point), and
stepsizes start acting at n = 1.

`SCHEME_PARAMS` names the stepsizes each kind reads, and `scheme_step` is
the one rule that turns them into row n: it checks their feasible range,
maps an Ishikawa block to its two extra-KM rows, and rejects any negative
weight.  `build_rows` unrolls the rule over a spec; the optimizer's scheme
searches call it on each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Callable, Optional

# the stepsizes each kind reads, in the order `scheme_step` takes them
SCHEME_PARAMS = {
    "halpern": ("beta",),
    "km": ("alpha",),
    "inertial-halpern": ("alpha", "beta"),
    "inertial-km": ("alpha", "beta"),
    "km-halpern": ("alpha", "beta"),
    "extra-km": ("alpha", "beta"),
    "ishikawa": ("alpha", "beta"),
}
SCHEME_KINDS = tuple(SCHEME_PARAMS) + ("general",)

class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class TriangularArray:
    """Rows of averaging coefficients; row n lives on the simplex over 0..n."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))

    @property
    def horizon(self) -> int:
        return len(self.rows) - 1

    def validate(self, exact: bool = False) -> None:
        """Row 0 the Dirac mass, row n nonnegative on 0..n and summing to 1:
        exactly when `exact`, else within 1e-12.  The row-0 and sum tests
        pass only on a true comparison, so a NaN weight, which compares
        false with everything, fails them."""
        tol = 0 if exact else 1e-12
        if not self.rows or len(self.rows[0]) != 1 or not abs(self.rows[0][0] - 1) <= tol:
            raise SchemeError("row 0 must be the Dirac mass at index 0")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1:
                raise SchemeError(f"row {n} has support size {len(row)}, expected {n + 1}")
            if any(w < -tol for w in row):
                raise SchemeError(f"row {n} has a negative weight")
            if not abs(sum(row) - 1) <= tol:
                raise SchemeError(f"row {n} does not sum to 1")


@dataclass(frozen=True)
class MonotoneReport:
    monotone: bool
    first_violation: Optional[tuple]  # (n, i) or None


@dataclass(frozen=True)
class SchemeSpec:
    """A named iteration family plus its stepsize sequences.

    For kind "general", `rows` carries a user-supplied array directly.
    """

    kind: str
    alphas: Optional[tuple] = None
    betas: Optional[tuple] = None
    rows: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise SchemeError(f"unknown scheme kind {self.kind!r}")
        for name in ("alphas", "betas"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(v))


def _pad(prev, length, zero):
    return tuple(prev) + (zero,) * (length - len(prev))


def _index(kind, n):
    """The stepsize index of row n: Ishikawa's block (n - 1) // 2, else n."""
    return (n - 1) // 2 if kind == "ishikawa" else n


def scheme_step(kind: str, n: int, rows, params, tol=0) -> tuple:
    """Row n of the scheme `kind` from its earlier rows and the stepsizes
    `params`, named in order by SCHEME_PARAMS[kind].

    The one scheme rule: each stepsize lies in [0, 1] and alpha + beta <= 1.
    An Ishikawa block (alpha_k, beta_k) needs alpha_k <= beta_k; its odd row
    is the extra-KM row (beta_k, 1 - beta_k), its even row (alpha_k, 0).  A
    row with a weight below -tol is rejected.  The scheme searches keep
    tol = 0, since their rows go straight to the transport kernel;
    `build_rows` passes the 1e-12 of `TriangularArray.validate`, so that a
    float row rounded below 0 (1 - 0.9 - 0.1 is -2.8e-17) passes.
    SchemeError names the violated condition.  The zeros of the row take
    the arithmetic of the Dirac row's one, rows[0][0].
    """
    names = SCHEME_PARAMS.get(kind)
    if names is None:
        raise SchemeError(f"scheme kind {kind!r} has no row step")
    for name, s in zip(names, params):
        if not 0 <= s <= 1:
            raise SchemeError(f"{name}[{_index(kind, n)}] = {s} outside [0, 1]")
    if len(names) == 1:
        a = b = params[0]  # halpern reads only b, km only a
    else:
        a, b = params
        if kind == "ishikawa":
            if a > b:
                k = _index(kind, n)
                raise SchemeError(f"ishikawa requires alpha[{k}] <= beta[{k}]")
            kind, a, b = ("extra-km", b, 1 - b) if n % 2 else ("extra-km", a, 0)
        elif a + b > 1:
            raise SchemeError(f"alpha[{n}] + beta[{n}] = {a + b} > 1 "
                              "gives a negative weight")
    one = rows[0][0]
    zero = 0 * one
    prev = _pad(rows[n - 1], n + 1, zero)
    if kind == "halpern":
        row = [one - b] + [zero] * (n - 1) + [b]
    elif kind == "km":
        row = [(one - a) * w for w in prev]
        row[n] += a
    elif kind == "inertial-halpern":
        row = [one - a - b] + [zero] * n
        row[n - 1] += b
        row[n] += a
    elif kind == "inertial-km":
        row = [(one - a - b) * w for w in prev]
        row[n - 1] += b
        row[n] += a
    elif kind == "km-halpern":
        row = [b * w for w in prev]
        row[0] += one - a - b
        row[n] += a
    else:  # extra-km
        base = _pad(rows[n - 2], n + 1, zero) if n >= 2 else prev
        row = [(one - a - b) * w for w in base]
        for i, w in enumerate(rows[n - 1]):
            row[i] += b * w
        row[n] += a
    if min(row) < -tol:
        raise SchemeError(f"row {n} has a negative weight")
    return tuple(row)


def build_rows(spec: SchemeSpec, N: int) -> TriangularArray:
    """Unroll the scheme rule into an explicit triangular array, reading
    row n's stepsizes by name from the spec at index `_index(kind, n)`.
    A negative horizon raises SchemeError."""
    if N < 0:
        raise SchemeError(f"horizon must be >= 0, got {N}")
    if spec.kind == "general":
        if spec.rows is None:
            raise SchemeError("kind 'general' requires explicit rows")
        arr = TriangularArray(spec.rows[: N + 1])
        arr.validate()
        return arr
    seqs = [(name, getattr(spec, name + "s")) for name in SCHEME_PARAMS[spec.kind]]
    rows = [(_one_like(spec),)]
    for n in range(1, N + 1):
        i = _index(spec.kind, n)
        params = []
        for name, seq in seqs:
            if seq is None or len(seq) <= i:
                raise SchemeError(f"missing {name}[{i}]")
            params.append(seq[i])
        rows.append(scheme_step(spec.kind, n, rows, params, tol=1e-12))
    arr = TriangularArray(rows)
    arr.validate()
    return arr


def _one_like(spec):
    for seq in (spec.alphas, spec.betas):
        if seq:
            for s in seq:
                if isinstance(s, Fraction):
                    return Fraction(1)
    return 1


def check_monotone(pi: TriangularArray, exact: bool = False) -> MonotoneReport:
    """Row-monotonicity check enabling the greedy transport fast path."""
    tol = 0 if exact else 1e-12
    first = None
    for n in range(1, pi.horizon + 1):
        row, prev = pi.rows[n], pi.rows[n - 1]
        if row[n] <= tol and first is None:
            first = (n, n)
        for i in range(n):
            if row[i] > prev[i] + tol and first is None:
                first = (n, i)
    return MonotoneReport(first is None, first)


def stepsize_formula(name: str, value=None,
                     exact: bool = False) -> Callable[[int], object]:
    """Resolve a stepsize formula name to a function of the iteration index.

    With `exact` the named formulas give Fractions; "constant" returns its
    value as given.
    """
    div = Fraction if exact else truediv
    if name == "constant":
        if value is None:
            raise SchemeError("formula 'constant' needs a value")
        return lambda n: value
    if name == "n/(n+1)":
        return lambda n: div(n, n + 1)
    if name == "n/(n+2)":
        return lambda n: div(n, n + 2)
    if name == "(n+1)/(n+3)":
        return lambda n: div(n + 1, n + 3)
    if name == "optimal-recursion":
        from .halpern import optimal_recursion

        cache = {}

        def beta(n, _cache=cache):
            # exact denominators double in length per step: compute no
            # further ahead than asked
            if "betas" not in _cache or len(_cache["betas"]) <= n:
                _cache["betas"] = optimal_recursion(n if exact else max(n, 64),
                                                    exact)[0]
            return _cache["betas"][n]

        return beta
    raise SchemeError(f"unknown stepsize formula {name!r}")


def _expand_steps(v, horizon: int, exact: bool) -> Optional[tuple]:
    if v is None:
        return None
    if isinstance(v, (list, tuple)):
        return tuple(v)
    if isinstance(v, dict):
        fn = stepsize_formula(v["formula"], v.get("value"), exact)
    else:
        fn = stepsize_formula(str(v), exact=exact)
    return tuple(fn(n) for n in range(horizon + 1))


def scheme_from_json(doc: dict, horizon: int, exact: bool = False) -> SchemeSpec:
    """Build a SchemeSpec from a JSON/CLI description.

    Expected keys: "kind"; optionally "alpha"/"beta", each either an explicit
    list, a formula name, or {"formula": name, "value": c}; kind "general"
    takes explicit "rows" instead.  With `exact` the formulas are evaluated
    as Fractions.
    """
    kind = doc.get("kind")
    if kind not in SCHEME_KINDS:
        raise SchemeError(f"unknown scheme kind {kind!r}")
    if kind == "general":
        rows = doc.get("rows")
        if rows is None:
            raise SchemeError("kind 'general' requires rows")
        return SchemeSpec("general", rows=tuple(tuple(r) for r in rows))
    return SchemeSpec(kind,
                      alphas=_expand_steps(doc.get("alpha"), horizon, exact),
                      betas=_expand_steps(doc.get("beta"), horizon, exact))
