"""Row builders for the named iteration families."""

import re

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from mannrates.schemes import (SCHEME_PARAMS, SchemeError, SchemeSpec,
                               TriangularArray, build_rows, check_monotone,
                               scheme_from_json, scheme_step, stepsize_formula)


def test_km_constant_half_rows():
    spec = SchemeSpec("km", alphas=(0, 0.5, 0.5))
    arr = build_rows(spec, 2)
    assert arr.rows[0] == (1,)
    assert arr.rows[1] == (0.5, 0.5)
    assert arr.rows[2] == (0.25, 0.25, 0.5)


def test_halpern_rows_are_two_point():
    betas = (0, 0.5, 0.625, 0.75)
    arr = build_rows(SchemeSpec("halpern", betas=betas), 3)
    assert arr.rows[3] == (0.25, 0, 0, 0.75)
    for n in range(1, 4):
        row = arr.rows[n]
        assert row[0] == 1 - betas[n] and row[n] == betas[n]
        assert all(w == 0 for w in row[1:n])


def test_km_rows_are_monotone():
    arr = build_rows(SchemeSpec("km", alphas=(0, 0.3, 0.7, 0.4, 0.6)), 4)
    rep = check_monotone(arr)
    assert rep.monotone


def test_halpern_rows_not_monotone():
    arr = build_rows(SchemeSpec("halpern", betas=(0, 0.5, 0.7)), 2)
    # row 2 puts zero mass at index 1 where row 1 has 0.5: fine, but the
    # anchor mass 0.3 at index 0 is below row 1's 0.5, while index 1 mass
    # rises from 0 is what monotonicity tracks -- here pi^2_1 = 0 <= 0.5
    # and pi^2_0 = 0.3 <= 0.5, so this *is* monotone; push the anchor up
    arr = build_rows(SchemeSpec("halpern", betas=(0, 0.9, 0.2)), 2)
    assert not check_monotone(arr).monotone


def test_inertial_halpern_row():
    arr = build_rows(SchemeSpec("inertial-halpern",
                                alphas=(0, 0.5, 0.5), betas=(0, 0.2, 0.3)), 2)
    assert arr.rows[2] == pytest.approx((0.2, 0.3, 0.5))


def test_km_halpern_row():
    arr = build_rows(SchemeSpec("km-halpern",
                                alphas=(0, 0.5, 0.4), betas=(0, 0.3, 0.5)), 2)
    # row = b * prev (padded) + (1-a-b) e0 + a e2
    prev = arr.rows[1]
    expect = [0.5 * prev[0] + 0.1, 0.5 * prev[1], 0.4]
    assert arr.rows[2] == pytest.approx(tuple(expect))


def test_extra_km_uses_second_previous_row():
    arr = build_rows(SchemeSpec("extra-km",
                                alphas=(0, 0.4, 0.4, 0.4),
                                betas=(0, 0.3, 0.3, 0.3)), 3)
    base = arr.rows[1]   # n-2 row for n = 3
    prev = arr.rows[2]
    expect = [0.3 * base[0] + 0.3 * prev[0], 0.3 * base[1] + 0.3 * prev[1],
              0.3 * prev[2], 0.4]
    assert arr.rows[3] == pytest.approx(tuple(expect))


def test_ishikawa_blocks():
    # alpha_k <= beta_k required; odd rows use (beta, 1-beta), even (alpha, 0)
    arr = build_rows(SchemeSpec("ishikawa", alphas=(0.2,), betas=(0.6,)), 2)
    direct = build_rows(SchemeSpec("extra-km", alphas=(0, 0.6, 0.2),
                                   betas=(0, 0.4, 0.0)), 2)
    assert arr.rows == direct.rows
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("ishikawa", alphas=(0.7,), betas=(0.6,)), 2)


def test_general_kind_passthrough():
    rows = ((1,), (0.4, 0.6), (0.1, 0.2, 0.7))
    arr = build_rows(SchemeSpec("general", rows=rows), 2)
    assert arr.rows == rows
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("general", rows=((1,), (0.4, 0.7))), 1)


def test_build_rows_refuses_a_negative_horizon():
    spec = SchemeSpec("km", alphas=(0, 0.5))
    assert build_rows(spec, 0).rows == ((1,),)
    for s in (spec, SchemeSpec("general", rows=((1,), (0.4, 0.6)))):
        with pytest.raises(SchemeError, match="horizon"):
            build_rows(s, -1)


def test_stepsize_bounds_enforced():
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("halpern", betas=(0, 1.2)), 1)
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("km", alphas=(0, -0.1)), 1)
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("inertial-km", alphas=(0, 0.7), betas=(0, 0.6)), 1)
    with pytest.raises(SchemeError):
        build_rows(SchemeSpec("halpern", betas=(0,)), 1)  # missing beta_1


@pytest.mark.parametrize("kind, alphas, betas, message", [
    ("km", (0, 1.5), None, "alpha[1] = 1.5 outside [0, 1]"),
    ("halpern", None, (0, 0.5), "missing beta[2]"),
    ("inertial-km", (0, 0.75), (0, 0.5), "alpha[1] + beta[1] = 1.25 > 1"),
    ("ishikawa", (0.25, 0.75), (0.5, 0.5), "ishikawa requires alpha[1] <= beta[1]"),
    ("ishikawa", (0.25, -0.5), (0.5, 0.5), "alpha[1] = -0.5 outside [0, 1]"),
])
def test_scheme_rule_messages(kind, alphas, betas, message):
    # Ishikawa's stepsizes are indexed by block, the others by row
    with pytest.raises(SchemeError, match=re.escape(message)):
        build_rows(SchemeSpec(kind, alphas=alphas, betas=betas), 3)


def test_unknown_kind_rejected():
    with pytest.raises(SchemeError):
        SchemeSpec("midpoint")


def test_stepsize_formulas():
    f = stepsize_formula("n/(n+2)")
    assert f(2) == 0.5
    g = stepsize_formula("constant", value=0.3)
    assert g(7) == 0.3
    h = stepsize_formula("optimal-recursion")
    assert h(0) == 0 and h(1) == 0.5 and h(2) == 0.625
    with pytest.raises(SchemeError):
        stepsize_formula("fibonacci")


def test_exact_stepsize_formulas_are_fractions():
    for name in ("n/(n+1)", "n/(n+2)", "(n+1)/(n+3)", "optimal-recursion"):
        exact, flt = stepsize_formula(name, exact=True), stepsize_formula(name)
        for n in range(8):
            assert type(exact(n)) is Fraction
            assert float(exact(n)) == pytest.approx(flt(n), abs=1e-15)
    assert stepsize_formula("optimal-recursion", exact=True)(3) == Fraction(89, 128)
    spec = scheme_from_json({"kind": "halpern", "beta": "n/(n+1)"}, 4, exact=True)
    assert spec.betas == tuple(Fraction(n, n + 1) for n in range(5))


def test_scheme_from_json_roundtrip():
    doc = {"kind": "halpern", "beta": "n/(n+1)"}
    spec = scheme_from_json(doc, 4)
    assert spec.betas == tuple(n / (n + 1) for n in range(5))
    doc2 = {"kind": "km", "alpha": {"formula": "constant", "value": 0.5}}
    spec2 = scheme_from_json(doc2, 3)
    assert spec2.alphas == (0.5,) * 4
    doc3 = {"kind": "halpern", "beta": [0, 0.1, 0.2]}
    assert scheme_from_json(doc3, 2).betas == (0, 0.1, 0.2)


def test_exact_rows_stay_rational():
    betas = (Fraction(0), Fraction(1, 2), Fraction(5, 8))
    arr = build_rows(SchemeSpec("halpern", betas=betas), 2)
    assert arr.rows[2] == (Fraction(3, 8), 0, Fraction(5, 8))
    assert all(isinstance(w, (int, Fraction)) for row in arr.rows for w in row)


@st.composite
def _random_spec(draw):
    kind = draw(st.sampled_from(["halpern", "km", "inertial-halpern",
                                 "inertial-km", "km-halpern", "extra-km"]))
    N = draw(st.integers(1, 8))
    steps = st.floats(0.0, 0.5)
    alphas = tuple([0] + [draw(steps) for _ in range(N)])
    betas = tuple([0] + [draw(steps) for _ in range(N)])
    return SchemeSpec(kind, alphas=alphas, betas=betas), N


@given(_random_spec())
def test_all_schemes_build_valid_arrays(sn):
    spec, N = sn
    arr = build_rows(spec, N)
    arr.validate()
    assert arr.horizon == N


def test_triangular_array_validation():
    with pytest.raises(SchemeError):
        TriangularArray(((0.5, 0.5),)).validate()
    with pytest.raises(SchemeError):
        TriangularArray(((1,), (0.4, 0.4))).validate()
    with pytest.raises(SchemeError):
        TriangularArray(((1,), (-0.1, 1.1))).validate()


_stepsizes = st.one_of(st.floats(0, 1), st.floats(-0.5, 1.5),
                       st.fractions(-1, 2, max_denominator=12),
                       st.sampled_from([0, 1, 0.5]))


def _bits(rows):
    return [[w if isinstance(w, Fraction) else float(w).hex() for w in r]
            for r in rows]


def _unroll(kind, N, params, one, tol):
    rows = [(one,)]
    try:
        for n in range(1, N + 1):
            rows.append(scheme_step(kind, n, rows, params, tol=tol))
    except SchemeError:
        return None
    return rows


@given(st.sampled_from(sorted(SCHEME_PARAMS)), st.integers(1, 6),
       _stepsizes, _stepsizes)
def test_build_rows_and_the_search_apply_one_rule(kind, N, a, b):
    # constant stepsizes: the scheme search calls the rule stage by stage
    # from its own Dirac row with tol = 0, build_rows reads them from a spec
    # and allows validate's 1e-12
    names = SCHEME_PARAMS[kind]
    params = tuple({"alpha": a, "beta": b}[name] for name in names)
    one = Fraction(1) if Fraction in (type(a), type(b)) else 1.0
    loose = _unroll(kind, N, params, one, 1e-12)
    rows = _unroll(kind, N, params, one, 0)
    try:
        built = build_rows(SchemeSpec(kind, alphas=(a,) * (N + 1),
                                      betas=(b,) * (N + 1)), N).rows
    except SchemeError:
        built = None
    assert (built is None) == (loose is None)
    if loose is not None:
        assert _bits(built[1:]) == _bits(loose[1:])
    # the search's rows are build_rows' rows; it only also rejects a
    # weight that rounds below 0
    if rows is not None:
        assert _bits(rows[1:]) == _bits(loose[1:])
    in_range = all(0 <= s <= 1 for s in params)
    if kind == "ishikawa":
        feasible = exactly = in_range and a <= b
    elif len(names) == 2:
        feasible = in_range and not a + b > 1
        exactly = in_range and Fraction(a) + Fraction(b) <= 1
    else:
        feasible = exactly = in_range
    assert (loose is not None) == feasible
    if exactly:
        assert rows is not None


@pytest.mark.parametrize("kind", ["inertial-halpern", "inertial-km"])
@pytest.mark.parametrize("a, b", [(0.9, 0.1), (0.8, 0.2)])
def test_float_pair_summing_to_one_builds(kind, a, b):
    # 1 - 0.9 - 0.1 rounds to -2.8e-17: within validate's tolerance
    arr = build_rows(SchemeSpec(kind, alphas=(0, a, a), betas=(0, b, b)), 2)
    assert arr.horizon == 2
    assert -1e-16 < min(arr.rows[2]) < 0


def test_search_rule_rejects_a_weight_rounded_below_zero():
    rows = [(1.0,)]
    rows.append(scheme_step("inertial-halpern", 1, rows, (0.9, 0.1)))
    row = scheme_step("inertial-halpern", 2, rows, (0.9, 0.1), tol=1e-12)
    assert row[0] < 0
    with pytest.raises(SchemeError, match="row 2 has a negative weight"):
        scheme_step("inertial-halpern", 2, rows, (0.9, 0.1))
