"""Ring axioms and exact evaluation for Q[k0, k1]."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weight.hyper import alpha_beta_recurrence, alpha_closed, beta_closed, s_inner_closed
from b2weight.ring import K0, K1, ONE, ParamPoly, _Dense, _make, poch, poly_eval
from b2weight.vpoly import VPoly, XPoly


def random_poly(rng: random.Random, max_deg: int = 3, max_terms: int = 5) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return ParamPoly(terms)


def test_construction_drops_zero_coefficients():
    p = ParamPoly({(1, 0): 0, (0, 1): 2})
    assert dict(p) == {(0, 1): Fraction(2)}
    assert ParamPoly().is_zero()


def test_equality_is_coefficientwise():
    assert K0 + K1 == K1 + K0
    assert K0 - K0 == 0
    assert ParamPoly.const(Fraction(1, 2)) * 2 == ONE


def test_ring_laws_on_random_triples():
    rng = random.Random(20130612)
    for _ in range(1000):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p + (q + r) == (p + q) + r


def test_power_and_scalar_division():
    p = 1 + 2 * K0 + 2 * K1
    assert p**0 == ONE
    assert p**3 == p * p * p
    assert (p * 3) / 3 == p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_poch_trivial_cases():
    assert poch(3, 2) == 12
    assert poch(K0 + K1, 0) == ONE
    assert poch(-K1, 2) == K1 * K1 - K1


def test_poch_splitting_identity():
    rng = random.Random(7)
    for _ in range(60):
        a = random_poly(rng, max_deg=1, max_terms=2)
        m = rng.randint(0, 10)
        n = rng.randint(0, 10)
        assert poch(a, m + n) == poch(a, m) * poch(a + m, n)


def test_poch_scalar_matches_poly_version():
    a = Fraction(-1, 3)
    assert poch(a, 5) == poly_eval(poch(ParamPoly.const(a), 5), 0, 0)
    assert poch(2, 4) == 120


def test_eval_examples():
    assert poly_eval(1 + 2 * K0 + 2 * K1, Fraction(1, 4), Fraction(1, 4)) == 2
    p = 3 - 7 * K0 * K1 + K1**2
    assert poly_eval(p, 0, 0) == 3
    assert poly_eval(K1 * K1 - K1, 0, Fraction(1, 2)) == Fraction(-1, 4)


def test_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(300):
        p, q = random_poly(rng), random_poly(rng)
        k0 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        k1 = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert poly_eval(p * q, k0, k1) == poly_eval(p, k0, k1) * poly_eval(q, k0, k1)
        assert poly_eval(p + q, k0, k1) == poly_eval(p, k0, k1) + poly_eval(q, k0, k1)


def test_printing_is_deterministic_graded_lex():
    p = K1 + K0 + 1 + K0 * K0
    assert str(p) == "1 + k0 + k1 + k0^2"
    assert str(ParamPoly.zero()) == "0"
    assert str(-2 * K1) == "-2*k1"


def test_poly_eval_matches_termwise_fraction_sum():
    seq = alpha_beta_recurrence(12)
    points = [
        (Fraction(-7, 20), Fraction(2, 25)),
        (Fraction(3, 10), Fraction(-1, 10)),
        (Fraction(-13, 31), Fraction(-1, 60)),
        (Fraction(0), Fraction(9, 20)),
        (Fraction(-9, 20), Fraction(0)),
        (Fraction(0), Fraction(0)),
    ]
    for k0, k1 in points:
        for poly in seq.alpha + seq.beta:
            want = sum((c * k0**e0 * k1**e1 for (e0, e1), c in poly), Fraction(0))
            got = poly_eval(poly, k0, k1)
            assert type(got) is Fraction and got == want
    assert poly_eval(ParamPoly.zero(), Fraction(1, 3), -2) == 0
    with pytest.raises(TypeError):
        poly_eval(K0, 0.5, 0)


# ---------------------------------------------------------------------------
# the integer kernel against a plain {key: Fraction} reference
# ---------------------------------------------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.one_of(st.integers(-30, 30), fractions)
term_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), fractions, max_size=6
)
# XPoly keys (a, b, e0, e1) and VPoly keys (a, b, s, e0, e1)
exps = st.integers(0, 3)
x_term_maps = st.dictionaries(st.tuples(exps, exps, exps, exps), fractions, max_size=6)
v_term_maps = st.dictionaries(
    st.tuples(exps, exps, st.sampled_from([1, 2]), exps, exps), fractions, max_size=6
)


def ref(terms) -> dict:
    return {key: Fraction(c) for key, c in terms.items() if c}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return ref(out)


def add_exponents(ka: tuple, kb: tuple) -> tuple:
    return tuple(x + y for x, y in zip(ka, kb))


def times_param(key: tuple, mono: tuple) -> tuple:
    return key[:-2] + add_exponents(key[-2:], mono)


def times_x(xkey: tuple, key: tuple) -> tuple:
    """x1^a x2^b k0^e0 k1^e1 times a VPoly term."""
    return add_exponents(xkey[:2], key[:2]) + key[2:-2] + add_exponents(xkey[2:], key[-2:])


def ref_mul(p: dict, q: dict, combine=add_exponents) -> dict:
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = combine(ka, kb)
            out[key] = out.get(key, 0) + ca * cb
    return ref(out)


def ref_scale(p: dict, s) -> dict:
    return ref({key: c * s for key, c in p.items()})


def build(cls, flat: dict):
    """An XPoly or VPoly from {(head..., e0, e1): coefficient}, one ParamPoly per head."""
    heads: dict = {}
    for key, c in flat.items():
        heads.setdefault(key[:-2], {})[key[-2:]] = c
    return cls({head: ParamPoly(terms) for head, terms in heads.items()})


def flat_terms(poly) -> dict:
    """{(head..., e0, e1): Fraction} of any of the three types: a ParamPoly's
    by iteration, an XPoly's or VPoly's through ``terms``."""
    if isinstance(poly, ParamPoly):
        return dict(poly)
    return {head + mono: c for head, coeff in poly.terms.items() for mono, c in coeff}


def assert_matches(poly, want: dict) -> None:
    """The terms of want, Fraction or ParamPoly coefficients as the type
    reads them, and the canonical form."""
    assert flat_terms(poly) == want
    if isinstance(poly, ParamPoly):
        assert all(type(c) is Fraction for _, c in poly)
    else:
        assert all(type(coeff) is ParamPoly and coeff for coeff in poly.terms.values())
    assert poly.is_zero() == (not want)
    # integer rows per head: no head without rows, no empty last row, no
    # zero at a row end, and gcd 1 with the denominator
    num, den = poly._num, poly._den
    assert type(den) is int and den > 0
    assert isinstance(poly, ParamPoly) <= (set(num) <= {()})
    assert all(rows and rows[-1] for rows in num.values())
    entries = [c for rows in num.values() for row in rows for c in row]
    assert all(type(c) is int for c in entries)
    assert all(row[-1] for rows in num.values() for row in rows if row)
    assert math.gcd(den, *entries) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=term_maps, q=term_maps, s=scalars, e=st.integers(0, 4))
def test_kernel_matches_fraction_reference(p, q, s, e):
    rp, rq = ref(p), ref(q)
    P, Q = ParamPoly(p), ParamPoly(q)
    assert_matches(P, rp)
    assert_matches(P + Q, ref_add(rp, rq))
    assert_matches(P - Q, ref_add(rp, ref_scale(rq, -1)))
    assert_matches(-P, ref_scale(rp, -1))
    assert_matches(P * Q, ref_mul(rp, rq))
    assert_matches(P * s, ref_scale(rp, s))
    assert_matches(s * P, ref_scale(rp, s))
    assert_matches(P + s, ref_add(rp, ref({(0, 0): s})))
    assert_matches(s + P, ref_add(rp, ref({(0, 0): s})))
    assert_matches(s - P, ref_add(ref({(0, 0): s}), ref_scale(rp, -1)))
    power = {(0, 0): Fraction(1)}
    for _ in range(e):
        power = ref_mul(power, rp)
    assert_matches(P**e, power)
    if s:
        assert_matches(P / s, ref_scale(rp, 1 / Fraction(s)))
    else:
        with pytest.raises(ZeroDivisionError):
            P / s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=x_term_maps, y=x_term_maps, v=v_term_maps, w=v_term_maps, p=term_maps, s=scalars)
def test_x_and_v_kernels_match_fraction_reference(x, y, v, w, p, s):
    rx, ry, rv, rw, rp = ref(x), ref(y), ref(v), ref(w), ref(p)
    X, Y, V, W, P = build(XPoly, x), build(XPoly, y), build(VPoly, v), build(VPoly, w), ParamPoly(p)
    for A, B, ra, rb in ((X, Y, rx, ry), (V, W, rv, rw)):
        assert_matches(A, ra)
        assert_matches(A + B, ref_add(ra, rb))
        assert_matches(A - B, ref_add(ra, ref_scale(rb, -1)))
        assert_matches(-A, ref_scale(ra, -1))
        assert_matches(A * s, ref_scale(ra, s))
        assert_matches(s * A, ref_scale(ra, s))
        assert_matches(A * P, ref_mul(ra, rp, times_param))
        for a, b in [(A + B - B, A), (A * 2 - A, A), (A - A, type(A)())]:
            assert a == b and hash(a) == hash(b)
    assert_matches(X * Y, ref_mul(rx, ry))
    assert_matches(V.scale_x(X), ref_mul(rx, rv, times_x))


# the dense integer rows of the closed forms and the recurrence
int_term_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-50, 50), max_size=6
)


def param_of(dense, p: int = 1, q: int = 1) -> ParamPoly:
    """The canonical ParamPoly of dense * p / q, made as the hyper loops make theirs."""
    return _make(ParamPoly, {(): (dense * p).rows}, q)


def total_degree(poly: ParamPoly) -> int:
    """The largest e0 + e1 of poly's terms; zero's is -1."""
    return max((e0 + e1 for e0, e1 in dict(poly)), default=-1)


def assert_in_triangle(dense, degree: int) -> None:
    """Rows of a polynomial of total degree <= degree: at most degree + 1 of
    them, row e0 at most degree - e0 + 1 long."""
    assert len(dense.rows) <= degree + 1
    assert all(len(row) <= degree - e0 + 1 for e0, row in enumerate(dense.rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=int_term_maps, q=int_term_maps, s=st.integers(-30, 30), f=fractions.filter(bool), r=term_maps)
def test_dense_rows_match_the_sparse_product_and_sum(p, q, s, f, r):
    P, Q, R = ParamPoly(p), ParamPoly(q), ParamPoly(r)
    (A, den_a), (B, den_b) = (_Dense(P._rows), P._den), (_Dense(Q._rows), Q._den)
    assert den_a == den_b == 1
    dp, dq = total_degree(P), total_degree(Q)
    dpq = dp + dq if P and Q else -1  # the degree zero has is -1
    # ParamPoly's product runs on the rows, so products meet the reference
    pq = ref_mul(ref(p), ref(q))
    cases = [
        (A, dict(P), dp),
        (A + B, dict(P + Q), max(dp, dq)),
        (A - B, dict(P - Q), max(dp, dq)),
        (-A, dict(-P), dp),
        (A * B, pq, dpq),
        (B * A, pq, dpq),
        (A * s, dict(P * s), dp),
        (s * A, dict(P * s), dp),
        (A + s, dict(P + s), max(dp, 0)),
        (s + A, dict(P + s), max(dp, 0)),
        (A - s, dict(P - s), max(dp, 0)),
        (s - A, dict(s - P), max(dp, 0)),
        (A * B * B + s * A, ref_add(ref_mul(pq, ref(q)), ref_scale(ref(p), s)), max(dpq + dq, dp)),
    ]
    for got, want, degree in cases:
        assert_matches(param_of(got), want)
        assert_in_triangle(got, degree)
    # the conversion: one canonical ParamPoly of value * p / q
    p_, q_ = f.as_integer_ratio()
    assert_matches(param_of(A, p_, q_), ref_scale(ref(p), f))
    # any ParamPoly is integer rows over its denominator
    assert_matches(param_of(_Dense(R._rows), 1, R._den), ref(r))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=term_maps, q=term_maps, s=fractions.filter(bool))
def test_equal_values_built_differently_are_equal_and_hash_equal(p, q, s):
    P, Q = ParamPoly(p), ParamPoly(q)
    for a, b in [(P + Q - Q, P), ((P * s) / s, P), (P * Q, Q * P), (P + P, 2 * P), (P - P, ParamPoly.zero())]:
        assert a == b and hash(a) == hash(b)


def test_equal_values_built_differently_fixed_cases():
    pairs = [
        ((K0 + 1) ** 2, K0**2 + 2 * K0 + 1),
        ((K0 * Fraction(3, 7)) / Fraction(3, 7), K0),
        (ParamPoly({(0, 0): Fraction(2, 4)}), ONE / 2),
        ((K1 / 3 + Fraction(1, 6)) * 6, 2 * K1 + 1),
        (ParamPoly.const(0), ParamPoly.zero()),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert ParamPoly.const(Fraction(-3, 4)) == Fraction(-3, 4)
    assert ParamPoly.const(5) == 5


def test_printing_of_closed_forms_is_pinned():
    assert str(alpha_closed(3)) == (
        "5/16 - 15/28*k0 + 103/140*k1 - 463/1260*k0^2 - 2/5*k0*k1 + 1219/1260*k1^2"
        " + 34/105*k0^3 - 38/105*k0^2*k1 - 46/105*k0*k1^2 + 10/21*k1^3 + 41/315*k0^4"
        " + 8/105*k0^3*k1 - 2/5*k0^2*k1^2 - 8/105*k0*k1^3 + 17/63*k1^4 - 4/105*k0^5"
        " + 4/105*k0^4*k1 + 8/105*k0^3*k1^2 - 8/105*k0^2*k1^3 - 4/105*k0*k1^4"
        " + 4/105*k1^5 - 4/315*k0^6 + 4/105*k0^4*k1^2 - 4/105*k0^2*k1^4 + 4/315*k1^6"
    )
    assert str(beta_closed(3)) == (
        "-35/128 + 35/64*k0 - 1823/2240*k1 + 1891/10080*k0^2 + 299/560*k0*k1"
        " - 1219/1440*k1^2 - 1891/5040*k0^3 + 2287/5040*k0^2*k1 + 3151/5040*k0*k1^2"
        " - 517/720*k1^3 - 83/2520*k0^4 - 11/70*k0^3*k1 + 101/420*k0^2*k1^2"
        " + 13/70*k0*k1^3 - 17/72*k1^4 + 83/1260*k0^5 - 89/1260*k0^4*k1"
        " - 1/6*k0^3*k1^2 + 37/210*k0^2*k1^3 + 127/1260*k0*k1^4 - 19/180*k1^5"
        " + 1/630*k0^6 + 1/105*k0^5*k1 - 1/70*k0^4*k1^2 - 2/105*k0^3*k1^3"
        " + 1/42*k0^2*k1^4 + 1/105*k0*k1^5 - 1/90*k1^6 - 1/315*k0^7 + 1/315*k0^6*k1"
        " + 1/105*k0^5*k1^2 - 1/105*k0^4*k1^3 - 1/105*k0^3*k1^4 + 1/105*k0^2*k1^5"
        " + 1/315*k0*k1^6 - 1/315*k1^7"
    )
    assert str(s_inner_closed(2, "p14")) == (
        "-5/16 - 89/60*k1 + 259/180*k0^2 - 439/180*k1^2 + 26/15*k0^2*k1 - 2*k1^3"
        " - 7/9*k0^4 + 2*k0^2*k1^2 - 11/9*k1^4 - 4/15*k0^4*k1 + 8/15*k0^2*k1^3"
        " - 4/15*k1^5 + 4/45*k0^6 - 4/15*k0^4*k1^2 + 4/15*k0^2*k1^4 - 4/45*k1^6"
    )
