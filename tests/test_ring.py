"""Ring axioms and exact evaluation for Q[k0, k1]."""

import random
from fractions import Fraction

import pytest

from b2weight.ring import K0, K1, ONE, ParamPoly, poch, poly_eval


def random_poly(rng: random.Random, max_deg: int = 3, max_terms: int = 5) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return ParamPoly(terms)


def test_construction_drops_zero_coefficients():
    p = ParamPoly({(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): Fraction(2)}
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


def test_degree_and_constants():
    assert (K0 * K1**2).degree() == 3
    assert ParamPoly.zero().degree() == -1
    assert ParamPoly.const(5).constant_value() == 5
    with pytest.raises(ValueError):
        K0.constant_value()


def test_printing_is_deterministic_graded_lex():
    p = K1 + K0 + 1 + K0 * K0
    assert str(p) == "1 + k0 + k1 + k0^2"
    assert str(ParamPoly.zero()) == "0"
    assert str(-2 * K1) == "-2*k1"
