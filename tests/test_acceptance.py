"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Exact criteria compare polynomials in Q[k0, k1] with zero
tolerance; numeric criteria state their tolerance explicitly.
"""

import math
import random
from fractions import Fraction

from b2weight.hyper import (
    alpha_beta_recurrence,
    alpha_closed,
    asym_f_check,
    beta_closed,
    chu_vandermonde,
    euler_transform,
    gamma_fn,
    gauss_2f1,
    s_inner_closed,
    squeeze_check,
)
from b2weight.quad import sector_inner_numeric, singular_integral
from b2weight.ring import K0, K1, poly_eval
from b2weight.vpoly import (
    P12,
    P14,
    PHI,
    RADIUS_SQ,
    VPoly,
    alpha_beta_via_laplacian,
    alpha_prime_scale,
    beta_prime_scale,
    laplacian,
    laplacian_power,
    product_rule_residual,
)
from b2weight.weight import ParamPoint, det_k_closed_form, eval_K

ONE_PLUS = 1 + 2 * K1 + 2 * K0
ONE_MINUS = 1 + 2 * K1 - 2 * K0

MAIN_POINTS = [(0.3, 0.1), (-0.2, 0.25), (0.1, -0.3), (0.45, 0.0), (0.0, 0.45)]
NEAR_BOUNDARY = {(0.45, 0.0), (0.0, 0.45)}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_exact_sequence_identities():
    seq = alpha_beta_recurrence(8)
    ok = True
    for n in range(9):
        ok = ok and seq.alpha[n] == alpha_closed(n)
        ok = ok and seq.beta[n] == beta_closed(n)
        ok = ok and s_inner_closed(n, "p12") == seq.alpha[n] * ONE_PLUS
        ok = ok and s_inner_closed(n, "p14") == seq.beta[n] * ONE_PLUS
    report(1, "recurrence == closed forms == pairings, n <= 8, exact", ok)


def test_criterion_02_operator_route_identity():
    seq = alpha_beta_recurrence(8)
    ok = True
    detail = []
    for n in range(9):
        alpha_scaled, beta_scaled = alpha_beta_via_laplacian(n)
        ok_a = alpha_scaled == seq.alpha[n] * alpha_prime_scale(n)
        ok_b = beta_scaled == seq.beta[n] * beta_prime_scale(n)
        ok = ok and ok_a and ok_b
        if not (ok_a and ok_b):
            detail.append(f"n={n}")
    report(2, "iterated-Laplacian route == scaled recurrence, n <= 8, exact", ok,
           ", ".join(detail))


def test_criterion_03_operator_identities():
    rng = random.Random(101)
    ok = True
    invariants = [RADIUS_SQ, PHI * PHI, (PHI * PHI) * (PHI * PHI), RADIUS_SQ * RADIUS_SQ]
    partners = [P12, P14.scale_x(PHI)]
    for f in invariants:
        for g in partners:
            ok = ok and product_rule_residual(f, g).is_zero()
    for n in range(4):
        terms = {}
        for a in range(2 * n + 2):
            for s in (1, 2):
                terms[(a, 2 * n + 1 - a, s)] = rng.randint(-3, 3)
        f = VPoly(terms)
        lhs = laplacian_power(f.scale_x(RADIUS_SQ), n + 1)
        ok = ok and lhs == laplacian_power(f, n) * (4 * (n + 1) * (n + 2))
        lhs_even = laplacian(P12.scale_x(PHI ** (2 * n)))
        rhs_even = VPoly()
        if n:
            rhs_even = P14.scale_x(PHI ** (2 * n - 1)) * (-8 * n * ONE_PLUS) + P12.scale_x(
                RADIUS_SQ * PHI ** (2 * n - 2)
            ) * (8 * n * ((2 * n - 1) - 2 * K0))
        ok = ok and lhs_even == rhs_even
        lhs_odd = laplacian(P14.scale_x(PHI ** (2 * n + 1)))
        rhs_odd = P12.scale_x(PHI ** (2 * n)) * (-4 * (2 * n + 1) * ONE_MINUS)
        if n:
            rhs_odd = rhs_odd + P14.scale_x(RADIUS_SQ * PHI ** (2 * n - 1)) * (
                8 * n * ((2 * n + 1) + 2 * K0)
            )
        ok = ok and lhs_odd == rhs_odd
    report(3, "product rule, radius collapse, and step identities, exact", ok)


def test_criterion_04_main_theorem_numeric():
    ok = True
    worst = 0.0
    for k0, k1 in MAIN_POINTS:
        point = ParamPoint(k0, k1)
        rel_tol = 1e-6 if (k0, k1) in NEAR_BOUNDARY else 1e-8
        q0, q1 = Fraction(str(k0)), Fraction(str(k1))
        for n in range(5):
            for kind in ("p12", "p14"):
                got = sector_inner_numeric(n, kind, point, tol=1e-9)
                want = float(poly_eval(s_inner_closed(n, kind), q0, q1))
                rel = abs(got.value - want) / abs(want)
                worst = max(worst, rel)
                ok = ok and rel <= rel_tol
    report(4, "sector quadrature == exact closed form at 5 points, n <= 4",
           ok, f"worst rel {worst:.2e}")


def test_criterion_05_determinant_constant():
    rng = random.Random(20130607)
    ok = True
    worst = 0.0
    count = 0
    while count < 100:
        p = ParamPoint(rng.uniform(-0.49, 0.49), rng.uniform(-0.49, 0.49))
        if not p.positive_definite:
            continue
        theta = rng.uniform(1e-2, math.pi / 4 - 1e-2)
        ev = eval_K(theta, p)
        err = abs(ev.det_k - det_k_closed_form(p))
        worst = max(worst, err)
        ok = ok and err <= 1e-10
        count += 1
    report(5, "det K matches its closed form at 100 random points, 1e-10",
           ok, f"worst {worst:.2e}")


def test_criterion_06_asymptotics():
    ok = True
    points = [(0.3, 0.1), (-0.2, 0.25), (0.1, -0.25), (0.2, 0.2), (-0.15, -0.25)]
    for k0, k1 in points:
        small = asym_f_check(200, k0, k1)
        large = asym_f_check(2000, k0, k1)
        for v in (*small, *large):
            ok = ok and 0.9 <= v <= 1.1
        ok = ok and abs(large[0] - 1) < abs(small[0] - 1)
        ok = ok and abs(large[1] - 1) < abs(small[1] - 1)
    report(6, "normalized sums approach their asymptotes", ok)


def test_criterion_07_squeeze_orderings():
    rng = random.Random(7)
    ok = True
    rep = squeeze_check(10, Fraction(3, 5), Fraction(-2, 7), Fraction(0))
    ok = ok and rep.plain_sum == rep.middle == rep.shifted_sum == 1
    triples = []
    while len(triples) < 20:
        a = Fraction(rng.randint(1, 19), 20)
        b = Fraction(-rng.randint(1, 19), 20)
        c = Fraction(rng.randint(-15, 25), 20)
        if 0 < a < 1 and -1 < b < 0 and c > -1:
            triples.append((a, b, c))
    for a, b, c in triples:
        for n in (1, 3, 10, 25, 50):
            ok = ok and squeeze_check(n, a, b, c).chain_holds
    report(7, "both squeeze orderings hold exactly, n <= 50, 20 triples", ok)


def test_criterion_08_terminating_sum_identity():
    rng = random.Random(8)
    ok = True
    done = 0
    while done < 20:
        k1 = Fraction(rng.randint(-40, 40), rng.randint(1, 16))
        if 2 * k1 == int(2 * k1) and -51 <= 2 * k1 <= -1:
            continue
        for n in range(0, 51, 5):
            lhs, rhs = chu_vandermonde(n, k1)
            ok = ok and lhs == rhs
        done += 1
    report(8, "terminating-sum identity exact, n <= 50, 20 rational parameters", ok)


def test_criterion_09_quadrature_engine_self_test():
    import numpy as np

    cases = [
        (-0.5, -0.5, math.pi),
        (0.0, 0.0, 1.0),
        (0.5, 0.5, math.pi / 8),
        (0.3, -0.4, gamma_fn(1.3) * gamma_fn(0.6) / gamma_fn(1.9)),
        (2.0, 3.0, gamma_fn(3.0) * gamma_fn(4.0) / gamma_fn(7.0)),
    ]
    ok = True
    worst = 0.0
    for alpha, beta, expected in cases:
        got = singular_integral(alpha, beta, lambda v: np.ones_like(v), tol=1e-13)
        err = abs(got.value - expected)
        worst = max(worst, err)
        ok = ok and err <= 1e-12
    report(9, "Beta-integral self-tests within 1e-12", ok, f"worst {worst:.2e}")


def test_criterion_10_series_layer_identities():
    rng = random.Random(10)
    ok = True

    def admissible():
        while True:
            a = rng.uniform(-1.8, 1.8)
            b = rng.uniform(-1.8, 1.8)
            c = rng.uniform(0.4, 2.5)
            z = rng.uniform(0.0, 0.9)
            if min(abs(a - round(a)), abs(b - round(b))) < 0.05 and (a < 0.5 or b < 0.5):
                continue
            if abs((c - a - b) - round(c - a - b)) < 0.06:
                continue
            return a, b, c, z

    for _ in range(50):
        a, b, c, z = admissible()
        f = gauss_2f1(a, b, c, z, tol=1e-11)
        f_up = gauss_2f1(a + 1, b, c + 1, z, tol=1e-11)
        f_bm = gauss_2f1(a, b - 1, c, z, tol=1e-11)
        f_cp = gauss_2f1(a, b, c + 1, z, tol=1e-11)
        scale = 1 + abs(f.value) + abs(f_up.value)
        slack = f.tail_bound + abs(a / c) * f_up.tail_bound + 1e-13 * scale
        ok = ok and abs(f.value - (a / c) * z * f_up.value - f_bm.value) <= (
            slack + f_bm.tail_bound
        )
        ok = ok and abs(
            f.value - (a / c) * f_up.value - ((c - a) / c) * f_cp.value
        ) <= slack + abs((c - a) / c) * f_cp.tail_bound
        # Euler transform round trip within combined bounds
        a2, b2, c2, z2, pref = euler_transform(a, b, c, z)
        direct = gauss_2f1(a, b, c, z, tol=1e-11)
        transformed = gauss_2f1(a2, b2, c2, z2, tol=1e-11)
        combined = direct.tail_bound + pref * transformed.tail_bound + 1e-13 * scale
        ok = ok and abs(direct.value - pref * transformed.value) <= combined
    report(10, "contiguous identities and transform round trip within bounds", ok)
