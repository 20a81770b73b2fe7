"""Group action, modified derivatives, and the operator-route sequences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weight import vpoly
from b2weight.errors import InexactDivisionError, InvarianceError
from b2weight.hyper import alpha_beta_recurrence, s_inner_closed
from b2weight.ring import K0, K1, ParamPoly, poly_eval
from b2weight.vpoly import (
    ALL_ELEMENTS,
    IDENTITY,
    P12,
    P14,
    PHI,
    RADIUS_SQ,
    REFLECTIONS,
    SIGMA_1,
    SIGMA_D_PLUS,
    VPoly,
    X1,
    X2,
    XPoly,
    alpha_beta_via_laplacian,
    alpha_prime_scale,
    beta_prime_scale,
    divide_by_linear,
    dunkl_d,
    group_act,
    laplacian,
    laplacian_power,
    product_rule_residual,
)

ONE_PLUS = 1 + 2 * K1 + 2 * K0
ONE_MINUS = 1 + 2 * K1 - 2 * K0


def random_vpoly(rng: random.Random, max_deg: int = 4, n_terms: int = 5) -> VPoly:
    terms = {}
    for _ in range(n_terms):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a)
        s = rng.choice((1, 2))
        terms[(a, b, s)] = rng.randint(-4, 4)
    return VPoly(terms)


def random_homogeneous(rng: random.Random, degree: int) -> VPoly:
    terms = {}
    for a in range(degree + 1):
        for s in (1, 2):
            terms[(a, degree - a, s)] = rng.randint(-3, 3)
    return VPoly(terms)


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


def times(m, n):
    """The product of two row-major 2x2 matrices, as nested tuples."""
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def test_group_closure_and_order():
    matrices = {w.matrix for w in ALL_ELEMENTS}
    assert len(matrices) == 8
    for u in ALL_ELEMENTS:
        for v in ALL_ELEMENTS:
            assert times(u.matrix, v.matrix) in matrices


def test_reflections_are_involutions():
    for w in REFLECTIONS:
        assert times(w.matrix, w.matrix) == IDENTITY.matrix


def test_group_act_examples():
    f = random_vpoly(random.Random(5))
    assert group_act(IDENTITY, f) == f
    assert group_act(SIGMA_1, P12) == -1 * P12
    # swapping coordinates negates phi and moves slot 1 to slot 2
    phi_t1 = VPoly({(2, 0, 1): 1, (0, 2, 1): -1})
    phi_t2 = VPoly({(2, 0, 2): 1, (0, 2, 2): -1})
    assert group_act(SIGMA_D_PLUS, phi_t1) == -1 * phi_t2


def test_p12_and_p14_are_relative_invariants_of_the_same_type():
    for f in (P12, P14):
        assert group_act(SIGMA_1, f) == -1 * f
    assert group_act(SIGMA_D_PLUS, P12) == -1 * P12
    # p14 itself flips under the diagonal only together with one phi factor
    assert group_act(SIGMA_D_PLUS, P14.scale_x(PHI)) == -1 * P14.scale_x(PHI)


def test_group_act_is_a_left_action():
    rng = random.Random(7)
    fs = [random_vpoly(rng, max_deg=5, n_terms=7) for _ in range(3)]
    by_matrix = {w.matrix: w for w in ALL_ELEMENTS}
    for u in ALL_ELEMENTS:
        for v in ALL_ELEMENTS:
            uv = by_matrix[times(u.matrix, v.matrix)]
            for f in fs:
                assert group_act(uv, f) == group_act(u, group_act(v, f)), (u.name, v.name)


# ---------------------------------------------------------------------------
# the VPoly surface
# ---------------------------------------------------------------------------


def test_vpoly_rejects_slots_other_than_one_and_two():
    for s in (0, 3):
        with pytest.raises(ValueError):
            VPoly({(0, 0, s): 1})


def test_vpoly_terms_drop_zero_coefficients():
    f = VPoly({(1, 0, 1): 0, (0, 1, 2): 3, (2, 0, 2): K0 - K0, (0, 0, 1): Fraction(1, 2)})
    assert f.terms == {(0, 1, 2): ParamPoly.const(3), (0, 0, 1): ParamPoly.const(Fraction(1, 2))}
    assert VPoly({(0, 0, 1): 0}).is_zero()
    assert (P12 - P12).terms == {}


def test_vpoly_from_components_round_trip():
    rng = random.Random(13)
    for f in [P12, P14, VPoly()] + [random_vpoly(rng) for _ in range(10)]:
        assert VPoly.from_components(f.component(1), f.component(2)) == f
    assert P12.component(1) == -1 * X2
    assert P12.component(2) == X1


def test_vpoly_repr_is_pinned():
    assert repr(P14.scale_x(PHI)) == (
        "VPoly((1)*x1^0*x2^3*t1 + (1)*x1^1*x2^2*t2"
        " + (-1)*x1^2*x2^1*t1 + (-1)*x1^3*x2^0*t2)"
    )
    assert repr(VPoly()) == "VPoly(0)"


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_divide_by_linear_round_trip():
    rng = random.Random(11)
    forms = {(1, 0): X1, (0, 1): X2, (1, 1): X1 + X2, (1, -1): X1 - X2}
    for root, linear in forms.items():
        for _ in range(25):
            q = random_vpoly(rng).component(1)
            assert divide_by_linear(q * linear, root) == q


def test_divide_by_linear_rejects_inexact():
    with pytest.raises(InexactDivisionError):
        divide_by_linear(X1 + X2, (1, 0))
    with pytest.raises(InexactDivisionError):
        divide_by_linear(X1 * X1, (1, -1))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------


def eval_vpoly(f: VPoly, k0, k1) -> dict:
    return {key: poly_eval(c, k0, k1) for key, c in f.terms.items()}


def test_dunkl_basic_values():
    # pure derivative once the weights are switched off
    d = dunkl_d(1, VPoly({(1, 0, 1): 1}))
    assert eval_vpoly(d, 0, 0) == {(0, 0, 1): Fraction(1)}
    # constant scalar part: no derivative, no divided differences
    assert dunkl_d(2, VPoly({(0, 0, 1): 1})).is_zero()
    # the quadratic example, exact in the parameters
    d = dunkl_d(1, VPoly({(2, 0, 1): 1}))
    assert d == VPoly({(1, 0, 1): 2, (0, 1, 2): 2 * K0})


def test_dunkl_operators_commute():
    rng = random.Random(17)
    for _ in range(10):
        f = random_vpoly(rng, max_deg=4)
        assert dunkl_d(1, dunkl_d(2, f)) == dunkl_d(2, dunkl_d(1, f))


def dunkl_laplacian(f: VPoly) -> VPoly:
    """The modified Laplacian as the composition of the first-order operators."""
    return dunkl_d(1, dunkl_d(1, f)) + dunkl_d(2, dunkl_d(2, f))


def test_laplacian_matches_dunkl_composition_on_every_monomial():
    for degree in range(19):
        for a in range(degree + 1):
            for s in (1, 2):
                f = VPoly({(a, degree - a, s): 1})
                assert laplacian(f) == dunkl_laplacian(f), (a, degree - a, s)


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
param_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions, min_size=1, max_size=4
).map(ParamPoly)
vpoly_terms = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, 2])),
    st.one_of(fractions, param_coeffs),
    max_size=8,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(terms=vpoly_terms)
def test_laplacian_matches_dunkl_composition_on_random_vpolys(terms):
    # mixed degrees, Fraction and non-constant ParamPoly coefficients over
    # different denominators
    f = VPoly(terms)
    assert laplacian(f) == dunkl_laplacian(f)


def test_laplacian_of_zero_and_of_mixed_degrees():
    assert laplacian(VPoly()) == VPoly()
    assert laplacian(VPoly({(0, 0, 1): 3, (1, 0, 2): K0})).is_zero()
    f = VPoly({(3, 0, 1): Fraction(1, 3), (0, 2, 2): K0 / 5, (4, 3, 1): 1 - K1, (1, 1, 2): 7})
    assert laplacian(f) == dunkl_laplacian(f)
    assert laplacian(f) == sum(
        (laplacian(VPoly({key: c})) for key, c in f.terms.items()), VPoly()
    )


def test_operator_route_does_not_depend_on_cache_state():
    def run(order):
        vpoly._monomial_image.cache_clear()
        return {n: alpha_beta_via_laplacian(n) for n in order}

    cold = run(range(9))
    warm = {n: alpha_beta_via_laplacian(n) for n in range(9)}
    reversed_order = run(range(8, -1, -1))
    assert cold == warm == reversed_order


def test_laplacian_kills_degree_one_carrier():
    assert laplacian(P12).is_zero()
    assert laplacian(P14).is_zero()


def test_laplacian_anchor_identity_degree_three():
    got = laplacian(P14.scale_x(PHI))
    assert got == P12 * (-1 * ONE_MINUS * 4)


def test_laplacian_anchor_identity_degree_five():
    got = laplacian(P12.scale_x(PHI * PHI))
    expected = P14.scale_x(PHI) * (-8 * ONE_PLUS) + P12.scale_x(RADIUS_SQ) * (
        8 * (1 - 2 * K0)
    )
    assert got == expected


def test_laplacian_drops_degree_by_two():
    rng = random.Random(23)
    for deg in (2, 3, 5):
        f = random_homogeneous(rng, deg)
        out = laplacian(f)
        if not out.is_zero():
            assert {a + b for a, b, _s in out.terms} == {deg - 2}


def test_laplacian_commutes_with_group_action():
    rng = random.Random(29)
    for _ in range(6):
        f = random_vpoly(rng, max_deg=6, n_terms=6)
        for w in ALL_ELEMENTS:
            assert laplacian(group_act(w, f)) == group_act(w, laplacian(f))


def test_radius_squared_commutation_rule():
    # L(|x|^2 g) = 4(m+1) g + |x|^2 L(g) for homogeneous g of degree m
    rng = random.Random(31)
    for m in range(7):
        g = random_homogeneous(rng, m)
        lhs = laplacian(g.scale_x(RADIUS_SQ))
        rhs = g * (4 * (m + 1)) + laplacian(g).scale_x(RADIUS_SQ)
        assert lhs == rhs


def test_iterated_radius_collapse():
    # L^(n+1)(|x|^2 f) = 4(n+1)(n+2) L^n f for f homogeneous of degree 2n+1
    rng = random.Random(37)
    for n in range(4):
        f = random_homogeneous(rng, 2 * n + 1)
        lhs = laplacian_power(f.scale_x(RADIUS_SQ), n + 1)
        rhs = laplacian_power(f, n) * (4 * (n + 1) * (n + 2))
        assert lhs == rhs


def test_product_rule_residual_is_zero():
    rng = random.Random(41)
    invariants = [
        RADIUS_SQ,
        PHI * PHI,
        (PHI * PHI) * (PHI * PHI),
        RADIUS_SQ * RADIUS_SQ,
    ]
    partners = [P12, P14.scale_x(PHI), random_vpoly(rng, max_deg=3)]
    for f in invariants:
        for g in partners:
            assert product_rule_residual(f, g).is_zero()


def test_product_rule_rejects_non_invariant_factor():
    with pytest.raises(InvarianceError):
        product_rule_residual(PHI, P12)  # phi flips sign under the swap


def test_step_identities_for_phi_powers():
    # one Laplacian step on phi^(2n) p12 and phi^(2n+1) p14, n <= 3
    for n in range(4):
        lhs_even = laplacian(P12.scale_x(PHI ** (2 * n)))
        rhs_even = VPoly()
        if n:
            rhs_even = P14.scale_x(PHI ** (2 * n - 1)) * (-8 * n * ONE_PLUS) + P12.scale_x(
                RADIUS_SQ * PHI ** (2 * n - 2)
            ) * (8 * n * ((2 * n - 1) - 2 * K0))
        assert lhs_even == rhs_even

        lhs_odd = laplacian(P14.scale_x(PHI ** (2 * n + 1)))
        rhs_odd = P12.scale_x(PHI ** (2 * n)) * (-4 * (2 * n + 1) * ONE_MINUS)
        if n:
            rhs_odd = rhs_odd + P14.scale_x(RADIUS_SQ * PHI ** (2 * n - 1)) * (
                8 * n * ((2 * n + 1) + 2 * K0)
            )
        assert lhs_odd == rhs_odd


# ---------------------------------------------------------------------------
# the operator route to the sequences
# ---------------------------------------------------------------------------


def test_laplacian_power_collapses_to_carrier():
    assert laplacian_power(P12, 1).is_zero()
    h = P14.scale_x(PHI)
    assert laplacian_power(h.scale_x(RADIUS_SQ), 2) == laplacian(h) * 24
    seq = alpha_beta_recurrence(1)
    expected = P12 * (seq.alpha[1] * alpha_prime_scale(1))
    assert laplacian_power(P12.scale_x(PHI * PHI), 2) == expected


def test_alpha_beta_via_laplacian_seed():
    alpha0, beta0 = alpha_beta_via_laplacian(0)
    assert alpha0 == 1
    assert beta0 == -4 * ONE_MINUS


def test_alpha_beta_via_laplacian_wallis_point():
    alpha1, _beta1 = alpha_beta_via_laplacian(1)
    assert poly_eval(alpha1, 0, 0) == 96  # (1/2) * 2^4 * 2! * 3!


def test_operator_route_matches_recurrence():
    seq = alpha_beta_recurrence(8)
    for n in range(9):
        alpha_scaled, beta_scaled = alpha_beta_via_laplacian(n)
        assert alpha_scaled == seq.alpha[n] * alpha_prime_scale(n), f"alpha n={n}"
        assert beta_scaled == seq.beta[n] * beta_prime_scale(n), f"beta n={n}"


def _sphere_pairings(n: int) -> tuple[ParamPoly, ParamPoly]:
    """The two sphere-pairing values by the operator route: alpha_n and
    beta_n, unscaled, times the anchor 1 + 2k1 + 2k0."""
    alpha_scaled, beta_scaled = alpha_beta_via_laplacian(n)
    return (
        alpha_scaled / alpha_prime_scale(n) * ONE_PLUS,
        beta_scaled / beta_prime_scale(n) * ONE_PLUS,
    )


def test_inner_product_backends_agree():
    # the operator route, the two-term recurrence times the anchor and the
    # closed form give the same element of Q[k0, k1]
    seq = alpha_beta_recurrence(4)
    for n in range(5):
        p12, p14 = _sphere_pairings(n)
        assert p12 == seq.alpha[n] * ONE_PLUS == s_inner_closed(n, "p12"), f"p12 n={n}"
        assert p14 == seq.beta[n] * ONE_PLUS == s_inner_closed(n, "p14"), f"p14 n={n}"


def test_inner_product_past_the_checked_depth():
    # no cap on n: the operator route goes on matching the closed forms
    for n in (vpoly.OPERATOR_NMAX + 1, vpoly.OPERATOR_NMAX + 2):
        p12, p14 = _sphere_pairings(n)
        assert p12 == s_inner_closed(n, "p12"), f"p12 n={n}"
        assert p14 == s_inner_closed(n, "p14"), f"p14 n={n}"


def test_operator_route_applies_the_laplacian_4n_plus_1_times(count_calls):
    # 2n times to phi^(2n) p12 and 2n + 1 times to phi^(2n+1) p14
    calls = count_calls(vpoly, "laplacian")
    for n in range(6):
        calls.clear()
        alpha_beta_via_laplacian(n)
        assert len(calls) == 4 * n + 1, n
