"""Quadrature engine self-tests and the numeric route to the pairings."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from b2weight import hyper, quad
from b2weight.errors import RegionError, ToleranceError
from b2weight.hyper import _H_PARAMS, _gauss_2f1_rows, gamma_fn, s_inner_closed
from b2weight.quad import (
    QuadResult,
    _DIRECT_RULE_CACHE,
    _H_POINT_CACHE,
    _direct_rule,
    _h_point,
    _h_rule,
    _tanh_sinh_nodes,
    sector_inner_numeric,
    singular_integral,
    tanh_sinh,
)
from b2weight.ring import poly_eval
from b2weight.weight import ParamPoint, eval_K


def const_one(v):
    return np.ones_like(v)


def _on_nodes(g):
    """A tanh-sinh integrand of the level from one g(v, s) of the level's nodes."""
    return lambda level: g(*_tanh_sinh_nodes(level)[:2])


def test_beta_integral_halves():
    res = singular_integral(-0.5, -0.5, const_one, tol=1e-12)
    assert abs(res.value - math.pi) <= 1e-12
    assert res.error_estimate >= 0 and res.nodes >= 1


def test_beta_integral_unit():
    res = singular_integral(0.0, 0.0, const_one, tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-13


def test_beta_integral_generic_exponents():
    res = singular_integral(0.3, -0.4, const_one, tol=1e-12)
    expected = gamma_fn(1.3) * gamma_fn(0.6) / gamma_fn(1.9)
    assert abs(res.value - expected) <= 1e-12


def test_singular_integral_polynomial_smooth():
    # v^0.5 (1-v)^0.25 * v -> Beta(2.5, 1.25)
    res = singular_integral(0.5, 0.25, lambda v: v, tol=1e-12)
    expected = gamma_fn(2.5) * gamma_fn(1.25) / gamma_fn(3.75)
    assert abs(res.value - expected) <= 1e-12


def _assert_estimates_bound_the_error(alphas, betas):
    # zero slack against 40-digit oracles, at the float exponents as given:
    # B(a+1, b+1) for smooth = 1 and Re B(a+1, b+1) 1F1(a+1; a+b+2; 3i) for
    # smooth = cos 3v; the rounding of the weighted sum is part of the error
    with mpmath.workdps(40):
        for alpha in alphas:
            for beta in betas:
                a1, b1 = mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1
                beta_fn = mpmath.beta(a1, b1)
                oscillating = mpmath.re(beta_fn * mpmath.hyp1f1(a1, a1 + b1, 3j))
                for smooth, exact in ((const_one, beta_fn), (lambda v: np.cos(3.0 * v), oscillating)):
                    got = singular_integral(alpha, beta, smooth, tol=1e-12)
                    error = abs(mpmath.mpf(got.value) - exact)
                    assert error <= got.error_estimate, (alpha, beta, float(error), got.error_estimate)


def test_singular_integral_error_estimate_bounds_the_error():
    _assert_estimates_bound_the_error(
        (-0.9, -0.5, -0.3, 0.0, 0.3, 0.5, 0.9, 2.5), (-0.9, -0.4, 0.0, 0.6, 1.7, 20.2)
    )


def test_singular_integral_error_estimate_bounds_the_error_at_large_beta():
    # endpoint powers up to 800.2: the weight's exponent beta log s reaches
    # about -6e5 at the outermost nodes, and its rounding is part of the error
    _assert_estimates_bound_the_error(
        (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9, 2.5), (50.2, 100.2, 200.0, 400.2, 800.2)
    )


def test_stacked_gauss_jacobi_rules_equal_single_rules():
    # one stacked build gives every rule the bits of a build of its own pair:
    # generic exponents, the Chebyshev-type s = alpha + beta = -1 of the
    # j = 1 coefficient, and the deep endpoint powers of beta up to 800.2
    rng = random.Random(26)
    stacks = [
        [(0.3, -0.4), (-0.5, -0.5), (1.7, 2.9)],
        [(-0.25, -0.75), (-0.9, -0.1), (0.6, 0.4)],
        [(0.2, 800.2), (-0.45, 361.0), (0.0, 0.0)],
        [(rng.uniform(-0.99, 3.0), rng.uniform(-0.99, 3.0)) for _ in range(5)],
    ]
    for size, exponents in itertools.product((24, 48, 96), stacks):
        nodes, weights = quad._gauss_jacobi_01(size, exponents)
        assert nodes.shape == weights.shape == (len(exponents), size)
        for pair, x, w in zip(exponents, nodes, weights):
            (x_alone,), (w_alone,) = quad._gauss_jacobi_01(size, [pair])
            assert (x.tobytes(), w.tobytes()) == (x_alone.tobytes(), w_alone.tobytes()), (size, pair)


def test_singular_integral_rejects_bad_exponents():
    with pytest.raises(RegionError):
        singular_integral(-1.0, 0.0, const_one)
    with pytest.raises(RegionError):
        singular_integral(0.0, -1.5, const_one)


def test_non_finite_exponents_are_refused_before_any_work():
    # a NaN exponent passed the comparison with -1 and an infinite one
    # overflowed the weight: both ran the rule to a ToleranceError after a
    # RuntimeWarning
    evaluated = []

    def smooth(v):
        evaluated.append(v)
        return np.ones_like(v)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (math.nan, math.inf, -math.inf):
            for alpha, beta in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(RegionError, match="finite"):
                    singular_integral(alpha, beta, smooth)
    assert evaluated == []


def test_singular_integral_computes_declared_and_undeclared_endpoint_powers():
    # tanh-sinh integrates an endpoint kink left in the smooth factor, and
    # the same power declared as an exponent, within their estimates
    for beta, smooth in ((0.5, const_one), (0.0, lambda v: (1 - v) ** 0.5)):
        res = singular_integral(0.0, beta, smooth, tol=1e-12)
        assert abs(res.value - 2.0 / 3.0) <= res.error_estimate <= 1e-12


def test_singular_integral_near_minus_one_counts_the_mass_past_its_nodes():
    # at exponents near -1 the mass beyond the outermost tanh-sinh nodes
    # exceeds the refinement difference; nearer -1 the weight overflows there
    with mpmath.workdps(40):
        for alpha, beta in ((-0.97, 0.5), (0.5, -0.97), (-0.97, -0.96)):
            got = singular_integral(alpha, beta, const_one, tol=1e-9)
            exact = mpmath.beta(mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1)
            assert abs(mpmath.mpf(got.value) - exact) <= got.error_estimate, (alpha, beta)
    for alpha, beta in ((-0.99, 0.0), (0.0, -0.99)):
        with pytest.raises(ToleranceError, match="overflows"):
            singular_integral(alpha, beta, const_one, tol=1e-12)


def test_singular_integral_builds_no_gauss_jacobi_rule(count_calls):
    solves = count_calls(np.linalg, "eigh")
    singular_integral(0.3, -0.4, const_one, tol=1e-12)
    singular_integral(0.25, 800.2, const_one, tol=1e-12)
    assert solves == []


def test_singular_integral_never_accepts_a_non_finite_value():
    # infinite from the first level on; inf - previous is within any
    # tolerance relative to |inf|, so the stop test alone could pass it
    with pytest.raises(ToleranceError):
        singular_integral(0.0, 0.0, lambda v: np.where(v > 0.999, np.inf, 1.0))


def test_direct_mode_never_accepts_a_non_finite_value():
    # inside the positive-definite region; the integrand overflows near the
    # end of the tanh-sinh range there, at u = 0 for k1 near 1/2 and at u = 1
    # for k0 near 1/2, and mode direct refuses without a RuntimeWarning
    for k0, k1 in ((0.0, 0.489), (0.49, 0.0)):
        p = ParamPoint(k0, k1)
        assert p.positive_definite
        with pytest.raises(ToleranceError, match="overflows near a sector edge"):
            sector_inner_numeric(0, "p12", p, mode="direct")


def test_tanh_sinh_handles_endpoint_singularities():
    # int_0^1 v^(-1/2) (1-v)^(-1/2) dv = pi, 1 - v passed exactly
    def f(v, s):
        return 1.0 / np.sqrt(v * s), 0.0

    res = tanh_sinh(_on_nodes(f), tol=1e-12)
    assert abs(res.value - math.pi) <= 1e-11
    assert isinstance(res, QuadResult)


def test_tanh_sinh_calls_the_integrand_once_per_level():
    # one call per level, in order, each counted by the nodes that level adds
    def counted(integrand):
        levels = []

        def f(level):
            levels.append(level)
            v = _tanh_sinh_nodes(level)[0]
            return integrand(v), np.zeros_like(v)

        return f, levels

    f, levels = counted(np.ones_like)
    res = tanh_sinh(f, tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-12
    # the rule cannot stop before level 3
    assert levels == [0, 1, 2, 3]
    sizes = [_tanh_sinh_nodes(level).shape[1] for level in levels]
    assert sum(sizes) == res.nodes
    # a jump at an irrational point never converges: all ten levels run
    f, levels = counted(lambda v: (v < 1 / math.sqrt(2)).astype(float))
    with pytest.raises(ToleranceError):
        tanh_sinh(f, tol=1e-14)
    assert levels == list(range(10))
    sizes = [_tanh_sinh_nodes(level).shape[1] for level in levels]
    assert all(later > earlier for earlier, later in zip(sizes[1:], sizes[2:]))


def test_tanh_sinh_node_tables_are_built_once_and_read_only():
    table = _tanh_sinh_nodes(4)
    assert _tanh_sinh_nodes(4) is table and not table.flags.writeable

    # a write to a level's nodes raises, so no integrand changes another's
    def scribble(level):
        v, s, _ = _tanh_sinh_nodes(level)
        v[:] = 0.5
        return np.sqrt(v * s), 0.0

    with pytest.raises(ValueError, match="read-only"):
        tanh_sinh(scribble)


def _edge_mass_reference(p, d1, d2, phi_power, u_c, s_c):
    """``quad._edge_mass`` written out apart, with its near-one power as 2^p s_c^(p + 1 - 2|k0|)."""
    k0, k1 = abs(p.k0), p.k1
    row1 = abs(d1) * (1.0 + k0 / (0.5 + k1)) ** 2 * u_c ** (3.0 + 2.0 * k1) / (3.0 + 2.0 * k1)
    row2 = abs(d2) * u_c ** (1.0 - 2.0 * k1) / (1.0 - 2.0 * k1)
    ratio = gamma_fn(1.0 + 2.0 * k0) / (2.0 * gamma_fn(1.0 + k0))
    g_plus = ratio * gamma_fn(0.5 + k1) / gamma_fn(0.5 + k1 + k0)
    g_minus = ratio * gamma_fn(0.5 - k1) / gamma_fn(0.5 - k1 + k0)
    power = phi_power - 2.0 * k0
    near_one = (abs(d1) * (1.0 + g_plus) ** 2 + abs(d2) * (1.0 + g_minus) ** 2) * 2.0**phi_power
    return row1 + row2 + near_one * s_c ** (power + 1.0) / (power + 1.0)


def test_direct_pairings_at_a_cached_point_compute_only_the_edge_gammas(count_calls):
    # d1, d2 and the rule's parts are kept per point; the edge bound's six
    # gamma values are not: repeating the pairings at a point gives the same
    # bits and calls gamma_fn six times a pairing, and each point reads its
    # own values (with corners at 1/2 and d1 != d2 the bound is large enough,
    # and tells g_+ from g_-, for them to show)
    points = [ParamPoint(0.2113, -0.1307), ParamPoint(-0.2113, 0.1307), ParamPoint(0.1307, 0.2113)]
    pairings = [(n, kind) for n in (0, 3, 7) for kind in ("p12", "p14")]
    edge = (1.0, 2.0, 3, 0.5, 0.5)

    def sweep(p):
        results = [_bits(sector_inner_numeric(n, kind, p, mode="direct")) for n, kind in pairings]
        return results, quad._edge_mass(p, *edge)

    cold = [sweep(p) for p in points]
    calls = count_calls(hyper, "gamma_fn")
    warm = [sweep(p) for p in points]
    assert len(calls) == 6 * (len(pairings) + 1) * len(points) and warm == cold
    assert [mass for _, mass in warm] == [_edge_mass_reference(p, *edge) for p in points]


def test_tanh_sinh_refuses_a_non_finite_value_or_estimate():
    # a bound that is NaN, everywhere or only at the outermost nodes, or
    # infinite must not come back as the error estimate; a value that is not
    # finite is refused by the rule itself, whatever the integrand checks
    integrands = [
        _on_nodes(lambda v, s: (np.ones_like(v), np.full_like(v, np.nan))),
        _on_nodes(lambda v, s: (np.ones_like(v), np.where(v < 1e-200, np.nan, 0.0))),
        _on_nodes(lambda v, s: (np.ones_like(v), np.inf)),
        _on_nodes(lambda v, s: (np.where(v < 1e-200, np.inf, 1.0), 0.0)),
        _on_nodes(lambda v, s: (np.where(s < 1e-3, np.nan, 1.0), 0.0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for f in integrands:
            with pytest.raises(ToleranceError, match="tanh-sinh rule of [0-9]+ nodes gave"):
                tanh_sinh(f)


def test_mode_h_refuses_a_non_finite_error_term(monkeypatch):
    rule = quad._h_rule

    def unbounded(*args):
        *arrays, hprod_bound = rule(*args)
        return (*arrays, np.full_like(hprod_bound, np.inf))

    monkeypatch.setattr(quad, "_h_rule", unbounded)
    with pytest.raises(ToleranceError, match="Gauss-Jacobi rule of 24 nodes gave"):
        sector_inner_numeric(0, "p12", ParamPoint(0.3, 0.1))


ACCEPTANCE_POINTS = [(0.3, 0.1), (-0.2, 0.25), (0.1, -0.3), (0.45, 0.0), (0.0, 0.45)]


def exact_pairing(n: int, kind: str, k0: str, k1: str) -> float:
    return float(poly_eval(s_inner_closed(n, kind), Fraction(k0), Fraction(k1)))


def test_sector_pairing_wallis_values():
    p = ParamPoint(0.0, 0.0)
    got = sector_inner_numeric(0, "p12", p, tol=1e-10)
    assert abs(got.value - 1.0) <= 1e-9
    got = sector_inner_numeric(1, "p12", p, tol=1e-10)
    assert abs(got.value - 0.5) <= 1e-9


def test_sector_pairing_seed_value():
    got = sector_inner_numeric(0, "p12", ParamPoint(0.3, 0.1), tol=1e-9)
    assert got.value == pytest.approx(1.8, abs=1e-8)


def test_sector_pairing_matches_closed_form_spot():
    p = ParamPoint(-0.2, 0.25)
    for n in (0, 2):
        for kind in ("p12", "p14"):
            got = sector_inner_numeric(n, kind, p, tol=1e-9)
            want = exact_pairing(n, kind, "-0.2", "0.25")
            assert got.value == pytest.approx(want, rel=1e-8)


def test_sector_pairing_routes_agree():
    for k0, k1 in ((0.3, 0.1), (-0.2, 0.25)):
        p = ParamPoint(k0, k1)
        for n in (0, 1):
            for kind in ("p12", "p14"):
                h_route = sector_inner_numeric(n, kind, p, tol=1e-9, mode="h")
                direct = sector_inner_numeric(n, kind, p, tol=1e-9, mode="direct")
                combined = h_route.error_estimate + direct.error_estimate + 1e-10
                assert abs(h_route.value - direct.value) <= combined


def test_sector_pairing_odd_kind_is_negative():
    # leading sign of the odd pairing for k1 >= 0 at small n
    for k0, k1 in ((0.3, 0.1), (0.0, 0.45), (-0.2, 0.25)):
        p = ParamPoint(k0, k1)
        for n in (0, 1, 2):
            assert sector_inner_numeric(n, "p14", p, tol=1e-8).value < 0


def test_sector_pairing_region_and_argument_checks():
    with pytest.raises(RegionError):
        sector_inner_numeric(0, "p12", ParamPoint(0.3, 0.3))
    with pytest.raises(ValueError):
        sector_inner_numeric(0, "p13", ParamPoint(0.1, 0.1))
    with pytest.raises(ValueError):
        sector_inner_numeric(-1, "p12", ParamPoint(0.1, 0.1))
    with pytest.raises(ValueError):
        sector_inner_numeric(0, "p12", ParamPoint(0.1, 0.1), mode="bogus")


def test_a_nan_or_negative_tol_is_refused_before_any_rule(count_calls):
    # a NaN tol ran the quadrature through its largest rules before its
    # ToleranceError, and a negative one was taken silently
    solves = count_calls(np.linalg, "eigh")
    series = count_calls(hyper, "_gauss_2f1_rows")
    evaluated = []

    def smooth(v):
        evaluated.append(v)
        return np.ones_like(v)

    def integrand(level):
        evaluated.append(level)
        return np.ones_like(_tanh_sinh_nodes(level)[0]), 0.0

    _h_point.cache_clear()
    _direct_rule.cache_clear()
    p = ParamPoint(0.3, 0.1)
    calls = [
        lambda tol: sector_inner_numeric(0, "p12", p, tol=tol),
        lambda tol: sector_inner_numeric(0, "p14", p, tol=tol, mode="direct"),
        lambda tol: singular_integral(0.3, -0.4, smooth, tol=tol),
        lambda tol: tanh_sinh(integrand, tol=tol),
        lambda tol: hyper.gauss_2f1(0.5, 0.5, 1.5, 0.25, tol=tol),
        lambda tol: hyper.h_func(1, 0.5, 0.3, 0.1, tol=tol),
    ]
    for call, tol in itertools.product(calls, (math.nan, -1e-9, -math.inf)):
        with pytest.raises(ValueError, match="^tol must be a non-negative number, got "):
            call(tol)
    assert solves == [] and series == [] and evaluated == []
    # tol = 0 keeps its meaning: a rule stops at its level's own error term,
    # and a series must certify a zero bound
    for call in calls[:4]:
        assert math.isfinite(call(0.0).error_estimate)
    with pytest.raises(ToleranceError):
        hyper.gauss_2f1(0.5, 0.5, 1.5, 0.25, tol=0.0)
    assert hyper.gauss_2f1(0.5, 0.5, 1.5, 0.0, tol=0.0) == hyper.HypResult(1.0, 0.0, 1)


def test_sector_pairing_direct_mode_near_the_sector_edge():
    # small |k0| and large k1: eval_L takes the near-1 connection branch there
    k0, k1 = Fraction(1, 60), Fraction(13, 31)
    p = ParamPoint(float(k0), float(k1))
    for n in (1, 2):
        for kind in ("p12", "p14"):
            exact = float(s_inner_closed(n, kind, k0, k1))
            got = sector_inner_numeric(n, kind, p, mode="direct")
            assert abs(got.value - exact) <= 1e-8 * abs(exact)


def test_mode_direct_calls_tanh_sinh_once(count_calls):
    calls = count_calls(quad, "tanh_sinh")
    p = ParamPoint(1 / 60, 13 / 31)
    for n in (1, 2):
        for kind in ("p12", "p14"):
            calls.clear()
            sector_inner_numeric(n, kind, p, mode="direct")
            assert len(calls) == 1, (n, kind)


def test_mode_direct_evaluates_L_once_per_level_reached(count_calls):
    # L does not depend on n or kind: the four pairings share its levels,
    # one evaluation of L on each level the first of them reached
    calls = count_calls(quad, "_eval_L_bounded")
    _direct_rule.cache_clear()
    p = ParamPoint(1 / 60, 13 / 31)
    reached = 0
    for n in (1, 2):
        for kind in ("p12", "p14"):
            sector_inner_numeric(n, kind, p, mode="direct")
            reached = max(reached, _direct_rule.cache_info().currsize)
    assert 4 <= len(calls) == reached
    assert [len(u) for u, *_ in calls] == [_tanh_sinh_nodes(level).shape[1] for level in range(reached)]


def test_numeric_route_never_calls_the_scalar_series(count_calls):
    # the pairings and eval_K sum their series in batches, never one argument
    # at a time through h_func or gauss_2f1
    scalar = [count_calls(hyper, name) for name in ("h_func", "gauss_2f1")]
    _h_point.cache_clear()
    for k0, k1 in ((0.3, 0.1), (1 / 60, 13 / 31), (-0.45, 0.0)):
        p = ParamPoint(k0, k1)
        for n in (0, 3):
            for kind in ("p12", "p14"):
                sector_inner_numeric(n, kind, p)
                sector_inner_numeric(n, kind, p, mode="direct")
        for theta in (0.1, 0.5, 0.78):
            eval_K(theta, p)
    assert scalar == [[], []]
    # the wrappers do see a call made through the module; h_func is
    # gauss_2f1 at its parameter triple, so it counts on both
    hyper.gauss_2f1(0.5, 0.5, 1.5, 0.25)
    assert [len(calls) for calls in scalar] == [0, 1]
    hyper.h_func(1, 0.5, 0.3, 0.1)
    assert [len(calls) for calls in scalar] == [1, 2]


# the near-boundary points of criterion 04 and the largest-rule point, then
# rational points inside the region
BOUNDARY_POINTS = [
    (Fraction(9, 20), Fraction(0)),
    (Fraction(0), Fraction(9, 20)),
    (Fraction(-9, 20), Fraction(0)),
]
SHARED_RULE_POINTS = BOUNDARY_POINTS + [
    (Fraction(3, 10), Fraction(1, 10)),
    (Fraction(-7, 20), Fraction(2, 25)),
    (Fraction(1, 60), Fraction(13, 31)),
]
PAIRINGS_TO_20 = [(n, kind) for n in range(21) for kind in ("p12", "p14")]


@pytest.fixture(scope="module")
def pairings_to_20():
    """Mode-h pairing and exact value for n <= 20 and both kinds at each point."""
    table = {}
    for k0, k1 in SHARED_RULE_POINTS:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            got = sector_inner_numeric(n, kind, p)
            table[k0, k1, n, kind] = (got, s_inner_closed(n, kind, k0, k1))
    return table


def test_sector_pairing_matches_closed_form_to_n20(pairings_to_20):
    for (k0, k1, n, kind), (got, exact) in pairings_to_20.items():
        rel_tol = 1e-6 if (k0, k1) in BOUNDARY_POINTS else 1e-8
        assert abs(got.value - float(exact)) <= rel_tol * abs(float(exact)), (k0, k1, n, kind)


def test_sector_pairing_error_estimate_bounds_the_error(pairings_to_20):
    # zero slack, compared in exact arithmetic
    for (k0, k1, n, kind), (got, exact) in pairings_to_20.items():
        error = abs(Fraction(got.value) - exact)
        assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


def test_direct_mode_error_estimate_bounds_the_error():
    # zero slack, compared in exact arithmetic; (1/60, 13/31) is where the
    # near-1 connection branch of eval_L cancels most, near k1 = 1/2 the
    # integrand's mass beyond the outermost nodes dominates the error, the
    # next five points lie near the edge of the positive-definite region, and
    # at the last two c - a - b = 2 k0 of L's series is nearly 0
    near_half = [(Fraction(0), Fraction(97, 200)), (Fraction(0), Fraction(487, 1000))]
    near_edge = [
        (Fraction(-49, 100), Fraction(0)),
        (Fraction(-9, 20), Fraction(1, 25)),
        (Fraction(9, 20), Fraction(-1, 25)),
        (Fraction(1, 10), Fraction(-39, 100)),
        (Fraction(-1, 10), Fraction(-3, 10)),
    ]
    near_zero = [(Fraction(1, 10**9), Fraction(1, 10)), (Fraction(-1, 10**4), Fraction(3, 10))]
    for k0, k1 in SHARED_RULE_POINTS + near_half + near_edge + near_zero:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            got = sector_inner_numeric(n, kind, p, mode="direct")
            error = abs(Fraction(got.value) - s_inner_closed(n, kind, k0, k1))
            assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


def test_direct_mode_computes_at_large_n():
    # from n = 512 on, 2^(2n) in the bound on the mass beyond the outermost
    # nodes overflowed a float; the exact values are taken at the float point
    for k0, k1 in ((0.3, 0.1), (-0.45, 0.0), (0.0, -0.45)):
        p = ParamPoint(k0, k1)
        for n in (512, 1024):
            for kind in ("p12", "p14"):
                got = sector_inner_numeric(n, kind, p, tol=1e-9, mode="direct")
                error = abs(Fraction(got.value) - s_inner_closed(n, kind, Fraction(k0), Fraction(k1)))
                assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


# the step-1/20 grid of the positive-definite region
GRID_POINTS = [
    (Fraction(i, 20), Fraction(j, 20))
    for i in range(-9, 10)
    for j in range(-9, 10)
    if abs(i + j) < 10 and abs(i - j) < 10
]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
def test_mode_h_error_estimate_bounds_the_error_over_the_grid(tol):
    # zero slack, compared in exact arithmetic, and no pairing refuses
    assert len(GRID_POINTS) == 181
    for k0, k1 in GRID_POINTS:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            got = sector_inner_numeric(n, kind, p, tol=tol)
            error = abs(Fraction(got.value) - s_inner_closed(n, kind, k0, k1))
            assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
def test_mode_h_computes_near_k0_zero(tol):
    # c - a - b = 1 +- 2 k0 of the h series is nearly 1, and every node's
    # series certifies the h tolerance.  Zero slack against the closed form
    # at the float point.
    magnitudes = (1e-12, 1e-9, 1e-6, 3e-6, 1e-5, 1e-4, 5e-4, 1e-3)
    for k0 in [sign * m for m in magnitudes for sign in (1, -1)]:
        for k1 in (0.0, 0.1, 0.4, -0.4):
            p = ParamPoint(k0, k1)
            for n in (0, 1, 5, 20):
                for kind in ("p12", "p14"):
                    got = sector_inner_numeric(n, kind, p, tol=tol)
                    exact = s_inner_closed(n, kind, Fraction(k0), Fraction(k1))
                    error = abs(Fraction(got.value) - exact)
                    assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_mode_h_computes_at_tight_tolerance_without_large_rules(tol):
    # below tol 1e-11 the difference of two levels settles at the error term
    # each level carries (the h series are summed to 1e-11), and
    # refinement stops there rather than climbing to rules that cannot resolve
    # it: every pairing computes, within its estimate, with no rule past 384
    # nodes (1488 nodes for the pairing's two integrals).  Zero slack against
    # the closed form at the float point.
    points = [(0.3, 0.1), (0.45, 0.0), (-0.45, 0.0), (-0.4, 0.05), (0.24, 0.24), (1e-6, 0.1)]
    for k0, k1 in points:
        p = ParamPoint(k0, k1)
        for n, kind in PAIRINGS_TO_20:
            got = sector_inner_numeric(n, kind, p, tol=tol)
            exact = s_inner_closed(n, kind, Fraction(k0), Fraction(k1))
            error = abs(Fraction(got.value) - exact)
            assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))
            assert got.nodes <= 2 * sum(24 << k for k in range(5)), (k0, k1, n, kind, got.nodes)


def _bits(result: QuadResult) -> tuple:
    return result.value.hex(), result.error_estimate.hex(), result.nodes


def test_shared_rule_results_do_not_depend_on_cache_state():
    p = ParamPoint(-0.35, 0.08)

    def sweep(order):
        return {call: _bits(sector_inner_numeric(*call, p)) for call in order}

    _h_point.cache_clear()
    cold = sweep(PAIRINGS_TO_20)
    warm = sweep(PAIRINGS_TO_20)
    _h_point.cache_clear()
    reverse = sweep(PAIRINGS_TO_20[::-1])
    assert cold == warm == reverse


def test_direct_rule_results_do_not_depend_on_cache_state():
    p = ParamPoint(-0.35, 0.08)

    def sweep(order):
        return {call: _bits(sector_inner_numeric(*call, p, mode="direct")) for call in order}

    _direct_rule.cache_clear()
    cold = sweep(PAIRINGS_TO_20)
    warm = sweep(PAIRINGS_TO_20)
    _direct_rule.cache_clear()
    reverse = sweep(PAIRINGS_TO_20[::-1])
    assert cold == warm == reverse


def test_direct_mode_bits_at_the_benchmark_point():
    # quad-sweep's direct pairings at the default tol: each value is pinned to
    # the bit, each on 197 nodes, so a change to the memo's parts or to the
    # integrand's arithmetic shows here first
    p = ParamPoint(1 / 60, 13 / 31)
    want = {
        (1, "p12"): "0x1.a8602ef4e6082p+0",
        (1, "p14"): "-0x1.9a3f1030581f1p+0",
        (2, "p12"): "0x1.956561662fa46p+0",
        (2, "p14"): "-0x1.8d4d8d88e1654p+0",
    }
    for (n, kind), value in want.items():
        got = sector_inner_numeric(n, kind, p, mode="direct")
        assert (got.value.hex(), got.nodes) == (value, 197)


def test_singular_integral_bits():
    # each value and estimate pinned to the bit at tol 1e-12, all on 99
    # nodes, so a change to the weight's arithmetic or to the level hand-off
    # shows here first
    want = {
        (0.3, -0.4, np.ones_like): ("0x1.63bf51e369d21p+0", "0x1.81e171012620ap-45"),
        (-0.5, -0.5, np.ones_like): ("0x1.921fb54442d17p+1", "0x1.57c665e5dae80p-44"),
        (0.5, -0.5, lambda v: v): ("0x1.2d97c7f3321d2p+0", "0x1.5daffcea26ab1p-40"),
        (-0.9, 0.2, np.cos): ("0x1.31f04ea4775f1p+3", "0x1.ea3b749884668p-38"),
    }
    for (alpha, beta, smooth), (value, estimate) in want.items():
        got = singular_integral(alpha, beta, smooth, tol=1e-12)
        assert _bits(got) == (value, estimate, 99), (alpha, beta)


def test_direct_rule_cache_stays_bounded_and_read_only():
    _direct_rule.cache_clear()
    for k0, k1 in SHARED_RULE_POINTS:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p, mode="direct")
            assert _direct_rule.cache_info().currsize <= _DIRECT_RULE_CACHE
        # one point's batches fit: a second sweep evaluates L nowhere
        misses = _direct_rule.cache_info().misses
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p, mode="direct")
        assert _direct_rule.cache_info().misses == misses
        assert not any(array.flags.writeable for array in _direct_rule(p.k0, p.k1, 0))


def test_h_rule_values_equal_per_node_h_func():
    # the batched series call of a build gives the bits of h_func's series
    # summed one node at a time, on the same pair (v, s = 1 - v) and at the
    # same tolerance, which every node certifies: at 24 nodes from the build
    # of all four families' first two levels, at 96 from a family's own;
    # (1e-6, 0.1) and (1e-9, 0.1) put c - a - b within 2e-6 of 1
    htol = quad._SERIES_TOL
    points = ((-0.35, 0.08), (0.3, 0.1), (0.0, 0.45), (1e-6, 0.1), (1e-9, 0.1))
    for (k0, k1), size in itertools.product(points, (24, 96)):
        for i, j in ((1, 1), (2, 2), (1, 3), (2, 4)):
            v, s, _, ratio, square, hprod, hprod_abs, hprod_bound = _h_rule(k0, k1, i, j, size)

            def per_node(k):
                params = [_H_PARAMS[k](k0, k1)]
                rows = [_gauss_2f1_rows(params, [[z]], [[c]], htol)[0] for z, c in zip(v.tolist(), s.tolist())]
                return np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])

            (vi, ti), (vj, tj) = per_node(i), per_node(j)
            assert hprod.tobytes() == (vi * vj).tobytes()
            assert hprod_abs.tobytes() == np.abs(vi * vj).tobytes()
            assert ratio.tobytes() == (s / (1.0 + v)).tobytes()
            assert square.tobytes() == ((1.0 + v) * (1.0 + v)).tobytes()
            assert hprod_bound.tobytes() == (np.abs(vi) * tj + np.abs(vj) * ti + ti * tj).tobytes()


def test_shared_rule_cache_stays_bounded(count_calls):
    builds = count_calls(quad, "_h_build")
    _h_point.cache_clear()
    for k0, k1 in SHARED_RULE_POINTS[3:]:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p)
            assert _h_point.cache_info().currsize <= _H_POINT_CACHE
        # one point's rule families fit: a second sweep builds no rule
        built = len(builds)
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p)
        assert len(builds) == built


def test_pairings_at_any_tolerance_share_one_memo_per_point(count_calls):
    # the h series are summed to one tolerance whatever the pairing's, so a
    # sweep at a looser tolerance reads the rules an earlier sweep built
    builds = count_calls(quad, "_h_build")
    _h_point.cache_clear()
    p = ParamPoint(0.3, 0.1)
    for tol in (1e-9, 1e-6):
        builds.clear()
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p, tol=tol)
        assert len(builds) == (1 if tol == 1e-9 else 0), tol


def test_a_fresh_point_builds_its_first_two_levels_at_once(count_calls):
    # the 42 pairings at a point whose families all stop by 48 nodes: the
    # four families' 24- and 48-node rules take one stacked eigen-solve per
    # size and one series call between them
    series = count_calls(quad, "_gauss_2f1_rows")
    solves = count_calls(np.linalg, "eigh")
    _h_point.cache_clear()
    p = ParamPoint(0.3, 0.1)
    for n, kind in PAIRINGS_TO_20:
        sector_inner_numeric(n, kind, p, tol=1e-9)
    assert len(series) == 1
    assert [matrices.shape for (matrices,) in solves] == [(4, 24, 24), (4, 48, 48)]
