"""Quadrature engine self-tests and the numeric route to the pairings."""

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
    _direct_rule,
    _h_rule,
    _tanh_sinh_nodes,
    asym_integral_check,
    sector_inner_numeric,
    singular_integral,
    tanh_sinh,
)
from b2weight.ring import poly_eval
from b2weight.weight import ParamPoint, eval_K


def const_one(v):
    return np.ones_like(v)


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
    # endpoint powers up to 800.2, the range asym_integral_check reaches: each
    # lgamma of the rule's first moment is about 4.5e3 at beta = 800, and the
    # rounding of their sum is part of the error
    _assert_estimates_bound_the_error(
        (-0.9, -0.5, 0.0, 0.25, 0.5, 0.9, 2.5), (50.2, 100.2, 200.0, 400.2, 800.2)
    )


def test_singular_integral_rejects_bad_exponents():
    with pytest.raises(RegionError):
        singular_integral(-1.0, 0.0, const_one)
    with pytest.raises(RegionError):
        singular_integral(0.0, -1.5, const_one)


def test_singular_integral_needs_declared_endpoint_powers():
    # an endpoint kink left in the smooth factor stalls the doubling
    with pytest.raises(ToleranceError):
        singular_integral(0.0, 0.0, lambda v: (1 - v) ** 0.5, tol=1e-12)
    # declared as an exponent, the rule carries it exactly
    res = singular_integral(0.0, 0.5, const_one, tol=1e-12)
    assert abs(res.value - 2.0 / 3.0) <= 1e-12


def test_singular_integral_never_accepts_a_non_finite_value():
    # the 24-node level is finite and the 48-node level infinite; inf - 1 is
    # within any tolerance relative to |inf|, so the stop test alone passes it
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

    res = tanh_sinh(f, tol=1e-12)
    assert abs(res.value - math.pi) <= 1e-11
    assert isinstance(res, QuadResult)


def test_tanh_sinh_calls_the_integrand_once_per_batch_of_levels():
    # one call for levels 0 to 3, where the rule cannot stop yet, then one
    # call per level
    def counted(integrand):
        sizes = []

        def f(v, s):
            sizes.append(len(v))
            return integrand(v), np.zeros_like(v)

        return f, sizes

    f, sizes = counted(np.ones_like)
    res = tanh_sinh(f, tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-12
    assert sizes == [res.nodes]
    # a jump at an irrational point never converges: all ten levels run
    f, sizes = counted(lambda v: (v < 1 / math.sqrt(2)).astype(float))
    with pytest.raises(ToleranceError):
        tanh_sinh(f, tol=1e-14)
    assert len(sizes) == 1 + 6
    assert all(later > earlier for earlier, later in zip(sizes[1:], sizes[2:]))


def test_tanh_sinh_node_tables_are_built_once_and_read_only():
    table = _tanh_sinh_nodes(4)
    assert _tanh_sinh_nodes(4) is table and not table.flags.writeable

    # an integrand that overwrites its node arrays leaves later calls unchanged
    def scribble(v, s):
        values = np.sqrt(v * s)
        v[:] = s[:] = 0.5
        return values, 0.0

    first, second = tanh_sinh(scribble), tanh_sinh(scribble)
    assert abs(first.value - math.pi / 8) <= 1e-10
    assert (second.value.hex(), second.error_estimate.hex(), second.nodes) == (
        first.value.hex(),
        first.error_estimate.hex(),
        first.nodes,
    )


def test_tanh_sinh_refuses_a_non_finite_value_or_estimate():
    # a bound that is NaN, everywhere or only at the outermost nodes, or
    # infinite must not come back as the error estimate; a value that is not
    # finite is refused by the rule itself, whatever the integrand checks
    integrands = [
        lambda v, s: (np.ones_like(v), np.full_like(v, np.nan)),
        lambda v, s: (np.ones_like(v), np.where(v < 1e-200, np.nan, 0.0)),
        lambda v, s: (np.ones_like(v), np.inf),
        lambda v, s: (np.where(v < 1e-200, np.inf, 1.0), 0.0),
        lambda v, s: (np.where(s < 1e-3, np.nan, 1.0), 0.0),
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


def test_mode_direct_evaluates_L_once_per_batch(count_calls):
    # L does not depend on n or kind: the four pairings share its two batches
    calls = count_calls(quad, "_eval_L_bounded")
    _direct_rule.cache_clear()
    p = ParamPoint(1 / 60, 13 / 31)
    for n in (1, 2):
        for kind in ("p12", "p14"):
            sector_inner_numeric(n, kind, p, mode="direct")
    assert len(calls) == 2


def test_numeric_route_never_calls_the_scalar_series(count_calls):
    # the pairings and eval_K sum their series in batches, never one argument
    # at a time through h_func or gauss_2f1
    scalar = [count_calls(hyper, name) for name in ("h_func", "gauss_2f1")]
    _h_rule.cache_clear()
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
    # integrand's mass beyond the outermost nodes dominates the error, and the
    # last five points lie near the edge of the positive-definite region
    near_half = [(Fraction(0), Fraction(97, 200)), (Fraction(0), Fraction(487, 1000))]
    near_edge = [
        (Fraction(-49, 100), Fraction(0)),
        (Fraction(-9, 20), Fraction(1, 25)),
        (Fraction(9, 20), Fraction(-1, 25)),
        (Fraction(1, 10), Fraction(-39, 100)),
        (Fraction(-1, 10), Fraction(-3, 10)),
    ]
    for k0, k1 in SHARED_RULE_POINTS + near_half + near_edge:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            got = sector_inner_numeric(n, kind, p, mode="direct")
            error = abs(Fraction(got.value) - s_inner_closed(n, kind, k0, k1))
            assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


# the step-1/20 grid of the positive-definite region
GRID_POINTS = [
    (Fraction(i, 20), Fraction(j, 20))
    for i in range(-9, 10)
    for j in range(-9, 10)
    if abs(i + j) < 10 and abs(i - j) < 10
]


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
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
    # c - a - b = 1 +- 2 k0 of the h series is within 1e-5 of 1 for |k0| <
    # 5e-6, where the series near v = 1 fall to capped forward summation; the
    # outermost nodes get a looser series tolerance, their bounds still enter
    # the estimate.  Zero slack against the closed form at the float point.
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
    # each level carries (the h series are summed to 1e-11 at the least), and
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

    _h_rule.cache_clear()
    cold = sweep(PAIRINGS_TO_20)
    warm = sweep(PAIRINGS_TO_20)
    _h_rule.cache_clear()
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
    # one batched call per rule gives the bits of h_func's series summed one
    # node at a time, on the same pair (v, s = 1 - v) and at the node's own
    # tolerance; (1e-6, 0.1) lies in the sliver, where the outermost nodes
    # cannot certify htol
    htol = 1e-11
    for k0, k1 in ((-0.35, 0.08), (0.3, 0.1), (0.0, 0.45), (1e-6, 0.1)):
        for i, j in ((1, 1), (2, 2), (1, 3), (2, 4)):
            v, s, w, hprod, hprod_bound = _h_rule(k0, k1, i, j, 96, htol)
            node_tol = htol * np.maximum(1.0, w.max() / (96 * w))
            assert float(np.dot(w, node_tol)) <= 2.0 * htol * float(w.sum())

            def per_node(k):
                params = [_H_PARAMS[k](k0, k1)]
                nodes = zip(v.tolist(), s.tolist(), node_tol.tolist())
                rows = [_gauss_2f1_rows(params, [z], [c], tol)[0] for z, c, tol in nodes]
                return np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])

            (vi, ti), (vj, tj) = per_node(i), per_node(j)
            assert hprod.tobytes() == (vi * vj).tobytes()
            assert hprod_bound.tobytes() == (np.abs(vi) * tj + np.abs(vj) * ti + ti * tj).tobytes()


def test_shared_rule_cache_stays_bounded():
    _h_rule.cache_clear()
    for k0, k1 in SHARED_RULE_POINTS[3:]:
        p = ParamPoint(float(k0), float(k1))
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p)
            info = _h_rule.cache_info()
            assert info.currsize <= info.maxsize
        # one point's rule families fit: a second sweep builds no rule
        for n, kind in PAIRINGS_TO_20:
            sector_inner_numeric(n, kind, p)
        assert _h_rule.cache_info().misses == info.misses


def test_asym_integral_plain_ratio():
    # int_0^1 ((1-t)/(1+t))^n dt against 1/(2n)
    num, asym = asym_integral_check(0.0, 0.0, 0.0, 200)
    assert abs(num / asym - 1.0) < 0.01
    num_50, asym_50 = asym_integral_check(0.0, 0.0, 0.0, 50)
    assert abs(num / asym - 1.0) < abs(num_50 / asym_50 - 1.0)


def test_asym_integral_smooth_factor_uses_origin_value():
    # g(t) = 1 + t contributes g(0) = 1: same asymptote as without it
    num, asym = asym_integral_check(0.3, -0.2, 0.15, 400, smooth=lambda t: 1.0 + t)
    assert abs(num / asym - 1.0) < 0.01
    _, asym_plain = asym_integral_check(0.3, -0.2, 0.15, 400)
    assert asym == asym_plain


def test_asym_integral_argument_checks():
    with pytest.raises(RegionError):
        asym_integral_check(-1.2, 0.0, 0.0, 10)
    with pytest.raises(ValueError):
        asym_integral_check(0.0, 0.0, 0.0, 1)
