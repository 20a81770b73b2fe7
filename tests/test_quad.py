"""Quadrature engine self-tests and the numeric route to the pairings."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from b2weight.errors import RegionError, ToleranceError
from b2weight.hyper import gamma_fn, h_func, s_inner_closed
from b2weight.quad import (
    QuadResult,
    _h_rule,
    _tanh_sinh_nodes,
    asym_integral_check,
    sector_inner_numeric,
    singular_integral,
    tanh_sinh,
)
from b2weight.ring import poly_eval
from b2weight.weight import ParamPoint


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_direct_mode_never_accepts_a_non_finite_value():
    # inside the positive-definite region; the integrand overflows near the
    # end of the tanh-sinh range there
    p = ParamPoint(0.0, 0.489)
    assert p.positive_definite
    with pytest.raises(ToleranceError):
        sector_inner_numeric(0, "p12", p, mode="direct")


def test_tanh_sinh_handles_endpoint_singularities():
    # int_0^1 v^(-1/2) (1-v)^(-1/2) dv = pi via the distance arguments
    def f(_v, d0, d1):
        return 1.0 / np.sqrt(d0 * d1), 0.0

    res = tanh_sinh(f, tol=1e-12)
    assert abs(res.value - math.pi) <= 1e-11
    assert isinstance(res, QuadResult)


def test_tanh_sinh_calls_the_integrand_once_per_batch_of_levels():
    # one call for levels 0 to 3, where the rule cannot stop yet, then one
    # call per level
    def counted(integrand):
        sizes = []

        def f(v, d0, d1):
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
    def scribble(v, d0, d1):
        values = np.sqrt(d0 * d1)
        v[:] = d1[:] = 0.5
        return values, 0.0

    first, second = tanh_sinh(scribble), tanh_sinh(scribble)
    assert abs(first.value - math.pi / 8) <= 1e-10
    assert (second.value.hex(), second.error_estimate.hex(), second.nodes) == (
        first.value.hex(),
        first.error_estimate.hex(),
        first.nodes,
    )


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
    # near-1 connection branch of eval_L cancels most
    for k0, k1 in SHARED_RULE_POINTS:
        p = ParamPoint(float(k0), float(k1))
        for n in range(5):
            for kind in ("p12", "p14"):
                got = sector_inner_numeric(n, kind, p, mode="direct")
                error = abs(Fraction(got.value) - s_inner_closed(n, kind, k0, k1))
                assert error <= Fraction(got.error_estimate), (k0, k1, n, kind, float(error))


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


def test_h_rule_values_equal_per_node_h_func():
    # one batched call per rule gives the bits of one h_func call per node
    for k0, k1 in ((-0.35, 0.08), (0.3, 0.1), (0.0, 0.45)):
        for i, j, b0 in ((1, 1, -2.0 * k0), (2, 2, -2.0 * k0), (1, 3, 0.0), (2, 4, 0.0)):
            a = k1 + 0.5 if i == 1 else -k1 - 0.5
            v, _, hprod, hprod_bound = _h_rule(k0, k1, i, j, a, b0, 96, 1e-11)
            hi = [h_func(i, z, k0, k1, tol=1e-11) for z in v.tolist()]
            hj = [h_func(j, z, k0, k1, tol=1e-11) for z in v.tolist()]
            vi, ti = np.array([r.value for r in hi]), np.array([r.tail_bound for r in hi])
            vj, tj = np.array([r.value for r in hj]), np.array([r.tail_bound for r in hj])
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
