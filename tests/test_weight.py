"""Weight matrix assembly, determinant, positivity, the h-product link to mode "h"."""

import math
import random

import mpmath
import numpy as np
import pytest

from b2weight.errors import RegionError
from b2weight.hyper import h_func
from b2weight.weight import (
    ParamPoint,
    _eval_L_bounded,
    c_norm,
    d_consts,
    det_k_closed_form,
    eval_K,
    eval_L,
)


def random_pd_point(rng: random.Random) -> ParamPoint:
    """Positive-definite parameters, uniform on the square |k0|, |k1| < 0.49."""
    while True:
        p = ParamPoint(rng.uniform(-0.49, 0.49), rng.uniform(-0.49, 0.49))
        if p.positive_definite:
            return p


def test_region_flags():
    assert ParamPoint(0.3, 0.1).integrable
    assert ParamPoint(0.3, 0.1).positive_definite
    assert ParamPoint(0.3, 0.3).integrable
    assert not ParamPoint(0.3, 0.3).positive_definite
    assert not ParamPoint(0.6, 0.0).integrable


def test_c_norm_values():
    assert abs(c_norm(ParamPoint(0.0, 0.0)) - 1 / (2 * math.pi)) < 1e-15
    assert abs(c_norm(ParamPoint(0.25, 0.25)) - 1 / (4 * math.pi)) < 1e-15
    k0, k1 = 0.3, 0.1
    expected = math.cos(0.3 * math.pi) * math.cos(0.1 * math.pi) / (2 * math.pi)
    assert abs(c_norm(ParamPoint(k0, k1)) - expected) < 1e-15
    with pytest.raises(RegionError):
        c_norm(ParamPoint(0.7, 0.0))


def test_d_consts_collapse_and_product():
    c = 1 / (2 * math.pi)
    d1, d2 = d_consts(ParamPoint(0.0, 0.0))
    assert abs(d1 - c) < 1e-14 and abs(d2 - c) < 1e-14
    # with k0 = 0 the gamma factors cancel pairwise
    p = ParamPoint(0.0, 0.3)
    d1, d2 = d_consts(p)
    assert abs(d1 - c_norm(p)) < 1e-13 and abs(d2 - c_norm(p)) < 1e-13
    # the product is the determinant constant
    p = ParamPoint(0.3, 0.1)
    d1, d2 = d_consts(p)
    expected = math.cos(0.4 * math.pi) * math.cos(0.2 * math.pi) / (4 * math.pi**2)
    assert abs(d1 * d2 - expected) < 1e-14
    with pytest.raises(RegionError):
        d_consts(ParamPoint(0.3, 0.3))


def test_eval_l_trivial_parameter_points():
    ell = eval_L(0.37, ParamPoint(0.0, 0.0))
    assert np.allclose(ell, np.eye(2), atol=1e-15)
    k1 = 0.2
    ell = eval_L(0.37, ParamPoint(0.0, k1))
    assert np.allclose(ell, np.diag([0.37**k1, 0.37**-k1]), atol=1e-14)
    assert ell[0, 1] == 0.0 and ell[1, 0] == 0.0


def test_eval_l_unimodular():
    ell = eval_L(0.5, ParamPoint(0.3, 0.1))
    assert abs(abs(np.linalg.det(ell)) - 1.0) < 1e-10


def test_eval_l_domain_errors():
    with pytest.raises(RegionError):
        eval_L(0.0, ParamPoint(0.1, 0.1))
    with pytest.raises(RegionError):
        eval_L(1.0, ParamPoint(0.1, 0.1))
    with pytest.raises(RegionError):
        eval_L(0.5, ParamPoint(0.7, 0.1))


def _ell_reference(k0: float, k1: float, u: float, w: float) -> list:
    """L11, L12, L21, L22 at slope u with 1 - u^2 = w, in mpmath at the
    working precision."""
    k, m, half, u, w = (mpmath.mpf(x) for x in (k0, k1, 0.5, u, w))
    z, pref = 1 - w, w**-k
    return [
        u**m * pref * mpmath.hyp2f1(-k, half - k + m, half + m, z),
        -k / (half + m) * u ** (1 + m) * pref * mpmath.hyp2f1(1 - k, half - k + m, 3 * half + m, z),
        -k / (half - m) * u ** (1 - m) * pref * mpmath.hyp2f1(1 - k, half - k - m, 3 * half - m, z),
        u**-m * pref * mpmath.hyp2f1(-k, half - k - m, half - m, z),
    ]


def test_eval_l_bounds_hold_at_the_sliver_edges():
    # c - a - b = 2 k0 of the series lies within 2e-6 of -1, 0 or 1; near
    # the sector edge, with the tol of mode direct's calls, nothing is
    # refused and every entry's bound covers its error against mpmath at
    # the exact parameters
    edges = (1e-9, 1e-6, 0.499999, 0.5 - 1e-9)
    for k0 in [sign * k for k in edges for sign in (1, -1)]:
        for theta in (0.75, 0.78, 0.785):
            u = math.tan(theta)
            w = math.cos(2.0 * theta) / math.cos(theta) ** 2
            ell, err = _eval_L_bounded(np.array([u]), np.array([w]), ParamPoint(k0, 0.0))
            with mpmath.workdps(40):
                want = _ell_reference(k0, 0.0, u, w)
                for got, bound, exact in zip(ell.ravel(), err.ravel(), want):
                    assert abs(got - exact) <= bound, (k0, theta, float(abs(got - exact)), bound)


def test_eval_l_bounds_hold_within_1e300_of_the_sector_edge():
    # with k0 < 0 the connection row carrying (1 - u^2)^(2 k0) dominates, and
    # |log(1 - u^2)| ~ 690 magnifies the rounding of its exponent; zero
    # slack against mpmath at the float parameters (u rounds to 1 here)
    ws = [1e-20, 1e-100, 1e-200, 1e-300]
    for k0, k1 in ((-0.45, 0.3), (-0.2, -0.1), (-0.1, -0.3), (0.2, 0.1)):
        ell, err = _eval_L_bounded(np.ones(len(ws)), np.array(ws), ParamPoint(k0, k1))
        for j, w in enumerate(ws):
            with mpmath.workdps(50 + round(-math.log10(w))):
                want = _ell_reference(k0, k1, 1.0, w)
                for got, bound, exact in zip(ell[:, :, j].ravel(), err[:, :, j].ravel(), want):
                    error = abs(mpmath.mpf(float(got)) - exact)
                    assert error <= bound, (k0, k1, w, float(error), float(bound))


def test_eval_l_at_one_slope_equals_its_column_in_a_batch():
    # one slope alone gets the bits of its column in a batch of many: slopes
    # on the forward branch, near the sector edge (1 - u^2 as s (2 - s)) and
    # within 1e-300 of it, at a point with k0 = 0 (a diagonal L) and others
    s = np.array([0.999, 0.9, 0.5, 0.2, 0.1, 0.03, 1e-3, 1e-9, 1e-300])
    u, w = 1.0 - s, s * (2.0 - s)
    for k0, k1 in ((0.0, 0.2), (0.3, 0.1), (-0.45, 0.0), (1e-9, -0.3)):
        p = ParamPoint(k0, k1)
        batch = _eval_L_bounded(u, w, p)
        for j in range(len(s)):
            alone = _eval_L_bounded(u[j:j + 1], w[j:j + 1], p)
            for whole, one in zip(batch, alone):
                assert whole[:, :, j].tobytes() == one[:, :, 0].tobytes(), (k0, k1, s[j])
        assert eval_L(u[4], p, u_sq_complement=w[4]).tobytes() == batch[0][:, :, 4].tobytes()


def test_eval_k_identity_at_zero_parameters():
    ev = eval_K(0.5, ParamPoint(0.0, 0.0))
    assert np.allclose(ev.K, np.eye(2) / (2 * math.pi), atol=1e-14)


def test_eval_k_reconstruction_and_symmetry():
    rng = random.Random(97)
    for _ in range(100):
        p = random_pd_point(rng)
        theta = rng.uniform(1e-3, math.pi / 4 - 1e-3)
        ev = eval_K(theta, p)
        rebuilt = ev.L.T @ np.diag([ev.d1, ev.d2]) @ ev.L
        assert np.allclose(ev.K, rebuilt, rtol=0, atol=1e-13 * max(1, abs(ev.K).max()))
        assert abs(ev.K[0, 1] - ev.K[1, 0]) <= 1e-14 * max(1.0, abs(ev.K[0, 1]))


def test_det_k_constant_over_sector():
    p = ParamPoint(0.3, 0.1)
    det_a = eval_K(0.2, p).det_k
    det_b = eval_K(0.7, p).det_k
    assert abs(det_a - det_b) < 1e-10
    assert abs(det_a - det_k_closed_form(p)) < 1e-10


def test_det_k_closed_form_over_random_sample():
    rng = random.Random(20130215)
    for _ in range(100):
        p = random_pd_point(rng)
        theta = rng.uniform(1e-2, math.pi / 4 - 1e-2)
        ev = eval_K(theta, p)
        assert abs(ev.det_k - det_k_closed_form(p)) <= 1e-10


def test_positive_definiteness_on_grid():
    thetas = [0.1, 0.3, 0.5, 0.7]
    params = [(0.2, 0.25), (-0.3, 0.1), (0.1, -0.35), (0.4, 0.05)]
    for k0, k1 in params:
        for theta in thetas:
            eigs = np.linalg.eigvalsh(eval_K(theta, ParamPoint(k0, k1)).K)
            assert eigs.min() > 0
    # near the region boundary the matrix stays barely positive
    for k0, k1 in [(0.245, 0.245), (0.245, -0.245)]:
        eigs = np.linalg.eigvalsh(eval_K(0.3, ParamPoint(k0, k1)).K)
        assert 0 < eigs.min() < 0.05


def test_quadratic_form_positive_on_sector():
    rng = random.Random(3)
    for _ in range(25):
        p = random_pd_point(rng)
        theta = rng.uniform(1e-2, math.pi / 4 - 1e-2)
        vec = np.array([-math.sin(theta), math.cos(theta)])
        ev = eval_K(theta, p)
        assert float(vec @ ev.K @ vec) > 0


def test_eval_k_domain_error():
    with pytest.raises(RegionError):
        eval_K(1.0, ParamPoint(0.1, 0.1))
    with pytest.raises(RegionError):
        eval_K(-0.2, ParamPoint(0.1, 0.1))


def _slope_combinations(u: float, p: ParamPoint):
    """The four slope combinations (x2 L11 - x1 L12, x1 L22 - x2 L21,
    -x2 L11 - x1 L12, -x2 L21 - x1 L22) at the unit vector of slope u, from
    ``eval_L``'s entries and as the single h-series products that mode "h"
    integrates."""
    k0, k1 = p.k0, p.k1
    z, w = u * u, 1.0 - u * u
    norm = math.sqrt(1.0 + z)
    x1, x2 = 1.0 / norm, u / norm
    ell = eval_L(u, p)
    from_entries = (
        x2 * ell[0, 0] - x1 * ell[0, 1],
        x1 * ell[1, 1] - x2 * ell[1, 0],
        -x2 * ell[0, 0] - x1 * ell[0, 1],
        -x2 * ell[1, 0] - x1 * ell[1, 1],
    )
    h1, h2, h3, h4 = (h_func(i, z, k0, k1).value for i in (1, 2, 3, 4))
    minus, plus = w**-k0 / norm, w**k0 / norm
    products = (
        u ** (k1 + 1) * minus * (1 + 2 * k0 + 2 * k1) / (1 + 2 * k1) * h1,
        u**-k1 * minus * h2,
        -(u ** (k1 + 1)) * plus * (1 - 2 * k0 + 2 * k1) / (1 + 2 * k1) * h3,
        -(u**-k1) * plus * h4,
    )
    return from_entries, products


def test_combo_forms_agree():
    # the link between mode "h" and K: L's slope combinations are the
    # h-products, at slopes from near 0 to near the sector edge
    p = ParamPoint(0.3, 0.1)
    for u in (1e-3, 0.35, 0.6, 0.95):
        for got, want in zip(*_slope_combinations(u, p)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), u


def test_combo_forms_k0_zero_collapse():
    # with k0 = 0 every h-series is 1 and L is diagonal: both sides collapse
    # to the power prefactors
    u = 0.4
    from_entries, products = _slope_combinations(u, ParamPoint(0.0, 0.2))
    assert abs(products[1] - u**-0.2 / math.sqrt(1 + u * u)) < 1e-14
    for got, want in zip(from_entries, products):
        assert abs(got - want) <= 1e-13


def test_combo_forms_small_slope_scaling():
    # the slot-2 combination grows like u^(-k1) as u -> 0
    p = ParamPoint(0.3, 0.1)
    _, small = _slope_combinations(1e-4, p)
    _, smaller = _slope_combinations(1e-6, p)
    assert smaller[1] / small[1] == pytest.approx(100**p.k1, rel=1e-3)
