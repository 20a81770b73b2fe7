"""Hypergeometric layer: series with certified tails, exact sums, gamma."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b2weight.errors import DegenerateParameterError, RegionError, ToleranceError
from b2weight.hyper import (
    _EPS,
    _FIRST_BLOCK,
    _GAMMA_RELERR,
    _H_PARAMS,
    _connection_coeffs,
    _gauss_2f1_rows,
    _recip_gamma,
    alpha_beta_recurrence,
    alpha_closed,
    asym_f_check,
    beta_closed,
    chu_vandermonde,
    euler_transform,
    f_values,
    gamma_fn,
    HypResult,
    gauss_2f1,
    h_func,
    s_inner_closed,
    squeeze_check,
    stirling_ratio,
)
from b2weight.ring import K0, K1, ParamPoly, poch, poly_eval

mpmath.mp.dps = 30

ONE_PLUS = 1 + 2 * K0 + 2 * K1


def random_admissible(rng, z_lo=0.0, z_hi=0.95):
    """Random (a, b, c, z) with c safely positive and non-terminating a, b."""
    while True:
        a = rng.uniform(-1.8, 1.8)
        b = rng.uniform(-1.8, 1.8)
        c = rng.uniform(0.4, 2.5)
        z = rng.uniform(z_lo, z_hi)
        d = c - a - b
        if min(abs(a - round(a)), abs(b - round(b))) < 0.05 and (a < 0.5 or b < 0.5):
            continue
        if abs(d - round(d)) < 0.06:
            continue
        return a, b, c, z


# ---------------------------------------------------------------------------
# gauss_2f1
# ---------------------------------------------------------------------------


def test_2f1_at_zero_is_one():
    res = gauss_2f1(0.7, -1.3, 1.1, 0.0)
    assert res.value == 1.0 and res.tail_bound == 0.0


def test_2f1_terminating_first_parameter_zero():
    res = gauss_2f1(0.0, 0.9, 1.4, 0.63)
    assert res.value == 1.0


def test_2f1_log_case_oracle():
    # F(1,1;2;z) = -log(1-z)/z, evaluated at z = 1/2
    res = gauss_2f1(1.0, 1.0, 2.0, 0.5, tol=1e-14)
    assert abs(res.value - 2.0 * math.log(2.0)) <= res.tail_bound + 1e-15


def test_2f1_against_mpmath_random_points():
    rng = random.Random(12345)
    for _ in range(50):
        a, b, c, z = random_admissible(rng)
        res = gauss_2f1(a, b, c, z, tol=1e-11)
        oracle = float(mpmath.hyp2f1(a, b, c, z))
        assert abs(res.value - oracle) <= res.tail_bound + 1e-12 * (1 + abs(oracle))


def test_2f1_near_unit_argument_against_mpmath():
    rng = random.Random(777)
    for _ in range(25):
        a, b, c, z = random_admissible(rng, z_lo=0.76, z_hi=0.995)
        res = gauss_2f1(a, b, c, z, tol=1e-9)
        oracle = float(mpmath.hyp2f1(a, b, c, z))
        assert abs(res.value - oracle) <= res.tail_bound + 1e-10 * (1 + abs(oracle))


def test_2f1_at_unit_argument():
    # convergent case c - a - b > 0 equals the gamma quotient
    a, b, c = -0.3, 0.45, 1.2
    res = gauss_2f1(a, b, c, 1.0, tol=1e-10)
    oracle = float(mpmath.hyp2f1(a, b, c, 1))
    assert abs(res.value - oracle) <= res.tail_bound + 1e-12
    with pytest.raises(RegionError):
        gauss_2f1(0.8, 0.9, 1.2, 1.0)  # c - a - b < 0 diverges


def test_2f1_error_messages():
    # the z = 1 divergence, the z = 1 and near-1 tolerance refusals; the
    # near-1 one carries no "close to an integer" suffix when c - a - b = 1/2
    d = 1.2 - 0.8 - 0.9
    with pytest.raises(RegionError) as exc:
        gauss_2f1(0.8, 0.9, 1.2, 1.0)
    assert str(exc.value) == f"2F1 diverges at z = 1 when c - a - b = {d} is not positive"
    best = r"\(best bound \d\.\d{3}e-\d\d\)$"
    with pytest.raises(ToleranceError, match=r"^tol=1e-16 unreachable for 2F1 at z=1 " + best):
        gauss_2f1(-0.3, 0.45, 1.2, 1.0, tol=1e-16)
    with pytest.raises(ToleranceError, match=r"^tol=1e-17 unreachable for 2F1 near z=1 " + best):
        gauss_2f1(0.3, 0.4, 1.2, 0.9, tol=1e-17)


def test_2f1_rejects_bad_arguments():
    with pytest.raises(RegionError):
        gauss_2f1(0.5, 0.5, 1.5, 1.2)
    with pytest.raises(RegionError):
        gauss_2f1(0.5, 0.5, -2.0, 0.3)


def test_euler_transform_prefactor_trivia():
    assert euler_transform(0.3, 0.4, 1.1, 0.0)[4] == 1.0
    a, b = 0.3, 0.7
    c = a + b  # c - a - b = 0
    assert euler_transform(a, b, c, 0.5)[4] == 1.0


def test_euler_transform_round_trip():
    a, b, c, z = -0.3, 0.3, 0.6, 0.95
    direct = gauss_2f1(a, b, c, z, tol=1e-9)
    a2, b2, c2, z2, pref = euler_transform(a, b, c, z)
    transformed = gauss_2f1(a2, b2, c2, z2, tol=1e-9)
    combined = direct.tail_bound + pref * transformed.tail_bound
    assert abs(direct.value - pref * transformed.value) <= combined + 1e-12


def test_contiguous_identities():
    # F(a,b;c;z) - (a/c) z F(a+1,b;c+1;z) = F(a,b-1;c;z)
    # F(a,b;c;z) - (a/c)   F(a+1,b;c+1;z) = ((c-a)/c) F(a,b;c+1;z)
    rng = random.Random(2013)
    for _ in range(50):
        a, b, c, z = random_admissible(rng, z_hi=0.9)
        f = gauss_2f1(a, b, c, z, tol=1e-11)
        f_up = gauss_2f1(a + 1, b, c + 1, z, tol=1e-11)
        f_bm = gauss_2f1(a, b - 1, c, z, tol=1e-11)
        f_cp = gauss_2f1(a, b, c + 1, z, tol=1e-11)
        scale = 1 + abs(f.value) + abs(f_up.value)
        slack = f.tail_bound + abs(a / c) * f_up.tail_bound + 1e-13 * scale
        assert abs(f.value - (a / c) * z * f_up.value - f_bm.value) <= (
            slack + f_bm.tail_bound
        )
        assert abs(
            f.value - (a / c) * f_up.value - ((c - a) / c) * f_cp.value
        ) <= slack + abs((c - a) / c) * f_cp.tail_bound


# ---------------------------------------------------------------------------
# the batched series against a one-term-at-a-time reference
# ---------------------------------------------------------------------------


def _reference_sum_series(a, b, c, z, tol, max_terms):
    """The forward summation one term at a time, as it stood before the
    batched ``_sum_series``."""
    if z == 0.0:
        return HypResult(1.0, 0.0, 1)
    m_pos = int(max(0.0, math.ceil(-a), math.ceil(-b), math.ceil(-c))) + 1
    total = 0.0
    abs_sum = 0.0
    term = 1.0
    m = 0
    while m <= max_terms:
        if term == 0.0:
            # terminating series: truncation error is exactly zero
            return HypResult(total, _EPS * abs_sum * max(m, 1), max(m, 1))
        if m >= m_pos:
            r = z * max((a + m) / (1.0 + m), 1.0) * max((b + m) / (c + m), 1.0)
            if 0.0 <= r < 1.0:
                tail = abs(term) / (1.0 - r)
                if tail <= tol:
                    return HypResult(total, tail + _EPS * abs_sum * m, m)
        total += term
        abs_sum += abs(term)
        term *= (a + m) * (b + m) / ((c + m) * (1.0 + m)) * z
        m += 1
    raise ToleranceError(
        f"2F1 series did not certify tol={tol} within {max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _reference_gauss_2f1(a, b, c, z, tol=1e-12, z_complement=None):
    """The scalar body of gauss_2f1 as it stood before the batched entry, with
    the sliver-Euler bound covering the rounding of its prefactor."""
    a, b, c, z = float(a), float(b), float(c), float(z)
    if not 0.0 <= z <= 1.0:
        raise RegionError(f"gauss_2f1 requires 0 <= z <= 1, got z = {z}")
    if c <= 0.5 and c == round(c):
        raise RegionError(f"gauss_2f1 parameter c = {c} is a non-positive integer")
    w = z_complement if z_complement is not None else 1.0 - z
    if not 0.0 <= w <= 1.0:
        raise RegionError(f"z_complement must lie in [0, 1], got {w}")
    z_eff = z if w >= 0.5 else 1.0 - w
    d = c - a - b

    terminating = (a <= 0 and a == round(a)) or (b <= 0 and b == round(b))
    if terminating:
        return _reference_sum_series(a, b, c, z_eff, tol=0.0 if z == 0 else tol, max_terms=10**6)

    if w == 0.0:
        if d <= 0:
            raise RegionError(f"2F1 diverges at z = 1 when c - a - b = {d} is not positive")
        value = gamma_fn(c) * gamma_fn(d) * _recip_gamma(c - a) * _recip_gamma(c - b)
        bound = 5.0 * _GAMMA_RELERR * abs(value)
        if bound > tol * (1.0 + abs(value)):
            raise ToleranceError(f"tol={tol} unreachable for 2F1 at z=1 (best bound {bound:.3e})")
        return HypResult(value, bound, 1)

    if z_eff <= 0.75:
        return _reference_sum_series(a, b, c, z_eff, tol, max_terms=2_000)

    if abs(d - round(d)) >= 1e-5:
        coeff1, coeff2 = _connection_coeffs(a, b, c)
        s1 = _reference_sum_series(a, b, 1.0 - d, w, tol=1e-16, max_terms=4_000)
        s2 = _reference_sum_series(c - a, c - b, 1.0 + d, w, tol=1e-16, max_terms=4_000)
        wd = math.exp(d * math.log(w)) if w > 0 else 0.0
        part1 = coeff1 * s1.value
        part2 = coeff2 * wd * s2.value
        value = part1 + part2
        bound = (
            abs(coeff1) * s1.tail_bound
            + abs(coeff2) * wd * s2.tail_bound
            + (abs(part1) + abs(part2)) * 8.0 * _GAMMA_RELERR
        )
        if bound > tol * (1.0 + abs(value)):
            raise ToleranceError(f"tol={tol} unreachable for 2F1 near z=1 (best bound {bound:.3e})")
        return HypResult(value, bound, s1.terms_used + s2.terms_used)

    if d <= -0.5:
        a2, b2, c2, _, prefactor = euler_transform(a, b, c, z_eff)
        inner = _reference_sum_series(a2, b2, c2, z_eff, tol / max(prefactor, 1e-300), 500_000)
        # the rounding of d, amplified by |log(1 - z)|, and of the power and product
        relative = abs(math.log(1.0 - z_eff)) * (_EPS * (abs(c - a) + abs(d))) + 2.0 * _EPS
        bound = prefactor * inner.tail_bound + abs(prefactor * inner.value) * relative
        return HypResult(prefactor * inner.value, bound, inner.terms_used)
    return _reference_sum_series(a, b, c, z_eff, tol, max_terms=500_000)


def _bits(result):
    return result.value.hex(), result.tail_bound.hex(), result.terms_used


def _assert_rows_match_reference(params, zs, ws, tol):
    """``_gauss_2f1_rows`` at (zs, ws) against the reference at each pair:
    equal bits, or an error of a type the reference raises too."""
    expected, raised = [], set()
    for a, b, c in params:
        for z, w in zip(zs, ws):
            try:
                expected.append(_bits(_reference_gauss_2f1(a, b, c, z, tol, z_complement=w)))
            except (RegionError, ToleranceError) as exc:
                raised.add(type(exc))
    try:
        rows = _gauss_2f1_rows(params, np.array(zs), np.array(ws), tol)
    except (RegionError, ToleranceError) as exc:
        assert type(exc) in raised, exc
        return
    assert not raised, raised
    got = [
        (v.hex(), t.hex(), n)
        for value, bound, terms in rows
        for v, t, n in zip(value.tolist(), bound.tolist(), terms.tolist())
    ]
    assert got == expected


_PARAM = st.floats(-2.5, 2.5)


@st.composite
def _series_cases(draw):
    """Parameter triples sharing arguments: a mix of terminating triples,
    triples with c - a - b within 1e-5 of an integer (the sliver, with and
    without the Euler transform) and generic ones; arguments include 0, 1,
    values up to 0.75 (forward sums stopping in different blocks) and values
    near 1 given with an accurate complement."""
    triples = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(_PARAM), draw(_PARAM)
        kind = draw(st.sampled_from(["generic", "terminating", "sliver"]))
        if kind == "terminating":
            a = float(-draw(st.integers(0, 6)))
            c = draw(st.floats(0.1, 3.0))
        elif kind == "sliver":
            d = draw(st.integers(-2, 2)) + draw(st.floats(-9e-6, 9e-6))
            c = a + b + d
        else:
            c = draw(st.floats(0.1, 3.0))
        triples.append((a, b, c))
    zs, ws = [], []
    for _ in range(draw(st.integers(1, 6))):
        where = draw(st.sampled_from(["zero", "one", "forward", "near", "complement"]))
        if where == "complement":
            w = draw(st.floats(1e-3, 0.25))
            zs.append(1.0 - w)
            ws.append(w)
            continue
        z = {
            "zero": 0.0,
            "one": 1.0,
            "forward": draw(st.floats(0.0, 0.75)),
            "near": draw(st.floats(0.75, 0.99)),
        }[where]
        zs.append(z)
        ws.append(1.0 - z)
    return triples, zs, ws, draw(st.sampled_from([1e-12, 1e-9, 1e-6]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_series_cases())
@example(case=([(1.9, 1.3, 0.6)], [0.001, 0.2, 0.5, 0.7, 0.75], [0.999, 0.8, 0.5, 0.3, 0.25], 1e-12))
@example(case=([(-3.0, 0.4, 1.3), (0.5, 0.25, 1.5)], [0.0, 0.5, 0.9], [1.0, 0.5, 0.1], 1e-12))
@example(case=([(0.7, 0.2, 0.9 - 1 + 2e-6), (0.1, 0.6, 0.7 + 3e-6)], [0.8, 0.95], [0.2, 0.05], 1e-9))
def test_batched_series_equal_the_one_term_reference(case):
    _assert_rows_match_reference(*case)


def test_batched_series_cover_every_branch():
    # the rows of one call stop in different blocks of the forward sum, and
    # the connection, Euler and plain sliver branches and z = 0, 1 all occur
    zs = [0.0, 0.001, 0.2, 0.5, 0.7, 0.75, 0.8, 0.95, 1.0]
    ws = [1.0 - z for z in zs]
    params = [(1.9, 1.3, 0.6), (-2.0, 0.5, 1.1), (0.5, 0.25, 1.5)]
    _assert_rows_match_reference(params, zs, ws, 1e-12)
    _, _, terms = _gauss_2f1_rows(params[:1], np.array(zs[1:6]), np.array(ws[1:6]), 1e-12)[0]
    # blocks of _FIRST_BLOCK, then twice that: indices below 32, 96 and above
    blocks = {int(np.searchsorted([_FIRST_BLOCK, 3 * _FIRST_BLOCK], m, side="right")) for m in terms}
    assert blocks == {0, 1, 2}
    # c - a - b = -1 + 2e-6 (Euler) and 3e-6 (plain) in the sliver
    _assert_rows_match_reference([(0.7, 0.2, -0.1 + 2e-6), (0.1, 0.6, 0.7 + 3e-6)], zs[6:8], ws[6:8], 1e-9)


# ---------------------------------------------------------------------------
# h functions
# ---------------------------------------------------------------------------


def test_h_at_zero_is_one():
    for i in range(1, 5):
        assert h_func(i, 0.0, 0.3, 0.1).value == 1.0


def test_h_is_one_when_k0_vanishes():
    for i in range(1, 5):
        for z in (0.2, 0.8, 1.0):
            assert h_func(i, z, 0.0, 0.27).value == 1.0


def test_h2_at_unit_argument_matches_gamma_quotient():
    # independent oracle: Gauss value via the standard library lgamma
    k0, k1 = 0.3, 0.1
    a, b, c = -k0, -0.5 - k0 - k1, 0.5 - k1
    d = c - a - b
    oracle = math.exp(
        math.lgamma(c) + math.lgamma(d) - math.lgamma(c - a) - math.lgamma(c - b)
    )
    res = h_func(2, 1.0, k0, k1, tol=1e-10)
    assert math.isfinite(res.value)
    assert abs(res.value - oracle) <= res.tail_bound + 1e-12


def test_sliver_euler_bound_covers_the_rounding_of_its_exponent():
    # c - a - b rounds by 5.6e-17 here and (1 - z)^(c-a-b) multiplies that
    # by |log(1 - z)| = 19.2: an error of 113 on a value of 9.7e16
    a, b, c = 0.9999996588553394, 1.4999996588553393, 0.4999996588553393
    z = 0.9999999954602857
    res = gauss_2f1(a, b, c, z, tol=1e-8)
    with mpmath.workdps(40):
        err = abs(res.value - mpmath.hyp2f1(a, b, c, z))
    assert err > 100.0
    assert err <= res.tail_bound, f"{float(err):.3e} > {res.tail_bound:.3e}"


def _assert_h_within_bound(i, z, k0, k1):
    res = h_func(i, z, k0, k1)
    a, b, c = _H_PARAMS[i](k0, k1)
    with mpmath.workdps(40):
        err = abs(res.value - mpmath.hyp2f1(a, b, c, z))
    assert err <= res.tail_bound, f"h{i}(z={z}) at k0={k0}, k1={k1}: {float(err):.3e}"


def test_h_bound_holds_near_the_sliver_edge():
    # |c - a - b - 1| = 2|k0| from just outside the sliver (1e-5) to 2e-3
    for k0 in (6e-6, 2e-5, 1e-4, 1e-3, -6e-6, -2e-5, -1e-4, -1e-3):
        for j in range(13):
            k1 = -0.45 + 0.075 * j
            for z in (0.76, 0.8, 0.9, 0.99, 1 - 1e-6):
                for i in (1, 2, 3, 4):
                    _assert_h_within_bound(i, z, k0, k1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    i=st.integers(1, 4),
    k0=st.one_of(
        st.floats(-0.49, 0.49),
        st.floats(-3, -1.3).map(lambda e: 10**e),
        st.floats(-3, -1.3).map(lambda e: -(10**e)),
    ),
    k1=st.floats(-0.49, 0.49),
    z=st.one_of(
        st.floats(0, 1),
        st.floats(0.73, 0.77),
        st.floats(-9, -1).map(lambda e: 1 - 10**e),
    ),
)
def test_h_bound_holds_over_the_parameters(i, k0, k1, z):
    try:
        _assert_h_within_bound(i, z, k0, k1)
    except ToleranceError:
        pass  # refusing an uncertifiable tolerance is allowed; a wrong bound is not


def test_h_region_checks():
    with pytest.raises(RegionError):
        h_func(1, 1.5, 0.3, 0.1)
    with pytest.raises(RegionError):
        h_func(1, 0.5, 0.6, 0.1)
    with pytest.raises(ValueError):
        h_func(5, 0.5, 0.3, 0.1)


# ---------------------------------------------------------------------------
# recurrence and closed forms
# ---------------------------------------------------------------------------


def test_recurrence_seed_values():
    seq = alpha_beta_recurrence(1)
    assert seq.alpha[0] == 1
    assert seq.beta[0] == (-(1 + 2 * K1 - 2 * K0)) / 2
    assert poly_eval(seq.alpha[1], 0, 0) == Fraction(1, 2)


def test_recurrence_matches_closed_forms_through_n8():
    seq = alpha_beta_recurrence(8)
    for n in range(9):
        assert seq.alpha[n] == alpha_closed(n), f"alpha mismatch at n={n}"
        assert seq.beta[n] == beta_closed(n), f"beta mismatch at n={n}"


def test_alpha_closed_wallis_specialization():
    # at k0 = k1 = 0 the sum collapses to (1/2)_n / n!
    for n in range(9):
        wallis = poch(Fraction(1, 2), n) / math.factorial(n)
        assert poly_eval(alpha_closed(n), 0, 0) == wallis


def test_beta_closed_seed():
    assert beta_closed(0) == (-(1 + 2 * K1 - 2 * K0)) / 2


def test_s_inner_closed_seed_values():
    assert s_inner_closed(0, "p12") == ONE_PLUS
    half = Fraction(1, 2)
    expected = -2 * ((half + K1 + K0) * (half + K1 - K0))
    assert s_inner_closed(0, "p14") == expected
    with pytest.raises(ValueError):
        s_inner_closed(0, "p13")


def test_s_inner_closed_consistent_with_sequences():
    for n in range(9):
        assert s_inner_closed(n, "p12") == alpha_closed(n) * ONE_PLUS
        assert s_inner_closed(n, "p14") == beta_closed(n) * ONE_PLUS


def _closed_sum_by_terms(n, e, b, m, k0, k1):
    """The single sum of ``hyper._closed_sum`` added term by term, as its
    docstring states it: (-1)^e / ((n+e)! (b)_m) * sum_j (-n)_j (-n-e)_j / j!
    * (-k1)_j (b+k0+k1)_{m-j} (1/2+k1-k0)_{n+e-j}."""
    half = Fraction(1, 2)
    total = 0
    for j in range(n + 1):
        # (-n)_j (-n-e)_j / j! = (-1)^j C(n, j) * (-1)^j (n+e)! / (n+e-j)!
        rational = math.comb(n, j) * math.perm(n + e, j)
        total = total + rational * (
            poch(-k1, j) * poch(b + k0 + k1, m - j) * poch(half + k1 - k0, n + e - j)
        )
    return total * Fraction((-1) ** e, math.factorial(n + e)) / poch(b, m)


def _closed_forms_by_terms(n, k0=K0, k1=K1):
    """(alpha_n, beta_n, p12, p14) from the term-by-term reference."""
    three_halves, half = Fraction(3, 2), Fraction(1, 2)
    return (
        _closed_sum_by_terms(n, 0, three_halves, n, k0, k1),
        _closed_sum_by_terms(n, 1, three_halves, n, k0, k1),
        _closed_sum_by_terms(n, 0, half, n + 1, k0, k1),
        _closed_sum_by_terms(n, 1, half, n + 1, k0, k1),
    )


def _closed_forms(n, *point):
    return (
        alpha_closed(n, *point),
        beta_closed(n, *point),
        s_inner_closed(n, "p12", *point),
        s_inner_closed(n, "p14", *point),
    )


def test_closed_forms_match_term_by_term_sum_symbolically():
    for n in range(9):
        assert _closed_forms(n) == _closed_forms_by_terms(n), f"n={n}"


REFERENCE_POINTS = [
    (Fraction(0), Fraction(3, 7)),
    (Fraction(-2, 5), Fraction(0)),
    (Fraction(1), Fraction(-1)),
    (Fraction(-3, 11), Fraction(-5, 4)),
    (Fraction(-9, 20), Fraction(0)),
    (Fraction(0), Fraction(0)),
]


def test_closed_forms_match_term_by_term_sum_at_points():
    for k0, k1 in REFERENCE_POINTS:
        for n in range(31):
            got = _closed_forms(n, k0, k1)
            assert all(isinstance(v, Fraction) for v in got)
            assert got == _closed_forms_by_terms(n, k0, k1), f"n={n} at ({k0}, {k1})"


def test_recurrence_matches_closed_forms_at_n30():
    seq = alpha_beta_recurrence(30)
    assert seq.alpha[30] == alpha_closed(30)
    assert seq.beta[30] == beta_closed(30)


@functools.cache
def _symbolic_closed_forms(n_max):
    return [_closed_forms(n) for n in range(n_max + 1)]


POINTS = [
    (Fraction(-7, 20), Fraction(2, 25)),
    (Fraction(3, 10), Fraction(-1, 10)),
    (Fraction(-5, 3), Fraction(-2, 7)),
    (Fraction(0), Fraction(1, 3)),
    (Fraction(-2, 9), Fraction(0)),
    (Fraction(0), Fraction(0)),
]


def test_point_values_equal_substituted_symbolic_values():
    n_max = 12
    seq = alpha_beta_recurrence(n_max)
    symbolic = _symbolic_closed_forms(n_max)
    for k0, k1 in POINTS:
        at = alpha_beta_recurrence(n_max, k0, k1)
        for n in range(n_max + 1):
            assert at.alpha[n] == poly_eval(seq.alpha[n], k0, k1)
            assert at.beta[n] == poly_eval(seq.beta[n], k0, k1)
            for got, poly in zip(_closed_forms(n, k0, k1), symbolic[n]):
                assert isinstance(got, Fraction)
                assert got == poly_eval(poly, k0, k1), f"n={n} at ({k0}, {k1})"


_EXACT_PARAM = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=64))


@st.composite
def _closed_form_points(draw):
    """(k0, k1) as ints or Fractions, some on S = 0 or F = 0 (b = 1/2 or 3/2)."""
    k0 = draw(_EXACT_PARAM)
    vanishing = st.sampled_from([k0 - Fraction(1, 2), -Fraction(1, 2) - k0, -Fraction(3, 2) - k0])
    return k0, draw(st.one_of(_EXACT_PARAM, vanishing))


@settings(max_examples=60, deadline=None)
@given(point=_closed_form_points())
@example(point=(Fraction(-7, 20), Fraction(2, 27)))  # coprime denominators
@example(point=(Fraction(5, 9), Fraction(-11, 16)))
@example(point=(1, -2))  # plain ints
@example(point=(Fraction(1, 4), Fraction(-1, 4)))  # S = 0
@example(point=(Fraction(-1, 3), Fraction(-1, 6)))  # F = 0 for the pairings
@example(point=(Fraction(2, 5), Fraction(-19, 10)))  # F = 0 for alpha, beta
def test_point_closed_forms_equal_substituted_symbolic_forms(point):
    k0, k1 = point
    for n, symbolic in enumerate(_symbolic_closed_forms(12)):
        for got, poly in zip(_closed_forms(n, k0, k1), symbolic):
            assert isinstance(got, Fraction)
            assert got == poly_eval(poly, k0, k1), f"n={n} at ({k0}, {k1})"


def test_mixed_symbolic_and_point_arguments_in_either_order():
    # one parameter rational, the other the symbol: a polynomial in that
    # symbol, equal to the recurrence run with the same arguments
    for point in ((Fraction(1, 3), K1), (K0, Fraction(1, 3)), (Fraction(-2, 7), K1), (K0, 2)):
        one_plus = 1 + 2 * point[0] + 2 * point[1]
        seq = alpha_beta_recurrence(6, *point)
        for n in range(7):
            assert alpha_closed(n, *point) == seq.alpha[n], (n, point)
            assert beta_closed(n, *point) == seq.beta[n], (n, point)
            assert s_inner_closed(n, "p12", *point) == one_plus * seq.alpha[n]
            assert s_inner_closed(n, "p14", *point) == one_plus * seq.beta[n]


def test_point_values_take_exact_parameters_only():
    seq = alpha_beta_recurrence(3, 1, 0)
    assert all(isinstance(v, Fraction) for v in seq.alpha + seq.beta)
    assert seq.beta[0] == Fraction(1, 2)  # -(1 + 2k1 - 2k0)/2 stays exact
    for value in (alpha_closed(2, 1, -1), beta_closed(2, 1, -1), s_inner_closed(2, "p14", 1, -1)):
        assert isinstance(value, Fraction)
    for call in (
        lambda: alpha_beta_recurrence(3, 0.25, 0),
        lambda: alpha_closed(2, 0, 0.1),
        lambda: beta_closed(2, 0.25, 0),
        lambda: s_inner_closed(2, "p12", 0.25, 0.1),
    ):
        with pytest.raises(TypeError):
            call()


# ---------------------------------------------------------------------------
# terminating sums at unit argument
# ---------------------------------------------------------------------------


def test_f_values_trivia():
    assert f_values(0, Fraction(1, 3), Fraction(1, 5)) == (1, 1)
    for n in (1, 3, 7):
        f1, f2 = f_values(n, Fraction(1, 4), Fraction(0))
        assert f1 == 1 and f2 == 1


def test_f_values_consistent_with_closed_form():
    k0, k1 = Fraction(3, 10), Fraction(1, 10)
    half = Fraction(1, 2)
    for n in (0, 1, 3):
        f1, f2 = f_values(n, k0, k1)
        pref1 = (
            poch(half + k1 + k0, n + 1)
            * poch(half + k1 - k0, n)
            / (poch(half, n + 1) * math.factorial(n))
        )
        pref2 = -(
            poch(half + k1 + k0, n + 1)
            * poch(half + k1 - k0, n + 1)
            / (poch(half, n + 1) * math.factorial(n + 1))
        )
        assert f1 * pref1 == poly_eval(s_inner_closed(n, "p12"), k0, k1)
        assert f2 * pref2 == poly_eval(s_inner_closed(n, "p14"), k0, k1)


def test_f_values_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameterError):
        f_values(2, Fraction(0), Fraction(-1, 2))


def test_chu_vandermonde_small_cases():
    assert chu_vandermonde(0, Fraction(1, 7)) == (1, 1)
    lhs, rhs = chu_vandermonde(1, Fraction(1, 4))
    assert lhs == rhs == Fraction(5, 6)
    lhs, rhs = chu_vandermonde(20, Fraction(-1, 3))
    assert lhs == rhs


def test_chu_vandermonde_random_rationals():
    rng = random.Random(424242)
    done = 0
    while done < 20:
        k1 = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        if 2 * k1 == int(2 * k1) and -51 <= 2 * k1 <= -1:
            continue  # denominator Pochhammer would vanish for some n <= 50
        for n in range(0, 51, 10):
            lhs, rhs = chu_vandermonde(n, k1)
            assert lhs == rhs
        done += 1


def test_chu_vandermonde_degenerate_raises():
    with pytest.raises(DegenerateParameterError):
        chu_vandermonde(3, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# squeeze comparison
# ---------------------------------------------------------------------------


def test_squeeze_equality_at_c_zero():
    rep = squeeze_check(10, Fraction(3, 5), Fraction(-2, 7), Fraction(0))
    assert rep.plain_sum == rep.middle == rep.shifted_sum == 1
    assert rep.chain_holds


def test_squeeze_spec_parameter_points():
    # from (k0, k1) = (0.3, 0.1): a = 1/2+k1+k0, b = -1/2+k1-k0, c = -k1 < 0
    rep = squeeze_check(10, Fraction(9, 10), Fraction(-7, 10), Fraction(-1, 10))
    assert rep.branch == "c<=0" and rep.chain_holds
    # from (k0, k1) = (0.1, -0.2): c = -k1 = 0.2 > 0
    rep = squeeze_check(10, Fraction(2, 5), Fraction(-4, 5), Fraction(1, 5))
    assert rep.branch == "c>=0" and rep.chain_holds


def test_squeeze_orderings_over_grid():
    rng = random.Random(31337)
    triples = []
    while len(triples) < 20:
        a = Fraction(rng.randint(1, 9), 10)
        b = Fraction(-rng.randint(1, 9), 10)
        c = Fraction(rng.randint(-8, 12), 10)
        if 0 < a < 1 and -1 < b < 0 and c > -1:
            triples.append((a, b, c))
    for a, b, c in triples:
        for n in (1, 5, 17, 50):
            assert squeeze_check(n, a, b, c).chain_holds


def test_squeeze_region_check():
    with pytest.raises(RegionError):
        squeeze_check(5, Fraction(3, 2), Fraction(-1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# gamma and ratio asymptotics
# ---------------------------------------------------------------------------


def test_gamma_classic_values():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_fn(5.0) - 24.0) < 1e-12


def test_gamma_matches_stdlib_on_range():
    x = 0.05
    while x <= 20.0:
        assert abs(gamma_fn(x) - math.gamma(x)) <= 1e-13 * math.gamma(x)
        x += 0.173


def test_gamma_within_claimed_error():
    # the grid _GAMMA_RELERR was measured on: [-10, 10] and 1e-12..1e-3 off each pole
    xs = [-10 + i / 100 for i in range(2001) if i % 100]
    xs += [pole + sign * m * 10.0**k for pole in range(-10, 1) for sign in (-1, 1)
           for k in range(-12, -3) for m in (1.0, 3.1, 8.9)]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.gamma(mpmath.mpf(x))
            assert abs(gamma_fn(x) - ref) <= _GAMMA_RELERR * abs(ref), f"x = {x!r}"


def test_gamma_reflection_identity():
    for k in (0.4, 0.1, -0.3, 0.25):
        lhs = gamma_fn(0.5 - k) * gamma_fn(0.5 + k)
        rhs = math.pi / math.cos(math.pi * k)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_duplication_identity():
    for x in (0.3, 0.75, 1.9, 4.2):
        lhs = gamma_fn(2 * x)
        rhs = gamma_fn(x) * gamma_fn(x + 0.5) * 2 ** (2 * x - 1) / math.sqrt(math.pi)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_pole_raises():
    with pytest.raises(RegionError):
        gamma_fn(0.0)
    with pytest.raises(RegionError):
        gamma_fn(-3.0)


def test_stirling_ratio_basics():
    ratio, asym = stirling_ratio(0.7, 0.7, 25)
    assert ratio == 1.0 and asym == 1.0
    ratio, asym = stirling_ratio(1.25, 1.5, 10_000)
    assert 0.99 <= ratio / asym <= 1.01
    ratio, _ = stirling_ratio(2.0, 5.0, 1)
    assert ratio == 2.0 / 5.0


def test_asym_f_normalization_exact_at_k1_zero():
    for n in (2, 50, 400):
        v1, v2 = asym_f_check(n, 0.3, 0.0)
        assert v1 == 1.0 and v2 == 1.0


def test_asym_f_normalization_tends_to_one():
    v1, v2 = asym_f_check(1000, 0.2, 0.1)
    assert 0.95 <= v1 <= 1.05 and 0.95 <= v2 <= 1.05
    w1, w2 = asym_f_check(200, 0.2, 0.1)
    u1, u2 = asym_f_check(2000, 0.2, 0.1)
    assert abs(u1 - 1) < abs(w1 - 1) and abs(u2 - 1) < abs(w2 - 1)


def test_asym_f_region_check():
    with pytest.raises(RegionError):
        asym_f_check(100, 0.4, 0.2)
