"""Hypergeometric layer: series with certified tails, exact sums, gamma."""

import functools
import itertools
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
    _TINY,
    _connection_series,
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
    # the z = 1 divergence, the z = 1 and near-1 tolerance refusals; near
    # z = 1 with c - a - b = 5e-4, where the two connection series cancel,
    # the value is certified
    d = 1.2 - 0.8 - 0.9
    with pytest.raises(RegionError) as exc:
        gauss_2f1(0.8, 0.9, 1.2, 1.0)
    assert str(exc.value) == f"2F1 diverges at z = 1 when c - a - b = {d} is not positive"
    best = r"\(best bound \d\.\d{3}e-\d\d\)$"
    with pytest.raises(ToleranceError, match=r"^tol=1e-16 unreachable for 2F1 at z=1 " + best):
        gauss_2f1(-0.3, 0.45, 1.2, 1.0, tol=1e-16)
    with pytest.raises(ToleranceError, match=r"^tol=1e-17 unreachable for 2F1 near z=1 " + best):
        gauss_2f1(0.3, 0.4, 1.2, 0.9, tol=1e-17)
    res = gauss_2f1(0.3, 0.4, 0.7005, 0.9, tol=1e-12)
    with mpmath.workdps(40):
        assert abs(res.value - mpmath.hyp2f1(0.3, 0.4, 0.7005, 0.9)) <= res.tail_bound


def test_2f1_rejects_bad_arguments():
    with pytest.raises(RegionError):
        gauss_2f1(0.5, 0.5, 1.5, 1.2)
    with pytest.raises(RegionError):
        gauss_2f1(0.5, 0.5, -2.0, 0.3)


def test_2f1_refuses_non_finite_parameters():
    # a NaN parameter ran the series to its term cap, and c = inf gave 1.0;
    # each is refused with its name, on every branch, also in a batch
    for z in (0.0, 0.3, 0.9, 1.0):
        for bad in (math.nan, math.inf, -math.inf):
            for name, params in (("a", (bad, 0.5, 1.5)), ("b", (0.5, bad, 1.5)), ("c", (0.5, 0.5, bad))):
                with pytest.raises(RegionError, match=f"^gauss_2f1 parameter {name} = .* is not finite$"):
                    gauss_2f1(*params, z)
                with pytest.raises(RegionError, match=f"parameter {name} = "):
                    _gauss_2f1_rows([(0.5, 0.5, 1.5), params], [[z], [z]], [[1.0 - z], [1.0 - z]], 1e-12)
    # k1 enters b and c of every h series
    for i in (1, 2, 3, 4):
        with pytest.raises(RegionError, match="is not finite"):
            h_func(i, 0.5, 0.1, math.nan)


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
    """``_reference_branch`` under the contract of every branch: a bound over
    tol * (1 + |value|), or a value or bound that is not finite, raises
    ToleranceError."""
    result = _reference_branch(a, b, c, z, tol, z_complement)
    within = result.tail_bound <= tol * (1.0 + abs(result.value))
    if not (within and math.isfinite(result.value)):
        raise ToleranceError(f"tol={tol} unreachable (best bound {result.tail_bound:.3e})")
    return result


def _reference_branch(a, b, c, z, tol, z_complement):
    """The scalar body of gauss_2f1 as it stood before the batched entry, with
    the near-1 arguments taking the scalar form of the connection series."""
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
        return HypResult(value, 5.0 * _GAMMA_RELERR * abs(value), 1)

    if z_eff <= 0.75:
        return _reference_sum_series(a, b, c, z_eff, tol, max_terms=2_000)

    return _reference_connection(a, b, c, w)


def _reference_connection(a, b, c, w):
    """The near-1 branch at one argument, one term at a time: the series of
    ``_connection_series`` summed at w, with the bound of ``_connection_rows``."""
    m, eps, euler, gamma_c, table, (tail_a, tail_b), ratio = _connection_series(a, b, c)
    log_w = math.log(w)
    e = log_w if eps == 0.0 else math.expm1(eps * log_w) / eps
    e_rel = 1.0 if eps == 0.0 else 2.0 + 3.0 * abs(eps * log_w)
    alpha = beta = err_a = err_b = mass_b = 0.0
    power = 1.0
    for row_alpha, row_beta, row_err_a, row_err_b, row_mass_b in table.tolist():
        alpha += power * row_alpha
        beta += power * row_beta
        err_a += power * row_err_a
        err_b += power * row_err_b
        mass_b += power * row_mass_b
        power *= w
    inner = alpha + e * beta
    err = err_a + abs(e) * (err_b + e_rel * mass_b) + abs(e * beta) + abs(inner)
    tail = (tail_a + abs(e) * tail_b) * power / (1.0 - ratio * w)
    value = gamma_c * inner
    bound = abs(gamma_c) * (tail + _EPS * err + 16 * len(table) * _TINY)
    bound += (_GAMMA_RELERR + _EPS) * abs(value) + _TINY
    if euler is not None:
        exponent = euler * log_w
        prefactor = math.exp(exponent) if exponent < 709.78 else math.inf
        value = prefactor * value
        bound = prefactor * bound + (2.0 + 3.0 * abs(exponent)) * _EPS * abs(value)
        bound += _TINY
    return HypResult(value, bound, len(table))


def _bits(result):
    return result.value.hex(), result.tail_bound.hex(), result.terms_used


def _assert_rows_match_reference(params, zs, ws, tol):
    """``_gauss_2f1_rows`` at (zs, ws) against the reference at each pair:
    equal bits (near z = 1, where the batched sum runs in another order,
    values within the two bounds and bounds equal to rounding), or an error
    of a type the reference raises too."""
    expected, raised = [], set()
    for a, b, c in params:
        for z, w in zip(zs, ws):
            try:
                expected.append(_reference_gauss_2f1(a, b, c, z, tol, z_complement=w))
            except (RegionError, ToleranceError) as exc:
                raised.add(type(exc))
    try:
        rows = _gauss_2f1_rows(params, [zs] * len(params), [ws] * len(params), tol)
    except (RegionError, ToleranceError) as exc:
        assert type(exc) in raised, exc
        return
    assert not raised, raised
    got = [
        HypResult(v, t, n)
        for value, bound, terms in rows
        for v, t, n in zip(value.tolist(), bound.tolist(), terms.tolist())
    ]
    near = [
        0.0 < w < 0.25 and not ((a <= 0 and a == round(a)) or (b <= 0 and b == round(b)))
        for a, b, _ in params
        for w in ws
    ]
    for mine, theirs, connection in zip(got, expected, near):
        if connection:
            assert abs(mine.value - theirs.value) <= mine.tail_bound + theirs.tail_bound
            assert math.isclose(mine.tail_bound, theirs.tail_bound, rel_tol=1e-12)
        else:
            assert _bits(mine) == _bits(theirs)


_PARAM = st.floats(-2.5, 2.5)


@st.composite
def _series_cases(draw):
    """Parameter triples sharing arguments: a mix of terminating triples,
    triples with c - a - b within 1e-5 of an integer (with and without the
    Euler transform near z = 1) and generic ones; arguments include 0, 1,
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
    # the forward and connection branches and z = 0, 1 all occur
    zs = [0.0, 0.001, 0.2, 0.5, 0.7, 0.75, 0.8, 0.95, 1.0]
    ws = [1.0 - z for z in zs]
    params = [(1.9, 1.3, 0.6), (-2.0, 0.5, 1.1), (0.5, 0.25, 1.5)]
    _assert_rows_match_reference(params, zs, ws, 1e-12)
    _, _, terms = _gauss_2f1_rows(params[:1], [zs[1:6]], [ws[1:6]], 1e-12)[0]
    # blocks of _FIRST_BLOCK, then twice that: indices below 32, 96 and above
    blocks = {int(np.searchsorted([_FIRST_BLOCK, 3 * _FIRST_BLOCK], m, side="right")) for m in terms}
    assert blocks == {0, 1, 2}
    # c - a - b = -1 + 2e-6 (after an Euler transform) and 3e-6
    _assert_rows_match_reference([(0.7, 0.2, -0.1 + 2e-6), (0.1, 0.6, 0.7 + 3e-6)], zs[6:8], ws[6:8], 1e-9)


def test_each_triple_takes_its_own_arguments():
    # one call over triples with arguments of their own, none for one of
    # them, gives each triple the bits of a call at that triple alone
    zs = [0.0, 0.001, 0.2, 0.5, 0.7, 0.75, 0.8, 0.95, 1.0]
    params = [(1.9, 1.3, 0.6), (-2.0, 0.5, 1.1), (0.5, 0.25, 1.5), (0.3, 0.4, 0.7005)]
    args = [zs[:8:2], [], zs[1:6], zs[4:]]
    rows = _gauss_2f1_rows(params, args, [[1.0 - z for z in at] for at in args], 1e-12)
    for triple, at, got in zip(params, args, rows):
        (alone,) = _gauss_2f1_rows([triple], [at], [[1.0 - z for z in at]], 1e-12)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]


def test_one_call_over_mixed_triples_gives_every_argument_its_own_bits():
    # each triple takes arguments on every branch (z = 0, forward, z = 1 and
    # near z = 1) and two triples terminate; in one call every triple gets
    # the bits of a call at that triple alone and of one call per argument
    zs = [0.0, 0.3, 1.0, 0.9, 0.001, 0.99, 0.7, 0.8]
    params = [(-2.0, 0.5, 1.1), (0.5, 0.25, 1.5), (0.3, 0.4, 1.7005), (0.7, -3.0, 2.2), (1.2, -0.3, 2.4)]
    args = [zs, zs[::-1], zs[1:6], zs[2:], zs[:4]]
    rest = [[1.0 - z for z in at] for at in args]
    rows = _gauss_2f1_rows(params, args, rest, 1e-12)
    for triple, at, ws, got in zip(params, args, rest, rows):
        (alone,) = _gauss_2f1_rows([triple], [at], [ws], 1e-12)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone], triple
        for j, (z, w) in enumerate(zip(at, ws)):
            (one,) = _gauss_2f1_rows([triple], [[z]], [[w]], 1e-12)
            assert [a[j:j + 1].tobytes() for a in got] == [a.tobytes() for a in one], (triple, z)


# calls whose bound at tol = 1e-12 exceeded tol * (1 + |value|) when c - a - b
# within 1e-5 of an integer took capped forward summation: an Euler-transformed
# row (bound 3.8e-9 against a limit of 3.2e-9) and two plain ones (7.4e-10
# against 4.7e-11, 1.67e-12 against 1.56e-12)
_OVER_CONTRACT = [
    (1.25, -1.5, -2.25, 0.984375),
    (1.4740497991000936, -1.531950801208408, -0.05790233576796999, 0.999),
    (0.75, -2.198155894304602, -0.4481585707164747, 0.9296261360554967),
]


def test_sliver_rows_refuse_a_bound_over_the_contract():
    # the connection series now covers them: each computes within its bound
    # against the oracle, or refuses
    for a, b, c, z in _OVER_CONTRACT:
        try:
            res = gauss_2f1(a, b, c, z, tol=1e-12)
        except ToleranceError as exc:
            assert str(exc).startswith("tol=1e-12 unreachable for 2F1 near z=1 (best bound ")
            continue
        with mpmath.workdps(40):
            err = abs(res.value - mpmath.hyp2f1(a, b, c, z))
        assert err <= res.tail_bound, (a, b, c, z, float(err), res.tail_bound)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_series_cases())
@example(case=([(a, b, c) for a, b, c, _ in _OVER_CONTRACT], [z for *_, z in _OVER_CONTRACT],
                [1.0 - z for *_, z in _OVER_CONTRACT], 1e-12))
def test_every_returned_row_meets_the_contract(case):
    params, zs, ws, tol = case
    try:
        rows = _gauss_2f1_rows(params, [zs] * len(params), [ws] * len(params), tol)
    except (RegionError, ToleranceError):
        return
    for value, bound, _ in rows:
        assert np.all(bound <= tol * (1.0 + np.abs(value))), (params, zs, tol)


_SMALL = st.floats(-12, -3).map(lambda e: 10**e)


@st.composite
def _oracle_cases(draw):
    """(a, b, c, z, w, tol) for the oracle: c - a - b is mostly m + eps with
    m in -2..2 and |eps| 0 or in [1e-12, 1e-3]; z is mostly near 1, given by
    an accurate complement w from 1/4 down to 1e-300 (w None: z alone, as
    ``gauss_2f1`` takes it)."""
    a, b = draw(_PARAM), draw(_PARAM)
    if draw(st.integers(0, 3)):
        eps = draw(st.one_of(st.just(0.0), _SMALL, _SMALL.map(lambda e: -e)))
        c = a + b + draw(st.integers(-2, 2)) + eps
    else:
        c = draw(st.floats(0.1, 3.0))
    where = draw(st.sampled_from(["complement", "complement", "near", "forward", "one"]))
    if where == "complement":
        w = 10 ** draw(st.floats(-300, math.log10(0.25)))
        return a, b, c, 1.0 - w, w, draw(st.sampled_from([1e-12, 1e-9]))
    z = {"near": draw(st.floats(0.75, 1.0)), "forward": draw(st.floats(0.0, 0.75)), "one": 1.0}[where]
    return a, b, c, z, None, draw(st.sampled_from([1e-12, 1e-9]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_oracle_cases())
# c - a - b is 1 - 3.9e-5 and b is -3.9e-5: the two connection series had
# an error of 9.40e-13 against a bound of 2.21e-14
@example(case=(1.549391357784376, -3.887829930189996e-05, 0.5493913577843761,
               0.7796438337108541, None, 1e-11))
@example(case=(0.3, 0.4, 0.7005, 0.9, None, 1e-12))
@example(case=(1e-4, 0.6 - 1e-4, 0.7 + 1e-4, 1.0 - 1e-300, 1e-300, 1e-12))
def test_2f1_bound_holds_against_the_oracle(case):
    # zero slack against mpmath at 40 digits, more where w = 1 - z is tiny;
    # refusing is allowed, a wrong bound is not
    a, b, c, z, w, tol = case
    try:
        if w is None:
            res = gauss_2f1(a, b, c, z, tol=tol)
        else:
            ((value, bound, terms),) = _gauss_2f1_rows([(a, b, c)], [[z]], [[w]], tol)
            res = HypResult(float(value[0]), float(bound[0]), int(terms[0]))
    except (RegionError, ToleranceError):
        return
    digits = 40 if w is None else 40 + int(-math.log10(w))
    with mpmath.workdps(digits):
        x = mpmath.mpf(z) if w is None else 1 - mpmath.mpf(w)
        err = abs(res.value - mpmath.hyp2f1(a, b, c, x))
    assert err <= res.tail_bound, (case, float(err), res.tail_bound)


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
    # c - a - b is -1 + 3.4e-7, so the connection series runs on the Euler
    # transform, whose (1 - z)^(c-a-b) magnifies the rounding of its exponent
    # by |log(1 - z)| = 19.2: an error of over 100 on a value of 9.7e16
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
    # |c - a - b - 1| = 2|k0| from 2e-12 to 2e-3: the two connection series
    # cancel, the more the nearer c - a - b is to 1
    magnitudes = (1e-12, 1e-9, 1e-6, 6e-6, 2e-5, 1e-4, 1e-3)
    for k0 in [sign * m for m in magnitudes for sign in (1, -1)]:
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


def _substitute(poly, k0, k1):
    """poly with k0 and k1 replaced by the given ParamPoly or rational values,
    composed exactly in ParamPoly arithmetic."""
    total = ParamPoly.zero()
    for (e0, e1), c in poly:
        total = total + c * k0**e0 * k1**e1
    return total


@pytest.mark.parametrize(
    "point",
    [(K0, Fraction(1, 3)), (K0 / 2, K1), (K0 / 3 + Fraction(1, 4), -K1 / 2)],
    ids=["K0,1/3", "K0/2,K1", "K0/3+1/4,-K1/2"],
)
def test_parameters_with_denominators_equal_the_substituted_symbolic_results(point):
    # a rational next to a symbol, and a ParamPoly with a denominator, which
    # ring._integral_scale folds into D: every result is the full symbolic one
    # with the same values put in
    symbolic, seq = _symbolic_closed_forms(12), alpha_beta_recurrence(8)
    at = alpha_beta_recurrence(8, *point)
    for n in range(9):
        for got, poly in zip(_closed_forms(n, *point), symbolic[n]):
            assert got == _substitute(poly, *point), f"n={n}"
        assert at.alpha[n] == _substitute(seq.alpha[n], *point), f"alpha n={n}"
        assert at.beta[n] == _substitute(seq.beta[n], *point), f"beta n={n}"


def test_closed_forms_and_recurrence_do_not_use_the_generic_product(count_calls):
    # the loops multiply dense integer rows (ring._Dense, read and made by
    # ring._integral_scale and ring._times_ratio); ParamPoly's own
    # product may only appear a fixed number of times, whatever n is
    calls = [count_calls(ParamPoly, name) for name in ("__mul__", "__rmul__")]
    runs = {
        "alpha_closed": alpha_closed,
        "s_inner_closed p14": lambda n: s_inner_closed(n, "p14"),
        "alpha_beta_recurrence": alpha_beta_recurrence,
    }
    for label, run in runs.items():
        counts = []
        for n in (2, 20):
            for seen in calls:
                seen.clear()
            run(n)
            counts.append(sum(map(len, calls)))
        assert counts[0] == counts[1] <= 1, (label, counts)


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


def test_f_values_are_the_squeeze_sums_at_the_matching_parameters():
    # a = 1/2+k1+k0, b = -1/2+k1-k0, c = -k1: f_values is squeeze_check's
    # (plain_sum, shifted_sum), exactly, also at k1 = -9/20 where c is largest
    points = [
        (Fraction(3, 10), Fraction(1, 10)),
        (Fraction(1, 10), Fraction(-1, 5)),
        (Fraction(-1, 5), Fraction(1, 7)),
        (Fraction(0), Fraction(-9, 20)),
        (Fraction(1, 40), Fraction(-9, 20)),
    ]
    for (k0, k1), n in itertools.product(points, (0, 1, 4, 11)):
        rep = squeeze_check(n, Fraction(1, 2) + k1 + k0, Fraction(-1, 2) + k1 - k0, -k1)
        f1, f2 = f_values(n, k0, k1)
        assert (f1, f2) == (rep.plain_sum, rep.shifted_sum), (k0, k1, n)
        assert type(f1) is Fraction and type(f2) is Fraction


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
