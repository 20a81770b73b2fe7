"""Hypergeometric machinery.

Everything here comes in two flavors:

* an exact-rational path for the finite sums (closed forms, terminating
  series, the squeeze quantities), which operate in Q or Q[k0, k1] and are
  compared with zero tolerance, and
* a floating-point path for the Gauss series F(a, b; c; z), where every value
  carries a certified bound on the truncation error.

The certified bound works as follows.  Write t_m for the m-th series term.
Once m is past the point where a+m, b+m, c+m, 1+m are all positive, each of
the two factors (a+m)/(1+m) and (b+m)/(c+m) of the term ratio is monotone in
m with limit 1, so the ratio of consecutive terms from index m on is at most

    r = z * max((a+m)/(1+m), 1) * max((b+m)/(c+m), 1),

and if r < 1 the whole tail from t_m on is at most |t_m| / (1 - r).

The float path works on arrays: ``_gauss_2f1_rows`` takes several parameter
triples, each at its own array of arguments, and sums all series away from
z = 1 in one ``_sum_series`` call, in the order of a one-term-at-a-time loop.
Near z = 1 each triple takes one series in w = 1 - z, uniform in the
distance of c - a - b from the nearest integer (``_connection_series``): its
coefficients do not depend on w, so they are formed once per triple, and the
bound there is a tail bound of the same kind plus a running bound on the
rounding.  ``h_func`` is ``gauss_2f1`` at its parameter triple.
``_gauss_2f1_rows`` and its helpers import numpy when they run, so the
exact paths never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DegenerateParameterError, RegionError, ToleranceError
from .ring import K0, K1, ParamPoly, _integral_scale, _times_ratio, poch

HALF = Fraction(1, 2)
Exact = Union[int, Fraction]

# Relative accuracy claimed for gamma_fn: over twice the worst error of
# math.gamma seen against a 40-digit mpmath oracle on [-10, 10], including
# 1e-12..1e-3 from each pole there (9.6e-16).
_GAMMA_RELERR = 2.5e-15
# Floating-point slack folded into every reported tail bound.
_EPS = 2.2e-16
# The smallest subnormal float.
_TINY = math.ulp(0.0)


@dataclass(frozen=True)
class HypResult:
    """A series value together with a certified truncation-error bound."""

    value: float
    tail_bound: float
    terms_used: int


@dataclass(frozen=True)
class ParamPoint:
    """A parameter pair with its region flags, computed from the point:

    * integrable:         |k0| < 1/2 and |k1| < 1/2
    * positive definite:  -1/2 < k0 + k1 < 1/2 and -1/2 < k0 - k1 < 1/2

    The flags also take exact rationals: a Fraction compares with 0.5 exactly.
    """

    k0: float
    k1: float

    @property
    def integrable(self) -> bool:
        return abs(self.k0) < 0.5 and abs(self.k1) < 0.5

    @property
    def positive_definite(self) -> bool:
        return abs(self.k0 + self.k1) < 0.5 and abs(self.k0 - self.k1) < 0.5


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------


def _check_tol(tol: float) -> None:
    """Refuse a NaN or negative tolerance, which no rule can meet, before any work."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")


def _is_nonpositive_integer(x: float, tol: float = 0.0) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= tol and round(x) <= 0


def gamma_fn(x: float) -> float:
    """Gamma function for real x: ``math.gamma`` with poles raising RegionError."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise RegionError(f"gamma_fn pole at x = {x}")
    return math.gamma(x)


def _recip_gamma(x: float) -> float:
    """1 / Gamma(x), returning 0.0 at the poles."""
    if _is_nonpositive_integer(x, tol=1e-13):
        return 0.0
    return 1.0 / gamma_fn(x)


# ---------------------------------------------------------------------------
# the Gauss series
# ---------------------------------------------------------------------------

# ``_sum_series`` forms terms in blocks: the first of 32 indices, each later
# one twice as wide, but no block array holds more than 65 536 floats (rows
# times indices), which bounds the working set of a large batch.
_FIRST_BLOCK = 32
_BLOCK_FLOATS = 65_536


def _terminates(x: np.ndarray) -> np.ndarray:
    """Where the parameters x are 0, -1, -2, ...: the series they enter terminates."""
    return (x <= 0.0) & (x == x.round())


def _sum_series(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward summation of F(a_k, b_k; c_k; z_k), 0 <= z_k < 1, for every row k.

    Returns the arrays (value, tail_bound, terms_used).  Each row stops at the
    first index m, up to 10^6 if the row terminates and 2 000 if not, where
    its term is zero (bounded by rounding alone) or where, from the first
    index past every negative parameter on, the tail bound of the module
    docstring is at most tol; a row with no such index raises ToleranceError.
    The terms, the partial sums and the sums of absolute values are formed in
    blocks of indices by ``multiply.accumulate`` and ``add.accumulate``, which
    run in sequence, so every row rounds as a one-term-at-a-time loop would.
    A block shifts a, b and c of its live rows by its indices in one addition
    and forms each |term| once, for the sums of absolute values and the tail
    bounds; only rows still going carry their term and sums to the next block.
    """
    import numpy as np

    rows = len(a)
    max_terms = np.where(_terminates(a) | _terminates(b), 10**6, 2_000)
    value, bound = np.ones(rows), np.zeros(rows)
    terms = np.ones(rows, dtype=np.int64)
    # the first index past every negative parameter
    m_pos = np.maximum(np.ceil(-np.minimum(np.minimum(a, b), c)), 0.0) + 1.0
    live = np.flatnonzero(z != 0.0)  # F = 1 exactly at z = 0
    # per live row: a, b, c, z, max_terms, m_pos, and the running term,
    # partial sum and sum of absolute values
    carry = np.ones(rows), np.zeros(rows), np.zeros(rows)
    state = np.array([a, b, c, z, max_terms, m_pos, *carry])[:, live]
    start, width = 0, _FIRST_BLOCK
    with np.errstate(all="ignore"):  # rows past their stop may overflow
        while live.size:
            width = max(1, min(width, _BLOCK_FLOATS // live.size))
            m = np.arange(start, start + width, dtype=float)
            m1 = 1.0 + m
            am, bm, cm = state[:3, :, None] + m
            rz, rmax, rpos, term, total, abs_sum = state[3:, :, None]
            # column j holds index start + j, the last column the carry
            ratio = am * bm / (cm * m1) * rz
            seq = np.multiply.accumulate(np.concatenate((term, ratio), axis=1), axis=1)
            now = seq[:, :-1]
            size = np.abs(now)
            sums = np.add.accumulate(np.concatenate((total, now), axis=1), axis=1)
            abs_sums = np.add.accumulate(np.concatenate((abs_sum, size), axis=1), axis=1)
            r = rz * np.maximum(am / m1, 1.0) * np.maximum(bm / cm, 1.0)
            tail = size / (1.0 - r)
            certified = (m >= rpos) & (0.0 <= r) & (r < 1.0) & (tail <= tol)
            stop = ((now == 0.0) | certified) & (m <= rmax)
            first, stopped = stop.argmax(axis=1), stop.any(axis=1)
            hit = np.flatnonzero(stopped)
            j = first[hit]
            rounding = _EPS * abs_sums[hit, j] * np.maximum(m[j], 1.0)
            done = live[hit]
            value[done] = sums[hit, j]
            bound[done] = np.where(now[hit, j] == 0.0, rounding, tail[hit, j] + rounding)
            terms[done] = np.maximum(start + j, 1)
            if hit.size == live.size:
                break
            going = ~stopped
            over = np.flatnonzero(going & (rmax[:, 0] < start + width))
            if over.size:
                k = live[over[0]]
                raise ToleranceError(
                    f"2F1 series did not certify tol={tol} within {int(max_terms[k])} terms "
                    f"(a={a[k]}, b={b[k]}, c={c[k]}, z={z[k]})"
                )
            state[6:] = seq[:, -1], sums[:, -1], abs_sums[:, -1]
            live, state = live[going], state[:, going]
            start += width
            width *= 2
    return value, bound, terms


def euler_transform(
    a: float, b: float, c: float, z: float
) -> tuple[float, float, float, float, float]:
    """Parameters and prefactor of F(a,b;c;z) = (1-z)^(c-a-b) F(c-a,c-b;c;z).

    Returns (a', b', c', z, prefactor); requires z < 1.
    """
    if z >= 1.0:
        raise RegionError("euler_transform requires z < 1")
    prefactor = (1.0 - z) ** (c - a - b)
    return (c - a, c - b, c, z, prefactor)


def _gauss_sum(a: float, b: float, c: float) -> float:
    """F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), for c - a - b > 0."""
    return gamma_fn(c) * gamma_fn(c - a - b) * _recip_gamma(c - a) * _recip_gamma(c - b)


# Taylor coefficients of 1 / Gamma(1 + x) about x = 0 (the first is 1, the
# second Euler's constant), as many as matter on |x| <= 3/4, where the last
# one left out is below 1e-21
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09,
    1.0434267116911005e-10, 7.782263439905071e-12, -3.696805618642206e-12,
    5.100370287454476e-13, -2.0583260535665066e-14, -5.348122539423018e-15,
    1.2267786282382608e-15, -1.1812593016974588e-16,
)


def _recip_gamma_pair(start: tuple, end: tuple) -> tuple:
    """1/Gamma at s = fsum(start) and t = fsum(end), |t - s| <= 1/2, and its
    divided difference between them, each with a first-order bound on its
    error in units of eps.

    Returns (n, x0, x1, f0, f1, dd, e0, e1, edd) with s = n + x0 and t =
    n + x1 for an integer n and |x0|, |x1| <= 3/4.  1/Gamma(1 + x) is the
    Taylor series at x0 and x1 (Horner), its divided difference the same
    Horner pass on the series' synthetic division; the factors x + i of
    1/Gamma(n + x) = 1/Gamma(1 + x) / ((1 + x) ... (n - 1 + x)), or times
    (n + x) ... (x) for n <= 0, then enter by the product rule, so no
    difference of nearby values is ever formed.  x0 and x1 are each rounded
    once from the exact terms, so 1/Gamma keeps its relative accuracy next
    to a pole; their rounding moves the divided difference by a few eps.
    """
    n = math.floor(0.5 * (math.fsum(start) + math.fsum(end)) + 0.5)
    if abs(n) > _GAMMA_SHIFT:
        raise ToleranceError(f"1/Gamma at {math.fsum(start)} lies past the float range")
    x0, x1 = math.fsum((*start, -n)), math.fsum((*end, -n))
    f0 = f1 = dd = e0 = e1 = edd = 0.0
    for c in reversed(_RGAMMA_TAYLOR):
        # two roundings a step, and a third for the rounding of c, x0 and x1
        new = dd * x0 + f1
        edd, dd = abs(x0) * edd + e1 + abs(dd * x0) + 2.0 * abs(new), new
        new = f1 * x1 + c
        e1, f1 = abs(x1) * e1 + abs(f1 * x1) + 2.0 * abs(new), new
        new = f0 * x0 + c
        e0, f0 = abs(x0) * e0 + abs(f0 * x0) + 2.0 * abs(new), new
    # each factor i + x carries two roundings: its own and that of x
    for i in range(n, 1):  # times (i + x)
        g0, g1 = i + x0, i + x1
        new = f1 + dd * g0
        edd, dd = e1 + abs(g0) * edd + 3.0 * abs(dd * g0) + abs(new), new
        f0, f1 = f0 * g0, f1 * g1
        e0, e1 = abs(g0) * e0 + 3.0 * abs(f0), abs(g1) * e1 + 3.0 * abs(f1)
    for i in range(1, n):  # over (i + x)
        g0, g1 = i + x0, i + x1
        part = f1 / (g0 * g1)
        new = dd / g0 - part
        edd = (edd + e1 / abs(g1)) / abs(g0) + 3.0 * abs(dd / g0) + 6.0 * abs(part) + abs(new)
        dd = new
        f0, f1 = f0 / g0, f1 / g1
        e0, e1 = e0 / abs(g0) + 3.0 * abs(f0), e1 / abs(g1) + 3.0 * abs(f1)
    return n, x0, x1, f0, f1, dd, e0, e1, edd


# Past this shift from [-1/2, 1/2], 1/Gamma is outside the float range.
_GAMMA_SHIFT = 200
# The near-1 series kept at once: a point's L and h series are eight triples.
_CONNECTION_CACHE = 64
# Rows of a near-1 series at most: far more than the 30-60 of parameters
# up to 10, but a bound on the work where the terms overflow first.
_CONNECTION_TERMS = 500


@functools.lru_cache(maxsize=_CONNECTION_CACHE)
def _connection_series(a: float, b: float, c: float) -> tuple:
    """The series in w = 1 - z of F(a, b; c; z) that is uniform in
    eps = d - m, d = c - a - b, m = round(d).

    For m >= 0, with p = a + m, q = b + m and (DLMF 15.8.10 as eps -> 0)

        F = Gamma(c) [ G0 sum_{k<m} (a)_k (b)_k (-1)^k Gamma(m-k+eps) w^k / k!
                       + s w^m sum_j w^j (A_j + E(w) B_j) ],

    G0 = rg(p + eps) rg(q + eps) (rg = 1/Gamma), s = (-1)^(m+1) (a)_m (b)_m
    pi eps / sin(pi eps) and E(w) = (w^eps - 1) / eps, the divided difference
    of w^x.  Term j pairs term m + j of the first connection series with term
    j of the second as one divided difference in x of

        T_j(x) = U_j(x) V_j(x) rg(p + eps - x) rg(q + eps - x) w^x,
        U_j(x) = (p + x)_j rg(1 + m + j + x),  V_j(x) = (q + x)_j rg(1 + j - eps + x),

    between x = 0 (the first series) and x = eps (the second); by the
    product rule B_j = rg(p) rg(q) P_j and A_j = G1 P_j + G0 Q_j with
    P_j = (UV)_j(eps), Q_j its divided difference and G1 that of
    rg(p + eps - x) rg(q + eps - x).  P and Q run a recurrence in j whose
    ratio t_j(x) = U_{j+1} V_{j+1} / (U_j V_j) has the divided difference
    (1 - a) / ((1+m+j)(1+m+j+eps)) v_j(0) + (1 - c + a) / ((1+j)(1+j-eps)) r_j(eps)
    of its factors r_j = U_{j+1}/U_j and v_j = V_{j+1}/V_j.  Where m < 0 the
    same series gives F(c - a, c - b; c; z) = w^(-d) F(a, b; c; z).

    Returns (m, eps, d or None (no Euler transform), Gamma(c), the rows
    k = 0 .. K-1 of (alpha_k, beta_k, err_alpha_k, err_beta_k, |beta_k|) with
    F / Gamma(c) = sum_k w^k (alpha_k + E(w) beta_k) and the errors in units
    of eps (including the rounding of w^k and of the sum), the tail
    constants (tail_alpha, tail_beta) and the ratio g: past the last row the
    terms of the sums of |alpha| and |beta| are at most tail * w^K / (1 - g w).

    Each parameter is split into an integer and an offset rounded once from
    the exact a, b, c (``_recip_gamma_pair``), so d itself never rounds where
    the gamma factors sit beside their poles.  The tail: from index J on,
    |P_{j+1}| <= T |P_j| and |Q_{j+1}| <= T |Q_j| + D |P_j|, where the
    factors (p+j+x)/(1+m+j+x) and (q+j+x)/(1+j-eps+x) of t_j are monotone in
    j with limit 1 and the divided differences of the factors decrease, so
    T and D at J bound every later index, and |P_j| + |Q_j| grows by at most
    g = T + D a step.  Rows are added until that tail at w = 1/4, the largest
    argument the branch takes, is below 2^-56 of the sum so far.
    """
    import numpy as np

    d = math.fsum((c, -a, -b))
    m = math.floor(d + 0.5)
    eps = math.fsum((c, -a, -b, -m))
    euler = None
    a_terms, b_terms = (a,), (b,)
    if m < 0:
        euler, a_terms, b_terms, m, eps = m + eps, (c, -a), (c, -b), -m, -eps
    minus_a, minus_b = (tuple(-t for t in terms) for terms in (a_terms, b_terms))
    # p, q and p + eps = c - b, q + eps = c - a, each from the exact a, b, c
    pn, px0, px1, rp, rpe, dp, e_rp, e_rpe, e_dp = _recip_gamma_pair((*a_terms, m), (c, *minus_b))
    qn, qx0, qx1, rq, rqe, dq, e_rq, e_rqe, e_dq = _recip_gamma_pair((*b_terms, m), (c, *minus_a))
    *_, u1, du, _, e_u1, e_du = _recip_gamma_pair((1 + m,), (1 + m, eps))
    *_, v0, v1, dv, e_v0, e_v1, e_dv = _recip_gamma_pair((1, -eps), (1,))
    g0 = rpe * rqe
    e_g0 = abs(rpe) * e_rqe + abs(rqe) * e_rpe + abs(g0)
    g1 = -(rp * dq + rqe * dp)
    e_g1 = (abs(rp) * e_dq + abs(dq) * e_rp + abs(rqe) * e_dp + abs(dp) * e_rqe
            + abs(rp * dq) + abs(rqe * dp) + abs(g1))
    rpq = rp * rq
    e_rpq = abs(rp) * e_rq + abs(rq) * e_rp + abs(rpq)
    one_minus_a = math.fsum((1.0, *minus_a))
    one_minus_qe = math.fsum((1.0, -c, *a_terms))  # 1 - (c - a)
    # the (a)_k (b)_k of the finite part and of s, each factor rounded once
    factors = [math.fsum((*a_terms, i)) * math.fsum((*b_terms, i)) for i in range(m)]
    finite = []  # (alpha_k, its error) for k < m
    poch = 1.0
    for k in range(m):
        # Gamma(m - k + eps) is math.gamma's, its argument rounded once
        term = poch * (-1) ** k * math.gamma(m - k + eps) / math.factorial(k)
        rel = _GAMMA_RELERR / _EPS + 6 * k + 2 * (m - k) + 5
        finite.append((g0 * term, abs(term) * e_g0 + abs(g0 * term) * rel))
        poch *= factors[k]
    p, e_p = u1 * v1, abs(u1) * e_v1 + abs(v1) * e_u1 + abs(u1 * v1)
    q = u1 * dv + du * v0
    e_q = abs(u1) * e_dv + abs(dv) * e_u1 + abs(du) * e_v0 + abs(v0) * e_du
    e_q += abs(u1 * dv) + abs(du * v0) + abs(q)
    seq = []  # P_j, Q_j and their errors
    scale, quarter = 0.0, 1.0  # the sum of |P_j| + |Q_j| at w = 1/4, and 4^-j
    ratio = math.inf  # unless a row certifies the tail
    for j in range(_CONNECTION_TERMS):
        abs_p, abs_q = abs(p), abs(q)
        size = (abs_p + abs_q + (e_p + e_q) * _EPS) * quarter
        den_u, den_v = 1 + m + j, 1 + j
        r0, re = (pn + j + px0) / den_u, (pn + j + px1) / (den_u + eps)
        v0j, ve = (qn + j + qx0) / (den_v - eps), (qn + j + qx1) / den_v
        dr = one_minus_a / (den_u * (den_u + eps))
        dvj = one_minus_qe / ((den_v - eps) * den_v)
        # 1 - ratio / 4 is at most 3/4: the cheap test first
        if j and size <= 0.75 * 2.0**-56 * scale:
            ratio = max(abs(r0), abs(re), 1.0) * max(abs(v0j), abs(ve), 1.0)
            ratio += max(abs(re), 1.0) * abs(dvj) + abs(dr) * max(abs(v0j), 1.0)
            if ratio < 4.0 and size <= (1.0 - 0.25 * ratio) * 2.0**-56 * scale:
                break
        scale += size
        quarter *= 0.25
        seq.append((p, q, e_p, e_q))
        # t0 and te round at most seven times, each part of dt nine times,
        # dt itself once, and the products and the sum of the step once each
        t0, te = r0 * v0j, re * ve
        mass_dt = abs(re * dvj) + abs(dr * v0j)
        e_q = abs(t0) * (e_q + 9.0 * abs_q) + mass_dt * (e_p + 12.0 * abs_p)
        q, p = t0 * q + (re * dvj + dr * v0j) * p, te * p
        e_p = abs(te) * (e_p + 8.0 * abs_p)
    sine = 1.0 if eps == 0.0 else math.pi * eps / math.sin(math.pi * eps)
    s = (-1) ** (m + 1) * poch * sine
    # alpha_j = s (G1 P_j + G0 Q_j) and beta_j = s rg(p) rg(q) P_j, their
    # errors from those of P, Q and the three factors, and the roundings of
    # the two products and the sum, of s (3m + 6) and of w^k and the sum
    # over the k (k + count, below)
    seq = np.array(seq)
    series = seq[:, :2] @ np.array([[g1, rpq], [g0, 0.0]]) * s
    coeffs = np.array([[abs(g1) + e_g1, abs(rpq) + e_rpq], [abs(g0) + e_g0, 0.0],
                       [abs(g1), abs(rpq)], [abs(g0), 0.0]])
    errors = np.abs(seq) @ coeffs * abs(s) + (3 * m + 8) * np.abs(series)
    count = m + len(seq)
    weight = (np.arange(count) + count)[:, None]
    table = np.zeros((count, 5))
    table[:m, [0, 2]] = np.reshape(finite, (m, 2))
    table[m:, [0, 1]] = series
    table[m:, [2, 3]] = errors
    table[:, 2:4] += weight * np.abs(table[:, :2])
    table[:, 4] = np.abs(table[:, 1])
    table.flags.writeable = False
    size = abs(p) + abs(q) + (e_p + e_q) * _EPS
    tails = (abs(s) * (abs(g1) + abs(g0) + (e_g1 + e_g0) * _EPS) * size,
             abs(s) * (abs(rpq) + e_rpq * _EPS) * size)
    return m, eps, euler, math.gamma(c), table, tails, ratio


def _connection_rows(
    a: float, b: float, c: float, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """F(a, b; c; 1 - w) for 0 < w < 1/4 from ``_connection_series``, with its
    bound: the tail, the rounding of every row, of E(w) and of w^d after an
    Euler transform, and the relative error of Gamma(c).  log(w) is taken
    with ``math``, whose accuracy the bound assumes.  Returns (value, bound,
    terms)."""
    import numpy as np

    logs = [math.log(x) for x in w.tolist()]
    m, eps, euler, gamma_c, table, (tail_a, tail_b), ratio = _connection_series(a, b, c)
    count = len(table)
    powers = np.ones((len(w), count + 1))
    powers[:, 1:] = w[:, None]
    powers = np.cumprod(powers, axis=1)  # w^0 .. w^count
    alpha, beta, err_a, err_b, mass_b = (powers[:, None, :-1] * table.T).sum(axis=2).T
    if eps == 0.0:
        e, e_rel = np.array(logs), 1.0
    else:
        e = np.array([math.expm1(eps * x) for x in logs]) / eps
        # expm1 and the quotient, and the roundings of eps, log w and their
        # product, which |eps log w| magnifies
        e_rel = 2.0 + 3.0 * np.abs(eps * np.array(logs))
    inner = alpha + e * beta
    err = err_a + np.abs(e) * (err_b + e_rel * mass_b) + np.abs(e * beta) + np.abs(inner)
    tail = (tail_a + np.abs(e) * tail_b) * powers[:, -1] / (1.0 - ratio * w)
    value = gamma_c * inner
    # below the normal range each operation may lose up to 2^-1075 outright
    bound = abs(gamma_c) * (tail + _EPS * err + 16 * count * _TINY)
    bound += (_GAMMA_RELERR + _EPS) * np.abs(value) + _TINY
    if euler is not None:
        # w^d rounds once in d, once in d log w and once in exp, each
        # magnified by |d log w|; past the float range it is infinite, and refused
        exponent = [euler * x for x in logs]
        prefactor = np.array([math.exp(x) if x < 709.78 else math.inf for x in exponent])
        with np.errstate(all="ignore"):
            value = prefactor * value
            bound = prefactor * bound + (2.0 + 3.0 * np.abs(exponent)) * _EPS * np.abs(value)
        bound += _TINY
    return value, bound, count


def _gauss_2f1_rows(
    params: list[tuple[float, float, float]],
    z: list,
    w: list,
    tol: float,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """F(a, b; c; z) for every triple (a, b, c) of ``params`` at its own arguments.

    ``z`` and ``w`` hold one float array or sequence per triple, in [0, 1];
    ``w`` holds 1 - z, possibly to better accuracy than the subtraction.
    Callers that share their arguments pass the same array for each triple.
    Returns one (value, tail_bound, terms_used) triple of arrays per
    parameter triple.  The branches are those ``gauss_2f1`` documents, picked
    per argument by mask: z = 1 takes Gauss's quotient, 1 - z < 1/4
    ``_connection_rows`` (one call per triple), and the rest, terminating
    triples at every argument, one ``_sum_series`` call.  A bound over
    tol * (1 + |value|), or one that is not finite, raises ToleranceError.
    """
    import numpy as np

    sizes = [len(x) for x in z]
    ends = np.cumsum(sizes).tolist()
    z, w = np.concatenate(z, dtype=float), np.concatenate(w, dtype=float)
    owner = np.repeat(np.arange(len(params)), sizes)
    triples = np.array(params, dtype=float).reshape(-1, 3)
    for triple in triples.tolist():
        for name, x in zip("abc", triple):
            if not math.isfinite(x):
                raise RegionError(f"gauss_2f1 parameter {name} = {x} is not finite")
        if _is_nonpositive_integer(triple[2]):
            raise RegionError(f"gauss_2f1 parameter c = {triple[2]} is a non-positive integer")
    # the better-conditioned representation of the argument wins
    z_eff = np.where(w >= 0.5, z, 1.0 - w)
    other = ~_terminates(triples[owner, :2]).any(axis=1)
    unit = other & (w == 0.0)
    near = other & (w != 0.0) & (z_eff > 0.75)
    value, bound = np.zeros((2, len(z)))
    terms = np.ones(len(z), dtype=np.int64)
    for j in np.flatnonzero(unit).tolist():
        p, q, r = triples[owner[j]].tolist()
        if r - p - q <= 0:
            raise RegionError(f"2F1 diverges at z = 1 when c - a - b = {r - p - q} is not positive")
        value[j] = _gauss_sum(p, q, r)
    bound[unit] = np.abs(value[unit]) * (5.0 * _GAMMA_RELERR)
    for k in dict.fromkeys(owner[near].tolist()):
        at = near & (owner == k)
        value[at], bound[at], terms[at] = _connection_rows(*triples[k].tolist(), w[at])
    rest = ~(unit | near)
    value[rest], bound[rest], terms[rest] = _sum_series(*triples[owner[rest]].T, z_eff[rest], tol)
    over = np.flatnonzero(~(bound <= tol * (1.0 + np.abs(value))) | ~np.isfinite(value))
    if over.size:
        j = over[0]
        place = "at z=1" if w[j] == 0.0 else "near z=1" if near[j] else f"at z={float(z[j])}"
        best = f"best bound {bound[j]:.3e}"
        raise ToleranceError(f"tol={tol} unreachable for 2F1 {place} ({best})")
    return [(value[i:j], bound[i:j], terms[i:j]) for i, j in zip([0, *ends], ends)]


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    tol: float = 1e-12,
) -> HypResult:
    """F(a, b; c; z) on 0 <= z <= 1 with a certified error bound.

    On every branch the certified ``tail_bound`` satisfies tail_bound <=
    tol * (1 + |value|), or ToleranceError is raised: ``tol`` acts absolutely
    for moderate values and relatively for large ones (the series can blow
    up like (1-z)^(c-a-b) near z = 1).

    Strategy: terminating series are summed exactly; z = 1 uses the
    gamma-quotient value (valid for c - a - b > 0); moderate z uses forward
    summation; z > 3/4 uses the two connection series in 1 - z as one series
    that stays well conditioned for every c - a - b, integer or nearly so
    (``_connection_series``, after an Euler transform when c - a - b is
    nearer a negative integer).  A parameter that is not finite raises
    RegionError, and a NaN or negative tol ValueError.
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    if not 0.0 <= z <= 1.0:
        raise RegionError(f"gauss_2f1 requires 0 <= z <= 1, got z = {z}")
    _check_tol(tol)
    ((value, bound, terms),) = _gauss_2f1_rows([(a, b, c)], [[z]], [[1.0 - z]], tol)
    return HypResult(float(value[0]), float(bound[0]), int(terms[0]))


_H_PARAMS = {
    1: lambda k0, k1: (-k0, 0.5 - k0 + k1, 1.5 + k1),
    2: lambda k0, k1: (-k0, -0.5 - k0 - k1, 0.5 - k1),
    3: lambda k0, k1: (k0, 0.5 + k0 + k1, 1.5 + k1),
    4: lambda k0, k1: (k0, -0.5 + k0 - k1, 0.5 - k1),
}


def h_func(i: int, z: float, k0: float, k1: float, tol: float = 1e-12) -> HypResult:
    """One of the four auxiliary series h_i(z); h_i(0) = 1.

    All four have c - a - b = 1 +/- 2*k0, so they converge absolutely on the
    whole of [0, 1] as long as |k0| < 1/2.  The bound keeps ``gauss_2f1``'s
    contract, also where 2*k0 is nearly an integer (k0 near 0 or +/-1/2), and
    a NaN or negative tol raises ValueError as there.
    """
    if i not in _H_PARAMS:
        raise ValueError(f"h_func index must be 1..4, got {i}")
    if not 0.0 <= z <= 1.0:
        raise RegionError(f"h_func requires 0 <= z <= 1, got {z}")
    if not abs(k0) < 0.5:
        raise RegionError(f"h_func requires |k0| < 1/2, got k0 = {k0}")
    return gauss_2f1(*_H_PARAMS[i](float(k0), float(k1)), z, tol)


# ---------------------------------------------------------------------------
# the two coefficient sequences: recurrence and closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaBetaSeq:
    """Exact coefficient sequences indexed 0..n_max, with alpha[0] = 1.

    The entries are ParamPoly for the symbolic sequences and Fraction for the
    values at one rational point.
    """

    n_max: int
    alpha: tuple
    beta: tuple


def alpha_beta_recurrence(n_max: int, k0=K0, k1=K1) -> AlphaBetaSeq:
    """Run the two-term recurrence for the sequences alpha_n, beta_n.

    beta_n  = -(1+2k1-2k0)/(2(n+1)) * alpha_n + n(2n+1+2k0)/((n+1)(2n+1)) * beta_{n-1}
    alpha_n = -(1+2k1+2k0)/(2n+1) * beta_{n-1} + (2n-1-2k0)/(2n+1) * alpha_{n-1}

    started from alpha_0 = 1.  With the default symbolic k0, k1 the values lie
    in Q[k0, k1]; with rational k0, k1 they are the Fraction values there.

    It runs in integers: ints at a point, and for a ParamPoly parameter the
    dense integer rows of ``ring._Dense`` that ``ring._integral_scale``
    returns; the loop is the same for both.  With H = D/2 for the even D of
    ``ring._integral_scale``, so that H, 2H k0 = D k0 and 2H k1 are integral
    (H = 1 for the symbolic K0, K1), alpha_n = A_n / (H^{2n} (2n+1)!) and
    beta_n = B_n / (H^{2n+1} (2n+2)!) with

        A_0 = 1,  B_0 = -H(1+2k1-2k0),
        A_n = 2nH((2n-1)H - 2Hk0) A_{n-1} - H(1+2k0+2k1) B_{n-1},
        B_n = 2nH((2n+1)H + 2Hk0) B_{n-1} - H(1+2k1-2k0) A_n,

    so each step multiplies A and B by linear forms of two or three terms.
    Each entry is one division at the end, into a Fraction or a canonical
    ParamPoly.  H rather than D keeps the symbolic A_n, B_n free of a common
    integer factor.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    d, a0, a1 = _integral_scale(k0, k1)
    h = d // 2
    # the signs sit on the linear factors: -H(1+2k0+2k1), -H(1+2k1-2k0)
    minus_plus, minus_minus = -(h + a0 + a1), a0 - a1 - h
    a_n, b_n = minus_plus * 0 + 1, minus_minus  # one, in the arithmetic of k0 and k1
    scale = 1  # H^{2n} (2n+1)!
    alpha, beta = [], []
    for n in range(n_max + 1):
        if n:
            a_n = (2 * n * h * ((2 * n - 1) * h - a0)) * a_n + minus_plus * b_n
            b_n = (2 * n * h * ((2 * n + 1) * h + a0)) * b_n + minus_minus * a_n
            scale *= h * h * 2 * n * (2 * n + 1)
        alpha.append(_times_ratio(a_n, 1, scale))
        beta.append(_times_ratio(b_n, 1, scale * h * (2 * n + 2)))
    return AlphaBetaSeq(n_max, tuple(alpha), tuple(beta))


def _closed_sum(n: int, e: int, b: Fraction, m: int, k0, k1):
    """The single sum shared by the four closed forms:

    (-1)^e / ((n+e)! (b)_m) * sum_j (-n)_j (-n-e)_j / j!
        * (-k1)_j (b+k0+k1)_{m-j} (1/2+k1-k0)_{n+e-j},

    with (b, m) = (3/2, n) for alpha, beta and (1/2, n+1) for the pairings,
    e = 0 for alpha, p12 and e = 1 for beta, p14.  It is evaluated in nested
    form, P_0 = 1, P_{j+1} = P_j q_j + r_{j+1} (-k1)_{j+1}, sum = P_n (F)_{m-n} (S)_e,
    with F = b+k0+k1, S = 1/2+k1-k0, the integer r_j = (-n)_j (-n-e)_j / j! and
    q_j = (F + m-j-1)(S + n+e-j-1), and in integers: for the even D of
    ``ring._integral_scale``, D F, D S, D^2 q_j = (D F + D(m-j-1))(D S + D(n+e-j-1)),
    U_j = D^{2j} (-k1)_j and every T_j = D^{2j} P_j in

        T_0 = 1,  T_{j+1} = T_j (D^2 q_j) + r_{j+1} U_{j+1}

    are integral: ints at a point, and for a ParamPoly parameter the dense
    integer rows of ``ring._Dense``, where a step multiplies T_j by a
    quadratic of six terms and U_j by a linear form.  (F)_{m-n}, (S)_e,
    (b)_m, (n+e)! and the powers of D meet in one division at the end, into
    a Fraction or a canonical ParamPoly.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    d, a0, a1 = _integral_scale(k0, k1)
    twice_b = int(2 * b)  # 2^m (b)_m = twice_b (twice_b + 2) ... (twice_b + 2m - 2)
    first, second = d // 2 * twice_b + a0 + a1, d // 2 + a1 - a0  # D F, D S
    shift = -d * a1  # -D^2 k1
    total = lower = first * 0 + 1  # T_j and U_j
    rational = 1  # r_j
    for j in range(n):
        lower = lower * (d * d * j + shift)
        rational = rational * (j - n) * (j - n - e) // (j + 1)
        step = (first + d * (m - j - 1)) * (second + d * (n + e - j - 1))
        total = total * step + rational * lower
    for factor in [first + d * i for i in range(m - n)] + [second + d * i for i in range(e)]:
        total = total * factor
    scale = math.factorial(n + e) * d ** (n + m + e) * math.prod(range(twice_b, twice_b + 2 * m, 2))
    return _times_ratio(total, (-1) ** e * 2**m, scale)


def alpha_closed(n: int, k0=K0, k1=K1):
    """Single-sum closed form for alpha_n, exact in Q[k0, k1] or at a point."""
    return _closed_sum(n, 0, Fraction(3, 2), n, k0, k1)


def beta_closed(n: int, k0=K0, k1=K1):
    """Single-sum closed form for beta_n, exact in Q[k0, k1] or at a point."""
    return _closed_sum(n, 1, Fraction(3, 2), n, k0, k1)


def s_inner_closed(n: int, kind: str, k0=K0, k1=K1):
    """Closed form of the two sphere-pairing values, exact in Q[k0, k1] or at a point.

    kind "p12" gives the even pairing (degree 4n+1 against degree 1) and
    "p14" the odd one (degree 4n+3 against degree 1).
    """
    if kind not in ("p12", "p14"):
        raise ValueError(f"kind must be 'p12' or 'p14', got {kind!r}")
    return _closed_sum(n, 0 if kind == "p12" else 1, HALF, n + 1, k0, k1)


# ---------------------------------------------------------------------------
# terminating sums at unit argument
# ---------------------------------------------------------------------------


def _unit_sum(n: int, upper, lower, tiny=0):
    """sum_{j=0}^{n} prod (u)_j / (prod (l)_j j!) over the upper and lower
    parameters, in the parameters' arithmetic (Fraction or float).

    Raises DegenerateParameterError when a denominator factor has absolute
    value at most ``tiny``.  The factors multiply in the order given.
    """
    # one, in the arithmetic of the last upper parameter
    total = term = upper[-1] * 0 + 1
    for j in range(n):
        num = math.prod(u + j for u in upper)
        den = math.prod(l + j for l in lower) * (j + 1)
        if abs(den) <= tiny:
            raise DegenerateParameterError(
                f"denominator Pochhammer vanishes at step {j} "
                f"(upper={upper}, lower={lower}, n={n})"
            )
        term = term * num / den
        total = total + term
    return total


def f_values(n: int, k0, k1):
    """The two terminating 3F2-type sums at unit argument.

    They are ``squeeze_check``'s two sums at a = 1/2+k1+k0, b = -1/2+k1-k0,
    c = -k1.  With Fraction (or int) parameters the computation is exact;
    with floats it is done in floats.  All terms share one sign, so the float
    path loses no accuracy to cancellation.  Raises DegenerateParameterError
    when a lower Pochhammer factor vanishes (parameters with -k1 +/- k0 in
    1/2 + N_0), or in floats comes within 1e-12 of 0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exact = isinstance(k0, (Fraction, int)) and isinstance(k1, (Fraction, int))
    half, tiny = (HALF, 0) if exact else (0.5, 1e-12)
    return _balanced_sums(n, half + k1 + k0, -half + k1 - k0, -k1, tiny)


def _balanced_sums(n: int, a, b, c, tiny=0):
    """(plain, shifted): the terminating sums at unit argument with upper
    parameters -n, -n, c and lower -n-a, -n-b, and with upper -n, -n-1, c
    and lower -n-a, -n-b-1, in the parameters' arithmetic."""
    m = -n + c * 0  # -n in the parameters' arithmetic
    plain = _unit_sum(n, (m, m, c), (m - a, m - b), tiny)
    shifted = _unit_sum(n, (m, m - 1, c), (m - a, m - b - 1), tiny)
    return plain, shifted


def chu_vandermonde(n: int, k1: Exact) -> tuple[Fraction, Fraction]:
    """Both sides of the terminating sum identity at unit argument.

    Returns (finite sum of F(-n, -k1; -n - 2k1; 1), (1+k1)_n / (1+2k1)_n);
    the two entries are equal whenever no denominator factor vanishes.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    k1 = Fraction(k1)
    total = _unit_sum(n, (-n, -k1), (-n - 2 * k1,))
    den_poch = poch(1 + 2 * k1, n)
    if den_poch == 0:
        raise DegenerateParameterError(f"(1+2k1)_n vanishes for k1={k1}, n={n}")
    rhs = poch(1 + k1, n) / den_poch
    return total, rhs


# ---------------------------------------------------------------------------
# squeeze comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqueezeReport:
    """Exact values of the two bracketing sums and the middle term.

    For c >= 0 the chain is upper_sum <= middle <= plain_sum; for c <= 0 it
    reverses; at c = 0 all three equal 1.
    """

    n: int
    a: Fraction
    b: Fraction
    c: Fraction
    plain_sum: Fraction
    middle: Fraction
    shifted_sum: Fraction
    branch: str
    chain_holds: bool


def squeeze_check(n: int, a: Exact, b: Exact, c: Exact) -> SqueezeReport:
    """Evaluate the three comparison quantities exactly and test the ordering.

    Requires 0 < a < 1, -1 < b < 0 and c > -1.  ``plain_sum`` is the balanced
    terminating sum with doubled upper index -n, ``shifted_sum`` the variant
    with upper indices -n, -n-1, and ``middle`` the ratio
    (1+a+b+c)_n / (1+a+b)_n.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not (0 < a < 1 and -1 < b < 0 and c > -1):
        raise RegionError(
            f"squeeze_check requires 0<a<1, -1<b<0, c>-1; got a={a}, b={b}, c={c}"
        )

    plain, shifted = _balanced_sums(n, a, b, c)
    middle = poch(1 + a + b + c, n) / poch(1 + a + b, n)
    if c >= 0:
        branch = "c>=0"
        holds = shifted <= middle <= plain
    else:
        branch = "c<=0"
        holds = plain <= middle <= shifted
    return SqueezeReport(n, a, b, c, plain, middle, shifted, branch, holds)


# ---------------------------------------------------------------------------
# normalized unit-argument sums
# ---------------------------------------------------------------------------


def asym_f_check(n: int, k0: float, k1: float) -> tuple[float, float]:
    """Normalized values of the two unit-argument sums at index n.

    Returns f_i(n) * n^k1 * Gamma(1+k1) / Gamma(1+2k1) for i = 1, 2.  Inside
    the region -1/2 < k0 +/- k1 < 1/2 both values tend to 1 as n grows, which
    is the asymptotic content behind the normalization constant.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not ParamPoint(k0, k1).positive_definite:
        raise RegionError(
            f"asym_f_check requires -1/2 < k0 +/- k1 < 1/2; got ({k0}, {k1})"
        )
    f1, f2 = f_values(n, float(k0), float(k1))
    scale = float(n) ** k1 * gamma_fn(1.0 + k1) / gamma_fn(1.0 + 2.0 * k1)
    return f1 * scale, f2 * scale
