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
triples at a whole array of arguments and sums all their series in one
``_sum_series`` call, which runs every row in the order of a
one-term-at-a-time loop.  ``gauss_2f1`` and ``h_func`` call it with one
argument.  ``_gauss_2f1_rows`` and ``_sum_series`` import numpy when they
run, so the exact paths never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DegenerateParameterError, RegionError, ToleranceError
from .ring import K0, K1, ParamPoly, _ratio, poch

HALF = Fraction(1, 2)
Exact = Union[int, Fraction]

# Relative accuracy claimed for gamma_fn: over twice the worst error of
# math.gamma seen against a 40-digit mpmath oracle on [-10, 10], including
# 1e-12..1e-3 from each pole there (9.6e-16).
_GAMMA_RELERR = 2.5e-15
# Floating-point slack folded into every reported tail bound.
_EPS = 2.2e-16


@dataclass(frozen=True)
class HypResult:
    """A series value together with a certified truncation-error bound."""

    value: float
    tail_bound: float
    terms_used: int


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------


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


def _sum_series(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    tol: np.ndarray,
    max_terms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward summation of F(a_k, b_k; c_k; z_k), 0 <= z_k < 1, for every row k.

    Returns the arrays (value, tail_bound, terms_used).  Each row stops at the
    first index m <= max_terms where its term is zero (a terminating series,
    bounded by rounding alone) or where, from the first index past every
    negative parameter on, the tail bound of the module docstring is at most
    its tol; a row with no such index raises ToleranceError.  The terms, the
    partial sums and the sums of absolute values are formed in blocks of
    indices by ``multiply.accumulate`` and ``add.accumulate``, which run in
    sequence, so every row rounds exactly as a one-term-at-a-time loop would.
    """
    import numpy as np

    rows = len(a)
    value, bound = np.ones(rows), np.zeros(rows)
    terms = np.ones(rows, dtype=np.int64)
    # the first index past every negative parameter
    m_pos = np.maximum(np.ceil(-np.minimum(np.minimum(a, b), c)), 0.0) + 1.0
    live = np.flatnonzero(z != 0.0)  # F = 1 exactly at z = 0
    # per live row: a, b, c, z, tol, max_terms, m_pos, and the running term,
    # partial sum and sum of absolute values
    carry = np.ones(rows), np.zeros(rows), np.zeros(rows)
    state = np.array([a, b, c, z, tol, max_terms, m_pos, *carry])[:, live]
    start, width = 0, _FIRST_BLOCK
    with np.errstate(all="ignore"):  # rows past their stop may overflow
        while live.size:
            width = max(1, min(width, _BLOCK_FLOATS // live.size))
            m = np.arange(start, start + width, dtype=float)
            ra, rb, rc, rz, rtol, rmax, rpos, term, total, abs_sum = state[:, :, None]
            am, bm, cm, m1 = ra + m, rb + m, rc + m, 1.0 + m
            # column j holds index start + j, the last column the carry
            ratio = am * bm / (cm * m1) * rz
            seq = np.multiply.accumulate(np.concatenate((term, ratio), axis=1), axis=1)
            now = seq[:, :-1]
            sums = np.add.accumulate(np.concatenate((total, now), axis=1), axis=1)
            abs_sums = np.add.accumulate(np.concatenate((abs_sum, np.abs(now)), axis=1), axis=1)
            r = rz * np.maximum(am / m1, 1.0) * np.maximum(bm / cm, 1.0)
            tail = np.abs(now) / (1.0 - r)
            certified = (m >= rpos) & (0.0 <= r) & (r < 1.0) & (tail <= rtol)
            stop = ((now == 0.0) | certified) & (m <= rmax)
            first = stop.argmax(axis=1)
            hit = np.flatnonzero(stop[np.arange(live.size), first])
            j = first[hit]
            rounding = _EPS * abs_sums[hit, j] * np.maximum(m[j], 1.0)
            done = live[hit]
            value[done] = sums[hit, j]
            bound[done] = np.where(now[hit, j] == 0.0, rounding, tail[hit, j] + rounding)
            terms[done] = np.maximum(start + j, 1)
            going = np.ones(live.size, dtype=bool)
            going[hit] = False
            over = np.flatnonzero(going & (state[5] < start + width))
            if over.size:
                k = live[over[0]]
                raise ToleranceError(
                    f"2F1 series did not certify tol={tol[k]} within {int(max_terms[k])} terms "
                    f"(a={a[k]}, b={b[k]}, c={c[k]}, z={z[k]})"
                )
            state[7:] = seq[:, -1], sums[:, -1], abs_sums[:, -1]
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


def _connection_coeffs(a: float, b: float, c: float) -> tuple[float, float]:
    """Gamma quotients of the two series in 1 - z of the near-1 branch."""
    d = c - a - b
    return _gauss_sum(a, b, c), gamma_fn(c) * gamma_fn(-d) * _recip_gamma(a) * _recip_gamma(b)


def _gauss_2f1_rows(
    params: list[tuple[float, float, float]], z: np.ndarray, w: np.ndarray, tol: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """F(a, b; c; z) for every triple (a, b, c) of ``params`` at every z of an array.

    ``z`` and ``w`` are float arrays or sequences; ``w`` holds 1 - z, possibly to better accuracy than the subtraction; both
    lie in [0, 1].  Returns one (value, tail_bound, terms_used) triple of
    arrays per parameter triple.  The branches are those ``gauss_2f1``
    documents, chosen per triple and argument.  Each branch declares its
    series as rows (triple, argument indices, factor, series parameters); all
    rows are summed in one ``_sum_series`` call, and every value is then the
    sum of factor * series over its rows, every bound the sum of
    |factor| * tail (plus |factor * series| times the factor's relative
    rounding where the factor is not exact: the gamma quotients of the
    connection branch and the sliver-Euler prefactor), and every term count
    the sum of the rows' counts.
    """
    import numpy as np

    z, w = np.asarray(z, dtype=float), np.asarray(w, dtype=float)
    # the better-conditioned representation of the argument wins
    z_eff = np.where(w >= 0.5, z, 1.0 - w)
    unit = np.flatnonzero(w == 0.0)
    forward = np.flatnonzero((w != 0.0) & (z_eff <= 0.75))
    near = np.flatnonzero((w != 0.0) & ~(z_eff <= 0.75))
    z_forward, z_near, w_near = z_eff[forward], z_eff[near], w[near]
    rows = []  # (triple index, argument indices, factor, (a, b, c, argument, tol, max_terms))
    connected = {}  # triple index -> c - a - b, for the connection branch
    euler = {}  # triple index -> relative error of the sliver-Euler prefactor
    # sums per triple and argument, ``mass`` of |factor * series|; they start
    # at -0.0, the exact identity of float addition, so one row adds exactly
    value, bound, mass = np.full((3, len(params), len(z)), -0.0)
    terms = np.zeros((len(params), len(z)), dtype=np.int64)
    for k, (a, b, c) in enumerate(params):
        a, b, c = float(a), float(b), float(c)
        if _is_nonpositive_integer(c, tol=0.0):
            raise RegionError(f"gauss_2f1 parameter c = {c} is a non-positive integer")
        if (a <= 0 and a == round(a)) or (b <= 0 and b == round(b)):
            rows.append((k, np.arange(len(z)), 1.0, (a, b, c, z_eff, tol, 10**6)))
            continue
        d = c - a - b
        if unit.size:
            if d <= 0:
                raise RegionError(f"2F1 diverges at z = 1 when c - a - b = {d} is not positive")
            unit_value = _gauss_sum(a, b, c)
            unit_bound = 5.0 * _GAMMA_RELERR * abs(unit_value)
            if unit_bound > tol * (1.0 + abs(unit_value)):
                raise ToleranceError(
                    f"tol={tol} unreachable for 2F1 at z=1 (best bound {unit_bound:.3e})"
                )
            value[k, unit], bound[k, unit], terms[k, unit] = unit_value, unit_bound, 1
        rows.append((k, forward, 1.0, (a, b, c, z_forward, tol, 2_000)))
        # argument close to 1: a pair of series in w where that map is well
        # conditioned, else, in a thin sliver where c - a - b is nearly an
        # integer, capped forward summation after an Euler transform or without
        if near.size and abs(d - round(d)) >= 1e-5:
            coeff1, coeff2 = _connection_coeffs(a, b, c)
            wd = np.array([math.exp(d * math.log(x)) for x in w_near.tolist()])
            rows.append((k, near, coeff1, (a, b, 1.0 - d, w_near, 1e-16, 4_000)))
            rows.append((k, near, coeff2 * wd, (c - a, c - b, 1.0 + d, w_near, 1e-16, 4_000)))
            connected[k] = d
        elif d <= -0.5:
            prefactor = np.array([(1.0 - x) ** d for x in z_near.tolist()])
            inner_tol = tol / np.maximum(prefactor, 1e-300)
            rows.append((k, near, prefactor, (c - a, c - b, c, z_near, inner_tol, 500_000)))
            # (1 - z)^d turns the rounding of d's two subtractions into a
            # relative error of |log(1 - z)| times it; the power and the
            # product with the series add 2 eps
            rounding_d = _EPS * (abs(c - a) + abs(d))
            logs = np.array([math.log(1.0 - x) for x in z_near.tolist()])
            euler[k] = np.abs(logs) * rounding_d + 2.0 * _EPS
        else:
            rows.append((k, near, 1.0, (a, b, c, z_near, tol, 500_000)))

    owners, indices, factors, series = zip(*rows)
    a, b, c, x, row_tol, max_terms = zip(*series)
    sizes = [len(arguments) for arguments in x]
    summed, tail, count = _sum_series(
        *(np.repeat(np.array(p, dtype=float), sizes) for p in (a, b, c)),
        np.concatenate(x),
        np.concatenate([np.full(size, t, dtype=float) for t, size in zip(row_tol, sizes)]),
        np.repeat(np.array(max_terms, dtype=float), sizes),
    )
    # every row at once into its triple's arguments; np.add.at adds in the
    # order of ``where``, so a connection value is its first row plus its second
    factor = np.concatenate([np.full(size, f, dtype=float) for f, size in zip(factors, sizes)])
    where = np.concatenate([k * len(z) + at for k, at in zip(owners, indices)])
    part = factor * summed
    sums = ((value, part), (bound, np.abs(factor) * tail), (terms, count), (mass, np.abs(part)))
    for total, add in sums:
        np.add.at(total.reshape(-1), where, add)
    for k, relative in euler.items():
        bound[k, near] += mass[k, near] * relative
    if connected:
        at = np.ix_(list(connected), near)
        # the gamma quotients' rounding; that of the final sum is not bounded yet
        bound[at] += mass[at] * 8.0 * _GAMMA_RELERR
        unreachable = np.argwhere(bound[at] > tol * (1.0 + np.abs(value[at])))
        if unreachable.size:
            row, column = unreachable[0]
            d, best = list(connected.values())[row], bound[at][row, column]
            raise ToleranceError(
                f"tol={tol} unreachable for 2F1 near z=1 (best bound {best:.3e}; "
                f"c-a-b = {d} is close to an integer)" if abs(d - round(d)) < 1e-3
                else f"tol={tol} unreachable for 2F1 near z=1 (best bound {best:.3e})"
            )
    return list(zip(value, bound, terms))


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    tol: float = 1e-12,
) -> HypResult:
    """F(a, b; c; z) on 0 <= z <= 1 with a certified error bound.

    The certified ``tail_bound`` satisfies tail_bound <= tol * (1 + |value|),
    i.e. ``tol`` acts absolutely for moderate values and relatively for large
    ones (the series can legitimately blow up like (1-z)^(c-a-b) near z = 1).

    Strategy: terminating series are summed exactly; z = 1 uses the
    gamma-quotient value (valid for c - a - b > 0); moderate z uses forward
    summation; z close to 1 is mapped to a pair of fast series in 1 - z,
    except within a thin sliver where c - a - b is nearly an integer and that
    map is ill-conditioned, where capped forward summation is used instead.
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    if not 0.0 <= z <= 1.0:
        raise RegionError(f"gauss_2f1 requires 0 <= z <= 1, got z = {z}")
    ((value, bound, terms),) = _gauss_2f1_rows([(a, b, c)], [z], [1.0 - z], tol)
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
    whole of [0, 1] as long as |k0| < 1/2.
    """
    if i not in _H_PARAMS:
        raise ValueError(f"h_func index must be 1..4, got {i}")
    if not 0.0 <= z <= 1.0:
        raise RegionError(f"h_func requires 0 <= z <= 1, got {z}")
    if not abs(k0) < 0.5:
        raise RegionError(f"h_func requires |k0| < 1/2, got k0 = {k0}")
    z = float(z)
    triple = _H_PARAMS[i](float(k0), float(k1))
    ((value, bound, terms),) = _gauss_2f1_rows([triple], [z], [1.0 - z], tol)
    return HypResult(float(value[0]), float(bound[0]), int(terms[0]))


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

    It runs in integers (ints at a point, integer coefficients for the
    symbolic K0, K1).  With H = D/2 for the even D of ``_integral_scale``, so
    that H, 2H k0 = D k0 and 2H k1 are integral (H = 1 in Q[k0, k1]),
    alpha_n = A_n / (H^{2n} (2n+1)!) and beta_n = B_n / (H^{2n+1} (2n+2)!) with

        A_0 = 1,  B_0 = -H(1+2k1-2k0),
        A_n = 2nH((2n-1)H - 2Hk0) A_{n-1} - H(1+2k0+2k1) B_{n-1},
        B_n = 2nH((2n+1)H + 2Hk0) B_{n-1} - H(1+2k1-2k0) A_n,

    and each entry is one division at the end.  H rather than D keeps the
    symbolic A_n, B_n free of a common integer factor.
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


def _times_ratio(value, p: int, q: int):
    """value * p / q, exact, for an int or ParamPoly value, an int p and an int q > 0;
    an int value makes one Fraction, reduced once, not a product of two."""
    return Fraction(value * p, q) if isinstance(value, int) else value * Fraction(p, q)


def _integral_scale(k0, k1):
    """(D, D k0, D k1) for an even D that makes D k0, D k1 integral:
    D = 2 lcm(den k0, den k1), a symbolic K0 or K1 counting as itself over 1
    (D = 2 in Q[k0, k1]); a rational parameter comes out as an int."""
    (p0, q0), (p1, q1) = ((k, 1) if isinstance(k, ParamPoly) else _ratio(k) for k in (k0, k1))
    d = 2 * math.lcm(q0, q1)
    return d, p0 * (d // q0), p1 * (d // q1)


def _closed_sum(n: int, e: int, b: Fraction, m: int, k0, k1):
    """The single sum shared by the four closed forms:

    (-1)^e / ((n+e)! (b)_m) * sum_j (-n)_j (-n-e)_j / j!
        * (-k1)_j (b+k0+k1)_{m-j} (1/2+k1-k0)_{n+e-j},

    with (b, m) = (3/2, n) for alpha, beta and (1/2, n+1) for the pairings,
    e = 0 for alpha, p12 and e = 1 for beta, p14.  It is evaluated in nested
    form, P_0 = 1, P_{j+1} = P_j q_j + r_{j+1} (-k1)_{j+1}, sum = P_n (F)_{m-n} (S)_e,
    with F = b+k0+k1, S = 1/2+k1-k0, the integer r_j = (-n)_j (-n-e)_j / j! and
    q_j = (F + m-j-1)(S + n+e-j-1), and in integers: for the even D of
    ``_integral_scale``, D F, D S, D^2 q_j (built from (D F)(D S), computed
    once), U_j = D^{2j} (-k1)_j and every T_j = D^{2j} P_j in

        T_0 = 1,  T_{j+1} = T_j (D^2 q_j) + r_{j+1} U_{j+1}

    are integral (ints at a point, integer coefficients for the symbolic K0,
    K1); (F)_{m-n}, (S)_e, (b)_m, (n+e)! and the powers of D meet in one division.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    d, a0, a1 = _integral_scale(k0, k1)
    first, second = int(d * b) + a0 + a1, d // 2 + a1 - a0  # D F, D S
    product, shift = first * second, d * a1  # (D F)(D S), D^2 k1
    total = lower = first * 0 + 1  # T_j and U_j
    rational = 1  # r_j
    for j in range(n):
        p, s = d * (m - j - 1), d * (n + e - j - 1)
        lower = lower * (d * d * j - shift)
        rational = rational * (j - n) * (j - n - e) // (j + 1)
        step = product + s * first + p * second + p * s
        total = total * step + rational * lower
    for factor in [first + d * i for i in range(m - n)] + [second + d * i for i in range(e)]:
        total = total * factor
    twice_b = int(2 * b)  # 2^m (b)_m = twice_b (twice_b + 2) ... (twice_b + 2m - 2)
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

    With Fraction (or int) parameters the computation is exact; with floats it
    is done in floats.  All terms share one sign, so the float path loses no
    accuracy to cancellation.  Raises DegenerateParameterError when a lower
    Pochhammer factor vanishes (parameters with -k1 +/- k0 in 1/2 + N_0).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exact = isinstance(k0, (Fraction, int)) and isinstance(k1, (Fraction, int))
    half, tiny = (HALF, 0) if exact else (0.5, 1e-12)
    m = -n + k0 * 0  # -n in the parameters' arithmetic
    low = -n - half - k1 - k0
    f1 = _unit_sum(n, (m, m, -k1), (low, -n + half - k1 + k0), tiny)
    f2 = _unit_sum(n, (m, m - 1, -k1), (low, -n - half - k1 + k0), tiny)
    return f1, f2


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

    plain = _unit_sum(n, (-n, -n, c), (-n - a, -n - b))
    shifted = _unit_sum(n, (-n, -n - 1, c), (-n - a, -n - b - 1))
    middle = poch(1 + a + b + c, n) / poch(1 + a + b, n)
    if c >= 0:
        branch = "c>=0"
        holds = shifted <= middle <= plain
    else:
        branch = "c<=0"
        holds = plain <= middle <= shifted
    return SqueezeReport(n, a, b, c, plain, middle, shifted, branch, holds)


# ---------------------------------------------------------------------------
# ratio asymptotics
# ---------------------------------------------------------------------------


def stirling_ratio(a: float, b: float, n: int) -> tuple[float, float]:
    """((a)_n / (b)_n computed as a direct product, its large-n asymptote).

    The asymptote is Gamma(b)/Gamma(a) * n^(a-b).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    ratio = 1.0
    for i in range(n):
        ratio *= (a + i) / (b + i)
    asymptote = gamma_fn(b) / gamma_fn(a) * float(n) ** (a - b) if n > 0 else 1.0
    return ratio, asymptote


def asym_f_check(n: int, k0: float, k1: float) -> tuple[float, float]:
    """Normalized values of the two unit-argument sums at index n.

    Returns f_i(n) * n^k1 * Gamma(1+k1) / Gamma(1+2k1) for i = 1, 2.  Inside
    the region -1/2 < k0 +/- k1 < 1/2 both values tend to 1 as n grows, which
    is the asymptotic content behind the normalization constant.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (abs(k0 + k1) < 0.5 and abs(k0 - k1) < 0.5):
        raise RegionError(
            f"asym_f_check requires -1/2 < k0 +/- k1 < 1/2; got ({k0}, {k1})"
        )
    f1, f2 = f_values(n, float(k0), float(k1))
    scale = float(n) ** k1 * gamma_fn(1.0 + k1) / gamma_fn(1.0 + 2.0 * k1)
    return f1 * scale, f2 * scale
