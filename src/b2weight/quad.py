"""High-accuracy quadrature for the sector integrals.

The sphere pairings reduce (after the slope substitution v = u^2) to
one-dimensional integrals

    int_0^1 v^alpha (1 - v)^beta * smooth(v) dv,      alpha, beta > -1,

with algebraic endpoint singularities carried entirely by the explicit
exponents.  Each rule has one engine.  Gauss-Jacobi carries exactly those
exponents and doubles its node count until two refinements agree; it serves
mode "h" of the pairings and ``singular_integral``, and raises ToleranceError
when doubling stalls.  Mode "direct", the independent cross-check, integrates
the raw matrix form with a tanh-sinh rule.  The radial half of the plane integral
is folded in analytically (a factor 2^l l! in the pairing normalization), so
no infinite-domain quadrature appears anywhere.

The order n of a pairing enters only through an explicit factor
(1 - v)^e (1 + v)^(-e-2); the rule's exponents a = +/-(k1 + 1/2) and b0 (-2 k0
for p12, 0 for p14) do not depend on n.  So every n of both kinds at one point
draws on four rule families, and a bounded memo keeps each rule with the
products of h-values at its nodes.  The series are summed per rule, all its
nodes in one batch, not once per node and n; mode "direct" sums the series
of L's entries per tanh-sinh batch (levels 0 to 3, then each later level).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RegionError, ToleranceError
from .hyper import _EPS, _GAMMA_RELERR, _H_PARAMS, _gauss_2f1_rows, gamma_fn
from .weight import ParamPoint, _eval_L_bounded, d_consts

_SECTOR = math.pi / 4
# node counts of Gauss-Jacobi doubling; tanh-sinh levels and node range
_GJ_START, _GJ_MAX = 24, 3072
_TS_LEVELS, _TS_T_MAX = 9, 6.2


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate and the total nodes used.

    ``nodes`` counts integrand evaluations over all refinement levels: each
    Gauss-Jacobi level evaluates its whole rule, each tanh-sinh level after
    the first only the nodes the previous level did not have.

    ``error_estimate`` starts from the difference between the last two
    refinements, which is a heuristic for the quadrature error.  The sector
    pairings add the error of the series values carried through the rule
    (from their certified tail bounds) and the rounding of forming and
    summing the terms: mode "h" for the h-values at the Gauss-Jacobi nodes,
    mode "direct" for the entries of L at the tanh-sinh nodes.
    ``tanh_sinh`` alone adds the integrand's own bounds and the rounding of
    the sum, ``singular_integral`` reports the refinement difference alone;
    the actual error can exceed those by a small factor.
    """

    value: float
    error_estimate: float
    nodes: int


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _gauss_jacobi_01(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating v^alpha (1-v)^beta * f(v) over [0, 1].

    Golub-Welsch on the symmetric tridiagonal recurrence matrix.  The first
    moment is formed through lgamma, so very large exponents (deep endpoint
    powers such as (1-v)^n with n in the hundreds) stay inside float range.
    """
    # imported here: scipy.linalg is most of the time and memory of `import
    # b2weight`, and the exact routes never build a Gauss-Jacobi rule
    from scipy.linalg import eigh_tridiagonal

    a_exp = float(beta)   # exponent of (1-x) in the [-1, 1] convention
    b_exp = float(alpha)  # exponent of (1+x)
    s = a_exp + b_exp
    diag = np.empty(n)
    diag[0] = (b_exp - a_exp) / (s + 2.0)
    i = np.arange(1, n, dtype=float)
    diag[1:] = (b_exp**2 - a_exp**2) / ((2.0 * i + s) * (2.0 * i + s + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # the j = 1 coefficient in a form with the (1+s) factor cancelled,
        # which the Chebyshev-type case s = -1 needs
        off[0] = math.sqrt(
            4.0 * (1.0 + a_exp) * (1.0 + b_exp) / ((2.0 + s) ** 2 * (3.0 + s))
        )
        j = np.arange(2, n, dtype=float)
        num = 4.0 * j * (j + a_exp) * (j + b_exp) * (j + s)
        den = (2.0 * j + s) ** 2 * ((2.0 * j + s) ** 2 - 1.0)
        off[1:] = np.sqrt(num / den)
    x, vecs = eigh_tridiagonal(diag, off)
    v = 0.5 * (x + 1.0)
    mu0 = math.exp(
        math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0)
    )
    return v, mu0 * vecs[0, :] ** 2


@functools.cache
def _tanh_sinh_nodes(level: int) -> np.ndarray:
    """The nodes tanh-sinh level ``level`` adds, as rows (dist0, dist1, dv/dt).

    Level 0 takes every node, later levels the odd-indexed ones; nodes whose
    weight or distance to the nearer endpoint underflows are left out.  Built
    once per level (at most _TS_LEVELS + 1 tables) and returned read-only.
    """
    h = 1.0 / 2**level
    count = int(math.floor(_TS_T_MAX / h))
    step = 1 if level == 0 else 2
    first = -count if level == 0 or count % 2 else 1 - count
    rows = []
    for j in range(first, count + 1, step):
        t = j * h
        two_phi = math.pi * math.sinh(t)
        # overflow-safe sigmoid pieces: em = exp(-|2 phi|) in (0, 1]
        em = math.exp(-abs(two_phi))
        near = em / (1.0 + em)   # distance to the closer endpoint
        far = 1.0 / (1.0 + em)
        dist0, dist1 = (near, far) if two_phi >= 0 else (far, near)
        sech_sq = 4.0 * em / (1.0 + em) ** 2  # 1 / cosh(phi)^2
        dvdt = 0.25 * math.pi * math.cosh(t) * sech_sq
        if dvdt != 0.0 and near != 0.0:
            rows.append((dist0, dist1, dvdt))
    table = np.array(rows).reshape(-1, 3)
    table.flags.writeable = False
    return table


def tanh_sinh(
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-10,
) -> QuadResult:
    """Double-exponential rule on (0, 1) for endpoint-singular integrands.

    The integrand receives arrays of nodes, as ``singular_integral``'s
    ``smooth`` does: it is called as f(v, v, 1 - v) with the distances to
    both endpoints supplied exactly, so algebraic endpoint factors can be
    formed from them without catastrophic cancellation.  It returns an array
    of values and an array (or a scalar) of bounds on the error of each
    value (0.0 for a value exact up to rounding).

    Level L has step 2^-L and floor(6.2 * 2^L) nodes on each side, for L up
    to 9; its even-indexed nodes are exactly the nodes of level L - 1, so
    each level adds only its odd-indexed nodes to the running sum.  The rule
    cannot stop before level 3, so f is called once for the nodes of levels
    0 to 3 and once for each later level.  ``nodes`` counts the integrand
    evaluations over all levels.  ``error_estimate`` is the difference of the
    last two levels, plus the integrand's bounds integrated by the same rule,
    plus the rounding of the sum.  A level whose value is not finite raises
    ToleranceError.
    """
    previous = None
    total = total_bound = total_abs = 0.0
    nodes = 0
    for levels in [range(4)] + [[level] for level in range(4, _TS_LEVELS + 1)]:
        added = [_tanh_sinh_nodes(level) for level in levels]
        dist0, dist1, dvdt = np.concatenate(added).T
        values, bounds = f(dist0, dist0, dist1)
        terms = values * dvdt
        bound_terms = np.broadcast_to(bounds * dvdt, terms.shape)
        edge = 0
        for level, rows in zip(levels, added):
            h = 1.0 / 2**level
            part = slice(edge, edge + len(rows))
            edge = part.stop
            # running sums in node order, as one term at a time
            total = _running_sum(total, terms[part])
            total_abs = _running_sum(total_abs, np.abs(terms[part]))
            total_bound = _running_sum(total_bound, bound_terms[part])
            nodes += len(rows)
            value = total * h
            if not math.isfinite(value):
                raise ToleranceError(f"double-exponential rule gave {value} at level {level}")
            if previous is not None:
                err = abs(value - previous)
                if err <= tol * (1.0 + abs(value)) and level >= 3:
                    # the sum of `nodes` terms rounds at most once per term
                    rounding = (nodes + 2) * _EPS * total_abs * h
                    return QuadResult(value, err + total_bound * h + rounding, nodes)
            previous = value
    raise ToleranceError(f"double-exponential rule did not reach tol={tol}")


def _running_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., added in order."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def _gauss_jacobi_doubling(
    level: Callable[[int], tuple[np.ndarray, np.ndarray, float]], tol: float
) -> QuadResult:
    """A Gauss-Jacobi integral by node doubling from 24 to 3072 nodes.

    ``level(n)`` returns the weights of the n-node rule, the smooth factor at
    its nodes, and an error term of those values; the term of the accepted
    level is added to the refinement difference.  Raises ToleranceError when
    a level's value is not finite or no two successive levels agree to ``tol``.
    """
    previous = None
    total_nodes = 0
    n = _GJ_START
    while n <= _GJ_MAX:
        w, values, value_err = level(n)
        value = float(np.dot(w, values))
        if not math.isfinite(value):
            raise ToleranceError(f"Gauss-Jacobi rule of {n} nodes gave {value}")
        total_nodes += n
        if previous is not None:
            err = abs(value - previous)
            if err <= tol * (1.0 + abs(value)):
                return QuadResult(value, err + value_err, total_nodes)
        previous = value
        n *= 2
    raise ToleranceError(f"Gauss-Jacobi doubling did not reach tol={tol} by {_GJ_MAX} nodes")


def singular_integral(
    alpha: float,
    beta: float,
    smooth: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
) -> QuadResult:
    """int_0^1 v^alpha (1-v)^beta smooth(v) dv by Gauss-Jacobi node doubling.

    ``smooth`` must accept a numpy array of nodes in (0, 1).  Exponents must
    exceed -1.  Declare every algebraic endpoint power in alpha and beta,
    where the rule carries it exactly: a smooth factor with an endpoint kink,
    such as (1 - v)^0.5, stalls the doubling, which raises ToleranceError.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise RegionError(f"endpoint exponents must exceed -1, got ({alpha}, {beta})")

    def level(n: int):
        v, w = _gauss_jacobi_01(n, alpha, beta)
        return w, np.asarray(smooth(v), dtype=float), 0.0

    return _gauss_jacobi_doubling(level, tol)


# ---------------------------------------------------------------------------
# sector pairings
# ---------------------------------------------------------------------------


def sector_inner_numeric(
    n: int,
    kind: str,
    p: ParamPoint,
    tol: float = 1e-9,
    mode: str = "h",
) -> QuadResult:
    """Numerical value of the sphere pairing of phi^(2n) p12 (or the odd
    phi^(2n+1) p14 variant) against p12, for positive-definite parameters.

    mode "h" (default) integrates the factored single-series form in v = u^2
    with Gauss-Jacobi carrying the exact endpoint exponents; mode "direct"
    integrates the raw matrix form over the angle with a double-exponential
    rule and exists as an independent cross-check of the factored route.
    Both carry the tail bounds of their series values into the error
    estimate (see ``QuadResult``).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if kind not in ("p12", "p14"):
        raise ValueError(f"kind must be 'p12' or 'p14', got {kind!r}")
    if not p.positive_definite:
        raise RegionError(f"sector pairing needs the positive-definite region; got {p}")
    if mode == "h":
        return _sector_inner_h(n, kind, p, tol)
    if mode == "direct":
        return _sector_inner_direct(n, kind, p, tol)
    raise ValueError(f"mode must be 'h' or 'direct', got {mode!r}")


# Rules kept at once: one point's pairings draw on four families (two kinds
# times two slots) of at most eight doubling levels each (24 to 3072 nodes).
_H_RULE_CACHE = 32


@functools.lru_cache(maxsize=_H_RULE_CACHE)
def _h_rule(
    k0: float, k1: float, i: int, j: int, a: float, b0: float, size: int, htol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``size``-node rule for v^a (1-v)^b0 with h_i h_j at its nodes.

    Returns nodes, weights, the product h_i h_j and a bound on its error
    built from the certified tail bounds of the two series.
    """
    v, w = _gauss_jacobi_01(size, a, b0)
    indices = (i,) if j == i else (i, j)
    series = _gauss_2f1_rows([_H_PARAMS[k](k0, k1) for k in indices], v, 1.0 - v, htol)
    (vi, ti, _), (vj, tj, _) = series[0], series[-1]
    arrays = (v, w, vi * vj, np.abs(vi) * tj + np.abs(vj) * ti + ti * tj)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _h_integral(
    k0: float, k1: float, i: int, j: int, b0: float, e: int, htol: float, tol: float
) -> QuadResult:
    """int_0^1 v^a (1-v)^b0 (1-v)^e (1+v)^(-e-2) h_i h_j dv on a shared rule.

    Only the explicit factor depends on e, so every n at one point reuses the
    nodes, weights and h-values of the family (k0, k1, i, j, b0).  Slot 1
    (i = 1) has a = k1 + 1/2, slot 2 (i = 2) has a = -k1 - 1/2.  The error
    estimate adds to the refinement difference the h error carried through
    the rule and the rounding of forming and summing its terms.
    """
    a = k1 + 0.5 if i == 1 else -k1 - 0.5

    def level(size: int):
        v, w, hprod, hprod_bound = _h_rule(k0, k1, i, j, a, b0, size, htol)
        explicit = ((1.0 - v) / (1.0 + v)) ** e / (1.0 + v) ** 2
        weighted = w * explicit
        propagated = float(np.dot(weighted, hprod_bound))
        # one rounding per summed term; forming a term rounds the ratio three
        # times, raises it to the e-th power and takes a few products more
        rounding = (size + 3 * e + 8) * _EPS * float(np.dot(weighted, np.abs(hprod)))
        return w, explicit * hprod, propagated + rounding

    return _gauss_jacobi_doubling(level, tol)


def _sector_inner_h(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    k0, k1 = p.k0, p.k1
    d1, d2 = d_consts(p)
    htol = max(1e-11, tol * 1e-3)
    sub_tol = tol / 8.0
    if kind == "p12":
        # (1-v)^(2n - 2k0): the weight keeps -2k0, the explicit factor 2n
        i1 = _h_integral(k0, k1, 1, 1, -2.0 * k0, 2 * n, htol, sub_tol)
        i2 = _h_integral(k0, k1, 2, 2, -2.0 * k0, 2 * n, htol, sub_tol)
        coeff1 = 4.0 * d1 * ((1 + 2 * k0 + 2 * k1) / (1 + 2 * k1)) ** 2
        coeff2 = 4.0 * d2
    else:
        i1 = _h_integral(k0, k1, 1, 3, 0.0, 2 * n + 1, htol, sub_tol)
        i2 = _h_integral(k0, k1, 2, 4, 0.0, 2 * n + 1, htol, sub_tol)
        # signs fixed by expanding (L p14^T)^T diag(d) (L p12^T): the slot-1
        # product is +, the slot-2 product is -; at k = 0 this reduces to the
        # elementary value -1/2 of the first odd pairing, which pins them
        coeff1 = 4.0 * d1 * (1 - 2 * k0 + 2 * k1) * (1 + 2 * k0 + 2 * k1) / (1 + 2 * k1) ** 2
        coeff2 = -4.0 * d2
    part1, part2 = coeff1 * i1.value, coeff2 * i2.value
    # d1 and d2 each carry four gamma values; the coefficients and the sum a
    # few roundings more
    rounding = (4.0 * _GAMMA_RELERR + 16.0 * _EPS) * (abs(part1) + abs(part2))
    err = abs(coeff1) * i1.error_estimate + abs(coeff2) * i2.error_estimate + rounding
    return QuadResult(part1 + part2, err, i1.nodes + i2.nodes)


def _sector_inner_direct(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    d1, d2 = d_consts(p)
    phi_power = 2 * n if kind == "p12" else 2 * n + 1
    left_sign = 1.0 if kind == "p12" else -1.0
    # d1 and d2 each carry four gamma values; phi rounds about three times,
    # and its power and the final products a few times more
    rho = 4.0 * _GAMMA_RELERR + (3 * phi_power + 8) * _EPS

    def integrand(
        frac: np.ndarray, dist0: np.ndarray, dist1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        theta = _SECTOR * frac
        delta = _SECTOR * dist1
        value, bound = np.zeros(len(frac)), np.zeros(len(frac))
        inside = np.flatnonzero((theta != 0.0) & (delta != 0.0))
        # per node with math: the slope and its complement without
        # cancellation at either edge, sin and cos of theta, and the power of
        # phi = sin(2 delta), which equals cos(2 theta)
        trig = []
        nodes = zip(theta[inside].tolist(), delta[inside].tolist(), dist1[inside].tolist())
        for t, dl, far in nodes:
            if far < 0.5:
                td = math.tan(dl)
                u = (1.0 - td) / (1.0 + td)
            else:
                u = math.tan(t)
            phi = math.sin(2.0 * dl)
            trig.append((u, phi / math.cos(t) ** 2, math.sin(t), math.cos(t), phi**phi_power))
        u, complement, sin_t, cos_t, scale = np.array(trig).reshape(-1, 5).T
        ell, ell_err = _eval_L_bounded(u, complement, p, 1e-11)
        # left^T L^T diag(d) L right = sum_r d_r y_r z_r with y = L left,
        # z = L right, left = (-sin, +-cos) and right = (-sin, cos)
        total = total_bound = 0.0
        for (l0, l1), (e0, e1), d in zip(ell, ell_err, (d1, d2)):
            y = -l0 * sin_t + left_sign * l1 * cos_t
            z = -l0 * sin_t + l1 * cos_t
            # error of y and of z: the entries' bounds, and three roundings
            # of each product and of the sum
            dev = (e0 + 3.0 * _EPS * np.abs(l0)) * sin_t + (e1 + 3.0 * _EPS * np.abs(l1)) * cos_t
            total = total + d * y * z
            spread = dev * (np.abs(y) + np.abs(z) + dev) + rho * np.abs(y * z)
            total_bound = total_bound + abs(d) * spread
        value[inside], bound[inside] = scale * total, np.abs(scale) * total_bound
        return value, bound

    de = tanh_sinh(integrand, tol=tol)
    value = 8.0 * _SECTOR * de.value
    return QuadResult(value, 8.0 * _SECTOR * de.error_estimate + 2.0 * _EPS * abs(value), de.nodes)


# ---------------------------------------------------------------------------
# asymptotic integral comparison
# ---------------------------------------------------------------------------


def asym_integral_check(
    alpha: float,
    beta: float,
    gamma_exp: float,
    n: int,
    smooth: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Integral int_0^1 t^alpha (1-t)^(n+gamma) (1+t)^(beta-n) g(t) dt versus
    its large-n asymptote (2n)^(-alpha-1) Gamma(alpha+1) g(0).

    Returns (numerical value, asymptote); their ratio tends to 1.  Requires
    alpha, gamma > -1 and n >= 2.  The substitution t = v/(2-v) turns the
    n-dependent factor into (1-v)^n, so the quadrature cost stays flat in n.
    """
    if alpha <= -1.0 or gamma_exp <= -1.0:
        raise RegionError("exponents alpha and gamma must exceed -1")
    if n < 2:
        raise ValueError("n must be at least 2")
    g = smooth if smooth is not None else (lambda _t: 1.0)
    residual_exp = -alpha - beta - gamma_exp - 2.0

    def transformed(v: np.ndarray) -> np.ndarray:
        t = v / (2.0 - v)
        return (1.0 - v / 2.0) ** residual_exp * np.array([g(ti) for ti in t])

    result = singular_integral(alpha, n + gamma_exp, transformed, tol=1e-12)
    numeric = 2.0 ** (-alpha - 1.0) * result.value
    asymptote = (2.0 * n) ** (-alpha - 1.0) * gamma_fn(alpha + 1.0) * g(0.0)
    return numeric, asymptote
