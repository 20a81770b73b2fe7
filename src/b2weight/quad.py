"""High-accuracy quadrature for the sector integrals.

The sphere pairings reduce (after the slope substitution v = u^2) to
one-dimensional integrals

    int_0^1 v^alpha (1 - v)^beta * smooth(v) dv,      alpha, beta > -1,

with algebraic endpoint singularities carried entirely by the explicit
exponents.  Gauss-Jacobi carries exactly those exponents and doubles its node
count; it serves mode "h" of the pairings and ``singular_integral``.  Mode "h"
builds its rules in the graded variable x of 1 - v = (1 - x)^2 (1 + x): the
h-values carry non-integer powers of 1 - v at v = 1, on which Gauss-Jacobi in
v converges only algebraically, and the map doubles them.  Mode "direct",
the independent cross-check, integrates the raw matrix form over
the slope u = tan(theta) in (0, 1) with a tanh-sinh rule, which supplies each
node u with 1 - u exactly, so 1 - u^2 is formed without cancellation and no
node needs trigonometry.  Both rules stop by one test, in ``_refine``: at the
tolerance or at the level's own error term.  The radial half of the plane
integral is folded in analytically (a factor 2^l l! in the pairing
normalization), so no infinite-domain quadrature appears anywhere.

The order n of a pairing enters only through an explicit factor
(1 - v)^e (1 + v)^(-e-2); the weight's exponents a = +/-(k1 + 1/2) and b0
(-2 k0 for p12, 0 for p14) do not depend on n.  So every n of both kinds at
one point draws on four rule families, and a bounded memo keeps each rule
with the products of h-values at its nodes.  The series are summed per rule,
all its nodes in one batch, not once per node and n.  Mode "direct" likewise
needs L only at the slope: a second bounded memo keeps, per point and
tanh-sinh batch (levels 0 to 3, then each later level), the batch's nodes
with L's entries and their bounds there, so every n and kind at one point
sums L's series once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import RegionError, ToleranceError
from .hyper import _EPS, _GAMMA_RELERR, _H_PARAMS, _gauss_2f1_rows, gamma_fn
from .weight import ParamPoint, _eval_L_bounded, d_consts

# node counts of Gauss-Jacobi doubling, 24 to 3072; tanh-sinh levels and node
# range, and the batches of levels whose nodes tanh-sinh passes to its integrand
# in one call: levels 0 to 3, where the rule cannot stop yet, then one level each
_GJ_SIZES = tuple(24 << k for k in range(8))
_TS_LEVELS, _TS_T_MAX = 9, 6.2
_TS_BATCHES = ((0, 1, 2, 3),) + tuple((level,) for level in range(4, _TS_LEVELS + 1))


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate and the total nodes used.

    ``nodes`` counts integrand evaluations over all refinement levels: each
    Gauss-Jacobi level evaluates its whole rule, each tanh-sinh level after
    the first only the nodes the previous level did not have.

    ``error_estimate`` is the difference between the last two refinements,
    a heuristic for the quadrature error, plus the accepted level's error
    term: the integrand's error bounds carried through the rule (those of
    the h-values in mode "h", of L's entries in mode "direct", none for
    ``singular_integral``'s ``smooth``) plus the rounding of the rule's
    weighted sum, and in the Gauss-Jacobi rules of its weights' first moment
    (and in mode "h" of their graded factor).  Refinement stops once that
    difference is within tol * (1 + |value|) or within the error term.
    The actual error can exceed the estimate by a small factor.  Value and
    estimate are always finite.
    """

    value: float
    error_estimate: float
    nodes: int


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _gauss_jacobi_01(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating v^alpha (1-v)^beta * f(v) over [0, 1].

    Golub-Welsch, n >= 2: numpy's dense eigen-solve of the tridiagonal
    recurrence matrix, O(n^3), 4.8 s at n = 3072 on one thread.  The first
    moment is formed through lgamma, so very large exponents (deep endpoint
    powers such as (1-v)^n with n in the hundreds) stay inside float range.
    """
    a_exp = float(beta)   # exponent of (1-x) in the [-1, 1] convention
    b_exp = float(alpha)  # exponent of (1+x)
    s = a_exp + b_exp
    diag = np.empty(n)
    diag[0] = (b_exp - a_exp) / (s + 2.0)
    i = np.arange(1, n, dtype=float)
    diag[1:] = (b_exp**2 - a_exp**2) / ((2.0 * i + s) * (2.0 * i + s + 2.0))
    off = np.empty(n - 1)
    # the j = 1 coefficient in a form with the (1+s) factor cancelled, which
    # the Chebyshev-type case s = -1 needs
    off[0] = math.sqrt(4.0 * (1.0 + a_exp) * (1.0 + b_exp) / ((2.0 + s) ** 2 * (3.0 + s)))
    j = np.arange(2, n, dtype=float)
    num = 4.0 * j * (j + a_exp) * (j + b_exp) * (j + s)
    den = (2.0 * j + s) ** 2 * ((2.0 * j + s) ** 2 - 1.0)
    off[1:] = np.sqrt(num / den)
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
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


def _refine(levels: Iterable, tol: float, rule: str, first: int = 1) -> QuadResult:
    """The stopping rule of both quadrature rules.

    ``levels`` yields, per refinement level, the value, one error term and the
    number of nodes the level added.  Level ``first`` and every later one stop
    as soon as |value - previous| is at most tol * (1 + |value|) or the
    level's error term, which no larger rule can resolve; the estimate is that
    difference plus the error term.  Raises ToleranceError at a non-finite
    value or error term, and when no two successive levels agree.
    """
    previous, nodes = 0.0, 0
    for level, (value, error, added) in enumerate(levels):
        nodes += added
        if not (math.isfinite(value) and math.isfinite(error)):
            raise ToleranceError(f"{rule} rule of {nodes} nodes gave {value}, error term {error}")
        difference = abs(value - previous)
        if level >= first and difference <= max(tol * (1.0 + abs(value)), error):
            return QuadResult(value, difference + error, nodes)
        previous = value
    raise ToleranceError(f"{rule} rule of {nodes} nodes did not reach tol={tol}")


def tanh_sinh(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-10,
) -> QuadResult:
    """Double-exponential rule on (0, 1) for endpoint-singular integrands.

    The integrand receives arrays of nodes, as ``singular_integral``'s
    ``smooth`` does: it is called as f(v, 1 - v), each node with its distance
    to 1 supplied exactly, so algebraic endpoint factors can be formed from
    the two without catastrophic cancellation.  Neither array holds 0.  It
    returns an array of values and an array (or a scalar) of bounds on the
    error of each value (0.0 for a value exact up to rounding).

    Level L has step 2^-L and floor(6.2 * 2^L) nodes on each side, for L up
    to 9; its even-indexed nodes are exactly the nodes of level L - 1, so
    each level adds only its odd-indexed nodes to the running sums.  The rule
    cannot stop before level 3, so f is called once for the nodes of levels
    0 to 3 and once for each later level.  ``nodes`` counts the integrand
    evaluations over all levels.  ``error_estimate`` is the difference of the
    last two levels, plus the integrand's bounds integrated by the same rule,
    plus the rounding of the sum.  The rule stops once that difference is
    within tol * (1 + |value|) or the level's bounds and rounding, as
    ``_refine`` says.
    """

    def levels():
        sums, nodes = np.zeros(3), 0  # running sums of the terms, bounds and |terms|
        for batch in _TS_BATCHES:
            added = [_tanh_sinh_nodes(level) for level in batch]
            dist0, dist1, dvdt = np.concatenate(added).T
            values, bounds = f(dist0, dist1)
            terms = values * dvdt
            # all three running sums in node order, as one term at a time
            columns = np.column_stack((terms, bounds * dvdt, np.abs(terms)))
            running = np.add.accumulate(np.vstack((sums, columns)))
            start = nodes  # running[0] holds the sums over the nodes of earlier batches
            for level, rows in zip(batch, added):
                nodes += len(rows)
                h = 1.0 / 2**level
                total, bound, mass = running[nodes - start].tolist()
                # the sum of `nodes` terms rounds at most once per term
                yield total * h, bound * h + (nodes + 2) * _EPS * mass * h, len(rows)
            sums = running[-1]

    return _refine(levels(), tol, "tanh-sinh", first=3)


def singular_integral(
    alpha: float,
    beta: float,
    smooth: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
) -> QuadResult:
    """int_0^1 v^alpha (1-v)^beta smooth(v) dv by Gauss-Jacobi node doubling.

    ``smooth`` must accept a numpy array of nodes in (0, 1).  Exponents must
    exceed -1.  The doubling stops as ``_refine`` says, the error term being
    the sum's rounding.  Declare every algebraic endpoint power in alpha and
    beta, where the rule carries it exactly: a smooth factor with an endpoint
    kink, such as (1 - v)^0.5, stalls the doubling up to the 3072-node rule,
    seconds of O(n^3) solve, and raises ToleranceError.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise RegionError(f"endpoint exponents must exceed -1, got ({alpha}, {beta})")
    # every weight carries the relative rounding of the rule's first moment
    moment = _moment_rounding(alpha, beta)

    def levels():
        for size in _GJ_SIZES:
            v, w = _gauss_jacobi_01(size, alpha, beta)
            values = np.asarray(smooth(v), dtype=float)
            # the weights are positive; the sum rounds at most once per term
            rounding = (size + 2 + moment) * _EPS * float(np.dot(w, np.abs(values)))
            yield float(np.dot(w, values)), rounding, size

    return _refine(levels(), tol, "Gauss-Jacobi")


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
    with Gauss-Jacobi carrying the exact endpoint exponents, on the graded
    variable x of 1 - v = (1 - x)^2 (1 + x) (see ``_h_rule``); mode "direct"
    integrates the raw matrix form over the slope u = tan(theta) with a
    double-exponential rule and exists as an independent cross-check of the
    factored route.
    Both carry the tail bounds of their series values into the error estimate,
    and stop once two levels agree within the tolerance or that error term
    (see ``QuadResult``): at tol 1e-12 and 1e-13 mode "h" built no rule, an
    O(n^3) solve, past 384 nodes at the points tested.  At tol 1e-11 mode
    "direct" refuses every pairing tried for 0 < |k0| up to 5e-4 (k1 = 0) to
    9e-4 (k1 = 0.4), where c - a - b = 2 k0 of L's series is near 0 (see
    README); mode "h" computes them, summing the h series at its outermost
    nodes, whose weights are tiny, to a looser tolerance whose bounds still
    enter the estimate.
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
# On the graded rule, for n <= 20 over the step-1/20 grid, no family goes
# past 96 nodes at tol 1e-9 or past 384 at tol 1e-11.
_H_RULE_CACHE = 32

# the relative rounding, in units of eps, of the weights' graded factor
# (1 + 3x)(1 + x)^b0 (1 + x(1 - x))^a for |a|, |b0| <= 1: two roundings in
# 1 + 3x, two in (1 + x)^b0, five in the power of 1 + x(1 - x), three products
_GRADED_ROUNDING = 12.0


def _h_exponents(k0: float, k1: float, i: int, j: int) -> tuple[float, float]:
    """The exponents (a, b0) of mode "h"'s weight v^a (1-v)^b0 for h_i h_j."""
    a = k1 + 0.5 if i == 1 else -k1 - 0.5
    return a, (-2.0 * k0 if j == i else 0.0)


def _moment_rounding(alpha: float, beta: float) -> float:
    """The relative rounding, in units of eps, of the first moment
    exp(lgamma(alpha+1) + lgamma(beta+1) - lgamma(alpha+beta+2)) of a
    Gauss-Jacobi rule: that of the lgamma sum, which grows with beta, and of exp."""
    lgammas = (math.lgamma(alpha + 1.0), math.lgamma(beta + 1.0), math.lgamma(alpha + beta + 2.0))
    return sum(map(abs, lgammas)) + 4.0


@functools.lru_cache(maxsize=_H_RULE_CACHE)
def _h_rule(
    k0: float, k1: float, i: int, j: int, size: int, htol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``size``-node rule for v^a (1-v)^b0 with h_i h_j at its nodes.

    The exponents a and b0 are ``_h_exponents``.  The rule is built in the
    graded variable x of v = x (1 + x(1 - x)), 1 - v = (1 - x)^2 (1 + x): with
    dv = (1 - x)(1 + 3x) dx the weight becomes x^a (1-x)^(2 b0 + 1), carried by
    Gauss-Jacobi, times (1 + 3x)(1 + x)^b0 (1 + x(1 - x))^a, folded into the
    weights.  The map doubles every non-integer power of 1 - v that h_i h_j
    carries at v = 1 and keeps v ~ x near 0.  Node i's series is summed to
    htol * max(1, w_max / (size * w_i)), so sum w_i tol_i <= 2 htol sum w_i.
    Returns v, s = 1 - v (from the map, without cancellation), the weights,
    the product h_i h_j and a bound on its error from the certified tail
    bounds of the two series.
    """
    a, b0 = _h_exponents(k0, k1, i, j)
    x, w = _gauss_jacobi_01(size, a, 2.0 * b0 + 1.0)
    t = 1.0 - x  # exact for x >= 1/2
    g = 1.0 + x * t
    v, s = x * g, t * t * (1.0 + x)
    w = w * (1.0 + 3.0 * x) * (1.0 + x) ** b0 * g**a
    node_tol = htol * np.maximum(1.0, w.max() / (size * w))
    indices = (i,) if j == i else (i, j)
    series = _gauss_2f1_rows([_H_PARAMS[k](k0, k1) for k in indices], v, s, node_tol)
    (vi, ti, _), (vj, tj, _) = series[0], series[-1]
    arrays = (v, s, w, vi * vj, np.abs(vi) * tj + np.abs(vj) * ti + ti * tj)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _h_integral(
    k0: float, k1: float, i: int, j: int, e: int, htol: float, tol: float
) -> QuadResult:
    """int_0^1 v^a (1-v)^b0 (1-v)^e (1+v)^(-e-2) h_i h_j dv on a shared rule.

    The weight v^a (1-v)^b0 is ``_h_rule``'s.  Only the explicit factor
    depends on e, so every n at one point reuses the nodes, weights and
    h-values of the family (k0, k1, i, j).  The error estimate adds to the
    refinement difference the h error carried through the rule and the
    rounding of the weights (their first moment and graded factor) and of
    forming and summing the terms.
    """
    a, b0 = _h_exponents(k0, k1, i, j)
    per_term = 9 * e + 8 + _GRADED_ROUNDING + _moment_rounding(a, 2.0 * b0 + 1.0)

    def levels():
        for size in _GJ_SIZES:
            v, s, w, hprod, hprod_bound = _h_rule(k0, k1, i, j, size, htol)
            one_plus = 1.0 + v
            explicit = (s / one_plus) ** e / one_plus**2
            weighted = w * explicit
            propagated = float(np.dot(weighted, hprod_bound))
            # one rounding per summed term and ``per_term`` in forming each: s
            # rounds up to five times and 1 + v three times, so the ratio up to
            # nine, which the e-th power multiplies, a few products more, and
            # the rounding of the weights
            rounding = (size + per_term) * _EPS * float(np.dot(weighted, np.abs(hprod)))
            yield float(np.dot(w, explicit * hprod)), propagated + rounding, size

    return _refine(levels(), tol, "Gauss-Jacobi")


def _sector_inner_h(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    k0, k1 = p.k0, p.k1
    d1, d2 = d_consts(p)
    htol = max(1e-11, tol * 1e-3)
    sub_tol = tol / 8.0
    if kind == "p12":
        # (1-v)^(2n - 2k0): the rule's weight keeps -2k0, the explicit factor 2n
        pairs, e = ((1, 1), (2, 2)), 2 * n
        coeff1 = 4.0 * d1 * ((1 + 2 * k0 + 2 * k1) / (1 + 2 * k1)) ** 2
        coeff2 = 4.0 * d2
    else:
        pairs, e = ((1, 3), (2, 4)), 2 * n + 1
        # signs fixed by expanding (L p14^T)^T diag(d) (L p12^T): the slot-1
        # product is +, the slot-2 product is -; at k = 0 this reduces to the
        # elementary value -1/2 of the first odd pairing, which pins them
        coeff1 = 4.0 * d1 * (1 - 2 * k0 + 2 * k1) * (1 + 2 * k0 + 2 * k1) / (1 + 2 * k1) ** 2
        coeff2 = -4.0 * d2
    i1, i2 = (_h_integral(k0, k1, i, j, e, htol, sub_tol) for i, j in pairs)
    part1, part2 = coeff1 * i1.value, coeff2 * i2.value
    # d1 and d2 each carry four gamma values; the coefficients and the sum a
    # few roundings more
    rounding = (4.0 * _GAMMA_RELERR + 16.0 * _EPS) * (abs(part1) + abs(part2))
    err = abs(coeff1) * i1.error_estimate + abs(coeff2) * i2.error_estimate + rounding
    return QuadResult(part1 + part2, err, i1.nodes + i2.nodes)


# Batches kept at once.  A point has seven, of 99 to 3154 nodes and 6309 in
# all; with L and its bounds a node takes 104 bytes, so a point's batches take
# 0.66 MB, and the memo holds all of two points and at most 5.3 MB.
_DIRECT_RULE_CACHE = 16


@functools.lru_cache(maxsize=_DIRECT_RULE_CACHE)
def _direct_rule(k0: float, k1: float, batch: int) -> tuple[np.ndarray, ...]:
    """The slopes of tanh-sinh batch ``batch`` (an index into ``_TS_BATCHES``)
    with the parts of mode "direct"'s integrand that do not depend on n or kind.

    Returns u, s = 1 - u, w = 1 - u^2 (formed as s (2 - s), without
    cancellation), q = 1 + u^2, and L's entries at the slopes with their error
    bounds, of shape (2, 2, len(u)).  All arrays are read-only.
    """
    levels = _TS_BATCHES[batch]
    u, s, _ = np.concatenate([_tanh_sinh_nodes(level) for level in levels]).T
    w, q = s * (2.0 - s), 1.0 + u * u
    ell, ell_err = _eval_L_bounded(u, w, ParamPoint(k0, k1), 1e-11)
    arrays = (u, s, w, q, ell, ell_err)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _sector_inner_direct(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    d1, d2 = d_consts(p)
    d = np.array([[d1], [d2]])
    phi_power = 2 * n if kind == "p12" else 2 * n + 1
    left_sign = 1.0 if kind == "p12" else -1.0
    # d1 and d2 each carry four gamma values; w / q rounds five times, its
    # power p times that and once more, and dividing by q^2 and the final
    # products a few times more
    rho = 4.0 * _GAMMA_RELERR + (5 * phi_power + 12) * _EPS
    outermost = [1.0, 1.0]  # the smallest u and s summed
    batches = iter(range(len(_TS_BATCHES)))

    def integrand(_u: np.ndarray, _s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # tanh_sinh passes the batches in order, one per call: the memo holds
        # these slopes with w, q and L at them
        u, s, w, q, ell, ell_err = _direct_rule(p.k0, p.k1, next(batches))
        outermost[0] = min(outermost[0], float(u.min()))
        outermost[1] = min(outermost[1], float(s.min()))
        # in theta the form is sum_r d_r y_r z_r / q with y = L (-u, +-1) and
        # z = L (-u, 1), one row r per entry of d; d theta = du / q
        (l0, l1), (e0, e1) = ell.swapaxes(0, 1), ell_err.swapaxes(0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            y, z = left_sign * l1 - u * l0, l1 - u * l0
            # error of y and of z: the entries' bounds, and three roundings
            # of each product and of the sum
            dev = (e0 + 3.0 * _EPS * np.abs(l0)) * u + e1 + 3.0 * _EPS * np.abs(l1)
            spread = dev * (np.abs(y) + np.abs(z) + dev) + rho * np.abs(y * z)
            scale = (w / q) ** phi_power / (q * q)
            value = scale * (d * y * z).sum(axis=0)
            bound = scale * (np.abs(d) * spread).sum(axis=0)
        if not (np.isfinite(value).all() and np.isfinite(bound).all()):
            raise ToleranceError(
                f"mode 'direct': the integrand overflows near a sector edge at {p}; "
                "mode 'h' covers this point"
            )
        return value, bound

    de = tanh_sinh(integrand, tol=tol)
    edges = _edge_mass(p, d1, d2, phi_power, *outermost)
    return QuadResult(8.0 * de.value, 8.0 * (de.error_estimate + edges), de.nodes)


def _edge_mass(
    p: ParamPoint, d1: float, d2: float, phi_power: int, u_c: float, s_c: float
) -> float:
    """A bound on the integral of |integrand| of mode "direct" over (0, u_c)
    and over (1 - s_c, 1), beyond the outermost nodes summed.

    The integrand is phi^p (d1 y_1 z_1 + d2 y_2 z_2) / q^2 with p = ``phi_power``,
    q = 1 + u^2 >= 1, phi = w / q <= w = 1 - u^2 and |y_r|, |z_r| <= u |L_r1| + |L_r2|.

    Near u = 0 each 2F1 of L is 1 + O(u^2), so |y_1|, |z_1| <= (1 + |k0| /
    (1/2 + k1)) u^(1+k1) and |y_2|, |z_2| <= u^(-k1).

    Near u = 1, with s = 1 - u, s <= w = s (2 - s) <= 2s.  In the
    positive-definite region each 2F1 of L, or its Euler transform, is a
    series whose terms after the first share one sign, so it lies between 0
    and 1 or below its value at 1 (Gauss's sum).  So |L_11|, |L_22| <= s^(-|k0|),
    |L_12| <= g_+ s^(-|k0|) and |L_21| <= g_- s^(-|k0|) with
    g_+- = Gamma(1 + 2|k0|) Gamma(1/2 +- k1) / (2 Gamma(1 + |k0|) Gamma(1/2 +- k1 + |k0|)),
    and phi^p <= 2^p s^p.

    The outermost nodes lie within 1e-290 of the endpoints, where every
    factor these bounds drop (the 2F1 values' distance from 1, u^-|k1|) is 1
    to within 1e-500.
    """
    k0, k1 = abs(p.k0), p.k1
    row1 = abs(d1) * (1.0 + k0 / (0.5 + k1)) ** 2 * u_c ** (3.0 + 2.0 * k1) / (3.0 + 2.0 * k1)
    row2 = abs(d2) * u_c ** (1.0 - 2.0 * k1) / (1.0 - 2.0 * k1)
    ratio = gamma_fn(1.0 + 2.0 * k0) / (2.0 * gamma_fn(1.0 + k0))
    g_plus = ratio * gamma_fn(0.5 + k1) / gamma_fn(0.5 + k1 + k0)
    g_minus = ratio * gamma_fn(0.5 - k1) / gamma_fn(0.5 - k1 + k0)
    power = phi_power - 2.0 * k0
    near_one = (abs(d1) * (1.0 + g_plus) ** 2 + abs(d2) * (1.0 + g_minus) ** 2) * 2.0**phi_power
    return row1 + row2 + near_one * s_c ** (power + 1.0) / (power + 1.0)


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
