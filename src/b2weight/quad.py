"""High-accuracy quadrature for the sector integrals.

The sphere pairings reduce (after the slope substitution v = u^2) to
one-dimensional integrals

    int_0^1 v^alpha (1 - v)^beta * smooth(v) dv,      alpha, beta > -1,

with algebraic endpoint singularities carried entirely by the explicit
exponents.  Gauss-Jacobi carries exactly those exponents and doubles its node
count from 24 to 384; it serves mode "h" of the pairings alone.  Mode "h"
builds its rules in the graded variable x of 1 - v = (1 - x)^2 (1 + x): the
h-values carry non-integer powers of 1 - v at v = 1, on which Gauss-Jacobi in
v converges only algebraically, and the map doubles them.  Tanh-sinh, whose
read-only nodes carry their distance to 1 exactly, one level per integrand
call, serves the rest: ``singular_integral`` and mode "direct", the
independent cross-check, over the slope u = tan(theta) in (0, 1), where
1 - u^2 then forms without cancellation.  Both rules stop by one test, in
``_refine``: at the tolerance or at the level's own error term.  The radial
half of the plane integral is folded in analytically (a factor 2^l l! in the
pairing normalization), so no infinite-domain quadrature appears anywhere.

The order n of a pairing enters only through an explicit factor
(1 - v)^e (1 + v)^(-e-2); the weight's exponents a = +/-(k1 + 1/2) and b0
(-2 k0 for p12, 0 for p14) do not depend on n.  So every n of both kinds at
one point draws on four rule families, and a bounded memo keeps, per point,
each rule with every factor that does not depend on n: its nodes v and
s = 1 - v, its weights, s / (1 + v) and (1 + v)^2, and the product of
h-values at its nodes with its absolute value and error bound, so a level
of a pairing takes seven numpy calls.  The first pairing at a point builds
the 24- and 48-node rules of all four families, which every pairing needs,
together: one stacked eigen-solve per size and one series call for every
h-value at their nodes.  A later level is built when a family first
reaches it, its nodes again in one batch.  Mode "direct" likewise needs L
only at the slope: a second bounded memo keeps, per point and tanh-sinh
level, every part of the integrand but the power of w / q that carries n
(``_direct_rule``), its sums over L's rows formed: three rows per kind,
eight floats a node.  So every n and kind at one point sums L's series once;
only the six gamma values of its edge bound are computed per pairing.  Both
modes sum their series to ``weight._SERIES_TOL``, so pairings at every
tolerance share one memo per point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import RegionError, ToleranceError
from .hyper import _EPS, _GAMMA_RELERR, _H_PARAMS, _check_tol, _gauss_2f1_rows, gamma_fn
from .weight import _SERIES_TOL, ParamPoint, _eval_L_bounded, d_consts

# node counts of Gauss-Jacobi doubling, 24 to 384; tanh-sinh levels and node range
_GJ_SIZES = tuple(24 << k for k in range(5))
_TS_LEVELS, _TS_T_MAX = 9, 6.2


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate and the total nodes used.

    ``nodes`` counts integrand evaluations over all refinement levels: each
    Gauss-Jacobi level evaluates its whole rule, each tanh-sinh level after
    the first only the nodes the previous level did not have.

    ``error_estimate`` is the difference between the last two refinements,
    a heuristic for the quadrature error, plus the accepted level's error
    term: the integrand's error bounds carried through the rule (those of
    the h-values in mode "h", of L's entries in mode "direct", of the weight
    in ``singular_integral``) plus the rounding of the rule's weighted sum,
    and in mode "h" of its weights' first moment and graded factor.
    Refinement stops once that difference is within tol * (1 + |value|) or
    within the error term.  The tanh-sinh rules of mode "direct" and
    ``singular_integral`` then add the mass beyond their outermost nodes.
    The actual error can exceed the estimate by a small factor.  Value and
    estimate are always finite.
    """

    value: float
    error_estimate: float
    nodes: int


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _gauss_jacobi_01(
    n: int, exponents: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating v^alpha (1-v)^beta * f(v) over [0, 1], one
    row of each per pair (alpha, beta) of ``exponents``.

    Golub-Welsch, n >= 2: one numpy eigen-solve of the stacked tridiagonal
    recurrence matrices, O(n^3) each, 16 ms at n = 384 on one thread.  The
    recurrence coefficients of all rules are formed at once, on (rules, n)
    arrays, and written into the stacked matrices by index; every entry
    rounds as in a rule of its own, and a stack gives each rule the bits of
    its own solve.  The first moment is formed through lgamma.
    """
    # per rule, in the [-1, 1] convention: the exponents a of (1-x) and b of
    # (1+x), s = a + b, b^2 - a^2, the first diagonal entry, the j = 1
    # coefficient in a form with the (1+s) factor cancelled, which the
    # Chebyshev-type case s = -1 needs, and the first moment
    scalars = []
    for alpha, beta in exponents:
        a, b = float(beta), float(alpha)
        s = a + b
        scalars.append((
            a, b, s, b**2 - a**2, (b - a) / (s + 2.0),
            math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))),
            math.exp(
                math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0)
            ),
        ))
    a, b, s, squares, diag0, off0, moments = np.array(scalars).T[:, :, None]
    k = np.arange(1, n)
    i = k.astype(float)
    j = i[1:]
    num = 4.0 * j * (j + a) * (j + b) * (j + s)
    den = (2.0 * j + s) ** 2 * ((2.0 * j + s) ** 2 - 1.0)
    # the diagonal and the subdiagonal, all the solve reads
    matrices = np.zeros((len(scalars), n, n))
    matrices[:, 0, 0], matrices[:, 1, 0] = diag0[:, 0], off0[:, 0]
    matrices[:, k, k] = squares / ((2.0 * i + s) * (2.0 * i + s + 2.0))
    matrices[:, k[1:], k[:-1]] = np.sqrt(num / den)
    x, vecs = np.linalg.eigh(matrices, UPLO="L")
    return 0.5 * (x + 1.0), moments * vecs[:, 0, :] ** 2


@functools.cache
def _tanh_sinh_nodes(level: int) -> np.ndarray:
    """The nodes tanh-sinh level ``level`` adds: the rows dist0, dist1 and dv/dt.

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
    table = np.array(rows).T.copy()
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


def tanh_sinh(f: Callable[[int], tuple[np.ndarray, np.ndarray]], tol: float = 1e-10) -> QuadResult:
    """Double-exponential rule on (0, 1) for endpoint-singular integrands.

    The integrand is called as f(level) and reads the nodes the level adds
    from ``_tanh_sinh_nodes(level)``: read-only rows v and 1 - v, each node's
    distance to 1 exact, so algebraic endpoint factors form without
    catastrophic cancellation.  Neither row holds 0.  It returns an array of
    values and an array (or a scalar) of bounds on the error of each value
    (0.0 for a value exact up to rounding).

    Level L has step 2^-L and floor(6.2 * 2^L) nodes on each side, for L up
    to 9; its even-indexed nodes are exactly the nodes of level L - 1, so
    each level adds only its odd-indexed nodes to the running sums, and f is
    called once per level, in order.  ``nodes`` counts the integrand
    evaluations over all levels.  ``error_estimate`` is the difference of the
    last two levels, plus the integrand's bounds integrated by the same rule,
    plus the rounding of the sum.  The rule stops once that difference is
    within tol * (1 + |value|) or the level's bounds and rounding, as
    ``_refine`` says.  A NaN or negative tol raises ValueError.
    """
    _check_tol(tol)

    def levels():
        sums, nodes = np.zeros(3), 0  # running sums of the terms, bounds and |terms|
        for level in range(_TS_LEVELS + 1):
            dvdt = _tanh_sinh_nodes(level)[2]
            values, bounds = f(level)
            # all three running sums in node order, as one term at a time
            block = np.empty((len(dvdt) + 1, 3))
            block[0] = sums
            terms = block[1:, 0] = values * dvdt
            block[1:, 1] = bounds * dvdt
            block[1:, 2] = np.abs(terms)
            sums = np.add.accumulate(block)[-1]
            nodes += len(dvdt)
            h = 1.0 / 2**level
            total, bound, mass = sums.tolist()
            # the sum of `nodes` terms rounds at most once per term
            yield total * h, bound * h + (nodes + 2) * _EPS * mass * h, len(dvdt)

    return _refine(levels(), tol, "tanh-sinh", first=3)


def singular_integral(
    alpha: float,
    beta: float,
    smooth: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
) -> QuadResult:
    """int_0^1 v^alpha (1-v)^beta smooth(v) dv by tanh-sinh.

    ``smooth`` must accept a read-only numpy array of nodes in (0, 1) and
    counts as exact; an endpoint power left in it, such as (1 - v)^0.5, is
    integrated too.  Exponents must exceed -1.  The weight is
    exp(alpha log v + beta log s) at a level's nodes v, s = 1 - v; the error
    term carries its rounding, and the estimate the mass beyond the
    outermost nodes.  An exponent near -1 overflows the weight at those
    nodes, 1e-300 from an end, and raises ToleranceError: below -0.965 at
    tol 1e-12.  A NaN or infinite exponent raises RegionError, and a NaN or
    negative tol ValueError, before ``smooth`` is called.
    """
    if not (alpha > -1.0 and beta > -1.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise RegionError(f"endpoint exponents must be finite and exceed -1, got ({alpha}, {beta})")

    outermost = [(1.0, 0.0)] * 2  # per end: the nearest node's distance and |value|

    def integrand(level: int) -> tuple[np.ndarray, np.ndarray]:
        v, s, _ = _tanh_sinh_nodes(level)
        a_log, b_log = alpha * np.log(v), beta * np.log(s)
        with np.errstate(over="ignore"):
            weight = np.exp(a_log + b_log)
        if not np.isfinite(weight).all():
            raise ToleranceError(f"v^{alpha} (1-v)^{beta} overflows at the outermost tanh-sinh nodes")
        values = weight * np.asarray(smooth(v), dtype=float)
        for end, dist in enumerate((v, s)):
            i = np.argmin(dist)
            outermost[end] = min(outermost[end], (float(dist[i]), abs(float(values[i]))))
        # three roundings in the exponent per unit of each of its terms (two
        # logs, products, sum), one of each node per unit of its exponent,
        # exp's and the product's
        rounding = 3.0 * (np.abs(a_log) + np.abs(b_log)) + abs(alpha) + abs(beta) + 3.0
        return values, rounding * _EPS * np.abs(values)

    result = tanh_sinh(integrand, tol)
    # the mass beyond the outermost nodes, where the weight's power of the
    # distance d to the end dominates: |value| d / (1 + exponent)
    edges = sum(dist * size / (1.0 + power) for (dist, size), power in zip(outermost, (alpha, beta)))
    return QuadResult(result.value, result.error_estimate + edges, result.nodes)


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
    variable x of 1 - v = (1 - x)^2 (1 + x) (see ``_h_build``); mode "direct"
    integrates the raw matrix form over the slope u = tan(theta) with a
    double-exponential rule and exists as an independent cross-check of the
    factored route.
    Both carry the tail bounds of their series values into the error estimate,
    and stop once two levels agree within the tolerance or that error term
    (see ``QuadResult``); mode "h" raises ToleranceError after its 384-node
    level, an O(n^3) solve.  Both modes compute near k0 = 0 too, where
    c - a - b of their series is nearly an integer.
    A NaN or negative tol raises ValueError before any rule is built.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if kind not in ("p12", "p14"):
        raise ValueError(f"kind must be 'p12' or 'p14', got {kind!r}")
    if not p.positive_definite:
        raise RegionError(f"sector pairing needs the positive-definite region; got {p}")
    _check_tol(tol)
    if mode == "h":
        return _sector_inner_h(n, kind, p, tol)
    if mode == "direct":
        return _sector_inner_direct(n, kind, p, tol)
    raise ValueError(f"mode must be 'h' or 'direct', got {mode!r}")


# Points kept at once, each with every rule its pairings reached: four
# families (two kinds times two slots) of at most five doubling levels each
# (24 to 384 nodes).  On the graded rule, for n <= 20 over the step-1/20
# grid, no family goes past 96 nodes at tol 1e-9 or past 384 at tol 1e-11.
_H_POINT_CACHE = 4

# the families (i, j) of h_i h_j: p12's slots 1 and 2, then p14's
_H_FAMILIES = ((1, 1), (2, 2), (1, 3), (2, 4))

# the relative rounding, in units of eps, of the weights' graded factor
# (1 + 3x)(1 + x)^b0 (1 + x(1 - x))^a for |a|, |b0| <= 1: two roundings in
# 1 + 3x, two in (1 + x)^b0, five in the power of 1 + x(1 - x), three products
_GRADED_ROUNDING = 12.0


def _h_exponents(k0: float, k1: float, i: int, j: int) -> tuple[float, float]:
    """The exponents (a, b0) of mode "h"'s weight v^a (1-v)^b0 for h_i h_j."""
    a = k1 + 0.5 if i == 1 else -k1 - 0.5
    return a, (-2.0 * k0 if j == i else 0.0)


@functools.lru_cache(maxsize=_H_POINT_CACHE)
def _h_point(k0: float, k1: float) -> dict:
    """The memo of mode "h" rules at one point, keyed (i, j, size).

    It starts with the 24- and 48-node rules of all four families, which
    every pairing needs (``_refine`` stops no earlier than its second level),
    built together by one ``_h_build``; ``_h_rule`` adds each later level
    when a family first reaches it.
    """
    return _h_build(k0, k1, [(i, j, size) for size in _GJ_SIZES[:2] for i, j in _H_FAMILIES])


def _h_rule(k0: float, k1: float, i: int, j: int, size: int) -> tuple[np.ndarray, ...]:
    """The ``size``-node rule of family (i, j) at (k0, k1), from the point's
    memo, built there on first use (see ``_h_build``)."""
    rules = _h_point(k0, k1)
    if (i, j, size) not in rules:
        rules.update(_h_build(k0, k1, [(i, j, size)]))
    return rules[i, j, size]


def _h_build(k0: float, k1: float, keys: list[tuple[int, int, int]]) -> dict:
    """The rules (i, j, size) of ``keys``: the ``size``-node rule for
    v^a (1-v)^b0 with h_i h_j at its nodes.

    The exponents a and b0 are ``_h_exponents``.  The rule is built in the
    graded variable x of v = x (1 + x(1 - x)), 1 - v = (1 - x)^2 (1 + x): with
    dv = (1 - x)(1 + 3x) dx the weight becomes x^a (1-x)^(2 b0 + 1), carried by
    Gauss-Jacobi, times (1 + 3x)(1 + x)^b0 (1 + x(1 - x))^a, folded into the
    weights.  The map doubles every non-integer power of 1 - v that h_i h_j
    carries at v = 1 and keeps v ~ x near 0.  The rules of one size take one
    stacked eigen-solve, and every h_k is summed to ``_SERIES_TOL`` in one
    series call at the nodes of the rules whose family carries it.  Each
    rule maps to read-only v, s = 1 - v (from the map, without cancellation),
    the weights, the two factors of ``_h_integral``'s explicit factor that do
    not depend on e, s / (1 + v) and (1 + v)^2, the product h_i h_j, its
    absolute value and, last, a bound on its error from the certified tail
    bounds of the two series.
    """
    nodes = {}  # (i, j, size) -> v, s, w
    for size in dict.fromkeys(size for *_, size in keys):
        group = [key for key in keys if key[2] == size]
        exponents = [_h_exponents(k0, k1, i, j) for i, j, _ in group]
        xs, weights = _gauss_jacobi_01(size, [(a, 2.0 * b0 + 1.0) for a, b0 in exponents])
        for key, (a, b0), x, weight in zip(group, exponents, xs, weights):
            t = 1.0 - x  # exact for x >= 1/2
            g = 1.0 + x * t
            # one family at a time: with scalar exponents numpy takes the
            # bits of its fast paths (sqrt at 0.5), as a single rule does
            nodes[key] = x * g, t * t * (1.0 + x), weight * (1.0 + 3.0 * x) * (1.0 + x) ** b0 * g**a
    # each h_k at the nodes of every rule whose family carries it, in one call
    carriers = {k: [key for key in nodes if k in key[:2]] for k in _H_PARAMS}
    used = [k for k in _H_PARAMS if carriers[k]]
    zs, ws = (
        [np.concatenate([nodes[key][part] for key in carriers[k]]) for k in used] for part in (0, 1)
    )
    series = _gauss_2f1_rows([_H_PARAMS[k](k0, k1) for k in used], zs, ws, _SERIES_TOL)
    h = {}  # (key, k) -> h_k at the nodes of rule key, and its bound
    for k, (value, bound, _) in zip(used, series):
        ends = np.cumsum([size for *_, size in carriers[k]])[:-1]
        for key, hk, tk in zip(carriers[k], np.split(value, ends), np.split(bound, ends)):
            h[key, k] = hk, tk
    rules = {}
    for key, (v, s, w) in nodes.items():
        (vi, ti), (vj, tj) = h[key, key[0]], h[key, key[1]]
        one_plus, hprod = 1.0 + v, vi * vj
        rules[key] = (
            v, s, w, s / one_plus, one_plus**2,
            hprod, np.abs(hprod), np.abs(vi) * tj + np.abs(vj) * ti + ti * tj,
        )
        for array in rules[key]:
            array.flags.writeable = False
    return rules


def _h_integral(k0: float, k1: float, i: int, j: int, e: int, tol: float) -> QuadResult:
    """int_0^1 v^a (1-v)^b0 (1-v)^e (1+v)^(-e-2) h_i h_j dv on a shared rule.

    The weight v^a (1-v)^b0 is ``_h_rule``'s.  Only the explicit factor
    depends on e, so every n at one point reuses the weights, the factors
    s / (1 + v) and (1 + v)^2 and the h-values of the family (i, j) from the
    point's memo, and a level forms only the explicit factor and three sums.
    The error estimate adds to the refinement difference the h error carried
    through the rule and the rounding of the weights (their first moment and
    graded factor) and of forming and summing the terms.
    """
    a, b0 = _h_exponents(k0, k1, i, j)
    b = 2.0 * b0 + 1.0  # the rule's exponent of 1 - x
    # the rounding of the rule's first moment: of its lgamma sum, and of exp
    moment = abs(math.lgamma(a + 1.0)) + abs(math.lgamma(b + 1.0)) + abs(math.lgamma(a + b + 2.0)) + 4.0
    per_term = 9 * e + 8 + _GRADED_ROUNDING + moment

    def levels():
        for size in _GJ_SIZES:
            rule = _h_rule(k0, k1, i, j, size)
            _, _, w, ratio, square, hprod, hprod_abs, hprod_bound = rule
            explicit = ratio**e / square
            weighted = w * explicit
            propagated = float(np.dot(weighted, hprod_bound))
            # one rounding per summed term and ``per_term`` in forming each: s
            # rounds up to five times and 1 + v three times, so the ratio up to
            # nine, which the e-th power multiplies, a few products more, and
            # the rounding of the weights
            rounding = (size + per_term) * _EPS * float(np.dot(weighted, hprod_abs))
            yield float(np.dot(w, explicit * hprod)), propagated + rounding, size

    return _refine(levels(), tol, "Gauss-Jacobi")


def _sector_inner_h(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    k0, k1 = p.k0, p.k1
    d1, d2 = d_consts(p)
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
    i1, i2 = (_h_integral(k0, k1, i, j, e, sub_tol) for i, j in pairs)
    part1, part2 = coeff1 * i1.value, coeff2 * i2.value
    # d1 and d2 each carry four gamma values; the coefficients and the sum a
    # few roundings more
    rounding = (4.0 * _GAMMA_RELERR + 16.0 * _EPS) * (abs(part1) + abs(part2))
    err = abs(coeff1) * i1.error_estimate + abs(coeff2) * i2.error_estimate + rounding
    return QuadResult(part1 + part2, err, i1.nodes + i2.nodes)


# Levels kept at once.  A point has ten, of 12 to 3154 nodes and 6309 in all;
# with the parts of both kinds a node takes 64 bytes, so a point's levels
# take 0.40 MB, and the memo holds all of two points.
_DIRECT_RULE_CACHE = 2 * (_TS_LEVELS + 1)


@functools.lru_cache(maxsize=_DIRECT_RULE_CACHE)
def _direct_rule(k0: float, k1: float, level: int) -> tuple[np.ndarray, ...]:
    """The parts of mode "direct"'s integrand that do not depend on n, on
    the nodes of the tanh-sinh level ``level`` that ``tanh_sinh`` hands it.

    In theta the form is sum_r d_r y_r z_r / q with y = L (-u, +-1) (+ for
    p12, - for p14) and z = L (-u, 1), one row r per entry of d, over the
    slopes u with q = 1 + u^2 and d theta = du / q; w = 1 - u^2 is formed as
    s (2 - s) from s = 1 - u, without cancellation.  Returns the smallest u
    and s of the level, w / q and q^2, and for p12 and then p14 three sums
    over r: of d_r y_r z_r, of |d_r| dev_r (|y_r| + |z_r| + dev_r) and of
    |d_r| |y_r z_r|, where dev bounds the error of y and of z: L's bounds, and
    three roundings of each product and of the sum.  All arrays are read-only.
    """
    u, s, _ = _tanh_sinh_nodes(level)
    w, q = s * (2.0 - s), 1.0 + u * u
    p = ParamPoint(k0, k1)
    (l0, l1), (e0, e1) = (part.swapaxes(0, 1) for part in _eval_L_bounded(u, w, p))
    d = np.array(d_consts(p))[:, None]
    d_abs = np.abs(d)
    arrays = [np.array([u.min(), s.min()]), w / q, q * q]
    with np.errstate(over="ignore", invalid="ignore"):
        ul0 = u * l0
        z = l1 - ul0
        dev = (e0 + 3.0 * _EPS * np.abs(l0)) * u + e1 + 3.0 * _EPS * np.abs(l1)
        for y in (z, -l1 - ul0):  # p12's y is z
            spread = d_abs * (dev * (np.abs(y) + np.abs(z) + dev))
            arrays += [(d * y * z).sum(axis=0), spread.sum(axis=0), (d_abs * np.abs(y * z)).sum(axis=0)]
    for array in arrays:
        array.flags.writeable = False
    return tuple(arrays)


def _sector_inner_direct(n: int, kind: str, p: ParamPoint, tol: float) -> QuadResult:
    d1, d2 = d_consts(p)
    phi_power = 2 * n if kind == "p12" else 2 * n + 1
    own = slice(0, 3) if kind == "p12" else slice(3, 6)
    # d1 and d2 each carry four gamma values; w / q rounds five times, its
    # power p times that and once more, and dividing by q^2 and the final
    # products a few times more
    rho = 4.0 * _GAMMA_RELERR + (5 * phi_power + 12) * _EPS
    outermost = [1.0, 1.0]  # the smallest u and s summed

    def integrand(level: int) -> tuple[np.ndarray, np.ndarray]:
        # the memo holds all but the power of w / q
        edges, ratio, square, *kinds = _direct_rule(p.k0, p.k1, level)
        total, spread, cross = kinds[own]
        u_min, s_min = edges.tolist()
        outermost[:] = min(outermost[0], u_min), min(outermost[1], s_min)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = ratio**phi_power / square
            value = scale * total
            bound = scale * (spread + rho * cross)
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
    # 2^p s_c^(p + 1 - 2|k0|) as (2 s_c)^p s_c^(1 - 2|k0|): 2 s_c < 1, so
    # neither power overflows at any p
    near_one = (2.0 * s_c) ** phi_power * s_c ** (1.0 - 2.0 * k0)
    gammas = abs(d1) * (1.0 + g_plus) ** 2 + abs(d2) * (1.0 + g_minus) ** 2
    return row1 + row2 + gammas * near_one / (power + 1.0)

