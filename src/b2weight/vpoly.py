"""Vector-valued polynomials on R^2 and the dihedral differential calculus.

The symmetry group is the 8-element symmetry group of the square, acting on
points by signed coordinate permutations x -> x.M and on the value space
spanned by t1, t2 by the matching signed permutation:

    (w f)(x) = f(x.M) . M^{-1}

A scalar polynomial (``XPoly``) is stored sparsely as {(a, b): ParamPoly},
meaning the sum of c * x1^a x2^b, and a vector polynomial is the pair of its
components,

    VPoly (f1, f2)   meaning   f1(x) t1 + f2(x) t2,   f1, f2 XPoly,

so all of its arithmetic is XPoly arithmetic.  All coefficients live in
Q[k0, k1], so the operator identities in this module are checked as exact
polynomial statements, never numerically.

The modified first-order operators act as a plain derivative plus, for each
of the four positive roots v (the two coordinate directions with weight k1,
the two diagonals with weight k0), the exact divided difference of the scalar
part along v with the root's reflection applied to the slot index.  Divided
differences are exact polynomial divisions; a nonzero remainder raises, since
it can only mean an implementation bug.

The modified Laplacian, the sum of the squares of the two first-order
operators, is applied through its closed second-order form instead: it is
linear with coefficients affine in (k0, k1), so the image of each basis
monomial x1^a x2^b t_s is a short list of integer entries, computed once on
first use and cached.  ``laplacian`` sums those images in integers and builds
each output coefficient once.  ``dunkl_d``, ``divide_by_linear`` and the
hand-written right-hand side of ``product_rule_residual`` stay as independent
references for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import InexactDivisionError, InvarianceError, NotProportionalError
from .ring import K0, K1, ParamPoly, shifted_sum

XKey = tuple[int, int]
VKey = tuple[int, int, int]
Coeff = Union[ParamPoly, Fraction, int]


def _clean(terms: dict, key, delta) -> None:
    new = terms.get(key, ParamPoly.zero()) + delta
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """A signed coordinate permutation; ``matrix`` is row-major 2x2."""

    name: str
    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        m, n = self.matrix, other.matrix
        prod = tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        return GroupElement(f"{self.name}*{other.name}", prod)  # type: ignore[arg-type]

    def column(self, j: int) -> tuple[int, int]:
        """(row, sign) of the single nonzero entry in column j (0-based)."""
        for i in range(2):
            if self.matrix[i][j]:
                return i, self.matrix[i][j]
        raise ValueError("degenerate group matrix")

    def point_image(self, a: int, b: int) -> tuple[XKey, int]:
        """Monomial and sign of (x.M)_1^a (x.M)_2^b."""
        row1, sgn1 = self.column(0)
        row2, sgn2 = self.column(1)
        exps = [0, 0]
        exps[row1] += a
        exps[row2] += b
        sign = (sgn1 ** (a % 2)) * (sgn2 ** (b % 2))
        return (exps[0], exps[1]), sign

    def t_image(self, s: int) -> tuple[int, int]:
        """(sign, slot) of t_s . M^{-1} for s in {1, 2}."""
        row, sgn = self.column(s - 1)
        return sgn, row + 1


IDENTITY = GroupElement("e", ((1, 0), (0, 1)))
SIGMA_1 = GroupElement("s1", ((-1, 0), (0, 1)))
SIGMA_2 = GroupElement("s2", ((1, 0), (0, -1)))
SIGMA_D_PLUS = GroupElement("sd+", ((0, 1), (1, 0)))
SIGMA_D_MINUS = GroupElement("sd-", ((0, -1), (-1, 0)))
_R90 = GroupElement("r90", ((0, 1), (-1, 0)))
_R180 = GroupElement("r180", ((-1, 0), (0, -1)))
_R270 = GroupElement("r270", ((0, -1), (1, 0)))

ALL_ELEMENTS: tuple[GroupElement, ...] = (
    IDENTITY,
    SIGMA_1,
    SIGMA_2,
    SIGMA_D_PLUS,
    SIGMA_D_MINUS,
    _R90,
    _R180,
    _R270,
)

REFLECTIONS: tuple[GroupElement, ...] = (
    SIGMA_1,
    SIGMA_2,
    SIGMA_D_PLUS,
    SIGMA_D_MINUS,
)

# positive roots: (root vector, reflection, weight symbol)
_ROOT_DATA = (
    ((1, 0), SIGMA_1, K1),
    ((0, 1), SIGMA_2, K1),
    ((1, -1), SIGMA_D_PLUS, K0),
    ((1, 1), SIGMA_D_MINUS, K0),
)


# ---------------------------------------------------------------------------
# scalar polynomials in x1, x2
# ---------------------------------------------------------------------------


class XPoly:
    """Scalar polynomial in x1, x2 with ParamPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[XKey, Coeff] | None = None):
        clean: dict[XKey, ParamPoly] = {}
        if terms:
            for key, coeff in terms.items():
                poly = ParamPoly.coerce(coeff)
                if not poly.is_zero():
                    clean[key] = poly
        self._terms = clean

    @property
    def terms(self) -> dict[XKey, ParamPoly]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterable[tuple[XKey, ParamPoly]]:
        return iter(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            _clean(out, key, coeff)
        result = XPoly.__new__(XPoly)
        result._terms = out
        return result

    def __neg__(self) -> "XPoly":
        result = XPoly.__new__(XPoly)
        result._terms = {k: -c for k, c in self._terms.items()}
        return result

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __mul__(self, other: "XPoly | Coeff") -> "XPoly":
        if not isinstance(other, XPoly):
            scalar = ParamPoly.coerce(other)
            result = XPoly.__new__(XPoly)
            result._terms = (
                {}
                if scalar.is_zero()
                else {k: c * scalar for k, c in self._terms.items()}
            )
            return result
        out: dict[XKey, ParamPoly] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                _clean(out, (a1 + a2, b1 + b2), c1 * c2)
        result = XPoly.__new__(XPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "XPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = XPoly({(0, 0): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self, i: int) -> "XPoly":
        out: dict[XKey, ParamPoly] = {}
        for (a, b), coeff in self._terms.items():
            if i == 1 and a:
                _clean(out, (a - 1, b), coeff * a)
            elif i == 2 and b:
                _clean(out, (a, b - 1), coeff * b)
        result = XPoly.__new__(XPoly)
        result._terms = out
        return result

    def laplace(self) -> "XPoly":
        """Classical Laplacian (second derivatives only)."""
        return self.derivative(1).derivative(1) + self.derivative(2).derivative(2)

    def compose(self, w: GroupElement) -> "XPoly":
        """p(x.M) as a polynomial in x."""
        out: dict[XKey, ParamPoly] = {}
        for (a, b), coeff in self._terms.items():
            key, sign = w.point_image(a, b)
            _clean(out, key, coeff if sign > 0 else -coeff)
        result = XPoly.__new__(XPoly)
        result._terms = out
        return result

    def is_w_invariant(self) -> bool:
        return all(self.compose(w) == self for w in ALL_ELEMENTS)

    def __repr__(self) -> str:
        if not self._terms:
            return "XPoly(0)"
        bits = [f"({coeff})*x1^{a}*x2^{b}" for (a, b), coeff in sorted(self._terms.items())]
        return "XPoly(" + " + ".join(bits) + ")"


def divide_by_linear(p: XPoly, root: tuple[int, int]) -> XPoly:
    """Exact division of p by v1*x1 + v2*x2 for the four root directions.

    Raises InexactDivisionError when the remainder is nonzero.
    """
    v1, v2 = root
    if (v1, v2) == (1, 0) or (v1, v2) == (0, 1):
        pos = 0 if v1 else 1
        out: dict[XKey, ParamPoly] = {}
        for (a, b), coeff in p:
            e = (a, b)[pos]
            if e == 0:
                raise InexactDivisionError(f"{p!r} is not divisible by x{pos + 1}")
            out[(a - 1, b) if pos == 0 else (a, b - 1)] = coeff
        result = XPoly.__new__(XPoly)
        result._terms = out
        return result
    if v1 != 1 or v2 not in (1, -1):
        raise ValueError(f"unsupported linear form {root}")
    # synthetic division by x1 + v2*x2, i.e. substitute x1 -> -v2*x2
    by_a: dict[int, dict[int, ParamPoly]] = {}
    for (a, b), coeff in p:
        by_a.setdefault(a, {})[b] = coeff
    if not by_a:
        return XPoly()
    quotient: dict[XKey, ParamPoly] = {}
    carry: dict[int, ParamPoly] = {}
    for a in range(max(by_a), 0, -1):
        level = dict(by_a.get(a, {}))
        for b, coeff in carry.items():
            _clean(level, b, coeff)
        for b, coeff in level.items():
            quotient[(a - 1, b)] = coeff
        # subtract (x1 + v2*x2) * level from the remainder: the x1-part
        # cancels, the x2-part propagates one x1-degree down
        carry = {b + 1: -v2 * coeff for b, coeff in level.items()}
    remainder = dict(by_a.get(0, {}))
    for b, coeff in carry.items():
        _clean(remainder, b, coeff)
    if remainder:
        raise InexactDivisionError(
            f"division by x1 {'+' if v2 > 0 else '-'} x2 left remainder {remainder}"
        )
    result = XPoly.__new__(XPoly)
    result._terms = {k: c for k, c in quotient.items() if not c.is_zero()}
    return result


# ---------------------------------------------------------------------------
# vector-valued polynomials
# ---------------------------------------------------------------------------


class VPoly:
    """Polynomial map R^2 -> span(t1, t2), the pair (f1, f2) of f1 t1 + f2 t2.

    All arithmetic is component-wise ``XPoly`` arithmetic; the ``(a, b, s)``
    keys of ``x1^a x2^b t_s`` appear only in the constructor, ``terms`` and
    ``repr``.
    """

    __slots__ = ("f1", "f2")

    def __init__(self, terms: Mapping[VKey, Coeff] | None = None):
        parts: tuple[dict, dict] = ({}, {})
        for (a, b, s), coeff in (terms or {}).items():
            if s not in (1, 2):
                raise ValueError(f"slot index must be 1 or 2, got {s}")
            parts[s - 1][(a, b)] = coeff
        self.f1, self.f2 = XPoly(parts[0]), XPoly(parts[1])

    @classmethod
    def from_components(cls, f1: XPoly, f2: XPoly) -> "VPoly":
        result = cls.__new__(cls)
        result.f1, result.f2 = f1, f2
        return result

    def _map(self, fn) -> "VPoly":
        return VPoly.from_components(fn(self.f1), fn(self.f2))

    @property
    def terms(self) -> dict[VKey, ParamPoly]:
        return {(a, b, s): c for s in (1, 2) for (a, b), c in self.component(s)}

    def component(self, s: int) -> XPoly:
        return (self.f1, self.f2)[s - 1]

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VPoly):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __add__(self, other: "VPoly") -> "VPoly":
        return VPoly.from_components(self.f1 + other.f1, self.f2 + other.f2)

    def __neg__(self) -> "VPoly":
        return self._map(XPoly.__neg__)

    def __sub__(self, other: "VPoly") -> "VPoly":
        return VPoly.from_components(self.f1 - other.f1, self.f2 - other.f2)

    def __mul__(self, other: Coeff) -> "VPoly":
        scalar = ParamPoly.coerce(other)
        return self._map(lambda f: f * scalar)

    __rmul__ = __mul__

    def scale_x(self, p: XPoly) -> "VPoly":
        """Multiply by a scalar polynomial in x."""
        return self._map(p.__mul__)

    def derivative(self, i: int) -> "VPoly":
        return self._map(lambda f: f.derivative(i))

    def t_substitute(self, images: Mapping[int, tuple[int, int]]) -> "VPoly":
        """Replace each slot t_s by sign * t_slot per ``images[s] = (sign, slot)``."""
        parts = [XPoly(), XPoly()]
        for s in (1, 2):
            sign, slot = images[s]
            f = self.component(s)
            parts[slot - 1] = parts[slot - 1] + (f if sign > 0 else -f)
        return VPoly.from_components(*parts)

    def homogeneous_degree(self) -> int | None:
        """Common total x-degree, None for the zero polynomial.

        Raises ValueError when terms of different degrees are mixed.
        """
        degrees = {a + b for f in (self.f1, self.f2) for (a, b), _c in f}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"mixed homogeneous degrees {sorted(degrees)}")
        return degrees.pop()

    def __repr__(self) -> str:
        if self.is_zero():
            return "VPoly(0)"
        bits = [
            f"({coeff})*x1^{a}*x2^{b}*t{s}"
            for (a, b, s), coeff in sorted(self.terms.items())
        ]
        return "VPoly(" + " + ".join(bits) + ")"


# frequently used building blocks
X1 = XPoly({(1, 0): 1})
X2 = XPoly({(0, 1): 1})
PHI = XPoly({(2, 0): 1, (0, 2): -1})
RADIUS_SQ = XPoly({(2, 0): 1, (0, 2): 1})
P12 = VPoly({(0, 1, 1): -1, (1, 0, 2): 1})
P14 = VPoly({(0, 1, 1): -1, (1, 0, 2): -1})


def group_act(w: GroupElement, f: VPoly) -> VPoly:
    """(w f)(x) = f(x.M) . M^{-1}."""
    return f.t_substitute({s: w.t_image(s) for s in (1, 2)})._map(lambda p: p.compose(w))


def dunkl_d(i: int, f: VPoly) -> VPoly:
    """First-order modified derivative in direction i (1 or 2)."""
    if i not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {i}")
    d = f.derivative(i)
    parts = [d.f1, d.f2]
    for root, refl, weight in _ROOT_DATA:
        v_i = root[i - 1]
        if v_i == 0:
            continue
        for s in (1, 2):
            part = f.component(s)
            numerator = part - part.compose(refl)
            if numerator.is_zero():
                continue
            sign, slot = refl.t_image(s)
            quotient = divide_by_linear(numerator, root)
            parts[slot - 1] = parts[slot - 1] + quotient * (weight * (v_i * sign))
    return VPoly.from_components(*parts)


def _divide_homogeneous(p: list[int], root: tuple[int, int]) -> list[int]:
    """Exact quotient of a homogeneous integer polynomial by <x, root>.

    ``p[a]`` is the coefficient of x1^a x2^(d-a); the quotient is returned in
    the same form.  Raises InexactDivisionError on a nonzero remainder.
    """
    v1, v2 = root
    d = len(p) - 1
    if v1 == 0:
        # <x, root> = v2 x2: drop the x2-free top coefficient
        q, remainder = [c // v2 for c in p[:d]], p[d]
    else:
        # p_a = q_(a-1) + v2 q_a, solved from the top down
        q = [0] * d
        carry = 0
        for a in range(d, 0, -1):
            q[a - 1] = carry = p[a] - v2 * carry
        remainder = p[0] - v2 * carry
    if remainder:
        raise InexactDivisionError(f"{p} is not divisible by the root form {root}")
    return q


@functools.cache
def _monomial_image(a: int, b: int, s: int) -> tuple[tuple[VKey, XKey, int], ...]:
    """Laplacian of x1^a x2^b t_s as integer entries (target key, weight, k).

    Each entry ((a', b', s'), (e0, e1), k) stands for k k0^e0 k1^e1 x1^a' x2^b'
    t_s'.  The closed second-order form gives them directly:

        L f = sum_s (lap f_s) t_s + sum_v kappa_v sum_s tau(sigma_v) t_s
              [2 <grad f_s, v> <x, v> - |v|^2 (f_s - f_s o sigma_v)] / <x, v>^2

    over the positive roots v with weights kappa_v, reflections sigma_v and
    slot maps tau(sigma_v).  Filled on first use and kept: up to degree d
    the cache holds at most (d + 1)(d + 2) immutable entries.
    """
    d = a + b
    if d < 2:
        return ()
    out: dict[tuple[VKey, XKey], int] = {}
    if a > 1:
        out[((a - 2, b, s), (0, 0))] = a * (a - 1)
    if b > 1:
        out[((a, b - 2, s), (0, 0))] = b * (b - 1)
    for root, refl, weight in _ROOT_DATA:
        (kappa,) = weight.terms  # the one monomial k0 or k1
        v1, v2 = root
        norm_sq = v1 * v1 + v2 * v2
        # the numerator, homogeneous of degree d, indexed by its x1-exponent
        num = [0] * (d + 1)
        num[a] += 2 * (v1 * v1 * a + v2 * v2 * b) - norm_sq
        if a:
            num[a - 1] += 2 * v1 * v2 * a
        if b:
            num[a + 1] += 2 * v1 * v2 * b
        (a_img, _b_img), sign = refl.point_image(a, b)
        num[a_img] += norm_sq * sign
        quotient = _divide_homogeneous(_divide_homogeneous(num, root), root)
        t_sign, slot = refl.t_image(s)
        for a_out, k in enumerate(quotient):
            if k:
                key = ((a_out, d - 2 - a_out, slot), kappa)
                out[key] = out.get(key, 0) + t_sign * k
    return tuple((key, kappa, k) for (key, kappa), k in out.items() if k)


def laplacian(f: VPoly) -> VPoly:
    """Sum of the squares of the two modified derivatives.

    Applied as a sparse linear map: every term c x1^a x2^b t_s of f adds
    k c k0^e0 k1^e1 to the coefficient of each entry of its cached image,
    and each output coefficient is summed once in integers.
    """
    parts: dict[VKey, list] = {}
    for s in (1, 2):
        for (a, b), coeff in f.component(s):
            for key, kappa, k in _monomial_image(a, b, s):
                parts.setdefault(key, []).append((k, kappa, coeff))
    components: tuple[dict, dict] = ({}, {})
    for (a, b, s), terms in parts.items():
        components[s - 1][(a, b)] = shifted_sum(terms)
    return VPoly.from_components(XPoly(components[0]), XPoly(components[1]))


def laplacian_power(f: VPoly, m: int) -> VPoly:
    if m < 0:
        raise ValueError("power must be non-negative")
    for _ in range(m):
        if f.is_zero():
            break
        f = laplacian(f)
    return f


def product_rule_residual(f: XPoly, g: VPoly) -> VPoly:
    """Difference of the two sides of the invariant-factor product rule.

    For group-invariant scalar f the modified Laplacian satisfies

        L(f g) - f L(g) = g * (lap f) + 2 <grad f, grad g>
            + 2 k1 [ g(x,-t1,t2) d1f/x1 + g(x,t1,-t2) d2f/x2 ]
            + 2 k0 [ g(x,t2,t1) (d1f-d2f)/(x1-x2)
                     + g(x,-t2,-t1) (d1f+d2f)/(x1+x2) ]

    so the returned polynomial must be identically zero.  Raises
    InvarianceError when f is not group-invariant.
    """
    if not f.is_w_invariant():
        raise InvarianceError("scalar factor is not invariant under the group")
    lhs = laplacian(g.scale_x(f)) - laplacian(g).scale_x(f)

    d1f = f.derivative(1)
    d2f = f.derivative(2)
    rhs = g.scale_x(f.laplace())
    rhs = rhs + (g.derivative(1).scale_x(d1f) + g.derivative(2).scale_x(d2f)) * 2
    rhs = rhs + (
        g.t_substitute({1: (-1, 1), 2: (1, 2)}).scale_x(divide_by_linear(d1f, (1, 0)))
        + g.t_substitute({1: (1, 1), 2: (-1, 2)}).scale_x(divide_by_linear(d2f, (0, 1)))
    ) * (2 * K1)
    rhs = rhs + (
        g.t_substitute({1: (1, 2), 2: (1, 1)}).scale_x(
            divide_by_linear(d1f - d2f, (1, -1))
        )
        + g.t_substitute({1: (-1, 2), 2: (-1, 1)}).scale_x(
            divide_by_linear(d1f + d2f, (1, 1))
        )
    ) * (2 * K0)
    return lhs - rhs


def _extract_multiple_of_p12(f: VPoly) -> ParamPoly:
    """The scalar c with f = c * p_{1,2}, or raise NotProportionalError."""
    c = f.f2.terms.get((1, 0), ParamPoly.zero())
    if f != P12 * c:
        raise NotProportionalError(f"{f!r} is not a multiple of the degree-1 carrier")
    return c


def alpha_beta_via_laplacian(n: int) -> tuple[ParamPoly, ParamPoly]:
    """Scaled sequence values from iterated Laplacians, exact in Q[k0, k1].

    Applies the modified Laplacian 2n times to phi^(2n) p_{1,2} and 2n+1
    times to phi^(2n+1) p_{1,4}; both collapse to multiples of p_{1,2} whose
    scalars are returned.  Each step applies the closed second-order form of
    the Laplacian through the cached integer images of the basis monomials
    (see ``laplacian``), so the images of one degree are built once and
    shared by every n and both kinds.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    even = laplacian_power(P12.scale_x(PHI ** (2 * n)), 2 * n)
    alpha_scaled = _extract_multiple_of_p12(even)
    odd = laplacian_power(P14.scale_x(PHI ** (2 * n + 1)), 2 * n + 1)
    beta_scaled = _extract_multiple_of_p12(odd)
    return alpha_scaled, beta_scaled


def alpha_prime_scale(n: int) -> Fraction:
    """2^(4n) (2n)! (2n+1)! relating alpha_n to its operator-route value."""
    return Fraction(2 ** (4 * n) * math.factorial(2 * n) * math.factorial(2 * n + 1))


def beta_prime_scale(n: int) -> Fraction:
    """2^(4n+2) (2n+1)! (2n+2)! relating beta_n to its operator-route value."""
    return Fraction(2 ** (4 * n + 2) * math.factorial(2 * n + 1) * math.factorial(2 * n + 2))


def inner_product_S_exact(n: int, kind: str) -> ParamPoly:
    """Exact sphere-pairing value as an element of Q[k0, k1], by the operator route.

    kind "p12" returns alpha_n * (1 + 2k1 + 2k0), kind "p14" the beta variant,
    both recomputed from iterated Laplacians (supported n <= 8).  The same
    values at any n come from ``hyper.s_inner_closed``.
    """
    if kind not in ("p12", "p14"):
        raise ValueError(f"kind must be 'p12' or 'p14', got {kind!r}")
    if n > 8:
        raise ValueError("the operator route supports n <= 8; use hyper.s_inner_closed")
    anchor = 1 + 2 * K1 + 2 * K0
    alpha_scaled, beta_scaled = alpha_beta_via_laplacian(n)
    if kind == "p12":
        return (alpha_scaled / alpha_prime_scale(n)) * anchor
    return (beta_scaled / beta_prime_scale(n)) * anchor
