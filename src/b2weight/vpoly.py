"""Vector-valued polynomials on R^2 and the dihedral differential calculus.

The symmetry group is the 8-element symmetry group of the square, acting on
points by signed coordinate permutations x -> x.M and on the value space
spanned by t1, t2 by the matching signed permutation:

    (w f)(x) = f(x.M) . M^{-1}

A scalar polynomial ``XPoly`` (sum of c x1^a x2^b) and a vector polynomial
``VPoly`` (sum of c x1^a x2^b t_s) are stored in ``ring``'s one integer form:
integer rows in k0, k1 per head (a, b) or (a, b, s), over one denominator.
Sums, negation and equality are the kernel's.  Products here combine heads
only (a constant factor counts as a constant XPoly); the kernel multiplies
the rows of each pair.  ``derivative``, ``compose``, ``t_substitute``,
``group_act`` and ``laplacian`` are maps of the heads x1^a x2^b (t_s) with
integer factors, through the kernel's one head map: the Laplacian's entries
also shift by k0 or k1, every other map's by nothing.  All coefficients
live in Q[k0, k1], so the operator identities in this module are checked as
exact polynomial statements, never numerically.

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
first use and cached.  ``laplacian`` is the kernel's head map with those
images, one in-place accumulation of shifted rows over f's denominator.
``dunkl_d``, ``divide_by_linear`` and the hand-written right-hand side of
``product_rule_residual`` stay as independent references for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import InexactDivisionError, InvarianceError, NotProportionalError
from .ring import K0, K1, ParamPoly, SparsePoly, _power

XKey = tuple[int, int]
VKey = tuple[int, int, int]
Coeff = Union[ParamPoly, Fraction, int]

# the operator route is checked for n up to this order (tests, ``verify exact``)
OPERATOR_NMAX = 8
# the (k0, k1) shift of a head map entry that multiplies by an integer only
_NO_SHIFT = (0, 0)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """A signed coordinate permutation; ``matrix`` is row-major 2x2."""

    name: str
    matrix: tuple[tuple[int, int], tuple[int, int]]

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

# positive roots: (root vector, reflection, the (k0, k1) exponents of its
# weight: k1 for the coordinate directions, k0 for the diagonals)
_ROOT_DATA = (
    ((1, 0), SIGMA_1, (0, 1)),
    ((0, 1), SIGMA_2, (0, 1)),
    ((1, -1), SIGMA_D_PLUS, (1, 0)),
    ((1, 1), SIGMA_D_MINUS, (1, 0)),
)


# ---------------------------------------------------------------------------
# scalar polynomials in x1, x2
# ---------------------------------------------------------------------------


def _times_x(xhead: XKey, head: tuple) -> tuple:
    """The head of a term times the XPoly term of head x1^a x2^b."""
    return (head[0] + xhead[0], head[1] + xhead[1]) + head[2:]


class _XForm(SparsePoly):
    """What XPoly and VPoly share: keys (a, b[, s], e0, e1), ParamPoly coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, Coeff] | None = None):
        pairs = ((head, ParamPoly.coerce(coeff)) for head, coeff in (terms or {}).items())
        super().__init__({head + mono: c for head, coeff in pairs for mono, c in coeff})

    @property
    def terms(self) -> dict[tuple, ParamPoly]:
        """{head: ParamPoly coefficient} for the heads present (a fresh dict)."""
        return self._by_head()

    def __mul__(self, other: "XPoly | Coeff"):
        """The product by a scalar polynomial in x or by a constant (as one)."""
        if not isinstance(other, XPoly):
            other = XPoly({(0, 0): other})
        return self.scale_x(other)

    __rmul__ = __mul__

    def scale_x(self, p: "XPoly"):
        """Multiply by a scalar polynomial in x."""
        return p._product(self, _times_x, type(self))

    def derivative(self, i: int):
        def image(head):
            e = head[i - 1]
            return ((head[: i - 1] + (e - 1,) + head[i:], _NO_SHIFT, e),) if e else ()

        return self._rekey(image)

    def __repr__(self) -> str:
        bits = [
            f"({coeff})*x1^{a}*x2^{b}" + "".join(f"*t{s}" for s in slot)
            for (a, b, *slot), coeff in sorted(self.terms.items())
        ]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class XPoly(_XForm):
    """Scalar polynomial in x1, x2 with ParamPoly coefficients."""

    __slots__ = ()

    def __pow__(self, n: int) -> "XPoly":
        return _power(self, n, XPoly({(0, 0): 1}))

    def laplace(self) -> "XPoly":
        """Classical Laplacian (second derivatives only)."""
        return self.derivative(1).derivative(1) + self.derivative(2).derivative(2)

    def compose(self, w: GroupElement) -> "XPoly":
        """p(x.M) as a polynomial in x."""
        def image(head):
            new, sign = w.point_image(*head)
            return ((new, _NO_SHIFT, sign),)

        return self._rekey(image)

    def is_w_invariant(self) -> bool:
        return all(self.compose(w) == self for w in ALL_ELEMENTS)


def divide_by_linear(p: XPoly, root: tuple[int, int]) -> XPoly:
    """Exact division of p by v1*x1 + v2*x2 for the four root directions.

    Written as u + v w, with u the variable of coefficient 1, each monomial
    splits as u^a w^b = (u + v w) sum_(j<a) u^(a-1-j) (-v w)^j w^b
    + (-v)^a w^(a+b): the first part goes to the quotient, the second to the
    remainder p(u = -v w).  Raises InexactDivisionError when the remainder is
    nonzero.
    """
    if root not in ((1, 0), (0, 1), (1, 1), (1, -1)):
        raise ValueError(f"unsupported linear form {root}")
    # u = x1, w = x2 and v = v2, except for the form x2 alone: u = x2, w = x1, v = 0
    swap = root == (0, 1)
    v = 0 if swap else root[1]

    def uw(e1: int, e2: int) -> tuple[int, int]:
        """Exponents of (x1, x2) as exponents of (u, w); its own inverse."""
        return (e2, e1) if swap else (e1, e2)

    def quotient(head):
        eu, ew = uw(*head)
        return [(uw(eu - 1 - j, ew + j), _NO_SHIFT, (-v) ** j) for j in range(eu) if v or not j]

    def remainder(head):
        eu, ew = uw(*head)
        return [(uw(0, eu + ew), _NO_SHIFT, (-v) ** eu)] if v or not eu else []

    if not p._rekey(remainder).is_zero():
        raise InexactDivisionError(f"{p!r} is not divisible by the linear form {root}")
    return p._rekey(quotient)


# ---------------------------------------------------------------------------
# vector-valued polynomials
# ---------------------------------------------------------------------------


class VPoly(_XForm):
    """Polynomial map R^2 -> span(t1, t2): the sum of c x1^a x2^b t_s, keys (a, b, s)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[VKey, Coeff] | None = None):
        for _a, _b, s in terms or {}:
            if s not in (1, 2):
                raise ValueError(f"slot index must be 1 or 2, got {s}")
        super().__init__(terms)

    @classmethod
    def from_components(cls, f1: XPoly, f2: XPoly) -> "VPoly":
        """f1 t1 + f2 t2."""
        return f1._rekey(lambda head: ((head + (1,), _NO_SHIFT, 1),), cls) + f2._rekey(
            lambda head: ((head + (2,), _NO_SHIFT, 1),), cls
        )

    def component(self, s: int) -> XPoly:
        return self._rekey(lambda head: ((head[:2], _NO_SHIFT, 1),) if head[2] == s else (), XPoly)

    def t_substitute(self, images: Mapping[int, tuple[int, int]]) -> "VPoly":
        """Replace each slot t_s by sign * t_slot per ``images[s] = (sign, slot)``."""

        def image(head):
            a, b, s = head
            sign, slot = images[s]
            return (((a, b, slot), _NO_SHIFT, sign),)

        return self._rekey(image)


# frequently used building blocks
X1 = XPoly({(1, 0): 1})
X2 = XPoly({(0, 1): 1})
PHI = XPoly({(2, 0): 1, (0, 2): -1})
RADIUS_SQ = XPoly({(2, 0): 1, (0, 2): 1})
P12 = VPoly({(0, 1, 1): -1, (1, 0, 2): 1})
P14 = VPoly({(0, 1, 1): -1, (1, 0, 2): -1})


def group_act(w: GroupElement, f: VPoly) -> VPoly:
    """(w f)(x) = f(x.M) . M^{-1}."""

    def image(head):
        a, b, s = head
        (a_img, b_img), x_sign = w.point_image(a, b)
        t_sign, slot = w.t_image(s)
        return (((a_img, b_img, slot), _NO_SHIFT, x_sign * t_sign),)

    return f._rekey(image)


def dunkl_d(i: int, f: VPoly) -> VPoly:
    """First-order modified derivative in direction i (1 or 2)."""
    if i not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {i}")
    d = f.derivative(i)
    parts = [d.component(1), d.component(2)]
    for root, refl, kappa in _ROOT_DATA:
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
            parts[slot - 1] = parts[slot - 1] + quotient * ParamPoly({kappa: v_i * sign})
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
def _monomial_image(head: VKey) -> tuple[tuple[VKey, XKey, int], ...]:
    """Laplacian of x1^a x2^b t_s, head = (a, b, s), as integer entries.

    Each entry ((a', b', s'), (e0, e1), k) stands for k k0^e0 k1^e1 x1^a' x2^b'
    t_s'.  The closed second-order form gives them directly:

        L f = sum_s (lap f_s) t_s + sum_v kappa_v sum_s tau(sigma_v) t_s
              [2 <grad f_s, v> <x, v> - |v|^2 (f_s - f_s o sigma_v)] / <x, v>^2

    over the positive roots v with weights kappa_v, reflections sigma_v and
    slot maps tau(sigma_v).  Filled on first use and kept: up to degree d
    the cache holds at most (d + 1)(d + 2) immutable entries.
    """
    a, b, s = head
    d = a + b
    if d < 2:
        return ()
    out: dict[tuple[VKey, XKey], int] = {}
    if a > 1:
        out[((a - 2, b, s), (0, 0))] = a * (a - 1)
    if b > 1:
        out[((a, b - 2, s), (0, 0))] = b * (b - 1)
    for root, refl, kappa in _ROOT_DATA:
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

    Applied as a map of the heads: the rows of each head x1^a x2^b t_s of f,
    times k k0^d0 k1^d1, are added in place into the rows of each entry of
    its cached image, in integers over f's denominator.
    """
    return f._rekey(_monomial_image)


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


def _scaled_pairing(n: int, kind: str) -> ParamPoly:
    """The scalar c with c * p_{1,2} the modified Laplacian applied 2n times
    to phi^(2n) p_{1,2} (kind "p12") or 2n+1 times to phi^(2n+1) p_{1,4}
    (kind "p14"); raises NotProportionalError if the chain ends elsewhere.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    carrier, power = (P12, 2 * n) if kind == "p12" else (P14, 2 * n + 1)
    f = laplacian_power(carrier.scale_x(PHI**power), power)
    c = f.terms.get((1, 0, 2), ParamPoly.zero())
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
    return _scaled_pairing(n, "p12"), _scaled_pairing(n, "p14")


def alpha_prime_scale(n: int) -> Fraction:
    """2^(4n) (2n)! (2n+1)! relating alpha_n to its operator-route value."""
    return Fraction(2 ** (4 * n) * math.factorial(2 * n) * math.factorial(2 * n + 1))


def beta_prime_scale(n: int) -> Fraction:
    """2^(4n+2) (2n+1)! (2n+2)! relating beta_n to its operator-route value."""
    return Fraction(2 ** (4 * n + 2) * math.factorial(2 * n + 1) * math.factorial(2 * n + 2))

