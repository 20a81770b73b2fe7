"""Exact arithmetic in the polynomial ring Q[k0, k1].

A polynomial is stored sparsely as integer numerators over one shared denominator:

    ParamPoly:  {(e0, e1): int} over den   meaning  sum of (c / den) * k0^e0 * k1^e1

The form is canonical: no numerator is zero, den > 0, and the gcd of den and all
numerators is 1 (zero is the empty map over 1), so equality and hashing are
structural.  Each operation does integer arithmetic and one gcd on its result,
not one gcd per term.  Coefficients go in and come out (``terms``, iteration,
``coefficient``) as exact ``fractions.Fraction``, so every identity stated over
the rationals can be tested with zero tolerance.  Instances are immutable: all
operations return new polynomials, so values can be shared or cached freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

Monomial = tuple[int, int]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar; an int builds no Fraction."""
    return (value, 1) if isinstance(value, int) else _as_fraction(value).as_integer_ratio()


def _make(num: dict[Monomial, int], den: int) -> "ParamPoly":
    """The canonical ParamPoly of num/den, for den > 0 and no zero in num."""
    g = gcd(den, *num.values())
    if g != 1:
        num = {mono: c // g for mono, c in num.items()}
        den //= g
    result = ParamPoly.__new__(ParamPoly)
    result._num = num
    result._den = den
    return result


class ParamPoly:
    """A polynomial in the two parameters k0, k1 with rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        fracs = {mono: _as_fraction(c) for mono, c in (terms or {}).items()}
        fracs = {mono: f for mono, f in fracs.items() if f}
        # over the lcm of reduced denominators the form is already canonical
        self._den = lcm(*(f.denominator for f in fracs.values()))
        self._num = {mono: f.numerator * (self._den // f.denominator) for mono, f in fracs.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return ZERO

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        p, q = _ratio(value)
        return _make({(0, 0): p} if p else {}, q)

    @staticmethod
    def coerce(value: "ParamPoly | Scalar") -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return ParamPoly.const(value)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The sparse term map with Fraction coefficients (a fresh dict)."""
        return dict(self)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._num.get(mono, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def constant_value(self) -> Fraction:
        if any(mono != (0, 0) for mono in self._num):
            raise ValueError(f"{self} is not a constant polynomial")
        return self.coefficient((0, 0))

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((e0 + e1 for e0, e1 in self._num), default=-1)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        return ((mono, Fraction(c, den)) for mono, c in self._num.items())

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        other = ParamPoly.coerce(other)
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = {mono: c * fa for mono, c in self._num.items()} if fa != 1 else dict(self._num)
        for mono, c in other._num.items():
            new = out.get(mono, 0) + c * fb
            if new:
                out[mono] = new
            else:
                del out[mono]
        return _make(out, da * fa)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return _make({mono: -c for mono, c in self._num.items()}, self._den)

    def __sub__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "ParamPoly":
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            p, q = _ratio(other)
            return _make({mono: c * p for mono, c in self._num.items()} if p else {}, self._den * q)
        out: dict[Monomial, int] = {}
        get = out.get
        for (a0, a1), ca in self._num.items():
            for (b0, b1), cb in other._num.items():
                mono = (a0 + b0, a1 + b1)
                out[mono] = get(mono, 0) + ca * cb
        return _make({mono: c for mono, c in out.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "ParamPoly":
        frac = _as_fraction(scalar)
        if frac == 0:
            raise ZeroDivisionError("division of ParamPoly by zero scalar")
        return self * (1 / frac)

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Q[k0, k1]")
        result = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    # -- printing ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"ParamPoly({self})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        # graded-lex: lower total degree first, then higher k0-power first
        ordered = sorted(self, key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
        pieces: list[str] = []
        for (e0, e1), coeff in ordered:
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("k0", e0), ("k1", e1)) if e)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


K0 = ParamPoly({(1, 0): 1})
K1 = ParamPoly({(0, 1): 1})
ONE = ParamPoly.const(1)
ZERO = _make({}, 1)


def shifted_sum(parts: Iterable[tuple[int, Monomial, ParamPoly]]) -> ParamPoly:
    """sum of k * k0^e0 k1^e1 * p over the parts (k, (e0, e1), p), k an int.

    The numerators are accumulated over the lcm of the denominators, and the
    result is made canonical once (one gcd), whatever the number of parts."""
    parts = list(parts)
    den = lcm(*(p._den for _, _, p in parts))
    out: dict[Monomial, int] = {}
    get = out.get
    for k, (s0, s1), p in parts:
        factor = k * (den // p._den)
        for (e0, e1), c in p._num.items():
            mono = (e0 + s0, e1 + s1)
            out[mono] = get(mono, 0) + factor * c
    return _make({mono: c for mono, c in out.items() if c}, den)


def poch(a, n: int):
    """Rising product a(a+1)...(a+n-1) in the arithmetic of a (ParamPoly,
    Fraction or float); poch(a, 0) = 1."""
    if n < 0:
        raise ValueError("poch requires a non-negative integer length")
    result = a * 0 + 1
    for i in range(n):
        result = result * (a + i)
    return result


def poly_eval(p: ParamPoly, k0: Scalar, k1: Scalar) -> Fraction:
    """Exact substitution k0, k1 -> rationals.

    With k0 = a0/b0, k1 = a1/b1 and top exponents E0, E1 the value is
    sum c * a0^e0 b0^(E0-e0) a1^e1 b1^(E1-e1) / (den b0^E0 b1^E1): an int sum
    and one Fraction at the end."""
    (a0, b0), (a1, b1) = _ratio(k0), _ratio(k1)
    top0 = max((e0 for e0, _ in p._num), default=0)
    top1 = max((e1 for _, e1 in p._num), default=0)
    pw0 = [a0**e * b0 ** (top0 - e) for e in range(top0 + 1)]
    pw1 = [a1**e * b1 ** (top1 - e) for e in range(top1 + 1)]
    total = sum(c * pw0[e0] * pw1[e1] for (e0, e1), c in p._num.items())
    return Fraction(total, p._den * b0**top0 * b1**top1)
