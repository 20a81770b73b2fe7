"""Exact arithmetic in the polynomial ring Q[k0, k1].

Coefficients are ``fractions.Fraction`` (arbitrary-precision rationals, always
in lowest terms with positive denominator), so every identity in this package
that is stated over the rationals can be tested with zero tolerance.

A polynomial is stored sparsely as a map from exponent pairs to coefficients:

    ParamPoly terms:  {(e0, e1): Fraction}   meaning sum of c * k0^e0 * k1^e1

Zero coefficients are never stored; the zero polynomial has an empty map.
Instances are immutable: all operations return new polynomials, so values can
be shared freely across threads or cached without defensive copies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

Monomial = tuple[int, int]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


class ParamPoly:
    """A polynomial in the two parameters k0, k1 with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                frac = _as_fraction(coeff)
                if frac != 0:
                    clean[mono] = frac
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        return cls({(0, 0): value})

    @classmethod
    def gen_k0(cls) -> "ParamPoly":
        return cls({(1, 0): 1})

    @classmethod
    def gen_k1(cls) -> "ParamPoly":
        return cls({(0, 1): 1})

    @staticmethod
    def coerce(value: "ParamPoly | Scalar") -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return ParamPoly.const(value)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A copy of the sparse term map."""
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono == (0, 0) for mono in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant polynomial")
        return self._terms.get((0, 0), Fraction(0))

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(e0 + e1 for e0, e1 in self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        other = ParamPoly.coerce(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = out.get(mono, Fraction(0)) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        result = ParamPoly.__new__(ParamPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        result = ParamPoly.__new__(ParamPoly)
        result._terms = {mono: -coeff for mono, coeff in self._terms.items()}
        return result

    def __sub__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "ParamPoly":
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            frac = _as_fraction(other)
            if frac == 0:
                return ParamPoly.zero()
            result = ParamPoly.__new__(ParamPoly)
            result._terms = {m: c * frac for m, c in self._terms.items()}
            return result
        out: dict[Monomial, Fraction] = {}
        for (a0, a1), ca in self._terms.items():
            for (b0, b1), cb in other._terms.items():
                mono = (a0 + b0, a1 + b1)
                new = out.get(mono, Fraction(0)) + ca * cb
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        result = ParamPoly.__new__(ParamPoly)
        result._terms = out
        return result

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
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- printing ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"ParamPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # graded-lex: lower total degree first, then higher k0-power first
        ordered = sorted(self._terms.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
        pieces: list[str] = []
        for (e0, e1), coeff in ordered:
            mono_parts = []
            if e0:
                mono_parts.append("k0" if e0 == 1 else f"k0^{e0}")
            if e1:
                mono_parts.append("k1" if e1 == 1 else f"k1^{e1}")
            mono = "*".join(mono_parts)
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


K0 = ParamPoly.gen_k0()
K1 = ParamPoly.gen_k1()
ONE = ParamPoly.const(1)
ZERO = ParamPoly.zero()


def poch_table(a, n: int) -> list:
    """[(a)_0, (a)_1, ..., (a)_n] as prefix products, in the arithmetic of a
    (ParamPoly, Fraction or float)."""
    if n < 0:
        raise ValueError("poch requires a non-negative integer length")
    table = [a * 0 + 1]
    for i in range(n):
        table.append(table[-1] * (a + i))
    return table


def poch(a, n: int):
    """Rising product a(a+1)...(a+n-1) in the arithmetic of a; poch(a, 0) = 1."""
    return poch_table(a, n)[-1]


def poly_eval(p: ParamPoly, k0: Scalar, k1: Scalar) -> Fraction:
    """Exact substitution k0, k1 -> rationals."""
    v0 = _as_fraction(k0)
    v1 = _as_fraction(k1)
    total = Fraction(0)
    for (e0, e1), coeff in p:
        total += coeff * v0**e0 * v1**e1
    return total
