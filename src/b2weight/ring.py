"""Exact sparse polynomials over Q[k0, k1]: one integer form for every type.

Every exact polynomial is stored as integer rows over one shared
denominator, grouped by the term's *head*, the part of the term that is not
a power of k0 or k1:

    ParamPoly  {(): rows}                            one head, ()
    XPoly      {(a, b): rows}       x1^a x2^b        (vpoly)
    VPoly      {(a, b, s): rows}    x1^a x2^b t_s    (vpoly)

``rows[e0][e1]`` is the numerator of head k0^e0 k1^e1: one list of ints per
power of k0, indexed by the power of k1.  The form is canonical: den > 0, no
row ends in a zero, no head has an empty last row or no rows, and the gcd of
den and all numerators is 1 (zero is the empty map over 1), so equality and
hashing are structural, and each operation ends with one gcd, not one per
term.  ``SparsePoly`` holds all that does not depend on the head shape:
construction from exact coefficients, ``+``, ``-``, negation,
``==``/``hash``, products with a head combiner, one map of the heads
(``_rekey``) whose entries multiply by an integer times k0^d0 k1^d1, and
the split into one ParamPoly per head.  Each of them adds shifted, scaled
rows in place into a fresh accumulator per head (``_add_into``) and ends in
``_make``.  Only this module reads the rows.
Coefficients go in and come out as exact ``fractions.Fraction`` (or
ParamPoly), so identities over the rationals are tested with zero tolerance.
A ParamPoly's coefficients are read one way, by iteration: ``dict(p)`` maps
each (e0, e1) present to its Fraction.
Instances are immutable, and rows are never changed once a value holds them,
so values can share rows and be cached freely.

``_Dense`` wraps the same rows, not trimmed, with ``+``, ``-`` and ``*`` by
an int or another ``_Dense`` only: the working form of the loops of
``hyper._closed_sum`` and ``hyper.alpha_beta_recurrence``.  There each step
multiplies a growing polynomial by a linear or quadratic form, a few
shifted, scaled row additions into rows of the exact final width.
``_integral_scale`` reads the parameters into it, and ``_times_ratio``
makes a result a Fraction or a canonical ParamPoly, with one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Union

Monomial = tuple[int, int]
Scalar = Union[int, Fraction]
# rows[e0][e1]: the integer coefficient of k0^e0 k1^e1
Rows = list[list[int]]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar; an int builds no Fraction."""
    return (value, 1) if isinstance(value, int) else _as_fraction(value).as_integer_ratio()


def _make(cls: type, num: dict[tuple, Rows], den: int):
    """The canonical ``cls`` of num/den, for den > 0.

    Trims, in place, zeros at row ends, empty rows at the end and heads left
    with no row, then divides den and every entry by their gcd (skipped at
    den 1).  So num's rows must be fresh, or canonical already (those are
    kept as they are).
    """
    for head, rows in list(num.items()):
        for row in rows:
            while row and not row[-1]:
                row.pop()
        while rows and not rows[-1]:
            rows.pop()
        if not rows:
            del num[head]
    if den != 1:
        g = gcd(den, *chain.from_iterable(chain.from_iterable(num.values())))
        if g != 1:
            num = {head: [[c // g for c in row] for row in rows] for head, rows in num.items()}
            den //= g
    result = cls.__new__(cls)
    result._num = num
    result._den = den
    return result


def _add_into(acc: Rows, rows: Rows, k: int, d0: int = 0, d1: int = 0) -> None:
    """acc += k k0^d0 k1^d1 rows, in place, growing acc as needed.

    acc must be a fresh accumulator that no value holds yet.  Plain loops,
    one entry at a time: CPython runs them faster than comprehensions,
    slices or ``map`` on rows this short.
    """
    while len(acc) < d0 + len(rows):
        acc.append([])
    e0 = d0
    for row in rows:
        out = acc[e0]
        e0 += 1
        grow = d1 + len(row) - len(out)
        if grow > 0:
            out += [0] * grow
        i = d1
        for x in row:
            out[i] += k * x
            i += 1


def _power(base, n: int, one):
    """base ** n by repeated squaring, for an integer n >= 0."""
    if n < 0:
        raise ValueError("negative powers of a polynomial are not defined")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class SparsePoly:
    """Integer rows per head over one shared denominator.

    The base of ``ParamPoly``, ``XPoly`` and ``VPoly``; a subclass fixes the
    head shape and adds what is its own.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        """From {head + (e0, e1): exact coefficient}."""
        fracs = {key: _as_fraction(c) for key, c in (terms or {}).items()}
        den = lcm(*(f.denominator for f in fracs.values()))
        num: dict[tuple, Rows] = {}
        for key, f in fracs.items():
            _add_into(num.setdefault(key[:-2], []), [[f.numerator]], den // f.denominator, *key[-2:])
        canonical = _make(type(self), num, den)
        self._num, self._den = canonical._num, canonical._den

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        heads = frozenset((head, tuple(map(tuple, rows))) for head, rows in self._num.items())
        return hash((self._den, heads))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        g = gcd(da, db)
        out: dict[tuple, Rows] = {}
        for poly, k in ((self, db // g), (other, da // g)):
            for head, rows in poly._num.items():
                _add_into(out.setdefault(head, []), rows, k)
        return _make(type(self), out, da // g * db)

    def __neg__(self):
        num = {head: [[-c for c in row] for row in rows] for head, rows in self._num.items()}
        return _make(type(self), num, self._den)

    def __sub__(self, other):
        return self + (-other)

    def _product(self, other: "SparsePoly", combine: Callable[[tuple, tuple], tuple], cls: type):
        """The product whose term ha * hb has the head combine(ha, hb), as a ``cls``."""
        out: dict[tuple, Rows] = {}
        for ha, ra in self._num.items():
            terms = [(e0, e1, c) for e0, row in enumerate(ra) for e1, c in enumerate(row) if c]
            for hb, rb in other._num.items():
                acc = out.setdefault(combine(ha, hb), [])
                for e0, e1, c in terms:
                    _add_into(acc, rb, c, e0, e1)
        return _make(cls, out, self._den * other._den)

    def _rekey(self, image: Callable[[tuple], Iterable], cls: type | None = None):
        """The image of self under a map of the heads, as a ``cls``.

        ``image(head)`` lists entries (new head, (d0, d1), k) with d0, d1 >= 0:
        the term c head k0^e0 k1^e1 goes to the sum of k c new k0^(e0+d0)
        k1^(e1+d1), added in place into one accumulator per new head, over
        self's denominator.
        """
        out: dict[tuple, Rows] = {}
        get = out.get
        for head, rows in self._num.items():
            for new, (d0, d1), k in image(head):
                acc = get(new)
                if acc is None:
                    acc = out[new] = []
                _add_into(acc, rows, k, d0, d1)
        return _make(cls or type(self), out, self._den)

    def _by_head(self) -> dict[tuple, "ParamPoly"]:
        """The ParamPoly coefficient of each head present."""
        return {head: _make(ParamPoly, {(): rows}, self._den) for head, rows in self._num.items()}


class ParamPoly(SparsePoly):
    """A polynomial in the two parameters k0, k1 with rational coefficients."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return ZERO

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        p, q = _ratio(value)
        return _make(ParamPoly, {(): [[p]]}, q)

    @staticmethod
    def coerce(value: "ParamPoly | Scalar") -> "ParamPoly":
        if isinstance(value, ParamPoly):
            return value
        return ParamPoly.const(value)

    # -- inspection ----------------------------------------------------------

    @property
    def _rows(self) -> Rows:
        """The numerator rows over ``_den``; zero has none."""
        return self._num.get((), [])

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        """The nonzero terms ((e0, e1), Fraction); ``dict(p)`` is p's term map."""
        den = self._den
        return (
            ((e0, e1), Fraction(c, den))
            for e0, row in enumerate(self._rows)
            for e1, c in enumerate(row)
            if c
        )

    # -- ring operations: the kernel's, with scalars coerced; its own product --

    def __add__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return SparsePoly.__add__(self, other)

    __radd__ = __add__

    __neg__ = SparsePoly.__neg__

    def __sub__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other: Scalar) -> "ParamPoly":
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return self._product(other, lambda ha, hb: (), ParamPoly)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "ParamPoly":
        frac = _as_fraction(scalar)
        if frac == 0:
            raise ZeroDivisionError("division of ParamPoly by zero scalar")
        return self * (1 / frac)

    def __pow__(self, n: int) -> "ParamPoly":
        return _power(self, n, ONE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        return SparsePoly.__eq__(self, other)

    __hash__ = SparsePoly.__hash__

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
ZERO = _make(ParamPoly, {}, 1)


class _Dense:
    """Integer rows in Z[k0, k1] with ``+``, ``-`` and ``*`` by an int or
    another ``_Dense``, nothing else: the arithmetic of the loops of the
    closed forms and the recurrence in ``hyper``.

    ``rows[e0][e1]`` is the coefficient of k0^e0 k1^e1, as in ``SparsePoly``,
    but not trimmed: a row ends at the last slot that its inputs can fill, so
    a polynomial of total degree t fits in the triangle of rows at most
    t + 1, t, ..., 1 long, and a polynomial in k0 alone in rows of one slot.
    A product adds, for each nonzero term of the operand with fewer slots, a
    scaled copy of the other operand's rows, shifted by the term's exponents,
    into rows of the exact final width, one entry at a time: a product by a
    quadratic is six shifted row additions per row.  Rows are never changed
    once a value is made, so values share them with each other and with the
    ParamPoly they are read from.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Rows):
        self.rows = rows

    def __add__(self, other: "_Dense | int") -> "_Dense":
        if isinstance(other, int):
            rows = list(self.rows) or [[0]]
            rows[0] = [rows[0][0] + other, *rows[0][1:]] if rows[0] else [other]
            return _Dense(rows)
        rows, short = self.rows, other.rows
        if len(rows) < len(short):
            rows, short = short, rows
        rows = list(rows)
        for e0, low in enumerate(short):
            high = rows[e0]
            if len(high) < len(low):
                high, low = low, high
            rows[e0] = [x + y for x, y in zip(high, low)] + high[len(low) :]
        return _Dense(rows)

    __radd__ = __add__

    def __neg__(self) -> "_Dense":
        return self * -1

    def __sub__(self, other: "_Dense | int") -> "_Dense":
        return self + -other

    def __rsub__(self, other: int) -> "_Dense":
        return -self + other

    def __mul__(self, other: "_Dense | int") -> "_Dense":
        if isinstance(other, int):
            return _Dense([[other * x for x in row] for row in self.rows] if other else [])
        small, large = self.rows, other.rows
        if sum(map(len, small)) > sum(map(len, large)):
            small, large = large, small
        terms = [(e0, e1, c) for e0, row in enumerate(small) for e1, c in enumerate(row) if c]
        if not terms:
            return _Dense([])
        # row e0 + i of the product ends where the longest shifted row i ends
        widths = [0] * (terms[-1][0] + len(large))
        for e0, e1, _ in terms:
            for i, row in enumerate(large, e0):
                if e1 + len(row) > widths[i]:
                    widths[i] = e1 + len(row)
        out = [[0] * width for width in widths]
        for e0, e1, c in terms:
            for acc, row in zip(out[e0:], large):
                i = e1
                for x in row:
                    acc[i] += c * x
                    i += 1
        return _Dense(out)

    __rmul__ = __mul__


def _times_ratio(value, p: int, q: int):
    """value * p / q, exact, for an int or ``_Dense`` value, an int p and an
    int q > 0: one Fraction or one canonical ParamPoly, reduced once."""
    return Fraction(value * p, q) if isinstance(value, int) else _make(ParamPoly, {(): (value * p).rows}, q)


def _integral_scale(k0, k1):
    """(D, D k0, D k1) for an even D that makes D k0, D k1 integral:
    D = 2 lcm(den k0, den k1), where the den of a ParamPoly is the common
    denominator of its coefficients (D = 2 for the symbolic K0, K1, and 4
    for K0/2).  A rational parameter comes out as an int and a ParamPoly as
    a ``_Dense`` in Z[k0, k1], so the loops of ``hyper._closed_sum`` and
    ``hyper.alpha_beta_recurrence`` run unchanged on ints or on dense integer rows."""
    (p0, q0), (p1, q1) = (
        (_Dense(k._rows), k._den) if isinstance(k, ParamPoly) else _ratio(k) for k in (k0, k1)
    )
    d = 2 * lcm(q0, q1)
    return d, p0 * (d // q0), p1 * (d // q1)


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
    rows = p._rows
    top0 = max(len(rows) - 1, 0)
    top1 = max(map(len, rows), default=1) - 1
    pw0 = [a0**e * b0 ** (top0 - e) for e in range(top0 + 1)]
    pw1 = [a1**e * b1 ** (top1 - e) for e in range(top1 + 1)]
    total = sum(pw0[e0] * sum(c * pw1[e1] for e1, c in enumerate(row)) for e0, row in enumerate(rows))
    return Fraction(total, p._den * b0**top0 * b1**top1)
