"""Exact sparse polynomials over Q[k0, k1]: one integer kernel for every type.

Every exact polynomial is stored as integer numerators over one shared
denominator, keyed by a tuple of exponents whose last two entries are the
powers of k0 and k1.  The rest of the key is the term's *head*:

    ParamPoly  {(e0, e1): c}           head ()
    XPoly      {(a, b, e0, e1): c}     head (a, b)      x1^a x2^b      (vpoly)
    VPoly      {(a, b, s, e0, e1): c}  head (a, b, s)   x1^a x2^b t_s  (vpoly)

The form is canonical: no numerator is zero, den > 0, and the gcd of den and
all numerators is 1 (zero is the empty map over 1), so equality and hashing
are structural, and each operation ends with one gcd, not one per term.
``SparsePoly`` holds all that does not depend on the key shape: construction
from exact coefficients, ``+``, ``-``, negation, ``==``/``hash``, products
with a key combiner, maps of the heads with integer factors (``_rekey``, and
``_rekey_shifted`` where they also multiply by k0 or k1) and the split into
one ParamPoly per head.  Only this module reads numerators and denominators.
Coefficients go in and come out as exact ``fractions.Fraction`` (or
ParamPoly), so identities over the rationals are tested with zero tolerance.
Instances are immutable, so values can be shared or cached freely.

``SparsePoly`` stays the public form of all three types.  Beside it, the
private ``_Dense`` holds a polynomial in Z[k0, k1] as rows of ints, one row
per power of k0 indexed by the power of k1, with ``+``, ``-`` and ``*`` by
an int or another ``_Dense`` only.  It is the working form of the loops of
``hyper._closed_sum`` and ``hyper.alpha_beta_recurrence``: there each step
multiplies a growing polynomial by a linear or quadratic form, which in rows
is a few shifted, scaled row additions rather than a dict product with a
tuple key per term pair.  ``ParamPoly``'s own product runs on it too.
``_dense_ratio`` turns a ParamPoly into integer rows over a denominator, and
``_Dense.times_ratio`` turns a result back into a canonical ParamPoly with
one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Union

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


def _make(cls: type, num: dict[tuple, int], den: int):
    """The canonical ``cls`` of num/den, for den > 0 and no zero in num."""
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: c // g for key, c in num.items()}
        den //= g
    result = cls.__new__(cls)
    result._num = num
    result._den = den
    return result


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
    """Integer numerators over one shared denominator, keyed by exponent tuples.

    The base of ``ParamPoly``, ``XPoly`` and ``VPoly``; a subclass fixes the
    key shape and adds what is its own.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        fracs = {key: _as_fraction(c) for key, c in (terms or {}).items()}
        fracs = {key: f for key, f in fracs.items() if f}
        # over the lcm of reduced denominators the form is already canonical
        self._den = lcm(*(f.denominator for f in fracs.values()))
        self._num = {key: f.numerator * (self._den // f.denominator) for key, f in fracs.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = {key: c * fa for key, c in self._num.items()} if fa != 1 else dict(self._num)
        for key, c in other._num.items():
            new = out.get(key, 0) + c * fb
            if new:
                out[key] = new
            else:
                del out[key]
        return _make(type(self), out, da * fa)

    def __neg__(self):
        return _make(type(self), {key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def _product(self, other: "SparsePoly", combine: Callable[[tuple, tuple], tuple], cls: type):
        """The product whose term ka * kb has the key combine(ka, kb), as a ``cls``."""
        out: dict[tuple, int] = {}
        get = out.get
        for ka, ca in self._num.items():
            for kb, cb in other._num.items():
                key = combine(ka, kb)
                out[key] = get(key, 0) + ca * cb
        return _make(cls, {key: c for key, c in out.items() if c}, self._den * other._den)

    def _rekey(self, image: Callable[[tuple], Iterable], cls: type | None = None):
        """The image of self under a map of the heads with integer factors, as a ``cls``.

        ``image(head)`` lists pairs (new head, k): the term c head k0^e0 k1^e1
        goes to the sum of k c new k0^e0 k1^e1.
        """
        out: dict[tuple, int] = {}
        get = out.get
        for key, c in self._num.items():
            mono = key[-2:]
            for new, k in image(key[:-2]):
                new += mono
                out[new] = get(new, 0) + k * c
        return _make(cls or type(self), {key: c for key, c in out.items() if c}, self._den)

    def _rekey_shifted(self, image: Callable[[tuple], Iterable]):
        """``_rekey`` with factors k k0^d0 k1^d1, summed densely: the hot loop of
        the operator route.

        ``image(head)`` lists entries (new head, (d0, d1), k), d0, d1 >= 0: the
        term c head k0^e0 k1^e1 goes to the sum of k c new k0^(e0+d0) k1^(e1+d1).
        The terms are grouped by head; each new head sums its numerators in
        integers over self's denominator, in a dense list indexed by
        e0 * width + e1, read back at its nonzero slots only; the result is
        made canonical once.
        """
        num = self._num
        groups: dict[tuple, list[tuple[int, int, int]]] = {}
        top0 = top1 = 0  # the largest exponents of k0 and k1 in self
        for key, c in num.items():
            e0, e1 = key[-2:]
            if e0 > top0:
                top0 = e0
            if e1 > top1:
                top1 = e1
            groups.setdefault(key[:-2], []).append((e0, e1, c))
        images = {head: tuple(image(head)) for head in groups}
        shifts = [shift for entries in images.values() for _, shift, _ in entries]
        if not shifts:
            return _make(type(self), {}, 1)
        width = top1 + max(d1 for _, d1 in shifts) + 1
        size = (top0 + max(d0 for d0, _ in shifts) + 1) * width
        out: dict[tuple, list[int]] = {}
        for head, params in groups.items():
            params = [(e0 * width + e1, c) for e0, e1, c in params]
            for new, (d0, d1), k in images[head]:
                acc = out.get(new)
                if acc is None:
                    acc = out[new] = [0] * size
                step = d0 * width + d1
                for i, c in params:
                    acc[i + step] += k * c
        slots = range(size)
        return _make(
            type(self),
            {
                new + divmod(i, width): acc[i]
                for new, acc in out.items()
                for i in compress(slots, acc)  # the nonzero slots
            },
            self._den,
        )

    def _by_head(self) -> dict[tuple, "ParamPoly"]:
        """The ParamPoly coefficient of each head present."""
        groups: dict[tuple, dict[Monomial, int]] = {}
        for key, c in self._num.items():
            groups.setdefault(key[:-2], {})[key[-2:]] = c
        return {head: _make(ParamPoly, num, self._den) for head, num in groups.items()}


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
        return _make(ParamPoly, {(0, 0): p} if p else {}, q)

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
            p, q = _ratio(other)
            num = {mono: c * p for mono, c in self._num.items()} if p else {}
            return _make(ParamPoly, num, self._den * q)
        (a, p), (b, q) = _dense_ratio(self), _dense_ratio(other)
        return (a * b).times_ratio(1, p * q)

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
    """A polynomial in Z[k0, k1] in dense rows, for the loops of the closed
    forms and the recurrence in ``hyper``.

    ``rows[e0][e1]`` is the coefficient of k0^e0 k1^e1.  A row ends at the
    last slot that its inputs can fill, so a polynomial of total degree t
    fits in the triangle of rows at most t + 1, t, ..., 1 long, and a
    polynomial in k0 alone in rows of one slot.  It supports ``+``, ``-``
    and ``*`` by an int or another ``_Dense``, nothing else.  A product adds,
    for each nonzero term of the operand with fewer slots, a scaled copy of
    the other operand's rows, shifted by the term's exponents, one entry at a
    time (faster in CPython than slices or ``map`` on rows this short): a
    product by a quadratic is six shifted row additions per row.  Rows are
    never changed once a value is made, so values share them.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int]]):
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

    def times_ratio(self, p: int, q: int) -> ParamPoly:
        """The canonical ParamPoly of self * p / q, for ints p != 0 and q > 0."""
        num = {(e0, e1): c * p for e0, row in enumerate(self.rows) for e1, c in enumerate(row) if c}
        return _make(ParamPoly, num, q)


def _dense_ratio(p: ParamPoly) -> tuple[_Dense, int]:
    """(N, q) with N in Z[k0, k1] as a ``_Dense`` and the int q with p = N / q."""
    rows: list[list[int]] = [[] for _ in range(1 + max((e0 for e0, _ in p._num), default=-1))]
    for (e0, e1), c in p._num.items():
        row = rows[e0]
        row += [0] * (e1 + 1 - len(row))
        row[e1] = c
    return _Dense(rows), p._den


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
