"""Reference values computed apart from b2weight, and the checkers that
compare the program's outputs with them.

Every reference here is written from the mathematical definitions in plain
``Fraction`` and ``math`` arithmetic; nothing calls into the program except to
read the terms of a polynomial it returned.  A checker returns ``None`` when
the output is right and a one-line reason when it is not.  ``self_test`` feeds
each checker a deliberately perturbed value and confirms that it is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A polynomial in k0, k1 as {(e0, e1): coefficient}, zero terms omitted.
Terms = dict[tuple[int, int], Fraction]

PAIRING_REL_TOL = 1e-8
BOUNDARY_REL_TOL = 1e-6
DET_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def recurrence_at(k0: Fraction, k1: Fraction, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """alpha_n and beta_n for n <= n_max at one rational point.

    alpha_0 = 1, beta_0 = -(1+2k1-2k0)/2, and for n >= 1
    alpha_n = (-(1+2k1+2k0) beta_{n-1} + (2n-1-2k0) alpha_{n-1}) / (2n+1)
    beta_n  = -(1+2k1-2k0) alpha_n / (2(n+1)) + n(2n+1+2k0) beta_{n-1} / ((n+1)(2n+1)).
    """
    plus = 1 + 2 * k1 + 2 * k0
    minus = 1 + 2 * k1 - 2 * k0
    alpha = [Fraction(1)]
    beta = [-minus / 2]
    for n in range(1, n_max + 1):
        a_n = (-plus * beta[-1] + (2 * n - 1 - 2 * k0) * alpha[-1]) / (2 * n + 1)
        b_n = -minus * a_n / (2 * (n + 1)) + n * (2 * n + 1 + 2 * k0) * beta[-1] / (
            (n + 1) * (2 * n + 1)
        )
        alpha.append(a_n)
        beta.append(b_n)
    return alpha, beta


def pairings_at(k0: Fraction, k1: Fraction, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact sector pairings s_p12 = alpha_n (1+2k0+2k1), s_p14 = beta_n (1+2k0+2k1)."""
    alpha, beta = recurrence_at(k0, k1, n_max)
    anchor = 1 + 2 * k0 + 2 * k1
    return [a * anchor for a in alpha], [b * anchor for b in beta]


def _add(p: Terms, q: Terms) -> Terms:
    out = dict(p)
    for mono, c in q.items():
        new = out.get(mono, 0) + c
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def _times_linear(p: Terms, c: Fraction, a0: Fraction, a1: Fraction) -> Terms:
    """p * (c + a0 k0 + a1 k1)."""
    out: Terms = {}
    for shift, factor in (((0, 0), c), ((1, 0), a0), ((0, 1), a1)):
        if factor:
            part = {(e0 + shift[0], e1 + shift[1]): v * factor for (e0, e1), v in p.items()}
            out = _add(out, part)
    return out


def scaled(p: Terms, factor: int) -> Terms:
    return {mono: c * factor for mono, c in p.items()}


def times_anchor(p: Terms) -> Terms:
    """p * (1 + 2k0 + 2k1)."""
    return _times_linear(p, Fraction(1), Fraction(2), Fraction(2))


def symbolic_recurrence(n_max: int) -> tuple[list[Terms], list[Terms]]:
    """The recurrence of ``recurrence_at`` run in Q[k0, k1] on plain dicts."""
    alpha: list[Terms] = [{(0, 0): Fraction(1)}]
    beta: list[Terms] = [{(0, 0): Fraction(-1, 2), (1, 0): Fraction(1), (0, 1): Fraction(-1)}]
    for n in range(1, n_max + 1):
        a_n = _add(
            _times_linear(beta[-1], Fraction(-1, 2 * n + 1), Fraction(-2, 2 * n + 1), Fraction(-2, 2 * n + 1)),
            _times_linear(alpha[-1], Fraction(2 * n - 1, 2 * n + 1), Fraction(-2, 2 * n + 1), Fraction(0)),
        )
        den = (n + 1) * (2 * n + 1)
        b_n = _add(
            _times_linear(a_n, Fraction(-1, 2 * (n + 1)), Fraction(1, n + 1), Fraction(-1, n + 1)),
            _times_linear(beta[-1], Fraction(n * (2 * n + 1), den), Fraction(2 * n, den), Fraction(0)),
        )
        alpha.append(a_n)
        beta.append(b_n)
    return alpha, beta


def operator_scales(n: int) -> tuple[int, int]:
    """Factors relating alpha_n, beta_n to the operator route's scalars:
    2^(4n) (2n)! (2n+1)! and 2^(4n+2) (2n+1)! (2n+2)!."""
    f = math.factorial
    return 2 ** (4 * n) * f(2 * n) * f(2 * n + 1), 2 ** (4 * n + 2) * f(2 * n + 1) * f(2 * n + 2)


def terms_of(poly) -> Terms:
    """The terms of a polynomial the program returned, read through iteration."""
    return {mono: Fraction(c) for mono, c in poly if c}


def eval_terms(p: Terms, k0: Fraction, k1: Fraction) -> Fraction:
    return sum((c * k0**e0 * k1**e1 for (e0, e1), c in p.items()), Fraction(0))


def det_k_expected(k0: float, k1: float) -> float:
    """det K = cos(pi(k0+k1)) cos(pi(k0-k1)) / (4 pi^2), constant over the sector."""
    return math.cos(math.pi * (k0 + k1)) * math.cos(math.pi * (k0 - k1)) / (4.0 * math.pi**2)


# ---------------------------------------------------------------------------
# checkers: None when right, a reason when wrong
# ---------------------------------------------------------------------------


def check_terms(label: str, got: Terms, want: Terms) -> str | None:
    if got == want:
        return None
    diff = sorted(set(got.items()) ^ set(want.items()))[:2]
    return f"{label}: polynomials differ (first differing terms {diff})"


def check_zero(label: str, poly) -> str | None:
    return None if poly.is_zero() else f"{label}: residual is not zero"


def check_at_points(label: str, got: Terms, points, want: list[Fraction]) -> str | None:
    """A symbolic polynomial evaluated at rational points against exact values."""
    for (k0, k1), value in zip(points, want):
        if eval_terms(got, k0, k1) != value:
            return f"{label}: value at ({k0}, {k1}) differs from the point recurrence"
    return None


TABLE_HEADER = "n,alpha,beta,s_p12,s_p14"


def check_table_csv(text: str, k0: Fraction, k1: Fraction, n_max: int) -> str | None:
    """A ``table --format csv`` output against the point recurrence, cell by cell."""
    lines = text.split("\n")
    if lines[0] != TABLE_HEADER or lines[-1] != "" or len(lines) != n_max + 3:
        return f"table ({k0}, {k1}): unexpected layout ({len(lines)} lines, header {lines[0]!r})"
    alpha, beta = recurrence_at(k0, k1, n_max)
    p12, p14 = pairings_at(k0, k1, n_max)
    for n, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        want = [str(n), alpha[n], beta[n], p12[n], p14[n]]
        try:
            got = [cells[0]] + [Fraction(c) for c in cells[1:]]
        except (ValueError, ZeroDivisionError):
            return f"table ({k0}, {k1}): row {n} has a cell that is not a rational: {line!r}"
        if got != want:
            return f"table ({k0}, {k1}): row {n} differs from the point recurrence"
    return None


def check_pairing(label: str, value: float, exact: Fraction, rel_tol: float) -> str | None:
    ref = float(exact)
    if abs(value - ref) <= rel_tol * abs(ref):
        return None
    return f"{label}: {value!r} against exact {ref!r} (relative tolerance {rel_tol:g})"


def check_det(label: str, kmat, k0: float, k1: float) -> str | None:
    det = float(kmat[0][0] * kmat[1][1] - kmat[0][1] * kmat[1][0])
    want = det_k_expected(k0, k1)
    if abs(det - want) <= DET_ABS_TOL:
        return None
    return f"{label}: det K = {det!r} against {want!r} (absolute tolerance {DET_ABS_TOL:g})"


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


class _Nonzero:
    def is_zero(self) -> bool:
        return False


class _Zero:
    def is_zero(self) -> bool:
        return True


def _table_text(k0: Fraction, k1: Fraction, n_max: int) -> list[str]:
    alpha, beta = recurrence_at(k0, k1, n_max)
    p12, p14 = pairings_at(k0, k1, n_max)
    rows = [TABLE_HEADER]
    for n in range(n_max + 1):
        rows.append(",".join(str(v) for v in (n, alpha[n], beta[n], p12[n], p14[n])))
    return rows


def self_test() -> list[tuple[str, bool]]:
    """Run each checker on a right value and on a perturbed one.

    Returns (checker, passed) pairs; a checker passes when it accepts the right
    value and refuses the perturbed one.
    """
    k0, k1 = Fraction(3, 10), Fraction(1, 10)
    results = []

    def expect(name: str, right: str | None, perturbed: str | None) -> None:
        results.append((name, right is None and perturbed is not None))

    rows = _table_text(k0, k1, 3)
    bad = list(rows)
    cells = bad[2].split(",")
    cells[3] = str(Fraction(cells[3]) + Fraction(1, 10**12))
    bad[2] = ",".join(cells)
    expect(
        "check_table_csv",
        check_table_csv("\n".join(rows) + "\n", k0, k1, 3),
        check_table_csv("\n".join(bad) + "\n", k0, k1, 3),
    )

    p12, _ = pairings_at(k0, k1, 5)
    exact = p12[5]
    expect(
        "check_pairing",
        check_pairing("p12 n5", float(exact) * (1 + 1e-10), exact, PAIRING_REL_TOL),
        check_pairing("p12 n5", float(exact) * (1 + 1e-7), exact, PAIRING_REL_TOL),
    )
    expect(
        "check_pairing near boundary",
        check_pairing("p12 n5", float(exact) * (1 + 1e-8), exact, BOUNDARY_REL_TOL),
        check_pairing("p12 n5", float(exact) * (1 + 1e-5), exact, BOUNDARY_REL_TOL),
    )

    det = det_k_expected(0.3, 0.1)
    expect(
        "check_det",
        check_det("det", [[det, 0.0], [0.0, 1.0]], 0.3, 0.1),
        check_det("det", [[det + 1e-9, 0.0], [0.0, 1.0]], 0.3, 0.1),
    )

    alpha_sym, _ = symbolic_recurrence(4)
    bumped = _add(alpha_sym[4], {(2, 1): Fraction(1, 10**9)})
    expect(
        "check_terms",
        check_terms("alpha n4", dict(alpha_sym[4]), alpha_sym[4]),
        check_terms("alpha n4", bumped, alpha_sym[4]),
    )

    points = [(Fraction(1, 7), Fraction(-2, 9)), (Fraction(3, 11), Fraction(1, 13))]
    want = [recurrence_at(a, b, 4)[0][4] for a, b in points]
    expect(
        "check_at_points",
        check_at_points("alpha n4", alpha_sym[4], points, want),
        check_at_points("alpha n4", bumped, points, want),
    )

    expect("check_zero", check_zero("residual", _Zero()), check_zero("residual", _Nonzero()))
    return results
