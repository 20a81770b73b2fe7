"""Command-line interface: verification suites, value tables, weight evaluation.

Verbs:

* ``verify {exact|quad|asym|all}`` runs a named check suite and exits 0 only
  if every check passes (1 on any failure, 2 on usage errors).
* ``table`` prints rows (n, alpha_n, beta_n, pairing values): exact rational
  or symbolic strings when the parameters are exact, decimals otherwise.
* ``eval-k`` evaluates the weight matrix at one angle and emits JSON.

Parameters are accepted as exact rationals ("3/10") or decimal strings
("0.3"); decimals are converted to exact rationals for the exact suites and
used as floats in the numeric ones.  Reports are deterministic for a fixed
configuration except for the ``elapsed_s`` field.  The float modules ``quad``
and ``weight`` are imported by the commands that use them, so ``table`` and
``verify exact`` never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from . import hyper, vpoly
from .errors import RegionError, ToleranceError
from .ring import K0, K1

_EXACT_TOKEN = "identical"
_DEFAULTS = {"k0": "3/10", "k1": "1/10"}
_CHECK_FIELDS = ("name", "expected", "got", "tolerance", "pass")
_TABLE_FIELDS = ("n", "alpha", "beta", "s_p12", "s_p14")


def _check(name: str, expected: str, got: str, tolerance: float, passed: bool) -> dict:
    """One report row, keyed by ``_CHECK_FIELDS``."""
    return dict(zip(_CHECK_FIELDS, (name, expected, got, tolerance, passed)))


def _exact_check(name: str, matched: bool, got: str = "") -> dict:
    got = _EXACT_TOKEN if matched else (got or "mismatch")
    return _check(name, _EXACT_TOKEN, got, 0.0, matched)


def _csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    """A header line and one line per row of cells; a ',' in a cell is written as ';'."""
    lines = [",".join(header)]
    lines += [",".join(cell.replace(",", ";") for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q" or a decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational or decimal: {text!r}") from exc


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _tolerance(text: str) -> float:
    """A relative tolerance: a finite number strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < 1.0:  # also rejects nan and inf
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text!r}")
    return value


def _rational_str(text: str) -> str:
    """Validate at parse time but keep the raw string for lossless echo."""
    parse_rational(text)
    return text


# ---------------------------------------------------------------------------
# suites: each yields one row per check
# ---------------------------------------------------------------------------


def _suite_exact(args: argparse.Namespace):
    anchor = 1 + 2 * K1 + 2 * K0
    seq = hyper.alpha_beta_recurrence(args.nmax)
    for n in range(args.nmax + 1):
        yield _exact_check(
            f"exact/recurrence_vs_closed/alpha/n{n:02d}",
            seq.alpha[n] == hyper.alpha_closed(n),
        )
        yield _exact_check(
            f"exact/recurrence_vs_closed/beta/n{n:02d}",
            seq.beta[n] == hyper.beta_closed(n),
        )
        yield _exact_check(
            f"exact/pairing_consistency/p12/n{n:02d}",
            hyper.s_inner_closed(n, "p12") == seq.alpha[n] * anchor,
        )
        yield _exact_check(
            f"exact/pairing_consistency/p14/n{n:02d}",
            hyper.s_inner_closed(n, "p14") == seq.beta[n] * anchor,
        )
    for n in range(min(args.nmax, vpoly.OPERATOR_NMAX) + 1):
        alpha_scaled, beta_scaled = vpoly.alpha_beta_via_laplacian(n)
        yield _exact_check(
            f"exact/operator_route/alpha/n{n:02d}",
            alpha_scaled == seq.alpha[n] * vpoly.alpha_prime_scale(n),
        )
        yield _exact_check(
            f"exact/operator_route/beta/n{n:02d}",
            beta_scaled == seq.beta[n] * vpoly.beta_prime_scale(n),
        )
    pairs = [
        ("radius_sq", vpoly.RADIUS_SQ, "p12", vpoly.P12),
        ("phi_sq", vpoly.PHI * vpoly.PHI, "p12", vpoly.P12),
        ("phi_sq", vpoly.PHI * vpoly.PHI, "phi_p14", vpoly.P14.scale_x(vpoly.PHI)),
        ("radius_4", vpoly.RADIUS_SQ * vpoly.RADIUS_SQ, "phi_p14", vpoly.P14.scale_x(vpoly.PHI)),
    ]
    for f_name, f, g_name, g in pairs:
        residual = vpoly.product_rule_residual(f, g)
        yield _exact_check(f"exact/product_rule/{f_name}*{g_name}", residual.is_zero())


def _in_region(name: str, suite):
    """``suite`` where (k0, k1) is positive definite, both as the parsed
    rationals and as floats (the two can disagree within an ulp of the edge);
    elsewhere one failing ``<name>/region`` row in its place."""

    def gated(args: argparse.Namespace):
        from .weight import ParamPoint

        k0, k1 = parse_rational(args.k0), parse_rational(args.k1)
        half = Fraction(1, 2)
        if abs(k0 + k1) < half and abs(k0 - k1) < half:
            if ParamPoint(float(k0), float(k1)).positive_definite:
                return suite(args)
        region = f"({args.k0}, {args.k1})"
        return [_check(f"{name}/region", "positive-definite parameters", region, 0.0, False)]

    return gated


def _suite_quad(args: argparse.Namespace):
    from . import quad
    from .weight import ParamPoint, det_k_closed_form, eval_K

    k0, k1 = parse_rational(args.k0), parse_rational(args.k1)
    point = ParamPoint(float(k0), float(k1))
    for n in range(args.nmax + 1):
        for kind in ("p12", "p14"):
            exact = float(hyper.s_inner_closed(n, kind, k0, k1))
            name = f"quad/pairing_vs_closed/{kind}/n{n:02d}"
            try:
                got = quad.sector_inner_numeric(n, kind, point, tol=args.tol * 0.1)
            except (RegionError, ToleranceError) as exc:
                yield _check(name, f"{exact:.15g}", f"error: {exc}", args.tol, False)
                continue
            rel = abs(got.value - exact) / max(abs(exact), 1e-300)
            yield _check(name, f"{exact:.15g}", f"{got.value:.15g}", args.tol, rel <= args.tol)
    for theta in (0.2, 0.5, 0.7):
        ev = eval_K(theta, point)
        expected = det_k_closed_form(point)
        yield _check(
            f"quad/det_weight/theta{theta:.1f}",
            f"{expected:.15g}",
            f"{ev.det_k:.15g}",
            1e-10,
            abs(ev.det_k - expected) <= 1e-10,
        )


def _suite_asym(args: argparse.Namespace):
    from . import quad

    k0, k1 = parse_rational(args.k0), parse_rational(args.k1)
    small, large = 200, 800
    deviations = {}
    for n in (small, large):
        v1, v2 = hyper.asym_f_check(n, float(k0), float(k1))
        deviations[n] = (abs(v1 - 1.0), abs(v2 - 1.0))
        for label, value in (("f1", v1), ("f2", v2)):
            yield _check(
                f"asym/normalized_{label}/n{n}",
                "within [0.9, 1.1]",
                f"{value:.12g}",
                0.1,
                0.9 <= value <= 1.1,
            )
    yield _exact_check(
        "asym/normalized_f_improves",
        deviations[large][0] < deviations[small][0]
        and deviations[large][1] < deviations[small][1],
        got=f"{deviations[small]} -> {deviations[large]}",
    )
    ratios = {}
    for n in (small, large):
        num, asym = quad.asym_integral_check(0.25, -0.3, 0.2, n)
        ratios[n] = num / asym
        yield _check(
            f"asym/integral_ratio/n{n}",
            "1 within 10%",
            f"{ratios[n]:.12g}",
            0.1,
            abs(ratios[n] - 1.0) <= 0.1,
        )
    yield _exact_check(
        "asym/integral_ratio_improves",
        abs(ratios[large] - 1.0) < abs(ratios[small] - 1.0),
        got=f"{ratios[small]:.6g} -> {ratios[large]:.6g}",
    )
    a, b, c = Fraction(1, 2) + k1 + k0, Fraction(-1, 2) + k1 - k0, -k1
    holds = all(hyper.squeeze_check(n, a, b, c).chain_holds for n in (5, 20, 50))
    yield _exact_check("asym/squeeze_orderings", holds)
    ok = True
    for n in (10, 30, 50):
        lhs, rhs = hyper.chu_vandermonde(n, Fraction(1, 3))
        ok = ok and lhs == rhs
    yield _exact_check("asym/terminating_sum_identity", ok)


_QUAD, _ASYM = _in_region("quad", _suite_quad), _in_region("asym", _suite_asym)
_SUITES = {
    "exact": (_suite_exact,),
    "quad": (_QUAD,),
    "asym": (_ASYM,),
    "all": (_suite_exact, _QUAD, _ASYM),
}


# ---------------------------------------------------------------------------
# commands: each returns its output and exit code
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    start = time.perf_counter()
    checks = [row for suite in _SUITES[args.suite] for row in suite(args)]
    elapsed_s = time.perf_counter() - start
    checks.sort(key=lambda row: row["name"])
    passed = all(row["pass"] for row in checks)
    if args.fmt == "json":
        payload = {
            "suite": args.suite,
            "k0": args.k0,
            "k1": args.k1,
            "nmax": args.nmax,
            "tol": args.tol,
            "checks": checks,
            "overall_pass": passed,
            "elapsed_s": elapsed_s,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.fmt == "csv":
        rows = [
            (row["name"], row["expected"], row["got"], f"{row['tolerance']:g}", str(row["pass"]))
            for row in checks
        ]
        text = _csv(_CHECK_FIELDS, rows)
    else:
        lines = [f"suite: {args.suite}  (k0={args.k0}, k1={args.k1})"]
        for row in checks:
            status = "PASS" if row["pass"] else "FAIL"
            detail = f"expected {row['expected']}, got {row['got']}"
            lines.append(f"  [{status}] {row['name']}: {detail}")
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    return text, 0 if passed else 1


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    if args.k0 is None and args.k1 is None:
        params = (K0, K1)
    else:
        params = tuple(parse_rational(getattr(args, k) or _DEFAULTS[k]) for k in ("k0", "k1"))
    seq = hyper.alpha_beta_recurrence(args.nmax, *params)
    rows = []
    for n in range(args.nmax + 1):
        cells = (
            n,
            seq.alpha[n],
            seq.beta[n],
            hyper.s_inner_closed(n, "p12", *params),
            hyper.s_inner_closed(n, "p14", *params),
        )
        rows.append(tuple(str(cell) for cell in cells))
    if args.fmt == "csv":
        return _csv(_TABLE_FIELDS, rows), 0
    if args.fmt == "json":
        return json.dumps([dict(zip(_TABLE_FIELDS, row)) for row in rows], indent=2) + "\n", 0
    grid = [_TABLE_FIELDS, *rows]
    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in grid]
    return "\n".join(lines) + "\n", 0


def cmd_eval_k(args: argparse.Namespace) -> tuple[str, int]:
    from .weight import ParamPoint, eval_K

    k0, k1 = float(parse_rational(args.k0)), float(parse_rational(args.k1))
    ev = eval_K(args.theta, ParamPoint(k0, k1))
    payload = {
        "k0": k0,
        "k1": k1,
        "theta": args.theta,
        "u": ev.u,
        "L": [float(x) for x in ev.L.flatten()],
        "K": [float(ev.K[0, 0]), float(ev.K[0, 1]), float(ev.K[1, 1])],
        "d1": ev.d1,
        "d2": ev.d2,
        "detK": ev.det_k,
    }
    return json.dumps(payload, indent=2) + "\n", 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="b2weight",
        description="Verification suites and evaluations for the sector matrix weight.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run, nmax_default: int | None = None):
        for name in ("k0", "k1"):
            p.add_argument(
                f"--{name}", type=_rational_str, default=_DEFAULTS[name],
                help=f"parameter {name} (rational or decimal)",
            )
        if nmax_default is not None:
            p.add_argument("--nmax", type=_nonneg_int, default=nmax_default)
            p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        p.set_defaults(run=run)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("exact", "quad", "asym", "all"))
    common(p_verify, cmd_verify, nmax_default=6)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-8)

    p_table = sub.add_parser("table", help="tabulate the coefficient sequences")
    common(p_table, cmd_table, nmax_default=8)
    # symbolic unless a parameter is given
    p_table.set_defaults(k0=None, k1=None)

    p_eval = sub.add_parser("eval-k", help="evaluate the weight matrix at one angle")
    common(p_eval, cmd_eval_k)
    p_eval.add_argument("--theta", type=float, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a separate "-7/20" as an option: glue it to its flag
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--k0", "--k1") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except (RegionError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
