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
configuration except for the ``elapsed_s`` field.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO

from . import hyper, quad, vpoly
from .errors import RegionError, ToleranceError
from .ring import K0, K1
from .weight import ParamPoint, det_k_closed_form, eval_K

_EXACT_TOKEN = "identical"


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration; raw strings are kept for lossless echo.

    ``tol`` is None outside ``verify``; ``eval-k`` gets nmax 0 and fmt json."""

    suite: str
    k0_raw: str
    k1_raw: str
    k0: Fraction
    k1: Fraction
    nmax: int
    tol: float | None
    theta: float | None
    fmt: str
    out: str | None


@dataclass
class CheckRecord:
    name: str
    expected: str
    got: str
    tolerance: float
    passed: bool


@dataclass
class Report:
    suite: str
    config: RunConfig
    checks: list[CheckRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected: str, got: str, tolerance: float, passed: bool):
        self.checks.append(CheckRecord(name, expected, got, tolerance, passed))

    def add_exact(self, name: str, matched: bool, got: str = ""):
        self.add(
            name,
            _EXACT_TOKEN,
            _EXACT_TOKEN if matched else (got or "mismatch"),
            0.0,
            matched,
        )

    def finish(self) -> "Report":
        self.checks.sort(key=lambda c: c.name)
        return self

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "k0": self.config.k0_raw,
            "k1": self.config.k1_raw,
            "nmax": self.config.nmax,
            "tol": self.config.tol,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "got": c.got,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "overall_pass": self.overall_pass,
            "elapsed_s": self.elapsed_s,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_payload(), indent=2) + "\n"
        if fmt == "csv":
            buf = StringIO()
            buf.write("name,expected,got,tolerance,pass\n")
            for c in self.checks:
                expected = c.expected.replace(",", ";")
                got = c.got.replace(",", ";")
                buf.write(f"{c.name},{expected},{got},{c.tolerance:g},{c.passed}\n")
            return buf.getvalue()
        lines = [f"suite: {self.suite}  (k0={self.config.k0_raw}, k1={self.config.k1_raw})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: expected {c.expected}, got {c.got}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
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


def _rational_str(text: str) -> str:
    """Validate at parse time but keep the raw string for lossless echo."""
    parse_rational(text)
    return text


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_exact(report: Report, cfg: RunConfig) -> None:
    anchor = 1 + 2 * K1 + 2 * K0
    seq = hyper.alpha_beta_recurrence(cfg.nmax)
    for n in range(cfg.nmax + 1):
        report.add_exact(
            f"exact/recurrence_vs_closed/alpha/n{n:02d}",
            seq.alpha[n] == hyper.alpha_closed(n),
        )
        report.add_exact(
            f"exact/recurrence_vs_closed/beta/n{n:02d}",
            seq.beta[n] == hyper.beta_closed(n),
        )
        report.add_exact(
            f"exact/pairing_consistency/p12/n{n:02d}",
            hyper.s_inner_closed(n, "p12") == seq.alpha[n] * anchor,
        )
        report.add_exact(
            f"exact/pairing_consistency/p14/n{n:02d}",
            hyper.s_inner_closed(n, "p14") == seq.beta[n] * anchor,
        )
    for n in range(min(cfg.nmax, vpoly.OPERATOR_NMAX) + 1):
        alpha_scaled, beta_scaled = vpoly.alpha_beta_via_laplacian(n)
        report.add_exact(
            f"exact/operator_route/alpha/n{n:02d}",
            alpha_scaled == seq.alpha[n] * vpoly.alpha_prime_scale(n),
        )
        report.add_exact(
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
        report.add_exact(f"exact/product_rule/{f_name}*{g_name}", residual.is_zero())


def _suite_quad(report: Report, cfg: RunConfig) -> None:
    point = ParamPoint(float(cfg.k0), float(cfg.k1))
    if not point.positive_definite:
        report.add(
            "quad/region",
            "positive-definite parameters",
            f"({cfg.k0_raw}, {cfg.k1_raw})",
            0.0,
            False,
        )
        return
    for n in range(cfg.nmax + 1):
        for kind in ("p12", "p14"):
            exact = float(hyper.s_inner_closed(n, kind, cfg.k0, cfg.k1))
            name = f"quad/pairing_vs_closed/{kind}/n{n:02d}"
            try:
                got = quad.sector_inner_numeric(n, kind, point, tol=cfg.tol * 0.1)
            except (RegionError, ToleranceError) as exc:
                report.add(name, f"{exact:.15g}", f"error: {exc}", cfg.tol, False)
                continue
            rel = abs(got.value - exact) / max(abs(exact), 1e-300)
            report.add(name, f"{exact:.15g}", f"{got.value:.15g}", cfg.tol, rel <= cfg.tol)
    for theta in (0.2, 0.5, 0.7):
        ev = eval_K(theta, point)
        expected = det_k_closed_form(point)
        report.add(
            f"quad/det_weight/theta{theta:.1f}",
            f"{expected:.15g}",
            f"{ev.det_k:.15g}",
            1e-10,
            abs(ev.det_k - expected) <= 1e-10,
        )


def _suite_asym(report: Report, cfg: RunConfig) -> None:
    k0f, k1f = float(cfg.k0), float(cfg.k1)
    small, large = 200, 800
    deviations = {}
    for n in (small, large):
        v1, v2 = hyper.asym_f_check(n, k0f, k1f)
        deviations[n] = (abs(v1 - 1.0), abs(v2 - 1.0))
        for label, value in (("f1", v1), ("f2", v2)):
            report.add(
                f"asym/normalized_{label}/n{n}",
                "within [0.9, 1.1]",
                f"{value:.12g}",
                0.1,
                0.9 <= value <= 1.1,
            )
    report.add_exact(
        "asym/normalized_f_improves",
        deviations[large][0] < deviations[small][0]
        and deviations[large][1] < deviations[small][1],
        got=f"{deviations[small]} -> {deviations[large]}",
    )
    ratios = {}
    for n in (small, large):
        num, asym = quad.asym_integral_check(0.25, -0.3, 0.2, n)
        ratios[n] = num / asym
        report.add(
            f"asym/integral_ratio/n{n}",
            "1 within 10%",
            f"{ratios[n]:.12g}",
            0.1,
            abs(ratios[n] - 1.0) <= 0.1,
        )
    report.add_exact(
        "asym/integral_ratio_improves",
        abs(ratios[large] - 1.0) < abs(ratios[small] - 1.0),
        got=f"{ratios[small]:.6g} -> {ratios[large]:.6g}",
    )
    a, b, c = Fraction(1, 2) + cfg.k1 + cfg.k0, Fraction(-1, 2) + cfg.k1 - cfg.k0, -cfg.k1
    if 0 < a < 1 and -1 < b < 0 and c > -1:
        holds = all(hyper.squeeze_check(n, a, b, c).chain_holds for n in (5, 20, 50))
        report.add_exact("asym/squeeze_orderings", holds)
    ok = True
    for n in (10, 30, 50):
        lhs, rhs = hyper.chu_vandermonde(n, Fraction(1, 3))
        ok = ok and lhs == rhs
    report.add_exact("asym/terminating_sum_identity", ok)


_SUITES = {
    "exact": (_suite_exact,),
    "quad": (_suite_quad,),
    "asym": (_suite_asym,),
    "all": (_suite_exact, _suite_quad, _suite_asym),
}


def cmd_verify(cfg: RunConfig) -> tuple[Report, int]:
    start = time.perf_counter()
    report = Report(suite=cfg.suite, config=cfg)
    for suite_fn in _SUITES[cfg.suite]:
        suite_fn(report, cfg)
    report.elapsed_s = time.perf_counter() - start
    report.finish()
    return report, 0 if report.overall_pass else 1


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(cfg: RunConfig, symbolic: bool) -> str:
    params = (K0, K1) if symbolic else (cfg.k0, cfg.k1)
    seq = hyper.alpha_beta_recurrence(cfg.nmax, *params)
    rows = []
    for n in range(cfg.nmax + 1):
        cells = (
            seq.alpha[n],
            seq.beta[n],
            hyper.s_inner_closed(n, "p12", *params),
            hyper.s_inner_closed(n, "p14", *params),
        )
        rows.append([str(n)] + [str(cell) for cell in cells])
    header = ["n", "alpha", "beta", "s_p12", "s_p14"]
    if cfg.fmt == "csv":
        out = [",".join(header)]
        for row in rows:
            out.append(",".join(cell.replace(",", ";") for cell in row))
        return "\n".join(out) + "\n"
    if cfg.fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(5)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eval-k
# ---------------------------------------------------------------------------


def cmd_eval_k(cfg: RunConfig) -> str:
    point = ParamPoint(float(cfg.k0), float(cfg.k1))
    ev = eval_K(cfg.theta, point)
    payload = {
        "k0": float(cfg.k0),
        "k1": float(cfg.k1),
        "theta": cfg.theta,
        "u": ev.u,
        "L": [float(x) for x in ev.L.flatten()],
        "K": [float(ev.K[0, 0]), float(ev.K[0, 1]), float(ev.K[1, 1])],
        "d1": ev.d1,
        "d2": ev.d2,
        "detK": ev.det_k,
    }
    return json.dumps(payload, indent=2) + "\n"


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

    def common(p: argparse.ArgumentParser, nmax_default: int | None = None):
        for name in ("k0", "k1"):
            p.add_argument(
                f"--{name}", type=_rational_str, default=None,
                help=f"parameter {name} (rational or decimal)",
            )
        if nmax_default is not None:
            p.add_argument("--nmax", type=_nonneg_int, default=nmax_default)
            p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("exact", "quad", "asym", "all"))
    common(p_verify, nmax_default=6)
    p_verify.add_argument("--tol", type=float, default=1e-8)

    p_table = sub.add_parser("table", help="tabulate the coefficient sequences")
    common(p_table, nmax_default=8)

    p_eval = sub.add_parser("eval-k", help="evaluate the weight matrix at one angle")
    common(p_eval)
    p_eval.add_argument("--theta", type=float, required=True)

    return parser


def _config_from_args(args: argparse.Namespace, suite: str) -> RunConfig:
    k0_raw = args.k0 if args.k0 is not None else "3/10"
    k1_raw = args.k1 if args.k1 is not None else "1/10"
    return RunConfig(
        suite=suite,
        k0_raw=k0_raw,
        k1_raw=k1_raw,
        k0=parse_rational(k0_raw),
        k1=parse_rational(k1_raw),
        nmax=getattr(args, "nmax", 0),
        tol=getattr(args, "tol", None),
        theta=getattr(args, "theta", None),
        fmt=getattr(args, "fmt", "json"),
        out=args.out,
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a separate "-7/20" as an option: glue it to its flag
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--k0", "--k1") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _config_from_args(args, args.suite)
            report, code = cmd_verify(cfg)
            _emit(report.render(cfg.fmt), cfg.out)
            return code
        if args.command == "table":
            symbolic = args.k0 is None and args.k1 is None
            cfg = _config_from_args(args, "table")
            _emit(cmd_table(cfg, symbolic), cfg.out)
            return 0
        cfg = _config_from_args(args, "eval-k")
        _emit(cmd_eval_k(cfg), cfg.out)
        return 0
    except (RegionError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
