"""The three workloads, each a function that returns an endless iterator of
rounds of tasks.

A task is one call into the program's public API and the check of its output
against the references in ``checks``.  A round is the unit the runner repeats
until the run's time is up; every round of a workload has the same make-up,
so a run of any length keeps the same mix of work.  All inputs come from the
``random.Random`` passed in, which the runner seeds from ``--seed``.

* ``exact-symbolic``: one round is one pass of the exact identities: the
  recurrence to order SYMBOLIC_N, the four closed forms at each n <= N (one
  task each), the operator route at n <= OPERATOR_N and the four
  product-rule pairs of ``verify exact``.  The program's alpha_N and beta_N
  are also evaluated at fresh seeded rational points each round.  These
  identities have no input but n, so every round makes the same calls; it
  runs in a fresh interpreter (FRESH_ROUNDS), where no memo of an earlier
  round can stand in for its work.
* ``point-table``: one round is one ``table --format csv`` call through the
  CLI at a fresh seeded rational point.
* ``quad-sweep``: one round is one parameter point: every pairing for n <=
  QUAD_N of both kinds in mode ``h`` and ``eval_K`` at EVAL_K_ANGLES seeded
  angles, plus the pairings n in DIRECT_NS of both kinds in mode ``direct``
  at DIRECT_POINT.  The first three rounds are the fixed points of
  BOUNDARY_POINTS; the rest are fresh seeded points.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import checks
from b2weight import cli, hyper, quad, vpoly, weight

SYMBOLIC_N = 10
OPERATOR_N = 4
SYMBOLIC_POINTS = 3
TABLE_N = 8
QUAD_N = 20
EVAL_K_ANGLES = 6
# Mode direct raises ToleranceError here today for n = 1 p14 and n = 2 p12
# and p14 (see CHANGES.md); n = 1 p12 passes.  A fixed point makes that 3 of
# every round's tasks on every seed, so a fix shows as `failed` dropping.
# Seeded points cannot be used: direct fails at some of them only.
DIRECT_POINT = (Fraction(1, 60), Fraction(13, 31))
DIRECT_NS = (1, 2)
# (9/20, 0) and (0, 9/20) are the near-boundary points of acceptance
# criterion 04.  At (-9/20, 0) the n = 0 pairings need the largest
# Gauss-Jacobi rule of the region (768 nodes, about 9 MB more peak memory);
# with it fixed, every run reaches the same peak instead of only the runs
# whose seeded points come near k0 = -9/20.
BOUNDARY_POINTS = (
    (Fraction(9, 20), Fraction(0)),
    (Fraction(0), Fraction(9, 20)),
    (Fraction(-9, 20), Fraction(0)),
)


@dataclass(frozen=True)
class Task:
    call: Callable[[], object]
    # returns None when the output is right, else a reason; may add to the counter
    check: Callable[[object, Counter], str | None]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rational(rng, low: Fraction, high: Fraction) -> Fraction:
    """A rational in (low, high) with denominator between 10 and 60."""
    den = rng.randint(10, 60)
    lo = math.floor(low * den) + 1
    hi = math.ceil(high * den) - 1
    return Fraction(rng.randint(lo, hi), den)


def seeded_points(rng) -> Iterator[tuple[Fraction, Fraction]]:
    """Distinct rational points with |k0 + k1|, |k0 - k1| <= 9/20 and k0, k1 != 0.

    9/20 keeps the seeded points inside the near-boundary points' margin, and
    zero parameters are left to the fixed points (k0 = 0 makes two of the four
    h series terminate, which would change the cost of one round).
    """
    seen = set()
    limit = Fraction(9, 20)
    while True:
        k0 = _rational(rng, -limit, limit)
        k1 = _rational(rng, -limit, limit)
        if k0 == 0 or k1 == 0 or abs(k0 + k1) > limit or abs(k0 - k1) > limit:
            continue
        if (k0, k1) not in seen:
            seen.add((k0, k1))
            yield k0, k1


# ---------------------------------------------------------------------------
# exact-symbolic
# ---------------------------------------------------------------------------


def _product_rule_pairs():
    phi_sq = vpoly.PHI * vpoly.PHI
    phi_p14 = vpoly.P14.scale_x(vpoly.PHI)
    return (
        ("radius_sq*p12", vpoly.RADIUS_SQ, vpoly.P12),
        ("phi_sq*p12", phi_sq, vpoly.P12),
        ("phi_sq*phi_p14", phi_sq, phi_p14),
        ("radius_4*phi_p14", vpoly.RADIUS_SQ * vpoly.RADIUS_SQ, phi_p14),
    )


def exact_symbolic(rng) -> Iterator[list[Task]]:
    # the references and the product-rule inputs are built here, before the
    # runner starts timing or tracing
    alpha_ref, beta_ref = checks.symbolic_recurrence(SYMBOLIC_N)
    p12_ref = [checks.times_anchor(a) for a in alpha_ref]
    p14_ref = [checks.times_anchor(b) for b in beta_ref]
    pairs = _product_rule_pairs()
    points = seeded_points(rng)

    def recurrence() -> Task:
        at = [next(points) for _ in range(SYMBOLIC_POINTS)]
        values = [checks.recurrence_at(k0, k1, SYMBOLIC_N) for k0, k1 in at]

        def check(seq, _notes) -> str | None:
            for n in range(SYMBOLIC_N + 1):
                problem = checks.check_terms(
                    f"recurrence alpha n{n}", checks.terms_of(seq.alpha[n]), alpha_ref[n]
                ) or checks.check_terms(f"recurrence beta n{n}", checks.terms_of(seq.beta[n]), beta_ref[n])
                if problem:
                    return problem
            return checks.check_at_points(
                f"alpha n{SYMBOLIC_N}", checks.terms_of(seq.alpha[-1]), at, [a[-1] for a, _ in values]
            ) or checks.check_at_points(
                f"beta n{SYMBOLIC_N}", checks.terms_of(seq.beta[-1]), at, [b[-1] for _, b in values]
            )

        return Task(lambda: hyper.alpha_beta_recurrence(SYMBOLIC_N), check)

    def closed_forms(n: int) -> list[Task]:
        calls = (
            ("alpha_closed", lambda: hyper.alpha_closed(n), alpha_ref[n]),
            ("beta_closed", lambda: hyper.beta_closed(n), beta_ref[n]),
            ("s_inner_closed p12", lambda: hyper.s_inner_closed(n, "p12"), p12_ref[n]),
            ("s_inner_closed p14", lambda: hyper.s_inner_closed(n, "p14"), p14_ref[n]),
        )
        return [
            Task(call, lambda poly, _notes, label=label, want=want: checks.check_terms(f"{label} n{n}", checks.terms_of(poly), want))
            for label, call, want in calls
        ]

    def check_operator(n: int):
        alpha_scale, beta_scale = checks.operator_scales(n)

        def check(got, _notes) -> str | None:
            alpha_scaled, beta_scaled = got
            return checks.check_terms(
                f"operator alpha n{n}", checks.terms_of(alpha_scaled), checks.scaled(alpha_ref[n], alpha_scale)
            ) or checks.check_terms(
                f"operator beta n{n}", checks.terms_of(beta_scaled), checks.scaled(beta_ref[n], beta_scale)
            )

        return check

    def product_rule(label, f, g):
        return Task(
            lambda: vpoly.product_rule_residual(f, g),
            lambda residual, _notes: checks.check_zero(f"product rule {label}", residual),
        )

    same_every_round = [task for n in range(SYMBOLIC_N + 1) for task in closed_forms(n)]
    for n in range(OPERATOR_N + 1):
        same_every_round.append(Task(lambda n=n: vpoly.alpha_beta_via_laplacian(n), check_operator(n)))
    same_every_round += [product_rule(label, f, g) for label, f, g in pairs]
    return ([recurrence()] + same_every_round for _ in itertools.count())


# ---------------------------------------------------------------------------
# point-table
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def point_table(rng) -> Iterator[list[Task]]:
    return (_table_round(k0, k1) for k0, k1 in seeded_points(rng))


def _table_round(k0: Fraction, k1: Fraction) -> list[Task]:
    # the --k0=p form: argparse reads a separate "-7/20" as an option
    argv = ["table", f"--k0={k0}", f"--k1={k1}", "--nmax", str(TABLE_N), "--format", "csv"]

    def check(result, _notes) -> str | None:
        code, text = result
        if code != 0:
            return f"table ({k0}, {k1}): exit code {code}"
        return checks.check_table_csv(text, k0, k1, TABLE_N)

    return [Task(lambda: _run_cli(argv), check)]


# ---------------------------------------------------------------------------
# quad-sweep
# ---------------------------------------------------------------------------


def _pairings(k0: Fraction, k1: Fraction, ns, mode: str, rel_tol: float) -> list[Task]:
    """Both kinds of sector pairing for each n in ``ns`` at one point."""
    point = weight.ParamPoint(float(k0), float(k1))
    p12, p14 = checks.pairings_at(k0, k1, max(ns))

    def pairing(n: int, kind: str) -> Task:
        exact = p12[n] if kind == "p12" else p14[n]

        def check(result, notes: Counter) -> str | None:
            if abs(result.value - float(exact)) > result.error_estimate:
                notes["estimate_exceeded"] += 1
            return checks.check_pairing(f"{mode} {kind} n{n} at ({k0}, {k1})", result.value, exact, rel_tol)

        return Task(lambda: quad.sector_inner_numeric(n, kind, point, mode=mode), check)

    return [pairing(n, kind) for n in ns for kind in ("p12", "p14")]


def _quad_round(rng, k0: Fraction, k1: Fraction, rel_tol: float) -> list[Task]:
    point = weight.ParamPoint(float(k0), float(k1))

    def weight_at(theta: float) -> Task:
        return Task(
            lambda: weight.eval_K(theta, point),
            lambda ev, _notes: checks.check_det(f"eval_K theta={theta!r} at ({k0}, {k1})", ev.K, point.k0, point.k1),
        )

    tasks = _pairings(k0, k1, range(QUAD_N + 1), "h", rel_tol)
    tasks += [weight_at(rng.uniform(0.01, math.pi / 4 - 0.01)) for _ in range(EVAL_K_ANGLES)]
    return tasks


def quad_sweep(rng) -> Iterator[list[Task]]:
    direct = _pairings(*DIRECT_POINT, DIRECT_NS, "direct", checks.PAIRING_REL_TOL)
    points = itertools.chain(
        ((k0, k1, checks.BOUNDARY_REL_TOL) for k0, k1 in BOUNDARY_POINTS),
        ((k0, k1, checks.PAIRING_REL_TOL) for k0, k1 in seeded_points(rng)),
    )
    return (_quad_round(rng, k0, k1, rel_tol) + direct for k0, k1, rel_tol in points)


# One small call on each workload's path, made after the import when set-up
# is measured, so that set-up work deferred to the first call still counts.
FIRST_CALL = {
    "exact-symbolic": "b2weight.alpha_closed(1); b2weight.alpha_beta_via_laplacian(0)",
    "point-table": "import b2weight.cli; b2weight.cli.main(['table', '--k0=1/3', '--k1=1/5', '--nmax', '1', '--format', 'csv'])",
    "quad-sweep": "b2weight.sector_inner_numeric(0, 'p12', b2weight.ParamPoint(0.2, 0.1)); "
    "b2weight.eval_K(0.3, b2weight.ParamPoint(0.2, 0.1))",
}

# workloads whose every round runs in a fresh interpreter (see run.run_in_child)
FRESH_ROUNDS = {"exact-symbolic"}

WORKLOADS = {
    "exact-symbolic": exact_symbolic,
    "point-table": point_table,
    "quad-sweep": quad_sweep,
}
