"""Command-line contract: exit codes, report formats, determinism."""

import ast
import functools
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import b2weight
from b2weight.cli import build_parser, main, parse_rational
from b2weight.hyper import alpha_beta_recurrence, s_inner_closed
from b2weight.ring import K0, K1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_accepts_both_notations():
    assert parse_rational("3/10") == Fraction(3, 10)
    assert parse_rational("0.3") == Fraction(3, 10)
    assert parse_rational("-1/4") == Fraction(-1, 4)


def test_verify_exact_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "exact", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["suite"] == "exact"
    assert all(check["pass"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    assert names == sorted(names)


def test_verify_quad_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "quad", "--k0", "0.3", "--k1", "0.1",
        "--nmax", "2", "--tol", "1e-8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["k0"] == "0.3" and payload["k1"] == "0.1"


def test_verify_quad_fails_outside_region(capsys):
    code, out, _ = run_cli(capsys, "verify", "quad", "--k0", "0.3", "--k1", "0.3")
    assert code == 1
    payload = json.loads(out)
    assert payload["overall_pass"] is False


@pytest.mark.parametrize("k0, k1", [("0.3", "0.3"), ("1/4", "0.24999999999999999999")])
def test_verify_all_outside_region_keeps_its_report(capsys, k0, k1):
    # the second point is inside the region as rationals, outside as floats
    code, out, _ = run_cli(capsys, "verify", "all", "--k0", k0, "--k1", k1, "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    exact = [c for c in checks if c["name"].startswith("exact/")]
    assert exact and all(c["pass"] is True for c in exact)
    rest = [c for c in checks if not c["name"].startswith("exact/")]
    assert rest == [
        {
            "name": f"{suite}/region",
            "expected": "positive-definite parameters",
            "got": f"({k0}, {k1})",
            "tolerance": 0.0,
            "pass": False,
        }
        for suite in ("asym", "quad")
    ]


def test_verify_tol_must_lie_between_0_and_1(capsys):
    for tol in ("inf", "nan", "0", "-1", "1", "1e300"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "quad", "--nmax", "0", "--tol", tol])
        assert exc.value.code == 2, tol
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "verify", "quad", "--nmax", "0", "--tol", "1e-8")
    assert code == 0 and json.loads(out)["tol"] == 1e-8


def _refuse_p14(monkeypatch):
    """Make mode h refuse the p14 pairings: their rule families (h_i h_j
    with i != j) get an infinite error term, which ``quad._refine`` raises on."""
    from b2weight import quad

    rule = quad._h_rule

    def refusing(k0, k1, i, j, *args):
        *arrays, bound = rule(k0, k1, i, j, *args)
        return (*arrays, bound if i == j else np.full_like(bound, np.inf))

    monkeypatch.setattr(quad, "_h_rule", refusing)


def test_verify_quad_reports_a_pairing_error_in_its_row(capsys, monkeypatch):
    _refuse_p14(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "quad", "--k0", "4999/10000", "--k1", "0", "--nmax", "0"
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks.pop("quad/pairing_vs_closed/p14/n00")["got"].startswith("error: ")
    assert sorted(checks) == [
        "quad/det_weight/theta0.2",
        "quad/det_weight/theta0.5",
        "quad/det_weight/theta0.7",
        "quad/pairing_vs_closed/p12/n00",
    ]
    assert all(c["pass"] is True for c in checks.values())


@pytest.mark.parametrize("k0", ["0.4999999999", "-0.4999999999"])
def test_verify_quad_compares_with_the_closed_form_at_the_float_point(capsys, k0):
    # the pairing is computed at float(k0); the closed form at the decimal
    # rational k0 differs from it by 8e-8 relative on p14 at n = 0
    code, out, _ = run_cli(capsys, "verify", "quad", f"--k0={k0}", "--k1=0", "--nmax", "20")
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 45
    assert all(c["pass"] is True for c in checks), [c["name"] for c in checks if not c["pass"]]


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 15: a pairing row holds a value near 2e-4 to tol relative, "
    "though it is computed to tol absolute; p14 n00 is 1.45e-12 off relative",
)
def test_verify_quad_passes_at_a_tight_tol_where_a_pairing_is_small(capsys):
    argv = ["--k0", "4999/10000", "--k1", "0", "--nmax", "0", "--tol", "1e-13"]
    code, out, _ = run_cli(capsys, "verify", "quad", *argv)
    assert code == 0, [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]


_ASYM_NAMES = [
    "asym/normalized_f1/n200",
    "asym/normalized_f1/n800",
    "asym/normalized_f2/n200",
    "asym/normalized_f2/n800",
    "asym/normalized_f_improves",
    "asym/squeeze_orderings",
    "asym/terminating_sum_identity",
]


def test_verify_asym_passes(capsys):
    # on the line k1 = 0 both normalized values are exactly 1 at every n
    for k0, k1 in (("0.2", "0.1"), ("0.2", "0"), ("0", "0"), ("-0.2", "0.25"), ("0.15", "0.1")):
        code, out, _ = run_cli(capsys, "verify", "asym", "--k0", k0, "--k1", k1)
        assert code == 0, (k0, k1)
        payload = json.loads(out)
        assert payload["overall_pass"] is True
        assert [c["name"] for c in payload["checks"]] == _ASYM_NAMES


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 1: the Stirling normalizer misses an n^-(1+2k1) term; at n = 200 "
    "and 800 f1 reads 1.4828 and 1.4209, f2 0.5175 and 0.5792",
)
def test_verify_asym_passes_at_k1_minus_9_20(capsys):
    code, out, _ = run_cli(capsys, "verify", "asym", "--k0=0", "--k1=-9/20")
    assert code == 0, [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]


def test_verify_asym_rows_are_about_the_given_point(capsys):
    reports = [
        json.loads(run_cli(capsys, "verify", "asym", "--k0", k0, "--k1", k1)[1])["checks"]
        for k0, k1 in (("0.2", "0.1"), ("-0.2", "0.25"))
    ]
    assert [c["name"] for c in reports[0]] == [c["name"] for c in reports[1]] == _ASYM_NAMES
    assert not any(c["name"].startswith("asym/integral_ratio") for c in reports[0] + reports[1])
    # the normalized values are computed at the point the report names
    assert reports[0][0]["got"] != reports[1][0]["got"]


def test_verify_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "exact", "--nmax", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "exact", "--k0", "abc"])
    assert exc.value.code == 2


def test_verify_json_deterministic_modulo_timing(capsys):
    _, out1, _ = run_cli(capsys, "verify", "exact", "--nmax", "3")
    _, out2, _ = run_cli(capsys, "verify", "exact", "--nmax", "3")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_s")
    p2.pop("elapsed_s")
    assert json.dumps(p1) == json.dumps(p2)


def test_verify_csv_and_text_formats(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "exact", "--nmax", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,expected,got,tolerance,pass"
    code, out, _ = run_cli(
        capsys, "verify", "exact", "--nmax", "1", "--format", "text"
    )
    assert code == 0
    assert "overall: PASS" in out


_EXACT_N00_NAMES = [
    "exact/operator_route/alpha/n00",
    "exact/operator_route/beta/n00",
    "exact/pairing_consistency/p12/n00",
    "exact/pairing_consistency/p14/n00",
    "exact/product_rule/phi_sq*p12",
    "exact/product_rule/phi_sq*phi_p14",
    "exact/product_rule/radius_4*phi_p14",
    "exact/product_rule/radius_sq*p12",
    "exact/recurrence_vs_closed/alpha/n00",
    "exact/recurrence_vs_closed/beta/n00",
]


def test_verify_csv_and_text_reports_are_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "exact", "--nmax", "0", "--format", "csv")
    assert code == 0
    assert out == "name,expected,got,tolerance,pass\n" + "".join(
        f"{name},identical,identical,0,True\n" for name in _EXACT_N00_NAMES
    )
    code, out, _ = run_cli(capsys, "verify", "exact", "--nmax", "0", "--format", "text")
    assert code == 0
    assert out == (
        "suite: exact  (k0=3/10, k1=1/10)\n"
        + "".join(
            f"  [PASS] {name}: expected identical, got identical\n" for name in _EXACT_N00_NAMES
        )
        + "overall: PASS\n"
    )


def test_verify_json_key_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "exact", "--nmax", "0", "--k0=-7/20")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "suite", "k0", "k1", "nmax", "tol", "checks", "overall_pass", "elapsed_s",
    ]
    assert [payload[key] for key in ("suite", "k0", "k1", "nmax", "tol")] == [
        "exact", "-7/20", "1/10", 0, 1e-8,
    ]
    assert [list(check) for check in payload["checks"]] == [
        ["name", "expected", "got", "tolerance", "pass"]
    ] * len(_EXACT_N00_NAMES)
    assert payload["checks"][0] == {
        "name": _EXACT_N00_NAMES[0],
        "expected": "identical",
        "got": "identical",
        "tolerance": 0.0,
        "pass": True,
    }


def test_verify_csv_error_and_region_rows(capsys, monkeypatch):
    _refuse_p14(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "quad", "--k0", "4999/10000", "--k1", "0", "--nmax", "0",
        "--format", "csv",
    )
    assert code == 1
    rows = out.splitlines()
    # a comma inside a cell is written as ';'
    # the closed form at float(4999/10000), the point the pairing is computed at
    prefix = (
        "quad/pairing_vs_closed/p14/n00,-0.000199979999999978,"
        "error: Gauss-Jacobi rule of 24 nodes gave "
    )
    assert rows[-1].startswith(prefix) and rows[-1].endswith("; error term inf,1e-08,False")
    assert all(len(row.split(",")) == 5 for row in rows)
    code, out, _ = run_cli(
        capsys, "verify", "quad", "--k0", "0.3", "--k1", "0.3", "--format", "csv"
    )
    assert code == 1
    assert out == (
        "name,expected,got,tolerance,pass\n"
        "quad/region,positive-definite parameters,(0.3; 0.3),0,False\n"
    )


def test_table_symbolic_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--nmax", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,alpha,beta,s_p12,s_p14"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"


def test_table_rational_substitution(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k0", "0", "--k1", "0", "--nmax", "1", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][1] == "1"
    assert rows[1][1] == "1/2"  # the Wallis value at n = 1


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("table", "--nmax", "12", "--format", "csv"),
            "40d1a4ebf5d3855c1d038f2d144a23f292cd106d4ad1f39609125a0fbc932033",
        ),
        (
            ("table", "--nmax", "12", "--k0=-7/20", "--k1=2/25", "--format", "csv"),
            "c054d3f92bdaaa34715d60d8518e0f8808328228fce605295de71381af10db62",
        ),
    ],
    ids=["symbolic", "at-a-point"],
)
def test_table_csv_is_pinned_by_its_sha256(capsys, argv, digest):
    # every printed coefficient of the first 13 rows, symbolic and at a point
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "option, point", [("--k0=1/4", (Fraction(1, 4), K1)), ("--k1=-2/25", (K0, Fraction(-2, 25)))]
)
def test_table_an_omitted_parameter_stays_symbolic(capsys, option, point):
    # one parameter given: rows in Q[k1] (or Q[k0]), the library's results
    # with the other parameter left symbolic
    code, out, _ = run_cli(capsys, "table", option, "--nmax", "2", "--format", "csv")
    assert code == 0
    seq = alpha_beta_recurrence(2, *point)
    want = [
        [str(n), str(seq.alpha[n]), str(seq.beta[n])]
        + [str(s_inner_closed(n, kind, *point)) for kind in ("p12", "p14")]
        for n in range(3)
    ]
    assert [line.split(",") for line in out.splitlines()[1:]] == want


def test_table_accepts_negative_rational_as_separate_value(capsys):
    code, joined, _ = run_cli(capsys, "table", "--k0=-7/20", "--k1=2/25", "--format", "csv")
    assert code == 0
    code, separate, _ = run_cli(capsys, "table", "--k0", "-7/20", "--k1", "2/25", "--format", "csv")
    assert code == 0
    assert separate == joined
    code, out, _ = run_cli(capsys, "table", "--k1", "-2/25", "--k0", "-.35", "--format", "csv")
    assert code == 0
    assert out == run_cli(capsys, "table", "--k1=-2/25", "--k0=-.35", "--format", "csv")[1]


def test_table_json_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--nmax", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["alpha"] == "1"


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--nmax", "1", "--format", "text")
    assert code == 0
    assert [line.rstrip() for line in out.splitlines()] == [
        "n  alpha" + " " * 40 + "beta" + " " * 106 + "s_p12" + " " * 86 + "s_p14",
        "0  1" + " " * 44 + "-1/2 + k0 - k1"
        + " " * 96 + "1 + 2*k0 + 2*k1" + " " * 76 + "-1/2 - 2*k1 + 2*k0^2 - 2*k1^2",
        "1  1/2 - 2/3*k0 + 2/3*k1 - 2/3*k0^2 + 2/3*k1^2  -3/8 + 3/4*k0 - 11/12*k1"
        " + 1/6*k0^2 + 1/3*k0*k1 - 1/2*k1^2 - 1/3*k0^3 + 1/3*k0^2*k1 + 1/3*k0*k1^2"
        " - 1/3*k1^3  1/2 + 1/3*k0 + 5/3*k1 - 2*k0^2 + 2*k1^2 - 4/3*k0^3"
        " - 4/3*k0^2*k1 + 4/3*k0*k1^2 + 4/3*k1^3  -3/8 - 5/3*k1 + 5/3*k0^2"
        " - 7/3*k1^2 + 4/3*k0^2*k1 - 4/3*k1^3 - 2/3*k0^4 + 4/3*k0^2*k1^2 - 2/3*k1^4",
    ]


def test_options_a_command_does_not_read_are_usage_errors():
    for argv in (
        ["eval-k", "--theta", "0.5", "--format", "csv"],
        ["eval-k", "--theta", "0.5", "--nmax", "7"],
        ["eval-k", "--theta", "0.5", "--tol", "3"],
        ["table", "--tol", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_back_to_back_main_calls_do_not_share_state(capsys):
    # main parses with one parser built once; no option of a call may reach
    # the next, so each call prints the same whatever ran before it
    calls = [
        ("table", "--k0=-7/20", "--k1=2/25", "--nmax", "2", "--format", "csv"),
        ("eval-k", "--k0", "1/5", "--theta", "0.3"),
        ("table", "--nmax", "1"),
        ("verify", "exact", "--nmax", "1", "--k1", "1/7", "--format", "text"),
        ("table",),
    ]
    forward = {argv: run_cli(capsys, *argv) for argv in calls}
    backward = {argv: run_cli(capsys, *argv) for argv in reversed(calls)}
    assert forward == backward
    assert all(code == 0 for code, _, _ in forward.values())
    symbolic = json.loads(forward["table", "--nmax", "1"][1])
    assert len(symbolic) == 2 and "k0" in symbolic[1]["alpha"]  # no point left over
    assert len(json.loads(forward["table",][1])) == 9  # the default nmax, 8
    assert build_parser() is build_parser()


def test_eval_k_payload(capsys):
    code, out, _ = run_cli(
        capsys, "eval-k", "--k0", "0", "--k1", "0", "--theta", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    inv_2pi = 1 / (2 * math.pi)
    assert payload["K"][0] == pytest.approx(inv_2pi, abs=1e-14)
    assert payload["K"][1] == pytest.approx(0.0, abs=1e-14)
    assert payload["K"][2] == pytest.approx(inv_2pi, abs=1e-14)
    assert len(payload["L"]) == 4
    k11, k12, k22 = payload["K"]
    assert payload["detK"] == pytest.approx(k11 * k22 - k12 * k12, abs=1e-12)


def test_eval_k_matches_determinant_formula(capsys):
    code, out, _ = run_cli(
        capsys, "eval-k", "--k0", "0.3", "--k1", "0.1", "--theta", "0.4"
    )
    assert code == 0
    payload = json.loads(out)
    expected = math.cos(0.4 * math.pi) * math.cos(0.2 * math.pi) / (4 * math.pi**2)
    assert payload["detK"] == pytest.approx(expected, abs=1e-12)


def test_eval_k_region_failures_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "eval-k", "--k0", "0.3", "--k1", "0.1", "--theta", "1.0"
    )
    assert code == 1 and "error" in err
    code, _, err = run_cli(
        capsys, "eval-k", "--k0", "0.3", "--k1", "0.3", "--theta", "0.4"
    )
    assert code == 1 and "error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "exact", "--nmax", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["overall_pass"] is True


def test_exact_routes_leave_scipy_unimported():
    """numpy is imported on the first float computation; the exact routes and
    commands, ``verify asym`` and the region flags do not load it, and no
    route loads scipy: neither rule of mode "h" or "direct" nor
    ``singular_integral``."""
    script = (
        "import sys, contextlib, io, b2weight\n"
        "from b2weight import cli\n"
        "def loaded():\n"
        "    print(*(name in sys.modules for name in ('numpy', 'scipy')))\n"
        "b2weight.alpha_closed(3), b2weight.beta_closed(2), b2weight.s_inner_closed(4, 'p14', 1, -1)\n"
        "b2weight.alpha_beta_recurrence(3), b2weight.alpha_beta_via_laplacian(2)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['table', '--nmax', '4'])\n"
        "    cli.main(['table', '--nmax', '4', '--k0=-7/20', '--k1=2/25'])\n"
        "    cli.main(['verify', 'exact', '--nmax', '4'])\n"
        "    cli.main(['verify', 'asym'])\n"
        "b2weight.ParamPoint(0.1, 0.1).positive_definite\n"
        "loaded()\n"
        "b2weight.eval_K(0.3, b2weight.ParamPoint(0.2, 0.1))\n"
        "loaded()\n"
        "b2weight.singular_integral(0.5, -0.5, lambda v: v)\n"
        "b2weight.sector_inner_numeric(3, 'p14', b2weight.ParamPoint(0.3, 0.1))\n"
        "b2weight.sector_inner_numeric(2, 'p12', b2weight.ParamPoint(0.3, 0.1), mode='direct')\n"
        "loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(b2weight.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["False False", "True False", "True False"]


PUBLIC_NAMES = [
    "AlphaBetaSeq", "DegenerateParameterError", "GroupElement", "HypResult",
    "InexactDivisionError", "InvarianceError", "NotProportionalError", "P12", "P14",
    "PHI", "ParamPoint", "ParamPoly", "QuadResult", "RegionError", "SqueezeReport",
    "ToleranceError", "VPoly", "WeightEval", "XPoly", "alpha_beta_recurrence",
    "alpha_beta_via_laplacian", "alpha_closed", "asym_f_check", "beta_closed", "c_norm",
    "chu_vandermonde", "d_consts", "dunkl_d", "euler_transform", "eval_K", "eval_L",
    "f_values", "gamma_fn", "gauss_2f1", "group_act", "h_func", "laplacian",
    "laplacian_power", "poch", "poly_eval", "product_rule_residual", "s_inner_closed",
    "sector_inner_numeric", "singular_integral", "squeeze_check", "__version__",
]


def test_public_names_resolve_through_their_modules():
    from b2weight import hyper, quad, weight

    assert b2weight.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from b2weight import *", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)
    # the float modules' names are looked up on each access, never cached
    assert b2weight.eval_K is weight.eval_K and b2weight.singular_integral is quad.singular_integral
    assert "eval_K" not in vars(b2weight) and "QuadResult" not in vars(b2weight)
    # the region flags live in hyper, which loads no numpy
    assert b2weight.ParamPoint is weight.ParamPoint is hyper.ParamPoint
    with pytest.raises(AttributeError):
        b2weight.no_such_name


# the functions and methods written in src/b2weight that neither the probed
# commands nor a round of each benchmark workload call, each kept for one
# reason; one that no caller needs is deleted instead
KEPT = {
    # references the tests check the program against
    "hyper.gauss_2f1": "the subject of the Hypothesis oracle test; the program sums series in batches",
    "hyper.h_func": 'the per-node reference of mode "h" and of the h-products of L\'s entries',
    "hyper.euler_transform": "acceptance criterion 10 compares the Gauss series against it",
    "hyper._gauss_sum": "the z = 1 branch of the series rows, which only gauss_2f1 at z = 1 reaches",
    "hyper._recip_gamma": "_gauss_sum's reciprocal gammas, and the reference of _recip_gamma_pair",
    "vpoly.dunkl_d": "the first-order operators the Laplacian's closed form is tested against",
    "vpoly.VPoly.component": "dunkl_d splits its argument into the two slots with it",
    "vpoly.VPoly.from_components": "dunkl_d joins its two slots into its result with it",
    "vpoly.group_act": "the group action the Laplacian's equivariance is tested with",
    # targets of bench/tracer.py, whose per-layer metrics BENCHMARK.json names
    "quad.singular_integral": "bench/tracer.py traces it, and acceptance criterion 09 tests it",
    "ring.poly_eval": "bench/tracer.py traces it as ring.poly_eval",
    "ring.ParamPoly.__sub__": "bench/tracer.py traces it as ring.sub",
    "ring.ParamPoly.__truediv__": "bench/tracer.py traces it as ring.div",
    "ring.ParamPoly.__pow__": "bench/tracer.py traces it as ring.pow",
    # Python protocol
    "ring.ParamPoly.__repr__": "error messages show polynomials with !r",
    "vpoly._XForm.__repr__": "error messages show polynomials with !r",
    "ring.SparsePoly.__bool__": "the truth value of a polynomial, nonzero or not",
    "ring.SparsePoly.__hash__": "equal values hash equal, so they can key a dict or a set",
    "ring.ParamPoly.__rsub__": "a scalar minus a ParamPoly",
}

# small versions of the commands that cover every report: in and outside the
# region, at a point within 1e-10 of its edge, and at a tight tolerance
PROBED_COMMANDS = [
    ["verify", "all", "--nmax", "2"],
    ["verify", "all", "--k0", "0.3", "--k1", "0.3"],
    ["verify", "exact", "--nmax", "2"],
    ["verify", "asym", "--k0=0", "--k1=-9/20"],
    ["verify", "quad", "--nmax", "1", "--k0", "0.4999999999", "--k1", "0"],
    ["verify", "quad", "--nmax", "1", "--tol", "1e-13"],
    ["table", "--nmax", "2"],
    ["table", "--nmax", "2", "--k0=-7/20", "--k1=2/25", "--format", "csv"],
    ["eval-k", "--theta", "0.4"],
]

PROBE = """
import contextlib, importlib, inspect, io, json, pathlib, random, sys
from collections import Counter

seen = set()
sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code) if event == "call" else None)
import b2weight
from b2weight import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        cli.main(argv)
    sys.path.insert(0, sys.argv[1])
    import workloads

    for make in workloads.WORKLOADS.values():
        for task in next(make(random.Random(1))):
            task.check(task.call(), Counter())
sys.setprofile(None)

# every function and method written in the package's files; the methods a
# dataclass generates come from a string, not a file, and are left out
def members(module):
    for obj in vars(module).values():
        if not inspect.isclass(obj):
            yield obj
        elif obj.__module__ == module.__name__:
            for member in vars(obj).values():
                # a staticmethod or classmethod holds its function, a property its getter
                member = getattr(member, "__func__", member)
                yield getattr(member, "fget", member)


written = {}
for path in sorted(pathlib.Path(b2weight.__file__).parent.glob("*.py")):
    module = importlib.import_module("b2weight" + ("" if path.stem == "__init__" else "." + path.stem))
    for obj in members(module):
        obj = inspect.unwrap(obj)
        if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
            written[obj.__code__] = f"{path.stem}.{obj.__qualname__}"
print(json.dumps(sorted(name for code, name in written.items() if code not in seen)))
"""


def test_every_public_function_is_called_by_a_command_or_kept_as_a_reference():
    """The probed CLI commands, then one round of each workload of
    bench/workloads.py (imported without writing its bytecode), run under
    ``sys.setprofile`` in a fresh process, so no memo of an earlier test hides
    a call and the package's import counts.  Every function and method
    written in ``src/b2weight/*.py``, at module or class level, must be
    called, or be one of ``KEPT`` with its reason."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(b2weight.__file__)))
    bench = Path(__file__).resolve().parents[1] / "bench"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(bench), json.dumps(PROBED_COMMANDS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    uncalled = set(json.loads(result.stdout))
    assert uncalled == set(KEPT), (
        f"uncalled and not kept: {sorted(uncalled - set(KEPT))}; "
        f"kept but called: {sorted(set(KEPT) - uncalled)}"
    )


def test_every_traced_name_resolves():
    """``Tracer.install`` in bench/tracer.py looks up each (module, attribute)
    of its ``TRACED`` table with ``getattr``; a name deleted from the package
    would break the traced benchmark.  The table is read from the file's
    source, without importing the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "TRACED" for target in node.targets)
    ]
    assert traced
    for span, module, attr in traced:
        owner = importlib.import_module(f"b2weight.{module}")
        assert callable(functools.reduce(getattr, attr.split("."), owner)), span
