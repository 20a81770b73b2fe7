"""Command-line contract: exit codes, report formats, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import b2weight
from b2weight.cli import build_parser, main, parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_accepts_both_notations():
    from fractions import Fraction

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


def test_verify_quad_reports_a_pairing_error_in_its_row(capsys):
    # the p14 pairing needs 2F1 near z = 1 with c - a - b = 2e-4 there
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


def test_verify_csv_error_and_region_rows(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "quad", "--k0", "4999/10000", "--k1", "0", "--nmax", "0",
        "--format", "csv",
    )
    assert code == 1
    rows = out.splitlines()
    assert rows[-1] == (
        "quad/pairing_vs_closed/p14/n00,-0.00019998,error: tol=1e-11 unreachable for"
        " 2F1 near z=1 (best bound 1.464e-10; c-a-b = 0.00019999999999997797 is close"
        " to an integer),1e-08,False"
    )
    assert all(len(row.split(",")) == 5 for row in rows)
    # a comma inside a cell is written as ';'
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
    ``singular_integral`` or ``asym_integral_check``."""
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
        "b2weight.asym_integral_check(0.5, 0.0, 0.0, 40)\n"
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
    "alpha_beta_via_laplacian", "alpha_closed", "asym_f_check", "asym_integral_check",
    "beta_closed", "c_norm", "chu_vandermonde", "combo_forms", "d_consts", "dunkl_d",
    "euler_transform", "eval_K", "eval_L", "f_values", "gamma_fn", "gauss_2f1",
    "group_act", "h_func", "inner_product_S_exact", "laplacian", "laplacian_power",
    "poch", "poly_eval", "product_rule_residual", "s_inner_closed",
    "sector_inner_numeric", "singular_integral", "squeeze_check", "stirling_ratio",
    "__version__",
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
