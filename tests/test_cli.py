import json
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import pytest

from hopfbax import SQRT_Q, ParametricMatrix, parse_param_scalar, spin_half, \
    uqsl2_r_matrix
from hopfbax.cli import main
from hopfbax.matrices import MAX_DIM
from hopfbax.regressions import reference_spin_half, reference_taft_9x9


# a V_{3,1} family as JSON, frozen by the golden tests
_R_JSON = str(pathlib.Path(__file__).parent / "golden" / "taft_rep31_json.out")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# matrix emission
# ---------------------------------------------------------------------------

def test_uqsl2_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "uqsl2", "--spin", "1/2", "--parametric",
                           "--format", "json")
    assert code == 0
    m = ParametricMatrix.from_json(out)
    assert m == uqsl2_r_matrix(spin_half(), parametric=True)
    assert m == reference_spin_half()


def test_uqsl2_verify_reports_to_stderr(capsys):
    code, out, err = run_cli(capsys, "uqsl2", "--spin", "1", "--parametric",
                             "--verify", "--format", "json")
    assert code == 0
    ParametricMatrix.from_json(out)       # stdout stays pure JSON
    report = json.loads(err)
    assert report["passed"] is True and report["kind"] == "parametric"


def test_uqsl2_latex_output(capsys):
    code, out, _ = run_cli(capsys, "uqsl2", "--spin", "1/2",
                           "--format", "latex")
    assert code == 0
    assert "&" in out and "\\\\" in out


def test_taft_rep_matches_reference(capsys):
    code, out, err = run_cli(capsys, "taft", "--N", "4", "--rep", "3,1",
                             "--parametric", "--verify", "--format", "json")
    assert code == 0
    assert ParametricMatrix.from_json(out) == reference_taft_9x9(1)
    assert "PASS" not in out    # reports go to stderr only


def test_taft_hopf_report_mode(capsys):
    code, _, err = run_cli(capsys, "taft", "--N", "3")
    assert code == 0
    assert "Hopf axioms" in err
    assert "FAIL" not in err
    assert "homogeneity" in err


def test_taft_hopf_report_json(capsys):
    code, out, err = run_cli(capsys, "taft", "--N", "2", "--format", "json")
    assert code == 0 and out == ""
    decoder, reports, pos = json.JSONDecoder(), [], 0
    while pos < len(err):
        obj, end = decoder.raw_decode(err, pos)
        reports.append(obj)
        pos = end + 1       # the newline after each report
    assert [r.get("kind") for r in reports] == [None, "product", "coproduct"]
    assert reports[0]["algebra"] == "T_2" and len(reports[0]["axioms"]) == 7
    assert all(r["passed"] for r in reports)


def test_taft_explicit_q(capsys):
    code, out, _ = run_cli(capsys, "taft", "--N", "3", "--q", "q^2",
                           "--rep", "2,1", "--format", "json")
    assert code == 0
    ParametricMatrix.from_json(out)


def test_taft_indecomposable(capsys):
    code, out, err = run_cli(capsys, "taft", "--N", "3", "--indecomposable",
                             "q", "--l", "1", "--parametric", "--verify",
                             "--format", "json")
    assert code == 0
    m = ParametricMatrix.from_json(out)
    assert m.dim == 9 and m.uses_parameters()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_double_checks(capsys, n):
    # the canonical R of D(T_n) solves the constant YBE, and its x-degree
    # Baxterization the parametric one; N = 7, 8 are too slow for Tier-1
    code, out, err = run_cli(capsys, "double", "--N", str(n), "--parametric")
    assert code == 0 and out == ""
    assert err == "".join(f"PASS  {kind}-algebraic Yang-Baxter check "
                          f"(dim {n ** 4})\n"
                          for kind in ("constant", "parametric"))


def test_baxterize_flat_and_lifted(capsys):
    code, out, _ = run_cli(capsys, "baxterize", "--N", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == ["0", "1"]
    assert "mu" in payload["terms"]

    code, out, _ = run_cli(capsys, "baxterize", "--N", "2", "--zn",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == ["(0, 0)", "(1, 0)"]
    assert "mu" in payload["terms"]


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_good_matrix(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(uqsl2_r_matrix(spin_half()).to_json())
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0
    assert "PASS" in err


def test_verify_corrupted_matrix(tmp_path, capsys):
    m = uqsl2_r_matrix(spin_half())
    m.set(1, 2, m.get(1, 2) * 2)
    path = tmp_path / "bad.json"
    path.write_text(m.to_json())
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "FAIL" in err and "residual" in err


def test_verify_braid_kind(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(uqsl2_r_matrix(spin_half(), parametric=False).to_json())
    code, _, err = run_cli(capsys, "verify", "--input", str(path),
                           "--kind", "braid")
    assert code == 0
    assert "braid" in err


def test_verify_braid_rejects_perturbed_family(tmp_path, capsys):
    # the V_{3,1} family passes the braid check at mu = 1 (see the golden
    # verify_braid case); doubling one entry must still fail it
    golden = pathlib.Path(__file__).parent / "golden" / "taft_rep31_json.out"
    m = ParametricMatrix.from_json(golden.read_text())
    m.set(0, 0, m.get(0, 0) * 2)
    path = tmp_path / "bad.json"
    path.write_text(m.to_json())
    code, _, err = run_cli(capsys, "verify", "--input", str(path),
                           "--kind", "braid")
    assert code == 1
    assert err.startswith("FAIL  braid")


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--input",
                           str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"dim": 4, "domain": "sqrt_q"}')
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2


def test_verify_deeply_nested_json(tmp_path, capsys):
    # raw text: json.dumps of so deep a list would itself recurse too far
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "1/0"}]},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 9, "col": 1, "value": "1"}]},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 0, "col": 1, "value": "1"}]},
    [1, 2],
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "(" * 400 + "q" + ")" * 400}]},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "(1+s)^99999999"}]},
    {"dim": 10 ** 8, "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "((1+s)^1000)^1000"}]},
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "((1+mu)^1000)^1000"}]},
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "(1+mu+nu)^1000"}]},
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "((1+mu+nu)^10)^100"}]},
    {"dim": 0, "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": -4, "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": True, "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": "9", "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": 4.0, "domain": "sqrt_q", "param": None, "entries": []},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1.5, "col": 1, "value": "1"}]},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": True, "value": "1"}]},
    {"dim": 1, "domain": "cyclotomic(32000)", "param": None, "entries": []},
    {"dim": 1, "domain": "cyclotomic(1001)", "param": None, "entries": []},
    {"dim": 1, "domain": 5, "param": None, "entries": []},
    {"dim": 1, "domain": "cyclotomic(65)", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "(1+q)^1000"}]},
    # spin-1/2 with (2,3) given again as 0: read last-wins, the diagonal
    # matrix left over passes every check
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "s"},
                 {"row": 2, "col": 2, "value": "(1)/(s)"},
                 {"row": 2, "col": 3, "value": "((-1 + s^4)/(s^3))*mu"},
                 {"row": 3, "col": 3, "value": "(1)/(s)"},
                 {"row": 4, "col": 4, "value": "s"},
                 {"row": 2, "col": 3, "value": "0"}]},
    # over the parse's work budget, or a power of a sum
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "(1+mu)^1000"}]},
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "(1+mu)^500*(1+mu)^500"}]},
    {"dim": 4, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "((1+s^3)^-1+s)^80"}]},
    # a power of a sum under a divisor
    {"dim": 4, "domain": "cyclotomic(64)",
     "entries": [{"row": 1, "col": 1,
                  "value": "1/(123456789-q+99999*q^5)^100"}]},
    {"dim": MAX_DIM + 1, "domain": "sqrt_q", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "s"}]},
    # a divisor holding a sum, and a power of anything but q, s, mu or nu
    {"dim": 4, "domain": "sqrt_q", "param": "mu",
     "entries": [{"row": 1, "col": 1, "value": "1/(1+mu)"}]},
    {"dim": 1, "domain": "cyclotomic(64)", "param": None,
     "entries": [{"row": 1, "col": 1, "value": "(1+q)^1000"}]},
    # an order below the tags' range, 2..MAX_ORDER
    {"dim": 1, "domain": "cyclotomic(1)", "param": None, "entries": []},
])
def test_verify_bad_values_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert time.perf_counter() - t0 < 0.5


def test_verify_loads_the_largest_cyclotomic_order(tmp_path, capsys):
    # (1+q)^1000 spelt as a product: only names take an exponent
    payload = {"dim": 1, "domain": "cyclotomic(64)", "param": None,
               "entries": [{"row": 1, "col": 1,
                            "value": "*".join(["(1+q)"] * 1000)}]}
    m = ParametricMatrix.from_json(json.dumps(payload))
    assert str(m.domain) == "cyclotomic(64)"
    dom = m.domain
    assert m.get(0, 0).as_scalar() == (dom.one() + dom.q()) ** 1000
    path = tmp_path / "order64.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0 and err.startswith("PASS")


def test_json_loads_the_smallest_dim(tmp_path, capsys):
    # dim = 1 is the lower end of the documented range 1..MAX_DIM; a 1x1
    # R(mu) is a scalar, which solves every YBE
    payload = {"dim": 1, "domain": "cyclotomic(4)", "param": "mu",
               "entries": [{"row": 1, "col": 1, "value": "q + 2*mu"}]}
    m = ParametricMatrix.from_json(json.dumps(payload))
    assert m.dim == 1 and str(m.get(0, 0)) == "q + 2*mu"
    path = tmp_path / "dim1.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert (code, out) == (0, "")
    assert err == "PASS  parametric Yang-Baxter check (dim 1)\n"


def test_json_loads_the_largest_dim():
    # dim = MAX_DIM is inside the documented range 1..MAX_DIM; a sparse
    # matrix costs its entries, not dim^2
    payload = {"dim": MAX_DIM, "domain": "sqrt_q", "param": None,
               "entries": [{"row": MAX_DIM, "col": MAX_DIM, "value": "s"}]}
    t0 = time.perf_counter()
    m = ParametricMatrix.from_json(json.dumps(payload))
    assert time.perf_counter() - t0 < 0.1
    assert m.dim == MAX_DIM and str(m.get(MAX_DIM - 1, MAX_DIM - 1)) == "s"


def test_json_parses_a_repeated_string_once_and_refuses_as_before(
        tmp_path, capsys):
    entries = [{"row": r, "col": c, "value": "mu*(q - q^-1)/s"}
               for r in (1, 2) for c in (1, 2)]
    payload = {"dim": 2, "domain": "sqrt_q", "param": "mu", "entries": entries}
    with mock.patch("hopfbax.matrices.parse_param_scalar",
                    wraps=parse_param_scalar) as parse:
        m = ParametricMatrix.from_json(json.dumps(payload))
    assert parse.call_count == 1
    assert m.entries == {(r, c): parse_param_scalar("mu*(q - q^-1)/s", SQRT_Q)
                         for r in (0, 1) for c in (0, 1)}
    # a refused string, or a value that is no string, gives the error of
    # its first occurrence, as when each entry was parsed on its own
    for value in ("1/(1+mu)", 5, None):
        bad = dict(payload, entries=entries + [
            {"row": 1, "col": 3, "value": value},
            {"row": 1, "col": 4, "value": value}])
        bad["dim"] = 4
        with pytest.raises(Exception) as alone:
            parse_param_scalar(value, SQRT_Q)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2
        assert err == f"error: cannot load matrix: {alone.value}\n"


# ---------------------------------------------------------------------------
# exit codes and argument validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("uqsl2", "--spin", "2"),
    ("taft", "--N", "1"),
    ("taft", "--N", "4", "--rep", "3"),
    ("taft", "--N", "4", "--rep", "9,9"),
    ("taft", "--N", "4", "--rep", "3,1", "--indecomposable", "1", "--l", "1"),
    ("taft", "--N", "3", "--indecomposable", "q"),
    ("taft", "--N", "4", "--q", "q^2"),       # not a primitive root
    ("taft", "--N", "4", "--q", "1/0"),
    ("taft", "--N", "4", "--q", "s"),         # s only exists over Q(s)
    ("taft", "--N", "3", "--q", "(" * 400 + "q" + ")" * 400),
    ("taft", "--N", "17"),                    # above MAX_N
    ("double", "--N", "1000"),
    ("taft", "--N", "4", "--q", "2^99999999"),
    ("taft", "--N", "4", "--q", "(1+q)^99999999"),
    ("taft", "--N", "7", "--q", "((1+q)^1000)^1000"),
    ("double", "--N", "9"),                   # above MAX_N
    ("double", "--N", "16"),
    ("baxterize", "--N", "9"),
    ("taft", "--N", "9"),
    ("taft", "--N", "16", "--rep", "16,1"),   # would build D(T_16)
    ("taft", "--N", "3", "--l", "1"),         # --l without --indecomposable
    ("taft", "--N", "4", "--rep", "3,1", "--l", "1"),
    ("taft", "--N", "3", "--parametric"),     # no module selected
    ("taft", "--N", "3", "--verify"),
    ("double", "--N", "2", "--convention", "left_s"),   # removed options
    ("taft", "--N", "4", "--rep", "3,1", "--raw"),
    # LaTeX is written only for matrices, and --output only takes a matrix
    # or a result text: verify's report goes to stderr only, and double's
    # --output needs a path
    ("double", "--N", "2", "--format", "latex"),
    ("verify", "--input", _R_JSON, "--format", "latex"),
    ("baxterize", "--N", "2", "--format", "latex"),
    ("all-regressions", "--format", "latex"),
    ("taft", "--N", "2", "--format", "latex"),
    ("double", "--N", "2", "--output"),
    ("verify", "--input", _R_JSON, "--output", "report.txt"),
    ("taft", "--N", "2", "--output", "report.txt"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err.lower()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("N", ["3", "9"])
def test_indecomposable_without_l_is_refused_before_any_build(capsys, N):
    # the usage checks come first, so even an --N above MAX_N reports the
    # missing --l
    code, out, err = run_cli(capsys, "taft", "--N", N, "--indecomposable", "q")
    assert code == 2 and out == ""
    assert err == "error: --indecomposable needs --l\n"


@pytest.mark.parametrize("rep, n", [("0,1", 0), ("3,1", 3)])
def test_rep_out_of_range_is_refused_once_by_the_library(capsys, rep, n):
    # rep_irreducible holds the one range check of --rep; the CLI adds none
    code, out, err = run_cli(capsys, "taft", "--N", "2", "--rep", rep)
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= n, l <= N (got n={n}, l=1, N=2)\n"


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hopfbax", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    done = run("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: hopfbax")
    done = run("double", "--N", "2")
    assert done.returncode == 0
    assert done.stderr.startswith("PASS  constant-algebraic")
    done = run("double", "--N", "9")
    assert done.returncode == 2
    assert done.stderr == "error: --N must be at most 8\n"


def test_argparse_failures_exit_2(capsys):
    assert run_cli(capsys, "taft")[0] == 2                 # missing --N
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "uqsl2", "--spin", "1", "--format", "yaml")[0] == 2
    assert run_cli(capsys, "double", "--N", "2",
                   "--convention", "bogus")[0] == 2


# ---------------------------------------------------------------------------
# --output and the output-directory environment override
# ---------------------------------------------------------------------------

def test_output_resolves_against_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOPFBAX_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "uqsl2", "--spin", "1/2", "--parametric",
                           "--format", "json", "--output",
                           os.path.join("sub", "half.json"))
    assert code == 0
    assert out == ""
    target = tmp_path / "sub" / "half.json"
    assert target.is_file()
    assert ParametricMatrix.from_json(target.read_text()) == \
        uqsl2_r_matrix(spin_half(), parametric=True)


def test_regressions_text_goes_to_output(tmp_path, capsys, monkeypatch):
    from hopfbax import regressions
    results = [regressions.RegressionResult(1, "first", True),
               regressions.RegressionResult(2, "second", False, "why")]
    monkeypatch.setattr(regressions, "run_all", lambda: results)
    target = tmp_path / "ladder.txt"
    code, out, err = run_cli(capsys, "all-regressions", "--output", str(target))
    assert (code, out, err) == (1, "", "")
    assert target.read_text() == "".join(r.line() + "\n" for r in results)


def test_all_regressions_output_leaves_stderr_empty(tmp_path, capsys):
    # the real ladder: twelve PASS lines go to --output and nothing else is
    # written, not even the report of criterion 12's failing cli control
    target = tmp_path / "ladder.txt"
    code, out, err = run_cli(capsys, "all-regressions", "--output", str(target))
    assert (code, out, err) == (0, "", "")
    lines = target.read_text().splitlines()
    assert len(lines) == 12 and all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("parametric", [False, True])
def test_double_reports_go_to_output_as_json(tmp_path, capsys, parametric):
    # stderr keeps its reports, and the file holds them as one JSON list
    target = tmp_path / "d3.json"
    flags = ("--parametric",) * parametric
    code, out, err = run_cli(capsys, "double", "--N", "3", *flags,
                             "--format", "json", "--output", str(target))
    assert (code, out) == (0, "")
    assert run_cli(capsys, "double", "--N", "3", *flags,
                   "--format", "json") == (0, "", err)
    reports = json.loads(target.read_text())
    assert [r["kind"] for r in reports] == [
        "constant-algebraic", "parametric-algebraic"][:1 + parametric]
    assert all(r["passed"] and r["dim"] == 81 for r in reports)
    assert "".join(json.dumps(r, indent=2, sort_keys=True) + "\n"
                   for r in reports) == err
    code, _, err = run_cli(capsys, "double", "--N", "3", *flags,
                           "--output", str(target))
    assert code == 0 and target.read_text() == err


def test_absolute_output_ignores_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOPFBAX_OUTPUT_DIR", str(tmp_path / "unused"))
    target = tmp_path / "direct.json"
    code, _, _ = run_cli(capsys, "uqsl2", "--spin", "1/2", "--format", "json",
                         "--output", str(target))
    assert code == 0
    assert target.is_file()
    assert not (tmp_path / "unused").exists()
