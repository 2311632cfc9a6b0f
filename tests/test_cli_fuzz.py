"""Property tests of the command line: the matrix JSON loader on
generated documents, and every subcommand on generated argument lists.
They import hypothesis, which test_cli.py does not, so that its nodes
start fast as mutant killers."""

import argparse
import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbax import ParametricMatrix
from hopfbax.cli import _build_parser, main
from hopfbax.matrices import MAX_DIM

_R_JSON = str(pathlib.Path(__file__).parent / "golden" / "taft_rep31_json.out")


# what run_verify turns into exit 2 when a matrix file does not load
_LOAD_ERRORS = (OSError, ValueError, LookupError, TypeError, ArithmeticError,
                RecursionError)

_json_values = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.integers(min_value=-10 ** 30, max_value=10 ** 30) | st.text(max_size=8)
    | st.sampled_from(("rational", "sqrt_q", "cyclotomic(4)", "cyclotomic(1000)",
                       "cyclotomic(1001)", "cyclotomic(0)", "cyclotomic(-3)",
                       "cyclotomic(99999999)", "cyclotomic(x)", "q", "1/0",
                       "s^-2 + mu", "(1+mu)^3", "(1+mu+nu)^1000")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=6)

_indices = st.integers(min_value=-2, max_value=6) | _json_values

_matrix_objects = st.fixed_dictionaries(
    {"dim": st.integers(min_value=-5, max_value=5000) | _json_values,
     "domain": _json_values,
     "entries": st.lists(st.fixed_dictionaries(
         {"row": _indices, "col": _indices, "value": _json_values}),
         max_size=4) | _json_values})


@settings(max_examples=200, deadline=1000)
@given(_matrix_objects | _json_values)
def test_json_loader_fuzz_gives_a_matrix_or_a_load_error(obj):
    try:
        m = ParametricMatrix.from_json(json.dumps(obj))
    except _LOAD_ERRORS:
        return
    assert isinstance(m, ParametricMatrix) and 1 <= m.dim <= MAX_DIM


# values for every option of every subcommand, valid and invalid.  Every
# valid size (--N, --rep, --l, --spin) is at most 3, so a draw that runs
# takes at most about 0.05 s, and all-regressions, which takes no size,
# about 0.5 s.  <good>, <failing>, <missing>, <malformed> and <out> stand
# for files that the test makes
_SCALAR_ARGS = ["q", "q^2", "-q", "2", "1/2", "q^-1", "1/(2*q)", "(q", "q +",
                "1/0", "s", "mu", "(1+q)^2", "q^1001", "x", ""]
_OPTION_VALUES = {
    "--N": ["-1", "0", "1", "2", "3", "9", "x"],
    "--q": _SCALAR_ARGS, "--indecomposable": _SCALAR_ARGS,
    "--rep": ["1,1", "2,1", "3,2", "3", "0,1", "9,9", "x,1"],
    "--l": ["0", "1", "2", "3", "9", "x"],
    "--spin": ["1/2", "1", "2", "x"],
    "--format": ["json", "latex", "text", "yaml"],
    "--input": ["<good>", "<failing>", "<missing>", "<malformed>"],
    "--kind": ["auto", "constant", "parametric", "braid", "bogus"],
    "--output": ["<out>"],
}


def _argv_lists():
    """[subcommand, options...]: each option of the subcommand, found on
    the CLI's own parser, left out (an optional one half the time) or given
    a value from _OPTION_VALUES (a new option needs its values there), and
    now and then a stray option."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def option(action):
        flag = action.option_strings[-1]
        if action.nargs == 0:
            return st.sampled_from(([], [flag]))
        values = st.sampled_from(_OPTION_VALUES[flag] + [None])
        if not action.required:
            values = st.none() | values
        return values.map(lambda v: [] if v is None else [flag, v])

    def argv(command):
        options = [a for a in sub.choices[command]._actions
                   if a.option_strings and a.dest != "help"]
        return st.tuples(*map(option, options),
                         st.sampled_from([[]] * 5 + [["--bogus"]])).map(
            lambda parts: [command] + [x for part in parts for x in part])

    return st.sampled_from(sorted(sub.choices)).flatmap(argv)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    failing = ParametricMatrix.from_json(pathlib.Path(_R_JSON).read_text())
    failing.set(0, 0, failing.get(0, 0) * 2)
    (base / "failing.json").write_text(failing.to_json())
    (base / "malformed.json").write_text('{"dim": 4, "entries": [')
    return {"<good>": _R_JSON, "<failing>": str(base / "failing.json"),
            "<missing>": str(base / "missing.json"),
            "<malformed>": str(base / "malformed.json"),
            "<out>": str(base / "out" / "matrix.txt")}


@settings(max_examples=80, deadline=None)
@given(_argv_lists())
def test_every_argv_exits_0_1_or_2(cli_files, argv):
    # the exit-code contract: 0 pass, 1 a verification failed, 2 a usage
    # error, which prints "error:", and never a traceback
    argv = [cli_files.get(x, x) for x in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "error:" in err.getvalue():
        assert code == 2, argv
