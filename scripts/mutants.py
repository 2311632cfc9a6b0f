#!/usr/bin/env python3
"""Apply the committed mutants of scripts/mutants.json and report who kills them.

Each entry of mutants.json names a file, an old string that occurs in it
exactly once, the new string that replaces it, a reason, and the pytest
node expected to kill the mutant; an entry with an "equivalent" field
says why no test can tell that mutant from the program.  For each mutant
the tree is copied to a temporary directory and the one replacement is
made there, never in the working tree.  The named node runs first,
without hypothesis' pytest plugin, whose start-up import of hypothesis
would be most of a node's time (@given tests run without it); if the
mutant survives it, the full Tier-1 suite runs, with the plugin.  Each
line of output says killed, survived or equivalent, with the reason, and
the last line counts them: "<k> killed, <s> survived, <e> equivalent,
<seconds> s".  An equivalent mutant that a test kills counts as killed,
and --smoke counts the equivalent ones it skips as equivalent.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py --smoke    # non-equivalent ones, named node only

Exit status 1 if a non-equivalent mutant survives or an equivalent one is
killed (then the list is wrong, not the program), else 0.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIST = ROOT / "scripts" / "mutants.json"
# the test that checks the list against the unmutated tree fails in every
# mutated copy by design, so the full run leaves it out
LIST_TEST = "tests/test_source.py::test_mutant_old_strings_occur_once"
SKIP = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
TIMEOUT_S = 900     # one pytest run; the full Tier-1 takes about a minute
NO_HYPOTHESIS_PLUGIN = ["-p", "no:hypothesispytest"]


def _ignore(directory, names):
    skip = {n for n in names if n in SKIP}
    if pathlib.Path(directory) == ROOT / "perfbench":
        skip.add("out")
    return skip


def _pytest(tree, args):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *args], cwd=tree, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S)
    if done.returncode not in (0, 1):    # 1: a test failed, 0: none did
        raise SystemExit(f"pytest {' '.join(args)} could not run "
                         f"(exit {done.returncode}):\n{done.stdout[-2000:]}")
    return done.returncode


def _copy(tmp):
    tree = pathlib.Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=_ignore)
    return tree


def run(mutant, smoke):
    """(killed, where): whether a test failed, and the node or "Tier-1"."""
    with tempfile.TemporaryDirectory(prefix="hopfbax-mutant-") as tmp:
        tree = _copy(tmp)
        path = tree / mutant["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['name']}: old string does not occur "
                             f"exactly once in {mutant['file']}")
        path.write_text(text.replace(mutant["old"], mutant["new"]),
                        encoding="utf-8")
        if _pytest(tree, [*NO_HYPOTHESIS_PLUGIN, mutant["test"]]):
            return True, mutant["test"]
        if smoke:
            return False, mutant["test"]
        if _pytest(tree, ["--continue-on-collection-errors",
                          "--deselect", LIST_TEST]):
            return True, "Tier-1"
        return False, "Tier-1"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="skip equivalent mutants and run each other one "
                         "against its named node only")
    args = ap.parse_args()

    mutants = json.loads(LIST.read_text(encoding="utf-8"))
    skipped = 0
    if args.smoke:
        skipped = sum("equivalent" in m for m in mutants)
        mutants = [m for m in mutants if "equivalent" not in m]

    # a node that fails on the unmutated tree would "kill" every mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="hopfbax-mutant-") as tmp:
        if _pytest(_copy(tmp), [*NO_HYPOTHESIS_PLUGIN,
                                *sorted({m["test"] for m in mutants})]):
            raise SystemExit("a named test node fails on the unmutated tree")
    status = 0
    counts = {"killed": 0, "survived": 0, "equivalent": skipped}
    for m in mutants:
        t = time.perf_counter()
        killed, where = run(m, args.smoke)
        equivalent = m.get("equivalent")
        if equivalent is None:
            verdict = f"killed by {where}" if killed else f"SURVIVED {where}"
            status |= not killed
        else:
            verdict = (f"equivalent: {equivalent}" if not killed else
                       f"KILLED by {where}, but listed as equivalent")
            status |= killed
        counts["killed" if killed else
               "survived" if equivalent is None else "equivalent"] += 1
        print(f"{m['name']:32s} {time.perf_counter() - t:6.1f} s  {verdict}"
              f"\n{'':32s}          ({m['reason']})", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()) +
          f", {time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
