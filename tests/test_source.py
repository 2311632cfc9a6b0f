"""Checks on the package, script and test sources, on the README's Python
example and on the package names the benchmark's tracer wraps."""

import ast
import collections
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

from hopfbax import check_parametric_ybe

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfbax"


def _unused_imports(path: pathlib.Path) -> list:
    """Module-level imports that the module never names (__future__ exempt)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in named]


def test_every_module_level_import_is_used():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("scripts", "tests"):
        paths += sorted((ROOT / folder).glob("*.py"))
    unused = {str(p.relative_to(ROOT)): _unused_imports(p) for p in paths}
    assert {k: v for k, v in unused.items() if v} == {}


def test_readme_python_api_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert check_parametric_ybe(namespace["r"]).passed


def _referenced(node) -> list:
    """Every name that node's code reads or calls, bare or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _uncalled_names(readme: str) -> set:
    """The last dotted part of each `name` in README's lists of public names
    that no program path calls (a call's arguments dropped)."""
    text = readme.split("\nThese names are public too", 1)[1].split(
        "\n`uqsl2.spin_rep(two_j)`", 1)[0]
    return {m.split("(")[0].split(".")[-1]
            for m in re.findall(r"`([^`]+)`", text)}


def test_every_function_has_a_caller_or_a_listed_reason():
    # the public surface cannot grow back unnoticed: each top-level
    # function and non-dunder method of src/hopfbax is named by code in
    # src/hopfbax outside its own body (__init__'s re-exports aside),
    # overrides a method of a base class, or is in README's lists of
    # public names that no program path calls, each with its reason
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    named = collections.Counter(n for t in trees.values() for n in _referenced(t))
    listed = _uncalled_names((ROOT / "README.md").read_text(encoding="utf-8"))
    orphans = []
    for module, tree in trees.items():
        defs = [(None, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [(c, f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)
                 and not (f.name.startswith("__") and f.name.endswith("__"))]
        for cls, f in defs:
            if named[f.name] > _referenced(f).count(f.name) or f.name in listed:
                continue
            if cls is not None:
                owner = getattr(importlib.import_module(f"hopfbax.{module}"),
                                cls.name)
                if any(f.name in vars(b) for b in owner.__mro__[1:]):
                    continue
            orphans.append(f"{module}.{cls.name + '.' if cls else ''}{f.name}")
    assert orphans == []


def test_readme_scripts_block_names_every_script():
    # the scripts/ block of the README's layout lists each .py file of
    # scripts/ once, and nothing else
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nscripts/\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^  (\S+)", block, re.M)
    assert sorted(named) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def test_mutant_old_strings_occur_once():
    # scripts/mutants.py replaces each entry's old string in a copy of the
    # tree; an entry whose string moved or went would test nothing
    mutants = json.loads((ROOT / "scripts" / "mutants.json").read_text(
        encoding="utf-8"))
    assert mutants
    for m in mutants:
        text = (ROOT / m["file"]).read_text(encoding="utf-8")
        assert text.count(m["old"]) == 1, m["name"]
        assert m["new"] != m["old"] and m["reason"] and m["test"], m["name"]
    assert len({m["name"] for m in mutants}) == len(mutants)


def test_committed_bench_records_name_every_row():
    # scripts/bench.py defines the rows; each must be a positive number
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rows = [("perfbench", w, m) for w in bench.WORKLOADS
            for m in (*bench.END_TO_END, "speed")] + [
        ("wall_s", name) for name in bench.WALL] + [
        ("mutants_smoke", "killed"), ("mutants_smoke", "seconds")]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record["git_rev"], str) and record["git_rev"]
        assert isinstance(record["dirty"], bool), path.name
        for row in rows:
            value = record
            for key in row:
                value = value[key]
            assert type(value) in (int, float) and value > 0, (path.name, row)
        for w in bench.WORKLOADS:
            assert record["perfbench"][w]["meta"]["git_rev"], (path.name, w)
        counts = record["mutants_smoke"]
        assert all(type(counts[k]) is int and counts[k] >= 0
                   for k in ("survived", "equivalent")), path.name
        if int(path.stem.split("_")[1]) >= 6:   # recorded from BENCH_6 on
            lines = record["src_lines"]
            assert type(lines) is int and lines > 0, path.name


def test_perfbench_trace_targets_exist():
    # perfbench/tracer.py looks its targets up by name, so a deleted or
    # renamed one would break every traced benchmark run
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # in a bare interpreter (no site, so nothing preloads typing) the
    # package and its CLI import none of these costly stdlib modules
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, hopfbax, hopfbax.cli; print(sorted({'dataclasses', "
         "'inspect', 'typing'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


_WORKLOADS_SCRIPT = """
import random, sys
import workloads
for name, build in workloads.BUILDERS.items():
    build(random.Random(3), False, sys.argv[1])
    verdicts = build(random.Random(3), True, sys.argv[1])
    assert verdicts, name
    for v in verdicts:
        passed, witness = v.run()
        assert passed == v.expect and (v.expect or witness), (name, v.name)
"""


def test_perfbench_workloads_build_and_smoke_verdicts_hold(tmp_path):
    # the full set-ups reach every package name the workloads call, and the
    # smoke verdicts must give their known answers
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    done = subprocess.run(
        [sys.executable, "-c", _WORKLOADS_SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
