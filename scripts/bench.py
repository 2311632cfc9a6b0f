#!/usr/bin/env python3
"""Write one benchmark record of this tree to BENCH_<n>.json at the repo root.

The record holds:

  * per perfbench workload, one ``perfbench/run.py --trace 0`` run: its
    five end-to-end medians at reference speed, the median speed factor
    of its timed passes, and its ``meta``;
  * raw wall seconds, the median of REPEATS runs each, of Tier-1, the
    acceptance ladder, the largest Taft module verdict, the largest double
    verdict and a cold ``import hopfbax`` under ``python -S``;
  * the counts line of ``scripts/mutants.py --smoke``;
  * ``src_lines``, the ``wc -l`` total of ``src/hopfbax/*.py``;
  * ``git_rev`` (HEAD) and ``dirty`` (whether the work tree differed from
    HEAD when the run started).

Every command must succeed, or no file is written.  <n> is one more than
the largest number of a BENCH file at the root.  Standard library only;
about six minutes on a 2-vCPU host.

    python3 scripts/bench.py
"""

import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SECONDS = 20  # perfbench --seconds per workload
SEED = 1
REPEATS = 3  # runs per wall-time row
WORKLOADS = ("hopf_axioms", "double_ybe", "rmatrix_ybe")
END_TO_END = ("total_s", "cpu_s", "setup_s", "slowest_verdict_s",
              "peak_rss_mb")
PY = sys.executable
WALL = {
    "tier1": [PY, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "all_regressions": [PY, "-m", "hopfbax", "all-regressions"],
    "taft_n8_rep81_parametric_verify": [
        PY, "-m", "hopfbax", "taft", "--N", "8", "--rep", "8,1",
        "--parametric", "--verify"],
    "double_n8_parametric": [PY, "-m", "hopfbax", "double", "--N", "8",
                             "--parametric"],
    "import_cold": [PY, "-S", "-c", "import hopfbax"],
}
COUNTS = re.compile(r"(\d+) killed, (\d+) survived, (\d+) equivalent, "
                    r"([\d.]+) s$")


def _run(cmd, timeout=900):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{(done.stdout + done.stderr)[-2000:]}")
    return done.stdout


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=30).stdout.strip()


def perfbench(workload):
    out = _run([PY, "perfbench/run.py", "--workload", workload, "--seed",
                str(SEED), "--seconds", str(SECONDS), "--trace", "0"])
    summary = json.loads(out.strip().splitlines()[-2])
    row = {name: summary["metrics"][name]["value"] for name in END_TO_END}
    row["speed"] = statistics.median(p["speed"] for p in summary["passes"])
    row["failed_share"] = summary["failed_share"]["value"]
    row["meta"] = summary["meta"]
    return row


def wall(cmd):
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _run(cmd)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs), runs


def mutants_smoke():
    line = _run([PY, "scripts/mutants.py", "--smoke"]).strip().splitlines()[-1]
    m = COUNTS.fullmatch(line)
    if m is None:
        raise SystemExit(f"unexpected counts line from mutants.py: {line!r}")
    killed, survived, equivalent = map(int, m.groups()[:3])
    return {"killed": killed, "survived": survived, "equivalent": equivalent,
            "seconds": float(m[4]), "line": line}


def src_lines():
    return sum(p.read_bytes().count(b"\n")
               for p in (ROOT / "src" / "hopfbax").glob("*.py"))


def main() -> int:
    taken = [int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json")
             if p.stem.split("_")[1].isdigit()]
    n = max(taken, default=0) + 1
    record = {"git_rev": _git("rev-parse", "HEAD") or None,
              "dirty": bool(_git("status", "--porcelain")),
              "src_lines": src_lines(), "perfbench": {}, "wall_s": {},
              "wall_runs_s": {}}
    for workload in WORKLOADS:
        record["perfbench"][workload] = perfbench(workload)
        print(f"perfbench {workload}: {record['perfbench'][workload]}",
              flush=True)
    for name, cmd in WALL.items():
        record["wall_s"][name], record["wall_runs_s"][name] = wall(cmd)
        print(f"{name}: {record['wall_s'][name]:.3f} s", flush=True)
    record["mutants_smoke"] = mutants_smoke()
    print(f"mutants --smoke: {record['mutants_smoke']['line']}")
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
