#!/usr/bin/env python3
"""Self-test of the benchmark on its smoke configuration (T_2, D(T_2), spin-1/2).

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json names exactly the metrics run.py prints, with their units;
  * an untraced smoke run of every workload passes and prints every
    end-to-end metric, and its summary ends with "claim": null;
  * every pass of it ran on one CPU beside the host-speed probe;
  * a deliberately wrong known answer, for a genuine verdict and for a
    negative control, is counted as a failure and makes the run exit 1;
  * a traced smoke run prints every per-layer metric, every layer of the
    package shows work on some workload, and the operation counts of two
    traced runs with one seed are identical;
  * without the package sources the benchmark exits nonzero and prints no
    result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402

LAYERS = ("scalars", "algebra", "hopf", "double", "baxterize", "taft",
          "matrices", "ybe", "uqsl2", "cli")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0", "--smoke",
           *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    parsed = []
    for line in proc.stdout.strip().splitlines()[-2:]:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    summary, result = ([None, None] + parsed)[-2:]
    return proc.returncode, summary, result


def main() -> int:
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'}  {what}", flush=True)
        if not cond:
            problems.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end matches metrics.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS,
           "BENCHMARK.json per_layer matches metrics.py")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the three workloads")

    traced = {}
    for w in WORKLOADS:
        code, summary, result = bench("--workload", w, "--seed", "7",
                                      "--trace", "0")
        expect(code == 0 and result and result["correct"]
               and result["failed"] == 0 and result["attempted"] > 0,
               f"{w}: smoke run passes every verdict")
        got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
        expect(got == dict(END_TO_END),
               f"{w}: every end-to-end metric printed with its unit")
        expect(summary is not None and list(summary)[-1] == "claim"
               and summary["claim"] is None,
               f"{w}: summary ends with \"claim\": null")
        passes = summary["passes"] if summary else []
        expect(passes and all(p["pinned"] and p["speed"] > 0 and
                              p["raw_total_s"] > 0 for p in passes),
               f"{w}: every pass is pinned to one CPU and probed for speed")

        verdicts = summary["verdicts"] if summary else []
        for kind in (True, False):
            target = next((v["name"] for v in verdicts
                           if v["expect"] is kind), None)
            if target is None:
                continue
            code, _, result = bench("--workload", w, "--seed", "7",
                                    "--trace", "0", "--invert-expect", target)
            expect(code == 1 and result is not None
                   and not result["correct"] and result["failed"] >= 1,
                   f"{w}: a wrong known answer for {target!r} is a failure")

        runs = [bench("--workload", w, "--seed", "7", "--trace", "1")
                for _ in range(2)]
        ok = all(code == 0 and r and r["correct"] for code, _, r in runs)
        expect(ok, f"{w}: traced smoke runs pass")
        if not ok:
            continue
        first, second = (r["metrics"] for _, _, r in runs)
        expect({k: v["unit"] for k, v in first.items()} == dict(LAYER_METRICS),
               f"{w}: every per-layer metric printed with its unit")
        counts = [k for k, unit in LAYER_METRICS if unit in ("count", "ratio")
                  and k != "trace.overhead_share"]
        expect(all(first[k]["value"] == second[k]["value"] for k in counts),
               f"{w}: operation counts repeat exactly for one seed")
        traced[w] = first

    for layer in LAYERS:
        expect(any(m[k]["value"] for m in traced.values() for k in m
                   if k.startswith(layer + ".")),
               f"layer {layer}: traced runs record work")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, _, result = bench("--workload", "hopf_axioms", "--seed", "7",
                            "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without the sources: nonzero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
