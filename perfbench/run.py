#!/usr/bin/env python3
"""The hopfbax benchmark: exact verifications, timed end to end and per layer.

    python3 perfbench/run.py --workload hopf_axioms --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh interpreter (child.py) with ``src`` on PYTHONPATH, so no cache of
the package survives from one pass to the next.

Every time is in seconds at the reference host speed of calibrate.py: a
probe thread in each pass measures how fast the shared host's CPU runs
while the pass runs, and child.py scales the pass's times by it.  The raw
times are in the summary line beside them.

``--trace 0``: full passes for ``--seconds`` seconds (at least one), with
set-up-only passes before, between and after them until there are at
least SETUP_SAMPLES set-up times.  Prints the end-to-end metrics, each the
median over passes.

``--trace 1``: one untraced and one traced pass.  Prints the per-layer
metrics of the traced pass and ``trace.overhead_share``, the traced
``total_s`` over the untraced one, minus 1.

Every verdict of every pass is compared with its known answer.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run's summary, which
ends with ``"claim": null`` and is also written to perfbench/out/.  The
exit code is 0 only when every verdict matched; without the package
sources the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
# a run must end within 180 s; no pass may start after this
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _pass(args, workdir, start, *, trace=0, setup_only=False):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.invert_expect:
        cmd += ["--invert-expect", args.invert_expect]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    budget = DEADLINE_S - (time.perf_counter() - start)
    if budget <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {args.workload} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _meta():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "hopfbax").glob("*.py")))
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


def _check(passes):
    """Count verdicts and failures; every pass must run the same verdicts."""
    names = [v["name"] for v in passes[0]["verdicts"]]
    attempted = failed = 0
    failures = []
    for p in passes:
        if [v["name"] for v in p["verdicts"]] != names:
            raise BenchError("passes ran different verdicts for one seed")
        for v in p["verdicts"]:
            attempted += 1
            if not v["ok"]:
                failed += 1
                failures.append(v)
    return attempted, failed, failures


def _timed(args, workdir, start):
    # set-up-only passes before, between and after the full ones, so that
    # the set-up samples span the run, not one moment of a shared machine
    setups = []

    def sample_setup(count):
        for _ in range(count):
            setups.append(_pass(args, workdir, start,
                                setup_only=True)["setup_s"])

    sample_setup(SETUP_SAMPLES // 2)
    passes = []
    while True:
        passes.append(_pass(args, workdir, start))
        setups.append(passes[-1]["setup_s"])
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["total_s"] > args.seconds:
            break
        sample_setup(2)
    sample_setup(max(2, SETUP_SAMPLES - len(setups)))
    values = {
        "total_s": statistics.median(p["total_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "slowest_verdict_s": statistics.median(
            max(v["seconds"] for v in p["verdicts"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    detail = {"passes": [{k: p[k] for k in (
                  "setup_s", "total_s", "cpu_s", "peak_rss_mb", "raw_setup_s",
                  "raw_total_s", "raw_cpu_s", "speed", "pinned")}
                         for p in passes],
              "setup_samples_s": setups}
    return passes, metrics, detail


def _traced(args, workdir, start):
    plain = _pass(args, workdir, start)
    traced = _pass(args, workdir, start, trace=1)
    if [(v["name"], v["passed"]) for v in traced["verdicts"]] != \
            [(v["name"], v["passed"]) for v in plain["verdicts"]]:
        raise BenchError("the traced pass reached other verdicts than the "
                         "untraced one")
    values = dict(traced["layers"])
    values["trace.overhead_share"] = traced["total_s"] / plain["total_s"] - 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS}
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"fields": ["name", "parent", "start", "end"],
                                 "spans": traced["spans"]}), encoding="utf-8")
    detail = {"untraced_total_s": plain["total_s"],
              "traced_total_s": traced["total_s"],
              "untraced_raw_total_s": plain["raw_total_s"],
              "traced_raw_total_s": traced["raw_total_s"],
              "spans_file": str(spans.relative_to(ROOT))}
    return [plain, traced], metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration (T_2, D(T_2), spin-1/2)")
    ap.add_argument("--invert-expect", default=None, metavar="VERDICT",
                    help="flip one verdict's known answer; the run must "
                         "then count a failure")
    args = ap.parse_args(argv)

    if not (SRC / "hopfbax" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(SRC)], capture_output=True, text=True,
                           timeout=120)
    if build.returncode != 0:
        print(f"error: compiling the sources failed:\n{build.stdout}"
              f"{build.stderr}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = _traced if args.trace else _timed
        passes, metrics, detail = run(args, workdir, start)
        attempted, failed, failures = _check(passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "failed_share": {"value": failed / attempted, "base": attempted},
        "failures": [{k: v[k] for k in ("name", "expect", "passed", "error",
                                        "witness")} for v in failures],
        "verdicts": [{"name": v["name"], "expect": v["expect"],
                      "passed": v["passed"], "seconds": v["seconds"],
                      "raw_seconds": v["raw_seconds"]}
                     for v in passes[0]["verdicts"]],
        **detail,
        "meta": _meta(),
        "metrics": metrics,
        "claim": None,
    }
    text = json.dumps(summary)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
