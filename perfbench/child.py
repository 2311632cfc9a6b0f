"""One pass of one workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  Prints one JSON object:
set-up and total wall time, CPU time, peak RSS, and every verdict with its
expected and observed outcome; with ``--trace 1`` also the layer
statistics of tracer.py.  A fresh interpreter per pass keeps every cache of
the package (module-level lru_caches, per-algebra product tables) cold, as
it is for a user who runs one command.

Every time it reports is in seconds at the reference host speed of
calibrate.py, measured by a probe thread beside the pass; the raw wall and
CPU times are reported beside them under ``raw_*``.

    PYTHONPATH=src python3 perfbench/child.py --workload hopf_axioms --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import calibrate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", default=".")
    ap.add_argument("--invert-expect", default=None, metavar="NAME",
                    help="flip the known answer of one verdict (self-test)")
    args = ap.parse_args(argv)

    pinned = calibrate.pin()
    probe = calibrate.Probe()
    probe.start()
    t_import = time.perf_counter()
    import hopfbax  # noqa: F401  (timed: set-up starts before the import)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    build = workloads.BUILDERS[args.workload]
    verdicts = build(random.Random(args.seed), args.smoke, args.workdir)
    t_setup = time.perf_counter()
    spans = []
    rows = []
    if not args.setup_only:
        for v in verdicts:
            expect = v.expect != (v.name == args.invert_expect)
            t = time.perf_counter()
            if tracer is not None:
                tracer.begin(f"verdict:{v.name}")
            try:
                passed, witness = v.run()
                error = None
            except Exception as exc:  # a raising verdict is a failed verdict
                passed, witness, error = None, None, f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.end()
            spans.append((t, time.perf_counter()))
            ok = (error is None and passed == expect
                  and (expect or bool(witness)))
            rows.append({"name": v.name, "expect": expect, "passed": passed,
                         "ok": ok, "error": error,
                         "witness": None if witness is None else str(witness)[:200]})
    t_end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # probes after the last verdict, for the speed of its final stretch
    calibrate.busy(calibrate.TAIL_S)
    probe.stop()

    cpu = usage.ru_utime + usage.ru_stime
    probe_cpu = sum(c for w, e, c in probe.samples if e <= t_end)
    result = {"setup_s": probe.seconds(t_import, t_setup),
              "raw_setup_s": t_setup - t_import,
              "pinned": pinned, "probes": len(probe.samples),
              "speed": probe.factor(t_import, t_end)}
    if not args.setup_only:
        for row, (a, b) in zip(rows, spans):
            row["seconds"] = probe.seconds(a, b)
            row["raw_seconds"] = b - a
        result["total_s"] = probe.seconds(t_import, t_end)
        result["raw_total_s"] = t_end - t_import
        result["verdicts"] = rows
    result["cpu_s"] = (cpu - probe_cpu) * probe.factor(t_import, t_end)
    result["raw_cpu_s"] = cpu
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
