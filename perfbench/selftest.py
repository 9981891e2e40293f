#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny kernel LEN (seconds, not
minutes). Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  1. every end-to-end and per-layer metric, and error_rate, is printed
     with its unit for every workload, and a clean tree reports no failed
     run;
  2. a deliberately corrupted reference digest makes runs fail (the
     error rate rises) instead of crashing the harness;
  3. the traced run's span files nest (every span lies inside its parent)
     and load as Chrome trace_event JSON.
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY_LEN = 4000
SEED = 5


def harness(*args):
    cmd = [sys.executable, str(bench.BENCH / "run.py"),
           "--nominal-len", str(TINY_LEN), "--seed", str(SEED)] + list(args)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"harness failed ({' '.join(args)}):\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    work = bench.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    reference = work / "reference.json"
    reference.unlink(missing_ok=True)
    harness("--write-reference", "--reference", str(reference))
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    error_rate = [("error_rate", "ratio")]  # per workload under "all"
    for trace, table in ((0, bench.END_TO_END + error_rate),
                         (1, bench.PER_LAYER + error_rate)):
        result = harness("--workload", "all", "--seconds", "0.3",
                         "--trace", str(trace), "--reference", str(reference))
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: result has exactly the four keys")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] > 0,
               f"trace {trace}: clean tree, no failed run")
        missing = [f"{w}.{name}" for w in bench.WORKLOADS
                   for name, unit in table
                   if result["metrics"].get(f"{w}.{name}", {}).get("unit")
                   != unit]
        expect(not missing, f"trace {trace}: every metric with its unit "
                            f"for every workload {missing or ''}")

    for w in bench.WORKLOADS:
        path = bench.WORK / "runs" / w / "layer_spans.json"
        try:
            spans = bench.load_spans(path)
            bench.span_self_times(spans)
            roots = [s for s in spans if s["args"]["parent"] is None]
            ok = len(roots) == 1 and len(spans) > 10
        except (bench.BenchError, OSError, ValueError, KeyError):
            ok = False
        expect(ok, f"{w}: layer spans load and nest under one root")
        tool_spans = json.loads(
            (bench.WORK / "runs" / w / "tool_spans.json").read_text())
        expect(bool(tool_spans["traceEvents"]),
               f"{w}: tool span file loads as trace_event JSON")

    table = json.loads(reference.read_text())
    key = bench.reference_key(bench.WORKLOADS["sweep8"],
                              bench.kernel_len(SEED, TINY_LEN))
    table[key]["stdout"] = "0" * 64
    reference.write_text(json.dumps(table))
    result = harness("--workload", "sweep8", "--seconds", "0.3",
                     "--trace", "0", "--reference", str(reference))
    expect(not result["correct"] and result["failed"] > 0,
           f"corrupted digest: {result['failed']} of {result['attempted']} "
           f"runs failed")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
