#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for the tdt tools.

    python3 perfbench/run.py --workload sweep8 --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout. The script builds dinerosim, gtracer and
the per-layer probe (perfbench/layer_probe.cpp) as a Release build under
.bench_build/perfbench/, generates the workload's inputs from the seed,
and then either

  --trace 0  times real dinerosim invocations back to back for --seconds
             (closed loop, one process at a time) and reports the
             end-to-end metrics, or
  --trace 1  runs the layer probe plus traced and untraced dinerosim
             invocations and reports the per-layer metrics.

Every tool output is checked against perfbench/reference.json; a mismatch
counts as a failed run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench"
BUILD = WORK / "build"
DEFAULT_REFERENCE = BENCH / "reference.json"

NOMINAL_LEN = 400000
# The seed picks one of these offsets, in eighths of a percent of the
# nominal LEN (so LEN moves within +1%); a small fixed set keeps reference
# digests checkable for every seed. The offsets stay above the nominal
# LEN because xform_t2's peak RSS drops by 8 MB between LEN 399000 and
# 400000, and a set that straddles that step makes peak_rss_mb bimodal.
LEN_STEPS = range(9)

SWEEP8 = "assoc=1;assoc=2;assoc=4;assoc=8;size=8k;size=16k;size=64k;block=64"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
TOOL_TIMEOUT_S = 60.0
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


class Workload:
    # layer_probe.cpp's kShapes holds the probe's side of each workload
    # (decode jobs, simulated stream, writer format).
    def __init__(self, name, corpus, jobs, points, tool_args,
                 probe_rules, layers, outputs=()):
        self.name = name
        self.corpus = corpus          # "t1" or "t2"
        self.jobs = jobs              # the tool's --jobs
        self.points = points          # cache points the tool simulates
        self.tool_args = tool_args    # (inputs dir, output dir) -> argv tail
        self.probe_rules = probe_rules
        self.layers = layers          # probe spans on the tool's own path
        self.outputs = outputs        # output files digested besides stdout


def _point_spans(n):
    return tuple(f"cache.p{i}.sim" for i in range(n))


# Why each workload is here: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        "sim_text", "t1", 1, 1,
        lambda i, o: ["--trace", str(i / "trace.out")],
        "t1_sized.rules", ("trace.read",) + _point_spans(1)),
    Workload(
        "sweep8", "t1", 3, 8,
        lambda i, o: ["--trace", str(i / "trace.out"), "--sweep", SWEEP8,
                      "--jobs", "3"],
        # The stock rule: the probe's core numbers on this gated workload
        # then cover the skip/diagnostics path (sim_text keeps the clean
        # sized rule as its reference).
        "t1_stock.rules", ("trace.read",) + _point_spans(8)),
    Workload(
        "xform_t2", "t2", 3, 1,
        lambda i, o: ["--trace", str(i / "trace.tdtb"),
                      "--rules", str(i / "t2_sized.rules"),
                      "--xform-out", str(o / "xform.tdtb"),
                      "--compress", "zstd", "--jobs", "3",
                      "--affinity-report", str(o / "affinity.txt")],
        "t2_sized.rules",
        ("trace.read", "core.transform", "trace.write", "analysis.affinity")
        + _point_spans(1),
        outputs=("xform.tdtb", "affinity.txt")),
    Workload(
        "xform_skip", "t1", 1, 1,
        lambda i, o: ["--trace", str(i / "trace.out"),
                      "--rules", str(i / "t1_stock.rules"),
                      "--xform-out", str(o / "xform.out")],
        "t1_stock.rules",
        ("trace.read", "core.transform", "trace.write") + _point_spans(1),
        outputs=("xform.out",)),
]}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

PER_LAYER = (
    [("trace.read_s", "s"), ("trace.read_records_per_s", "1/s"),
     ("trace.fast_parse_ratio", "ratio"), ("trace.write_s", "s"),
     ("trace.write_bytes", "B"), ("core.transform_s", "s"),
     ("core.transform_ns_per_record", "ns"), ("core.rewritten", "count"),
     ("core.inserted", "count"), ("core.skipped", "count"),
     ("core.diag_reports", "count"), ("core.plan_hit_ratio", "ratio"),
     ("cache.sim_s", "s")]
    + [(f"cache.p{i}.sim_s", "s") for i in range(8)]
    + [("cache.sim_ns_per_access", "ns"), ("cache.rss_per_point_mb", "MB"),
       ("cache.miss_compulsory", "count"), ("cache.miss_capacity", "count"),
       ("cache.miss_conflict", "count"), ("analysis.affinity_s", "s"),
       ("pipeline.parallel_efficiency", "ratio"),
       ("pipeline.stalls", "count"), ("pipeline.idle_waits", "count"),
       ("tools.unattributed_s", "s"), ("tools.tracing_overhead_s", "s")])


class BenchError(Exception):
    """The harness itself could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def tool(name):
    if name == "layer_probe":
        return BUILD / "layer_probe"
    return BUILD / "tdt" / "tools" / name


def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no source tree at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = WORK / "build.log"
    with open(build_log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS,
                      "--target", "dinerosim", "gtracer", "layer_probe"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=child_env()) != 0:
                tail = build_log.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return env


# ---------------------------------------------------------------- inputs

def kernel_len(seed, nominal):
    return nominal * (800 + LEN_STEPS[seed % len(LEN_STEPS)]) // 800


def sized_rules(stock_text, length):
    # The stock rule files are written for LEN 1024; the kernels take LEN
    # from --len, so a size-matched rule is the same text at the new LEN.
    return stock_text.replace("1024", str(length))


def generate(corpus, length, dest):
    """Writes one corpus's inputs into `dest` (a fresh directory)."""
    dest.mkdir(parents=True)
    rules = ROOT / "rules"
    if corpus == "t1":
        run_checked([tool("gtracer"), "--kernel", "t1_soa", "--len",
                     str(length), "--out", dest / "trace.out"])
        stock = (rules / "t1_soa_to_aos.rules").read_text()
        (dest / "t1_stock.rules").write_text(stock)
        (dest / "t1_sized.rules").write_text(sized_rules(stock, length))
    else:
        run_checked([tool("gtracer"), "--kernel", "t2_inline", "--len",
                     str(length), "--binary", "--compress", "zstd", "--out",
                     dest / "trace.tdtb"])
        stock = (rules / "t2_outline_rarely_used.rules").read_text()
        (dest / "t2_sized.rules").write_text(sized_rules(stock, length))
    (dest / "complete").write_text("")


def run_checked(cmd):
    res = subprocess.run([str(c) for c in cmd], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, env=child_env())
    if res.returncode != 0:
        raise BenchError(f"{cmd[0]} failed: {res.stderr.decode()[-2000:]}")


def prepare_inputs(corpus, length, timed):
    """Returns (inputs dir, set-up seconds per repeat). Timed set-up
    regenerates the inputs SETUP_REPEATS times; otherwise a complete
    cached copy for this LEN is reused. One LEN per corpus is cached."""
    root = WORK / "inputs"
    final = root / f"{corpus}-{length}"
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.glob(f"{corpus}-*"):
        if stale != final:
            shutil.rmtree(stale)
    if not timed and (final / "complete").exists():
        return final, []
    times = []
    for _ in range(SETUP_REPEATS if timed else 1):
        tmp = root / f".tmp-{corpus}-{length}"
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        generate(corpus, length, tmp)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    return final, times


def settle_inputs(inputs):
    """Flushes freshly generated inputs to disk, so no writeback runs
    while the tool is timed, then reads them once so the timed runs find
    them in the page cache."""
    for f in inputs.iterdir():
        with open(f, "rb") as fh:
            os.fsync(fh.fileno())
            while fh.read(1 << 20):
                pass


# ---------------------------------------------------------------- runs

class ToolRun:
    def __init__(self, exit_code, wall_s, cpu_s, maxrss_kb, out_dir):
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.out_dir = out_dir


def run_tool(argv, out_dir):
    """Runs one dinerosim process; wall, CPU and peak RSS of that process
    alone (wait4 rusage)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(tool("dinerosim"))] + argv
    with open(out_dir / "stdout", "wb") as so, \
            open(out_dir / "stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=out_dir,
                                env=child_env())
        killer = threading.Timer(TOOL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ToolRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss, out_dir)


def drop_outputs(out_dir, *runs):
    """Deletes checked tool outputs (up to ~200 MB per run) before their
    dirty pages are written back under a later timed run."""
    for name in runs:
        shutil.rmtree(out_dir / name, ignore_errors=True)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(w, run):
    digests = {"exit": run.exit_code, "stdout": sha256(run.out_dir / "stdout")}
    for name in w.outputs:
        path = run.out_dir / name
        digests[name] = sha256(path) if path.exists() else None
    return digests


def mismatches(w, run, reference):
    if reference is None:
        return ["no reference digests for this workload and LEN"]
    got = output_digests(w, run)
    return [f"{k}: got {got.get(k)}, want {v}"
            for k, v in reference.items() if k in got and got[k] != v]


MISS_RE = re.compile(
    r"miss classes: compulsory (\d+), capacity (\d+), conflict (\d+)")


def reported_miss_classes(run):
    text = (run.out_dir / "stdout").read_text(errors="replace")
    return [[int(x) for x in m] for m in MISS_RE.findall(text)]


def load_reference(path):
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def reference_key(w, length):
    return f"{w.name}/{length}"


# ---------------------------------------------------------------- spans

def load_spans(path):
    events = json.loads(path.read_text())["traceEvents"]
    return [e for e in events if e.get("ph") == "X"]


def span_self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its child spans cover. Raises BenchError when spans do not nest."""
    by_id = {s["args"]["id"]: s for s in spans}
    children = {i: [] for i in by_id}
    for s in spans:
        parent = s["args"]["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            raise BenchError(f"span {s['name']} has unknown parent {parent}")
        p = by_id[parent]
        slack = 0.002  # the file keeps 3 decimals of a microsecond
        if (s["ts"] + slack < p["ts"]
                or s["ts"] + s["dur"] > p["ts"] + p["dur"] + slack):
            raise BenchError(f"span {s['name']} escapes parent {p['name']}")
        children[parent].append(s)
    self_s = {}
    for i, s in by_id.items():
        covered, end = 0.0, s["ts"]
        for c in sorted(children[i], key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], end), c["ts"] + c["dur"]
            if hi > lo:
                covered += hi - lo
                end = hi
        self_s[i] = max(0.0, s["dur"] - covered) / 1e6
    return self_s


def layer_self_seconds(spans):
    self_s = span_self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + self_s[s["args"]["id"]]
    return totals


# ---------------------------------------------------------------- modes

def describe(values, unit):
    text = f"median {median(values):.4f} {unit} over {len(values)} samples"
    if len(values) >= 20:  # >= 10 samples beyond the 90th percentile
        p90 = statistics.quantiles(values, n=10)[-1]
        text += f", p90 {p90:.4f} {unit}"
    return text


def measure_end_to_end(w, length, seconds, reference):
    inputs, setup_times = prepare_inputs(w.corpus, length, timed=True)
    settle_inputs(inputs)
    out_dir = WORK / "runs" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    attempted = failed = 0
    problems = []

    def check(run, label):
        nonlocal attempted, failed
        attempted += 1
        bad = mismatches(w, run, reference)
        if bad:
            failed += 1
            problems.extend(f"{label}: {b}" for b in bad)

    if w.jobs > 1:
        # jobs 1 must reproduce the reference too (and so the jobs 3 runs);
        # this untimed run also warms the tool's code and the page cache.
        argv = w.tool_args(inputs, out_dir / "jobs1")
        argv[argv.index("--jobs") + 1] = "1"
        check(run_tool(argv, out_dir / "jobs1"), "jobs 1")

    runs = []
    start = time.perf_counter()
    while True:
        run = run_tool(w.tool_args(inputs, out_dir / "timed"),
                       out_dir / "timed")
        check(run, f"run {len(runs) + 1}")
        runs.append(run)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(runs) >= MIN_SAMPLES:
            break
        if elapsed >= seconds + 90:  # stay inside the harness time limit
            break

    drop_outputs(out_dir, "jobs1", "timed")
    metrics = {
        "wall_s": median([r.wall_s for r in runs]),
        "cpu_s": median([r.cpu_s for r in runs]),
        # Peak over the run: with --jobs the queues in flight make a
        # process's peak flip between two levels from run to run.
        "peak_rss_mb": max(r.maxrss_kb for r in runs) / 1024.0,
        "setup_s": median(setup_times),
    }
    log(f"[{w.name}] LEN {length}: {len(runs)} timed runs, "
        f"{attempted} checked, {failed} failed "
        f"(error_rate {failed / attempted:.4f})")
    log(f"  wall_s: {describe([r.wall_s for r in runs], 's')}")
    log(f"  cpu_s: {describe([r.cpu_s for r in runs], 's')}")
    log(f"  setup_s: {describe(setup_times, 's')}")
    for p in problems[:10]:
        log(f"  MISMATCH {p}")
    return metrics, attempted, failed


def measure_layers(w, length, seconds, reference):
    inputs, _ = prepare_inputs(w.corpus, length, timed=False)
    settle_inputs(inputs)
    out_dir = WORK / "runs" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    attempted = failed = 0
    problems = []

    def check(ok, label):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(label)

    # The probe: per-layer spans and counts on this workload's input.
    spans_path = out_dir / "layer_spans.json"
    write_path = out_dir / "probe_xform"
    cmd = [str(tool("layer_probe")), "--workload", w.name,
           "--input", str(inputs / ("trace.out" if w.corpus == "t1"
                                     else "trace.tdtb")),
           "--rules", str(inputs / w.probe_rules),
           "--write-out", str(write_path), "--spans", str(spans_path)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=child_env(), timeout=150)
    if res.returncode != 0:
        raise BenchError(f"layer_probe failed: {res.stderr.decode()[-2000:]}")
    probe = json.loads(res.stdout)
    spans = load_spans(spans_path)
    layer_s = layer_self_seconds(spans)
    if w.outputs and reference is not None:
        # The probe's writer must produce the tool's transformed trace.
        check(sha256(write_path) == reference.get(w.outputs[0]),
              "probe transformed trace differs from the reference")
    write_path.unlink()

    # Traced and untraced tool runs, alternating, for the overhead.
    traced, untraced, stalls, idle = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < seconds + 60:
        plain = run_tool(w.tool_args(inputs, out_dir / "untraced"),
                         out_dir / "untraced")
        check(not mismatches(w, plain, reference), "untraced tool output")
        untraced.append(plain.wall_s)
        tool_metrics = out_dir / "tool_metrics.json"
        tool_metrics.unlink(missing_ok=True)
        argv = w.tool_args(inputs, out_dir / "traced") + [
            "--metrics-json", str(tool_metrics),
            "--trace-spans", str(out_dir / "tool_spans.json")]
        run = run_tool(argv, out_dir / "traced")
        check(not mismatches(w, run, reference), "traced tool output")
        traced.append(run.wall_s)
        try:
            counters = json.loads(tool_metrics.read_text())["counters"]
        except (OSError, ValueError, KeyError):
            check(False, "traced tool wrote no --metrics-json counters")
        else:
            stalls.append(counters.get("pipeline.backpressure_stalls", 0))
            idle.append(counters.get("pipeline.idle_waits", 0))
        # The probe's per-point miss classes must equal the tool's report.
        tool_classes = reported_miss_classes(run)
        probe_classes = [[p["compulsory"], p["capacity"], p["conflict"]]
                         for p in probe["points"][:w.points]]
        check(tool_classes == probe_classes,
              f"miss classes: tool {tool_classes}, probe {probe_classes}")

    drop_outputs(out_dir, "traced", "untraced")
    t = probe["transform"]
    points = probe["points"]
    point_s = [layer_s.get(f"cache.p{i}.sim", 0.0) for i in range(8)]
    tool_points = points[:w.points]
    read_s = layer_s["trace.read"]
    untraced_wall = median(untraced)
    metrics = {
        "trace.read_s": read_s,
        "trace.read_records_per_s": probe["records"] / read_s,
        "trace.fast_parse_ratio":
            probe["fast_parses"] / max(1, probe["records"]),
        "trace.write_s": layer_s["trace.write"],
        "trace.write_bytes": probe["write_bytes"],
        "core.transform_s": layer_s["core.transform"],
        "core.transform_ns_per_record":
            layer_s["core.transform"] * 1e9 / max(1, t["records_in"]),
        "core.rewritten": t["rewritten"],
        "core.inserted": t["inserted"],
        "core.skipped": t["skipped"],
        "core.diag_reports": t["diag_reports"],
        "core.plan_hit_ratio":
            t["plan_hits"] / max(1, t["plan_hits"] + t["plan_misses"]),
        "cache.sim_s": sum(point_s),
    }
    for i in range(8):
        metrics[f"cache.p{i}.sim_s"] = point_s[i]
    metrics.update({
        "cache.sim_ns_per_access":
            sum(point_s) * 1e9 / max(1, sum(p["accesses"] for p in points)),
        "cache.rss_per_point_mb":
            statistics.mean(p["rss_bytes"] for p in points) / (1 << 20),
        "cache.miss_compulsory": sum(p["compulsory"] for p in tool_points),
        "cache.miss_capacity": sum(p["capacity"] for p in tool_points),
        "cache.miss_conflict": sum(p["conflict"] for p in tool_points),
        "analysis.affinity_s": layer_s["analysis.affinity"],
        "pipeline.parallel_efficiency":
            sum(point_s[:w.points]) / (w.jobs * untraced_wall),
        "pipeline.stalls": median(stalls) if stalls else 0,
        "pipeline.idle_waits": median(idle) if idle else 0,
        "tools.unattributed_s":
            median(traced) - sum(layer_s[name] for name in w.layers),
        "tools.tracing_overhead_s": median(traced) - untraced_wall,
    })
    log(f"[{w.name}] LEN {length}: traced run, {len(traced)} traced + "
        f"{len(untraced)} untraced tool runs, {attempted} checks, "
        f"{failed} failed")
    log(f"  layer spans: {spans_path}")
    log(f"  tool spans:  {out_dir / 'tool_spans.json'}")
    for p in problems[:10]:
        log(f"  MISMATCH {p}")
    return metrics, attempted, failed


def write_reference(path, nominal):
    """Records exit codes and output digests of a jobs-1 run of every
    workload at every LEN the seeds can pick."""
    table = load_reference(path)
    for seed in range(len(LEN_STEPS)):
        length = kernel_len(seed, nominal)
        for w in WORKLOADS.values():
            inputs, _ = prepare_inputs(w.corpus, length, timed=False)
            out_dir = WORK / "runs" / "reference"
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = w.tool_args(inputs, out_dir)
            if "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = "1"
            table[reference_key(w, length)] = output_digests(
                w, run_tool(argv, out_dir))
            log(f"reference {reference_key(w, length)}: "
                f"{table[reference_key(w, length)]}")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--nominal-len", type=int, default=NOMINAL_LEN,
                    help="kernel LEN before the seed's offset (the "
                         "self-test uses a tiny one)")
    ap.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                    help="reference digest table")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the reference digests and exit")
    args = ap.parse_args()

    try:
        build()
        if args.write_reference:
            write_reference(args.reference, args.nominal_len)
            return 0
        table = load_reference(args.reference)
        length = kernel_len(args.seed, args.nominal_len)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        measure = measure_layers if args.trace else measure_end_to_end
        units = dict(PER_LAYER if args.trace else END_TO_END)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            w = WORKLOADS[name]
            values, a, f = measure(w, length, args.seconds,
                                   table.get(reference_key(w, length)))
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            for key, unit in units.items():
                metrics[prefix + key] = {"value": values[key], "unit": unit}
            if prefix:
                metrics[prefix + "error_rate"] = {"value": f / a,
                                                  "unit": "ratio"}
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:>18.6f} {m['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:>18.6f} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
