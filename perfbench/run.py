#!/usr/bin/env python3
"""OmniWindow end-to-end benchmark driver.

Builds the benchmark binary from the checkout's sources (perfbench/ plus
../src), replays one workload for a fixed wall time and prints every metric
by name with its unit and sample count, then, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 1 when a correctness check failed and 2
when the benchmark could not run at all.

    python3 perfbench/run.py --workload oneshot-detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest           # tests of the benchmark's math
    python3 perfbench/run.py --compare A.json B.json

Each run also saves its result, with the host fingerprint (calibration
kernels run before and after the workload), under <build>/results/, and
warns when the host's memory latency moved during the run. --compare
refuses, loudly, to compare two results whose fingerprints differ or that
were flagged so. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
# The fingerprint's kernels (perfbench_run --calibrate): a dependent ALU
# chain and a pointer chase over more memory than the last-level cache.
# The workloads slow down with memory latency (stream-parallel-ckpt lost a
# third of its throughput when it rose 1.7x), so a latency change larger
# than the metrics'
# regression bound (0.25 in BENCHMARK.json), between two results or between
# the calibrations before and after one run, would pass for a regression or
# a gain. Runs on one host in one state read before/after changes of up to
# about 13%.
ALU_TOLERANCE = 0.25
MEM_TOLERANCE = 0.25


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / f"perfbench-{BUILD_TYPE.lower()}"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(bdir), "--target", target, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return bdir / target


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def calibrate(binary):
    proc = subprocess.run([str(binary), "--calibrate"], stdout=subprocess.PIPE,
                          text=True, timeout=60, check=False)
    if proc.returncode != 0:
        fail("calibration failed")
    return json.loads(proc.stdout)


def fingerprint(raw, before, after):
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_ns": before["alu_ns"],
        "mem_latency_ns_before": before["mem_ns"],
        "mem_latency_ns_after": after["mem_ns"],
        "build_type": raw["build_type"],
        "ow_obs": raw["ow_obs"],
    }


def ratio_exceeds(a, b, tolerance):
    return a <= 0 or b <= 0 or max(a, b) / min(a, b) > 1 + tolerance


def host_drift(fp):
    """Why the host's memory latency moved during one run, or None."""
    a, b = fp.get("mem_latency_ns_before", 0), fp.get("mem_latency_ns_after", 0)
    if ratio_exceeds(a, b, MEM_TOLERANCE):
        return (f"memory latency {a:.1f} ns before the run, {b:.1f} ns after "
                f"(tolerance {MEM_TOLERANCE:.0%})")
    return None


def fingerprint_mismatches(a, b):
    """Reasons two fingerprints name different hosts, host states or builds."""
    out = [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
           for k in ("cpu_model", "nproc", "build_type", "ow_obs")
           if a.get(k) != b.get(k)]
    ca, cb = a.get("calibration_ns", 0), b.get("calibration_ns", 0)
    if ratio_exceeds(ca, cb, ALU_TOLERANCE):
        out.append(f"calibration_ns: {ca} vs {cb} (tolerance {ALU_TOLERANCE:.0%})")
    for name, fp in (("A", a), ("B", b)):
        drift = host_drift(fp)
        if drift:
            out.append(f"result {name}: {drift}")
    ma = a.get("mem_latency_ns_before", 0)
    mb = b.get("mem_latency_ns_before", 0)
    if ratio_exceeds(ma, mb, MEM_TOLERANCE):
        out.append(f"mem_latency_ns: {ma} vs {mb} (tolerance {MEM_TOLERANCE:.0%})")
    return out


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def run_workload(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    binary = build("perfbench_run")
    before = calibrate(binary)
    bdir = build_dir()
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = results / f"{stem}.raw.json"
    spans_path = results / f"{stem}.spans.jsonl"
    workdir = bdir / "work" / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--spans", str(spans_path),
           "--workdir", str(workdir)]
    raw_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode not in (0, 1) or not raw_path.is_file():
        fail(f"perfbench_run exited with code {proc.returncode}")
    raw = json.loads(raw_path.read_text())
    raw["fingerprint"] = fingerprint(raw, before, calibrate(binary))
    drift = host_drift(raw["fingerprint"])
    raw["host_drift"] = drift
    result_path = results / f"{stem}.json"
    result_path.write_text(json.dumps(raw, indent=1) + "\n")

    fp = raw["fingerprint"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"replays {raw['replays']}")
    print(f"host: {fp['cpu_model']}, nproc {fp['nproc']}, calibration "
          f"{fp['calibration_ns']:.0f} ns, memory latency "
          f"{fp['mem_latency_ns_before']:.1f} -> {fp['mem_latency_ns_after']:.1f} ns, "
          f"build {fp['build_type']}, OW_OBS {'ON' if fp['ow_obs'] else 'OFF'}")
    if drift:
        print(f"WARNING: the host changed during this run: {drift}; its times "
              "are not comparable with other runs")
    for m in raw["metrics"]:
        print(f"  {m['name']:<32} {m['value']:>16.6g} {m['unit']:<10} n={m['samples']}")
    for c in raw["checks"]:
        print(f"  check {c['name']:<26} {'ok' if c['ok'] else 'FAILED'}: {c['detail']}")
    print(f"result saved to {result_path}")

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    got = {m["name"]: m for m in raw["metrics"]}
    metrics = {}
    for m in wanted:
        if m["name"] not in got:
            fail(f"perfbench_run reported no metric {m['name']}")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']}: binary says {got[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}
    correct = proc.returncode == 0 and all(c["ok"] for c in raw["checks"])
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    reasons = fingerprint_mismatches(a.get("fingerprint", {}), b.get("fingerprint", {}))
    if reasons:
        banner = "!" * 72
        print(banner)
        print("REFUSED: these results come from different hosts, host states or builds;")
        print("their difference would be noise, not a regression or a gain.")
        for r in reasons:
            print(f"  {r}")
        print(banner)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("REFUSED: different workloads or trace modes")
        return 3
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    mb = {m["name"]: m for m in b["metrics"]}
    worse = 0
    for m in a["metrics"]:
        other = mb.get(m["name"])
        if other is None:
            continue
        va, vb = m["value"], other["value"]
        note = ""
        spec = bounds.get(m["name"])
        if spec and va:
            change = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            if change > spec["bound"]:
                note = f"WORSE by {change:.1%} (bound {spec['bound']:.0%})"
                worse += 1
        print(f"  {m['name']:<32} {va:>14.6g} -> {vb:<14.6g} {m['unit']:<10} {note}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return subprocess.run([str(build("perfbench_math_test"))], check=False).returncode
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
