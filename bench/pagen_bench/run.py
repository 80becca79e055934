#!/usr/bin/env python3
"""Build and run the pagen benchmark (see README.md in this directory).

One workload, as BENCHMARK.json's command runs it:

    python3 bench/pagen_bench/run.py --workload pipeline-x1 --seed 1 \
        --seconds 30 --trace 0

prints the workload's metrics and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
A per-layer metric whose layer does no work on the workload reads 0.

Every workload, each in its own process (what run.sh does):

    python3 bench/pagen_bench/run.py [--seed S] [--traced] [--out DIR]

writes DIR/<workload>.json and the merged DIR/report.json; --traced adds a
per-layer pass per workload (DIR/<workload>.layers.json, the trace of one
operation in DIR/<workload>.trace.json, and the report's "layers").

Before the first run the main CMake build is configured into
.bench_build/pagen with this directory added (pagen_bench.cmake), and its
pagen_bench target is built (--binary skips this). Exits nonzero when the
build fails, a run fails, or any output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["pipeline-x1", "commfree-x6", "mps-x6", "svc-mixed"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (first time) the main build with this directory added,
    build its pagen_bench target, and return the binary's path."""
    build_dir = ROOT / ".bench_build" / "pagen"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DCMAKE_PROJECT_pagen_INCLUDE={HERE / 'pagen_bench.cmake'}",
                 *generator]
    compile_ = ["cmake", "--build", str(build_dir), "--target", "pagen_bench",
                "-j", str(min(4, os.cpu_count() or 1))]
    for attempt in range(2):
        configured = (build_dir / "CMakeCache.txt").exists()
        ok = ((configured or
               subprocess.run(configure, stdout=sys.stderr).returncode == 0)
              and subprocess.run(compile_, stdout=sys.stderr).returncode == 0)
        if ok:
            return build_dir / "bench" / "pagen_bench"
        if attempt == 0 and build_dir.exists():
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(build_dir)
    return None


def run_workload(binary, workload, seed, seconds, trace, out_dir, work_root,
                 smoke):
    """Run one workload process; returns its report, or None on failure."""
    work = Path(work_root) / f"{workload}-{os.getpid()}"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--work-dir={work}", f"--out-dir={out_dir}"]
    if smoke:
        cmd.append("--smoke=1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        log(f"{workload}: exited with {proc.returncode}")
        return None
    with open(Path(out_dir) / f"{workload}.json") as f:
        return json.load(f)


def contract_metrics(report, spec, trace):
    """The BENCHMARK.json metric set of one report, or None if incomplete."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not trace:
                log(f"missing end-to-end metric {m['name']}")
                return None
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def single(args, spec, binary):
    out_dir = Path(args.work_dir) / f"report-{os.getpid()}"
    try:
        report = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace, out_dir, args.work_dir, args.smoke)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if report is None:
        return 1
    metrics = contract_metrics(report, spec, args.trace)
    if metrics is None:
        return 1
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


def every(args, spec, binary):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    merged = {"schema": "pagen.bench.v1", "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    if args.traced:
        merged["layers"] = {}
    ok = True
    for w in WORKLOADS:
        # The traced pass first: its report is renamed before the untraced
        # pass writes <workload>.json.
        for trace in ([True] if args.traced else []) + [False]:
            report = run_workload(binary, w, args.seed, args.seconds, trace,
                                  out, args.work_dir, args.smoke)
            if report is None:
                ok = False
                continue
            metrics = contract_metrics(report, spec, trace)
            ok = ok and report["correct"] and metrics is not None
            if trace:
                os.replace(out / f"{w}.json", out / f"{w}.layers.json")
                merged["layers"][w] = {"correct": report["correct"],
                                       "metrics": metrics}
            else:
                merged["workloads"][w] = report
                merged.setdefault("provenance", report["provenance"])
    with open(out / "report.json", "w") as f:
        json.dump(merged, f, indent=1)
    log(f"wrote {out / 'report.json'}")
    return 0 if ok else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (omit to run all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="budget of one workload run, set-up and oracle "
                        f"included (default {spec['run_seconds']}; 1 with "
                        "--smoke)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="one workload: report per-layer metrics")
    p.add_argument("--traced", action="store_true",
                   help="all workloads: add the per-layer pass")
    p.add_argument("--out", default=str(ROOT / ".bench_reports"),
                   help="all workloads: report directory")
    p.add_argument("--work-dir", default=str(ROOT / ".bench_work"),
                   help="scratch directory for stores and spill files")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: exercise every path and oracle quickly")
    p.add_argument("--binary",
                   help="run this pagen_bench instead of building one "
                        "(the pagen_bench_smoke test)")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]

    binary = Path(args.binary) if args.binary else build()
    if binary is None:
        log("build failed")
        return 1
    return single(args, spec, binary) if args.workload else \
        every(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
