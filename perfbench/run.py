#!/usr/bin/env python3
"""vmtherm benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload steady|churn|ops|train \
        --seed N --seconds S --trace 0|1

Run from the root of a vmtherm checkout. The first run configures and
builds the library (Release; tests, benches and examples off) plus the
benchmark binary in .bench_build/perfbench; later runs reuse that build.
Then it runs the percentile self-test and the binary, which prints
provenance, a table of every metric with unit, sample count, median and
tail, its output checks, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run whose Chrome trace goes to
.bench_build/perfbench/traces/<workload>-seed<N>.json and is checked to
load here. Exit status: 0 when every output check passed, 1 on a mismatch,
2 when the build or the run could not complete. Workloads, metrics and the
per-layer to end-to-end mapping are described in perfbench/LAYERS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("steady", "churn", "ops", "train")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no vmtherm sources at {ROOT}: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = [
            "cmake", "-S", str(ROOT), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DVMTHERM_BUILD_TESTS=OFF",
            "-DVMTHERM_BUILD_BENCH=OFF",
            "-DVMTHERM_BUILD_EXAMPLES=OFF",
            f"-DCMAKE_PROJECT_vmtherm_INCLUDE={HERE / 'project_include.cmake'}",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", str(BUILD), "-j", str(nproc()),
                "--target", "vmtherm_perfbench", "perfbench_stats_test"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = BUILD / "perfbench" / "vmtherm_perfbench"
    self_test = BUILD / "perfbench" / "perfbench_stats_test"
    if subprocess.run([str(self_test)], stdout=sys.stderr).returncode != 0:
        fail("percentile helper self-test failed")
    return binary


def commit_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds (library, build files, benchmark)."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_trace(path):
    """The traced run's Chrome trace must load as trace-event JSON."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return f"Chrome trace {path} does not load: {e}"
    if not events or any(e.get("ph") != "X" or "dur" not in e for e in events):
        return f"Chrome trace {path} has no complete events"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id()]
    trace_path = None
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        if trace_path.exists():
            trace_path.unlink()
        command += ["--trace-out", str(trace_path)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with status {run.returncode}")
    result = json.loads(lines[-1])
    status = run.returncode
    if trace_path is not None:
        problem = check_trace(trace_path)
        lines.insert(-1, f"# check Chrome trace: {problem or 'loads'}")
        if problem:
            result["correct"] = False
            status = 1
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
