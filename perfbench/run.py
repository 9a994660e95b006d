#!/usr/bin/env python3
"""Builds the WSQ library and the benchmark driver from source, then runs
one benchmark workload and relays its output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wsq_local, table1_latency, stored_scan, stored_write (see
perfbench/README.md). The last line of standard output is the JSON
result. The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root; after each build the
self-tests (perfbench_selftest) must pass before anything is measured.
Build and test output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_child(cmd, timeout, stdout):
    """Runs cmd to completion and returns (returncode, stdout text). The
    child is killed and reaped on timeout or if this script is stopped."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    code, _ = run_child(cmd, timeout, sys.stderr)
    return code == 0


def build(out: Path) -> bool:
    """Configures (once) and builds; runs the self-tests when the build
    produced new binaries. Returns False if any step fails."""
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", str(out), "-j", jobs],
                      BUILD_TIMEOUT_S):
        return False
    binaries = [out / "wsq_perfbench", out / "perfbench_selftest"]
    stamp = out / "selftest.passed"
    newest = max(b.stat().st_mtime_ns for b in binaries)
    if stamp.exists() and stamp.stat().st_mtime_ns >= newest:
        return True
    scratch = out / "selftest-scratch"
    ok = run_logged([str(out / "perfbench_selftest"), "--scratch",
                     str(scratch)], RUN_TIMEOUT_S)
    shutil.rmtree(scratch, ignore_errors=True)
    if ok:
        stamp.touch()
    return ok


def main() -> int:
    # A terminating signal unwinds through run_child's cleanup, so no
    # child outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not build(out):
        print("build or self-test failed; nothing measured", file=sys.stderr)
        return 1

    scratch = out / f"run-{os.getpid()}"
    cmd = [str(out / "wsq_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
