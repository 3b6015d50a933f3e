#!/usr/bin/env python3
"""Builds and runs the GDP end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <append_small|read_verified|fs_bulk>
                             --seed <n> --seconds <s> --trace <0|1> [--tiny]

The first run configures and builds the library sources and the benchmark
into $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs only
re-check the build.  The benchmark's temporary storage and span dumps stay
inside that directory.  The last line of standard output is the JSON
result; the exit code is non-zero on a build failure or when any operation
failed or returned data that does not match what was written.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_revision():
    """Git revision when available, plus a digest of the library sources."""
    rev = "no-git"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{rev}+src:{digest.hexdigest()[:12]}"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "gdp_perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return build_dir / "gdp_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["append_small", "read_verified", "fs_bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small fixed sizes (repeatability smoke test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Server storage and span dumps stay inside the build directory.
    tmp = build_dir / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(build_dir / "spans"), "--rev", source_revision()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
