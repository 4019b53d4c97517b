#!/usr/bin/env python3
"""Build pipebench from this checkout's sources and run one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Configures and builds pipebench/ (Release, against ../src) into
.bench_build/pipebench, then replaces itself with the benchmark binary.
It adds the provenance the binary cannot see for itself: the git commit
when the checkout is a git repository, and a digest of the library
sources that identifies the code either way. Traced runs write their
spans to .bench_out/. Build output goes to stderr, so stdout carries
only the benchmark's report, whose last line is the result JSON.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pipebench"
OUT = ROOT / ".bench_out"


def fail(msg):
    print(f"pipebench: {msg}", file=sys.stderr)
    sys.exit(2)


def step(cmd):
    cmd = [str(c) for c in cmd]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if r.returncode != 0:
        fail(f"failed ({r.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step([cmake, "-S", HERE, "-B", BUILD, *generator,
              "-DCMAKE_BUILD_TYPE=Release"])
    step([cmake, "--build", BUILD, "-j", "2"])
    return BUILD / "pipebench"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    binary = build()
    extra = ["--commit", commit(), "--source-digest", source_digest()]
    if known.trace == "1" and known.workload.isidentifier() and known.seed.isdigit():
        OUT.mkdir(exist_ok=True)
        extra += ["--trace-out",
                  str(OUT / f"{known.workload}-seed{known.seed}.trace.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [str(binary), *sys.argv[1:], *extra])


if __name__ == "__main__":
    main()
