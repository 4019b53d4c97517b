#!/usr/bin/env python3
"""Gate on the benchmark's exact counts.

    python3 .github/check_bench_counts.py [--write]

Runs one traced smoke run of every workload in BENCHMARK.json at seed 7
and compares its exact counts (fill, blocks, flops by BLAS level,
messages, bytes, solve tasks) with .github/bench_counts.json, with no
tolerance. Times are printed for information only. A change that moves a
count on purpose regenerates the file with --write and says why.

Exits 0 when every count matches.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "bench_counts.json"
SEED = 7
COUNTS = ["matrix.ata_nnz", "symbolic.fill_nnz", "supernode.blocks",
          "blas.flops", "blas.blas1_flops", "blas.blas2_flops",
          "blas.blas3_flops", "comm.messages", "comm.bytes",
          "core.solve_tasks"]
TIMES = ["core.factor_ms", "core.update_ms", "blas.gflops", "solve.prepare_ms"]


def run(workload):
    argv = [sys.executable, str(ROOT / "pipebench" / "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--smoke", "--trace", "1"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload}: benchmark failed ({p.returncode})\n{p.stderr}")
    return json.loads(lines[-1])["metrics"]


def main():
    write = sys.argv[1:] == ["--write"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {}
    for w in (w["name"] for w in spec["workloads"]):
        metrics = run(w)
        got[w] = {c: metrics[c]["value"] for c in COUNTS}
        info = ", ".join(f"{t} {metrics[t]['value']}" for t in TIMES)
        print(f"{w}: {info} (informational)")
    if write:
        EXPECTED.write_text(json.dumps({"seed": SEED, "counts": got},
                                       indent=2) + "\n")
        print(f"wrote {EXPECTED}")
        return
    want = json.loads(EXPECTED.read_text())["counts"]
    bad = [(w, c, want.get(w, {}).get(c), got[w][c])
           for w in got for c in COUNTS
           if want.get(w, {}).get(c) != got[w][c]]
    for w, c, expected, actual in bad:
        print(f"FAIL  {w}: {c} = {actual}, expected {expected}")
    print(f"{len(bad)} count(s) differ" if bad else "all counts match")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
