#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 pipebench/selftest.py

1. Smoke: every workload in BENCHMARK.json runs a few verified ops
   (--smoke), untraced and traced, and each result must keep the output
   contract: exactly the keys correct/attempted/failed/metrics, every
   end-to-end (untraced) or per-layer (traced) metric with its unit, and
   no failed op.
2. Same input, same counts: a second traced smoke run with the same seed
   must print bit-identical exact counts (the per-layer metrics in units
   count, B and ratio). A change that moves a count has to say so.
3. A directory holding only BENCHMARK.json and pipebench/ must make the
   benchmark exit non-zero without printing a result.

Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B", "ratio"}
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT, smoke=True):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(p):
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def contract_ok(res, defs):
    if res is None or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    values = [v.get("value") for v in res["metrics"].values()]
    return (got == want and res["correct"] is True and res["failed"] == 0
            and res["attempted"] >= 1
            and all(isinstance(v, (int, float)) for v in values))


def main():
    counts = [d["name"] for d in SPEC["per_layer"] if d["unit"] in COUNT_UNITS]
    for w in (w["name"] for w in SPEC["workloads"]):
        untraced = result_of(bench(w, 7, 0))
        check(contract_ok(untraced, SPEC["end_to_end"]),
              f"{w}: untraced smoke run verifies and prints every end-to-end metric")
        first = result_of(bench(w, 7, 1))
        check(contract_ok(first, SPEC["per_layer"]),
              f"{w}: traced smoke run verifies and prints every per-layer metric")
        second = result_of(bench(w, 7, 1))
        same = (first is not None and second is not None and
                all(first["metrics"][c]["value"] == second["metrics"][c]["value"]
                    for c in counts))
        check(same, f"{w}: two traced runs with one seed print identical counts")

    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(SPEC["workloads"][0]["name"], 1, 0, cwd=bare, smoke=False)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "without the library sources the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
