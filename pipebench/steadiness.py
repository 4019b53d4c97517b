#!/usr/bin/env python3
"""Steadiness record: run each workload on ten seeds and keep every run.

    python3 pipebench/steadiness.py

Runs the untraced benchmark ten times per workload of BENCHMARK.json,
with seeds 1 to 10, one workload after the other. For every end-to-end
metric it reports the median, the quartiles (statistics.quantiles(values,
n=4)) and their distance as a share of the median, beside the metric's
bound. The set is appended, with every run and its provenance, to
pipebench/steadiness.json; earlier sets stay. When an earlier set ran the
same library and benchmark code, the new medians are compared with the
latest such set's. Exits 1 if a spread exceeds its bound, or a median
moved by more than its bound from that set's.
"""
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "steadiness.json"
RUNS = 10
FIRST_SEED = 1


def bench_digest():
    """Digest of the benchmark's own code, which run.py's source digest
    of src/ does not cover."""
    h = hashlib.sha256()
    for path in sorted(HERE.iterdir()):
        if path.is_file() and path.suffix in {".cpp", ".hpp", ".py", ".txt"}:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update((ROOT / "BENCHMARK.json").read_bytes())
    return h.hexdigest()[:16]


def run_once(cmd, workload, seed, seconds):
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    provenance = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("provenance ")), {})
    return {"workload": workload, "seed": seed,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "provenance": provenance}


def summarize(runs, spec):
    summary = {}
    for w in spec["workloads"]:
        rows = [r for r in runs if r["workload"] == w["name"]]
        per = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            per[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"],
                              "values": values}
        summary[w["name"]] = per
    return summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"sets": []}
    runs = []
    for w in spec["workloads"]:
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            r = run_once(spec["command"], w["name"], seed, spec["run_seconds"])
            runs.append(r)
            print(f"{w['name']:12s} seed {seed:3d}  " +
                  "  ".join(f"{n}={v:.4g}" for n, v in r["metrics"].items()),
                  flush=True)

    code = {"source_digest": runs[0]["provenance"].get("source_digest"),
            "bench_digest": bench_digest()}
    base_set = next((i for i in reversed(range(len(record["sets"])))
                     if record["sets"][i].get("code") == code), None)
    base = record["sets"][base_set]["summary"] if base_set is not None else None
    summary = summarize(runs, spec)
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"\n{'workload':12s} {'metric':12s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'moved':>7s} {'bound':>5s}")
    for w, per in summary.items():
        for m, s in per.items():
            moved = s["median"] / base[w][m]["median"] - 1 if base else None
            s["moved_from_previous_set"] = moved
            ok = ok and s["spread"] <= s["bound"]
            ok = ok and (moved is None or abs(moved) <= s["bound"])
            shown = "-" if moved is None else f"{moved:+.1%}"
            print(f"{w:12s} {m:12s} {s['median']:11.5g} {s['q1']:11.5g} "
                  f"{s['q3']:11.5g} {s['spread']:7.1%} {shown:>7s} {s['bound']:5.2f}")
    record["sets"].append({
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "code": code, "run_seconds": spec["run_seconds"],
        "runs_per_workload": RUNS, "first_seed": FIRST_SEED,
        "compared_with_set": base_set,
        "within_bounds": ok, "summary": summary, "runs": runs})
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nappended set {len(record['sets']) - 1} to {RECORD.relative_to(ROOT)}; "
          f"every spread and move within its bound: {ok}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
