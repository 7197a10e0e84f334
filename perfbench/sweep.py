"""Run the benchmark over many seeds and summarise the runs.

    python3 perfbench/sweep.py --seeds 1-9,1234 --sets 2 --trace-seed 1234 --out BENCH_N.json
    python3 perfbench/sweep.py --workload compounding --seeds 1-5 --out s.json

A set runs ``run.py`` once per seed and workload, one run at a time, and
reports for each end-to-end metric the median of the per-run values,
their quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median next to the metric's bound in ``BENCHMARK.json``. It
also collects every output hash by (workload, sub-seed) and flags any
sub-seed whose outputs differ between runs. ``--trace-seed`` adds one
traced run per workload for the per-layer metrics.

``--sets N`` measures N sets one after the other on the same seeds and
also reports, per metric, how far each set's median lies from the first
set's, as a share of it. That shift is how much the machine alone moves
a median; a change between two commits that is smaller than it is not
resolved by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def sweep(workloads: list[str], seeds: list[int], seconds: int, trace_seed: int | None) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    doc: dict = {"workloads": {}}
    for name in workloads:
        runs = []
        for seed in seeds:
            record, result = run_once(name, seed, seconds, 0)
            runs.append((record, result))
            doc.setdefault("machine", record["machine"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        hashes: dict[str, dict] = {}
        mismatched = set()
        for record, _ in runs:
            for inv in record["invocations"]:
                if "hashes" in inv:
                    ref = hashes.setdefault(str(inv["sub_seed"]), inv["hashes"])
                    if ref != inv["hashes"]:
                        mismatched.add(str(inv["sub_seed"]))
        entry = {
            "correct": all(r["correct"] for _, r in runs) and not mismatched,
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "hash_mismatches": sorted(mismatched),
            "metrics": {},
            "hashes": hashes,
            "runs": [
                {"seed": rec["seed"], "invocations": [
                    {k: inv.get(k) for k in ("sub_seed", "wall_s", "setup_s", "iterations", "tokens")}
                    for inv in rec["invocations"]]}
                for rec, _ in runs
            ],
        }
        for metric in declared["end_to_end"]:
            if metric["name"] not in runs[0][1]["metrics"]:
                continue
            s = stats([r["metrics"][metric["name"]]["value"] for _, r in runs])
            s.update(unit=metric["unit"], bound=bounds[metric["name"]])
            entry["metrics"][metric["name"]] = s
        if trace_seed is not None:
            record, result = run_once(name, trace_seed, seconds, 1)
            entry["traced"] = {"seed": trace_seed, "correct": result["correct"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            entry["correct"] = entry["correct"] and result["correct"]
        doc["workloads"][name] = entry
        print_summary(name, entry)
    return doc


def print_summary(name: str, entry: dict) -> None:
    print(f"\n{name}: correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}"
          f" hash_mismatches={entry['hash_mismatches']}")
    print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    for metric, s in entry["metrics"].items():
        print(f"  {metric:24s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.4f}"
              f" {s['bound']:6.2f} {s['spread'] / s['bound']:12.3f}")
    print(flush=True)


def between_sets(sets: list[dict]) -> dict:
    """Per workload and metric: each later set's median shift from the first set's, as a share of it."""
    out: dict = {}
    for name, first in sets[0].items():
        out[name] = {"outputs_identical": all(later[name]["hashes"] == first["hashes"] for later in sets[1:])}
        for metric, s in first["metrics"].items():
            shifts = [(later[name]["metrics"][metric]["median"] - s["median"]) / s["median"] for later in sets[1:]]
            out[name][metric] = {"shifts": shifts, "bound": s["bound"]}
    return out


def print_shifts(shifts: dict) -> None:
    print("median shift from the first set, as a share of its median:")
    for name, metrics in shifts.items():
        print(f"  {name}: outputs identical across sets: {metrics['outputs_identical']}")
        for metric, s in metrics.items():
            if metric == "outputs_identical":
                continue
            print(f"  {name:20s} {metric:24s} " + " ".join(f"{x:+8.4f}" for x in s["shifts"]) + f"   bound {s['bound']:.2f}")
    print(flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = args.seconds or declared["run_seconds"]
    seeds = parse_seeds(args.seeds)
    sets = [sweep(workloads, seeds, seconds, args.trace_seed if i == 0 else None) for i in range(args.sets)]
    doc = {
        "seconds": seconds,
        "seeds": seeds,
        "machine": sets[0]["machine"],
        "sets": [s["workloads"] for s in sets],
        "between_sets": between_sets([s["workloads"] for s in sets]),
    }
    if args.sets > 1:
        print_shifts(doc["between_sets"])
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    correct = all(e["correct"] for s in doc["sets"] for e in s.values())
    return 0 if correct and all(w["outputs_identical"] for w in doc["between_sets"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
