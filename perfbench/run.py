"""mismatchlab benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_icepop --seed 1 --seconds 50 --trace 0

Each invocation of the workload's CLI command runs in a fresh process
(``child.py``), so interpreter start, imports and config loading count
toward set-up time as they do for a user. With ``--trace 0`` the run
reports the end-to-end metrics declared in ``BENCHMARK.json``; with
``--trace 1`` it alternates traced and untraced invocations of the first
sub-seed and reports the per-layer metrics. Every invocation's outputs
are checked (see ``workloads.py``); a run with any failed invocation
prints ``"correct": false`` and exits 1.

The last stdout line is the result object; the line before it is the
full run record (machine, sub-seeds, per-invocation times and output
SHA-256 hashes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from kernels import KERNEL_NAMES
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every process the run starts must end within this many seconds of its start.
HARD_LIMIT_S = 170.0
# Share of --seconds that the planned invocations are sized to fill.
FILL = 0.85
# Seconds reserved for the kernel micro-benchmarks in a traced run.
KERNEL_S = 4.0
# Traced invocations run about this much slower than untraced ones.
TRACE_SLOWDOWN = 1.2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _samples(values: list[float]) -> dict:
    """Sample count, median and quartiles of one run's per-invocation values."""
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


class Runner:
    def __init__(self, workload: Workload, work_dir: Path, started: float) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.started = started
        self.base_cfg = json.loads((ROOT / "configs" / workload.config).read_text(encoding="utf-8"))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def _timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))

    def invoke(self, sub_seed: int, traced: bool) -> dict:
        """Run the workload command once on the config copy for ``sub_seed``."""
        w = self.workload
        self.count += 1
        tag = f"{self.count:03d}"
        cfg = w.make_config(self.base_cfg, sub_seed)
        cfg_path = self.work_dir / f"cfg-{tag}.json"
        out_dir = self.work_dir / f"out-{tag}"
        rec_path = self.work_dir / f"rec-{tag}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        argv = [
            sys.executable, str(HERE / "child.py"), "--record", str(rec_path), "--trace", str(int(traced)),
            "--", w.command, "--config", str(cfg_path), "--out", str(out_dir),
        ]
        if w.command == "schedule":
            argv += ["--jobs", "1"]
        inv = {"sub_seed": sub_seed, "traced": traced, "failures": []}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            inv["failures"].append("timed out")
            return inv
        t1 = time.monotonic()
        inv["wall_s"] = t1 - t0
        inv["exit_code"] = proc.returncode
        if proc.returncode != 0:
            inv["failures"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return inv
        rec = json.loads(rec_path.read_text(encoding="utf-8"))
        if rec["loop_entry"] is None:
            inv["failures"].append("top-level loop never entered")
            return inv
        inv["setup_s"] = rec["loop_entry"] - t0
        inv["peak_rss_mb"] = rec["maxrss_kb"] / 1024.0
        inv["versions"] = {"python": rec["python"], "numpy": rec["numpy"]}
        inv["hashes"] = {name: _sha256(out_dir / name) for name in w.outputs}
        outcome = w.summarize(out_dir, cfg)
        inv["failures"] += outcome.failures
        inv["iterations"] = outcome.iterations
        inv["tokens"] = outcome.tokens
        inv["anchor_values"] = outcome.anchor_values
        if traced:
            inv["layers"] = layer_metrics(rec, inv)
            inv["unwrapped"] = rec["unwrapped"]
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv


def layer_metrics(rec: dict, inv: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from its span aggregates."""
    spans = rec["spans"]

    def agg(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def count(name: str, key: str) -> float:
        return spans.get(name, {}).get("counts", {}).get(key, 0)

    def policy(fn: str, key: str) -> float:
        return sum(agg(f"policy.{fn}@{c}", key) for c in ("scheduler", "objective", "discrepancy"))

    m: dict[str, float] = {
        "cli.import_s": rec["import_s"],
        "config.load_s": agg("config.load"),
        "discrepancy.make_probes_s": agg("discrepancy.make_probes"),
        "scheduler.budget_s": agg("scheduler.budget"),
        "scheduler.baseline_s": agg("scheduler.baseline"),
        "scheduler.self_s": agg("scheduler.budget", "self_s") + agg("scheduler.baseline", "self_s"),
        "scheduler.ticks": agg("policy.train_logits@scheduler", "calls"),
        "scheduler.generated_tokens": agg("policy.train_logits@scheduler", "rows"),
        "scheduler.trained_tokens": count("scheduler.budget", "trained_tokens")
        + count("scheduler.baseline", "trained_tokens"),
        "scheduler.purged_rollouts": count("scheduler.budget", "purged_rollouts"),
        "objective.grad_s": agg("objective.grad"),
        "objective.self_s": agg("objective.grad", "self_s"),
        "objective.tokens": count("objective.grad", "tokens"),
        "objective.update_s": agg("objective.update"),
        "discrepancy.measure_s": agg("discrepancy.measure"),
        "discrepancy.delta_and_gap_s": agg("discrepancy.delta_and_gap"),
        "discrepancy.probe_rows": agg("policy.train_logits@discrepancy", "rows"),
        "tasks.verify_s": agg("tasks.verify"),
        "tasks.verify_calls": agg("tasks.verify", "calls"),
        "trace.wall_s": inv["wall_s"],
        "trace.setup_s": inv["setup_s"],
        "trace.toplevel_s": rec["top_level_loop_s"],
        "trace.residual_s": inv["wall_s"] - inv["setup_s"] - rec["top_level_loop_s"],
        "trace.spans": rec["span_count"],
    }
    m["scheduler.rollout_s"] = m["scheduler.budget_s"] + m["scheduler.baseline_s"]
    gen, ticks = m["scheduler.generated_tokens"], m["scheduler.ticks"]
    m["scheduler.useful_token_ratio"] = m["scheduler.trained_tokens"] / gen if gen else 0.0
    m["scheduler.rows_per_call"] = gen / ticks if ticks else 0.0
    rows_total, time_total = 0.0, 0.0
    for fn in ("train_logits", "perturb", "log_softmax"):
        m[f"policy.{fn}_s"] = policy(fn, "total_s")
        m[f"policy.{fn}_calls"] = policy(fn, "calls")
        m[f"policy.{fn}_rows"] = policy(fn, "rows")
        rows_total += m[f"policy.{fn}_rows"]
        time_total += m[f"policy.{fn}_s"]
    m["policy.us_per_row"] = time_total / rows_total * 1e6 if rows_total else 0.0
    tokens = m["objective.tokens"]
    m["objective.us_per_token"] = m["objective.grad_s"] / tokens * 1e6 if tokens else 0.0
    m["objective.kept_ratio"] = count("objective.grad", "kept") / tokens if tokens else 0.0
    return m


# Per-layer metrics that are counts: they must repeat exactly across
# traced invocations of one sub-seed.
EXACT_COUNTS = (
    "scheduler.ticks",
    "scheduler.generated_tokens",
    "scheduler.trained_tokens",
    "scheduler.purged_rollouts",
    "objective.tokens",
    "discrepancy.probe_rows",
    "tasks.verify_calls",
    "policy.train_logits_rows",
    "policy.perturb_rows",
    "policy.log_softmax_rows",
)


def plan(workload: Workload, seed: int, seconds: int, traced: bool, base_cfg: dict) -> list[tuple[int, bool]]:
    """(sub-seed, traced) for every invocation of the run.

    Untraced: distinct sub-seeds, then the first one again to check
    replay. Traced: the first sub-seed only, alternating traced and
    untraced, starting and ending traced.
    """
    if traced:
        budget = FILL * seconds - KERNEL_S
        n = max(3, int(budget / (workload.nominal_s * (1 + TRACE_SLOWDOWN) / 2)))
        n += 1 - n % 2
        first = workload.sub_seeds(seed, base_cfg, 1)[0]
        return [(first, i % 2 == 0) for i in range(n)]
    n = max(2, int(FILL * seconds / workload.nominal_s))
    distinct = max(n - 1, workload.min_distinct(seed, base_cfg))
    seeds = workload.sub_seeds(seed, base_cfg, distinct)
    return [(s, False) for s in seeds] + [(seeds[0], False)]


def run_kernels(env: dict, work_dir: Path, timeout: float) -> dict:
    """Kernel micro-benchmarks in a fresh process: {"us": {...}, "errors": {...}}.

    They are diagnostics: a kernel that cannot be built or timed is
    reported in the record and reads 0, and does not fail the run.
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "kernels.py"), str(work_dir)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"us": {}, "errors": {"all": "timed out"}}
    if proc.returncode != 0:
        return {"us": {}, "errors": {"all": proc.stderr.strip()[-500:]}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_replay(invocations: list[dict]) -> None:
    """Fail an invocation whose outputs differ from an earlier one of the same sub-seed."""
    first: dict[int, dict] = {}
    for inv in invocations:
        if "hashes" not in inv:
            continue
        ref = first.setdefault(inv["sub_seed"], inv)
        if ref is not inv and inv["hashes"] != ref["hashes"]:
            inv["failures"].append("outputs differ from an earlier run of the same sub-seed")
        if ref is not inv and "layers" in inv and "layers" in ref:
            for key in EXACT_COUNTS:
                if inv["layers"][key] != ref["layers"][key]:
                    inv["failures"].append(f"count {key} differs between traced runs")


def end_to_end(invocations: list[dict]) -> dict[str, float]:
    """Run-level metrics of the invocations that passed every check.

    Wall time and the rates are means over the run (totals divided by
    totals): contention from other tenants of a shared machine comes in
    bursts of seconds, and over ten seeds the run-level mean spread less
    than the run-level median. Set-up and memory are medians.
    """
    ok = [inv for inv in invocations if not inv["failures"]]
    loop_s = sum(inv["wall_s"] - inv["setup_s"] for inv in ok)
    out = {
        "wall_s": statistics.fmean([inv["wall_s"] for inv in ok]) if ok else 0.0,
        "setup_s": _median([inv["setup_s"] for inv in ok]),
        "iters_per_s": sum(inv["iterations"] for inv in ok) / loop_s if loop_s > 0 else 0.0,
        "peak_rss_mb": _median([inv["peak_rss_mb"] for inv in ok]),
    }
    if all(inv["tokens"] is not None for inv in ok):
        out["trained_tokens_per_s"] = sum(inv["tokens"] for inv in ok) / loop_s if loop_s > 0 else 0.0
    return out


def per_layer(invocations: list[dict], kernel_us: dict) -> dict[str, float]:
    traced = [inv for inv in invocations if inv["traced"] and not inv["failures"]]
    untraced = [inv for inv in invocations if not inv["traced"] and not inv["failures"]]
    out: dict[str, float] = {}
    for key in traced[0]["layers"] if traced else ():
        out[key] = _median([inv["layers"][key] for inv in traced])
    out["trace.overhead_s"] = _median([i["wall_s"] for i in traced]) - _median([i["wall_s"] for i in untraced])
    for name in KERNEL_NAMES:
        out[f"kernel.{name}_us"] = kernel_us.get(name, 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the shipped config seed)")
    parser.add_argument("--seconds", type=int, default=50, help="run length the invocations are sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "mismatchlab" / "cli.py").is_file():
        print(f"no mismatchlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, work_dir, started)
        seed = runner.base_cfg["seed"] if args.seed is None else args.seed
        machine = machine_info()
        invocations = [runner.invoke(s, t) for s, t in plan(workload, seed, args.seconds, bool(args.trace), runner.base_cfg)]
        kernels = {"us": {}, "errors": {}}
        if args.trace:
            kernels = run_kernels(runner.env, work_dir, max(1.0, HARD_LIMIT_S - (time.monotonic() - started)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    run_failures: list[str] = []
    check_replay(invocations)
    if workload.is_shipped(seed, runner.base_cfg):
        # A shipped sub-seed that did not run (traced schedule runs use one)
        # or failed (already counted) leaves the anchors unchecked.
        shipped = workload.sub_seeds(seed, runner.base_cfg, workload.min_distinct(seed, runner.base_cfg))
        anchor_values = {inv["sub_seed"]: inv["anchor_values"] for inv in invocations if "anchor_values" in inv}
        if all(s in anchor_values for s in shipped):
            run_failures += workload.anchor_failures([anchor_values[s] for s in shipped])

    failed = sum(1 for inv in invocations if inv["failures"])
    if run_failures and not failed:
        failed = 1
    if args.trace:
        values = per_layer(invocations, kernels["us"])
        names = declared["per_layer"]
    else:
        values = end_to_end(invocations)
        names = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names if m["name"] in values}
    missing = [m["name"] for m in names if m["name"] not in values and m["name"] not in workload.undefined]
    if missing:
        run_failures.append(f"metrics not computed: {missing}")
        failed = max(failed, 1)
    if not all(math.isfinite(v["value"]) for v in metrics.values()):
        run_failures.append("non-finite metric value")
        failed = max(failed, 1)

    versions = next((inv["versions"] for inv in invocations if "versions" in inv), {})
    timed = [inv for inv in invocations if not inv["failures"] and not inv["traced"]]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine, "numpy": versions.get("numpy")},
        "run_s": time.monotonic() - started,
        "samples": {k: _samples([inv[k] for inv in timed]) for k in ("wall_s", "setup_s")} if timed else None,
        "failures": run_failures,
        "kernel_errors": kernels["errors"],
        "invocations": [{k: v for k, v in inv.items() if k not in ("versions", "anchor_values")} for inv in invocations],
        "metrics": metrics,
    }
    for line in run_failures + [f"sub-seed {i['sub_seed']}: {f}" for i in invocations for f in i["failures"]]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": metrics}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
