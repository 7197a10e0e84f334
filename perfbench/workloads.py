"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one mismatchlab CLI command on a shipped config. A run
of the benchmark derives a list of sub-seeds from its ``--seed``, writes
one config copy per sub-seed and runs the command once per copy, then
once more on the first copy to check replay determinism.

Seed plumbing: ``train`` and ``compounding`` take the sub-seed as the
config's top-level ``seed``. ``schedule`` reads its seeds only from
``schedule.seeds`` and ignores ``--seed`` and ``--iterations`` (while
still writing them into its report header), so each ``schedule`` config
copy carries one sub-seed in ``schedule.seeds``.

When ``--seed`` equals the shipped config's seed, the first sub-seeds are
the shipped ones, and the run also checks the behaviour anchors that the
shipped configs are known to reproduce.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Outcome:
    """What one invocation's output files say."""

    iterations: int = 0
    # Trained tokens; None where the command trains on no tokens.
    tokens: int | None = 0
    failures: list[str] = field(default_factory=list)
    anchor_values: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    outputs: tuple[str, ...]
    # Wall time of one invocation at the baseline commit on a 2-vCPU
    # Xeon; sizes the number of invocations that fit in --seconds.
    nominal_s: float
    # Anchor name -> (expected value, decimals it is quoted to).
    anchors: dict[str, tuple[float, int]]
    summarize: Callable[[Path, dict], Outcome]
    seed_field: str = "seed"
    # End-to-end metrics this workload does not define.
    undefined: tuple[str, ...] = ()

    def is_shipped(self, seed: int, base_cfg: dict) -> bool:
        return seed == base_cfg["seed"]

    def sub_seeds(self, seed: int, base_cfg: dict, n: int) -> list[int]:
        """n distinct config seeds, a pure function of (workload, seed)."""
        if self.seed_field == "schedule.seeds":
            head = list(base_cfg["schedule"]["seeds"]) if self.is_shipped(seed, base_cfg) else []
        else:
            head = [seed]
        rng = random.Random(f"{self.name}/{seed}")
        out = head[:n]
        while len(out) < n:
            s = rng.randrange(1, 2**31)
            if s not in out:
                out.append(s)
        return out

    def min_distinct(self, seed: int, base_cfg: dict) -> int:
        """Distinct sub-seeds needed to check the anchors at this seed."""
        if self.seed_field == "schedule.seeds" and self.is_shipped(seed, base_cfg):
            return len(base_cfg["schedule"]["seeds"])
        return 1

    def make_config(self, base_cfg: dict, sub_seed: int) -> dict:
        cfg = copy.deepcopy(base_cfg)
        if self.seed_field == "schedule.seeds":
            cfg["schedule"]["seeds"] = [sub_seed]
        else:
            cfg["seed"] = sub_seed
        return cfg

    def anchor_failures(self, values: list[dict[str, float]]) -> list[str]:
        """Compare the mean of each anchor value over the shipped sub-seeds."""
        failures = []
        for key, (expected, digits) in self.anchors.items():
            got = [v[key] for v in values if key in v]
            if len(got) != len(values) or not got:
                failures.append(f"anchor {key}: missing")
                continue
            mean = sum(got) / len(got)
            if not abs(mean - expected) <= 0.5 * 10.0**-digits + 1e-12:
                failures.append(f"anchor {key}: {mean:.6g} is not {expected}")
        return failures


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _summarize_train(out: Path, cfg: dict) -> Outcome:
    res = Outcome()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    rows = _read_jsonl(out / "metrics.jsonl")[1:]
    n = cfg["run"]["n_iterations"]
    if summary.get("status") != "ok":
        res.failures.append(f"status {summary.get('status')!r}")
    if summary.get("iterations_completed") != n or len(rows) != n:
        res.failures.append(f"{len(rows)} metric rows, expected {n}")
    if not all(_finite(r["delta"]) and _finite(r["grad_norm"]) for r in rows):
        res.failures.append("non-finite delta or grad_norm")
    res.iterations = len(rows)
    res.tokens = sum(r["trained_tokens"] for r in rows)
    if len(rows) >= 20:
        first = [r["reward_mean"] for r in rows[:20] if r["reward_mean"] is not None]
        last = [r["reward_mean"] for r in rows[-20:] if r["reward_mean"] is not None]
        if first and last:
            res.anchor_values["reward_first20"] = sum(first) / len(first)
            res.anchor_values["reward_last20"] = sum(last) / len(last)
        res.anchor_values["delta_first"] = rows[0]["delta"]
        res.anchor_values["delta_last"] = rows[-1]["delta"]
    return res


def _summarize_schedule(out: Path, cfg: dict) -> Outcome:
    res = Outcome()
    report = json.loads((out / "schedule_report.json").read_text(encoding="utf-8"))
    per_seed = report["per_seed"]
    if [p["seed"] for p in per_seed] != cfg["schedule"]["seeds"]:
        res.failures.append("per-seed reports do not match schedule.seeds")
    n = cfg["schedule"]["n_iterations"]
    for p in per_seed:
        for mode in ("budget", "baseline"):
            if p[mode]["iterations"] != n:
                res.failures.append(f"{mode}: {p[mode]['iterations']} iterations, expected {n}")
            if not p[mode]["trained_tokens"] > 0:
                res.failures.append(f"{mode}: no trained tokens")
            res.iterations += p[mode]["iterations"]
            res.tokens += p[mode]["trained_tokens"]
        for key in ("speedup_rollout", "speedup_end_to_end"):
            if not (_finite(p[key]) and p[key] > 0):
                res.failures.append(f"{key} is {p[key]!r}")
            else:
                res.anchor_values[key] = p[key]
    return res


def _summarize_compounding(out: Path, cfg: dict) -> Outcome:
    res = Outcome()
    fit = json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))["fit"]
    steps = len(_read_jsonl(out / "compounding_trace.jsonl")) - 2  # header + final sample
    n = cfg["compounding"]["n_steps"]
    if steps != n:
        res.failures.append(f"{steps} steps, expected {n}")
    # The fit constants are chosen from the trace so that the growth bound
    # must hold on it: a false growth_holds is a defect, on any seed.
    if fit["growth_holds"] is not True or fit["vacuous"] is not False:
        res.failures.append(f"growth_holds={fit['growth_holds']} vacuous={fit['vacuous']}")
    if not (_finite(fit["delta_c"]) and fit["delta_c"] > 0):
        res.failures.append(f"delta_c is {fit['delta_c']!r}")
    else:
        res.anchor_values["delta_c"] = fit["delta_c"]
    res.iterations = steps
    res.tokens = None
    return res


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_icepop",
            command="train",
            config="train_icepop.json",
            outputs=("metrics.jsonl", "summary.json"),
            nominal_s=8.5,
            anchors={
                "reward_first20": (0.307, 3),
                "reward_last20": (0.579, 3),
                "delta_first": (0.203, 3),
                "delta_last": (0.591, 3),
            },
            summarize=_summarize_train,
        ),
        Workload(
            name="schedule_longtail",
            command="schedule",
            config="schedule_longtail.json",
            outputs=("schedule_report.json",),
            nominal_s=4.5,
            anchors={"speedup_rollout": (4.52, 2), "speedup_end_to_end": (4.24, 2)},
            summarize=_summarize_schedule,
            seed_field="schedule.seeds",
        ),
        Workload(
            name="compounding",
            command="compounding",
            config="compounding.json",
            outputs=("compounding_trace.jsonl", "compounding_fit.json"),
            nominal_s=0.95,
            anchors={"delta_c": (0.0197, 4)},
            summarize=_summarize_compounding,
            undefined=("trained_tokens_per_s",),
        ),
    )
}
