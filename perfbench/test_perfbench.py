"""Tests of the benchmark itself and of train's header replay.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from mismatchlab.cli import main as cli_main
from run import plan
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _base(name):
    return json.loads((ROOT / "configs" / WORKLOADS[name].config).read_text(encoding="utf-8"))


def test_train_header_replay_is_byte_identical(tmp_path):
    cfg = _base("train_icepop")
    cfg["run"]["n_iterations"] = 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0

    header = json.loads((tmp_path / "a" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()[0])
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(json.dumps(header["config"]), encoding="utf-8")
    assert cli_main(["train", "--config", str(replay_path), "--out", str(tmp_path / "b")]) == 0

    for name in ("metrics.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sub_seeds_are_a_function_of_the_seed():
    for name, w in WORKLOADS.items():
        base = _base(name)
        assert w.sub_seeds(7, base, 4) == w.sub_seeds(7, base, 4)
        assert len(set(w.sub_seeds(7, base, 4))) == 4
        assert w.sub_seeds(7, base, 4) != w.sub_seeds(8, base, 4)
    sched = WORKLOADS["schedule_longtail"]
    base = _base("schedule_longtail")
    assert sched.sub_seeds(base["seed"], base, 6)[:5] == base["schedule"]["seeds"]
    assert sched.make_config(base, 99)["schedule"]["seeds"] == [99]


def test_plan_repeats_the_first_sub_seed_and_covers_shipped_anchors():
    w = WORKLOADS["schedule_longtail"]
    base = _base("schedule_longtail")
    steps = plan(w, base["seed"], 1, False, base)
    seeds = [s for s, _ in steps]
    assert seeds[:5] == base["schedule"]["seeds"] and seeds[-1] == seeds[0]
    traced = plan(w, 3, 40, True, base)
    assert len({s for s, _ in traced}) == 1
    assert traced[0][1] and traced[-1][1] and not all(t for _, t in traced)


def test_anchor_check_flags_moved_and_missing_values():
    w = WORKLOADS["schedule_longtail"]
    assert w.anchor_failures([{"speedup_rollout": 4.5163, "speedup_end_to_end": 4.2423}]) == []
    assert w.anchor_failures([{"speedup_rollout": 4.60, "speedup_end_to_end": 4.2423}])
    assert w.anchor_failures([])


def test_tracer_self_time_excludes_children():
    class Mod:
        @staticmethod
        def inner(x):
            time.sleep(0.02)
            return x

        @staticmethod
        def outer(x):
            time.sleep(0.01)
            return Mod.inner(x)

    tracer = Tracer()
    tracer.wrap(Mod, "inner", "inner", rows=lambda a: a[0], counts=lambda out: {"n": out})
    tracer.wrap(Mod, "outer", "outer")
    Mod.outer(3)
    s = tracer.summary()
    assert s["inner"]["calls"] == 1 and s["inner"]["rows"] == 3 and s["inner"]["counts"] == {"n": 3}
    assert abs(s["outer"]["self_s"] - (s["outer"]["total_s"] - s["inner"]["total_s"])) < 1e-9
    assert s["outer"]["self_s"] < s["inner"]["total_s"]
    assert tracer.top_level_after(0.0) == s["outer"]["total_s"]


def test_traced_child_wraps_every_layer_function(tmp_path):
    cfg = _base("compounding")
    cfg["compounding"]["n_steps"] = 3
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--record", str(tmp_path / "rec.json"), "--trace", "1",
         "--", "compounding", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((tmp_path / "rec.json").read_text(encoding="utf-8"))
    assert rec["unwrapped"] == []
    assert rec["loop_entry"] is not None
    assert rec["spans"]["discrepancy.delta_and_gap"]["calls"] >= 3
    assert rec["spans"]["policy.train_logits@discrepancy"]["rows"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compounding", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
