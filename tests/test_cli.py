"""CLI output documents and flags."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from mismatchlab import cli, scheduler
from mismatchlab.cli import _dumps, main
from mismatchlab.errors import NumericError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path: Path, name: str, **sections) -> str:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for section, values in sections.items():
        cfg[section].update(values)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_non_finite_floats_are_written_as_null() -> None:
    doc = {"a": math.nan, "b": [math.inf, 1.5, {"c": -math.inf}], "d": (math.nan, 2)}
    assert _dumps(doc) == '{"a": null, "b": [null, 1.5, {"c": null}], "d": [null, 2]}'


def test_finite_documents_keep_json_dumps_bytes() -> None:
    doc = {"x": 0.1, "y": [1, 2.5e-300, -0.0], "z": {"s": "t", "n": None, "b": True}}
    assert _dumps(doc) == json.dumps(doc)


@pytest.mark.parametrize(
    "command,flag",
    [("schedule", "--seed"), ("schedule", "--iterations"), ("compounding", "--iterations"), ("sweep", "--iterations")],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, command: str, flag: str) -> None:
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(CONFIGS / "schedule_longtail.json"), "--out", str(tmp_path / "o"), flag, "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_train_seed_and_iterations_flags_reach_the_run(tmp_path) -> None:
    out = tmp_path / "o"
    assert main(["train", "--config", str(CONFIGS / "train_icepop.json"), "--out", str(out), "--seed", "5", "--iterations", "2"]) == 0
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["config"]["seed"] == 5 and header["config"]["run"]["n_iterations"] == 2
    assert len(lines) == 3


def test_sweep_measures_run_n_probes_probes(tmp_path, monkeypatch) -> None:
    sizes = []
    make_probes = cli.make_probes

    def recording(n, *args, **kwargs):
        sizes.append(n)
        return make_probes(n, *args, **kwargs)

    monkeypatch.setattr(cli, "make_probes", recording)
    cfg = write_config(tmp_path, "sweep", run={"n_probes": 17}, sweep={"n_iterations": 1})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sizes and set(sizes) == {17}


def test_schedule_jobs_do_not_change_the_report(tmp_path) -> None:
    cfg = write_config(tmp_path, "schedule_longtail", schedule={"n_iterations": 2, "max_len": 48, "seeds": [11, 12]})
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["schedule", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        reports.append((out / "schedule_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_schedule_starts_no_more_workers_than_seeds(tmp_path, monkeypatch) -> None:
    import concurrent.futures

    workers = []
    pool = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers):
        workers.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    cfg = write_config(tmp_path, "schedule_longtail", schedule={"n_iterations": 1, "max_len": 16, "seeds": [11, 12]})
    assert main(["schedule", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "3"]) == 0
    assert workers == [2]


def test_schedule_runs_on_lognormal_lengths_of_any_valid_sigma(tmp_path) -> None:
    # sigma 800 draws infinite lengths, which are clamped to schedule.max_len.
    cfg = write_config(tmp_path, "schedule_longtail", schedule={"sigma": 800.0, "max_len": 16, "n_iterations": 2, "seeds": [11]})
    out = tmp_path / "o"
    assert main(["schedule", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "schedule_report.json").read_text(encoding="utf-8"))
    assert report["per_seed"][0]["budget"]["trained_tokens"] > 0


def test_compounding_header_replay_is_byte_identical(tmp_path) -> None:
    cfg = write_config(tmp_path, "compounding", compounding={"n_steps": 20})
    first = tmp_path / "a"
    assert main(["compounding", "--config", cfg, "--out", str(first), "--seed", "5"]) == 0
    header = json.loads((first / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["kind"] == "header" and header["config"]["seed"] == 5
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(header["config"]), encoding="utf-8")
    assert main(["compounding", "--config", str(replay), "--out", str(tmp_path / "b")]) == 0
    for name in ("compounding_trace.jsonl", "compounding_fit.json"):
        assert (first / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_tick_cap_writes_a_summary_and_exits_4(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "train_icepop", budget={"tick_cap": 3})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "tick_cap_exceeded"
    assert summary["iterations_completed"] == 0 and summary["final"] is None
    assert "3 ticks" in summary["error"]
    assert len((out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert "tick cap exceeded" in capsys.readouterr().err


def test_train_numeric_failure_writes_a_summary_and_exits_3(tmp_path, monkeypatch, capsys) -> None:
    def failing_update(*args, **kwargs):
        raise NumericError("parameter update produced non-finite weights")

    monkeypatch.setattr(scheduler, "sgd_update", failing_update)
    cfg = write_config(tmp_path, "train_icepop", run={"n_iterations": 3})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "numeric_failure"
    assert summary["error"] == "parameter update produced non-finite weights"
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    assert summary["iterations_completed"] == len(lines) - 1 == 1
    assert summary["final"] == json.loads(lines[-1])
    assert "numeric failure: parameter update" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_schedule_rejects_fewer_than_one_job(tmp_path, jobs: str) -> None:
    out = tmp_path / "o"
    assert main(["schedule", "--config", str(CONFIGS / "schedule_longtail.json"), "--out", str(out), "--jobs", jobs]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command,name,report,key,overrides",
    [
        ("sweep", "sweep", "sweep_table.json", "settings", {"sweep": {"n_iterations": 4}}),
        (
            "schedule", "schedule_longtail", "schedule_report.json", "per_seed",
            {"schedule": {"length_model": "policy", "n_iterations": 3, "max_len": 8, "seeds": [11]}},
        ),
    ],
)
def test_momentum_optimizer_changes_the_output(tmp_path, command, name, report, key, overrides) -> None:
    # The first momentum step equals the sgd step, so the runs differ from the third iteration on.
    # schedule uses policy lengths: lognormal target lengths do not depend on the parameters.
    outputs = []
    for optimizer in ("sgd", "momentum"):
        cfg = write_config(tmp_path / optimizer, name, objective={"optimizer": optimizer}, **overrides)
        out = tmp_path / optimizer / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outputs.append(json.dumps(json.loads((out / report).read_text(encoding="utf-8"))[key]))
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("key,value", [("momentum", 1.5), ("learning_rate", 0)])
def test_invalid_objective_values_exit_2_before_any_output(tmp_path, capsys, key: str, value: float) -> None:
    cfg = write_config(tmp_path, "train_icepop", objective={key: value})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"objective.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("section,values", [("objective", {"algo": "grpo"}), ("budget", {"token_budget": 200})])
def test_rl_loop_compounding_reads_the_objective_and_budget(tmp_path, section: str, values: dict) -> None:
    traces = []
    for name, changed in (("base", {}), ("changed", {section: values})):
        cfg = write_config(tmp_path / name, "compounding", compounding={"bias_mode": "rl_loop", "n_steps": 3}, **changed)
        out = tmp_path / name / "o"
        assert main(["compounding", "--config", cfg, "--out", str(out)]) == 0
        traces.append((out / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines()[1:])
    assert traces[0] != traces[1]
