"""CLI output documents and flags."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from mismatchlab import discrepancy
from mismatchlab.cli import _dumps, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path: Path, name: str, **sections) -> str:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for section, values in sections.items():
        cfg[section].update(values)
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
    make_probes = discrepancy.make_probes

    def recording(n, *args, **kwargs):
        sizes.append(n)
        return make_probes(n, *args, **kwargs)

    monkeypatch.setattr(discrepancy, "make_probes", recording)
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
