"""Byte identity: every run of the replay set reproduces the manifest's SHA-256 of each output file."""

from __future__ import annotations

import json
import weakref

import pytest

from mismatchlab import cli, load_config
from mismatchlab.policy import ContextTable
from replay import ROOT, fingerprint, header, load_set, run_hashes

REPLAY_SET = load_set()


@pytest.mark.parametrize("run", REPLAY_SET["runs"], ids=lambda run: run["name"])
def test_replay_set_outputs_match_the_manifest(run: dict, tmp_path) -> None:
    key = fingerprint()
    if key not in REPLAY_SET["manifest"]:
        pytest.skip(f"the replay manifest holds no hashes for float-kernel fingerprint {key}")
    pinned = {name: sha for name, sha in REPLAY_SET["manifest"][key].items() if name.split("/")[0] == run["name"]}
    assert pinned, f"the manifest pins no output of {run['name']}"
    assert run_hashes(run, ROOT, tmp_path) == pinned


@pytest.mark.parametrize("run", REPLAY_SET["runs"], ids=lambda run: run["name"])
def test_replay_set_runs_evaluate_each_version_in_one_table_pass(run: dict, tmp_path, monkeypatch) -> None:
    """The loop's pass covers every row a version reads: check never backfills a row the pass missed,
    which would make a second pass at the same params."""
    evaluate, passes, last = ContextTable._evaluate, [], weakref.WeakKeyDictionary()

    def recording(table, rows):
        assert last.get(table) is not table.params, "a second table pass at one parameter version"
        last[table] = table.params
        passes.append(rows.size)
        return evaluate(table, rows)

    monkeypatch.setattr(ContextTable, "_evaluate", recording)
    run_hashes(run, ROOT, tmp_path)
    assert passes or run["command"] == "compounding"


@pytest.mark.parametrize("command,name,patch", [("train", "train_icepop", {"run": {"n_iterations": 2}}),
                                                ("compounding", "compounding", {"compounding": {"n_steps": 3}})])
def test_header_reads_back_the_config_a_run_embeds(tmp_path, command: str, name: str, patch: dict) -> None:
    config = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    for section, fields in patch.items():
        config[section].update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert header(tmp_path / "out") == load_config(path).to_dict()
