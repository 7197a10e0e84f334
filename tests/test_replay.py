"""Every run of the replay set holds its behaviour anchors, samples the streams the tokens entry pins, and reproduces
the manifest's SHA-256 of each output file."""

from __future__ import annotations

import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mismatchlab import Algo, BiasMode, load_config
from mismatchlab.policy import ContextTable
from replay import (ROOT, RUN_CHILD, anchor_values, config_only, counts, digest_table, fingerprint, header, load_set,
                    results, rss_table, run_hashes, write_config)

REPLAY_SET = load_set()


@pytest.fixture(scope="module", params=REPLAY_SET["runs"], ids=lambda run: run["name"])
def replay_run(request, tmp_path_factory) -> tuple[dict, dict, dict, list, list, dict, Path]:
    """One run of each case, with `ContextTable._evaluate` wrapped: the case, its output hashes (with a schedule
    run's batches digest), its tokens digest, the rows of each table pass, every pass made a second time at one
    table's loaded params, its anchor values, and the directory that holds its config and its outputs (each
    named after the case). The tests below read this one run."""
    run, evaluate, passes, repeats, last = request.param, ContextTable._evaluate, [], [], weakref.WeakKeyDictionary()

    def recording(table, rows):
        if last.get(table) is table.params:
            repeats.append(rows.size)
        last[table] = table.params
        passes.append(rows.size)
        return evaluate(table, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContextTable, "_evaluate", recording)
        out = tmp_path_factory.mktemp(run["name"])
        hashes, tokens = run_hashes(run, ROOT, out)
    return run, hashes, tokens, passes, repeats, anchor_values(run["command"], out / run["name"]), out


def test_replay_set_runs_evaluate_each_version_in_one_table_pass(replay_run) -> None:
    """The loop's pass covers every row a version reads: check never backfills a row the pass missed,
    which would make a second pass at the same params."""
    run, _, _, passes, repeats, _, _ = replay_run
    assert not repeats, "a second table pass at one parameter version"
    assert passes or run["command"] == "compounding"


def test_replay_set_runs_hold_their_anchors(replay_run) -> None:
    """Each anchor within half a unit of the last decimal it is quoted to, on any fingerprint."""
    run, _, _, _, _, values, _ = replay_run
    assert run["anchors"], f"the replay set gives {run['name']} no anchors"
    off = {name: values[name] for name, (want, digits) in run["anchors"].items()
           if not abs(values[name] - want) <= 0.5 * 10.0**-digits + 1e-12}
    assert not off, f"{run['name']} misses its anchors: {off}"


def test_replay_set_runs_sample_the_recorded_streams(replay_run) -> None:
    """Every run that trains emits the lengths, tokens, rows, versions and rewards the tokens entry pins, on any
    fingerprint: a change that only moves float bits samples the same streams."""
    run, _, tokens, _, _, _, _ = replay_run
    assert tokens == {name: sha for name, sha in REPLAY_SET["tokens"].items() if name.split("/")[0] == run["name"]}


def test_replay_set_outputs_match_the_manifest(replay_run) -> None:
    run, hashes, _, _, _, _, _ = replay_run
    key = fingerprint()
    if key not in REPLAY_SET["manifest"]:
        pytest.skip(f"the replay manifest holds no hashes for float-kernel fingerprint {key}")
    pinned = {name: sha for name, sha in REPLAY_SET["manifest"][key].items() if name.split("/")[0] == run["name"]}
    assert pinned, f"the manifest pins no output of {run['name']}"
    assert hashes == pinned


def test_the_replay_set_runs_every_objective_and_mode_choice(tmp_path) -> None:
    """Each value of objective.algo, compounding.bias_mode and schedule.length_model is run by a command that reads
    it, so its output bytes are pinned: an option that no run reaches fails here."""
    configs = [(run["command"], load_config(write_config(run, ROOT, tmp_path))) for run in REPLAY_SET["runs"]]
    assert {cfg.objective.algo for command, cfg in configs if command != "compounding"} == set(Algo)
    assert {cfg.compounding.bias_mode for command, cfg in configs if command == "compounding"} == set(BiasMode)
    assert {cfg.schedule.length_model for command, cfg in configs if command == "schedule"} == {"policy", "lognormal"}


def test_header_reads_back_the_config_a_run_embeds(replay_run) -> None:
    run, *_, out = replay_run
    assert header(out / run["name"]) == load_config(out / f"{run['name']}.json").to_dict()


@pytest.mark.parametrize(("name", "base", "head", "want"), [
    ("metrics.jsonl", b'{"config": {"seed": 1}, "kind": "header"}\n{"x": 1}\n',
     b'{"config": {"seed": 2}, "kind": "header"}\n{"x": 1}\n', "config only"),
    ("summary.json", b'{"config": {"seed": 1}, "x": 1}', b'{"x": 1, "config": {"seed": 2}}', "config only"),
    ("metrics.jsonl", b'{"config": {"seed": 1}}\n{"x": 1}\n', b'{"config": {"seed": 2}}\n{"x": 2}\n', "differing"),
    ("summary.json", b'{"config": {"seed": 1}, "x": 1}', b'{"config": {"seed": 2}, "x": 2}', "differing"),
    ("summary.json", b"[1, 2]", b"[1, 3]", "differing"),
    ("notes.txt", b"config: 1", b"config: 2", "differing"),
])
def test_compare_calls_a_file_config_only_when_only_its_embedded_config_differs(name, base, head, want) -> None:
    assert results({name: base}, {name: head}, config_only) == {name: want}


def test_the_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path) -> None:
    source = tmp_path / "source.py"
    source.write_text('''"""A module docstring
over two lines."""

# a comment
class A:
    """A class docstring."""

    def f(self, x):  # a trailing comment
        """A method docstring."""
        return """a string
that is code"""
''', encoding="utf-8")
    assert counts(source) == (11, 4)
    source.write_text("def f(:\n    pass\n", encoding="utf-8")
    assert counts(source) == (2, 0)
    assert counts(tmp_path / "missing.py") == (0, 0)


def test_a_fresh_replay_import_loads_no_module_of_compare_alone() -> None:
    """statistics and subprocess, which numpy does not load, are imported where compare runs: a `run` child then
    holds neither, and its peak RSS reads closer to the lab's own."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, replay; "
            "print(*{'statistics', 'subprocess'} & sys.modules.keys())")
    child = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests")], capture_output=True, text=True, check=True)
    assert child.stdout.split() == []


def test_a_run_child_writes_what_the_run_writes_in_process(tmp_path) -> None:
    """compare's `run` child, which imports replay and calls main(["run", ...]), prints the output hashes of a run
    of the set that run_hashes computes in-process, its tokens digest and its peak RSS."""
    run = next(entry for entry in REPLAY_SET["runs"] if entry["name"] == "compounding")
    child = subprocess.run([sys.executable, "-c", RUN_CHILD, str(ROOT / "tests"), str(ROOT), run["name"],
                            str(tmp_path / "child")], capture_output=True, text=True, check=True)
    line = json.loads(child.stdout)
    assert (line["hashes"], line["tokens"]) == run_hashes(run, ROOT, tmp_path / "in_process")
    assert line["maxrss"] > 0


def test_compare_tables_list_what_one_side_lacks(capsys) -> None:
    digest_table("emitted batches", {"a/batches": "a" * 64, "b/batches": "b" * 64, "c/batches": "c" * 64},
                 {"b/batches": "b" * 64, "c/batches": "d" * 64, "d/batches": "e" * 64})
    assert capsys.readouterr().out.splitlines() == [
        "| emitted batches | base | head | result |",
        "| --- | --- | --- | --- |",
        f"| `a/batches` | `{'a' * 12}` | n/a | missing at head |",
        f"| `b/batches` | `{'b' * 12}` | `{'b' * 12}` | identical |",
        f"| `c/batches` | `{'c' * 12}` | `{'d' * 12}` | differing |",
        f"| `d/batches` | n/a | `{'e' * 12}` | missing at base |",
        "",
    ]


def test_the_rss_table_says_whether_every_head_run_read_below_every_base_run(capsys) -> None:
    """Medians in MB of ru_maxrss KB, the change, and "yes" only when the slowest head execution read below the
    fastest base one: a tie with a base execution is "no", and a run that one side lacks is "n/a"."""
    rss_table({"a": [2048, 2100, 2200], "b": [2048, 2048, 2048], "c": [1024]},
              {"a": [1900, 2000, 2047], "b": [2048, 1000, 1000], "d": [512]})
    assert capsys.readouterr().out.splitlines() == [
        "| run | base peak RSS (MB, median of 3) | head peak RSS (MB, median of 3) | change | "
        "every head run below every base run |",
        "| --- | --- | --- | --- | --- |",
        "| `a` | 2.05 | 1.95 | -0.10 | yes |",
        "| `b` | 2.00 | 0.98 | -1.02 | no |",
        "| `c` | 1.00 | n/a | n/a | n/a |",
        "| `d` | n/a | 0.50 | n/a | n/a |",
        "",
    ]
