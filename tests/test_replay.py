"""Byte identity: every run of the replay set reproduces the manifest's SHA-256 of each output file."""

from __future__ import annotations

import pytest

from replay import ROOT, fingerprint, load_set, run_hashes

REPLAY_SET = load_set()


@pytest.mark.parametrize("run", REPLAY_SET["runs"], ids=lambda run: run["name"])
def test_replay_set_outputs_match_the_manifest(run: dict, tmp_path) -> None:
    key = fingerprint()
    if key not in REPLAY_SET["manifest"]:
        pytest.skip(f"the replay manifest holds no hashes for float-kernel fingerprint {key}")
    pinned = {name: sha for name, sha in REPLAY_SET["manifest"][key].items() if name.split("/")[0] == run["name"]}
    assert pinned, f"the manifest pins no output of {run['name']}"
    assert run_hashes(run, ROOT, tmp_path) == pinned
