"""The replay set: runs whose every output byte tier-1 pins, keyed by a float-kernel fingerprint.

replay_set.json lists the runs. Each is a command, a shipped config, and
an optional patch that derives a config from it: each patch key names a
config section, and its fields overwrite that section's. Each run also
lists its behaviour anchors: a value that anchor_values reads off its
outputs, and the decimals the value is quoted to. The anchors hold on
every host. The manifest maps a float-kernel fingerprint to the SHA-256
of every output file of the set, by "run/file". numpy's CPU dispatch
changes the last bits of its float kernels, and so the output bytes,
which is why the hashes are keyed by the fingerprint: a host whose
fingerprint the manifest does not hold has no pinned bytes, but still
checks the anchors. A schedule run also pins "run/batches", the SHA-256
of every batch it emits for training (see batch_digests): with target
lengths its report depends on lengths alone, so no output file shows
its tokens. Every run that trains also pins "run/tokens", the SHA-256
of the sampled numbers of each batch it emits, without the log probs:
the tokens entry holds these for every fingerprint, since a change of
reduction order moves float bits but should sample the same stream.

Usage, from the repository root:

    python tests/replay.py configs TREE OUT
        writes each run's config, read from TREE's configs/ and patched,
        to OUT/<run>.json, and prints one "<command> <config> <run>" line
        per run.
    python tests/replay.py header DIR
        prints the config that the run whose outputs are in DIR embeds
        (line 1 of metrics.jsonl for train, else the config key of its
        .json report), as JSON: a config that replays the run.
    python tests/replay.py record [TREE]
        runs the set in-process with TREE's src/ (default: this checkout)
        and prints {"tokens": {"run/tokens": sha256}, "manifest":
        {fingerprint: {"run/file": sha256}}} as JSON: the tokens entry and
        a manifest entry. NPY_DISABLE_CPU_FEATURES in the environment
        selects another dispatch, and so records another fingerprint.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_PATH = Path(__file__).with_name("replay_set.json")


def fingerprint() -> str:
    """SHA-256 of np.exp, np.log, np.sqrt and np.cos over a fixed float64 vector."""
    import numpy as np

    x = np.linspace(0.01, 40.0, 4096)
    digest = hashlib.sha256()
    for kernel in (np.exp, np.log, np.sqrt, np.cos):
        digest.update(kernel(x).tobytes())
    return digest.hexdigest()


def load_set() -> dict:
    return json.loads(SET_PATH.read_text(encoding="utf-8"))


def write_config(run: dict, tree: Path, out: Path) -> Path:
    """The run's config, read from tree and patched, written to out/<run>.json."""
    config = json.loads((tree / run["config"]).read_text(encoding="utf-8"))
    for section, fields in run.get("patch", {}).items():
        config[section].update(fields)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{run['name']}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@contextlib.contextmanager
def batch_digests():
    """Hash every batch that the scheduler's two iteration entry points emit inside, per batch in emission order.
    Yields (batches, tokens, emitted): two hashlib objects and a list of the emitted batch sizes. batches takes the
    batch's mode ("budget" or "baseline"), then its per-token tokens, context rows, log probs under both engines and
    versions; tokens takes the mode, then the per-rollout lengths, the per-token tokens, context rows and versions, and
    the per-rollout rewards: every sampled number, and no float that a change of reduction order moves."""
    from mismatchlab import scheduler

    batches, tokens, emitted = hashlib.sha256(), hashlib.sha256(), []
    steps = {"run_iteration": b"budget", "run_iteration_baseline": b"baseline"}

    def hashing(step, mode):
        def emit(*args, **kwargs):
            report, batch = step(*args, **kwargs)
            batches.update(mode)
            for name in ("tokens", "rows", "lp_train", "lp_infer", "versions"):
                batches.update(getattr(batch, name).tobytes())
            tokens.update(mode)
            for name in ("lengths", "tokens", "rows", "versions", "rewards"):
                tokens.update(getattr(batch, name).tobytes())
            emitted.append(len(batch))
            return report, batch
        return emit

    originals = {name: getattr(scheduler, name) for name in steps}
    for name, mode in steps.items():
        setattr(scheduler, name, hashing(originals[name], mode))
    try:
        yield batches, tokens, emitted
    finally:
        for name, step in originals.items():
            setattr(scheduler, name, step)


def run_hashes(run: dict, tree: Path, out: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run one entry of the set in-process through cli.main. Returns the SHA-256 of each output file by "run/file",
    with a schedule run's batches digest as "run/batches"; and, for a run that trains, its tokens digest as
    "run/tokens" (see batch_digests)."""
    from mismatchlab import cli

    path = write_config(run, tree, out)
    with batch_digests() as (batches, tokens, emitted):
        code = cli.main([run["command"], "--config", str(path), "--out", str(out / run["name"])])
    if code != 0:
        raise RuntimeError(f"{run['name']}: {run['command']} exited {code}")
    hashes = {
        f"{run['name']}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted((out / run["name"]).iterdir())
    }
    if run["command"] == "schedule":
        hashes[f"{run['name']}/batches"] = batches.hexdigest()
    return hashes, {f"{run['name']}/tokens": tokens.hexdigest()} if emitted else {}


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def anchor_values(command: str, run_dir: Path) -> dict[str, float]:
    """The behaviour values a run's outputs report, by anchor name (perfbench/workloads.py's names where it has one)."""
    if command == "train":
        rows = _read_jsonl(run_dir / "metrics.jsonl")[1:]
        first = [r["reward_mean"] for r in rows[:20] if r["reward_mean"] is not None]
        last = [r["reward_mean"] for r in rows[-20:] if r["reward_mean"] is not None]
        return {
            "reward_first20": sum(first) / len(first),
            "reward_last20": sum(last) / len(last),
            "delta_first": rows[0]["delta"],
            "delta_last": rows[-1]["delta"],
            "delta_peak": max(r["delta"] for r in rows),
            "zero_grad_iterations": sum(r["grad_norm"] == 0.0 for r in rows),
        }
    if command == "schedule":
        report = json.loads((run_dir / "schedule_report.json").read_text(encoding="utf-8"))
        return {"speedup_rollout": report["mean_speedup_rollout"], "speedup_end_to_end": report["mean_speedup_end_to_end"]}
    if command == "compounding":
        fit = json.loads((run_dir / "compounding_fit.json").read_text(encoding="utf-8"))["fit"]
        return {"delta_c": fit["delta_c"], "delta_last": _read_jsonl(run_dir / "compounding_trace.jsonl")[-1]["delta"]}
    table = json.loads((run_dir / "sweep_table.json").read_text(encoding="utf-8"))
    return {f"final_delta/{s['alpha']}-{s['beta']}": s["final_delta"] for s in table["settings"]}


def header(run_dir: Path) -> dict:
    """The resolved config a run's outputs embed: metrics.jsonl's header line, else its .json report's config key."""
    metrics = run_dir / "metrics.jsonl"
    if metrics.exists():
        doc = json.loads(metrics.read_text(encoding="utf-8").splitlines()[0])
    else:
        doc = json.loads(next(run_dir.glob("*.json")).read_text(encoding="utf-8"))
    return doc["config"]


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "configs":
        for run in load_set()["runs"]:
            print(run["command"], write_config(run, Path(argv[1]), Path(argv[2])), run["name"])
        return 0
    if len(argv) == 2 and argv[0] == "header":
        print(json.dumps(header(Path(argv[1]))))
        return 0
    if 1 <= len(argv) <= 2 and argv[0] == "record":
        tree = Path(argv[1]).resolve() if len(argv) == 2 else ROOT
        sys.path.insert(0, str(tree / "src"))
        hashes, tokens = {}, {}
        with tempfile.TemporaryDirectory() as out:
            for run in load_set()["runs"]:
                run_files, run_tokens = run_hashes(run, tree, Path(out))
                hashes.update(run_files)
                tokens.update(run_tokens)
        print(json.dumps({"tokens": tokens, "manifest": {fingerprint(): hashes}}, indent=2))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
