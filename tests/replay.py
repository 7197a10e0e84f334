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
    python tests/replay.py run TREE RUN OUT
        runs the set's run RUN once with TREE's src/ and configs/, writing
        its config and outputs into OUT, and prints one JSON line: its
        output hashes (with a schedule run's batches digest), its tokens
        digest and the process's peak RSS (ru_maxrss, KB).
    python tests/replay.py compare BASE_REV
        prints a Markdown report of the working tree against BASE_REV. Both
        sides run this checkout's replay set, each on its own configs/ and
        src/: each run three times a side, each in a fresh `run` child.
        Its tables: each output file (identical; config only, equal once
        both sides drop the config a JSONL header or a report embeds, as a
        config schema change leaves them; differing; or missing at one
        side), the batches and tokens digests, each run's peak RSS (the
        median of three a side, and whether every head execution read
        below every base one), and the lines and code lines of each
        src/mismatchlab/*.py and of tests/. Outputs may change on purpose,
        so it always exits 0, and lists the runs that failed at each side.
    python tests/replay.py lines [DIR ...]
        prints the lines (wc -l) and code lines of each DIR/*.py and their
        total (default: src/mismatchlab and tests). A code line holds a
        token that is neither a comment nor part of a docstring, so a cut
        made by trimming prose shows in the first count alone.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SET_PATH = Path(__file__).with_name("replay_set.json")
PACKAGE = Path("src", "mismatchlab")


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


def counts(path: Path) -> tuple[int, int]:
    """A file's lines (wc -l) and code lines, the lines that hold a token which is neither a comment nor part of a
    docstring: 0 code lines if the file does not parse, and (0, 0) if there is no file."""
    if not path.is_file():
        return 0, 0
    data = path.read_bytes()
    source = data.decode("utf-8")
    prose = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    try:
        docstrings = [
            ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body
            for doc in node.body[:1]
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
        ]
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type in prose or (tok.type == tokenize.STRING
                                     and any(a <= tok.start and tok.end <= b for a, b in docstrings)):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    except (SyntaxError, tokenize.TokenError):
        code = set()
    return data.count(b"\n"), len(code)


def total(paths) -> tuple[int, int]:
    """The summed counts of paths."""
    pairs = [counts(path) for path in paths]
    return sum(lines for lines, _ in pairs), sum(code for _, code in pairs)


def markdown(columns: list[str], rows: list[list]) -> None:
    """Print a Markdown table, then a blank line."""
    for cells in (columns, ["---"] * len(columns), *rows):
        print("|", " | ".join(map(str, cells)), "|")
    print()


def config_only(name: str, base: bytes, head: bytes) -> bool:
    """Whether two copies of output file name are equal once each drops the config it embeds: the config key of a
    .jsonl file's header line, or of a .json report. Copies that are not JSON objects are not."""
    def dropped(data: bytes) -> str:
        text = data.decode("utf-8")
        first, sep, rest = text.partition("\n") if name.endswith(".jsonl") else (text, "", "")
        return json.dumps({key: value for key, value in json.loads(first).items() if key != "config"}) + sep + rest

    try:
        return dropped(base) == dropped(head)
    except (ValueError, AttributeError):  # not UTF-8, not JSON, or not a JSON object
        return False


def results(base: dict, head: dict, near=lambda *_: False) -> dict[str, str]:
    """How head's value of each key of either side, in sorted order, compares with base's: missing at base, missing at
    head, identical, config only (the values differ and near(key, base value, head value) holds) or differing."""
    found = {}
    for key in sorted(base.keys() | head.keys()):
        if key not in base:
            found[key] = "missing at base"
        elif key not in head:
            found[key] = "missing at head"
        elif base[key] == head[key]:
            found[key] = "identical"
        else:
            found[key] = "config only" if near(key, base[key], head[key]) else "differing"
    return found


def digest_table(heading: str, base: dict[str, str], head: dict[str, str]) -> None:
    """Print how each digest compares, with the first 12 hex digits of each side's."""
    def cell(digest: str | None) -> str:
        return "n/a" if digest is None else f"`{digest[:12]}`"

    markdown([heading, "base", "head", "result"],
             [[f"`{key}`", cell(base.get(key)), cell(head.get(key)), found]
              for key, found in results(base, head).items()])


def rss_table(base: dict[str, list[int]], head: dict[str, list[int]]) -> None:
    """Print each run's median peak RSS a side, in MB, its change, and whether every head execution read below every
    base one: then every pairing of a base and a head execution reads head lower."""
    import statistics

    rows = []
    for name in sorted(base.keys() | head.keys()):
        b, h = (statistics.median(side[name]) / 1024 if name in side else None for side in (base, head))
        both = b is not None and h is not None
        below = ("yes" if max(head[name]) < min(base[name]) else "no") if both else "n/a"
        rows.append([f"`{name}`", *("n/a" if mb is None else f"{mb:.2f}" for mb in (b, h)),
                     f"{h - b:+.2f}" if both else "n/a", below])
    markdown(["run", "base peak RSS (MB, median of 3)", "head peak RSS (MB, median of 3)", "change",
              "every head run below every base run"], rows)


class Side(NamedTuple):
    outputs: dict[str, bytes]  # by "run/file", from each run's first execution
    digests: dict[str, str]  # "run/batches" and "run/tokens", from each run's first execution
    rss: dict[str, list[int]]  # each run's peak RSS (ru_maxrss, KB), one per execution that succeeded
    failed: list[str]  # the runs whose first execution failed


# A `run` child that imports this module, as the tests do, rather than run it as a script. On train_icepop, in two
# sets of three, its median peak RSS read +0.26 and -0.01 MB from a bare cli.main child's, a script child's +1.00
# and +0.93 MB.
RUN_CHILD = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import replay; "
             "sys.exit(replay.main(['run', *sys.argv[1:]]))")


def run_side(tree: Path, out: Path) -> Side:
    """Run each run of this checkout's replay set three times with tree's src/ and configs/, each execution in a fresh
    `run` child (RUN_CHILD); the first writes its config and outputs into out."""
    import subprocess

    digests, rss, failed = {}, {}, []
    for run in load_set()["runs"]:
        for execution in range(3):
            with tempfile.TemporaryDirectory() as scratch:
                child = subprocess.run([sys.executable, "-c", RUN_CHILD, str(Path(__file__).resolve().parent), str(tree),
                                        run["name"], str(out if execution == 0 else scratch)],
                                       capture_output=True, text=True)
            if child.returncode == 0:
                line = json.loads(child.stdout)
                rss.setdefault(run["name"], []).append(line["maxrss"])
                if execution == 0:
                    digests.update(line["tokens"])
                    digests.update((key, sha) for key, sha in line["hashes"].items() if key.endswith("/batches"))
            elif execution == 0:
                failed.append(run["name"])
    outputs = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.glob("*/*") if path.is_file()}
    return Side(outputs, digests, rss, failed)


def compare(base_rev: str) -> None:
    """Print the report of the working tree against base_rev (see the module docstring)."""
    import subprocess

    with tempfile.TemporaryDirectory() as work:
        base_tree = Path(work, "base")
        base_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base_rev], capture_output=True)
        if archive.returncode or subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout).returncode:
            print(f"Could not check out {base_rev}; no byte-identity report.")
            return
        base, head = run_side(base_tree, Path(work, "base_out")), run_side(ROOT, Path(work, "head_out"))
        print(f"### Output bytes against {base_rev}\n")
        markdown(["output", "result"],
                 [[f"`{name}`", found] for name, found in results(base.outputs, head.outputs, config_only).items()])
        for heading, suffix in (("emitted batches", "/batches"), ("sampled streams", "/tokens")):
            digest_table(heading, *({key: sha for key, sha in side.digests.items() if key.endswith(suffix)}
                                    for side in (base, head)))
        rss_table(base.rss, head.rss)
        names = sorted({path.name for tree in (base_tree, ROOT) for path in (tree / PACKAGE).glob("*.py")})
        sizes = [[f"`{name}`", counts(base_tree / PACKAGE / name), counts(ROOT / PACKAGE / name)] for name in names]
        for label, folder in (("total", PACKAGE), ("`tests/` total", Path("tests"))):
            sizes.append([label, total((base_tree / folder).glob("*.py")), total((ROOT / folder).glob("*.py"))])
        markdown(["source file", "base lines", "head lines", "change", "base code lines", "head code lines", "change"],
                 [[label, b[0], h[0], h[0] - b[0], b[1], h[1], h[1] - b[1]] for label, b, h in sizes])
    for name, side in (("base", base), ("head", head)):
        if side.failed:
            print(f"Commands that failed at {name}: {' '.join(side.failed)}")


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
    if len(argv) == 4 and argv[0] == "run":
        import resource

        tree = Path(argv[1]).resolve()
        sys.path.insert(0, str(tree / "src"))
        run = next(entry for entry in load_set()["runs"] if entry["name"] == argv[2])
        with contextlib.redirect_stdout(sys.stderr):
            hashes, tokens = run_hashes(run, tree, Path(argv[3]))
        print(json.dumps({"hashes": hashes, "tokens": tokens,
                          "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
        return 0
    if len(argv) == 2 and argv[0] == "compare":
        compare(argv[1])
        return 0
    if argv[:1] == ["lines"]:
        for folder in [Path(arg) for arg in argv[1:]] or [PACKAGE, Path("tests")]:
            paths = sorted(folder.glob("*.py"))
            markdown([f"`{folder}/`", "lines", "code lines"],
                     [[f"`{path.name}`", *counts(path)] for path in paths] + [["total", *total(paths)]])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
