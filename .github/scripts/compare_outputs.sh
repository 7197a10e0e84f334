#!/usr/bin/env bash
# Byte-identity report: run the replay set (tests/replay_set.json: the shipped
# configs, and the configs its patches derive from them) at a base commit and
# in the working tree, then compare every output file.
#
# Usage: .github/scripts/compare_outputs.sh BASE_REV
#
# Prints a Markdown table, one row per output file: identical, config only
# (equal once the embedded config, the JSONL header's or the report's config
# key, is dropped on both sides, as a config schema change leaves it),
# differing, or missing on one side. A second table does the same for the digest of the
# batches each schedule run emits for training ("<run>/batches", see
# tests/replay.py), which no output file shows, and a third for the digest of
# the sampled streams of every run that trains ("<run>/tokens": lengths,
# tokens, rows, versions and rewards, no log probs), which a change that only
# moves float bits leaves identical. Both sides run the working
# tree's replay set, each on its own configs and its own src/. A fourth table
# gives each command's peak RSS (ru_maxrss) at both sides, the median of three
# runs each, so that a move of a few tenths of a MB reads above one run's
# noise. A last table
# gives the line count (wc -l) and the code-line count of each
# src/mismatchlab/*.py at both sides and in total, and the totals of
# tests/*.py, so that a suite that shrinks or grows shows beside the source
# it tests. A code line holds a token
# that is neither a comment nor part of a docstring, so a cut made by trimming
# prose shows in the first count alone. The report never fails: outputs may
# change on purpose, so it always exits 0.
set -u

base_rev="$1"
head_dir="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base"
if ! git -C "$head_dir" archive "$base_rev" | tar -x -C "$work/base"; then
  echo "Could not check out $base_rev; no byte-identity report."
  exit 0
fi

# run_side TREE OUT: the working tree's replay set, with TREE's code and configs, each command three times. The
# first run writes the compared output directory; each run appends its peak RSS (ru_maxrss, KB) to
# OUT/<run>.rss, one line, once the command returns.
run_side() {
  local tree="$1" out="$2" cmd path cfg run dest
  mkdir -p "$out"
  python "$head_dir/tests/replay.py" configs "$tree" "$out" > "$out/runs.txt"
  while read -r cmd path cfg; do
    for run in 1 2 3; do
      dest="$out/$cfg"
      if [ "$run" != 1 ]; then
        dest="$work/rss_run"
        rm -rf "$dest"
      fi
      if ! (cd "$tree" && PYTHONPATH=src python -c '
import resource, sys

from mismatchlab.cli import main

code = main(sys.argv[2:])
with open(sys.argv[1], "a", encoding="utf-8") as fh:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=fh)
sys.exit(code)' "$out/$cfg.rss" "$cmd" --config "$path" --out "$dest" > /dev/null 2>&1) && [ "$run" = 1 ]; then
        echo "$cfg" >> "$out/failed"
      fi
    done
  done < "$out/runs.txt"
}

# digests_of TREE: one "<run>/batches <sha256>" line per schedule run and one "<run>/tokens <sha256>" line per run
# that trains, from an in-process run of the replay set with TREE's code and configs; no line if that run fails.
digests_of() {
  python "$head_dir/tests/replay.py" record "$1" 2> /dev/null | python -c '
import json, sys
record = json.load(sys.stdin)
for hashes in record["manifest"].values():
    for key, digest in sorted(hashes.items()):
        if key.endswith("/batches"):
            print(key, digest)
for key, digest in sorted(record["tokens"].items()):
    print(key, digest)'
}

# digest_table HEADING SUFFIX: a Markdown table of the "<run>/SUFFIX" digests at base and head.
digest_table() {
  local key base head result
  echo "| $1 | base | head | result |"
  echo "|---|---|---|---|"
  for key in $(cut -d ' ' -f 1 "$work/base_digests" "$work/head_digests" | grep "/$2\$" | sort -u); do
    base="$(grep "^$key " "$work/base_digests" | cut -d ' ' -f 2)"
    head="$(grep "^$key " "$work/head_digests" | cut -d ' ' -f 2)"
    if [ -z "$base" ]; then
      result="missing at base"
    elif [ -z "$head" ]; then
      result="missing at head"
    elif [ "$base" = "$head" ]; then
      result="identical"
    else
      result="differing"
    fi
    echo "| \`$key\` | \`${base:0:12}\` | \`${head:0:12}\` | $result |"
  done
}

# without_config FILE: FILE with its embedded config dropped: the config key of line 1 of a .jsonl file, or of a
# .json report; fails on a file that is not JSON.
without_config() {
  python - "$1" << 'EOF'
import json, sys

path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    text = fh.read()
head, sep, rest = text.partition("\n") if path.endswith(".jsonl") else (text, "", "")
doc = json.loads(head)
doc.pop("config", None)
sys.stdout.write(json.dumps(doc) + sep + rest)
EOF
}

# rss_table: a Markdown table of each replay-set command's peak RSS in MB at base and head, the median of the
# runs a side recorded, n/a where it recorded none (its command failed).
rss_table() {
  python - "$work/base_out" "$work/head_out" << 'EOF'
import pathlib, statistics, sys

base, head = (pathlib.Path(arg) for arg in sys.argv[1:])


def megabytes(path):
    try:
        return statistics.median(int(line) for line in path.read_text(encoding="utf-8").split()) / 1024
    except (OSError, ValueError, statistics.StatisticsError):
        return None


print("| run | base peak RSS (MB, median of 3) | head peak RSS (MB, median of 3) | change |")
print("|---|---|---|---|")
for name in sorted({path.stem for side in (base, head) for path in side.glob("*.rss")}):
    b, h = megabytes(base / f"{name}.rss"), megabytes(head / f"{name}.rss")
    cells = ["n/a" if v is None else f"{v:.2f}" for v in (b, h)]
    change = "n/a" if b is None or h is None else f"{h - b:+.2f}"
    print(f"| `{name}` | {cells[0]} | {cells[1]} | {change} |")
EOF
}

# code_lines DIR: "<file> <code lines>" for each DIR/*.py, counted with ast (the docstrings) and tokenize;
# a file that does not parse counts 0.
code_lines() {
  python - "$1" << 'EOF'
import ast, io, pathlib, sys, tokenize

prose = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
         tokenize.ENDMARKER}
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
    source = path.read_text(encoding="utf-8")
    try:
        docstrings = [
            ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body
            for doc in node.body[:1]
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
        ]
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type in prose or (tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docstrings)):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
        print(path.name, len(lines))
    except (SyntaxError, tokenize.TokenError):
        print(path.name, 0)
EOF
}

run_side "$work/base" "$work/base_out"
run_side "$head_dir" "$work/head_out"
digests_of "$work/base" > "$work/base_digests"
digests_of "$head_dir" > "$work/head_digests"

echo "### Output bytes against $base_rev"
echo
echo "| output | result |"
echo "|---|---|"
for f in $( (cd "$work/base_out" && find . -mindepth 2 -type f; cd "$work/head_out" && find . -mindepth 2 -type f) | sort -u); do
  name="${f#./}"
  if [ ! -f "$work/base_out/$name" ]; then
    result="missing at base"
  elif [ ! -f "$work/head_out/$name" ]; then
    result="missing at head"
  elif cmp -s "$work/base_out/$name" "$work/head_out/$name"; then
    result="identical"
  elif without_config "$work/base_out/$name" > "$work/base_doc" 2> /dev/null \
    && without_config "$work/head_out/$name" > "$work/head_doc" 2> /dev/null \
    && cmp -s "$work/base_doc" "$work/head_doc"; then
    result="config only"
  else
    result="differing"
  fi
  echo "| \`$name\` | $result |"
done
echo
digest_table "emitted batches" batches
echo
digest_table "sampled streams" tokens
echo
rss_table
echo
code_lines "$work/base/src/mismatchlab" > "$work/base_code"
code_lines "$head_dir/src/mismatchlab" > "$work/head_code"
echo "| source file | base lines | head lines | change | base code lines | head code lines | change |"
echo "|---|---|---|---|---|---|---|"
base_total=0 head_total=0 base_code_total=0 head_code_total=0
for name in $( (cd "$work/base/src/mismatchlab" && ls -- *.py; cd "$head_dir/src/mismatchlab" && ls -- *.py) 2> /dev/null | sort -u); do
  base="$(wc -l 2> /dev/null < "$work/base/src/mismatchlab/$name" || echo 0)"
  head="$(wc -l 2> /dev/null < "$head_dir/src/mismatchlab/$name" || echo 0)"
  base_code="$(grep "^$name " "$work/base_code" | cut -d ' ' -f 2)"
  head_code="$(grep "^$name " "$work/head_code" | cut -d ' ' -f 2)"
  base_code="${base_code:-0}" head_code="${head_code:-0}"
  base_total=$((base_total + base)) head_total=$((head_total + head))
  base_code_total=$((base_code_total + base_code)) head_code_total=$((head_code_total + head_code))
  echo "| \`$name\` | $base | $head | $((head - base)) | $base_code | $head_code | $((head_code - base_code)) |"
done
echo "| total | $base_total | $head_total | $((head_total - base_total)) | $base_code_total | $head_code_total | $((head_code_total - base_code_total)) |"
base_tests="$(cat "$work/base/tests/"*.py 2> /dev/null | wc -l)"
head_tests="$(cat "$head_dir/tests/"*.py 2> /dev/null | wc -l)"
base_tests_code="$(code_lines "$work/base/tests" | awk '{s += $2} END {print s + 0}')"
head_tests_code="$(code_lines "$head_dir/tests" | awk '{s += $2} END {print s + 0}')"
echo "| \`tests/\` total | $base_tests | $head_tests | $((head_tests - base_tests)) | $base_tests_code | $head_tests_code | $((head_tests_code - base_tests_code)) |"
for side in base head; do
  if [ -f "$work/${side}_out/failed" ]; then
    echo
    echo "Commands that failed at $side: $(tr '\n' ' ' < "$work/${side}_out/failed")"
  fi
done
exit 0
