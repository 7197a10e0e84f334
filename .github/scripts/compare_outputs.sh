#!/usr/bin/env bash
# Byte-identity report: run the shipped-config commands, plus two compounding
# configs derived from compounding.json and a policy-length schedule config
# derived from schedule_longtail.json, at a base commit and in the working
# tree, then compare every output file.
#
# Usage: .github/scripts/compare_outputs.sh BASE_REV
#
# Prints a Markdown table, one row per output file: identical, differing, or
# missing on one side. Each side runs its own configs from its own src/. The
# report never fails: outputs may change on purpose, so it always exits 0.
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

# run_side TREE OUT: the nine commands of the CI end-to-end step, with TREE's code and configs.
run_side() {
  local tree="$1" out="$2" run cmd path cfg
  mkdir -p "$out"
  # compounding's rl_loop mode is in no shipped config, so one is derived from compounding.json.
  python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["compounding"].update(bias_mode="rl_loop", n_steps=40); print(json.dumps(c))' \
    "$tree/configs/compounding.json" > "$out/compounding_rl_loop.json"
  # No shipped compounding config divides by a temperature (in delta_gradient and the reward gradient), so one is derived.
  python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["policy"]["temperature"] = 0.7; print(json.dumps(c))' \
    "$tree/configs/compounding.json" > "$out/compounding_t07.json"
  # No shipped config runs policy-length (EOS-ended) rollouts through both schedule modes at 512 tokens, so one is derived.
  python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["schedule"]["length_model"] = "policy"; print(json.dumps(c))' \
    "$tree/configs/schedule_longtail.json" > "$out/schedule_policy_length.json"
  for run in train:configs/train_icepop.json train:configs/train_grpo.json schedule:configs/schedule_longtail.json \
      schedule:configs/schedule_uniform.json compounding:configs/compounding.json sweep:configs/sweep.json \
      compounding:"$out/compounding_rl_loop.json" compounding:"$out/compounding_t07.json" \
      schedule:"$out/schedule_policy_length.json"; do
    cmd="${run%%:*}" path="${run#*:}"
    case "$path" in /*) ;; *) path="$tree/$path" ;; esac
    cfg="$(basename "$path" .json)"
    if ! (cd "$tree" && PYTHONPATH=src python -m mismatchlab "$cmd" --config "$path" --out "$out/$cfg" > /dev/null 2>&1); then
      echo "$cfg" >> "$out/failed"
    fi
  done
}

run_side "$work/base" "$work/base_out"
run_side "$head_dir" "$work/head_out"

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
  else
    result="differing"
  fi
  echo "| \`$name\` | $result |"
done
for side in base head; do
  if [ -f "$work/${side}_out/failed" ]; then
    echo
    echo "Commands that failed at $side: $(tr '\n' ' ' < "$work/${side}_out/failed")"
  fi
done
exit 0
