#!/usr/bin/env bash
# Compare output bytes on a float-kernel fingerprint that the replay manifest
# (tests/replay_set.json) records.
#
# numpy's CPU dispatch picks the float kernels, and so the output bytes. The
# manifest was recorded with numpy 2.4.6 on an AVX-512 host, under its default
# dispatch and with X86_V4, AVX512_ICL and AVX512_SPR disabled. This script
# disables those of the three that numpy reports on this CPU, which selects the
# second recorded fingerprint on such a host, and runs tests/test_replay.py,
# then the tests that check a package kernel against its oracle
# (tests/test_hashing.py, tests/test_table.py, tests/test_objective.py,
# tests/test_policy.py, tests/test_tasks.py and tests/test_discrepancy.py,
# whose probe evaluation runs the table's engines), so that a kernel and its
# oracle taking different dispatch paths fail here.
# Where the manifest lacks the fingerprint, that test skips its byte comparison
# and still checks the anchors; the script then prints a ::warning:: naming the
# fingerprint, so the skip shows in a GitHub Actions run.
#
# Usage, from the repository root, with numpy 2.4.6 installed:
#     bash .github/scripts/replay_on_recorded_fingerprint.sh
set -euo pipefail

NPY_DISABLE_CPU_FEATURES="$(python -c '
from numpy._core._multiarray_umath import __cpu_features__ as have
print(",".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if have.get(f)))')"
export NPY_DISABLE_CPU_FEATURES
fingerprint="$(python -c 'import sys; sys.path.insert(0, "tests"); from replay import fingerprint; print(fingerprint())')"
echo "numpy $(python -c 'import numpy; print(numpy.__version__)'), NPY_DISABLE_CPU_FEATURES=$NPY_DISABLE_CPU_FEATURES, fingerprint $fingerprint"
if ! python -c 'import sys; sys.path.insert(0, "tests"); from replay import load_set; sys.exit(sys.argv[1] not in load_set()["manifest"])' "$fingerprint"; then
  echo "::warning::tests/replay_set.json records no output hashes for float-kernel fingerprint $fingerprint, so tests/test_replay.py skips its byte comparison"
fi
PYTHONPATH=src python -m pytest -q -rs -p no:cacheprovider tests/test_replay.py \
  tests/test_hashing.py tests/test_table.py tests/test_objective.py tests/test_policy.py tests/test_tasks.py \
  tests/test_discrepancy.py
