"""The kernel micro-benchmarks build against the program and run.

    PYTHONPATH=src python -m pytest perfbench/test_kernels.py
"""

from kernels import KERNEL_NAMES, build


def test_every_kernel_builds_and_runs(tmp_path):
    kernels, errors = build(tmp_path)
    assert not errors
    assert sorted(kernels) == sorted(KERNEL_NAMES)
    for run in kernels.values():
        run()
