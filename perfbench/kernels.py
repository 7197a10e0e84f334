"""Micro-benchmarks of the hot kernels, reported beside the per-layer metrics.

Shapes follow the workloads: a schedule_longtail tick has about 13 rows
in the baseline waves and up to 48/64 in a budget tick, and a probe
batch has 256 rows. The objective runs on a batch captured from
iteration 20 of train_icepop. These numbers are diagnostics, not gated.

Usage: python kernels.py WORK_DIR   (prints one JSON object: microseconds
per call by kernel name, and the kernels that could not be built)
"""

from __future__ import annotations

import json
import statistics
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

KERNEL_NAMES = (
    "perturb_13",
    "perturb_48",
    "perturb_256",
    "tick_hash_64",
    "objective_icepop",
    "measure_256",
)

_CAPTURE_ITERATION = 20


class _Captured(Exception):
    pass


def _capture_objective_args(work_dir: Path) -> tuple:
    """Arguments of objective_and_grad at one iteration of the train_icepop command."""
    from mismatchlab import cli, scheduler

    cfg_path = work_dir / "kernels-train.json"
    cfg = json.loads((ROOT / "configs" / "train_icepop.json").read_text(encoding="utf-8"))
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    original = scheduler.objective_and_grad
    calls: list[tuple] = []

    def capture(*args):
        calls.append(args)
        if len(calls) > _CAPTURE_ITERATION:
            raise _Captured
        return original(*args)

    scheduler.objective_and_grad = capture
    try:
        cli.main(["train", "--config", str(cfg_path), "--out", str(work_dir / "kernels-train")])
    except _Captured:
        pass
    finally:
        scheduler.objective_and_grad = original
    return calls[-1]


def build(work_dir: Path) -> tuple[dict, dict]:
    """(kernel name -> zero-argument callable, kernel name -> build error).

    A kernel whose functions the program no longer has is reported as an
    error instead of stopping the others.
    """
    import numpy as np

    from mismatchlab import discrepancy, objective, policy
    from mismatchlab.config import load_config

    cfg = load_config(ROOT / "configs" / "train_icepop.json")
    vocab = policy.Vocabulary(cfg.policy.vocab_size, cfg.policy.eos_id)
    infer = policy.infer_engine(cfg.mismatch.scale, cfg.mismatch.seed)
    params = policy.init_params(vocab, cfg.policy.n_features, cfg.policy.init_scale, cfg.seed)
    probes = discrepancy.make_probes(256, vocab, cfg.seed)
    rng = np.random.default_rng(0)

    def perturb(n: int):
        feats = rng.integers(0, params.n_features, size=(n, 4))
        logits = policy.batched_train_logits(params, feats, 1.0)
        kf = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        kv = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        return lambda: policy.perturb_logits(logits, kf, kv, infer.mismatch_scale)

    def tick_hash():
        tick = [(c.prompt_id, *c.window()) for c in probes[:64]]

        def run():
            for prompt_id, prev, last in tick:
                policy.feature_rows(prompt_id, prev, last, params.n_features)
                policy.noise_keys(infer, params.version_id, prompt_id, prev, last)

        return run

    def objective_batch():
        args = _capture_objective_args(work_dir)
        return lambda: objective.objective_and_grad(*args)

    builders = {
        "perturb_13": lambda: perturb(13),
        "perturb_48": lambda: perturb(48),
        "perturb_256": lambda: perturb(256),
        "tick_hash_64": tick_hash,
        "objective_icepop": objective_batch,
        "measure_256": lambda: lambda: discrepancy.measure(params, probes, infer, cfg.policy.temperature),
    }
    kernels, errors = {}, {}
    for name in KERNEL_NAMES:
        try:
            kernels[name] = builders[name]()
        except (AttributeError, ImportError, TypeError) as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
    return kernels, errors


def time_kernels(kernels: dict, repeat: int = 5, target_s: float = 0.05) -> dict[str, float]:
    """Median microseconds per call over ``repeat`` timed batches of each kernel."""
    out = {}
    for name in kernels:
        timer = timeit.Timer(kernels[name])
        number = max(1, int(target_s / max(timer.timeit(1), 1e-7)))
        out[name] = statistics.median(timer.repeat(repeat, number)) / number * 1e6
    return out


if __name__ == "__main__":
    kernels, errors = build(Path(sys.argv[1]))
    print(json.dumps({"us": time_kernels(kernels), "errors": errors}))
