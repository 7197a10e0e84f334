"""Run one mismatchlab CLI command in this fresh process and record timings.

Usage: python child.py --record FILE --trace 0|1 -- <mismatchlab CLI args>

The command runs through ``mismatchlab.cli.main``. The record notes when
the workload's top-level loop (``train_loop`` or
``compounding_experiment``) was first entered, on the system-wide
monotonic clock that the parent also reads, so the parent can split its
measured wall time into set-up and loop time. With ``--trace 1`` the
public functions of each layer are wrapped where their callers bind
them, and the record carries the per-span aggregates.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def _rows_first(args) -> int:
    return int(args[0].shape[0])


def _rows_second(args) -> int:
    return int(args[1].shape[0])


def _report_counts(out) -> dict:
    report = out[0]
    return {"trained_tokens": report.trained_tokens, "purged_rollouts": report.purged_rollouts}


def _loss_counts(out) -> dict:
    return {"tokens": out.token_count, "kept": int(out.per_token_mask_kept.sum())}


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap each layer's public functions at the module that calls them.

    Returns the wrap points the program no longer has, so a renamed
    function shows up in the record instead of crashing the run.
    """
    from mismatchlab import cli, discrepancy, objective, scheduler

    points = [
        (cli, "load_config", "config.load", None, None),
        (cli, "make_probes", "discrepancy.make_probes", None, None),
        (cli, "init_params", "policy.init_params", None, None),
        (cli, "train_loop", "scheduler.train_loop", None, None),
        (cli, "compounding_experiment", "discrepancy.compounding_experiment", None, None),
        (scheduler, "run_iteration", "scheduler.budget", None, _report_counts),
        (scheduler, "run_iteration_baseline", "scheduler.baseline", None, _report_counts),
        (scheduler, "verify", "tasks.verify", None, None),
        (scheduler, "objective_and_grad", "objective.grad", None, _loss_counts),
        (scheduler, "sgd_update", "objective.update", None, None),
        (scheduler, "momentum_update", "objective.update", None, None),
        (scheduler, "measure", "discrepancy.measure", None, None),
        (discrepancy, "delta_and_gap", "discrepancy.delta_and_gap", None, None),
    ]
    for module, caller in ((scheduler, "scheduler"), (objective, "objective"), (discrepancy, "discrepancy")):
        points += [
            (module, "batched_train_logits", f"policy.train_logits@{caller}", _rows_second, None),
            (module, "batched_log_softmax", f"policy.log_softmax@{caller}", _rows_first, None),
        ]
        if module is not objective:
            points.append((module, "perturb_logits", f"policy.perturb@{caller}", _rows_first, None))
    return [
        f"{module.__name__}.{attr}"
        for module, attr, name, rows, counts in points
        if not tracer.wrap(module, attr, name, rows=rows, counts=counts)
    ]


def mark_loop_entry(cli, entries: list) -> None:
    """Record the first entry into the workload's top-level loop."""
    for attr in ("train_loop", "compounding_experiment"):
        fn = getattr(cli, attr, None)
        if fn is None:
            continue

        def marked(*args, _fn=fn, **kwargs):
            if not entries:
                entries.append(time.monotonic())
            return _fn(*args, **kwargs)

        setattr(cli, attr, marked)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.monotonic()
    import numpy

    from mismatchlab import cli

    import_s = time.monotonic() - t0
    tracer = Tracer() if args.trace else None
    unwrapped = install_tracer(tracer) if tracer is not None else []
    entries: list[float] = []
    mark_loop_entry(cli, entries)

    rc = cli.main(cli_args)

    record = {
        "t_start": T_START,
        "import_s": import_s,
        "loop_entry": entries[0] if entries else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exit_code": rc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        record["unwrapped"] = unwrapped
        record["span_count"] = len(tracer.spans)
        record["top_level_loop_s"] = tracer.top_level_after(entries[0]) if entries else 0.0
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
