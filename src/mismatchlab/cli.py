"""Batch experiment runner.

Commands are non-interactive and fully seeded: train writes one JSONL
metrics row per iteration plus a summary document, schedule compares the
budget-partitioned scheduler against the single-pass baseline on shared
seeds, compounding runs the discrepancy-growth dynamics experiment, and
sweep compares masking-bound settings. COMMANDS maps each command name
to its function, for the parser and the dispatch alike. Every run's
vocabulary, engine, initial params and probes come from one helper,
_setup, and every training run, including the sweep's settings and
compounding's rl_loop mode, is set up from its config by one more,
_train_run; a command derives that config with dataclasses.replace, so
the sections check their own invariants again.
A run is a fold: train_loop keeps nothing per iteration, so each command
folds what it writes (rows, sums, lists of scalars) in its on_step. One
writer, _Output, owns each command's output: the out dir, the JSONL
header and rows flushed as they land, and the final document, which on a
NumericError or TickCapError carries status and error before the
failure goes on to main; any other exception removes it.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 tick cap
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .discrepancy import BiasMode, compounding_experiment, fit_affine_trace, make_probes
from .errors import ConfigError, NumericError, TickCapError
from .objective import Algo
from .policy import PolicyParams, Vocabulary, infer_engine, init_params
from .scheduler import SchedulerState, SyntheticPromptSource, train_loop

METRICS_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TICK_CAP = 4


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dumps(obj) -> str:
    """Strict JSON text of a document; non-finite floats are written as null."""
    return json.dumps(_sanitize(obj), allow_nan=False)


def _vocab(cfg: ExperimentConfig) -> Vocabulary:
    return Vocabulary(size=cfg.policy.vocab_size, eos_id=cfg.policy.eos_id)


def _open(path: Path):
    try:
        return path.open("w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror or exc}") from exc


class _Output:
    """The output of one command under out_dir: its final document, and a JSONL file of rows when named.

    Making it creates out_dir and its parents and opens both files, or
    raises a ConfigError and writes neither; then it writes the rows
    file's header, doc's config. row() appends a line and flushes it, so
    the lines written survive a failure. The command fills doc in as its
    run folds. Leaving the with block writes doc; on a NumericError or
    TickCapError it writes doc with the failure's status (a status
    already in doc keeps its place) and error, and lets the failure go
    on to main, which maps it to its message and exit code. Any other
    exception removes the document, so none is left empty, and goes on.
    """

    def __init__(self, out_dir: Path, name: str, doc: dict, rows: str | None = None) -> None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {out_dir}: {exc}") from exc
        self._path, self._doc = out_dir / name, doc
        self._file = _open(self._path)
        try:
            self._rows = _open(out_dir / rows) if rows else None
        except ConfigError:
            self._file.close()
            self._path.unlink()
            raise
        if self._rows:
            self.row({"schema_version": METRICS_SCHEMA_VERSION, "kind": "header", "config": doc["config"]})

    def __enter__(self) -> _Output:
        return self

    def row(self, obj: dict) -> None:
        self._rows.write(_dumps(obj) + "\n")
        self._rows.flush()

    def __exit__(self, kind, failure, traceback) -> bool:
        if self._rows:
            self._rows.close()
        documented = kind is None or issubclass(kind, (NumericError, TickCapError))
        if documented:
            doc = self._doc
            if failure is not None:
                status = "numeric_failure" if isinstance(failure, NumericError) else "tick_cap_exceeded"
                doc = {**doc, "status": status, "error": str(failure)}
            self._file.write(_dumps(doc) + "\n")
        self._file.close()
        if not documented:
            self._path.unlink()
        return False


def _setup(cfg: ExperimentConfig, probes=None) -> tuple:
    """(vocabulary, inference engine, initial params, probes) of cfg, all seeded by cfg.seed; the probes are
    make_probes' unless given. It calls infer_engine, init_params and make_probes by this module's names, where
    perfbench/child.py and the tests wrap them."""
    vocab = _vocab(cfg)
    infer = infer_engine(cfg.mismatch.scale, cfg.mismatch.seed)
    params = init_params(vocab, cfg.policy.n_features, cfg.policy.init_scale, cfg.seed)
    return vocab, infer, params, make_probes(cfg.run.n_probes, vocab, cfg.seed) if probes is None else probes


def _train_run(
    cfg: ExperimentConfig, source: SyntheticPromptSource | None = None, baseline: bool = False, on_step=None, probes=None
) -> PolicyParams:
    """Train run.n_iterations iterations as cfg and _setup set them up.

    The prompts come from source, by default the task distribution up to
    tasks.max_len. train_loop keeps nothing per iteration: on_step gets
    each one, and is where a caller folds what it writes. The run starts
    through the module-level name train_loop, so a wrapper bound there
    (as perfbench/child.py binds one) sees every run start. Returns the
    final parameters; the scheduler state, which holds the run's context
    table, is freed on return.
    """
    vocab, infer, params, probes = _setup(cfg, probes)
    if source is None:
        source = SyntheticPromptSource(vocab, max_len=cfg.tasks.max_len)
    state = SchedulerState(vocab, source, cfg.seed, cfg.policy.n_features, infer, cfg.policy.temperature)
    return train_loop(
        cfg.run.n_iterations, state, params, cfg.budget, cfg.objective, probes, baseline=baseline, on_step=on_step
    )


def _metrics_row(cfg: ExperimentConfig, report, loss, sample) -> dict:
    wall_ticks = report.rollout_ticks + cfg.budget.sync_cost_ticks
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "iteration": report.iteration,
        "algo": cfg.objective.algo.value,
        "reward_mean": report.reward_mean,
        "grad_norm": loss.grad_norm,
        "delta": sample.delta,
        "max_token_gap": sample.max_token_gap,
        "clipped_fraction": loss.clipped_fraction,
        "rollout_ticks": report.rollout_ticks,
        "trained_tokens": report.trained_tokens,
        "stale_token_fraction": report.stale_token_fraction,
        "wall_ms": float(wall_ticks),
    }


def cmd_train(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write metrics.jsonl, the header then each iteration's row as it lands, and summary.json, which counts the
    rows and repeats the last; a run without a failure adds the final version and the tick clock: the rows' wall ticks, summed."""
    summary = {"schema_version": METRICS_SCHEMA_VERSION, "status": "ok", "config": cfg.to_dict(),
               "iterations_completed": 0, "final": None}
    with _Output(out_dir, "summary.json", summary, rows="metrics.jsonl") as out:
        tick_clock = 0

        def flush_row(report, loss, sample) -> None:
            nonlocal tick_clock
            tick_clock += report.rollout_ticks + cfg.budget.sync_cost_ticks
            summary["final"] = _metrics_row(cfg, report, loss, sample)
            summary["iterations_completed"] += 1
            out.row(summary["final"])

        summary["final_version"] = _train_run(cfg, on_step=flush_row).version_id
        summary["tick_clock"] = tick_clock
    return EXIT_OK


def _schedule_one_seed(cfg: ExperimentConfig, seed: int) -> dict:
    """Budget-partitioned vs baseline run on one shared seed. Both modes measure the same probes, frozen
    Contexts, and draw from the same prompt source, which holds no state (each run's SchedulerState owns its
    prompt stream): both are built once. Each iteration of either mode completes a rollout or raises
    TickCapError, so trained tokens and ticks are positive and no ratio divides by zero."""
    assert cfg.schedule is not None
    sch = cfg.schedule
    cfg = dataclasses.replace(cfg, seed=seed, run=dataclasses.replace(cfg.run, n_iterations=sch.n_iterations))
    probes = make_probes(cfg.run.n_probes, _vocab(cfg), seed)
    source = SyntheticPromptSource(_vocab(cfg), cfg.tasks.max_len, sch.length_model, sch.median, sch.sigma)

    totals = {}
    for mode in ("budget", "baseline"):
        rollout_ticks = trained = iterations = 0

        def fold(report, loss, sample) -> None:
            nonlocal rollout_ticks, trained, iterations
            rollout_ticks += report.rollout_ticks
            trained += report.trained_tokens
            iterations += 1

        _train_run(cfg, source, baseline=(mode == "baseline"), on_step=fold, probes=probes)
        totals[mode] = {
            "rollout_ticks": rollout_ticks,
            "end_to_end_ticks": rollout_ticks + cfg.budget.sync_cost_ticks * iterations,
            "trained_tokens": trained,
            "iterations": iterations,
            "ticks_per_trained_token": rollout_ticks / trained,
        }
    b, c = totals["baseline"], totals["budget"]
    return {
        "seed": seed,
        "budget": c,
        "baseline": b,
        "speedup_rollout": b["ticks_per_trained_token"] / c["ticks_per_trained_token"],
        "speedup_end_to_end": (
            (b["end_to_end_ticks"] / b["trained_tokens"]) / (c["end_to_end_ticks"] / c["trained_tokens"])
        ),
    }


def cmd_schedule(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write schedule_report.json: per seed in order, then the mean speedups. On a NumericError or
    TickCapError the report holds status, error and the seeds done before the failing one."""
    if cfg.schedule is None:
        raise ConfigError("schedule command requires a schedule section (length-distribution spec)")
    report = {"schema_version": METRICS_SCHEMA_VERSION, "config": cfg.to_dict(), "per_seed": []}
    with _Output(out_dir, "schedule_report.json", report):
        per_seed = report["per_seed"]  # extend keeps the seeds done before one that raises
        per_seed.extend(_schedule_one_seed(cfg, seed) for seed in cfg.schedule.seeds)
        report["mean_speedup_rollout"] = sum(r["speedup_rollout"] for r in per_seed) / len(per_seed)
        report["mean_speedup_end_to_end"] = sum(r["speedup_end_to_end"] for r in per_seed) / len(per_seed)
    return EXIT_OK


def cmd_compounding(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write compounding_trace.jsonl, the header then each step's sample as it is measured, and
    compounding_fit.json. On a NumericError or TickCapError the trace keeps the steps measured before it,
    and the fit document holds status, error and config in place of the fit."""
    if cfg.compounding is None:
        raise ConfigError("compounding command requires a compounding section")
    comp = cfg.compounding
    fit_doc = {"schema_version": METRICS_SCHEMA_VERSION, "config": cfg.to_dict()}
    with _Output(out_dir, "compounding_fit.json", fit_doc, rows="compounding_trace.jsonl") as out:

        def flush_sample(s) -> None:
            out.row({"step": s.step, "delta": s.delta, "max_token_gap": s.max_token_gap})

        if comp.bias_mode is BiasMode.RL_LOOP:
            deltas, grad_norms = [], []

            def fold(report, loss, sample) -> None:
                flush_sample(sample)
                deltas.append(sample.delta)
                grad_norms.append(loss.grad_norm)

            # The run's step size is mu, not the objective's learning rate, because the fit divides by it.
            objective = dataclasses.replace(cfg.objective, learning_rate=comp.mu)
            run = dataclasses.replace(cfg.run, n_iterations=comp.n_steps)
            _train_run(dataclasses.replace(cfg, objective=objective, run=run), on_step=fold)
            fit = fit_affine_trace(deltas, grad_norms, comp.mu)
        else:
            _, infer, params, probes = _setup(cfg)
            fit = compounding_experiment(
                params,
                comp.mu,
                comp.n_steps,
                infer,
                probes,
                temperature=cfg.policy.temperature,
                align_target=comp.align_target,
                reward_seed=comp.reward_seed,
                on_sample=flush_sample,
            )
        fit_doc["fit"] = dataclasses.asdict(fit)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Train run.n_iterations iterations once per masking-bound setting of sweep.bounds, on shared seeds.

    Each row carries the setting's own training trajectory, folded as
    its iterations land. Because independently trained runs diverge,
    per-step mask-set comparisons are additionally evaluated
    counterfactually on the first setting's trajectory
    (clipped_fraction_shared, masked as each of its iterations lands, so
    no calibrations are kept): on shared batches, the tokens clipped by
    a narrower range are a strict superset of those clipped by a wider
    one. Each setting replaces the objective's bounds. On a NumericError
    or TickCapError the table holds status, error and the settings done
    before the failing one.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep section")
    bounds = cfg.sweep.bounds
    shared: list[list[float]] = [[] for _ in bounds]  # clipped_fraction_shared of each setting
    table = {"schema_version": METRICS_SCHEMA_VERSION, "config": cfg.to_dict(), "settings": []}
    with _Output(out_dir, "sweep_table.json", table):
        settings = table["settings"]
        for alpha, beta in bounds:
            first = not settings
            row = {"alpha": alpha, "beta": beta, "delta": [], "grad_norm": [], "clipped_fraction": [],
                   "clipped_fraction_shared": shared[len(settings)], "mean_logp": [], "final_delta": math.nan,
                   "final_reward_mean": math.nan}

            def fold(report, loss, sample) -> None:
                row["delta"].append(sample.delta)
                row["grad_norm"].append(loss.grad_norm)
                row["clipped_fraction"].append(loss.clipped_fraction)
                row["mean_logp"].append(loss.mean_logp)
                row["final_delta"] = sample.delta
                if report.emitted_groups:
                    row["final_reward_mean"] = report.reward_mean
                if first:  # mask the first setting's calibrations with every setting's bounds
                    c = loss.per_token_calibration
                    for (a, b), column in zip(bounds, shared):
                        column.append(float(((c < a) | (c > b)).mean()) if c.size else 0.0)

            objective = dataclasses.replace(cfg.objective, alpha=alpha, beta=beta)
            _train_run(dataclasses.replace(cfg, objective=objective), on_step=fold)
            settings.append(row)
    return EXIT_OK


COMMANDS = {"train": cmd_train, "schedule": cmd_schedule, "compounding": cmd_compounding, "sweep": cmd_sweep}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mismatchlab",
        description="Desk-scale dual-engine RL laboratory: training runs, "
        "scheduler comparisons, discrepancy dynamics, masking sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="output directory for metrics/reports")
        # Only the commands that read the overridden field take the flag;
        # schedule draws its seeds from schedule.seeds.
        if name != "schedule":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "train":
            p.add_argument("--iterations", type=int, default=None, help="override run.n_iterations")
            p.add_argument("--algo", choices=[a.value for a in Algo], default=None)
        if name == "schedule":
            # schedule runs its seeds in one process, so only 1 is valid; the flag stays because the
            # benchmark harness (perfbench/run.py) passes --jobs 1.
            p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; must be 1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # Overrides rebuild the sections, so the sections' own checks apply to them.
        if getattr(args, "seed", None) is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if getattr(args, "iterations", None) is not None:
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, n_iterations=args.iterations))
        if getattr(args, "algo", None):
            cfg = dataclasses.replace(cfg, objective=dataclasses.replace(cfg.objective, algo=Algo(args.algo)))
        if getattr(args, "jobs", 1) != 1:
            raise ConfigError("--jobs must be 1: schedule runs its seeds in one process")
        return COMMANDS[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TickCapError as exc:
        print(f"tick cap exceeded: {exc}", file=sys.stderr)
        return EXIT_TICK_CAP
