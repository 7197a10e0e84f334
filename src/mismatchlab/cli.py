"""Batch experiment runner.

Commands are non-interactive and fully seeded: train writes one JSONL
metrics row per iteration plus a summary document, schedule compares the
budget-partitioned scheduler against the single-pass baseline on shared
seeds, compounding runs the discrepancy-growth dynamics experiment, and
sweep compares masking-bound settings. Every training run, including the
sweep's settings and compounding's rl_loop mode, is set up from its
config by one helper, _train_run; a command derives that config with
dataclasses.replace, so the sections check their own invariants again.
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

from .config import ExperimentConfig, config_from_dict, load_config
from .discrepancy import BiasMode, compounding_experiment, fit_affine_trace, make_probes
from .errors import ConfigError, NumericError, TickCapError
from .objective import Algo
from .policy import PolicyParams, Vocabulary, infer_engine, init_params
from .scheduler import SyntheticPromptSource, make_state, train_loop

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


def _resolved_header(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "header",
        "config": cfg.to_dict(),
    }


def _train_run(
    cfg: ExperimentConfig, source: SyntheticPromptSource | None = None, baseline: bool = False, on_step=None
) -> tuple[list, PolicyParams, int]:
    """Train run.n_iterations iterations as cfg sets them up, all seeded by cfg.seed.

    The prompts come from source, by default the task distribution up to
    tasks.max_len. Returns train_loop's results and final parameters, and
    the tick clock at the end; the scheduler state, which holds the run's
    context table, is freed on return.
    """
    vocab = _vocab(cfg)
    infer = infer_engine(cfg.mismatch.scale, cfg.mismatch.seed)
    params = init_params(vocab, cfg.policy.n_features, cfg.policy.init_scale, cfg.seed)
    if source is None:
        source = SyntheticPromptSource(vocab, max_len=cfg.tasks.max_len)
    state = make_state(cfg.seed, vocab, infer, source, cfg.policy.temperature)
    probes = make_probes(cfg.run.n_probes, vocab, cfg.seed)
    results, params = train_loop(
        cfg.run.n_iterations, state, params, cfg.budget, cfg.objective, probes, baseline=baseline, on_step=on_step
    )
    return results, params, state.tick_clock


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
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    summary_path = out_dir / "summary.json"
    rows: list[dict] = []
    failure: NumericError | TickCapError | None = None
    with metrics_path.open("w", encoding="utf-8") as fh:
        fh.write(_dumps(_resolved_header(cfg)) + "\n")

        def flush_row(report, loss, sample) -> None:
            row = _metrics_row(cfg, report, loss, sample)
            rows.append(row)
            fh.write(_dumps(row) + "\n")
            fh.flush()

        try:
            _, params, tick_clock = _train_run(cfg, on_step=flush_row)
        except (NumericError, TickCapError) as exc:
            failure = exc

    if failure is None:
        status = "ok"
    else:
        status = "numeric_failure" if isinstance(failure, NumericError) else "tick_cap_exceeded"
    summary = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "status": status,
        "config": cfg.to_dict(),
        "iterations_completed": len(rows),
        "final": rows[-1] if rows else None,
    }
    if status == "ok":
        summary["final_version"] = params.version_id
        summary["tick_clock"] = tick_clock
    else:
        summary["error"] = str(failure)
    summary_path.write_text(_dumps(summary) + "\n", encoding="utf-8")
    if failure is not None:
        raise failure  # main maps it to its message and exit code
    return EXIT_OK


def _schedule_one_seed(cfg_dict: dict, seed: int) -> dict:
    """Budget-partitioned vs baseline run on one shared seed (picklable)."""
    cfg = config_from_dict(cfg_dict)
    assert cfg.schedule is not None
    sch = cfg.schedule
    cfg = dataclasses.replace(cfg, seed=seed, run=dataclasses.replace(cfg.run, n_iterations=sch.n_iterations))

    totals = {}
    for mode in ("budget", "baseline"):
        source = SyntheticPromptSource(
            _vocab(cfg),
            max_len=sch.max_len,
            length_model=sch.length_model,
            median=sch.median,
            sigma=sch.sigma,
        )
        results, _, _ = _train_run(cfg, source, baseline=(mode == "baseline"))
        rollout_ticks = sum(r[0].rollout_ticks for r in results)
        trained = sum(r[0].trained_tokens for r in results)
        totals[mode] = {
            "rollout_ticks": rollout_ticks,
            "end_to_end_ticks": rollout_ticks + cfg.budget.sync_cost_ticks * len(results),
            "trained_tokens": trained,
            "iterations": len(results),
            "ticks_per_trained_token": rollout_ticks / trained if trained else math.inf,
        }
    b, c = totals["baseline"], totals["budget"]
    return {
        "seed": seed,
        "budget": c,
        "baseline": b,
        "speedup_rollout": (b["ticks_per_trained_token"] / c["ticks_per_trained_token"])
        if c["ticks_per_trained_token"] > 0
        else math.inf,
        "speedup_end_to_end": (
            (b["end_to_end_ticks"] / b["trained_tokens"])
            / (c["end_to_end_ticks"] / c["trained_tokens"])
        )
        if b["trained_tokens"] and c["trained_tokens"]
        else math.inf,
    }


def cmd_schedule(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1) -> int:
    if cfg.schedule is None:
        raise ConfigError("schedule command requires a schedule section (length-distribution spec)")
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = cfg.schedule.seeds
    cfg_dict = cfg.to_dict()
    if jobs > 1:
        # Imported here: single-process runs skip its import time and memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            per_seed = list(pool.map(_schedule_one_seed, [cfg_dict] * len(seeds), seeds))
    else:
        per_seed = [_schedule_one_seed(cfg_dict, seed) for seed in seeds]
    report = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "config": cfg_dict,
        "per_seed": per_seed,
        "mean_speedup_rollout": sum(r["speedup_rollout"] for r in per_seed) / len(per_seed),
        "mean_speedup_end_to_end": sum(r["speedup_end_to_end"] for r in per_seed) / len(per_seed),
    }
    (out_dir / "schedule_report.json").write_text(
        _dumps(report) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def cmd_compounding(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.compounding is None:
        raise ConfigError("compounding command requires a compounding section")
    out_dir.mkdir(parents=True, exist_ok=True)
    comp = cfg.compounding
    if comp.bias_mode is BiasMode.RL_LOOP:
        # The run's step size is mu, not the objective's learning rate, because the fit divides by it.
        objective = dataclasses.replace(cfg.objective, learning_rate=comp.mu)
        run = dataclasses.replace(cfg.run, n_iterations=comp.n_steps)
        results, _, _ = _train_run(dataclasses.replace(cfg, objective=objective, run=run))
        samples = [sample for _, _, sample in results]
        fit = fit_affine_trace([s.delta for s in samples], [loss.grad_norm for _, loss, _ in results], comp.mu)
    else:
        vocab = _vocab(cfg)
        infer = infer_engine(cfg.mismatch.scale, cfg.mismatch.seed)
        params = init_params(vocab, cfg.policy.n_features, cfg.policy.init_scale, cfg.seed)
        probes = make_probes(cfg.run.n_probes, vocab, cfg.seed)
        samples, fit = compounding_experiment(
            params,
            comp.mu,
            comp.n_steps,
            vocab,
            infer,
            probes,
            temperature=cfg.policy.temperature,
            align_target=comp.align_target,
            reward_seed=comp.reward_seed,
        )
    with (out_dir / "compounding_trace.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(_dumps(_resolved_header(cfg)) + "\n")
        for s in samples:
            fh.write(_dumps({"step": s.step, "delta": s.delta, "max_token_gap": s.max_token_gap}) + "\n")
    fit_doc = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "fit": dataclasses.asdict(fit),
    }
    (out_dir / "compounding_fit.json").write_text(_dumps(fit_doc) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Train once per masking-bound setting of sweep.bounds, on shared seeds.

    Each row carries the setting's own training trajectory. Because
    independently trained runs diverge, per-step mask-set comparisons are
    additionally evaluated counterfactually on the first setting's
    trajectory (clipped_fraction_shared): on shared batches, the tokens
    clipped by a narrower range are a strict superset of those clipped
    by a wider one. Each setting replaces the objective's bounds.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a sweep section")
    out_dir.mkdir(parents=True, exist_ok=True)
    run = dataclasses.replace(cfg.run, n_iterations=cfg.sweep.n_iterations)
    reference_calibrations = []
    rows = []
    for alpha, beta in cfg.sweep.bounds:
        objective = dataclasses.replace(cfg.objective, alpha=alpha, beta=beta)
        results, _, _ = _train_run(dataclasses.replace(cfg, objective=objective, run=run))
        if not rows:
            reference_calibrations = [loss.per_token_calibration for _, loss, _ in results]
        final_reward = next((report.reward_mean for report, _, _ in reversed(results) if report.emitted_groups), math.nan)
        rows.append(
            {
                "alpha": alpha,
                "beta": beta,
                "delta": [sample.delta for _, _, sample in results],
                "grad_norm": [loss.grad_norm for _, loss, _ in results],
                "clipped_fraction": [loss.clipped_fraction for _, loss, _ in results],
                "clipped_fraction_shared": [
                    float(((c < alpha) | (c > beta)).mean()) if c.size else 0.0 for c in reference_calibrations
                ],
                "mean_logp": [loss.mean_logp for _, loss, _ in results],
                "final_delta": results[-1][2].delta if results else 0.0,
                "final_reward_mean": final_reward,
            }
        )
    table = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "settings": rows,
    }
    (out_dir / "sweep_table.json").write_text(_dumps(table) + "\n", encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mismatchlab",
        description="Desk-scale dual-engine RL laboratory: training runs, "
        "scheduler comparisons, discrepancy dynamics, masking sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "schedule", "compounding", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="output directory for metrics/reports")
        # Only the commands that read the overridden field take the flag;
        # schedule draws its seeds from schedule.seeds.
        if name != "schedule":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "train":
            p.add_argument("--iterations", type=int, default=None, help="override run.n_iterations")
            p.add_argument("--algo", choices=["icepop", "grpo", "tis"], default=None)
        if name == "schedule":
            p.add_argument("--jobs", type=int, default=1, help="parallel replicate seeds")
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
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        out_dir = Path(args.out)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "schedule":
            return cmd_schedule(cfg, out_dir, jobs=args.jobs)
        if args.command == "compounding":
            return cmd_compounding(cfg, out_dir)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TickCapError as exc:
        print(f"tick cap exceeded: {exc}", file=sys.stderr)
        return EXIT_TICK_CAP


if __name__ == "__main__":
    sys.exit(main())
