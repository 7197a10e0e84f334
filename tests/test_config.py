"""Experiment config: annotation-driven parsing, section invariants, defaults and round trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mismatchlab import Algo, BiasMode, ConfigError, default_config, load_config
from mismatchlab.cli import main
from mismatchlab.config import SCHEMA_VERSION, config_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def doc(**sections) -> dict:
    return {"schema_version": SCHEMA_VERSION, **sections}


def rejected(data: dict) -> str:
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    return str(exc.value)


@pytest.mark.parametrize(
    "data,message",
    [
        (doc(seed="1"), "seed: expected integer, got '1'"),
        (doc(seed=True), "seed: expected integer, got True"),
        (doc(policy={"vocab_size": 8.0}), "policy.vocab_size: expected integer, got 8.0"),
        (doc(policy={"vocab_size": None}), "policy.vocab_size: expected integer, got None"),
        (doc(policy={"temperature": "1"}), "policy.temperature: expected number, got '1'"),
        (doc(policy={"temperature": False}), "policy.temperature: expected number, got False"),
        (doc(objective={"optimizer": 1}), "objective.optimizer: expected string, got 1"),
        (doc(objective={"algo": "ppo"}), "objective.algo: expected one of ['icepop', 'grpo', 'tis'], got 'ppo'"),
        (doc(compounding={"bias_mode": None}), "compounding.bias_mode: expected one of"),
        (doc(budget={"tick_cap": "5"}), "budget.tick_cap: expected integer, got '5'"),
        (doc(budget={"tick_cap": True}), "budget.tick_cap: expected integer, got True"),
        (doc(policy=[8]), "policy: expected an object, got [8]"),
        (doc(schedule={"seeds": 11}), "schedule.seeds: expected a list, got 11"),
        (doc(schedule={"seeds": [11, "12"]}), "schedule.seeds[1]: expected integer, got '12'"),
        (doc(schedule={"seeds": [11, True]}), "schedule.seeds[1]: expected integer, got True"),
        (doc(sweep={"bounds": [0.5, 5.0]}), "sweep.bounds[0]: expected a list, got 0.5"),
        (doc(sweep={"bounds": [[0.5, 5.0], [0.5, "2"]]}), "sweep.bounds[1][1]: expected number, got '2'"),
        (doc(sweep={"bounds": [[0.5, 5.0], [0.5]]}), "sweep.bounds: expected a list of [alpha, beta] pairs"),
        (doc(sweep={"bounds": [[0.5, 5.0], [0.5, 2.0, 3.0]]}), "sweep.bounds: expected a list of [alpha, beta] pairs"),
    ],
)
def test_each_annotation_kind_rejects_a_wrong_type(data: dict, message: str) -> None:
    assert rejected(data).startswith(message)


def test_null_is_read_as_none_only_where_the_annotation_allows_it() -> None:
    assert config_from_dict(doc(sweep=None)).sweep is None
    assert config_from_dict(doc(sweep={"n_iterations": 3})).sweep.n_iterations == 3
    assert rejected(doc(run={"n_probes": None})) == "run.n_probes: expected integer, got None"


def test_unknown_keys_are_rejected_at_both_levels() -> None:
    assert rejected(doc(polcy={})) == "top level: unknown key(s) ['polcy']"
    assert rejected(doc(budget={"train_capacity": None, "max_total_prompts": None, "tick_cap": 5})) == (
        "budget: unknown key(s) ['max_total_prompts', 'train_capacity']"
    )


def test_document_shape_and_version_are_checked_first() -> None:
    assert rejected([]) == "config document must be a JSON object"
    assert rejected({"seed": 1}) == "missing required key schema_version"
    v1 = json.loads((CONFIGS / "train_icepop.json").read_text(encoding="utf-8"))
    v1["schema_version"] = 1
    v1["budget"]["train_capacity"] = None
    v1["budget"]["max_total_prompts"] = None
    assert rejected(v1) == f"unsupported schema_version 1; expected {SCHEMA_VERSION}"
    v2 = json.loads((CONFIGS / "train_icepop.json").read_text(encoding="utf-8"))
    v2["schema_version"] = 2
    v2["budget"]["max_total_prompts"] = None
    assert rejected(v2) == f"unsupported schema_version 2; expected {SCHEMA_VERSION}"


@pytest.mark.parametrize(
    "section,values,message",
    [
        ("policy", {"vocab_size": 1}, "policy.vocab_size: must be >= 2"),
        ("policy", {"eos_id": 8}, "policy.eos_id: out of vocabulary range"),
        ("policy", {"n_features": 0}, "policy.n_features: must be >= 1"),
        ("policy", {"temperature": 0}, "policy.temperature: must be positive"),
        ("mismatch", {"scale": -0.1}, "mismatch.scale: must be nonnegative"),
        ("objective", {"alpha": 1.5}, "objective: bounds must satisfy 0 < alpha <= 1 <= beta"),
        ("objective", {"beta": 0.9}, "objective: bounds must satisfy 0 < alpha <= 1 <= beta"),
        ("objective", {"clip_eps": 1.0}, "objective.clip_eps: must be in (0, 1)"),
        ("objective", {"kl_coeff": -1}, "objective.kl_coeff: must be nonnegative"),
        ("objective", {"group_size": 1}, "objective.group_size: must be >= 2"),
        ("objective", {"tis_cap": 0}, "objective.tis_cap: must be positive"),
        ("objective", {"learning_rate": -1}, "objective.learning_rate: must be positive"),
        ("objective", {"optimizer": "adam"}, "objective.optimizer: unknown optimizer 'adam'"),
        ("objective", {"momentum": 1.0}, "objective.momentum: must be in [0, 1)"),
        ("tasks", {"max_len": 0}, "tasks.max_len: must be >= 1"),
        ("budget", {"token_budget": 0}, "budget.token_budget: must be >= 1"),
        ("budget", {"infer_capacity": 0}, "budget.infer_capacity: must be >= 1"),
        ("budget", {"retention_threshold": -1}, "budget.retention_threshold: must be nonnegative"),
        ("budget", {"sync_cost_ticks": -1}, "budget.sync_cost_ticks: must be nonnegative"),
        ("budget", {"prompts_per_iteration": 0}, "budget.prompts_per_iteration: must be >= 1"),
        ("budget", {"tick_cap": 0}, "budget.tick_cap: must be >= 1"),
        ("run", {"n_iterations": -1}, "run.n_iterations: must be nonnegative"),
        ("run", {"n_probes": 0}, "run.n_probes: must be >= 1"),
        ("schedule", {"length_model": "uniform"}, "schedule.length_model: unknown model 'uniform'"),
        ("schedule", {"sigma": -1}, "schedule.median must be positive and schedule.sigma nonnegative"),
        ("schedule", {"max_len": 0}, "schedule.max_len: must be >= 1"),
        ("schedule", {"n_iterations": 0}, "schedule.n_iterations: must be >= 1"),
        ("schedule", {"seeds": []}, "schedule.seeds: must be non-empty"),
        ("compounding", {"mu": 0}, "compounding.mu: must be positive"),
        ("compounding", {"n_steps": 0}, "compounding.n_steps: must be >= 1"),
        ("sweep", {"bounds": [[0.5, 5.0]]}, "sweep.bounds: need at least two settings"),
        ("sweep", {"bounds": [[0.5, 5.0], [0.5, 0.9]]}, "sweep.bounds: bounds must satisfy 0 < alpha <= 1 <= beta"),
        ("sweep", {"n_iterations": 0}, "sweep.n_iterations: must be >= 1"),
    ],
)
def test_each_section_checks_its_invariants(section: str, values: dict, message: str) -> None:
    assert rejected(doc(**{section: values})).startswith(message)


def test_every_omitted_field_takes_its_default() -> None:
    cfg = config_from_dict(doc(schedule={}, compounding={}, sweep={}))
    assert cfg == default_config()
    assert cfg.to_dict() == {
        "schema_version": 3,
        "seed": 1234,
        "policy": {"vocab_size": 8, "eos_id": 0, "n_features": 512, "init_scale": 0.3, "temperature": 1.0},
        "mismatch": {"scale": 0.22, "seed": 7},
        "objective": {
            "algo": "icepop", "alpha": 0.5, "beta": 5.0, "clip_eps": 0.2, "kl_coeff": 0.0, "group_size": 8,
            "tis_cap": 2.0, "learning_rate": 24.0, "optimizer": "sgd", "momentum": 0.9,
        },
        "tasks": {"max_len": 8},
        "budget": {
            "token_budget": 440, "infer_capacity": 48, "retention_threshold": 3, "sync_cost_ticks": 8,
            "prompts_per_iteration": 12, "tick_cap": 1_000_000,
        },
        "run": {"n_iterations": 200, "n_probes": 256},
        "schedule": {"length_model": "lognormal", "median": 32.0, "sigma": 1.0, "max_len": 512, "n_iterations": 6, "seeds": [11, 12, 13, 14, 15]},
        "compounding": {"mu": 0.01, "n_steps": 100, "bias_mode": "theorem_aligned", "align_target": 1.0, "reward_seed": 0},
        "sweep": {"bounds": [[0.5, 5.0], [0.5, 2.0], [0.4, 5.0]], "n_iterations": 80},
    }
    assert "schedule" not in config_from_dict(doc()).to_dict()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_round_trip_through_to_dict(path: Path) -> None:
    cfg = load_config(path)
    data = cfg.to_dict()
    assert json.dumps(data) == json.dumps(json.loads(path.read_text(encoding="utf-8")))  # keys in document order
    assert config_from_dict(json.loads(json.dumps(data))) == cfg


def test_enums_are_written_as_their_values_and_read_back() -> None:
    cfg = config_from_dict(doc(objective={"algo": "tis"}, compounding={"bias_mode": "rl_loop", "mu": 1}))
    assert cfg.objective.algo is Algo.TIS and cfg.compounding.bias_mode is BiasMode.RL_LOOP
    assert cfg.compounding.mu == 1.0 and isinstance(cfg.compounding.mu, float)
    data = cfg.to_dict()
    assert data["objective"]["algo"] == "tis" and data["compounding"]["bias_mode"] == "rl_loop"
    assert json.loads(json.dumps(data)) == data and config_from_dict(data) == cfg


def test_config_error_is_a_value_error() -> None:
    assert issubclass(ConfigError, ValueError)


def test_cli_overrides_pass_the_section_checks(tmp_path, capsys) -> None:
    args = ["train", "--config", str(CONFIGS / "train_icepop.json"), "--out", str(tmp_path / "o")]
    assert main(args + ["--iterations", "-1"]) == 2
    assert not (tmp_path / "o").exists()
    assert "run.n_iterations: must be nonnegative" in capsys.readouterr().err
    assert main(args + ["--iterations", "0", "--algo", "grpo"]) == 0
    header = json.loads((tmp_path / "o" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["config"]["objective"]["algo"] == "grpo" and header["config"]["run"]["n_iterations"] == 0
