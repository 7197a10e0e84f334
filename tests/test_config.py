"""Experiment config: annotation-driven parsing, section invariants, defaults and round trips."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from mismatchlab import (
    Algo, BiasMode, ConfigError, SchedulerState, SyntheticPromptSource, TaskKind, Vocabulary, infer_engine, load_config,
)
from mismatchlab.cli import main
from mismatchlab.config import (
    SCHEMA_VERSION, CompoundingSection, ExperimentConfig, ScheduleSection, SweepSection, config_from_dict,
)
from mismatchlab.tasks import COPY_PATTERN_POOL, MAX_VOCAB_SIZE, all_prompt_ids, prompt_id_for

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
        (doc(schedule={"length_model": 1}), "schedule.length_model: expected string, got 1"),
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
        (doc(objective={"tis_cap": math.inf}), "objective.tis_cap: expected a finite number, got inf"),
        (doc(schedule={"median": math.nan}), "schedule.median: expected a finite number, got nan"),
        (doc(mismatch={"scale": -math.inf}), "mismatch.scale: expected a finite number, got -inf"),
        (doc(policy={"temperature": 10**400}), "policy.temperature: expected a finite number, got 1000"),
        (doc(budget={"tick_cap": 10**400}), "budget.tick_cap: expected a finite number, got 1000"),
        (doc(seed=-(10**400)), "seed: expected a finite number, got -1000"),
        (doc(schedule={"seeds": [11, 10**400]}), "schedule.seeds[1]: expected a finite number, got 1000"),
        (doc(sweep={"bounds": [[0.5, 5.0], [0.5, math.inf]]}), "sweep.bounds[1][1]: expected a finite number, got inf"),
    ],
)
def test_each_annotation_kind_rejects_a_wrong_type(data: dict, message: str) -> None:
    assert rejected(data).startswith(message)


def test_null_is_read_as_none_only_where_the_annotation_allows_it() -> None:
    assert config_from_dict(doc(sweep=None)).sweep is None
    assert config_from_dict(doc(sweep={"bounds": [[0.5, 2.0], [0.4, 5.0]]})).sweep.bounds == [[0.5, 2.0], [0.4, 5.0]]
    assert rejected(doc(run={"n_probes": None})) == "run.n_probes: expected integer, got None"


def test_unknown_keys_are_rejected_at_both_levels() -> None:
    assert rejected(doc(polcy={})) == "top level: unknown key(s) ['polcy']"
    assert rejected(doc(budget={"train_capacity": None, "max_total_prompts": None, "tick_cap": 5})) == (
        "budget: unknown key(s) ['max_total_prompts', 'train_capacity']"
    )


@pytest.mark.parametrize(
    "section,key",
    [("objective", "kl_coeff"), ("schedule", "max_len"), ("sweep", "n_iterations"), ("objective", "optimizer"),
     ("objective", "momentum")],
)
def test_the_fields_schemas_4_and_5_removed_are_unknown_keys(section: str, key: str) -> None:
    """Schema 4 has no KL penalty, and reads max_len from tasks and the sweep's length from run; schema 5 has no
    momentum optimizer, so every update is the plain gradient step."""
    assert rejected(doc(**{section: {key: 1}})) == f"{section}: unknown key(s) ['{key}']"


def test_document_shape_and_version_are_checked_first() -> None:
    assert rejected([]) == "config document must be a JSON object"
    assert rejected({"seed": 1}) == "missing required key schema_version"
    # The shipped config as each older schema wrote it: with the fields that schema had.
    for version, section, fields in ((1, "budget", {"train_capacity": None, "max_total_prompts": None}),
                                     (2, "budget", {"max_total_prompts": None}), (3, "objective", {"kl_coeff": 0.0}),
                                     (4, "objective", {"optimizer": "sgd", "momentum": 0.9})):
        old = json.loads((CONFIGS / "train_icepop.json").read_text(encoding="utf-8"))
        old["schema_version"] = version
        old[section].update(fields)
        assert rejected(old) == f"unsupported schema_version {version}; expected {SCHEMA_VERSION}"


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
        ("objective", {"group_size": 1}, "objective.group_size: must be >= 2"),
        ("objective", {"tis_cap": 0}, "objective.tis_cap: must be positive"),
        ("objective", {"learning_rate": -1}, "objective.learning_rate: must be positive"),
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
        ("schedule", {"median": 0}, "schedule.median must be positive and schedule.sigma nonnegative"),
        ("schedule", {"n_iterations": 0}, "schedule.n_iterations: must be >= 1"),
        ("schedule", {"seeds": []}, "schedule.seeds: must be non-empty"),
        ("compounding", {"mu": 0}, "compounding.mu: must be positive"),
        ("compounding", {"n_steps": 0}, "compounding.n_steps: must be >= 1"),
        ("sweep", {"bounds": [[0.5, 5.0]]}, "sweep.bounds: need at least two settings"),
        ("sweep", {"bounds": [[0.5, 5.0], [0.5, 0.9]]}, "sweep.bounds: bounds must satisfy 0 < alpha <= 1 <= beta"),
        ("policy", {"init_scale": -1}, "policy.init_scale: must be nonnegative"),
        ("policy", {"vocab_size": 101}, "policy.vocab_size: must be <= 100; above it TARGET_SUM prompt ids (200 + target) collide"),
    ],
)
def test_each_section_checks_its_invariants(section: str, values: dict, message: str) -> None:
    assert rejected(doc(**{section: values})).startswith(message)


SEED_FIELDS = {
    "seed": lambda seed: doc(seed=seed),
    "mismatch.seed": lambda seed: doc(mismatch={"seed": seed}),
    "compounding.reward_seed": lambda seed: doc(compounding={"reward_seed": seed}),
    "schedule.seeds[1]": lambda seed: doc(schedule={"seeds": [11, seed]}),
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("field", SEED_FIELDS)
def test_a_seed_outside_64_bits_is_rejected(field: str, seed: int) -> None:
    """The library folds a seed mod 2**64, so a seed outside [0, 2**64) would run as the seed it aliases."""
    assert rejected(SEED_FIELDS[field](seed)) == f"{field}: must be in [0, 2**64)"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("field", SEED_FIELDS)
def test_every_64_bit_seed_is_accepted_and_round_trips(field: str, seed: int) -> None:
    cfg = config_from_dict(SEED_FIELDS[field](seed))
    assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_the_largest_vocabulary_keeps_every_prompt_id_distinct() -> None:
    """At vocab_size 100 the TARGET_SUM ids end at 299, below the first COPY_PREFIX id; 101 is rejected above."""
    vocab = Vocabulary(size=config_from_dict(doc(policy={"vocab_size": 100})).policy.vocab_size)
    assert prompt_id_for(TaskKind.TARGET_SUM, vocab.size - 1) < prompt_id_for(TaskKind.COPY_PREFIX, 0)
    assert len(all_prompt_ids(vocab)) == 2 + vocab.size + COPY_PATTERN_POOL  # one id per (kind, target)


def test_a_vocabulary_above_the_bound_builds_no_scheduler_state() -> None:
    """Above MAX_VOCAB_SIZE, TARGET_SUM 100 and COPY_PREFIX 0 would share prompt id 300, and the table a block."""
    assert MAX_VOCAB_SIZE == 100
    assert prompt_id_for(TaskKind.TARGET_SUM, 100) == prompt_id_for(TaskKind.COPY_PREFIX, 0) == 300
    source = SyntheticPromptSource(Vocabulary(size=101), max_len=4)
    with pytest.raises(ValueError, match="TARGET_SUM prompt ids .* collide with COPY_PREFIX ids"):
        SchedulerState(vocab=Vocabulary(size=101), source=source, seed=0, n_features=8, infer=infer_engine(0.0, 7))


def test_every_omitted_field_takes_its_default() -> None:
    cfg = config_from_dict(doc(schedule={}, compounding={}, sweep={}))
    assert cfg == ExperimentConfig(schedule=ScheduleSection(), compounding=CompoundingSection(), sweep=SweepSection())
    assert cfg.to_dict() == {
        "schema_version": 5,
        "seed": 1234,
        "policy": {"vocab_size": 8, "eos_id": 0, "n_features": 512, "init_scale": 0.3, "temperature": 1.0},
        "mismatch": {"scale": 0.22, "seed": 7},
        "objective": {
            "algo": "icepop", "alpha": 0.5, "beta": 5.0, "clip_eps": 0.2, "group_size": 8,
            "tis_cap": 2.0, "learning_rate": 24.0,
        },
        "tasks": {"max_len": 8},
        "budget": {
            "token_budget": 440, "infer_capacity": 48, "retention_threshold": 3, "sync_cost_ticks": 8,
            "prompts_per_iteration": 12, "tick_cap": 1_000_000,
        },
        "run": {"n_iterations": 200, "n_probes": 256},
        "schedule": {"length_model": "lognormal", "median": 32.0, "sigma": 1.0, "n_iterations": 6, "seeds": [11, 12, 13, 14, 15]},
        "compounding": {"mu": 0.01, "n_steps": 100, "bias_mode": "theorem_aligned", "align_target": 1.0, "reward_seed": 0},
        "sweep": {"bounds": [[0.5, 5.0], [0.5, 2.0], [0.4, 5.0]]},
    }
    assert "schedule" not in config_from_dict(doc()).to_dict()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_round_trip_through_to_dict(path: Path) -> None:
    cfg = load_config(path)
    data = cfg.to_dict()
    assert json.dumps(data) == json.dumps(json.loads(path.read_text(encoding="utf-8")))  # keys in document order
    assert config_from_dict(json.loads(json.dumps(data))) == cfg


def test_shipped_configs_carry_the_lengths_they_ran_with() -> None:
    """The values schema 3 held in schedule.max_len and sweep.n_iterations, now in tasks and run."""
    assert [load_config(CONFIGS / f"schedule_{name}.json").tasks.max_len for name in ("longtail", "uniform")] == [512, 512]
    assert load_config(CONFIGS / "sweep.json").run.n_iterations == 80


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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_override_outside_64_bits_exits_2_before_any_output(tmp_path, capsys, seed: int) -> None:
    """--seed is applied with dataclasses.replace, so ExperimentConfig checks it as it checks the config's seed."""
    args = ["train", "--config", str(CONFIGS / "train_icepop.json"), "--out", str(tmp_path / "o"), "--iterations", "1"]
    assert main(args + ["--seed", str(seed)]) == 2
    assert not (tmp_path / "o").exists()
    assert "config error: seed: must be in [0, 2**64)" in capsys.readouterr().err
    assert main(args + ["--seed", str(seed % 2**64)]) == 0


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "cannot read config {path}: [Errno 2] No such file or directory"),
        ("dir", "cannot read config {path}: [Errno 21] Is a directory"),
        ('{\n  "seed": 1,\n  seed\n}\n', "{path}:3:3: invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"schema_version": 3, "run": {"n_iterations": 2, "n_iterations": 200}}', "duplicated key 'n_iterations'"),
        ('{"schema_version": 3, "schema_version": 3}', "duplicated key 'schema_version'"),
        # UTF-16, as PowerShell's > writes, and a lone 0xff byte: neither is UTF-8 text.
        pytest.param(b"\xff\xfe{\x00}\x00", f"{{path}}: invalid JSON ({_NOT_UTF8})", id="utf-16"),
        pytest.param(b"\xff", f"{{path}}: invalid JSON ({_NOT_UTF8})", id="byte-0xff"),
        pytest.param(
            '{"schema_version": 3, "seed": ' + "[" * 100_000 + "}",
            "{path}: invalid JSON (maximum recursion depth exceeded",
            id="nested-100000-deep",
        ),
    ],
)
def test_an_unreadable_or_invalid_config_exits_2_before_any_output(
    tmp_path, capsys, content: str | bytes | None, message: str
) -> None:
    path = tmp_path / "config.json"
    if content == "dir":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {message.format(path=path)}" in capsys.readouterr().err


def test_an_integer_of_more_digits_than_int_reads_exits_2_before_any_output(tmp_path, capsys) -> None:
    """json.loads raises a plain ValueError on an integer longer than sys.get_int_max_str_digits() (Python >= 3.11);
    such a number is far too large for a float, so it is a config error like one that json.loads reads."""
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 3, "seed": 1' + "0" * 5000 + "}", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")
