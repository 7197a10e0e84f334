"""CLI output documents and flags."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from mismatchlab import Algo, DiscrepancyFit, cli, scheduler
from mismatchlab.cli import _dumps, main
from mismatchlab.errors import NumericError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path: Path, name: str, **sections) -> str:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for section, values in sections.items():
        cfg[section].update(values)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_non_finite_floats_are_written_as_null() -> None:
    doc = {"a": math.nan, "b": [math.inf, 1.5, {"c": -math.inf}], "d": (math.nan, 2)}
    assert _dumps(doc) == '{"a": null, "b": [null, 1.5, {"c": null}], "d": [null, 2]}'


def test_finite_documents_keep_json_dumps_bytes() -> None:
    doc = {"x": 0.1, "y": [1, 2.5e-300, -0.0], "z": {"s": "t", "n": None, "b": True}}
    assert _dumps(doc) == json.dumps(doc)


@pytest.mark.parametrize(
    "command,flag",
    [("schedule", "--seed"), ("schedule", "--iterations"), ("compounding", "--iterations"), ("sweep", "--iterations")],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, command: str, flag: str) -> None:
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(CONFIGS / "schedule_longtail.json"), "--out", str(tmp_path / "o"), flag, "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_algo_accepts_exactly_the_objective_algorithms(tmp_path, capsys) -> None:
    """--algo takes each value of Algo, and rejects any other name, listing Algo's values as its choices."""
    parser = cli.build_parser()
    flags = ["train", "--config", "c.json", "--out", str(tmp_path / "o"), "--algo"]
    assert [parser.parse_args([*flags, algo.value]).algo for algo in Algo] == [algo.value for algo in Algo]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*flags, "ppo"])
    assert exc.value.code == 2
    assert f"(choose from {', '.join(algo.value for algo in Algo)})" in capsys.readouterr().err.replace("'", "")


def test_train_seed_and_iterations_flags_reach_the_run(tmp_path) -> None:
    out = tmp_path / "o"
    assert main(["train", "--config", str(CONFIGS / "train_icepop.json"), "--out", str(out), "--seed", "5", "--iterations", "2"]) == 0
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["config"]["seed"] == 5 and header["config"]["run"]["n_iterations"] == 2
    assert len(lines) == 3


def test_sweep_measures_run_n_probes_probes(tmp_path, monkeypatch) -> None:
    sizes = []
    make_probes = cli.make_probes

    def recording(n, *args, **kwargs):
        sizes.append(n)
        return make_probes(n, *args, **kwargs)

    monkeypatch.setattr(cli, "make_probes", recording)
    cfg = write_config(tmp_path, "sweep", run={"n_probes": 17, "n_iterations": 1})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sizes and set(sizes) == {17}


def test_a_sweep_of_no_iterations_writes_empty_settings(tmp_path) -> None:
    """sweep reads run.n_iterations, which may be 0 as for train: each setting ran no iteration, so its final
    delta and reward are null, not a measured 0."""
    cfg = write_config(tmp_path, "sweep", run={"n_iterations": 0})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    settings = json.loads((tmp_path / "o" / "sweep_table.json").read_text(encoding="utf-8"))["settings"]
    assert [(s["delta"], s["final_delta"], s["final_reward_mean"]) for s in settings] == [([], None, None)] * 3


@pytest.mark.parametrize("jobs,code", [("1", 0), ("0", 2), ("-1", 2), ("2", 2)])
def test_schedule_accepts_only_one_job(tmp_path, capsys, jobs: str, code: int) -> None:
    """schedule runs its seeds in one process: --jobs 1 writes the bytes that no flag writes, and any other
    value is a config error before any output."""
    cfg = write_config(tmp_path, "schedule_longtail", tasks={"max_len": 16}, schedule={"n_iterations": 1, "seeds": [11, 12]})
    flagged, plain = tmp_path / "flagged", tmp_path / "plain"
    assert main(["schedule", "--config", cfg, "--out", str(flagged), "--jobs", jobs]) == code
    if code:
        assert not flagged.exists()
        assert capsys.readouterr().err == "config error: --jobs must be 1: schedule runs its seeds in one process\n"
    else:
        assert main(["schedule", "--config", cfg, "--out", str(plain)]) == 0
        assert (flagged / "schedule_report.json").read_bytes() == (plain / "schedule_report.json").read_bytes()


def test_schedule_builds_its_probes_once_per_seed(tmp_path, monkeypatch) -> None:
    """Both modes of a seed measure one probe set: two seeds make two make_probes calls, not four."""
    calls = []
    make_probes = cli.make_probes

    def counting(*args, **kwargs):
        calls.append(args)
        return make_probes(*args, **kwargs)

    monkeypatch.setattr(cli, "make_probes", counting)
    cfg = write_config(tmp_path, "schedule_longtail", tasks={"max_len": 16}, schedule={"n_iterations": 1, "seeds": [11, 12]})
    assert main(["schedule", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert [seed for _, _, seed in calls] == [11, 12]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "overrides,code,status,error,seeds_done",
    [
        # Seed 11's longest iteration takes 231 ticks, seed 12's 256.
        ({"budget": {"tick_cap": 240}}, 4, "tick_cap_exceeded", "iteration 0 did not end within budget.tick_cap = 240 ticks",
         [11]),
        ({"mismatch": {"scale": 1e308}}, 3, "numeric_failure", "non-finite inference engine logits (mismatch noise overflowed)",
         []),
    ],
)
def test_schedule_failure_writes_a_report_of_the_seeds_done(tmp_path, capsys, overrides, code, status, error, seeds_done) -> None:
    """A failing seed ends schedule in a report with status, error and the seeds done before it, in seed order,
    and the exit code and message of the failure."""
    cfg = write_config(tmp_path, "schedule_longtail", tasks={"max_len": 128}, schedule={"n_iterations": 1, "seeds": [11, 12]}, **overrides)
    out = tmp_path / "o"
    assert main(["schedule", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{'numeric failure' if code == 3 else 'tick cap exceeded'}: {error}\n"
    report = json.loads((out / "schedule_report.json").read_text(encoding="utf-8"))
    assert (report["status"], report["error"]) == (status, error)
    assert [r["seed"] for r in report["per_seed"]] == seeds_done
    assert "mean_speedup_rollout" not in report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "overrides,code,status,error",
    [
        ({"budget": {"tick_cap": 3}}, 4, "tick_cap_exceeded", "iteration 0 did not end within budget.tick_cap = 3 ticks"),
        ({"mismatch": {"scale": 1e308}}, 3, "numeric_failure", "non-finite inference engine logits (mismatch noise overflowed)"),
    ],
)
def test_sweep_failure_writes_a_table_of_the_settings_done(tmp_path, capsys, overrides, code, status, error) -> None:
    """A failing setting ends sweep in a table with status, error, its config and the settings done before
    it (none: each run here fails in its first iteration), and the exit code and message of the failure."""
    cfg = write_config(tmp_path, "sweep", run={"n_iterations": 2}, **overrides)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{'numeric failure' if code == 3 else 'tick cap exceeded'}: {error}\n"
    table = json.loads((out / "sweep_table.json").read_text(encoding="utf-8"))
    assert table == {"schema_version": 1, "config": json.loads(Path(cfg).read_text(encoding="utf-8")), "settings": [],
                     "status": status, "error": error}


def test_sweep_failure_keeps_the_rows_of_the_settings_done(tmp_path, monkeypatch) -> None:
    """A failure in the second setting leaves the first setting's row as a run without the failure writes it."""
    cfg = write_config(tmp_path, "sweep", run={"n_iterations": 2})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    train_run, runs = cli._train_run, []

    def failing_second(*args, **kwargs):
        runs.append(len(runs))
        if len(runs) == 2:
            raise NumericError("parameter update produced non-finite weights")
        return train_run(*args, **kwargs)

    monkeypatch.setattr(cli, "_train_run", failing_second)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "failed")]) == 3
    ok, failed = (json.loads((tmp_path / d / "sweep_table.json").read_text(encoding="utf-8")) for d in ("ok", "failed"))
    assert failed == {**ok, "settings": ok["settings"][:1], "status": "numeric_failure",
                      "error": "parameter update produced non-finite weights"}


@pytest.mark.parametrize(
    "overrides",
    [
        # sigma 800 draws infinite lengths, which are clamped to tasks.max_len.
        {"schedule": {"sigma": 800.0, "n_iterations": 2, "seeds": [11]}},
        # A budget of one token and a pool of one rollout: each iteration of either mode still completes a rollout.
        {"budget": {"token_budget": 1, "infer_capacity": 1}, "schedule": {"n_iterations": 1, "seeds": [11]}},
        {"budget": {"token_budget": 1, "infer_capacity": 1},
         "schedule": {"length_model": "policy", "n_iterations": 1, "seeds": [11]}},
    ],
    ids=["lognormal-sigma-800", "budget-1-pool-1", "budget-1-pool-1-policy"],
)
def test_schedule_ratios_are_finite_at_valid_extremes(tmp_path, overrides: dict) -> None:
    """The report divides by each mode's trained tokens and ticks, so at any valid config both are positive and
    every ratio is positive and finite."""
    cfg = write_config(tmp_path, "schedule_longtail", tasks={"max_len": 16}, **overrides)
    out = tmp_path / "o"
    assert main(["schedule", "--config", cfg, "--out", str(out)]) == 0
    (seed,) = json.loads((out / "schedule_report.json").read_text(encoding="utf-8"))["per_seed"]
    ratios = [seed[mode]["ticks_per_trained_token"] for mode in ("budget", "baseline")]
    ratios += [seed["speedup_rollout"], seed["speedup_end_to_end"]]
    assert all(isinstance(r, float) and 0.0 < r < math.inf for r in ratios)


def test_compounding_header_replay_is_byte_identical(tmp_path) -> None:
    cfg = write_config(tmp_path, "compounding", compounding={"n_steps": 20})
    first = tmp_path / "a"
    assert main(["compounding", "--config", cfg, "--out", str(first), "--seed", "5"]) == 0
    header = json.loads((first / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert header["kind"] == "header" and header["config"]["seed"] == 5
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(header["config"]), encoding="utf-8")
    assert main(["compounding", "--config", str(replay), "--out", str(tmp_path / "b")]) == 0
    for name in ("compounding_trace.jsonl", "compounding_fit.json"):
        assert (first / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_tick_cap_writes_a_summary_and_exits_4(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "train_icepop", budget={"tick_cap": 3})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "tick_cap_exceeded"
    assert summary["iterations_completed"] == 0 and summary["final"] is None
    assert "3 ticks" in summary["error"]
    assert len((out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert "tick cap exceeded" in capsys.readouterr().err


def test_train_numeric_failure_writes_a_summary_and_exits_3(tmp_path, monkeypatch, capsys) -> None:
    def failing_update(*args, **kwargs):
        raise NumericError("parameter update produced non-finite weights")

    monkeypatch.setattr(scheduler, "sgd_update", failing_update)
    cfg = write_config(tmp_path, "train_icepop", run={"n_iterations": 3})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["status"] == "numeric_failure"
    assert summary["error"] == "parameter update produced non-finite weights"
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    assert summary["iterations_completed"] == len(lines) - 1 == 1
    assert summary["final"] == json.loads(lines[-1])
    assert "numeric failure: parameter update" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compounding_step_overflow_exits_3_without_a_warning(tmp_path, capsys) -> None:
    path = write_config(tmp_path, "compounding", compounding={"mu": 1e300})
    assert main(["compounding", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numeric failure: policy weights contain non-finite values\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "mode,overrides,code,status,error,steps_done",
    [
        # Step 0's update leaves finite weights near 1e300; step 1's overflows them.
        ("theorem_aligned", {"compounding": {"mu": 1e300}}, 3, "numeric_failure", "policy weights contain non-finite values", 2),
        ("rl_loop", {"mismatch": {"scale": 1e308}}, 3, "numeric_failure",
         "non-finite inference engine logits (mismatch noise overflowed)", 0),
        ("rl_loop", {"budget": {"tick_cap": 3}}, 4, "tick_cap_exceeded", "iteration 0 did not end within budget.tick_cap = 3 ticks",
         0),
    ],
)
def test_compounding_failure_writes_the_steps_done(tmp_path, capsys, mode, overrides, code, status, error, steps_done) -> None:
    """A failing step ends compounding in a trace of the header and the steps measured before it, and a fit
    document with status, error and its config; then the exit code and message of the failure."""
    cfg = write_config(tmp_path, "compounding", **{**overrides, "compounding": {"bias_mode": mode, "n_steps": 3,
                                                                              **overrides.get("compounding", {})}})
    out = tmp_path / "o"
    assert main(["compounding", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{'numeric failure' if code == 3 else 'tick cap exceeded'}: {error}\n"
    config = json.loads(Path(cfg).read_text(encoding="utf-8"))
    header, *steps = map(json.loads, (out / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines())
    assert header == {"schema_version": 1, "kind": "header", "config": config}
    assert [step["step"] for step in steps] == list(range(steps_done))
    fit = json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))
    assert fit == {"schema_version": 1, "config": config, "status": status, "error": error}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [1e-170, 1e-163])
def test_a_tiny_step_size_writes_the_whole_trace_and_fit(tmp_path, mu: float) -> None:
    """At a tiny mu, mu^2 |g|^2 underflows to zero: those steps add no smoothness residual, and the run
    exits 0 with every step and a complete fit document."""
    cfg = write_config(tmp_path, "compounding", compounding={"mu": mu, "n_steps": 3})
    out = tmp_path / "o"
    assert main(["compounding", "--config", cfg, "--out", str(out)]) == 0
    header, *steps = map(json.loads, (out / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines())
    assert [step["step"] for step in steps] == [0, 1, 2, 3]
    doc = json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))
    assert doc.keys() == {"schema_version", "config", "fit"} and doc["config"] == header["config"]
    assert doc["fit"].keys() == {f.name for f in dataclasses.fields(DiscrepancyFit)} and doc["fit"]["step_size"] == mu


def test_a_trace_vacuous_before_its_last_state_exits_0_with_a_vacuous_fit(tmp_path) -> None:
    """Only the final state's delta passes 1e-15 (9.995e-16, then 1.073e-15): the fit, which divides by the
    steps before it, is vacuous, and both documents are written."""
    cfg = write_config(tmp_path, "compounding", mismatch={"scale": 6.6026345502592125e-09}, compounding={"n_steps": 1})
    out = tmp_path / "o"
    assert main(["compounding", "--config", cfg, "--out", str(out)]) == 0
    header, *steps = map(json.loads, (out / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines())
    assert [step["step"] for step in steps] == [0, 1] and steps[0]["delta"] <= 1e-15 < steps[1]["delta"]
    assert json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))["fit"]["vacuous"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"compounding": {"align_target": 1e160, "mu": 1e-170}}, id="align_target-1e160-mu-1e-170"),
        pytest.param({"compounding": {"align_target": 1e160, "mu": 1e-12}}, id="align_target-1e160-mu-1e-12"),
        pytest.param({"policy": {"init_scale": 1e160}}, id="init_scale-1e160"),
        pytest.param({"compounding": {"align_target": 0.0}}, id="align_target-0"),
        pytest.param({"policy": {"temperature": 1e-300}}, id="temperature-1e-300"),
    ],
)
def test_an_edge_compounding_fit_holds_only_the_listed_nulls_or_exits_3(tmp_path, overrides) -> None:
    """A gradient norm whose square overflows, and a fit with eta_hat 0, which has no threshold: the run exits 0
    with null only where README's exit-code table lists it (delta_c and growth_holds, where eta_hat <= 0), or
    exits 3 with status and error."""
    cfg = write_config(tmp_path, "compounding", **{**overrides, "compounding": {"n_steps": 2, **overrides.get("compounding", {})}})
    out = tmp_path / "o"
    code = main(["compounding", "--config", cfg, "--out", str(out)])
    doc = json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))
    if code == 3:
        assert doc["status"] == "numeric_failure" and doc["error"] and "fit" not in doc
        return
    assert code == 0
    fit = doc["fit"]
    assert {key for key, value in fit.items() if value is None} <= {"delta_c", "growth_holds"}
    assert (fit["delta_c"] is None) == (fit["growth_holds"] is None) == (fit["eta_hat"] <= 0)


def test_a_compounding_fit_whose_steps_cannot_show_growth_checks_none(tmp_path) -> None:
    """At mu 1e-170 delta never moves, and each step's predicted growth 0.5 * eta_hat * mu * delta_t is far below the
    check's 1e-12 tolerance (1 + 0.5 * eta_hat * mu rounds to 1), so no step could fail the check: growth_holds is
    null, as README's exit-code table lists, beside a finite delta_c that every step is above."""
    cfg = write_config(tmp_path, "compounding", compounding={"mu": 1e-170, "n_steps": 3})
    out = tmp_path / "o"
    assert main(["compounding", "--config", cfg, "--out", str(out)]) == 0
    _, *steps = map(json.loads, (out / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines())
    fit = json.loads((out / "compounding_fit.json").read_text(encoding="utf-8"))["fit"]
    assert len({step["delta"] for step in steps}) == 1 and fit["delta_c"] < steps[0]["delta"]
    assert fit["growth_holds"] is None and fit["vacuous"] is False


@pytest.mark.parametrize("failure", [RuntimeError("a fault"), KeyboardInterrupt()])
def test_an_undocumented_exception_leaves_no_document(tmp_path, monkeypatch, failure: BaseException) -> None:
    """An exception other than NumericError or TickCapError goes on out of main and removes the document; the
    rows file keeps the rows flushed before it."""
    update, calls = scheduler.sgd_update, []

    def failing_second(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 2:
            raise failure
        return update(*args, **kwargs)

    monkeypatch.setattr(scheduler, "sgd_update", failing_second)
    cfg = write_config(tmp_path, "train_icepop", run={"n_iterations": 3})
    out = tmp_path / "o"
    with pytest.raises(type(failure)):
        main(["train", "--config", cfg, "--out", str(out)])
    assert [p.name for p in out.iterdir()] == ["metrics.jsonl"]
    header, *rows = map(json.loads, (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines())
    assert header["kind"] == "header" and [row["iteration"] for row in rows] == [0, 1]


def test_rl_loop_compounding_failure_keeps_the_steps_measured(tmp_path, monkeypatch) -> None:
    """An update that fails in the second iteration leaves the trace of a run without the failure, up to that
    iteration's sample, which on_step wrote before the update."""
    cfg = write_config(tmp_path, "compounding", compounding={"bias_mode": "rl_loop", "n_steps": 4})
    assert main(["compounding", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    update, calls = scheduler.sgd_update, []

    def failing_second(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 2:
            raise NumericError("parameter update produced non-finite weights")
        return update(*args, **kwargs)

    monkeypatch.setattr(scheduler, "sgd_update", failing_second)
    assert main(["compounding", "--config", cfg, "--out", str(tmp_path / "failed")]) == 3
    ok, failed = ((tmp_path / d / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines() for d in ("ok", "failed"))
    assert len(ok) == 5 and failed == ok[:3]
    assert json.loads((tmp_path / "failed" / "compounding_fit.json").read_text(encoding="utf-8"))["status"] == "numeric_failure"


@pytest.mark.parametrize("key,value", [("learning_rate", 0)])
def test_invalid_objective_values_exit_2_before_any_output(tmp_path, capsys, key: str, value: float) -> None:
    cfg = write_config(tmp_path, "train_icepop", objective={key: value})
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"objective.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,name,section,key,value",
    [
        ("schedule", "schedule_longtail", "schedule", "median", math.nan),
        ("schedule", "schedule_longtail", "schedule", "sigma", math.inf),
        ("train", "train_icepop", "policy", "init_scale", -1),
        ("train", "train_icepop", "objective", "tis_cap", math.inf),
        ("train", "train_icepop", "mismatch", "scale", math.nan),
        ("train", "train_icepop", "policy", "vocab_size", 101),  # prompt ids would collide
    ],
)
def test_non_finite_numbers_and_a_negative_init_scale_exit_2_before_any_output(
    tmp_path, capsys, command: str, name: str, section: str, key: str, value: float
) -> None:
    cfg = write_config(tmp_path, name, **{section: {key: value}})  # json.dumps writes NaN and Infinity
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,name", [("train", "train_icepop"), ("schedule", "schedule_uniform"), ("compounding", "compounding"), ("sweep", "sweep")]
)
@pytest.mark.parametrize("under_file", [False, True])
def test_an_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command: str, name: str, under_file: bool) -> None:
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "o" if under_file else blocker
    assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 2
    assert blocker.read_text(encoding="utf-8") == "kept\n"
    assert f"--out: cannot create directory {out}" in capsys.readouterr().err


def rl_loop_steps(tmp_path: Path, **sections) -> list[str]:
    """The step lines of a three-step rl_loop compounding run of the shipped config with sections changed."""
    cfg = write_config(tmp_path, "compounding", compounding={"bias_mode": "rl_loop", "n_steps": 3}, **sections)
    assert main(["compounding", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    return (tmp_path / "o" / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines()[1:]


@pytest.fixture(scope="module")
def rl_loop_base(tmp_path_factory) -> list[str]:
    """rl_loop_steps of the shipped config, shared by the tests that only read it."""
    return rl_loop_steps(tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("section,values", [("objective", {"algo": "grpo"}), ("budget", {"token_budget": 200})])
def test_rl_loop_compounding_reads_the_objective_and_budget(tmp_path, rl_loop_base, section: str, values: dict) -> None:
    assert rl_loop_steps(tmp_path, **{section: values}) != rl_loop_base


@pytest.mark.parametrize(
    "command,name,blocked",
    [
        ("train", "train_icepop", "summary.json"),
        ("train", "train_icepop", "metrics.jsonl"),
        ("schedule", "schedule_uniform", "schedule_report.json"),
        ("compounding", "compounding", "compounding_fit.json"),
        ("compounding", "compounding", "compounding_trace.jsonl"),
        ("sweep", "sweep", "sweep_table.json"),
    ],
)
def test_an_output_file_that_cannot_be_written_exits_2_before_the_run(
    tmp_path, capsys, monkeypatch, command: str, name: str, blocked: str
) -> None:
    def no_run(*args, **kwargs):
        pytest.fail("the run started")

    monkeypatch.setattr(cli, "train_loop", no_run)
    monkeypatch.setattr(cli, "compounding_experiment", no_run)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 2
    assert f"--out: cannot write {out / blocked}: Is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [blocked] and not any((out / blocked).iterdir())


@pytest.mark.parametrize(
    "command,message",
    [
        ("schedule", "schedule command requires a schedule section"),
        ("compounding", "compounding command requires a compounding section"),
        ("sweep", "sweep command requires a sweep section"),
    ],
)
def test_a_command_without_its_config_section_exits_2_before_any_output(tmp_path, capsys, command: str, message: str) -> None:
    out = tmp_path / "o"
    assert main([command, "--config", str(CONFIGS / "train_icepop.json"), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {message}" in capsys.readouterr().err
