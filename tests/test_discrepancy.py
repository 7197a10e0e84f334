"""Discrepancy lab: KL measurement, exact gradients, dynamics experiments and fits."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from mismatchlab import (
    Algo,
    BudgetConfig,
    Context,
    DiscrepancyFit,
    DiscrepancySample,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    SyntheticPromptSource,
    Vocabulary,
    compounding_experiment,
    delta_and_gap,
    delta_gradient,
    distribution,
    infer_engine,
    init_params,
    kl_categorical,
    log_prob,
    make_probes,
    make_state,
    measure,
    objective_and_grad,
    run_iteration,
    sample_with_logprobs,
    train_engine,
)
from mismatchlab import discrepancy
from mismatchlab.cli import cmd_compounding, cmd_sweep
from mismatchlab.config import (
    CompoundingSection,
    ExperimentConfig,
    MismatchSection,
    PolicySection,
    RunSection,
    SweepSection,
    TasksSection,
)
from mismatchlab.discrepancy import _exact_reward_gradient, fit_affine_trace
from mismatchlab.policy import batched_train_logits, context_rows


def test_zero_scale_gives_exactly_zero_delta() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=32, init_scale=1.0, seed=4)
    probes = make_probes(64, vocab, 4)
    delta, gap = delta_and_gap(params, probes, infer_engine(0.0, 7))
    assert delta == 0.0
    assert gap == 0.0


def test_kl_closed_form_pair() -> None:
    p = np.asarray([0.5, 0.5])
    q = np.asarray([0.9, 0.1])
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert kl_categorical(p, q) == pytest.approx(expected, abs=1e-15)


def test_kl_nonnegative_on_random_draws() -> None:
    rng = np.random.default_rng(6)
    vocab = Vocabulary(size=8)
    probes = make_probes(4, vocab, 6)
    for _ in range(250):
        params = PolicyParams(rng.normal(0, 1.5, size=(16, 8)))
        scale = float(rng.uniform(0, 0.4))
        delta, _ = delta_and_gap(params, probes, infer_engine(scale, int(rng.integers(0, 100))))
        assert delta >= 0.0


def test_measure_carries_loss_diagnostics() -> None:
    # The loss diagnostics left the sample; what remains is the step and the discrepancy.
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.2, 7)
    params = init_params(vocab, n_features=64, init_scale=0.5, seed=3)
    probes = make_probes(32, vocab, 3)
    sample = measure(params, probes, engine, step=5)
    assert sample.step == 5
    assert sample.delta > 0.0
    assert (sample.delta, sample.max_token_gap) == delta_and_gap(params, probes, engine)


def test_measure_requires_probes() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=16, init_scale=0.5, seed=1)
    with pytest.raises(ValueError):
        delta_and_gap(params, [], infer_engine(0.1, 7))


def test_delta_gradient_matches_finite_differences() -> None:
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.12, 11)
    params = init_params(vocab, n_features=16, init_scale=0.9, seed=5)
    probes = make_probes(12, vocab, 99)
    grad = delta_gradient(params, probes, engine)
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(params.weights.shape[0]):
        for j in range(params.weights.shape[1]):
            wp = params.weights.copy()
            wp[i, j] += h
            wm = params.weights.copy()
            wm[i, j] -= h
            up, _ = delta_and_gap(PolicyParams(wp, params.version_id), probes, engine)
            dn, _ = delta_and_gap(PolicyParams(wm, params.version_id), probes, engine)
            fd[i, j] = (up - dn) / (2 * h)
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
    assert rel.max() < 1e-5


def test_direct_path_raises_when_the_inference_logits_overflow() -> None:
    """Finite but large training logits: the fault term overflows the inference logits."""
    vocab = Vocabulary(size=6)
    infer = infer_engine(0.22, 7)
    params = init_params(vocab, n_features=32, init_scale=0.5, seed=3)
    params.weights[:, 0] = 1e307
    probes = make_probes(64, vocab, 3)
    feats, _, _ = context_rows(*discrepancy.probe_windows(probes), params.n_features, infer, params.version_id)
    batched_train_logits(params, feats, 1.0)  # the training engine stays finite
    assert delta_and_gap(params, probes, train_engine()) == (0.0, 0.0)
    stream = np.random.default_rng(0)
    calls = [
        lambda: delta_and_gap(params, probes, infer),
        lambda: measure(params, probes, infer),
        lambda: delta_gradient(params, probes, infer),
        lambda: [distribution(params, ctx, infer) for ctx in probes],
        lambda: [log_prob(params, ctx, 1, infer) for ctx in probes],
        lambda: [sample_with_logprobs(params, ctx, infer, 1.0, stream) for ctx in probes],
    ]
    for call in calls:
        with pytest.raises(NumericError, match=r"^non-finite inference engine logits \(mismatch noise overflowed\)$"):
            call()


def theorem_setup(scale: float = 0.22, seed: int = 11):
    vocab = Vocabulary(size=8)
    engine = infer_engine(scale, 7)
    params = init_params(vocab, n_features=64, init_scale=0.5, seed=seed)
    probes = make_probes(64, vocab, seed, max_len=8)
    return vocab, engine, params, probes


def test_theorem_aligned_trace_satisfies_growth_bound() -> None:
    vocab, engine, params, probes = theorem_setup()
    samples, fit = compounding_experiment(
        params, 0.01, 60, vocab, engine, probes, align_target=1.0, reward_seed=3
    )
    deltas = [s.delta for s in samples]
    assert not fit.vacuous
    assert fit.eta_hat > 0
    assert fit.delta_c == pytest.approx(2 * fit.kappa_hat / fit.eta_hat)
    assert fit.growth_holds
    # re-check the inequality literally from the trace
    for t in range(60):
        if deltas[t] >= fit.delta_c:
            assert deltas[t + 1] >= (1 + 0.5 * fit.eta_hat * 0.01) * deltas[t] - 1e-12


def reference_theorem_aligned(theta_0, mu, n_steps, vocab, infer, probes, temperature=1.0, align_target=1.0, reward_seed=0):
    """The theorem-aligned loop measuring each parameter state anew at every use, as it first did."""
    rng = np.random.default_rng(np.random.SeedSequence((reward_seed & ((1 << 64) - 1), 4)))
    reward_table = rng.uniform(-1.0, 1.0, size=(len(probes), vocab.size))
    params = theta_0.copy()
    deltas, dots_bias, dots_drift, grad_norms, resid_ls, samples = [], [], [], [], [], []
    for t in range(n_steps):
        delta_t, gap_t = delta_and_gap(params, probes, infer, temperature)
        grad_delta = delta_gradient(params, probes, infer, temperature)
        g_star, _ = _exact_reward_gradient(params, probes, reward_table, temperature)
        norm_sq = float((grad_delta * grad_delta).sum())
        if delta_t > 0.0 and norm_sq > 1e-30:
            bias = (align_target * delta_t / norm_sq) * grad_delta
        else:
            bias = np.zeros_like(grad_delta)
        g_total = g_star + bias
        deltas.append(delta_t)
        dots_bias.append(float((grad_delta * bias).sum()))
        dots_drift.append(float((grad_delta * g_star).sum()))
        grad_norms.append(float(np.linalg.norm(g_total)))
        samples.append(DiscrepancySample(step=t, delta=delta_t, max_token_gap=gap_t))
        dot_total = float((grad_delta * g_total).sum())
        params = PolicyParams(params.weights + mu * g_total, version_id=params.version_id)
        delta_next, _ = delta_and_gap(params, probes, infer, temperature)
        g_sq = grad_norms[-1] ** 2
        if g_sq > 1e-30:
            resid_ls.append(2.0 * abs(delta_next - delta_t - mu * dot_total) / (mu * mu * g_sq))
    delta_final, gap_final = delta_and_gap(params, probes, infer, temperature)
    deltas.append(delta_final)
    samples.append(DiscrepancySample(step=n_steps, delta=delta_final, max_token_gap=gap_final))
    align_const = min(dots_bias[t] / deltas[t] for t in range(n_steps) if deltas[t] > 1e-15)
    grad_bound = max(grad_norms)
    smoothness = max(resid_ls) if resid_ls else 0.0
    kappa_hat = max(abs(d) for d in dots_drift) + 0.5 * smoothness * mu * grad_bound**2
    delta_c = 2.0 * kappa_hat / align_const if align_const > 0 else math.inf
    growth_holds = all(
        deltas[t + 1] >= (1.0 + 0.5 * align_const * mu) * deltas[t] - 1e-12 for t in range(n_steps) if deltas[t] >= delta_c
    )
    fit = DiscrepancyFit(
        eta_hat=align_const,
        kappa_hat=kappa_hat,
        delta_c=delta_c,
        growth_holds=growth_holds,
        step_size=mu,
        grad_bound=grad_bound,
        drift_bound=max(abs(d) for d in dots_drift),
        smoothness=smoothness,
        align_const=align_const,
    )
    return samples, fit


def bits(record) -> tuple:
    """A dataclass's fields, floats as their IEEE-754 bytes."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in dataclasses.astuple(record))


def test_theorem_aligned_trace_equals_the_reference_loop_bit_for_bit(monkeypatch) -> None:
    vocab, engine, params, probes = theorem_setup()
    want_samples, want_fit = reference_theorem_aligned(params, 0.01, 5, vocab, engine, probes, align_target=1.0, reward_seed=3)
    calls = []
    measured = discrepancy.delta_and_gap
    monkeypatch.setattr(discrepancy, "delta_and_gap", lambda *args: calls.append(1) or measured(*args))
    samples, fit = compounding_experiment(
        params, 0.01, 5, vocab, engine, probes, align_target=1.0, reward_seed=3
    )
    assert len(calls) == 5 + 1  # each parameter state once
    assert [bits(s) for s in samples] == [bits(s) for s in want_samples]
    assert bits(fit) == bits(want_fit)
    assert not fit.vacuous and all(s.delta > 0.0 for s in samples)


def test_theorem_aligned_zero_scale_is_vacuous() -> None:
    vocab, _, params, probes = theorem_setup(scale=0.0)
    _, fit = compounding_experiment(
        params, 0.01, 20, vocab, infer_engine(0.0, 7), probes
    )
    assert fit.vacuous
    assert fit.growth_holds


def test_theorem_rejects_nonpositive_step_size() -> None:
    vocab, engine, params, probes = theorem_setup()
    with pytest.raises(ValueError):
        compounding_experiment(params, 0.0, 10, vocab, engine, probes)


def test_rl_loop_mode_fits_affine_recursion(tmp_path) -> None:
    cfg = ExperimentConfig(
        seed=2,
        policy=PolicySection(n_features=64, init_scale=0.5),
        mismatch=MismatchSection(scale=0.22, seed=7),
        objective=ObjectiveConfig(algo=Algo.GRPO, group_size=8),
        tasks=TasksSection(max_len=8),
        budget=BudgetConfig(
            token_budget=200, infer_capacity=24, retention_threshold=3, sync_cost_ticks=0, prompts_per_iteration=12
        ),
        run=RunSection(n_probes=64),
        compounding=CompoundingSection(mu=5.0, n_steps=25, bias_mode=discrepancy.BiasMode.RL_LOOP),
    )
    assert cmd_compounding(cfg, tmp_path) == 0
    samples = (tmp_path / "compounding_trace.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    fit = json.loads((tmp_path / "compounding_fit.json").read_text(encoding="utf-8"))["fit"]
    assert len(samples) == 25
    assert fit["step_size"] == 5.0
    assert fit["eta_hat"] is not None and math.isfinite(fit["eta_hat"])
    assert isinstance(fit["growth_holds"], bool)


@pytest.mark.parametrize("a,b", [(1.05, -0.002), (0.9, 0.01)])
def test_trace_fit_recovers_the_affine_recursion(a: float, b: float) -> None:
    deltas = [0.3]  # off both recursions' fixed points, so the trace moves
    for _ in range(30):
        deltas.append(a * deltas[-1] + b)
    mu = 0.5
    fit = fit_affine_trace(deltas, [0.25, 2.0, 1.0], mu)
    assert not fit.vacuous
    assert fit.eta_hat == pytest.approx((a - 1.0) / mu, rel=1e-8)
    assert fit.kappa_hat == pytest.approx(-b / mu, rel=1e-8)
    assert fit.growth_holds is (a > 1.0)
    if a > 1.0:
        assert fit.delta_c == pytest.approx(2.0 * fit.kappa_hat / fit.eta_hat)
    else:
        assert fit.delta_c == math.inf
    assert fit.step_size == mu and fit.grad_bound == 2.0


@pytest.mark.parametrize("deltas", [[0.3, 0.4], [0.0] * 10])
def test_trace_fit_is_vacuous_on_short_or_zero_traces(deltas: list) -> None:
    fit = fit_affine_trace(deltas, [], 0.5)
    assert fit.vacuous and fit.growth_holds
    assert fit.eta_hat == fit.kappa_hat == fit.delta_c == fit.grad_bound == 0.0


def test_mask_set_monotonicity_on_shared_batch() -> None:
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.25, 7)
    params = init_params(vocab, n_features=64, init_scale=1.5, seed=9)
    source = SyntheticPromptSource(vocab, max_len=6)
    state = make_state(9, vocab, engine, source)
    _, groups = run_iteration(state, params, BudgetConfig(token_budget=120, infer_capacity=16), ObjectiveConfig(group_size=4))
    wide = objective_and_grad(groups, params, params, None, ObjectiveConfig(alpha=0.5, beta=5.0, group_size=4))
    narrow = objective_and_grad(groups, params, params, None, ObjectiveConfig(alpha=0.5, beta=2.0, group_size=4))
    clipped_wide = ~wide.per_token_mask_kept
    clipped_narrow = ~narrow.per_token_mask_kept
    assert np.all(clipped_narrow[clipped_wide])  # wide-clipped subset of narrow-clipped
    assert clipped_narrow.mean() >= clipped_wide.mean()


def sweep_rows(tmp_path, bounds: list, n_iterations: int, learning_rate: float = 5.0) -> list[dict]:
    """The settings cmd_sweep writes for bounds, on a small-budget run of the shipped sweep's policy."""
    cfg = ExperimentConfig(
        seed=1234,
        policy=PolicySection(n_features=512, init_scale=2.0),
        mismatch=MismatchSection(scale=0.15, seed=7),
        objective=ObjectiveConfig(group_size=8, learning_rate=learning_rate),
        tasks=TasksSection(max_len=8),
        budget=BudgetConfig(token_budget=200, infer_capacity=24, retention_threshold=3, sync_cost_ticks=8),
        run=RunSection(n_probes=256),
        sweep=SweepSection(bounds=[list(b) for b in bounds], n_iterations=n_iterations),
    )
    assert cmd_sweep(cfg, tmp_path) == 0
    return json.loads((tmp_path / "sweep_table.json").read_text(encoding="utf-8"))["settings"]


def test_sensitivity_sweep_emits_populated_rows(tmp_path) -> None:
    rows = sweep_rows(tmp_path, [(0.5, 5.0), (0.5, 2.0), (0.4, 5.0)], 12)
    assert [(r["alpha"], r["beta"]) for r in rows] == [(0.5, 5.0), (0.5, 2.0), (0.4, 5.0)]
    for row in rows:
        assert len(row["delta"]) == 12
        assert len(row["clipped_fraction"]) == 12
        assert len(row["clipped_fraction_shared"]) == 12
        assert math.isfinite(row["final_delta"])


def test_sensitivity_sweep_duplicate_setting_is_identical(tmp_path) -> None:
    rows = sweep_rows(tmp_path, [(0.5, 5.0), (0.5, 5.0)], 8)
    assert rows[0] == rows[1]


def test_sensitivity_sweep_shared_clipping_dominance(tmp_path) -> None:
    default, narrow = sweep_rows(tmp_path, [(0.5, 5.0), (0.5, 2.0)], 15)
    assert all(n >= d for n, d in zip(narrow["clipped_fraction_shared"], default["clipped_fraction_shared"]))


def test_sensitivity_sweep_trains_each_setting_with_its_bounds(tmp_path) -> None:
    default, narrow = sweep_rows(tmp_path, [(0.5, 5.0), (0.5, 2.0)], 2)
    # The first iteration trains every setting on the same batch, which the shared column re-masks.
    assert narrow["clipped_fraction"][0] == narrow["clipped_fraction_shared"][0] > default["clipped_fraction"][0]


def test_sensitivity_sweep_needs_two_settings(tmp_path) -> None:
    with pytest.raises(ValueError):
        sweep_rows(tmp_path, [(0.5, 5.0)], 4, learning_rate=1.0)
    assert not (tmp_path / "sweep_table.json").exists()


def test_clipped_token_entropy_reported_as_tendency() -> None:
    # the comparison is reported, not asserted per step: check the default
    # config produces a higher mean entropy among masked-out tokens at 95%
    # confidence via a normal-approximation two-sample bound
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.22, 7)
    params = init_params(vocab, n_features=512, init_scale=0.3, seed=1234)
    source = SyntheticPromptSource(vocab, max_len=8)
    state = make_state(1234, vocab, engine, source)
    budget = BudgetConfig(token_budget=440, infer_capacity=48, retention_threshold=3, sync_cost_ticks=8)
    cfg = ObjectiveConfig(group_size=8, learning_rate=24.0)
    from mismatchlab import train_loop

    results, _ = train_loop(60, state, params, budget, cfg, make_probes(256, vocab, 1234))
    ent_clipped: list[float] = []
    ent_all: list[float] = []
    for _, loss, _ in results:
        if loss.token_count:
            ent_all.extend(loss.per_token_entropy.tolist())
            ent_clipped.extend(loss.per_token_entropy[~loss.per_token_mask_kept].tolist())
    assert len(ent_clipped) > 50
    mean_diff = np.mean(ent_clipped) - np.mean(ent_all)
    se = math.sqrt(np.var(ent_clipped) / len(ent_clipped) + np.var(ent_all) / len(ent_all))
    assert mean_diff > 1.645 * se
