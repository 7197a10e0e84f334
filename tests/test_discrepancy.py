"""Discrepancy lab: KL measurement, exact gradients, dynamics experiments and fits."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatchlab import (
    Algo,
    BudgetConfig,
    DiscrepancyFit,
    DiscrepancySample,
    Engine,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    SchedulerState,
    SyntheticPromptSource,
    Vocabulary,
    compounding_experiment,
    infer_engine,
    init_params,
    make_probes,
    measure,
    objective_and_grad,
    run_iteration,
)
from mismatchlab import discrepancy, policy
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
from mismatchlab.discrepancy import (
    _exact_reward_gradient,
    delta_and_gap,
    delta_gradient,
    evaluate_probes,
    fit_affine_trace,
    probe_set,
)
from mismatchlab.policy import batched_train_logits, context_rows
from mismatchlab.tasks import all_prompt_ids

import oracles


def evaluation(params, probes, infer, temperature=1.0):
    """The package's one evaluation of the probes at params, hashed at params' own version."""
    return evaluate_probes(probe_set(probes, params, infer, temperature), params)


def delta_gap(ev) -> tuple[float, float]:
    """delta_and_gap of a probe evaluation."""
    return delta_and_gap(ev.log_probs, ev.probs)


def run_compounding(*args, **kwargs):
    """compounding_experiment's fit and the samples it streams through on_sample."""
    samples = []
    return samples, compounding_experiment(*args, on_sample=samples.append, **kwargs)


def test_kl_closed_form_pair() -> None:
    """The probe KL(infer || train) and token gap that delta_and_gap and measure compute."""
    p = np.asarray([[0.5, 0.5]])  # inference engine
    q = np.asarray([[0.9, 0.1]])  # training engine
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    probs = np.stack([q, p])  # (2, probes, V), training engine first
    delta, gap = delta_and_gap(np.log(probs), probs)
    assert delta == pytest.approx(expected, abs=1e-15)
    assert gap == pytest.approx(0.4, abs=1e-15)


def test_kl_nonnegative_on_random_draws() -> None:
    rng = np.random.default_rng(6)
    vocab = Vocabulary(size=8)
    probes = make_probes(4, vocab, 6)
    for _ in range(250):
        params = PolicyParams(rng.normal(0, 1.5, size=(16, 8)))
        scale = float(rng.uniform(0, 0.4))
        delta, _ = delta_gap(evaluation(params, probes, infer_engine(scale, int(rng.integers(0, 100)))))
        assert delta >= 0.0


def test_measure_requires_probes() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=16, init_scale=0.5, seed=1)
    with pytest.raises(ValueError):
        measure(params, [], infer_engine(0.1, 7))


@pytest.mark.parametrize(
    "n_probes,scale,temperature,with_rows,message",
    [
        (0, 0.1, 1.0, True, "probe set must be non-empty"),
        (8, 0.2, 1.0, True, "context table is of another engine or temperature"),
        (8, 0.1, 0.5, True, "context table is of another engine or temperature"),
        (8, 0.1, 1.0, False, "measure on a context table needs rows, the probes' table rows"),
    ],
)
def test_measure_on_a_table_requires_probes_and_the_tables_engine_and_temperature(
    n_probes: int, scale: float, temperature: float, with_rows: bool, message: str
) -> None:
    """A table call without rows names the missing argument; the direct path takes none."""
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=16, init_scale=0.5, seed=1)
    table = policy.ContextTable(all_prompt_ids(vocab), 16, vocab.size, infer_engine(0.1, 7), 1.0)
    probes = make_probes(8, vocab, 1)[:n_probes]
    rows = table.rows(*discrepancy.probe_windows(probes)) if with_rows else None
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure(params, probes, infer_engine(scale, 7), temperature, table=table, rows=rows)


def test_delta_gradient_matches_finite_differences() -> None:
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.12, 11)
    params = init_params(vocab, n_features=16, init_scale=0.9, seed=5)
    probes = make_probes(12, vocab, 99)
    grad = delta_gradient(evaluation(params, probes, engine))
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(params.weights.shape[0]):
        for j in range(params.weights.shape[1]):
            wp = params.weights.copy()
            wp[i, j] += h
            wm = params.weights.copy()
            wm[i, j] -= h
            up, _ = delta_gap(evaluation(PolicyParams(wp, params.version_id), probes, engine))
            dn, _ = delta_gap(evaluation(PolicyParams(wm, params.version_id), probes, engine))
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
    assert delta_gap(evaluation(params, probes, Engine())) == (0.0, 0.0)
    calls = [
        lambda: delta_gap(evaluation(params, probes, infer)),
        lambda: measure(params, probes, infer),
        lambda: delta_gradient(evaluation(params, probes, infer)),
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
    samples, fit = run_compounding(
        params, 0.01, 60, engine, probes, align_target=1.0, reward_seed=3
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
    """The theorem-aligned loop on the direct-path oracles, evaluating each parameter state anew at every use."""
    rng = np.random.default_rng(np.random.SeedSequence((reward_seed & ((1 << 64) - 1), 4)))
    reward_table = rng.uniform(-1.0, 1.0, size=(len(probes), vocab.size))
    params = theta_0
    deltas, dots_bias, dots_drift, grad_norms, resid_ls, samples = [], [], [], [], [], []
    for t in range(n_steps):
        delta_t, gap_t = oracles.delta_and_gap(params, probes, infer, temperature)
        grad_delta = oracles.delta_gradient(params, probes, infer, temperature)
        g_star, _ = oracles._exact_reward_gradient(params, probes, reward_table, temperature)
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
        delta_next, _ = oracles.delta_and_gap(params, probes, infer, temperature)
        g_sq = grad_norms[-1] ** 2
        if g_sq > 1e-30:
            resid_ls.append(2.0 * abs(delta_next - delta_t - mu * dot_total) / (mu * mu * g_sq))
    delta_final, gap_final = oracles.delta_and_gap(params, probes, infer, temperature)
    deltas.append(delta_final)
    samples.append(DiscrepancySample(step=n_steps, delta=delta_final, max_token_gap=gap_final))
    align_const = min(dots_bias[t] / deltas[t] for t in range(n_steps) if deltas[t] > 1e-15)
    grad_bound = max(grad_norms)
    smoothness = max(resid_ls) if resid_ls else 0.0
    kappa_hat = max(abs(d) for d in dots_drift) + 0.5 * smoothness * mu * grad_bound**2
    delta_c = 2.0 * kappa_hat / align_const if align_const > 0 else math.inf
    checked = [t for t in range(n_steps) if deltas[t] >= delta_c and 0.5 * align_const * mu * deltas[t] > 1e-12]
    growth_holds = None if not checked else all(
        deltas[t + 1] >= (1.0 + 0.5 * align_const * mu) * deltas[t] - 1e-12 for t in checked
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
    samples, fit = run_compounding(
        params, 0.01, 5, engine, probes, align_target=1.0, reward_seed=3
    )
    assert len(calls) == 5 + 1  # each parameter state once
    assert [bits(s) for s in samples] == [bits(s) for s in want_samples]
    assert bits(fit) == bits(want_fit)
    assert not fit.vacuous and all(s.delta > 0.0 for s in samples)


def test_compounding_hashes_its_probes_once_and_evaluates_each_state_once(monkeypatch) -> None:
    vocab, engine, params, probes = theorem_setup()
    calls = {"context_rows": 0, "fixed_noise": 0, "batched_train_logits": 0}
    # The probes are hashed where policy.RowSet calls the hashes; the states are evaluated where discrepancy binds the logits.
    for module, name in ((policy, "context_rows"), (policy, "fixed_noise"), (discrepancy, "batched_train_logits")):
        wrapped = getattr(module, name)

        def counted(*args, _name=name, _wrapped=wrapped):
            calls[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(module, name, counted)
    compounding_experiment(params, 0.01, 5, engine, probes, align_target=1.0, reward_seed=3)
    assert calls == {"context_rows": 1, "fixed_noise": 1, "batched_train_logits": 5 + 1}


@pytest.mark.parametrize("temperature", [1.0, 0.37])
@pytest.mark.parametrize("scale", [0.0, 0.22])
def test_probe_evaluation_equals_the_direct_path_oracles_bit_for_bit(temperature: float, scale: float) -> None:
    vocab, engine, params, probes = theorem_setup(scale)
    reward_table = np.random.default_rng(5).uniform(-1.0, 1.0, size=(len(probes), vocab.size))
    ev = evaluation(params, probes, engine, temperature)
    got = delta_gap(ev)
    want = oracles.delta_and_gap(params, probes, engine, temperature)
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]
    assert (scale == 0.0) == (got == (0.0, 0.0))
    assert measure(params, probes, engine, temperature, step=5) == DiscrepancySample(5, *want)
    pairs = [
        (delta_gradient(ev), oracles.delta_gradient(params, probes, engine, temperature)),
        (_exact_reward_gradient(ev, reward_table), oracles._exact_reward_gradient(params, probes, reward_table, temperature)[0]),
    ]
    for g, w in pairs:
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_probe_set_serves_another_version_and_refuses_another_shape() -> None:
    vocab, engine, params, probes = theorem_setup()
    hashed = probe_set(probes, params, engine)
    evaluate_probes(hashed, PolicyParams(params.weights + 1.0, params.version_id))
    later = PolicyParams(params.weights, params.version_id + 1)
    got = evaluate_probes(hashed, later)
    want = evaluation(later, probes, engine)
    for name in ("train_logits", "log_probs", "probs", "fault_noise"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    got_bits = [struct.pack("<d", v) for v in delta_gap(got)]
    assert got_bits == [struct.pack("<d", v) for v in oracles.delta_and_gap(later, probes, engine)]
    assert got_bits != [struct.pack("<d", v) for v in delta_gap(evaluate_probes(hashed, params))]
    for other in (PolicyParams(params.weights[:-1], params.version_id), PolicyParams(params.weights[:, :-1], params.version_id)):
        with pytest.raises(ValueError, match="probes"):
            evaluate_probes(hashed, other)


@settings(max_examples=40, deadline=None)
@given(
    vocab_size=st.integers(2, 12),
    version=st.integers(0, 5),
    temperature=st.sampled_from([1.0, 0.37]),
    scale=st.sampled_from([0.0, 0.22]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_probe_set_serves_every_version(vocab_size: int, version: int, temperature: float, scale: float, seed: int) -> None:
    """Probes hashed once at version 0 evaluate params of any version as the direct path does, bit for bit."""
    vocab, engine = Vocabulary(size=vocab_size), infer_engine(scale, 7)
    params_v0 = init_params(vocab, n_features=32, init_scale=1.0, seed=seed)
    rng = np.random.default_rng(seed)
    params_v = PolicyParams(params_v0.weights + rng.normal(0.0, 0.3, params_v0.weights.shape), version)
    probes = make_probes(24, vocab, seed)
    reward_table = rng.uniform(-1.0, 1.0, size=(len(probes), vocab.size))
    ev = evaluate_probes(probe_set(probes, params_v0, engine, temperature), params_v)
    got = delta_gap(ev)
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in oracles.delta_and_gap(params_v, probes, engine, temperature)]
    pairs = [
        (delta_gradient(ev), oracles.delta_gradient(params_v, probes, engine, temperature)),
        (_exact_reward_gradient(ev, reward_table), oracles._exact_reward_gradient(params_v, probes, reward_table, temperature)[0]),
    ]
    for g, w in pairs:
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_theorem_aligned_zero_scale_is_vacuous() -> None:
    vocab, _, params, probes = theorem_setup(scale=0.0)
    fit = compounding_experiment(
        params, 0.01, 20, infer_engine(0.0, 7), probes
    )
    assert fit.vacuous
    assert fit.growth_holds


# The shipped compounding config's set-up, at a mismatch scale where delta crosses 1e-15 between states.
EDGE_SCALE = 6.6026345502592125e-09


def shipped_compounding_setup():
    vocab = Vocabulary(size=8)
    return init_params(vocab, n_features=64, init_scale=0.5, seed=1234), make_probes(64, vocab, 1234)


def test_a_trace_whose_only_delta_above_the_threshold_is_the_last_is_vacuous() -> None:
    """eta_hat divides by the deltas of steps 0..n_steps-1 alone, so vacuity is decided on those: here only the
    final state's delta passes 1e-15, and the fit is the vacuous one rather than a min() of no step."""
    params, probes = shipped_compounding_setup()
    samples, fit = run_compounding(params, 0.01, 1, infer_engine(EDGE_SCALE, 7), probes, reward_seed=3)
    assert samples[0].delta <= 1e-15 < samples[1].delta
    assert fit.vacuous and fit.growth_holds
    assert (fit.eta_hat, fit.kappa_hat, fit.delta_c, fit.drift_bound, fit.smoothness) == (0.0,) * 5


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(6e-9, 7e-9), n_steps=st.integers(1, 3))
@example(scale=EDGE_SCALE, n_steps=1)
def test_vacuity_is_decided_on_the_steps_eta_hat_divides_by(scale: float, n_steps: int) -> None:
    params, probes = shipped_compounding_setup()
    samples, fit = run_compounding(params, 0.01, n_steps, infer_engine(scale, 7), probes, reward_seed=3)
    assert fit.vacuous == all(s.delta <= 1e-15 for s in samples[:-1])
    assert fit.vacuous or math.isfinite(fit.eta_hat)


@pytest.mark.parametrize("n_steps", [0, -1])
def test_compounding_needs_a_step(n_steps: int) -> None:
    """The config requires n_steps >= 1, and the library says so at entry rather than failing in the fit."""
    vocab, engine, params, probes = theorem_setup()
    samples = []
    with pytest.raises(ValueError, match=r"^compounding experiment needs n_steps >= 1$"):
        compounding_experiment(params, 0.01, n_steps, engine, probes, on_sample=samples.append)
    assert samples == []


def test_a_fit_with_no_threshold_checks_no_step() -> None:
    """At align_target 0 the bias is zero, so eta_hat is 0 and delta_c infinite: no step is checked, and
    growth_holds is None, not a bound that held. The fit is not vacuous, since its deltas are above 1e-15."""
    vocab, engine, params, probes = theorem_setup()
    samples, fit = run_compounding(params, 0.01, 5, engine, probes, align_target=0.0, reward_seed=3)
    assert all(s.delta > 1e-15 for s in samples)
    assert (fit.eta_hat, fit.delta_c, fit.growth_holds, fit.vacuous) == (0.0, math.inf, None, False)
    assert all(map(math.isfinite, (fit.kappa_hat, fit.grad_bound, fit.drift_bound, fit.smoothness)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_fit_squares_no_gradient_norm_whose_square_overflows() -> None:
    """At align_target 1e160 |g| is near 1e160, whose square overflows; at mu 1e-170 the step mu |g| stays
    small, and every fitted constant is finite."""
    vocab, engine, params, probes = theorem_setup()
    fit = compounding_experiment(params, 1e-170, 2, engine, probes, align_target=1e160, reward_seed=3)
    assert 1e154 < fit.grad_bound < math.inf
    assert all(map(math.isfinite, (fit.eta_hat, fit.kappa_hat, fit.delta_c, fit.drift_bound, fit.smoothness)))
    assert fit.growth_holds is True and not fit.vacuous


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_fitted_constant_that_is_not_finite_raises_numeric_error() -> None:
    """At mu 1e-12 the same gradient moves the weights by about 1e148, and a fitted constant is no longer finite."""
    vocab, engine, params, probes = theorem_setup()
    samples = []
    with pytest.raises(NumericError, match="^a fitted growth constant is not finite$"):
        compounding_experiment(params, 1e-12, 2, engine, probes, align_target=1e160, reward_seed=3, on_sample=samples.append)
    assert [s.step for s in samples] == [0, 1, 2]


def test_times_square_squares_no_norm_whose_square_overflows() -> None:
    """c * x**2 below 1e154; above it c * x * x, which a small c keeps finite and a zero c keeps 0 (not 0 * inf)."""
    assert discrepancy._times_square(0.5, 3.0) == 4.5
    assert discrepancy._times_square(1e-200, 1e160) == pytest.approx(1e120, rel=1e-15)
    assert discrepancy._times_square(0.0, 1e160) == 0.0


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


def test_trace_fit_holds_on_traces_too_large_to_square() -> None:
    """Deltas near 1e298 overflow when squared; the fit is the small trace's, scaled by the power of two."""
    deltas = [2.3e298]
    for _ in range(39):
        deltas.append(1.01 * deltas[-1] - 1e295)
    mu = 1e300
    fit = fit_affine_trace(deltas, [1.0], mu)
    assert fit.growth_holds
    assert fit.eta_hat * mu + 1.0 == pytest.approx(1.01, rel=1e-12)
    assert fit.kappa_hat * mu == pytest.approx(1e295, rel=1e-9)
    small = fit_affine_trace(np.ldexp(deltas, -990), [1.0], mu)
    assert (small.eta_hat, small.kappa_hat) == (fit.eta_hat, math.ldexp(fit.kappa_hat, -990))


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
    state = SchedulerState(vocab=vocab, source=source, seed=9, n_features=64, infer=engine)
    _, groups = run_iteration(state, params, BudgetConfig(token_budget=120, infer_capacity=16), ObjectiveConfig(group_size=4))
    wide = objective_and_grad(groups, params, ObjectiveConfig(alpha=0.5, beta=5.0, group_size=4), state.table)
    narrow = objective_and_grad(groups, params, ObjectiveConfig(alpha=0.5, beta=2.0, group_size=4), state.table)
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
        run=RunSection(n_iterations=n_iterations, n_probes=256),
        sweep=SweepSection(bounds=[list(b) for b in bounds]),
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


@pytest.fixture(scope="module")
def narrowed_sweep(tmp_path_factory) -> list[dict]:
    """The default bounds, then a narrower beta, over 15 iterations; shared by the tests that only read it."""
    return sweep_rows(tmp_path_factory.mktemp("sweep"), [(0.5, 5.0), (0.5, 2.0)], 15)


def test_sensitivity_sweep_shared_clipping_dominance(narrowed_sweep) -> None:
    default, narrow = narrowed_sweep
    assert all(n >= d for n, d in zip(narrow["clipped_fraction_shared"], default["clipped_fraction_shared"]))


def test_sensitivity_sweep_trains_each_setting_with_its_bounds(narrowed_sweep) -> None:
    default, narrow = narrowed_sweep
    # The first iteration trains every setting on the same batch, which the shared column re-masks.
    assert narrow["clipped_fraction"][0] == narrow["clipped_fraction_shared"][0] > default["clipped_fraction"][0]


def test_sensitivity_sweep_needs_two_settings(tmp_path) -> None:
    with pytest.raises(ValueError):
        sweep_rows(tmp_path, [(0.5, 5.0)], 4, learning_rate=1.0)
    assert not (tmp_path / "sweep_table.json").exists()


def test_clipped_token_entropy_reported_as_tendency() -> None:
    # the comparison is reported, not asserted per step: check the default
    # config produces a higher mean entropy among masked-out tokens at 95%
    # confidence via a normal-approximation two-sample bound. The same run
    # checks every step's report, loss and sample for sane values.
    vocab = Vocabulary(size=8)
    engine = infer_engine(0.22, 7)
    params = init_params(vocab, n_features=512, init_scale=0.3, seed=1234)
    source = SyntheticPromptSource(vocab, max_len=8)
    state = SchedulerState(vocab=vocab, source=source, seed=1234, n_features=512, infer=engine)
    budget = BudgetConfig(token_budget=440, infer_capacity=48, retention_threshold=3, sync_cost_ticks=8)
    cfg = ObjectiveConfig(group_size=8, learning_rate=24.0)
    from mismatchlab import train_loop

    ent_clipped: list[float] = []
    ent_all: list[float] = []
    steps = 0

    def collect(report, loss, sample) -> None:
        nonlocal steps
        steps += 1
        assert sample.delta >= 0.0
        assert 0.0 <= report.stale_token_fraction <= 1.0
        assert np.isfinite(loss.objective_value)
        # The per-token arrays reach on_step; train_loop keeps nothing per iteration.
        if loss.token_count:
            ent_all.extend(loss.per_token_entropy.tolist())
            ent_clipped.extend(loss.per_token_entropy[~loss.per_token_mask_kept].tolist())

    final = train_loop(60, state, params, budget, cfg, make_probes(256, vocab, 1234), on_step=collect)
    assert steps == 60 and final.version_id > 0
    assert len(ent_clipped) > 50
    mean_diff = np.mean(ent_clipped) - np.mean(ent_all)
    se = math.sqrt(np.var(ent_clipped) / len(ent_clipped) + np.var(ent_all) / len(ent_all))
    assert mean_diff > 1.645 * se
