"""Surrogate objective: mask algebra, advantages, exact gradients, updates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatchlab import (
    Algo,
    BudgetConfig,
    Context,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    PromptGroup,
    Rollout,
    SyntheticPromptSource,
    TaskSpec,
    Vocabulary,
    group_advantages,
    infer_engine,
    init_params,
    log_prob,
    make_state,
    mask,
    momentum_update,
    objective_and_grad,
    run_iteration,
    sgd_update,
    train_engine,
)
from mismatchlab.objective import batch_group_advantages
from mismatchlab.policy import batched_log_softmax, batched_train_logits, feature_indices, feature_rows
from mismatchlab.tasks import TaskKind

DEFAULT_BOUNDS = ObjectiveConfig(alpha=0.5, beta=5.0)


def make_batch(seed: int, scale: float, vocab_size: int = 8, max_len: int = 5, n_features: int = 24):
    """Generate a small prompt-group batch through the real rollout path."""
    vocab = Vocabulary(size=vocab_size)
    engine = infer_engine(scale, 7)
    params = init_params(vocab, n_features=n_features, init_scale=0.7, seed=seed)
    source = SyntheticPromptSource(vocab, max_len=max_len)
    state = make_state(seed, vocab, engine, source)
    budget = BudgetConfig(token_budget=30, infer_capacity=8, prompts_per_iteration=3)
    cfg = ObjectiveConfig(group_size=2)
    _, groups = run_iteration(state, params, budget, cfg)
    assert groups
    return params, groups, cfg


def single_token_rollout(task: TaskSpec, token: int, lp_infer: float, lp_train: float, version: int) -> Rollout:
    return Rollout(
        task=task, uniforms=np.zeros(1), uid=0, group_uid=0, limit=1, tokens=[token],
        lp_infer=[lp_infer], lp_train=[lp_train], versions=[version], terminal=True,
    )


def manual_group(theta: PolicyParams, specs: list[tuple[int, float, float]], advantages: list[float]):
    """One group of single-token rollouts with crafted (token, calib, ratio).

    The recorded training log prob is chosen so the importance ratio
    against theta comes out at the requested value; the recorded
    inference log prob then fixes the calibration ratio.
    """
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 4)
    rollouts = []
    for token, calib, ratio in specs:
        ctx = Context(task.prompt_id, ())
        lp_old = log_prob(theta, ctx, token, train_engine()) - math.log(ratio)
        rollouts.append(single_token_rollout(task, token, lp_old - math.log(calib), lp_old, theta.version_id))
    return PromptGroup(task=task, rollouts=rollouts, rewards=[0.0] * len(specs), advantages=advantages)


def test_mask_paper_default_bounds() -> None:
    assert mask(1.0, DEFAULT_BOUNDS) == 1.0
    assert mask(0.3, DEFAULT_BOUNDS) == 0.0


def test_mask_boundary_sweep_inclusive() -> None:
    assert mask(0.5, DEFAULT_BOUNDS) == 0.5
    assert mask(0.4999, DEFAULT_BOUNDS) == 0.0
    assert mask(5.0, DEFAULT_BOUNDS) == 5.0
    assert mask(5.0001, DEFAULT_BOUNDS) == 0.0


def test_mask_rejects_nonpositive_and_non_finite() -> None:
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mask(bad, DEFAULT_BOUNDS)


def test_masking_bounds_invariant() -> None:
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=1.5, beta=5.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=0.5, beta=0.9)


def test_group_advantages_zero_variance() -> None:
    assert np.all(group_advantages([1.0, 1.0, 1.0, 1.0]) == 0.0)


def test_group_advantages_hand_computed_pair() -> None:
    # mean 0.5, population std 0.5
    assert group_advantages([1.0, 0.0]) == pytest.approx([1.0, -1.0], abs=1e-15)


def test_group_advantages_permutation_equivariance() -> None:
    rng = np.random.default_rng(5)
    rewards = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    base = group_advantages(rewards)
    for _ in range(10):
        perm = rng.permutation(len(rewards))
        assert np.array_equal(group_advantages([rewards[i] for i in perm]), base[perm])


def test_group_advantages_std_floor() -> None:
    adv = group_advantages([1e-7, 0.0])
    assert adv == pytest.approx([5e-8 / 1e-6, -5e-8 / 1e-6])


def test_group_advantages_requires_pair() -> None:
    with pytest.raises(ValueError):
        group_advantages([1.0])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(1, 12),
    group_size=st.integers(2, 40),
    kind=st.sampled_from(["binary", "real", "tiny", "huge", "constant"]),
)
def test_batch_group_advantages_equal_the_per_group_calls(seed: int, n_groups: int, group_size: int, kind: str) -> None:
    rng = np.random.default_rng(seed)
    shape = (n_groups, group_size)
    rewards = {
        "binary": lambda: rng.integers(0, 2, shape).astype(np.float64),
        "real": lambda: rng.normal(size=shape),
        "tiny": lambda: rng.normal(scale=1e-7, size=shape),
        "huge": lambda: rng.normal(scale=1e150, size=shape),
        "constant": lambda: np.full(shape, rng.normal()),
    }[kind]()
    batch = batch_group_advantages(rewards)
    assert batch.shape == shape
    for row, got in zip(rewards.tolist(), batch):
        assert got.tobytes() == group_advantages(row).tobytes()


def test_batch_group_advantages_requires_pairs() -> None:
    for bad in (np.zeros((3, 1)), np.zeros(4)):
        with pytest.raises(ValueError):
            batch_group_advantages(bad)


def test_degenerate_case_all_algorithms_bit_identical() -> None:
    params, groups, _ = make_batch(seed=3, scale=0.0)
    ref = params.copy()
    results = {}
    for algo in Algo:
        cfg = ObjectiveConfig(algo=algo, group_size=2)
        results[algo] = objective_and_grad(groups, params, params, ref, cfg)
    base = results[Algo.ICEPOP]
    assert base.clipped_fraction == 0.0
    for algo in (Algo.GRPO, Algo.TIS):
        other = results[algo]
        assert other.objective_value == base.objective_value
        assert np.array_equal(other.grad, base.grad)
        assert other.clipped_fraction == 0.0


def test_zero_advantages_give_zero_objective_and_gradient() -> None:
    params, groups, cfg = make_batch(seed=4, scale=0.1)
    for group in groups:
        group.advantages = [0.0] * len(group.advantages)
    out = objective_and_grad(groups, params, params, None, cfg)
    assert out.objective_value == 0.0
    assert np.all(out.grad == 0.0)


def finite_difference_grad(groups, theta, theta_old, ref, cfg, h=1e-6):
    fd = np.zeros_like(theta.weights)
    for i in range(theta.weights.shape[0]):
        for j in range(theta.weights.shape[1]):
            wp = theta.weights.copy()
            wp[i, j] += h
            wm = theta.weights.copy()
            wm[i, j] -= h
            up = objective_and_grad(groups, PolicyParams(wp, theta.version_id), theta_old, ref, cfg)
            dn = objective_and_grad(groups, PolicyParams(wm, theta.version_id), theta_old, ref, cfg)
            fd[i, j] = (up.objective_value - dn.objective_value) / (2 * h)
    return fd


@pytest.mark.parametrize("algo,kl_coeff", [(Algo.ICEPOP, 0.0), (Algo.GRPO, 0.0), (Algo.TIS, 0.0), (Algo.ICEPOP, 0.4)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.0, 0.5))
@example(seed=11, scale=0.12)
def test_gradient_matches_finite_differences(algo: Algo, kl_coeff: float, seed: int, scale: float) -> None:
    """Each algorithm, with and without the KL term, on random batches and weights."""
    params, groups, _ = make_batch(seed=seed, scale=scale, vocab_size=6, max_len=4, n_features=10)
    cfg = ObjectiveConfig(algo=algo, kl_coeff=kl_coeff, group_size=2)
    rng = np.random.default_rng(seed)
    theta = PolicyParams(params.weights + rng.normal(0, 0.05, params.weights.shape), params.version_id)
    ref = init_params(Vocabulary(size=6), n_features=10, init_scale=0.5, seed=99)
    out = objective_and_grad(groups, theta, params, ref, cfg)
    fd = finite_difference_grad(groups, theta, params, ref, cfg)
    rel = np.abs(out.grad - fd) / np.maximum(1.0, np.abs(out.grad))
    assert rel.max() < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 0.8),
    alpha=st.floats(0.1, 1.0),
    beta=st.floats(1.0, 8.0),
    data=st.data(),
)
def test_masked_tokens_contribute_exactly_zero_gradient(seed: int, scale: float, alpha: float, beta: float, data) -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=64, init_scale=0.5, seed=8)
    cfg = ObjectiveConfig(group_size=2)
    # kept token (calib 1) and masked token (calib 0.2 < alpha), both unit ratio
    group = manual_group(theta, [(1, 1.0, 1.0), (2, 0.2, 1.0)], advantages=[1.0, -1.0])
    out = objective_and_grad([group], theta, theta, None, cfg)
    assert list(out.per_token_mask_kept) == [True, False]
    assert out.clipped_fraction == 0.5

    # Perturb rows that only feed the masked rollout's context: identical
    # tokens share the context here, so instead verify invariance by
    # moving the masked token's own column through a disjoint-context pair.
    task_a = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 4)
    task_b = TaskSpec(TaskKind.TARGET_SUM, 205, 5, 4)
    ctx_a = Context(task_a.prompt_id, ())
    ctx_b = Context(task_b.prompt_id, ())
    rows_a = set(feature_indices(ctx_a, theta.n_features))
    rows_b = set(feature_indices(ctx_b, theta.n_features))
    private_b = rows_b - rows_a
    assert private_b, "fixture prompts must not share every feature row"

    def build(theta_now: PolicyParams) -> list[PromptGroup]:
        rollouts = []
        for task, ctx, token, calib in ((task_a, ctx_a, 1, 1.0), (task_b, ctx_b, 2, 0.2)):
            lp_cur = log_prob(theta_now, ctx, token, train_engine())
            rollouts.append(single_token_rollout(task, token, lp_cur - math.log(calib), lp_cur, theta_now.version_id))
        # group pairs the kept rollout (task_a) with the masked one (task_b)
        return [PromptGroup(task=task_a, rollouts=rollouts, rewards=[1.0, 0.0], advantages=[1.0, -1.0])]

    base_groups = build(theta)
    base = objective_and_grad(base_groups, theta, theta, None, cfg)
    perturbed = theta.weights.copy()
    for row in private_b:
        perturbed[row, :] += 0.37
    theta_p = PolicyParams(perturbed, theta.version_id)
    out_p = objective_and_grad(base_groups, theta_p, theta, None, cfg)
    assert abs(out_p.objective_value - base.objective_value) < 1e-12
    for row in private_b:
        assert np.all(base.grad[row, :] == 0.0)
        assert np.all(out_p.grad[row, :] == 0.0)

    # On a random batch, force some tokens outside [alpha, beta], then move
    # every masked token's calibration ratio to another value outside the
    # bounds: the ICEPOP objective and gradient keep every bit.
    params, groups, _ = make_batch(seed=seed, scale=scale)
    cfg = ObjectiveConfig(alpha=alpha, beta=beta, group_size=2)
    outside = st.one_of(st.floats(1e-4, 0.95 * alpha), st.floats(1.05 * beta, 1e4))

    def with_calibration(calibration: dict[int, float]) -> list[PromptGroup]:
        """The batch with the calibration ratio of each flat token index in calibration set to its value."""
        out, k = [], 0
        for g in groups:
            rollouts = []
            for r in g.rollouts:
                lp_infer = [lp_old - math.log(calibration[k + i]) if k + i in calibration else lp_inf
                            for i, (lp_old, lp_inf) in enumerate(zip(r.lp_train, r.lp_infer))]
                rollouts.append(dataclasses.replace(r, lp_infer=lp_infer))
                k += r.length
            out.append(PromptGroup(task=g.task, rollouts=rollouts, rewards=g.rewards, advantages=g.advantages))
        return out

    n_tokens = sum(r.length for g in groups for r in g.rollouts)
    forced = data.draw(st.sets(st.integers(0, n_tokens - 1), min_size=1))
    before = objective_and_grad(with_calibration({k: data.draw(outside) for k in forced}), params, params, None, cfg)
    masked = np.flatnonzero(~before.per_token_mask_kept).tolist()
    assert forced <= set(masked)
    moved = {k: data.draw(outside) for k in masked}
    after = objective_and_grad(with_calibration(moved), params, params, None, cfg)
    assert np.allclose(after.per_token_calibration[masked], list(moved.values()), rtol=1e-9)
    assert np.array_equal(after.per_token_mask_kept, before.per_token_mask_kept)
    assert after.objective_value == before.objective_value
    assert after.grad.tobytes() == before.grad.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([0.0, 0.05, 0.2, 0.8]), tight=st.booleans(), kl_coeff=st.sampled_from([0.0, 0.3]))
@example(seed=6, scale=0.2, tight=False, kl_coeff=0.0)
def test_wide_bounds_reduce_masked_variant_to_unmasked(seed: int, scale: float, tight: bool, kl_coeff: float) -> None:
    """Bounds that keep every token make icepop grpo, bit for bit; tight bounds sit exactly on the extreme ratios."""
    params, groups, _ = make_batch(seed=seed, scale=scale)
    theta = PolicyParams(params.weights * 1.05, params.version_id)
    ref = init_params(Vocabulary(size=8), n_features=24, init_scale=0.5, seed=99)
    calib = objective_and_grad(groups, theta, params, None, ObjectiveConfig(algo=Algo.GRPO, group_size=2)).per_token_calibration
    alpha, beta = (min(1.0, float(calib.min())), max(1.0, float(calib.max()))) if tight else (1e-12, 1e12)
    icepop, grpo = (
        objective_and_grad(groups, theta, params, ref, ObjectiveConfig(algo=algo, alpha=alpha, beta=beta, kl_coeff=kl_coeff, group_size=2))
        for algo in (Algo.ICEPOP, Algo.GRPO)
    )
    assert icepop.per_token_mask_kept.all() and icepop.clipped_fraction == grpo.clipped_fraction == 0.0
    assert icepop.objective_value == grpo.objective_value
    assert icepop.grad.tobytes() == grpo.grad.tobytes()
    for name in ("per_token_mask_kept", "per_token_surrogate", "per_token_calibration", "per_token_entropy"):
        assert getattr(icepop, name).tobytes() == getattr(grpo, name).tobytes()


def test_clip_branch_zeroes_gradient_on_both_sides() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=10)
    cfg = ObjectiveConfig(group_size=2, clip_eps=0.2)
    # positive advantage with ratio above 1+eps, negative with ratio below 1-eps
    group = manual_group(theta, [(1, 1.0, 1.35), (2, 1.0, 0.7)], advantages=[1.0, -1.0])
    out = objective_and_grad([group], theta, theta, None, cfg)
    assert np.all(out.grad == 0.0)
    # surrogate values take the clipped constants
    assert out.per_token_surrogate == pytest.approx([1.2 * 1.0, 0.8 * -1.0])


def test_truncated_variant_agrees_with_masked_inside_common_region() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=12)
    specs = [(1, 0.3, 1.0), (2, 0.7, 1.1), (3, 1.9, 0.95), (4, 2.6, 1.0), (5, 6.0, 1.0)]
    group_a = manual_group(theta, specs, advantages=[1.0, -0.5, 0.5, 1.0, -1.0])
    group_b = manual_group(theta, specs, advantages=[1.0, -0.5, 0.5, 1.0, -1.0])
    ice = objective_and_grad([group_a], theta, theta, None, ObjectiveConfig(algo=Algo.ICEPOP, group_size=2))
    tis = objective_and_grad([group_b], theta, theta, None, ObjectiveConfig(algo=Algo.TIS, group_size=2, tis_cap=2.0))
    calib = ice.per_token_calibration
    common = (calib >= 0.5) & (calib <= 2.0)  # [alpha, min(beta, cap)]
    assert common.sum() == 2
    assert np.array_equal(ice.per_token_surrogate[common], tis.per_token_surrogate[common])


def test_clipped_fraction_counts_masked_tokens() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=13)
    group = manual_group(theta, [(1, 0.2, 1.0), (2, 1.0, 1.0), (3, 9.0, 1.0), (4, 1.2, 1.0)], advantages=[1.0, -1.0, 0.5, -0.5])
    out = objective_and_grad([group], theta, theta, None, ObjectiveConfig(group_size=2))
    assert out.clipped_fraction == pytest.approx(2 / 4)
    assert out.token_count == 4


def test_empty_group_and_empty_rollout_fail() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=1)
    with pytest.raises(ValueError):
        objective_and_grad([], theta, theta, None, ObjectiveConfig(group_size=2))
    group = manual_group(theta, [(1, 1.0, 1.0)], advantages=[0.0])
    group.rollouts[0].tokens = []
    with pytest.raises(ValueError):
        objective_and_grad([group], theta, theta, None, ObjectiveConfig(group_size=2))


def test_sgd_update_identity_and_basis_vector() -> None:
    vocab = Vocabulary(size=4)
    theta = init_params(vocab, n_features=4, init_scale=0.3, seed=0)
    same = sgd_update(theta, np.zeros_like(theta.weights), lr=0.5)
    assert np.array_equal(same.weights, theta.weights)
    assert same.version_id == theta.version_id + 1

    grad = np.zeros_like(theta.weights)
    grad[2, 1] = 1.0
    bumped = sgd_update(theta, grad, lr=1.0)
    assert bumped.weights[2, 1] == theta.weights[2, 1] + 1.0


def test_sgd_two_steps_equal_summed_gradient_at_same_theta() -> None:
    vocab = Vocabulary(size=4)
    theta = init_params(vocab, n_features=6, init_scale=0.5, seed=3)
    rng = np.random.default_rng(2)
    g1 = rng.normal(0, 1, theta.weights.shape)
    g2 = rng.normal(0, 1, theta.weights.shape)
    a = sgd_update(sgd_update(theta, g1, 0.1), g2, 0.1)
    b = sgd_update(theta, g1 + g2, 0.1)
    assert np.allclose(a.weights, b.weights, atol=1e-12, rtol=0)


def test_sgd_rejects_non_finite_result() -> None:
    vocab = Vocabulary(size=4)
    theta = init_params(vocab, n_features=4, init_scale=0.3, seed=0)
    grad = np.full_like(theta.weights, 1e308)
    with pytest.raises(NumericError):
        sgd_update(theta, grad, lr=10.0)


def test_momentum_update_accumulates_velocity() -> None:
    vocab = Vocabulary(size=4)
    theta = init_params(vocab, n_features=4, init_scale=0.3, seed=0)
    grad = np.ones_like(theta.weights)
    velocity = np.zeros_like(theta.weights)
    p1, v1 = momentum_update(theta, grad, velocity, lr=0.1, beta=0.5)
    p2, v2 = momentum_update(p1, grad, v1, lr=0.1, beta=0.5)
    assert np.allclose(v1, grad)
    assert np.allclose(v2, 1.5 * grad)
    assert p2.version_id == theta.version_id + 2


def test_objective_config_invariants() -> None:
    with pytest.raises(ValueError):
        ObjectiveConfig(group_size=1)
    with pytest.raises(ValueError):
        ObjectiveConfig(clip_eps=1.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(kl_coeff=-0.1)


def reference_objective(groups, theta, ref, cfg, temperature=1.0):
    """Per-rollout loop that the flat objective must reproduce bit for bit.

    Returns (value, grad, per-token arrays by LossBreakdown field, per-token KL).
    """
    grad = np.zeros_like(theta.weights)
    parts: dict[str, list[np.ndarray]] = {k: [] for k in ("kept", "surrogate", "calib", "entropy", "logp", "kl")}
    total = 0.0
    for group in groups:
        group_value = 0.0
        for rollout, advantage in zip(group.rollouts, group.advantages):
            n_tok = rollout.length
            weight = 1.0 / (len(groups) * len(group.rollouts) * n_tok)
            token_ids = np.asarray(rollout.tokens)
            lp_old = np.asarray(rollout.lp_train)
            lp_inf = np.asarray(rollout.lp_infer)
            pos = np.arange(n_tok)
            window = [-1, -1] + list(rollout.tokens)
            feats = np.asarray(
                [feature_rows(group.task.prompt_id, window[t], window[t + 1], theta.n_features) for t in range(n_tok)]
            )
            log_probs, probs = batched_log_softmax(batched_train_logits(theta, feats, temperature))
            lp_cur = log_probs[pos, token_ids]
            calib = np.exp(lp_old - lp_inf)
            if cfg.algo is Algo.ICEPOP:
                kept = (calib >= cfg.alpha) & (calib <= cfg.beta)
                factor = np.where(kept, calib, 0.0)
            elif cfg.algo is Algo.GRPO:
                kept = np.ones(n_tok, dtype=bool)
                factor = calib
            else:
                kept = np.ones(n_tok, dtype=bool)
                factor = np.minimum(calib, cfg.tis_cap)
            ratio = np.exp(lp_cur - lp_old)
            unclipped = ratio * advantage
            clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * advantage
            active = unclipped <= clipped
            pg_values = factor * np.where(active, unclipped, clipped)
            coeffs = np.where(active, weight * factor * ratio * advantage / temperature, 0.0)
            grad_logits = -coeffs[:, None] * probs
            grad_logits[pos, token_ids] += coeffs
            kl_values = np.zeros(n_tok)
            if ref is not None:
                ref_log_probs, _ = batched_log_softmax(batched_train_logits(ref, feats, temperature))
                diff = log_probs - ref_log_probs
                kl_values = (probs * diff).sum(axis=1)
                if cfg.kl_coeff > 0.0:
                    grad_logits -= (weight * cfg.kl_coeff / temperature) * (probs * (diff - kl_values[:, None]))
            for j in range(4):
                np.add.at(grad, feats[:, j], grad_logits)
            token_values = pg_values - cfg.kl_coeff * kl_values
            group_value += float(token_values.sum()) / (len(group.rollouts) * n_tok)
            for key, value in (
                ("kept", kept), ("surrogate", pg_values), ("calib", calib),
                ("entropy", -(probs * log_probs).sum(axis=1)), ("logp", lp_cur), ("kl", kl_values),
            ):
                parts[key].append(value)
        total += group_value
    return total / len(groups), grad, {k: np.concatenate(v) for k, v in parts.items()}


def carried_batch(seed: int):
    """Groups from several iterations with carry-over, so rollouts mix versions.

    Lognormal lengths with median 2 give many length-1 rollouts.
    """
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=24, init_scale=0.7, seed=seed)
    source = SyntheticPromptSource(vocab, max_len=9, length_model="lognormal", median=2.0, sigma=1.0)
    state = make_state(seed, vocab, infer_engine(0.2, 7), source)
    budget = BudgetConfig(token_budget=10, infer_capacity=6, retention_threshold=10, prompts_per_iteration=2)
    cfg = ObjectiveConfig(group_size=3)
    groups: list[PromptGroup] = []
    shift = np.random.default_rng(seed).normal(0, 0.2, params.weights.shape)
    for _ in range(8):
        groups += run_iteration(state, params, budget, cfg)[1]
        params = PolicyParams(params.weights + shift, version_id=params.version_id + 1)
    return params, groups


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algo,kl_coeff", [(Algo.ICEPOP, 0.0), (Algo.GRPO, 0.0), (Algo.TIS, 0.0), (Algo.ICEPOP, 0.3), (Algo.TIS, 0.3)])
def test_flat_objective_matches_per_rollout_loop(seed: int, algo: Algo, kl_coeff: float) -> None:
    theta_old, groups = carried_batch(seed)
    rollouts = [r for g in groups for r in g.rollouts]
    assert any(r.length == 1 for r in rollouts)
    assert any(len(set(r.versions)) > 1 for r in rollouts)
    theta = PolicyParams(theta_old.weights * 1.1, theta_old.version_id)
    ref = init_params(Vocabulary(size=6), n_features=24, init_scale=0.5, seed=99)
    cfg = ObjectiveConfig(algo=algo, kl_coeff=kl_coeff, group_size=3)
    before = [(list(r.tokens), list(r.lp_infer), list(r.lp_train), list(r.versions)) for r in rollouts]

    out = objective_and_grad(groups, theta, theta_old, ref, cfg)
    value, grad, per_token = reference_objective(groups, theta, ref, cfg)
    assert out.objective_value == value
    assert out.grad.tobytes() == grad.tobytes()
    assert out.mean_logp == float(per_token["logp"].mean())
    assert out.per_token_mask_kept.tobytes() == per_token["kept"].tobytes()
    assert out.per_token_surrogate.tobytes() == per_token["surrogate"].tobytes()
    assert out.per_token_calibration.tobytes() == per_token["calib"].tobytes()
    assert out.per_token_entropy.tobytes() == per_token["entropy"].tobytes()
    if kl_coeff > 0.0:
        assert out.kl_to_ref == float(per_token["kl"].mean())
    else:
        assert math.isnan(out.kl_to_ref)
    assert [(r.tokens, r.lp_infer, r.lp_train, r.versions) for r in rollouts] == before
