"""Surrogate objective: mask algebra, advantages, exact gradients, updates."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatchlab import (
    Algo,
    BudgetConfig,
    Engine,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    RolloutBatch,
    SchedulerState,
    SyntheticPromptSource,
    TaskSpec,
    Vocabulary,
    infer_engine,
    init_params,
    momentum_update,
    objective_and_grad,
    run_iteration,
    sgd_update,
)
from mismatchlab import objective
from mismatchlab.objective import LossBreakdown, batch_group_advantages
from mismatchlab.policy import ContextTable, batched_log_softmax, batched_train_logits, context_rows, feature_rows, weight_grad
from mismatchlab.tasks import TaskKind, all_prompt_ids
from oracles import group_advantages, reference_objective, shifted_rows

DEFAULT_BOUNDS = ObjectiveConfig(alpha=0.5, beta=5.0)


def make_batch(seed: int, scale: float, vocab_size: int = 8, max_len: int = 5, n_features: int = 24):
    """Generate a small prompt-group batch through the real rollout path; with the state's context table."""
    vocab = Vocabulary(size=vocab_size)
    engine = infer_engine(scale, 7)
    params = init_params(vocab, n_features=n_features, init_scale=0.7, seed=seed)
    source = SyntheticPromptSource(vocab, max_len=max_len)
    state = SchedulerState(vocab=vocab, source=source, seed=seed, n_features=n_features, infer=engine)
    budget = BudgetConfig(token_budget=30, infer_capacity=8, prompts_per_iteration=3)
    cfg = ObjectiveConfig(group_size=2)
    _, batch = run_iteration(state, params, budget, cfg)
    assert batch
    return params, batch, cfg, state.table


def new_table(theta: PolicyParams) -> ContextTable:
    """A context table over every task prompt of theta's vocabulary, at theta's features and temperature 1."""
    prompt_ids = all_prompt_ids(Vocabulary(size=theta.vocab_size))
    return ContextTable(prompt_ids, theta.n_features, theta.vocab_size, infer_engine(0.0, 7), 1.0)


def batch_of(rollouts: list[tuple], advantages, group_size: int, table: ContextTable) -> RolloutBatch:
    """A batch of (prompt id, tokens, lp_infer, lp_train, versions) rollouts, in group order.

    Their prompts must be in table, and each token's row is that of its
    rollout's (prev, last) shift.
    """

    def flat(k: int, dtype) -> np.ndarray:
        return np.array([v for r in rollouts for v in r[k]], dtype=dtype)

    lengths = np.array([len(r[1]) for r in rollouts], dtype=np.intp)
    prompt_ids = np.array([r[0] for r in rollouts], dtype=np.int64)
    tokens = flat(1, np.int64)
    return RolloutBatch(
        group_size=group_size,
        lengths=lengths,
        prompt_ids=prompt_ids,
        rewards=np.zeros(len(rollouts)),
        advantages=np.array(advantages, dtype=np.float64),
        uids=np.arange(len(rollouts)),
        tokens=tokens,
        rows=shifted_rows(table, lengths, prompt_ids, tokens),
        lp_train=flat(3, np.float64),
        lp_infer=flat(2, np.float64),
        versions=flat(4, np.int64),
    )


def concat_batches(batches: list[RolloutBatch]) -> RolloutBatch:
    """Batches of one group size, one after another."""
    return RolloutBatch(batches[0].group_size, *(
        np.concatenate([getattr(b, f.name) for b in batches]) for f in dataclasses.fields(RolloutBatch)[1:]
    ))


def per_rollout(batch: RolloutBatch, name: str) -> list[list]:
    """A per-token field of the batch, split into its rollouts."""
    return [part.tolist() for part in np.split(getattr(batch, name), np.cumsum(batch.lengths)[:-1])]


def single_token_rollout(task: TaskSpec, token: int, lp_infer: float, lp_train: float, version: int) -> tuple:
    return (task.prompt_id, [token], [lp_infer], [lp_train], [version])


def first_token_log_probs(theta: PolicyParams, prompt_id: int) -> np.ndarray:
    """Training-engine log probs at a prompt's empty window, on the batched path."""
    feats, _, _ = context_rows([prompt_id], [-1], [-1], theta.n_features, Engine(), theta.version_id)
    return batched_log_softmax(batched_train_logits(theta, feats, 1.0))[0][0]


def manual_group(theta: PolicyParams, specs: list[tuple[int, float, float]], advantages: list[float]):
    """One group of single-token rollouts with crafted (token, calib, ratio), and its context table.

    The recorded training log prob is chosen so the importance ratio
    against theta comes out at the requested value; the recorded
    inference log prob then fixes the calibration ratio.
    """
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 4)
    log_probs = first_token_log_probs(theta, task.prompt_id)
    rollouts = []
    for token, calib, ratio in specs:
        lp_old = float(log_probs[token]) - math.log(ratio)
        rollouts.append(single_token_rollout(task, token, lp_old - math.log(calib), lp_old, theta.version_id))
    table = new_table(theta)
    return batch_of(rollouts, advantages, len(specs), table), table


def masked_by_objective(log_calibrations: list[float], cfg: ObjectiveConfig = DEFAULT_BOUNDS):
    """The objective on single-token rollouts whose calibration ratios are exp(log_calibrations)."""
    theta = init_params(Vocabulary(size=6), n_features=16, init_scale=0.4, seed=7)
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 4)
    # A recorded training log prob of 0 makes the calibration ratio exp(0 - lp_infer).
    rollouts = [single_token_rollout(task, 1, -x, 0.0, theta.version_id) for x in log_calibrations]
    advantages = [1.0 if i % 2 else -1.0 for i in range(len(rollouts))]
    table = new_table(theta)
    group = batch_of(rollouts, advantages, len(rollouts), table)
    return objective_and_grad(group, theta, cfg, table)


def test_mask_paper_default_bounds() -> None:
    out = masked_by_objective([math.log(1.0), math.log(0.3)])
    assert out.per_token_calibration.tolist() == [1.0, 0.3]
    assert out.per_token_mask_kept.tolist() == [True, False]
    assert out.per_token_surrogate[0] != 0.0
    assert out.per_token_surrogate[1] == 0.0


def test_mask_boundary_sweep_inclusive() -> None:
    # 5.0 is no exp output: exp(log(5.0)) and the next one up bracket it.
    below_5, above_5 = math.log(5.0), math.nextafter(math.log(5.0), math.inf)
    out = masked_by_objective([math.log(0.5), math.log(0.4999), below_5, above_5, math.log(5.0001)])
    calibration = out.per_token_calibration
    assert calibration[[0, 1, 4]].tolist() == [0.5, 0.4999, 5.0001]
    assert calibration[2] < 5.0 < calibration[3]
    assert out.per_token_mask_kept.tolist() == [True, False, True, False, False]
    assert (out.per_token_surrogate[~out.per_token_mask_kept] == 0.0).all()
    # The upper bound is inclusive too.
    at_beta = masked_by_objective([math.log(5.0001)], ObjectiveConfig(alpha=0.5, beta=5.0001))
    assert at_beta.per_token_mask_kept.tolist() == [True]


def test_mask_rejects_nonpositive_and_non_finite() -> None:
    # A calibration ratio that underflows to 0 lies outside any bounds: masked.
    out = masked_by_objective([-800.0, 0.0])
    assert out.per_token_calibration.tolist() == [0.0, 1.0]
    assert out.per_token_mask_kept.tolist() == [False, True]
    assert out.per_token_surrogate[0] == 0.0
    # A non-finite one fails the batch, whether exp overflows or its input is not finite.
    for log_calibration in (800.0, math.inf, math.nan):
        with pytest.raises(NumericError, match="^calibration ratio overflow$"):
            masked_by_objective([0.0, log_calibration])


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


@pytest.fixture(scope="module")
def unmismatched_batch():
    """make_batch at seed 3 and mismatch scale 0, shared by the tests that only read it."""
    return make_batch(seed=3, scale=0.0)


def test_degenerate_case_all_algorithms_bit_identical(unmismatched_batch) -> None:
    params, batch, _, table = unmismatched_batch
    results = {}
    for algo in Algo:
        cfg = ObjectiveConfig(algo=algo, group_size=2)
        results[algo] = objective_and_grad(batch, params, cfg, table)
    base = results[Algo.ICEPOP]
    assert base.clipped_fraction == 0.0
    for algo in (Algo.GRPO, Algo.TIS):
        other = results[algo]
        assert other.objective_value == base.objective_value
        assert np.array_equal(other.grad, base.grad)
        assert other.clipped_fraction == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("advantage", [-1.0, -2.0])
def test_an_objective_that_overflows_raises_numeric_error_without_a_warning(unmismatched_batch, advantage: float) -> None:
    """Recorded log probs 709.5 below the current ones give calibration ratio 1 and an importance ratio of
    about 1.3e308, finite; times an advantage of -2 it overflows, and at -1 the objective sums to -inf."""
    params, batch, cfg, table = unmismatched_batch
    table.load(params)
    low = table.log_probs[0, table.check(batch.rows), batch.tokens] - 709.5
    batch = dataclasses.replace(batch, lp_train=low, lp_infer=low.copy(), advantages=np.full_like(batch.advantages, advantage))
    with pytest.raises(NumericError, match="^objective or gradient is not finite$"):
        objective_and_grad(batch, params, cfg, table)


def test_zero_advantages_give_zero_objective_and_gradient() -> None:
    params, batch, cfg, table = make_batch(seed=4, scale=0.1)
    batch = dataclasses.replace(batch, advantages=np.zeros_like(batch.advantages))
    out = objective_and_grad(batch, params, cfg, table)
    assert out.objective_value == 0.0
    assert np.all(out.grad == 0.0)


def finite_difference_grad(batch, theta, cfg, table, h=1e-6):
    fd = np.zeros_like(theta.weights)
    for i in range(theta.weights.shape[0]):
        for j in range(theta.weights.shape[1]):
            wp = theta.weights.copy()
            wp[i, j] += h
            wm = theta.weights.copy()
            wm[i, j] -= h
            up = objective_and_grad(batch, PolicyParams(wp, theta.version_id), cfg, table)
            dn = objective_and_grad(batch, PolicyParams(wm, theta.version_id), cfg, table)
            fd[i, j] = (up.objective_value - dn.objective_value) / (2 * h)
    return fd


@pytest.mark.parametrize("algo", [Algo.ICEPOP, Algo.GRPO, Algo.TIS])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.floats(0.0, 0.5))
@example(seed=11, scale=0.12)
def test_gradient_matches_finite_differences(algo: Algo, seed: int, scale: float) -> None:
    """Each algorithm, on random batches and weights."""
    params, batch, _, table = make_batch(seed=seed, scale=scale, vocab_size=6, max_len=4, n_features=10)
    cfg = ObjectiveConfig(algo=algo, group_size=2)
    rng = np.random.default_rng(seed)
    theta = PolicyParams(params.weights + rng.normal(0, 0.05, params.weights.shape), params.version_id)
    out = objective_and_grad(batch, theta, cfg, table)
    fd = finite_difference_grad(batch, theta, cfg, table)
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
    group, table = manual_group(theta, [(1, 1.0, 1.0), (2, 0.2, 1.0)], advantages=[1.0, -1.0])
    out = objective_and_grad(group, theta, cfg, table)
    assert list(out.per_token_mask_kept) == [True, False]
    assert out.clipped_fraction == 0.5

    # Perturb rows that only feed the masked rollout's context: identical
    # tokens share the context here, so instead verify invariance by
    # moving the masked token's own column through a disjoint-context pair.
    task_a = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 4)
    task_b = TaskSpec(TaskKind.TARGET_SUM, 205, 5, 4)
    rows_a = set(feature_rows(task_a.prompt_id, -1, -1, theta.n_features))
    rows_b = set(feature_rows(task_b.prompt_id, -1, -1, theta.n_features))
    private_b = rows_b - rows_a
    assert private_b, "fixture prompts must not share every feature row"

    def build(theta_now: PolicyParams) -> RolloutBatch:
        rollouts = []
        for task, token, calib in ((task_a, 1, 1.0), (task_b, 2, 0.2)):
            lp_cur = float(first_token_log_probs(theta_now, task.prompt_id)[token])
            rollouts.append(single_token_rollout(task, token, lp_cur - math.log(calib), lp_cur, theta_now.version_id))
        # group pairs the kept rollout (task_a) with the masked one (task_b)
        return batch_of(rollouts, [1.0, -1.0], 2, table)

    base_groups = build(theta)
    base = objective_and_grad(base_groups, theta, cfg, table)
    perturbed = theta.weights.copy()
    for row in private_b:
        perturbed[row, :] += 0.37
    theta_p = PolicyParams(perturbed, theta.version_id)
    out_p = objective_and_grad(base_groups, theta_p, cfg, table)
    assert abs(out_p.objective_value - base.objective_value) < 1e-12
    for row in private_b:
        assert np.all(base.grad[row, :] == 0.0)
        assert np.all(out_p.grad[row, :] == 0.0)

    # On a random batch, force some tokens outside [alpha, beta], then move
    # every masked token's calibration ratio to another value outside the
    # bounds: the ICEPOP objective and gradient keep every bit.
    params, batch, _, table = make_batch(seed=seed, scale=scale)
    cfg = ObjectiveConfig(alpha=alpha, beta=beta, group_size=2)
    outside = st.one_of(st.floats(1e-4, 0.95 * alpha), st.floats(1.05 * beta, 1e4))

    def with_calibration(calibration: dict[int, float]) -> RolloutBatch:
        """The batch with the calibration ratio of each flat token index in calibration set to its value."""
        lp_infer = batch.lp_infer.copy()
        for k, value in calibration.items():
            lp_infer[k] = batch.lp_train[k] - math.log(value)
        return dataclasses.replace(batch, lp_infer=lp_infer)

    n_tokens = batch.tokens.size
    forced = data.draw(st.sets(st.integers(0, n_tokens - 1), min_size=1))
    before = objective_and_grad(with_calibration({k: data.draw(outside) for k in forced}), params, cfg, table)
    masked = np.flatnonzero(~before.per_token_mask_kept).tolist()
    assert forced <= set(masked)
    moved = {k: data.draw(outside) for k in masked}
    after = objective_and_grad(with_calibration(moved), params, cfg, table)
    assert np.allclose(after.per_token_calibration[masked], list(moved.values()), rtol=1e-9)
    assert np.array_equal(after.per_token_mask_kept, before.per_token_mask_kept)
    assert after.objective_value == before.objective_value
    assert after.grad.tobytes() == before.grad.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([0.0, 0.05, 0.2, 0.8]), tight=st.booleans())
@example(seed=6, scale=0.2, tight=False)
def test_wide_bounds_reduce_masked_variant_to_unmasked(seed: int, scale: float, tight: bool) -> None:
    """Bounds that keep every token make icepop grpo, bit for bit; tight bounds sit exactly on the extreme ratios."""
    params, batch, _, table = make_batch(seed=seed, scale=scale)
    theta = PolicyParams(params.weights * 1.05, params.version_id)
    calib = objective_and_grad(batch, theta, ObjectiveConfig(algo=Algo.GRPO, group_size=2), table).per_token_calibration
    alpha, beta = (min(1.0, float(calib.min())), max(1.0, float(calib.max()))) if tight else (1e-12, 1e12)
    icepop, grpo = (
        objective_and_grad(batch, theta, ObjectiveConfig(algo=algo, alpha=alpha, beta=beta, group_size=2), table)
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
    group, table = manual_group(theta, [(1, 1.0, 1.35), (2, 1.0, 0.7)], advantages=[1.0, -1.0])
    out = objective_and_grad(group, theta, cfg, table)
    assert np.all(out.grad == 0.0)
    # surrogate values take the clipped constants
    assert out.per_token_surrogate == pytest.approx([1.2 * 1.0, 0.8 * -1.0])


def test_truncated_variant_agrees_with_masked_inside_common_region() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=12)
    specs = [(1, 0.3, 1.0), (2, 0.7, 1.1), (3, 1.9, 0.95), (4, 2.6, 1.0), (5, 6.0, 1.0)]
    group_a, table_a = manual_group(theta, specs, advantages=[1.0, -0.5, 0.5, 1.0, -1.0])
    group_b, table_b = manual_group(theta, specs, advantages=[1.0, -0.5, 0.5, 1.0, -1.0])
    ice = objective_and_grad(group_a, theta, ObjectiveConfig(algo=Algo.ICEPOP, group_size=2), table_a)
    tis = objective_and_grad(group_b, theta, ObjectiveConfig(algo=Algo.TIS, group_size=2, tis_cap=2.0), table_b)
    calib = ice.per_token_calibration
    common = (calib >= 0.5) & (calib <= 2.0)  # [alpha, min(beta, cap)]
    assert common.sum() == 2
    assert np.array_equal(ice.per_token_surrogate[common], tis.per_token_surrogate[common])


def test_clipped_fraction_counts_masked_tokens() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=13)
    group, table = manual_group(theta, [(1, 0.2, 1.0), (2, 1.0, 1.0), (3, 9.0, 1.0), (4, 1.2, 1.0)], advantages=[1.0, -1.0, 0.5, -0.5])
    out = objective_and_grad(group, theta, ObjectiveConfig(group_size=2), table)
    assert out.clipped_fraction == pytest.approx(2 / 4)
    assert out.token_count == 4


def test_empty_group_and_empty_rollout_fail() -> None:
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=16, init_scale=0.4, seed=1)
    table = new_table(theta)
    with pytest.raises(ValueError):
        objective_and_grad(batch_of([], [], 2, table), theta, ObjectiveConfig(group_size=2), table)
    group, table = manual_group(theta, [(1, 1.0, 1.0)], advantages=[0.0])
    empty = np.zeros(0)
    group = dataclasses.replace(group, lengths=np.zeros(1, dtype=np.intp), tokens=empty.astype(np.int64), rows=empty.astype(np.intp),
                                lp_train=empty, lp_infer=empty, versions=empty.astype(np.int64))
    with pytest.raises(ValueError):
        objective_and_grad(group, theta, ObjectiveConfig(group_size=2), table)


@pytest.mark.parametrize(
    "change,error,message",
    [
        ({"group_size": 3}, ValueError, "the batch's rollouts do not form whole groups"),
        ({"versions": np.array([0, 1])}, ValueError, "token generated by a version newer than theta"),
        ({"advantages": np.array([math.nan, 1.0])}, NumericError, "group advantages contain non-finite values"),
        ({"advantages": np.array([1.0, math.inf])}, NumericError, "group advantages contain non-finite values"),
        ({"advantages": np.array([-math.inf, 1.0])}, NumericError, "group advantages contain non-finite values"),
        # Recorded log probs of -1000 overflow a ratio: the importance one where both engines recorded it, the
        # calibration one where only the inference engine did. The first offending rollout names the ratio.
        ({"lp_train": np.array([-1.0, -1000.0]), "lp_infer": np.array([-1.0, -1000.0])}, NumericError, "importance ratio overflow"),
        ({"lp_train": np.array([-1.0, -1.0]), "lp_infer": np.array([-1.0, -1000.0])}, NumericError, "calibration ratio overflow"),
        ({"lp_train": np.array([-1000.0, -1.0]), "lp_infer": np.array([-1000.0, -1000.0])}, NumericError, "importance ratio overflow"),
    ],
)
def test_objective_rejects_partial_groups_newer_versions_and_non_finite_inputs(change: dict, error, message: str) -> None:
    theta = init_params(Vocabulary(size=6), n_features=16, init_scale=0.4, seed=1)
    group, table = manual_group(theta, [(1, 1.0, 1.0), (2, 1.0, 1.0)], advantages=[1.0, -1.0])
    with pytest.raises(error, match=f"^{message}$"):
        objective_and_grad(dataclasses.replace(group, **change), theta, ObjectiveConfig(group_size=2), table)


@pytest.mark.parametrize("shape", [(5, 4), (4, 5), (4,), (1, 4, 4)])
def test_sgd_update_rejects_a_gradient_of_another_shape(shape: tuple) -> None:
    theta = init_params(Vocabulary(size=4), n_features=4, init_scale=0.3, seed=0)
    with pytest.raises(ValueError, match="^gradient shape does not match parameters$"):
        sgd_update(theta, np.zeros(shape), lr=0.5)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grad_norm_of_a_finite_gradient_whose_squares_overflow() -> None:
    """grad_norm is the plain norm while it is finite, the norm scaled by the largest |entry| past that, and
    NumericError when even the scaled norm overflows."""
    def norm(grad) -> float:
        return LossBreakdown(0.0, np.zeros(0, dtype=bool), 0.0, np.asarray(grad, dtype=np.float64), 0.0).grad_norm

    assert norm([3.0, -4.0]) == 5.0
    assert norm([]) == 0.0
    assert norm([3e200, -4e200]) == pytest.approx(5e200, rel=1e-15)
    assert norm([1e308, 0.0]) == 1e308
    with pytest.raises(NumericError, match="gradient norm is not finite"):
        norm([1.5e308, -1.5e308])


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


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda seed: f"seed{seed}")
def carried_batch(request):
    """Groups from several iterations with carry-over, so rollouts mix versions; with the state's context table.

    Lognormal lengths with median 2 give many length-1 rollouts. Built
    once per seed: the tests below read the batch, and each loads its own
    params into the table.
    """
    seed = request.param
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=24, init_scale=0.7, seed=seed)
    source = SyntheticPromptSource(vocab, max_len=9, length_model="lognormal", median=2.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=seed, n_features=24, infer=infer_engine(0.2, 7))
    budget = BudgetConfig(token_budget=10, infer_capacity=6, retention_threshold=10, prompts_per_iteration=2)
    cfg = ObjectiveConfig(group_size=3)
    batches = []
    shift = np.random.default_rng(seed).normal(0, 0.2, params.weights.shape)
    for _ in range(8):
        batches.append(run_iteration(state, params, budget, cfg)[1])
        params = PolicyParams(params.weights + shift, version_id=params.version_id + 1)
    return params, concat_batches(batches), state.table


BINDING = {"alpha": 0.9, "beta": 1.1, "tis_cap": 1.1}


@pytest.mark.parametrize(
    "algo,bounds",
    [(Algo.ICEPOP, {}), (Algo.GRPO, {}), (Algo.TIS, {}), (Algo.ICEPOP, BINDING), (Algo.TIS, BINDING)],
    ids=["icepop", "grpo", "tis", "icepop-binding", "tis-binding"],
)
def test_flat_objective_matches_per_rollout_loop(carried_batch, algo: Algo, bounds: dict) -> None:
    """objective_and_grad against reference_objective, bit for bit, leaving the batch as it was: at the default
    bounds, and at bounds and a cap near 1, where icepop masks tokens on both sides and tis truncates some, so
    that the masked and truncated branches hold too, not only the tokens the default bounds keep."""
    theta_old, batch, table = carried_batch
    cfg = ObjectiveConfig(algo=algo, group_size=3, **bounds)
    assert (batch.lengths == 1).any()
    assert any(len(set(versions)) > 1 for versions in per_rollout(batch, "versions"))
    theta = PolicyParams(theta_old.weights * 1.1, theta_old.version_id)
    before = [getattr(batch, f.name).copy() for f in dataclasses.fields(RolloutBatch)[1:]]

    out = objective_and_grad(batch, theta, cfg, table)
    value, grad, per_token = reference_objective(batch, theta, cfg)
    assert out.objective_value == value
    assert out.grad.tobytes() == grad.tobytes()
    assert out.mean_logp == float(per_token["logp"].mean())
    assert out.per_token_mask_kept.tobytes() == per_token["kept"].tobytes()
    assert out.per_token_surrogate.tobytes() == per_token["surrogate"].tobytes()
    assert out.per_token_calibration.tobytes() == per_token["calib"].tobytes()
    assert out.per_token_entropy.tobytes() == per_token["entropy"].tobytes()
    clipped = per_token["entropy"][~per_token["kept"]]
    assert out.entropy_clipped == float(clipped.mean()) if clipped.size else math.isnan(out.entropy_clipped)
    assert all(getattr(batch, f.name).tobytes() == was.tobytes() for f, was in zip(dataclasses.fields(RolloutBatch)[1:], before))
    calib = out.per_token_calibration
    assert not bounds or ((calib < cfg.alpha).any() and (calib > cfg.beta).any())


@pytest.mark.parametrize("algo", [Algo.ICEPOP, Algo.GRPO])
def test_gradient_matches_the_per_rollout_scatter_order(carried_batch, algo: Algo) -> None:
    """The row-space gradient against each rollout's tokens scattered onto their feature rows, rollout by rollout.

    The two add the same terms in another order, so they agree to rounding: within 1e-12 of each entry,
    or of the largest entry where the terms cancel.
    """
    theta_old, batch, table = carried_batch
    theta = PolicyParams(theta_old.weights * 1.1, theta_old.version_id)
    cfg = ObjectiveConfig(algo=algo, group_size=3)
    out = objective_and_grad(batch, theta, cfg, table)
    grad_logits = reference_objective(batch, theta, cfg)[2]["grad_logits"]
    cuts = np.cumsum(batch.lengths)[:-1]
    per_rollout_order = np.zeros_like(theta.weights)
    for feats, part in zip(np.split(table.feats[batch.rows], cuts), np.split(grad_logits, cuts)):
        for j in range(4):
            np.add.at(per_rollout_order, feats[:, j], part)
    assert out.grad.tobytes() != per_rollout_order.tobytes()
    np.testing.assert_allclose(out.grad, per_rollout_order, rtol=1e-12, atol=1e-12 * np.abs(per_rollout_order).max())


def test_objective_holds_no_array_of_tokens_by_vocabulary() -> None:
    """One group of 8 rollouts of 500 tokens of one prompt at V = 32, every token the same: three table rows.

    After a warm-up call, the traced peak of one objective_and_grad call
    stays below one (tokens, V) float64 array, 1,000 KB: the gradient is
    summed per distinct row, and the per-token arrays are (tokens,).
    """
    vocab = Vocabulary(size=32)
    theta = init_params(vocab, n_features=64, init_scale=0.7, seed=3)
    prompt_id = all_prompt_ids(vocab)[0]
    table = ContextTable([prompt_id], theta.n_features, vocab.size, infer_engine(0.2, 7), 1.0)
    lengths, prompt_ids, tokens = np.full(8, 500), np.full(8, prompt_id), np.full(8 * 500, 5)
    rows = shifted_rows(table, lengths, prompt_ids, tokens)
    assert np.unique(rows).size == 3
    table.load(theta, rows)
    lp_train, lp_infer = table.log_probs[:, table.check(rows), tokens]
    batch = RolloutBatch(
        group_size=8, lengths=lengths, prompt_ids=prompt_ids, rewards=np.zeros(8),
        advantages=np.random.default_rng(3).normal(size=8), uids=np.arange(8), tokens=tokens, rows=rows,
        lp_train=lp_train, lp_infer=lp_infer, versions=np.zeros(tokens.size, dtype=np.int64),
    )
    cfg = ObjectiveConfig(group_size=8)
    objective_and_grad(batch, theta, cfg, table)
    tracemalloc.start()
    try:
        objective_and_grad(batch, theta, cfg, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tokens.size * vocab.size * 8, f"peak {peak / 1024:.0f} KB"


def long_batch() -> tuple[PolicyParams, ContextTable, RolloutBatch]:
    """12 groups of 8 rollouts, each group of its own prompt, of 1 to 120 uniform tokens at V = 8: 6,047 tokens
    on 838 table rows, about schedule_longtail's largest batch (6,082 tokens on 803 rows)."""
    vocab = Vocabulary(size=8)
    theta = init_params(vocab, n_features=512, init_scale=0.3, seed=11)
    table, rng, rollouts = new_table(theta), np.random.default_rng(5), []
    for prompt_id in rng.choice(all_prompt_ids(vocab), 12, replace=False).tolist():
        for n in rng.integers(1, 121, 8).tolist():
            lp_train = rng.normal(-1.5, 0.3, n)
            tokens = rng.integers(0, 8, n).tolist()
            rollouts.append((prompt_id, tokens, (lp_train - rng.normal(0, 0.3, n)).tolist(), lp_train.tolist(), [0] * n))
    batch = batch_of(rollouts, rng.normal(size=96), 8, table)
    assert (batch.tokens.size, np.unique(batch.rows).size) == (6047, 838)
    return theta, table, batch


def test_objective_frees_its_per_token_intermediates_before_the_scatter(monkeypatch) -> None:
    """long_batch's 6,047 tokens on 838 rows, about schedule_longtail's largest batch.

    After a warm-up call, the memory held when objective_and_grad calls
    weight_grad, above the call's start, stays below 8 per-token float64
    arrays (48,376 bytes each). The call returns or still reads after the
    scatter calib, pg_values and inverse, 3 arrays, and kept, 1 byte a
    token; and per row, row_grad of V words, the entropy of one and the
    gathered feats, rows and slots of 6: 12,570 words at 838 rows, 2.08
    arrays. With the table's 1,782-byte row marker that is 5.24 arrays
    (5.30 traced). Keeping the released intermediates alive across the
    scatter holds 17.6; keeping probs and an overflow mask, 6.4.

    The call's traced peak above its start stays below 10 arrays (8.1):
    each term is computed in place where it can be and released after its
    last use, and the rows' log-probs and probs are gathered only where
    they are read, after the per-token terms are freed, and scaled in
    place there. With every intermediate alive until the scatter, the call
    peaked at 18.5; with the entropy's and the row gradient's products in
    arrays of their own, at 9.2.
    """
    theta, table, batch = long_batch()
    scatter, held = objective.weight_grad, []

    def recording_scatter(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return scatter(*args)

    monkeypatch.setattr(objective, "weight_grad", recording_scatter)
    cfg = ObjectiveConfig(group_size=8)
    objective_and_grad(batch, theta, cfg, table)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        objective_and_grad(batch, theta, cfg, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = batch.tokens.size * 8
    assert held[-1] - start < 8 * array, f"held {(held[-1] - start) / array:.2f} arrays"
    assert peak - start < 10 * array, f"peak {(peak - start) / array:.2f} arrays"


def test_weight_grad_adds_in_place_on_the_long_batch() -> None:
    """weight_grad of long_batch's 838 rows at V = 8 onto 512 feature rows, as objective_and_grad calls it.

    After a warm-up call, its traced peak above its entry, its 32 KB
    result included, stays below one (rows, V) float64 array, 53,632
    bytes: np.add.at adds each slot's column of feature indices in place.
    Building a (4, rows, V) index and a copy of the weights per slot, as
    one bincount needs, peaks at 12.6 arrays.
    """
    theta, table, batch = long_batch()
    rows = np.unique(batch.rows)
    feats, grad_logits = table.feats[rows], np.random.default_rng(3).normal(size=(rows.size, 8))
    weight_grad(feats, grad_logits, theta.n_features)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weight_grad(feats, grad_logits, theta.n_features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < grad_logits.nbytes, f"peak {(peak - start) / 1024:.0f} KB"


def test_value_folds_each_rollouts_tokens_in_order() -> None:
    """Lengths 1 to 600, several rollouts at 8, 9, 128, 129 and 512: each rollout's value is its tokens added in order.

    The token values are the per-token surrogates, so the objective must
    be the group's fold of their running sums, bit for bit.
    One group per batch, of four lengths, and unmasked calibration ratios
    over a few orders of magnitude, so that another summation order shows:
    numpy's pairwise .sum() of each rollout gives another value in some
    groups.
    """
    vocab = Vocabulary(size=6)
    theta = init_params(vocab, n_features=24, init_scale=0.7, seed=5)
    rng = np.random.default_rng(5)
    lengths = [*range(1, 601), 8, 9, 128, 129, 512, 8, 9, 128, 129, 512]
    lengths = [int(n) for n in rng.permutation(lengths)] + [8, 512]  # 612 rollouts
    cfg = ObjectiveConfig(algo=Algo.GRPO, group_size=4)
    table, other_order = new_table(theta), 0
    for g in range(0, len(lengths), 4):
        rollouts = []
        for n in lengths[g : g + 4]:
            lp_train = rng.normal(-1.5, 0.3, n)
            rollouts.append((int(rng.integers(200, 204)), rng.integers(0, 6, n).tolist(), (lp_train - rng.normal(0, 2, n)).tolist(),
                             lp_train.tolist(), [0] * n))
        out = objective_and_grad(batch_of(rollouts, rng.normal(size=4), 4, table), theta, cfg, table)
        group_value, pairwise, end = 0.0, 0.0, 0
        for n in lengths[g : g + 4]:
            running = 0.0
            for value in out.per_token_surrogate[end : end + n].tolist():
                running += value
            group_value += running / (4 * n)
            pairwise += float(out.per_token_surrogate[end : end + n].sum()) / (4 * n)
            end += n
        assert out.objective_value == group_value
        other_order += out.objective_value != pairwise
    assert other_order
