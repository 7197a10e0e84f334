"""Policy core: the softmax of both engines, inverse-CDF sampling, engine mismatch.

Every rule is checked on the batched code the runs execute: one context
is evaluated on the direct path, and sampling runs through the
scheduler's sampler on the context table.
"""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import (
    BudgetConfig,
    Context,
    Engine,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    SchedulerState,
    TaskSpec,
    Vocabulary,
    infer_engine,
    init_params,
)
from mismatchlab import scheduler
from mismatchlab.discrepancy import delta_and_gap, evaluate_probes, probe_set
from mismatchlab.policy import (
    ContextTable,
    _row_max,
    batched_log_softmax,
    batched_train_logits,
    context_rows,
    feature_rows,
    perturb_logits,
)
from mismatchlab.tasks import TaskKind
from oracles import ScriptedPromptSource


def evaluate(params: PolicyParams, ctx: Context, engine, temperature: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(log probs, probs) of engine at one context, on the direct path."""
    prev, last = ctx.window()
    feats, keys_fixed, keys_version = context_rows([ctx.prompt_id], [prev], [last], params.n_features, engine, params.version_id)
    logits = perturb_logits(batched_train_logits(params, feats, temperature), keys_fixed, keys_version, engine.mismatch_scale)
    log_probs, probs = batched_log_softmax(logits)
    return log_probs[0], probs[0]


def one_hot_fixture() -> tuple[PolicyParams, Context]:
    """Vocab 4, 8 one-hot feature rows, fixed context; see the inline oracle."""
    weights = np.zeros((8, 4))
    for r in range(8):
        weights[r, r % 4] = 1.0
    return PolicyParams(weights, version_id=0), Context(prompt_id=7, token_history=(1, 2))


def straight_line_softmax(params: PolicyParams, ctx: Context, temperature: float = 1.0) -> list[float]:
    """Independent oracle: plain-math softmax over the summed feature rows."""
    rows = feature_rows(ctx.prompt_id, *ctx.window(), params.n_features)
    logits = [sum(params.weights[r][k] for r in rows) / temperature for k in range(params.vocab_size)]
    mx = max(logits)
    exps = [math.exp(z - mx) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def tick_tokens(params: PolicyParams, ctx: Context, engine, uniforms) -> list[SimpleNamespace]:
    """The scheduler's sampler over single-token rollouts at ctx, rollout i drawing with uniforms[i].

    Returns each rollout's tokens and, as _sample records them, their
    log probs under both engines and their versions. ctx's prompt need
    not be a task prompt: the state's table is rebuilt over that prompt
    alone.
    """
    task = TaskSpec(TaskKind.PARITY_MATCH, ctx.prompt_id, 0, 1)
    state = SchedulerState(vocab=Vocabulary(size=params.vocab_size), source=ScriptedPromptSource([(task, [1] * len(uniforms))]),
                           seed=0, n_features=params.n_features, infer=engine)
    state.table = ContextTable([ctx.prompt_id], params.n_features, params.vocab_size, engine, 1.0)
    scheduler._load_version(state, params, BudgetConfig(prompts_per_iteration=1), ObjectiveConfig(group_size=len(uniforms)))
    assert state.n_pending == len(uniforms)
    rollouts = state.rollouts
    rollouts[scheduler._ROW] = state.table.rows([ctx.prompt_id], *([v] for v in ctx.window()))[0]
    state.slots["uniform"][: len(uniforms)] = uniforms
    n = len(uniforms)
    plan = scheduler._Schedule(admitted=np.zeros(n, dtype=np.int64), ticks=1, counter=n, capped=False)
    assert scheduler._sample(state, plan, rollouts[scheduler._LIMIT] - rollouts[scheduler._LENGTH], params.version_id) == n
    assert rollouts[scheduler._LENGTH].tolist() == [1] * n
    slots = (state.slots[name][:n].tolist() for name in ("token", "lp_infer", "lp_train", "version"))
    return [
        SimpleNamespace(tokens=[token], lp_infer=[lp_infer], lp_train=[lp_train], versions=[version])
        for token, lp_infer, lp_train, version in zip(*slots)
    ]


@pytest.mark.parametrize("weights", [1.0, [1.0, 2.0], np.zeros((2, 2, 2))])
def test_policy_params_reject_weights_that_are_not_a_matrix(weights) -> None:
    with pytest.raises(ValueError, match=r"^weights must be a \(n_features, vocab_size\) matrix$"):
        PolicyParams(weights)


def softmax_cases():
    """(params, context, temperature, tolerance of the probs, of the log probs, frozen probs or None) of each case:
    the one-hot fixture, zero weights (exactly uniform), and random weights at random temperatures."""
    params, ctx = one_hot_fixture()
    # frozen values computed from the oracle at fixture freeze time
    frozen = [0.07232948812851327, 0.19661193324148185, 0.5344466453885229, 0.19661193324148185]
    yield pytest.param(params, ctx, 1.0, 1e-15, 1e-12, frozen, id="one_hot_fixture")
    yield pytest.param(PolicyParams(np.zeros((16, 32))), Context(3, (1,)), 1.0, 0.0, 1e-15, None, id="zero_weights_16x32")
    yield pytest.param(PolicyParams(np.zeros((8, 32))), Context(0), 1.0, 0.0, 1e-15, None, id="zero_weights_8x32")
    rng = np.random.default_rng(21)
    for i in range(25):
        params = PolicyParams(rng.normal(0, 1.2, size=(12, 6)))
        ctx = Context(int(rng.integers(0, 50)), tuple(int(t) for t in rng.integers(0, 6, size=2)))
        yield pytest.param(params, ctx, float(rng.uniform(0.3, 3.0)), 1e-14, 1e-12, None, id=f"random_{i}")


@pytest.mark.parametrize("params, ctx, temperature, atol, log_atol, frozen", softmax_cases())
def test_distribution_and_log_probs_match_the_straight_line_oracle(params, ctx, temperature, atol, log_atol, frozen) -> None:
    oracle = np.array(straight_line_softmax(params, ctx, temperature))
    log_probs, probs = evaluate(params, ctx, Engine(), temperature)
    assert np.abs(probs - oracle).max() <= atol
    assert np.abs(log_probs - np.log(oracle)).max() <= log_atol
    if frozen is not None:
        assert probs == pytest.approx(frozen, abs=1e-15)


def test_zero_mismatch_scale_matches_train_engine_bitwise() -> None:
    vocab = Vocabulary()
    params = init_params(vocab, n_features=32, init_scale=1.0, seed=9)
    rng = np.random.default_rng(5)
    for _ in range(100):
        ctx = Context(int(rng.integers(0, 1000)), tuple(int(t) for t in rng.integers(0, 32, size=rng.integers(0, 3))))
        lp_train, p_train = evaluate(params, ctx, Engine())
        lp_infer, p_infer = evaluate(params, ctx, infer_engine(0.0, 7))
        assert np.array_equal(p_train, p_infer)
        assert np.array_equal(lp_train, lp_infer)


def test_log_prob_exponentiates_back_to_distribution() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = PolicyParams(rng.normal(0, 1.0, size=(10, 5)))
        ctx = Context(int(rng.integers(0, 40)), tuple(int(t) for t in rng.integers(0, 5, size=1)))
        engine = infer_engine(0.1, 3) if rng.random() < 0.5 else Engine()
        log_probs, probs = evaluate(params, ctx, engine)
        assert np.abs(np.exp(log_probs) - probs).max() < 1e-12


def test_sample_token_degenerate_distribution() -> None:
    # logit gap large enough that the other probabilities underflow to zero
    weights = np.zeros((8, 4))
    weights[:, 2] = 250.0
    params = PolicyParams(weights)
    uniforms = np.concatenate([[0.0, 1.0 - 2.0**-53], np.random.default_rng(0).random(198)])
    rollouts = tick_tokens(params, Context(1, ()), Engine(), uniforms)
    assert all(r.tokens == [2] for r in rollouts)


def test_sample_token_replays_inverse_cdf_oracle() -> None:
    params, ctx = one_hot_fixture()
    _, probs = evaluate(params, ctx, Engine())
    cdf = np.cumsum(probs)
    uniforms = np.random.default_rng(1234).random(50)
    tokens = [r.tokens[0] for r in tick_tokens(params, ctx, Engine(), uniforms)]
    oracle = [min(int(np.searchsorted(cdf, u, side="right")), 3) for u in uniforms]
    assert tokens == oracle
    assert tokens[:12] == [3, 2, 3, 1, 2, 1, 1, 2, 3, 1, 2, 2]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vocab_size=st.integers(2, 9), scale=st.sampled_from([0.0, 0.3, 1.5]))
def test_tick_count_is_the_cdf_entries_at_or_below_u_clamped(seed: int, vocab_size: int, scale: float) -> None:
    """The tick's token is min((cdf <= u).sum(), V - 1) of the row's inference CDF, ties and u >= cdf[-1] included;
    the table holds the CDF's first V - 1 entries, token-major."""
    rng = np.random.default_rng(seed)
    params = PolicyParams(rng.normal(0, 2.0, (16, vocab_size)))
    engine = infer_engine(scale, 7)
    ctx = Context(int(rng.integers(0, 50)), tuple(int(t) for t in rng.integers(0, vocab_size, size=int(rng.integers(0, 3)))))
    table = ContextTable([ctx.prompt_id], params.n_features, vocab_size, engine, 1.0)
    table.load(params)
    row = table.rows([ctx.prompt_id], *([v] for v in ctx.window()))
    slot = table.check(row)[0]
    cdf = np.cumsum(table.probs[1, slot])
    assert table.cdf[:, slot].tobytes() == cdf[:-1].tobytes()
    uniforms = np.concatenate([[0.0, 1.0 - 2.0**-53, 1.0, cdf[-1], np.nextafter(cdf[-1], 0.0)], cdf, rng.random(20)])
    tokens = [r.tokens[0] for r in tick_tokens(params, ctx, engine, uniforms)]
    assert tokens == [min(int((cdf <= u).sum()), vocab_size - 1) for u in uniforms]
    assert vocab_size - 1 in tokens


def test_sample_token_frequencies_within_three_sigma() -> None:
    params, ctx = one_hot_fixture()
    _, probs = evaluate(params, ctx, Engine())
    n = 100_000
    u = np.random.default_rng(77).random(n)
    # The tick's inverse-CDF rule, which the oracle test above ties the tick to.
    tokens = np.minimum((np.cumsum(probs) <= u[:, None]).sum(axis=1), probs.size - 1)
    freqs = np.bincount(tokens, minlength=probs.size) / n
    bound = 3 * np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freqs - probs) <= bound)


def test_tick_records_both_engines_log_probs_of_its_token() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=32, init_scale=0.8, seed=4)
    engine = infer_engine(0.15, 7)
    ctx = Context(11, (2, 5))
    lp_infer, probs_infer = evaluate(params, ctx, engine)
    lp_train, _ = evaluate(params, ctx, Engine())
    uniforms = np.random.default_rng(42).random(20)
    cdf = np.cumsum(probs_infer)
    for u, rollout in zip(uniforms, tick_tokens(params, ctx, engine, uniforms)):
        token = rollout.tokens[0]
        assert token == min(int(np.searchsorted(cdf, u, side="right")), vocab.size - 1)
        assert rollout.lp_infer == [lp_infer[token]]
        assert rollout.lp_train == [lp_train[token]]
        assert rollout.versions == [params.version_id]


def max_axis_log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The softmax with numpy's row reduction for the max, the reference of the column-by-column one."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        z = e.sum(axis=1, keepdims=True)
        return shifted - np.log(z), e / z


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9, 17])
def test_log_softmax_equals_the_row_max_reference_on_signed_zeros_infinities_and_nan(width: int) -> None:
    rng = np.random.default_rng(width)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.0])  # NaNs of both signs
    logits = rng.normal(size=(600, width)) * 3.0
    pick = rng.random(logits.shape) < rng.uniform(0.2, 1.0, size=(600, 1))
    logits[pick] = specials[rng.integers(0, specials.size, int(pick.sum()))]
    logits[:4] = [[0.0], [-0.0], [np.nan], [-np.inf]]  # whole rows of one value
    logits[4, :] = -0.0
    logits[4, -1] = 0.0  # +0.0 after -0.0 ties; the reference picks its own zero
    assert _row_max(logits).tobytes() == logits.max(axis=1, keepdims=True).tobytes()
    got, want = batched_log_softmax(logits), max_axis_log_softmax(logits)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    # One special row among rows of finite nonzero maxima, so that each half of the tie check must find it
    # alone: a maximum of -0.0 beside +0.0 (the column-by-column max picks the other zero from 9 columns
    # on), and NaNs of both signs (it picks the other NaN).
    for special in ([-0.0, 0.0], [-np.nan, np.nan]):
        rows = rng.normal(size=(64, width)) + 5.0
        rows[7] = -1.0
        rows[7, :2] = special[:width]
        assert _row_max(rows).tobytes() == rows.max(axis=1, keepdims=True).tobytes()


def test_row_max_builds_no_mask_on_rows_without_ties() -> None:
    """_row_max of a (4096, 8) array without a zero or NaN maximum, after a warm-up call: its traced peak
    above its start stays below its 32 KB result plus 2 KB (1.0 KB), as the check for ties reads a count
    and a max. A tie mask built on every call peaks 12.7 KB above the result."""
    x = np.random.default_rng(0).normal(size=(4096, 8))
    _row_max(x)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _row_max(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < x.shape[0] * 8 + 2048, f"peak {(peak - start) / 1024:.1f} KB above the result"


def test_distribution_normalization_invariant() -> None:
    rng = np.random.default_rng(8)
    for _ in range(200):
        params = PolicyParams(rng.normal(0, 2.0, size=(16, 8)))
        ctx = Context(int(rng.integers(0, 100)), tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(0, 3))))
        engine = infer_engine(float(rng.uniform(0, 0.3)), 7)
        _, probs = evaluate(params, ctx, engine, float(rng.uniform(0.2, 4)))
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        assert (probs >= 0).all()


def test_mismatch_kl_nondecreasing_in_scale() -> None:
    vocab = Vocabulary(size=16)
    params = init_params(vocab, n_features=64, init_scale=1.5, seed=13)
    rng = np.random.default_rng(13)
    contexts = [
        Context(int(rng.integers(0, 400)), tuple(int(t) for t in rng.integers(0, 16, size=2)))
        for _ in range(60)
    ]
    evaluations = [evaluate_probes(probe_set(contexts, params, infer_engine(scale, 7)), params) for scale in (0.0, 0.01, 0.05, 0.1, 0.2)]
    means = [delta_and_gap(ev.log_probs, ev.probs)[0] for ev in evaluations]
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert means[0] == 0.0


def test_infer_noise_is_deterministic_and_version_dependent() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=32, init_scale=1.0, seed=2)
    engine = infer_engine(0.2, 9)
    ctx = Context(4, (1,))
    _, first = evaluate(params, ctx, engine)
    _, second = evaluate(params, ctx, engine)
    assert np.array_equal(first, second)
    bumped = PolicyParams(params.weights.copy(), version_id=params.version_id + 1)
    assert not np.array_equal(evaluate(bumped, ctx, engine)[1], first)


def test_non_finite_weights_raise() -> None:
    weights = np.zeros((4, 4))
    weights[1, 2] = np.inf
    with pytest.raises(NumericError):
        PolicyParams(weights)

