"""The per-version context table against the direct dual-engine path, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import (
    BudgetConfig,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    SyntheticPromptSource,
    Vocabulary,
    infer_engine,
    init_params,
    make_probes,
    make_state,
    measure,
    objective_and_grad,
    run_iteration,
    train_loop,
)
from mismatchlab.discrepancy import probe_windows
from mismatchlab.policy import (
    ContextTable,
    batched_log_softmax,
    batched_train_logits,
    context_rows,
    perturb_logits,
)
from mismatchlab.tasks import COPY_PATTERN_POOL
from oracles import block_inference_logits

PROMPT_ID = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 100, 2**63 - 1]))


def direct_rows(params, infer, temperature, pids, prev, last):
    """(feats, lp_train, probs_train, lp_infer, probs_infer, cdf) through the direct path."""
    feats, keys_fixed, keys_version = context_rows(pids, prev, last, params.n_features, infer, params.version_id)
    train_logits = batched_train_logits(params, feats, temperature)
    lp_infer, probs_infer = batched_log_softmax(perturb_logits(train_logits, keys_fixed, keys_version, infer.mismatch_scale))
    lp_train, probs_train = batched_log_softmax(train_logits)
    return feats, lp_train, probs_train, lp_infer, probs_infer, np.cumsum(probs_infer, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    prompts=st.lists(PROMPT_ID, min_size=1, max_size=4, unique=True),
    late_prompt=PROMPT_ID,
    vocab_size=st.integers(2, 9),
    n_features=st.integers(1, 600),
    temperature=st.sampled_from([1.0, 0.37, 2.5]),
    scale=st.sampled_from([0.0, 0.05, 0.22, 1.5]),
    mismatch_seed=st.integers(-(2**63), 2**63 - 1),
    versions=st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_rows_equal_direct_path(
    prompts, late_prompt, vocab_size, n_features, temperature, scale, mismatch_seed, versions, seed
) -> None:
    rng = np.random.default_rng(seed)
    infer = infer_engine(scale, mismatch_seed)
    table = ContextTable(vocab_size, infer, temperature)
    table.add(prompts)
    for i, version in enumerate(versions):
        weights = rng.normal(size=(n_features, vocab_size)) * 10.0 ** rng.uniform(-2, 2)
        params = PolicyParams(weights, version)
        table.load(params)
        if i == 0:
            table.add([late_prompt])  # registered while a version is loaded
        known = prompts + [late_prompt]
        n = 40
        pids = np.asarray(known, dtype=np.int64)[rng.integers(0, len(known), n)]
        prev = rng.integers(-1, vocab_size, n)
        last = rng.integers(-1, vocab_size, n)
        rows = table.rows(pids, prev, last)
        table.check(rows)
        got = (table.feats[rows], table.lp_train[rows], table.probs_train[rows], table.lp_infer[rows], table.probs_infer[rows], table.cdf[rows])
        for g, want in zip(got, direct_rows(params, infer, temperature, pids, prev, last)):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def full_block_rows(params, infer, temperature, pids, prev, last):
    """(lp_train, probs_train, lp_infer, probs_infer, cdf) with every noise block drawn in full.

    The oracles' composition: both per-version normal blocks at every
    entry, mixed with both persistent blocks, and the fault term masked,
    not scattered.
    """
    feats, keys_fixed, keys_version = context_rows(pids, prev, last, params.n_features, infer, params.version_id)
    train_logits = batched_train_logits(params, feats, temperature)
    lp_train, probs_train = batched_log_softmax(train_logits)
    if infer.mismatch_scale > 0.0:
        lp_infer, probs_infer = batched_log_softmax(block_inference_logits(train_logits, keys_fixed, keys_version, infer.mismatch_scale))
    else:
        lp_infer, probs_infer = lp_train, probs_train
    return lp_train, probs_train, lp_infer, probs_infer, np.cumsum(probs_infer, axis=1)


@settings(max_examples=40, deadline=None)
@given(
    prompts=st.lists(PROMPT_ID, min_size=1, max_size=3, unique=True),
    late_prompt=PROMPT_ID,
    vocab_size=st.integers(2, 9),
    n_features=st.integers(1, 300),
    scale=st.sampled_from([0.0, 0.05, 0.22, 1.5]),
    mismatch_seed=st.integers(-(2**63), 2**63 - 1),
    versions=st.lists(st.integers(0, 2**40), min_size=2, max_size=3),
    overflow=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_load_equals_the_full_block_composition_on_every_finite_row(
    prompts, late_prompt, vocab_size, n_features, scale, mismatch_seed, versions, overflow, seed
) -> None:
    rng = np.random.default_rng(seed)
    infer = infer_engine(scale, mismatch_seed)
    table = ContextTable(vocab_size, infer, 0.8)
    table.add(prompts)
    windows = np.arange(-1, vocab_size)
    prev, last = (w.ravel() for w in np.meshgrid(windows, windows, indexing="ij"))
    for i, version in enumerate(versions):
        weights = rng.normal(size=(n_features, vocab_size)) * 10.0 ** rng.uniform(-2, 2)
        if overflow:
            weights[rng.integers(0, n_features, 2)] = 1e308
        params = PolicyParams(weights, version)
        table.load(params)
        if i == 0:
            table.add([late_prompt])  # registered while a version is loaded
        known = list(dict.fromkeys(prompts + [late_prompt]))
        pids = np.repeat(np.asarray(known, dtype=np.int64), prev.size)
        every = (pids, np.tile(prev, len(known)), np.tile(last, len(known)))
        rows = table.rows(*every)
        assert sorted(rows.tolist()) == list(range(table.feats.shape[0]))
        finite = table.finite[rows]
        assert overflow or finite.all()
        at = rows[finite]
        got = (table.lp_train[at], table.probs_train[at], table.lp_infer[at], table.probs_infer[at], table.cdf[at])
        with np.errstate(over="ignore", invalid="ignore"):  # a finite row's noise can still overflow
            for not_finite in np.flatnonzero(~finite):
                with pytest.raises(NumericError):
                    batched_train_logits(params, table.feats[rows[not_finite]][None, :], 0.8)
            oracle = full_block_rows(params, infer, 0.8, *(col[finite] for col in every))
        for g, want in zip(got, oracle):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def test_rows_reject_unregistered_prompts_and_out_of_range_windows() -> None:
    table = ContextTable(4, infer_engine(0.1, 7), 1.0)
    table.add([100])
    with pytest.raises(ValueError):
        table.rows([101], [-1], [-1])
    for prev, last in [(-2, 0), (0, 4), (4, 0), (0, -2)]:
        with pytest.raises(ValueError):
            table.rows([100], [prev], [last])


def test_prompt_row_is_the_empty_window_row() -> None:
    table = ContextTable(5, infer_engine(0.1, 7), 1.0)
    table.add([9, 7])
    table.add([-3, 7])
    for pid in (9, 7, -3):
        assert table.prompt_row(pid) == int(table.rows([pid], [-1], [-1])[0])


def test_advance_moves_the_window() -> None:
    table = ContextTable(5, infer_engine(0.1, 7), 1.0)
    table.add([7, 9])
    rows = table.rows([7, 9, 9], [-1, -1, 2], [-1, 3, 4])
    assert table.advance(rows, np.asarray([0, 4, 1])).tolist() == table.rows([7, 9, 9], [-1, 3, 4], [0, 4, 1]).tolist()


def trained_state(seed: int, scale: float, temperature: float = 1.0):
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=40, init_scale=0.7, seed=seed)
    state = make_state(seed, vocab, infer_engine(scale, 7), SyntheticPromptSource(vocab, max_len=6), temperature)
    budget = BudgetConfig(token_budget=40, infer_capacity=8, prompts_per_iteration=3)
    return vocab, params, state, budget


@pytest.mark.parametrize("scale,temperature", [(0.0, 1.0), (0.2, 1.0), (0.2, 0.6)])
def test_objective_and_measure_through_the_table_match_the_direct_path(scale: float, temperature: float) -> None:
    vocab, params, state, budget = trained_state(4, scale, temperature)
    cfg = ObjectiveConfig(group_size=2, kl_coeff=0.1)
    _, groups = run_iteration(state, params, budget, cfg)
    assert groups
    ref = init_params(vocab, n_features=40, init_scale=0.5, seed=9)
    direct = objective_and_grad(groups, params, params, ref, cfg, temperature)
    tabled = objective_and_grad(groups, params, params, ref, cfg, temperature, state.table)
    for field in ("objective_value", "clipped_fraction", "kl_to_ref", "token_count", "mean_logp", "entropy_all", "grad_norm"):
        assert getattr(tabled, field) == getattr(direct, field)
    for field in ("grad", "per_token_mask_kept", "per_token_surrogate", "per_token_calibration", "per_token_entropy"):
        assert getattr(tabled, field).tobytes() == getattr(direct, field).tobytes()

    probes = make_probes(64, vocab, 4)
    windows = probe_windows(probes)
    state.table.add(windows[0])
    direct_sample = measure(params, probes, state.infer, temperature)
    for rows in (None, state.table.rows(*windows)):
        table_sample = measure(params, probes, state.infer, temperature, table=state.table, rows=rows)
        assert (table_sample.delta, table_sample.max_token_gap) == (direct_sample.delta, direct_sample.max_token_gap)


def visitable_feature_rows(vocab_size: int, n_features: int, infer) -> set[int]:
    """Non-bias feature rows of every window a rollout or probe can reach, over all task prompts."""
    prompt_ids = [100, 101] + [200 + t for t in range(vocab_size)] + [300 + t for t in range(COPY_PATTERN_POOL)]
    windows = [(-1, -1)] + [(-1, a) for a in range(vocab_size)] + [(a, b) for a in range(vocab_size) for b in range(vocab_size)]
    pids = [p for p in prompt_ids for _ in windows]
    feats, _, _ = context_rows(pids, [w[0] for _ in prompt_ids for w in windows], [w[1] for _ in prompt_ids for w in windows], n_features, infer, 0)
    return set(feats[:, 1:].ravel().tolist())


def test_overflow_at_a_context_the_run_never_visits_does_not_fail_it() -> None:
    vocab = Vocabulary(size=6)
    infer = infer_engine(0.2, 7)
    n_features = 4096
    visited = visitable_feature_rows(vocab.size, n_features, infer)
    # A window (t, -1) follows no rollout prefix; find one whose bigram rows no reachable window uses.
    target = next(
        (prev, rows) for prev in range(vocab.size)
        for rows in [context_rows([100], [prev], [-1], n_features, infer, 0)[0][0]]
        if not {int(rows[2]), int(rows[3])} & visited
    )
    prev, rows = target
    params = init_params(vocab, n_features=n_features, init_scale=0.5, seed=3)
    params.weights[[rows[2], rows[3]], 0] = 1e308
    with pytest.raises(NumericError):
        batched_train_logits(params, rows[None, :], 1.0)

    state = make_state(3, vocab, infer, SyntheticPromptSource(vocab, max_len=6))
    budget = BudgetConfig(token_budget=40, infer_capacity=8, prompts_per_iteration=3)
    results, _ = train_loop(3, state, params, budget, ObjectiveConfig(group_size=2, learning_rate=0.5), make_probes(32, vocab, 3))
    assert len(results) == 3
    assert not state.table.finite[state.table.rows([100], [prev], [-1])].any()


def overflowing(params: PolicyParams) -> PolicyParams:
    """The same params with every context's first logit overflowing."""
    weights = params.weights.copy()
    weights[:, 0] = 1e308
    return PolicyParams(weights, params.version_id + 1)


def direct_message(params: PolicyParams) -> str:
    with pytest.raises(NumericError) as direct:
        batched_train_logits(params, np.zeros((1, 4), dtype=np.intp), 1.0)
    return str(direct.value)


def test_visited_overflow_raises_the_direct_message_from_the_tick() -> None:
    _, params, state, budget = trained_state(5, 0.2)
    bad = overflowing(params)
    with pytest.raises(NumericError) as tick:
        run_iteration(state, bad, budget, ObjectiveConfig(group_size=2))
    assert str(tick.value) == direct_message(bad)


def test_visited_overflow_raises_the_direct_message_from_objective_and_measure() -> None:
    vocab, params, state, budget = trained_state(6, 0.2)
    cfg = ObjectiveConfig(group_size=2)
    _, groups = run_iteration(state, params, budget, cfg)
    bad = overflowing(params)
    messages = []
    for table in (None, state.table):
        with pytest.raises(NumericError) as objective:
            objective_and_grad(groups, bad, bad, None, cfg, 1.0, table)
        messages.append(str(objective.value))
    probes = make_probes(16, vocab, 6)
    windows = probe_windows(probes)
    state.table.add(windows[0])
    with pytest.raises(NumericError) as direct:
        measure(bad, probes, state.infer)
    with pytest.raises(NumericError) as tabled:
        measure(bad, probes, state.infer, table=state.table, rows=state.table.rows(*windows))
    messages += [str(direct.value), str(tabled.value)]
    assert messages == [direct_message(bad)] * 4


def test_check_raises_on_rows_whose_inference_logits_overflow() -> None:
    """Large but finite training logits can overflow the inference engine's fault term."""
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=32, init_scale=0.5, seed=3)
    params.weights[:, 0] = 1e307
    table = ContextTable(vocab.size, infer_engine(0.22, 7), 1.0)
    table.add([100, 205, 311])
    table.load(params)
    infer_finite = np.isfinite(table.lp_infer).all(axis=1)
    assert table.finite.all() and not infer_finite.all()
    with pytest.raises(NumericError, match="inference engine"):
        table.check(np.flatnonzero(~infer_finite))
    table.check(np.flatnonzero(infer_finite))
