"""The per-version context table against the direct dual-engine path, bit for bit."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import (
    BudgetConfig,
    NumericError,
    ObjectiveConfig,
    PolicyParams,
    SchedulerState,
    SyntheticPromptSource,
    Vocabulary,
    infer_engine,
    init_params,
    make_probes,
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
from mismatchlab.tasks import all_prompt_ids, sample_prompt
from oracles import block_inference_logits, reference_objective

PROMPT_ID = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 100, 2**63 - 1]))


def table_rows(table: ContextTable, slots) -> tuple:
    """(lp_train, probs_train, lp_infer, probs_infer, cdf) of the block's slots, the cdf token-major."""
    return table.log_probs[0, slots], table.probs[0, slots], table.log_probs[1, slots], table.probs[1, slots], table.cdf[:, slots]


def direct_rows(params, infer, temperature, pids, prev, last):
    """(feats, lp_train, probs_train, lp_infer, probs_infer, cdf) through the direct path; cdf token-major, as the
    table holds it: the first V - 1 running sums of each row's inference probs, one row per token."""
    feats, keys_fixed, keys_version = context_rows(pids, prev, last, params.n_features, infer, params.version_id)
    train_logits = batched_train_logits(params, feats, temperature)
    lp_infer, probs_infer = batched_log_softmax(perturb_logits(train_logits, keys_fixed, keys_version, infer.mismatch_scale))
    lp_train, probs_train = batched_log_softmax(train_logits)
    return feats, lp_train, probs_train, lp_infer, probs_infer, np.cumsum(probs_infer, axis=1)[:, :-1].T


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
    table = ContextTable(prompts + [late_prompt], n_features, vocab_size, infer, temperature)
    for version in versions:
        weights = rng.normal(size=(n_features, vocab_size)) * 10.0 ** rng.uniform(-2, 2)
        params = PolicyParams(weights, version)
        table.load(params)
        known = prompts + [late_prompt]
        n = 40
        pids = np.asarray(known, dtype=np.int64)[rng.integers(0, len(known), n)]
        prev = rng.integers(-1, vocab_size, n)
        last = rng.integers(-1, vocab_size, n)
        rows = table.rows(pids, prev, last)
        got = (table.feats[rows], *table_rows(table, table.check(rows)))
        for g, want in zip(got, direct_rows(params, infer, temperature, pids, prev, last)):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def full_block_rows(params, infer, temperature, pids, prev, last):
    """(lp_train, probs_train, lp_infer, probs_infer, cdf) with every noise block drawn in full, cdf token-major.

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
    return lp_train, probs_train, lp_infer, probs_infer, np.cumsum(probs_infer, axis=1)[:, :-1].T


def read_gate(table: ContextTable, rows: np.ndarray, rng) -> list:
    """Per row, the message check raises on it alone, or None; rows go through check in random chunks first."""
    order = rng.permutation(rows.size)
    for chunk in np.array_split(order, rng.integers(1, 6)):
        try:
            table.check(rows[chunk])
        except NumericError:
            pass
    messages = []
    for row in rows:
        try:
            table.check(np.asarray([row]))
            messages.append(None)
        except NumericError as exc:
            messages.append(str(exc))
    return messages


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
    """Every row equals the oracle at the version last loaded, whichever pass evaluated it.

    Per version, a random share of the rows is evaluated by the load's
    pass and the rest through check, in random chunks; at the first
    version the late prompt's block, last in the table, is evaluated
    through check only.
    """
    rng = np.random.default_rng(seed)
    infer = infer_engine(scale, mismatch_seed)
    table = ContextTable(prompts + [late_prompt], n_features, vocab_size, infer, 0.8)
    windows = np.arange(-1, vocab_size)
    prev, last = (w.ravel() for w in np.meshgrid(windows, windows, indexing="ij"))
    for i, version in enumerate(versions):
        weights = rng.normal(size=(n_features, vocab_size)) * 10.0 ** rng.uniform(-2, 2)
        if overflow:
            weights[rng.integers(0, n_features, 2)] = 1e308
        params = PolicyParams(weights, version)
        n_rows = table.feats.shape[0] if i else len(prompts) * prev.size
        table.load(params, np.flatnonzero(rng.random(n_rows) < rng.uniform()))
        known = list(dict.fromkeys(prompts + [late_prompt]))
        pids = np.repeat(np.asarray(known, dtype=np.int64), prev.size)
        every = (pids, np.tile(prev, len(known)), np.tile(last, len(known)))
        rows = table.rows(*every)
        assert sorted(rows.tolist()) == list(range(table.feats.shape[0]))
        messages = read_gate(table, rows, rng)
        assert table.slot[np.flatnonzero(table.slot >= 0)].tolist() == list(range(table.cdf.shape[1]))
        assert overflow or not any(messages)
        finite = np.asarray([m != TRAINING_MESSAGE for m in messages])
        at = rows[finite]
        got = table_rows(table, table.slot[at])
        with np.errstate(over="ignore", invalid="ignore"):  # a finite row's noise can still overflow
            for not_finite in np.flatnonzero(~finite):
                with pytest.raises(NumericError):
                    batched_train_logits(params, table.feats[rows[not_finite]][None, :], 0.8)
            oracle = full_block_rows(params, infer, 0.8, *(col[finite] for col in every))
        for g, want in zip(got, oracle):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def test_rows_reject_unregistered_prompts_and_out_of_range_windows() -> None:
    table = ContextTable([100], 8, 4, infer_engine(0.1, 7), 1.0)
    with pytest.raises(ValueError, match="prompt outside the table"):
        table.rows([101], [-1], [-1])
    for prev, last in [(-2, 0), (0, 4), (4, 0), (0, -2)]:
        with pytest.raises(ValueError):
            table.rows([100], [prev], [last])


def test_prompt_row_is_the_empty_window_row() -> None:
    table = ContextTable([9, 7, -3, 7], 8, 5, infer_engine(0.1, 7), 1.0)
    for pid in (9, 7, -3):
        assert table.prompt_row(pid) == int(table.rows([pid], [-1], [-1])[0])


def test_advance_moves_the_window() -> None:
    table = ContextTable([7, 9], 8, 5, infer_engine(0.1, 7), 1.0)
    rows = table.rows([7, 9, 9], [-1, -1, 2], [-1, 3, 4])
    assert table.advance(rows, np.asarray([0, 4, 1])).tolist() == table.rows([7, 9, 9], [-1, 3, 4], [0, 4, 1]).tolist()

    # Every row x token of the shipped table, against the window arithmetic of its layout: a block of
    # side^2 rows per prompt, in the order given, and in a block the row of (prev, last) at
    # (prev + 1) * side + (last + 1).
    universe = all_prompt_ids(Vocabulary(size=8))
    assert universe == [100, 101, *range(200, 208), *range(300, 312)]
    table = ContextTable(universe, 16, 8, infer_engine(0.2, 7), 1.0)
    side = 9
    rows = np.repeat(np.arange(table.feats.shape[0]), 8)
    tokens = np.tile(np.arange(8), table.feats.shape[0])
    prompts = np.asarray(universe)[rows // side**2]
    prev, last = rows % side**2 // side - 1, rows % side - 1
    assert rows.size == 1782 * 8
    assert table.rows(prompts, prev, last).tolist() == rows.tolist()
    want = rows // side**2 * side**2 + (last + 1) * side + tokens + 1
    assert table.advance(rows, tokens).tolist() == want.tolist() == table.rows(prompts, last, tokens).tolist()


def test_advance_holds_one_row_sized_array() -> None:
    """advance on 4,096 rows, after a warm-up call: its traced peak above its start stays below 1.5 int64
    arrays of the rows' size (1.0), as the tokens are added in place to the gathered successor rows. A
    gather and a sum of their own peak at 2.0."""
    table = ContextTable(all_prompt_ids(Vocabulary(size=8)), 16, 8, infer_engine(0.2, 7), 1.0)
    rng = np.random.default_rng(1)
    rows, tokens = rng.integers(0, table.feats.shape[0], 4096), rng.integers(0, 8, 4096)
    table.advance(rows, tokens)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table.advance(rows, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1.5 * rows.nbytes, f"peak {(peak - start) / rows.nbytes:.2f} arrays"


def test_a_check_of_a_clean_block_holds_only_the_slots_it_returns() -> None:
    """check on 8,192 reads of a clean 1,022-row block (14 prompts' readable windows at V = 8), after a warm-up
    call: its traced peak above its start stays below 1.5 intp arrays of the reads (1.0, the slots it returns),
    as a clean pass keeps no non-finite counts to gather. A gather of a count per slot peaks at 2.0."""
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=512, init_scale=0.3, seed=3)
    table = ContextTable(all_prompt_ids(vocab), params.n_features, vocab.size, infer_engine(0.22, 7), 1.0)
    rows = table.readable_rows([(p, -1) for p in all_prompt_ids(vocab)[:14]])
    assert rows.size == 1022
    table.load(params, rows)
    reads = np.random.default_rng(2).choice(rows, 8192)
    table.check(reads)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        slots = table.check(reads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slots.tolist() == table.slot[reads].tolist()
    assert peak - start < 1.5 * reads.nbytes, f"peak {(peak - start) / reads.nbytes:.2f} arrays"


def reachable_rows(table: ContextTable, prompt_id: int, end_token: int) -> set[int]:
    """The rows reachable from the prompt's empty window through advance, never sampling end_token."""
    tokens = np.asarray([t for t in range(table.vocab_size) if t != end_token])
    reached, frontier = set(), {table.prompt_row(prompt_id)}
    while frontier:
        reached |= frontier
        rows = np.repeat(sorted(frontier), tokens.size)
        frontier = set(table.advance(rows, np.tile(tokens, rows.size // tokens.size)).tolist()) - reached
    return reached


@settings(max_examples=40, deadline=None)
@given(vocab_size=st.integers(2, 12), eos_ends=st.booleans(), data=st.data())
def test_readable_rows_are_the_windows_a_rollout_reaches(vocab_size: int, eos_ends: bool, data) -> None:
    """A prompt's readable rows are the windows reachable from (-1, -1) without sampling its end token (EOS, or
    none: -1), each once; a pair of prompts gives each prompt's rows, in the order given."""
    eos = data.draw(st.integers(0, vocab_size - 1))
    end = eos if eos_ends else -1
    table = ContextTable([300, 100, 205], 4, vocab_size, infer_engine(0.1, 7), 1.0)
    prompt = data.draw(st.sampled_from([300, 100, 205]))
    readable = table.readable_rows({(prompt, end): None}).tolist()
    assert readable == sorted(set(readable))
    assert set(readable) == reachable_rows(table, prompt, end)
    assert len(readable) == 1 + (vocab_size - (end >= 0)) * (vocab_size + 1 - (end >= 0))
    both = table.readable_rows([(205, end), (100, -1)]).tolist()
    assert both == table.readable_rows([(205, end)]).tolist() + table.readable_rows([(100, -1)]).tolist()
    assert table.readable_rows([]).size == 0


def trained_state(seed: int, scale: float, temperature: float = 1.0):
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=40, init_scale=0.7, seed=seed)
    state = SchedulerState(vocab=vocab, source=SyntheticPromptSource(vocab, max_len=6), seed=seed, n_features=40,
                           infer=infer_engine(scale, 7), temperature=temperature)
    budget = BudgetConfig(token_budget=40, infer_capacity=8, prompts_per_iteration=3)
    return vocab, params, state, budget


@pytest.mark.parametrize("scale,temperature", [(0.0, 1.0), (0.2, 1.0), (0.2, 0.6)])
def test_objective_and_measure_through_the_table_match_the_direct_path(scale: float, temperature: float) -> None:
    vocab, params, state, budget = trained_state(4, scale, temperature)
    cfg = ObjectiveConfig(group_size=2)
    _, groups = run_iteration(state, params, budget, cfg)
    assert groups
    tabled = objective_and_grad(groups, params, cfg, state.table)
    value, grad, per_token = reference_objective(groups, params, cfg, temperature)
    kept = per_token["kept"]
    direct = {
        "objective_value": value, "clipped_fraction": int((~kept).sum()) / kept.size,
        "token_count": kept.size, "mean_logp": float(per_token["logp"].mean()), "entropy_all": float(per_token["entropy"].mean()),
        "grad_norm": float(np.linalg.norm(grad)),
    }
    for field, expected in direct.items():
        assert getattr(tabled, field) == expected
    for field, key in (("grad", None), ("per_token_mask_kept", "kept"), ("per_token_surrogate", "surrogate"),
                       ("per_token_calibration", "calib"), ("per_token_entropy", "entropy")):
        assert getattr(tabled, field).tobytes() == (grad if key is None else per_token[key]).tobytes()

    probes = make_probes(64, vocab, 4)
    windows = probe_windows(probes)
    direct_sample = measure(params, probes, state.table.infer, temperature)
    table_sample = measure(params, probes, state.table.infer, temperature, table=state.table,
                           rows=state.table.rows(*windows))
    assert (table_sample.delta, table_sample.max_token_gap) == (direct_sample.delta, direct_sample.max_token_gap)


def visitable_feature_rows(vocab_size: int, n_features: int, infer) -> set[int]:
    """Non-bias feature rows of every window a rollout or probe can reach, over all task prompts."""
    prompt_ids = all_prompt_ids(Vocabulary(size=vocab_size))
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

    state = SchedulerState(vocab=vocab, source=SyntheticPromptSource(vocab, max_len=6), seed=3, n_features=n_features, infer=infer)
    budget = BudgetConfig(token_budget=40, infer_capacity=8, prompts_per_iteration=3)
    results = []
    train_loop(3, state, params, budget, ObjectiveConfig(group_size=2, learning_rate=0.5), make_probes(32, vocab, 3),
               on_step=lambda *step: results.append(step))
    assert len(results) == 3
    # The row was never read, so it did not fail the run; checked now, it raises.
    with pytest.raises(NumericError) as checked:
        state.table.check(state.table.rows([100], [prev], [-1]))
    assert str(checked.value) == TRAINING_MESSAGE


def overflowing(params: PolicyParams) -> PolicyParams:
    """The same params with every context's first logit overflowing."""
    weights = params.weights.copy()
    weights[:, 0] = 1e308
    return PolicyParams(weights, params.version_id + 1)


def direct_message(params: PolicyParams) -> str:
    with pytest.raises(NumericError) as direct:
        batched_train_logits(params, np.zeros((1, 4), dtype=np.intp), 1.0)
    return str(direct.value)


# The direct path's message for non-finite training logits.
TRAINING_MESSAGE = direct_message(PolicyParams(np.full((1, 2), 1e308)))


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
    with pytest.raises(NumericError) as objective:
        objective_and_grad(groups, bad, cfg, state.table)
    messages = [str(objective.value)]
    probes = make_probes(16, vocab, 6)
    windows = probe_windows(probes)
    with pytest.raises(NumericError) as direct:
        measure(bad, probes, state.table.infer)
    with pytest.raises(NumericError) as tabled:
        measure(bad, probes, state.table.infer, table=state.table, rows=state.table.rows(*windows))
    messages += [str(direct.value), str(tabled.value)]
    assert messages == [direct_message(bad)] * 3


def test_check_raises_on_rows_whose_inference_logits_overflow() -> None:
    """Large but finite training logits can overflow the inference engine's fault term."""
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=32, init_scale=0.5, seed=3)
    params.weights[:, 0] = 1e307
    table = ContextTable([100, 205, 311], params.n_features, vocab.size, infer_engine(0.22, 7), 1.0)
    table.load(params)
    # Every row's training logits are finite: the whole table raises the inference message.
    with pytest.raises(NumericError, match="inference engine"):
        table.check(np.arange(table.feats.shape[0]))
    infer_finite = np.isfinite(table.log_probs[1, table.slot]).all(axis=1)
    assert not infer_finite.all()
    with pytest.raises(NumericError, match="inference engine"):
        table.check(np.flatnonzero(~infer_finite))
    table.check(np.flatnonzero(infer_finite))


def test_train_loop_evaluates_each_version_in_one_pass_over_the_rows_it_can_read(monkeypatch) -> None:
    vocab, params, state, budget = trained_state(8, 0.2)
    passes = []
    evaluate = ContextTable._evaluate

    def recording(table, rows):
        passes.append((table.params.version_id, rows.size, table.feats.shape[0]))
        return evaluate(table, rows)

    monkeypatch.setattr(ContextTable, "_evaluate", recording)
    n_iterations = 6
    train_loop(n_iterations, state, params, budget, ObjectiveConfig(group_size=2, learning_rate=0.5), make_probes(32, vocab, 8))
    assert [version for version, _, _ in passes] == list(range(n_iterations))
    assert all(rows < table_rows for _, rows, table_rows in passes)


@settings(max_examples=60, deadline=None)
@given(vocab_size=st.integers(2, 12), max_len=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_every_prompt_the_tasks_can_draw_is_in_the_universe(vocab_size: int, max_len: int, seed: int) -> None:
    vocab = Vocabulary(size=vocab_size)
    universe = all_prompt_ids(vocab)
    assert universe == sorted(set(universe))
    stream = np.random.default_rng(seed)
    drawn = {sample_prompt(stream, vocab, max_len).prompt_id for _ in range(200)}
    probes = {probe.prompt_id for probe in make_probes(64, vocab, seed, max_len)}
    assert drawn | probes <= set(universe)


def test_load_rejects_params_of_another_shape() -> None:
    table = ContextTable([100, 101], 8, 4, infer_engine(0.1, 7), 1.0)
    with pytest.raises(ValueError, match="9 features, the table 8"):
        table.load(PolicyParams(np.zeros((9, 4))))
    with pytest.raises(ValueError, match="vocabulary 5, the table 4"):
        table.load(PolicyParams(np.zeros((8, 5))))
    table.load(PolicyParams(np.zeros((8, 4))))


def run_fixed_half(table: ContextTable) -> tuple:
    """The table's arrays of one entry per row, built once: feature rows, fixed noise, successor bases, slot map."""
    return table.feats, *table.fixed, table._after, table.slot


def test_a_run_never_changes_the_table_shape() -> None:
    """The state's table holds every task prompt from construction; a run reads it without adding a row: its
    run-fixed half keeps its arrays, one entry per row."""
    vocab, params, state, budget = trained_state(10, 0.2)
    fixed = run_fixed_half(state.table)
    assert {a.shape[0] for a in fixed} == {len(all_prompt_ids(vocab)) * (vocab.size + 1) ** 2}
    train_loop(4, state, params, budget, ObjectiveConfig(group_size=2, learning_rate=0.5), make_probes(32, vocab, 10))
    assert all(now is before for now, before in zip(run_fixed_half(state.table), fixed))


def test_the_block_holds_the_rows_of_the_last_versions_pass(monkeypatch) -> None:
    """After a run, the per-version block holds the rows of the last version's pass, in row order, and no other;
    no per-version array has an entry per table row and token."""
    vocab, params, state, budget = trained_state(9, 0.2)
    passes = []
    evaluate = ContextTable._evaluate

    def recording(table, rows):
        passes.append(rows.copy())
        return evaluate(table, rows)

    monkeypatch.setattr(ContextTable, "_evaluate", recording)
    train_loop(5, state, params, budget, ObjectiveConfig(group_size=2, learning_rate=0.5), make_probes(32, vocab, 9))
    table, last = state.table, passes[-1]
    assert len(passes) == 5
    assert table.log_probs.shape[1] == table.probs.shape[1] == table.cdf.shape[1] == last.size
    assert table._bad is None  # a clean pass keeps no non-finite counts
    assert table.slot[last].tolist() == list(range(last.size))
    assert np.count_nonzero(table.slot >= 0) == last.size < table.feats.shape[0]


@settings(max_examples=40, deadline=None)
@given(vocab_size=st.integers(2, 9), scale=st.sampled_from([0.0, 0.22, 1.5]), overflow=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_check_after_a_load_holds_what_one_pass_over_both_holds(vocab_size, scale, overflow, seed) -> None:
    """load(params, a), then check(b), holds bit for bit what load(params, a | b) holds: one block of the rows of
    a | b in row order, and no other, also when the check raises."""
    rng = np.random.default_rng(seed)
    tables = [ContextTable([100, 205], 16, vocab_size, infer_engine(scale, 7), 0.8) for _ in range(2)]
    weights = rng.normal(size=(16, vocab_size)) * 10.0 ** rng.uniform(-2, 2)
    if overflow:
        weights[rng.integers(0, 16, 2)] = 1e308
    params = PolicyParams(weights, 3)
    n_rows = tables[0].feats.shape[0]
    a, b = (np.flatnonzero(rng.random(n_rows) < rng.uniform()) for _ in range(2))
    both = np.union1d(a, b)
    tables[0].load(params, a)
    try:
        tables[0].check(b)
    except NumericError:
        assert overflow
    tables[1].load(params, both)
    for table in tables:
        assert np.flatnonzero(table.slot >= 0).tolist() == both.tolist()
        assert table.slot[np.flatnonzero(table.slot >= 0)].tolist() == list(range(table.cdf.shape[1]))
    # Each block holds the rows of a | b in row order, so its non-finite counts, if any, are those rows'.
    got, want = ((*table_rows(table, table.slot[both]), table._bad) for table in tables)
    for g, w in zip(got, want):
        assert g is w is None or g.tobytes() == w.tobytes()


def test_a_pass_holds_few_temporaries_beside_the_block_it_writes(monkeypatch) -> None:
    """A table pass over 1,022 rows (14 prompts' readable windows at V = 8): its traced peak above its entry,
    less the block it leaves allocated, stays below 6.2 (rows, V) float64 arrays.

    The block is 4.875 such arrays: both engines' log-probs and probs,
    and V - 1 CDF entries per row; a clean pass keeps no non-finite
    counts, and checks the logits by their min and max, which allocate
    nothing, before one softmax over both engines. Beside it the pass holds
    the fixed noise of its rows, its flat fault indices and its keys
    (about 2.8 arrays) and the per-version normals' working set: the
    hashed key grid, into which the keys are copied so that the add
    buffers no broadcast key operand, and the hash's scratch (about 2.2):
    5.06. Adding into a broadcast sum, and hashing into a new array, the
    working set held 3.4 (5.9 in all). Writing the training and inference
    logits where the log-probs go, and the softmax in place over both,
    leaves no (rows, V) logits or softmax output of its own; with them,
    and the per-version normals beside the inference logits, the pass
    peaked at 10.95 arrays.
    """
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=512, init_scale=0.3, seed=3)
    table = ContextTable(all_prompt_ids(vocab), params.n_features, vocab.size, infer_engine(0.22, 7), 1.0)
    rows = table.readable_rows([(p, -1) for p in all_prompt_ids(vocab)[:14]])
    assert rows.size == 1022
    table.load(params, rows)
    evaluate, held = ContextTable._evaluate, []

    def traced(table, rows):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate(table, rows)
        end, peak = tracemalloc.get_traced_memory()
        held.append((peak - start, end - start))

    monkeypatch.setattr(ContextTable, "_evaluate", traced)
    tracemalloc.start()
    try:
        table.load(PolicyParams(params.weights, 1), rows)
    finally:
        tracemalloc.stop()
    array = rows.size * vocab.size * 8
    (peak, kept), = held
    assert peak - kept < 6.2 * array, f"peak {peak / array:.2f}, kept {kept / array:.2f} arrays"
