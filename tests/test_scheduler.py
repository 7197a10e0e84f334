"""Budget-partitioned rollout scheduler: traces, invariants, conservation."""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from mismatchlab import (
    Algo,
    BudgetConfig,
    ObjectiveConfig,
    PolicyParams,
    ScriptedPromptSource,
    SyntheticPromptSource,
    TaskSpec,
    Vocabulary,
    infer_engine,
    init_params,
    make_probes,
    make_state,
    run_iteration,
    run_iteration_baseline,
    train_loop,
)
from mismatchlab.errors import TickCapError
from mismatchlab import objective, scheduler
from mismatchlab.scheduler import _BLOCK_DRAWS, RolloutUniforms, pcg64_block, seed_sequence_states
from mismatchlab.tasks import TaskKind

FIXTURE_LENGTHS = [2, 2, 3, 3, 5, 5, 9, 17]


def scripted_state(lengths: list[int], seed: int = 99):
    vocab = Vocabulary(size=8)
    task = TaskSpec(TaskKind.PARITY_MATCH, 900, 0, max(lengths) + 1)
    source = ScriptedPromptSource([(task, list(lengths))])
    return make_state(seed, vocab, infer_engine(0.0, 7), source)


def waiting_to_train(state) -> list:
    """The training pool: the terminal members of live groups."""
    return [m for members in state.groups.values() for m in members if m.terminal]


def live_uids(state) -> set[int]:
    return {m.uid for members in state.groups.values() for m in members}


def in_flight_uids(state) -> set[int]:
    return {r.uid for pool in (state.infer_pool, state.pending, waiting_to_train(state)) for r in pool}


@contextlib.contextmanager
def uid_audit():
    """Record the uids a run purges and trains, read off the scheduler's purge and close.

    Purged uids are the members that each _purge_boundary call takes out
    of the live groups, which must match the count it reports; trained
    uids are the members of the groups each _close_iteration emits.
    Spawned uids are range(state.next_uid).
    """
    audit = SimpleNamespace(purged=set(), trained=set())
    purge, close = scheduler._purge_boundary, scheduler._close_iteration

    def recording_purge(state, cfg):
        before = live_uids(state)
        count = purge(state, cfg)
        gone = before - live_uids(state)
        assert count == len(gone)
        audit.purged |= gone
        return count

    def recording_close(*args, **kwargs):
        report, groups = close(*args, **kwargs)
        audit.trained |= {r.uid for group in groups for r in group.rollouts}
        return report, groups

    scheduler._purge_boundary, scheduler._close_iteration = recording_purge, recording_close
    try:
        yield audit
    finally:
        scheduler._purge_boundary, scheduler._close_iteration = purge, close


def default_params(seed: int = 0, vocab_size: int = 8) -> PolicyParams:
    return init_params(Vocabulary(size=vocab_size), n_features=32, init_scale=0.3, seed=seed)


# Hand-simulated oracle for lengths {2,2,3,3,5,5,9,17}, capacity 8, budget 20:
# tick-by-tick (active rollouts, completions, counter after the tick).
FIXTURE_TRACE_ITER1 = [
    (1, 8, 0, 0),
    (2, 8, 2, 4),
    (3, 6, 2, 10),
    (4, 4, 0, 10),
    (5, 4, 2, 20),
]
FIXTURE_TRACE_ITER2 = [
    (6, 2, 0, 0),
    (7, 2, 0, 0),
    (8, 2, 0, 0),
    (9, 2, 1, 9),
    (10, 1, 0, 9),
    (11, 1, 0, 9),
    (12, 1, 0, 9),
    (13, 1, 0, 9),
    (14, 1, 0, 9),
    (15, 1, 0, 9),
    (16, 1, 0, 9),
    (17, 1, 1, 26),
]


def test_fixture_trace_matches_hand_simulation() -> None:
    state = scripted_state(FIXTURE_LENGTHS)
    params = default_params()
    budget = BudgetConfig(token_budget=20, infer_capacity=8, retention_threshold=100, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=8)

    trace1: list[dict] = []
    report1, groups1 = run_iteration(state, params, budget, cfg, trace=trace1)
    assert [(r["tick"], r["active"], r["completed"], r["counter"]) for r in trace1] == FIXTURE_TRACE_ITER1
    assert report1.rollout_ticks == 5
    assert report1.trained_tokens == 20
    assert report1.completed_rollouts == 6
    assert report1.resumed_rollouts == 0
    assert report1.purged_rollouts == 0
    assert report1.emitted_groups == 0 and groups1 == []

    params2 = PolicyParams(params.weights, version_id=1)
    trace2: list[dict] = []
    report2, groups2 = run_iteration(state, params2, budget, cfg, trace=trace2)
    assert [(r["tick"], r["active"], r["completed"], r["counter"]) for r in trace2] == FIXTURE_TRACE_ITER2
    assert report2.rollout_ticks == 12
    assert report2.trained_tokens == 26
    assert report2.resumed_rollouts == 2
    assert report2.emitted_groups == 1
    assert report2.emitted_tokens == sum(FIXTURE_LENGTHS)
    assert report2.stale_token_fraction == pytest.approx(30 / 46)
    assert sorted(r.length for r in groups2[0].rollouts) == sorted(FIXTURE_LENGTHS)


def test_smallest_instance_single_token_rollout() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=1)
    state = make_state(5, vocab, infer_engine(0.0, 7), source)
    budget = BudgetConfig(token_budget=1, infer_capacity=1, prompts_per_iteration=1)
    report, _ = run_iteration(state, default_params(), budget, ObjectiveConfig(group_size=8))
    assert report.rollout_ticks == 1
    assert report.trained_tokens == 1
    assert report.completed_rollouts == 1


def test_zero_retention_purges_every_carryover() -> None:
    lengths = [1, 1, 1, 1, 6, 6, 6, 6]
    state = scripted_state(lengths)
    budget = BudgetConfig(token_budget=4, infer_capacity=8, retention_threshold=0, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=8)
    params = default_params()
    for it in range(4):
        report, _ = run_iteration(state, params, budget, cfg)
        assert report.resumed_rollouts == 0
        params = PolicyParams(params.weights, version_id=params.version_id + 1)


def test_purge_abandons_whole_group() -> None:
    # sibling lengths 1 and 100: the long one outlives retention and takes
    # its completed sibling with it (conservation over training/purging)
    state = scripted_state([1, 100])
    budget = BudgetConfig(token_budget=1, infer_capacity=2, retention_threshold=0, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=2)
    params = default_params()
    with uid_audit() as audit:
        report1, groups1 = run_iteration(state, params, budget, cfg)
        assert report1.completed_rollouts == 1 and not groups1
        report2, groups2 = run_iteration(state, params, budget, cfg)
    assert report2.purged_rollouts == 2
    assert not groups2
    assert audit.purged == {0, 1}
    assert not waiting_to_train(state)


def test_baseline_fixture_runs_single_wave() -> None:
    state = scripted_state(FIXTURE_LENGTHS)
    budget = BudgetConfig(token_budget=20, infer_capacity=8, prompts_per_iteration=1)
    report, groups = run_iteration_baseline(state, default_params(), budget, ObjectiveConfig(group_size=8))
    assert report.rollout_ticks == 17
    assert report.completed_rollouts == 8
    assert report.emitted_groups == 1
    assert report.trained_tokens == sum(FIXTURE_LENGTHS)
    assert report.stale_token_fraction == 0.0


def test_baseline_waves_split_by_capacity() -> None:
    state = scripted_state([4, 4, 6, 6])
    budget = BudgetConfig(token_budget=10, infer_capacity=2, prompts_per_iteration=1)
    report, _ = run_iteration_baseline(state, default_params(), budget, ObjectiveConfig(group_size=4))
    # wave 1 max(4,4)=4 ticks, wave 2 max(6,6)=6 ticks
    assert report.rollout_ticks == 10


def test_uniform_lengths_remove_the_scheduling_advantage() -> None:
    lengths = [5] * 8
    budget = BudgetConfig(token_budget=40, infer_capacity=8, retention_threshold=10**6, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=8)
    s1 = scripted_state(lengths)
    partitioned, _ = run_iteration(s1, default_params(), budget, cfg)
    s2 = scripted_state(lengths)
    baseline, _ = run_iteration_baseline(s2, default_params(), budget, cfg)
    assert partitioned.rollout_ticks == baseline.rollout_ticks == 5


def test_baseline_empty_prompt_set_fails() -> None:
    state = scripted_state([2, 2])
    state.source.cursor = 1  # exhausted
    budget = BudgetConfig(token_budget=4, infer_capacity=4, prompts_per_iteration=1)
    with pytest.raises(ValueError):
        run_iteration_baseline(state, default_params(), budget, ObjectiveConfig(group_size=2))


def test_unreachable_budget_hits_tick_cap() -> None:
    state = scripted_state([3, 10**6])
    budget = BudgetConfig(token_budget=10**5, infer_capacity=2, prompts_per_iteration=1, tick_cap=50)
    with pytest.raises(TickCapError):
        run_iteration(state, default_params(), budget, ObjectiveConfig(group_size=2))


def test_train_loop_zero_iterations_is_identity() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=4)
    state = make_state(3, vocab, infer_engine(0.1, 7), source)
    params = default_params()
    results, final = train_loop(
        0, state, params, BudgetConfig(token_budget=10, infer_capacity=4), ObjectiveConfig(group_size=2, learning_rate=1.0),
        make_probes(256, vocab, 3),
    )
    assert results == []
    assert final is params


def test_train_loop_smoke_thirty_iterations() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=8)
    state = make_state(1234, vocab, infer_engine(0.22, 7), source)
    params = init_params(vocab, n_features=512, init_scale=0.3, seed=1234)
    budget = BudgetConfig(token_budget=440, infer_capacity=48, retention_threshold=3, sync_cost_ticks=8)
    results, final = train_loop(
        30, state, params, budget, ObjectiveConfig(group_size=8, learning_rate=24.0), make_probes(256, vocab, 1234)
    )
    assert len(results) == 30
    assert final.version_id > 0
    for report, loss, sample in results:
        assert sample.delta >= 0.0
        assert 0.0 <= report.stale_token_fraction <= 1.0
        assert np.isfinite(loss.objective_value)


def test_partitioned_and_baseline_match_on_shared_seed_without_budget_pressure() -> None:
    # zero mismatch, effectively infinite budget and retention: identical
    # reward trajectories and final parameters
    def build(seed: int):
        vocab = Vocabulary(size=8)
        source = SyntheticPromptSource(vocab, max_len=6)
        state = make_state(seed, vocab, infer_engine(0.0, 7), source)
        params = init_params(vocab, n_features=64, init_scale=0.4, seed=seed)
        budget = BudgetConfig(
            token_budget=10**9,
            infer_capacity=256,
            retention_threshold=10**6,
            prompts_per_iteration=6,
            tick_cap=10**6,
        )
        return state, params, budget

    cfg = ObjectiveConfig(group_size=4, learning_rate=5.0)
    probes = make_probes(256, Vocabulary(size=8), 42)
    state_a, params_a, budget = build(42)
    res_a, fin_a = train_loop(5, state_a, params_a, budget, cfg, probes)
    state_b, params_b, _ = build(42)
    res_b, fin_b = train_loop(5, state_b, params_b, budget, cfg, probes, baseline=True)
    rewards_a = [r[0].reward_mean for r in res_a]
    rewards_b = [r[0].reward_mean for r in res_b]
    assert rewards_a == rewards_b
    assert np.array_equal(fin_a.weights, fin_b.weights)


def test_train_loop_replay_is_bit_identical() -> None:
    def run_once():
        vocab = Vocabulary(size=8)
        source = SyntheticPromptSource(vocab, max_len=8)
        state = make_state(7, vocab, infer_engine(0.22, 7), source)
        params = init_params(vocab, n_features=128, init_scale=0.3, seed=7)
        budget = BudgetConfig(token_budget=200, infer_capacity=24, retention_threshold=3, sync_cost_ticks=8)
        results, final = train_loop(
            12, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=10.0), make_probes(256, vocab, 7)
        )
        return [r[2].delta for r in results], final.weights

    d1, w1 = run_once()
    d2, w2 = run_once()
    assert d1 == d2
    assert np.array_equal(w1, w2)


def _run_fuzz_case(rng: np.random.Generator) -> None:
    vocab = Vocabulary(size=int(rng.integers(4, 9)))
    group_size = int(rng.integers(2, 5))
    max_len = int(rng.integers(2, 7))
    budget = BudgetConfig(
        token_budget=int(rng.integers(1, 40)),
        infer_capacity=int(rng.integers(1, 7)),
        retention_threshold=int(rng.integers(0, 4)),
        prompts_per_iteration=int(rng.integers(1, 4)),
        tick_cap=20_000,
    )
    cfg = ObjectiveConfig(group_size=group_size)
    source = SyntheticPromptSource(vocab, max_len=max_len)
    seed = int(rng.integers(0, 10**6))
    state = make_state(seed, vocab, infer_engine(float(rng.uniform(0, 0.3)), 7), source)
    params = init_params(vocab, n_features=16, init_scale=0.4, seed=seed)

    with uid_audit() as audit:
        for iteration in range(int(rng.integers(1, 4))):
            trace: list[dict] = []
            report, groups = run_iteration(state, params, budget, cfg, trace=trace)
            # pool capacity at every tick, budget stop at the first crossing
            for i, row in enumerate(trace):
                assert row["active"] <= budget.infer_capacity
                if i < len(trace) - 1:
                    assert row["counter"] < budget.token_budget or row is trace[-1]
            for row in trace[:-1]:
                assert row["counter"] < budget.token_budget
            if trace:
                final_row = trace[-1]
                if report.trained_tokens >= budget.token_budget:
                    # overshoot bounded by the final tick's completions
                    prev = trace[-2]["counter"] if len(trace) > 1 else 0
                    assert prev < budget.token_budget
                    if final_row["completed"] == 1:
                        longest = report.trained_tokens - prev
                        assert report.trained_tokens - budget.token_budget < longest
            # version monotonicity inside rollouts, purged rollouts never regenerate
            for group in groups:
                for rollout in group.rollouts:
                    assert rollout.versions == sorted(rollout.versions)
            params = PolicyParams(params.weights, version_id=params.version_id + 1)

    # conservation: every spawned rollout is trained, purged, or still in flight
    in_flight = in_flight_uids(state)
    accounted = audit.trained | audit.purged | in_flight
    assert accounted == set(range(state.next_uid))
    assert not (audit.trained & audit.purged)


def test_randomized_scheduler_fuzz() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(200):
        _run_fuzz_case(rng)


@settings(max_examples=60, deadline=None)
@given(
    token_budget=st.integers(1, 60),
    infer_capacity=st.integers(1, 12),
    retention_threshold=st.integers(0, 3),
    prompts_per_iteration=st.integers(1, 4),
    group_size=st.integers(2, 5),
    max_len=st.integers(1, 9),
    lognormal=st.booleans(),
    iterations=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_stays_within_capacity_and_only_complete_groups_are_emitted(
    token_budget, infer_capacity, retention_threshold, prompts_per_iteration, group_size, max_len, lognormal, iterations, seed
) -> None:
    vocab = Vocabulary(size=6)
    model = "lognormal" if lognormal else "policy"
    source = SyntheticPromptSource(vocab, max_len=max_len, length_model=model, median=3.0, sigma=1.0)
    state = make_state(seed, vocab, infer_engine(0.2, 7), source)
    params = init_params(vocab, n_features=16, init_scale=0.4, seed=seed)
    budget = BudgetConfig(
        token_budget=token_budget,
        infer_capacity=infer_capacity,
        retention_threshold=retention_threshold,
        prompts_per_iteration=prompts_per_iteration,
    )
    cfg = ObjectiveConfig(group_size=group_size)
    emitted: list = []
    with uid_audit() as audit:
        for _ in range(iterations):
            trace: list[dict] = []
            _, groups = run_iteration(state, params, budget, cfg, trace=trace)
            assert all(row["active"] <= infer_capacity and row["pool_after"] <= infer_capacity for row in trace)
            emitted += groups
            params = PolicyParams(params.weights, version_id=params.version_id + 1)
    in_flight = in_flight_uids(state)
    for group in emitted:
        uids = {r.uid for r in group.rollouts}
        assert len(group.rollouts) == len(uids) == group_size
        assert len({r.group_uid for r in group.rollouts}) == 1
        assert all(r.terminal for r in group.rollouts)
        assert not uids & audit.purged and not uids & in_flight
        for r in group.rollouts:
            # The end rule: a drawn target length is generated exactly; without
            # one, the rollout stops at its first EOS or at the task's max_len.
            if lognormal:
                assert r.target_len is not None and r.length == r.target_len
            else:
                assert r.target_len is None and vocab.eos_id not in r.tokens[:-1]
                assert r.tokens[-1] == vocab.eos_id or r.length == max_len
                assert r.length <= max_len


def test_lognormal_lengths_stay_in_range_for_any_valid_sigma() -> None:
    # sigma 800 draws lengths of 0 and inf; each is clamped into [1, max_len].
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=16, length_model="lognormal", median=32.0, sigma=800.0)
    stream = np.random.default_rng(5)
    lengths = [n for _ in range(200) for n in source.next_prompt(stream, 8)[1]]
    assert all(type(n) is int and 1 <= n <= 16 for n in lengths)
    assert {1, 16} <= set(lengths)


def test_budget_config_invariants() -> None:
    with pytest.raises(ValueError):
        BudgetConfig(token_budget=0, infer_capacity=1)
    with pytest.raises(ValueError):
        BudgetConfig(token_budget=1, infer_capacity=0)
    with pytest.raises(ValueError):
        BudgetConfig(token_budget=1, infer_capacity=1, retention_threshold=-1)


def test_group_slots_hold_only_live_groups_after_a_run() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=64, length_model="lognormal", median=6.0, sigma=1.0)
    state = make_state(5, vocab, infer_engine(0.2, 7), source)
    params = init_params(vocab, n_features=64, init_scale=0.3, seed=5)
    budget = BudgetConfig(token_budget=60, infer_capacity=12, retention_threshold=1, prompts_per_iteration=4)
    with uid_audit() as audit:
        train_loop(12, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=1.0), make_probes(256, vocab, 5))

    in_flight = in_flight_uids(state)
    assert audit.trained and audit.purged and in_flight
    assert live_uids(state) == in_flight
    assert not any(r.terminal for pool in (state.infer_pool, state.pending) for r in pool)
    assert list(state.groups) == sorted(state.groups)
    assert audit.trained | audit.purged | in_flight == set(range(state.next_uid))
    assert not (audit.trained & audit.purged)
    assert not (audit.trained & in_flight)
    assert not (audit.purged & in_flight)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -1, 0, 2**32 - 1, 2**32, 2**63 - 1])),
    uid=st.one_of(
        st.integers(0, 2**70),
        st.sampled_from([0, 1, 4095, 4096, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    ),
    count=st.sampled_from([1, _BLOCK_DRAWS - 1, _BLOCK_DRAWS, _BLOCK_DRAWS + 1, 512]),
)
def test_rollout_stream_is_the_tuple_seeded_stream(seed: int, uid: int, count: int) -> None:
    want = np.random.default_rng(np.random.SeedSequence((seed & (2**64 - 1), 2, uid)))
    got = RolloutUniforms(seed).draw(uid, count)
    assert got.tobytes() == want.random(count).tobytes()


def test_rollout_uniforms_across_block_edges_in_issue_order() -> None:
    source = RolloutUniforms(-5)
    for uid in [*range(4090, 4100), *range(2**32 - 3, 2**32 + 3), 2**40, 5]:
        want = np.random.default_rng(np.random.SeedSequence((-5 & (2**64 - 1), 2, uid)))
        assert source.draw(uid, 3).tobytes() == want.random(3).tobytes()


class _FixedWords(ISeedSequence):
    """Hands PCG64 the given seed words, so that numpy's own seeding runs on them."""

    def __init__(self, words) -> None:
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words.copy()


WORD = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**32 - 1, 2**63, 2**64 - 2, 2**64 - 1]))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(WORD, WORD, WORD, WORD), min_size=1, max_size=6), count=st.integers(1, 12), extra=st.integers(1, 5))
@example(rows=[(2**64 - 1,) * 4, (0,) * 4, (2**64 - 1, 0, 2**64 - 1, 0)], count=_BLOCK_DRAWS, extra=3)
def test_pcg64_block_matches_numpy_pcg64(rows, count: int, extra: int) -> None:
    """First draws against numpy's seeding; the end states continue the stream through the state setter."""
    uniforms, ends = pcg64_block(np.array(rows, dtype=np.uint64), count)
    assert uniforms.shape == (len(rows), count) and ends.dtype == np.uint64
    bitgen = np.random.PCG64()
    for words, drawn, (hi, lo, inc_hi, inc_lo) in zip(rows, uniforms, ends.tolist()):
        want = np.random.Generator(np.random.PCG64(_FixedWords(words)))
        assert drawn.tobytes() == want.random(count).tobytes()
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (hi << 64) | lo, "inc": (inc_hi << 64) | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        assert np.random.Generator(bitgen).random(extra).tobytes() == want.random(extra).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_words=st.integers(1, 8), n_rows=st.integers(1, 6))
def test_seed_sequence_states_match_numpy(data, n_words: int, n_rows: int) -> None:
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=n_words, max_size=n_words), min_size=n_rows, max_size=n_rows,
    ))
    entropy = np.array(rows, dtype=np.uint32)
    got = seed_sequence_states(entropy)
    assert got.dtype == np.uint64 and got.shape == (n_rows, 4)
    for words, state in zip(entropy, got):
        assert state.tobytes() == np.random.SeedSequence(words).generate_state(4, np.uint64).tobytes()


class _ScalarStream:
    """A rollout's own tuple-seeded generator, one scalar draw per token, read in token order."""

    def __init__(self, seed: int, uid: int) -> None:
        self.stream = np.random.default_rng(np.random.SeedSequence((seed & (2**64 - 1), 2, uid)))
        self.drawn = 0

    def __getitem__(self, token_index: int) -> float:
        assert token_index == self.drawn, "each token reads the next uniform, once"
        self.drawn += 1
        return self.stream.random()


def _stream_oracle(self: RolloutUniforms, uid: int, count: int) -> _ScalarStream:
    return _ScalarStream(self.seed, uid)


def _trained_rollouts(monkeypatch, length_model: str, first_uid: int) -> list:
    seen = []

    def recording(groups, *args):
        seen.extend((r.uid, tuple(r.tokens), r.lp_infer, r.lp_train, r.versions) for g in groups for r in g.rollouts)
        return objective.objective_and_grad(groups, *args)

    monkeypatch.setattr(scheduler, "objective_and_grad", recording)
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=24, length_model=length_model, median=5.0, sigma=1.0)
    state = make_state(17, vocab, infer_engine(0.2, 7), source)
    state.next_uid = first_uid
    params = init_params(vocab, n_features=64, init_scale=0.3, seed=17)
    budget = BudgetConfig(token_budget=50, infer_capacity=10, retention_threshold=2, prompts_per_iteration=3)
    train_loop(6, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=2.0), make_probes(256, vocab, 17))
    return seen


@pytest.mark.parametrize("length_model", ["policy", "lognormal"])
@pytest.mark.parametrize("first_uid", [0, 4090, 2**32 - 6])
def test_train_loop_samples_each_rollout_from_its_own_stream(monkeypatch, length_model: str, first_uid: int) -> None:
    bulk = _trained_rollouts(monkeypatch, length_model, first_uid)
    with monkeypatch.context() as m:
        m.setattr(RolloutUniforms, "draw", _stream_oracle)
        oracle = _trained_rollouts(m, length_model, first_uid)
    assert bulk and bulk == oracle
    assert any(len(set(versions)) > 1 for *_, versions in bulk)


def test_train_loop_results_keep_grad_norm_but_not_grad() -> None:
    vocab = Vocabulary(size=8)
    state = make_state(11, vocab, infer_engine(0.2, 7), SyntheticPromptSource(vocab, max_len=6))
    params = init_params(vocab, n_features=64, init_scale=0.3, seed=11)
    budget = BudgetConfig(token_budget=60, infer_capacity=12, prompts_per_iteration=4)
    seen = []
    results, _ = train_loop(
        4, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=1.0), make_probes(256, vocab, 11),
        on_step=lambda report, loss, sample: seen.append(float(np.linalg.norm(loss.grad))),
    )
    assert any(seen)
    assert [loss.grad_norm for _, loss, _ in results] == seen
    assert all(loss.grad is None for _, loss, _ in results)
