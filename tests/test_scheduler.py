"""Budget-partitioned rollout scheduler: traces, invariants, conservation."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from mismatchlab import (
    BudgetConfig,
    ObjectiveConfig,
    PolicyParams,
    SchedulerState,
    SyntheticPromptSource,
    TaskSpec,
    Vocabulary,
    infer_engine,
    init_params,
    make_probes,
    run_iteration,
    run_iteration_baseline,
    train_loop,
)
from mismatchlab.errors import NumericError, TickCapError
from mismatchlab import objective, scheduler
from mismatchlab.scheduler import (
    JUMPS,
    _END_TOKEN,
    _GROUP,
    _KIND,
    _LENGTH,
    _LIMIT,
    _MAX_LEN,
    _PROMPT,
    _ROW,
    _START,
    _TARGET,
    _TERMINAL,
    _UID,
    RolloutUniforms,
    pcg64_uniforms,
    seed_sequence_states,
)
from mismatchlab.policy import _NON_FINITE_INFER_LOGITS, _NON_FINITE_LOGITS, ContextTable
from mismatchlab.tasks import TaskKind, sample_prompt
from oracles import ScriptedPromptSource, UidStreams, _rollout_loop, oracle_state, shifted_rows

FIXTURE_LENGTHS = [2, 2, 3, 3, 5, 5, 9, 17]


def scripted_state(lengths: list[int], seed: int = 99):
    vocab = Vocabulary(size=8)
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, max(lengths) + 1)
    source = ScriptedPromptSource([(task, list(lengths))])
    return SchedulerState(vocab=vocab, source=source, seed=seed, n_features=32, infer=infer_engine(0.0, 7))


def uids_where(state, mask) -> set[int]:
    return set(state.rollouts[_UID][mask].tolist())


def pending_mask(state) -> np.ndarray:
    """The pending queue: the last n_pending live rollouts."""
    mask = np.zeros(state.rollouts.shape[1], dtype=bool)
    mask[state.rollouts.shape[1] - state.n_pending :] = True
    return mask


def pool_mask(state) -> np.ndarray:
    """The inference pool: the admitted live rollouts that are not terminal."""
    return ~pending_mask(state) & (state.rollouts[_TERMINAL] == 0)


def waiting_to_train(state) -> set[int]:
    """The training pool: the terminal members of live groups."""
    return uids_where(state, state.rollouts[_TERMINAL] == 1)


def live_uids(state) -> set[int]:
    return uids_where(state, slice(None))


def in_flight_uids(state) -> set[int]:
    return uids_where(state, pool_mask(state)) | uids_where(state, pending_mask(state)) | waiting_to_train(state)


def whole_pending_groups(state, group_size: int) -> list[tuple[TaskSpec, list[int | None]]]:
    """The whole groups that end the pending queue, each as the source drew it: its task and its members'
    target lengths (None without one)."""
    whole = state.rollouts[:, state.rollouts.shape[1] - state.n_pending // group_size * group_size :]
    groups = []
    for start in range(0, whole.shape[1], group_size):
        members = whole[:, start : start + group_size]
        kind, prompt_id, target, max_len = members[[_KIND, _PROMPT, _TARGET, _MAX_LEN], 0].tolist()
        targets = [limit if end == -1 else None for limit, end in members[[_LIMIT, _END_TOKEN]].T.tolist()]
        groups.append((TaskSpec(list(TaskKind)[kind], prompt_id, target, max_len), targets))
    return groups


def split(batch, name: str) -> list[list]:
    """A per-token field of an emitted batch, split into its rollouts."""
    return [part.tolist() for part in np.split(getattr(batch, name), np.cumsum(batch.lengths)[:-1])]


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
        batch = close(*args, **kwargs)
        audit.trained |= set(batch.uids.tolist())
        return batch

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


@dataclasses.dataclass
class TickClock:
    """The ticks a scheduler state has run, which tick_trace advances by each plan's ticks."""

    ticks: int = 0


@contextlib.contextmanager
def tick_trace(clock: TickClock | None = None):
    """One row per scheduler tick run inside, derived from each plan of _schedule.

    tick is the tick's number on clock, a fresh one unless given, which
    each plan then advances by its ticks, so a caller that passes one
    clock to every iteration of a state numbers its ticks from 1 through
    the run, as the oracle's clock does; active and pool_after
    are the pool sizes into and out of the tick; completed counts the
    rollouts it ended, and counter sums the lengths of the rollouts ended
    so far in the iteration. A rollout admitted at tick a with left ticks
    to generate is active for ticks a + 1 to a + left, up to the plan's
    last tick, and ends at a + left, at its limit or at an end token
    sampled ahead, with its length at the start plus left tokens.
    """
    trace: list[dict] = []
    clock = TickClock() if clock is None else clock
    schedule = scheduler._schedule

    def recording_schedule(state, cfg, pool, left, baseline):
        plan = schedule(state, cfg, pool, left, baseline)
        columns = np.flatnonzero(plan.admitted >= 0)
        joined = plan.admitted[columns]
        ends = joined + left[columns]
        total = state.rollouts[scheduler._LENGTH][columns] + left[columns]
        n, ended = plan.ticks, ends <= plan.ticks
        # The pool into tick t is bincount index t - 1 of the running sum of joins less leaves.
        active = np.cumsum(np.bincount(joined, minlength=n + 1) - np.bincount(np.minimum(ends, n), minlength=n + 1))
        completed = np.bincount(ends[ended], minlength=n + 1)
        counter = np.cumsum(np.bincount(ends[ended], weights=total[ended], minlength=n + 1).astype(np.int64))
        for t in range(1, n + 1):
            trace.append({"tick": clock.ticks + t, "active": int(active[t - 1]), "completed": int(completed[t]),
                          "counter": int(counter[t]), "pool_after": int(active[t - 1] - completed[t])})
        clock.ticks += n
        return plan

    scheduler._schedule = recording_schedule
    try:
        yield trace
    finally:
        scheduler._schedule = schedule


def test_fixture_trace_matches_hand_simulation() -> None:
    state = scripted_state(FIXTURE_LENGTHS)
    params = default_params()
    budget = BudgetConfig(token_budget=20, infer_capacity=8, retention_threshold=100, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=8)

    clock = TickClock()
    with tick_trace(clock) as trace1:
        report1, groups1 = run_iteration(state, params, budget, cfg)
    assert [(r["tick"], r["active"], r["completed"], r["counter"]) for r in trace1] == FIXTURE_TRACE_ITER1
    assert report1.rollout_ticks == 5
    assert report1.trained_tokens == 20
    assert report1.completed_rollouts == 6
    assert report1.resumed_rollouts == 0
    assert report1.purged_rollouts == 0
    assert report1.emitted_groups == 0 and len(groups1) == 0

    params2 = PolicyParams(params.weights, version_id=1)
    with tick_trace(clock) as trace2:
        report2, groups2 = run_iteration(state, params2, budget, cfg)
    assert [(r["tick"], r["active"], r["completed"], r["counter"]) for r in trace2] == FIXTURE_TRACE_ITER2
    assert report2.rollout_ticks == 12
    assert report2.trained_tokens == 26
    assert report2.resumed_rollouts == 2
    assert report2.emitted_groups == 1
    assert report2.emitted_tokens == sum(FIXTURE_LENGTHS)
    assert report2.stale_token_fraction == pytest.approx(30 / 46)
    assert len(groups2) == 1 and sorted(groups2.lengths.tolist()) == sorted(FIXTURE_LENGTHS)


def test_smallest_instance_single_token_rollout() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=1)
    state = SchedulerState(vocab=vocab, source=source, seed=5, n_features=32, infer=infer_engine(0.0, 7))
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


def test_uniform_lengths_remove_the_scheduling_advantage() -> None:
    lengths = [5] * 8
    budget = BudgetConfig(token_budget=40, infer_capacity=8, retention_threshold=10**6, prompts_per_iteration=1)
    cfg = ObjectiveConfig(group_size=8)
    s1 = scripted_state(lengths)
    partitioned, _ = run_iteration(s1, default_params(), budget, cfg)
    s2 = scripted_state(lengths)
    baseline, _ = run_iteration_baseline(s2, default_params(), budget, cfg)
    assert partitioned.rollout_ticks == baseline.rollout_ticks == 5


def test_an_exhausted_source_gives_an_empty_iteration_in_both_modes() -> None:
    budget = BudgetConfig(token_budget=4, infer_capacity=4, prompts_per_iteration=1)
    for step in (run_iteration, run_iteration_baseline):
        state = scripted_state([2, 2])
        state.source.cursor = 1  # exhausted
        clock = TickClock()
        with tick_trace(clock):
            report, groups = step(state, default_params(), budget, ObjectiveConfig(group_size=2))
        assert report.rollout_ticks == report.trained_tokens == report.completed_rollouts == 0
        assert len(groups) == 0 and report.emitted_groups == 0
        assert math.isnan(report.reward_mean)
        assert clock.ticks == 0 and state.iteration == 1


def test_prompts_drawn_for_an_iteration_that_ends_early_spawn_first_in_the_next(monkeypatch) -> None:
    """Whole pending groups keep the source's order, and each iteration tops the queue up to its prompts."""
    prompts = [(TaskSpec(TaskKind.PARITY_MATCH, 300 + k, 0, 2), [1, 1]) for k in range(12)]
    state = SchedulerState(vocab=Vocabulary(size=8), source=ScriptedPromptSource(prompts), seed=3, n_features=32,
                           infer=infer_engine(0.0, 7))
    admitted: list[tuple[int, int]] = []  # (iteration, prompt id) of each group as its first member enters the pool
    seen: set[int] = set()
    schedule = scheduler._schedule

    def recording(state, cfg, pool, left, baseline):
        plan = schedule(state, cfg, pool, left, baseline)  # its rollouts in the pool, in admission order
        for group_uid, prompt_id in state.rollouts[[_GROUP, _PROMPT]][:, plan.admitted >= 0].T.tolist():
            if group_uid not in seen:
                seen.add(group_uid)
                admitted.append((state.iteration, prompt_id))
        return plan

    monkeypatch.setattr(scheduler, "_schedule", recording)
    params = default_params()
    left_pending = []
    # A budget of 2 tokens ends an iteration after one group, of 3 after two; 100 lets the queue of 3 end it.
    for token_budget in (2, 100, 3, 100):
        budget = BudgetConfig(token_budget=token_budget, infer_capacity=2, prompts_per_iteration=3)
        run_iteration(state, params, budget, ObjectiveConfig(group_size=2))
        left_pending.append([task.prompt_id for task, _ in whole_pending_groups(state, 2)])
        params = PolicyParams(params.weights, params.version_id + 1)
    assert [p for _, p in admitted] == list(range(300, 309))
    assert [sum(1 for it, _ in admitted if it == i) for i in range(4)] == [1, 3, 2, 3]
    assert left_pending == [[301, 302], [], [306], []]
    firsts = [next(p for it, p in admitted if it == i) for i in range(4)]
    assert firsts == [300, 301, 304, 306]


def test_baseline_tick_cap_counts_the_ticks_of_the_iteration() -> None:
    # Waves of max(4, 4) = 4 and max(6, 6) = 6 ticks: each fits a cap of 8, the iteration's 10 do not.
    budget = BudgetConfig(token_budget=10, infer_capacity=2, prompts_per_iteration=1, tick_cap=8)
    with pytest.raises(TickCapError, match="tick_cap = 8 ticks"):
        run_iteration_baseline(scripted_state([4, 4, 6, 6]), default_params(), budget, ObjectiveConfig(group_size=4))
    budget = dataclasses.replace(budget, tick_cap=10)
    report, _ = run_iteration_baseline(scripted_state([4, 4, 6, 6]), default_params(), budget, ObjectiveConfig(group_size=4))
    assert report.rollout_ticks == 10


def _oracle_batch(groups) -> dict:
    """The oracle's emitted groups as the flat fields of an emitted batch."""
    rollouts = [r for g in groups for r in g.rollouts]
    return {
        "uids": [r.uid for r in rollouts],
        "lengths": [r.length for r in rollouts],
        "tokens": [t for r in rollouts for t in r.tokens],
        "lp_train": np.array([v for r in rollouts for v in r.lp_train]).tobytes(),
        "lp_infer": np.array([v for r in rollouts for v in r.lp_infer]).tobytes(),
        "versions": [v for r in rollouts for v in r.versions],
        "rewards": np.array([v for g in groups for v in g.rewards]).tobytes(),
        "advantages": np.array([v for g in groups for v in g.advantages]).tobytes(),
    }


def _pool_batch(batch) -> dict:
    return {
        "uids": batch.uids.tolist(),
        "lengths": batch.lengths.tolist(),
        "tokens": batch.tokens.tolist(),
        "lp_train": batch.lp_train.astype(np.float64).tobytes(),
        "lp_infer": batch.lp_infer.astype(np.float64).tobytes(),
        "versions": batch.versions.tolist(),
        "rewards": batch.rewards.astype(np.float64).tobytes(),
        "advantages": batch.advantages.astype(np.float64).tobytes(),
    }


class EveryOtherSiblingWithoutTarget:
    """A source's prompts with the target length of every other sibling dropped: each group holds rollouts
    that end at their target length and rollouts that end on EOS."""

    def __init__(self, source) -> None:
        self.source = source

    def next_prompt(self, stream, group_size):
        task, targets = self.source.next_prompt(stream, group_size)
        return task, [None if i % 2 else n for i, n in enumerate(targets)]


@settings(max_examples=150, deadline=None)
@given(
    baseline=st.booleans(),
    length_model=st.sampled_from(["policy", "lognormal", "mixed"]),
    token_budget=st.integers(1, 60),
    infer_capacity=st.integers(1, 20),
    retention_threshold=st.integers(0, 3),
    prompts_per_iteration=st.integers(1, 5),
    group_size=st.integers(2, 5),
    max_len=st.integers(1, 14),
    tick_cap=st.sampled_from([3, 40, 10**6, 10**6, 10**6]),
    first_uid=st.sampled_from([0, 4090]),
    iterations=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_pool_equals_the_rollout_object_loop(
    baseline, length_model, token_budget, infer_capacity, retention_threshold, prompts_per_iteration, group_size, max_len,
    tick_cap, first_uid, iterations, seed,
) -> None:
    """Iteration by iteration, the pool and the parent's Rollout-object loop (tests/oracles.py) agree bit for bit.

    Reports, emitted batches, tick traces, the tick clocks (tick_trace's
    and the oracle's) and the iteration are equal after every iteration,
    and a tick cap raises the same TickCapError at the same tick. The
    whole groups that end the pending queue are the oracle's prompt
    lookahead, spawned: the same prompts and target lengths, the uids
    after the oracle's next ones. A mixed source puts both kinds of
    rollout in one group, and so in one iteration's schedule.
    """
    vocab = Vocabulary(size=6)
    model = "policy" if length_model == "policy" else "lognormal"
    source = SyntheticPromptSource(vocab, max_len=max_len, length_model=model, median=3.0)
    if length_model == "mixed":
        source = EveryOtherSiblingWithoutTarget(source)
    states = [SchedulerState(vocab=vocab, source=source, seed=seed, n_features=16, infer=infer_engine(0.2, 7)),
              oracle_state(seed, vocab, 16, infer_engine(0.2, 7), source)]
    for state in states:
        state.next_uid = first_uid
    budget = BudgetConfig(
        token_budget=token_budget,
        infer_capacity=infer_capacity,
        retention_threshold=retention_threshold,
        prompts_per_iteration=prompts_per_iteration,
        tick_cap=tick_cap,
    )
    cfg = ObjectiveConfig(group_size=group_size)
    params = init_params(vocab, n_features=16, init_scale=0.6, seed=seed)
    shift = np.random.default_rng(seed).normal(0, 0.3, params.weights.shape)
    clock = TickClock()
    for _ in range(iterations):
        outcomes = []
        # The scheduler's ticks are traced by tick_trace, the oracle's by its own loop.
        loops = (lambda state, trace: scheduler._rollout_loop(state, params, budget, cfg, baseline),
                 lambda state, trace: _rollout_loop(state, params, budget, cfg, trace, baseline))
        for state, loop in zip(states, loops):
            with tick_trace(clock) as trace:
                try:
                    outcomes.append((loop(state, trace), trace))
                except TickCapError as exc:
                    outcomes.append((str(exc), trace))
        (got, got_trace), (want, want_trace) = outcomes
        assert got_trace == want_trace
        if isinstance(want, str):
            assert got == want
            return
        (got_report, got_batch), (want_report, want_groups) = got, want
        got_fields, want_fields = dataclasses.asdict(got_report), dataclasses.asdict(want_report)
        got_reward, want_reward = got_fields.pop("reward_mean"), want_fields.pop("reward_mean")
        assert got_fields == want_fields
        assert got_reward == want_reward or (math.isnan(got_reward) and math.isnan(want_reward))
        assert _pool_batch(got_batch) == _oracle_batch(want_groups)
        assert len(got_batch) == len(want_groups) and got_batch.group_size == group_size
        assert clock.ticks == states[1].tick_clock and states[0].iteration == states[1].iteration
        whole = whole_pending_groups(states[0], group_size)
        assert whole == list(states[1].lookahead)
        assert states[0].next_uid == states[1].next_uid + len(whole) * group_size
        assert states[0].next_group_uid == states[1].next_group_uid + len(whole)
        params = PolicyParams(params.weights + shift, version_id=params.version_id + 1)


@settings(max_examples=60, deadline=None)
@given(
    baseline=st.booleans(),
    lengths=st.lists(st.lists(st.integers(1, 12), min_size=5, max_size=5), max_size=20),
    token_budget=st.integers(1, 40),
    infer_capacity=st.integers(1, 20),
    retention_threshold=st.integers(0, 3),
    prompts_per_iteration=st.integers(1, 5),
    group_size=st.integers(2, 5),
    iterations=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pending_queue_is_one_partly_admitted_group_then_whole_groups(
    baseline, lengths, token_budget, infer_capacity, retention_threshold, prompts_per_iteration, group_size, iterations, seed,
) -> None:
    """After each iteration's spawn the pending queue is at most one partly admitted group, then whole groups:
    prompts_per_iteration of them unless the source has run out. The spawn's count of whole groups,
    n_pending // group_size, rests on it."""
    vocab = Vocabulary(size=6)
    rng = np.random.default_rng(seed)
    source = ScriptedPromptSource([(sample_prompt(rng, vocab, 12), row[:group_size]) for row in lengths])
    state = SchedulerState(vocab=vocab, source=source, seed=seed, n_features=16, infer=infer_engine(0.2, 7))
    budget = BudgetConfig(token_budget=token_budget, infer_capacity=infer_capacity, retention_threshold=retention_threshold,
                          prompts_per_iteration=prompts_per_iteration)
    params = init_params(vocab, n_features=16, init_scale=0.4, seed=seed)
    load, loads = scheduler._load_version, []

    def checked(state, params, cfg, group_cfg):
        load(state, params, cfg, group_cfg)
        groups = state.rollouts[_GROUP]
        admitted, pending = groups[: groups.size - state.n_pending], groups[groups.size - state.n_pending :]
        partial = state.n_pending % group_size
        if partial:
            assert (pending[:partial] == pending[0]).all()
            assert (admitted == pending[0]).any() and (groups == pending[0]).sum() == group_size
        whole = pending[partial:].reshape(-1, group_size)
        assert (whole == whole[:, :1]).all() and (np.diff(whole[:, 0]) > 0).all()
        assert not np.isin(whole[:, 0], admitted).any()
        assert whole.shape[0] == prompts_per_iteration or (whole.shape[0] < prompts_per_iteration and source.cursor == len(lengths))
        loads.append(whole.shape[0])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "_load_version", checked)
        for _ in range(iterations):
            scheduler._rollout_loop(state, params, budget, ObjectiveConfig(group_size=group_size), baseline)
            params = PolicyParams(params.weights, params.version_id + 1)
    assert len(loads) == iterations


@pytest.mark.parametrize("baseline", [False, True])
@pytest.mark.parametrize("length_model", ["policy", "lognormal"])
def test_batch_rows_are_the_table_rows_of_each_rollouts_shift(baseline: bool, length_model: str) -> None:
    """The objective gathers by each token's recorded row: the table row of its rollout's (prev, last) window."""
    vocab = Vocabulary(size=6)
    params = init_params(vocab, n_features=24, init_scale=0.7, seed=3)
    source = SyntheticPromptSource(vocab, max_len=9, length_model=length_model, median=3.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=3, n_features=24, infer=infer_engine(0.2, 7))
    budget = BudgetConfig(token_budget=10, infer_capacity=6, retention_threshold=10, prompts_per_iteration=2)
    step = run_iteration_baseline if baseline else run_iteration
    resumed = emitted = 0
    for _ in range(8):
        report, batch = step(state, params, budget, ObjectiveConfig(group_size=3))
        resumed += report.resumed_rollouts
        emitted += len(batch)
        assert batch.rows.tolist() == shifted_rows(state.table, batch.lengths, batch.prompt_ids, batch.tokens).tolist()
        params = PolicyParams(params.weights, params.version_id + 1)
    assert emitted > 0
    assert (resumed > 0) is not baseline  # only the budget-partitioned mode carries rollouts over


def test_a_tick_cap_error_leaves_the_rollouts_written_back() -> None:
    """A budget the rollouts cannot reach hits the tick cap; the rollouts' rows and lengths are written back
    before the loop raises."""
    state = scripted_state([3, 10**6])
    budget = BudgetConfig(token_budget=10**5, infer_capacity=2, prompts_per_iteration=1, tick_cap=50)
    with pytest.raises(TickCapError):
        run_iteration(state, default_params(), budget, ObjectiveConfig(group_size=2))
    assert state.rollouts[_LENGTH].tolist() == [3, 50] and state.rollouts[_TERMINAL].tolist() == [1, 0]
    assert state.rollout_uniforms._jumps.shape[1] == scheduler._DRAW_PASS + 2  # not 10**6 + 2
    tokens = state.slots["token"][state.rollouts[_START, 1] :][:50]
    assert state.rollouts[_ROW, 1] == state.table.rows([100], tokens[-2:-1], tokens[-1:])[0]


def test_a_capped_iteration_keeps_its_tokens_version_and_log_probs() -> None:
    """Tokens generated in an iteration that hits the tick cap keep its version and both engines' log probs
    at its parameters when a later iteration emits them."""
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 9)
    state = SchedulerState(vocab=Vocabulary(size=8), source=ScriptedPromptSource([(task, [3, 8, None])]), seed=99,
                           n_features=32, infer=infer_engine(0.3, 7))
    params, cfg = default_params(), ObjectiveConfig(group_size=3)
    budget = BudgetConfig(token_budget=10**5, infer_capacity=3, prompts_per_iteration=1, tick_cap=5)
    with pytest.raises(TickCapError):
        run_iteration(state, params, budget, cfg)
    capped = dict(zip(state.rollouts[_UID].tolist(), state.rollouts[_LENGTH].tolist()))
    assert capped[0] == 3 and capped[1] == 5
    # Each engine's log probs at the cap's version, by row: a row the version did not evaluate reads slot -1.
    at_cap = dict(zip(("lp_train", "lp_infer"), state.table.log_probs[:, state.table.slot]))
    shift = np.random.default_rng(0).normal(0, 0.3, params.weights.shape)
    params = PolicyParams(params.weights + shift, version_id=1)
    _, batch = run_iteration(state, params, dataclasses.replace(budget, tick_cap=100), cfg)
    assert len(batch) == 1
    from_cap = np.concatenate([np.arange(n) < capped[uid] for uid, n in zip(batch.uids.tolist(), batch.lengths.tolist())])
    assert batch.versions.tolist() == np.where(from_cap, 0, 1).tolist()
    for name, now in zip(("lp_train", "lp_infer"), state.table.log_probs[:, state.table.check(batch.rows), batch.tokens]):
        assert np.array_equal(getattr(batch, name), np.where(from_cap, at_cap[name][batch.rows, batch.tokens], now))
        assert not np.array_equal(getattr(batch, name), now)


def poison(monkeypatch, kinds: dict[int, tuple[int, int]]) -> None:
    """Make every table pass mark non-finite, for each prompt id, its rows past its first skip windows: kinds
    maps the prompt id to (kind, skip), kind 1 for the inference logits, 2 for the training logits. Their
    CDFs are nan. The pass keeps non-finite counts, as a pass that meets a non-finite logit does."""
    evaluate = ContextTable._evaluate

    def poisoned(table, rows):
        evaluate(table, rows)
        if table._bad is None:
            table._bad = np.zeros(rows.size, dtype=np.intp)
        for prompt_id, (kind, skip) in kinds.items():
            first = table.prompt_row(prompt_id)
            bad = rows[(rows >= first + skip) & (rows < first + table.side**2)]
            table._bad[table.slot[bad]] = kind
            table.cdf[:, table.slot[bad]] = np.nan

    monkeypatch.setattr(ContextTable, "_evaluate", poisoned)


def first_iterations(prompts, budget: BudgetConfig) -> list:
    """The first iteration of the scheduler and of the tick-by-tick oracle on scripted groups of 8: each one's
    (ticks, trained tokens, completed rollouts), or the type and message of the error it raised."""
    vocab, cfg, params = Vocabulary(size=8), ObjectiveConfig(group_size=8), default_params()
    outcomes = []
    for state, loop in ((SchedulerState(vocab, ScriptedPromptSource(prompts), 5, 32, infer_engine(0.2, 7)),
                         lambda state: scheduler._rollout_loop(state, params, budget, cfg, False)),
                        (oracle_state(5, vocab, 32, infer_engine(0.2, 7), ScriptedPromptSource(prompts)),
                         lambda state: _rollout_loop(state, params, budget, cfg, None, False))):
        try:
            report, _ = loop(state)
            outcomes.append((report.rollout_ticks, report.trained_tokens, report.completed_rollouts))
        except (NumericError, TickCapError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("kinds", [(1, 2), (2, 1)])
@pytest.mark.parametrize("tick_cap", [10**6, 3, 1])
def test_a_scheduled_iteration_raises_the_tick_loops_error(monkeypatch, kinds, tick_cap) -> None:
    """The first tick that reads a non-finite row raises, with the message of that tick's reads, unless the
    tick cap comes first; as the tick-by-tick oracle raises, for target-length and policy-length rollouts.

    Prompt 100's eight rollouts, admitted at tick 0, read rows of the first
    kind (1: inference logits, 2: training logits non-finite) from their
    second token on, tick 1; prompt 101's eight read rows of the other
    kind from their first. With target lengths 6 and 3, prompt 101's are
    admitted at tick 6. The sampler's steps go by position, so they meet
    prompt 101's read (position 0) before prompt 100's (position 1): step
    order and tick order disagree. Policy-length rollouts end on EOS: one
    of prompt 100's samples it at tick 0, so prompt 101's join the pool at
    tick 1, which reads both kinds and raises on the training logits. A
    cap of 3 ticks still runs tick 1; a cap of 1 does not.
    """
    poison(monkeypatch, {100: (kinds[0], 1), 101: (kinds[1], 0)})
    budget = BudgetConfig(token_budget=10**5, infer_capacity=8, prompts_per_iteration=2, tick_cap=tick_cap)
    for targets in (([6] * 8, [3] * 8), ([None] * 8, [None] * 8)):
        prompts = [(TaskSpec(TaskKind.PARITY_MATCH, 100 + i, i, 7), lengths) for i, lengths in enumerate(targets)]
        got, want = first_iterations(prompts, budget)
        assert got == want
        if tick_cap == 1:
            assert got == (TickCapError, "iteration 0 did not end within budget.tick_cap = 1 ticks")
        elif targets[0][0] is None:
            assert got == (NumericError, _NON_FINITE_LOGITS)
        else:
            assert got == (NumericError, _NON_FINITE_INFER_LOGITS if kinds[0] == 1 else _NON_FINITE_LOGITS)


def test_a_non_finite_row_that_only_the_sample_ahead_reads_raises_nothing(monkeypatch) -> None:
    """Every row of prompt 101 is non-finite. Its policy-length rollouts wait in the pending queue, and are
    sampled ahead through those rows, but the budget of 1 token stops the iteration at its first end event,
    before any of them is admitted: the iteration never reads the rows, so, as in the oracle, they cannot
    fail it."""
    poison(monkeypatch, {101: (2, 0)})
    prompts = [(TaskSpec(TaskKind.PARITY_MATCH, 100 + i, i, 7), [None] * 8) for i in range(2)]
    sample_ahead, read_ahead = scheduler._sample_ahead, []

    def recording(state):
        left = sample_ahead(state)
        ahead = state.rollouts[:, state.rollouts[_PROMPT] == 101]
        read_ahead.extend(state.table._bad[state.table.slot[state.slots["context"][ahead[_START]]]].tolist())
        return left

    monkeypatch.setattr(scheduler, "_sample_ahead", recording)
    budget = BudgetConfig(token_budget=1, infer_capacity=8, prompts_per_iteration=2)
    got, want = first_iterations(prompts, budget)
    assert got == want and got[1] >= 1
    assert read_ahead == [2] * 8


def test_sampling_ahead_stops_at_the_end_token(monkeypatch) -> None:
    """A policy-length rollout is sampled ahead up to its first EOS and no further: no slot after it is
    written, though its limit is 512."""
    sentinel, sample_ahead, checked = -7, scheduler._sample_ahead, []

    def recording(state):
        state.slots["token"][:] = sentinel
        left = sample_ahead(state)
        for start, limit, end, n in zip(*state.rollouts[[_START, _LIMIT, _END_TOKEN]].tolist(), left.tolist()):
            block = state.slots["token"][start : start + limit]
            assert limit == 512 and sentinel not in block[:n] and (block[n:] == sentinel).all()
            assert block[n - 1] == end and end not in block[: n - 1]
            checked.append(n)
        return left

    monkeypatch.setattr(scheduler, "_sample_ahead", recording)
    prompts = [(TaskSpec(TaskKind.PARITY_MATCH, 100 + i % 2, i % 2, 512), [None] * 8) for i in range(3)]
    state = SchedulerState(Vocabulary(size=8), ScriptedPromptSource(prompts), 5, 32, infer_engine(0.2, 7))
    budget = BudgetConfig(token_budget=10**5, infer_capacity=16, prompts_per_iteration=3)
    scheduler._rollout_loop(state, default_params(), budget, ObjectiveConfig(group_size=8), False)
    assert len(checked) == 24 and max(checked) < 512


def test_train_loop_zero_iterations_is_identity() -> None:
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=4)
    state = SchedulerState(vocab=vocab, source=source, seed=3, n_features=32, infer=infer_engine(0.1, 7))
    params = default_params()
    results = []
    final = train_loop(
        0, state, params, BudgetConfig(token_budget=10, infer_capacity=4), ObjectiveConfig(group_size=2, learning_rate=1.0),
        make_probes(256, vocab, 3), on_step=lambda *step: results.append(step),
    )
    assert results == []
    assert final is params


def test_partitioned_and_baseline_match_on_shared_seed_without_budget_pressure() -> None:
    # zero mismatch, effectively infinite budget and retention: identical
    # reward trajectories and final parameters
    def build(seed: int):
        vocab = Vocabulary(size=8)
        source = SyntheticPromptSource(vocab, max_len=6)
        state = SchedulerState(vocab=vocab, source=source, seed=seed, n_features=64, infer=infer_engine(0.0, 7))
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
    rewards_a, rewards_b = [], []
    fin_a = train_loop(5, state_a, params_a, budget, cfg, probes, on_step=lambda r, *_: rewards_a.append(r.reward_mean))
    state_b, params_b, _ = build(42)
    fin_b = train_loop(5, state_b, params_b, budget, cfg, probes, baseline=True,
                       on_step=lambda r, *_: rewards_b.append(r.reward_mean))
    assert rewards_a == rewards_b
    assert np.array_equal(fin_a.weights, fin_b.weights)


def test_train_loop_replay_is_bit_identical() -> None:
    def run_once():
        vocab = Vocabulary(size=8)
        source = SyntheticPromptSource(vocab, max_len=8)
        state = SchedulerState(vocab=vocab, source=source, seed=7, n_features=128, infer=infer_engine(0.22, 7))
        params = init_params(vocab, n_features=128, init_scale=0.3, seed=7)
        budget = BudgetConfig(token_budget=200, infer_capacity=24, retention_threshold=3, sync_cost_ticks=8)
        deltas = []
        final = train_loop(
            12, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=10.0), make_probes(256, vocab, 7),
            on_step=lambda report, loss, sample: deltas.append(sample.delta),
        )
        return deltas, final.weights

    d1, w1 = run_once()
    d2, w2 = run_once()
    assert d1 == d2
    assert np.array_equal(w1, w2)


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
    vocab_size=st.integers(4, 8),
    scale=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_stays_within_capacity_and_only_complete_groups_are_emitted(
    token_budget, infer_capacity, retention_threshold, prompts_per_iteration, group_size, max_len, lognormal, iterations,
    vocab_size, scale, seed,
) -> None:
    """The scheduler's spec, iteration by iteration: the pool within capacity at every tick, the budget stop at
    the first tick whose completions reach the budget, versions that never fall inside a rollout, only whole
    groups emitted, each rollout ended by its end rule, and every spawned uid trained, purged or in flight."""
    vocab = Vocabulary(size=vocab_size)
    model = "lognormal" if lognormal else "policy"
    source = SyntheticPromptSource(vocab, max_len=max_len, length_model=model, median=3.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=seed, n_features=16, infer=infer_engine(scale, 7))
    params = init_params(vocab, n_features=16, init_scale=0.4, seed=seed)
    budget = BudgetConfig(
        token_budget=token_budget,
        infer_capacity=infer_capacity,
        retention_threshold=retention_threshold,
        prompts_per_iteration=prompts_per_iteration,
    )
    cfg = ObjectiveConfig(group_size=group_size)
    drawn: list[int | None] = []  # each drawn prompt's target lengths, in draw order: the order of uids
    next_prompt = source.next_prompt

    def recording(stream, size):
        prompt = next_prompt(stream, size)
        drawn.extend(prompt[1])
        return prompt

    source.next_prompt = recording
    emitted: list = []
    with uid_audit() as audit:
        for _ in range(iterations):
            with tick_trace() as trace:
                _, groups = run_iteration(state, params, budget, cfg)
            assert all(row["active"] <= infer_capacity and row["pool_after"] <= infer_capacity for row in trace)
            assert all(row["counter"] < token_budget for row in trace[:-1])
            assert all(versions == sorted(versions) for versions in split(groups, "versions"))
            emitted.append(groups)
            params = PolicyParams(params.weights, version_id=params.version_id + 1)
    in_flight = in_flight_uids(state)
    assert audit.trained | audit.purged | in_flight == set(range(state.next_uid))
    assert not audit.trained & (audit.purged | in_flight)
    for batch in emitted:
        assert batch.group_size == group_size and batch.uids.size == len(batch) * group_size
        tokens = split(batch, "tokens")
        for g, uids in enumerate(batch.uids.reshape(-1, group_size).tolist()):
            # One group: a spawn gives the group_size siblings of each prompt the next uids, from 0.
            assert len(set(uids)) == group_size and uids == list(range(uids[0], uids[0] + group_size))
            assert uids[0] % group_size == 0
            for uid, r in zip(uids, tokens[g * group_size : (g + 1) * group_size]):
                # Terminal by the end rule: a drawn target length is generated exactly; without
                # one, the rollout stops at its first EOS or at the task's max_len.
                if lognormal:
                    assert drawn[uid] is not None and len(r) == drawn[uid]
                else:
                    assert drawn[uid] is None and vocab.eos_id not in r[:-1]
                    assert r[-1] == vocab.eos_id or len(r) == max_len
                    assert len(r) <= max_len


def test_lognormal_lengths_stay_in_range_for_any_valid_sigma() -> None:
    # sigma 800 draws lengths of 0 and inf; each is clamped into [1, max_len].
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=16, length_model="lognormal", median=32.0, sigma=800.0)
    stream = np.random.default_rng(5)
    lengths = [n for _ in range(200) for n in source.next_prompt(stream, 8)[1]]
    assert all(type(n) is int and 1 <= n <= 16 for n in lengths)
    assert {1, 16} <= set(lengths)


def test_group_slots_hold_only_live_groups_after_a_run(monkeypatch) -> None:
    """After a lognormal run, the live rollouts are the in-flight ones, and the slot store is as long as the
    largest slot end that any spawn reached: it grows to the need, and never shrinks."""
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=64, length_model="lognormal", median=6.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=5, n_features=64, infer=infer_engine(0.2, 7))
    params = init_params(vocab, n_features=64, init_scale=0.3, seed=5)
    budget = BudgetConfig(token_budget=60, infer_capacity=12, retention_threshold=1, prompts_per_iteration=4)
    spawn, ends = scheduler._spawn_groups, []

    def recording_spawn(state, wanted, group_size):
        spawn(state, wanted, group_size)
        ends.append(int(state.rollouts[_START, -1] + state.rollouts[_LIMIT, -1]))

    monkeypatch.setattr(scheduler, "_spawn_groups", recording_spawn)
    with uid_audit() as audit:
        train_loop(12, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=1.0), make_probes(256, vocab, 5))

    assert {column.size for column in state.slots.values()} == {max(ends)}

    in_flight = in_flight_uids(state)
    assert audit.trained and audit.purged and in_flight
    assert live_uids(state) == in_flight
    assert not (state.rollouts[_TERMINAL][pool_mask(state) | pending_mask(state)]).any()
    assert (np.diff(state.rollouts[_GROUP]) >= 0).all() and (np.diff(state.rollouts[_UID]) > 0).all()
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
    count=st.sampled_from([1, 7, 8, 9, 512, 600]),
)
def test_rollout_stream_is_the_tuple_seeded_stream(seed: int, uid: int, count: int) -> None:
    want = np.random.default_rng(np.random.SeedSequence((seed & (2**64 - 1), 2, uid)))
    got = RolloutUniforms(seed).draw(uid, [count])
    assert got.tobytes() == want.random(count).tobytes()


def test_rollout_uniforms_across_block_edges_in_issue_order() -> None:
    source = RolloutUniforms(-5)
    for uid in [*range(4090, 4100), *range(2**32 - 3, 2**32 + 3), 2**40, 5]:
        want = np.random.default_rng(np.random.SeedSequence((-5 & (2**64 - 1), 2, uid)))
        assert source.draw(uid, [3]).tobytes() == want.random(3).tobytes()


def test_a_spawn_across_a_uid_block_edge_draws_each_rollouts_stream() -> None:
    """A spawn whose uids run past a multiple of the uid block writes into each rollout's slots the first draws of
    its tuple-seeded stream, bit for bit; the seed states kept are those of one block of 1,024 uids, 32 KB."""
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=24, length_model="lognormal", median=5.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=-9, n_features=16, infer=infer_engine(0.2, 7))
    edge = 3 * scheduler._UID_BLOCK
    state.next_uid = edge - 5
    scheduler._spawn_groups(state, 3, 4)
    uids, starts, limits = state.rollouts[[_UID, _START, _LIMIT]].tolist()
    assert uids == list(range(edge - 5, edge + 7))
    for uid, start, limit in zip(uids, starts, limits):
        want = np.random.default_rng(np.random.SeedSequence((-9 & (2**64 - 1), 2, uid))).random(limit)
        assert state.slots["uniform"][start : start + limit].tobytes() == want.tobytes()
    assert state.rollout_uniforms._states.shape == (1024, 4) and state.rollout_uniforms._states.nbytes == 32 * 1024


def test_rollout_uniforms_match_numpy_as_the_jump_table_grows() -> None:
    source, streams = RolloutUniforms(11), UidStreams(11)
    widths = []
    for uid, count in enumerate([3, 600, 3], start=4094):
        assert source.draw(uid, [count]).tobytes() == streams.draw(uid, count).tobytes()
        widths.append(source._jumps.shape[1])
    assert widths == [5, 602, 602]


@pytest.mark.parametrize("draw_pass, scale",
                         [(1, 1), (4, 1), (5, 1), (64, 1), (scheduler._DRAW_PASS, scheduler._DRAW_PASS // 4)])
def test_rollout_uniforms_in_passes_match_numpy(monkeypatch, draw_pass: int, scale: int) -> None:
    """With a small pass, or the module's own with the counts scaled to it, rows that end at a pass edge,
    straddle one or span several, and empty rows, draw what each uid's tuple-seeded generator draws; the jump
    table stops at the pass size plus 2 columns."""
    monkeypatch.setattr(scheduler, "_DRAW_PASS", draw_pass)
    counts = [scale * n for n in (0, 3, 2, 5, 6, 0, 11, 1, 4, 23, 5, 40)]
    source, first_uid = RolloutUniforms(-3), 4088  # the uids run into the next block
    want = [np.random.default_rng(np.random.SeedSequence((-3 & (2**64 - 1), 2, first_uid + i))).random(n)
            for i, n in enumerate(counts)]
    assert source.draw(first_uid, counts).tobytes() == np.concatenate(want).tobytes()
    assert source._jumps.shape[1] == min(draw_pass, max(counts)) + 2


def test_a_long_draw_holds_one_pass_of_temporaries() -> None:
    """One draw of 96 rollouts of 5 * _DRAW_PASS // 192 uniforms each, 5,088 at a pass of 2,048: a long-tail
    spawn's, over 3 passes.

    After a warm-up draw, which grows the jump table and computes the
    uid block's seed states, the traced peak of one draw above its entry,
    less the result, stays below 17 float64 arrays of one pass: a pass
    holds 11.5, at its second 128-bit product: the pass's steps, the
    first product's two words, the four operands that the product
    overwrites and the four arrays it allocates. With the products
    allocating every intermediate, all four jump words taken and all four
    state words repeated before either product, and the last pass's
    output words alive into the next, a pass held 24.6. One pass over all
    the draws holds about 20 arrays of the draws, 50 of a pass.
    """
    draw_pass = scheduler._DRAW_PASS
    counts = np.full(96, 5 * draw_pass // 192)
    assert -(-counts.sum() // draw_pass) >= 3
    source = RolloutUniforms(7)
    source.draw(0, counts)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        uniforms = source.draw(96, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start - uniforms.nbytes) / (8 * draw_pass) < 17, f"peak {(peak - start) / 1024:.0f} KB"


def test_lognormal_targets_round_as_the_scalar_form() -> None:
    """One array rint of the clipped draws gives int(round(min(max(x, 1.0), max_len))) for every draw: exact .5
    ties to even, values below 1, above max_len and inf; the task and the lengths keep the stream's draw order."""
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=16, length_model="lognormal", median=4.0, sigma=3.0)

    def scalar(draws) -> list[int]:
        return [int(round(min(max(x, 1.0), source.max_len))) for x in draws]

    values = np.array([0.0, 0.3, 0.5, 1.5, 2.5, 3.5, 8.5, 15.5, 16.5, 17.0, 1e300, np.inf])

    class Stream:
        """Tasks from a generator; values as the lognormal draws."""

        rng = np.random.default_rng(3)

        def integers(self, *args):
            return self.rng.integers(*args)

        def lognormal(self, mean, sigma, size):
            return values[:size]

    assert source.next_prompt(Stream(), values.size)[1] == scalar(values) == [1, 1, 1, 2, 2, 4, 8, 16, 16, 16, 16, 16]
    stream, replay = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(100):
        task, lengths = source.next_prompt(stream, 8)
        assert task == sample_prompt(replay, vocab, source.max_len)
        assert lengths == scalar(replay.lognormal(math.log(source.median), source.sigma, size=8))
        assert all(type(n) is int for n in lengths)


class _FixedWords(ISeedSequence):
    """Hands PCG64 the given seed words, so that numpy's own seeding runs on them."""

    def __init__(self, words) -> None:
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words.copy()


WORD = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**32 - 1, 2**63, 2**64 - 2, 2**64 - 1]))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.tuples(WORD, WORD, WORD, WORD), st.integers(1, 600)), min_size=1, max_size=6),
       extra=st.integers(1, 5))
@example(rows=[((2**64 - 1,) * 4, 8), ((0,) * 4, 1), ((2**64 - 1, 0, 2**64 - 1, 0), 600)], extra=3)
def test_pcg64_uniforms_match_numpy_pcg64(rows, extra: int) -> None:
    """Each row's first draws against numpy's seeding, the counts mixed in one call; count + extra draws in one
    call are numpy's count draws and then its next extra."""
    words = np.array([row for row, _ in rows], dtype=np.uint64)
    counts = np.array([count for _, count in rows])
    uniforms, jumps = pcg64_uniforms(words, counts, JUMPS)
    assert jumps.shape[1] == counts.max() + 2
    drawn = np.split(uniforms, np.cumsum(counts)[:-1])
    longer = np.split(pcg64_uniforms(words, counts + extra, jumps)[0], np.cumsum(counts + extra)[:-1])
    for (row, count), first, more in zip(rows, drawn, longer):
        want = np.random.Generator(np.random.PCG64(_FixedWords(row)))
        head = want.random(count)
        assert first.tobytes() == head.tobytes()
        assert more.tobytes() == np.concatenate([head, want.random(extra)]).tobytes()


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


def _stream_oracle(self: RolloutUniforms, first_uid: int, counts) -> np.ndarray:
    """Each rollout's uniforms drawn alone from its own tuple-seeded generator."""
    streams = UidStreams(self.seed)
    return np.concatenate([streams.draw(first_uid + i, count) for i, count in enumerate(np.asarray(counts).tolist())])


def _trained_rollouts(monkeypatch, length_model: str, first_uid: int) -> list:
    seen = []

    def recording(batch, *args):
        seen.extend(zip(batch.uids.tolist(), map(tuple, split(batch, "tokens")), split(batch, "lp_infer"),
                        split(batch, "lp_train"), split(batch, "versions")))
        return objective.objective_and_grad(batch, *args)

    monkeypatch.setattr(scheduler, "objective_and_grad", recording)
    vocab = Vocabulary(size=8)
    source = SyntheticPromptSource(vocab, max_len=24, length_model=length_model, median=5.0, sigma=1.0)
    state = SchedulerState(vocab=vocab, source=source, seed=17, n_features=64, infer=infer_engine(0.2, 7))
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


PER_TOKEN = ("per_token_mask_kept", "per_token_surrogate", "per_token_calibration", "per_token_entropy")


@pytest.fixture(scope="module")
def small_run() -> SimpleNamespace:
    """A four-iteration train_loop run and what its on_step saw: per iteration the gradient's norm, the loss's
    grad_norm, the sizes of its per-token arrays and its token count, and weak references to the report, loss and
    sample; with the final params. Also a weak reference to each batch, taken where scheduler binds
    objective_and_grad, and at each probe measure whether any of those batches is alive."""
    vocab = Vocabulary(size=8)
    state = SchedulerState(vocab=vocab, source=SyntheticPromptSource(vocab, max_len=6), seed=11, n_features=64,
                           infer=infer_engine(0.2, 7))
    params = init_params(vocab, n_features=64, init_scale=0.3, seed=11)
    budget = BudgetConfig(token_budget=60, infer_capacity=12, prompts_per_iteration=4)
    run = SimpleNamespace(seen=[], norms=[], sizes=[], counts=[], refs=[], batches=[], alive_at_measure=[])

    def record(report, loss, sample) -> None:
        run.seen.append(float(np.linalg.norm(loss.grad)))
        run.norms.append(loss.grad_norm)
        run.sizes.append({getattr(loss, name).size for name in PER_TOKEN})
        run.counts.append(loss.token_count)
        run.refs.extend(weakref.ref(obj) for obj in (report, loss, sample))

    objective_and_grad, measure = scheduler.objective_and_grad, scheduler.measure

    def recording_objective(batch, *args):
        run.batches.append(weakref.ref(batch))
        return objective_and_grad(batch, *args)

    def recording_measure(*args, **kwargs):
        run.alive_at_measure.append(any(ref() is not None for ref in run.batches))
        return measure(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(scheduler, "objective_and_grad", recording_objective)
        m.setattr(scheduler, "measure", recording_measure)
        run.final = train_loop(4, state, params, budget, ObjectiveConfig(group_size=4, learning_rate=1.0),
                               make_probes(256, vocab, 11), on_step=record)
    return run


def test_on_step_sees_the_grad_and_every_per_token_array(small_run) -> None:
    """on_step sees each iteration's gradient, with its grad_norm, and every per-token array at the loss's
    token count."""
    assert any(small_run.seen)
    assert small_run.norms == small_run.seen
    assert small_run.sizes == [{n} for n in small_run.counts] and any(small_run.counts)


def test_the_batch_is_freed_once_the_objective_has_read_it(small_run) -> None:
    """train_loop releases each emitted batch right after the objective: no batch is alive at any probe measure."""
    assert small_run.batches and len(small_run.alive_at_measure) == 4
    assert small_run.alive_at_measure == [False] * 4


def test_train_loop_keeps_no_iteration(small_run) -> None:
    """A run is a fold: once train_loop returns, every report, loss and sample on_step saw is dead."""
    assert len(small_run.refs) == 12
    assert [ref for ref in small_run.refs if ref() is not None] == []
    assert isinstance(small_run.final, PolicyParams) and small_run.final.version_id > 0
