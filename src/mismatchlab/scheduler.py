"""Deterministic discrete-event simulator for budget-partitioned rollouts.

Time model: one tick generates one token for every active rollout in
parallel (idealized batched inference); rollout-phase cost is measured
in ticks and weight sync adds a fixed tick cost per iteration.

An iteration first ages and purges carried-over rollouts, then generates
until the completed-token counter reaches the token budget, refilling
the inference pool from a pending queue and fresh prompts whenever
occupancy drops. Each sampled prompt spawns a full sibling group whose
members are admitted individually as capacity frees, so the pool never
exceeds its capacity. The tick ends the rollouts it advances: one that
reaches its token limit, or a policy-length one that samples EOS, turns
terminal and leaves the pool. The training pool is the terminal members
of live groups; a group is emitted for training once every sibling is
terminal. Unfinished rollouts carry over and resume under the updated
parameters, and a rollout that outlives the retention threshold takes
its whole group with it (the group could never be trained otherwise).
Both iteration loops, budget-partitioned and baseline, close the same
way: emit the complete groups, report, advance the iteration.

Each rollout samples from its own uniforms, one per token, so pool
scheduling order never perturbs another rollout's token sequence. They
are the first draws of the rollout's tuple-seeded stream,
default_rng(SeedSequence((seed & MASK64, 2, uid))), and must stay equal
to it bit for bit: that stream defines replay. They are derived in bulk
instead, per block of 4,096 uids: seed_sequence_states runs numpy's
SeedSequence hash over every uid of the block at once, and pcg64_block
runs PCG64 over them at once (its 128-bit state held as uint64 hi/lo
pairs) to draw the first 8 uniforms of every uid. A rollout takes the
uniforms it can use when it is spawned: up to 8 from the block, and any
further ones from one PCG64 set to the block's end state for its uid
through the public state setter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import DiscrepancySample, measure, probe_windows
from .errors import ConfigError, TickCapError
from .objective import (
    LossBreakdown,
    ObjectiveConfig,
    PromptGroup,
    batch_group_advantages,
    empty_breakdown,
    momentum_update,
    objective_and_grad,
    sgd_update,
)
from .policy import (
    Context,
    ContextTable,
    Engine,
    PolicyParams,
    Vocabulary,
    # The direct engine path, no longer called here: perfbench/child.py
    # wraps these names where each layer binds them.
    batched_log_softmax,  # noqa: F401
    batched_train_logits,  # noqa: F401
    perturb_logits,  # noqa: F401
)
from .tasks import TaskSpec, sample_prompt, verify

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BudgetConfig:
    """Inputs of the budget-partitioned generation loop; also the experiment config's budget section.

    Spawning stops at prompts_per_iteration prompts per iteration, or
    when the prompt source runs out.
    """

    token_budget: int = 440
    infer_capacity: int = 48
    retention_threshold: int = 3
    sync_cost_ticks: int = 8
    prompts_per_iteration: int = 12
    tick_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.token_budget < 1:
            raise ConfigError("budget.token_budget: must be >= 1")
        if self.infer_capacity < 1:
            raise ConfigError("budget.infer_capacity: must be >= 1")
        if self.retention_threshold < 0:
            raise ConfigError("budget.retention_threshold: must be nonnegative")
        if self.sync_cost_ticks < 0:
            raise ConfigError("budget.sync_cost_ticks: must be nonnegative")
        if self.prompts_per_iteration < 1:
            raise ConfigError("budget.prompts_per_iteration: must be >= 1")
        if self.tick_cap < 1:
            raise ConfigError("budget.tick_cap: must be >= 1")


@dataclass
class Rollout:
    """One trajectory and the uniforms it samples its tokens with.

    limit is the most tokens the rollout generates: its target length
    when one was drawn, else its task's max_len. uniforms[i] draws token
    i, the first limit draws of the rollout's own stream. A rollout is
    terminal once it holds limit tokens or, without a target length,
    once it samples EOS. Per generated token, in parallel lists: the
    token id, its log probability under the inference and the training
    engine, both at the generating parameters, and that parameter
    version.
    """

    task: TaskSpec
    uniforms: np.ndarray
    uid: int
    group_uid: int
    limit: int
    tokens: list[int] = field(default_factory=list)
    lp_infer: list[float] = field(default_factory=list)
    lp_train: list[float] = field(default_factory=list)
    versions: list[int] = field(default_factory=list)
    terminal: bool = False
    retention_period: int = 0
    target_len: int | None = None
    row: int | None = None  # the current context's row in the state's table, from spawn on

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass
class StepReport:
    iteration: int
    rollout_ticks: int
    trained_tokens: int
    purged_rollouts: int
    resumed_rollouts: int
    completed_rollouts: int
    stale_token_fraction: float
    emitted_groups: int = 0
    emitted_tokens: int = 0
    reward_mean: float = math.nan


class SyntheticPromptSource:
    """Endless sampled tasks; optionally draws a target length per rollout."""

    def __init__(
        self,
        vocab: Vocabulary,
        max_len: int,
        length_model: str = "policy",
        median: float = 32.0,
        sigma: float = 1.0,
    ) -> None:
        if length_model not in ("policy", "lognormal"):
            raise ValueError(f"unknown length model {length_model!r}")
        self.vocab = vocab
        self.max_len = max_len
        self.length_model = length_model
        self.median = median
        self.sigma = sigma

    def next_prompt(
        self, stream: np.random.Generator, group_size: int
    ) -> tuple[TaskSpec, list[int | None]] | None:
        task = sample_prompt(stream, self.vocab, self.max_len)
        if self.length_model == "policy":
            return task, [None] * group_size
        draws = stream.lognormal(math.log(self.median), self.sigma, size=group_size)
        # Clamped before rounding: a wide sigma can draw inf, which round() cannot convert.
        lengths = [int(round(min(max(x, 1.0), self.max_len))) for x in draws]
        return task, lengths


class ScriptedPromptSource:
    """Finite list of (task, per-sibling target lengths) pairs, for fixtures."""

    def __init__(self, prompts: list[tuple[TaskSpec, list[int]]]) -> None:
        self.prompts = list(prompts)
        self.cursor = 0

    def next_prompt(
        self, stream: np.random.Generator, group_size: int
    ) -> tuple[TaskSpec, list[int | None]] | None:
        if self.cursor >= len(self.prompts):
            return None
        task, lengths = self.prompts[self.cursor]
        self.cursor += 1
        if len(lengths) != group_size:
            raise ValueError("scripted prompt must provide one target length per sibling")
        return task, list(lengths)


@dataclass
class SchedulerState:
    """Inference pool, pending queue, live groups, and the run's counters.

    groups maps each live group's uid to its members, in uid order; its
    terminal members are the rollouts waiting to train.
    """

    vocab: Vocabulary
    infer: Engine
    temperature: float
    source: SyntheticPromptSource | ScriptedPromptSource
    prompt_stream: np.random.Generator
    seed: int
    infer_pool: list[Rollout] = field(default_factory=list)
    pending: deque[Rollout] = field(default_factory=deque)
    groups: dict[int, list[Rollout]] = field(default_factory=dict)
    iteration: int = 0
    tick_clock: int = 0
    next_uid: int = 0
    next_group_uid: int = 0
    table: ContextTable = field(init=False)  # every spawned prompt's contexts
    rollout_uniforms: RolloutUniforms = field(init=False)

    def __post_init__(self) -> None:
        self.table = ContextTable(self.vocab.size, self.infer, self.temperature)
        self.rollout_uniforms = RolloutUniforms(self.seed)


def make_state(
    seed: int,
    vocab: Vocabulary,
    infer: Engine,
    source: SyntheticPromptSource | ScriptedPromptSource,
    temperature: float = 1.0,
) -> SchedulerState:
    prompt_stream = np.random.default_rng(np.random.SeedSequence((seed & _MASK64, 1)))
    return SchedulerState(
        vocab=vocab,
        infer=infer,
        temperature=temperature,
        source=source,
        prompt_stream=prompt_stream,
        seed=seed,
    )


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 words numpy's SeedSequence takes from a tuple of nonnegative ints.

    Each value becomes its little-endian 32-bit words, at least one.
    """
    words = []
    for v in values:
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = 0xCA01F9DD
_SS_MIX_MULT_R = 0x4973F715
_SS_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of an (n, k) uint32 matrix.

    numpy's hashmix/mix over a 4-word pool, one column of rows at a time;
    entropy longer than the pool is folded in by the extra-entropy loop.
    The hash constant follows the same sequence for every row, so it
    stays a Python int.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, k = entropy.shape
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_SS_MIX_MULT_L) * x - np.uint32(_SS_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < k else zeros) for i in range(_SS_POOL_SIZE)]
    for src in range(_SS_POOL_SIZE):
        for dst in range(_SS_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL_SIZE, k):
        for dst in range(_SS_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    # generate_state(4, uint64) is 8 uint32 words read as little-endian pairs.
    hash_const = _SS_INIT_B
    words = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _SS_POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words[:, i] = value ^ (value >> np.uint32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


_UID_BLOCK = 4096  # divides 2**32, so only a uid's low word varies within a block
# Uniforms of every uid that a block holds: the shipped tasks.max_len, so
# every rollout of a policy-length run draws from the block alone.
_BLOCK_DRAWS = 8
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG_DEFAULT_MULTIPLIER_128
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & _MASK64)
_MULT_LO_LIMBS = (np.uint64(_PCG64_MULT & _MASK32), np.uint64((_PCG64_MULT >> 32) & _MASK32))


def _mulhi_mult_lo(x: np.ndarray) -> np.ndarray:
    """High 64 bits of x * _MULT_LO for a uint64 array, from 32-bit limbs (no carry is lost)."""
    x0, x1 = x & np.uint64(_MASK32), x >> np.uint64(32)
    m0, m1 = _MULT_LO_LIMBS
    t = x1 * m0 + ((x0 * m0) >> np.uint64(32))
    u = x0 * m1 + (t & np.uint64(_MASK32))
    return x1 * m1 + (t >> np.uint64(32)) + (u >> np.uint64(32))


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo).astype(np.uint64), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """state * _PCG64_MULT + inc mod 2**128, the 128-bit state held as uint64 (hi, lo) pairs."""
    return _add128(_mulhi_mult_lo(lo) + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO, inc_hi, inc_lo)


def pcg64_block(seed_states: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first count uniforms of a PCG64 per row of (n, 4) seed words, and the state after them.

    Row i draws what Generator(PCG64) seeded from SeedSequence words
    seed_states[i] gives with random(count): pcg64_set_seed's
    arithmetic, then per draw one step, the XSL-RR output and
    (x >> 11) * 2**-53. The second array holds each row's (state hi,
    state lo, inc hi, inc lo) words after the draws, from which the
    PCG64 state setter continues the stream.
    """
    w0, w1, w2, w3 = np.asarray(seed_states, dtype=np.uint64).T
    inc_hi = (w2 << np.uint64(1)) | (w3 >> np.uint64(63))
    inc_lo = (w3 << np.uint64(1)) | np.uint64(1)
    hi, lo = _pcg64_step(*_add128(w0, w1, inc_hi, inc_lo), inc_hi, inc_lo)
    uniforms = np.empty((w0.size, count))
    for k in range(count):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        uniforms[:, k] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return uniforms, np.stack([hi, lo, inc_hi, inc_lo], axis=1)


class RolloutUniforms:
    """The draws of each rollout's stream default_rng(SeedSequence((seed & MASK64, 2, uid))).

    uids are issued in order, so only the current aligned block of uids
    is kept: its seed states from one seed_sequence_states call, and
    from one pcg64_block call the first _BLOCK_DRAWS uniforms of every
    uid and the PCG64 states after them. A rollout that needs more
    continues its stream from there on one PCG64, set through its public
    state setter.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._bitgen = np.random.PCG64()
        self._generator = np.random.Generator(self._bitgen)
        self._block = -1
        self._uniforms = np.zeros((0, _BLOCK_DRAWS))
        self._ends = np.zeros((0, 4), dtype=np.uint64)

    def draw(self, uid: int, count: int) -> np.ndarray:
        """The first count uniforms of uid's stream, as Generator.random(count) gives them."""
        block, offset = divmod(uid, _UID_BLOCK)
        if block != self._block:
            self._uniforms, self._ends = pcg64_block(self._block_states(block), _BLOCK_DRAWS)
            self._block = block
        if count <= _BLOCK_DRAWS:
            return self._uniforms[offset, :count]
        hi, lo, inc_hi, inc_lo = self._ends[offset].tolist()
        self._bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (hi << 64) | lo, "inc": (inc_hi << 64) | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.concatenate([self._uniforms[offset], self._generator.random(count - _BLOCK_DRAWS)])

    def _block_states(self, block: int) -> np.ndarray:
        head = _seed_words(self.seed & _MASK64, 2)
        entropy = np.tile(np.concatenate([head, _seed_words(block * _UID_BLOCK)]), (_UID_BLOCK, 1))
        entropy[:, head.size] += np.arange(_UID_BLOCK, dtype=np.uint32)
        return seed_sequence_states(entropy)


def _spawn_group(state: SchedulerState, group_cfg: ObjectiveConfig) -> bool:
    """Sample one prompt and queue its sibling rollouts; False when exhausted."""
    drawn = state.source.next_prompt(state.prompt_stream, group_cfg.group_size)
    if drawn is None:
        return False
    task, lengths = drawn
    group_uid = state.next_group_uid
    state.next_group_uid += 1
    state.table.add([task.prompt_id])
    first_row = state.table.prompt_row(task.prompt_id)
    members: list[Rollout] = []
    for target in lengths:
        uid = state.next_uid
        state.next_uid += 1
        limit = task.max_len if target is None else max(target, 1)
        rollout = Rollout(
            task=task,
            uniforms=state.rollout_uniforms.draw(uid, limit),
            uid=uid,
            group_uid=group_uid,
            limit=limit,
            target_len=target,
            row=first_row,
        )
        members.append(rollout)
        state.pending.append(rollout)
    state.groups[group_uid] = members
    return True


def _refill(state: SchedulerState, cfg: BudgetConfig, group_cfg: ObjectiveConfig, sampled_this_iter: int) -> int:
    """Admit pending rollouts and sample new prompts while capacity allows."""
    while len(state.infer_pool) < cfg.infer_capacity:
        if state.pending:
            state.infer_pool.append(state.pending.popleft())
            continue
        if sampled_this_iter >= cfg.prompts_per_iteration or not _spawn_group(state, group_cfg):
            break
        sampled_this_iter += 1
    return sampled_this_iter


def _generate_tick(rollouts: list[Rollout], params: PolicyParams, state: SchedulerState) -> list[Rollout]:
    """One parallel token for every listed rollout, read from the state's context table.

    The table is loaded for params on the first tick of a version. Each
    rollout samples its next token with its own next uniform. Returns the
    rollouts this token made terminal, in list order.
    """
    table = state.table
    table.load(params)
    n = len(rollouts)
    rows = np.fromiter((r.row for r in rollouts), np.intp, n)
    table.check(rows)
    u = np.fromiter((r.uniforms[len(r.tokens)] for r in rollouts), np.float64, n)
    # Inverse CDF: the count of cdf entries <= u is searchsorted(side="right").
    tokens = np.minimum((table.cdf[rows] <= u[:, None]).sum(axis=1), table.vocab_size - 1)
    version = params.version_id
    eos = state.vocab.eos_id
    finished: list[Rollout] = []
    for rollout, token, row, lp_inf, lp_tr in zip(
        rollouts,
        tokens.tolist(),
        table.advance(rows, tokens).tolist(),
        table.lp_infer[rows, tokens].tolist(),
        table.lp_train[rows, tokens].tolist(),
    ):
        rollout.tokens.append(token)
        rollout.lp_infer.append(lp_inf)
        rollout.lp_train.append(lp_tr)
        rollout.versions.append(version)
        rollout.row = row
        if len(rollout.tokens) >= rollout.limit or (token == eos and rollout.target_len is None):
            rollout.terminal = True
            finished.append(rollout)
    return finished


def _purge_boundary(state: SchedulerState, cfg: BudgetConfig) -> int:
    """Age carried-over rollouts, purge overextended ones with their groups."""
    for rollout in state.infer_pool:
        rollout.retention_period += 1
    dead_groups = {
        r.group_uid for r in state.infer_pool if r.retention_period > cfg.retention_threshold
    }
    if not dead_groups:
        return 0
    purged = sum(len(state.groups.pop(group_uid)) for group_uid in dead_groups)
    state.infer_pool = [r for r in state.infer_pool if r.group_uid not in dead_groups]
    state.pending = deque(r for r in state.pending if r.group_uid not in dead_groups)
    return purged


def _close_iteration(
    state: SchedulerState,
    params_version: int,
    ticks: int,
    trained_tokens: int,
    completed: int,
    purged: int = 0,
    resumed: int = 0,
) -> tuple[StepReport, list[PromptGroup]]:
    """The close of both iteration loops: emit, report, advance the iteration.

    Every group whose siblings are all terminal is emitted, in group
    order, and leaves state.groups, which keeps only live groups.
    """
    ready = [(uid, members) for uid, members in state.groups.items() if all(m.terminal for m in members)]
    groups: list[PromptGroup] = []
    emitted = stale = 0
    if ready:
        rewards = np.array(
            [[verify(m.task, m.tokens, state.vocab) for m in members] for _, members in ready],
            dtype=np.float64,
        )
        advantages = batch_group_advantages(rewards)
        for (uid, members), reward_row, advantage_row in zip(ready, rewards.tolist(), advantages.tolist()):
            del state.groups[uid]
            groups.append(
                PromptGroup(task=members[0].task, rollouts=members, rewards=reward_row, advantages=advantage_row)
            )
            for member in members:
                emitted += member.length
                stale += sum(1 for v in member.versions if v < params_version)
    report = StepReport(
        iteration=state.iteration,
        rollout_ticks=ticks,
        trained_tokens=trained_tokens,
        purged_rollouts=purged,
        resumed_rollouts=resumed,
        completed_rollouts=completed,
        stale_token_fraction=stale / emitted if emitted else 0.0,
        emitted_groups=len(groups),
        emitted_tokens=emitted,
        reward_mean=float(np.mean(rewards)) if ready else math.nan,
    )
    state.iteration += 1
    return report, groups


def run_iteration(
    state: SchedulerState,
    params_t: PolicyParams,
    cfg: BudgetConfig,
    group_cfg: ObjectiveConfig,
    trace: list | None = None,
) -> tuple[StepReport, list[PromptGroup]]:
    """One budget-partitioned iteration; returns the report and emitted groups."""
    purged = _purge_boundary(state, cfg)
    resumed = sum(1 for r in state.infer_pool if r.tokens)

    counter = 0
    ticks = 0
    completed = 0
    sampled_this_iter = 0
    while counter < cfg.token_budget:
        sampled_this_iter = _refill(state, cfg, group_cfg, sampled_this_iter)
        if not state.infer_pool:
            break
        if ticks >= cfg.tick_cap:
            raise TickCapError(
                f"budget {cfg.token_budget} unreachable within {cfg.tick_cap} ticks"
            )
        active = len(state.infer_pool)
        finished = _generate_tick(state.infer_pool, params_t, state)
        if finished:
            state.infer_pool = [r for r in state.infer_pool if not r.terminal]
            counter += sum(r.length for r in finished)
            completed += len(finished)
        ticks += 1
        state.tick_clock += 1
        if trace is not None:
            trace.append(
                {
                    "tick": state.tick_clock,
                    "active": active,
                    "completed": len(finished),
                    "counter": counter,
                    "pool_after": len(state.infer_pool),
                }
            )
    return _close_iteration(state, params_t.version_id, ticks, counter, completed, purged, resumed)


def run_iteration_baseline(
    state: SchedulerState,
    params_t: PolicyParams,
    cfg: BudgetConfig,
    group_cfg: ObjectiveConfig,
) -> tuple[StepReport, list[PromptGroup]]:
    """Single-pass comparator: a fixed prompt batch run to termination.

    No budget cut and no carry-over; the rollout phase costs the maximum
    rollout length of each capacity-sized wave.
    """
    for _ in range(cfg.prompts_per_iteration):
        if not _spawn_group(state, group_cfg):
            break
    batch = list(state.pending)
    state.pending.clear()
    if not batch:
        raise ValueError("baseline iteration has an empty prompt set")

    ticks = 0
    for start in range(0, len(batch), cfg.infer_capacity):
        active = batch[start : start + cfg.infer_capacity]
        wave_len = 0
        while active:
            if wave_len >= cfg.tick_cap:
                raise TickCapError("baseline rollout exceeded the tick cap")
            if _generate_tick(active, params_t, state):
                active = [r for r in active if not r.terminal]
            wave_len += 1
        ticks += wave_len

    state.tick_clock += ticks
    return _close_iteration(state, params_t.version_id, ticks, sum(r.length for r in batch), len(batch))


def train_loop(
    n_iterations: int,
    state: SchedulerState,
    params: PolicyParams,
    cfg: BudgetConfig,
    objective: ObjectiveConfig,
    probes: list[Context],
    baseline: bool = False,
    on_step=None,
) -> tuple[list[tuple[StepReport, LossBreakdown, DiscrepancySample]], PolicyParams]:
    """Alternate rollout generation, objective/gradient, update, weight sync.

    The objective config gives the masking bounds, the learning rate,
    the optimizer and its momentum. Resumed rollouts keep their recorded
    token history, so stale tokens retain the version that generated
    them. on_step, when given, is called with (report, loss, sample) as
    each iteration lands so callers can flush metrics before a potential
    numeric failure.

    The rollout ticks, the objective and the probe measure all read the
    state's context table at the iteration's parameters, which the
    table evaluates once. The KL reference is the run's initial
    parameters. Each loss in the results keeps grad_norm but drops grad
    once the update has applied it.
    """
    ref = params.copy()
    table = state.table
    probe_contexts = probe_windows(probes)
    table.add(probe_contexts[0])
    probe_rows = table.rows(*probe_contexts)
    velocity = np.zeros_like(params.weights)
    results: list[tuple[StepReport, LossBreakdown, DiscrepancySample]] = []
    step = run_iteration_baseline if baseline else run_iteration
    for _ in range(n_iterations):
        report, groups = step(state, params, cfg, objective)
        if groups:
            loss = objective_and_grad(groups, params, params, ref, objective, state.temperature, table)
        else:
            loss = empty_breakdown(params)
        sample = measure(params, probes, state.infer, state.temperature, step=report.iteration, table=table, rows=probe_rows)
        results.append((report, loss, sample))
        if on_step is not None:
            on_step(report, loss, sample)
        if groups:
            if objective.optimizer == "momentum":
                params, velocity = momentum_update(
                    params, loss.grad, velocity, objective.learning_rate, objective.momentum
                )
            else:
                params = sgd_update(params, loss.grad, objective.learning_rate)
        loss.grad = None
        state.tick_clock += cfg.sync_cost_ticks
    return results, params
