"""Reference implementations that the package computes another way.

Inference error, one full noise block at a time. The program draws the
fault stream only at the fault entries and scatters the fault term into
the dense term. These oracles draw every block at every entry and mask
the fault term instead. Off the fault entries the masked term is
0 * |logit| * noise = +-0, which leaves the dense term unchanged unless
that term is exactly zero (a Box-Muller radius of exactly 0, probability
about 2^-53 per entry), so the two agree bit for bit.

The rollout loop over one Rollout object per rollout, with token lists,
a list pool, a pending deque and a dict of groups: the scheduler keeps
the same rollouts as columns of arrays, and must equal it bit for bit.
With it, the scalar verify (the oracle of the batched one) with the
COPY_PREFIX pattern it decodes, the group z-score of one group (of
batch_group_advantages), and a scripted prompt source for fixtures.
The oracle loop's table pass covers every window of its live prompts
(rows_of), where the scheduler's covers only the windows a rollout can
read.

The objective as a loop over rollouts, each token's feature rows hashed
on the direct path (the package gathers them, and the policy at theta,
from the context table), and each token's table row from its rollout's
(prev, last) shift (the package records it at the tick).

The probe discrepancy, its gradient and the reward gradient on the
direct path, each state evaluated anew per call: the probes hashed by
context_rows, the inference logits by perturb_logits or
inference_logits, and a separate softmax per engine. The package
hashes the probes once, as a policy.RowSet, and evaluates it at each
state through RowSet.engines instead.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass, field

import numpy as np

from mismatchlab.discrepancy import probe_windows
from mismatchlab.errors import NumericError, TickCapError
from mismatchlab.objective import Algo, ObjectiveConfig, batch_group_advantages
from mismatchlab.policy import (
    _DENSE_TAIL_CUT,
    _DENSE_TAIL_GAIN,
    _DENSE_WEIGHT,
    _FAULT_CUT,
    _FAULT_GAIN,
    _FAULT_NOISE_CLIP,
    _FAULT_TAIL_CUT,
    _FAULT_TAIL_GAIN,
    _FAULT_XOR,
    _NON_FINITE_INFER_LOGITS,
    _PERSISTENT_WEIGHT,
    _SECOND_FIXED_XOR,
    _SECOND_VERSION_XOR,
    _STRIDE_A,
    _STRIDE_B,
    _VERSION_WEIGHT,
    _XOR_B,
    Context,
    ContextTable,
    Engine,
    PolicyParams,
    Vocabulary,
    _splitmix64_vec,
    batched_log_softmax,
    batched_train_logits,
    context_rows,
    feature_rows,
    fixed_noise,
    inference_logits,
    inference_slope,
    perturb_logits,
    weight_grad,
)
from mismatchlab.scheduler import BudgetConfig, StepReport, SyntheticPromptSource
from mismatchlab.tasks import TaskKind, TaskSpec, all_prompt_ids


def _unit_noise_matrix(keys, width, tail_cut, tail_gain):
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    idx = np.arange(width, dtype=np.uint64).reshape(1, -1)
    a = _splitmix64_vec(keys + idx * _STRIDE_A)
    b = _splitmix64_vec((keys ^ np.uint64(_XOR_B)) + idx * _STRIDE_B)
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (b >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    heavy = (b & np.uint64(0x7FF)) < np.uint64(tail_cut)
    return np.where(heavy, normals * tail_gain, normals)


def _mixed_unit_noise(keys_fixed, keys_version, width, tail_cut, tail_gain):
    return _PERSISTENT_WEIGHT * _unit_noise_matrix(keys_fixed, width, tail_cut, tail_gain) + _VERSION_WEIGHT * _unit_noise_matrix(keys_version, width, tail_cut, tail_gain)


def block_noise_components(kf, kv, width):
    """(dense noise, clipped fault noise, fault mask), each a full (rows, width) block."""
    kf = np.asarray(kf, dtype=np.uint64)
    kv = np.asarray(kv, dtype=np.uint64)
    dense = _mixed_unit_noise(kf, kv, width, _DENSE_TAIL_CUT, _DENSE_TAIL_GAIN)
    fault_noise = np.clip(
        _mixed_unit_noise(
            kf ^ np.uint64(_SECOND_FIXED_XOR), kv ^ np.uint64(_SECOND_VERSION_XOR), width, _FAULT_TAIL_CUT, _FAULT_TAIL_GAIN
        ),
        -_FAULT_NOISE_CLIP,
        _FAULT_NOISE_CLIP,
    )
    idx = np.arange(width, dtype=np.uint64).reshape(1, -1)
    faults = (_splitmix64_vec((kf.reshape(-1, 1) ^ np.uint64(_FAULT_XOR)) + idx * _STRIDE_A) & np.uint64(0x7FF)) < np.uint64(_FAULT_CUT)
    return dense, fault_noise, faults


def block_error(train_logits, noise):
    """dense_weight * dense + fault_gain * fault_mask * |logit| * fault_noise, given block_noise_components."""
    dense, fault_noise, faults = noise
    return _DENSE_WEIGHT * dense + _FAULT_GAIN * faults * np.abs(train_logits) * fault_noise


def block_inference_logits(train_logits, kf, kv, scale):
    """The inference engine's logits, every noise block drawn in full."""
    return train_logits + scale * block_error(train_logits, block_noise_components(kf, kv, train_logits.shape[1]))


def block_slope(train_logits, kf, kv, scale):
    """d inference logit / d training logit: 1 + scale * fault_gain * fault_mask * sign(logit) * fault_noise."""
    _, fault_noise, faults = block_noise_components(kf, kv, train_logits.shape[1])
    return 1.0 + scale * _FAULT_GAIN * faults * np.sign(train_logits) * fault_noise


_MASK64 = (1 << 64) - 1


class UidStreams:
    """Each rollout's uniforms drawn from its own stream default_rng(SeedSequence((seed & MASK64, 2, uid))),
    the definition the scheduler's bulk draws reproduce."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def draw(self, uid: int, count: int) -> np.ndarray:
        return np.random.default_rng(np.random.SeedSequence((self.seed & _MASK64, 2, uid))).random(count)


def prefix_length(task: TaskSpec) -> int:
    """Prescribed-prefix length for COPY_PREFIX tasks (capped by max_len)."""
    return min(2, task.max_len)


def prefix_pattern(task: TaskSpec, vocab: Vocabulary) -> tuple[int, ...]:
    """Decode the COPY_PREFIX target payload into non-EOS token ids.

    The target is a base-(size-1) number whose digits map onto the
    vocabulary with the EOS id skipped, so a pattern can never terminate
    the rollout early.
    """
    base = vocab.size - 1
    k = prefix_length(task)
    digits = []
    value = task.target
    for _ in range(k):
        digits.append(value % base)
        value //= base
    return tuple(d if d < vocab.eos_id else d + 1 for d in digits)


def verify(task: TaskSpec, completion: tuple[int, ...] | list[int], vocab: Vocabulary) -> float:
    """Binary reward: 1.0 iff the completion satisfies the task predicate."""
    tokens = tuple(completion)
    for t in tokens:
        if not 0 <= t < vocab.size:
            raise ValueError(f"completion token {t} outside vocabulary")
    if task.kind is TaskKind.PARITY_MATCH:
        count = sum(1 for t in tokens if t != vocab.eos_id)
        return 1.0 if count % 2 == task.target else 0.0
    if task.kind is TaskKind.TARGET_SUM:
        return 1.0 if sum(tokens) % vocab.size == task.target else 0.0
    pattern = prefix_pattern(task, vocab)
    k = len(pattern)
    return 1.0 if len(tokens) >= k and tokens[:k] == pattern else 0.0


def group_advantages(rewards: list[float] | np.ndarray) -> np.ndarray:
    """Group z-scores with a 1e-6 std floor; zero-variance groups get zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError("advantage normalization needs a group of >= 2 rewards")
    std = float(r.std())
    return (r - r.mean()) / max(std, 1e-6)


def rows_of(table: ContextTable, prompt_ids) -> np.ndarray:
    """Every row of each given prompt: all its windows."""
    first = np.fromiter((table.prompt_row(p) for p in prompt_ids), np.intp)
    return (first[:, None] + np.arange(table.side * table.side)).ravel()


def shifted_rows(table: ContextTable, lengths, prompt_ids, tokens) -> np.ndarray:
    """Each token's table row, from its rollout's (prev, last) shift: the two tokens before it, -1 before the start."""
    prompts, prev, last = [], [], []
    for prompt_id, part in zip(np.asarray(prompt_ids).tolist(), np.split(np.asarray(tokens), np.cumsum(lengths)[:-1])):
        window = [-1, -1] + part.tolist()
        prompts += [prompt_id] * part.size
        prev += window[:-2]
        last += window[1:-1]
    return table.rows(prompts, prev, last)


def reference_objective(batch, theta, cfg, temperature=1.0):
    """Per-rollout loop that the flat objective must reproduce bit for bit.

    np.add.at adds in input order, as the package's np.bincount does: in
    token order, each token's coefficient onto its recorded table row's
    entry at the token and onto the row's coefficient sum. A row's
    scaled-logit gradient is then sum(c e_token) - sum(c) p_row, and each
    distinct row (in row order) is added onto its four feature rows, slot
    by slot; each token's value goes onto its rollout's sum. Returns
    (value, grad, per-token arrays by LossBreakdown field and each token's
    own scaled-logit gradient, c (e_token - p)).
    """
    rows, inverse = np.unique(batch.rows, return_inverse=True)
    one_hot_sums = np.zeros((rows.size, theta.vocab_size))
    coeff_sums = np.zeros(rows.size)
    row_probs = np.zeros((rows.size, theta.vocab_size))
    row_feats = np.zeros((rows.size, 4), dtype=np.intp)
    rollout_sums = np.zeros(batch.lengths.size)
    parts: dict[str, list[np.ndarray]] = {k: [] for k in ("kept", "surrogate", "calib", "entropy", "logp", "grad_logits")}
    n_groups, group_size = len(batch), batch.group_size
    token_rows = np.split(inverse, np.cumsum(batch.lengths)[:-1])
    tokens, lp_trains, lp_infers = ([part.tolist() for part in np.split(getattr(batch, name), np.cumsum(batch.lengths)[:-1])]
                                    for name in ("tokens", "lp_train", "lp_infer"))
    for i in range(batch.lengths.size):
        advantage = float(batch.advantages[i])
        n_tok = int(batch.lengths[i])
        weight = 1.0 / (n_groups * group_size * n_tok)
        token_ids = np.asarray(tokens[i])
        lp_old = np.asarray(lp_trains[i])
        lp_inf = np.asarray(lp_infers[i])
        pos = np.arange(n_tok)
        window = [-1, -1] + tokens[i]
        feats = np.asarray(
            [feature_rows(int(batch.prompt_ids[i]), window[t], window[t + 1], theta.n_features) for t in range(n_tok)]
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
        np.add.at(one_hot_sums, (token_rows[i], token_ids), coeffs)
        np.add.at(coeff_sums, token_rows[i], coeffs)
        row_probs[token_rows[i]] = probs
        row_feats[token_rows[i]] = feats
        np.add.at(rollout_sums, np.full(n_tok, i), pg_values)
        for key, value in (
            ("kept", kept), ("surrogate", pg_values), ("calib", calib),
            ("entropy", -(probs * log_probs).sum(axis=1)), ("logp", lp_cur),
            ("grad_logits", grad_logits),
        ):
            parts[key].append(value)
    row_grad = one_hot_sums - coeff_sums[:, None] * row_probs
    grad = np.zeros_like(theta.weights)
    for j in range(4):
        np.add.at(grad, row_feats[:, j], row_grad)
    value = float((rollout_sums / (group_size * batch.lengths)).sum()) / n_groups
    return value, grad, {k: np.concatenate(v) for k, v in parts.items()}


@dataclass
class PromptGroup:
    """A prompt with its sibling rollouts, rewards, and group advantages."""

    task: TaskSpec
    rollouts: list["Rollout"]
    rewards: list[float]
    advantages: list[float]

    def __post_init__(self) -> None:
        if not (len(self.rollouts) == len(self.rewards) == len(self.advantages)):
            raise ValueError("rollouts, rewards, and advantages must have equal length")
        if not all(math.isfinite(a) for a in self.advantages):
            raise NumericError("group advantages contain non-finite values")


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
class OracleState:
    """Inference pool, pending queue, prompt lookahead, live groups, and the run's counters.

    groups maps each live group's uid to its members, in uid order; its
    terminal members are the rollouts waiting to train. lookahead holds
    drawn prompts not yet spawned; probe_rows, train_loop's probe rows.
    The prompt stream and the context table are SchedulerState's.
    """

    vocab: Vocabulary
    source: SyntheticPromptSource | ScriptedPromptSource
    seed: int
    n_features: InitVar[int]
    infer: InitVar[Engine]
    temperature: InitVar[float] = 1.0
    infer_pool: list[Rollout] = field(default_factory=list)
    pending: deque[Rollout] = field(default_factory=deque)
    lookahead: deque[tuple[TaskSpec, list[int | None]]] = field(default_factory=deque)
    probe_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    groups: dict[int, list[Rollout]] = field(default_factory=dict)
    iteration: int = 0
    tick_clock: int = 0
    next_uid: int = 0
    next_group_uid: int = 0
    prompt_stream: np.random.Generator = field(init=False)
    table: ContextTable = field(init=False)
    rollout_uniforms: UidStreams = field(init=False)

    def __post_init__(self, n_features: int, infer: Engine, temperature: float) -> None:
        self.prompt_stream = np.random.default_rng(np.random.SeedSequence((self.seed & _MASK64, 1)))
        self.table = ContextTable(all_prompt_ids(self.vocab), n_features, self.vocab.size, infer, temperature)
        self.rollout_uniforms = UidStreams(self.seed)


def oracle_state(
    seed: int,
    vocab: Vocabulary,
    n_features: int,
    infer: Engine,
    source: SyntheticPromptSource | ScriptedPromptSource,
    temperature: float = 1.0,
) -> OracleState:
    """An OracleState of these inputs, as SchedulerState takes them."""
    return OracleState(vocab=vocab, source=source, seed=seed, n_features=n_features, infer=infer, temperature=temperature)


def _spawn_group(state: OracleState, group_cfg: ObjectiveConfig) -> bool:
    """Queue the sibling rollouts of the next prompt, from the lookahead, else the source; False when exhausted."""
    drawn = state.lookahead.popleft() if state.lookahead else state.source.next_prompt(state.prompt_stream, group_cfg.group_size)
    if drawn is None:
        return False
    task, lengths = drawn
    group_uid = state.next_group_uid
    state.next_group_uid += 1
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


def _refill(state: OracleState, cfg: BudgetConfig, group_cfg: ObjectiveConfig, sampled_this_iter: int) -> int:
    """Admit pending rollouts and sample new prompts while capacity allows."""
    while len(state.infer_pool) < cfg.infer_capacity:
        if state.pending:
            state.infer_pool.append(state.pending.popleft())
            continue
        if sampled_this_iter >= cfg.prompts_per_iteration or not _spawn_group(state, group_cfg):
            break
        sampled_this_iter += 1
    return sampled_this_iter


def _load_version(state: OracleState, params: PolicyParams, cfg: BudgetConfig, group_cfg: ObjectiveConfig) -> None:
    """Fill the prompt lookahead, then evaluate in one table pass every row readable at params:
    all windows of the prompts in the pool, the pending queue and the lookahead, and the probe rows."""
    while len(state.lookahead) < cfg.prompts_per_iteration:
        drawn = state.source.next_prompt(state.prompt_stream, group_cfg.group_size)
        if drawn is None:
            break
        state.lookahead.append(drawn)
    live = dict.fromkeys(r.task.prompt_id for queue in (state.infer_pool, state.pending) for r in queue)
    live.update(dict.fromkeys(task.prompt_id for task, _ in state.lookahead))
    state.table.load(params, np.concatenate([rows_of(state.table, live), state.probe_rows]))


def _generate_tick(rollouts: list[Rollout], params: PolicyParams, state: OracleState) -> list[Rollout]:
    """One parallel token for every listed rollout, read from the state's context table.

    The rows are read after the table's check, which evaluates any row
    the version's pass missed. Each rollout samples its next token with
    its own next uniform. Returns the rollouts this token made terminal,
    in list order.
    """
    table = state.table
    table.load(params)
    n = len(rollouts)
    rows = np.fromiter((r.row for r in rollouts), np.intp, n)
    slots = table.check(rows)
    u = np.fromiter((r.uniforms[len(r.tokens)] for r in rollouts), np.float64, n)
    # Inverse CDF: the count of cdf entries <= u is searchsorted(side="right").
    tokens = np.minimum((table.cdf[:, slots] <= u).sum(axis=0), table.vocab_size - 1)
    version = params.version_id
    eos = state.vocab.eos_id
    finished: list[Rollout] = []
    for rollout, token, row, lp_inf, lp_tr in zip(
        rollouts,
        tokens.tolist(),
        table.advance(rows, tokens).tolist(),
        table.log_probs[1, slots, tokens].tolist(),
        table.log_probs[0, slots, tokens].tolist(),
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


def _purge_boundary(state: OracleState, cfg: BudgetConfig) -> int:
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
    state: OracleState,
    params_version: int,
    ticks: int,
    trained_tokens: int,
    completed: int,
    purged: int,
    resumed: int,
) -> tuple[StepReport, list[PromptGroup]]:
    """The close of an iteration: emit, report, advance the iteration.

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


def _rollout_loop(state, params_t, cfg, group_cfg, trace, baseline: bool) -> tuple[StepReport, list[PromptGroup]]:
    """The one rollout loop of both kinds of iteration; returns the report and the emitted groups.

    Budget-partitioned: refill the pool before every tick, and stop once
    the completed tokens reach cfg.token_budget or no rollout is left.
    Baseline: refill only an empty pool, and stop when a refill leaves
    it empty; it starts with an empty pool, so purges and resumes nothing.
    Raises TickCapError on a tick beyond cfg.tick_cap in the iteration.
    Each entry point calls it directly, so a traced run (perfbench/child.py)
    times an iteration under one span.
    """
    purged = _purge_boundary(state, cfg)
    resumed = sum(1 for r in state.infer_pool if r.tokens)
    _load_version(state, params_t, cfg, group_cfg)

    counter = ticks = completed = sampled_this_iter = 0
    while baseline or counter < cfg.token_budget:
        if not (baseline and state.infer_pool):
            sampled_this_iter = _refill(state, cfg, group_cfg, sampled_this_iter)
        if not state.infer_pool:
            break
        if ticks >= cfg.tick_cap:
            raise TickCapError(f"iteration {state.iteration} did not end within budget.tick_cap = {cfg.tick_cap} ticks")
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
                {"tick": state.tick_clock, "active": active, "completed": len(finished),
                 "counter": counter, "pool_after": len(state.infer_pool)}
            )
    return _close_iteration(state, params_t.version_id, ticks, counter, completed, purged, resumed)


def _probe_rows(
    params: PolicyParams, probes: list[Context], infer: Engine
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """context_rows of the probe set."""
    return context_rows(*probe_windows(probes), params.n_features, infer, params.version_id)


def delta_and_gap(
    params: PolicyParams, probes: list[Context], infer: Engine, temperature: float = 1.0
) -> tuple[float, float]:
    """(mean KL(infer || train) over probes, max |p_infer - p_train|)."""
    if not probes:
        raise ValueError("probe set must be non-empty")
    feats, keys_fixed, keys_version = _probe_rows(params, probes, infer)
    train_logits = batched_train_logits(params, feats, temperature)
    infer_logits = perturb_logits(train_logits, keys_fixed, keys_version, infer.mismatch_scale)
    lp_inf, p_inf = batched_log_softmax(infer_logits)
    lp_tr, p_tr = batched_log_softmax(train_logits)
    per_probe = (p_inf * (lp_inf - lp_tr)).sum(axis=1)
    return float(per_probe.mean()), float(np.abs(p_inf - p_tr).max())


def delta_gradient(
    params: PolicyParams, probes: list[Context], infer: Engine, temperature: float = 1.0
) -> np.ndarray:
    """Exact gradient of the probe-averaged KL w.r.t. the weights.

    Per probe, with p the inference and q the training distribution over
    the shared scaled logits s, a unit change of s_j moves the inference
    logit by the slope a_j of policy.inference_slope and the training
    logit plainly. With delta = sum_k p_k (lp_k - lq_k):

        d delta / d s_j = a_j p_j (lp_j - lq_j - delta) + q_j - p_j

    accumulated on the probe's active feature rows, divided by the
    temperature and the probe count. Raises NumericError, as
    delta_and_gap does, if the inference logits overflow.
    """
    feats, keys_fixed, keys_version = _probe_rows(params, probes, infer)
    train_logits = batched_train_logits(params, feats, temperature)
    fixed = fixed_noise(keys_fixed, train_logits.shape[1])
    infer_logits, fault_noise = inference_logits(train_logits, fixed, keys_version, infer.mismatch_scale)
    if not np.isfinite(infer_logits).all():
        raise NumericError(_NON_FINITE_INFER_LOGITS)
    slope = inference_slope(train_logits, fixed, fault_noise, infer.mismatch_scale)
    lp_inf, p_inf = batched_log_softmax(infer_logits)
    lp_tr, p_tr = batched_log_softmax(train_logits)
    ratio = lp_inf - lp_tr
    delta_rows = (p_inf * ratio).sum(axis=1, keepdims=True)
    d_s = slope * (p_inf * (ratio - delta_rows)) + p_tr - p_inf
    d_s /= temperature * len(probes)
    return weight_grad(feats, d_s, params.n_features)


def _exact_reward_gradient(
    params: PolicyParams,
    probes: list[Context],
    reward_table: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, float]:
    """On-policy policy gradient of a fixed synthetic reward, in closed form.

    Advantages are the rewards centered under the current training
    distribution, so the expected advantage is zero per probe and the
    per-probe gradient of E[reward] w.r.t. the scaled logits is q * A.
    """
    feats, _, _ = _probe_rows(params, probes, Engine())
    _, q = batched_log_softmax(batched_train_logits(params, feats, temperature))
    baseline = (q * reward_table).sum(axis=1, keepdims=True)
    d_s = q * (reward_table - baseline) / (temperature * len(probes))
    return weight_grad(feats, d_s, params.n_features), float(baseline.mean())
