"""Deterministic discrete-event simulator for budget-partitioned rollouts.

Time model: one tick generates one token for every active rollout in
parallel (idealized batched inference); rollout-phase cost is measured
in ticks and weight sync adds a fixed tick cost per iteration.

_rollout_loop runs both kinds of iteration. At its start an iteration
spawns, as one block, the full sibling groups of the prompts it draws,
so that the pending queue holds prompts_per_iteration whole groups; the
pool admits pending rollouts in order up to its capacity, and whole
groups it leaves pending carry over. A tick ends a rollout that reaches
its token limit, or a policy-length one that samples EOS; it turns
terminal and leaves the pool. A group is emitted for training once
every sibling is terminal. Budget-partitioned (C3PO++-style) iterations
refill before every tick and stop once the completed tokens reach the
token budget; unfinished rollouts carry over under the updated
parameters, and one that outlives the retention threshold is purged
with its whole group. The single-pass baseline refills only an empty
pool and stops when a refill leaves it empty: capacity-sized waves, and
nothing carries over. In both, budget.tick_cap bounds an iteration.

Live rollouts are columns of one int64 matrix, and their tokens slots of
flat per-token arrays, one block of slots per rollout. An iteration reads
one table version throughout, so a rollout's tokens, and so where it
ends, depend only on its row at the start of the iteration and its own
uniforms. Every iteration runs the same three steps. _sample_ahead
samples each live rollout that has an end token (a policy-length one,
which ends on EOS) up to its first end token or its last free slot; the
tokens it sampled are its ticks left, as a target-length rollout's free
slots are. _schedule then moves the pool from one end event to the next
with a heap of end ticks, which gives every admission (the tick at which
each rollout joins the pool, one array over the live rollouts), the
budget stop, what carries over and the tick cap. _sample last finishes
every token the iteration generated: it samples the slots of the
target-length rollouts, keeps of a rollout sampled ahead only the tokens
it generated, checks them, records each one's log probs under both
engines and its version, writes back the rollouts' rows and lengths, and
ends those that generated all they had left, so a token keeps the
version that sampled it even if its iteration hits the tick cap.
_sample_slots is the one sampler: one array step per token
position over the rollouts still sampling, and the last few in scalar
bisect_right steps. The table checks every generated read at its tick,
and no read made ahead past it: the NumericError is that of the first
tick that reads a non-finite row, before any later tick cap, and a
context the iteration never reads cannot fail it. Spawn writes a block
of rollouts, and the close only emits: it finds complete groups with a
bincount and verifies each task kind once, and the emitted groups reach
the objective as a flat RolloutBatch that carries each token's table
row. Sampling, the objective and the probe measure read both engines
from the state's ContextTable, which evaluates in one pass per version,
into one block in row order, every row readable then: the windows that
the rollouts of each live (prompt, end token) can read, and the probe
rows.

Each rollout samples with its own uniforms, one per token, so the pool's
order never perturbs another rollout's tokens. They are the first draws
of its stream default_rng(SeedSequence((seed & MASK64, 2, uid))), bit
for bit, which defines replay. seed_sequence_states runs numpy's
SeedSequence hash over each block of 1,024 uids at once, and
pcg64_uniforms gives every draw of a spawn's rollouts in array passes of
at most _DRAW_PASS (2,048) draws: PCG64's LCG jumps from each stream's
state straight to the state of each draw (128-bit states as uint64
hi/lo pairs), whatever the rollout's length. Each of a pass's two
128-bit products works in place on operands made for it once the one
before it is done, so a pass's temporaries, about 12 arrays of its
draws, stay near 190 KB, where one pass over a long-tail spawn's 4,500
or so draws would hold 0.4 MB.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .discrepancy import measure, probe_windows
from .errors import ConfigError, TickCapError
from .objective import (ObjectiveConfig, RolloutBatch, batch_group_advantages, empty_breakdown, objective_and_grad,
                        sgd_update)
from .policy import _MASK64, Context, ContextTable, Engine, PolicyParams, Vocabulary
# The direct engine path and the momentum update, no longer called here: perfbench/child.py wraps these names where
# each layer binds them.
from .objective import momentum_update  # noqa: F401
from .policy import batched_log_softmax, batched_train_logits, perturb_logits  # noqa: F401
from .tasks import TaskKind, TaskSpec, all_prompt_ids, sample_prompt, verify


@dataclass(frozen=True)
class BudgetConfig:
    """Inputs of the rollout loop; also the experiment config's budget section.

    Each iteration spawns prompts until the pending queue holds
    prompts_per_iteration whole groups, or the prompt source runs out.
    token_budget ends a budget-partitioned iteration; the baseline
    ignores it. tick_cap is the most ticks one iteration may take, in
    either mode; the tick beyond it raises TickCapError.
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


@dataclass(eq=False)
class SyntheticPromptSource:
    """Endless sampled tasks; optionally draws a target length per rollout."""

    vocab: Vocabulary
    max_len: int
    length_model: str = "policy"
    median: float = 32.0
    sigma: float = 1.0

    def next_prompt(
        self, stream: np.random.Generator, group_size: int
    ) -> tuple[TaskSpec, list[int | None]] | None:
        task = sample_prompt(stream, self.vocab, self.max_len)
        if self.length_model == "policy":
            return task, [None] * group_size
        draws = stream.lognormal(math.log(self.median), self.sigma, size=group_size)
        # Clamped before rounding, half to even as round() does: a wide sigma can draw inf.
        return task, np.rint(np.clip(draws, 1.0, self.max_len)).astype(np.int64).tolist()


# The columns of SchedulerState.rollouts, one int64 entry per live rollout: its uid and group uid; its
# task's prompt id, TaskKind code, target and max_len; its context's table row; the start of its block
# of limit token slots, its length and limit; the token that ends it (EOS without a target length,
# else -1); its retention period; and 1 once terminal.
_N_COLUMNS = 13
(_UID, _GROUP, _PROMPT, _KIND, _TARGET, _MAX_LEN, _ROW, _START, _LENGTH, _LIMIT, _END_TOKEN, _RETENTION,
 _TERMINAL) = range(_N_COLUMNS)
_KIND_CODE = {kind: code for code, kind in enumerate(TaskKind)}
# The arrays of SchedulerState.slots, one entry per token slot: its uniform, and once generated the token,
# the table row of its context, its log probs under both engines and its parameter version.
_SLOTS = {"uniform": np.float64, "token": np.int64, "context": np.intp, "lp_train": np.float64, "lp_infer": np.float64,
          "version": np.int64}


@dataclass
class SchedulerState:
    """The live rollouts as arrays, and the run's counters.

    rollouts holds each live rollout as one column, in uid order: the
    inference pool (the admitted non-terminal ones), the terminal ones
    waiting for their group, and, as the last n_pending, the pending
    queue: at most one partly admitted group, then whole groups. Each
    owns a block of limit slots in slots, in the same order from slot 0.
    The slot store grows to what the live rollouts' blocks need, to the
    slot, and never shrinks: its length is the largest need so far.
    probe_rows are train_loop's probe rows. The prompt stream is
    default_rng(SeedSequence((seed & MASK64, 1))), and the context table,
    of infer at temperature over n_features, holds every prompt the task
    distribution can draw.
    """

    vocab: Vocabulary
    source: SyntheticPromptSource
    seed: int
    n_features: InitVar[int]
    infer: InitVar[Engine]
    temperature: InitVar[float] = 1.0
    rollouts: np.ndarray = field(default_factory=lambda: np.zeros((_N_COLUMNS, 0), dtype=np.int64))
    n_pending: int = 0
    slots: dict[str, np.ndarray] = field(default_factory=lambda: {name: np.zeros(0, dtype) for name, dtype in _SLOTS.items()})
    probe_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    iteration: int = 0
    next_uid: int = 0
    next_group_uid: int = 0
    prompt_stream: np.random.Generator = field(init=False)
    table: ContextTable = field(init=False)
    rollout_uniforms: RolloutUniforms = field(init=False)

    def __post_init__(self, n_features: int, infer: Engine, temperature: float) -> None:
        self.prompt_stream = np.random.default_rng(np.random.SeedSequence((self.seed & _MASK64, 1)))
        self.table = ContextTable(all_prompt_ids(self.vocab), n_features, self.vocab.size, infer, temperature)
        self.rollout_uniforms = RolloutUniforms(self.seed)


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


_UID_BLOCK = 1024  # divides 2**32, so only a uid's low word varies within a block
_DRAW_PASS = 2048  # the most uniforms pcg64_uniforms computes in one array pass
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG_DEFAULT_MULTIPLIER_128
_MASK128 = (1 << 128) - 1
# A jump table's column n holds the hi and lo words of A**n and of C_n = the sum of A**j over j < n, mod 2**128,
# where A is _PCG64_MULT: n LCG steps take a state s with increment inc to A**n * s + C_n * inc. This one holds
# column 0 only; pcg64_uniforms grows a table as far as its passes need, to _DRAW_PASS + 2 columns at most.
JUMPS = np.array([[0], [1], [0], [0]], dtype=np.uint64)
JUMPS.flags.writeable = False


def _jump_table(jumps: np.ndarray, n: int) -> np.ndarray:
    """A jump table with at least n columns, jumps or jumps extended. While it has fewer, m of them, it grows by
    up to m columns: one Python int step from its last column gives A**m and C_m, and A**(m + j) = A**m * A**j,
    C_(m + j) = C_m + A**m * C_j."""
    while jumps.shape[1] < n:
        a_hi, a_lo, c_hi, c_lo = jumps[:, -1].tolist()
        a, c = a_hi << 64 | a_lo, c_hi << 64 | c_lo
        a, c = a * _PCG64_MULT & _MASK128, (c + a) & _MASK128
        a_hi, a_lo, c_hi, c_lo = (np.uint64(w) for w in (a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        head = jumps[:, : n - jumps.shape[1]].copy()  # _mul128 overwrites it
        grown = [*_mul128(a_hi, a_lo, head[0], head[1]), *_add128(c_hi, c_lo, *_mul128(a_hi, a_lo, head[2], head[3]))]
        jumps = np.concatenate([jumps, grown], axis=1)
    return jumps


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128 for uint64 (hi, lo) arrays, in place: the array operands are overwritten, the high word
    is written into a_lo, and the low word and three scratch arrays are new. The high word of a_lo * b_lo comes
    from 32-bit limbs (no carry is lost)."""
    a_hi *= b_lo  # the cross terms a_hi * b_lo and a_lo * b_hi
    np.multiply(a_lo, b_hi, out=b_hi)
    lo, a0, b0 = a_lo * b_lo, a_lo & _MASK32, b_lo & _MASK32
    a_lo >>= 32  # a1
    b_lo >>= 32  # b1
    t = a_lo * b0
    t += np.right_shift(np.multiply(a0, b0, out=b0), 32, out=b0)
    a0 *= b_lo
    a0 += np.bitwise_and(t, _MASK32, out=b0)  # u
    a_lo *= b_lo
    for term in (np.right_shift(t, 32, out=t), np.right_shift(a0, 32, out=a0), a_hi, b_hi):
        a_lo += term
    return a_lo, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _jump(jumps: np.ndarray, steps: np.ndarray, repeats, x_hi, x_lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """The states steps[j] LCG steps after state x[i] with increment inc[i], row i repeated repeats[i] times, by the
    jump table's columns. Each product takes its operands as new arrays (_mul128 overwrites them) once the one
    before it is done."""
    return _add128(*_mul128(*(words.take(steps) for words in jumps[:2]), x_hi.repeat(repeats), x_lo.repeat(repeats)),
                   *_mul128(*(words.take(steps) for words in jumps[2:]), inc_hi.repeat(repeats), inc_lo.repeat(repeats)))


def pcg64_uniforms(seed_states: np.ndarray, counts, jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first counts[i] uniforms of a PCG64 per row i of (n, 4) seed words, concatenated in row order, and
    the jump table they read: jumps (JUMPS, or a table this function returned), grown as far as they need.

    Row i draws what Generator(PCG64) seeded from SeedSequence words
    seed_states[i] gives with random(counts[i]). pcg64_set_seed leaves
    the state A * x + inc, where x is the seed state plus the increment
    inc, and each draw steps before its output, so draw k reads the
    state A**(k + 2) * x + C_(k + 2) * inc. Each array pass computes it
    for up to _DRAW_PASS consecutive (row, k) pairs of the output, in
    128-bit products on uint64 (hi, lo) words, then the XSL-RR output
    and (x >> 11) * 2**-53. A row that a pass leaves unfinished jumps its
    x by the draws it made there, so the next pass counts its steps from
    its first draw in that pass: the temporaries and the table stop at
    _DRAW_PASS draws, however long a row or the whole draw is. A pass
    peaks at its second product, at about 12 arrays of its draws: its
    steps, the first product's two words, and the four operands that
    _mul128 overwrites and the four arrays it allocates; its output words
    are released before the next pass starts.
    """
    counts = np.asarray(counts, dtype=np.intp)
    jumps = _jump_table(jumps, min(counts.max(initial=0), _DRAW_PASS) + 2)
    w0, w1, w2, w3 = np.asarray(seed_states, dtype=np.uint64).T
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    x_hi, x_lo = _add128(w0, w1, inc_hi, inc_lo)
    edges = np.concatenate([[0], np.cumsum(counts)])  # row i's draws are those from edges[i] to edges[i + 1]
    uniforms = np.empty(int(edges[-1]))
    for lo in range(0, uniforms.size, _DRAW_PASS):
        hi = min(lo + _DRAW_PASS, uniforms.size)
        first = np.minimum(np.maximum(edges, lo), hi)  # row i's draws in this pass are first[i] to first[i + 1]
        drawn = np.diff(first)
        steps = np.arange(lo + 2, hi + 2) - np.repeat(first[:-1], drawn)
        pass_hi, pass_lo = _jump(jumps, steps, drawn, x_hi, x_lo, inc_hi, inc_lo)
        x, rot = pass_hi ^ pass_lo, pass_hi >> 58
        uniforms[lo:hi] = ((x >> rot | x << (-rot & 63)) >> 11) * 2.0**-53
        del pass_hi, pass_lo, x, rot  # here, so that the next pass's products do not hold them beside their own
        if hi < uniforms.size:  # the row of draw hi continues in the next pass
            r = slice(i := int(np.searchsorted(edges, hi, side="right")) - 1, i + 1)
            x_hi[r], x_lo[r] = _jump(jumps, drawn[r], 1, x_hi[r], x_lo[r], inc_hi[r], inc_lo[r])
    return uniforms, jumps


class RolloutUniforms:
    """The draws of each rollout's stream default_rng(SeedSequence((seed & MASK64, 2, uid))).

    uids are issued in order, so only the seed states of the current
    aligned block of _UID_BLOCK uids are kept, from one
    seed_sequence_states call. A block of 1,024 uids bounds both that
    call's temporaries and the states kept (32 KB), at the cost of one
    block computation per 1,024 rollouts. pcg64_uniforms jumps each
    rollout's stream to every draw it needs, through a jump table kept as
    long as the longest draw so far, or one pass.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._block = -1
        self._states = np.zeros((0, 4), dtype=np.uint64)
        self._jumps = JUMPS

    def draw(self, first_uid: int, counts) -> np.ndarray:
        """The first counts[i] uniforms of uid first_uid + i's stream, as Generator.random gives them,
        concatenated in uid order."""
        counts = np.asarray(counts, dtype=np.intp)
        block, offset = divmod(first_uid, _UID_BLOCK)
        if offset + counts.size > _UID_BLOCK:  # the uids run into the next block
            split = _UID_BLOCK - offset
            return np.concatenate([self.draw(first_uid, counts[:split]), self.draw(first_uid + split, counts[split:])])
        if block != self._block:
            self._states = self._block_states(block)
            self._block = block
        uniforms, self._jumps = pcg64_uniforms(self._states[offset : offset + counts.size], counts, self._jumps)
        return uniforms

    def _block_states(self, block: int) -> np.ndarray:
        head = _seed_words(self.seed & _MASK64, 2)
        entropy = np.tile(np.concatenate([head, _seed_words(block * _UID_BLOCK)]), (_UID_BLOCK, 1))
        entropy[:, head.size] += np.arange(_UID_BLOCK, dtype=np.uint32)
        return seed_sequence_states(entropy)


def spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges [starts[i], starts[i] + lengths[i]), concatenated in order."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(int(lengths.sum()))


def _keep(state: SchedulerState, keep: np.ndarray) -> None:
    """Keep only the rollouts where keep is set, their slot blocks packed in order."""
    rollouts = state.rollouts[:, keep]
    at = spans(rollouts[_START], rollouts[_LIMIT])
    for column in state.slots.values():
        column[: at.size] = column[at]
    rollouts[_START] = np.cumsum(rollouts[_LIMIT]) - rollouts[_LIMIT]
    state.rollouts = rollouts


def _spawn_groups(state: SchedulerState, wanted: int, group_size: int) -> None:
    """Queue the sibling rollouts of up to wanted prompts drawn from the source, fewer only once it runs out,
    as one block of pending rollouts whose slots take their uniforms in one draw."""
    groups, lengths = [], []
    while len(groups) < wanted and (drawn := state.source.next_prompt(state.prompt_stream, group_size)) is not None:
        task, targets = drawn
        groups.append((0, state.next_group_uid + len(groups), task.prompt_id, _KIND_CODE[task.kind], task.target, task.max_len,
                       state.table.prompt_row(task.prompt_id), 0, 0, task.max_len, state.vocab.eos_id, 0, 0))
        lengths.append(targets)
    if not groups:
        return
    target = np.array(lengths, dtype=np.float64).ravel()  # a missing target length is nan
    has_target = ~np.isnan(target)
    block = np.repeat(np.array(groups, dtype=np.int64).T, group_size, axis=1)
    block[_UID] = np.arange(state.next_uid, state.next_uid + target.size)
    block[_LIMIT][has_target] = np.maximum(target[has_target], 1)
    block[_END_TOKEN][has_target] = -1
    end = int(state.rollouts[_START, -1] + state.rollouts[_LIMIT, -1]) if state.rollouts.shape[1] else 0
    block[_START] = end + np.cumsum(block[_LIMIT]) - block[_LIMIT]
    new_end = int(block[_START, -1] + block[_LIMIT, -1])
    if new_end > state.slots["uniform"].size:  # to the need, a column at a time: one old column is held beside the new ones
        for name, column in state.slots.items():
            state.slots[name] = np.zeros(new_end, column.dtype)
            state.slots[name][:end] = column[:end]
    state.slots["uniform"][end:new_end] = state.rollout_uniforms.draw(state.next_uid, block[_LIMIT])
    state.rollouts = np.concatenate([state.rollouts, block], axis=1)
    state.n_pending += target.size
    state.next_uid += target.size
    state.next_group_uid += len(groups)


def _in_pool(state: SchedulerState) -> np.ndarray:
    """Mask of the rollouts in the inference pool: admitted and not terminal."""
    in_pool = state.rollouts[_TERMINAL] == 0
    in_pool[state.rollouts.shape[1] - state.n_pending :] = False
    return in_pool


def _load_version(state: SchedulerState, params: PolicyParams, cfg: BudgetConfig, group_cfg: ObjectiveConfig) -> None:
    """Spawn the iteration's prompts, so that the pending queue holds prompts_per_iteration whole groups unless
    the source runs out, then evaluate in one table pass every row readable at params: the windows a rollout
    of each live (prompt, end token) pair can read, and the probe rows."""
    _spawn_groups(state, cfg.prompts_per_iteration - state.n_pending // group_cfg.group_size, group_cfg.group_size)
    live = dict.fromkeys(zip(*state.rollouts[[_PROMPT, _END_TOKEN]].tolist()))
    state.table.load(params, np.concatenate([state.table.readable_rows(live), state.probe_rows]))


def _purge_boundary(state: SchedulerState, cfg: BudgetConfig) -> int:
    """Age carried-over rollouts, purge overextended ones with their groups."""
    rollouts = state.rollouts
    in_pool = _in_pool(state)
    rollouts[_RETENTION][in_pool] += 1
    dead_groups = rollouts[_GROUP][in_pool & (rollouts[_RETENTION] > cfg.retention_threshold)]
    if not dead_groups.size:
        return 0
    dead = np.isin(rollouts[_GROUP], dead_groups)
    state.n_pending -= int(dead[rollouts.shape[1] - state.n_pending :].sum())
    _keep(state, ~dead)
    return int(dead.sum())


def _close_iteration(state: SchedulerState, group_size: int) -> RolloutBatch:
    """The close of an iteration: emit, in group order, every group whose siblings are all terminal, as one
    batch; its rollouts leave state.rollouts."""
    rollouts, slots = state.rollouts, state.slots
    group = rollouts[_GROUP] - rollouts[_GROUP, :1].sum()  # group uids from 0; they rise along the rollouts
    ready = (np.bincount(group, weights=rollouts[_TERMINAL]) == np.bincount(group))[group]
    emitted = rollouts[:, ready]
    lengths = emitted[_LENGTH]
    at = spans(emitted[_START], lengths)
    tokens = slots["token"][at]
    rewards = np.zeros(lengths.size)
    for kind, code in _KIND_CODE.items():
        of_kind = emitted[_KIND] == code
        if of_kind.any():
            rewards[of_kind] = verify(kind, emitted[_TARGET][of_kind], emitted[_MAX_LEN][of_kind],
                                      tokens[np.repeat(of_kind, lengths)], lengths[of_kind], state.vocab)
    rewards = rewards.reshape(-1, group_size)
    batch = RolloutBatch(group_size, lengths, emitted[_PROMPT], rewards.ravel(), batch_group_advantages(rewards).ravel(),
                         emitted[_UID], tokens, *(slots[name][at] for name in ("context", "lp_train", "lp_infer", "version")))
    if lengths.size:
        _keep(state, ~ready)
    return batch


class _Schedule(NamedTuple):
    """An iteration as _schedule runs it, by end events alone.

    admitted has one entry per column of state.rollouts: the tick at
    which that rollout joined the pool (0 for the pool at the start), or
    -1 if it was not in the pool during the iteration. ticks is the
    iteration's length, counter the tokens of the ended rollouts, and
    capped whether the tick after the last one would exceed tick_cap.
    """

    admitted: np.ndarray
    ticks: int
    counter: int
    capped: bool


def _schedule(state: SchedulerState, cfg: BudgetConfig, pool: np.ndarray, left: np.ndarray, baseline: bool) -> _Schedule:
    """The iteration's ticks without their tokens: the pool moves from one end event to the next, refills
    where a tick-by-tick loop refills and stops where it stops. A rollout ends left[c] ticks after it joins
    the pool, at its limit or its end token, and counts length + left tokens toward the budget."""
    admitted = np.full(left.size, -1, dtype=np.int64)
    admitted[pool] = 0
    total, left = (state.rollouts[_LENGTH] + left).tolist(), left.tolist()
    ends = [(left[c], c) for c in pool.tolist()]  # a heap of (the tick that ends it, its column)
    heapq.heapify(ends)
    ticks, counter, capped = 0, 0, False
    while baseline or counter < cfg.token_budget:
        if not (baseline and ends):  # admit pending rollouts, in queue order, up to the pool's capacity
            first, joined = state.rollouts.shape[1] - state.n_pending, min(cfg.infer_capacity - len(ends), state.n_pending)
            state.n_pending -= joined
            admitted[first : first + joined] = ticks
            for c in range(first, first + joined):
                heapq.heappush(ends, (ticks + left[c], c))
        if not ends or (capped := ticks >= cfg.tick_cap):
            break
        until = min(ends[0][0], cfg.tick_cap)
        while ends and ends[0][0] == until:
            counter += total[heapq.heappop(ends)[1]]
        ticks = until
    return _Schedule(admitted, ticks, counter, capped)


_SCALAR_TAIL = 8  # the sampler's last rollouts finish in scalar steps


def _sample_slots(state: SchedulerState, first: np.ndarray, counts: np.ndarray, row: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Sample from each row[i] up to counts[i] tokens into the slots from first[i] on, stopping right after a
    token equal to end[i] (-1 for none); returns how many tokens each sampled.

    A rollout's tokens depend only on its own uniforms and the loaded
    table, so the order of sampling is free. One array step per token
    position samples the rollouts still sampling, until _SCALAR_TAIL are
    left, which finish in bisect_right steps on their rows' CDF lists.
    Without an end token, the rollouts go longest first, so those still
    sampling form a prefix that narrows only as counts run out, and the
    slots of every step are gathered at once. With one, each step drops
    the rollouts that sampled their end token or filled their count. A
    token is the count of its row's CDF entries at or below its uniform;
    the table keeps V - 1 of them, which clamps the count.
    """
    if not counts.size:
        return counts
    table, slots = state.table, state.slots
    uniform, cdf, slot = slots["uniform"], table.cdf, table.slot
    sampled = counts.copy()
    ats, reads, tokens = [], [], []
    if end.max(initial=-1) < 0:
        who = np.argsort(-counts, kind="stable")
        first, counts, row, end = first[who], counts[who], row[who], end[who]
        step = int(counts[_SCALAR_TAIL]) if counts.size > _SCALAR_TAIL else 0
        widths = np.searchsorted(-counts, -np.arange(step))  # rollouts still sampling at each position
        at = first[spans(np.zeros_like(widths), widths)] + np.repeat(np.arange(step), widths)
        ats.append(at)
        drawn = uniform[at]
        for lo, width in zip((np.cumsum(widths) - widths).tolist(), widths.tolist()):
            read = row[:width]
            token = (cdf.take(slot.take(read), axis=1) <= drawn[lo : lo + width]).sum(axis=0)
            reads.append(read)
            tokens.append(token)
            row = table.advance(read, token)
    else:
        step, keep = 0, counts > 0
        # One column per rollout still sampling: its first slot, count, end token and index.
        live, row = np.stack([first, counts, end, np.arange(counts.size)])[:, keep], row[keep]
        while live.shape[1] > _SCALAR_TAIL:
            at = live[0] + step
            token = (cdf.take(slot.take(row), axis=1) <= uniform[at]).sum(axis=0)
            ats.append(at)
            reads.append(row)
            tokens.append(token)
            row = table.advance(row, token)
            step += 1
            ended = token == live[2]
            ended |= live[1] == step
            if np.count_nonzero(ended):
                sampled[live[3, ended]] = step
                keep = np.logical_not(ended, out=ended)
                live, row = live[:, keep], row[keep]
        first, counts, end, who = live
    if tokens:
        at = np.concatenate(ats)
        slots["token"][at] = np.concatenate(tokens)
        slots["context"][at] = np.concatenate(reads)
    lists = {}  # row -> (its cdf entries, the row it advances to on token 0); bisect_right counts the entries <= u
    tail = slice(_SCALAR_TAIL)
    for r, i, lo, hi, e in zip(row[tail].tolist(), who[tail].tolist(), (first[tail] + step).tolist(),
                               (first[tail] + counts[tail]).tolist(), end[tail].tolist()):
        tokens, reads = [], []
        for u in uniform[lo:hi].tolist():
            if r not in lists:
                lists[r] = cdf[:, slot[r]].tolist(), int(table.advance(r, 0))
            entries, after = lists[r]
            reads.append(r)
            r = after + bisect.bisect_right(entries, u)
            tokens.append(r - after)
            if r - after == e:
                sampled[i] = step + len(tokens)
                break
        slots["token"][lo : lo + len(tokens)] = tokens
        slots["context"][lo : lo + len(tokens)] = reads
    return sampled


def _sample_ahead(state: SchedulerState) -> np.ndarray:
    """The ticks each live rollout has left to generate: its free slots, or for a non-terminal one with an
    end token, as many as it samples, into its slots, up to its first end token or its last free slot."""
    rollouts = state.rollouts
    left = rollouts[_LIMIT] - rollouts[_LENGTH]
    ahead = np.flatnonzero((rollouts[_END_TOKEN] >= 0) & (rollouts[_TERMINAL] == 0))
    live = rollouts[:, ahead]
    left[ahead] = _sample_slots(state, live[_START] + live[_LENGTH], left[ahead], live[_ROW], live[_END_TOKEN])
    return left


def _sample(state: SchedulerState, plan: _Schedule, left: np.ndarray, version: int) -> int:
    """Finish every token plan's rollouts generated: sample the slots of its target-length rollouts, check
    every generated read, record each token's log probs under both engines and the version, write back
    the rollouts' rows and lengths, and end those that generated all of left; returns how many ended.

    Each rollout generates min(left, ticks - admitted) tokens, each from
    its row at the start of the iteration. One with an end token was
    sampled ahead: the reads it made past its generated tokens are
    discarded unchecked, so a context the iteration never reads cannot
    fail it. The table checks the generated reads at their ticks
    (admission tick plus position), so the NumericError is that of the
    first tick that reads a non-finite row. The table holds the
    generating version until the next load, so every token keeps its own
    version and log probs, also when its rollout carries over or its
    iteration hits the tick cap.
    """
    rollouts, slots, table = state.rollouts, state.slots, state.table
    columns = np.flatnonzero(plan.admitted >= 0)
    admitted, left = plan.admitted[columns], left[columns]
    live = rollouts[:, columns]
    first = live[_START] + live[_LENGTH]
    counts = np.minimum(left, plan.ticks - admitted)
    later = live[_END_TOKEN] < 0
    _sample_slots(state, first[later], counts[later], live[_ROW][later], live[_END_TOKEN][later])
    at = spans(first, counts)
    context, token = slots["context"][at], slots["token"][at]
    read = table.check(context, at - np.repeat(first - admitted, counts))
    slots["lp_train"][at], slots["lp_infer"][at] = table.log_probs[:, read, token]
    slots["version"][at] = version
    generated = counts > 0
    last = (first + counts - 1)[generated]
    rollouts[_ROW][columns[generated]] = table.advance(slots["context"][last], slots["token"][last])
    rollouts[_LENGTH][columns] += counts
    ended = columns[counts == left]
    rollouts[_TERMINAL][ended] = 1
    return ended.size


def _rollout_loop(state, params_t, cfg, group_cfg, baseline: bool) -> tuple[StepReport, RolloutBatch]:
    """The one rollout loop of both kinds of iteration; returns the report and the emitted batch.

    Budget-partitioned: refill the pool before every tick, and stop once
    the completed tokens reach cfg.token_budget or no rollout is left.
    Baseline: refill only an empty pool, and stop when a refill leaves
    it empty; it starts with an empty pool, so purges and resumes nothing.
    Raises TickCapError on a tick beyond cfg.tick_cap in the iteration.
    Every iteration takes one path: its rollouts with an end token are
    sampled ahead to that token, its ticks are scheduled by end events,
    and its target-length rollouts are sampled after. Each entry point
    calls it directly, so a traced run (perfbench/child.py) times an
    iteration under one span.
    """
    purged = _purge_boundary(state, cfg)
    pool = np.flatnonzero(_in_pool(state))
    resumed = int(np.count_nonzero(state.rollouts[_LENGTH][pool]))
    _load_version(state, params_t, cfg, group_cfg)
    left = _sample_ahead(state)
    plan = _schedule(state, cfg, pool, left, baseline)
    completed = _sample(state, plan, left, params_t.version_id)
    if plan.capped:
        raise TickCapError(f"iteration {state.iteration} did not end within budget.tick_cap = {cfg.tick_cap} ticks")
    batch = _close_iteration(state, group_cfg.group_size)
    emitted_tokens = int(batch.lengths.sum())
    report = StepReport(
        iteration=state.iteration, rollout_ticks=plan.ticks, trained_tokens=plan.counter, purged_rollouts=purged,
        resumed_rollouts=resumed, completed_rollouts=completed, emitted_groups=len(batch), emitted_tokens=emitted_tokens,
        stale_token_fraction=int((batch.versions < params_t.version_id).sum()) / emitted_tokens if emitted_tokens else 0.0,
        reward_mean=float(np.mean(batch.rewards)) if len(batch) else math.nan,
    )
    state.iteration += 1
    return report, batch


def run_iteration(state: SchedulerState, params_t: PolicyParams, cfg: BudgetConfig,
                  group_cfg: ObjectiveConfig) -> tuple[StepReport, RolloutBatch]:
    """One budget-partitioned iteration."""
    return _rollout_loop(state, params_t, cfg, group_cfg, baseline=False)


def run_iteration_baseline(state: SchedulerState, params_t: PolicyParams, cfg: BudgetConfig,
                           group_cfg: ObjectiveConfig) -> tuple[StepReport, RolloutBatch]:
    """One single-pass iteration: its prompt batch run to termination, nothing carried over."""
    return _rollout_loop(state, params_t, cfg, group_cfg, baseline=True)


def train_loop(
    n_iterations: int,
    state: SchedulerState,
    params: PolicyParams,
    cfg: BudgetConfig,
    objective: ObjectiveConfig,
    probes: list[Context],
    baseline: bool = False,
    on_step=None,
) -> PolicyParams:
    """Alternate rollout generation, objective/gradient, update, weight sync; return the final parameters.

    The objective config gives the masking bounds and the learning rate
    of the plain gradient step. Resumed rollouts keep their recorded
    token history, so stale tokens retain the version that generated
    them. A run is a fold: on_step, when given, is called with
    (report, loss, sample) as each iteration lands, before its update,
    so a caller flushes metrics before a potential numeric failure and
    folds what it writes (sums such as the tick clock, lists of scalars,
    per-token arrays) there. The loop keeps nothing per iteration, so
    what a run holds does not grow with its length: it releases the
    emitted batch as soon as the objective has read it, before the probe
    measure, and the report, loss and sample after the update.

    The rollout ticks, the objective and the probe measure all read the
    state's context table at the iteration's parameters, which the
    table evaluates once.
    """
    table = state.table
    probe_rows = state.probe_rows = table.rows(*probe_windows(probes))
    step = run_iteration_baseline if baseline else run_iteration
    for _ in range(n_iterations):
        report, batch = step(state, params, cfg, objective)
        loss = objective_and_grad(batch, params, objective, table) if batch else empty_breakdown(params)
        del batch  # read by the objective alone, so released before the probe measure
        sample = measure(params, probes, table.infer, table.temperature, step=report.iteration, table=table, rows=probe_rows)
        if on_step is not None:
            on_step(report, loss, sample)
        if loss.token_count:  # an emitted batch, which has a token; the placeholder counts none
            params = sgd_update(params, loss.grad, objective.learning_rate)
        # Released here, not when the next iteration rebinds them, so they do not add to its peak.
        del report, loss, sample
    return params
