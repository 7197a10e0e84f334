"""Synthetic verifiable-reward tasks: sampling and predicates."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import TaskKind, TaskSpec, Vocabulary, sample_prompt
from mismatchlab.tasks import copy_target_range, prompt_id_for
from mismatchlab.tasks import verify as batched_verify
from oracles import prefix_length, prefix_pattern
from oracles import verify as scalar_verify


def verify(task: TaskSpec, completion, vocab: Vocabulary) -> float:
    """The batched verify on one completion."""
    rewards = batched_verify(task.kind, np.array([task.target]), np.array([task.max_len]), np.array(completion, dtype=np.int64),
                             np.array([len(completion)]), vocab)
    assert rewards.shape == (1,) and rewards.dtype == np.float64
    return float(rewards[0])


def replay_oracle(stream: np.random.Generator, vocab: Vocabulary, max_len: int) -> TaskSpec:
    """Straight-line mirror of the documented draw order."""
    kinds = (TaskKind.PARITY_MATCH, TaskKind.TARGET_SUM, TaskKind.COPY_PREFIX)
    kind = kinds[int(stream.integers(0, 3))]
    if kind is TaskKind.PARITY_MATCH:
        target = int(stream.integers(0, 2))
    elif kind is TaskKind.TARGET_SUM:
        target = int(stream.integers(0, vocab.size))
    else:
        target = int(stream.integers(0, copy_target_range(vocab, max_len)))
    return TaskSpec(kind, prompt_id_for(kind, target), target, max_len)


def test_sample_prompt_replays_from_fixed_seed() -> None:
    vocab = Vocabulary(size=8)
    a = np.random.default_rng(404)
    b = np.random.default_rng(404)
    for _ in range(50):
        assert sample_prompt(a, vocab, 8) == replay_oracle(b, vocab, 8)


def test_kind_frequencies_one_third_within_three_sigma() -> None:
    vocab = Vocabulary(size=8)
    stream = np.random.default_rng(7)
    n = 10_000
    counts = {k: 0 for k in TaskKind}
    for _ in range(n):
        counts[sample_prompt(stream, vocab, 8).kind] += 1
    bound = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
    for k in TaskKind:
        assert abs(counts[k] / n - 1 / 3) <= bound


def test_equal_tasks_share_prompt_identity() -> None:
    vocab = Vocabulary(size=8)
    stream = np.random.default_rng(2)
    seen: dict[tuple, int] = {}
    for _ in range(300):
        t = sample_prompt(stream, vocab, 8)
        key = (t.kind, t.target)
        if key in seen:
            assert seen[key] == t.prompt_id
        seen[key] = t.prompt_id


@pytest.mark.parametrize("max_len", [0, -1])
def test_a_task_needs_a_positive_max_len(max_len: int) -> None:
    with pytest.raises(ValueError, match="^max_len must be >= 1$"):
        TaskSpec(TaskKind.PARITY_MATCH, 100, 0, max_len)


def test_parity_match_definitions() -> None:
    vocab = Vocabulary(size=8, eos_id=0)
    even = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 8)
    odd = TaskSpec(TaskKind.PARITY_MATCH, 101, 1, 8)
    assert verify(even, (3, 5), vocab) == 1.0
    assert verify(even, (3, 5, 0), vocab) == 1.0  # trailing EOS not counted
    assert verify(odd, (3, 5), vocab) == 0.0
    assert verify(odd, (3,), vocab) == 1.0
    assert verify(even, (), vocab) == 1.0


def test_target_sum_definitions() -> None:
    vocab = Vocabulary(size=8, eos_id=0)
    task = TaskSpec(TaskKind.TARGET_SUM, 203, 3, 8)
    assert verify(task, (), vocab) == 0.0  # empty sum is 0 != 3
    assert verify(task, (3,), vocab) == 1.0
    assert verify(task, (5, 6), vocab) == 1.0  # 11 mod 8 == 3
    zero = TaskSpec(TaskKind.TARGET_SUM, 200, 0, 8)
    assert verify(zero, (), vocab) == 1.0


def test_copy_prefix_definitions() -> None:
    vocab = Vocabulary(size=8, eos_id=0)
    task = TaskSpec(TaskKind.COPY_PREFIX, 305, 5, 8)
    pattern = prefix_pattern(task, vocab)
    assert len(pattern) == prefix_length(task) == 2
    assert all(t != vocab.eos_id for t in pattern)
    assert verify(task, pattern, vocab) == 1.0
    assert verify(task, pattern + (4, 0), vocab) == 1.0
    assert verify(task, (pattern[0],), vocab) == 0.0
    assert verify(task, ((pattern[0] + 1) % 8, pattern[1]), vocab) == 0.0


def test_verify_agrees_with_independent_predicate_oracle() -> None:
    vocab = Vocabulary(size=8, eos_id=0)
    rng = np.random.default_rng(9)

    def oracle(task: TaskSpec, completion: tuple[int, ...]) -> float:
        if task.kind is TaskKind.PARITY_MATCH:
            return 1.0 if len([t for t in completion if t != 0]) % 2 == task.target else 0.0
        if task.kind is TaskKind.TARGET_SUM:
            total = 0
            for t in completion:
                total += t
            return 1.0 if total % 8 == task.target else 0.0
        pat = prefix_pattern(task, vocab)
        if len(completion) < len(pat):
            return 0.0
        for a, b in zip(completion, pat):
            if a != b:
                return 0.0
        return 1.0

    for _ in range(500):
        task = sample_prompt(rng, vocab, 8)
        completion = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(0, 9)))
        assert verify(task, completion, vocab) == oracle(task, completion)


def test_each_kind_has_satisfying_and_non_satisfying_completions() -> None:
    vocab = Vocabulary(size=8, eos_id=0)
    rng = np.random.default_rng(31)
    for _ in range(60):
        task = sample_prompt(rng, vocab, max_len=4)
        outcomes = set()
        # brute force over completions of length <= 2 (within any max_len >= 2)
        outcomes.add(verify(task, (), vocab))
        for a in range(8):
            outcomes.add(verify(task, (a,), vocab))
            for b in range(8):
                outcomes.add(verify(task, (a, b), vocab))
        assert outcomes == {0.0, 1.0}


def test_verify_rejects_out_of_vocabulary_tokens() -> None:
    vocab = Vocabulary(size=8)
    task = TaskSpec(TaskKind.PARITY_MATCH, 100, 0, 8)
    with pytest.raises(ValueError):
        verify(task, (9,), vocab)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vocab_size=st.integers(2, 12),
    eos_id=st.integers(0, 11),
    max_len=st.sampled_from([1, 2, 3, 8, 40]),
    n=st.integers(1, 30),
    eos_rate=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_batched_verify_equals_the_scalar_oracle(seed, vocab_size, eos_id, max_len, n, eos_rate) -> None:
    """Random completions of every kind, lengths 1 to max_len, EOS anywhere: rewards equal completion by completion."""
    vocab = Vocabulary(size=vocab_size, eos_id=eos_id % vocab_size)
    rng = np.random.default_rng(seed)
    tasks = [sample_prompt(rng, vocab, max_len) for _ in range(n)]
    completions = []
    for _ in tasks:
        tokens = rng.integers(0, vocab.size, size=int(rng.integers(1, max_len + 1)))
        tokens[rng.random(tokens.size) < eos_rate] = vocab.eos_id
        completions.append(tokens.tolist())
    for kind in TaskKind:
        chosen = [i for i, task in enumerate(tasks) if task.kind is kind]
        got = batched_verify(
            kind, np.array([tasks[i].target for i in chosen], dtype=np.int64), np.full(len(chosen), max_len),
            np.array([t for i in chosen for t in completions[i]], dtype=np.int64), np.array([len(completions[i]) for i in chosen], dtype=np.intp), vocab,
        )
        assert got.tolist() == [scalar_verify(tasks[i], completions[i], vocab) for i in chosen]


def test_batched_verify_reads_eos_at_every_position() -> None:
    vocab = Vocabulary(size=5, eos_id=2)
    for max_len in (1, 2, 3, 6):
        tasks = [TaskSpec(kind, prompt_id_for(kind, target), target, max_len) for kind in TaskKind for target in range(4)]
        for length in range(1, max_len + 1):
            for at in range(length):
                completion = [(3 * k + 1) % 5 for k in range(length)]
                completion[at] = vocab.eos_id
                for task in tasks:
                    assert verify(task, completion, vocab) == scalar_verify(task, completion, vocab)


@pytest.mark.parametrize("completions,first", [([[1, 2], [3, -1, 9], [12]], -1), ([[1, 2], [3, 9, -1], [-4]], 9)])
def test_batched_verify_raises_the_scalar_error_on_the_first_token_outside_the_vocabulary(completions, first) -> None:
    vocab = Vocabulary(size=8)
    task = TaskSpec(TaskKind.TARGET_SUM, 203, 3, 8)
    with pytest.raises(ValueError) as want:
        for completion in completions:
            scalar_verify(task, completion, vocab)
    for kind in TaskKind:
        with pytest.raises(ValueError) as got:
            batched_verify(kind, np.full(3, 3), np.full(3, 8), np.array([t for c in completions for t in c]), np.array([2, 3, 1]), vocab)
        assert str(got.value) == str(want.value) == f"completion token {first} outside vocabulary"


def test_verify_builds_no_token_mask_to_check_the_vocabulary() -> None:
    """PARITY_MATCH on 1,024 completions of 8 in-range tokens, after a warm-up call.

    The traced peak above the call's start stays below its own arrays,
    147,456 bytes (each token's completion index, its non-EOS flag and
    that flag as a float64 weight, and the counts), plus 4 KB (147,992):
    the vocabulary check reads the tokens' min and max. An out-of-range
    mask built on every call peaks at 156,280.
    """
    vocab = Vocabulary(size=8)
    tokens, lengths = np.random.default_rng(2).integers(0, vocab.size, 8192), np.full(1024, 8)
    args = (TaskKind.PARITY_MATCH, np.zeros(1024, dtype=np.int64), np.full(1024, 8), tokens, lengths, vocab)
    batched_verify(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batched_verify(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 18 * tokens.size + 4096, f"peak {peak - start} bytes"
