"""Synthetic verifiable-reward tasks.

Three binary-reward task kinds keep reward variance alive across groups:
parity of the non-EOS token count, token-id sum modulo the vocabulary
size, and copying a prescribed short prefix. Each kind has both
satisfying and non-satisfying completions within any max_len; verify
checks a batch of completions of one kind at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .policy import Vocabulary


class TaskKind(enum.Enum):
    PARITY_MATCH = "parity_match"
    TARGET_SUM = "target_sum"
    COPY_PREFIX = "copy_prefix"


_KINDS = (TaskKind.PARITY_MATCH, TaskKind.TARGET_SUM, TaskKind.COPY_PREFIX)


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    prompt_id: int
    target: int
    max_len: int

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


# Distinct COPY_PREFIX patterns in the prompt pool; small enough that
# prompts recur and per-prompt behavior is learnable.
COPY_PATTERN_POOL = 12

_PROMPT_ID_BASE = {
    TaskKind.PARITY_MATCH: 100,
    TaskKind.TARGET_SUM: 200,
    TaskKind.COPY_PREFIX: 300,
}
MAX_VOCAB_SIZE = 100  # all_prompt_ids' bound: above it two task kinds share prompt ids


def prompt_id_for(kind: TaskKind, target: int) -> int:
    """Stable prompt identity: equal (kind, target) tasks share a prompt."""
    return _PROMPT_ID_BASE[kind] + target


def copy_target_range(vocab: Vocabulary, max_len: int) -> int:
    k = min(2, max_len)
    return min((vocab.size - 1) ** k, COPY_PATTERN_POOL)


def all_prompt_ids(vocab: Vocabulary) -> list[int]:
    """Every prompt id sample_prompt can draw at any max_len, ascending: the copy range stops growing at max_len 2."""
    if vocab.size > MAX_VOCAB_SIZE:
        raise ValueError(f"vocabulary size {vocab.size} > {MAX_VOCAB_SIZE}: TARGET_SUM prompt ids (200 + target) "
                         "collide with COPY_PREFIX ids (300 + pattern)")
    ranges = {TaskKind.PARITY_MATCH: 2, TaskKind.TARGET_SUM: vocab.size, TaskKind.COPY_PREFIX: copy_target_range(vocab, 2)}
    return sorted({prompt_id_for(kind, target) for kind, n in ranges.items() for target in range(n)})


def sample_prompt(stream: np.random.Generator, vocab: Vocabulary, max_len: int) -> TaskSpec:
    """Draw a task uniformly over kinds and over the kind's parameter range.

    Draw order (one integers() call each, relied on by replay tests):
    kind index in [0, 3), then the kind-specific target range: parity in
    [0, 2), sum target in [0, size), prefix payload in
    [0, copy_target_range). The prompt id is derived from (kind, target)
    so identical tasks share a prompt identity.
    """
    kind = _KINDS[int(stream.integers(0, len(_KINDS)))]
    if kind is TaskKind.PARITY_MATCH:
        target = int(stream.integers(0, 2))
    elif kind is TaskKind.TARGET_SUM:
        target = int(stream.integers(0, vocab.size))
    else:
        target = int(stream.integers(0, copy_target_range(vocab, max_len)))
    return TaskSpec(
        kind=kind, prompt_id=prompt_id_for(kind, target), target=target, max_len=max_len
    )


def verify(kind: TaskKind, targets: np.ndarray, max_lens: np.ndarray, tokens: np.ndarray, lengths: np.ndarray,
           vocab: Vocabulary) -> np.ndarray:
    """Binary rewards of completions of one task kind, given flat with their lengths, and their tasks'
    targets and max_lens: 1.0 where a completion satisfies its task. Raises ValueError on the first
    token, in that order, outside the vocabulary. The check reads the tokens' min and max, so it allocates
    nothing; the mask that finds the first offender is built only to raise."""
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab.size):
        outside = (tokens < 0) | (tokens >= vocab.size)
        raise ValueError(f"completion token {tokens[outside.argmax()]} outside vocabulary")
    completion = np.repeat(np.arange(lengths.size), lengths)
    if kind is TaskKind.PARITY_MATCH:
        count = np.bincount(completion, weights=tokens != vocab.eos_id, minlength=lengths.size)
        return (count % 2 == targets).astype(np.float64)
    if kind is TaskKind.TARGET_SUM:
        total = np.bincount(completion, weights=tokens, minlength=lengths.size)
        return (total % vocab.size == targets).astype(np.float64)
    # The target's base-(size - 1) digits, EOS skipped, one prefix position at a time; the padding keeps
    # every read in range.
    k, starts, padded = np.minimum(2, max_lens), np.cumsum(lengths) - lengths, np.concatenate([tokens, [-1, -1]])
    match = lengths >= k
    for i in range(2):
        digit = targets // (vocab.size - 1) ** i % (vocab.size - 1)
        match &= (i >= k) | (padded[starts + i] == np.where(digit < vocab.eos_id, digit, digit + 1))
    return match.astype(np.float64)
