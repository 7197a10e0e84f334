"""Tiny autoregressive softmax policy evaluated by two engines.

The policy is linear over hashed n-gram features of the recent token
window (plus a prompt feature and a bias), so it is the smallest model
with context-dependent, nontrivial gradients. The training engine
computes the exact softmax; the inference engine adds a seeded,
zero-mean logit perturbation whose magnitude tracks the logit scale,
standing in for the numerical disagreement between separate serving and
training stacks. The perturbation is re-drawn per parameter version so
the disagreement evolves with the parameters.

The inference error has one composition, inference_error: a dense term
everywhere plus, at sparse fault entries, a clipped term proportional
to |logit|. Its noise mixes a run-fixed draw per context (fixed_noise)
with one re-drawn per parameter version. All normals come from one
counter-based kernel over (key, column) entries, so a block and any
subset of its entries give the same bits entry by entry.

Scalar entry points (distribution, log_prob, sample_token, and the
feature_rows / noise_keys hashes) define the contracts; context_rows
hashes a batch of contexts into feature rows and noise keys bit for
bit. Two paths evaluate the engines. The direct path (context_rows ->
batched_train_logits -> perturb_logits -> batched_log_softmax) serves
the scalar entry points and the compounding experiment, which moves
weights within one version. A training run keeps a ContextTable
instead: both engines at every (prev, last) window of every prompt it
has seen, evaluated once per parameter version. Rollout ticks, the
objective and the probe measure gather its rows, which are
bit-identical to the direct path. Both paths raise NumericError on
non-finite logits that a caller reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Heavy-tail mixtures: the dense stream keeps a fatter tail than the
# fault stream; a fault tail mostly manufactures implausible boosts of
# already-suppressed tokens.
_DENSE_TAIL_CUT = 164   # 164/2048 = 8%
_DENSE_TAIL_GAIN = 4.0
_FAULT_TAIL_CUT = 82    # 82/2048 = 4%
_FAULT_TAIL_GAIN = 4.0
# Fault relative error is bounded (clipped noise): a lossy kernel can
# wreck a value within a bounded factor, so an error can suppress a
# leader outright but can never hoist a deeply-suppressed token over it.
_FAULT_NOISE_CLIP = 1.6
_NOISE_TAG = 0x6E015E
_NOISE_VERSION_TAG = 0x7A11E7
_SECOND_FIXED_XOR = 0x1B873593C2B2AE35
_SECOND_VERSION_XOR = 0x85EBCA77C2B2AE63
_FAULT_XOR = 0x46A0175E37C2D91B

# Each noise stream mixes a context-persistent component with one
# re-drawn per parameter version (weights on the unit circle, so the
# marginal stays standard normal). Persistence is what lets repeated
# updates on a disagreeing context compound instead of averaging out.
_PERSISTENT_WEIGHT = 0.99
_VERSION_WEIGHT = 0.141

# Disagreement structure: a dense additive component everywhere plus
# sparse persistent "fault" entries whose error tracks the logit
# magnitude, mimicking heterogeneous kernels that are near-exact on most
# entries and badly lossy on a few.
_FAULT_CUT = 820  # 820/2048 = 40% of (context, token) pairs
_FAULT_GAIN = 10.0
_DENSE_WEIGHT = 0.3


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix(*values: int) -> int:
    """Stable (process-independent) hash of an integer tuple."""
    h = 0x8A5CD789635D2DFF
    for v in values:
        h = _splitmix64(h ^ (v & _MASK64))
    return h


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


_STRIDE_A = np.uint64(0xD1342543DE82EF95)
_STRIDE_B = np.uint64(0x2545F4914F6CDD1D)
_XOR_B = 0x9E6C63D0876A9A47


@dataclass(frozen=True)
class Vocabulary:
    """Token alphabet; eos_id is the reserved termination token."""

    size: int = 32
    eos_id: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.size}")
        if not 0 <= self.eos_id < self.size:
            raise ValueError(f"eos_id {self.eos_id} out of range for size {self.size}")


@dataclass
class PolicyParams:
    """Weight matrix indexed by (feature, token), plus a version counter."""

    weights: np.ndarray
    version_id: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a (n_features, vocab_size) matrix")
        if not np.isfinite(self.weights).all():
            raise NumericError("policy weights contain non-finite values")

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.weights.copy(), self.version_id)


def init_params(
    vocab: Vocabulary,
    n_features: int = 64,
    init_scale: float = 0.8,
    seed: int = 0,
) -> PolicyParams:
    """Fresh Gaussian weights at version 0, deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed & _MASK64, 0xA11CE)))
    weights = rng.normal(0.0, init_scale, size=(n_features, vocab.size))
    return PolicyParams(weights=weights, version_id=0)


@dataclass(frozen=True)
class Engine:
    """An evaluation engine: the training engine plus a seeded logit error of mismatch_scale.

    At mismatch_scale == 0 the engine is the training engine, bit for
    bit; train_engine() is that engine.
    """

    mismatch_scale: float = 0.0
    mismatch_seed: int = 0

    def __post_init__(self) -> None:
        if self.mismatch_scale < 0:
            raise ValueError("mismatch_scale must be nonnegative")


def train_engine() -> Engine:
    return Engine()


def infer_engine(mismatch_scale: float = 0.0, mismatch_seed: int = 0) -> Engine:
    return Engine(mismatch_scale, mismatch_seed)


@dataclass(frozen=True)
class Context:
    """Prompt identity plus the recent token window."""

    prompt_id: int
    token_history: tuple[int, ...] = ()

    def window(self) -> tuple[int, int]:
        """(second-to-last, last) tokens, -1 where history is short."""
        hist = self.token_history
        last = hist[-1] if hist else -1
        prev = hist[-2] if len(hist) >= 2 else -1
        return prev, last


@dataclass(frozen=True)
class TokenDistribution:
    """Normalized categorical distribution over the vocabulary."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if not np.isfinite(p).all():
            raise NumericError("token distribution has non-finite entries")
        if (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-12:
            raise NumericError("token distribution is not normalized")


def feature_rows(prompt_id: int, prev: int, last: int, n_features: int) -> tuple[int, int, int, int]:
    """Bias plus prompt-conditioned n-gram rows of the token window.

    All non-bias rows are window-local, so updates at one context do not
    bleed into another context's distribution except through the bias.
    """
    return (
        _mix(1) % n_features,
        _mix(3, prompt_id, last) % n_features,
        _mix(4, prompt_id, prev, last) % n_features,
        _mix(5, prompt_id, prev, last) % n_features,
    )


def feature_indices(ctx: Context, n_features: int) -> tuple[int, int, int, int]:
    """Active feature rows for a context: bias, prompt, unigram, bigram."""
    prev, last = ctx.window()
    return feature_rows(ctx.prompt_id, prev, last, n_features)


def noise_keys(
    engine: Engine, version_id: int, prompt_id: int, prev: int, last: int
) -> tuple[int, int]:
    """(persistent, per-version) noise stream keys for one context."""
    return (
        _mix(_NOISE_TAG, engine.mismatch_seed, prompt_id, prev, last),
        _mix(_NOISE_VERSION_TAG, engine.mismatch_seed, version_id, prompt_id, prev, last),
    )


def context_rows(
    prompt_ids, prev, last, n_features: int, infer: Engine, version_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 4) feature rows and (persistent, per-version) noise keys of N contexts.

    Batched feature_rows and noise_keys, bit-identical to them on int64
    inputs (-1 marks an empty window slot). The hash chains differ only
    in a constant prefix and all end in (prompt, prev, last), so the four
    non-bias chains run as one stacked (5, N) array: the unigram chain
    (row 0) takes last where the others take prev, and stops there.
    """
    window = np.asarray((prompt_ids, prev, last), dtype=np.int64).view(np.uint64)
    seed = infer.mismatch_seed
    prefixes = [_mix(3), _mix(4), _mix(5), _mix(_NOISE_TAG, seed), _mix(_NOISE_VERSION_TAG, seed, version_id)]
    h = _splitmix64_vec(np.asarray(prefixes, dtype=np.uint64)[:, None] ^ window[0])
    h = _splitmix64_vec(h ^ window[[2, 1, 1, 1, 1]])
    h[1:] = _splitmix64_vec(h[1:] ^ window[2])
    feats = np.empty((window.shape[1], 4), dtype=np.intp)
    feats[:, 0] = _mix(1) % n_features
    feats[:, 1:] = (h[:3] % np.uint64(n_features)).T
    return feats, h[3], h[4]


_NON_FINITE_LOGITS = "non-finite logits (corrupted parameters)"
_NON_FINITE_INFER_LOGITS = "non-finite inference engine logits (mismatch noise overflowed)"


def _scaled_train_logits(weights: np.ndarray, feats: np.ndarray, temperature: float) -> np.ndarray:
    logits = weights[feats[:, 0]] + weights[feats[:, 1]] + weights[feats[:, 2]] + weights[feats[:, 3]]
    if temperature != 1.0:
        logits = logits / temperature
    return logits


def batched_train_logits(params: PolicyParams, feats: np.ndarray, temperature: float) -> np.ndarray:
    """(N, vocab) scaled training-engine logits for an (N, 4) feature-row batch."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = _scaled_train_logits(params.weights, feats, temperature)
    if not np.isfinite(logits).all():
        raise NumericError(_NON_FINITE_LOGITS)
    return logits


def weight_grad(
    feats: np.ndarray, grad_logits: np.ndarray, n_features: int, lengths: np.ndarray | None = None
) -> np.ndarray:
    """(n_features, vocab) weight gradient from per-row scaled-logit gradients.

    Each row of grad_logits is added onto its four active feature rows
    (duplicates counted). The rows form consecutive segments of the given
    lengths (one segment by default), and the additions land segment by
    segment, then feature slot by slot, then row by row: the order of
    np.add.at over each slot column of each segment, so the float result
    is bit-identical to that loop. np.bincount adds in input order.
    """
    n, width = grad_logits.shape
    lengths = np.asarray([n] if lengths is None else lengths)
    seg_len = np.repeat(lengths, lengths)
    seg_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    # Row i, slot j is addition 4 * start + j * length + (i - start).
    rank = (3 * seg_start + np.arange(n))[:, None] + np.arange(4) * seg_len[:, None]
    pair_at = np.empty(4 * n, dtype=np.intp)
    pair_at[rank.ravel()] = np.arange(4 * n)
    idx = feats.ravel()[pair_at][:, None] * width + np.arange(width)
    grad = np.bincount(idx.ravel(), weights=grad_logits[pair_at // 4].ravel(), minlength=n_features * width)
    return grad.reshape(n_features, width)


def _heavy_normals(keys: np.ndarray, cols: np.ndarray, cuts, gains) -> np.ndarray:
    """Heavy-tailed standard normals at (key, column) entries.

    keys, cols (uint64), tail cuts and gains broadcast against each
    other, and the result takes their broadcast shape. Box-Muller on two
    splitmix64 streams per entry, with the tail flag taken from spare low
    bits of the second. Counter-based: deterministic in (key, column),
    entry by entry, so a block and any subset of its entries give the
    same bits.
    """
    h = _splitmix64_vec(np.stack([keys + cols * _STRIDE_A, (keys ^ np.uint64(_XOR_B)) + cols * _STRIDE_B]))
    a, b = h[0], h[1]
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (b >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    heavy = (b & np.uint64(0x7FF)) < cuts
    return np.where(heavy, normals * gains, normals)


class FixedNoise(NamedTuple):
    """The run-fixed mismatch noise of a key batch, drawn where the error reads it.

    fault_at holds the fault entries as ascending flat indices into a
    (rows, width) block (about 40% of the entries), dense the persistent
    dense normals of every entry, and fault the persistent fault normals
    at the fault entries only.
    """

    fault_at: np.ndarray
    dense: np.ndarray
    fault: np.ndarray


def _stream_normals(keys: np.ndarray, fault_at: np.ndarray, width: int, fault_xor: int) -> tuple[np.ndarray, np.ndarray]:
    """(dense normals of keys at every entry, fault normals of keys ^ fault_xor at the fault entries)."""
    dense = _heavy_normals(keys[:, None], np.arange(width, dtype=np.uint64), np.uint64(_DENSE_TAIL_CUT), _DENSE_TAIL_GAIN)
    row, col = np.divmod(fault_at, width)
    fault = _heavy_normals(keys[row] ^ np.uint64(fault_xor), col.astype(np.uint64), np.uint64(_FAULT_TAIL_CUT), _FAULT_TAIL_GAIN)
    return dense, fault


def fixed_noise(keys_fixed: np.ndarray, width: int) -> FixedNoise:
    """FixedNoise of the persistent keys of a batch of contexts."""
    kf = np.asarray(keys_fixed, dtype=np.uint64)
    bits = _splitmix64_vec((kf ^ np.uint64(_FAULT_XOR))[:, None] + np.arange(width, dtype=np.uint64) * _STRIDE_A)
    fault_at = np.flatnonzero((bits & np.uint64(0x7FF)) < np.uint64(_FAULT_CUT))
    return FixedNoise(fault_at, *_stream_normals(kf, fault_at, width, _SECOND_FIXED_XOR))


def inference_error(train_logits: np.ndarray, fixed: FixedNoise, keys_version: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(error, fault noise): the inference engine's logit error per unit mismatch scale.

    The inference logits are train_logits + scale * error. Each noise
    stream mixes the fixed normals with the per-version normals of
    keys_version, the fault stream at the fault entries only. The error
    is dense_weight * dense noise everywhere, plus fault_gain * |logit| *
    fault noise at the fault entries; the fault noise is clipped and
    returned too, in fault_at order.
    """
    dense, fault = _stream_normals(np.asarray(keys_version, dtype=np.uint64), fixed.fault_at, train_logits.shape[1], _SECOND_VERSION_XOR)
    dense = _PERSISTENT_WEIGHT * fixed.dense + _VERSION_WEIGHT * dense
    fault_noise = np.clip(_PERSISTENT_WEIGHT * fixed.fault + _VERSION_WEIGHT * fault, -_FAULT_NOISE_CLIP, _FAULT_NOISE_CLIP)
    error = _DENSE_WEIGHT * dense
    error.ravel()[fixed.fault_at] += _FAULT_GAIN * np.abs(train_logits.ravel()[fixed.fault_at]) * fault_noise
    return error, fault_noise


def check_inference_logits(infer_logits: np.ndarray) -> None:
    """Raise NumericError if the inference logits are non-finite (the mismatch noise overflowed)."""
    if not np.isfinite(infer_logits).all():
        raise NumericError(_NON_FINITE_INFER_LOGITS)


def perturb_logits(
    logits: np.ndarray, keys_fixed: np.ndarray, keys_version: np.ndarray, scale: float
) -> np.ndarray:
    """Inference-engine view of a batch of finite training logits.

    Raises NumericError if the error overflows the inference logits.
    """
    if scale <= 0.0:
        return logits
    with np.errstate(over="ignore", invalid="ignore"):
        error, _ = inference_error(logits, fixed_noise(keys_fixed, logits.shape[1]), keys_version)
        infer_logits = logits + scale * error
    check_inference_logits(infer_logits)
    return infer_logits


def batched_log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs) rows; exact log-sum-exp, no flooring."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    return shifted - np.log(z), e / z


class ContextTable:
    """Both engines at every context of the registered prompts, one parameter version at a time.

    Within a parameter version the policy is a pure function of the
    context (prompt, prev, last), and a window takes one of (V+1)^2
    values (a token, or -1 for an empty slot). The table holds one row
    per window of every registered prompt. The version-independent half
    is computed once per run, when a prompt is registered (or at the
    first load, which fixes the feature count): the rows' feature rows
    and their FixedNoise. load(params) evaluates both engines on every
    row once per params object: training and inference log-probs and
    probs, and the inference CDF. It hashes the version keys alone (one
    three-pass chain over the rows' (prompt, prev, last) words) and
    hands them to inference_error, the kernel the direct path's
    perturb_logits runs too. Callers then gather rows instead of
    evaluating the engines again; a gathered row is bit-identical to
    evaluating its context directly.

    A row whose training or inference logits are non-finite is flagged,
    not raised on, so a context the run never visits cannot fail it;
    check(rows) raises for the rows a caller reads, with the direct
    path's messages. A params object must not be modified in place once
    loaded.
    """

    def __init__(self, vocab_size: int, infer: Engine, temperature: float) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.vocab_size = vocab_size
        self.infer = infer
        self.temperature = temperature
        self.side = vocab_size + 1
        windows = np.arange(self.side * self.side)
        self._windows = (windows // self.side - 1, windows % self.side - 1)
        self._first_row: dict[int, int] = {}
        self._sorted_ids = np.zeros(0, dtype=np.int64)
        self._sorted_first = np.zeros(0, dtype=np.intp)
        self.n_features: int | None = None
        self.params: PolicyParams | None = None
        # Fixed for the run: per row, the (prompt, prev, last) words and
        # feature rows, and the rows' fixed noise.
        self._contexts = np.zeros((3, 0), dtype=np.uint64)
        self.feats = np.zeros((0, 4), dtype=np.intp)
        self._noise = FixedNoise(np.zeros(0, dtype=np.intp), np.zeros((0, vocab_size)), np.zeros(0))
        # At the loaded params, per row: (lp_train, probs_train, lp_infer,
        # probs_infer, cdf), and how many engines have non-finite logits:
        # 0, 1 (the inference engine) or 2 (both; an inference row reads
        # the training logits, so it is non-finite when they are).
        self._dists = np.zeros((5, 0, vocab_size))
        self._nonfinite = np.zeros(0, dtype=np.int8)

    @property
    def finite(self) -> np.ndarray:
        """Per row, whether the training logits at the loaded params are finite."""
        return self._nonfinite < 2

    @property
    def lp_train(self) -> np.ndarray:
        return self._dists[0]

    @property
    def probs_train(self) -> np.ndarray:
        return self._dists[1]

    @property
    def lp_infer(self) -> np.ndarray:
        return self._dists[2]

    @property
    def probs_infer(self) -> np.ndarray:
        return self._dists[3]

    @property
    def cdf(self) -> np.ndarray:
        return self._dists[4]

    def add(self, prompt_ids) -> None:
        """Register prompts: their rows are built now, or at the first load if none has happened."""
        new = [p for p in dict.fromkeys(int(p) for p in prompt_ids) if p not in self._first_row]
        if not new:
            return
        for p in new:
            self._first_row[p] = len(self._first_row) * self.side * self.side
        ids = np.fromiter(self._first_row, np.int64, len(self._first_row))
        order = np.argsort(ids)
        self._sorted_ids = ids[order]
        self._sorted_first = np.fromiter(self._first_row.values(), np.intp, ids.size)[order]
        if self.n_features is not None:
            self._build(new)

    def prompt_row(self, prompt_id: int) -> int:
        """Row of a registered prompt's empty window (-1, -1), its first row."""
        return self._first_row[prompt_id]

    def rows(self, prompt_ids, prev, last) -> np.ndarray:
        """Row of each context (prompt, prev, last): registered prompt, -1 <= prev, last < V."""
        pids = np.asarray(prompt_ids, dtype=np.int64)
        prev = np.asarray(prev, dtype=np.int64)
        last = np.asarray(last, dtype=np.int64)
        at = np.searchsorted(self._sorted_ids, pids)
        if (at >= self._sorted_ids.size).any() or (self._sorted_ids[at] != pids).any():
            raise ValueError("context of a prompt the table has not registered")
        if min(prev.min(initial=0), last.min(initial=0)) < -1 or max(prev.max(initial=0), last.max(initial=0)) >= self.vocab_size:
            raise ValueError(f"context window outside [-1, {self.vocab_size})")
        return self._sorted_first[at] + (prev + 1) * self.side + (last + 1)

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Rows of the contexts at rows once each has generated its token."""
        window = rows % (self.side * self.side)
        return rows - window + (window % self.side) * self.side + tokens + 1

    def load(self, params: PolicyParams) -> None:
        """Evaluate both engines on every row at params; a no-op if params is already loaded."""
        if params is self.params:
            return
        if params.vocab_size != self.vocab_size:
            raise ValueError(f"params have vocabulary {params.vocab_size}, the table {self.vocab_size}")
        if self.n_features is None:
            self.n_features = params.n_features
            self._build(list(self._first_row))
        elif params.n_features != self.n_features:
            raise ValueError(f"params have {params.n_features} features, the table {self.n_features}")
        self.params = params
        self._dists, self._nonfinite = self._evaluate(0)

    def check(self, rows: np.ndarray) -> None:
        """Raise NumericError if a row's training logits, or else its inference logits, are non-finite.

        The training message is the direct path's; the inference one names that engine.
        """
        nonfinite = self._nonfinite[rows]
        if nonfinite.any():
            raise NumericError(_NON_FINITE_LOGITS if nonfinite.max() == 2 else _NON_FINITE_INFER_LOGITS)

    def _build(self, prompt_ids: list[int]) -> None:
        """Append the run-fixed rows of new prompts, and their rows at the loaded params."""
        if not prompt_ids:
            return
        start = self.feats.shape[0]
        n_windows = self.side * self.side
        contexts = np.stack([
            np.repeat(np.asarray(prompt_ids, dtype=np.int64), n_windows),
            np.tile(self._windows[0], len(prompt_ids)),
            np.tile(self._windows[1], len(prompt_ids)),
        ])
        feats, keys_fixed, _ = context_rows(*contexts, self.n_features, self.infer, 0)
        new = fixed_noise(keys_fixed, self.vocab_size)
        self._contexts = np.concatenate([self._contexts, contexts.view(np.uint64)], axis=1)
        self.feats = np.concatenate([self.feats, feats])
        self._noise = FixedNoise(
            np.concatenate([self._noise.fault_at, new.fault_at + start * self.vocab_size]),
            np.concatenate([self._noise.dense, new.dense]),
            np.concatenate([self._noise.fault, new.fault]),
        )
        if self.params is not None:
            dists, nonfinite = self._evaluate(start)
            self._dists = np.concatenate([self._dists, dists], axis=1)
            self._nonfinite = np.concatenate([self._nonfinite, nonfinite])

    def _evaluate(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """(stacked distributions, non-finite engine counts) of the rows from start on, at the loaded params."""
        params = self.params
        scale = self.infer.mismatch_scale
        with np.errstate(over="ignore", invalid="ignore"):
            train_logits = _scaled_train_logits(params.weights, self.feats[start:], self.temperature)
            lp_train, probs_train = batched_log_softmax(train_logits)
            infer_logits = train_logits
            if scale > 0.0:
                error, _ = inference_error(train_logits, self._fixed_noise(start), self._version_keys(start, params.version_id))
                infer_logits = train_logits + scale * error
                lp_infer, probs_infer = batched_log_softmax(infer_logits)
            else:
                lp_infer, probs_infer = lp_train, probs_train
            cdf = np.cumsum(probs_infer, axis=1)
        nonfinite = (~np.isfinite(train_logits).all(axis=1)).astype(np.int8) + ~np.isfinite(infer_logits).all(axis=1)
        return np.stack([lp_train, probs_train, lp_infer, probs_infer, cdf]), nonfinite

    def _fixed_noise(self, start: int) -> FixedNoise:
        """The fixed noise of the rows from start on."""
        width = self.vocab_size
        first = np.searchsorted(self._noise.fault_at, start * width)
        return FixedNoise(self._noise.fault_at[first:] - start * width, self._noise.dense[start:], self._noise.fault[first:])

    def _version_keys(self, start: int, version_id: int) -> np.ndarray:
        """context_rows' per-version noise keys of the rows from start on, without the other chains."""
        keys = np.full(self._contexts.shape[1] - start, _mix(_NOISE_VERSION_TAG, self.infer.mismatch_seed, version_id), dtype=np.uint64)
        for column in self._contexts[:, start:]:
            keys = _splitmix64_vec(keys ^ column)
        return keys


def _context_logits(
    params: PolicyParams, ctx: Context, engine: Engine, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """(train, engine) (1, vocab) scaled logits of one context."""
    prev, last = ctx.window()
    feats, kf, kv = context_rows([ctx.prompt_id], [prev], [last], params.n_features, engine, params.version_id)
    train_logits = batched_train_logits(params, feats, temperature)
    return train_logits, perturb_logits(train_logits, kf, kv, engine.mismatch_scale)


def _scaled_logits(params: PolicyParams, ctx: Context, engine: Engine, temperature: float) -> np.ndarray:
    return _context_logits(params, ctx, engine, temperature)[1][0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def distribution(params: PolicyParams, ctx: Context, engine: Engine, temperature: float = 1.0) -> TokenDistribution:
    """Softmax of the feature-dot-weight logits divided by temperature."""
    return TokenDistribution(_softmax(_scaled_logits(params, ctx, engine, temperature)))


def log_prob(params: PolicyParams, ctx: Context, token: int, engine: Engine, temperature: float = 1.0) -> float:
    """Exact log probability via log-sum-exp; no probability flooring."""
    if not 0 <= token < params.vocab_size:
        raise ValueError(f"token {token} outside vocabulary of size {params.vocab_size}")
    logits = _scaled_logits(params, ctx, engine, temperature)
    m = float(logits.max())
    return float(logits[token] - m - math.log(np.exp(logits - m).sum()))


def sample_token(
    params: PolicyParams,
    ctx: Context,
    engine: Engine,
    temperature: float,
    stream: np.random.Generator,
) -> int:
    """Inverse-CDF sample: one uniform draw from the stream per token."""
    probs = distribution(params, ctx, engine, temperature).probs
    u = stream.random()
    token = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(token, probs.size - 1)


def sample_with_logprobs(
    params: PolicyParams,
    ctx: Context,
    infer: Engine,
    temperature: float,
    stream: np.random.Generator,
) -> tuple[int, float, float]:
    """Sample one token from the inference engine and record both engines' log probs.

    Returns (token, log pi_infer(token), log pi_train(token)); the stream
    advances by exactly one uniform draw, matching sample_token.
    """
    train_logits, infer_logits = _context_logits(params, ctx, infer, temperature)
    lp_inf_rows, probs = batched_log_softmax(infer_logits)
    u = stream.random()
    token = min(int(np.searchsorted(np.cumsum(probs[0]), u, side="right")), probs.shape[1] - 1)
    lp_tr_rows, _ = batched_log_softmax(train_logits)
    return token, float(lp_inf_rows[0, token]), float(lp_tr_rows[0, token])
