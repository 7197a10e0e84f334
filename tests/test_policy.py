"""Policy core: distributions, log probs, sampling, engine mismatch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mismatchlab import (
    Context,
    NumericError,
    PolicyParams,
    TokenDistribution,
    Vocabulary,
    distribution,
    feature_indices,
    infer_engine,
    init_params,
    kl_categorical,
    log_prob,
    sample_token,
    sample_with_logprobs,
    train_engine,
)


def one_hot_fixture() -> tuple[PolicyParams, Context]:
    """Vocab 4, 8 one-hot feature rows, fixed context; see the inline oracle."""
    weights = np.zeros((8, 4))
    for r in range(8):
        weights[r, r % 4] = 1.0
    return PolicyParams(weights, version_id=0), Context(prompt_id=7, token_history=(1, 2))


def straight_line_softmax(params: PolicyParams, ctx: Context, temperature: float = 1.0) -> list[float]:
    """Independent oracle: plain-math softmax over the summed feature rows."""
    rows = feature_indices(ctx, params.n_features)
    logits = [sum(params.weights[r][k] for r in rows) / temperature for k in range(params.vocab_size)]
    mx = max(logits)
    exps = [math.exp(z - mx) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def test_zero_weights_give_uniform_distribution() -> None:
    vocab = Vocabulary(size=32)
    params = PolicyParams(np.zeros((16, vocab.size)))
    probs = distribution(params, Context(3, (1,)), train_engine()).probs
    assert np.all(probs == 1.0 / 32)


def test_zero_mismatch_scale_matches_train_engine_bitwise() -> None:
    vocab = Vocabulary()
    params = init_params(vocab, n_features=32, init_scale=1.0, seed=9)
    rng = np.random.default_rng(5)
    for _ in range(100):
        ctx = Context(int(rng.integers(0, 1000)), tuple(int(t) for t in rng.integers(0, 32, size=rng.integers(0, 3))))
        p_train = distribution(params, ctx, train_engine()).probs
        p_infer = distribution(params, ctx, infer_engine(0.0, 7)).probs
        assert np.array_equal(p_train, p_infer)


def test_distribution_matches_straight_line_oracle() -> None:
    params, ctx = one_hot_fixture()
    oracle = straight_line_softmax(params, ctx)
    probs = distribution(params, ctx, train_engine()).probs
    assert np.allclose(probs, oracle, rtol=0, atol=1e-15)
    # frozen values computed from the oracle at fixture freeze time
    assert probs == pytest.approx(
        [0.07232948812851327, 0.19661193324148185, 0.5344466453885229, 0.19661193324148185],
        abs=1e-15,
    )


def test_distribution_oracle_holds_for_random_weights_and_temperatures() -> None:
    rng = np.random.default_rng(21)
    for _ in range(25):
        params = PolicyParams(rng.normal(0, 1.2, size=(12, 6)))
        ctx = Context(int(rng.integers(0, 50)), tuple(int(t) for t in rng.integers(0, 6, size=2)))
        temperature = float(rng.uniform(0.3, 3.0))
        oracle = straight_line_softmax(params, ctx, temperature)
        probs = distribution(params, ctx, train_engine(), temperature).probs
        assert np.allclose(probs, oracle, rtol=0, atol=1e-14)


def test_log_prob_uniform_case() -> None:
    params = PolicyParams(np.zeros((8, 32)))
    assert log_prob(params, Context(0), 5, train_engine()) == pytest.approx(math.log(1 / 32), abs=1e-15)


def test_log_prob_exponentiates_back_to_distribution() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = PolicyParams(rng.normal(0, 1.0, size=(10, 5)))
        ctx = Context(int(rng.integers(0, 40)), tuple(int(t) for t in rng.integers(0, 5, size=1)))
        token = int(rng.integers(0, 5))
        engine = infer_engine(0.1, 3) if rng.random() < 0.5 else train_engine()
        p = distribution(params, ctx, engine).probs[token]
        assert abs(math.exp(log_prob(params, ctx, token, engine)) - p) < 1e-12


def test_log_prob_matches_oracle_on_fixture() -> None:
    params, ctx = one_hot_fixture()
    oracle = straight_line_softmax(params, ctx)
    assert log_prob(params, ctx, 2, train_engine()) == pytest.approx(math.log(oracle[2]), abs=1e-12)


def test_log_prob_rejects_out_of_vocabulary_token() -> None:
    params, ctx = one_hot_fixture()
    with pytest.raises(ValueError):
        log_prob(params, ctx, 4, train_engine())


def test_sample_token_degenerate_distribution() -> None:
    # logit gap large enough that the other probabilities underflow to zero
    weights = np.zeros((8, 4))
    weights[:, 2] = 250.0
    params = PolicyParams(weights)
    stream = np.random.default_rng(0)
    ctx = Context(1, ())
    assert all(sample_token(params, ctx, train_engine(), 1.0, stream) == 2 for _ in range(200))


def test_sample_token_replays_inverse_cdf_oracle() -> None:
    params, ctx = one_hot_fixture()
    probs = distribution(params, ctx, train_engine()).probs
    cdf = np.cumsum(probs)
    stream = np.random.default_rng(1234)
    oracle_stream = np.random.default_rng(1234)
    tokens = [sample_token(params, ctx, train_engine(), 1.0, stream) for _ in range(50)]
    oracle = [min(int(np.searchsorted(cdf, oracle_stream.random(), side="right")), 3) for _ in range(50)]
    assert tokens == oracle
    assert tokens[:12] == [3, 2, 3, 1, 2, 1, 1, 2, 3, 1, 2, 2]


def test_sample_token_frequencies_within_three_sigma() -> None:
    params, ctx = one_hot_fixture()
    probs = distribution(params, ctx, train_engine()).probs
    n = 100_000
    u = np.random.default_rng(77).random(n)
    # The tick's inverse-CDF rule, which the oracle test above ties sample_token to.
    tokens = np.minimum((np.cumsum(probs) <= u[:, None]).sum(axis=1), probs.size - 1)
    freqs = np.bincount(tokens, minlength=probs.size) / n
    bound = 3 * np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freqs - probs) <= bound)


def test_sample_with_logprobs_agrees_with_scalar_ops() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=32, init_scale=0.8, seed=4)
    engine = infer_engine(0.15, 7)
    ctx = Context(11, (2, 5))
    s1 = np.random.default_rng(42)
    s2 = np.random.default_rng(42)
    token, lp_inf, lp_tr = sample_with_logprobs(params, ctx, engine, 1.0, s1)
    assert token == sample_token(params, ctx, engine, 1.0, s2)
    assert lp_inf == pytest.approx(log_prob(params, ctx, token, engine), abs=0)
    assert lp_tr == pytest.approx(log_prob(params, ctx, token, train_engine()), abs=0)


def test_distribution_normalization_invariant() -> None:
    rng = np.random.default_rng(8)
    for _ in range(200):
        params = PolicyParams(rng.normal(0, 2.0, size=(16, 8)))
        ctx = Context(int(rng.integers(0, 100)), tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(0, 3))))
        engine = infer_engine(float(rng.uniform(0, 0.3)), 7)
        probs = distribution(params, ctx, engine, float(rng.uniform(0.2, 4))).probs
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        assert (probs >= 0).all()


def test_mismatch_kl_nondecreasing_in_scale() -> None:
    vocab = Vocabulary(size=16)
    params = init_params(vocab, n_features=64, init_scale=1.5, seed=13)
    rng = np.random.default_rng(13)
    contexts = [
        Context(int(rng.integers(0, 400)), tuple(int(t) for t in rng.integers(0, 16, size=2)))
        for _ in range(60)
    ]
    means = []
    for scale in (0.0, 0.01, 0.05, 0.1, 0.2):
        engine = infer_engine(scale, 7)
        kls = [
            kl_categorical(
                distribution(params, c, engine).probs, distribution(params, c, train_engine()).probs
            )
            for c in contexts
        ]
        means.append(float(np.mean(kls)))
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert means[0] == 0.0


def test_infer_noise_is_deterministic_and_version_dependent() -> None:
    vocab = Vocabulary(size=8)
    params = init_params(vocab, n_features=32, init_scale=1.0, seed=2)
    engine = infer_engine(0.2, 9)
    ctx = Context(4, (1,))
    first = distribution(params, ctx, engine).probs
    second = distribution(params, ctx, engine).probs
    assert np.array_equal(first, second)
    bumped = PolicyParams(params.weights.copy(), version_id=params.version_id + 1)
    assert not np.array_equal(distribution(bumped, ctx, engine).probs, first)


def test_non_finite_weights_raise() -> None:
    weights = np.zeros((4, 4))
    weights[1, 2] = np.inf
    with pytest.raises(NumericError):
        PolicyParams(weights)


def test_token_distribution_validates_normalization() -> None:
    with pytest.raises(NumericError, match="not normalized"):
        TokenDistribution(np.asarray([0.5, 0.6]))
    for probs in ([math.nan, math.nan], [math.inf, 0.0]):
        with pytest.raises(NumericError, match="non-finite"):
            TokenDistribution(np.asarray(probs))


def test_vocabulary_invariants() -> None:
    with pytest.raises(ValueError):
        Vocabulary(size=1)
    with pytest.raises(ValueError):
        Vocabulary(size=4, eos_id=4)
