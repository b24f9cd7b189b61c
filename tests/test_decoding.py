import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    StubLM,
    brute_force_best_finished_log_prob,
    chain_model,
    chi_square_ok,
    const_model,
    random_ngram_model,
    renormalized_target,
)
from lyricsense.decoding import (
    DecodeConfig,
    FinishReason,
    Generation,
    Strategy,
    _add_last_gram,
    _banned_from,
    _follower_map,
    _sampling_cdf,
    beam_search,
    decode,
    decode_many,
    greedy,
    sample,
    top_k_sample,
    top_p_sample,
)
from lyricsense import lm
from lyricsense.lm import Vocabulary, fit_ngram, sequence_log_prob
from lyricsense.rng import SplitMix64


def cfg(strategy=Strategy.GREEDY, **kwargs):
    return DecodeConfig(strategy=strategy, **kwargs)


# ---------------------------------------------------------------- DecodeConfig

def test_config_defaults_match_documented_hyperparameters():
    c = cfg(Strategy.BEAM)
    assert (c.num_beams, c.no_repeat_ngram_size, c.early_stopping) == (3, 2, True)
    assert (c.temperature, c.k, c.p, c.max_new_tokens) == (0.95, 50, 0.92, 64)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_beams": 0},
        {"no_repeat_ngram_size": -1},
        {"temperature": 0.0},
        {"temperature": -1.0},
        {"k": 0},
        {"p": 0.0},
        {"p": 1.5},
        {"max_new_tokens": 0},
        {"temperature": math.nan},
        {"temperature": math.inf},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        cfg(Strategy.SAMPLING, **kwargs)


def test_config_json_round_trip():
    c = cfg(Strategy.TOP_P, p=0.5, seed=12, max_new_tokens=7)
    again = DecodeConfig.from_dict(json.loads(json.dumps(c.to_dict())))
    assert again == c
    with pytest.raises(ValueError):
        DecodeConfig.from_dict({"strategy": "greedy", "mystery": 1})
    with pytest.raises(ValueError):
        DecodeConfig.from_dict({"strategy": "quantum"})


def test_config_round_trip_preserves_decode_output():
    model = random_ngram_model(random.Random(5))
    c = cfg(Strategy.SAMPLING, seed=99, max_new_tokens=10)
    again = DecodeConfig.from_dict(json.loads(json.dumps(c.to_dict())))
    assert decode(model, [], c) == decode(model, [], again)


# ---------------------------------------------------------------------- greedy

def test_greedy_forced_chain():
    model = chain_model(["a", "b"])
    vocab = model.vocabulary()
    generation = greedy(model, [], cfg())
    assert generation.ids == (vocab.id_of("a"), vocab.id_of("b"))
    assert generation.finish_reason == FinishReason.EOS
    assert generation.log_prob == 0.0  # one-hot steps, EOS included


def test_greedy_runs_to_length_cap_without_eos():
    model = const_model({"a": 0.9, "b": 0.1})
    vocab = model.vocabulary()
    generation = greedy(model, [], cfg())
    assert generation.ids == (vocab.id_of("a"),) * 64
    assert generation.finish_reason == FinishReason.MAX_LEN


def test_greedy_tie_breaks_to_lowest_id():
    # symmetric counts => exact tie between the two continuations of "a"
    model = fit_ngram(["a b", "a c"], order=2, k=0.1, vocab_cap=10)
    vocab = model.vocabulary()
    dist = model.next([vocab.id_of("a")])
    b, c = vocab.id_of("b"), vocab.id_of("c")
    assert dist[b] == dist[c]  # the tie is real
    generation = greedy(model, [vocab.id_of("a")], cfg(max_new_tokens=1))
    assert generation.ids == (min(b, c),)


def test_greedy_is_seed_independent():
    model = random_ngram_model(random.Random(0))
    a = greedy(model, [], cfg(seed=1))
    b = greedy(model, [], cfg(seed=999))
    assert a == b


# ----------------------------------------------------------------- beam search

def test_beam_width_one_equals_greedy_on_random_models():
    for seed in range(20):
        model = random_ngram_model(random.Random(seed))
        size = len(model.vocabulary())
        prompt = [seed % size]
        g = greedy(model, prompt, cfg(max_new_tokens=8))
        b = beam_search(model, prompt, cfg(Strategy.BEAM, num_beams=1, no_repeat_ngram_size=0, max_new_tokens=8))
        assert b.ids == g.ids, seed
        assert b.log_prob == pytest.approx(g.log_prob, abs=1e-12)
        assert b.finish_reason == g.finish_reason


def test_exhaustive_beam_matches_brute_force_oracle():
    for seed in range(10):
        rng = random.Random(seed)
        model = random_ngram_model(rng, max_content=3)
        size = len(model.vocabulary())
        prompt = [rng.randrange(size)]
        L = 3
        config = cfg(Strategy.BEAM, num_beams=size**L, no_repeat_ngram_size=0, max_new_tokens=L)
        generation = beam_search(model, prompt, config)
        best = brute_force_best_finished_log_prob(model, prompt, L)
        assert generation.log_prob == pytest.approx(best, abs=1e-9), seed
        assert generation.finish_reason == FinishReason.EOS


def test_beam_score_is_sequence_log_prob_with_eos():
    model = random_ngram_model(random.Random(3))
    vocab = model.vocabulary()
    generation = beam_search(model, [3], cfg(Strategy.BEAM, no_repeat_ngram_size=0, max_new_tokens=4))
    if generation.finish_reason == FinishReason.EOS:
        full = [3, *generation.ids, vocab.eos_id]
    else:
        full = [3, *generation.ids]
    conditional = sequence_log_prob(model, full) - sequence_log_prob(model, [3])
    assert generation.log_prob == pytest.approx(conditional, abs=1e-9)


def test_no_repeat_bigram_constraint_on_cycling_model():
    # bigram model strictly preferring the cycle "a b a b ..."
    model = fit_ngram(["a b a b a b a b"], order=2, k=1e-6, vocab_cap=10)
    vocab = model.vocabulary()
    prompt = vocab.encode(["a", "b"])
    generation = beam_search(
        model, prompt, cfg(Strategy.BEAM, no_repeat_ngram_size=2, max_new_tokens=10)
    )
    sequence = tuple(prompt) + generation.ids
    bigrams = list(zip(sequence, sequence[1:]))
    assert len(bigrams) == len(set(bigrams))


def test_no_repeat_disabled_allows_cycles():
    model = fit_ngram(["a b a b a b a b"], order=2, k=1e-6, vocab_cap=10)
    vocab = model.vocabulary()
    prompt = vocab.encode(["a", "b"])
    generation = beam_search(
        model, prompt, cfg(Strategy.BEAM, no_repeat_ngram_size=0, num_beams=1, early_stopping=False, max_new_tokens=6)
    )
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert generation.ids == (a, b, a, b, a, b)


def _banned_tokens(sequence, ngram_size):
    """Tokens whose emission would repeat an ngram_size-gram of sequence: the reference for follower maps."""
    if ngram_size < 1 or len(sequence) < ngram_size - 1:
        return set()
    prefix = tuple(sequence[len(sequence) - ngram_size + 1 :])
    grams = zip(*(sequence[i:] for i in range(ngram_size)))
    return {gram[-1] for gram in grams if gram[:-1] == prefix}


@given(
    prompt=st.lists(st.integers(0, 3), max_size=6),
    extension=st.lists(st.integers(0, 3), max_size=12),
    ngram_size=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_follower_map_bans_what_banned_tokens_bans(prompt, extension, ngram_size):
    sequence = tuple(prompt)
    followers = _follower_map(sequence, ngram_size)
    for token in extension:
        assert _banned_from(followers, sequence, ngram_size) == _banned_tokens(sequence, ngram_size)
        parent, before = followers, dict(followers)
        sequence += (token,)
        followers = _add_last_gram(parent, sequence, ngram_size)
        assert parent == before  # a beam parent's map is shared by its other candidates
        assert followers == _follower_map(sequence, ngram_size)
    assert _banned_from(followers, sequence, ngram_size) == _banned_tokens(sequence, ngram_size)


def test_beam_degenerate_all_continuations_banned():
    # no_repeat_ngram_size=1 bans every token already present; the prompt
    # contains the whole vocabulary, so nothing can be emitted.
    model = fit_ngram(["a"], order=1, k=0.5, vocab_cap=10)
    size = len(model.vocabulary())
    prompt = list(range(size))
    generation = beam_search(model, prompt, cfg(Strategy.BEAM, no_repeat_ngram_size=1, max_new_tokens=5))
    assert generation.ids == ()
    assert generation.finish_reason == FinishReason.EOS
    assert generation.log_prob == 0.0


def test_beam_prefers_finished_hypothesis_over_better_unfinished():
    # constant distribution: x likely, EOS plausible (rank 2 of the live
    # tokens, so it finishes within any width >= 2); the unfinished path
    # "x x x" scores 3*log(0.9), far above the best finished score
    # log(0.05), yet the finished hypothesis must win.
    vocab = Vocabulary.build(["x", "y"])
    logp = np.full(len(vocab), -math.inf)
    logp[vocab.id_of("x")] = math.log(0.9)
    logp[vocab.eos_id] = math.log(0.05)
    logp[vocab.id_of("y")] = math.log(0.05)
    model = StubLM(vocab, lambda ctx: logp)
    generation = beam_search(
        model, [], cfg(Strategy.BEAM, num_beams=3, no_repeat_ngram_size=0, early_stopping=False, max_new_tokens=3)
    )
    assert generation.finish_reason == FinishReason.EOS
    assert generation.ids == ()
    assert generation.log_prob == pytest.approx(math.log(0.05), abs=1e-12)
    assert 3 * math.log(0.9) > generation.log_prob  # the better unfinished path existed


def test_beam_early_stopping_consistency():
    # with or without early stopping the returned hypothesis is finished;
    # early stopping must not return something worse than a 1-step search
    model = random_ngram_model(random.Random(21))
    with_stop = beam_search(model, [2], cfg(Strategy.BEAM, early_stopping=True, no_repeat_ngram_size=0, max_new_tokens=5))
    without = beam_search(model, [2], cfg(Strategy.BEAM, early_stopping=False, no_repeat_ngram_size=0, max_new_tokens=5))
    assert without.log_prob >= with_stop.log_prob - 1e-12



class _NextManyOnly:
    """Offers ``next_many`` alone over ``model`` and records the size of each call."""

    def __init__(self, model):
        self._model = model
        self.batches = []

    def vocabulary(self):
        return self._model.vocabulary()

    def next_many(self, contexts):
        self.batches.append(len(contexts))
        return [self._model.next(list(context)) for context in contexts]


def test_beam_asks_for_all_running_hypotheses_in_one_next_many_call():
    for seed in range(10):
        model = random_ngram_model(random.Random(seed))
        next_only = StubLM(model.vocabulary(), lambda ctx: model.next(list(ctx)))
        batched = _NextManyOnly(model)
        prompt = [seed % len(model.vocabulary())]
        config = cfg(Strategy.BEAM, num_beams=3, max_new_tokens=6)
        assert beam_search(batched, prompt, config) == beam_search(next_only, prompt, config), seed
        assert batched.batches[0] == 1 and all(1 <= n <= 3 for n in batched.batches), seed
        assert len(batched.batches) <= config.max_new_tokens


# ------------------------------------------------------------------- sampling

def test_sampling_fixed_seed_reproducible():
    model = random_ngram_model(random.Random(2))
    a = sample(model, [1], cfg(Strategy.SAMPLING, seed=7))
    b = sample(model, [1], cfg(Strategy.SAMPLING, seed=7))
    assert a == b
    c = sample(model, [1], cfg(Strategy.SAMPLING, seed=8, max_new_tokens=32))
    d = sample(model, [1], cfg(Strategy.SAMPLING, seed=9, max_new_tokens=32))
    assert c != d  # astronomically unlikely to coincide


def test_sampling_low_temperature_approaches_greedy():
    model = const_model({"a": 0.7, "b": 0.2, "c": 0.1})
    g = greedy(model, [], cfg(max_new_tokens=12))
    for seed in range(10):
        s = sample(model, [], cfg(Strategy.SAMPLING, temperature=1e-9, seed=seed, max_new_tokens=12))
        assert s.ids == g.ids


def draw_single_tokens(model, config, n_draws):
    counts = Counter()
    for seed in range(n_draws):
        generation = decode(model, [], DecodeConfig(**{**config.__dict__, "seed": seed, "max_new_tokens": 1}))
        token = generation.ids[0] if generation.ids else model.vocabulary().eos_id
        counts[token] += 1
    return counts


BASE = (0.7, 0.2, 0.1)


def base_model():
    return const_model({"ta": BASE[0], "tb": BASE[1], "tc": BASE[2]})


def content_ids(model):
    vocab = model.vocabulary()
    return [vocab.id_of(t) for t in ("ta", "tb", "tc")]


def full_target(model, per_content_target):
    ids = content_ids(model)
    target = np.zeros(len(model.vocabulary()))
    for token_id, prob in zip(ids, per_content_target):
        target[token_id] = prob
    return target


def test_plain_sampling_frequencies_match_distribution():
    model = base_model()
    ids = content_ids(model)
    n = 5000
    counts = draw_single_tokens(model, cfg(Strategy.SAMPLING, temperature=0.95), n)
    target = renormalized_target(BASE, 0.95)
    assert chi_square_ok(counts, target, ids, n)


def test_top_k_two_frequencies_match_renormalized_odds():
    model = base_model()
    ids = content_ids(model)
    n = 5000
    counts = draw_single_tokens(model, cfg(Strategy.TOP_K, k=2, temperature=1.0), n)
    # by hand: keep 0.7 and 0.2, renormalize to 7/9 and 2/9
    assert counts[ids[2]] == 0
    target = [7 / 9, 2 / 9, 0.0]
    assert chi_square_ok(counts, target, ids, n)


def test_top_p_nucleus_support_and_frequencies():
    model = base_model()
    ids = content_ids(model)
    n = 5000
    # temperature 1: cumulative 0.7 < 0.75, so the nucleus is {ta, tb}
    counts = draw_single_tokens(model, cfg(Strategy.TOP_P, p=0.75, temperature=1.0), n)
    assert counts[ids[2]] == 0
    assert chi_square_ok(counts, [7 / 9, 2 / 9, 0.0], ids, n)


def test_top_p_nucleus_from_worked_example():
    # documented example: (0.6, 0.3, 0.1) with p = 0.62 keeps two tokens
    model = const_model({"ta": 0.6, "tb": 0.3, "tc": 0.1})
    ids = content_ids(model)
    counts = draw_single_tokens(model, cfg(Strategy.TOP_P, p=0.62, temperature=1.0), 800)
    assert counts[ids[2]] == 0
    assert counts[ids[0]] > 0 and counts[ids[1]] > 0


def test_top_p_boundary_is_inclusive():
    model = const_model({"ta": 0.6, "tb": 0.3, "tc": 0.1})
    ids = content_ids(model)
    counts = draw_single_tokens(model, cfg(Strategy.TOP_P, p=0.6, temperature=1.0), 400)
    assert set(counts) == {ids[0]}  # cumulative 0.6 >= p already at the top token


def test_top_p_below_max_behaves_like_greedy():
    model = base_model()
    ids = content_ids(model)
    counts = draw_single_tokens(model, cfg(Strategy.TOP_P, p=0.1, temperature=1.0), 200)
    assert set(counts) == {ids[0]}


# ------------------------------------------------------ degenerate identities

def test_top_k_one_equals_greedy():
    for seed in range(20):
        model = random_ngram_model(random.Random(seed + 100))
        g = greedy(model, [0], cfg(max_new_tokens=8))
        t = top_k_sample(model, [0], cfg(Strategy.TOP_K, k=1, seed=seed, max_new_tokens=8))
        assert t.ids == g.ids
        assert t.finish_reason == g.finish_reason
        assert t.log_prob == pytest.approx(g.log_prob, abs=1e-12)


def test_top_k_full_vocab_equals_plain_sampling():
    for seed in range(20):
        model = random_ngram_model(random.Random(seed + 200))
        size = len(model.vocabulary())
        s = sample(model, [1], cfg(Strategy.SAMPLING, seed=seed, max_new_tokens=8))
        t = top_k_sample(model, [1], cfg(Strategy.TOP_K, k=size + 3, seed=seed, max_new_tokens=8))
        assert t == s


def test_top_p_one_equals_plain_sampling():
    for seed in range(20):
        model = random_ngram_model(random.Random(seed + 300))
        s = sample(model, [1], cfg(Strategy.SAMPLING, seed=seed, max_new_tokens=8))
        t = top_p_sample(model, [1], cfg(Strategy.TOP_P, p=1.0, seed=seed, max_new_tokens=8))
        assert t == s


# ------------------------------------------------------------------ invariants

@pytest.mark.parametrize("strategy", list(Strategy))
def test_length_cap_and_terminal_eos(strategy):
    for seed in range(10):
        model = random_ngram_model(random.Random(seed + 400))
        eos = model.vocabulary().eos_id
        config = cfg(strategy, seed=seed, max_new_tokens=6, no_repeat_ngram_size=0)
        generation = decode(model, [2], config)
        assert len(generation.ids) <= 6
        assert eos not in generation.ids
        assert generation.log_prob <= 0.0
        if generation.finish_reason == FinishReason.MAX_LEN and strategy != Strategy.BEAM:
            assert len(generation.ids) == 6


@pytest.mark.parametrize("strategy", list(Strategy))
def test_decode_is_pure(strategy):
    model = random_ngram_model(random.Random(77))
    config = cfg(strategy, seed=5, max_new_tokens=6)
    assert decode(model, [1, 2], config) == decode(model, [1, 2], config)


def test_dispatch_matches_direct_calls():
    model = random_ngram_model(random.Random(55))
    pairs = [
        (Strategy.GREEDY, greedy),
        (Strategy.BEAM, beam_search),
        (Strategy.SAMPLING, sample),
        (Strategy.TOP_K, top_k_sample),
        (Strategy.TOP_P, top_p_sample),
    ]
    for strategy, fn in pairs:
        config = cfg(strategy, seed=3, max_new_tokens=5)
        assert decode(model, [0], config) == fn(model, [0], config)


def test_filter_nesting_supports():
    """top-k and top-p supports are subsets of the unfiltered support."""
    model = base_model()
    ids = set(content_ids(model))
    n = 400
    plain = set(draw_single_tokens(model, cfg(Strategy.SAMPLING, temperature=1.0), n))
    topk = set(draw_single_tokens(model, cfg(Strategy.TOP_K, k=2, temperature=1.0), n))
    topp = set(draw_single_tokens(model, cfg(Strategy.TOP_P, p=0.75, temperature=1.0), n))
    assert plain <= ids
    assert topk <= plain
    assert topp <= plain


def test_generation_is_frozen_value_object():
    generation = Generation(ids=(1, 2), log_prob=-1.5, finish_reason=FinishReason.EOS)
    assert generation == Generation((1, 2), -1.5, FinishReason.EOS)
    with pytest.raises(AttributeError):
        generation.ids = ()


# ------------------------------------------------- straight-line oracle
#
# The decoders as they were before per-distribution memos: every step
# recomputes its softmax, filter and cumsum, orders tokens with a full
# lexsort, and masks banned beam tokens on a copy of the distribution.


def oracle_softmax(log_probs, temperature):
    scaled = log_probs / max(temperature, 1e-4)
    if np.isnan(scaled).any() or np.isposinf(scaled).any():
        raise ValueError("distribution holds NaN or +inf")
    finite = scaled[np.isfinite(scaled)]
    if finite.size == 0:
        raise ValueError("distribution has no finite entries")
    probs = np.exp(scaled - finite.max())
    return probs / probs.sum()


def oracle_order(probs):
    return np.lexsort((np.arange(len(probs)), -probs))


def oracle_filter(probs, c):
    if c.strategy == Strategy.TOP_K and c.k < len(probs):
        keep = oracle_order(probs)[: c.k]
    elif c.strategy == Strategy.TOP_P and c.p < 1.0:
        order = oracle_order(probs)
        cut = int(np.searchsorted(np.cumsum(probs[order]), c.p, side="left"))
        if cut >= len(probs):
            return probs
        keep = order[: cut + 1]
    else:
        return probs
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out


def oracle_sampling(model, prompt, c):
    eos = model.vocabulary().eos_id
    rng = SplitMix64(c.seed)
    context, emitted, log_prob = list(prompt), [], 0.0
    for _ in range(c.max_new_tokens):
        raw = model.next(context)
        cumulative = np.cumsum(oracle_filter(oracle_softmax(raw, c.temperature), c))
        token = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
        log_prob += float(raw[token])
        if token == eos:
            return Generation(tuple(emitted), log_prob, FinishReason.EOS)
        emitted.append(token)
        context.append(token)
    return Generation(tuple(emitted), log_prob, FinishReason.MAX_LEN)


def oracle_banned(sequence, n):
    if n < 1 or len(sequence) < n - 1:
        return set()
    prefix = tuple(sequence[len(sequence) - n + 1 :]) if n > 1 else ()
    banned = set()
    for start in range(len(sequence) - n + 1):
        if tuple(sequence[start : start + n - 1]) == prefix:
            banned.add(sequence[start + n - 1])
    return banned


@dataclass(order=True)
class OracleHypothesis:
    neg_score: float
    ids: tuple
    score: float = field(compare=False)


def oracle_beam(model, prompt_ids, c):
    eos = model.vocabulary().eos_id
    prompt = tuple(prompt_ids)
    running, finished = [OracleHypothesis(0.0, (), 0.0)], []
    for _ in range(c.max_new_tokens):
        candidates = []
        for hyp in running:
            raw = model.next(prompt + hyp.ids)
            banned = oracle_banned(prompt + hyp.ids, c.no_repeat_ngram_size)
            scores = raw.copy()
            scores[list(banned)] = -math.inf
            if not np.isfinite(scores).any():
                finished.append(hyp)
                continue
            for token in oracle_order(scores)[: c.num_beams + 1]:
                token = int(token)
                if math.isfinite(scores[token]):
                    score = hyp.score + float(raw[token])
                    candidates.append((OracleHypothesis(-score, hyp.ids + (token,), score), token))
        candidates.sort(key=lambda item: item[0])
        new_running = []
        for rank, (candidate, token) in enumerate(candidates):
            if token == eos:
                if rank < c.num_beams:
                    finished.append(OracleHypothesis(candidate.neg_score, candidate.ids[:-1], candidate.score))
            elif len(new_running) < c.num_beams:
                new_running.append(candidate)
            if len(new_running) == c.num_beams and rank + 1 >= c.num_beams:
                break
        running = new_running
        if not running or (c.early_stopping and len(finished) >= c.num_beams):
            break
    best = min(finished or running)
    return Generation(best.ids, best.score, FinishReason.EOS if finished else FinishReason.MAX_LEN)


def oracle_decode(model, prompt, c):
    if c.strategy == Strategy.BEAM:
        return oracle_beam(model, prompt, c)
    if c.strategy == Strategy.GREEDY:
        return greedy(model, prompt, c)  # takes no memo
    return oracle_sampling(model, prompt, c)


POOL_VOCAB = Vocabulary.build(["a", "b", "c", "d", "e", "f"])


@st.composite
def pooled_models(draw):
    """A StubLM that serves a few shared read-only arrays by last token.

    Weights 0-3 give -inf entries and tied floors (many equal weights).
    """
    size = len(POOL_VOCAB)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), dtype=float)
        if not weights.any():
            weights[draw(st.integers(0, size - 1))] = 1.0
        with np.errstate(divide="ignore"):
            logp = np.log(weights / weights.sum())
        logp.setflags(write=False)
        pool.append(logp)
    table = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size + 1, max_size=size + 1))
    model = StubLM(POOL_VOCAB, lambda ctx: pool[table[ctx[-1] if ctx else size]])
    return model, pool


decoder_params = st.tuples(
    st.sampled_from(list(Strategy)),
    st.sampled_from([0.05, 0.5, 0.95, 1.0, 2.5]),
    st.integers(1, len(POOL_VOCAB) + 2),
    st.sampled_from([0.05, 0.3, 0.62, 0.92, 1.0]),
)


@given(
    pooled=pooled_models(),
    prompt=st.lists(st.integers(0, len(POOL_VOCAB) - 1), max_size=4),
    decoders=st.lists(decoder_params, min_size=1, max_size=3),
    num_beams=st.integers(1, 4),
    no_repeat=st.integers(0, 3),
    early_stopping=st.booleans(),
    max_new_tokens=st.integers(1, 10),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_memo_and_fresh_decoders_match_straight_line_oracle(
    pooled, prompt, decoders, num_beams, no_repeat, early_stopping, max_new_tokens, seeds
):
    model, pool = pooled
    memo = {}  # shared by every decoder and row, so keys must tell them apart
    for strategy, temperature, k, p in decoders:
        for seed in seeds:
            c = cfg(
                strategy,
                temperature=temperature,
                k=k,
                p=p,
                num_beams=num_beams,
                no_repeat_ngram_size=no_repeat,
                early_stopping=early_stopping,
                max_new_tokens=max_new_tokens,
                seed=seed,
            )
            expected = oracle_decode(model, prompt, c)
            for got in (decode(model, prompt, c, memo=memo), decode(model, prompt, c, memo=None)):
                assert got.ids == expected.ids
                assert got.log_prob.hex() == expected.log_prob.hex()
                assert got.finish_reason == expected.finish_reason
    # At most one derivation per distinct array and decoder, each holding its array.
    assert len(memo) <= len(pool) * len(decoders)
    assert all(any(held is array for array in pool) for held, _derived in memo.values())


# Finite values, the non-finite ones, and a few that recur in one array, so that entries tie.
distribution_entries = st.one_of(st.floats(), st.sampled_from([-math.inf, math.inf, math.nan, 0.0, -0.5, -1.0, -3.0]))


@given(
    values=st.lists(distribution_entries, max_size=12),
    strategy=st.sampled_from([Strategy.SAMPLING, Strategy.TOP_K, Strategy.TOP_P]),
    temperature=st.sampled_from([1e-5, 0.05, 0.5, 0.95, 1.0, 2.5]),
    k=st.integers(1, 14),
    p=st.sampled_from([0.05, 0.3, 0.62, 0.92, 1.0]),
)
@settings(max_examples=500, deadline=None)
def test_sampling_cdf_is_the_oracle_bit_for_bit(values, strategy, temperature, k, p):
    raw = np.array(values, dtype=float)
    raw.setflags(write=False)
    before = raw.tobytes()
    c = cfg(strategy, temperature=temperature, k=k, p=p)
    with np.errstate(all="ignore"):
        try:
            expected = np.cumsum(oracle_filter(oracle_softmax(raw, temperature), c))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                _sampling_cdf(raw, temperature, strategy, k, p)
            assert str(raised.value) == str(exc)
        else:
            got = _sampling_cdf(raw, temperature, strategy, k, p)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert raw.tobytes() == before


@st.composite
def order3_beam_rows(draw):
    """An order-3 n-gram model, whose rows depend on two ids, and a prompt that repeats an n-gram."""
    model = random_ngram_model(random.Random(draw(st.integers(0, 2**32))), min_order=3)
    ids = st.integers(0, len(model.vocabulary()) - 1)
    gram = draw(st.lists(ids, min_size=1, max_size=3))
    prompt = draw(st.lists(ids, max_size=3)) + gram * draw(st.integers(1, 3)) + draw(st.lists(ids, max_size=2))
    return model, prompt


@given(
    rows=order3_beam_rows(),
    num_beams=st.integers(1, 4),
    no_repeat=st.integers(0, 4),
    early_stopping=st.booleans(),
    max_new_tokens=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_beam_matches_oracle_on_order3_models_with_repeating_prompts(
    rows, num_beams, no_repeat, early_stopping, max_new_tokens
):
    model, prompt = rows
    assert model.order == 3
    c = cfg(
        Strategy.BEAM,
        num_beams=num_beams,
        no_repeat_ngram_size=no_repeat,
        early_stopping=early_stopping,
        max_new_tokens=max_new_tokens,
    )
    expected = oracle_beam(model, prompt, c)
    for memo in ({}, None):
        got = decode(model, prompt, c, memo=memo)
        assert got.ids == expected.ids
        assert got.log_prob.hex() == expected.log_prob.hex()
        assert got.finish_reason == expected.finish_reason


# ------------------------------------------------------------------- lockstep

class _Recorder:
    """``model`` with ``next`` alone, recording every context asked."""

    def __init__(self, model):
        self._model = model
        self.asked = []

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        self.asked.append(tuple(context))
        return self._model.next(context)


class _BatchRecorder(_Recorder):
    """``_Recorder`` that also offers ``next_many`` and records the size of each call."""

    def __init__(self, model):
        super().__init__(model)
        self.batches = []

    def next_many(self, contexts):
        self.batches.append(len(contexts))
        return [self.next(context) for context in contexts]


lockstep_rows = st.lists(
    st.tuples(
        decoder_params,
        st.lists(st.integers(0, len(POOL_VOCAB) - 1), max_size=4),
        st.integers(0, 2**32),
    ),
    min_size=1,
    max_size=6,
)


@given(
    pooled=pooled_models(),
    rows=lockstep_rows,
    num_beams=st.integers(1, 4),
    no_repeat=st.integers(0, 3),
    early_stopping=st.booleans(),
    max_new_tokens=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_decode_many_matches_per_row_decode(pooled, rows, num_beams, no_repeat, early_stopping, max_new_tokens):
    model, _pool = pooled
    prompts = [prompt for _params, prompt, _seed in rows]
    cfgs = [
        cfg(
            strategy,
            temperature=temperature,
            k=k,
            p=p,
            num_beams=num_beams,
            no_repeat_ngram_size=no_repeat,
            early_stopping=early_stopping,
            max_new_tokens=max_new_tokens,
            seed=seed,
        )
        for (strategy, temperature, k, p), _prompt, seed in rows
    ]
    per_row = _Recorder(model)
    expected = [decode(per_row, prompt, c) for prompt, c in zip(prompts, cfgs)]
    for make in (_Recorder, _BatchRecorder):
        for memo in ({}, None):
            lockstep = make(model)
            got = decode_many(lockstep, prompts, cfgs, memo=memo)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g.ids == e.ids
                assert g.log_prob.hex() == e.log_prob.hex()
                assert g.finish_reason == e.finish_reason
            assert Counter(lockstep.asked) == Counter(per_row.asked)
            if make is _BatchRecorder:
                # One model round per step, every live row in it.
                assert len(lockstep.batches) <= max_new_tokens
                assert lockstep.batches[0] == len(rows)


class _MemoWatcher(_BatchRecorder):
    """``_BatchRecorder`` that checks, at every model round, that ``memo`` is within ``bound`` entries."""

    def __init__(self, model, memo, bound):
        super().__init__(model)
        self.memo, self.bound = memo, bound

    def next_many(self, contexts):
        assert len(self.memo) <= self.bound
        return super().next_many(contexts)


@given(
    pooled=pooled_models(),
    rows=st.lists(st.tuples(st.lists(st.integers(0, len(POOL_VOCAB) - 1), max_size=4), st.integers(0, 2**32)),
                  min_size=1, max_size=3),
    bound=st.integers(1, 3),
    k=st.integers(1, len(POOL_VOCAB)),
    p=st.sampled_from([0.3, 0.62, 0.92]),
    max_new_tokens=st.integers(1, 10),
)
@settings(max_examples=150, deadline=None)
def test_bounded_memo_decodes_as_no_memo(pooled, rows, bound, k, p, max_new_tokens):
    model, _pool = pooled
    # Every strategy on every row, so that one memo holds orders and CDFs of several parameters.
    prompts = [prompt for _strategy in Strategy for prompt, _seed in rows]
    cfgs = [
        cfg(strategy, k=k, p=p, max_new_tokens=max_new_tokens, seed=seed)
        for strategy in Strategy
        for _prompt, seed in rows
    ]
    expected = decode_many(model, prompts, cfgs, memo=None)
    memo = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lm, "CACHE_BYTES", bound * 8 * len(POOL_VOCAB))
        got = decode_many(_MemoWatcher(model, memo, bound), prompts, cfgs, memo=memo)
    assert got == expected
    assert 1 <= len(memo) <= bound


def test_decode_many_of_one_row_is_each_strategy_function():
    model = random_ngram_model(random.Random(4))
    functions = {
        Strategy.GREEDY: greedy,
        Strategy.BEAM: beam_search,
        Strategy.SAMPLING: sample,
        Strategy.TOP_K: top_k_sample,
        Strategy.TOP_P: top_p_sample,
    }
    for strategy, fn in functions.items():
        config = cfg(strategy, seed=11, max_new_tokens=8)
        assert decode_many(model, [[1]], [config]) == [fn(model, [1], config)]


def test_decode_many_rejects_mismatched_rows_and_answers():
    model = random_ngram_model(random.Random(5))
    with pytest.raises(ValueError, match="2 prompts but 1 configs"):
        decode_many(model, [[1], [2]], [cfg()])

    class ShortAnswers(_BatchRecorder):
        def next_many(self, contexts):
            return super().next_many(contexts)[:-1]

    with pytest.raises(ValueError, match="1 distributions for 2 contexts"):
        decode_many(ShortAnswers(model), [[1], [2]], [cfg(), cfg()])


# ------------------------------------------------------------- checked ids

class _Counting:
    """Over POOL_VOCAB, a uniform row for every context; counts the contexts asked."""

    def __init__(self):
        self.calls = 0
        self._row = np.full(len(POOL_VOCAB), -math.log(len(POOL_VOCAB)))

    def vocabulary(self):
        return POOL_VOCAB

    def next(self, context):
        self.calls += 1
        return self._row

    def next_many(self, contexts):
        return [self.next(context) for context in contexts]


_bad_prompt_ids = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True),
    st.integers(max_value=-1),
    st.integers(min_value=len(POOL_VOCAB)),
)


@given(
    prompts=st.lists(st.lists(st.integers(0, len(POOL_VOCAB) - 1), max_size=5), min_size=1, max_size=4),
    strategies=st.lists(st.sampled_from(list(Strategy)), min_size=4, max_size=4),
    data=st.data(),
    bad=_bad_prompt_ids,
)
@settings(max_examples=200, deadline=None)
def test_decode_many_checks_every_prompt_before_the_first_model_call(prompts, strategies, data, bad):
    row = data.draw(st.integers(0, len(prompts) - 1), label="row")
    position = data.draw(st.integers(0, len(prompts[row])), label="position")
    prompts[row].insert(position, bad)
    if isinstance(bad, (bool, float)):
        message = f"prompt {row}: token id {bad!r} at position {position} is not an integer"
    else:
        message = f"prompt {row}: token id {bad} at position {position} out of range for |V|={len(POOL_VOCAB)}"
    model = _Counting()
    with pytest.raises(ValueError) as info:
        decode_many(model, prompts, [cfg(s, max_new_tokens=3) for s in strategies[: len(prompts)]])
    assert str(info.value) == message
    assert model.calls == 0


class _ListContexts:
    """``model`` seen through contexts copied into plain lists, which ``NGramModel.next`` scans in full."""

    def __init__(self, model):
        self._model = model

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        return self._model.next(list(context))


_CHECKED_TEXTS = ["a b c a b", "b c a d c", "c a b d a", "a d b c"]


@given(
    order=st.integers(1, 3),
    prompts=st.lists(st.lists(st.integers(0, 6), max_size=5), min_size=1, max_size=4),
    decoder=decoder_params,
    num_beams=st.integers(1, 3),
    no_repeat=st.integers(0, 3),
    max_new_tokens=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_unscanned_contexts_decode_as_scanned_ones(order, prompts, decoder, num_beams, no_repeat, max_new_tokens, seed):
    model = fit_ngram(_CHECKED_TEXTS, order=order, vocab_cap=10)
    assert len(model.vocabulary()) == 7
    strategy, temperature, k, p = decoder
    cfgs = [
        cfg(strategy, temperature=temperature, k=k, p=p, num_beams=num_beams,
            no_repeat_ngram_size=no_repeat, max_new_tokens=max_new_tokens, seed=seed + i)
        for i in range(len(prompts))
    ]
    assert decode_many(model, prompts, cfgs, memo={}) == decode_many(_ListContexts(model), prompts, cfgs, memo={})


def test_ngram_next_scans_a_subclass_of_the_checked_context_type():
    class Sub(lm._Context):
        __slots__ = ()

    model = fit_ngram(_CHECKED_TEXTS, order=2, vocab_cap=10)
    with pytest.raises(ValueError, match=r"^token id 99 at position 1 out of range for \|V\|=7$"):
        model.next(Sub([3, 99]))
    with pytest.raises(ValueError, match="token id True at position 0 is not an integer"):
        model.next(Sub([True]))
    with pytest.raises(ValueError, match="token id 1.0 at position 0 is not an integer"):
        model.next(Sub([1.0, 3]))


_FIVE = Vocabulary.build(["x", "y"])


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("row", [[-1, -1, -1, math.inf, -1], [-1, -1, math.nan, -1, -1], [math.nan] * 5])
def test_rows_holding_nan_or_inf_are_value_errors(strategy, row):
    logp = np.array(row)
    logp.setflags(write=False)
    model = StubLM(_FIVE, lambda ctx: logp)
    for memo in ({}, None):
        with pytest.raises(ValueError, match=r"^distribution holds NaN or \+inf$"):
            decode(model, [3], cfg(strategy, max_new_tokens=4), memo=memo)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_rows_not_vocabulary_long_are_value_errors(strategy):
    long_row = np.log(np.full(6, 1 / 6))
    model = StubLM(_FIVE, lambda ctx: long_row)
    with pytest.raises(ValueError, match=r"model answered a row of 6 entries for \|V\|=5"):
        decode(model, [3], cfg(strategy))
