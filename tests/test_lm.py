import itertools
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import chain_model, random_ngram_model
from lyricsense import lm
from lyricsense.lm import (
    BOS,
    EOS,
    UNK,
    MAX_ORDER,
    NGramModel,
    TrainingTexts,
    Vocabulary,
    fit_ngram,
    sequence_log_prob,
    tokenize_lm,
)


def test_tokenize_lm_rules():
    assert tokenize_lm("Don't stop.") == ["don't", "stop", "."]
    assert tokenize_lm("lyrics: X. meaning:") == ["lyrics", ":", "x", ".", "meaning", ":"]
    assert tokenize_lm("") == []
    assert tokenize_lm("well-known (yes!)") == ["well", "-", "known", "(", "yes", "!", ")"]


# Whitespace that str.split and the regex's \s both take (NBSP, NEL, LINE
# SEPARATOR, FILE SEPARATOR), the apostrophe, letters whose lowercase depends
# on their neighbours or grows (sigma, dotted capital I), and punctuation runs.
_split_pieces = st.sampled_from(
    ["a", "Z", "9", "_", "\u00e9", "\u03a3", "\u03c3", "\u0391", "\u0130", "\u0307", "'", "''", ".", "!?", "...", "-'-",
     " ", "\t", "\n", "\u00a0", "\u0085", "\u2028", "\u001c", "\u3000"]
)


@given(st.lists(st.one_of(_split_pieces, st.characters()), max_size=24).map("".join))
@example("\u0391\u03a3\u00a0\u03a3\u0391")  # final sigma before a space that is not ASCII
@example("\u0391'\u03a3\u0085\u0130'\u03a3")
@example("it's\u2028'quoted'\u001c!?!")
@settings(max_examples=300)
def test_tokenize_lm_is_the_concatenation_over_whitespace_words(text):
    assert tokenize_lm(text) == [tok for word in text.split() for tok in tokenize_lm(word)]


def test_vocabulary_bijection_and_reserved():
    vocab = Vocabulary.build(["a", "b"])
    assert len(vocab) == 5
    assert vocab.tokens[vocab.bos_id] == BOS
    assert vocab.tokens[vocab.eos_id] == EOS
    assert vocab.tokens[vocab.unk_id] == UNK
    assert [vocab.id_of(t) for t in vocab.tokens] == list(range(5))
    assert vocab.encode(["a", "zzz", "b"]) == [vocab.id_of("a"), vocab.unk_id, vocab.id_of("b")]
    assert vocab.decode([3, 4]) == ["a", "b"]


def test_vocabulary_rejects_duplicates_and_bad_reserved():
    with pytest.raises(ValueError):
        Vocabulary(tokens=("x", "x", "y"), bos_id=0, eos_id=1, unk_id=2)
    with pytest.raises(ValueError):
        Vocabulary(tokens=("a", "b", "c"), bos_id=0, eos_id=0, unk_id=1)
    with pytest.raises(ValueError):
        Vocabulary(tokens=("a", "b", "c"), bos_id=0, eos_id=1, unk_id=9)


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fit_ngram(["a"], order=0)
    with pytest.raises(ValueError):
        fit_ngram(["a"], order=1, k=0.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^smoothing constant k must be positive and finite, got"):
            fit_ngram(["a"], order=1, k=k)
    with pytest.raises(ValueError):
        fit_ngram(["a"], order=1, vocab_cap=2)
    with pytest.raises(ValueError, match="training text"):
        fit_ngram([], order=1)
    with pytest.raises(ValueError, match="training text"):
        fit_ngram(["", "   "], order=2)


def test_add_k_closed_form_bigram():
    # texts "a b" twice: context (a) saw b twice; |V| = 2 content + 3 reserved.
    model = fit_ngram(["a b", "a b"], order=2, k=0.1, vocab_cap=10)
    vocab = model.vocabulary()
    a, b = vocab.id_of("a"), vocab.id_of("b")
    dist = model.next([a])
    expected_b = (2 + 0.1) / (2 + 0.1 * 5)  # (count + k) / (total + k|V|) = 0.84
    assert abs(math.exp(dist[b]) - expected_b) < 1e-12
    assert abs(math.exp(dist[a]) - 0.1 / 2.5) < 1e-12


def test_add_k_limit_probability_one():
    model = fit_ngram(["a b", "a b"], order=2, k=1e-9, vocab_cap=10)
    vocab = model.vocabulary()
    dist = model.next([vocab.id_of("a")])
    assert math.exp(dist[vocab.id_of("b")]) == pytest.approx(1.0, abs=1e-6)


def test_unigram_ignores_context():
    model = fit_ngram(["a b c a"], order=1, k=0.5, vocab_cap=10)
    base = model.next([])
    for ctx in ([0], [3], [4, 3], [2, 2, 2]):
        assert np.array_equal(model.next(ctx), base)


def test_unseen_context_is_exactly_uniform():
    model = fit_ngram(["a b"], order=3, k=0.7, vocab_cap=10)
    vocab = model.vocabulary()
    a, b = vocab.id_of("a"), vocab.id_of("b")
    dist = model.next([b, a])  # context (b, a) never observed
    probs = np.exp(dist)
    assert np.allclose(probs, 1.0 / len(vocab), atol=1e-12)


def test_peaked_context():
    model = fit_ngram(["a a a"], order=2, k=0.1, vocab_cap=10)
    vocab = model.vocabulary()
    a = vocab.id_of("a")
    dist = model.next([a])
    assert int(np.argmax(dist)) == a


def test_next_is_deterministic():
    model = fit_ngram(["x y z x y"], order=2, k=0.3, vocab_cap=10)
    first = model.next([3])
    second = model.next([3])
    assert np.array_equal(first, second)


def test_distributions_normalize():
    rng = random.Random(4)
    model = fit_ngram(["a b c d a b", "c c d"], order=2, k=0.2, vocab_cap=10)
    size = len(model.vocabulary())
    for _ in range(100):
        ctx = [rng.randrange(size) for _ in range(rng.randint(0, 5))]
        dist = model.next(ctx)
        assert abs(float(np.exp(dist).sum()) - 1.0) < 1e-6


@given(st.integers(0, 1000), st.integers(1, 3))
@settings(max_examples=60)
def test_context_truncation(seed, order):
    rng = random.Random(seed)
    model = random_ngram_model(rng)
    size = len(model.vocabulary())
    ctx = [rng.randrange(size) for _ in range(6)]
    truncated = ctx[-(model.order - 1):] if model.order > 1 else []
    assert np.array_equal(model.next(ctx), model.next(truncated))


def test_out_of_range_context_id():
    model = fit_ngram(["a b"], order=2, k=0.1, vocab_cap=10)
    with pytest.raises(ValueError, match="out of range"):
        model.next([99])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("context", [[10**9, -5], [-1], [10**9, 3], [99, 3, 4]])
def test_every_context_id_is_range_checked_for_any_order(order, context):
    model = fit_ngram(["a b c"], order=order)
    with pytest.raises(ValueError, match="out of range"):
        model.next(context)


_ID_MODEL = fit_ngram(["a b c", "b c a"], order=2, k=0.1, vocab_cap=10)
_ID_SIZE = len(_ID_MODEL.vocabulary())
_good_ids = st.integers(0, _ID_SIZE - 1)
_bad_ids = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True),
    st.integers(max_value=-1),
    st.integers(min_value=_ID_SIZE),
)


def _first_bad(ids):
    for position, token_id in enumerate(ids):
        if isinstance(token_id, (bool, float)):
            return f"token id {token_id!r} at position {position} is not an integer"
        if not 0 <= token_id < _ID_SIZE:
            return f"token id {token_id} at position {position} out of range for |V|={_ID_SIZE}"
    return None


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.one_of(_good_ids, _good_ids, _bad_ids), min_size=1, max_size=6))
@example(ids=[True])
@example(ids=[1.0])
@example(ids=[3, True])
@example(ids=[2.0, 3])
def test_bad_ids_are_value_errors_naming_the_id(ids):
    """Bools and floats are no ids, even those equal to one; the first bad id is named."""
    message = _first_bad(ids)
    for call in (lambda: _ID_MODEL.next(ids), lambda: sequence_log_prob(_ID_MODEL, ids)):
        if message is None:
            call()
        else:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def test_vocab_cap_and_unk():
    texts = ["common common common rare apple", "common unusual"]
    model = fit_ngram(texts, order=1, k=0.1, vocab_cap=3)
    vocab = model.vocabulary()
    assert len(vocab) == 6  # 3 reserved + 3 kept
    assert vocab.id_of("common") != vocab.unk_id
    # apple/rare/unusual tie at count 1; alphabetical order fills the cap
    assert vocab.id_of("apple") != vocab.unk_id
    assert vocab.id_of("rare") != vocab.unk_id
    assert vocab.id_of("unusual") == vocab.unk_id


def test_eos_terminates_training_texts():
    model = fit_ngram(["a"], order=2, k=1e-9, vocab_cap=10)
    vocab = model.vocabulary()
    dist = model.next([vocab.id_of("a")])
    assert int(np.argmax(dist)) == vocab.eos_id


def test_sequence_log_prob_single_token():
    model = fit_ngram(["a b a"], order=2, k=0.1, vocab_cap=10)
    a = model.vocabulary().id_of("a")
    assert sequence_log_prob(model, [a]) == float(model.next([])[a])


def test_sequence_log_prob_chain_rule():
    model = fit_ngram(["a b c", "b c a"], order=3, k=0.1, vocab_cap=10)
    vocab = model.vocabulary()
    ids = [vocab.id_of(t) for t in ("a", "b", "c")]
    prefix = sequence_log_prob(model, ids[:2])
    remainder = float(model.next(ids[:2])[ids[2]])
    assert sequence_log_prob(model, ids) == pytest.approx(prefix + remainder, abs=1e-12)


def test_sequence_log_prob_monotone_in_extension():
    rng = random.Random(11)
    model = random_ngram_model(rng)
    size = len(model.vocabulary())
    ids = [rng.randrange(size) for _ in range(6)]
    values = [sequence_log_prob(model, ids[: n + 1]) for n in range(len(ids))]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_sequence_log_prob_one_hot_chain_is_zero():
    model = chain_model(["a", "b", "c"])
    vocab = model.vocabulary()
    ids = [vocab.id_of(t) for t in ("a", "b", "c")]
    assert sequence_log_prob(model, ids) == 0.0


def test_sequence_log_prob_rejects_empty_and_bad_ids():
    model = fit_ngram(["a"], order=1, k=0.1, vocab_cap=10)
    with pytest.raises(ValueError):
        sequence_log_prob(model, [])
    with pytest.raises(ValueError):
        sequence_log_prob(model, [77])


@pytest.mark.parametrize("seed", range(5))
def test_total_mass_over_fixed_length_sequences(seed):
    """Exhaustive check: P(>= L tokens) + P(< L tokens) = 1."""
    rng = random.Random(seed)
    model = random_ngram_model(rng, max_content=3)
    vocab = model.vocabulary()
    eos = vocab.eos_id
    size = len(vocab)
    L = 3
    non_eos = [i for i in range(size) if i != eos]

    def mass_of_length(length, prefix):
        # probability of emitting exactly `prefix` then stopping
        return math.exp(sequence_log_prob(model, prefix + [eos]))

    p_short = 0.0  # stopped before L tokens
    stack = [[]]
    for depth in range(L):
        next_stack = []
        for prefix in stack:
            p_short += mass_of_length(depth, prefix)
            for token in non_eos:
                next_stack.append(prefix + [token])
        stack = next_stack
    p_long = sum(math.exp(sequence_log_prob(model, prefix)) for prefix in stack)
    assert p_short + p_long == pytest.approx(1.0, abs=1e-9)


def test_save_load_round_trip(tmp_path):
    model = fit_ngram(["a b c a", "b c"], order=2, k=0.25, vocab_cap=10)
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = NGramModel.load(str(path))
    assert loaded.order == model.order
    assert loaded.k == model.k
    assert loaded.vocabulary().tokens == model.vocabulary().tokens
    size = len(model.vocabulary())
    for ctx in ([], [3], [4, 5], [2]):
        assert np.array_equal(loaded.next(ctx), model.next(ctx))


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        NGramModel.load(str(path))


def _oracle_fit(texts, order, k, vocab_cap):
    """Reference fit that counts every position of every padded text one at a time."""
    tokenized = [toks for toks in (tokenize_lm(text) for text in texts) if toks]
    frequencies = Counter(tok for toks in tokenized for tok in toks)
    kept = sorted(frequencies.items(), key=lambda item: (-item[1], item[0]))[:vocab_cap]
    vocab = Vocabulary.build([tok for tok, _ in kept])
    counts = Counter()
    pad = (vocab.bos_id,) * (order - 1)
    for toks in tokenized:
        ids = (*pad, *vocab.encode(toks), vocab.eos_id)
        for t in range(order - 1, len(ids)):
            counts[ids[t - order + 1 : t + 1]] += 1
    grams = sorted(counts)
    table = np.array(grams, np.int64).reshape(-1, order)
    return NGramModel(order, k, vocab, table, np.array([counts[g] for g in grams]))


_words = st.sampled_from(
    ["a", "b", "c", "Don't", "it's", "x_y", "café", "", " ", "\n", ",", "!?", "...", "'", "(b)"]
)
_texts = st.lists(st.lists(_words, max_size=8).map(" ".join), min_size=1, max_size=6)


@given(texts=_texts, order=st.integers(1, 4), vocab_cap=st.integers(3, 20))
@settings(max_examples=120)
def test_fit_matches_per_position_counting(texts, order, vocab_cap):
    if not any(tokenize_lm(text) for text in texts):
        with pytest.raises(ValueError, match="training text"):
            fit_ngram(texts, order=order, k=0.1, vocab_cap=vocab_cap)
        return
    fitted = fit_ngram(texts, order=order, k=0.1, vocab_cap=vocab_cap)
    assert fitted.to_dict() == _oracle_fit(texts, order, 0.1, vocab_cap).to_dict()


def _straight_line_row(saved: dict, context: tuple[int, ...]) -> np.ndarray:
    """The add-k row of ``context`` from a saved model's counts, one ``math.log`` per entry."""
    size, k = len(saved["tokens"]), saved["k"]
    counter = saved["counts"].get(" ".join(map(str, context)), {})
    denom = math.log(sum(counter.values()) + k * size)
    row = [math.log(k) - denom] * size
    for token_id, count in counter.items():
        row[int(token_id)] = math.log(count + k) - denom
    return np.array(row)


@given(
    texts=_texts,
    order=st.integers(1, 4),
    k=st.sampled_from([1e-12, 0.1, 0.3, 1.0, 7.5]),
    vocab_cap=st.integers(3, 20),
    unseen=st.lists(st.lists(st.integers(0, 30), max_size=4), max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_rows_equal_straight_line_add_k_rows_of_the_saved_counts(texts, order, k, vocab_cap, unseen):
    assume(any(tokenize_lm(text) for text in texts))
    fitted = fit_ngram(texts, order=order, k=k, vocab_cap=vocab_cap)
    saved = fitted.to_dict()
    loaded = NGramModel.from_dict(json.loads(json.dumps(saved, sort_keys=True)))  # keys in string order, as saved
    assert loaded.to_dict() == saved
    size, bos = len(fitted.vocabulary()), fitted.vocabulary().bos_id
    contexts = [tuple(map(int, key.split())) for key in saved["counts"]]
    contexts += [tuple(([bos] * order + [i % size for i in ids])[-order + 1 :]) if order > 1 else () for ids in unseen]
    for context in contexts:
        expected = _straight_line_row(saved, context).tobytes()
        assert fitted.next(list(context)).tobytes() == expected
        assert loaded.next(list(context)).tobytes() == expected
    # Every unseen context gets the one shared uniform row.
    for model in (fitted, loaded):
        unseen_rows = [model.next(list(c)) for c in contexts if " ".join(map(str, c)) not in saved["counts"]]
        assert all(row is model._uniform for row in unseen_rows)


_capped_words = [f"w{i}" for i in range(25)]  # more distinct words than the cap of 20


@given(
    texts=st.lists(st.lists(st.sampled_from([*_capped_words, "it's", ",", "!?"]), max_size=30).map(" ".join), max_size=4),
    order=st.integers(14, MAX_ORDER),
)
@example(texts=[], order=MAX_ORDER)
@settings(max_examples=40)
def test_fit_matches_per_position_counting_past_int64_keys(texts, order):
    # |V| = 23, and 23**14 > 2**63: keys of every drawn order overflow int64.
    texts = [" ".join(_capped_words), *texts]
    fitted = fit_ngram(texts, order=order, k=0.1, vocab_cap=20)
    assert len(fitted.vocabulary()) ** order > 2**63
    assert fitted.to_dict() == _oracle_fit(texts, order, 0.1, 20).to_dict()


def test_fit_matches_per_position_counting_on_a_capped_corpus():
    rng = random.Random(13)
    prefixes, suffixes = ["", "Re", "o"], ["", "'s", ",", "!?", "."]
    lexicon = [rng.choice(prefixes) + f"w{i}" + rng.choice(suffixes) for i in range(600)]
    weights = [1 / (rank + 1) for rank in range(len(lexicon))]
    texts = [" ".join(rng.choices(lexicon, weights, k=rng.randint(0, 30))) for _ in range(300)]
    shared = TrainingTexts(texts)
    assert len(set(tokenize_lm(" ".join(texts)))) > 400
    for order in (1, 2, 3):
        fitted = fit_ngram(shared, order=order, k=0.1, vocab_cap=150)
        assert len(fitted.vocabulary()) == 153
        assert fitted.to_dict() == _oracle_fit(texts, order, 0.1, 150).to_dict()
        # Exact Python-int counts, as a saved model is read back.
        assert all(type(c) is int for nexts in fitted.to_dict()["counts"].values() for c in nexts.values())


def test_shared_training_texts_fit_the_same_models():
    texts = ["a b c a b", "c a b d", "d d e", "", "it's a b"]
    shared = TrainingTexts(texts)
    for order in (1, 2, 3):
        for cap in (3, 4, 10):
            fresh = fit_ngram(list(texts), order=order, k=0.3, vocab_cap=cap)
            assert fit_ngram(shared, order=order, k=0.3, vocab_cap=cap).to_dict() == fresh.to_dict()
    assert list(shared) == [(text,) for text in texts]  # each string is a one-part text
    # Same cap, same vocabulary object.
    assert fit_ngram(shared, order=1).vocabulary() is fit_ngram(shared, order=3).vocabulary()


def test_table_texts_fit_as_the_joined_texts():
    # Piece 0 is in no row, and -1 marks no piece anywhere in a row.
    rows = np.array([[1, 2, 3], [-1, 3, 1], [-1, -1, -1], [4, -1, 5]])
    table = TrainingTexts.from_table(["unused words", "a b", ",", " c ", "b b", " d"], rows)
    texts = ["a b, c ", " c a b", "", "b b d"]
    assert len(table) == 4
    assert ["".join(text) for text in table] == texts
    for order in (1, 2, 3):
        for cap in (3, 10):
            fresh = fit_ngram(texts, order=order, k=0.3, vocab_cap=cap)
            assert fit_ngram(table, order=order, k=0.3, vocab_cap=cap).to_dict() == fresh.to_dict()


def test_unseen_contexts_share_one_uniform_vector_and_stay_uncached():
    words = [f"w{i}" for i in range(150)]
    model = fit_ngram([" ".join(words), " ".join(reversed(words))], order=3, k=0.7, vocab_cap=200)
    size = len(model.vocabulary())
    seen = model.next([3, 4])  # a context with counts is cached
    cached = len(model._cache)
    unseen = [ctx for ctx in itertools.product(range(size), repeat=2) if ctx not in model._runs]
    assert len(unseen) >= 10_000
    for ctx in unseen[:10_000]:
        model.next(list(ctx))
    assert len(model._cache) == cached <= len(model._runs)
    uniform = model.next([0, 2])  # (bos, unk) never occurs in training
    assert not uniform.flags.writeable and not seen.flags.writeable
    expected = np.full(size, math.log(0.7) - math.log(0 + 0.7 * size))
    assert uniform.tobytes() == expected.tobytes()


@given(
    texts=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12).map(" ".join), min_size=1, max_size=5
    ),
    order=st.integers(1, 4),
    rows=st.integers(1, 4),
    contexts=st.lists(st.lists(st.integers(0, 8), max_size=5), min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_bounded_row_cache_is_lru_and_serves_the_uncapped_rows(texts, order, rows, contexts):
    uncapped = fit_ngram(texts, order=order, k=0.3, vocab_cap=10)
    size = len(uncapped.vocabulary())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lm, "CACHE_BYTES", rows * 8 * size + 7)  # a budget a few bytes past `rows` rows
        capped = fit_ngram(texts, order=order, k=0.3, vocab_cap=10)
    bos = capped.vocabulary().bos_id
    recent = []  # counted tails, least recently used first, as an LRU cache of `rows` keeps them
    for ctx in contexts:
        ctx = [i % size for i in ctx]
        row = capped.next(ctx)
        assert row.tobytes() == uncapped.next(ctx).tobytes()
        assert not row.flags.writeable
        tail = tuple(([bos] * order + ctx)[len(ctx) + 1 :])
        if tail in capped._runs:
            if tail in recent:
                recent.remove(tail)
            recent = (recent + [tail])[-rows:]
            assert capped._cache[tail] is row
        assert list(capped._cache) == recent
        assert len(capped._cache) <= rows


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**21])
def test_order_is_bounded_from_above(order):
    with pytest.raises(ValueError, match="order"):
        fit_ngram(["a b"], order=order)
    with pytest.raises(ValueError, match="order"):
        NGramModel(order, 0.1, Vocabulary.build(["a"]), np.empty((0, 2), np.int64), np.empty(0, np.int64))
    saved = {**fit_ngram(["a b"], order=2).to_dict(), "order": order}
    with pytest.raises(ValueError, match="^m.json: order"):
        NGramModel.from_dict(saved, "m.json")
    assert fit_ngram(["a b"], order=MAX_ORDER).order == MAX_ORDER


_SAVED = {order: fit_ngram(["a b c a b", "c a b"], order=order, k=0.1).to_dict() for order in (1, 2, 3)}  # |V| = 6


def test_saved_counts_name_a_bad_key_and_its_id():
    saved = {**_SAVED[3], "counts": {"3 4": {"9": 1}}}
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict(saved, "m.json")
    assert str(exc_info.value) == "m.json: field 'counts' key \"3 4\": token id 9 out of range for |V|=6"
    saved = {**_SAVED[2], "counts": {**_SAVED[2]["counts"], "3 4 5": {"4": 1}}}
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict(saved, "m.json")
    assert str(exc_info.value) == "m.json: field 'counts' key \"3 4 5\": expected 1 token ids for order 2, got 3"
    # Two spellings of one context would merge their counts.
    saved = {**_SAVED[2], "counts": {"3": {"4": 5}, "03": {"3": 1}}}
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict(saved, "m.json")
    assert str(exc_info.value) == "m.json: field 'counts' key \"03\": token id '03' is not a canonical decimal integer"
    saved = {**_SAVED[2], "counts": {"3": {"4": 2**62, "5": 2**62}}}
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict(saved, "m.json")
    assert str(exc_info.value) == f"m.json: field 'counts' key \"3\": counts sum to {2**63}, expected less than 2**63"


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"tokens": ["<bos>", "<eos>", "<unk>", "a", "a"]}, "vocabulary tokens must be distinct"),
        ({"unk_id": 6}, "reserved ids must be three distinct in-range ids"),
        ({"eos_id": 0}, "reserved ids must be three distinct in-range ids"),
    ],
)
def test_saved_vocabulary_errors_name_the_file(fields, reason):
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict({**_SAVED[2], **fields}, "m.json")
    assert str(exc_info.value) == f"m.json: {reason}"


def test_k_whose_product_with_the_vocabulary_size_overflows_is_rejected():
    with pytest.raises(ValueError, match=r"k=1e\+308 times \|V\|=8 overflows"):
        fit_ngram(["a b c d", "b c d e"], order=2, k=1e308)
    with pytest.raises(ValueError, match=r"^m.json: smoothing constant k=1e\+308 times \|V\|=6 overflows"):
        NGramModel.from_dict({**_SAVED[2], "k": 1e308}, "m.json")
    # A k just short of the overflow still gives finite rows.
    model = fit_ngram(["a b c d", "b c d e"], order=2, k=1e307)
    assert np.isfinite(model.next([3])).all() and np.isfinite(model.next([7, 7])).all()


# "9" * 5000 is past the digits ``int`` converts by default.
_bad_ids = st.integers(6, 10**6).map(str) | st.sampled_from(["-1", "x", "3.0", "+3", "0x3", "\u00bd", "9" * 5000])
# Other spellings of good ids, which would name the same id as "3" or "0": a
# leading zero, a non-ASCII digit, or whitespace that ``int`` would strip.
_noncanonical_ids = st.sampled_from(["03", "00", "0003", "\u0663", "\uff13", "3\t", "\n3", "\u00a03"])


def _canonical(token_id: str) -> bool:
    return re.fullmatch("0|[1-9][0-9]*", token_id) is not None


@given(order=st.sampled_from([1, 2, 3]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_saved_counts_are_a_value_error_naming_the_key_and_id(order, data):
    """One bad entry among good counts.

    A key of the wrong length or spacing, a bad or non-canonical id in a key
    or a count table, an empty count table, or a count below 1.
    """
    saved = _SAVED[order]
    counts = {key: dict(counter) for key, counter in saved["counts"].items()}
    good_ids = st.integers(0, 5).map(str)
    kinds = ["key_length", "key_spacing", "empty", "count_id", "count"] + (["key_id"] if order > 1 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "key_length":
        length = data.draw(st.integers(0, 4).filter(lambda n: n != order - 1))
        key = " ".join(data.draw(st.lists(good_ids, min_size=length, max_size=length)))
        counts[key] = {"3": 1}
        reason = f"expected {order - 1} token ids for order {order}, got {length}"
    elif kind == "key_spacing":
        good = data.draw(st.sampled_from(sorted(counts)))
        at = data.draw(st.integers(0, len(good)))
        key = good[:at] + " " + good[at:]
        counts[key] = {"3": 1}
        reason = f"expected {order - 1} token ids for order {order}, got {len(key.split(' '))}"
    elif kind == "empty":
        key = data.draw(st.sampled_from(sorted(counts)))
        counts[key] = {}
        reason = "expected at least one token id"
    elif kind == "count":
        key = data.draw(st.sampled_from(sorted(counts)))
        token_id, count = data.draw(good_ids), data.draw(st.integers(max_value=0))
        counts[key][token_id] = count
        reason = f"token id {token_id} has count {count}, expected a positive integer"
    else:
        # In a key, "" or a space would change the number of ids instead.
        only_in_tables = st.sampled_from(["", " 3"]) if kind == "count_id" else st.nothing()
        bad = data.draw(_bad_ids | _noncanonical_ids | only_in_tables)
        if kind == "count_id":
            key = data.draw(st.sampled_from(sorted(counts)))
            counts[key][bad] = data.draw(st.integers(1, 5))
        else:
            ids = data.draw(st.lists(good_ids, min_size=order - 1, max_size=order - 1))
            ids[data.draw(st.integers(0, order - 2))] = bad
            key = " ".join(ids)
            counts[key] = {"3": 1}
        reason = f"token id {bad} out of range for |V|=6"
        if not _canonical(bad):
            reason = f"token id {bad!r} is not a canonical decimal integer"
    with pytest.raises(ValueError) as exc_info:
        NGramModel.from_dict({**saved, "counts": counts}, "m.json")
    assert str(exc_info.value) == f"m.json: field 'counts' key {json.dumps(key)}: {reason}"
