import math
import random

import numpy as np
import pytest

from lyricsense.lm import Vocabulary, fit_ngram

MINI_CORPUS = "src/lyricsense/data/mini_corpus.jsonl"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory for a Hypothesis test's files: its examples cannot share the function-scoped ``tmp_path``."""
    return tmp_path_factory.mktemp("scratch")


@pytest.fixture(scope="session")
def mini_corpus_path():
    import os

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(here, "src", "lyricsense", "data", "mini_corpus.jsonl")


class StubLM:
    """Table-backed model: a fixed log-prob vector per context tail."""

    def __init__(self, vocab, dist_fn):
        self._vocab = vocab
        self._fn = dist_fn

    def vocabulary(self):
        return self._vocab

    def next(self, context):
        return self._fn(tuple(context))


def const_model(content_probs):
    """Model whose distribution never depends on context.

    content_probs maps content token -> probability; everything else
    (including EOS) gets probability zero, so generation only stops at
    the length cap.
    """
    tokens = list(content_probs)
    vocab = Vocabulary.build(tokens)
    logp = np.full(len(vocab), -math.inf)
    for token, prob in content_probs.items():
        logp[vocab.id_of(token)] = math.log(prob)
    logp.setflags(write=False)
    return StubLM(vocab, lambda ctx: logp)


def chain_model(chain):
    """One-hot model forcing the token sequence ``chain`` and then EOS.

    Transitions are keyed on the previous token, so chain tokens must be
    distinct.
    """
    assert len(set(chain)) == len(chain), "chain tokens must be distinct"
    tokens = sorted(set(chain))
    vocab = Vocabulary.build(tokens)
    ids = [vocab.id_of(t) for t in chain]

    def one_hot(token_id):
        logp = np.full(len(vocab), -math.inf)
        logp[token_id] = 0.0
        logp.setflags(write=False)
        return logp

    step_after = {}
    for i, token_id in enumerate(ids):
        nxt = ids[i + 1] if i + 1 < len(ids) else vocab.eos_id
        step_after[token_id] = one_hot(nxt)
    start = one_hot(ids[0]) if ids else one_hot(vocab.eos_id)
    eos_vec = one_hot(vocab.eos_id)

    def fn(ctx):
        if not ctx:
            return start
        return step_after.get(ctx[-1], eos_vec)

    return StubLM(vocab, fn)


def random_ngram_model(rng: random.Random, max_content: int = 4, max_order: int = 3, min_order: int = 1):
    """Small random n-gram model fit on random token soup."""
    alphabet = list("abcd")[: rng.randint(2, max_content)]
    texts = [
        " ".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
        for _ in range(rng.randint(2, 6))
    ]
    return fit_ngram(
        texts,
        order=rng.randint(min_order, max_order),
        k=rng.choice([0.05, 0.1, 0.5, 1.0]),
        vocab_cap=10,
    )


def renormalized_target(probs, temperature, strategy=None, k=None, p=None):
    """Independent application of the documented sampler filtering rules.

    Temperature first (q_i proportional to p_i ** (1/T)), then the top-k or
    nucleus cut with ties toward lower ids, then renormalization.
    """
    q = np.asarray(probs, dtype=float) ** (1.0 / temperature)
    q /= q.sum()
    order = np.lexsort((np.arange(len(q)), -q))
    keep = np.arange(len(q))
    if strategy == "top_k" and k < len(q):
        keep = order[:k]
    elif strategy == "top_p" and p < 1.0:
        cum = np.cumsum(q[order])
        cut = int(np.searchsorted(cum, p, side="left"))
        keep = order[: min(cut + 1, len(q))]
    mask = np.zeros(len(q), dtype=bool)
    mask[keep] = True
    out = np.where(mask, q, 0.0)
    return out / out.sum()


def chi_square_ok(counts, expected_probs, token_ids, n_draws, alpha=0.001):
    """Goodness-of-fit of observed draw counts against expected probabilities.

    Also requires that nothing at all was drawn outside the expected
    support. Returns True when the chi-square p-value exceeds alpha.
    """
    from scipy import stats as scipy_stats

    observed = np.array([counts.get(t, 0) for t in token_ids], dtype=float)
    expected = np.array(expected_probs, dtype=float) * n_draws
    live = expected > 0
    assert observed[~live].sum() == 0, "draws outside the filtered support"
    result = scipy_stats.chisquare(observed[live], expected[live])
    return result.pvalue > alpha


def brute_force_best_finished_log_prob(model, prompt_ids, max_new_tokens):
    """Exhaustive-enumeration oracle for beam search.

    Enumerates every EOS-terminated generation of emitted length
    <= max_new_tokens (the EOS emission counts as a step) and returns the
    maximum summed log probability, EOS step included. Independent of the
    beam implementation: no pruning, plain depth-first recursion.
    """
    vocab = model.vocabulary()
    eos = vocab.eos_id
    non_eos = [i for i in range(len(vocab)) if i != eos]
    best = -math.inf

    def walk(prefix, score, depth):
        nonlocal best
        logp = model.next(list(prompt_ids) + prefix)
        finished = score + float(logp[eos])
        if finished > best:
            best = finished
        if depth == max_new_tokens - 1:
            return
        for token in non_eos:
            step = float(logp[token])
            if step > -math.inf:
                walk(prefix + [token], score + step, depth + 1)

    walk([], 0.0, 0)
    return best
