"""Conditional language-model contract plus the add-k n-gram reference model.

Decoders consume anything satisfying :class:`LanguageModel`: a vocabulary
and a deterministic ``next(context) -> NextTokenDistribution`` step. The
bundled implementation is a word-level add-k smoothed n-gram model, small
enough that every probability it produces can be checked by hand; larger
models are reached over the wire protocol in :mod:`lyricsense.wire`.

Models of several orders fitted on the same corpus share one
:class:`TrainingTexts`: the texts are tokenized once, and each vocabulary
cap's vocabulary and encoded id lists are built once, whatever the number
of orders. A fitted model caches one read-only distribution per context
seen in training, so its cache never holds more than ``len(counts)``
arrays; every unseen context shares one uniform vector.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .jsonfields import load_json, required, typed

MAX_ORDER = 64  # far past any useful n-gram order, and small enough to pad with BOS
SUM_TOLERANCE = 1e-6  # how far from 1 a distribution's probabilities may sum
BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"

# Lowercased words (inner apostrophes kept) or single punctuation marks.
_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")


def tokenize_lm(text: str) -> list[str]:
    """Word-level tokenizer for the reference model."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between token strings and dense ids, with reserved markers."""

    tokens: tuple[str, ...]
    bos_id: int
    eos_id: int
    unk_id: int

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be distinct")
        reserved = {self.bos_id, self.eos_id, self.unk_id}
        if len(reserved) != 3 or any(not 0 <= i < len(self.tokens) for i in reserved):
            raise ValueError("reserved ids must be three distinct in-range ids")
        object.__setattr__(self, "_ids", {tok: i for i, tok in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self.unk_id)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        ids = self._ids
        unk = self.unk_id
        return [ids.get(tok, unk) for tok in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(tokenize_lm(text))

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def decode_text(self, ids: Sequence[int]) -> str:
        return " ".join(self.decode(ids))

    @classmethod
    def read(cls, obj: dict, where: str, id_fields: Sequence[str]) -> "Vocabulary":
        """The vocabulary in ``obj``'s ``tokens`` list and its bos, eos and unk ``id_fields``."""
        tokens = tuple(typed(t, str, f"{where}: field 'tokens'") for t in required(obj, "tokens", where, list))
        return cls(tokens, *(required(obj, name, where, int) for name in id_fields))

    @classmethod
    def build(cls, content_tokens: Sequence[str]) -> "Vocabulary":
        """Reserved markers first, then the given content tokens."""
        return cls(tokens=(BOS, EOS, UNK, *content_tokens), bos_id=0, eos_id=1, unk_id=2)


class NextTokenDistribution:
    """Natural-log next-token probabilities over the whole vocabulary."""

    __slots__ = ("log_probs",)

    def __init__(self, log_probs: np.ndarray) -> None:
        self.log_probs = log_probs

    def validate(self, tolerance: float = SUM_TOLERANCE) -> None:
        lp = self.log_probs
        if np.isnan(lp).any() or (lp == np.inf).any():
            raise ValueError("log probabilities must be finite or -inf")
        total = float(np.exp(lp).sum())
        if abs(total - 1.0) > tolerance:
            raise ValueError(f"distribution sums to {total}, not 1")


@runtime_checkable
class LanguageModel(Protocol):
    """Behavioral contract the decoders rely on.

    ``next`` must be deterministic: the same context always yields the
    same distribution. A model may return the same array for the same
    context, as :class:`NGramModel` does, and must never mutate an array
    it has returned: decoders may keep what they derived from it (see
    :mod:`lyricsense.decoding`). Implementations must be safe for
    concurrent read-only use once constructed.

    A model may also offer ``next_many(contexts)``, the list of
    ``next(context)`` for each context in order, when answering several
    contexts at once is cheaper, as it is over the wire. Decoding runs in
    lockstep (:func:`lyricsense.decoding.decode_many`): each step makes
    one ``next_many`` call for the contexts of every live row, all running
    beam hypotheses included; a model with ``next`` alone is asked once
    per context instead and works unchanged.
    """

    def vocabulary(self) -> Vocabulary: ...

    def next(self, context: Sequence[int]) -> NextTokenDistribution: ...


class NGramModel:
    """Add-k smoothed n-gram model over word-level tokens.

    P(t | context) = (count(context, t) + k) / (count(context) + k * |V|),
    with the context truncated to the last n-1 ids and left-padded with
    BOS. Unseen contexts therefore give the uniform distribution, which
    all of them share; only contexts with counts are cached.
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab: Vocabulary,
        counts: dict[tuple[int, ...], Counter],
    ) -> None:
        _check_order_and_k(order, k)
        self.order = order
        self.k = k
        self._vocab = vocab
        self._counts = counts
        self._totals = {ctx: sum(counter.values()) for ctx, counter in counts.items()}
        self._cache: dict[tuple[int, ...], np.ndarray] = {}
        self._ids = frozenset(range(len(vocab)))
        # log(k) - log(0 + k*|V|): the add-k formula with no counts.
        self._uniform = np.full(len(vocab), math.log(k) - math.log(k * len(vocab)))
        self._uniform.setflags(write=False)

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next(self, context: Sequence[int]) -> NextTokenDistribution:
        # Every id is checked, not just the tail: one set lookup per id is
        # cheaper than a range comparison in Python on this per-step path.
        if not self._ids.issuperset(context):
            bad = next(i for i in context if i not in self._ids)
            raise ValueError(f"token id {bad} out of range for |V|={len(self._vocab)}")
        width = self.order - 1
        tail = tuple(context[-width:]) if width else ()
        if len(tail) < width:
            tail = (self._vocab.bos_id,) * (width - len(tail)) + tail
        cached = self._cache.get(tail)
        if cached is None:
            counter = self._counts.get(tail)
            if not counter:
                return NextTokenDistribution(self._uniform)
            size = len(self._vocab)
            denom = math.log(self._totals[tail] + self.k * size)
            cached = np.full(size, math.log(self.k) - denom)
            for token_id, count in counter.items():
                cached[token_id] = math.log(count + self.k) - denom
            cached.setflags(write=False)
            self._cache[tail] = cached
        return NextTokenDistribution(cached)

    def next_many(self, contexts: Iterable[Sequence[int]]) -> list[NextTokenDistribution]:
        return [self.next(context) for context in contexts]

    def to_dict(self) -> dict:
        vocab = self._vocab
        return {
            "format": "lyricsense-ngram",
            "version": 1,
            "order": self.order,
            "k": self.k,
            "tokens": list(vocab.tokens),
            "bos_id": vocab.bos_id,
            "eos_id": vocab.eos_id,
            "unk_id": vocab.unk_id,
            "counts": {
                " ".join(map(str, ctx)): {str(t): c for t, c in sorted(counter.items())}
                for ctx, counter in sorted(self._counts.items())
            },
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model") -> "NGramModel":
        """Read a saved model; a malformed one is a ``ValueError`` naming ``where`` and its field."""
        typed(obj, dict, where)
        if obj.get("format") != "lyricsense-ngram" or obj.get("version") != 1:
            raise ValueError(f"{where}: not a recognized model file")
        vocab = Vocabulary.read(obj, where, ("bos_id", "eos_id", "unk_id"))
        order, k = required(obj, "order", where, int), required(obj, "k", where, float)
        at = f"{where}: field 'counts'"
        counts = {}
        for ctx, counter in required(obj, "counts", where, dict).items():
            if not all(t.isdecimal() and int(t) < len(vocab) for t in (*ctx.split(), *typed(counter, dict, at))):
                raise ValueError(f"{at}: expected token ids below {len(vocab)}")
            next_counts = {int(t): typed(c, int, at) for t, c in counter.items()}
            counts[tuple(map(int, ctx.split()))] = Counter(next_counts)
        try:
            return cls(order=order, k=k, vocab=vocab, counts=counts)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        return cls.from_dict(load_json(path), path)


def _check_order_and_k(order: int, k: float) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if k <= 0:
        raise ValueError("smoothing constant k must be positive")


class TrainingTexts(tuple):
    """Training texts, tokenized once and encoded once per vocabulary cap.

    A tuple of strings, so it stands wherever the plain texts do. Passing
    the same object to several :func:`fit_ngram` calls fits every order
    from one tokenization, and models with the same ``vocab_cap`` share
    one :class:`Vocabulary`.
    """

    def __init__(self, texts: Iterable[str] = ()) -> None:
        self._tokenized: list[list[str]] | None = None
        self._encoded: dict[int, tuple[Vocabulary, list[list[int]]]] = {}

    def encoded(self, vocab_cap: int) -> tuple[Vocabulary, list[list[int]]]:
        """The capped vocabulary and the id lists of the texts that have tokens.

        The vocabulary keeps the ``vocab_cap`` most frequent tokens (ties
        by alphabetical order) after the reserved markers.
        """
        built = self._encoded.get(vocab_cap)
        if built is None:
            if self._tokenized is None:
                self._tokenized = [toks for toks in map(tokenize_lm, self) if toks]
            tokenized = self._tokenized
            if not tokenized:
                raise ValueError("no training text")
            frequencies = Counter(chain.from_iterable(tokenized))
            kept = sorted(frequencies.items(), key=lambda item: (-item[1], item[0]))[:vocab_cap]
            vocab = Vocabulary.build([tok for tok, _ in kept])
            built = self._encoded[vocab_cap] = (vocab, [vocab.encode(toks) for toks in tokenized])
        return built


def fit_ngram(texts: Iterable[str], order: int, k: float = 0.1, vocab_cap: int = 5000) -> NGramModel:
    """Fit an add-k n-gram model on raw texts.

    The vocabulary keeps the ``vocab_cap`` most frequent tokens (ties by
    alphabetical order) plus the reserved markers; everything else maps
    to UNK. Each text is bracketed with BOS padding and a final EOS so
    decoders can stop naturally.

    ``texts`` that are not a :class:`TrainingTexts` are wrapped in one;
    pass one ``TrainingTexts`` to fit several orders or caps without
    tokenizing the texts again. The fitted model caches at most one
    distribution per context in its counts.
    """
    _check_order_and_k(order, k)
    if vocab_cap < 3:
        raise ValueError("vocab_cap must be >= 3")
    if not isinstance(texts, TrainingTexts):
        texts = TrainingTexts(texts)
    vocab, encoded = texts.encoded(vocab_cap)

    # Each n-gram is a zip of one padded id list against its own shifts.
    pad = [vocab.bos_id] * (order - 1)
    tail = [vocab.eos_id]
    padded = (pad + ids + tail for ids in encoded)
    grams = Counter(chain.from_iterable(zip(*(seq[i:] for i in range(order))) for seq in padded))
    counts: dict[tuple[int, ...], Counter] = {}
    for gram, count in grams.items():
        ctx = gram[:-1]
        counter = counts.get(ctx)
        if counter is None:
            counter = counts[ctx] = Counter()
        counter[gram[-1]] = count
    return NGramModel(order=order, k=k, vocab=vocab, counts=counts)


def sequence_log_prob(model: LanguageModel, ids: Sequence[int]) -> float:
    """Chain-rule log probability sum(t) log P(ids[t] | ids[:t])."""
    if len(ids) == 0:
        raise ValueError("sequence must be non-empty")
    total = 0.0
    for t, token_id in enumerate(ids):
        dist = model.next(ids[:t])
        if not 0 <= token_id < len(dist.log_probs):
            raise ValueError(f"token id {token_id} out of range")
        total += float(dist.log_probs[token_id])
    return total
