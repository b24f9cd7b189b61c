"""Conditional language-model contract plus the add-k n-gram reference model.

Decoders consume anything satisfying :class:`LanguageModel`: a vocabulary
and a deterministic ``next(context)`` step that returns the next-token log
probabilities as one read-only array. The bundled implementation is a
word-level add-k smoothed n-gram model, small enough that every
probability it produces can be checked by hand; larger models are reached
over the wire protocol in :mod:`lyricsense.wire`.

Models of several orders fitted on the same corpus share one
:class:`TrainingTexts`. A training text may be given as a tuple of parts,
such as a prompt template's literal pieces and a sample's fields: each
distinct part is tokenized once, and each vocabulary cap's vocabulary
and flat id array are built once, whatever the number of orders. A fit
keys every n-gram window with numpy and counts them all with one
``np.unique``; the counts are plain ``{context: {id: count}}`` dicts of
Python ints. A fitted model caches the read-only distributions of the
contexts seen in training that it was last asked for, in at most
``CACHE_BYTES`` of arrays, evicting the least recently used; every
unseen context shares one uniform vector, which is never cached. One
thread steps a model at a time (see :class:`LanguageModel`), so the
cache takes no lock.

Token ids are checked where they enter: ``NGramModel.next`` and
:func:`sequence_log_prob` check every id they are given, and
:func:`lyricsense.decoding.decode_many` checks each prompt once. Each
check rejects a bool, a float or an out-of-range int with a
``ValueError`` naming the id and its position (:func:`_check_ids`). A
decoder then holds each row's context in ``_Context``, a private list
type that only :mod:`lyricsense.decoding` and :func:`sequence_log_prob`
build: from ids already checked, extended only by ids picked from the
model's own |V|-long rows. ``NGramModel.next`` trusts a context whose
type is exactly ``_Context`` and scans any other, subclasses included.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .jsonfields import load_json, required, typed

MAX_ORDER = 64  # far past any useful n-gram order, and small enough to pad with BOS
SMOOTHING_K = 0.1  # add-k constant of a fit that names none
VOCAB_CAP = 5000  # content tokens a fit that names no cap keeps
# Bytes of |V|-wide float64 arrays that one model's row cache, or one decode
# memo (see lyricsense.decoding), may hold: 419 rows at |V| = 5,003.
CACHE_BYTES = 16 << 20
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
        """The vocabulary in ``obj``'s ``tokens`` list and its bos, eos and unk ``id_fields``; every error names ``where``."""
        tokens = tuple(typed(t, str, f"{where}: field 'tokens'") for t in required(obj, "tokens", where, list))
        ids = [required(obj, name, where, int) for name in id_fields]
        try:
            return cls(tokens, *ids)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    @classmethod
    def build(cls, content_tokens: Sequence[str]) -> "Vocabulary":
        """Reserved markers first, then the given content tokens."""
        return cls(tokens=(BOS, EOS, UNK, *content_tokens), bos_id=0, eos_id=1, unk_id=2)


@runtime_checkable
class LanguageModel(Protocol):
    """Behavioral contract the decoders rely on.

    ``next(context)`` returns the natural-log next-token probabilities
    after the ids ``context``: one float64 array over the vocabulary, each
    entry finite or ``-inf``. It must be deterministic: the same context
    always yields the same values. A model may return the same array for
    the same context, as :class:`NGramModel` does while the context's row
    stays in its cache, and must never mutate an array it has returned:
    decoders may keep what they derived from it (see
    :mod:`lyricsense.decoding`). One thread steps a model at a time, so a
    model may update its state, such as a cache, without locks;
    :class:`lyricsense.wire.LMServer` guarantees this for its sessions.

    A model may also offer ``next_many(contexts)``, the list of
    ``next(context)`` for each context in order, when answering several
    contexts at once is cheaper, as it is over the wire. Decoding runs in
    lockstep (:func:`lyricsense.decoding.decode_many`): each step makes
    one ``next_many`` call for the contexts of every live row, all running
    beam hypotheses included; a model with ``next`` alone is asked once
    per context instead and works unchanged.

    A decoder checks its prompts' ids before the first call and extends
    them only with ids picked from the model's own rows, so every id of a
    context it sends is an integer below ``len(vocabulary())``. A model
    that forwards such a context to a model of another vocabulary should
    pass it as a plain list, which that model checks in full.
    """

    def vocabulary(self) -> Vocabulary: ...

    def next(self, context: Sequence[int]) -> np.ndarray: ...


class NGramModel:
    """Add-k smoothed n-gram model over word-level tokens.

    P(t | context) = (count(context, t) + k) / (count(context) + k * |V|),
    with the context truncated to the last n-1 ids and left-padded with
    BOS. Unseen contexts therefore give the uniform distribution, which
    all of them share; only contexts with counts are cached, at most
    ``max(1, CACHE_BYTES // (8 * |V|))`` rows, read at construction. A hit
    makes its row the most recently used, and a new row evicts the least
    recently used one, so the cache never holds more rows than that. A
    row is a pure function of the counts, so an evicted row comes back
    bit-equal, as a new array.
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab: Vocabulary,
        counts: dict[tuple[int, ...], dict[int, int]],
    ) -> None:
        _check_order_and_k(order, k)
        if not math.isfinite(k * len(vocab)):  # else every row would be -inf
            raise ValueError(f"smoothing constant k={k!r} times |V|={len(vocab)} overflows")
        self.order = order
        self.k = k
        self._vocab = vocab
        self._counts = counts
        self._totals = {ctx: sum(counter.values()) for ctx, counter in counts.items()}
        self._cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()  # least recently used first
        self._cache_rows = max(1, CACHE_BYTES // (8 * len(vocab)))
        self._ids = frozenset(range(2, len(vocab)))  # 0 and 1 are left out: see ``next``
        # log(k) - log(0 + k*|V|): the add-k formula with no counts.
        self._uniform = np.full(len(vocab), math.log(k) - math.log(k * len(vocab)))
        self._uniform.setflags(write=False)

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next(self, context: Sequence[int]) -> np.ndarray:
        # A ``_Context`` holds checked ids only (see the module docstring).
        # Any other context has every id checked, not just the tail, in two
        # C-speed passes: a set lookup per id, and a sum, an int only if no
        # id is a float. False and True equal 0 and 1, so ``_ids`` leaves
        # those out: a context holding either takes the exact check.
        if type(context) is not _Context and not (self._ids.issuperset(context) and type(sum(context)) is int):
            _check_ids(context, len(self._vocab))
        width = self.order - 1
        tail = tuple(context[-width:]) if width else ()
        if len(tail) < width:
            tail = (self._vocab.bos_id,) * (width - len(tail)) + tail
        cache = self._cache
        cached = cache.get(tail)
        if cached is not None:
            cache.move_to_end(tail)  # now the most recently used
            return cached
        counter = self._counts.get(tail)
        if not counter:
            return self._uniform
        size = len(self._vocab)
        denom = math.log(self._totals[tail] + self.k * size)
        cached = np.full(size, math.log(self.k) - denom)
        for token_id, count in counter.items():
            cached[token_id] = math.log(count + self.k) - denom
        cached.setflags(write=False)
        cache[tail] = cached
        if len(cache) > self._cache_rows:
            cache.popitem(last=False)  # the least recently used
        return cached

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
        saved = required(obj, "counts", where, dict)
        counts = {}
        try:
            _check_order_and_k(order, k)
            for key, counter in saved.items():
                at = f"field 'counts' key {json.dumps(key)}"
                ctx = key.split()
                if len(ctx) != order - 1:
                    raise ValueError(f"{at}: expected {order - 1} token ids for order {order}, got {len(ctx)}")
                for t in (*ctx, *typed(counter, dict, at)):
                    if not t.isdecimal():
                        raise ValueError(f"{at}: token id {t!r} is not a decimal integer")
                    if int(t) >= len(vocab):
                        raise ValueError(f"{at}: token id {t} out of range for |V|={len(vocab)}")
                for t, c in counter.items():
                    if typed(c, int, at) < 1:
                        raise ValueError(f"{at}: token id {t} has count {c}, expected a positive integer")
                counts[tuple(map(int, ctx))] = {int(t): c for t, c in counter.items()}
            return cls(order=order, k=k, vocab=vocab, counts=counts)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "NGramModel":
        return cls.from_dict(load_json(path), path)


class _Context(list):
    """Token ids already checked against one vocabulary: see the module docstring."""

    __slots__ = ()


def _check_ids(ids: Sequence[int], size: int) -> None:
    """Raise a ``ValueError`` naming the first of ``ids`` that is not an integer id below ``size``.

    A bool or a float is no id, even one equal to an integer.
    """
    # Most contexts that get here from ``next`` are good ones holding id 0
    # or 1 (decoders emit BOS): pass those at C speed, search the rest.
    if set(map(type, ids)) <= {int} and min(ids, default=0) >= 0 and max(ids, default=0) < size:
        return
    for position, token_id in enumerate(ids):
        if isinstance(token_id, bool) or not isinstance(token_id, (int, np.integer)):
            raise ValueError(f"token id {token_id!r} at position {position} is not an integer")
        if not 0 <= token_id < size:
            raise ValueError(f"token id {token_id} at position {position} out of range for |V|={size}")


def _check_order_and_k(order: int, k: float) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if k <= 0:
        raise ValueError("smoothing constant k must be positive")


class _Index(dict):
    """Dense ids in first-seen order: looking up a new key gives it the next id."""

    def __missing__(self, key: str) -> int:
        self[key] = index = len(self)
        return index


class TrainingTexts(tuple):
    """Training texts, tokenized once and encoded once per vocabulary cap.

    A tuple of texts, each a string or a tuple of parts whose join is the
    text, such as :func:`lyricsense.prompts.target_parts`; a string is a
    one-part text. Passing the same object to several :func:`fit_ngram`
    calls fits every order from one tokenization, and models with the
    same ``vocab_cap`` share one :class:`Vocabulary`.
    """

    def __init__(self, texts: Iterable[str | tuple[str, ...]] = ()) -> None:
        self._tokens: tuple[list[str], np.ndarray, np.ndarray] | None = None
        self._encoded: dict[int, tuple[Vocabulary, np.ndarray, np.ndarray]] = {}

    def _tokenize(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The distinct tokens, every text's tokens back to back as indices into them, and each text's token count.

        Each distinct part is tokenized once, and a text's tokens are its
        parts' tokens in order. That equals ``tokenize_lm`` of the joined
        text as long as no token spans two parts: a caller splits a text
        only where whitespace or punctuation other than ``'`` and ``_``
        stands on the boundary (see :mod:`lyricsense.prompts`).
        """
        token_ids = _Index()
        runs: dict[str, array] = {}  # part -> its tokens as indices into token_ids
        stream, lengths = array("q"), array("q")
        for text in self:
            start = len(stream)
            for part in (text,) if isinstance(text, str) else text:
                run = runs.get(part)
                if run is None:
                    run = runs[part] = array("q", map(token_ids.__getitem__, tokenize_lm(part)))
                stream += run
            lengths.append(len(stream) - start)
        return list(token_ids), np.asarray(stream), np.asarray(lengths)

    def encoded(self, vocab_cap: int) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
        """The capped vocabulary, the ids of all texts back to back, and the token count of each text that has tokens.

        The vocabulary keeps the ``vocab_cap`` most frequent tokens (ties
        by alphabetical order) after the reserved markers.
        """
        built = self._encoded.get(vocab_cap)
        if built is None:
            if self._tokens is None:
                self._tokens = self._tokenize()
            tokens, stream, lengths = self._tokens
            if not len(stream):
                raise ValueError("no training text")
            alphabetical = np.array(sorted(range(len(tokens)), key=tokens.__getitem__), np.int64)
            frequencies = np.bincount(stream, minlength=len(tokens))[alphabetical]
            # A stable sort keeps equally frequent tokens in alphabetical order.
            kept = alphabetical[np.argsort(-frequencies, kind="stable")[:vocab_cap]]
            vocab = Vocabulary.build([tokens[i] for i in kept.tolist()])
            ids = np.array(vocab.encode(tokens), np.int64)[stream]
            built = self._encoded[vocab_cap] = (vocab, ids, lengths[lengths > 0])
        return built


def fit_ngram(texts: Iterable[str | tuple[str, ...]], order: int, k: float = SMOOTHING_K,
              vocab_cap: int = VOCAB_CAP) -> NGramModel:
    """Fit an add-k n-gram model on raw texts, each a string or a tuple of parts (see :class:`TrainingTexts`).

    The vocabulary keeps the ``vocab_cap`` most frequent tokens (ties by
    alphabetical order) plus the reserved markers; everything else maps
    to UNK. Each text is bracketed with BOS padding and a final EOS so
    decoders can stop naturally.

    ``texts`` that are not a :class:`TrainingTexts` are wrapped in one;
    pass one ``TrainingTexts`` to fit several orders or caps without
    tokenizing the texts again. The fitted model's row cache is bounded
    (see :class:`NGramModel`).
    """
    _check_order_and_k(order, k)
    if vocab_cap < 3:
        raise ValueError("vocab_cap must be >= 3")
    if not isinstance(texts, TrainingTexts):
        texts = TrainingTexts(texts)
    vocab, ids, lengths = texts.encoded(vocab_cap)

    # The texts back to back, each as order-1 BOS, its ids and EOS.
    count = len(lengths)
    padded = np.full(len(ids) + count * order, vocab.bos_id, np.int64)
    padded[np.repeat(np.arange(count) * order + order - 1, lengths) + np.arange(len(ids))] = ids
    padded[np.cumsum(lengths + order) - 1] = vocab.eos_id
    return NGramModel(order=order, k=k, vocab=vocab, counts=_count_ngrams(padded, order, vocab))


def _count_ngrams(padded: np.ndarray, order: int, vocab: Vocabulary) -> dict[tuple[int, ...], dict[int, int]]:
    """``{context: {id: count}}`` over every ``order``-id window of ``padded`` that ends in a text.

    Each window is keyed by its ids as digits in base ``|V|``. Before a
    digit would push the keys past int64, they are replaced by their ranks
    among the distinct keys so far, which keeps their order; the rank
    tables map the counted keys back to their ids.
    """
    size = len(vocab)
    width = len(padded) - order + 1
    key = np.zeros(width, np.int64)
    bound = 1  # every key is below it
    tables = {}
    for i in range(order):
        if bound * size > 2**63:
            tables[i], key = np.unique(key, return_inverse=True)
            bound = len(tables[i])
        key *= size
        key += padded[i : i + width]
        bound *= size
    # A window that ends in BOS padding spans two texts.
    grams, counts = np.unique(key[padded[order - 1 :] != vocab.bos_id], return_counts=True)
    ids = np.empty((len(grams), order), np.int64)
    value = grams
    for i in reversed(range(order)):
        value, ids[:, i] = np.divmod(value, size)
        if i in tables:
            value = tables[i][value]
    # Sorted keys put the n-grams of one context in one run.
    heads = np.flatnonzero(np.diff(grams // size, prepend=-1))
    runs = np.diff(heads, append=len(grams)).tolist()
    grouped = zip(ids[:, -1].tolist(), counts.tolist())
    return {ctx: dict(islice(grouped, run)) for ctx, run in zip(map(tuple, ids[heads, :-1].tolist()), runs)}


def sequence_log_prob(model: LanguageModel, ids: Sequence[int]) -> float:
    """Chain-rule log probability sum(t) log P(ids[t] | ids[:t]).

    ``ids`` are checked once; the model is sent each prefix as a ``_Context``.
    """
    if len(ids) == 0:
        raise ValueError("sequence must be non-empty")
    _check_ids(ids, len(model.vocabulary()))
    total = 0.0
    prefix = _Context()
    for token_id in ids:
        total += float(model.next(prefix)[token_id])
        prefix.append(token_id)
    return total
