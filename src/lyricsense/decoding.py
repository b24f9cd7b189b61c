"""Decoding strategies that turn next-token distributions into sequences.

Five strategies share one configuration object: greedy, beam search,
plain sampling, top-k sampling and top-p (nucleus) sampling. All are
pure functions of (model, prompt ids, config): samplers draw from a
SplitMix64 stream seeded by ``config.seed``, so a fixed seed fixes the
output on every platform.

Conventions, pinned by tests:

* Ties are always broken toward the lowest token id.
* Temperature rescales the three sampling strategies only (before any
  filtering) and is clamped below at 1e-4; greedy and beam ignore it.
* ``Generation.log_prob`` is the model log probability of the emitted
  sequence under the unscaled distribution, including the end-of-text
  step when generation stopped at EOS.
* Emitted ids never include EOS itself.
* Beam scores are raw summed log probs, no length normalization. The
  no-repeat constraint bans any continuation that would repeat an
  n-gram already present in prompt + hypothesis.

Beam bookkeeping. Hypotheses and candidates are plain tuples that sort
best first, and a candidate holds its parent's ids and its token apart:
every running hypothesis has as many ids as the others, so ordering by
(parent ids, token) is ordering by ids, and the ids of a candidate are
joined only if it survives. The no-repeat bans are follower maps (each
(n-1)-gram mapped to the ids that follow it): every hypothesis of a row
shares the prompt's map, and holds a small map of its own of the
n-grams that end in its ids.

In place. The sampling derivations divide the distribution into a fresh
array, then shift, exponentiate, normalize, filter and accumulate that
array in place. The distribution a model returns is never written.

Checked ids. :func:`decode_many` checks every prompt's ids once, before
the first model call: a bool, a float or an id outside the vocabulary is
a ``ValueError`` naming the prompt's index, the id and its position. Each
row's context is then an ``lm._Context``, built from the checked prompt
and extended only by ids picked from the model's own |V|-long rows (an
argmax, a stable argsort or a ``searchsorted`` of its CDF), so
``NGramModel.next`` does not scan it again (see :mod:`lyricsense.lm`). A
row that is not |V| long, or that holds NaN or ``+inf``, is a
``ValueError``: the samplers find it in ``_softmax``, beam search when it
orders a row, greedy in the log prob of the id it picked.

Lockstep. Each row is a step generator, picked by its config's
strategy (beam search, or one for greedy and the samplers): it yields the
contexts it needs (one, or one per running beam hypothesis), is sent
their log-prob arrays, and returns its :class:`Generation`.
:func:`decode_many` advances every live row of a batch together and asks
the model once per round for all of their contexts, through
``next_many`` when the model has it and ``next`` per context when it
does not. A sampler row draws its uniforms from ``SplitMix64(cfg.seed)``
in blocks of at most 64 with ``SplitMix64.uniforms``, the same stream as
one ``random()`` per step, so a row that stops early draws one block,
not ``max_new_tokens`` values. A beam hypothesis that survives a step
copies its parent's context once and appends its token. A row's
generation depends on its own prompt and config alone, so it is the same
whether decoded alone or in any batch. ``decode`` is ``decode_many`` of
one row, and each of the five strategy functions is ``decode`` under its
config with the strategy set to its own.

Memo contract. What a step derives from a distribution array depends on
that array and on the config alone: the sampling strategies search a
cumulative array (softmax at the temperature, then the top-k or top-p
filter, then a cumsum), and beam search walks the array's descending
order. A caller whose model returns the same read-only array for the
same context may pass one plain dict as ``memo`` to :func:`decode_many`
or :func:`decode`, the memo's only entry points, and to every call that
shares its model, so that each derivation runs once per distinct array,
whichever row asked for it while its entry lasts. Its key is
``id(log_probs)`` plus the derivation and its parameters, and its value
``(log_probs, derived)``, so the array stays alive and its ``id()``
cannot be reused while the key is in the memo. The memo holds at most
``max(1, lm.CACHE_BYTES // (8 * |V|))`` entries: a new entry evicts the
oldest inserted one, and a hit is one ``dict.get``. A derivation is a
pure function of its array, so an evicted one is recomputed bit-equal.
The caller owns the memo's scope and drops it to free the memory. The
experiment grid passes one memo to every ``decode_many`` call of one
(model, decoder) pair, one call per prompt, since the prompts' rows
step through many of the same arrays, and drops it after the pair's
last prompt. ``memo=None`` derives every step afresh and stores
nothing. A memo never skips a ``model.next`` call.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import lm
from .jsonfields import no_unknown_fields, required, typed
from .lm import LanguageModel
from .rng import SplitMix64

_MIN_TEMPERATURE = 1e-4


class Strategy(str, Enum):
    GREEDY = "greedy"
    BEAM = "beam"
    SAMPLING = "sampling"
    TOP_K = "top_k"
    TOP_P = "top_p"


class FinishReason(str, Enum):
    EOS = "eos"
    MAX_LEN = "max_len"


@dataclass(frozen=True)
class DecodeConfig:
    strategy: Strategy
    num_beams: int = 3
    no_repeat_ngram_size: int = 2
    early_stopping: bool = True
    temperature: float = 0.95
    k: int = 50
    p: float = 0.92
    max_new_tokens: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.no_repeat_ngram_size < 0:
            raise ValueError("no_repeat_ngram_size must be >= 0 (0 disables)")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        if not 1 <= self.max_new_tokens <= sys.maxsize:
            raise ValueError(f"max_new_tokens must be in 1..{sys.maxsize}, got {self.max_new_tokens}")

    def to_dict(self) -> dict:
        """Every field by name, the strategy as its string: what :meth:`from_dict` reads back."""
        return {**asdict(self), "strategy": self.strategy.value}

    @classmethod
    def from_dict(cls, obj: dict, where: str = "decode config") -> "DecodeConfig":
        """Read a decode config; a malformed one is a ``ValueError`` naming ``where`` and its field."""
        typed(obj, dict, where)
        no_unknown_fields(obj, cls.__dataclass_fields__, where)
        required(obj, "strategy", where)
        kinds = {"strategy": str, "early_stopping": bool, "temperature": float, "p": float}  # the rest are int
        fields = {name: required(obj, name, where, kinds.get(name, int)) for name in obj}
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class Generation:
    ids: tuple[int, ...]
    log_prob: float
    finish_reason: FinishReason


# A decoder's steps for one row: it yields the contexts it needs, is sent
# their log-prob arrays in the same order, and returns its Generation.
_Steps = Generator[Sequence[Sequence[int]], list, Generation]


_NOT_LOG_PROBS = "distribution holds NaN or +inf"


def _softmax(log_probs: np.ndarray, temperature: float) -> np.ndarray:
    probs = log_probs / max(temperature, _MIN_TEMPERATURE)  # a fresh array, so the rest works in place
    top = probs.max(initial=-math.inf)  # NaN if any entry is NaN
    if not math.isfinite(top):
        raise ValueError("distribution has no finite entries" if top == -math.inf else _NOT_LOG_PROBS)
    probs -= top
    np.exp(probs, out=probs)
    probs /= probs.sum()
    return probs


def _descending_order(probs: np.ndarray) -> np.ndarray:
    """Token ids sorted by probability descending, ties toward lower id."""
    return np.argsort(-probs, kind="stable")


def _beam_order(log_probs: np.ndarray) -> np.ndarray:
    """The descending order that beam search walks; a row holding NaN or +inf is a ``ValueError``."""
    order = _descending_order(log_probs)
    # +inf sorts first and NaN last.
    if log_probs[order[0]] == math.inf or math.isnan(log_probs[order[-1]]):
        raise ValueError(_NOT_LOG_PROBS)
    return order


def _filter_top_k(probs: np.ndarray, k: int) -> np.ndarray:
    if k >= len(probs):
        return probs
    keep = _descending_order(probs)[:k]
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out


def _filter_top_p(probs: np.ndarray, p: float) -> np.ndarray:
    """``probs`` with every id outside the nucleus zeroed, in place."""
    # p == 1 keeps the entire distribution by definition; short-circuiting
    # avoids a float-cumsum boundary and keeps the identity with plain
    # sampling exact.
    if p >= 1.0:
        return probs
    order = _descending_order(probs)
    cumulative = np.cumsum(probs[order])
    cut = int(np.searchsorted(cumulative, p, side="left"))
    if cut >= len(probs):
        return probs
    probs[order[cut + 1 :]] = 0.0
    return probs


def _sampling_cdf(log_probs: np.ndarray, temperature: float, strategy: Strategy, k: int, p: float) -> np.ndarray:
    """The cumulative array a step of the sampling ``strategy`` searches."""
    probs = _softmax(log_probs, temperature)
    if strategy == Strategy.TOP_K:
        probs = _filter_top_k(probs, k)
    elif strategy == Strategy.TOP_P:
        probs = _filter_top_p(probs, p)
    return np.cumsum(probs, out=probs)


# The most ``SplitMix64.random()`` values a sampler row draws at once.
_UNIFORM_BLOCK = 64


def _uniform_stream(seed: int, n: int) -> Iterator[float]:
    """The first ``n`` values of ``SplitMix64(seed).random()``, drawn in blocks of at most ``_UNIFORM_BLOCK``."""
    rng = SplitMix64(seed)
    while n > 0:
        block = rng.uniforms(min(n, _UNIFORM_BLOCK))
        n -= len(block)
        yield from block


def _derive(memo: Optional[dict], log_probs: np.ndarray, fn: Callable, *params) -> np.ndarray:
    """``fn(log_probs, *params)``, computed once per array while its entry stays in ``memo``."""
    if memo is None:
        return fn(log_probs, *params)
    key = (id(log_probs), fn, params)
    hit = memo.get(key)
    if hit is None:
        if len(memo) >= max(1, lm.CACHE_BYTES // (8 * len(log_probs))):
            del memo[next(iter(memo))]  # the oldest inserted entry
        hit = memo[key] = (log_probs, fn(log_probs, *params))
    return hit[1]


def _token_steps(eos: int, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]) -> _Steps:
    """Greedy or sampling steps of one row; they differ only in how a token is picked, chosen once here.

    A sampler's step i searches its CDF at the i-th value of its uniform stream.
    """
    if cfg.strategy == Strategy.GREEDY:
        uniforms: Iterable = itertools.repeat(None, cfg.max_new_tokens)

        def pick(raw: np.ndarray, _u: None) -> int:
            return int(raw.argmax())  # argmax takes the lowest id on ties

    else:
        uniforms = _uniform_stream(cfg.seed, cfg.max_new_tokens)
        params = (cfg.temperature, cfg.strategy, cfg.k, cfg.p)

        def pick(raw: np.ndarray, u: float) -> int:
            cumulative = _derive(memo, raw, _sampling_cdf, *params)
            # The method skips np.searchsorted's dispatch wrapper on this per-step path.
            return int(cumulative.searchsorted(u * cumulative[-1], side="right"))

    context = lm._Context(prompt_ids)
    emitted: list[int] = []
    log_prob = 0.0
    for u in uniforms:
        (raw,) = yield (context,)
        token = pick(raw, u)
        step = float(raw[token])
        if not step < math.inf:  # greedy picked NaN or +inf; a sampler's CDF would have raised
            raise ValueError(_NOT_LOG_PROBS)
        log_prob += step
        if token == eos:
            return Generation(tuple(emitted), log_prob, FinishReason.EOS)
        emitted.append(token)
        context.append(token)
    return Generation(tuple(emitted), log_prob, FinishReason.MAX_LEN)


def greedy(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Emit the argmax token at every step; deterministic, seed-free."""
    return decode(model, prompt_ids, replace(cfg, strategy=Strategy.GREEDY))


def sample(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Draw each token from the temperature-rescaled distribution."""
    return decode(model, prompt_ids, replace(cfg, strategy=Strategy.SAMPLING))


def top_k_sample(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Sampling restricted to the k most probable tokens per step."""
    return decode(model, prompt_ids, replace(cfg, strategy=Strategy.TOP_K))


def top_p_sample(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Sampling restricted to the smallest prefix with cumulative mass >= p."""
    return decode(model, prompt_ids, replace(cfg, strategy=Strategy.TOP_P))


_Followers = dict[tuple[int, ...], frozenset[int]]
_NO_TOKENS: frozenset[int] = frozenset()


def _follower_map(sequence: Sequence[int], ngram_size: int) -> _Followers:
    """Each (ngram_size-1)-gram of ``sequence`` mapped to the ids that follow it there."""
    if ngram_size > len(sequence):  # no window fits, and the zip below would still take ngram_size slices
        return {}
    followers: dict[tuple[int, ...], set[int]] = {}
    for gram in zip(*(sequence[i:] for i in range(ngram_size))):
        followers.setdefault(gram[:-1], set()).add(gram[-1])
    return {prefix: frozenset(ids) for prefix, ids in followers.items()}


def _add_last_gram(followers: _Followers, sequence: Sequence[int], ngram_size: int) -> _Followers:
    """The follower map of ``sequence``, given ``followers``, that of ``sequence[:-1]``.

    Returns a copy with the n-gram that the last id completes; the values
    are frozensets, so the copy shares them and ``followers`` is unchanged.
    """
    if ngram_size < 1 or len(sequence) < ngram_size:
        return followers
    prefix = tuple(sequence[len(sequence) - ngram_size : -1])
    extended = dict(followers)
    extended[prefix] = followers.get(prefix, _NO_TOKENS) | {sequence[-1]}
    return extended


def _banned_from(followers: _Followers, sequence: Sequence[int], ngram_size: int) -> frozenset[int]:
    """The ids that follow the last ``ngram_size - 1`` ids of ``sequence`` in ``followers``, a follower map.

    With the follower map of ``sequence`` itself, these are the ids whose
    emission would repeat an ``ngram_size``-gram of ``sequence``.
    """
    # A sequence shorter than ngram_size - 1 gives a shorter key, which no key of the map equals.
    return followers.get(tuple(sequence[len(sequence) + 1 - ngram_size :]), _NO_TOKENS)


def _beam_steps(eos: int, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]) -> _Steps:
    """Beam search of one row: width-limited best-first search over summed log probabilities.

    At each step every running hypothesis is expanded (their
    distributions come from one ``next_many`` call when the model offers
    one, see :class:`~lyricsense.lm.LanguageModel`) and the candidates
    are ranked globally; an EOS candidate finishes its hypothesis (with
    the EOS log prob added to the score) only when it ranks within the
    top ``num_beams``, and the best ``num_beams`` non-EOS candidates form
    the next running set. With ``early_stopping`` the search ends once
    ``num_beams`` hypotheses have finished. The best finished hypothesis
    wins; only if nothing finished does the best running one. If the
    no-repeat constraint bans every continuation of a hypothesis, that
    hypothesis is finished as-is (degenerate forced stop).
    """
    prompt = lm._Context(prompt_ids)
    ngram_size = cfg.no_repeat_ngram_size
    num_beams = cfg.num_beams
    width = num_beams + 1
    prompt_followers = _follower_map(prompt, ngram_size)
    running: list[tuple] = [(0.0, (), 0.0, {}, prompt)]  # (-score, ids, score, own follower map, prompt + ids)
    finished: list[tuple] = []  # (-score, ids, score)

    for _ in range(cfg.max_new_tokens):
        candidates: list[tuple] = []  # (-score, parent ids, token, score, parent), best first once sorted
        rows = yield [hyp[4] for hyp in running]
        for hyp, raw in zip(running, rows):
            _neg, ids, score, own, context = hyp
            banned = _banned_from(prompt_followers, context, ngram_size)
            own_banned = _banned_from(own, context, ngram_size)
            if own_banned:
                banned = banned | own_banned
            # A candidate can matter only if it ranks within the global
            # top num_beams, hence within its own hypothesis's top
            # num_beams; one extra slot cannot hurt. At most len(banned)
            # ids are skipped. Finite ids sort before every -inf one, so
            # the walk stops at the first non-finite id it meets.
            expanded = 0
            for token in _derive(memo, raw, _beam_order)[: width + len(banned)].tolist():
                if token in banned:
                    continue
                step = float(raw[token])
                if not math.isfinite(step):
                    break
                total = score + step
                candidates.append((-total, ids, token, total, hyp))
                expanded += 1
                if expanded == width:
                    break
            if not expanded:
                finished.append(hyp[:3])
        candidates.sort()
        new_running: list[tuple] = []
        for rank, (neg, ids, token, score, parent) in enumerate(candidates):
            if token == eos:
                if rank < num_beams:
                    finished.append((neg, ids, score))
            elif len(new_running) < num_beams:
                context = lm._Context(parent[4])
                context.append(token)
                own = _add_last_gram(parent[3], context, ngram_size)
                new_running.append((neg, ids + (token,), score, own, context))
            if len(new_running) == num_beams and rank + 1 >= num_beams:
                break
        running = new_running
        if not running:
            break
        if cfg.early_stopping and len(finished) >= num_beams:
            break

    # Best first: highest score, then the lexicographically smallest ids.
    best = min(finished or running)
    reason = FinishReason.EOS if finished else FinishReason.MAX_LEN
    return Generation(best[1], best[2], reason)


def beam_search(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Width-limited best-first search over summed log probabilities; see :func:`_beam_steps`."""
    return decode(model, prompt_ids, replace(cfg, strategy=Strategy.BEAM))


def _next_many(model: LanguageModel, contexts: list[Sequence[int]], size: int) -> list[np.ndarray]:
    """The model's log probs for each context: one ``next_many`` call if it has one, else ``next`` each.

    Each must be ``size`` (|V|) entries long, so that every id a decoder
    picks from one is in the vocabulary.
    """
    next_many = getattr(model, "next_many", None)
    dists = list(map(model.next, contexts)) if next_many is None else next_many(contexts)
    if len(dists) != len(contexts):
        raise ValueError(f"model answered {len(dists)} distributions for {len(contexts)} contexts")
    lengths = set(map(len, dists))
    if not lengths <= {size}:
        raise ValueError(f"model answered a row of {min(lengths - {size})} entries for |V|={size}")
    return dists


def decode_many(
    model: LanguageModel,
    prompts: Sequence[Sequence[int]],
    cfgs: Sequence[DecodeConfig],
    memo: Optional[dict] = None,
) -> list[Generation]:
    """Decode each prompt under its config's strategy, all rows in lockstep.

    Row i's generation is ``decode(model, prompts[i], cfgs[i])``, bit for
    bit, but every round of the decode asks the model once for the
    contexts of all live rows (see :func:`_next_many`), so a remote
    model answers a whole grid combination's step in one round trip.
    ``memo`` follows the module's memo contract and is shared by the rows.
    Every prompt is checked before the model is first asked: a bad id is a
    ``ValueError`` such as ``prompt 3: token id 9 at position 2 out of
    range for |V|=6``.
    """
    if len(prompts) != len(cfgs):
        raise ValueError(f"{len(prompts)} prompts but {len(cfgs)} configs")
    vocab = model.vocabulary()
    size = len(vocab)
    for i, prompt in enumerate(prompts):
        try:
            lm._check_ids(prompt, size)
        except ValueError as exc:
            raise ValueError(f"prompt {i}: {exc}") from None
    rows = [
        (_beam_steps if cfg.strategy == Strategy.BEAM else _token_steps)(vocab.eos_id, prompt, cfg, memo)
        for prompt, cfg in zip(prompts, cfgs)
    ]
    generations: list[Optional[Generation]] = [None] * len(rows)
    # Every step generator asks at least once, since max_new_tokens >= 1.
    live = [(i, steps, next(steps)) for i, steps in enumerate(rows)]
    while live:
        answers = _next_many(model, [context for _i, _steps, asked in live for context in asked], size)
        still_live = []
        start = 0
        for i, steps, asked in live:
            end = start + len(asked)
            try:
                still_live.append((i, steps, steps.send(answers[start:end])))
            except StopIteration as done:
                generations[i] = done.value
            start = end
        live = still_live
    return generations  # type: ignore[return-value]


def decode(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Decode one prompt under ``cfg.strategy``: :func:`decode_many` of one row.

    ``memo`` follows the module's memo contract; greedy needs none.
    """
    return decode_many(model, [prompt_ids], [cfg], memo)[0]
