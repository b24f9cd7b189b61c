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

Lockstep. Each strategy is a step generator for one row: it yields the
contexts it needs (one, or one per running beam hypothesis), is sent
their log-prob arrays, and returns its :class:`Generation`.
:func:`decode_many` advances every live row of a batch together and asks
the model once per round for all of their contexts, through
``next_many`` when the model has it and ``next`` per context when it
does not. A row's generation depends on its own prompt and config alone,
so it is the same whether decoded alone or in any batch; ``decode`` and
the five strategy functions are one-row calls of the same driver.

Memo contract. What a step derives from a distribution array depends on
that array and on the config alone: the sampling strategies search a
cumulative array (softmax at the temperature, then the top-k or top-p
filter, then a cumsum), and beam search walks the array's descending
order. A caller whose model returns the same read-only array for the
same context may pass one plain dict as ``memo`` to one
:func:`decode_many` call (or to :func:`decode`, and to every call that
shares its model), so that each derivation runs once per distinct array,
whichever row asked for it. Its key is ``id(log_probs)`` plus the
derivation and its parameters, and its value ``(log_probs, derived)``,
so the array stays alive and its ``id()`` cannot be reused while the
memo lives. The caller owns the memo's scope and drops it to free the
memory; the experiment grid passes one per combination to its one
``decode_many`` call. ``memo=None`` derives every step afresh and stores
nothing. A memo never skips a ``model.next`` call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, Generator, NamedTuple, Optional, Sequence

import numpy as np

from .jsonfields import required, typed
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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    def to_json(self) -> str:
        obj = asdict(self)
        obj["strategy"] = self.strategy.value
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecodeConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj: dict, where: str = "decode config") -> "DecodeConfig":
        """Read a decode config; a malformed one is a ``ValueError`` naming ``where`` and its field."""
        typed(obj, dict, where)
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
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


def _softmax(log_probs: np.ndarray, temperature: float) -> np.ndarray:
    scaled = log_probs / max(temperature, _MIN_TEMPERATURE)
    finite = scaled[np.isfinite(scaled)]
    if finite.size == 0:
        raise ValueError("distribution has no finite entries")
    shifted = scaled - finite.max()
    probs = np.exp(shifted)
    return probs / probs.sum()


def _descending_order(probs: np.ndarray) -> np.ndarray:
    """Token ids sorted by probability descending, ties toward lower id."""
    return np.argsort(-probs, kind="stable")


def _filter_top_k(probs: np.ndarray, k: int) -> np.ndarray:
    if k >= len(probs):
        return probs
    keep = _descending_order(probs)[:k]
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out


def _filter_top_p(probs: np.ndarray, p: float) -> np.ndarray:
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
    keep = order[: cut + 1]
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out


def _sampling_cdf(
    log_probs: np.ndarray, temperature: float, filter_kind: Optional[Strategy], k: int, p: float
) -> np.ndarray:
    """The cumulative array a sampling step searches."""
    probs = _softmax(log_probs, temperature)
    if filter_kind == Strategy.TOP_K:
        probs = _filter_top_k(probs, k)
    elif filter_kind == Strategy.TOP_P:
        probs = _filter_top_p(probs, p)
    return np.cumsum(probs)


def _draw(cumulative: np.ndarray, rng: SplitMix64) -> int:
    target = rng.random() * cumulative[-1]
    # The method skips np.searchsorted's dispatch wrapper on this per-step path.
    return int(cumulative.searchsorted(target, side="right"))


def _derive(memo: Optional[dict], log_probs: np.ndarray, fn: Callable, *params) -> np.ndarray:
    """``fn(log_probs, *params)``, computed once per array while ``memo`` lives."""
    if memo is None:
        return fn(log_probs, *params)
    key = (id(log_probs), fn, params)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (log_probs, fn(log_probs, *params))
    return hit[1]


def _sampling_steps(
    filter_kind: Optional[Strategy], eos: int, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]
) -> _Steps:
    rng = SplitMix64(cfg.seed)
    context = list(prompt_ids)
    emitted: list[int] = []
    log_prob = 0.0
    for _ in range(cfg.max_new_tokens):
        (raw,) = yield (context,)
        cumulative = _derive(memo, raw, _sampling_cdf, cfg.temperature, filter_kind, cfg.k, cfg.p)
        token = _draw(cumulative, rng)
        log_prob += float(raw[token])
        if token == eos:
            return Generation(tuple(emitted), log_prob, FinishReason.EOS)
        emitted.append(token)
        context.append(token)
    return Generation(tuple(emitted), log_prob, FinishReason.MAX_LEN)


def _greedy_steps(eos: int, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]) -> _Steps:
    context = list(prompt_ids)
    emitted: list[int] = []
    log_prob = 0.0
    for _ in range(cfg.max_new_tokens):
        (raw,) = yield (context,)
        token = int(np.argmax(raw))  # argmax takes the lowest id on ties
        log_prob += float(raw[token])
        if token == eos:
            return Generation(tuple(emitted), log_prob, FinishReason.EOS)
        emitted.append(token)
        context.append(token)
    return Generation(tuple(emitted), log_prob, FinishReason.MAX_LEN)


def greedy(model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig) -> Generation:
    """Emit the argmax token at every step; deterministic, seed-free."""
    return _decode_one(model, Strategy.GREEDY, prompt_ids, cfg, None)


def sample(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Draw each token from the temperature-rescaled distribution."""
    return _decode_one(model, Strategy.SAMPLING, prompt_ids, cfg, memo)


def top_k_sample(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Sampling restricted to the k most probable tokens per step."""
    return _decode_one(model, Strategy.TOP_K, prompt_ids, cfg, memo)


def top_p_sample(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Sampling restricted to the smallest prefix with cumulative mass >= p."""
    return _decode_one(model, Strategy.TOP_P, prompt_ids, cfg, memo)


def _banned_tokens(sequence: Sequence[int], ngram_size: int) -> set[int]:
    """Tokens whose emission would repeat an ngram_size-gram of sequence."""
    if ngram_size < 1 or len(sequence) < ngram_size - 1:
        return set()
    prefix = tuple(sequence[len(sequence) - ngram_size + 1 :])
    grams = zip(*(sequence[i:] for i in range(ngram_size)))
    return {gram[-1] for gram in grams if gram[:-1] == prefix}


class _Hypothesis(NamedTuple):
    neg_score: float
    ids: tuple[int, ...]
    score: float


# Best first: highest score, then the lexicographically smallest ids.
_rank = attrgetter("neg_score", "ids")


def _beam_steps(eos: int, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]) -> _Steps:
    """Beam search of one row; see :func:`beam_search`."""
    prompt = tuple(prompt_ids)
    width = cfg.num_beams + 1
    running: list[_Hypothesis] = [_Hypothesis(0.0, (), 0.0)]
    finished: list[_Hypothesis] = []
    finished_count = 0

    for _ in range(cfg.max_new_tokens):
        candidates: list[_Hypothesis] = []
        contexts = [prompt + hyp.ids for hyp in running]
        rows = yield contexts
        for hyp, context, raw in zip(running, contexts, rows):
            banned = _banned_tokens(context, cfg.no_repeat_ngram_size)
            # A candidate can matter only if it ranks within the global
            # top num_beams, hence within its own hypothesis's top
            # num_beams; one extra slot cannot hurt. Finite ids sort
            # before every -inf one, so the walk stops at the first
            # non-finite id it meets.
            expanded = 0
            for token in _derive(memo, raw, _descending_order):
                token = int(token)
                if token in banned:
                    continue
                step = float(raw[token])
                if not math.isfinite(step):
                    break
                score = hyp.score + step
                candidates.append(_Hypothesis(-score, hyp.ids + (token,), score))
                expanded += 1
                if expanded == width:
                    break
            if not expanded:
                finished.append(hyp)
                finished_count += 1
        candidates.sort(key=_rank)
        new_running: list[_Hypothesis] = []
        for rank, candidate in enumerate(candidates):
            if candidate.ids[-1] == eos:
                if rank < cfg.num_beams:
                    finished.append(_Hypothesis(candidate.neg_score, candidate.ids[:-1], candidate.score))
                    finished_count += 1
            elif len(new_running) < cfg.num_beams:
                new_running.append(candidate)
            if len(new_running) == cfg.num_beams and rank + 1 >= cfg.num_beams:
                break
        running = new_running
        if not running:
            break
        if cfg.early_stopping and finished_count >= cfg.num_beams:
            break

    pool = finished if finished else running
    best = min(pool, key=_rank)
    reason = FinishReason.EOS if finished else FinishReason.MAX_LEN
    return Generation(best.ids, best.score, reason)


def beam_search(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Width-limited best-first search over summed log probabilities.

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
    return _decode_one(model, Strategy.BEAM, prompt_ids, cfg, memo)


# Each strategy's step generator, called as (eos id, prompt ids, config, memo).
_STEPS: dict[Strategy, Callable[..., _Steps]] = {
    Strategy.GREEDY: _greedy_steps,
    Strategy.BEAM: _beam_steps,
    Strategy.SAMPLING: partial(_sampling_steps, None),
    Strategy.TOP_K: partial(_sampling_steps, Strategy.TOP_K),
    Strategy.TOP_P: partial(_sampling_steps, Strategy.TOP_P),
}


def _next_many(model: LanguageModel, contexts: list[Sequence[int]]) -> list[np.ndarray]:
    """The model's log probs for each context: one ``next_many`` call if it has one, else ``next`` each."""
    next_many = getattr(model, "next_many", None)
    dists = [model.next(context) for context in contexts] if next_many is None else next_many(contexts)
    if len(dists) != len(contexts):
        raise ValueError(f"model answered {len(dists)} distributions for {len(contexts)} contexts")
    return [dist.log_probs for dist in dists]


def _lockstep(model: LanguageModel, rows: list[_Steps]) -> list[Generation]:
    """Run the step generators ``rows`` together: one model round per step for every live row."""
    generations: list[Optional[Generation]] = [None] * len(rows)
    # Every step generator asks at least once, since max_new_tokens >= 1.
    live = [(i, steps, next(steps)) for i, steps in enumerate(rows)]
    while live:
        answers = _next_many(model, [context for _i, _steps, asked in live for context in asked])
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


def _decode_one(
    model: LanguageModel, strategy: Strategy, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict]
) -> Generation:
    steps = _STEPS[strategy](model.vocabulary().eos_id, prompt_ids, cfg, memo)
    return _lockstep(model, [steps])[0]


def decode_many(
    model: LanguageModel,
    prompts: Sequence[Sequence[int]],
    cfgs: Sequence[DecodeConfig],
    memo: Optional[dict] = None,
) -> list[Generation]:
    """Decode each prompt under its config, all rows in lockstep.

    Row i's generation is ``decode(model, prompts[i], cfgs[i])``, bit for
    bit, but every round of the decode asks the model once for the
    contexts of all live rows (see :func:`_next_many`), so a remote
    model answers a whole grid combination's step in one round trip.
    ``memo`` follows the module's memo contract and is shared by the rows.
    """
    if len(prompts) != len(cfgs):
        raise ValueError(f"{len(prompts)} prompts but {len(cfgs)} configs")
    eos = model.vocabulary().eos_id
    return _lockstep(model, [_STEPS[cfg.strategy](eos, prompt, cfg, memo) for prompt, cfg in zip(prompts, cfgs)])


def decode(
    model: LanguageModel, prompt_ids: Sequence[int], cfg: DecodeConfig, memo: Optional[dict] = None
) -> Generation:
    """Decode one prompt under ``cfg.strategy``: :func:`decode_many` of one row.

    ``memo`` follows the module's memo contract; greedy needs none.
    """
    return decode_many(model, [prompt_ids], [cfg], memo)[0]
