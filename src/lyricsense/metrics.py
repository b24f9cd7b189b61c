"""Generation quality metrics: unigram ROUGE, bag-of-words cosine, total score.

The total score rewards similarity to the gold annotation and penalizes
copying the song lyrics:

    raw   = alpha1 * rouge + alpha2 * cos(pred, annotation) - alpha3 * cos(pred, lyrics)
    score = max(0, raw) / (alpha1 + alpha2)

The division by ``alpha1 + alpha2`` (the largest achievable raw value)
normalizes the score to [0, 1].

Texts are compared as bags of the tokens of :func:`tokenize_for_metrics`,
one regex over the lowered text. :func:`evaluate` tokenizes a prediction
once and sums the ROUGE overlap and both dot products in one pass over
its bag, with the float expressions of :func:`rouge1` and
:func:`cosine_bow`, so its three metrics equal theirs bit for bit.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Sequence


@dataclass(frozen=True)
class TotalScoreWeights:
    alpha1: float = 0.5
    alpha2: float = 0.5
    alpha3: float = 0.5

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        # A sum that overflows would make an exact match score inf / inf, which is NaN.
        if not 0 < self.alpha1 + self.alpha2 < math.inf:
            raise ValueError(f"alpha1 + alpha2 must be positive and finite, got {self.alpha1 + self.alpha2}")


@dataclass(frozen=True)
class MetricReport:
    rouge1: float
    cos_pred_annotation: float
    cos_pred_lyrics: float
    total_score: float

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_FIELDS}


# The metric names, in report and column order.
METRIC_FIELDS = tuple(field.name for field in fields(MetricReport))


# One token: an alphanumeric character, or a run of non-whitespace that
# starts and ends with one. ``[^\W_]`` is ``str.isalnum`` and ``\S`` is
# ``not str.isspace``, so the matches are the whitespace-split pieces of
# the text with their edge non-alphanumerics stripped, empty ones dropped.
_METRIC_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?")


def tokenize_for_metrics(text: str) -> list[str]:
    r"""Lowercase, split on whitespace, strip edge non-alphanumerics.

    Inner punctuation survives ("don't" stays one token); tokens that are
    all punctuation are dropped. This is one regex over the lowered text:
    the matches of ``[^\W_](?:\S*[^\W_])?``.
    """
    return _METRIC_TOKEN_RE.findall(text.lower())


class _Bag(NamedTuple):
    counts: Counter
    total: int  # the number of tokens
    norm_sq: int  # the sum of squared counts


def _bag(text: str) -> _Bag:
    counts = Counter(tokenize_for_metrics(text))
    return _Bag(counts, sum(counts.values()), sum(c * c for c in counts.values()))


# Distinct reference texts a run keeps bags for; a grid scores against a
# few dozen annotations and lyrics, so this bounds memory, not reuse.
_REFERENCE_BAGS = 256


@lru_cache(maxsize=_REFERENCE_BAGS)
def _reference_bag(text: str) -> _Bag:
    """Shared bag of an annotation or lyrics text, with its sums; callers never mutate it."""
    return _bag(text)


def _f1(overlap: int, pred_total: int, ref_total: int) -> float:
    """Unigram ROUGE from the clipped overlap and the two token counts."""
    if pred_total == 0 and ref_total == 0:
        return 1.0
    if pred_total == 0 or ref_total == 0 or overlap == 0:
        return 0.0
    precision = overlap / pred_total
    recall = overlap / ref_total
    return 2 * precision * recall / (precision + recall)


def _cosine(dot: int, norm_sq_a: int, norm_sq_b: int) -> float:
    """Cosine from the dot product and the two squared norms; 0.0 if either bag is empty."""
    if not norm_sq_a or not norm_sq_b:
        return 0.0
    value = dot / math.sqrt(norm_sq_a * norm_sq_b)
    return min(1.0, max(0.0, value))


def rouge1(prediction: str, reference: str) -> float:
    """Unigram F1 with clipped counts.

    overlap = sum over words of min(pred count, ref count);
    P = overlap/|pred|, R = overlap/|ref|, F1 = 2PR/(P+R). Two empty
    texts score 1.0; exactly one empty scores 0.0.
    """
    pred, ref = _bag(prediction), _bag(reference)
    ref_counts = ref.counts
    return _f1(sum(min(count, ref_counts[word]) for word, count in pred.counts.items()), pred.total, ref.total)


def cosine_bow(a: str, b: str) -> float:
    """Cosine of the word-count vectors of two texts; 0.0 if either is empty.

    The result is clamped into [0, 1]; with integer counts the true value
    always lies there, so only float rounding is ever clipped. Identical
    texts score exactly 1.0.
    """
    bag_a, bag_b = _bag(a), _bag(b)
    counts_b = bag_b.counts
    return _cosine(sum(count * counts_b[word] for word, count in bag_a.counts.items()), bag_a.norm_sq, bag_b.norm_sq)


def total_score(
    rouge: float,
    cs_pred_annotation: float,
    cs_pred_lyrics: float,
    weights: TotalScoreWeights = TotalScoreWeights(),
) -> float:
    """Clamped, normalized weighted combination of the three metrics."""
    for name, value in (
        ("rouge", rouge),
        ("cs_pred_annotation", cs_pred_annotation),
        ("cs_pred_lyrics", cs_pred_lyrics),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    raw = (
        weights.alpha1 * rouge
        + weights.alpha2 * cs_pred_annotation
        - weights.alpha3 * cs_pred_lyrics
    )
    return max(0.0, raw) / (weights.alpha1 + weights.alpha2)


def evaluate(
    prediction: str,
    annotation: str,
    lyrics: str,
    weights: TotalScoreWeights = TotalScoreWeights(),
) -> MetricReport:
    """Full metric report for one generated meaning.

    The prediction is tokenized once, and one pass over its bag sums its
    squared norm, the ROUGE overlap with the annotation and both dot
    products, as
    :func:`rouge1` and :func:`cosine_bow` define them. The annotation and
    lyrics bags and their sums are kept across calls, since a grid scores
    every row of a sample against the same two texts.
    """
    tokens = tokenize_for_metrics(prediction)
    annotation_bag, lyrics_bag = _reference_bag(annotation), _reference_bag(lyrics)
    in_annotation, in_lyrics = annotation_bag.counts.get, lyrics_bag.counts.get
    norm_sq = overlap = dot_annotation = dot_lyrics = 0
    for word, count in Counter(tokens).items():
        norm_sq += count * count
        ref = in_annotation(word, 0)
        if ref:
            overlap += count if count < ref else ref
            dot_annotation += count * ref
        dot_lyrics += count * in_lyrics(word, 0)
    r = _f1(overlap, len(tokens), annotation_bag.total)
    cs_pa = _cosine(dot_annotation, norm_sq, annotation_bag.norm_sq)
    cs_pl = _cosine(dot_lyrics, norm_sq, lyrics_bag.norm_sq)
    return MetricReport(
        rouge1=r,
        cos_pred_annotation=cs_pa,
        cos_pred_lyrics=cs_pl,
        total_score=total_score(r, cs_pa, cs_pl, weights),
    )


def mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    """Field-wise mean of a non-empty sequence of reports."""
    n = len(reports)
    return MetricReport(*(sum(getattr(r, name) for r in reports) / n for name in METRIC_FIELDS))
