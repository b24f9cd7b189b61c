"""Generation quality metrics: unigram ROUGE, bag-of-words cosine, total score.

The total score rewards similarity to the gold annotation and penalizes
copying the song lyrics:

    raw   = alpha1 * rouge + alpha2 * cos(pred, annotation) - alpha3 * cos(pred, lyrics)
    score = max(0, raw) / (alpha1 + alpha2)

The division by ``alpha1 + alpha2`` (the largest achievable raw value)
normalizes the score to [0, 1].
"""

from __future__ import annotations

import math
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


def tokenize_for_metrics(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge non-alphanumerics.

    Inner punctuation survives ("don't" stays one token); tokens that are
    all punctuation are dropped.
    """
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


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
    """Shared bag of an annotation or lyrics text, with its sums; callers never mutate it.

    Indexing a ``Counter`` on a missing word returns 0 without inserting
    it, so the formulas below only read the cached bag.
    """
    return _bag(text)


def _rouge1_bags(pred: _Bag, ref: _Bag) -> float:
    if pred.total == 0 and ref.total == 0:
        return 1.0
    if pred.total == 0 or ref.total == 0:
        return 0.0
    ref_counts = ref.counts
    overlap = sum(min(count, ref_counts[word]) for word, count in pred.counts.items())
    if overlap == 0:
        return 0.0
    precision = overlap / pred.total
    recall = overlap / ref.total
    return 2 * precision * recall / (precision + recall)


def _cosine_bags(bag_a: _Bag, bag_b: _Bag) -> float:
    if not bag_a.counts or not bag_b.counts:
        return 0.0
    counts_b = bag_b.counts
    dot = sum(count * counts_b[word] for word, count in bag_a.counts.items())
    value = dot / math.sqrt(bag_a.norm_sq * bag_b.norm_sq)
    return min(1.0, max(0.0, value))


def rouge1(prediction: str, reference: str) -> float:
    """Unigram F1 with clipped counts.

    overlap = sum over words of min(pred count, ref count);
    P = overlap/|pred|, R = overlap/|ref|, F1 = 2PR/(P+R). Two empty
    texts score 1.0; exactly one empty scores 0.0.
    """
    return _rouge1_bags(_bag(prediction), _bag(reference))


def cosine_bow(a: str, b: str) -> float:
    """Cosine of the word-count vectors of two texts; 0.0 if either is empty.

    The result is clamped into [0, 1]; with integer counts the true value
    always lies there, so only float rounding is ever clipped. Identical
    texts score exactly 1.0.
    """
    return _cosine_bags(_bag(a), _bag(b))


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

    The prediction is tokenized and summed once per call; the annotation
    and lyrics bags and their sums are kept across calls, since a grid
    scores every row of a sample against the same two texts.
    """
    pred = _bag(prediction)
    annotation_bag = _reference_bag(annotation)
    r = _rouge1_bags(pred, annotation_bag)
    cs_pa = _cosine_bags(pred, annotation_bag)
    cs_pl = _cosine_bags(pred, _reference_bag(lyrics))
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
