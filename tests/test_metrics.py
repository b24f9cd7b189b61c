import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyricsense.metrics import (
    MetricReport,
    TotalScoreWeights,
    cosine_bow,
    evaluate,
    rouge1,
    tokenize_for_metrics,
    total_score,
)


def test_tokenize_examples():
    assert tokenize_for_metrics("The song, the LINE") == ["the", "song", "the", "line"]
    assert tokenize_for_metrics("") == []
    assert tokenize_for_metrics("don't") == ["don't"]
    assert tokenize_for_metrics("_x_ !!y?? ...") == ["x", "y"]
    assert tokenize_for_metrics("café!") == ["café"]


# Hand-computed ROUGE-1 F1 fixtures (clipped-count formula worked as rationals).
ROUGE_FIXTURES = [
    ("a", "a", Fraction(1)),
    ("a b b", "a b c", Fraction(2, 3)),          # overlap 2, P=R=2/3
    ("a a a", "a", Fraction(1, 2)),              # overlap 1, P=1/3, R=1
    ("the cat sat", "the cat", Fraction(4, 5)),  # overlap 2, P=2/3, R=1
    ("x y", "y x", Fraction(1)),
    ("a b c d", "c d e f", Fraction(1, 2)),      # overlap 2, P=R=1/2
    ("a a b", "a b b", Fraction(2, 3)),          # clipped overlap 1+1
    ("Hello, WORLD!", "hello world", Fraction(1)),
    ("q w e", "z x c", Fraction(0)),
    ("a b", "a b c d", Fraction(2, 3)),          # overlap 2, P=1, R=1/2
    ("s", "s s s s", Fraction(2, 5)),            # P=1, R=1/4
]


@pytest.mark.parametrize("pred,ref,expected", ROUGE_FIXTURES)
def test_rouge1_hand_fixtures(pred, ref, expected):
    assert abs(rouge1(pred, ref) - float(expected)) < 1e-12


def test_rouge1_empty_conventions():
    assert rouge1("", "") == 1.0
    assert rouge1("", "a") == 0.0
    assert rouge1("a", "") == 0.0
    assert rouge1("...", "!!!") == 1.0  # both tokenize to nothing


# Hand-computed cosine fixtures: (text a, text b, exact value).
COSINE_FIXTURES = [
    ("a b", "a b", 1.0),
    ("a a", "b", 0.0),
    ("a b", "a c", 0.5),                          # dot 1 over sqrt2*sqrt2
    ("a a b", "a b", 3 / math.sqrt(10)),          # dot 2+1, norms sqrt5, sqrt2
    ("a b c", "a b c d", 3 / (math.sqrt(3) * 2)),
    ("a", "a a a", 1.0),
    ("don't stop", "don't stop", 1.0),
    ("a b", "b a", 1.0),
    ("x", "y", 0.0),
    ("w w x", "w y y", 2 / 5),                    # dot 2, norms sqrt5, sqrt5
]


@pytest.mark.parametrize("a,b,expected", COSINE_FIXTURES)
def test_cosine_hand_fixtures(a, b, expected):
    assert abs(cosine_bow(a, b) - expected) < 1e-12


def test_cosine_empty_is_zero():
    assert cosine_bow("", "anything") == 0.0
    assert cosine_bow("anything", "") == 0.0
    assert cosine_bow("", "") == 0.0


def test_total_score_examples():
    w = TotalScoreWeights()
    assert total_score(1.0, 1.0, 0.0, w) == 1.0
    assert total_score(0.0, 0.0, 1.0, w) == 0.0  # clamped at zero
    assert abs(total_score(0.4, 0.6, 0.2, w) - 0.4) < 1e-12  # (0.2+0.3-0.1)/1.0


def test_total_score_direct_formula_grid():
    w = TotalScoreWeights(alpha1=0.5, alpha2=0.5, alpha3=0.5)
    values = [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in values:
        for ca in values:
            for cl in values:
                raw = 0.5 * r + 0.5 * ca - 0.5 * cl
                expected = max(0.0, raw) / 1.0
                assert abs(total_score(r, ca, cl, w) - expected) < 1e-12


def test_total_score_validates_inputs():
    with pytest.raises(ValueError):
        total_score(1.5, 0, 0)
    with pytest.raises(ValueError):
        total_score(0, -0.1, 0)
    with pytest.raises(ValueError):
        TotalScoreWeights(alpha1=0.0, alpha2=0.0)
    with pytest.raises(ValueError):
        TotalScoreWeights(alpha1=-1.0)
    with pytest.raises(ValueError):
        TotalScoreWeights(alpha1=math.inf)


def test_weights_whose_sum_overflows_are_rejected():
    with pytest.raises(ValueError, match=r"^alpha1 \+ alpha2 must be positive and finite, got inf$"):
        TotalScoreWeights(1e308, 1e308, 0.5)


_alphas = st.floats(min_value=0.0, max_value=1.7e308)
_unit = st.floats(min_value=0.0, max_value=1.0)


@given(alphas=st.tuples(_alphas, _alphas, _alphas), metrics=st.tuples(_unit, _unit, _unit))
@settings(max_examples=200, deadline=None)
def test_any_accepted_weights_score_within_0_and_1(alphas, metrics):
    try:
        weights = TotalScoreWeights(*alphas)
    except ValueError:
        assert not 0 < alphas[0] + alphas[1] < math.inf
        return
    assert 0.0 <= total_score(*metrics, weights) <= 1.0


def test_total_score_custom_weights_normalization():
    w = TotalScoreWeights(alpha1=1.0, alpha2=3.0, alpha3=0.5)
    assert total_score(1.0, 1.0, 0.0, w) == 1.0  # max raw = alpha1+alpha2
    assert abs(total_score(0.5, 0.5, 1.0, w) - (0.5 + 1.5 - 0.5) / 4.0) < 1e-12


def test_evaluate_perfect_prediction():
    report = evaluate("pure joy", "pure joy", "rain rain rain")
    assert report.rouge1 == 1.0
    assert report.cos_pred_annotation == 1.0
    assert report.cos_pred_lyrics == 0.0
    assert report.total_score == 1.0


def test_evaluate_plagiarised_lyrics():
    report = evaluate("rain rain", "pure joy", "rain rain")
    assert report.rouge1 == 0.0
    assert report.cos_pred_annotation == 0.0
    assert report.cos_pred_lyrics == 1.0
    assert report.total_score == 0.0


def test_evaluate_fixture_triple_hand_computed():
    prediction = "the singer mourns a lost love"
    annotation = "the song mourns lost love"
    lyrics = "dust on the dial rust on the door"
    # rouge: overlap {the, mourns, lost, love} = 4; P=4/6, R=4/5 -> F1 = 8/11
    rouge = 2 * (4 / 6) * (4 / 5) / ((4 / 6) + (4 / 5))
    assert abs(rouge - 8 / 11) < 1e-15
    # cos(pred, annotation): dot 4, norms sqrt6 and sqrt5
    cs_pa = 4 / math.sqrt(30)
    # cos(pred, lyrics): only "the" shared, counts 1 and 2, norms sqrt6 and sqrt12
    cs_pl = 2 / math.sqrt(72)
    expected_total = max(0.0, 0.5 * rouge + 0.5 * cs_pa - 0.5 * cs_pl) / 1.0
    report = evaluate(prediction, annotation, lyrics)
    assert abs(report.rouge1 - 8 / 11) < 1e-12
    assert abs(report.cos_pred_annotation - cs_pa) < 1e-12
    assert abs(report.cos_pred_lyrics - cs_pl) < 1e-12
    assert abs(report.total_score - expected_total) < 1e-12


def test_report_serializes_flat():
    report = MetricReport(0.1, 0.2, 0.3, 0.4)
    assert report.to_dict() == {
        "rouge1": 0.1,
        "cos_pred_annotation": 0.2,
        "cos_pred_lyrics": 0.3,
        "total_score": 0.4,
    }


any_text = st.text(max_size=80)


@given(any_text, any_text)
@settings(max_examples=300)
def test_rouge_and_cosine_symmetric(a, b):
    assert abs(rouge1(a, b) - rouge1(b, a)) < 1e-12
    assert abs(cosine_bow(a, b) - cosine_bow(b, a)) < 1e-12


@given(any_text, any_text, any_text)
@settings(max_examples=300)
def test_all_report_fields_in_unit_interval(pred, annotation, lyrics):
    report = evaluate(pred, annotation, lyrics)
    for value in report.to_dict().values():
        assert 0.0 <= value <= 1.0


@given(any_text, any_text, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_token_order_independence(a, b, rng):
    tokens = tokenize_for_metrics(a)
    rng.shuffle(tokens)
    shuffled = " ".join(tokens)
    assert abs(rouge1(a, b) - rouge1(shuffled, b)) < 1e-12
    assert abs(cosine_bow(a, b) - cosine_bow(shuffled, b)) < 1e-12


def test_total_score_monotonicity_grid():
    w = TotalScoreWeights()
    grid = [i / 10 for i in range(11)]
    for ca in grid:
        for cl in grid:
            scores = [total_score(r, ca, cl, w) for r in grid]
            assert scores == sorted(scores)  # non-decreasing in rouge
    for r in grid:
        for cl in grid:
            scores = [total_score(r, ca, cl, w) for ca in grid]
            assert scores == sorted(scores)  # non-decreasing in cs_pa
    for r in grid:
        for ca in grid:
            scores = [total_score(r, ca, cl, w) for cl in grid]
            assert scores == sorted(scores, reverse=True)  # non-increasing in cs_pl
