import contextlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyricsense.cli import _read_predictions
from lyricsense.corpus import load_corpus
from lyricsense.decoding import DecodeConfig
from lyricsense.harness import ExperimentGrid
from lyricsense.jsonfields import required, typed
from lyricsense.lm import NGramModel, fit_ngram


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "w: expected an integer, got bool"),
        (1, bool, "w: expected a boolean, got int"),
        (2.5, int, "w: expected an integer, got float"),
        ([1], dict, "w: expected a JSON object, got list"),
        (None, str, "w: expected a string, got NoneType"),
        (False, float, "w: expected a number, got bool"),
        (math.inf, float, "w: expected a finite number, got inf"),
        (10**400, float, "w: expected a finite number"),
    ],
)
def test_typed_rejects_other_kinds_naming_where(value, kind, message):
    with pytest.raises(ValueError) as exc_info:
        typed(value, kind, "w")
    assert str(exc_info.value).startswith(message)


@pytest.mark.parametrize(
    "value, kind", [(True, bool), (3, int), (3, float), (0.5, float), ("", str), ([], list), ({}, dict)]
)
def test_typed_returns_a_matching_value_unchanged(value, kind):
    assert typed(value, kind, "w") is value


def test_required_names_the_missing_or_mistyped_field():
    assert required({"a": 1}, "a", "w") == 1
    assert required({"a": "x"}, "a", "w", str) == "x"
    with pytest.raises(ValueError, match=r"^w: missing field 'b'$"):
        required({"a": 1}, "b", "w", str)
    with pytest.raises(ValueError, match=r"^w: field 'a': expected a string, got int$"):
        required({"a": 1}, "a", "w", str)


# ------------------------------------------------ any JSON value at each boundary

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _near(base: dict, values=_json):
    """``base`` with a few fields replaced by ``values`` and a few dropped."""
    keys = sorted(base)
    return st.builds(
        lambda changes, dropped: {k: v for k, v in {**base, **changes}.items() if k not in dropped},
        st.dictionaries(st.sampled_from(keys), values, max_size=3),
        st.sets(st.sampled_from(keys), max_size=2),
    )


_PREDICTION = {"prediction": "joy", "annotation": "pure joy", "lyrics": "rain"}
_FRAGMENT = {"fragment": "la la", "annotation": "joy"}
_RECORD = {
    "song_id": "s1", "title": "T", "artist": "A", "genre": "pop",
    "lyrics": "la la", "page_views": 3, "fragments": [_FRAGMENT],
}
_DECODER = {
    "id": "d", "strategy": "top_k", "num_beams": 3, "no_repeat_ngram_size": 2, "early_stopping": True,
    "temperature": 0.9, "k": 5, "p": 0.9, "max_new_tokens": 4, "seed": 0,
}
_MODEL_SPEC = {"id": "m", "type": "ngram", "order": 2, "k": 0.1, "vocab_cap": 50}
_GRID = {
    "models": [_MODEL_SPEC], "prompts": ["none"], "decoders": [_DECODER],
    "eval_samples": {"top_page_views": 2}, "weights": {"alpha1": 0.5},
    "split_ratios": [0.8, 0.1, 0.1], "seed": 0,
}
_MODEL_FILE = fit_ngram(["a b c a b", "c a b"], order=2, k=0.1, vocab_cap=10).to_dict()

_records = _json | _near(_RECORD, _json | st.lists(_json | _near(_FRAGMENT), max_size=2))
_grid_values = _json | st.lists(_json | _near(_MODEL_SPEC) | _near(_DECODER), max_size=2)
_grids = _json | _near(_GRID, _grid_values | _near({"top_page_views": 2}))
_decode_configs = _json | _near({k: v for k, v in _DECODER.items() if k != "id"})
_count_tables = st.dictionaries(st.sampled_from(["", "3", "4", "x", "99"]), _json | _near({"3": 1, "4": 2}))
_model_files = _json | _near(_MODEL_FILE, _json | _count_tables)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonfields")


@given(value=_json | _near(_PREDICTION))
@settings(max_examples=200, deadline=None)
def test_any_predictions_line_is_read_or_a_value_error(scratch, value):
    path = scratch / "predictions.jsonl"
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")
    with contextlib.suppress(ValueError):
        _read_predictions(str(path))


@given(value=_records)
@settings(max_examples=200, deadline=None)
def test_any_corpus_line_is_a_record_or_a_load_error(scratch, value):
    path = scratch / "corpus.jsonl"
    path.write_text(json.dumps({"trbll_schema": 1}) + "\n" + json.dumps(value) + "\n", encoding="utf-8")
    result = load_corpus(str(path))
    assert len(result.records) + len(result.errors) == 1


@pytest.mark.parametrize(
    "read, values",
    [
        (ExperimentGrid.from_dict, _grids),
        (DecodeConfig.from_dict, _decode_configs),
        (NGramModel.from_dict, _model_files),
    ],
    ids=["grid_config", "decode_config", "model_file"],
)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_config_or_model_is_read_or_a_value_error(read, values, data):
    with contextlib.suppress(ValueError):
        read(data.draw(values))
