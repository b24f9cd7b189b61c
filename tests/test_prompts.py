import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyricsense.corpus import Sample
from lyricsense.prompts import (
    PromptError,
    PromptKind,
    PromptSpec,
    TARGET_SEPARATOR,
    TEMPLATE_PARTS,
    extract_generation,
    prompt_parts,
    render,
    render_with_target,
    target_parts,
)


def make_sample(fragment="L", annotation="Y", artist="A", title="T"):
    return Sample(
        sample_id="s#0", song_id="s", title=title, artist=artist,
        fragment=fragment, annotation=annotation,
    )


SAMPLE = make_sample(fragment="walls of rain", annotation="a storm of doubt", artist="U2", title="Roof")

# Frozen template table; every byte matters for reproducible decoding.
GOLDEN = {
    "lyrics_meaning": "lyrics: walls of rain. meaning:",
    "lyrics_meaning_meta": "artist: U2. title: Roof. lyrics: walls of rain. meaning:",
    "song_task": "explain the song. lyrics: walls of rain. meaning:",
    "song_task_meta": "explain the song Roof, written by U2. lyrics: walls of rain. meaning:",
    "question_context": "question: what is the meaning of this song? context: walls of rain. answer:",
    "question_context_meta": 'question: what is the meaning of U2 in his song "Roof"? context: walls of rain. answer:',
    "none": "walls of rain",
}


def test_golden_templates_byte_exact():
    for spec_id, expected in GOLDEN.items():
        rendered = render(PromptSpec.from_id(spec_id), SAMPLE)
        assert rendered.text == expected, spec_id


def test_exactly_seven_variants():
    variants = PromptSpec.all_variants()
    assert len(variants) == 7
    assert len({v.spec_id for v in variants}) == 7
    assert set(GOLDEN) == {v.spec_id for v in variants}


def test_render_lyrics_meaning_example():
    rendered = render(PromptSpec(PromptKind.LYRICS_MEANING), make_sample(fragment="X"))
    assert rendered.text == "lyrics: X. meaning:"
    assert rendered.continuation_marker == "meaning:"


def test_render_question_context_meta_example():
    rendered = render(
        PromptSpec(PromptKind.QUESTION_CONTEXT, with_metadata=True),
        make_sample(fragment="L", artist="U2", title="T"),
    )
    assert rendered.text == 'question: what is the meaning of U2 in his song "T"? context: L. answer:'


def test_render_none_passthrough():
    rendered = render(PromptSpec(PromptKind.NONE), make_sample(fragment="L"))
    assert rendered.text == "L"
    assert rendered.continuation_marker == ""


def test_text_always_ends_with_marker():
    for spec in PromptSpec.all_variants():
        rendered = render(spec, SAMPLE)
        assert rendered.text.endswith(rendered.continuation_marker)


def test_render_with_target_examples():
    sample = make_sample(fragment="X", annotation="Y")
    assert render_with_target(PromptSpec(PromptKind.LYRICS_MEANING), sample) == "lyrics: X. meaning: Y"
    assert render_with_target(PromptSpec(PromptKind.NONE), make_sample("L", "Y")) == "L Y"
    assert (
        render_with_target(PromptSpec(PromptKind.SONG_TASK, True), make_sample("L", "Y", artist="A", title="T"))
        == "explain the song T, written by A. lyrics: L. meaning: Y"
    )


def test_parts_join_to_the_rendered_texts():
    for spec in PromptSpec.all_variants():
        assert "".join(prompt_parts(spec, SAMPLE)) == render(spec, SAMPLE).text
        assert target_parts(spec, SAMPLE) == (*prompt_parts(spec, SAMPLE), TARGET_SEPARATOR, SAMPLE.annotation)


def test_every_field_is_walled_off_by_whitespace_or_punctuation():
    # The literal characters between a field and the nearest whitespace or
    # end of the text are punctuation other than ' and _, so no token of
    # lm.tokenize_lm and no final-sigma lowercasing reaches across the
    # field's edge: a fit may tokenize each part on its own.
    def walls(text):
        return all(unicodedata.category(c).startswith("P") and c not in "'_" for c in text)

    for key, (literals, fields) in TEMPLATE_PARTS.items():
        # render_with_target's literal pieces and fields.
        literals, fields = (*literals[:-1], literals[-1] + TARGET_SEPARATOR, ""), (*fields, "annotation")
        for i, field in enumerate(fields):
            before, after = literals[i], literals[i + 1]
            assert i == 0 or re.search(r"\s", before), (key, field)  # no field right after another
            assert walls(re.search(r"\S*$", before).group()), (key, field, before)
            assert walls(re.match(r"\S*", after).group()), (key, field, after)


def test_missing_metadata_raises():
    spec = PromptSpec(PromptKind.SONG_TASK, with_metadata=True)
    with pytest.raises(PromptError):
        render(spec, make_sample(artist=""))
    with pytest.raises(PromptError):
        render(spec, make_sample(title=""))


def test_empty_fragment_raises():
    with pytest.raises(PromptError):
        render(PromptSpec(PromptKind.NONE), make_sample(fragment=""))


def test_none_kind_forbids_metadata():
    with pytest.raises(ValueError):
        PromptSpec(PromptKind.NONE, with_metadata=True)


def test_spec_id_round_trip():
    for spec in PromptSpec.all_variants():
        assert PromptSpec.from_id(spec.spec_id) == spec
    with pytest.raises(ValueError):
        PromptSpec.from_id("haiku")


def test_extract_generation_cases():
    from lyricsense.prompts import RenderedPrompt

    prompt = RenderedPrompt(text="a: b:", continuation_marker="b:")
    assert extract_generation("a: b: c d", prompt) == "c d"
    assert extract_generation("a: b:", prompt) == ""
    with pytest.raises(ValueError):
        extract_generation("z: b: c", prompt)


word = st.text(alphabet="abcdefghij xyz'", min_size=1, max_size=20).map(
    lambda s: " ".join(s.split())
).filter(bool)


@given(word, word, word, word)
@settings(max_examples=150)
def test_round_trip_recovers_annotation(fragment, annotation, artist, title):
    sample = make_sample(fragment=fragment, annotation=annotation, artist=artist, title=title)
    for spec in PromptSpec.all_variants():
        rendered = render(spec, sample)
        assert extract_generation(render_with_target(spec, sample), rendered) == annotation


@given(word, word)
@settings(max_examples=100)
def test_render_injective_over_fragments(frag_a, frag_b):
    if frag_a == frag_b:
        return
    for spec in PromptSpec.all_variants():
        a = render(spec, make_sample(fragment=frag_a))
        b = render(spec, make_sample(fragment=frag_b))
        assert a.text != b.text
