import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyricsense.corpus import (
    AnnotatedFragment,
    CorpusError,
    LoadResult,
    SongRecord,
    clean_corpus,
    clean_record,
    compute_stats,
    flatten,
    load_corpus,
    split,
    write_corpus,
)
from lyricsense.corpus import _has_non_latin_letter
from lyricsense.metrics import tokenize_for_metrics
from lyricsense.rng import SplitMix64


def make_record(song_id="s1", lyrics="la la la", fragments=None, **kwargs):
    defaults = dict(title="T", artist="A", genre="pop", page_views=10)
    defaults.update(kwargs)
    if fragments is None:
        fragments = [AnnotatedFragment("la la", "about joy")]
    return SongRecord(song_id=song_id, lyrics=lyrics, fragments=fragments, **defaults)


# ---------------------------------------------------------------- load_corpus

def test_load_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    result = load_corpus(str(path))
    assert result.records == []
    assert result.errors == []


def test_load_three_valid_lines_in_order(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(str(path), [make_record(f"s{i}") for i in range(3)])
    result = load_corpus(str(path))
    assert [r.song_id for r in result.records] == ["s0", "s1", "s2"]
    assert result.errors == []


def test_load_reports_malformed_line_with_number(tmp_path):
    # Header on line 1, valid record line 2, garbage line 3, valid line 4.
    good = {
        "song_id": "g", "title": "t", "artist": "a", "genre": "pop",
        "lyrics": "x", "page_views": 1,
        "fragments": [{"fragment": "x", "annotation": "y"}],
    }
    lines = [
        json.dumps({"trbll_schema": 1}),
        json.dumps(good),
        "{not json",
        json.dumps({**good, "song_id": "h"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")

    # Independent line-by-line oracle for the expected counts.
    expected_good = 0
    expected_bad_lines = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
            assert isinstance(obj, dict) and "song_id" in obj
            expected_good += 1
        except (AssertionError, json.JSONDecodeError):
            expected_bad_lines.append(number)
    assert (expected_good, expected_bad_lines) == (2, [3])

    result = load_corpus(str(path))
    assert [r.song_id for r in result.records] == ["g", "h"]
    assert len(result.errors) == 1
    assert result.errors[0].line_number == 3


@pytest.mark.parametrize(
    "bad",
    [
        {"title": "t", "artist": "a", "lyrics": "x", "fragments": []},  # no song_id
        {"song_id": "s", "title": "t", "artist": "a", "lyrics": "x", "fragments": [{"fragment": "f"}]},
        {"song_id": "s", "title": "t", "artist": "a", "lyrics": "x", "genre": "polka", "fragments": []},
        {"song_id": "s", "title": "t", "artist": "a", "lyrics": "x", "page_views": -1, "fragments": []},
        {"song_id": "s", "title": "t", "artist": "a", "lyrics": 4, "fragments": []},
    ],
)
def test_load_schema_violations_become_line_errors(tmp_path, bad):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"trbll_schema": 1}) + "\n" + json.dumps(bad) + "\n")
    result = load_corpus(str(path))
    assert result.records == []
    assert [e.line_number for e in result.errors] == [2]


def test_load_duplicate_song_id_reported(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(str(path), [make_record("dup"), make_record("dup")])
    result = load_corpus(str(path))
    assert len(result.records) == 1
    assert len(result.errors) == 1
    assert "duplicate" in result.errors[0].message


def test_load_schema_version_mismatch(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"trbll_schema": 2}\n')
    with pytest.raises(CorpusError, match="mismatch"):
        load_corpus(str(path))


def test_load_missing_header(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"song_id": "x"}\n')
    with pytest.raises(CorpusError, match="header"):
        load_corpus(str(path))


def test_load_unreadable_file():
    with pytest.raises(CorpusError):
        load_corpus("/nonexistent/corpus.jsonl")


def _record_line(song_id, lyrics, separators=(", ", ": ")):
    obj = {"song_id": song_id, "title": "t", "artist": "a", "lyrics": lyrics, "fragments": []}
    return json.dumps(obj, ensure_ascii=False, separators=separators).encode()


# Each kind of line: its bytes from a song id and a drawn text, and whether it holds
# a record (True), an error (False) or nothing (None, a blank line).
_BYTE_LINES = {
    "record": (_record_line, True),
    "raw_line_breaks": (lambda sid, text: _record_line(sid, text + "\u2028\x85\x1c\x1d\x1e\x0b\x0c"), True),
    "crlf": (lambda sid, text: _record_line(sid, text) + b"\r", True),
    "stray_cr": (lambda sid, text: _record_line(sid, text, separators=(",\r", ":")), True),
    "not_utf8": (lambda sid, text: b"{\xff" + _record_line(sid, text)[1:], False),
    "bom": (lambda sid, text: b"\xef\xbb\xbf" + _record_line(sid, text), False),
    "not_json": (lambda sid, text: b"{not json", False),
    "blank": (lambda sid, text: b" \t", None),
    "blank_cr": (lambda sid, text: b"\r", None),
}


@given(st.lists(st.tuples(st.sampled_from(sorted(_BYTE_LINES)), st.text(max_size=8)), max_size=8))
@example([("not_utf8", "x"), ("raw_line_breaks", "y"), ("crlf", "z")])
@settings(max_examples=200, deadline=None)
def test_each_non_blank_byte_line_is_a_record_or_an_error_naming_it(scratch, drawn):
    lines, song_ids, bad_lines = [b'{"trbll_schema": 1}'], [], []
    for line_number, (kind, text) in enumerate(drawn, start=2):
        make, holds_record = _BYTE_LINES[kind]
        lines.append(make(str(line_number), text))
        if holds_record:
            song_ids.append(str(line_number))
        elif holds_record is False:
            bad_lines.append(line_number)
    path = scratch / "byte_lines.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    result = load_corpus(str(path))
    assert [r.song_id for r in result.records] == song_ids
    assert [e.line_number for e in result.errors] == bad_lines


# --------------------------------------------------------------- clean_record

def test_clean_rejects_non_latin_lyrics():
    record = make_record(lyrics="hello 안녕 world")  # Hangul
    assert clean_record(record) is None


@pytest.mark.parametrize("ch", ["α", "б", "中", "א"])  # Greek, Cyrillic, CJK, Hebrew
def test_clean_rejects_other_scripts(ch):
    assert clean_record(make_record(lyrics=f"la {ch} la")) is None


# ASCII, Latin-1 and Latin Extended letters, Greek, CJK, and non-letters above U+024F.
_script_text = st.text(
    alphabet=st.sampled_from("aZ 9.\n\u00e9\u00ff\u0101\u024f\u0250\u03b1\u03a3\u4e2d\u0663\u2028\U0001f3b5")
)


@given(_script_text)
@example("\u0663")  # ARABIC-INDIC DIGIT THREE: above U+024F, not a letter
@example("ab \u0250")  # first code point past Latin Extended-B
@settings(max_examples=300)
def test_non_latin_letter_check_matches_per_character_definition(text):
    expected = any(ch.isalpha() and ord(ch) > 0x024F for ch in text)
    assert _has_non_latin_letter(text) == expected
    assert (clean_record(make_record(lyrics=f"la {text}")) is None) == expected


def test_clean_keeps_latin_accents_digits_punctuation_emoji():
    record = make_record(lyrics="café œuvre 42 !?… \U0001f3b5 naïve")
    assert clean_record(record) is not None


def test_clean_strips_urls_from_annotations():
    url_re = re.compile(r"(?:https?://|www\.)\S+")  # independent oracle
    cases = [
        "see https://x.y/z for more",
        "see www.example.com/page?a=1 for more",
        "http://a.b see for more",
    ]
    for text in cases:
        record = make_record(fragments=[AnnotatedFragment("la la", text)])
        cleaned = clean_record(record)
        expected = " ".join(url_re.sub("", text).split())
        assert cleaned.fragments[0].annotation == expected
    record = make_record(fragments=[AnnotatedFragment("la la", "see https://x.y/z for more")])
    assert clean_record(record).fragments[0].annotation == "see for more"


def test_clean_pure_ascii_record_unchanged():
    record = make_record()
    assert clean_record(record) == record


def test_clean_drops_fragment_when_annotation_empties():
    record = make_record(
        fragments=[
            AnnotatedFragment("la la", "https://only.a/url"),
            AnnotatedFragment("la", "real meaning"),
            AnnotatedFragment("   ", "meaning without a fragment"),
        ]
    )
    cleaned = clean_record(record)
    assert [f.annotation for f in cleaned.fragments] == ["real meaning"]


def test_clean_rejects_whitespace_only_lyrics():
    assert clean_record(make_record(lyrics="  \n ")) is None


def test_clean_normalizes_whitespace_and_line_endings():
    record = make_record(
        lyrics="one\r\ntwo\rthree\n",
        fragments=[AnnotatedFragment("  a\tb ", " c \n d ")],
    )
    cleaned = clean_record(record)
    assert cleaned.lyrics == "one\ntwo\nthree"
    assert cleaned.fragments[0] == AnnotatedFragment("a b", "c d")


text_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


@st.composite
def record_st(draw):
    fragments = [
        AnnotatedFragment(draw(text_st), draw(text_st))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return SongRecord(
        song_id=draw(st.text(min_size=1, max_size=8)),
        title=draw(text_st),
        artist=draw(text_st),
        genre=draw(st.sampled_from(["pop", "rap", "rock", "country", "rnb", "other"])),
        lyrics=draw(text_st),
        page_views=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        fragments=fragments,
    )


@given(st.lists(record_st(), max_size=4, unique_by=lambda r: r.song_id))
@example([make_record(title="\u2028", artist="\x85", lyrics="a\x1cb\rc\u2029d\x0be\x0cf\r\n",
                      fragments=[AnnotatedFragment("\x1d", "\x1e\r")])])
@settings(max_examples=100, deadline=None)
def test_write_then_load_gives_back_every_record(scratch, records):
    path = scratch / "round_trip.jsonl"
    write_corpus(str(path), records)
    assert load_corpus(str(path)) == LoadResult(records, [])


@given(record_st())
@settings(max_examples=200)
def test_clean_is_idempotent(record):
    once = clean_record(record)
    if once is None:
        assert clean_record(record) is None
    else:
        assert clean_record(once) == once


# -------------------------------------------------------------------- flatten

def test_flatten_one_record_three_fragments():
    record = make_record(
        fragments=[AnnotatedFragment(f"f{i}", f"a{i}") for i in range(3)]
    )
    samples = flatten([record])
    assert len(samples) == 3
    assert {s.song_id for s in samples} == {"s1"}
    assert [s.sample_id for s in samples] == ["s1#0", "s1#1", "s1#2"]


def test_flatten_empty():
    assert flatten([]) == []


def test_flatten_two_records_counts():
    records = [
        make_record("a", fragments=[AnnotatedFragment(f"f{i}", "x") for i in range(2)]),
        make_record("b", fragments=[AnnotatedFragment(f"f{i}", "x") for i in range(5)]),
    ]
    samples = flatten(records)
    assert len(samples) == 7  # 2 + 5, counted by hand
    assert [s.fragment for s in samples] == ["f0", "f1", "f0", "f1", "f2", "f3", "f4"]


@given(st.lists(record_st(), max_size=6))
@settings(max_examples=100)
def test_flatten_preserves_fragment_count(records):
    # distinct ids to honor the corpus invariant
    records = [
        SongRecord(f"id{i}", r.title, r.artist, r.genre, r.lyrics, r.page_views, r.fragments)
        for i, r in enumerate(records)
    ]
    assert len(flatten(records)) == sum(len(r.fragments) for r in records)


# ---------------------------------------------------------------------- split

def make_samples(n_songs, per_song=2):
    records = [
        make_record(f"song{i:02d}", fragments=[AnnotatedFragment(f"f{j}", "a") for j in range(per_song)])
        for i in range(n_songs)
    ]
    return flatten(records)


def test_split_all_to_first():
    samples = make_samples(5)
    train, val, test = split(samples, (1, 0, 0), seed=3)
    assert train == samples and val == [] and test == []


def test_split_deterministic_for_seed():
    samples = make_samples(12)
    assert split(samples, seed=9) == split(samples, seed=9)


def test_split_ten_songs_eight_one_one():
    samples = make_samples(10)
    train, val, test = split(samples, (0.8, 0.1, 0.1), seed=5)
    songs = lambda part: {s.song_id for s in part}  # noqa: E731
    assert (len(songs(train)), len(songs(val)), len(songs(test))) == (8, 1, 1)

    # Independent enumeration of the documented rule: Fisher-Yates over
    # first-appearance song ids with SplitMix64(seed), floor cuts.
    ids = []
    for s in samples:
        if s.song_id not in ids:
            ids.append(s.song_id)
    SplitMix64(5).shuffle(ids)
    expected_train = set(ids[:8])
    expected_val = set(ids[8:9])
    expected_test = set(ids[9:])
    assert songs(train) == expected_train
    assert songs(val) == expected_val
    assert songs(test) == expected_test


def test_split_rejects_bad_ratios():
    samples = make_samples(3)
    with pytest.raises(ValueError):
        split(samples, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split(samples, (1.2, -0.1, -0.1))
    for ratios in [(math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5), (0.5, 0.5, -math.inf)]:
        with pytest.raises(ValueError, match=r"^split ratios must be finite and non-negative"):
            split(samples, ratios)


@given(
    st.integers(0, 2**32),
    st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(lambda t: t[0] + t[1] <= 1),
)
@settings(max_examples=100)
@example(seed=0, two_ratios=(0.9999999999999999, 2.22e-16))  # third ratio rounds to -1.1e-16
def test_split_is_song_level_partition(seed, two_ratios):
    r1, r2 = two_ratios
    samples = make_samples(9, per_song=3)
    parts = split(samples, (r1, r2, 1 - r1 - r2), seed=seed)
    recombined = [s for part in parts for s in part]
    assert sorted(recombined, key=lambda s: s.sample_id) == sorted(samples, key=lambda s: s.sample_id)
    assert sum(len(p) for p in parts) == len(samples)
    song_sets = [{s.song_id for s in part} for part in parts]
    assert not (song_sets[0] & song_sets[1])
    assert not (song_sets[0] & song_sets[2])
    assert not (song_sets[1] & song_sets[2])


# -------------------------------------------------------------- compute_stats

def test_stats_word_frequencies_hand_count():
    record = make_record(fragments=[AnnotatedFragment("la", "the song the")])
    stats = compute_stats([record])
    assert stats.word_frequencies_annotations == {"song": 1, "the": 2}


def test_stats_empty_corpus():
    stats = compute_stats([])
    assert stats.songs_per_genre == {}
    assert stats.songs_per_artist == {}
    assert stats.annotation_length_histogram == {}
    assert stats.sample_length_histogram == {}
    assert stats.word_frequencies_annotations == {}
    assert stats.word_frequencies_lyrics == {}


def test_stats_genre_count():
    stats = compute_stats([make_record(genre="rap")])
    assert stats.songs_per_genre == {"rap": 1}


def test_stats_histograms_sum_to_item_counts():
    records = [
        make_record("a", fragments=[AnnotatedFragment("x y", "one two three"), AnnotatedFragment("z", "four")]),
        make_record("b", fragments=[AnnotatedFragment("p q r", "five six")]),
    ]
    stats = compute_stats(records)
    n_fragments = 3
    assert sum(stats.annotation_length_histogram.values()) == n_fragments
    assert sum(stats.sample_length_histogram.values()) == n_fragments
    assert stats.annotation_length_histogram == {1: 1, 2: 1, 3: 1}
    assert stats.sample_length_histogram == {1: 1, 2: 1, 3: 1}


def test_stats_tokenize_rules():
    assert tokenize_for_metrics("The song, the LINE") == ["the", "song", "the", "line"]
    assert tokenize_for_metrics("") == []
    assert tokenize_for_metrics("don't") == ["don't"]
    assert tokenize_for_metrics("'quoted'  (aside)") == ["quoted", "aside"]
    assert tokenize_for_metrics("!!! --- ...") == []


# ------------------------------------------------------- mini corpus fixture

def test_mini_corpus_loads_clean_and_flat(mini_corpus_path):
    result = load_corpus(mini_corpus_path)
    assert result.errors == []
    assert len(result.records) == 22
    cleaned = clean_corpus(result.records)
    assert cleaned == result.records  # bundled corpus ships pre-cleaned
    samples = flatten(cleaned)
    assert len(samples) == 94
    # hand-counted genre distribution of the bundled songs
    assert compute_stats(cleaned).songs_per_genre == {
        "country": 4, "other": 2, "pop": 5, "rap": 3, "rnb": 3, "rock": 5,
    }
