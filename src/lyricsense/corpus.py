"""Corpus ingestion, cleaning, splitting and exploration statistics.

The on-disk corpus format is UTF-8 JSONL: a header line ``{"trbll_schema": 1}``
followed by one song object per line with keys ``song_id, title, artist,
genre, lyrics, page_views, fragments[]`` where each fragment is
``{"fragment": ..., "annotation": ...}``. A line ends at ``\\n`` (CRLF is
accepted), so a text field may hold U+2028 or any other character raw; a
line that is not UTF-8 or not a valid record is that line's error.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .jsonfields import jsonl_lines, required, typed
from .metrics import tokenize_for_metrics
from .rng import SplitMix64

SCHEMA_KEY = "trbll_schema"
SCHEMA_VERSION = 1  # the only corpus schema this toolkit reads and writes
GENRES = ("pop", "rap", "rock", "country", "rnb", "other")
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, validation, test shares of the songs by default

# Maximal http(s)/www runs up to the next whitespace.
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_WS_RE = re.compile(r"\s+")

# Letters in Basic Latin, Latin-1 Supplement and Latin Extended-A/B all
# have code points <= U+024F; any letter above that is treated as
# non-English and rejects the whole song.
_MAX_LATIN = 0x024F


class CorpusError(Exception):
    """Unreadable corpus file or schema-version mismatch."""


@dataclass
class AnnotatedFragment:
    fragment: str
    annotation: str


@dataclass
class SongRecord:
    song_id: str
    title: str
    artist: str
    genre: Optional[str]
    lyrics: str
    page_views: Optional[int]
    fragments: list[AnnotatedFragment] = field(default_factory=list)


@dataclass
class Sample:
    """One (fragment, annotation) pair flattened out of a song record.

    ``sample_id`` is ``"<song_id>#<fragment index>"`` and is the handle the
    experiment harness uses to pin evaluation samples.
    """

    sample_id: str
    song_id: str
    title: str
    artist: str
    fragment: str
    annotation: str


@dataclass
class LoadError:
    line_number: int
    message: str


@dataclass
class LoadResult:
    records: list[SongRecord]
    errors: list[LoadError]


@dataclass
class CorpusStats:
    songs_per_genre: dict[str, int]
    songs_per_artist: dict[str, int]
    annotation_length_histogram: dict[int, int]
    sample_length_histogram: dict[int, int]
    word_frequencies_annotations: dict[str, int]
    word_frequencies_lyrics: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "songs_per_genre": dict(self.songs_per_genre),
            "songs_per_artist": dict(self.songs_per_artist),
            "annotation_length_histogram": {str(k): v for k, v in self.annotation_length_histogram.items()},
            "sample_length_histogram": {str(k): v for k, v in self.sample_length_histogram.items()},
            "word_frequencies_annotations": dict(self.word_frequencies_annotations),
            "word_frequencies_lyrics": dict(self.word_frequencies_lyrics),
        }


def _parse_record(obj: object) -> SongRecord:
    typed(obj, dict, "record")
    texts = {name: required(obj, name, "record", str) for name in ("song_id", "title", "artist", "lyrics")}
    if not texts["song_id"]:
        raise ValueError("record: field 'song_id': expected a non-empty string")
    genre = obj.get("genre")
    if genre is None:
        genre = "other"
    elif genre not in GENRES:
        raise ValueError(f"record: field 'genre': unknown genre {genre!r}")
    page_views = obj.get("page_views")
    if page_views is not None and typed(page_views, int, "record: field 'page_views'") < 0:
        raise ValueError("record: field 'page_views': expected a non-negative integer")
    fragments = []
    for i, frag in enumerate(required(obj, "fragments", "record", list)):
        at = f"fragments[{i}]"
        fields = (required(typed(frag, dict, at), name, at, str) for name in ("fragment", "annotation"))
        fragments.append(AnnotatedFragment(*fields))
    return SongRecord(genre=genre, page_views=page_views, fragments=fragments, **texts)


def load_corpus(path: str) -> LoadResult:
    """Read a JSONL corpus file, collecting per-line errors instead of dying.

    The first line must be the schema header; a missing or mismatched
    header raises :class:`CorpusError`. Malformed data lines, a line that is
    not UTF-8 included, are reported with their 1-based file line numbers
    alongside the records that did parse.
    """
    lines = jsonl_lines(path)
    try:
        number, header = next(lines, (0, None))  # number 0: the file holds no non-blank line
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    if number == 0:
        return LoadResult([], [])

    try:
        if number != 1 or isinstance(header, ValueError):
            raise header if number == 1 else ValueError("line 1 is blank")
        version = required(typed(header, dict, "line 1"), SCHEMA_KEY, "line 1")
    except ValueError as exc:
        raise CorpusError(f"invalid schema header: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise CorpusError(f"schema version mismatch: file declares {version}, expected {SCHEMA_VERSION}")

    records: list[SongRecord] = []
    errors: list[LoadError] = []
    seen_ids: set[str] = set()
    for line_number, value in lines:
        try:
            if isinstance(value, ValueError):
                raise value
            record = _parse_record(value)
        except ValueError as exc:
            errors.append(LoadError(line_number, str(exc)))
            continue
        if record.song_id in seen_ids:
            errors.append(LoadError(line_number, f"duplicate song_id {record.song_id!r}"))
            continue
        seen_ids.add(record.song_id)
        records.append(record)
    return LoadResult(records, errors)


def _normalize_ws(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def _strip_urls(text: str) -> str:
    return _URL_RE.sub("", text)


def _has_non_latin_letter(text: str) -> bool:
    # Every ASCII code point is below _MAX_LATIN, so most lyrics skip the scan.
    return not text.isascii() and any(ch.isalpha() and ord(ch) > _MAX_LATIN for ch in text)


def clean_record(record: SongRecord) -> Optional[SongRecord]:
    """Apply the cleaning rules to one record; None drops the song.

    A song is dropped when its lyrics contain any letter outside the
    Latin scripts (basic, Latin-1 supplement, Extended-A/B). Otherwise
    URLs are stripped from annotations, whitespace is normalized in
    fragments and annotations, fragments left with an empty field are
    dropped, and lyrics have line endings normalized and edges stripped.
    Total and idempotent: cleaning a cleaned record is a no-op.
    """
    if _has_non_latin_letter(record.lyrics):
        return None
    lyrics = record.lyrics.replace("\r\n", "\n").replace("\r", "\n").strip()
    if not lyrics:
        return None
    fragments = []
    for frag in record.fragments:
        fragment = _normalize_ws(frag.fragment)
        annotation = _normalize_ws(_strip_urls(frag.annotation))
        if fragment and annotation:
            fragments.append(AnnotatedFragment(fragment, annotation))
    return replace(record, lyrics=lyrics, fragments=fragments)


def clean_corpus(records: Iterable[SongRecord]) -> list[SongRecord]:
    """clean_record over a list, dropping rejected songs."""
    cleaned = (clean_record(r) for r in records)
    return [r for r in cleaned if r is not None]


def flatten(records: list[SongRecord]) -> list[Sample]:
    """One Sample per (record, fragment) pair, in stable order."""
    samples = []
    for record in records:
        for i, frag in enumerate(record.fragments):
            samples.append(
                Sample(
                    sample_id=f"{record.song_id}#{i}",
                    song_id=record.song_id,
                    title=record.title,
                    artist=record.artist,
                    fragment=frag.fragment,
                    annotation=frag.annotation,
                )
            )
    return samples


def split(
    samples: list[Sample],
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Deterministic song-level train/validation/test split.

    Songs (not samples) are partitioned so no song straddles splits.
    Rule: distinct song_ids in first-appearance order are shuffled with
    SplitMix64(seed) Fisher-Yates, then cut at ``floor(r1*N)`` and
    ``floor((r1+r2)*N)``. Ratios must be finite and non-negative and sum
    to 1, the last two within a tolerance of 1e-9 for floating-point
    rounding.
    """
    if len(ratios) != 3:
        raise ValueError("exactly three split ratios are required")
    if not all(-1e-9 <= r < math.inf for r in ratios):  # NaN fails both bounds
        raise ValueError(f"split ratios must be finite and non-negative, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")

    song_ids: list[str] = []
    seen: set[str] = set()
    for sample in samples:
        if sample.song_id not in seen:
            seen.add(sample.song_id)
            song_ids.append(sample.song_id)
    rng = SplitMix64(seed)
    rng.shuffle(song_ids)

    n = len(song_ids)
    cut1 = int(ratios[0] * n)
    cut2 = int((ratios[0] + ratios[1]) * n)
    assignment: dict[str, int] = {}
    for i, song_id in enumerate(song_ids):
        assignment[song_id] = 0 if i < cut1 else (1 if i < cut2 else 2)

    parts: tuple[list[Sample], list[Sample], list[Sample]] = ([], [], [])
    for sample in samples:
        parts[assignment[sample.song_id]].append(sample)
    return parts


def compute_stats(records: list[SongRecord]) -> CorpusStats:
    """Exploration statistics over a cleaned corpus.

    Lengths are measured in whitespace tokens; word frequencies use
    :func:`lyricsense.metrics.tokenize_for_metrics`, the tokenizer the
    metrics score with.
    """
    genres: Counter[str] = Counter()
    artists: Counter[str] = Counter()
    annotation_lengths: Counter[int] = Counter()
    sample_lengths: Counter[int] = Counter()
    words_annotations: Counter[str] = Counter()
    words_lyrics: Counter[str] = Counter()
    for record in records:
        genres[record.genre or "other"] += 1
        artists[record.artist] += 1
        words_lyrics.update(tokenize_for_metrics(record.lyrics))
        for frag in record.fragments:
            annotation_lengths[len(frag.annotation.split())] += 1
            sample_lengths[len(frag.fragment.split())] += 1
            words_annotations.update(tokenize_for_metrics(frag.annotation))
    return CorpusStats(
        songs_per_genre=dict(sorted(genres.items())),
        songs_per_artist=dict(sorted(artists.items())),
        annotation_length_histogram=dict(sorted(annotation_lengths.items())),
        sample_length_histogram=dict(sorted(sample_lengths.items())),
        word_frequencies_annotations=dict(sorted(words_annotations.items())),
        word_frequencies_lyrics=dict(sorted(words_lyrics.items())),
    )


def write_corpus(path: str, records: Iterable[SongRecord]) -> None:
    """Write records in the JSONL corpus format (header line first)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({SCHEMA_KEY: SCHEMA_VERSION}) + "\n")
        for record in records:
            obj = {
                "song_id": record.song_id,
                "title": record.title,
                "artist": record.artist,
                "genre": record.genre,
                "lyrics": record.lyrics,
                "page_views": record.page_views,
                "fragments": [
                    {"fragment": f.fragment, "annotation": f.annotation} for f in record.fragments
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
