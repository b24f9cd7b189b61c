"""Seeded synthetic corpus for the ``grid_wide`` workload.

Writes a corpus in the lyricsense JSONL format (schema header, then one
song per line) whose words follow a Zipf law over a large lexicon of
pseudo-words, so that the reference model's default ``vocab_cap`` of 5000
binds. Only the written file reaches the program.

Run on its own: ``python3 bench/wide_corpus.py --seed 0 --out wide.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random

SONGS = 400
LEXICON = 40_000
ZIPF_S = 1.0
LINES_PER_SONG = 8
WORDS_PER_LINE = (5, 9)
FRAGMENTS_PER_SONG = 4
ANNOTATION_WORDS = (10, 20)
ARTISTS = 120
GENRES = ("pop", "rap", "rock", "country", "rnb", "other")

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "sh", "tr", "st")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "n", "r", "s", "t", "l", "m")


def _lexicon(rng: random.Random) -> list[str]:
    """LEXICON distinct lowercase ASCII pseudo-words in a seeded order."""
    syllables = [o + v + c for o, v, c in itertools.product(_ONSETS, _VOWELS, _CODAS)]
    words: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < LEXICON:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))
        if word not in words:
            words.add(word)
            ordered.append(word)
    return ordered


def generate(seed: int) -> list[dict]:
    """The song objects of the corpus for ``seed``."""
    rng = random.Random(seed)
    lexicon = _lexicon(rng)
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(LEXICON)))

    def words(lo_hi: tuple[int, int]) -> str:
        return " ".join(rng.choices(lexicon, cum_weights=cum_weights, k=rng.randint(*lo_hi)))

    artists = [f"{words((1, 1)).title()} {words((1, 1)).title()}" for _ in range(ARTISTS)]
    songs = []
    for index in range(SONGS):
        lines = [words(WORDS_PER_LINE) for _ in range(LINES_PER_SONG)]
        picked = rng.sample(range(LINES_PER_SONG), FRAGMENTS_PER_SONG)
        songs.append(
            {
                "song_id": f"wide-{index:05d}",
                "title": words((1, 3)).title(),
                "artist": rng.choice(artists),
                "genre": rng.choice(GENRES),
                "lyrics": "\n".join(lines),
                "page_views": rng.randint(100, 1_000_000),
                "fragments": [
                    {"fragment": lines[i], "annotation": words(ANNOTATION_WORDS).capitalize() + "."}
                    for i in sorted(picked)
                ],
            }
        )
    return songs


def write(seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"trbll_schema": 1}) + "\n")
        for song in generate(seed):
            fh.write(json.dumps(song, ensure_ascii=False, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(args.seed, args.out)


if __name__ == "__main__":
    main()
