"""Correctness checks on the reports of a benchmark run.

The metric values of every row are recomputed by a separate
implementation of the formulas documented in ``lyricsense.metrics``; the
model vocabulary is rebuilt from the documented fitting rule (or read
from the saved model file); the other checks are properties the grid
must have: full cardinality without failures, bounded prediction length,
no repeated n-gram in beam output, and byte-identical passes. Every
check returns a list of messages, empty when it holds.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

from lyricsense.corpus import clean_corpus, flatten, load_corpus, split
from lyricsense.harness import ExperimentGrid, training_texts
from lyricsense.prompts import render

TOLERANCE = 1e-12
MAX_MESSAGES = 5
# The reference model's documented tokens: lowercased words with inner
# apostrophes, or single punctuation marks; three reserved markers first.
_LM_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")
_RESERVED = ("<bos>", "<eos>", "<unk>")


def _words(text: str) -> list[str]:
    """Whitespace words, lowercased, cut to their first..last alphanumeric."""
    out = []
    for raw in text.lower().split():
        alnum = [i for i, ch in enumerate(raw) if ch.isalnum()]
        if alnum:
            out.append(raw[alnum[0] : alnum[-1] + 1])
    return out


def _rouge1(pred: Counter, ref: Counter) -> float:
    n_pred, n_ref = sum(pred.values()), sum(ref.values())
    if n_pred == 0 and n_ref == 0:
        return 1.0
    overlap = sum((pred & ref).values())
    if overlap == 0:
        return 0.0
    # F1 = 2PR/(P+R) with P = overlap/n_pred and R = overlap/n_ref.
    return 2 * overlap / (n_pred + n_ref)


def _cosine(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 0.0
    dot = sum(a[w] * b[w] for w in a.keys() & b.keys())
    norms = sum(c * c for c in a.values()) * sum(c * c for c in b.values())
    return min(1.0, dot / math.sqrt(norms))


def expected_scores(prediction: str, annotation: str, lyrics: str, weights) -> dict[str, float]:
    pred, ann, lyr = Counter(_words(prediction)), Counter(_words(annotation)), Counter(_words(lyrics))
    rouge = _rouge1(pred, ann)
    cos_pa = _cosine(pred, ann)
    cos_pl = _cosine(pred, lyr)
    raw = weights.alpha1 * rouge + weights.alpha2 * cos_pa - weights.alpha3 * cos_pl
    return {
        "rouge1": rouge,
        "cos_pred_annotation": cos_pa,
        "cos_pred_lyrics": cos_pl,
        "total_score": max(0.0, raw) / (weights.alpha1 + weights.alpha2),
    }


def ngram_vocabulary(texts: list[str], cap: int) -> list[str]:
    """Reserved markers, then the ``cap`` most frequent tokens (ties alphabetical)."""
    freq = Counter(tok for text in texts for tok in _LM_TOKEN_RE.findall(text.lower()))
    kept = sorted(freq.items(), key=lambda item: (-item[1], item[0]))[:cap]
    return [*_RESERVED, *(tok for tok, _ in kept)]


def _repeats_ngram(seq: list[int], start: int, n: int) -> bool:
    """True when an n-gram ending at an index >= start occurred earlier in seq."""
    seen = set()
    for end in range(n, len(seq) + 1):
        gram = tuple(seq[end - n : end])
        if end - 1 >= start and gram in seen:
            return True
        seen.add(gram)
    return False


class GridContext:
    """What the checks need to know about one grid on one corpus."""

    def __init__(self, grid_dict: dict, corpus_path: str, model_files: dict[str, str]) -> None:
        self.grid = ExperimentGrid.from_dict(grid_dict)
        records = clean_corpus(load_corpus(corpus_path).records)
        samples = flatten(records)
        train, _validation, test = split(samples, self.grid.split_ratios, self.grid.seed)
        self.lyrics = {r.song_id: r.lyrics for r in records}
        views = {r.song_id: r.page_views or 0 for r in records}
        # Documented pick: highest page views first, corpus order on ties.
        ranked = sorted(range(len(test)), key=lambda i: (-views[test[i].song_id], i))
        self.eval_samples = {test[i].sample_id: test[i] for i in ranked[: self.grid.eval_count]}
        self.vocab: dict[str, list[str]] = {}
        texts = None
        for spec in self.grid.models:
            if spec.kind == "ngram":
                texts = texts if texts is not None else training_texts(train)
                self.vocab[spec.model_id] = ngram_vocabulary(texts, spec.vocab_cap)
            else:
                with open(model_files[spec.model_id], encoding="utf-8") as fh:
                    self.vocab[spec.model_id] = json.load(fh)["tokens"]
        self.decoders = dict(self.grid.decoders)
        self.prompts = {p.spec_id: p for p in self.grid.prompts}

    def expected_keys(self) -> set[tuple[str, str, str, str]]:
        return {
            (m.model_id, p, d, s)
            for m in self.grid.models
            for p in self.prompts
            for d in self.decoders
            for s in self.eval_samples
        }


def check_passes(passes: list[dict], expected_rows: int) -> list[str]:
    errors = []
    for i, record in enumerate(passes):
        if record["rows"] != expected_rows or record["failures"]:
            errors.append(
                f"pass {i}: {record['rows']} rows and {record['failures']} failures, "
                f"expected {expected_rows} rows and none"
            )
    digests = {record["sha256"] for record in passes}
    if len(digests) != 1:
        errors.append(f"grid.jsonl differs between passes: {len(digests)} distinct SHA-256")
    return errors


def check_rows(ctx: GridContext, grid_jsonl: str) -> list[str]:
    with open(grid_jsonl, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh.read().splitlines()[1:]]
    errors = []
    keys = [(r.get("model"), r.get("prompt"), r.get("decoder"), r.get("sample")) for r in rows]
    if sorted(keys) != sorted(ctx.expected_keys()):
        errors.append(f"grid.jsonl rows {len(rows)} do not match the grid's {len(ctx.expected_keys())} combinations")
    index = {m: {tok: i for i, tok in enumerate(v)} for m, v in ctx.vocab.items()}
    for row in rows:
        if "error" in row or row.get("sample") not in ctx.eval_samples:
            errors.append(f"failed or unknown row: {json.dumps(row)[:200]}")
            continue
        where = f"{row['model']}/{row['prompt']}/{row['decoder']}/{row['sample']}"
        sample = ctx.eval_samples[row["sample"]]
        want = expected_scores(row["prediction"], sample.annotation, ctx.lyrics[sample.song_id], ctx.grid.weights)
        for field, value in want.items():
            if not abs(row[field] - value) <= TOLERANCE:
                errors.append(f"{where}: {field} is {row[field]!r}, recomputed {value!r}")
        cfg = ctx.decoders[row["decoder"]]
        tokens = row["prediction"].split()
        if len(tokens) > cfg.max_new_tokens:
            errors.append(f"{where}: {len(tokens)} tokens > max_new_tokens {cfg.max_new_tokens}")
        ids = index[row["model"]]
        unknown = [tok for tok in tokens if tok not in ids]
        if unknown:
            errors.append(f"{where}: tokens outside the model vocabulary: {unknown[:3]}")
            continue
        if cfg.strategy.value == "beam" and cfg.no_repeat_ngram_size > 0:
            prompt_text = render(ctx.prompts[row["prompt"]], sample).text
            unk = ids["<unk>"]
            prompt_ids = [ids.get(tok, unk) for tok in _LM_TOKEN_RE.findall(prompt_text.lower())]
            seq = prompt_ids + [ids[tok] for tok in tokens]
            if _repeats_ngram(seq, len(prompt_ids), cfg.no_repeat_ngram_size):
                errors.append(f"{where}: beam output repeats a {cfg.no_repeat_ngram_size}-gram")
    return errors[:MAX_MESSAGES] + ([f"... {len(errors) - MAX_MESSAGES} more"] if len(errors) > MAX_MESSAGES else [])


def check_same_rows(grid_jsonl: str, reference_jsonl: str) -> list[str]:
    """Rows of two grid.jsonl files equal byte for byte (provenance aside)."""
    with open(grid_jsonl, encoding="utf-8") as fh:
        got = fh.read().splitlines()[1:]
    with open(reference_jsonl, encoding="utf-8") as fh:
        want = fh.read().splitlines()[1:]
    if got == want:
        return []
    differing = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return [f"remote rows differ from the in-process rows of the same model file: {differing} lines"]
