import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
from collections import Counter
from itertools import product, takewhile

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lyricsense.corpus import Sample, clean_corpus, flatten, load_corpus, split, write_corpus
from lyricsense.decoding import DecodeConfig, Strategy, decode
from lyricsense import lm, wire
from lyricsense.harness import (
    CombinationMean,
    ExperimentGrid,
    GridResult,
    ModelSpec,
    default_grid,
    emit_report,
    rank_combinations,
    run_grid,
    training_parts,
    training_set,
    training_texts,
)
from lyricsense.lm import fit_ngram
from lyricsense.metrics import METRIC_FIELDS, MetricReport, TotalScoreWeights, evaluate
from lyricsense.prompts import PromptSpec, extract_generation, render, render_with_target
from lyricsense.rng import derive_seed


def small_grid(**overrides):
    base = {
        "models": [{"id": "m", "type": "ngram", "order": 2, "k": 0.1, "vocab_cap": 2000}],
        "prompts": ["lyrics_meaning"],
        "decoders": [{"id": "greedy", "strategy": "greedy", "max_new_tokens": 16}],
        "eval_samples": {"top_page_views": 3},
        "seed": 0,
    }
    base.update(overrides)
    return ExperimentGrid.from_dict(base)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid.models) == 3
    assert len(grid.prompts) == 7
    assert len(grid.decoders) == 5
    assert len(_combination_keys(grid)) == 105
    assert [d for d, _ in grid.decoders] == ["greedy", "beam", "sampling", "top_k", "top_p"]


def test_default_grid_decoders_carry_documented_hyperparameters():
    decoders = dict(ExperimentGrid().decoders)
    assert decoders["beam"].num_beams == 3
    assert decoders["beam"].no_repeat_ngram_size == 2
    assert decoders["beam"].early_stopping is True
    assert decoders["sampling"].temperature == 0.95
    assert decoders["top_k"].k == 50
    assert decoders["top_p"].p == 0.92


def test_grid_config_round_trip():
    grid = default_grid(seed=3)
    again = ExperimentGrid.from_dict(grid.to_dict())
    assert again == grid


@pytest.mark.parametrize(
    "config, where, unknown",
    [
        ({"seeds": 5}, "grid config", ["seeds"]),
        ({"prompt": ["none"], "seed": 1}, "grid config", ["prompt"]),
        ({"models": [{"id": "m", "oder": 3}]}, "models[0]", ["oder"]),
        ({"eval_samples": {"top_page_view": 3}}, "eval_samples", ["top_page_view"]),
    ],
)
def test_grid_config_rejects_unknown_keys(config, where, unknown):
    with pytest.raises(ValueError) as raised:
        ExperimentGrid.from_dict(config)
    assert str(raised.value) == f"{where}: unknown fields {unknown}"


def test_every_key_that_to_dict_writes_is_read_back():
    grid = ExperimentGrid(
        models=(ModelSpec("f", "ngram_file", path="m.json"), ModelSpec("r", "remote", endpoint="tcp://h:1")),
        eval_samples=("s1", "s2"),
        eval_count=2,
        weights=TotalScoreWeights(0.25, 0.5, 0.75),
        split_ratios=(0.7, 0.2, 0.1),
        seed=4,
    )
    assert ExperimentGrid.from_dict(grid.to_dict()) == grid


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="transformer")
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="remote")
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="ngram_file")
    with pytest.raises(ValueError, match="'id'"):
        ModelSpec.from_dict({"type": "ngram"})
    # k * |V| must stay finite for every |V| up to vocab_cap + 3.
    with pytest.raises(ValueError, match=r"^models\[1\]: ngram model needs .* a finite k \* \(vocab_cap \+ 3\)$"):
        small_grid(models=[{"id": "a"}, {"id": "b", "k": 1e308, "vocab_cap": 3}])
    with pytest.raises(ValueError, match="finite k"):
        ModelSpec(model_id="x", k=2.0, vocab_cap=10**400)
    assert ModelSpec(model_id="x", k=1e307, vocab_cap=3).k == 1e307
    assert ModelSpec(model_id="x", k=0.1, vocab_cap=10**400).vocab_cap == 10**400


def test_grid_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="model ids"):
        small_grid(models=[{"id": "m", "type": "ngram"}, {"id": "m", "type": "ngram", "order": 3}])
    with pytest.raises(ValueError, match="decoder ids"):
        small_grid(decoders=[{"strategy": "greedy"}, {"strategy": "greedy", "seed": 5}])
    with pytest.raises(ValueError, match="prompt"):
        small_grid(prompts=["none", "none"])
    with pytest.raises(ValueError, match="strategy"):
        small_grid(decoders=[{"seed": 3}])


def test_grid_rejects_duplicate_pinned_eval_samples():
    # One sample pinned twice would be two rows and count twice in every mean.
    with pytest.raises(ValueError, match=r"^eval_samples\[2\]: duplicate sample id 'ls-0003#0'$"):
        small_grid(eval_samples=["ls-0003#0", "ls-0003#1", "ls-0003#0"])
    with pytest.raises(ValueError, match=r"^eval_samples\[1\]: duplicate sample id"):
        ExperimentGrid(eval_samples=("a#0", "a#0"))


def test_single_cell_grid_equals_direct_composition(mini_corpus_path, tmp_path):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)
    train, _, test = split(samples, (0.8, 0.1, 0.1), seed=0)
    pinned = test[0].sample_id

    grid = small_grid(eval_samples=[pinned])
    result = run_grid(grid, mini_corpus_path, str(tmp_path / "out"))
    assert len(result.rows) == 1
    row = result.rows[0]

    # independent composition of the published pipeline pieces
    model = fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=2000)
    vocab = model.vocabulary()
    spec = PromptSpec.from_id("lyrics_meaning")
    rendered = render(spec, test[0])
    seed = derive_seed(0, "m", "lyrics_meaning", "greedy", pinned, "0")
    cfg = DecodeConfig(strategy=Strategy.GREEDY, max_new_tokens=16, seed=seed)
    generation = decode(model, vocab.encode_text(rendered.text), cfg)
    continuation = vocab.decode_text(generation.ids)
    full = rendered.text + (" " + continuation if continuation else "")
    prediction = extract_generation(full, rendered)
    lyrics = next(r.lyrics for r in records if r.song_id == test[0].song_id)
    report = evaluate(prediction, test[0].annotation, lyrics, TotalScoreWeights())

    assert row.prediction == prediction
    assert row.report == report
    assert result.means[0].mean == report  # single row: mean equals the row


def test_eval_samples_default_rule_is_page_views_then_corpus_order(mini_corpus_path, tmp_path):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)
    _, _, test = split(samples, (0.8, 0.1, 0.1), seed=0)
    views = {r.song_id: r.page_views or 0 for r in records}
    expected = [
        s.sample_id
        for _, s in sorted(enumerate(test), key=lambda kv: (-views[kv[1].song_id], kv[0]))
    ][:3]

    result = run_grid(small_grid(), mini_corpus_path, str(tmp_path / "out"))
    assert [row.sample_id for row in result.rows] == expected


def test_pinned_eval_sample_must_be_in_test_split(mini_corpus_path, tmp_path):
    grid = small_grid(eval_samples=["ls-0001#0"])  # a train-split song
    with pytest.raises(ValueError, match="test split"):
        run_grid(grid, mini_corpus_path, str(tmp_path / "out"))


def test_eval_sample_without_metadata_is_named_in_each_failure(mini_corpus_path, tmp_path):
    records = load_corpus(mini_corpus_path).records
    _train, _validation, test = split(flatten(clean_corpus(records)))
    sample_id, song_id = test[0].sample_id, test[0].song_id
    corpus = str(tmp_path / "blank_artist.jsonl")
    write_corpus(corpus, [dataclasses.replace(r, artist="") if r.song_id == song_id else r for r in records])
    grid = small_grid(prompts="all", eval_samples=[sample_id])
    result = run_grid(grid, corpus, str(tmp_path / "out"))
    with_metadata = [p.spec_id for p in grid.prompts if p.with_metadata]
    assert [f.prompt_id for f in result.failures] == with_metadata
    for failure in result.failures:
        assert (failure.error_type, failure.message) == (
            "PromptError", f"sample {sample_id!r}: prompt {failure.prompt_id!r} needs artist and title metadata"
        )
    assert len(result.rows) == len(grid.prompts) - len(with_metadata)


def test_grid_row_count_and_incremental_file(mini_corpus_path, tmp_path):
    grid = small_grid(prompts=["none", "lyrics_meaning"], decoders="all")
    out = tmp_path / "out"
    result = run_grid(grid, mini_corpus_path, str(out))
    assert len(result.means) == 1 * 2 * 5
    assert len(result.rows) == 1 * 2 * 5 * 3
    lines = (out / "grid.jsonl").read_text().strip().split("\n")
    assert len(lines) == 1 + len(result.rows)  # provenance + rows
    assert "provenance" in json.loads(lines[0])


def test_means_equal_recomputed_row_means(mini_corpus_path, tmp_path):
    grid = small_grid(decoders="all")
    result = run_grid(grid, mini_corpus_path, str(tmp_path / "out"))
    for mean in result.means:
        rows = [
            r.report
            for r in result.rows
            if (r.model_id, r.prompt_id, r.decoder_id) == (mean.model_id, mean.prompt_id, mean.decoder_id)
        ]
        assert mean.n_samples == len(rows)
        for field in ("rouge1", "cos_pred_annotation", "cos_pred_lyrics", "total_score"):
            recomputed = sum(getattr(r, field) for r in rows) / len(rows)
            assert getattr(mean.mean, field) == pytest.approx(recomputed, abs=1e-15)


def test_workers_do_not_change_output(mini_corpus_path, tmp_path):
    grid = small_grid(prompts=["none", "question_context"], decoders="all")
    a = run_grid(grid, mini_corpus_path, str(tmp_path / "a"), workers=1)
    b = run_grid(grid, mini_corpus_path, str(tmp_path / "b"), workers=4)
    assert a.rows == b.rows
    assert (tmp_path / "a" / "grid.jsonl").read_bytes() == (tmp_path / "b" / "grid.jsonl").read_bytes()


@pytest.mark.parametrize("budget_rows", [None, 3], ids=["real_budget", "three_rows"])
def test_default_grid_reports_match_golden_hashes(mini_corpus_path, tmp_path, monkeypatch, budget_rows):
    # The hashes pin the reports' bytes: a change that alters any output
    # byte must say why and update tests/data/default_grid.sha256. A budget
    # of three rows makes the row caches and decode memos evict all the time.
    golden = os.path.join(os.path.dirname(__file__), "data", "default_grid.sha256")
    with open(golden, encoding="ascii") as fh:
        expected = {name: digest for digest, name in map(str.split, fh)}
    fitted = []
    if budget_rows:
        import lyricsense.harness as harness

        monkeypatch.setattr(lm, "CACHE_BYTES", budget_rows * 8 * 794)  # |V| = 794 on the mini corpus

        def recording_fit(*args, **kwargs):
            fitted.append(fit_ngram(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(harness, "fit_ngram", recording_fit)
    emit_report(run_grid(default_grid(0), mini_corpus_path, str(tmp_path)), str(tmp_path))
    actual = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert sorted(expected) == ["grid.jsonl", "plotdata.json", "summary.csv"]
    assert actual == expected
    # Every cache filled up to the budget, or to its model's contexts (one for order 1).
    assert [len(model._cache) for model in fitted] == [min(budget_rows, len(model._runs)) for model in fitted]
    assert len(fitted) == (3 if budget_rows else 0)


def test_rank_combinations_orders_and_breaks_ties():
    def mean_with(total, model="m", prompt="p", decoder="d"):
        return CombinationMean(model, prompt, decoder, 1, MetricReport(0.0, 0.0, 0.0, total))

    single = GridResult(rows=[], means=[mean_with(0.5)], failures=[], provenance={})
    assert rank_combinations(single) == single.means

    means = [
        mean_with(0.2, model="b"),
        mean_with(0.9, model="c"),
        mean_with(0.2, model="a"),
    ]
    result = GridResult(rows=[], means=means, failures=[], provenance={})
    ranked = rank_combinations(result)
    assert [m.mean.total_score for m in ranked] == [0.9, 0.2, 0.2]
    assert [m.model_id for m in ranked] == ["c", "a", "b"]  # tie broken by key

    shuffled = GridResult(rows=[], means=list(reversed(means)), failures=[], provenance={})
    assert rank_combinations(shuffled) == ranked

    with pytest.raises(ValueError):
        rank_combinations(result, metric="vibes")


def test_emit_report_empty_result(tmp_path):
    result = GridResult(rows=[], means=[], failures=[], provenance={"seed": 0})
    paths = emit_report(result, str(tmp_path))
    csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# provenance:")
    assert csv_lines[1] == "model,prompt,decoder,n_samples,rouge1,cos_pred_annotation,cos_pred_lyrics,total_score,status"
    assert len(csv_lines) == 2
    assert paths == [str(tmp_path / "summary.csv"), str(tmp_path / "plotdata.json")]
    assert not (tmp_path / "grid.jsonl").exists()
    plot = json.loads((tmp_path / "plotdata.json").read_text())
    assert plot["total_score_by_prompt"] == {"mean": {}, "best": {}}


def test_emit_report_refuses_to_write_a_non_finite_score(tmp_path):
    mean = CombinationMean("m", "none", "greedy", 1, MetricReport(1.0, 1.0, 0.0, math.nan))
    result = GridResult(rows=[], means=[mean], failures=[], provenance={"seed": 0})
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(result, str(tmp_path))


def test_csv_numeric_cells_round_trip(mini_corpus_path, tmp_path):
    grid = small_grid(decoders="all")
    out = tmp_path / "out"
    result = run_grid(grid, mini_corpus_path, str(out))
    emit_report(result, str(out))
    with open(out / "summary.csv") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    assert len(data) == len(result.means)
    for cells, mean in zip(data, result.means):
        record = dict(zip(header, cells))
        for field in ("rouge1", "cos_pred_annotation", "cos_pred_lyrics", "total_score"):
            assert abs(float(record[field]) - getattr(mean.mean, field)) < 1e-9
        assert record["status"] == "ok"


def test_plotdata_contains_both_groupings(mini_corpus_path, tmp_path):
    grid = small_grid(prompts=["none", "lyrics_meaning"], decoders="all")
    out = tmp_path / "out"
    result = run_grid(grid, mini_corpus_path, str(out))
    emit_report(result, str(out))
    plot = json.loads((out / "plotdata.json").read_text())
    by_prompt = plot["total_score_by_prompt"]
    assert set(by_prompt["mean"]) == {"none", "lyrics_meaning"}
    assert set(by_prompt["best"]) == {"none", "lyrics_meaning"}
    for prompt_id in by_prompt["mean"]:
        values = [m.mean.total_score for m in result.means if m.prompt_id == prompt_id]
        assert by_prompt["mean"][prompt_id] == pytest.approx(sum(values) / len(values))
        assert by_prompt["best"][prompt_id] == pytest.approx(max(values))
    assert set(plot["total_score_by_decoder"]["mean"]) == {d for d, _ in grid.decoders}


def test_unreachable_remote_recorded_as_failure(mini_corpus_path, tmp_path):
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    grid = small_grid(
        models=[
            {"id": "good", "type": "ngram", "order": 1},
            {"id": "gone", "type": "remote", "endpoint": f"127.0.0.1:{free_port}"},
        ]
    )
    out = tmp_path / "out"
    result = run_grid(grid, mini_corpus_path, str(out))
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.model_id == "gone"
    assert failure.error_type == "TransportError"
    assert len(result.rows) == 3  # the good model still ran
    emit_report(result, str(out))
    lines = (out / "grid.jsonl").read_text().splitlines()
    markers = [json.loads(line) for line in lines[1:] if "error" in json.loads(line)]
    assert len(markers) == 1 and markers[0]["model"] == "gone"
    summary = (out / "summary.csv").read_text()
    assert "TransportError" in summary


def test_failed_connect_is_remembered_for_the_rest_of_the_grid(mini_corpus_path, tmp_path, monkeypatch):
    import socket

    import lyricsense.harness as harness
    from lyricsense.wire import RemoteLM

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    attempts = []

    class CountingRemoteLM(RemoteLM):
        def __init__(self, endpoint):
            attempts.append(endpoint)
            super().__init__(endpoint)

    monkeypatch.setattr(harness, "RemoteLM", CountingRemoteLM)
    grid = small_grid(
        models=[{"id": "gone", "type": "remote", "endpoint": f"127.0.0.1:{free_port}"}],
        prompts=["lyrics_meaning", "none"],
        decoders="all",
    )
    result = run_grid(grid, mini_corpus_path, str(tmp_path))
    assert len(_combination_keys(grid)) == 10
    assert len(attempts) == 1
    assert not result.rows and len(result.failures) == 10
    assert {(f.error_type, f.message) for f in result.failures} == {
        ("TransportError", result.failures[0].message)
    }
    assert "cannot connect" in result.failures[0].message


class _FailsAfter:
    """Wraps a model; every ``next`` call after the first ``calls`` raises."""

    def __init__(self, model, calls):
        self._model = model
        self._calls = calls

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        self._calls -= 1
        if self._calls < 0:
            raise ValueError("distribution has no finite entries")
        return self._model.next(context)


def test_model_value_error_recorded_as_failure_and_grid_continues(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness

    models = [{"id": "good", "type": "ngram", "order": 2}, {"id": "flaky", "type": "ngram", "order": 3}]
    decoders = [
        {"id": "greedy", "strategy": "greedy", "max_new_tokens": 8},
        {"id": "top_k", "strategy": "top_k", "k": 5, "max_new_tokens": 8, "seed": 1},
    ]
    prompts = ["lyrics_meaning", "none"]
    alone = run_grid(small_grid(models=models[:1], decoders=decoders, prompts=prompts), mini_corpus_path, str(tmp_path / "alone"))

    real_fit = harness.fit_ngram

    def fit(texts, order, **kwargs):
        model = real_fit(texts, order, **kwargs)
        return _FailsAfter(model, 30) if order == 3 else model

    monkeypatch.setattr(harness, "fit_ngram", fit)
    out = tmp_path / "mixed"
    result = run_grid(small_grid(models=models, decoders=decoders, prompts=prompts), mini_corpus_path, str(out))
    assert result.failures
    assert all(f.model_id == "flaky" and f.error_type == "ValueError" for f in result.failures)
    assert "no finite entries" in result.failures[-1].message
    assert [r for r in result.rows if r.model_id == "good"] == alone.rows
    lines = (out / "grid.jsonl").read_text().splitlines()[1:]
    good_lines = [line for line in lines if json.loads(line).get("model") == "good"]
    assert good_lines == (tmp_path / "alone" / "grid.jsonl").read_text().splitlines()[1:]
    assert len(lines) == len(result.rows) + len(result.failures)


class _PoisonedRows:
    """Wraps a model; every row it answers holds ``value`` (NaN or +inf) in the middle."""

    def __init__(self, model, value):
        self._model = model
        self._value = value

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        row = self._model.next(context).copy()
        row[len(row) // 2] = self._value
        return row


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_row_holding_nan_or_inf_recorded_as_failure_for_every_decoder(mini_corpus_path, tmp_path, monkeypatch, value):
    import lyricsense.harness as harness

    models = [{"id": "good", "type": "ngram", "order": 2}, {"id": "poisoned", "type": "ngram", "order": 3}]
    decoders = [{"id": s.value, "strategy": s.value, "max_new_tokens": 6, "seed": 1} for s in Strategy]
    alone = run_grid(small_grid(models=models[:1], decoders=decoders), mini_corpus_path, str(tmp_path / "alone"))

    real_fit = harness.fit_ngram

    def fit(texts, order, **kwargs):
        model = real_fit(texts, order, **kwargs)
        return _PoisonedRows(model, value) if order == 3 else model

    monkeypatch.setattr(harness, "fit_ngram", fit)
    result = run_grid(small_grid(models=models, decoders=decoders), mini_corpus_path, str(tmp_path / "mixed"))
    assert [r for r in result.rows if r.model_id == "good"] == alone.rows
    assert not [r for r in result.rows if r.model_id == "poisoned"]
    assert {f.decoder_id for f in result.failures} == {s.value for s in Strategy}
    assert {(f.model_id, f.error_type, f.message) for f in result.failures} == {
        ("poisoned", "ValueError", "distribution holds NaN or +inf")
    }


def test_training_texts_cover_all_variants(mini_corpus_path):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)[:2]
    texts = training_texts(samples)
    assert len(texts) == 2 * 7
    assert texts == [render_with_target(spec, sample) for sample in samples for spec in PromptSpec.all_variants()]
    assert any(t.startswith("lyrics: ") for t in texts)
    assert any(t.startswith("question: ") for t in texts)


# Characters where splitting a text at a field's edge could go wrong: a
# capital sigma lowercases by context, an apostrophe or underscore can
# join words, and a combining mark is no \w character though it may
# follow one. Artist and title may be whitespace only.
_field_text = st.text(alphabet="aZ9_'\u0301 \tΣσς.,\"", max_size=8)
_samples = st.lists(
    st.tuples(_field_text.filter(bool), _field_text, _field_text.filter(bool), _field_text.filter(bool)),
    min_size=1, max_size=4,
).map(lambda drawn: [
    Sample(f"s{i}#0", f"s{i}", title, artist, fragment, annotation)
    for i, (fragment, annotation, artist, title) in enumerate(drawn)
])


@given(samples=_samples, vocab_cap=st.integers(3, 12))
@example(samples=[Sample("s0#0", "s0", "ΑΣ'", "'ΣΑΣ", "ΟΔΟΣ", "ΣΑΣ")], vocab_cap=12)  # a final sigma at every edge
@settings(max_examples=150)
def test_fit_from_parts_equals_fit_from_rendered_texts(samples, vocab_cap):
    parts, texts = lm.TrainingTexts(training_parts(samples)), lm.TrainingTexts(training_texts(samples))
    assert len(parts) == len(texts) == 7 * len(samples)
    parts_vocab, parts_ids, parts_lengths = parts.encoded(vocab_cap)
    texts_vocab, texts_ids, texts_lengths = texts.encoded(vocab_cap)
    assert parts_vocab == texts_vocab
    assert parts_ids.tolist() == texts_ids.tolist()
    assert parts_lengths.tolist() == texts_lengths.tolist()
    for order in (1, 2, 3):
        assert (fit_ngram(parts, order, vocab_cap=vocab_cap).to_dict()
                == fit_ngram(texts, order, vocab_cap=vocab_cap).to_dict())


def _assert_fits_as_rendered_texts(samples, vocab_caps):
    """``training_set(samples)`` encodes and fits orders 1-3 as the rendered texts do, one text per (sample, variant)."""
    rendered = [render_with_target(spec, sample) for sample in samples for spec in PromptSpec.all_variants()]
    assert training_texts(samples) == rendered
    table, texts = training_set(samples), lm.TrainingTexts(training_texts(samples))
    assert len(table) == len(texts) == 7 * len(samples)
    for vocab_cap in vocab_caps:
        table_vocab, table_ids, table_lengths = table.encoded(vocab_cap)
        texts_vocab, texts_ids, texts_lengths = texts.encoded(vocab_cap)
        assert table_vocab == texts_vocab
        assert table_ids.tolist() == texts_ids.tolist()
        assert table_lengths.tolist() == texts_lengths.tolist()
        for order in (1, 2, 3):
            assert (fit_ngram(table, order, vocab_cap=vocab_cap).to_dict()
                    == fit_ngram(texts, order, vocab_cap=vocab_cap).to_dict())


@given(samples=_samples, vocab_cap=st.integers(3, 12))
@settings(max_examples=100)
def test_training_set_fits_as_the_rendered_texts(samples, vocab_cap):
    _assert_fits_as_rendered_texts(samples, [vocab_cap])


def test_grid_and_fit_lm_fit_from_the_training_set(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.cli as cli
    import lyricsense.harness as harness

    _assert_fits_as_rendered_texts(_MINI_TRAIN, [lm.VOCAB_CAP, 100])
    # Each fit is handed one table of 7 texts per train sample: bench/tracing.py reads its len() as lm.fit_texts.
    fitted = []

    def recording_fit(texts, *args, **kwargs):
        fitted.append((type(texts), len(texts)))
        return fit_ngram(texts, *args, **kwargs)

    monkeypatch.setattr(harness, "fit_ngram", recording_fit)
    monkeypatch.setattr(cli, "fit_ngram", recording_fit)
    models = [{"id": f"ngram{n}", "type": "ngram", "order": n} for n in (1, 2, 3)]
    run_grid(small_grid(models=models), mini_corpus_path, str(tmp_path / "grid"))
    assert cli.cli_main(["fit-lm", "--corpus", mini_corpus_path, "--out", str(tmp_path / "lm.json")]) == 0
    assert fitted == [(lm.TrainingTexts, 7 * len(_MINI_TRAIN))] * 4


def test_grid_fits_from_parts_tokenizing_each_distinct_part_once(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness
    import lyricsense.prompts as prompts

    renders, tokenized = [], []
    real_tokenize = lm.tokenize_lm

    def counting_render(spec, sample):
        renders.append(sample.sample_id)
        return prompts.render_with_target(spec, sample)

    def counting_tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    monkeypatch.setattr(harness, "render_with_target", counting_render)
    monkeypatch.setattr(lm, "tokenize_lm", counting_tokenize)
    models = [{"id": f"ngram{n}", "type": "ngram", "order": n} for n in (1, 2, 3)]
    grid = small_grid(models=models)  # its one prompt, lyrics_meaning, is no training part
    run_grid(grid, mini_corpus_path, str(tmp_path))
    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _validation, _test = split(samples, grid.split_ratios, grid.seed)
    parts = {part for text in training_parts(train) for part in text}
    assert renders == []
    assert Counter(text for text in tokenized if text in parts) == Counter(parts)


def test_memo_per_ngram_combination_none_for_remote(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness
    from lyricsense.lm import NGramModel
    from lyricsense.wire import LMServer

    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _, _ = split(samples, (0.8, 0.1, 0.1), seed=0)
    served = fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=400)
    server = LMServer(served)
    server.start_background()

    next_calls = []
    real_next = NGramModel.next

    def counting_next(self, context):
        next_calls.append(1)
        return real_next(self, context)

    monkeypatch.setattr(NGramModel, "next", counting_next)
    real_decode_many = harness.decode_many
    seen = []  # holding each memo keeps its id() from being reused

    def recording_decode_many(model, prompts, cfgs, memo=None):
        seen.append((isinstance(model, NGramModel), len(prompts), memo))
        return real_decode_many(model, prompts, cfgs, memo=memo)

    def memoless_decode_many(model, prompts, cfgs, memo=None):
        return real_decode_many(model, prompts, cfgs, memo=None)

    grid = small_grid(
        models=[
            {"id": "local", "type": "ngram", "order": 2},
            {"id": "remote", "type": "remote", "endpoint": server.endpoint},
        ],
        prompts=["lyrics_meaning", "none"],
        decoders="all",
    )
    try:
        monkeypatch.setattr(harness, "decode_many", recording_decode_many)
        with_memo = run_grid(grid, mini_corpus_path, str(tmp_path / "memo"))
        calls_with_memo = len(next_calls)
        next_calls.clear()
        monkeypatch.setattr(harness, "decode_many", memoless_decode_many)
        without = run_grid(grid, mini_corpus_path, str(tmp_path / "none"))
    finally:
        server.shutdown()
        server.server_close()

    assert not with_memo.failures and with_memo.rows == without.rows
    assert (tmp_path / "memo" / "grid.jsonl").read_bytes() == (tmp_path / "none" / "grid.jsonl").read_bytes()
    assert calls_with_memo == len(next_calls) > 0

    # One decode_many call per combination, over all of its rows.
    assert len(seen) == len(_combination_keys(grid))
    local_memos = []
    for is_local, n_rows, memo in seen:
        assert n_rows == 3  # eval samples
        if is_local:
            assert isinstance(memo, dict)
            local_memos.append(memo)
        else:
            assert memo is None
    assert len(local_memos) == len(grid.prompts) * len(grid.decoders)
    # Decoder-major: each decoder's prompts run one after another and share one memo.
    per_decoder = local_memos[:: len(grid.prompts)]
    assert all(memo is per_decoder[i // len(grid.prompts)] for i, memo in enumerate(local_memos)) and len(
        {id(memo) for memo in per_decoder}
    ) == len(grid.decoders)


def test_one_connection_per_remote_model_closed_before_run_grid_returns(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness
    from lyricsense.wire import LMServer, RemoteLM

    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _, _ = split(samples, (0.8, 0.1, 0.1), seed=0)
    server = LMServer(fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=400))
    server.start_background()
    opened, closed = [], []

    class RecordingRemoteLM(RemoteLM):
        def __init__(self, endpoint):
            super().__init__(endpoint)
            opened.append(self)

        def close(self):
            closed.append(self)
            super().close()

    monkeypatch.setattr(harness, "RemoteLM", RecordingRemoteLM)
    grid = small_grid(
        models=[{"id": f"remote{i}", "type": "remote", "endpoint": server.endpoint} for i in (1, 2)],
        prompts=["lyrics_meaning", "none"],
        decoders="all",
    )
    try:
        result = run_grid(grid, mini_corpus_path, str(tmp_path), workers=4)
    finally:
        server.shutdown()
        server.server_close()
    assert not result.failures and len(result.rows) == 2 * 2 * 5 * 3
    assert len(opened) == len(grid.models)
    assert sorted(map(id, closed)) == sorted(map(id, opened))


def test_each_model_is_released_before_the_next_one_decodes(mini_corpus_path, tmp_path, monkeypatch):
    import weakref

    import lyricsense.harness as harness

    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _, _ = split(samples, (0.8, 0.1, 0.1), seed=0)
    fitted = fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=400)
    fitted.save(str(tmp_path / "m.json"))
    server = wire.LMServer(fitted)
    server.start_background()
    opened, closed = [], []

    class RecordingRemoteLM(wire.RemoteLM):
        def __init__(self, endpoint):
            super().__init__(endpoint)
            self.index = len(opened)
            opened.append(self.index)

        def close(self):
            closed.append(self.index)
            super().close()

    seen = []  # a weak reference to each model, in the order they first decode
    real_decode_many = harness.decode_many

    def checking_decode_many(model, prompts, cfgs, memo=None):
        if not seen or seen[-1]() is not model:
            assert [ref() for ref in seen] == [None] * len(seen), "an earlier model is still alive"
            assert sorted(closed) == [i for i in opened if i != getattr(model, "index", None)]
            seen.append(weakref.ref(model))
        return real_decode_many(model, prompts, cfgs, memo=memo)

    monkeypatch.setattr(harness, "RemoteLM", RecordingRemoteLM)
    monkeypatch.setattr(harness, "decode_many", checking_decode_many)
    grid = small_grid(
        models=[
            {"id": "fit", "type": "ngram", "order": 2},
            {"id": "remote", "type": "remote", "endpoint": server.endpoint},
            {"id": "file", "type": "ngram_file", "path": str(tmp_path / "m.json")},
        ],
        prompts=["lyrics_meaning", "none"],
        decoders=[{"strategy": "greedy", "max_new_tokens": 8}, {"strategy": "top_p", "max_new_tokens": 8}],
    )
    try:
        result = run_grid(grid, mini_corpus_path, str(tmp_path / "out"))
    finally:
        server.shutdown()
        server.server_close()
    assert not result.failures and len(result.rows) == 3 * 2 * 2 * 3
    assert len(seen) == 3 and [ref() for ref in seen] == [None] * 3
    assert opened == closed == [0]


def test_each_model_is_dropped_before_the_next_one_is_fit(mini_corpus_path, tmp_path, monkeypatch):
    import weakref

    import lyricsense.harness as harness

    real_fit = harness.fit_ngram
    fitted = []  # a weak reference to each model fit
    alive = []  # at each fit, which of the models fit before it are still alive

    def fit(texts, order, **kwargs):
        alive.append([ref() is not None for ref in fitted])
        model = real_fit(texts, order, **kwargs)
        fitted.append(weakref.ref(model))
        return model

    monkeypatch.setattr(harness, "fit_ngram", fit)
    grid = small_grid(
        models=[{"id": f"ngram{n}", "type": "ngram", "order": n} for n in (1, 2, 3)],
        decoders=[{"strategy": "greedy", "max_new_tokens": 4}, {"strategy": "top_p", "max_new_tokens": 4}],
    )
    result = run_grid(grid, mini_corpus_path, str(tmp_path))
    assert not result.failures and len(result.rows) == 3 * 2 * 3
    assert alive == [[], [False], [False, False]]
    assert [ref() for ref in fitted] == [None] * 3


def test_a_model_that_cannot_be_loaded_raises_at_its_own_turn(mini_corpus_path, tmp_path):
    first = [{"id": "fit", "type": "ngram", "order": 2}]
    missing = {"id": "file", "type": "ngram_file", "path": str(tmp_path / "missing.json")}
    run_grid(small_grid(models=first, decoders="all"), mini_corpus_path, str(tmp_path / "first"))
    with pytest.raises(FileNotFoundError, match="missing.json"):
        run_grid(small_grid(models=first + [missing], decoders="all"), mini_corpus_path, str(tmp_path / "both"))
    # Every row of the model before it is written; the provenance lines differ by the config hash.
    first_lines = (tmp_path / "first" / "grid.jsonl").read_text().splitlines()
    both_lines = (tmp_path / "both" / "grid.jsonl").read_text().splitlines()
    assert len(first_lines) == 1 + 5 * 3 and both_lines[1:] == first_lines[1:]


# ------------------------------------------------------- lockstep over the wire

@pytest.fixture(scope="module")
def served_model(mini_corpus_path):
    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _, _ = split(samples, (0.8, 0.1, 0.1), seed=0)
    return fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=400)


@contextlib.contextmanager
def _serving(model):
    server = wire.LMServer(model)
    server.start_background()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _remote(server):
    return [{"id": "remote", "type": "remote", "endpoint": server.endpoint}]


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_lockstep_combination_sends_one_frame_per_step(mini_corpus_path, tmp_path, monkeypatch, served_model, strategy):
    frames = []  # contexts per next_batch frame, counted by the server
    real_reply = wire._dists_reply

    def recording_reply(model, vocab, ctxs):
        frames.append(len(ctxs))
        return real_reply(model, vocab, ctxs)

    monkeypatch.setattr(wire, "_dists_reply", recording_reply)
    max_new_tokens = 24
    with _serving(served_model) as server:
        grid = small_grid(
            models=_remote(server),
            decoders=[{"strategy": strategy, "max_new_tokens": max_new_tokens}],
            eval_samples={"top_page_views": 10},
        )
        result = run_grid(grid, mini_corpus_path, str(tmp_path))
    assert not result.failures and len(result.rows) == 10
    assert frames[0] == 10  # every row's first context travels in the first frame
    assert len(frames) <= max_new_tokens
    assert max(frames) <= (10 * 3 if strategy == "beam" else 10)  # 3 beams per row


class _LinesThenEOF:
    """A request stream that ends after ``lines`` lines, as a cut connection does."""

    def __init__(self, stream, lines):
        self._stream = stream
        self._lines = lines

    def readline(self, size=-1):
        if self._lines == 0:
            return b""
        self._lines -= 1
        return self._stream.readline(size)

    def read(self, size=-1):
        return self._stream.read(size)


def test_dropped_connection_is_retried_with_the_same_rows(mini_corpus_path, tmp_path, monkeypatch, served_model):
    real_session = wire.serve_session
    sessions = []

    def first_session_cut(model, reader, writer, lock):
        sessions.append(reader)
        real_session(model, _LinesThenEOF(reader, 40) if len(sessions) == 1 else reader, writer, lock)

    with _serving(served_model) as server:
        grid = small_grid(models=_remote(server), prompts=["lyrics_meaning", "none"], decoders="all")
        monkeypatch.setattr(wire, "serve_session", first_session_cut)
        cut = run_grid(grid, mini_corpus_path, str(tmp_path / "cut"))
        monkeypatch.setattr(wire, "serve_session", real_session)
        whole = run_grid(grid, mini_corpus_path, str(tmp_path / "whole"))
    assert len(sessions) == 2  # the cut session and the one its retry opened
    assert not cut.failures and len(cut.rows) == len(_combination_keys(grid)) * 3
    assert (tmp_path / "cut" / "grid.jsonl").read_bytes() == (tmp_path / "whole" / "grid.jsonl").read_bytes()


class _Refuses:
    """Wraps a model; ``next`` raises ``ValueError`` for every context that starts with ``prefix``."""

    def __init__(self, model, prefix):
        self._model = model
        self._prefix = prefix

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        if list(context[: len(self._prefix)]) == self._prefix:
            raise ValueError("refused context")
        return self._model.next(context)


def test_value_error_of_one_row_in_a_lockstep_batch_fails_only_its_combination(
    mini_corpus_path, tmp_path, served_model
):
    prompts = ["question_context", "lyrics_meaning"]
    decoders = [{"id": "greedy", "strategy": "greedy", "max_new_tokens": 8}]
    with _serving(served_model) as server:
        whole = run_grid(small_grid(models=_remote(server), prompts=prompts, decoders=decoders), mini_corpus_path, str(tmp_path / "whole"))
    samples = {s.sample_id: s for s in flatten(clean_corpus(load_corpus(mini_corpus_path).records))}
    middle_row = samples[whole.rows[1].sample_id]  # neither first nor last in its batch
    prefix = served_model.vocabulary().encode_text(render(PromptSpec.from_id(prompts[0]), middle_row).text)
    with _serving(_Refuses(served_model, prefix)) as server:
        result = run_grid(small_grid(models=_remote(server), prompts=prompts, decoders=decoders), mini_corpus_path, str(tmp_path / "bad"))
    assert [(f.prompt_id, f.error_type) for f in result.failures] == [(prompts[0], "ServerReported")]
    assert "bad_context" in result.failures[0].message and "ctxs[1]" in result.failures[0].message
    assert result.rows == [row for row in whole.rows if row.prompt_id == prompts[1]]


# ---------------------------------------------------------- decoder-major schedule

def _combination_keys(grid):
    return list(product((m.model_id for m in grid.models), (p.spec_id for p in grid.prompts), (d for d, _ in grid.decoders)))


def _line_key(line):
    obj = json.loads(line)
    return obj["model"], obj["prompt"], obj["decoder"]


def test_failed_middle_combinations_keep_combination_order(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness

    decoders = [
        {"id": "greedy", "strategy": "greedy", "max_new_tokens": 8},
        {"id": "top_p", "strategy": "top_p", "max_new_tokens": 8, "seed": 2},
    ]
    grid = small_grid(prompts=["lyrics_meaning", "question_context", "none"], decoders=decoders)
    whole = run_grid(grid, mini_corpus_path, str(tmp_path / "whole"))
    real_fit = harness.fit_ngram

    def fit(texts, order, **kwargs):
        model = real_fit(texts, order, **kwargs)
        return _Refuses(model, model.vocabulary().encode_text("question: what is the meaning of this song?"))

    monkeypatch.setattr(harness, "fit_ngram", fit)
    out = tmp_path / "bad"
    result = run_grid(grid, mini_corpus_path, str(out))
    emit_report(result, str(out))

    keys = _combination_keys(grid)
    failed = [key for key in keys if key[1] == "question_context"]
    assert [(f.model_id, f.prompt_id, f.decoder_id) for f in result.failures] == failed
    assert all(f.error_type == "ValueError" and f.message == "refused context" for f in result.failures)
    assert result.rows == [row for row in whole.rows if row.prompt_id != "question_context"]
    assert [(m.model_id, m.prompt_id, m.decoder_id) for m in result.means] == [k for k in keys if k not in failed]
    lines = (out / "grid.jsonl").read_text().splitlines()[1:]
    line_keys = [_line_key(line) for line in lines]
    # Every combination appears, its lines together, in combination order.
    assert list(dict.fromkeys(line_keys)) == keys
    assert sorted(line_keys, key=keys.index) == line_keys
    with open(out / "summary.csv", newline="") as fh:
        summary = [tuple(row[:3]) for row in csv.reader(line for line in fh if not line.startswith("#"))][1:]
    assert summary == [k for k in keys if k not in failed] + failed


@pytest.mark.parametrize("interrupted_call", [1, 2, 3, 4, 6, 7, 8])
def test_interrupt_leaves_the_completed_canonical_prefix(mini_corpus_path, tmp_path, monkeypatch, interrupted_call):
    import lyricsense.harness as harness

    grid = small_grid(
        models=[{"id": "a", "type": "ngram", "order": 1}, {"id": "b", "type": "ngram", "order": 2}],
        prompts=["lyrics_meaning", "none"],
        decoders=[
            {"id": "greedy", "strategy": "greedy", "max_new_tokens": 6},
            {"id": "sampling", "strategy": "sampling", "max_new_tokens": 6},
        ],
    )
    run_grid(grid, mini_corpus_path, str(tmp_path / "whole"))
    whole = (tmp_path / "whole" / "grid.jsonl").read_text().splitlines()
    real_run_combination = harness._run_combination
    calls = []

    def interrupting(models, model_spec, prompt_spec, decoder_id, *args):
        calls.append((model_spec.model_id, prompt_spec.spec_id, decoder_id))
        if len(calls) == interrupted_call:
            raise KeyboardInterrupt
        return real_run_combination(models, model_spec, prompt_spec, decoder_id, *args)

    monkeypatch.setattr(harness, "_run_combination", interrupting)
    with pytest.raises(KeyboardInterrupt):
        run_grid(grid, mini_corpus_path, str(tmp_path / "cut"))

    keys = _combination_keys(grid)
    # Decoder-major within each model: every prompt of a decoder before the next decoder.
    assert calls == [(m, p, d) for m in ("a", "b") for d in ("greedy", "sampling") for p in ("lyrics_meaning", "none")][:interrupted_call]
    completed = set(calls[:-1])
    prefix = set(takewhile(completed.__contains__, keys))
    assert len(prefix) >= len(completed) - len(grid.prompts) * len(grid.decoders)  # at most one model's combinations lost
    expected = whole[:1] + [line for line in whole[1:] if _line_key(line) in prefix]
    assert (tmp_path / "cut" / "grid.jsonl").read_text().splitlines() == expected


@pytest.mark.parametrize("fault", ["missing_model_file", "interrupt"])
def test_a_rerun_that_stops_early_leaves_no_report_of_the_earlier_run(mini_corpus_path, tmp_path, monkeypatch, fault):
    import lyricsense.harness as harness

    out = tmp_path / "out"
    emit_report(run_grid(small_grid(), mini_corpus_path, str(out)), str(out))
    models = [{"id": "m", "type": "ngram", "order": 2}]
    prompts = ["lyrics_meaning", "none"]
    if fault == "missing_model_file":
        models.append({"id": "f", "type": "ngram_file", "path": str(tmp_path / "missing.json")})
        stop = OSError
    else:
        calls = []

        def interrupting(*args):
            calls.append(args)
            if len(calls) == 5:  # a row of the second combination
                raise KeyboardInterrupt
            return evaluate(*args)

        monkeypatch.setattr(harness, "evaluate", interrupting)
        stop = KeyboardInterrupt
    with pytest.raises(stop):
        run_grid(small_grid(models=models, prompts=prompts, seed=5), mini_corpus_path, str(out))

    provenance = json.loads((out / "grid.jsonl").read_text().splitlines()[0])["provenance"]
    assert provenance["seed"] == 5
    if (out / "summary.csv").exists():
        first_line = (out / "summary.csv").read_text().splitlines()[0]
        assert json.loads(first_line.removeprefix("# provenance: "))["provenance"] == provenance
    if (out / "plotdata.json").exists():
        assert json.loads((out / "plotdata.json").read_text())["provenance"] == provenance


def test_each_array_is_derived_once_per_model_and_decoder(mini_corpus_path, tmp_path, monkeypatch):
    from lyricsense import decoding

    real_cdf = decoding._sampling_cdf
    derived = []  # holding each array keeps its id() from being reused

    def spy(log_probs, *params):
        derived.append((log_probs, params))
        return real_cdf(log_probs, *params)

    monkeypatch.setattr(decoding, "_sampling_cdf", spy)
    grid = small_grid(
        models=[{"id": "a", "type": "ngram", "order": 1}, {"id": "b", "type": "ngram", "order": 2}],
        prompts=["lyrics_meaning", "question_context"],
        decoders=[
            {"id": "sampling", "strategy": "sampling", "max_new_tokens": 16},
            {"id": "top_k", "strategy": "top_k", "max_new_tokens": 16},
            {"id": "top_p", "strategy": "top_p", "max_new_tokens": 16},
        ],
    )
    run_grid(grid, mini_corpus_path, str(tmp_path))
    # Each model has its own arrays and each decoder its own parameters.
    counts = Counter((id(log_probs), params) for log_probs, params in derived)
    assert counts and max(counts.values()) == 1


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


_MINI_TRAIN, _, _MINI_TEST = split(flatten(clean_corpus(load_corpus(
    os.path.join(os.path.dirname(__file__), os.pardir, "src", "lyricsense", "data", "mini_corpus.jsonl")).records)), seed=0)
_weight = st.sampled_from([0.0, 5e-324, 1.0, 1e308]) | st.floats(0, 1e308)


@st.composite
def _whole_grids(draw):
    """A grid config on the mini corpus at seed 0: every axis small, weights up to the largest finite float."""
    models = [
        draw(st.builds(dict, type=st.just("ngram"), order=st.integers(1, 3), k=st.sampled_from([0.1, 1e-9, 1e3]),
                       vocab_cap=st.integers(3, 1000)) | st.builds(dict, type=st.just("ngram_file")))
        for _ in range(draw(st.integers(1, 2)))
    ]
    decoders = [
        draw(st.fixed_dictionaries({"strategy": st.sampled_from([s.value for s in Strategy])}, optional={
            "num_beams": st.integers(1, 3), "no_repeat_ngram_size": st.integers(0, 3), "early_stopping": st.booleans(),
            "temperature": st.floats(1e-3, 10), "k": st.integers(1, 20), "p": st.floats(1e-3, 1),
            "max_new_tokens": st.integers(1, 8), "seed": st.integers(0, 2**31),
        }))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {
        "models": [{"id": f"m{i}", **spec} for i, spec in enumerate(models)],
        "prompts": draw(st.lists(st.sampled_from([p.spec_id for p in PromptSpec.all_variants()]),
                                 min_size=1, max_size=2, unique=True)),
        "decoders": [{"id": f"d{i}", "max_new_tokens": 8, **cfg} for i, cfg in enumerate(decoders)],
        "eval_samples": draw(st.lists(st.sampled_from([s.sample_id for s in _MINI_TEST]),
                                      min_size=1, max_size=3, unique=True)),
        "weights": {"alpha1": draw(_weight), "alpha2": draw(_weight), "alpha3": draw(_weight)},
        "seed": 0,
    }


@given(config=_whole_grids())
@settings(max_examples=80, deadline=None)
def test_any_valid_grid_gives_strict_complete_reproducible_reports(mini_corpus_path, tmp_path_factory, config):
    saved = tmp_path_factory.getbasetemp() / "whole_grid_order2.json"
    if not saved.exists():
        fit_ngram(training_texts(_MINI_TRAIN), order=2).save(str(saved))
    for spec in config["models"]:
        if spec["type"] == "ngram_file":
            spec["path"] = str(saved)
    try:
        grid = ExperimentGrid.from_dict(config)
    except ValueError as exc:  # only weights whose alpha1 + alpha2 is 0 or overflows are invalid
        assert str(exc).startswith("weights: alpha1 + alpha2 must be positive and finite"), exc
        reject()
    out = tmp_path_factory.mktemp("whole_grid")
    reports = []
    for run in ("a", "b"):
        result = run_grid(grid, mini_corpus_path, str(out / run))
        emit_report(result, str(out / run))
        reports.append({name: (out / run / name).read_bytes() for name in ("grid.jsonl", "summary.csv", "plotdata.json")})
    assert reports[0] == reports[1]

    rows = Counter((r.model_id, r.prompt_id, r.decoder_id) for r in result.rows)
    means = Counter((m.model_id, m.prompt_id, m.decoder_id) for m in result.means)
    failures = Counter((f.model_id, f.prompt_id, f.decoder_id) for f in result.failures)
    combinations = set(product([m["id"] for m in config["models"]], config["prompts"],
                               [d["id"] for d in config["decoders"]]))
    assert set(rows) | set(failures) == combinations
    for key in combinations:
        outcome = (rows[key], means[key], failures[key])
        assert outcome in ((len(config["eval_samples"]), 1, 0), (0, 0, 1)), (key, outcome)

    for line in reports[0]["grid.jsonl"].decode().splitlines():
        _strict_json(line)
    _strict_json(reports[0]["plotdata.json"].decode())
    assert len(reports[0]["summary.csv"].decode().splitlines()) == 2 + len(combinations)  # provenance, header
    for report in [r.report for r in result.rows] + [m.mean for m in result.means]:
        assert all(0 <= getattr(report, name) <= 1 for name in METRIC_FIELDS), report
