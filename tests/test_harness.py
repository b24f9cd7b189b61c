import contextlib
import csv
import json

import pytest

from lyricsense.corpus import clean_corpus, flatten, load_corpus, split
from lyricsense.decoding import DecodeConfig, Strategy, decode
from lyricsense import wire
from lyricsense.harness import (
    CombinationMean,
    ExperimentGrid,
    GridResult,
    ModelSpec,
    default_decoders,
    default_grid,
    emit_report,
    rank_combinations,
    run_grid,
    training_texts,
)
from lyricsense.lm import fit_ngram
from lyricsense.metrics import MetricReport, TotalScoreWeights, evaluate
from lyricsense.prompts import PromptSpec, extract_generation, render
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
    assert grid.combination_count() == 105
    assert [d for d, _ in grid.decoders] == ["greedy", "beam", "sampling", "top_k", "top_p"]


def test_default_decoders_carry_documented_hyperparameters():
    decoders = dict(default_decoders())
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


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="transformer")
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="remote")
    with pytest.raises(ValueError):
        ModelSpec(model_id="x", kind="ngram_file")
    with pytest.raises(ValueError, match="'id'"):
        ModelSpec.from_dict({"type": "ngram"})


def test_grid_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="model ids"):
        small_grid(models=[{"id": "m", "type": "ngram"}, {"id": "m", "type": "ngram", "order": 3}])
    with pytest.raises(ValueError, match="decoder ids"):
        small_grid(decoders=[{"strategy": "greedy"}, {"strategy": "greedy", "seed": 5}])
    with pytest.raises(ValueError, match="prompt"):
        small_grid(prompts=["none", "none"])
    with pytest.raises(ValueError, match="strategy"):
        small_grid(decoders=[{"seed": 3}])


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


def test_training_texts_cover_all_variants(mini_corpus_path):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)[:2]
    texts = training_texts(samples)
    assert len(texts) == 2 * 7
    assert any(t.startswith("lyrics: ") for t in texts)
    assert any(t.startswith("question: ") for t in texts)


def test_grid_renders_training_texts_once_for_all_ngram_orders(mini_corpus_path, tmp_path, monkeypatch):
    import lyricsense.harness as harness

    calls = []
    real_render = harness.render_with_target

    def counting_render(spec, sample):
        calls.append(sample.sample_id)
        return real_render(spec, sample)

    monkeypatch.setattr(harness, "render_with_target", counting_render)
    models = [{"id": f"ngram{n}", "type": "ngram", "order": n} for n in (1, 2, 3)]
    grid = small_grid(models=models)
    run_grid(grid, mini_corpus_path, str(tmp_path))
    samples = flatten(clean_corpus(load_corpus(mini_corpus_path).records))
    train, _validation, _test = split(samples, grid.split_ratios, grid.seed)
    assert len(calls) == 7 * len(train)


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
    assert len(seen) == grid.combination_count()
    local_memos = []
    for is_local, n_rows, memo in seen:
        assert n_rows == 3  # eval samples
        if is_local:
            assert isinstance(memo, dict)
            local_memos.append(memo)
        else:
            assert memo is None
    assert len(local_memos) == len(grid.prompts) * len(grid.decoders)
    assert len({id(memo) for memo in local_memos}) == len(local_memos)


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
    real_reply = wire._build_reply

    def recording_reply(model, vocab, request, proto, batch):
        if request.get("op") == "next_batch":
            frames.append(len(request["ctxs"]))
        return real_reply(model, vocab, request, proto, batch)

    monkeypatch.setattr(wire, "_build_reply", recording_reply)
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


def test_dropped_connection_is_retried_with_the_same_rows(mini_corpus_path, tmp_path, monkeypatch, served_model):
    real_session = wire.serve_session
    sessions = []

    def first_session_cut(model, reader, writer):
        sessions.append(reader)
        real_session(model, _LinesThenEOF(reader, 40) if len(sessions) == 1 else reader, writer)

    with _serving(served_model) as server:
        grid = small_grid(models=_remote(server), prompts=["lyrics_meaning", "none"], decoders="all")
        monkeypatch.setattr(wire, "serve_session", first_session_cut)
        cut = run_grid(grid, mini_corpus_path, str(tmp_path / "cut"))
        monkeypatch.setattr(wire, "serve_session", real_session)
        whole = run_grid(grid, mini_corpus_path, str(tmp_path / "whole"))
    assert len(sessions) == 2  # the cut session and the one its retry opened
    assert not cut.failures and len(cut.rows) == grid.combination_count() * 3
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
