import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from lyricsense.cli import build_parser, cli_main
from lyricsense.corpus import AnnotatedFragment, SongRecord, load_corpus, split, write_corpus
from lyricsense.decoding import DecodeConfig
from lyricsense.harness import ExperimentGrid, ModelSpec
from lyricsense.lm import NGramModel, Vocabulary, fit_ngram
from lyricsense.metrics import TotalScoreWeights
from lyricsense.wire import RemoteLM


def run_cli(*argv):
    return cli_main(list(argv))


def test_ingest_writes_stats_and_splits(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "ingest"
    assert run_cli("ingest", "--corpus", mini_corpus_path, "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "22 songs" in captured.out
    for name in (
        "stats.json",
        "train.jsonl",
        "validation.jsonl",
        "test.jsonl",
        "songs_per_genre.csv",
        "word_frequencies_lyrics.csv",
    ):
        assert (out / name).exists(), name
    train = [json.loads(line) for line in (out / "train.jsonl").read_text().splitlines()]
    assert {"sample_id", "song_id", "title", "artist", "fragment", "annotation"} <= set(train[0])


def test_ingest_stats_match_golden_bytes(mini_corpus_path, tmp_path):
    out = tmp_path / "ingest"
    assert run_cli("ingest", "--corpus", mini_corpus_path, "--out", str(out)) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "mini_corpus_stats.golden.json")
    with open(golden, "rb") as fh:
        assert (out / "stats.json").read_bytes() == fh.read()


def test_ingest_warns_about_bad_lines(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    record = SongRecord("s1", "T", "A", "pop", "la la", 3, [AnnotatedFragment("la", "x")])
    write_corpus(str(corpus), [record])
    with open(corpus, "a") as fh:
        fh.write("oops\n")
    out = tmp_path / "out"
    assert run_cli("ingest", "--corpus", str(corpus), "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "line 3" in captured.err


def test_fit_lm_writes_loadable_model(mini_corpus_path, tmp_path):
    model_path = tmp_path / "lm.json"
    code = run_cli(
        "fit-lm", "--corpus", mini_corpus_path, "--out", str(model_path),
        "--order", "2", "--vocab-cap", "500",
    )
    assert code == 0
    model = NGramModel.load(str(model_path))
    assert model.order == 2
    assert len(model.vocabulary()) <= 503


@pytest.mark.parametrize("order", [2, 3])
def test_fit_lm_output_bytes_are_pinned(mini_corpus_path, tmp_path, order):
    # CI also fits the wide corpus's entry of the same file; a change to a
    # saved model's bytes must say why and update tests/data/fit_lm.sha256.
    golden = os.path.join(os.path.dirname(__file__), "data", "fit_lm.sha256")
    with open(golden, encoding="ascii") as fh:
        expected = {name: digest for digest, name in map(str.split, fh)}
    model_path = tmp_path / f"mini_order{order}.json"
    assert run_cli("fit-lm", "--corpus", mini_corpus_path, "--out", str(model_path), "--order", str(order)) == 0
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == expected[model_path.name]


@pytest.mark.parametrize("command", [["grid", "--seed", "0"], ["fit-lm", "--order", "2"]])
def test_train_sample_without_metadata_is_named(mini_corpus_path, tmp_path, capsys, command):
    records = [
        dataclasses.replace(r, artist="") if r.song_id == "ls-0001" else r
        for r in load_corpus(mini_corpus_path).records
    ]
    corpus = str(tmp_path / "blank_artist.jsonl")
    write_corpus(corpus, records)
    out = str(tmp_path / ("out" if command[0] == "grid" else "lm.json"))
    assert run_cli(command[0], "--corpus", corpus, "--out", out, *command[1:]) == 1
    assert capsys.readouterr().err == (
        "error: train sample 'ls-0001#0': prompt 'lyrics_meaning_meta' needs artist and title metadata\n"
    )


def toy_chain_model_file(path):
    vocab = Vocabulary.build(["x", "y", "z"])
    x, y, z = (vocab.id_of(t) for t in "xyz")
    counts = {(x,): Counter({y: 1}), (y,): Counter({z: 1}), (z,): Counter({vocab.eos_id: 1})}
    model = NGramModel(order=2, k=1e-12, vocab=vocab, counts=counts)
    model.save(path)
    return model


def test_generate_prints_forced_continuation(tmp_path, capsys):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    code = run_cli(
        "generate", "--model", model_path, "--fragment", "x",
        "--prompt", "none", "--strategy", "greedy",
    )
    assert code == 0
    assert capsys.readouterr().out == "y z\n"


def test_generate_with_corpus_sample(mini_corpus_path, tmp_path, capsys):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    code = run_cli(
        "generate", "--model", model_path, "--corpus", mini_corpus_path,
        "--sample-id", "ls-0001#0", "--prompt", "lyrics_meaning", "--strategy", "greedy",
        "--max-new-tokens", "4",
    )
    assert code == 0
    capsys.readouterr()

    code = run_cli(
        "generate", "--model", model_path, "--corpus", mini_corpus_path,
        "--sample-id", "nope#9", "--prompt", "none",
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_generate_accepts_decode_config_file(tmp_path, capsys):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    config = tmp_path / "decode.json"
    config.write_text(json.dumps({"strategy": "greedy", "max_new_tokens": 1, "seed": 0}))
    code = run_cli(
        "generate", "--model", model_path, "--fragment", "x",
        "--prompt", "none", "--decode-config", str(config),
    )
    assert code == 0
    assert capsys.readouterr().out == "y\n"  # length cap from the file applied


def _single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "command, flags, reason",
    [
        ("generate", ["--strategy", "sampling", "--temperature", "nan"], "temperature must be positive and finite"),
        ("generate", ["--strategy", "sampling", "--temperature", "inf"], "temperature must be positive and finite"),
        ("ingest", ["--ratios", "nan,0.5,0.5"], "split ratios must be finite and non-negative"),
        ("fit-lm", ["--smoothing-k", "nan"], "smoothing constant k must be positive and finite"),
        ("fit-lm", ["--smoothing-k", "inf"], "smoothing constant k must be positive and finite"),
    ],
    ids=["temperature-nan", "temperature-inf", "ratios-nan", "smoothing-k-nan", "smoothing-k-inf"],
)
def test_non_finite_number_flag_is_an_error_naming_its_field(
    mini_corpus_path, tmp_path, capsys, command, flags, reason
):
    if command == "generate":
        model_path = str(tmp_path / "toy.json")
        toy_chain_model_file(model_path)
        argv = ["generate", "--model", model_path, "--fragment", "x", *flags]
    else:
        argv = [command, "--corpus", mini_corpus_path, "--out", str(tmp_path / "out"), *flags]
    assert run_cli(*argv) == 1
    assert _single_error_line(capsys).startswith(f"error: {reason}, got ")


@pytest.mark.parametrize("command", ["fit-lm", "generate", "grid"])
def test_bad_corpus_line_is_a_warning_and_the_rest_is_read(mini_corpus_path, tmp_path, capsys, command):
    with open(mini_corpus_path, encoding="utf-8") as fh:
        text = fh.read()
    bad_corpus = tmp_path / "bad_line.jsonl"
    bad_corpus.write_text(text + '{"song_id": 5}\n', encoding="utf-8")
    model_path = str(tmp_path / "lm.json")
    assert run_cli("fit-lm", "--corpus", mini_corpus_path, "--out", model_path) == 0
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "models": [{"id": "m", "order": 1}],
        "prompts": ["none"],
        "decoders": [{"id": "greedy", "strategy": "greedy", "max_new_tokens": 8}],
        "eval_samples": {"top_page_views": 2},
    }))

    def run(corpus, name):
        """The command's result on ``corpus`` and its stderr.

        The result is the saved model's bytes, the grid's rows or the printed meaning.
        """
        capsys.readouterr()
        out = tmp_path / name
        if command == "fit-lm":
            assert run_cli("fit-lm", "--corpus", corpus, "--out", str(out)) == 0
            return out.read_bytes(), capsys.readouterr().err
        if command == "grid":
            assert run_cli("grid", "--corpus", corpus, "--out", str(out), "--config", str(config)) == 0
            # Line 1 is the provenance, which holds the corpus file's hash.
            return (out / "grid.jsonl").read_text().splitlines()[1:], capsys.readouterr().err
        argv = ["--model", model_path, "--corpus", corpus, "--sample-id", "ls-0001#0", "--strategy", "sampling"]
        assert run_cli("generate", *argv) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err

    clean, clean_err = run(mini_corpus_path, "clean.json")
    bad, bad_err = run(str(bad_corpus), "bad.json")
    assert clean_err == ""
    assert bad_err.startswith(f"warning: line {len(text.splitlines()) + 1}: ") and bad_err.count("\n") == 1
    assert bad == clean


@pytest.mark.parametrize(
    "config, field",
    [
        ({"strategy": "greedy", "k": "x"}, "'k'"),
        ({"strategy": "greedy", "max_new_tokens": 2.5}, "'max_new_tokens'"),
        ({"strategy": "greedy", "early_stopping": "no"}, "'early_stopping'"),
    ],
)
def test_generate_malformed_decode_config_is_a_typed_error(tmp_path, capsys, config, field):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    path = tmp_path / "decode.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "generate", "--model", model_path, "--fragment", "x",
        "--prompt", "none", "--decode-config", str(path),
    )
    assert code == 1
    assert field in _single_error_line(capsys)


@pytest.mark.parametrize("flag", ["--config", "--decode-config", "--model"])
@pytest.mark.parametrize(
    "text", ['{"seed": 0,', "[" * 100_000 + "]" * 100_000], ids=["syntax_error", "deeply_nested"]
)
def test_unreadable_json_file_is_a_typed_error(mini_corpus_path, tmp_path, capsys, flag, text):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {
        "--config": ["grid", "--corpus", mini_corpus_path, "--out", str(tmp_path / "out"), "--config", str(bad)],
        "--decode-config": ["generate", "--model", model_path, "--fragment", "x", "--decode-config", str(bad)],
        "--model": ["generate", "--model", str(bad), "--fragment", "x"],
    }[flag]
    assert run_cli(*argv) == 1
    assert _single_error_line(capsys).startswith(f"error: {bad}: ")


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: {k: v for k, v in m.items() if k != "tokens"}, "'tokens'"),
        (lambda m: {**m, "order": "2"}, "'order'"),
        (lambda m: {**m, "counts": {"3": {"99": 1}}}, "'counts'"),
        (lambda m: {**m, "counts": {"3": {"4": "1"}}}, "'counts'"),
        (lambda m: [1], "JSON object"),
    ],
    ids=["no_tokens", "string_order", "id_out_of_range", "string_count", "not_an_object"],
)
def test_malformed_model_file_is_a_typed_error(mini_corpus_path, tmp_path, capsys, edit, field):
    model_path = tmp_path / "toy.json"
    toy_chain_model_file(str(model_path))
    model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
    grid_config = tmp_path / "grid.json"
    grid_config.write_text(json.dumps({"models": [{"id": "f", "type": "ngram_file", "path": str(model_path)}]}))
    commands = [
        ["generate", "--model", str(model_path), "--fragment", "x", "--prompt", "none"],
        ["serve-mock", "--model", str(model_path), "--stdio"],
        ["grid", "--corpus", mini_corpus_path, "--out", str(tmp_path / "out"), "--config", str(grid_config)],
    ]
    for argv in commands:
        assert run_cli(*argv) == 1
        message = _single_error_line(capsys)
        assert message.startswith(f"error: {model_path}: ") and field in message


def test_serve_mock_stdio_subprocess(tmp_path):
    model_path = str(tmp_path / "toy.json")
    local = toy_chain_model_file(model_path)
    requests = b'{"op": "hello", "proto": 1}\n{"op": "next", "ctx": [3]}\n'
    proc = subprocess.run(
        [sys.executable, "-m", "lyricsense", "serve-mock", "--model", model_path, "--stdio"],
        input=requests,
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().splitlines()
    assert json.loads(lines[0])["op"] == "vocab"
    assert json.loads(lines[1])["op"] == "dist"
    assert len(json.loads(lines[1])["logp"]) == len(local.vocabulary())


def test_evaluate_emits_reports_and_aggregate(tmp_path, capsys):
    predictions = tmp_path / "preds.jsonl"
    rows = [
        {"prediction": "pure joy", "annotation": "pure joy", "lyrics": "rain rain"},
        {"prediction": "rain rain", "annotation": "pure joy", "lyrics": "rain rain"},
    ]
    predictions.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run_cli("evaluate", "--predictions", str(predictions)) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["total_score"] == 1.0
    assert lines[1]["total_score"] == 0.0
    assert lines[2]["aggregate"] is True
    assert lines[2]["n"] == 2
    assert lines[2]["total_score"] == pytest.approx(0.5)


def _evaluate_error(tmp_path, capsys, bad_line: bytes):
    predictions = tmp_path / "preds.jsonl"
    good = {"prediction": "pure joy", "annotation": "pure joy", "lyrics": "rain rain"}
    predictions.write_bytes(json.dumps(good).encode() + b"\n\n" + bad_line + b"\n")
    assert run_cli("evaluate", "--predictions", str(predictions)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{predictions}:3:" in lines[0]
    return lines[0]


def test_evaluate_line_without_annotation_is_a_typed_error(tmp_path, capsys):
    message = _evaluate_error(tmp_path, capsys, json.dumps({"prediction": "joy", "lyrics": "rain"}).encode())
    assert "'annotation'" in message and "missing" in message


def test_evaluate_non_string_annotation_is_a_typed_error(tmp_path, capsys):
    message = _evaluate_error(tmp_path, capsys, json.dumps({"prediction": "joy", "annotation": 3}).encode())
    assert "'annotation'" in message and "string" in message


def test_evaluate_array_line_is_a_typed_error(tmp_path, capsys):
    message = _evaluate_error(tmp_path, capsys, json.dumps(["joy", "pure joy", "rain"]).encode())
    assert "JSON object" in message and "list" in message


def test_evaluate_non_utf8_line_is_a_typed_error(tmp_path, capsys):
    message = _evaluate_error(tmp_path, capsys, b'{"prediction": "\xff", "annotation": "joy"}')
    assert "'utf-8' codec can't decode byte 0xff" in message


def test_grid_cli_with_config(mini_corpus_path, tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "models": [{"id": "m1", "type": "ngram", "order": 1, "vocab_cap": 1000}],
        "prompts": "all",
        "decoders": "all",
        "eval_samples": {"top_page_views": 2},
        "seed": 1,
    }))
    out = tmp_path / "out"
    code = run_cli("grid", "--corpus", mini_corpus_path, "--out", str(out), "--config", str(config))
    assert code == 0
    captured = capsys.readouterr()
    assert "35 combinations" in captured.out
    summary = [l for l in (out / "summary.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(summary) == 1 + 35


@pytest.mark.parametrize(
    "config, where",
    [
        ({"models": 5}, "models"),
        ({"models": [5]}, "models[0]"),
        ({"decoders": ["greedy"]}, "decoders[0]"),
        ({"models": [{"id": "a", "order": "x"}]}, "models[0].order"),
        ({"eval_samples": 7}, "eval_samples"),
        ({"split_ratios": 5}, "split_ratios"),
        ([], "grid config"),
        ({"prompts": [5]}, "prompts[0]"),
        ({"decoders": [{"strategy": "greedy", "k": "x"}]}, "decoders[0]"),
        ({"weights": {"alpha1": "x"}}, "weights.alpha1"),
        ({"seed": [1]}, "seed"),
        ({"eval_samples": {"top_page_views": 0}}, "eval_samples"),
        ({"eval_samples": {"top_page_views": -3}}, "eval_samples"),
        ({"eval_samples": []}, "eval_samples"),
        ({"prompts": ["bogus"]}, "prompts[0]"),
        ({"models": [{"id": "a", "order": 0}]}, "models[0]"),
        ({"models": [{"id": "a", "order": 10**21}]}, "models[0]"),
        ({"seeds": 5}, "grid config"),
        ({"prompt": ["none"]}, "grid config"),
        ({"models": [{"id": "m", "oder": 3}]}, "models[0]"),
        ({"eval_samples": {"top_page_view": 3}}, "eval_samples"),
        ({"weights": {"alpha1": 1e308, "alpha2": 1e308}}, "weights"),
        ({"models": [{"id": "a"}, {"id": "b", "k": 1e307}]}, "models[1]"),
    ],
)
def test_grid_cli_malformed_config_is_a_typed_error(mini_corpus_path, tmp_path, capsys, config, where):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("grid", "--corpus", mini_corpus_path, "--out", str(out), "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: ")
    assert not out.exists()


def test_grid_cli_against_remote_endpoint(mini_corpus_path, tmp_path, capsys):
    from lyricsense.corpus import clean_corpus, flatten, load_corpus, split
    from lyricsense.harness import training_texts
    from lyricsense.lm import fit_ngram
    from lyricsense.wire import LMServer

    records = clean_corpus(load_corpus(mini_corpus_path).records)
    train, _, _ = split(flatten(records), (0.8, 0.1, 0.1), seed=0)
    server = LMServer(fit_ngram(training_texts(train), order=1, k=0.1, vocab_cap=300))
    server.start_background()
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "prompts": ["none"],
        "decoders": [{"id": "greedy", "strategy": "greedy", "max_new_tokens": 8}],
        "eval_samples": {"top_page_views": 2},
    }))
    out = tmp_path / "out"
    try:
        code = run_cli(
            "grid", "--corpus", mini_corpus_path, "--out", str(out),
            "--config", str(config), "--endpoint", server.endpoint,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert "1 combinations, 2 rows" in capsys.readouterr().out
    rows = [json.loads(l) for l in (out / "grid.jsonl").read_text().splitlines()[1:]]
    assert {r["model"] for r in rows} == {"remote0"}


def test_generate_against_endpoint_closes_its_client(tmp_path, capsys, monkeypatch):
    from lyricsense.wire import LMServer

    model_path = str(tmp_path / "toy.json")
    server = LMServer(toy_chain_model_file(model_path))
    server.start_background()
    closed = []
    real_close = RemoteLM.close

    def recording_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(RemoteLM, "close", recording_close)
    try:
        code = run_cli(
            "generate", "--endpoint", server.endpoint, "--fragment", "x",
            "--prompt", "none", "--strategy", "greedy",
        )
    finally:
        server.shutdown()
        server.server_close()
    assert code == 0
    assert capsys.readouterr().out == "y z\n"
    assert len(closed) == 1


def test_serve_mock_subprocess_speaks_protocol(tmp_path):
    model_path = str(tmp_path / "toy.json")
    local = toy_chain_model_file(model_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lyricsense", "serve-mock", "--model", model_path, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on ")
        endpoint = line.removeprefix("listening on ")
        with RemoteLM(endpoint) as client:
            assert client.vocabulary().tokens == local.vocabulary().tokens
            import numpy as np

            assert np.array_equal(client.next([3]), local.next([3]))
    finally:
        proc.terminate()
        proc.wait(timeout=5)
        proc.stdout.close()
        proc.stderr.close()


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    ratios = inspect.signature(split).parameters["ratios"].default
    assert parser.parse_args(["ingest", "--corpus", "c", "--out", "o"]).ratios == ratios
    assert ExperimentGrid.from_dict({}).split_ratios == ratios

    fit = parser.parse_args(["fit-lm", "--corpus", "c", "--out", "o"])
    spec = ModelSpec.from_dict({"id": "m"})
    assert spec == ModelSpec("m", kind="ngram")
    assert (fit.order, fit.smoothing_k, fit.vocab_cap, fit.ratios) == (spec.order, spec.k, spec.vocab_cap, ratios)
    fit_params = inspect.signature(fit_ngram).parameters
    assert (fit_params["k"].default, fit_params["vocab_cap"].default) == (spec.k, spec.vocab_cap)

    gen = parser.parse_args(["generate", "--model", "m", "--fragment", "f"])
    cfg = DecodeConfig(strategy=gen.strategy)
    assert (gen.temperature, gen.top_k, gen.top_p, gen.num_beams, gen.max_new_tokens, gen.seed) == (
        cfg.temperature, cfg.k, cfg.p, cfg.num_beams, cfg.max_new_tokens, cfg.seed
    )

    evaluate = parser.parse_args(["evaluate", "--predictions", "p"])
    assert TotalScoreWeights(evaluate.alpha1, evaluate.alpha2, evaluate.alpha3) == TotalScoreWeights()


def test_grid_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["grid", "--corpus", "c", "--out", "o", "--workers", "2"])
    assert "--workers" in capsys.readouterr().err


def test_missing_file_reports_error(tmp_path, capsys):
    assert run_cli("ingest", "--corpus", "/no/such.jsonl", "--out", str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("ingest", "--bogus")
    assert exc_info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_generate_requires_input(capsys, tmp_path):
    model_path = str(tmp_path / "toy.json")
    toy_chain_model_file(model_path)
    assert run_cli("generate", "--model", model_path) == 1
    assert "provide --sample-id or --fragment" in capsys.readouterr().err


def test_generate_without_model_or_endpoint_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("generate", "--fragment", "x")
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--model" in err and "--endpoint" in err
