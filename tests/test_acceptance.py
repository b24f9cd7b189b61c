"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured quantities once its assertions hold."""

import dataclasses
import json
import os
import random
import time
from collections import Counter

from conftest import (
    brute_force_best_finished_log_prob,
    chi_square_ok,
    const_model,
    random_ngram_model,
    renormalized_target,
)
from lyricsense.cli import cli_main
from lyricsense.corpus import (
    AnnotatedFragment,
    SongRecord,
    clean_corpus,
    clean_record,
    flatten,
    load_corpus,
    split,
)
from lyricsense.decoding import (
    DecodeConfig,
    Strategy,
    beam_search,
    decode,
    greedy,
    sample,
    top_k_sample,
    top_p_sample,
)
from lyricsense.harness import ExperimentGrid, default_grid, emit_report, run_grid, training_texts
from lyricsense.lm import fit_ngram
from lyricsense.metrics import TotalScoreWeights, evaluate, total_score
from lyricsense.prompts import PromptSpec, extract_generation, render, render_with_target
from lyricsense.wire import LMServer
from test_metrics import COSINE_FIXTURES, ROUGE_FIXTURES


def report(n, name, detail):
    print(f"ACCEPTANCE {n:02d} {name}: PASS ({detail})")


def test_criterion_01_grid_cardinality_and_runtime(mini_corpus_path, tmp_path, capsys):
    out = tmp_path / "grid"
    start = time.monotonic()
    code = cli_main(["grid", "--corpus", mini_corpus_path, "--out", str(out), "--seed", "0"])
    elapsed = time.monotonic() - start
    assert code == 0
    lines = (out / "grid.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 1050
    data_lines = [l for l in (out / "summary.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1 + 105  # header + one mean per combination
    assert all("error" not in row for row in rows)
    assert elapsed < 60.0
    with capsys.disabled():
        report(1, "grid cardinality", f"105 means, 1050 rows in {elapsed:.1f}s < 60s")


def test_criterion_02_beam_matches_brute_force_oracle(capsys):
    checked = 0
    for seed in range(50):
        rng = random.Random(seed)
        model = random_ngram_model(rng, max_content=4)
        size = len(model.vocabulary())
        prompt = [rng.randrange(size) for _ in range(rng.randint(0, 2))]
        L = 4
        config = DecodeConfig(
            strategy=Strategy.BEAM, num_beams=size**L, no_repeat_ngram_size=0, max_new_tokens=L
        )
        generation = beam_search(model, prompt, config)
        best = brute_force_best_finished_log_prob(model, prompt, L)
        assert abs(generation.log_prob - best) <= 1e-9, seed
        checked += 1
    with capsys.disabled():
        report(2, "beam oracle equivalence", f"{checked} random models, |log-prob gap| <= 1e-9")


def _draw_tokens(model, base_cfg, n_draws):
    counts = Counter()
    eos = model.vocabulary().eos_id
    for seed in range(n_draws):
        generation = decode(model, [], dataclasses.replace(base_cfg, seed=seed))
        counts[generation.ids[0] if generation.ids else eos] += 1
    return counts


def test_criterion_03_sampler_chi_square(capsys):
    n = 20_000
    skew = (0.7, 0.2, 0.1)
    broad = (0.8, 0.15, 0.05)
    cases = [
        ("sampling T=0.95", skew, dict(strategy=Strategy.SAMPLING), dict()),
        ("top-k k=50 (full vocab)", skew, dict(strategy=Strategy.TOP_K, k=50), dict(strategy="top_k", k=50)),
        ("top-p p=0.92", broad, dict(strategy=Strategy.TOP_P, p=0.92), dict(strategy="top_p", p=0.92)),
        ("top-k k=2 (adversarial)", skew, dict(strategy=Strategy.TOP_K, k=2), dict(strategy="top_k", k=2)),
        ("top-p p=0.75 (adversarial)", skew, dict(strategy=Strategy.TOP_P, p=0.75), dict(strategy="top_p", p=0.75)),
    ]
    for label, base_probs, cfg_kwargs, target_kwargs in cases:
        model = const_model({"ta": base_probs[0], "tb": base_probs[1], "tc": base_probs[2]})
        vocab = model.vocabulary()
        ids = [vocab.id_of(t) for t in ("ta", "tb", "tc")]
        config = DecodeConfig(temperature=0.95, max_new_tokens=1, **cfg_kwargs)
        counts = _draw_tokens(model, config, n)
        target = renormalized_target(base_probs, 0.95, **target_kwargs)
        assert sum(counts.values()) == n
        assert chi_square_ok(counts, target, ids, n, alpha=0.001), label
    with capsys.disabled():
        report(3, "sampler correctness", f"{len(cases)} configs x {n} draws, chi-square alpha=0.001")


def test_criterion_04_degenerate_strategy_identities(capsys):
    for seed in range(20):
        model = random_ngram_model(random.Random(1000 + seed))
        size = len(model.vocabulary())
        prompt = [seed % size]

        g = greedy(model, prompt, DecodeConfig(strategy=Strategy.GREEDY, max_new_tokens=8))
        k1 = top_k_sample(model, prompt, DecodeConfig(strategy=Strategy.TOP_K, k=1, seed=seed, max_new_tokens=8))
        assert (k1.ids, k1.finish_reason) == (g.ids, g.finish_reason)

        s = sample(model, prompt, DecodeConfig(strategy=Strategy.SAMPLING, seed=seed, max_new_tokens=8))
        kd = top_k_sample(model, prompt, DecodeConfig(strategy=Strategy.TOP_K, k=size, seed=seed, max_new_tokens=8))
        assert kd == s
        pd = top_p_sample(model, prompt, DecodeConfig(strategy=Strategy.TOP_P, p=1.0, seed=seed, max_new_tokens=8))
        assert pd == s

        b1 = beam_search(
            model, prompt,
            DecodeConfig(strategy=Strategy.BEAM, num_beams=1, no_repeat_ngram_size=0, max_new_tokens=8),
        )
        assert (b1.ids, b1.finish_reason) == (g.ids, g.finish_reason)
        assert abs(b1.log_prob - g.log_prob) < 1e-12
    with capsys.disabled():
        report(4, "degenerate identities", "k=1==greedy, k>=|V|==sampling, p=1==sampling, beam1==greedy x20")


def test_criterion_05_no_repeat_bigrams(capsys):
    for seed in range(100):
        rng = random.Random(2000 + seed)
        model = random_ngram_model(rng)
        size = len(model.vocabulary())
        # the decoder cannot rewrite the prompt, so the prompt itself is
        # kept duplicate-free (distinct tokens)
        prompt = rng.sample(range(size), k=rng.randint(0, min(4, size)))
        config = DecodeConfig(strategy=Strategy.BEAM, no_repeat_ngram_size=2, max_new_tokens=8)
        generation = beam_search(model, prompt, config)
        seq = tuple(prompt) + generation.ids
        bigrams = list(zip(seq, seq[1:]))
        assert len(bigrams) == len(set(bigrams)), seed
    with capsys.disabled():
        report(5, "no-repeat constraint", "100 random models/prompts, no duplicated bigram")


def test_criterion_06_metric_fixtures_and_fuzz(capsys):
    from lyricsense.metrics import cosine_bow, rouge1

    assert len(ROUGE_FIXTURES) >= 10 and len(COSINE_FIXTURES) >= 10
    for pred, ref, expected in ROUGE_FIXTURES:
        assert abs(rouge1(pred, ref) - float(expected)) < 1e-12
    for a, b, expected in COSINE_FIXTURES:
        assert abs(cosine_bow(a, b) - expected) < 1e-12

    weights = TotalScoreWeights()
    grid_values = [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in grid_values:
        for ca in grid_values:
            for cl in grid_values:
                direct = max(0.0, 0.5 * r + 0.5 * ca - 0.5 * cl) / 1.0
                assert abs(total_score(r, ca, cl, weights) - direct) < 1e-12

    rng = random.Random(99)

    def junk(max_len=40):
        return "".join(
            chr(rng.choice((rng.randint(32, 0x2FFF), rng.randint(32, 126))))
            for _ in range(rng.randint(0, max_len))
        )

    for _ in range(10_000):
        report_obj = evaluate(junk(), junk(), junk())
        for value in report_obj.to_dict().values():
            assert 0.0 <= value <= 1.0
    with capsys.disabled():
        report(6, "metric fixtures", "11 rouge + 10 cosine fixtures, 125-cell grid, 10k fuzz pairs in [0,1]")


def test_criterion_07_prompt_round_trip(mini_corpus_path, capsys):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)
    assert samples
    checked = 0
    for sample_obj in samples:
        for spec in PromptSpec.all_variants():
            rendered = render(spec, sample_obj)
            recovered = extract_generation(render_with_target(spec, sample_obj), rendered)
            assert recovered == sample_obj.annotation
            checked += 1
    with capsys.disabled():
        report(7, "prompt round-trip", f"{checked} (sample, variant) pairs byte-exact")


def _fuzz_records(count):
    rng = random.Random(7)
    pieces = [
        "la la", "hello world", "안녕", "café river", "tokyo 東京",
        "https://example.com/x", "www.site.org/page", "  spaced   out  ", "", "end.",
        "Αβγ", "naïve song", "rock'n'roll", "\U0001f3b5 tune",
    ]
    records = []
    for i in range(count):
        lyrics = " ".join(rng.choices(pieces, k=rng.randint(1, 6)))
        fragments = [
            AnnotatedFragment(
                " ".join(rng.choices(pieces, k=rng.randint(0, 3))),
                " ".join(rng.choices(pieces, k=rng.randint(0, 3))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        records.append(
            SongRecord(
                song_id=f"fuzz-{i}",
                title=rng.choice(pieces),
                artist=rng.choice(pieces[:6]),
                genre=rng.choice(["pop", "rap", "rock", "country", "rnb", "other"]),
                lyrics=lyrics,
                page_views=rng.choice([None, rng.randint(0, 10**6)]),
                fragments=fragments,
            )
        )
    return records


def test_criterion_08_corpus_pipeline(mini_corpus_path, tmp_path, capsys):
    mini = load_corpus(mini_corpus_path).records
    fuzzed = _fuzz_records(1000)
    for record in [*mini, *fuzzed]:
        once = clean_record(record)
        if once is None:
            assert clean_record(record) is None
        else:
            assert clean_record(once) == once

    cleaned = clean_corpus([*mini, *fuzzed])
    samples = flatten(cleaned)
    assert len(samples) == sum(len(r.fragments) for r in cleaned)

    for seed in (0, 1, 99):
        parts = split(samples, (0.8, 0.1, 0.1), seed=seed)
        assert sum(len(p) for p in parts) == len(samples)
        song_sets = [{s.song_id for s in p} for p in parts]
        assert not (song_sets[0] & song_sets[1] or song_sets[0] & song_sets[2] or song_sets[1] & song_sets[2])
        recombined = sorted((s.sample_id for p in parts for s in p))
        assert recombined == sorted(s.sample_id for s in samples)

    out = tmp_path / "ingest"
    assert cli_main(["ingest", "--corpus", mini_corpus_path, "--out", str(out)]) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "mini_corpus_stats.golden.json")
    with open(golden, "rb") as fh:
        assert (out / "stats.json").read_bytes() == fh.read()
    with capsys.disabled():
        report(8, "corpus pipeline", f"idempotence+flatten+split on {len(mini) + len(fuzzed)} records; stats golden byte-exact")


class _WrongLengthServer(LMServer):
    """Answers the handshake honestly but truncates every distribution."""

    def __init__(self, model):
        super().__init__(model)
        import socketserver as ss

        vocab = model.vocabulary()

        class Handler(ss.StreamRequestHandler):
            def handle(handler):  # noqa: N805
                for line in handler.rfile:
                    request = json.loads(line)
                    if request.get("op") == "hello":
                        reply = {
                            "op": "vocab", "tokens": list(vocab.tokens),
                            "bos": vocab.bos_id, "eos": vocab.eos_id, "unk": vocab.unk_id,
                        }
                    else:
                        reply = {"op": "dist", "logp": [0.0, -1.0]}
                    handler.wfile.write((json.dumps(reply) + "\n").encode())
                    handler.wfile.flush()

        self.RequestHandlerClass = Handler


def test_criterion_09_wire_protocol_grid_equivalence(mini_corpus_path, tmp_path, capsys):
    records = clean_corpus(load_corpus(mini_corpus_path).records)
    samples = flatten(records)
    train, _, _ = split(samples, (0.8, 0.1, 0.1), seed=0)
    model = fit_ngram(training_texts(train), order=2, k=0.1, vocab_cap=400)
    model_path = str(tmp_path / "lm.json")
    model.save(model_path)

    grid_dict = {
        "models": [{"id": "m", "type": "ngram_file", "path": model_path}],
        "prompts": "all",
        "decoders": "all",
        "eval_samples": {"top_page_views": 10},
        "seed": 0,
    }
    local_grid = ExperimentGrid.from_dict(grid_dict)
    local = run_grid(local_grid, mini_corpus_path, str(tmp_path / "local"))
    assert len(local.rows) == 7 * 5 * 10 and not local.failures

    server = LMServer(model)
    server.start_background()
    try:
        remote_dict = dict(grid_dict, models=[{"id": "m", "type": "remote", "endpoint": server.endpoint}])
        remote_grid = ExperimentGrid.from_dict(remote_dict)
        remote = run_grid(remote_grid, mini_corpus_path, str(tmp_path / "remote"), workers=4)
    finally:
        server.shutdown()
        server.server_close()
    assert not remote.failures
    assert remote.rows == local.rows
    local_lines = (tmp_path / "local" / "grid.jsonl").read_text().splitlines()[1:]
    remote_lines = (tmp_path / "remote" / "grid.jsonl").read_text().splitlines()[1:]
    assert remote_lines == local_lines

    bad_server = _WrongLengthServer(model)
    bad_server.start_background()
    try:
        mixed_dict = dict(
            grid_dict,
            models=[
                {"id": "m", "type": "ngram_file", "path": model_path},
                {"id": "bad", "type": "remote", "endpoint": bad_server.endpoint},
            ],
            prompts=["lyrics_meaning", "none"],
        )
        mixed = run_grid(ExperimentGrid.from_dict(mixed_dict), mini_corpus_path, str(tmp_path / "mixed"))
    finally:
        bad_server.shutdown()
        bad_server.server_close()
    assert len(mixed.failures) == 2 * 5  # every bad-model combination
    assert all(f.model_id == "bad" for f in mixed.failures)
    assert all(f.error_type == "VocabularyMismatch" for f in mixed.failures)
    assert len(mixed.rows) == 2 * 5 * 10  # the good model still produced rows
    with capsys.disabled():
        report(9, "wire protocol", "remote grid == in-process grid (350 rows); malformed server -> 10 recorded failures, grid continued")


def test_criterion_10_grid_determinism(mini_corpus_path, tmp_path, capsys):
    grid = default_grid(seed=0)
    for name in ("one", "two"):
        result = run_grid(grid, mini_corpus_path, str(tmp_path / name))
        emit_report(result, str(tmp_path / name))
    one = (tmp_path / "one" / "grid.jsonl").read_bytes()
    two = (tmp_path / "two" / "grid.jsonl").read_bytes()
    assert one == two
    assert (tmp_path / "one" / "summary.csv").read_bytes() == (tmp_path / "two" / "summary.csv").read_bytes()
    assert (tmp_path / "one" / "plotdata.json").read_bytes() == (tmp_path / "two" / "plotdata.json").read_bytes()
    with capsys.disabled():
        report(10, "determinism", f"two full runs byte-identical ({len(one)} bytes)")
