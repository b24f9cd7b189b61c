"""Command-line front end.

Subcommands:

* ``ingest``     load, clean, split and summarize a corpus file
* ``fit-lm``     fit the reference n-gram model on the train split
* ``generate``   decode one sample with one prompt and one decoder
* ``evaluate``   score a file of predictions against annotations/lyrics
* ``grid``       run the full model x prompt x decoder experiment grid
* ``serve-mock`` expose a saved model over the wire protocol
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .corpus import (
    SPLIT_RATIOS,
    CorpusError,
    CorpusStats,
    LoadError,
    LoadResult,
    Sample,
    clean_corpus,
    compute_stats,
    flatten,
    load_corpus,
    split,
)
from .decoding import DecodeConfig, Strategy
from .harness import (
    ExperimentGrid,
    ModelSpec,
    default_grid,
    emit_report,
    generate_meaning,
    run_grid,
    training_parts,
)
from .jsonfields import jsonl_lines, load_json, required, typed
from .lm import NGramModel, fit_ngram
from .metrics import TotalScoreWeights, evaluate, mean_report
from .prompts import PromptSpec
from .wire import LMServer, RemoteLM, WireError, serve_stdio


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must be three comma-separated numbers")
    return (parts[0], parts[1], parts[2])


def _write_stats_files(stats: CorpusStats, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats.to_dict(), fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")
    by_count = lambda items: sorted(items, key=lambda kv: (-kv[1], str(kv[0])))  # noqa: E731
    tables = {
        "songs_per_genre": by_count(stats.songs_per_genre.items()),
        "songs_per_artist": by_count(stats.songs_per_artist.items()),
        "annotation_length_histogram": sorted(stats.annotation_length_histogram.items()),
        "sample_length_histogram": sorted(stats.sample_length_histogram.items()),
        "word_frequencies_annotations": by_count(stats.word_frequencies_annotations.items()),
        "word_frequencies_lyrics": by_count(stats.word_frequencies_lyrics.items()),
    }
    for name, rows in tables.items():
        with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["key", "count"])
            writer.writerows(rows)


def _write_samples(path: str, samples: Sequence[Sample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(dataclasses.asdict(sample), ensure_ascii=False, sort_keys=True) + "\n")


def _warn_skipped(errors: Sequence[LoadError]) -> None:
    """One warning on stderr for each corpus line that was skipped."""
    for error in errors:
        print(f"warning: line {error.line_number}: {error.message}", file=sys.stderr)


def _load_corpus(path: str) -> LoadResult:
    """``load_corpus(path)``, with one warning on stderr for each line it skipped."""
    loaded = load_corpus(path)
    _warn_skipped(loaded.errors)
    return loaded


def _cmd_ingest(args: argparse.Namespace) -> int:
    loaded = _load_corpus(args.corpus)
    records = clean_corpus(loaded.records)
    samples = flatten(records)
    train, validation, test = split(samples, args.ratios, args.seed)
    stats = compute_stats(records)
    _write_stats_files(stats, args.out)
    _write_samples(os.path.join(args.out, "train.jsonl"), train)
    _write_samples(os.path.join(args.out, "validation.jsonl"), validation)
    _write_samples(os.path.join(args.out, "test.jsonl"), test)
    print(
        f"ingested {len(loaded.records)} songs ({len(loaded.errors)} bad lines), "
        f"{len(records)} kept after cleaning, {len(samples)} samples "
        f"(train/validation/test = {len(train)}/{len(validation)}/{len(test)})"
    )
    print(f"stats and splits written to {args.out}")
    return 0


def _cmd_fit_lm(args: argparse.Namespace) -> int:
    samples = flatten(clean_corpus(_load_corpus(args.corpus).records))
    train, _, _ = split(samples, args.ratios, args.seed)
    if not train:
        print("error: train split is empty", file=sys.stderr)
        return 1
    model = fit_ngram(training_parts(train), order=args.order, k=args.smoothing_k, vocab_cap=args.vocab_cap)
    model.save(args.out)
    print(f"fit order-{args.order} model on {len(train)} samples -> {args.out} "
          f"(|V| = {len(model.vocabulary())})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.sample_id:
        if not args.corpus:
            print("error: --sample-id needs --corpus", file=sys.stderr)
            return 1
        samples = flatten(clean_corpus(_load_corpus(args.corpus).records))
        matches = [s for s in samples if s.sample_id == args.sample_id]
        if not matches:
            print(f"error: sample {args.sample_id!r} not found", file=sys.stderr)
            return 1
        sample = matches[0]
    else:
        if not args.fragment:
            print("error: provide --sample-id or --fragment", file=sys.stderr)
            return 1
        sample = Sample(
            sample_id="adhoc#0",
            song_id="adhoc",
            title=args.title,
            artist=args.artist,
            fragment=args.fragment,
            annotation=args.annotation,
        )
    spec = PromptSpec.from_id(args.prompt)
    if args.decode_config:
        cfg = DecodeConfig.from_dict(load_json(args.decode_config), args.decode_config)
    else:
        cfg = DecodeConfig(
            strategy=Strategy(args.strategy),
            temperature=args.temperature,
            k=args.top_k,
            p=args.top_p,
            num_beams=args.num_beams,
            max_new_tokens=args.max_new_tokens,
            seed=args.seed,
        )
    if args.endpoint:
        with RemoteLM(args.endpoint) as model:
            (meaning,) = generate_meaning(model, spec, [sample], [cfg])
    else:
        (meaning,) = generate_meaning(NGramModel.load(args.model), spec, [sample], [cfg])
    print(meaning)
    return 0


def _prediction_triple(obj: object, where: str) -> tuple[str, str, str]:
    """The prediction, annotation and lyrics (default empty) of one predictions line's value or error."""
    if isinstance(obj, ValueError):
        raise ValueError(f"{where}: invalid JSON: {obj}")
    typed(obj, dict, where)
    prediction, annotation = (required(obj, name, where, str) for name in ("prediction", "annotation"))
    return prediction, annotation, typed(obj.get("lyrics", ""), str, f"{where}: field 'lyrics'")


def _read_predictions(path: str) -> list[tuple[str, str, str]]:
    return [_prediction_triple(value, f"{path}:{line_number}") for line_number, value in jsonl_lines(path)]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    weights = TotalScoreWeights(alpha1=args.alpha1, alpha2=args.alpha2, alpha3=args.alpha3)
    reports = []
    triples = _read_predictions(args.predictions)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for prediction, annotation, lyrics in triples:
            report = evaluate(prediction, annotation, lyrics, weights)
            reports.append(report)
            out.write(json.dumps(report.to_dict(), sort_keys=True, allow_nan=False) + "\n")
        if reports:
            aggregate = {"aggregate": True, "n": len(reports), **mean_report(reports).to_dict()}
            out.write(json.dumps(aggregate, sort_keys=True, allow_nan=False) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    if args.config:
        grid = ExperimentGrid.from_dict(load_json(args.config))
    else:
        grid = default_grid()
    if args.seed is not None:
        grid = dataclasses.replace(grid, seed=args.seed)
    if args.endpoint:
        remote = ModelSpec(model_id="remote0", kind="remote", endpoint=args.endpoint)
        grid = dataclasses.replace(grid, models=(remote,))
    result = run_grid(grid, args.corpus, args.out)
    _warn_skipped(result.corpus_errors)
    paths = emit_report(result, args.out)
    print(
        f"grid complete: {len(result.means)} combinations, {len(result.rows)} rows, "
        f"{len(result.failures)} failures"
    )
    for path in [os.path.join(args.out, "grid.jsonl"), *paths]:
        print(f"wrote {path}")
    if result.failures:
        print(f"warning: {len(result.failures)} combinations failed", file=sys.stderr)
    return 0 if result.rows else 1


def _cmd_serve_mock(args: argparse.Namespace) -> int:
    model = NGramModel.load(args.model)
    if args.stdio:
        serve_stdio(model)
        return 0
    server = LMServer(model, host=args.host, port=args.port)
    print(f"listening on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyricsense",
        description="Generate and evaluate natural-language meanings for song lyrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ratios_help = "train,validation,test ratios (default {},{},{})".format(*SPLIT_RATIOS)

    p_ingest = sub.add_parser("ingest", help="load, clean, split and summarize a corpus")
    p_ingest.add_argument("--corpus", required=True, help="JSONL corpus file")
    p_ingest.add_argument("--out", required=True, help="output directory")
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--ratios", type=_parse_ratios, default=SPLIT_RATIOS, help=ratios_help)
    p_ingest.set_defaults(func=_cmd_ingest)

    p_fit = sub.add_parser("fit-lm", help="fit the reference n-gram model on the train split")
    p_fit.add_argument("--corpus", required=True)
    p_fit.add_argument("--out", required=True, help="model file to write")
    p_fit.add_argument("--order", type=int, default=ModelSpec.order)
    p_fit.add_argument("--smoothing-k", type=float, default=ModelSpec.k)
    p_fit.add_argument("--vocab-cap", type=int, default=ModelSpec.vocab_cap)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--ratios", type=_parse_ratios, default=SPLIT_RATIOS, help=ratios_help)
    p_fit.set_defaults(func=_cmd_fit_lm)

    p_gen = sub.add_parser("generate", help="decode one sample with one prompt and one decoder")
    p_gen_source = p_gen.add_mutually_exclusive_group(required=True)
    p_gen_source.add_argument("--model", help="saved n-gram model file")
    p_gen_source.add_argument("--endpoint", help="host:port of a remote model server")
    p_gen.add_argument("--corpus", help="corpus file (for --sample-id)")
    p_gen.add_argument("--sample-id", help="evaluate this corpus sample")
    p_gen.add_argument("--fragment", help="ad-hoc lyric fragment")
    p_gen.add_argument("--artist", default="")
    p_gen.add_argument("--title", default="")
    p_gen.add_argument("--annotation", default="")
    p_gen.add_argument("--prompt", default="lyrics_meaning",
                       help="prompt id, e.g. lyrics_meaning, question_context_meta, none")
    p_gen.add_argument("--strategy", default="greedy",
                       choices=[s.value for s in Strategy])
    p_gen.add_argument("--decode-config",
                       help="JSON file with a full decoder config (overrides the flags below)")
    p_gen.add_argument("--temperature", type=float, default=DecodeConfig.temperature)
    p_gen.add_argument("--top-k", type=int, default=DecodeConfig.k)
    p_gen.add_argument("--top-p", type=float, default=DecodeConfig.p)
    p_gen.add_argument("--num-beams", type=int, default=DecodeConfig.num_beams)
    p_gen.add_argument("--max-new-tokens", type=int, default=DecodeConfig.max_new_tokens)
    p_gen.add_argument("--seed", type=int, default=DecodeConfig.seed)
    p_gen.set_defaults(func=_cmd_generate)

    p_eval = sub.add_parser("evaluate", help="score a JSONL file of prediction triples")
    p_eval.add_argument("--predictions", required=True,
                        help="JSONL with prediction/annotation/lyrics fields")
    p_eval.add_argument("--out", help="write reports here instead of stdout")
    for alpha in dataclasses.fields(TotalScoreWeights):
        p_eval.add_argument(f"--{alpha.name}", type=float, default=alpha.default)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_grid = sub.add_parser("grid", help="run the full experiment grid")
    p_grid.add_argument("--corpus", required=True)
    p_grid.add_argument("--out", required=True, help="output directory")
    p_grid.add_argument("--config", help="ExperimentGrid JSON file (default: built-in grid)")
    p_grid.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_grid.add_argument("--endpoint", help="run against this remote model only")
    p_grid.set_defaults(func=_cmd_grid)

    p_serve = sub.add_parser("serve-mock", help="serve a saved model over the wire protocol")
    p_serve.add_argument("--model", required=True, help="saved n-gram model file")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0)
    p_serve.add_argument("--stdio", action="store_true", help="serve one session on stdin/stdout")
    p_serve.set_defaults(func=_cmd_serve_mock)

    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, WireError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
