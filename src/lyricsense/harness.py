"""Experiment grid: models x prompts x decoders over fixed evaluation samples.

Every (model, prompt, decoder, sample) row renders the prompt, decodes a
continuation, and scores it against the gold annotation and the full
song lyrics. The rows of one combination decode in lockstep
(``decoding.decode_many``), so the model is asked once per decode step
for all of them: one round trip per step for a remote model. The grid
runs serially, one model's turn at a time, and within a turn
decoder-major: for each decoder, every prompt. A model exists only for
its turn: fit or loaded as the turn opens (a remote one connects on its
first combination), dropped (a remote one closed) with its row cache and
last memo as it ends. A spec that cannot be fit or loaded raises at its
turn, after the earlier models' rows are written. The combinations of
one (model, decoder) pair share one decode memo. The n-gram row cache
and the memo are each bounded by ``lm.CACHE_BYTES``, so a pass holds at
most one model's cache and one memo at a time.
``run_grid`` still writes ``grid.jsonl`` in combination order (model,
prompt, decoder), each combination as soon as every one before it is
written, so an interrupted run loses at most one model's combinations;
``emit_report`` writes ``summary.csv`` and ``plotdata.json``, which
``run_grid`` deletes before it rewrites ``grid.jsonl``, so a directory
never mixes two runs.
Per-row sampler seeds are derived from the grid seed and the full
combination key, making the output byte-reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from . import __version__
from .corpus import SPLIT_RATIOS, LoadError, Sample, clean_corpus, flatten, load_corpus, split
# ``decode`` stays importable as ``harness.decode``: bench/tracing.py wraps it by name.
from .decoding import DecodeConfig, Strategy, decode, decode_many  # noqa: F401
from .jsonfields import no_unknown_fields, required, typed
from .lm import MAX_ORDER, SMOOTHING_K, VOCAB_CAP, LanguageModel, NGramModel, TrainingTexts, fit_ngram
from .metrics import METRIC_FIELDS, MetricReport, TotalScoreWeights, evaluate, mean_report
# ``render_with_target`` stays importable as ``harness.render_with_target``: bench/tracing.py wraps it by name.
from .prompts import PromptError, PromptSpec, render, render_with_target, target_parts  # noqa: F401
from .rng import derive_seed
from .wire import RemoteLM, WireError

_REPORT_FILES = ("summary.csv", "plotdata.json")  # what emit_report writes beside grid.jsonl

# Each model config key: its ModelSpec field and its JSON type.
_MODEL_KEYS = {"id": ("model_id", str), "type": ("kind", str), "order": ("order", int), "k": ("k", float),
               "vocab_cap": ("vocab_cap", int), "path": ("path", str), "endpoint": ("endpoint", str)}


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    kind: str = "ngram"  # "ngram" (fit on the train split), "ngram_file", or "remote"
    order: int = 2
    k: float = SMOOTHING_K
    vocab_cap: int = VOCAB_CAP
    path: Optional[str] = None
    endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("ngram", "ngram_file", "remote"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "ngram_file" and not self.path:
            raise ValueError("ngram_file model needs a path")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote model needs an endpoint")
        # A fit's |V| is at most vocab_cap + 3, and far below the largest float.
        if self.kind == "ngram" and not (1 <= self.order <= MAX_ORDER and self.k > 0 and self.vocab_cap >= 3
                                         and math.isfinite(self.k * min(self.vocab_cap + 3, sys.float_info.max))):
            raise ValueError(f"ngram model needs 1 <= order <= {MAX_ORDER}, k > 0, vocab_cap >= 3 "
                             "and a finite k * (vocab_cap + 3)")

    def to_dict(self) -> dict:
        obj: dict = {"id": self.model_id, "type": self.kind}
        if self.kind == "ngram":
            obj.update(order=self.order, k=self.k, vocab_cap=self.vocab_cap)
        elif self.kind == "ngram_file":
            obj["path"] = self.path
        else:
            obj["endpoint"] = self.endpoint
        return obj

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model") -> "ModelSpec":
        """Read a model spec; errors name the config path ``where``, such as ``models[0]``."""
        typed(obj, dict, where)
        no_unknown_fields(obj, _MODEL_KEYS, where)
        required(obj, "id", where)
        present = {attr: typed(obj[key], kind, f"{where}.{key}")
                   for key, (attr, kind) in _MODEL_KEYS.items() if key in obj}
        try:
            return cls(**present)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ExperimentGrid:
    models: tuple[ModelSpec, ...] = tuple(ModelSpec(f"ngram{n}", order=n) for n in (1, 2, 3))
    prompts: tuple[PromptSpec, ...] = tuple(PromptSpec.all_variants())
    decoders: tuple[tuple[str, DecodeConfig], ...] = tuple((s.value, DecodeConfig(strategy=s)) for s in Strategy)
    eval_samples: Optional[tuple[str, ...]] = None  # pinned sample ids, else top page views
    eval_count: int = 10
    weights: TotalScoreWeights = TotalScoreWeights()
    split_ratios: tuple[float, float, float] = SPLIT_RATIOS
    seed: int = 0

    def __post_init__(self) -> None:
        model_ids = [m.model_id for m in self.models]
        if len(set(model_ids)) != len(model_ids):
            raise ValueError("model ids must be unique")
        decoder_ids = [d for d, _ in self.decoders]
        if len(set(decoder_ids)) != len(decoder_ids):
            raise ValueError("decoder ids must be unique")
        if len({p.spec_id for p in self.prompts}) != len(self.prompts):
            raise ValueError("prompt variants must be unique")
        if self.eval_count < 1:
            raise ValueError("eval_samples: expected at least one evaluation sample")

    def to_dict(self) -> dict:
        return {
            "models": [m.to_dict() for m in self.models],
            "prompts": [p.spec_id for p in self.prompts],
            "decoders": [{"id": decoder_id, **cfg.to_dict()} for decoder_id, cfg in self.decoders],
            "eval_samples": list(self.eval_samples) if self.eval_samples else {"top_page_views": self.eval_count},
            "weights": asdict(self.weights),
            "split_ratios": list(self.split_ratios),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentGrid":
        """Read a grid config; a malformed one is a ``ValueError`` naming its config path."""
        typed(obj, dict, "grid config")
        # eval_count is read from eval_samples, not a key of its own.
        no_unknown_fields(obj, set(cls.__dataclass_fields__) - {"eval_count"}, "grid config")

        def items(name: str, kind: type, read: Callable = lambda item, where: item) -> tuple:
            """The list field ``name``: each item checked to be a ``kind``, then ``read(item, where)``."""
            values = typed(obj[name], list, name)
            return tuple(read(typed(v, kind, f"{name}[{i}]"), f"{name}[{i}]") for i, v in enumerate(values))

        present: dict = {}
        if "models" in obj:
            present["models"] = items("models", dict, ModelSpec.from_dict)
        if obj.get("prompts", "all") != "all":
            present["prompts"] = items("prompts", str, PromptSpec.from_id)
        if obj.get("decoders", "all") != "all":
            present["decoders"] = items("decoders", dict, _decoder)
        raw_eval = obj.get("eval_samples", {})
        if isinstance(raw_eval, dict):
            no_unknown_fields(raw_eval, ("top_page_views",), "eval_samples")
            if "top_page_views" in raw_eval:
                present["eval_count"] = typed(raw_eval["top_page_views"], int, "eval_samples.top_page_views")
        elif isinstance(raw_eval, list):
            eval_samples = present["eval_samples"] = items("eval_samples", str)
            present["eval_count"] = len(eval_samples)
        else:
            raise ValueError(f"eval_samples: expected a list or an object, got {type(raw_eval).__name__}")
        if "weights" in obj:
            raw = typed(obj["weights"], dict, "weights")
            no_unknown_fields(raw, TotalScoreWeights.__dataclass_fields__, "weights")
            alphas = {k: typed(v, float, f"weights.{k}") for k, v in raw.items()}
            try:
                present["weights"] = TotalScoreWeights(**alphas)
            except ValueError as exc:
                raise ValueError(f"weights: {exc}") from None
        if "split_ratios" in obj:
            ratios = present["split_ratios"] = items("split_ratios", float)
            if len(ratios) != 3:
                raise ValueError(f"split_ratios: expected 3 ratios, got {len(ratios)}")
        if "seed" in obj:
            present["seed"] = typed(obj["seed"], int, "seed")
        return cls(**present)


def _decoder(obj: dict, where: str) -> tuple[str, DecodeConfig]:
    """One ``decoders`` entry: its id (default: the strategy) and its config."""
    cfg = DecodeConfig.from_dict({k: v for k, v in obj.items() if k != "id"}, where)
    return typed(obj.get("id", obj.get("strategy")), str, f"{where}.id"), cfg


def default_grid(seed: int = 0) -> ExperimentGrid:
    """Three reference model orders, all seven prompts, all five decoders."""
    return ExperimentGrid(seed=seed)


@dataclass(frozen=True)
class GridRow:
    model_id: str
    prompt_id: str
    decoder_id: str
    sample_id: str
    prediction: str
    report: MetricReport

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "prompt": self.prompt_id,
            "decoder": self.decoder_id,
            "sample": self.sample_id,
            "prediction": self.prediction,
            **self.report.to_dict(),
        }


@dataclass(frozen=True)
class CombinationMean:
    model_id: str
    prompt_id: str
    decoder_id: str
    n_samples: int
    mean: MetricReport


@dataclass(frozen=True)
class GridFailure:
    model_id: str
    prompt_id: str
    decoder_id: str
    error_type: str
    message: str

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "prompt": self.prompt_id,
            "decoder": self.decoder_id,
            "error": {"type": self.error_type, "message": self.message},
        }


@dataclass
class GridResult:
    rows: list[GridRow]
    means: list[CombinationMean]
    failures: list[GridFailure]
    provenance: dict
    corpus_errors: list[LoadError] = field(default_factory=list)  # the corpus lines the run skipped


def training_parts(samples: Sequence[Sample]) -> list[tuple[str, ...]]:
    """``prompts.target_parts`` of every sample under all seven variants, sample by sample.

    A sample that a variant cannot render is a ``PromptError`` naming it.
    """
    variants = PromptSpec.all_variants()
    parts = []
    for sample in samples:
        try:
            parts += [target_parts(spec, sample) for spec in variants]
        except PromptError as exc:
            raise PromptError(f"train sample {sample.sample_id!r}: {exc}") from None
    return parts


def training_texts(samples: Sequence[Sample]) -> list[str]:
    """Prompt+target renderings of every sample under all seven variants: the joins of ``training_parts``."""
    return ["".join(parts) for parts in training_parts(samples)]


def _open_model(spec: ModelSpec, texts: Optional[TrainingTexts]) -> Optional[LanguageModel]:
    """``spec``'s model fit on ``texts`` or loaded from its file; None for a ``remote`` spec, which connects later."""
    if spec.kind == "ngram":
        return fit_ngram(texts, order=spec.order, k=spec.k, vocab_cap=spec.vocab_cap)
    if spec.kind == "ngram_file":
        return NGramModel.load(spec.path)
    return None


def _resolve_eval_samples(
    grid: ExperimentGrid, test_samples: list[Sample], views_by_song: dict[str, int]
) -> list[Sample]:
    if not test_samples:
        raise ValueError("test split is empty; cannot pick evaluation samples")
    if grid.eval_samples is not None:
        by_id = {s.sample_id: s for s in test_samples}
        missing = [sid for sid in grid.eval_samples if sid not in by_id]
        if missing:
            raise ValueError(f"eval samples not in the test split: {missing}")
        return [by_id[sid] for sid in grid.eval_samples]
    # Default rule: highest page views first, corpus order as tiebreak.
    ranked = sorted(
        enumerate(test_samples), key=lambda item: (-views_by_song.get(item[1].song_id, 0), item[0])
    )
    return [s for _, s in ranked[: grid.eval_count]]


def generate_meaning(
    model: LanguageModel,
    spec: PromptSpec,
    samples: Sequence[Sample],
    cfgs: Sequence[DecodeConfig],
    memo: Optional[dict] = None,
) -> list[str]:
    """Render each sample under ``spec``, decode all of them in lockstep and return each generated meaning.

    ``cfgs[i]`` decodes ``samples[i]``; ``memo`` is shared by the rows
    (see :mod:`lyricsense.decoding`). A meaning is the decoded continuation,
    left-stripped: what ``extract_generation`` finds after the prompt text.
    A sample that ``spec`` cannot render is a ``PromptError`` naming it.
    """
    vocab = model.vocabulary()
    prompts = []
    for sample in samples:
        try:
            prompts.append(vocab.encode_text(render(spec, sample).text))
        except PromptError as exc:
            raise PromptError(f"sample {sample.sample_id!r}: {exc}") from None
    return [vocab.decode_text(g.ids).lstrip() for g in decode_many(model, prompts, cfgs, memo=memo)]


def _run_combination(
    models: dict[str, Union[LanguageModel, WireError, None]],
    model_spec: ModelSpec,
    prompt_spec: PromptSpec,
    decoder_id: str,
    cfg: DecodeConfig,
    memo: Optional[dict],
    eval_samples: Sequence[Sample],
    lyrics_by_song: dict[str, str],
    weights: TotalScoreWeights,
    base_seed: int,
) -> Union[tuple[list[GridRow], CombinationMean], GridFailure]:
    """One combination's rows and mean, or its failure.

    All rows decode in lockstep, each under its own seeded config, and
    share ``memo`` (see :mod:`lyricsense.decoding`). A remote model
    connects on its first combination and is stored in ``models`` for
    the rest. A failed connect is stored in its place, so
    every later combination of that model fails at once with the same
    error type and message, and is never retried. After a wire error on
    a connected client the client is closed and its entry reset, since a
    broken exchange may leave unread reply bytes, so the next combination
    connects afresh; a retryable one (a timeout, a closed connection) is
    retried once on a new connection. Each row is a pure function of its
    seed, so a retry gives the same rows.
    """
    model_id = model_spec.model_id
    prompt_id = prompt_spec.spec_id
    cfgs = [
        replace(cfg, seed=derive_seed(base_seed, model_id, prompt_id, decoder_id, sample.sample_id, str(cfg.seed)))
        for sample in eval_samples
    ]
    retried = False
    while True:
        model = models[model_id]
        if isinstance(model, WireError):
            return GridFailure(model_id, prompt_id, decoder_id, type(model).__name__, str(model))
        try:
            if model is None:
                model = models[model_id] = RemoteLM(model_spec.endpoint)
            predictions = generate_meaning(model, prompt_spec, eval_samples, cfgs, memo=memo)
            rows = [
                GridRow(
                    model_id=model_id,
                    prompt_id=prompt_id,
                    decoder_id=decoder_id,
                    sample_id=sample.sample_id,
                    prediction=prediction,
                    report=evaluate(prediction, sample.annotation, lyrics_by_song[sample.song_id], weights),
                )
                for sample, prediction in zip(eval_samples, predictions)
            ]
            mean = CombinationMean(model_id, prompt_id, decoder_id, len(rows), mean_report([r.report for r in rows]))
            return rows, mean
        except WireError as exc:
            client = models[model_id]
            if client is None:  # the connect failed
                models[model_id] = exc
            elif isinstance(client, RemoteLM):
                client.close()
                models[model_id] = None
                if exc.retryable and not retried:
                    retried = True
                    continue
            return GridFailure(model_id, prompt_id, decoder_id, type(exc).__name__, str(exc))
        except ValueError as exc:
            return GridFailure(model_id, prompt_id, decoder_id, type(exc).__name__, str(exc))


def _provenance(grid: ExperimentGrid, corpus_path: str) -> dict:
    with open(corpus_path, "rb") as fh:
        corpus_sha = hashlib.sha256(fh.read()).hexdigest()
    config_canonical = json.dumps(grid.to_dict(), sort_keys=True).encode("utf-8")
    return {
        "toolkit": "lyricsense",
        "version": __version__,
        "seed": grid.seed,
        "corpus_sha256": corpus_sha,
        "config_sha256": hashlib.sha256(config_canonical).hexdigest(),
    }


def run_grid(
    grid: ExperimentGrid, corpus_path: str, out_dir: str, workers: int = 1
) -> GridResult:
    """Execute the full grid, streaming rows to ``out_dir/grid.jsonl``.

    ``workers`` is ignored; ``bench/grid_proc.py`` passes it. The models'
    turns run in the calling thread, as the module docstring describes:
    every ``ngram`` spec is fit from the pass's one tokenization of the
    train split, and a connected client is closed as its turn ends, also on an
    error. Each (model, decoder) pair of an in-process n-gram model gets
    one bounded decode memo, since every prompt's rows step through the
    same cached arrays; a remote model gets none. Outcomes are held until
    every combination before them in combination order is written, so
    ``grid.jsonl`` and the result lists keep that order. A combination
    that raises a wire error or a ``ValueError`` (an unreachable endpoint,
    a bad prompt, a model's invalid distribution) is recorded as a failure
    and the grid continues; two runs with the same seed, config and corpus
    produce byte-identical output.
    """
    loaded = load_corpus(corpus_path)
    records = clean_corpus(loaded.records)
    samples = flatten(records)
    train, _validation, test = split(samples, grid.split_ratios, grid.seed)
    lyrics_by_song = {r.song_id: r.lyrics for r in records}
    views_by_song = {r.song_id: r.page_views or 0 for r in records}
    eval_samples = _resolve_eval_samples(grid, test, views_by_song)

    texts = TrainingTexts(training_parts(train)) if any(m.kind == "ngram" for m in grid.models) else None
    provenance = _provenance(grid, corpus_path)

    rows: list[GridRow] = []
    means: list[CombinationMean] = []
    failures: list[GridFailure] = []
    os.makedirs(out_dir, exist_ok=True)
    for name in _REPORT_FILES:  # derived from grid.jsonl, so they go before it is rewritten
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, "grid.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance}, sort_keys=True, allow_nan=False) + "\n")
        # Outcomes by combination index, (model, prompt, decoder) order, until written.
        pending: dict[int, Union[tuple[list[GridRow], CombinationMean], GridFailure]] = {}
        written = 0
        n_prompts, n_decoders = len(grid.prompts), len(grid.decoders)
        for m, model_spec in enumerate(grid.models):
            # _run_combination keeps a remote model's client here once it connects.
            models = {model_spec.model_id: _open_model(model_spec, texts)}
            # An n-gram model hands back one cached read-only array per
            # context, so what decoding derives from it serves every prompt
            # of a decoder. A remote model builds a fresh array every step:
            # a memo would only hold memory.
            local = isinstance(models[model_spec.model_id], NGramModel)
            try:
                for d, (decoder_id, cfg) in enumerate(grid.decoders):
                    memo: Optional[dict] = {} if local else None
                    for p, prompt_spec in enumerate(grid.prompts):
                        pending[(m * n_prompts + p) * n_decoders + d] = _run_combination(
                            models, model_spec, prompt_spec, decoder_id, cfg, memo,
                            eval_samples, lyrics_by_song, grid.weights, grid.seed,
                        )
                        while written in pending:
                            outcome = pending.pop(written)
                            written += 1
                            if isinstance(outcome, GridFailure):
                                failures.append(outcome)
                                lines: Sequence[Union[GridRow, GridFailure]] = [outcome]
                            else:
                                lines, mean = outcome
                                rows.extend(lines)
                                means.append(mean)
                            for line in lines:
                                text = json.dumps(line.to_dict(), ensure_ascii=False, sort_keys=True, allow_nan=False)
                                fh.write(text + "\n")
                        fh.flush()
            finally:  # the next model opens only after this one, its row cache and its last memo are gone
                model = models.pop(model_spec.model_id)
                if isinstance(model, RemoteLM):
                    model.close()
                model = memo = None
    return GridResult(rows=rows, means=means, failures=failures, provenance=provenance, corpus_errors=loaded.errors)


def rank_combinations(result: GridResult, metric: str = "total_score") -> list[CombinationMean]:
    """Combination means sorted descending; ties broken by combination key."""
    if metric not in METRIC_FIELDS:
        raise ValueError(f"metric must be one of {METRIC_FIELDS}")
    return sorted(
        result.means,
        key=lambda m: (-getattr(m.mean, metric), (m.model_id, m.prompt_id, m.decoder_id)),
    )


def _group_total_scores(means: Sequence[CombinationMean], key_attr: str) -> dict:
    grouped: dict[str, list[float]] = {}
    for mean in means:
        grouped.setdefault(getattr(mean, key_attr), []).append(mean.mean.total_score)
    return {
        "mean": {key: sum(vals) / len(vals) for key, vals in sorted(grouped.items())},
        "best": {key: max(vals) for key, vals in sorted(grouped.items())},
    }


def emit_report(result: GridResult, out_dir: str) -> list[str]:
    """Write summary.csv and plotdata.json; returns the paths.

    Each file is written under a temporary name in ``out_dir`` and then
    moved into place, so an interrupted write leaves no partial report.
    ``grid.jsonl`` is written by ``run_grid`` alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    provenance_line = json.dumps({"provenance": result.provenance}, sort_keys=True, allow_nan=False)

    header = "model,prompt,decoder,n_samples," + ",".join(METRIC_FIELDS) + ",status\n"
    summary = [f"# provenance: {provenance_line}\n", header]
    for mean in result.means:
        cells = [mean.model_id, mean.prompt_id, mean.decoder_id, str(mean.n_samples)]
        cells += [repr(getattr(mean.mean, name)) for name in METRIC_FIELDS]
        cells.append("ok")
        summary.append(",".join(cells) + "\n")
    for failure in result.failures:
        cells = [failure.model_id, failure.prompt_id, failure.decoder_id, "0"]
        cells += [""] * len(METRIC_FIELDS) + [failure.error_type]
        summary.append(",".join(cells) + "\n")

    plotdata = {
        "provenance": result.provenance,
        "total_score_by_prompt": _group_total_scores(result.means, "prompt_id"),
        "total_score_by_decoder": _group_total_scores(result.means, "decoder_id"),
    }
    plot_text = json.dumps(plotdata, ensure_ascii=False, sort_keys=True, allow_nan=False, indent=2) + "\n"

    paths = [os.path.join(out_dir, name) for name in _REPORT_FILES]
    for path, text in zip(paths, ("".join(summary), plot_text)):
        with open(path + ".tmp", "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
    return paths
