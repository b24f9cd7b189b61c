"""Experiment grid: models x prompts x decoders over fixed evaluation samples.

Every (model, prompt, decoder, sample) row renders the prompt, decodes a
continuation, and scores it against the gold annotation and the full
song lyrics. Rows stream to ``grid.jsonl`` as combinations complete, so
an interrupted run loses at most one combination. Per-row sampler seeds
are derived from the grid seed and the full combination key, making the
output independent of execution order and byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from . import __version__
from .corpus import Sample, clean_corpus, flatten, load_corpus, split
from .decoding import DecodeConfig, Strategy, decode
from .lm import LanguageModel, NGramModel, TrainingTexts, fit_ngram
from .metrics import MetricReport, TotalScoreWeights, evaluate, mean_report
from .prompts import PromptSpec, extract_generation, render, render_with_target
from .rng import derive_seed
from .wire import RemoteLM, WireError

METRIC_FIELDS = ("rouge1", "cos_pred_annotation", "cos_pred_lyrics", "total_score")


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    kind: str  # "ngram" (fit on the train split), "ngram_file", or "remote"
    order: int = 2
    k: float = 0.1
    vocab_cap: int = 5000
    path: Optional[str] = None
    endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("ngram", "ngram_file", "remote"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "ngram_file" and not self.path:
            raise ValueError("ngram_file model needs a path")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote model needs an endpoint")

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
    def from_dict(cls, obj: dict) -> "ModelSpec":
        if "id" not in obj:
            raise ValueError("model spec needs an 'id' field")
        kind = obj.get("type", "ngram")
        return cls(
            model_id=obj["id"],
            kind=kind,
            order=obj.get("order", 2),
            k=obj.get("k", 0.1),
            vocab_cap=obj.get("vocab_cap", 5000),
            path=obj.get("path"),
            endpoint=obj.get("endpoint"),
        )


def default_decoders() -> list[tuple[str, DecodeConfig]]:
    """The five decoding strategies with their default hyperparameters."""
    return [(s.value, DecodeConfig(strategy=s)) for s in Strategy]


@dataclass(frozen=True)
class ExperimentGrid:
    models: tuple[ModelSpec, ...]
    prompts: tuple[PromptSpec, ...]
    decoders: tuple[tuple[str, DecodeConfig], ...]
    eval_samples: Optional[tuple[str, ...]] = None  # pinned sample ids, else top page views
    eval_count: int = 10
    weights: TotalScoreWeights = TotalScoreWeights()
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
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

    def combination_count(self) -> int:
        return len(self.models) * len(self.prompts) * len(self.decoders)

    def to_dict(self) -> dict:
        return {
            "models": [m.to_dict() for m in self.models],
            "prompts": [p.spec_id for p in self.prompts],
            "decoders": [
                {"id": decoder_id, **json.loads(cfg.to_json())} for decoder_id, cfg in self.decoders
            ],
            "eval_samples": list(self.eval_samples) if self.eval_samples else {"top_page_views": self.eval_count},
            "weights": {
                "alpha1": self.weights.alpha1,
                "alpha2": self.weights.alpha2,
                "alpha3": self.weights.alpha3,
            },
            "split_ratios": list(self.split_ratios),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentGrid":
        models = tuple(ModelSpec.from_dict(m) for m in obj.get("models", _default_model_dicts()))
        raw_prompts = obj.get("prompts", "all")
        prompts = (
            tuple(PromptSpec.all_variants())
            if raw_prompts == "all"
            else tuple(PromptSpec.from_id(p) for p in raw_prompts)
        )
        raw_decoders = obj.get("decoders", "all")
        if raw_decoders == "all":
            decoders = tuple(default_decoders())
        else:
            decoders = tuple(
                (
                    d.get("id", d.get("strategy", "")),
                    DecodeConfig.from_dict({k: v for k, v in d.items() if k != "id"}),
                )
                for d in raw_decoders
            )
        raw_eval = obj.get("eval_samples", {"top_page_views": 10})
        if isinstance(raw_eval, dict):
            eval_samples, eval_count = None, int(raw_eval.get("top_page_views", 10))
        else:
            eval_samples, eval_count = tuple(raw_eval), len(raw_eval)
        weights = TotalScoreWeights(**obj.get("weights", {}))
        ratios = tuple(obj.get("split_ratios", (0.8, 0.1, 0.1)))
        return cls(
            models=models,
            prompts=prompts,
            decoders=decoders,
            eval_samples=eval_samples,
            eval_count=eval_count,
            weights=weights,
            split_ratios=ratios,  # type: ignore[arg-type]
            seed=int(obj.get("seed", 0)),
        )


def _default_model_dicts() -> list[dict]:
    return [{"id": f"ngram{n}", "type": "ngram", "order": n} for n in (1, 2, 3)]


def default_grid(seed: int = 0) -> ExperimentGrid:
    """Three reference model orders, all seven prompts, all five decoders."""
    return ExperimentGrid.from_dict({"seed": seed})


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
    # Rows and failure markers in combination order, exactly as streamed
    # to grid.jsonl during the run.
    events: list[Union[GridRow, GridFailure]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.events is None:
            self.events = [*self.rows, *self.failures]


def training_texts(samples: Sequence[Sample]) -> list[str]:
    """Prompt+target renderings of every sample under all seven variants."""
    return [
        render_with_target(spec, sample)
        for sample in samples
        for spec in PromptSpec.all_variants()
    ]


class _ModelHandle:
    """Lazily provides a LanguageModel; remote models get one client per worker."""

    def __init__(self, spec: ModelSpec, train_texts: Optional[TrainingTexts]) -> None:
        """``train_texts`` is the training set every ``ngram`` spec of a grid shares."""
        self.spec = spec
        self._local = threading.local()
        self._clients: list[RemoteLM] = []
        self._lock = threading.Lock()
        if spec.kind == "ngram":
            self._shared: Optional[LanguageModel] = fit_ngram(
                train_texts, order=spec.order, k=spec.k, vocab_cap=spec.vocab_cap
            )
        elif spec.kind == "ngram_file":
            self._shared = NGramModel.load(spec.path)
        else:
            self._shared = None

    def get(self) -> LanguageModel:
        if self._shared is not None:
            return self._shared
        client = getattr(self._local, "client", None)
        if client is None:
            client = RemoteLM(self.spec.endpoint)
            self._local.client = client
            with self._lock:
                self._clients.append(client)
        return client

    def close(self) -> None:
        with self._lock:
            for client in self._clients:
                client.close()
            self._clients.clear()


def _model_handles(models: Sequence[ModelSpec], train: Sequence[Sample]) -> dict[str, _ModelHandle]:
    """One handle per model; the ``ngram`` specs share one rendering of the train split.

    The rendering and its tokens are dropped once the models are fit.
    """
    texts = TrainingTexts(training_texts(train)) if any(m.kind == "ngram" for m in models) else None
    return {spec.model_id: _ModelHandle(spec, texts) for spec in models}


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


def _run_combination(
    handle: _ModelHandle,
    prompt_spec: PromptSpec,
    decoder_id: str,
    cfg: DecodeConfig,
    eval_samples: Sequence[Sample],
    lyrics_by_song: dict[str, str],
    weights: TotalScoreWeights,
    base_seed: int,
) -> Union[tuple[list[GridRow], CombinationMean], GridFailure]:
    model_id = handle.spec.model_id
    prompt_id = prompt_spec.spec_id
    try:
        model = handle.get()
        vocab = model.vocabulary()
        # An n-gram model hands back one cached read-only array per context,
        # so what decoding derives from it is shared by the combination's
        # rows. A remote model builds a fresh array every step: a memo
        # would only hold memory. Dropped when the combination ends.
        memo: Optional[dict] = {} if isinstance(model, NGramModel) else None
        rows = []
        for sample in eval_samples:
            rendered = render(prompt_spec, sample)
            prompt_ids = vocab.encode_text(rendered.text)
            row_seed = derive_seed(
                base_seed, model_id, prompt_id, decoder_id, sample.sample_id, str(cfg.seed)
            )
            generation = decode(model, prompt_ids, replace(cfg, seed=row_seed), memo=memo)
            continuation = vocab.decode_text(generation.ids)
            full_output = rendered.text + (" " + continuation if continuation else "")
            prediction = extract_generation(full_output, rendered)
            report = evaluate(prediction, sample.annotation, lyrics_by_song[sample.song_id], weights)
            rows.append(
                GridRow(
                    model_id=model_id,
                    prompt_id=prompt_id,
                    decoder_id=decoder_id,
                    sample_id=sample.sample_id,
                    prediction=prediction,
                    report=report,
                )
            )
        mean = CombinationMean(model_id, prompt_id, decoder_id, len(rows), mean_report([r.report for r in rows]))
        return rows, mean
    except (WireError, ValueError) as exc:
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

    A combination that raises a wire error or a ``ValueError`` (a bad
    prompt, a model's invalid distribution) is recorded as a failure and
    the grid continues; two runs with the same seed, config and corpus
    produce byte-identical output.
    """
    loaded = load_corpus(corpus_path)
    records = clean_corpus(loaded.records)
    samples = flatten(records)
    train, _validation, test = split(samples, grid.split_ratios, grid.seed)
    lyrics_by_song = {r.song_id: r.lyrics for r in records}
    views_by_song = {r.song_id: r.page_views or 0 for r in records}
    eval_samples = _resolve_eval_samples(grid, test, views_by_song)

    handles = _model_handles(grid.models, train)
    provenance = _provenance(grid, corpus_path)
    combos = [
        (model_spec, prompt_spec, decoder_id, cfg)
        for model_spec in grid.models
        for prompt_spec in grid.prompts
        for decoder_id, cfg in grid.decoders
    ]

    rows: list[GridRow] = []
    means: list[CombinationMean] = []
    failures: list[GridFailure] = []
    events: list[Union[GridRow, GridFailure]] = []
    os.makedirs(out_dir, exist_ok=True)
    grid_path = os.path.join(out_dir, "grid.jsonl")
    try:
        with open(grid_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
            with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
                futures = [
                    pool.submit(
                        _run_combination,
                        handles[model_spec.model_id],
                        prompt_spec,
                        decoder_id,
                        cfg,
                        eval_samples,
                        lyrics_by_song,
                        grid.weights,
                        grid.seed,
                    )
                    for model_spec, prompt_spec, decoder_id, cfg in combos
                ]
                # Consume in submission order so the output file is deterministic.
                for future in futures:
                    outcome = future.result()
                    if isinstance(outcome, GridFailure):
                        failures.append(outcome)
                        events.append(outcome)
                        fh.write(json.dumps(outcome.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")
                    else:
                        combo_rows, mean = outcome
                        rows.extend(combo_rows)
                        means.append(mean)
                        events.extend(combo_rows)
                        for row in combo_rows:
                            fh.write(json.dumps(row.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")
                    fh.flush()
    finally:
        for handle in handles.values():
            handle.close()
    return GridResult(rows=rows, means=means, failures=failures, provenance=provenance, events=events)


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
    """Write grid.jsonl, summary.csv and plotdata.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    provenance_line = json.dumps({"provenance": result.provenance}, sort_keys=True)

    grid_path = os.path.join(out_dir, "grid.jsonl")
    with open(grid_path, "w", encoding="utf-8") as fh:
        fh.write(provenance_line + "\n")
        for event in result.events:
            fh.write(json.dumps(event.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# provenance: {provenance_line}\n")
        fh.write("model,prompt,decoder,n_samples," + ",".join(METRIC_FIELDS) + ",status\n")
        for mean in result.means:
            cells = [mean.model_id, mean.prompt_id, mean.decoder_id, str(mean.n_samples)]
            cells += [repr(getattr(mean.mean, field)) for field in METRIC_FIELDS]
            cells.append("ok")
            fh.write(",".join(cells) + "\n")
        for failure in result.failures:
            cells = [failure.model_id, failure.prompt_id, failure.decoder_id, "0", "", "", "", ""]
            cells.append(failure.error_type)
            fh.write(",".join(cells) + "\n")

    plot_path = os.path.join(out_dir, "plotdata.json")
    plotdata = {
        "provenance": result.provenance,
        "total_score_by_prompt": _group_total_scores(result.means, "prompt_id"),
        "total_score_by_decoder": _group_total_scores(result.means, "decoder_id"),
    }
    with open(plot_path, "w", encoding="utf-8") as fh:
        json.dump(plotdata, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")

    return [grid_path, summary_path, plot_path]
